"""Self-tests of the benchmark, at the quick TINY scale.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.prepare_process()

from roughtaylor import harness  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name, tmp_path, trace=False):
    return run.measure(name, 0, 0.01, trace, scale=workloads.TINY, out_root=tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    report = _tiny(name, tmp_path, trace)
    assert report["problems"] == []
    assert report["attempted"] > 0 and report["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: u for k, (_, u) in report["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for value, _ in report["metrics"].values():
        assert isinstance(value, float)


def test_perturbed_eoc_fails_the_reference_check(tmp_path, monkeypatch):
    eoc = harness.eoc
    monkeypatch.setattr(harness, "eoc", lambda errors, steps: eoc(errors, steps) * (1 + 1e-5))
    problems = _tiny("stiff_seeds", tmp_path)["problems"]
    assert problems and all("mean average EOC" in p for p in problems)


def test_perturbed_csv_fails_the_determinism_check(tmp_path, monkeypatch):
    write = harness._write_study_files

    def unstable(config, seed_tables, aggregate):
        files = write(config, seed_tables, aggregate)
        if config.out_dir.name == "golden_b":
            with open(files[-1], "a") as fh:
                fh.write("\n")
        return files

    monkeypatch.setattr(harness, "_write_study_files", unstable)
    problems = _tiny("stiff_seeds", tmp_path)["problems"]
    assert problems == ["example2_implicit_euler_loglog.csv differs between repeated runs"]


def test_perturbed_planar_scheme_fails_the_agreement_check(tmp_path, monkeypatch):
    run_scheme = harness.run_scheme

    def skewed(scheme, problem, path):
        traj = run_scheme(scheme, problem, path)
        if scheme == "simplified_milstein":
            traj.states[1:] += 1e-9 * path.grid.N  # moves each error by >= 1e-7
        return traj

    monkeypatch.setattr(harness, "run_scheme", skewed)
    problems = _tiny("planar_milstein", tmp_path)["problems"]
    assert any("semi_implicit_milstein" in p for p in problems)


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "stiff_seeds", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
