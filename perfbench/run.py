"""Convergence-study benchmark of roughtaylor.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hurst_sweep --seed 0 --seconds 25 --trace 0

One run imports ``roughtaylor`` from the checkout's ``src/``, sets up, then
runs whole cycles of its workload's studies back to back (closed loop, one
caller) until ``--seconds`` have passed, checks the outputs, and prints one
line per metric followed, as the last line of standard output, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of the untraced timed phase:

- ``setup_s``: median time of ``import roughtaylor`` in a fresh interpreter
  plus median time of building the factors the timed phase reuses;
- ``study_s``: wall time per ``run_study`` call of one cycle, each unit of
  the cycle timed at its fastest repeat in the run;
- ``steps_per_s``: scheme steps completed (reference and coarse
  trajectories of every seed) per second of that same cycle;
- ``peak_rss_mb``: peak resident memory of the benchmark process.

Each timed piece (a unit, an import, a factor build) runs pinned to the
CPU, of those the process may use, that ran a short probe loop fastest
just before it.

Study rows flagged ``solver:``/``blowup:`` (or studies that raised), outside
the study expected to overflow, are counted in ``failed`` against
``attempted`` and printed as ``failed_frac``.

``--trace 1`` then repeats the same studies with every layer wrapped (see
``spans.py``) and reports the per-layer metrics instead, per study of the
traced pass, with the traced/untraced ratio of fastest-cycle walls as
``trace.overhead_frac``.

``--seed`` is the base offset of the fBm sampling seeds, so a claim can be
re-checked on a held-out seed; the program only receives the generated
study configs.  Results, CSVs, spans and a run manifest go to
``perfbench/out/<workload>-seed<seed>-trace<trace>/``.

Exit code 0 when every check passes, 1 when one fails, 2 when the program
is not in the checkout or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Set-up is repeated and its median reported; the factor builds cost ~2 s each.
IMPORT_REPEATS = 7
BUILD_REPEATS = 3
# One BLAS thread: the study loop is one serial caller, and on a 2-vCPU VM a
# second OpenBLAS thread, spinning after each sampling GEMV, slowed the
# Python solver loop by 10-25% and made it noisier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before each timed piece, a loop of this many iterations (~3 ms) is timed
# this many times on every CPU the process may use.
PROBE_ITERATIONS = 50_000
PROBE_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import roughtaylor; print(time.perf_counter() - t)"
)


def prepare_process() -> None:
    """Pin the BLAS thread count and put the checkout's ``src/`` first on
    the import path.  Takes effect only before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# running studies


def _run_one(config, out_dir, run_study):
    from checks import StudyRun

    try:
        return StudyRun(config, run_study(replace(config, out_dir=out_dir)))
    except Exception as err:  # a failing study is counted, the loop goes on
        traceback.print_exc(file=sys.stderr)
        return StudyRun(config, None, repr(err))


def _probe_loop() -> float:
    t0 = time.perf_counter()
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        total += i * 0.5
    return time.perf_counter() - t0


@contextlib.contextmanager
def on_quickest_cpu():
    """Pin the process, for the block, to the one of its CPUs on which a
    short pure-Python loop runs fastest now.  On a shared host each virtual
    CPU is slowed by other tenants in phases of seconds, independently of
    the others.  The probe takes a few milliseconds, outside the timed
    block."""
    cpus = os.sched_getaffinity(0)
    speeds = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(_probe_loop() for _ in range(PROBE_REPEATS))
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _closed_loop(next_cycle, seconds, out_dir, run_study):
    """Run whole cycles until ``seconds`` have passed.  Returns, per cycle,
    the study runs of each unit with the unit's wall time."""
    cycles = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        cycle = []
        for unit in next_cycle():
            with on_quickest_cpu():
                t0 = time.perf_counter()
                runs = [_run_one(config, out_dir, run_study) for config in unit]
                wall = time.perf_counter() - t0
            cycle.append((runs, wall))
        cycles.append(cycle)
    return cycles


def fastest_cycle(cycles):
    """Each unit of the cycle at its fastest repeat.  On a shared host,
    contention from other tenants only ever adds time and comes in phases
    of seconds to minutes, so the fastest repeat is the steady estimate of
    the program's own cost where a median reports the host's phase."""
    return [min(repeats, key=lambda unit: unit[1]) for repeats in zip(*cycles)]


def _cycle_wall(cycle) -> float:
    return sum(wall for _, wall in cycle)


def _flag_step(flag: str) -> int:
    return int(flag.rsplit("=", 1)[1])


def completed_steps(run) -> int:
    """Scheme steps completed by one study: reference plus coarse
    trajectories of every seed, up to the step that was flagged."""
    if run.result is None:
        return 0
    config = run.config
    total = 0
    for table in run.result.seed_tables.values():
        ref_flag = next((r.flag for r in table.rows if r.flag and r.flag.startswith("reference-")), None)
        if ref_flag is not None:
            total += _flag_step(ref_flag)
            continue
        total += 2**config.ref_exponent
        for k, row in zip(sorted(config.step_exponents), table.rows):
            total += 2**k if row.flag is None else _flag_step(row.flag)
    return total


def _import_once() -> float:
    """Time ``import roughtaylor`` in a fresh interpreter."""
    with on_quickest_cpu():
        child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        cwd=ROOT,
    )
    return float(child.stdout.split()[-1])


def _build_once(workload, scale) -> float:
    """Time building, from an empty cache, every factor the timed phase
    reuses (one ``sample_fbm`` call per reference grid)."""
    from roughtaylor import fbm, harness
    from roughtaylor.grids import make_grid

    fbm._chol_cache.clear()  # the factor cache has no public reset
    with on_quickest_cpu():
        start = time.perf_counter()
        for config in workload.warm(scale):
            problem, m, default_hurst = harness.example_problem(config.problem)
            grid = make_grid(problem.T, 2**config.ref_exponent)
            fbm.sample_fbm(fbm.FbmConfig(config.hurst or default_hurst, m, grid, 0))
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# metrics


def _layer_metrics(rec, traced_wall, overhead, n_studies) -> dict[str, tuple[float, str]]:
    own = rec.self_times()
    c = rec.counts
    per = 1.0 / n_studies
    solves = c["solver.solve_calls"]
    draws = c["fbm.component_draws"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "fbm.covariance_s": (own["fbm.covariance"] * per, "s/study"),
        "fbm.cholesky_s": (own["fbm.cholesky"] * per, "s/study"),
        "fbm.factor_builds": (c["fbm.factor_builds"] * per, "count/study"),
        "fbm.component_draws": (draws * per, "count/study"),
        "fbm.factor_hit_ratio": (1.0 - ratio(c["fbm.factor_builds"], draws), "ratio"),
        "fbm.sample_s": (own["fbm.sample"] * per, "s/study"),
        "fbm.sample_gbps_computed": (ratio(c["fbm.sample_bytes"], own["fbm.sample"]) / 1e9, "GB/s"),
        "fbm.restrict_s": (own["fbm.restrict"] * per, "s/study"),
        "lift.lift_s": (own["lift.lift"] * per, "s/study"),
        "lift.lift_calls": (c["lift.lift_calls"] * per, "count/study"),
        "fields.composition_s": (own["fields.composition"] * per, "s/study"),
        "fields.composition_calls": (c["fields.composition_calls"] * per, "count/study"),
        "solver.solve_s": (own["solver.solve"] * per, "s/study"),
        "solver.solve_calls": (solves * per, "count/study"),
        "solver.us_per_solve": (ratio(own["solver.solve"], solves) * 1e6, "us"),
        "solver.iters_per_solve": (ratio(c["solver.iterations"], solves), "iter/solve"),
        "solver.fallback_ratio": (ratio(c["solver.contraction"], solves), "ratio"),
        "solver.failures": (c["solver.failures"] * per, "count/study"),
        "schemes.trajectory_s": (own["schemes.trajectory"] * per, "s/study"),
        "schemes.steps": (c["schemes.steps"] * per, "count/study"),
        "schemes.blowups": (c["schemes.blowups"] * per, "count/study"),
        "harness.certify_s": (own["harness.certify"] * per, "s/study"),
        "harness.aggregate_s": (own["harness.study"] * per, "s/study"),
        "harness.csv_s": (own["harness.csv"] * per, "s/study"),
        "harness.csv_bytes": (c["harness.csv_bytes"] * per, "B/study"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.unattributed_s": ((traced_wall - rec.root_time()) * per, "s/study"),
        "trace.studies": (float(n_studies), "count"),
    }


# ---------------------------------------------------------------------------
# manifest


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def _source_identity() -> tuple[int, str]:
    """Line count and content hash of the package sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "roughtaylor").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def _manifest() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines, digest = _source_identity()
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest,
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# one benchmark run


def measure(name: str, seed: int, seconds: float, trace: bool, scale=None, out_root: Path = OUT) -> dict:
    """Set up, run the timed phase (and the traced pass), run the checks and
    write the outputs; returns the report."""
    from roughtaylor import harness

    import checks
    import workloads
    from spans import SpanRecorder, instrumented

    scale = scale or workloads.FULL
    workload = workloads.WORKLOADS[name]
    out = out_root / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    import_reps = [_import_once() for _ in range(IMPORT_REPEATS)]
    build_reps = [_build_once(workload, scale) for _ in range(BUILD_REPEATS)]

    seeds = workloads.timed_seeds(seed)
    cycles = _closed_loop(lambda: workload.cycle(scale, seeds), seconds, out / "studies", harness.run_study)
    walls = [wall for cycle in cycles for _, wall in cycle]
    runs = [run for cycle in cycles for unit, _ in cycle for run in unit]
    all_runs = list(runs)
    problems = []

    if trace:
        rec = SpanRecorder()

        def traced_study(config):
            return rec.call("harness.study", harness.run_study, config)

        traced = []
        traced_walls = []
        with instrumented(rec):
            for k, run in enumerate(runs):
                rec.study = k
                with on_quickest_cpu():
                    t0 = time.perf_counter()
                    traced.append(_run_one(run.config, out / "studies", traced_study))
                    traced_walls.append(time.perf_counter() - t0)
        # the traced pass cut into the untraced pass's units and cycles
        walls_iter = iter(traced_walls)
        traced_cycles = [[(unit, sum(next(walls_iter) for _ in unit)) for unit, _ in cycle] for cycle in cycles]
        overhead = _cycle_wall(fastest_cycle(traced_cycles)) / _cycle_wall(fastest_cycle(cycles)) - 1.0
        all_runs += traced
        rec.write_csv(out / "spans.csv")
        metrics = _layer_metrics(rec, sum(traced_walls), overhead, len(traced))
        computed = sum(completed_steps(r) for r in traced)
        if rec.counts["schemes.steps"] != computed:
            problems.append(
                f"traced scheme steps {rec.counts['schemes.steps']} != {computed} read from the results"
            )
    else:
        best = fastest_cycle(cycles)
        best_wall = _cycle_wall(best)
        metrics = {
            "setup_s": (statistics.median(import_reps) + statistics.median(build_reps), "s"),
            "study_s": (best_wall / sum(len(unit) for unit, _ in best), "s"),
            "steps_per_s": (sum(completed_steps(r) for unit, _ in best for r in unit) / best_wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    golden = workload.golden(scale)
    golden_a = [_run_one(c, out / "golden_a", harness.run_study) for c in golden]
    golden_b = [_run_one(c, out / "golden_b", harness.run_study) for c in golden]
    all_runs += golden_a + golden_b

    attempted, failed, flagged = checks.row_counts(all_runs)
    problems += flagged
    problems += checks.check_overflow(all_runs)
    problems += checks.check_agreement(all_runs)
    if scale.published_gate:
        problems += checks.check_published_gate(runs)
    problems += checks.check_reference(golden_a, checks.load_reference())
    problems += checks.check_identical_files(out / "golden_a", out / "golden_b")

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "studies": len(runs),
        "unit_walls_s": walls,
        "import_reps_s": import_reps,
        "build_reps_s": build_reps,
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "out": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "roughtaylor" / "__init__.py").is_file():
        print(f"roughtaylor sources not found under {SRC}", file=sys.stderr)
        return 2

    prepare_process()
    import roughtaylor

    if not Path(roughtaylor.__file__).resolve().is_relative_to(SRC):
        print(f"imported roughtaylor from {roughtaylor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = report.pop("out")
    report["manifest"] = _manifest()
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}
    (out / "manifest.json").write_text(json.dumps(report, indent=1) + "\n")

    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for key, m in report["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(
        f"failed_frac {report['failed_frac']:.6g} ratio "
        f"({report['failed']} of {report['attempted']} rows; expected overflow rows excluded)"
    )
    print(f"manifest {(out / 'manifest.json').relative_to(ROOT)}")
    correct = not report["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
