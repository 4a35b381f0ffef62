"""Output checks of the benchmark.

Every check returns a list of failure messages; an empty list is a pass.
A run is correct only if every check passes.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from roughtaylor.harness import StudyConfig, StudyResult

from workloads import PLANAR_SCHEMES, PUBLISHED_EOC, PUBLISHED_TOL, is_overflow_study

# Recorded errors may drift by solver-tolerance build-up (a batched solver
# moved states by up to 2.4e-10 over 4096 steps), which shifts the smallest
# recorded error (1.5e-2) by about 2e-8 of itself.  The checks are not bitwise.
REFERENCE_RTOL = 1e-6
# simplified_milstein and semi_implicit_milstein compute the same trajectory
AGREEMENT_TOL = 1e-8

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class StudyRun:
    config: StudyConfig
    result: StudyResult | None  # None when run_study raised
    error: str | None = None


def study_key(config: StudyConfig) -> str:
    return (
        f"{config.problem}|{config.scheme}|H={config.hurst}|steps={config.step_exponents}"
        f"|ref={config.ref_exponent}"
    )


def seed_rows(result: StudyResult) -> dict[str, list]:
    """Per-seed [error or None, flag] rows, in the form reference.json keeps."""
    return {
        str(seed): [[None if r.flag else r.error, r.flag] for r in table.rows]
        for seed, table in result.seed_tables.items()
    }


def row_counts(runs: list[StudyRun]) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, messages), leaving out the rows of the
    study that is expected to overflow.  A study that raised fails all its
    rows."""
    attempted = failed = 0
    messages = []
    for run in runs:
        if is_overflow_study(run.config):
            continue
        n = len(run.config.seeds) * len(run.config.step_exponents)
        attempted += n
        if run.result is None:
            failed += n
            messages.append(f"{study_key(run.config)} raised: {run.error}")
            continue
        for seed, table in run.result.seed_tables.items():
            for row in table.rows:
                if row.flag is not None:
                    failed += 1
                    messages.append(f"{study_key(run.config)} seed {seed}: row flagged {row.flag}")
    return attempted, failed, messages


def check_overflow(runs: list[StudyRun]) -> list[str]:
    messages = []
    for run in runs:
        if not is_overflow_study(run.config) or run.result is None:
            continue
        for seed, table in run.result.seed_tables.items():
            for row in table.rows:
                if row.flag is None or "blowup" not in row.flag:
                    messages.append(f"overflow study seed {seed}: row not flagged blowup ({row.flag})")
    return messages


def check_published_gate(runs: list[StudyRun]) -> list[str]:
    """For the example1 studies: the mean over every seed of the run of the
    per-seed average EOC, per Hurst value, is within PUBLISHED_TOL of the
    published value."""
    pooled = defaultdict(list)
    for run in runs:
        if run.config.problem == "example1" and run.result is not None:
            H = run.config.hurst[0]
            pooled[H] += [t.average_eoc for t in run.result.seed_tables.values()]
    messages = []
    for H, avgs in pooled.items():
        vals = [v for v in avgs if not math.isnan(v)]
        if not vals:
            messages.append(f"H={H}: no seed gave an EOC")
            continue
        mean = sum(vals) / len(vals)
        target = PUBLISHED_EOC[H]
        if abs(mean - target) > PUBLISHED_TOL:
            messages.append(
                f"H={H}: mean average EOC {mean:.4f} over {len(vals)} seeds is not within "
                f"{PUBLISHED_TOL} of the published {target}"
            )
    return messages


def check_agreement(runs: list[StudyRun]) -> list[str]:
    """The two planar Milstein studies on the same seeds agree row by row."""
    by_seeds = defaultdict(dict)
    for run in runs:
        if run.config.scheme in PLANAR_SCHEMES and run.result is not None:
            by_seeds[run.config.seeds][run.config.scheme] = run.result
    messages = []
    for seeds, pair in by_seeds.items():
        if len(pair) != 2:
            messages.append(f"seeds {seeds}: only {sorted(pair)} ran")
            continue
        a, b = (pair[s] for s in PLANAR_SCHEMES)
        if abs(a.mean_average_eoc - b.mean_average_eoc) > AGREEMENT_TOL:
            messages.append(
                f"seeds {seeds}: mean average EOC {a.mean_average_eoc!r} vs {b.mean_average_eoc!r}"
            )
        for seed in seeds:
            for ra, rb in zip(a.seed_tables[seed].rows, b.seed_tables[seed].rows):
                if ra.flag != rb.flag or (
                    ra.flag is None and abs(ra.error - rb.error) > AGREEMENT_TOL
                ):
                    messages.append(
                        f"seed {seed} h={ra.h}: {PLANAR_SCHEMES[0]} {ra.error!r} ({ra.flag}) vs "
                        f"{PLANAR_SCHEMES[1]} {rb.error!r} ({rb.flag})"
                    )
    return messages


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL)


def _eoc_matches(got: float, want: float | None) -> bool:
    if math.isnan(got) or want is None:
        return math.isnan(got) and want is None
    return math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_RTOL)


def check_reference(runs: list[StudyRun], reference: dict) -> list[str]:
    """Golden studies match the values recorded in reference.json."""
    messages = []
    for run in runs:
        key = study_key(run.config)
        if run.result is None:
            messages.append(f"golden {key} raised: {run.error}")
            continue
        want = reference.get(key)
        if want is None or set(want["seeds"]) != {str(s) for s in run.config.seeds}:
            messages.append(f"golden {key} seeds {run.config.seeds}: no recorded reference")
            continue
        got_eoc, want_eoc = run.result.mean_average_eoc, want["mean_average_eoc"]
        if not _eoc_matches(got_eoc, want_eoc):
            messages.append(f"golden {key}: mean average EOC {got_eoc!r}, recorded {want_eoc!r}")
        for seed, rows in seed_rows(run.result).items():
            for (err, flag), (ref_err, ref_flag) in zip(rows, want["seeds"][seed]):
                if flag != ref_flag or not _close(err, ref_err):
                    messages.append(
                        f"golden {key} seed {seed}: error {err!r} ({flag}), "
                        f"recorded {ref_err!r} ({ref_flag})"
                    )
    return messages


def check_identical_files(dir_a: Path, dir_b: Path) -> list[str]:
    """Two runs of the same configs wrote byte-identical CSVs."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b or not names_a:
        return [f"repeated runs wrote different file sets: {names_a} vs {names_b}"]
    return [
        f"{name} differs between repeated runs"
        for name in names_a
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()
    ]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
