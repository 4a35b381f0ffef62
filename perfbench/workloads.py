"""Benchmark workloads: which convergence studies run, and why.

Each workload is a closed loop: one caller runs ``run_study`` back to back
from one process.  The timed phase repeats a *cycle* of studies until the
run length is used up, so every run does whole cycles and the mix of
studies does not depend on where the loop stopped.  A cycle is split into
*units*, the timing samples: the end-to-end metrics time each unit of
the cycle at its fastest repeat in the run.  Units are kept short (a
fraction of a second where the study allows it), so that some repeats fall
between the phases in which other tenants of a shared host slow it down.

``hurst_sweep``
    example1 / implicit_euler at H = 0.75, 0.5, 0.25, 0.1 (the shape of
    acceptance criterion 4), one seed per study.  Four Hurst values and two
    factor-cache slots, so every study starts with a cold covariance +
    Cholesky factor, as every ``roughtaylor run`` invocation does.  A
    factor-path optimisation shows here.  The reference grid is 2^11 with
    steps 2^-5..2^-9, which keeps the factor path most of a study while a
    study stays short enough to time steadily (at 2^12 the cold factor
    alone takes seconds).  Setup is the import alone.
``stiff_seeds``
    example2 (b = -70 y, C_b < 0: no step restriction, no certification) /
    implicit_euler at H = 0.75, 2 seeds per study and many studies per run,
    with the factor warm from setup.  The per-seed path (sampling, solver, trajectory loop) does all
    the work; no factor is built in the timed phase, so a Cholesky change
    predicts no move here while seed batching shows most.
``planar_milstein``
    example3 at H = 5/12 on both components.  Each cycle runs the same seed
    through ``simplified_milstein`` (increment products) and
    ``semi_implicit_milstein`` (lift tensors), which compute the same
    trajectory by two code paths, then criterion 6's 3-seed forward-Euler
    overflow study, each study a unit of its own.  The only multiplicative workload: 2-d Newton, field
    compositions and the lift.  Both factors (reference 2^12 and 2^9) are
    warm from setup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from roughtaylor.harness import StudyConfig

# Published EOC averages of the additive double-well problem, and the
# tolerance acceptance criterion 4 grants them.
PUBLISHED_EOC = {0.75: 1.04, 0.5: 0.88, 0.25: 0.70, 0.1: 0.54}
PUBLISHED_TOL = 0.25

PLANAR_HURST = (5.0 / 12.0, 5.0 / 12.0)
PLANAR_SCHEMES = ("simplified_milstein", "semi_implicit_milstein")
# Criterion 6's forward-Euler study: the 2^-6 run overflows on every seed.
OVERFLOW = StudyConfig("example3", "explicit_euler", step_exponents=(6,), ref_exponent=9)
OVERFLOW_SEEDS = 3

# Golden studies use these seeds; timed studies draw theirs from 1000 * (seed + 1)
# upwards, so the two never share a sample path.
GOLDEN_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class Scale:
    """Grid sizes of the studies: the benchmark's own (FULL) or a quick
    variant (TINY) used by the self-tests."""

    ref_exponent: int
    steps: tuple[int, ...]
    planar_steps: tuple[int, ...]
    hurst_ref_exponent: int
    hurst_steps: tuple[int, ...]
    hurst_seeds: int
    stiff_seeds: int
    planar_seeds: int
    published_gate: bool


FULL = Scale(12, (5, 6, 7, 8, 9, 10), (5, 6, 7, 8, 9), 11, (5, 6, 7, 8, 9), 1, 2, 1, True)
TINY = Scale(8, (4, 5, 6, 7), (4, 5, 6, 7), 8, (4, 5, 6, 7), 2, 2, 1, False)


@dataclass(frozen=True)
class Workload:
    name: str
    # one cycle of the closed loop as a list of units, taking seeds from the iterator
    cycle: Callable[[Scale, Iterator[int]], list[list[StudyConfig]]]
    # studies with fixed seeds, checked against recorded reference values
    golden: Callable[[Scale], list[StudyConfig]]
    # studies whose reference-grid factor setup builds and the timed phase reuses
    warm: Callable[[Scale], list[StudyConfig]]


def _take(seeds: Iterator[int], n: int) -> tuple[int, ...]:
    return tuple(next(seeds) for _ in range(n))


def _hurst_config(scale: Scale, H: float, seeds: tuple[int, ...]) -> StudyConfig:
    return StudyConfig(
        "example1",
        "implicit_euler",
        hurst=(H,),
        step_exponents=scale.hurst_steps,
        ref_exponent=scale.hurst_ref_exponent,
        seeds=seeds,
    )


def _hurst_cycle(scale, seeds):
    return [[_hurst_config(scale, H, _take(seeds, scale.hurst_seeds))] for H in PUBLISHED_EOC]


def _hurst_golden(scale):
    # The last two Hurst values of a cycle still hold the two cache slots
    # after the timed phase, so these golden studies build no factor.
    return [_hurst_config(scale, H, GOLDEN_SEEDS[:1]) for H in list(PUBLISHED_EOC)[-2:]]


def _stiff_config(scale, seeds):
    return StudyConfig(
        "example2",
        "implicit_euler",
        hurst=(0.75,),
        step_exponents=scale.steps,
        ref_exponent=scale.ref_exponent,
        seeds=seeds,
    )


def _planar_configs(scale, seeds, overflow_seeds):
    studies = [
        StudyConfig(
            "example3",
            scheme,
            hurst=PLANAR_HURST,
            step_exponents=scale.planar_steps,
            ref_exponent=scale.ref_exponent,
            seeds=seeds,
        )
        for scheme in PLANAR_SCHEMES
    ]
    return studies + [replace(OVERFLOW, hurst=PLANAR_HURST, seeds=overflow_seeds)]


def _planar_cycle(scale, seeds):
    configs = _planar_configs(scale, _take(seeds, scale.planar_seeds), _take(seeds, OVERFLOW_SEEDS))
    return [[config] for config in configs]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hurst_sweep",
            _hurst_cycle,
            _hurst_golden,
            lambda scale: [],
        ),
        Workload(
            "stiff_seeds",
            lambda scale, seeds: [[_stiff_config(scale, _take(seeds, scale.stiff_seeds))]],
            lambda scale: [_stiff_config(scale, GOLDEN_SEEDS[:2])],
            lambda scale: [_stiff_config(scale, GOLDEN_SEEDS[:1])],
        ),
        Workload(
            "planar_milstein",
            _planar_cycle,
            lambda scale: _planar_configs(scale, GOLDEN_SEEDS[:1], GOLDEN_SEEDS),
            # the Milstein pair shares one reference grid; the overflow study has its own
            lambda scale: _planar_configs(scale, GOLDEN_SEEDS[:1], GOLDEN_SEEDS)[1:],
        ),
    )
}


def is_overflow_study(config: StudyConfig) -> bool:
    """The forward-Euler study whose rows are expected to overflow."""
    return config.scheme == OVERFLOW.scheme and config.problem == OVERFLOW.problem


def timed_seeds(seed: int) -> Iterator[int]:
    """fBm sampling seeds of the timed phase for one ``--seed``."""
    return itertools.count(1000 * (seed + 1))
