"""Experiment harness.

Built-in example problems, convergence studies against a same-scheme
fine-step reference, pathwise error / experimental-order-of-convergence
tables with CSV emission, the stiffness stability demonstration, and a
deterministic local-order probe on a smooth driver.  A study validates
everything before its first draw, runs each seed on its own, aggregates
the seeds in config order and writes its CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

import numpy as np

from .fbm import FbmConfig, SamplePath, _check_grid_size, _check_seed, restrict, sample_fbm
from .fields import (
    cosine_diffusion,
    cubic_radial_drift,
    double_well_drift,
    linear_drift,
    zero_drift,
    geometric_diffusion,
    _sum_of_squares,
)
from .grids import Grid, _check_target, _write_csv, make_grid
from .lift import RoughLift, chen_compose, piecewise_linear_lift
from .schemes import (
    BlowupError,
    Problem,
    SchemeStepError,
    Trajectory,
    boundedness_bound,
    explicit_euler,
    semi_implicit_taylor,
)
from .solver import _check_step

__all__ = [
    "EXAMPLES",
    "ADDITIVE_SCHEMES",
    "MULTIPLICATIVE_SCHEMES",
    "StudyConfig",
    "ErrorRow",
    "ErrorTable",
    "AggregateRow",
    "StudyResult",
    "example_problem",
    "run_scheme",
    "run_study",
    "eoc",
    "StabilityReport",
    "increment_flip_count",
    "sign_change_count",
    "stability_demo",
    "smooth_driver_path",
    "ProbeResult",
    "probe_default_problem",
    "local_error_probe",
]


# ---------------------------------------------------------------------------
# built-in problems


@dataclass(frozen=True)
class _Example:
    build: Callable[[], Problem]
    default_hurst: tuple[float, ...]


EXAMPLES = {
    # scalar double-well drift, additive noise, started in the left well
    "example1": _Example(
        lambda: Problem(double_well_drift(), xi=[-3.0], T=1.0), (0.75,)
    ),
    # stiff contractive linear drift, additive noise
    "example2": _Example(
        lambda: Problem(linear_drift(-70.0), xi=[2.7], T=1.0), (0.75,)
    ),
    # planar cubic-radial drift with two cosine noise fields
    "example3": _Example(
        lambda: Problem(
            cubic_radial_drift(2), xi=[10.0, -10.0], T=1.0, diffusion=cosine_diffusion()
        ),
        (5.0 / 12.0, 5.0 / 12.0),
    ),
}

# scheme name -> (order of semi_implicit_taylor, or None for forward Euler;
# problem kinds it applies to).  Implicit schemes run on the piecewise-linear
# lift, whose tensors are the increment products of the "simplified" schemes.
_SCHEMES = {
    "implicit_euler": (1, ("additive",)),
    "explicit_euler": (None, ("additive", "multiplicative")),
    "semi_implicit_euler": (1, ("multiplicative",)),
    "semi_implicit_milstein": (2, ("multiplicative",)),
    "semi_implicit_milstein3": (3, ("multiplicative",)),
    "simplified_milstein": (2, ("multiplicative",)),
    "simplified_milstein3": (3, ("multiplicative",)),
}
ADDITIVE_SCHEMES = tuple(name for name, (_, kinds) in _SCHEMES.items() if "additive" in kinds)
MULTIPLICATIVE_SCHEMES = tuple(
    name for name, (_, kinds) in _SCHEMES.items() if "multiplicative" in kinds
)


def example_problem(name: str) -> tuple[Problem, int, tuple[float, ...]]:
    """Return (problem, noise dimension, default Hurst parameters)."""
    if name not in EXAMPLES:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(EXAMPLES)} or 'custom'")
    ex = EXAMPLES[name]
    problem = ex.build()
    return problem, problem.noise_dim, ex.default_hurst


def _scheme_order(scheme: str, problem: Problem) -> int | None:
    """Look a scheme up in _SCHEMES and check that it applies to the problem."""
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(_SCHEMES)}")
    order, kinds = _SCHEMES[scheme]
    kind = "additive" if problem.additive else "multiplicative"
    if kind not in kinds:
        allowed = ADDITIVE_SCHEMES if problem.additive else MULTIPLICATIVE_SCHEMES
        raise ValueError(f"scheme {scheme!r} does not apply to {kind} problems ({allowed})")
    return order


def run_scheme(scheme: str, problem: Problem, path: SamplePath) -> Trajectory:
    """Run one named scheme (ADDITIVE_SCHEMES / MULTIPLICATIVE_SCHEMES) on one
    driver path; the implicit schemes run on its piecewise-linear lift."""
    order = _scheme_order(scheme, problem)
    if order is None:
        return explicit_euler(problem, path)
    lift = piecewise_linear_lift(path, include_level3=order == 3)
    return semi_implicit_taylor(problem, lift, order)


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class StudyConfig:
    """One convergence study: a problem, a scheme, step sizes 2^-k for the
    listed exponents, a finer same-scheme reference, and one run per seed."""

    problem: str
    scheme: str
    hurst: tuple[float, ...] | None = None
    step_exponents: tuple[int, ...] = (5, 6, 7, 8, 9, 10)
    ref_exponent: int = 12
    seeds: tuple[int, ...] = (0,)
    out_dir: str | Path | None = None


@dataclass(frozen=True)
class ErrorRow:
    h: float
    error: float  # nan when flagged
    eoc: float | None
    flag: str | None = None


@dataclass(frozen=True)
class ErrorTable:
    rows: tuple[ErrorRow, ...]

    @property
    def average_eoc(self) -> float:
        vals = [r.eoc for r in self.rows if r.eoc is not None]
        return float(np.mean(vals)) if vals else float("nan")


@dataclass(frozen=True)
class AggregateRow:
    h: float
    mean_error: float
    mean_eoc: float
    std_error: float
    flagged: int = 0


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    seed_tables: dict[int, ErrorTable]
    aggregate: tuple[AggregateRow, ...]
    mean_average_eoc: float
    bound_checks: int
    files: tuple[Path, ...] = ()


def eoc(errors, steps) -> np.ndarray:
    """Experimental orders of convergence between consecutive rows:
    (log e_i - log e_{i-1}) / (log h_i - log h_{i-1})."""
    e = np.asarray(errors, dtype=float)
    h = np.asarray(steps, dtype=float)
    if e.ndim != 1 or e.shape != h.shape or e.size < 2:
        raise ValueError("need matching 1-d errors and steps with at least two entries")
    if not np.all(np.isfinite(e) & (e > 0.0)):
        raise ValueError("errors must be positive and finite")
    if not (np.all(np.isfinite(h) & (h > 0.0)) and np.all(np.diff(h) < 0.0)):
        raise ValueError("steps must be positive, finite and strictly decreasing")
    return np.diff(np.log(e)) / np.diff(np.log(h))


def _validate_config(
    config: StudyConfig, problem: Problem | None
) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Check a study's config; return its sorted step and reference exponents
    and its seeds, as ints (of any size: no check takes one to a float)."""
    if config.problem == "custom" and problem is None:
        raise ValueError("problem='custom' requires an explicit Problem")
    if config.problem in EXAMPLES and problem is not None:
        raise ValueError(
            f"problem {config.problem!r} is built in; use problem='custom' to pass a Problem"
        )
    if not config.step_exponents:
        raise ValueError("need at least one step exponent")
    if any(not (k >= 0 and k % 1 == 0) for k in config.step_exponents):
        raise ValueError(
            f"step exponents must be non-negative integers, got {tuple(config.step_exponents)}"
        )
    if len(set(config.step_exponents)) != len(config.step_exponents):
        raise ValueError(f"step exponents must be distinct, got {tuple(config.step_exponents)}")
    if config.ref_exponent % 1 != 0:
        raise ValueError(f"reference exponent must be an integer, got {config.ref_exponent!r}")
    if config.ref_exponent <= max(config.step_exponents):
        raise ValueError(
            f"reference exponent {config.ref_exponent} must exceed every step exponent"
        )
    if not config.seeds:
        raise ValueError("need at least one seed")
    if len(set(config.seeds)) != len(config.seeds):
        raise ValueError(f"seeds must be distinct, got {tuple(config.seeds)}")
    seeds = tuple(_check_seed(seed) for seed in config.seeds)
    return tuple(sorted(int(k) for k in config.step_exponents)), int(config.ref_exponent), seeds


def _certify_bound(problem: Problem, path: SamplePath, trajectory: Trajectory) -> bool:
    """Assert the a-priori bound on a drift-implicit additive trajectory.

    Applies when 0 <= C_b and 2*C_b*h <= 1.  The bound holds for a
    contractive drift (C_b < 0) too, but it is not certified: that would add
    one drift evaluation per node to every stiff study.
    """
    cb = problem.drift.one_sided_lipschitz
    if cb < 0.0 or 2.0 * cb * trajectory.grid.h > 1.0:
        return False
    bound = boundedness_bound(problem, path)
    peak = float(np.max(np.linalg.norm(trajectory.states, axis=1)))
    if peak > bound:
        raise RuntimeError(
            f"boundedness certificate violated: max |y| = {peak:.6g} > bound {bound:.6g}"
        )
    return True


def run_study(config: StudyConfig, problem: Problem | None = None) -> StudyResult:
    """Run the convergence study: check everything, then run each seed on its
    own (``_run_seed``), aggregate the seeds in ``config.seeds`` order and
    write the CSVs.  A coarse run's pathwise error is the max over its nodes
    of the Euclidean distance to the same-scheme reference on the seed's
    driver; a divergence or failed implicit solve is a flagged row, never
    raised.  Identical configs give byte-identical CSVs."""
    exponents, ref_exponent, seeds = _validate_config(config, problem)
    if config.problem == "custom":
        default_hurst = (0.5,) * problem.noise_dim
    else:
        problem, _, default_hurst = example_problem(config.problem)
    hurst = config.hurst if config.hurst is not None else default_hurst
    if _scheme_order(config.scheme, problem) is not None:
        # each level's step T/2^k, as ldexp so that no exponent overflows
        for k in (*exponents, ref_exponent):
            _check_step(problem.drift, math.ldexp(problem.T, -k))
    _check_grid_size(ref_exponent)  # before 2**ref_exponent is built
    ref_grid = make_grid(problem.T, 2**ref_exponent)
    drivers = [FbmConfig(hurst, problem.noise_dim, ref_grid, seed) for seed in seeds]
    if config.out_dir is not None:  # the largest seed's file has the longest name
        _check_target(config.out_dir, directory=True)
        _check_target(Path(config.out_dir, f"{config.problem}_{config.scheme}_seed{max(seeds)}.csv"))
    # every check is done: the first draw is the first seed's
    certify = problem.additive and config.scheme == "implicit_euler"
    tables, counts = zip(*(_run_seed(problem, config.scheme, exponents, d, certify) for d in drivers))
    seed_tables = dict(zip(seeds, tables))
    aggregate, mean_avg = _aggregate(tables)
    files = () if config.out_dir is None else _write_study_files(config, seed_tables, aggregate)
    return StudyResult(config, seed_tables, aggregate, mean_avg, sum(counts), files)


def _run_seed(problem, scheme, exponents, driver, certify) -> tuple[ErrorTable, int]:
    """One seed of a study, which depends on ``driver`` alone: its ErrorTable
    over ``exponents`` (ascending) and how many of its runs were certified
    (``_certify_bound``, if ``certify``).  The reference runs first; if it
    fails, its flag marks every row."""
    path_ref = sample_fbm(driver)
    rows, certified, ref, ref_flag = [], 0, None, None
    for k in (None, *exponents):  # None: the reference
        factor = 1 if k is None else driver.grid.N // 2**k
        path = path_ref if k is None else restrict(path_ref, factor)
        traj, flag = None, ref_flag
        if flag is None:
            try:
                traj = run_scheme(scheme, problem, path)
            except BlowupError as err:
                flag = f"blowup:step={err.step}"
            except SchemeStepError as err:
                flag = f"solver:step={err.step}"
            else:
                certified += certify and _certify_bound(problem, path, traj)
        if k is None:
            ref, ref_flag = traj, flag and f"reference-{flag}"
            continue
        h = problem.T / 2**k
        if flag is not None:
            rows.append(ErrorRow(h, float("nan"), None, flag))
            continue
        gap = ref.states[::factor] - traj.states
        error = float(np.max(np.linalg.norm(gap, axis=1)))
        # the EOC needs the row above to be unflagged
        prev = rows[-1] if rows else None
        value = None
        if prev is not None and prev.flag is None and error > 0.0 and prev.error > 0.0:
            value = float(eoc([prev.error, error], [prev.h, h])[0])
        rows.append(ErrorRow(h, error, value))
    return ErrorTable(tuple(rows)), certified


def _aggregate(tables) -> tuple[tuple[AggregateRow, ...], float]:
    """A study's aggregate rows and mean average EOC from its seed tables, in
    ``config.seeds`` order (each mean sums in it); pure, h from the rows."""
    aggregate = []
    for level in zip(*(t.rows for t in tables)):
        errs = [r.error for r in level if r.flag is None]
        eocs = [r.eoc for r in level if r.eoc is not None]
        mean_err = float(np.mean(errs)) if errs else float("nan")
        std_err = float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0 if errs else float("nan")
        mean_eoc = float(np.mean(eocs)) if eocs else float("nan")
        flagged = len(level) - len(errs)
        aggregate.append(AggregateRow(level[0].h, mean_err, mean_eoc, std_err, flagged))
    averages = [t.average_eoc for t in tables if not math.isnan(t.average_eoc)]
    return tuple(aggregate), float(np.mean(averages)) if averages else float("nan")


def _write_study_files(config, seed_tables, aggregate) -> tuple[Path, ...]:
    out = Path(config.out_dir)
    stem = f"{config.problem}_{config.scheme}"
    written = []

    def write(name, header, rows):
        written.append(out / f"{stem}_{name}.csv")
        _write_csv(written[-1], header, rows, 10)

    for seed, table in seed_tables.items():
        rows = [(r.h, r.error, r.eoc, r.flag) for r in table.rows]
        write(f"seed{seed}", ("h", "error", "eoc", "flag"), rows)
    rows = [(r.h, r.mean_error, r.mean_eoc, r.std_error) for r in aggregate]
    write("aggregate", ("h", "mean_error", "mean_eoc", "std_error"), rows)
    # two-column log-log companion for plotting
    finite = [r for r in aggregate if math.isfinite(r.mean_error) and r.mean_error > 0.0]
    rows = [(math.log2(r.h), math.log2(r.mean_error)) for r in finite]
    write("loglog", ("log2_h", "log2_mean_error"), rows)
    return tuple(written)


# ---------------------------------------------------------------------------
# stiffness demonstration


@dataclass(frozen=True)
class StabilityReport:
    """Oscillation diagnostics for one forward/implicit pair on one driver.

    Two flip counts are reported per run: ``increment_flips`` counts strict
    sign changes between consecutive increments, ``sign_changes`` counts zero
    crossings of the trajectory itself (the visible oscillation of an
    unstable forward run).
    """

    h: float
    explicit: Trajectory
    implicit: Trajectory
    explicit_increment_flips: int
    implicit_increment_flips: int
    explicit_sign_changes: int
    implicit_sign_changes: int
    explicit_max_amplitude: float
    implicit_max_amplitude: float
    explicit_unstable: bool
    explicit_factor: float  # |1 - rate*h| of the forward drift map


def increment_flip_count(states: np.ndarray) -> int:
    """Number of strict sign changes between consecutive increments of a
    scalar trajectory."""
    return sign_change_count(np.diff(states, axis=0))


def sign_change_count(states: np.ndarray) -> int:
    """Number of zero crossings of a scalar trajectory (its first column)."""
    y = np.asarray(states, dtype=float)
    s = np.sign(y[:, 0] if y.ndim > 1 else y)
    return int(np.sum(s[1:] * s[:-1] < 0.0))


DEFAULT_STABILITY_SEED = 13


def stability_demo(
    h: float,
    seed: int = DEFAULT_STABILITY_SEED,
    zero_noise: bool = False,
) -> StabilityReport:
    """Run forward and drift-implicit Euler on the stiff linear problem with
    the same driver and report oscillation diagnostics.

    The forward drift map contracts iff its factor |1 - 70h| is at most 1;
    the report carries that factor as ``explicit_factor`` and classifies the
    run unstable when it exceeds 1.  The implicit step has no size
    restriction (the one-sided Lipschitz constant is negative).
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got h={h}")
    problem, m, hurst = example_problem("example2")
    if not math.isfinite(problem.T / h):
        raise ValueError(f"step size {h} gives no finite number of steps over T={problem.T}")
    N = round(problem.T / h)
    if N < 1 or abs(N * h - problem.T) > 1e-9:
        raise ValueError(f"step size {h} does not divide the horizon T={problem.T}")
    _check_grid_size(math.log2(N))  # with or without noise, before the path is allocated
    grid = make_grid(problem.T, N)
    if zero_noise:
        path = SamplePath(grid, np.zeros((N + 1, m)))
    else:
        path = sample_fbm(FbmConfig(hurst, m, grid, seed))
    expl = explicit_euler(problem, path)
    impl = run_scheme("implicit_euler", problem, path)
    rate = -problem.drift.one_sided_lipschitz  # 70
    factor = abs(1.0 - rate * h)
    return StabilityReport(
        h=h,
        explicit=expl,
        implicit=impl,
        explicit_increment_flips=increment_flip_count(expl.states),
        implicit_increment_flips=increment_flip_count(impl.states),
        explicit_sign_changes=sign_change_count(expl.states),
        implicit_sign_changes=sign_change_count(impl.states),
        explicit_max_amplitude=float(np.max(np.abs(expl.states))),
        implicit_max_amplitude=float(np.max(np.abs(impl.states))),
        explicit_unstable=factor > 1.0,
        explicit_factor=factor,
    )


# ---------------------------------------------------------------------------
# local-order probe on a smooth deterministic driver


def smooth_driver_path(grid: Grid, m: int = 1) -> SamplePath:
    """Deterministic sinusoidal driver, one frequency per component, pinned to
    zero at t = 0.  Lipschitz (p = 1), so local orders are visible."""
    t = grid.nodes
    values = np.empty((grid.N + 1, m))
    for i in range(m):
        amp = 1.0 + 0.2 * i
        freq = 1.0 + 0.5 * i
        phase = 0.3 + 0.4 * i
        values[:, i] = amp * (np.sin(2.0 * np.pi * freq * t + phase) - np.sin(phase))
    return SamplePath(grid, values)


@dataclass(frozen=True)
class ProbeResult:
    steps: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float  # nan when the scheme is exact on this configuration


def probe_default_problem() -> Problem:
    """Scalar test configuration sigma(y) = y with zero drift."""
    return Problem(zero_drift(1), xi=[1.0], T=1.0, diffusion=geometric_diffusion())


# probe scheme name -> order of semi_implicit_taylor
_PROBE_SCHEMES = {"euler": 1, "milstein": 2, "milstein3": 3}
_PROBE_STEPS = tuple(2.0**-k for k in range(6, 13))
_PROBE_SUB_STEPS = 256


def _plain_norm(v: np.ndarray) -> float:
    """|v| with its squares summed left to right, each operation rounded on
    its own: np.linalg.norm's dot product may fuse multiply-adds, so its
    bits would depend on the BLAS kernel."""
    return math.sqrt(_sum_of_squares(v.tolist()))


def local_error_probe(problem: Problem, scheme: str) -> ProbeResult:
    """One-step errors of a scheme against a fine-step reference, both
    started from ``problem.xi``, on the smooth sinusoidal driver.

    For each step size h = 2^-6 .. 2^-12 the driver is lifted
    piecewise-linearly on 256 sub-steps of [0, h]; the reference is the
    third-order scheme across all sub-steps, the probed scheme takes a single
    step with the composed tensors.  Returns the errors and the fitted
    log-log slope (nan when all errors sit at rounding level, i.e. the scheme
    is exact)."""
    if scheme not in _PROBE_SCHEMES:
        raise ValueError(f"unknown probe scheme {scheme!r}; choose from {sorted(_PROBE_SCHEMES)}")
    if problem.additive:
        raise ValueError("the probe needs a multiplicative problem")
    errors = []
    for h in _PROBE_STEPS:
        fine_grid = make_grid(h, _PROBE_SUB_STEPS)
        fine_lift = piecewise_linear_lift(smooth_driver_path(fine_grid, problem.noise_dim))
        prob_h = Problem(problem.drift, problem.xi, h, diffusion=problem.diffusion)
        ref = semi_implicit_taylor(prob_h, fine_lift, 3).states[-1]
        sub_steps = zip(fine_lift.increments, fine_lift.level2, fine_lift.level3)
        x, X2, X3 = reduce(chen_compose, sub_steps)
        one_lift = RoughLift(make_grid(h, 1), x[None], X2[None], X3[None])
        y1 = semi_implicit_taylor(prob_h, one_lift, _PROBE_SCHEMES[scheme]).states[-1]
        errors.append(_plain_norm(ref - y1))
    # the reference sums _PROBE_SUB_STEPS updates: errors within their rounding are not fitted
    floor = _PROBE_SUB_STEPS * np.finfo(float).eps * max(1.0, _plain_norm(problem.xi))
    usable = [(h, e) for h, e in zip(_PROBE_STEPS, errors) if e > floor]
    if len(usable) >= 2:
        hs, es = zip(*usable)
        slope = float(np.polyfit(np.log(hs), np.log(es), 1)[0])
    else:
        slope = float("nan")
    return ProbeResult(_PROBE_STEPS, tuple(errors), slope)
