import collections
import math
import os
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roughtaylor.fbm import FbmConfig, SamplePath, sample_fbm
from roughtaylor.fields import (
    DiffusionField,
    DriftField,
    _on_floats_form,
    constant_diffusion,
    cosine_diffusion,
    cubic_radial_drift,
    double_well_drift,
    first_order_composition,
    geometric_diffusion,
    linear_drift,
    second_order_composition,
    zero_drift,
)
from roughtaylor.grids import make_grid
from roughtaylor.harness import (
    ADDITIVE_SCHEMES,
    MULTIPLICATIVE_SCHEMES,
    StudyConfig,
    example_problem,
    run_scheme,
    run_study,
)
from roughtaylor import schemes
from roughtaylor.lift import RoughLift, piecewise_linear_lift
from roughtaylor.schemes import (
    BLOWUP_NORM,
    BlowupError,
    Problem,
    SchemeStepError,
    boundedness_bound,
    dump_trajectory_csv,
    explicit_euler,
    _guard,
    semi_implicit_taylor,
)
from roughtaylor.solver import (
    ConvergenceError,
    SolveReport,
    StepSizeError,
    _implicit_step,
    solve_step,
)
from test_solver import (
    documented_start_solver,
    effective_tol,
    half_line_sqrt_drift,
    oracle_trajectory,
    root_gap_bound,
    sqrt_kink_drift,
)


def simplified_taylor(problem, path, order):
    """Reference oracle for the "simplified" schemes: the semi-implicit
    Taylor recursion with the level-2/3 tensors replaced by the increment
    products v⊗v/2 and v⊗v⊗v/6, in its own loop, each step solved from the
    documented start.  Returns the states."""
    sig = problem.diffusion
    solve = documented_start_solver(problem.drift, path.grid.h)
    dx = np.diff(path.values, axis=0)
    y = problem.xi.copy()
    states = [y]
    for v in dx:
        term = sig.func(y) @ v
        if order >= 2:
            E = first_order_composition(sig.func(y), sig.dfunc(y))
            term = term + 0.5 * np.einsum("ija,i,j->a", E, v, v)
        if order >= 3:
            F = second_order_composition(sig.func(y), sig.dfunc(y), sig.d2func(y))
            term = term + np.einsum("ijka,i,j,k->a", F, v, v, v) / 6.0
        y = solve(y + term)
        states.append(y)
    return np.array(states)


def array_trajectory(problem, path, solve=None):
    """Reference oracle for the additive trajectory loop: the loop as it ran
    on 1-element arrays, with a preallocated state array written per step
    and the np.linalg.norm blow-up guard, each step solved by ``solve``
    (r -> root), by default from the documented start.  Returns the
    states."""
    grid = path.grid
    solve = solve or documented_start_solver(problem.drift, grid.h)
    dx = piecewise_linear_lift(path).increments
    states = np.empty((grid.N + 1, problem.dim))
    states[0] = problem.xi
    y = problem.xi.copy()
    for j in range(grid.N):
        r = y + dx[j]
        try:
            y = solve(r)
        except ConvergenceError as err:
            raise SchemeStepError(j, err) from err
        n = np.linalg.norm(y)
        if not np.isfinite(n) or n > BLOWUP_NORM:
            raise BlowupError(j, n)
        states[j + 1] = y
    return states


def array_euler(problem, path):
    """Reference oracle for forward Euler: its loop on arrays, with a
    preallocated state array written per step and the np.linalg.norm
    blow-up guard.  Returns the states."""
    grid = path.grid
    dx = np.diff(path.values, axis=0)
    states = np.empty((grid.N + 1, problem.dim))
    states[0] = problem.xi
    y = problem.xi.copy()
    for j in range(grid.N):
        noise = dx[j] if problem.additive else problem.diffusion.func(y) @ dx[j]
        y = y + grid.h * problem.drift(y) + noise
        n = np.linalg.norm(y)
        if not np.isfinite(n) or n > BLOWUP_NORM:
            raise BlowupError(j, n)
        states[j + 1] = y
    return states


def outcome(run):
    """What a trajectory run ends in, with every float as its bytes."""
    try:
        states = run()
    except BlowupError as err:
        return "blowup", err.step, np.float64(err.value_norm).tobytes()
    except SchemeStepError as err:
        return "solver", err.step, np.float64(err.residual).tobytes()
    return "states", states.shape, states.tobytes()


def fbm_path(seed, N=64, m=1, hurst=0.5):
    return sample_fbm(FbmConfig(hurst, m, make_grid(1.0, N), seed))


def example3_problem():
    return Problem(cubic_radial_drift(2), xi=[10.0, -10.0], T=1.0, diffusion=cosine_diffusion())


class TestImplicitEulerAdditive:
    def test_pure_noise_integration(self):
        problem = Problem(zero_drift(1), xi=[1.5], T=1.0)
        path = fbm_path(0)
        traj = run_scheme("implicit_euler", problem, path)
        assert np.allclose(traj.states[:, 0], 1.5 + path.values[:, 0], atol=1e-12)

    def test_linear_recursion_oracle(self):
        lam = 0.8
        problem = Problem(linear_drift(lam), xi=[0.4], T=1.0)
        path = fbm_path(3, N=32)
        traj = run_scheme("implicit_euler", problem, path)
        h = path.grid.h
        dx = np.diff(path.values[:, 0])
        y = 0.4
        for j in range(32):
            y = (y + dx[j]) / (1.0 - h * lam)
            assert traj.states[j + 1, 0] == pytest.approx(y, abs=1e-10)

    def test_stiff_zero_noise_decay(self):
        problem = Problem(linear_drift(-70.0), xi=[2.7], T=1.0)
        grid = make_grid(1.0, 32)
        path = SamplePath(grid, np.zeros((33, 1)))
        traj = run_scheme("implicit_euler", problem, path)
        y = np.abs(traj.states[:, 0])
        assert np.all(np.diff(y) <= 0.0)
        expected = 2.7 / (1.0 + 70.0 * grid.h) ** np.arange(33)
        above = expected > 1e-10  # below that the solver tolerance floor kicks in
        assert np.allclose(traj.states[above, 0], expected[above], rtol=1e-8)

    def test_rejects_multiplicative_problem(self):
        with pytest.raises(ValueError):
            run_scheme("implicit_euler", example3_problem(), fbm_path(0, m=2))

    def test_growing_trajectory_blows_up(self):
        # the solver's tolerance floor 16*eps*|r| keeps every step solvable
        # at |y| near 1e12, so growth ends at the blow-up guard
        problem, path = growth_case()
        with pytest.raises(BlowupError) as exc:
            semi_implicit_taylor(problem, piecewise_linear_lift(path), 1)
        assert exc.value.step == 43
        assert BLOWUP_NORM < exc.value.value_norm < 2.0 * BLOWUP_NORM

    def test_well_posedness_gate(self):
        problem = Problem(double_well_drift(), xi=[-3.0], T=1.0)
        path = SamplePath(make_grid(1.0, 1), np.zeros((2, 1)))  # h = 1, C_b h = 1
        with pytest.raises(StepSizeError):
            run_scheme("implicit_euler", problem, path)


def scalar_drift(func, cb, jacobian=None):
    return DriftField(1, func, cb, jacobian=jacobian)


def nan_residual_case():
    values = np.zeros((101, 1))
    values[6:] = 1e-6  # the increment of step 5 sends r to 1e-6
    return Problem(half_line_sqrt_drift(), xi=[0.0], T=1.0), SamplePath(make_grid(1.0, 100), values)


def growth_case():
    """C_b*h = 30/64 < 1, so every step is well posed, and |y| grows by
    about 1/(1 - 30/64) per step until it passes BLOWUP_NORM."""
    return Problem(linear_drift(30.0), xi=[1.0], T=1.0), fbm_path(7, N=64)


def scaled_path(seed, scale):
    path = fbm_path(seed, N=64)
    return SamplePath(path.grid, scale * path.values)


# name: () -> (problem, path, how the run ends)
SCALAR_CASES = {
    **{
        f"{name}_seed{seed}": (
            lambda name=name, seed=seed: (
                example_problem(name)[0], fbm_path(seed, N=1024, hurst=0.75), "states"
            )
        )
        for name in ("example1", "example2")
        for seed in range(3)
    },
    "example1_rough": lambda: (
        example_problem("example1")[0], fbm_path(3, N=1024, hurst=0.1), "states"
    ),
    "finite_difference_jacobian": lambda: (
        Problem(scalar_drift(lambda y: y - y**3, 1.0), xi=[-3.0], T=1.0),
        fbm_path(4, N=256, hurst=0.75),
        "states",
    ),
    "python_scalar_output": lambda: (
        Problem(
            scalar_drift(
                lambda y: float(y[0] - y[0] ** 3), 1.0, lambda y: 1.0 - 3.0 * y[0] ** 2
            ),
            xi=[-3.0],
            T=1.0,
        ),
        fbm_path(5, N=256, hurst=0.75),
        "states",
    ),
    "list_output": lambda: (
        Problem(
            scalar_drift(lambda y: [-70.0 * y[0]], -70.0, lambda y: [[-70.0]]), xi=[2.7], T=1.0
        ),
        fbm_path(6, N=256, hurst=0.75),
        "states",
    ),
    "blowup": lambda: (Problem(zero_drift(1), xi=[0.0], T=1.0), scaled_path(7, 1e12), "blowup"),
    "blowup_growing_drift": lambda: (*growth_case(), "blowup"),
    "blowup_squared_norm_overflow": lambda: (
        Problem(zero_drift(1), xi=[0.0], T=1.0),
        scaled_path(8, 1e200),
        "blowup",
    ),
    "failing_step": lambda: (*nan_residual_case(), "solver"),
}


class TestScalarLoopAgainstArrayLoop:
    """d = 1 trajectories carry the state as a Python float; implicit and
    forward Euler end exactly as their array loops do: the same states bit
    for bit, or the same blow-up step and norm, or the same failing step
    and residual."""

    @pytest.mark.parametrize("case", sorted(SCALAR_CASES))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_array_loop(self, case):
        problem, path, ending = SCALAR_CASES[case]()
        want = outcome(lambda: array_trajectory(problem, path))
        assert want[0] == ending
        assert outcome(lambda: run_scheme("implicit_euler", problem, path).states) == want
        want = outcome(lambda: array_euler(problem, path))
        assert outcome(lambda: explicit_euler(problem, path).states) == want


def with_copies(field):
    """The same field, handed a fresh copy of its argument at every call."""

    def copying(f):
        return None if f is None else lambda y: f(y.copy())

    if isinstance(field, DriftField):
        return DriftField(
            field.dim, copying(field.func), field.one_sided_lipschitz, copying(field.jacobian)
        )
    return DiffusionField(
        field.dim, field.noise_dim, *map(copying, (field.func, field.dfunc, field.d2func))
    )


def in_place_double_well():
    """b(y) = y - y^3 and its Jacobian, each computed in the argument's
    memory and returned as (a view of) it."""

    def b(y):
        y -= y**3
        return y

    def jac(y):
        y *= y
        y *= -3.0
        y += 1.0
        return y.reshape(1, 1)

    return DriftField(1, b, 1.0, jacobian=jac)


def referencing_drift(dim):
    """b(y) = y - |y|^2 y, read through a list of every argument it was given."""
    seen = []

    def b(y):
        seen.append(y)
        return seen[-1] - seen[-1].dot(seen[-1]) * seen[-1]

    return DriftField(dim, b, 1.0)


def referencing_sine_diffusion():
    """sigma(y) = sin(y) with derivatives, each read through a list of every
    argument the field was given."""
    seen = []

    def keep(f):
        def g(y):
            seen.append(y)
            return f(seen[-1])

        return g

    return DiffusionField(
        1,
        1,
        keep(lambda y: np.sin(y).reshape(1, 1)),
        keep(lambda y: np.cos(y).reshape(1, 1, 1)),
        keep(lambda y: -np.sin(y).reshape(1, 1, 1, 1)),
    )


# name: () -> a drift whose evaluators return, view, keep or overwrite their argument
ALIASING_DRIFTS = {
    "returns_argument": lambda: DriftField(1, lambda y: y, 1.0),
    "returns_argument_2d": lambda: DriftField(2, lambda y: y, 1.0),
    "returns_view": lambda: DriftField(1, lambda y: y[:], 1.0, jacobian=lambda y: np.ones((1, 1))),
    "returns_view_2d": lambda: DriftField(2, lambda y: y[::-1], 1.0),
    "in_place": in_place_double_well,
    "keeps_reference": lambda: referencing_drift(1),
    "keeps_reference_2d": lambda: referencing_drift(2),
}

# name: () -> a d = m = 1 diffusion whose evaluators view or keep their argument
ALIASING_DIFFUSIONS = {
    "geometric_view": geometric_diffusion,
    "keeps_reference": referencing_sine_diffusion,
}


class TestFieldsSeeingScratchArrays:
    """d = 1 trajectories hand every field evaluation the same scratch
    array with new values; d = 2 implicit steps do so for the drift, and
    d = 2 forward Euler hands it the state itself.  A field that
    returns its argument, a view of it, keeps a reference to it or (for a
    d = 1 drift) overwrites it ends exactly as the same field handed a copy."""

    @pytest.mark.parametrize("name", sorted(ALIASING_DRIFTS))
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_drift(self, name, seed):
        build = ALIASING_DRIFTS[name]
        dim = build().dim
        path = fbm_path(seed, N=256, m=dim, hurst=0.75)

        def problems(**kwargs):
            return [Problem(drift, T=1.0, **kwargs) for drift in (build(), with_copies(build()))]

        runs = {scheme: problems(xi=np.linspace(-1.5, 0.5, dim)) for scheme in ADDITIVE_SCHEMES}
        if dim == 1:
            runs.update(
                (scheme, problems(xi=[-0.5], diffusion=geometric_diffusion()))
                for scheme in MULTIPLICATIVE_SCHEMES
            )
        for scheme, pair in runs.items():
            got, want = (outcome(lambda: run_scheme(scheme, p, path).states) for p in pair)
            assert got == want, scheme
        got, want = problems(xi=np.ones(dim))
        assert boundedness_bound(got, path) == boundedness_bound(want, path)

    @pytest.mark.parametrize("name", sorted(ALIASING_DIFFUSIONS))
    @pytest.mark.parametrize("seed", range(2))
    def test_diffusion(self, name, seed):
        path = fbm_path(seed, N=256, hurst=0.5)
        for scheme in MULTIPLICATIVE_SCHEMES:
            runs = [
                Problem(double_well_drift(), xi=[-2.0], T=1.0, diffusion=sigma)
                for sigma in (ALIASING_DIFFUSIONS[name](), with_copies(ALIASING_DIFFUSIONS[name]()))
            ]
            got, want = (outcome(lambda: run_scheme(scheme, p, path).states) for p in runs)
            assert got == want, scheme


def singular_newton_drift(h):
    """b(y) = y/2 with the declared Jacobian 1/h, so 1 - h*J is zero at
    every step of size h and each rejected step bisects the bracket."""
    return DriftField(1, lambda y: 0.5 * y, 0.5, jacobian=lambda y: np.array([[1.0 / h]]))


# name: h -> (drift, initial condition); each takes a different solver path
STEPPER_DRIFTS = {
    "double_well": lambda h: (double_well_drift(), [-3.0]),
    "stiff_linear": lambda h: (linear_drift(-70.0), [2.7]),
    "singular_newton": lambda h: (singular_newton_drift(h), [1.0]),
    "sqrt_kink_fd": lambda h: (sqrt_kink_drift(), [0.5]),
    "half_line_sqrt": lambda h: (half_line_sqrt_drift(), [1e-3]),
    "cubic_radial_2": lambda h: (cubic_radial_drift(2), [10.0, -10.0]),
}


def start_from_r_trajectory(problem, path):
    """The additive trajectory loop with every step solved by solve_step,
    which starts each solve at r.  Returns the states."""
    h = path.grid.h
    return array_trajectory(problem, path, lambda r: solve_step(problem.drift, h, r).solution)


class TestStepperAgainstSolveStep:
    """A trajectory builds one stepper for its (drift, h) and calls it each
    step; it ends exactly as the array loop from the documented start does,
    and from each of its states its next state is within the
    inverse-Lipschitz bound of solve_step's root, started at r."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(STEPPER_DRIFTS)),
        seed=st.integers(0, 2**32 - 1),
        hurst=st.floats(0.1, 0.9),
        log2_n=st.integers(1, 8),
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_scheme_equals_solve_step_loop(self, name, seed, hurst, log2_n):
        grid = make_grid(1.0, 2**log2_n)
        drift, xi = STEPPER_DRIFTS[name](grid.h)
        problem = Problem(drift, xi=xi, T=1.0)
        path = sample_fbm(FbmConfig(hurst, drift.dim, grid, seed))
        want = outcome(lambda: array_trajectory(problem, path))
        assert outcome(lambda: run_scheme("implicit_euler", problem, path).states) == want
        if want[0] != "states":
            return
        states = run_scheme("implicit_euler", problem, path).states
        dx = piecewise_linear_lift(path).increments
        for y, y_next, v in zip(states, states[1:], dx):
            r = y + v
            F = y_next - grid.h * drift(y_next) - r
            here = SolveReport(y_next, 0, float(np.linalg.norm(F)), "newton")
            assert here.residual <= effective_tol(r)
            try:
                there = solve_step(drift, grid.h, r)
            except ConvergenceError:
                continue  # the documented start may solve a step that r does not
            gap = np.linalg.norm(y_next - there.solution)
            assert gap <= root_gap_bound(drift, grid.h, r, here, there)


def recording_stepper(runs):
    """A stand-in for solver._implicit_step whose runs append to ``runs``
    the list of states each run appends to, its term and what it returns,
    (iterations, residual, method_used), or None while it has not returned."""

    def implicit_step(drift, h):
        run = _implicit_step(drift, h)

        def recorded(states, term, n, bound):
            runs.append([states, term, None])
            runs[-1][2] = run(states, term, n, bound)
            return runs[-1][2]

        return recorded

    return implicit_step


def right_hand_sides(states, term):
    """r_j = y_j + term(j, y_j) of each step from the states a run appended,
    as arrays: the sum the run forms, componentwise."""
    return [np.add(y, term(j, y)) for j, y in enumerate(states[:-1])]


def cliff_drift():
    """b(y) = -50 y, with no Jacobian, and NaN beyond |y| = 0.35."""
    return DriftField(1, lambda y: np.where(np.abs(y) <= 0.35, -50.0 * y, np.nan), -50.0)


# name: c -> (drift, initial condition) of the start properties
START_DRIFTS = {
    "double_well": lambda c: (double_well_drift(), [-3.0]),
    "linear": lambda c: (linear_drift(c), [1.0]),
    "cubic_radial_2": lambda c: (cubic_radial_drift(2), [10.0, -10.0]),
    "no_jacobian": lambda c: (DriftField(1, lambda y: y - y**3, 1.0), [-3.0]),
}


class TestStartAtLastNewtonPoint:
    """A trajectory's stepper starts each solve at the Newton point from its
    last solution; whatever the start, every state solves its step to the
    solver's tolerance, a zero drift starts every solve at r, and the start
    fails no step that a start at r solves."""

    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(sorted(START_DRIFTS)),
        c=st.floats(-100.0, 100.0),
        hurst=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 256),
    )
    # C_b*h = 0.99999: the root is about 1e5*r, its residual rounds at eps*|y|
    @example(name="linear", c=0.99999, hurst=0.5, seed=0, n=1)
    def test_every_state_solves_its_step(self, name, c, hurst, seed, n):
        drift, xi = START_DRIFTS[name](c)
        grid = make_grid(1.0, n)
        assume(drift.one_sided_lipschitz * grid.h < 1.0)
        problem = Problem(drift, xi=xi, T=1.0)
        path = sample_fbm(FbmConfig(hurst, drift.dim, grid, seed))
        runs = []
        with mock.patch.object(schemes, "_implicit_step", recording_stepper(runs)):
            ending = outcome(
                lambda: semi_implicit_taylor(problem, piecewise_linear_lift(path), 1).states
            )
        assert ending[0] in ("states", "blowup")
        [(states, term, report)] = runs
        assert len(states) == n + 1 or ending[:2] == ("blowup", len(states) - 2)
        for r, y in zip(right_hand_sides(states, term), states[1:]):
            r, y = np.atleast_1d(r), np.atleast_1d(y)
            F = y - grid.h * drift(y) - r
            tol = max(1e-12, 16.0 * np.finfo(float).eps * max(np.linalg.norm(r), np.linalg.norm(y)))
            assert np.linalg.norm(F) <= tol
        if ending[0] == "states":
            assert report[1] <= tol  # the last step's residual
            states = np.reshape(states, (n + 1, drift.dim))
            assert ending == ("states", states.shape, states.tobytes())

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 2),
        hurst=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 256),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_zero_drift_starts_at_r(self, dim, hurst, seed, n, scale):
        problem = Problem(zero_drift(dim), xi=np.full(dim, 0.5), T=1.0)
        path = sample_fbm(FbmConfig(hurst, dim, make_grid(1.0, n), seed))
        path = SamplePath(path.grid, scale * path.values)
        want = outcome(lambda: start_from_r_trajectory(problem, path))
        assert outcome(lambda: run_scheme("implicit_euler", problem, path).states) == want

    @settings(max_examples=60, deadline=None)
    @given(hurst=st.floats(0.1, 0.9), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 256))
    def test_cliff_fails_no_step_that_r_solves(self, hurst, seed, n):
        drift = cliff_drift()
        problem = Problem(drift, xi=[0.0], T=1.0)
        path = sample_fbm(FbmConfig(hurst, 1, make_grid(1.0, n), seed))
        runs = []
        with mock.patch.object(schemes, "_implicit_step", recording_stepper(runs)):
            ending = outcome(lambda: run_scheme("implicit_euler", problem, path).states)
        assert ending[0] in ("states", "solver")
        [(states, _, report)] = runs
        if ending[0] == "solver":
            step = ending[1]
            assert step == len(states) - 1 and report is None
            y = states[-1]  # xi = 0.0 where the first step fails
            r = y + piecewise_linear_lift(path).increments[step, 0]
            with pytest.raises(ConvergenceError):
                solve_step(drift, path.grid.h, [r])


def diagonal_diffusion(d):
    """sigma(y) = diag(y) (m = d): each component geometric, with no float
    form, so a growing drift or a large noise drives a trajectory past the
    blow-up bound."""
    D = np.zeros((d, d, d))
    for a in range(d):
        D[a, a, a] = 1.0
    return DiffusionField(d, d, lambda y: np.diag(y), lambda y: D, lambda y: np.zeros((d, d, d, d)))


def oracle_problem(d, drift, c, multiplicative):
    """A problem of the run-against-oracle property: a linear drift c*y or
    the cubic one of its dimension, additive or through diagonal_diffusion;
    for d = 2 the cubic multiplicative problem is example3."""
    if drift == "linear":
        b = linear_drift(c, d)
    else:
        b = double_well_drift() if d == 1 else cubic_radial_drift(d)
    xi = [0.5, -1.0, 2.0][:d]
    if not multiplicative:
        return Problem(b, xi=xi, T=1.0)
    if d == 2 and drift == "cubic":
        return example3_problem()
    return Problem(b, xi=xi, T=1.0, diffusion=diagonal_diffusion(d))


def flag(run):
    """A run's states as bytes, or the kind and step index of its flag."""
    try:
        return "states", run().tobytes()
    except BlowupError as err:
        return "blowup", err.step
    except SchemeStepError as err:
        return "solver", err.step


class TestRunAgainstOracle:
    """One stepper call runs a whole implicit trajectory; where every solve
    keeps each full Newton step, its states equal oracle_trajectory's (each
    step on arrays, solved by the reference Newton iteration from the
    documented start) bitwise, for d = 1, 2 and 3, additive and
    multiplicative, orders 1 to 3, and a trajectory that is flagged is
    flagged at the same step."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 3),
        drift=st.sampled_from(["linear", "cubic"]),
        ch=st.floats(-5.0, 0.95),
        scheme=st.sampled_from(sorted(set(ADDITIVE_SCHEMES + MULTIPLICATIVE_SCHEMES) - {"explicit_euler"})),
        scale=st.sampled_from([1.0, 30.0]),
        hurst=st.floats(0.3, 0.9),
        seed=st.integers(0, 2**32 - 1),
        log2_n=st.integers(2, 7),
    )
    # the last state, of norm 2.2e12, is flagged too
    @example(
        d=1, drift="linear", ch=0.375, scheme="semi_implicit_euler", scale=30.0, hurst=0.375,
        seed=1, log2_n=4,
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_states_and_flags_equal_oracle(self, d, drift, ch, scheme, scale, hurst, seed, log2_n):
        grid = make_grid(1.0, 2**log2_n)
        problem = oracle_problem(d, drift, ch / grid.h, scheme != "implicit_euler")
        path = sample_fbm(FbmConfig(hurst, problem.noise_dim, grid, seed))
        if drift == "linear":  # Newton's first step is the root: the oracle keeps it at any scale
            path = SamplePath(grid, scale * path.values)
        kept = []
        want = flag(lambda: oracle_trajectory(scheme, problem, path, kept))
        assume(all(kept))
        assert flag(lambda: run_scheme(scheme, problem, path).states) == want


class TestNewtonIterationsPerStep:
    """Newton iterations per implicit step, counted at the stepper, on two
    seeds of each benchmark study shape: a linear drift's guess is its root,
    so only the first solve of a trajectory iterates."""

    @pytest.mark.parametrize(
        "problem, hurst, ceiling", [("example2", (0.75,), 0.01), ("example1", (0.75,), 1.3)]
    )
    def test_iterations_per_step(self, problem, hurst, ceiling):
        config = StudyConfig(
            problem, "implicit_euler", hurst=hurst, step_exponents=(5, 6, 7, 8, 9, 10),
            ref_exponent=12, seeds=(0, 1),
        )
        runs = []
        with mock.patch.object(schemes, "_implicit_step", recording_stepper(runs)):
            run_study(config)
        iterations = sum(report[0] for _, _, report in runs)
        steps = sum(len(states) - 1 for states, _, _ in runs)
        assert steps == 2 * (2**12 + sum(2**k for k in (5, 6, 7, 8, 9, 10)))
        assert iterations / steps <= ceiling


def plain(field):
    """A drift or a diffusion as a user field: the same evaluators behind
    lambdas, which carry no float form, so the stepper and the noise term
    hand them their scratch arrays."""
    if isinstance(field, DiffusionField):
        evaluators = field.func, field.dfunc, field.d2func
        return DiffusionField(field.dim, field.noise_dim, *(lambda y, f=f: f(y) for f in evaluators))
    return DriftField(
        field.dim, lambda y: field.func(y), field.one_sided_lipschitz, lambda y: field.jacobian(y)
    )


# name: seed -> (problem with a catalogue d = 1 or d = 2 drift, path)
FLOAT_PATH_CASES = {
    "example1_H0.1": lambda seed: (example_problem("example1")[0], fbm_path(seed, 1024, hurst=0.1)),
    "example1_H0.75": lambda seed: (
        example_problem("example1")[0], fbm_path(seed, 1024, hurst=0.75)
    ),
    "example2": lambda seed: (example_problem("example2")[0], fbm_path(seed, 1024, hurst=0.75)),
    "zero_drift": lambda seed: (Problem(zero_drift(1), xi=[0.5], T=1.0), fbm_path(seed, 256)),
    "cubic_radial_2": lambda seed: (
        Problem(cubic_radial_drift(2), xi=[10.0, -10.0], T=1.0), fbm_path(seed, 1024, m=2)
    ),
    "linear_2": lambda seed: (
        Problem(linear_drift(-70.0, dim=2), xi=[2.7, -1.0], T=1.0), fbm_path(seed, 256, m=2)
    ),
    "zero_drift_2": lambda seed: (
        Problem(zero_drift(2), xi=[0.5, 0.0], T=1.0), fbm_path(seed, 256, m=2)
    ),
}


class TestFloatPath:
    """The built-in examples' fields are evaluated on their float forms,
    every other d <= 2 field through a scratch array; the same evaluators
    end in the same bits either way, under implicit and forward Euler, in
    the bound and, for the planar multiplicative example3, at every order
    and under forward Euler."""

    @pytest.mark.parametrize("case", sorted(FLOAT_PATH_CASES))
    @pytest.mark.parametrize("seed", range(2))
    def test_float_path_is_scratch_array_path_bitwise(self, case, seed):
        problem, path = FLOAT_PATH_CASES[case](seed)
        user = Problem(plain(problem.drift), xi=problem.xi, T=problem.T)
        runs = [
            lambda p: run_scheme("implicit_euler", p, path).states,
            lambda p: explicit_euler(p, path).states,
        ]
        for run in runs:
            assert outcome(lambda: run(problem)) == outcome(lambda: run(user))
        bounds = [np.float64(boundedness_bound(p, path)).tobytes() for p in (problem, user)]
        assert bounds[0] == bounds[1]

    @pytest.mark.parametrize(
        "scheme", ["semi_implicit_euler", "simplified_milstein", "semi_implicit_milstein3", "explicit_euler"]
    )
    def test_planar_multiplicative_float_path_is_scratch_array_path_bitwise(self, scheme):
        problem = example3_problem()
        path = fbm_path(0, 512, m=2, hurst=5.0 / 12.0)
        want = outcome(lambda: run_scheme(scheme, problem, path).states)
        users = [
            Problem(plain(problem.drift), problem.xi, problem.T, problem.diffusion),
            Problem(problem.drift, problem.xi, problem.T, plain(problem.diffusion)),
        ]
        for user in users:
            assert outcome(lambda: run_scheme(scheme, user, path).states) == want

    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_implicit_trajectory_makes_no_array_call(self, name):
        problem, m, hurst = example_problem(name)
        path = fbm_path(0, 256, m=m, hurst=hurst[0])
        fields = [problem.drift.func, problem.drift.jacobian]
        if not problem.additive:
            sigma = problem.diffusion
            fields += [sigma.func, sigma.dfunc, sigma.d2func]
        codes = {g.__code__ for f in fields for g in (f, f._floats)}
        schemes_run = (
            ["implicit_euler"] if problem.additive
            else ["simplified_milstein", "semi_implicit_milstein3", "explicit_euler"]
        )
        for scheme in schemes_run:
            arguments = collections.Counter()  # the type of y at each evaluator call

            def count(frame, event, arg):
                if event == "call" and frame.f_code in codes:
                    arguments[type(frame.f_locals["y"])] += 1

            sys.setprofile(count)
            try:
                ending = outcome(lambda: run_scheme(scheme, problem, path).states)
            finally:
                sys.setprofile(None)
            steps = ending[1] + 1 if ending[0] == "blowup" else path.grid.N  # forward Euler blows up
            # d = 2 states, right-hand sides and iterates are pairs of floats
            assert set(arguments) == {float if problem.dim == 1 else tuple}, scheme
            assert arguments.total() >= steps, scheme


    @pytest.mark.parametrize(
        "dims", [(1, 1), (2, 2), (3, 3), (2, 1), (1, 2)], ids=["1", "2", "3", "2x1", "1x2"]
    )
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_wrong_size_user_diffusion_names_the_sizes(self, dims, level):
        # sigma, dsigma and d2sigma of a user field, one of them a value too long
        d, m = dims
        shapes = [(d, m), (d, m, d), (d, m, d, d)]
        evaluators = [lambda y, s=s: np.zeros(s) for s in shapes]
        size = math.prod(shapes[level])
        evaluators[level] = lambda y: np.zeros(size + 1)
        sigma = DiffusionField(d, m, *evaluators)
        problem = Problem(zero_drift(d), xi=np.ones(d), T=1.0, diffusion=sigma)
        shape = re.escape(str(shapes[level]))
        with pytest.raises(ValueError, match=rf"returned {size + 1} values, not {size} of shape {shape}$"):
            run_scheme("semi_implicit_milstein3", problem, fbm_path(0, 8, m=m))


class TestExplicitEuler:
    def test_coincides_with_implicit_for_zero_drift(self):
        problem = Problem(zero_drift(1), xi=[0.0], T=1.0)
        path = fbm_path(5)
        a = explicit_euler(problem, path)
        b = run_scheme("implicit_euler", problem, path)
        assert np.allclose(a.states, b.states, atol=1e-12)

    def test_divergence_factor(self):
        problem = Problem(linear_drift(-70.0), xi=[2.7], T=1.0)
        path = SamplePath(make_grid(1.0, 32), np.zeros((33, 1)))
        traj = explicit_euler(problem, path)
        y = np.abs(traj.states[:, 0])
        assert np.all(np.diff(y) > 0.0)
        assert y[1] / y[0] == pytest.approx(1.1875)

    def test_contraction_factor(self):
        problem = Problem(linear_drift(-70.0), xi=[2.7], T=1.0)
        path = SamplePath(make_grid(1.0, 128), np.zeros((129, 1)))
        traj = explicit_euler(problem, path)
        y = np.abs(traj.states[:, 0])
        assert np.all(np.diff(y) < 0.0)
        assert y[1] / y[0] == pytest.approx(abs(1.0 - 70.0 / 128.0))

    def test_multiplicative_blowup_reports_step(self):
        problem = example3_problem()
        path = fbm_path(0, N=64, m=2, hurst=5.0 / 12.0)
        with pytest.raises(BlowupError) as exc:
            explicit_euler(problem, path)
        assert 0 <= exc.value.step < 64


class TestGuard:
    @pytest.mark.parametrize(
        "y", [[np.nan], [np.inf], [-np.inf], [1.0, np.nan], [-np.inf, 0.0]]
    )
    def test_non_finite_state_raises(self, y):
        with pytest.raises(BlowupError) as exc:
            _guard(np.array(y), 7)
        assert exc.value.step == 7
        assert not np.isfinite(exc.value.value_norm)

    def test_norm_just_above_threshold_raises(self):
        with pytest.raises(BlowupError) as exc:
            _guard(np.array([np.nextafter(BLOWUP_NORM, np.inf)]), 3)
        assert exc.value.value_norm > BLOWUP_NORM

    @pytest.mark.parametrize("y", [[1e200], [1e200, -1e200]])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_squared_norm_overflow_raises(self, y):
        # |y| is finite, but y.y overflows to inf and the guard sees inf
        with pytest.raises(BlowupError) as exc:
            _guard(np.array(y), 0)
        assert exc.value.value_norm == np.inf

    @pytest.mark.parametrize("y", [[BLOWUP_NORM], [-BLOWUP_NORM], [0.6e12, 0.8e12]])
    def test_norm_at_threshold_passes(self, y):
        assert np.linalg.norm(y) == BLOWUP_NORM
        _guard(np.array(y), 0)


class TestSemiImplicitEuler:
    def test_no_dynamics(self):
        problem = Problem(zero_drift(1), xi=[0.7], T=1.0, diffusion=constant_diffusion([[0.0]]))
        lift = piecewise_linear_lift(fbm_path(1))
        traj = semi_implicit_taylor(problem, lift, 1)
        assert np.array_equal(traj.states[:, 0], np.full(65, 0.7))

    def test_identity_diffusion_matches_additive(self):
        drift = double_well_drift()
        path = fbm_path(2, N=32)
        additive = Problem(drift, xi=[-3.0], T=1.0)
        multiplicative = Problem(drift, xi=[-3.0], T=1.0, diffusion=constant_diffusion([[1.0]]))
        a = run_scheme("implicit_euler", additive, path)
        b = semi_implicit_taylor(multiplicative, piecewise_linear_lift(path), 1)
        assert np.array_equal(a.states, b.states)

    def test_geometric_recursion(self):
        delta = 0.05
        N = 16
        problem = Problem(zero_drift(1), xi=[2.0], T=1.0, diffusion=geometric_diffusion())
        path = SamplePath(make_grid(1.0, N), delta * np.arange(N + 1.0))
        traj = semi_implicit_taylor(problem, piecewise_linear_lift(path), 1)
        assert np.allclose(traj.states[:, 0], 2.0 * (1.0 + delta) ** np.arange(N + 1), rtol=1e-12)


class TestMilsteinFamily:
    def test_constant_sigma_reduces_to_euler(self):
        problem = Problem(
            double_well_drift(), xi=[-3.0], T=1.0, diffusion=constant_diffusion([[0.8]])
        )
        lift = piecewise_linear_lift(fbm_path(4, N=32))
        a = semi_implicit_taylor(problem, lift, 1)
        b = semi_implicit_taylor(problem, lift, 2)
        c = semi_implicit_taylor(problem, lift, 3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.states, c.states)

    def test_one_step_hand_expansion(self):
        delta = 0.3
        problem = Problem(zero_drift(1), xi=[2.0], T=0.5, diffusion=geometric_diffusion())
        path = SamplePath(make_grid(0.5, 1), np.array([0.0, delta]))
        lift = piecewise_linear_lift(path)
        y2 = semi_implicit_taylor(problem, lift, 2).states[-1, 0]
        y3 = semi_implicit_taylor(problem, lift, 3).states[-1, 0]
        assert y2 == pytest.approx(2.0 * (1.0 + delta + delta**2 / 2.0))
        assert y3 == pytest.approx(2.0 * (1.0 + delta + delta**2 / 2.0 + delta**3 / 6.0))

    def test_zero_level2_reduces_to_euler(self):
        problem = example3_problem()
        path = fbm_path(6, N=16, m=2, hurst=5.0 / 12.0)
        lift = piecewise_linear_lift(path)
        zero2 = RoughLift(lift.grid, lift.increments, np.zeros_like(lift.level2))
        a = semi_implicit_taylor(problem, lift, 1)
        b = semi_implicit_taylor(problem, zero2, 2)
        assert np.allclose(a.states, b.states, atol=1e-14)

    def test_zero_level3_reduces_to_milstein(self):
        problem = example3_problem()
        path = fbm_path(7, N=16, m=2, hurst=5.0 / 12.0)
        lift = piecewise_linear_lift(path)
        zero3 = RoughLift(lift.grid, lift.increments, lift.level2, np.zeros((16, 2, 2, 2)))
        a = semi_implicit_taylor(problem, lift, 2)
        b = semi_implicit_taylor(problem, zero3, 3)
        assert np.allclose(a.states, b.states, atol=1e-14)

    def test_milstein3_requires_level3(self):
        problem = example3_problem()
        lift = piecewise_linear_lift(fbm_path(0, m=2), include_level3=False)
        with pytest.raises(ValueError, match="level-3"):
            semi_implicit_taylor(problem, lift, 3)


def composition_term(S, D, D2, dx, X2, X3):
    """The noise term by the composition tensors of ``fields``: sigma dx plus
    each composition contracted against its level with ``einsum``."""
    out = S @ dx
    if X2 is not None:
        out = out + np.einsum("ija,ij->a", first_order_composition(S, D), X2)
    if X3 is not None:
        out = out + np.einsum("ijka,ijk->a", second_order_composition(S, D, D2), X3)
    return out


@st.composite
def taylor_term_case(draw):
    """Random sigma, derivatives and lift tensors of one step, d, m in {1, 2, 3}
    and order in {1, 2, 3}: (S, D, D2, dx, X2, X3), X2 None at order 1 and
    X3 None below order 3."""
    d, m, order = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # zero or 1e-3 <= |x| <= 10: no product of four entries underflows
    entries = st.just(0.0) | st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3)
    S, D, D2, dx, X2, X3 = (
        draw(arrays(np.float64, shape, elements=entries))
        for shape in [(d, m), (d, m, d), (d, m, d, d), (m,), (m, m), (m, m, m)]
    )
    return S, D, D2, dx, X2 if order >= 2 else None, X3 if order == 3 else None


def constant_sigmas(S, D, D2):
    """sigma = S with the derivatives D and D2 as a user field, whose
    evaluators the term reads through its scratch array, and the same field
    with float forms (flat tuples), which a d <= 2 term reads in place of it."""
    arrays_only = DiffusionField(*S.shape, lambda y: S, lambda y: D, lambda y: D2)
    with_floats = DiffusionField(*S.shape, lambda y: S, lambda y: D, lambda y: D2)
    for func, value in zip((with_floats.func, with_floats.dfunc, with_floats.d2func), (S, D, D2)):
        _on_floats_form(func, lambda y, flat=tuple(value.ravel().tolist()): flat)
    return {"scratch_array": arrays_only, "float_form": with_floats}


# OpenBLAS kernels that round each operation of a small matrix product on its own
PLAIN_ROUNDING_BLAS = os.environ.get("OPENBLAS_CORETYPE") in ("Sandybridge", "Prescott")


class TestTaylorTermProducts:
    """``schemes._taylor_term`` contracts the level-2 and level-3 terms as
    matrix products; on tensors with no symmetry, where an index-order slip
    shows, it equals the composition tensors' einsum to rounding, at every
    order, on floats for d = m <= 2 (a float for d = 1, a pair for d = 2)
    whether sigma has float forms or not, and on arrays elsewhere.  Where the
    BLAS rounds each operation on its own (OPENBLAS_CORETYPE=Sandybridge, as
    CI runs this class), the float kernels give the array products' bytes."""

    @staticmethod
    def check(case):
        S, D, D2, dx, X2, X3 = case
        d, m = S.shape
        levels = [a[None] for a in (X2, X3) if a is not None]
        want = composition_term(S, D, D2, dx, X2, X3)
        # each side sums at most n products of at most 4 factors, so it lies within
        # gamma_(n+4) of the exact sum of |products|: the same einsum on |entries|
        n = m + m * m * d + 2 * m**3 * d * d
        gamma = (n + 4) * np.finfo(float).eps / (1.0 - (n + 4) * np.finfo(float).eps)
        bound = composition_term(*(np.abs(a) if a is not None else None for a in case))
        state = {1: 0.0, 2: (0.0, 0.0)}.get(d, np.zeros(d))
        for name, sigma in constant_sigmas(S, D, D2).items():
            problem = Problem(zero_drift(d), xi=np.zeros(d), T=1.0, diffusion=sigma)
            got = schemes._taylor_term(problem, dx[None], *levels)(0, state)
            assert type(got) is {1: float, 2: tuple}.get(d, np.ndarray), name
            got = np.atleast_1d(got)
            assert np.all(np.abs(got - want) <= 2.0 * gamma * bound), (name, got, want)
            if PLAIN_ROUNDING_BLAS:
                products = schemes._array_term(sigma, dx[None], *(levels + [None, None])[:2])
                assert got.tobytes() == products(0, np.zeros(d)).tobytes(), name

    @settings(max_examples=300, deadline=None)
    @given(case=taylor_term_case())
    # zero terms whose products are -0.0: a 2 x 2 product and a stacked @ write +0.0
    @example(case=(-np.ones((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)), np.zeros(2), None, None))
    @example(case=(np.zeros((1, 1)), np.zeros((1, 1, 1)), np.zeros((1, 1, 1, 1)), -np.ones(1), -np.ones((1, 1)), -np.ones((1, 1, 1))))
    @example(case=(-np.ones((1, 1)), np.zeros((1, 1, 1)), -np.ones((1, 1, 1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1, 1))))
    def test_products_equal_compositions(self, case):
        self.check(case)

    @pytest.mark.parametrize("d", [1, 2])
    def test_float_kernels_on_entries_over_six_decades(self, d):
        # entries whose products round in most of their sums, so that an order slip shows
        rng = np.random.default_rng(d)
        shapes = [(d, d), (d, d, d), (d, d, d, d), (d,), (d, d), (d, d, d)]
        for _ in range(200):
            S, D, D2, dx, X2, X3 = (
                rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape) for shape in shapes
            )
            for order in (1, 2, 3):
                self.check((S, D, D2, dx, X2 if order >= 2 else None, X3 if order == 3 else None))


class TestSemiImplicitTaylor:
    @pytest.mark.parametrize("order", [0, 4, 2.0, True])
    def test_rejects_order_outside_one_to_three(self, order):
        lift = piecewise_linear_lift(fbm_path(0, m=2))
        with pytest.raises(ValueError, match="order"):
            semi_implicit_taylor(example3_problem(), lift, order)

    def test_order3_on_additive_problem_requires_level3(self):
        problem = Problem(double_well_drift(), xi=[-3.0], T=1.0)
        lift = piecewise_linear_lift(fbm_path(0), include_level3=False)
        with pytest.raises(ValueError, match="level-3"):
            semi_implicit_taylor(problem, lift, 3)

    def test_rejects_noise_dimension_mismatch(self):
        additive = Problem(double_well_drift(), xi=[-3.0], T=1.0)
        with pytest.raises(ValueError, match="components"):
            semi_implicit_taylor(example3_problem(), piecewise_linear_lift(fbm_path(0)), 1)
        with pytest.raises(ValueError, match="components"):
            semi_implicit_taylor(additive, piecewise_linear_lift(fbm_path(0, m=2)), 1)
        with pytest.raises(ValueError, match="components"):
            explicit_euler(example3_problem(), fbm_path(0))
        with pytest.raises(ValueError, match="components"):
            explicit_euler(additive, fbm_path(0, m=2))

    def test_additive_orders_coincide_bitwise(self):
        problem = Problem(double_well_drift(), xi=[-3.0], T=1.0)
        lift = piecewise_linear_lift(fbm_path(8, N=128, hurst=0.75))
        first = semi_implicit_taylor(problem, lift, 1).states
        for order in (2, 3):
            assert np.array_equal(semi_implicit_taylor(problem, lift, order).states, first)


class TestSimplifiedSchemes:
    @pytest.mark.parametrize("seed", range(3))
    def test_coincidence_with_full_schemes(self, seed):
        problem = example3_problem()
        path = fbm_path(seed, N=128, m=2, hurst=5.0 / 12.0)
        lift = piecewise_linear_lift(path)
        s2 = simplified_taylor(problem, path, 2)
        f2 = semi_implicit_taylor(problem, lift, 2)
        s3 = simplified_taylor(problem, path, 3)
        f3 = semi_implicit_taylor(problem, lift, 3)
        assert np.max(np.abs(s2 - f2.states)) <= 1e-12
        assert np.max(np.abs(s3 - f3.states)) <= 1e-12

    def test_scalar_geometric_lift_equivalence(self):
        # any scalar geometric lift has X2 = dx^2/2, so the full scheme on it
        # equals the simplified scheme on the bare path
        problem = Problem(zero_drift(1), xi=[1.0], T=1.0, diffusion=geometric_diffusion())
        path = fbm_path(9, N=32)
        dx = np.diff(path.values, axis=0)
        lift = RoughLift(path.grid, dx, 0.5 * np.einsum("ni,nj->nij", dx, dx))
        a = simplified_taylor(problem, path, 2)
        b = semi_implicit_taylor(problem, lift, 2)
        assert np.max(np.abs(a - b.states)) <= 1e-12

    def test_constant_sigma_reduces_to_euler(self):
        problem = Problem(
            double_well_drift(), xi=[-3.0], T=1.0, diffusion=constant_diffusion([[1.2]])
        )
        path = fbm_path(10, N=32)
        a = semi_implicit_taylor(problem, piecewise_linear_lift(path), 1)
        b = run_scheme("simplified_milstein", problem, path)
        c = run_scheme("simplified_milstein3", problem, path)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.states, c.states)


class TestInvariants:
    def test_zero_noise_reduction_all_implicit_schemes(self):
        problem = example3_problem()
        grid = make_grid(1.0, 32)
        path = SamplePath(grid, np.zeros((33, 2)))
        lift = piecewise_linear_lift(path)
        trajectories = [
            semi_implicit_taylor(problem, lift, 1).states,
            semi_implicit_taylor(problem, lift, 2).states,
            semi_implicit_taylor(problem, lift, 3).states,
            run_scheme("simplified_milstein", problem, path).states,
            run_scheme("simplified_milstein3", problem, path).states,
        ]
        for states in trajectories[1:]:
            assert np.array_equal(states, trajectories[0])

    @pytest.mark.parametrize("seed", range(3))
    def test_boundedness_certificate(self, seed):
        path = fbm_path(seed, N=64, hurst=0.75)
        # example2's drift is contractive: C_b = -70 enters the bound as 0
        for name in ("example1", "example2"):
            problem = example_problem(name)[0]
            cb = problem.drift.one_sided_lipschitz
            traj = run_scheme("implicit_euler", problem, path)
            assert 2.0 * cb * path.grid.h <= 1.0
            bound = boundedness_bound(problem, path)
            assert np.max(np.abs(traj.states)) <= bound, name
            b_max = max(np.linalg.norm(problem.drift(x)) for x in path.values[1:])
            x_max = np.max(np.linalg.norm(path.values, axis=1))
            xi_norm = np.linalg.norm(problem.xi)
            assert bound == np.exp(2.0 * max(cb, 0.0)) * (xi_norm + b_max) + x_max, name

    def test_boundedness_bound_checks_driver(self):
        path = fbm_path(0)  # on [0, 1]
        with pytest.raises(ValueError, match="horizon is 2.0"):
            boundedness_bound(Problem(linear_drift(1.0), xi=[1.0], T=2.0), path)
        with pytest.raises(ValueError, match="components"):
            boundedness_bound(Problem(linear_drift(1.0), xi=[1.0], T=1.0), fbm_path(0, m=2))
        with pytest.raises(ValueError, match=r"needs 2\*C_b\*h <= 1, got 1.25$"):
            boundedness_bound(Problem(linear_drift(40.0), xi=[1.0], T=1.0), path)  # h = 1/64
        with pytest.raises(ValueError, match="holds for additive problems only"):
            boundedness_bound(example3_problem(), fbm_path(0, m=2))

    def test_gate_on_all_implicit_schemes(self):
        problem = example3_problem()
        grid = make_grid(1.0, 1)  # h = 1 and C_b = 1
        path = SamplePath(grid, np.zeros((2, 2)))
        lift = piecewise_linear_lift(path)
        for run in (
            lambda: semi_implicit_taylor(problem, lift, 1),
            lambda: semi_implicit_taylor(problem, lift, 2),
            lambda: semi_implicit_taylor(problem, lift, 3),
            lambda: run_scheme("simplified_milstein", problem, path),
            lambda: run_scheme("simplified_milstein3", problem, path),
        ):
            with pytest.raises(StepSizeError):
                run()


def test_dump_trajectory_csv(tmp_path):
    problem = Problem(zero_drift(1), xi=[1.0], T=1.0)
    path = fbm_path(0, N=4)
    traj = run_scheme("implicit_euler", problem, path)
    target = tmp_path / "missing" / "dir" / "traj.csv"
    dump_trajectory_csv(traj, target)
    assert b"\r" not in target.read_bytes()
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "t,y1"
    assert len(lines) == 6


def test_problem_noise_dim():
    assert Problem(linear_drift(-1.0, dim=3), xi=[1.0, 2.0, 3.0], T=1.0).noise_dim == 3
    sigma = constant_diffusion([[1.0, 0.0, 2.0], [0.0, 1.0, 0.5]])
    assert Problem(zero_drift(2), xi=[1.0, 2.0], T=1.0, diffusion=sigma).noise_dim == 3


def test_problem_dimension_mismatch():
    with pytest.raises(ValueError):
        Problem(double_well_drift(), xi=[1.0, 2.0], T=1.0)
    with pytest.raises(ValueError):
        Problem(cubic_radial_drift(2), xi=[1.0, 2.0], T=1.0, diffusion=geometric_diffusion())


@pytest.mark.parametrize(
    "drift, xi",
    [
        (linear_drift(-1.0), [np.nan]),
        (linear_drift(-1.0), [np.inf]),
        (linear_drift(-1.0), [-np.inf]),
        (linear_drift(-1.0, dim=2), [1.0, np.nan]),
    ],
    ids=["nan", "inf", "-inf", "d2-nan"],
)
def test_problem_rejects_nonfinite_initial_condition(drift, xi):
    with pytest.raises(ValueError, match="initial condition xi must be finite"):
        Problem(drift, xi=xi, T=1.0)


@pytest.mark.parametrize("T", [0.0, -1.0, np.inf, np.nan])
def test_problem_rejects_bad_horizon(T):
    with pytest.raises(ValueError, match="final time must be positive and finite"):
        Problem(linear_drift(-1.0), xi=[1.0], T=T)
