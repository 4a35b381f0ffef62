import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughtaylor import harness
from roughtaylor.fbm import FbmConfig, SamplePath, restrict, sample_fbm
from roughtaylor.fields import (
    DriftField,
    constant_diffusion,
    cosine_diffusion,
    cubic_radial_drift,
    linear_drift,
    zero_drift,
)
from roughtaylor.harness import (
    ADDITIVE_SCHEMES,
    MULTIPLICATIVE_SCHEMES,
    StudyConfig,
    eoc,
    example_problem,
    increment_flip_count,
    local_error_probe,
    probe_default_problem,
    run_scheme,
    run_study,
    sign_change_count,
    smooth_driver_path,
    stability_demo,
)
from roughtaylor.grids import make_grid
from roughtaylor.lift import piecewise_linear_lift
from roughtaylor.schemes import Problem, boundedness_bound, semi_implicit_taylor
from roughtaylor.solver import StepSizeError


class TestEoc:
    def test_paper_h075_column(self):
        # published error pairs at halving step size
        assert eoc([0.029995, 0.016201], [2**-7, 2**-8])[0] == pytest.approx(0.88, abs=0.01)
        assert eoc([0.016201, 0.008391], [2**-8, 2**-9])[0] == pytest.approx(0.95, abs=0.01)

    def test_paper_h025_column(self):
        assert eoc([0.047149, 0.020681], [2**-8, 2**-9])[0] == pytest.approx(1.18, abs=0.01)

    def test_exact_first_order(self):
        assert eoc([0.4, 0.2, 0.1], [0.1, 0.05, 0.025]) == pytest.approx([1.0, 1.0])

    def test_identical_errors(self):
        assert eoc([0.3, 0.3], [0.1, 0.05])[0] == 0.0

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            eoc([0.1, 0.0], [0.1, 0.05])
        with pytest.raises(ValueError):
            eoc([0.1, -0.2], [0.1, 0.05])

    def test_rejects_nondecreasing_steps(self):
        with pytest.raises(ValueError):
            eoc([0.1, 0.05], [0.05, 0.1])

    # NaN fails every comparison, so a NaN passes a bare "<= 0" test
    @pytest.mark.parametrize(
        "errors, steps, match",
        [
            ([np.nan, 1.0], [1.0, 0.5], "errors"),
            ([1.0, np.inf], [1.0, 0.5], "errors"),
            ([1.0, 0.5], [np.inf, 0.5], "steps"),
            ([1.0, 0.5], [1.0, np.nan], "steps"),
        ],
    )
    def test_rejects_nonfinite_input(self, errors, steps, match):
        with pytest.raises(ValueError, match=match):
            eoc(errors, steps)


    @pytest.mark.parametrize(
        "errors, steps", [([1.0, 0.5, 0.25], [1.0, 0.5]), ([1.0], [1.0]), ([[1.0, 0.5]], [[1.0, 0.5]])]
    )
    def test_rejects_mismatched_input(self, errors, steps):
        with pytest.raises(ValueError, match="need matching 1-d errors and steps with at least two"):
            eoc(errors, steps)


def zero_driver_states(problem, n_steps):
    """Implicit Euler states of an additive scalar problem on T = 1 with the
    driver held at zero, on n_steps steps."""
    path = SamplePath(make_grid(1.0, n_steps), np.zeros((n_steps + 1, 1)))
    return run_scheme("implicit_euler", problem, path).states[:, 0]


# step exponents a study must reject before it samples a path
BAD_STEPS = {
    (5, 5, 6): r"step exponents must be distinct, got \(.*\)",
    (6, 5, 6): r"step exponents must be distinct, got \(.*\)",
    (-2,): r"step exponents must be non-negative integers, got \(-2,\)",
    (5.5,): r"step exponents must be non-negative integers, got \(5\.5,\)",
    (float("inf"),): r"step exponents must be non-negative integers, got \(inf,\)",
}


# b(y) = -50 y, with no Jacobian, is NaN beyond |y| = CLIFF: on the study of
# cliff_study, seed 0's reference and seed 1's coarsest level fail a solve
CLIFF = 0.25


def cliff_study(out_dir=None):
    drift = DriftField(1, lambda y: np.where(np.abs(y) <= CLIFF, -50.0 * y, np.nan), -50.0)
    problem = Problem(drift, xi=[0.0], T=1.0)
    config = StudyConfig(
        "custom",
        "implicit_euler",
        hurst=(0.5,),
        step_exponents=(2, 4, 6),
        ref_exponent=8,
        seeds=(0, 1),
        out_dir=out_dir,
    )
    return config, problem


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test if a study samples a driver path."""

    def sample(*_):
        raise AssertionError("a study with a bad config must not sample a path")

    monkeypatch.setattr(harness, "sample_fbm", sample)


class TestRunStudy:
    def test_zero_noise_linear_matches_closed_form(self):
        # implicit Euler on dy = lam*y dt with zero driver: y_n = xi/(1-h*lam)^n
        lam, xi = -2.0, 1.0
        problem = Problem(linear_drift(lam), xi=[xi], T=1.0)
        exponents = (4, 5, 6)
        ref_exp = 10

        def recursion(n_steps):
            h = 1.0 / n_steps
            return xi / (1.0 - h * lam) ** np.arange(n_steps + 1)

        ref = zero_driver_states(problem, 2**ref_exp)
        errors = []
        for k in exponents:
            factor = 2 ** (ref_exp - k)
            error = np.max(np.abs(ref[::factor] - zero_driver_states(problem, 2**k)))
            expected = np.max(np.abs(recursion(2**ref_exp)[::factor] - recursion(2**k)))
            assert error == pytest.approx(expected, rel=1e-10)
            errors.append(error)
        orders = eoc(errors, [2.0**-k for k in exponents])
        assert np.mean(orders) == pytest.approx(1.0, abs=0.1)

    def test_zero_noise_stiff_eoc_tends_to_one(self):
        problem = Problem(linear_drift(-70.0), xi=[2.7], T=1.0)
        exponents = (7, 8, 9, 10)
        ref_exp = 14
        ref = zero_driver_states(problem, 2**ref_exp)
        errors = [
            np.max(np.abs(ref[:: 2 ** (ref_exp - k)] - zero_driver_states(problem, 2**k)))
            for k in exponents
        ]
        eocs = eoc(errors, [2.0**-k for k in exponents])
        assert abs(np.mean(eocs) - 1.0) <= 0.2
        assert np.all(np.diff(np.abs(eocs - 1.0)) <= 0.0)  # approaching 1

    def test_growing_solution_is_flagged_blowup(self):
        # every step is well posed (C_b*h <= 30*0.8/64 < 1); the reference
        # stays below BLOWUP_NORM, and the coarsest grid, which grows faster,
        # passes it: the solver must not fail first at large |y|
        problem = Problem(linear_drift(30.0), xi=[1.0], T=0.8)
        cfg = StudyConfig(
            "custom",
            "implicit_euler",
            hurst=(0.5,),
            step_exponents=(6, 7),
            ref_exponent=10,
            seeds=(7,),
        )
        coarse, fine = run_study(cfg, problem=problem).seed_tables[7].rows
        assert coarse.flag == "blowup:step=59"
        assert fine.flag is None and np.isfinite(fine.error)

    def test_rejects_bad_reference_exponent(self):
        cfg = StudyConfig("example1", "implicit_euler", step_exponents=(5, 6), ref_exponent=6)
        with pytest.raises(ValueError):
            run_study(cfg)

    @pytest.mark.parametrize("steps", list(BAD_STEPS))
    def test_rejects_duplicate_step_exponents(self, steps, no_sampling):
        cfg = StudyConfig("example1", "implicit_euler", step_exponents=steps, ref_exponent=8)
        with pytest.raises(ValueError, match=BAD_STEPS[steps]):
            run_study(cfg)

    @pytest.mark.parametrize(
        "ref, message",
        [
            (10.5, r"reference exponent must be an integer, got 10\.5"),
            (float("inf"), "reference exponent must be an integer, got inf"),
            (float("nan"), "reference exponent must be an integer, got nan"),
        ],
    )
    def test_rejects_non_integral_reference_exponent(self, ref, message, no_sampling):
        cfg = StudyConfig("example1", "implicit_euler", step_exponents=(4, 5), ref_exponent=ref)
        with pytest.raises(ValueError, match=message):
            run_study(cfg)

    @pytest.mark.parametrize("steps, ref", [((4.0, 5), 7), ((5, 4), 10.0), ((5.0, 4.0), 7.0)])
    def test_integral_float_exponents_run_as_ints(self, steps, ref, tmp_path):
        def study(steps, ref, out):
            config = StudyConfig(
                "example1", "implicit_euler", step_exponents=steps, ref_exponent=ref, out_dir=out
            )
            result = run_study(config)
            return result.seed_tables, [p.read_bytes() for p in result.files]

        assert study(steps, ref, tmp_path / "a") == study((4, 5), int(ref), tmp_path / "b")

    @pytest.mark.parametrize("seeds", [(2.0,), (True, 2.0)])
    def test_integral_float_and_bool_seeds_run_as_ints(self, seeds, tmp_path):
        # seed 2.0 draws the path of seed 2 and True that of seed 1, so the
        # tables and files are named after those ints
        def study(seeds, out):
            config = StudyConfig(
                "example2", "implicit_euler", step_exponents=(3,), ref_exponent=4, seeds=seeds,
                out_dir=out,
            )
            result = run_study(config)
            return list(result.seed_tables), [(p.name, p.read_bytes()) for p in result.files]

        ints = tuple(int(seed) for seed in seeds)
        got, want = study(seeds, tmp_path / "a"), study(ints, tmp_path / "b")
        assert got == want
        assert all(type(seed) is int for seed in got[0])

    def test_rejects_problem_with_builtin_config(self):
        cfg = StudyConfig("example2", "implicit_euler", step_exponents=(4,), ref_exponent=6)
        with pytest.raises(ValueError, match="'example2' is built in"):
            run_study(cfg, problem=Problem(linear_drift(-1.0), xi=[1.0], T=1.0))

    def test_custom_multiplicative_derives_noise_dim(self):
        # the noise dimension comes from the diffusion, the default Hurst
        # parameter is 0.5 per driver component
        problem, _, _ = example_problem("example3")
        steps = dict(step_exponents=(4, 5), ref_exponent=7, seeds=(0, 1))
        custom = run_study(StudyConfig("custom", "simplified_milstein", **steps), problem=problem)
        builtin = run_study(
            StudyConfig("example3", "simplified_milstein", hurst=(0.5, 0.5), **steps)
        )
        assert custom.seed_tables == builtin.seed_tables
        assert all(r.flag is None for t in custom.seed_tables.values() for r in t.rows)

    def test_rejects_duplicate_seeds(self, no_sampling):
        cfg = StudyConfig(
            "example1", "implicit_euler", step_exponents=(4, 5), ref_exponent=7, seeds=(0, 0, 0)
        )
        with pytest.raises(ValueError, match=r"seeds must be distinct, got \(0, 0, 0\)"):
            run_study(cfg)

    @pytest.mark.parametrize(
        "seeds", [(0, -1), (0, 2.5), (0, float("inf")), (0, float("nan")), (0, None)]
    )
    def test_rejects_bad_seed_before_sampling(self, seeds, no_sampling):
        cfg = StudyConfig(
            "example1", "implicit_euler", step_exponents=(5, 6), ref_exponent=10, seeds=seeds
        )
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seeds[1]}"):
            run_study(cfg)

    def test_rejects_incompatible_scheme(self):
        cfg = StudyConfig("example1", "simplified_milstein", step_exponents=(4,), ref_exponent=6)
        with pytest.raises(ValueError):
            run_study(cfg)
        cfg = StudyConfig("example3", "implicit_euler", step_exponents=(4,), ref_exponent=6)
        with pytest.raises(ValueError):
            run_study(cfg)

    def test_rejects_unknown_scheme(self):
        cfg = StudyConfig("example1", "implicit_eular", step_exponents=(4,), ref_exponent=6)
        with pytest.raises(ValueError, match="unknown scheme 'implicit_eular'; choose from"):
            run_study(cfg)

    def test_custom_requires_a_problem(self, no_sampling):
        cfg = StudyConfig("custom", "implicit_euler", step_exponents=(4,), ref_exponent=6)
        with pytest.raises(ValueError, match="problem='custom' requires an explicit Problem"):
            run_study(cfg)

    @pytest.mark.parametrize("custom", [None, Problem(linear_drift(-1.0), xi=[1.0], T=1.0)])
    def test_rejects_unknown_problem_before_sampling(self, custom, no_sampling):
        # example_problem's message, with or without a Problem passed
        cfg = StudyConfig("example9", "implicit_euler", step_exponents=(4,), ref_exponent=6)
        message = r"unknown problem 'example9'; choose from \[.*\] or 'custom'"
        with pytest.raises(ValueError, match=message):
            run_study(cfg, problem=custom)

    @pytest.mark.parametrize(
        "name, custom, message",
        [
            ("example1", None, r"C_b=1\.0 and h=1\.0 \(C_b\*h=1\.0\)"),
            (
                "custom",
                Problem(linear_drift(3.0), xi=[1.0], T=1.0),
                r"C_b=3\.0 and h=1\.0 \(C_b\*h=3\.0\)",
            ),
            (
                "custom",
                Problem(cubic_radial_drift(2), xi=[1.0, 1.0], T=2.0, diffusion=cosine_diffusion()),
                r"C_b=1\.0 and h=2\.0 \(C_b\*h=2\.0\)",
            ),
        ],
        ids=["example1", "custom-additive", "custom-multiplicative"],
    )
    def test_rejects_ill_posed_step_before_sampling(self, name, custom, message, no_sampling):
        # the stepper's gate C_b*h < 1, checked at every level before the first draw
        scheme = "implicit_euler" if custom is None or custom.additive else "simplified_milstein"
        cfg = StudyConfig(name, scheme, step_exponents=(0, 1), ref_exponent=4, seeds=(0, 1))
        gate = r"needs 0 <= h < inf and C_b\*h < 1, got "
        with pytest.raises(StepSizeError, match=gate + message):
            run_study(cfg, problem=custom)

    def test_forward_euler_has_no_step_gate(self):
        cfg = StudyConfig("example1", "explicit_euler", step_exponents=(0, 1), ref_exponent=4)
        (table,) = run_study(cfg).seed_tables.values()
        assert all(row.flag is None for row in table.rows)

    def test_failed_solves_become_flagged_rows(self, tmp_path):
        # Step 0 starts at r_0 = dx_0 and fails once that passes the cliff;
        # every later step starts at its root r_j / (1 + 50h), the Newton
        # point of a linear drift, and retries from r_j, further out, where
        # the residual there is NaN: it fails once the root passes the cliff
        cfg, problem = cliff_study(tmp_path)
        result = run_study(cfg, problem=problem)

        def first_failure(seed, k):
            # implicit Euler of the linear drift in closed form, y_{j+1} = r_j / (1 + 50h)
            fine = sample_fbm(FbmConfig((0.5,), 1, make_grid(1.0, 2**8), seed))
            path = restrict(fine, 2 ** (8 - k))
            y = 0.0
            for j, dx in enumerate(np.diff(path.values[:, 0])):
                start = y + dx if j == 0 else (y + dx) / (1.0 + 50.0 * 2.0**-k)
                if abs(start) > CLIFF:
                    return j
                y = (y + dx) / (1.0 + 50.0 * 2.0**-k)
            return None

        # seed 0 fails on the reference grid, seed 1 at the first step of the coarsest grid
        expected = {
            0: ["reference-solver:step=48"] * 3,
            1: ["solver:step=0", None, None],
        }
        assert first_failure(0, 8) == 48 and first_failure(1, 8) is None
        assert [first_failure(1, k) for k in (2, 4, 6)] == [0, None, None]
        for seed, flags in expected.items():
            rows = result.seed_tables[seed].rows
            assert [row.flag for row in rows] == flags
            assert [np.isnan(row.error) for row in rows] == [f is not None for f in flags]
            lines = (tmp_path / f"custom_implicit_euler_seed{seed}.csv").read_text().splitlines()
            assert [line.split(",")[3] or None for line in lines[1:]] == flags
        assert [row.flagged for row in result.aggregate] == [2, 1, 1]

    def test_violated_boundedness_certificate_raises(self):
        # b(y) = 5y declares C_b = 0, so the bound is certified, and the
        # trajectory grows like exp(5t) past it
        drift = DriftField(1, lambda y: 5.0 * y, 0.0)
        problem = Problem(drift, xi=[1.0], T=1.0)
        cfg = StudyConfig("custom", "implicit_euler", step_exponents=(4, 5), ref_exponent=7)
        with pytest.raises(RuntimeError, match="boundedness certificate violated"):
            run_study(cfg, problem=problem)

    def test_overflow_becomes_flagged_row(self):
        cfg = StudyConfig(
            "example3", "explicit_euler", step_exponents=(6,), ref_exponent=9, seeds=(0, 1)
        )
        result = run_study(cfg)
        for table in result.seed_tables.values():
            row = table.rows[0]
            assert row.flag is not None and "blowup" in row.flag
            assert np.isnan(row.error)
        assert np.isnan(result.aggregate[0].mean_error)
        assert result.aggregate[0].flagged == 2

    def test_deterministic_csv(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = dict(
            problem="example1",
            scheme="implicit_euler",
            hurst=(0.5,),
            step_exponents=(4, 5),
            ref_exponent=8,
            seeds=(0, 1),
        )
        res_a = run_study(StudyConfig(out_dir=out_a, **base))
        res_b = run_study(StudyConfig(out_dir=out_b, **base))
        assert len(res_a.files) == len(res_b.files) == 4  # 2 seeds + aggregate + loglog
        for fa, fb in zip(res_a.files, res_b.files):
            assert fa.read_bytes() == fb.read_bytes()

    def test_csv_schema(self, tmp_path):
        cfg = StudyConfig(
            "example1",
            "implicit_euler",
            hurst=(0.5,),
            step_exponents=(4, 5),
            ref_exponent=8,
            seeds=(0,),
            out_dir=tmp_path,
        )
        run_study(cfg)
        seed_csv = (tmp_path / "example1_implicit_euler_seed0.csv").read_text().splitlines()
        assert seed_csv[0] == "h,error,eoc,flag"
        assert seed_csv[1].startswith("0.0625,")
        agg_csv = (tmp_path / "example1_implicit_euler_aggregate.csv").read_text().splitlines()
        assert agg_csv[0] == "h,mean_error,mean_eoc,std_error"
        loglog = (tmp_path / "example1_implicit_euler_loglog.csv").read_text().splitlines()
        assert loglog[0] == "log2_h,log2_mean_error"
        assert loglog[1].startswith("-4,")

    def test_bound_checks_counted(self):
        cfg = StudyConfig(
            "example1",
            "implicit_euler",
            hurst=(0.5,),
            step_exponents=(4, 5),
            ref_exponent=8,
            seeds=(0, 1),
        )
        result = run_study(cfg)
        # reference + two coarse runs per seed
        assert result.bound_checks == 6


# four seeds, whose means round differently when summed in reverse
UNFLAGGED = StudyConfig(
    "example1", "implicit_euler", hurst=(0.75,), step_exponents=(4, 5, 6), ref_exponent=8, seeds=(3, 0, 1, 2)
)


class TestPerSeedKernel:
    """run_study checks everything, runs each seed through _run_seed, which
    depends on that seed's driver alone, and aggregates the seed tables in
    config.seeds order with the pure _aggregate.  Tables are compared by
    repr, where a flagged row's NaN error equals itself."""

    @staticmethod
    def run_seed(name, scheme, seed):
        problem, m, hurst = example_problem(name)
        driver = FbmConfig(hurst, m, make_grid(problem.T, 2**6), seed)
        table, certified = harness._run_seed(problem, scheme, (2, 3, 4), driver, problem.additive)
        return repr(table), certified

    @settings(max_examples=20, deadline=None)
    @given(
        study=st.sampled_from([("example1", "implicit_euler"), ("example3", "simplified_milstein")]),
        seeds=st.lists(st.integers(0, 2**64), min_size=2, max_size=2, unique=True),
    )
    def test_a_seed_depends_on_its_seed_alone(self, study, seeds):
        a, b = seeds
        alone = self.run_seed(*study, a)
        for order in [(a, b), (b, a), (a,)]:
            config = StudyConfig(*study, step_exponents=(2, 3, 4), ref_exponent=6, seeds=order)
            result = run_study(config)
            assert repr(result.seed_tables[a]) == alone[0]
            assert result.bound_checks == sum(self.run_seed(*study, seed)[1] for seed in order)
        assert alone[1] == (4 if study[0] == "example1" else 0)  # reference + three levels

    @pytest.mark.parametrize("flagged", [False, True])
    def test_aggregate_of_seed_tables_is_the_study_aggregate(self, flagged):
        config, problem = cliff_study() if flagged else (UNFLAGGED, example_problem("example1")[0])
        result = run_study(config, problem=problem if flagged else None)
        grid = make_grid(problem.T, 2**config.ref_exponent)
        tables = [
            harness._run_seed(
                problem, config.scheme, config.step_exponents, FbmConfig(config.hurst, 1, grid, seed), True
            )[0]
            for seed in config.seeds
        ]
        assert repr(tables) == repr(list(result.seed_tables.values()))
        aggregate, mean_average_eoc = harness._aggregate(tables)
        assert repr(aggregate) == repr(result.aggregate)
        assert repr(mean_average_eoc) == repr(result.mean_average_eoc)
        assert any(row.flagged for row in aggregate) == flagged
        if not flagged:  # so the study's aggregate is the one in config.seeds order
            assert repr(harness._aggregate(tables[::-1])) != repr(aggregate)


class TestCertification:
    """Each level's bound is the public boundedness_bound on its restricted
    path, byte for byte, though a seed evaluates the drift for the coarse
    levels' bounds only once."""

    PROBLEMS = {
        "example1": lambda: example_problem("example1")[0],
        "user_1": lambda: Problem(DriftField(1, lambda y: np.sin(y) - y**3, 1.0), xi=[0.3], T=1.0),
        "cubic_radial_2": lambda: Problem(cubic_radial_drift(2), xi=[1.0, -2.0], T=1.0),
        "zero_2": lambda: Problem(zero_drift(2), xi=[0.5, 0.0], T=2.0),
    }

    @pytest.mark.parametrize("exponents", [(0, 1, 3, 5, 7), (2, 6), (4,)])
    @pytest.mark.parametrize("hurst", [0.1, 0.75])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_level_bounds_are_boundedness_bound(self, name, hurst, exponents):
        problem = self.PROBLEMS[name]()
        m = problem.dim
        path = sample_fbm(FbmConfig((hurst,) * m, m, make_grid(problem.T, 2**8), seed=4))
        bounds = harness._level_bounds(problem, path, exponents)
        # the levels that admit the bound: 2*C_b*h <= 1 (C_b is 1 or 0 here)
        cb = problem.drift.one_sided_lipschitz
        certified = [1, *(2 ** (8 - k) for k in exponents if 2.0 * cb * problem.T / 2**k <= 1.0)]
        assert sorted(bounds) == sorted(certified)
        for f in certified:
            want = boundedness_bound(problem, restrict(path, f))
            assert np.float64(bounds[f]).tobytes() == np.float64(want).tobytes()

    def test_coarse_terms_evaluated_once_per_seed(self, monkeypatch):
        calls = []
        node_norms = harness._node_norms
        monkeypatch.setattr(
            harness, "_node_norms", lambda *a: calls.append(a[1].shape) or node_norms(*a)
        )
        config = StudyConfig("example1", "implicit_euler", step_exponents=(3, 4, 5), ref_exponent=7, seeds=(0, 1))
        assert run_study(config).bound_checks == 8  # reference + three levels, two seeds
        assert calls == [(2**5 + 1, 1)] * 2  # the nodes of the finest coarse level


class TestStabilityDemo:
    def test_unstable_classification(self):
        assert stability_demo(2**-5, zero_noise=True).explicit_unstable

    def test_stable_classification(self):
        report = stability_demo(2**-7, zero_noise=True)
        assert not report.explicit_unstable

    @pytest.mark.parametrize("h, factor", [(2**-5, 1.1875), (2**-7, 0.453125), (2**-4, 3.375)])
    def test_report_carries_forward_factor(self, h, factor):
        report = stability_demo(h, zero_noise=True)
        assert report.explicit_factor == factor == abs(1.0 - 70.0 * h)
        assert report.explicit_unstable == (factor > 1.0)

    def test_maximally_damped_step(self):
        report = stability_demo(1.0 / 70.0, zero_noise=True)
        assert not report.explicit_unstable
        assert report.explicit.states[1, 0] == pytest.approx(0.0)

    def test_zero_noise_flip_counts(self):
        report = stability_demo(2**-5, zero_noise=True)
        assert report.implicit_increment_flips == 0
        assert report.implicit_sign_changes == 0

    def test_rejects_nondividing_step(self):
        with pytest.raises(ValueError):
            stability_demo(0.3)

    def test_flip_counters(self):
        states = np.array([[0.0], [1.0], [0.5], [2.0], [-1.0]])
        assert increment_flip_count(states) == 3
        assert sign_change_count(states) == 1
        assert increment_flip_count(states[:, 0]) == 3
        assert increment_flip_count(states[:1]) == 0


# local_error_probe errors (float.hex) per problem and order; they move if the
# order of the probe's Chen fold or of a Taylor step's arithmetic changes.  The
# planar reference runs 256 implicit steps from the documented start, and its
# values equal those of test_solver's oracle_trajectory for that reference.
# The default problem's d = 1 multiplicative steps call BLAS for their 1 x 1
# noise-term products, but each is a single multiplication, which no kernel can
# fuse or reorder; the planar steps and the error norm call no BLAS.  So they
# hold on every kernel
PROBE_ERRORS_HEX = {
    "default": {
        "euler": (
            "0x1.1f6bc1f707f00p-8", "0x1.201b4a33be800p-10", "0x1.203e4aeaa5000p-12",
            "0x1.2042d5e8d0000p-14", "0x1.2041e5ff20000p-16", "0x1.2040a1b780000p-18",
            "0x1.203fcc9700000p-20",
        ),
        "milstein": (
            "0x1.18887ba9ce000p-13", "0x1.1cd059a340000p-16", "0x1.1eaec02800000p-19",
            "0x1.1f8c641400000p-22", "0x1.1ff6cda000000p-25", "0x1.202af00000000p-28",
            "0x1.2044880000000p-31",
        ),
        "milstein3": (
            "0x1.9bfe1d6480000p-19", "0x1.a6ff30d800000p-23", "0x1.ac078a8000000p-27",
            "0x1.ae6ca80000000p-31", "0x1.af97000000000p-35", "0x1.b070000000000p-39",
            "0x1.ae00000000000p-43",
        ),
    },
    "planar": {
        "euler": (
            "0x1.3b0d1f2fb16a6p-5", "0x1.8d1bd18907fc8p-7", "0x1.b57cc28ff04b2p-9",
            "0x1.c8b11b23e7a46p-11", "0x1.d1f385362b6c9p-13", "0x1.d67bb82270ae3p-15",
            "0x1.d8b8b449ea837p-17",
        ),
        "milstein": (
            "0x1.69f08f30822d2p-6", "0x1.f1f5f45c2b396p-9", "0x1.876785dcf9f7ep-11",
            "0x1.5a2836ed86ffcp-13", "0x1.46ec5310d2364p-15", "0x1.3e5e5ff47523ap-17",
            "0x1.3a64830ebd555p-19",
        ),
        "milstein3": (
            "0x1.24cb6e74a4d61p-6", "0x1.bf3f46c13eec1p-9", "0x1.7855bdcccee70p-11",
            "0x1.5671ed4290209p-13", "0x1.46377976f44d7p-15", "0x1.3e54013afca87p-17",
            "0x1.3a7422abb47b2p-19",
        ),
    },
}


class TestLocalErrorProbe:
    def test_exact_for_constant_sigma(self):
        problem = Problem(
            zero_drift(1), xi=[1.0], T=1.0, diffusion=constant_diffusion([[0.7]])
        )
        for scheme in ("euler", "milstein", "milstein3"):
            result = local_error_probe(problem, scheme)
            assert max(result.errors) <= 1e-13
            assert np.isnan(result.slope)

    def test_euler_slope_near_two(self):
        problem = probe_default_problem()
        result = local_error_probe(problem, "euler")
        assert result.slope >= 1.8

    def test_rate_ordering(self):
        problem = probe_default_problem()
        slopes = {
            s: local_error_probe(problem, s).slope
            for s in ("euler", "milstein", "milstein3")
        }
        assert slopes["milstein3"] >= slopes["milstein"] >= slopes["euler"]

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            local_error_probe(probe_default_problem(), "heun")

    def test_rejects_additive_problem(self):
        problem = Problem(linear_drift(-1.0), xi=[1.0], T=1.0)
        with pytest.raises(ValueError, match="the probe needs a multiplicative problem"):
            local_error_probe(problem, "euler")

    @pytest.mark.parametrize("scheme", ["euler", "milstein", "milstein3"])
    def test_errors_bitwise_pinned(self, scheme):
        planar = Problem(
            cubic_radial_drift(2), xi=[1.0, -0.5], T=1.0, diffusion=cosine_diffusion()
        )
        for name, problem in (("default", probe_default_problem()), ("planar", planar)):
            errors = local_error_probe(problem, scheme).errors
            assert [e.hex() for e in errors] == list(PROBE_ERRORS_HEX[name][scheme]), name


def test_smooth_driver_starts_at_zero():
    path = smooth_driver_path(make_grid(1.0, 16), m=3)
    assert np.array_equal(path.values[0], np.zeros(3))
    # components differ
    assert not np.allclose(path.values[:, 0], path.values[:, 1])


def test_example_problem_lookup():
    problem, m, hurst = example_problem("example3")
    assert problem.dim == 2 and m == 2
    assert hurst == (5.0 / 12.0, 5.0 / 12.0)
    with pytest.raises(ValueError):
        example_problem("example9")


class TestRunScheme:
    def test_scheme_names_by_problem_kind(self):
        assert ADDITIVE_SCHEMES == ("implicit_euler", "explicit_euler")
        assert MULTIPLICATIVE_SCHEMES == (
            "explicit_euler",
            "semi_implicit_euler",
            "semi_implicit_milstein",
            "semi_implicit_milstein3",
            "simplified_milstein",
            "simplified_milstein3",
        )

    def test_enforces_problem_kind(self):
        additive, _, _ = example_problem("example1")
        multiplicative, _, _ = example_problem("example3")
        path1 = smooth_driver_path(make_grid(1.0, 8), m=1)
        path2 = smooth_driver_path(make_grid(1.0, 8), m=2)
        with pytest.raises(ValueError, match="does not apply to multiplicative"):
            run_scheme("implicit_euler", multiplicative, path2)
        with pytest.raises(ValueError, match="does not apply to additive"):
            run_scheme("semi_implicit_euler", additive, path1)

    def test_rejects_unknown_scheme(self):
        problem, _, _ = example_problem("example1")
        path = smooth_driver_path(make_grid(1.0, 8), m=1)
        with pytest.raises(ValueError, match="unknown scheme 'implicit_eular'"):
            run_scheme("implicit_eular", problem, path)

    @pytest.mark.parametrize(
        "problem_name, scheme, order",
        [
            ("example1", "implicit_euler", 1),
            ("example3", "semi_implicit_euler", 1),
            ("example3", "semi_implicit_milstein", 2),
            ("example3", "semi_implicit_milstein3", 3),
            ("example3", "simplified_milstein", 2),
            ("example3", "simplified_milstein3", 3),
        ],
    )
    def test_implicit_scheme_is_driver_of_its_order(self, problem_name, scheme, order):
        problem, m, _ = example_problem(problem_name)
        path = smooth_driver_path(make_grid(1.0, 64), m=m)
        expected = semi_implicit_taylor(problem, piecewise_linear_lift(path), order)
        assert np.array_equal(run_scheme(scheme, problem, path).states, expected.states)
