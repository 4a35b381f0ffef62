import numpy as np
import pytest

from roughtaylor import harness
from roughtaylor.fields import linear_drift, constant_diffusion, zero_drift
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
from roughtaylor.schemes import Problem, semi_implicit_taylor


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


class TestRunStudy:
    def test_zero_noise_linear_matches_closed_form(self):
        # implicit Euler on dy = lam*y dt with zero driver: y_n = xi/(1-h*lam)^n
        lam, xi = -2.0, 1.0
        problem = Problem(linear_drift(lam), xi=[xi], T=1.0)
        exponents = (4, 5, 6)
        ref_exp = 10
        cfg = StudyConfig(
            "custom",
            "implicit_euler",
            step_exponents=exponents,
            ref_exponent=ref_exp,
            seeds=(0,),
            zero_noise=True,
        )
        result = run_study(cfg, problem=problem)

        def recursion(n_steps):
            h = 1.0 / n_steps
            return xi / (1.0 - h * lam) ** np.arange(n_steps + 1)

        ref = recursion(2**ref_exp)
        for row, k in zip(result.seed_tables[0].rows, exponents):
            coarse = recursion(2**k)
            factor = 2 ** (ref_exp - k)
            expected = np.max(np.abs(ref[::factor] - coarse))
            assert row.error == pytest.approx(expected, rel=1e-10)
        assert result.mean_average_eoc == pytest.approx(1.0, abs=0.1)

    def test_zero_noise_stiff_eoc_tends_to_one(self):
        problem = Problem(linear_drift(-70.0), xi=[2.7], T=1.0)
        cfg = StudyConfig(
            "custom",
            "implicit_euler",
            step_exponents=(7, 8, 9, 10),
            ref_exponent=14,
            seeds=(0,),
            zero_noise=True,
        )
        result = run_study(cfg, problem=problem)
        eocs = [r.eoc for r in result.seed_tables[0].rows if r.eoc is not None]
        assert abs(result.mean_average_eoc - 1.0) <= 0.2
        assert np.all(np.diff(np.abs(np.array(eocs) - 1.0)) <= 0.0)  # approaching 1

    def test_rejects_bad_reference_exponent(self):
        cfg = StudyConfig("example1", "implicit_euler", step_exponents=(5, 6), ref_exponent=6)
        with pytest.raises(ValueError):
            run_study(cfg)

    @pytest.mark.parametrize("steps", [(5, 5, 6), (6, 5, 6)])
    def test_rejects_duplicate_step_exponents(self, steps, monkeypatch):
        def no_sampling(*_):
            raise AssertionError("a study with duplicate step exponents must not start")

        monkeypatch.setattr(harness, "sample_fbm", no_sampling)
        cfg = StudyConfig("example1", "implicit_euler", step_exponents=steps, ref_exponent=8)
        with pytest.raises(ValueError, match=r"step exponents must be distinct, got \(.*\)"):
            run_study(cfg)

    def test_rejects_duplicate_seeds(self, monkeypatch):
        def no_sampling(*_):
            raise AssertionError("a study with duplicate seeds must not start")

        monkeypatch.setattr(harness, "sample_fbm", no_sampling)
        cfg = StudyConfig(
            "example1", "implicit_euler", step_exponents=(4, 5), ref_exponent=7, seeds=(0, 0, 0)
        )
        with pytest.raises(ValueError, match=r"seeds must be distinct, got \(0, 0, 0\)"):
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


class TestStabilityDemo:
    def test_unstable_classification(self):
        assert stability_demo(2**-5, zero_noise=True).explicit_unstable

    def test_stable_classification(self):
        report = stability_demo(2**-7, zero_noise=True)
        assert not report.explicit_unstable

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


class TestLocalErrorProbe:
    def test_exact_for_constant_sigma(self):
        problem = Problem(
            zero_drift(1), xi=[1.0], T=1.0, diffusion=constant_diffusion([[0.7]])
        )
        for scheme in ("euler", "milstein", "milstein3"):
            result = local_error_probe(problem, scheme, problem.xi, steps=(2**-4, 2**-6))
            assert max(result.errors) <= 1e-13
            assert np.isnan(result.slope)

    def test_euler_slope_near_two(self):
        problem = probe_default_problem()
        result = local_error_probe(problem, "euler", problem.xi)
        assert result.slope >= 1.8

    def test_rate_ordering(self):
        problem = probe_default_problem()
        slopes = {
            s: local_error_probe(problem, s, problem.xi).slope
            for s in ("euler", "milstein", "milstein3")
        }
        assert slopes["milstein3"] >= slopes["milstein"] >= slopes["euler"]

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            local_error_probe(probe_default_problem(), "heun", [1.0])


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
