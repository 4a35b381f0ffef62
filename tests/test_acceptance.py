"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities after its assertions (run with -v to see one
pass/fail line per criterion, -s to see the measurements)."""

import dataclasses
import time

import numpy as np

from roughtaylor.fbm import FbmConfig, SamplePath, sample_fbm
from roughtaylor.fields import cosine_diffusion, cubic_radial_drift, double_well_drift
from roughtaylor.grids import make_grid
from roughtaylor.harness import (
    StudyConfig,
    local_error_probe,
    probe_default_problem,
    run_scheme,
    run_study,
    stability_demo,
)
from roughtaylor.lift import piecewise_linear_lift
from roughtaylor.schemes import Problem, boundedness_bound, semi_implicit_taylor
from roughtaylor.solver import solve_step
from lift_checks import chen_defect, geometricity_defect
from test_schemes import simplified_taylor
from test_solver import cubic_equation_root


def test_criterion_1_chen_and_geometricity():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst2 = worst3 = worst_geo = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 17))
        values = np.vstack([np.zeros(m), np.cumsum(rng.standard_normal((N, m)), axis=0)])
        lift = piecewise_linear_lift(SamplePath(make_grid(1.0, N), values))
        r2, r3 = chen_defect(lift)
        worst2 = max(worst2, r2)
        worst3 = max(worst3, r3)
        worst_geo = max(worst_geo, geometricity_defect(lift))
    elapsed = time.time() - start
    assert worst2 <= 1e-12
    assert worst3 <= 1e-12
    assert worst_geo <= 1e-12
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 (Chen/geometricity): PASS "
        f"(chen2 {worst2:.2e}, chen3 {worst3:.2e}, geo {worst_geo:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_coincidence_of_simplified_schemes():
    start = time.time()
    problem = Problem(
        cubic_radial_drift(2), xi=[10.0, -10.0], T=1.0, diffusion=cosine_diffusion()
    )
    grid = make_grid(1.0, 2**7)
    worst2 = worst3 = 0.0
    for seed in range(10):
        path = sample_fbm(FbmConfig((5.0 / 12.0, 5.0 / 12.0), 2, grid, seed))
        lift = piecewise_linear_lift(path)
        gap2 = np.max(
            np.abs(simplified_taylor(problem, path, 2) - semi_implicit_taylor(problem, lift, 2).states)
        )
        gap3 = np.max(
            np.abs(simplified_taylor(problem, path, 3) - semi_implicit_taylor(problem, lift, 3).states)
        )
        worst2 = max(worst2, float(gap2))
        worst3 = max(worst3, float(gap3))
    elapsed = time.time() - start
    assert worst2 <= 1e-10
    assert worst3 <= 1e-10
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 (coincidence): PASS (level2 {worst2:.2e}, level3 {worst3:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_3_solver_oracle_and_inverse_lipschitz():
    drift = double_well_drift()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(100):
        h = float(rng.uniform(0.01, 0.49))  # C_b = 1, so C_b h < 1/2
        r = float(rng.uniform(-5.0, 5.0))
        solved = solve_step(drift, h, np.array([r])).solution[0]
        worst_gap = max(worst_gap, abs(solved - cubic_equation_root(h, r)))
    assert worst_gap <= 1e-10

    worst_excess = -np.inf
    for _ in range(10):
        h = float(rng.uniform(0.01, 0.49))
        rs = rng.uniform(-5, 5, 10)
        roots = [solve_step(drift, h, np.array([r])).solution[0] for r in rs]
        lipschitz = 1.0 / (1.0 - drift.one_sided_lipschitz * h)
        for i in range(10):
            for j in range(i + 1, 10):
                excess = abs(roots[i] - roots[j]) - lipschitz * abs(rs[i] - rs[j])
                worst_excess = max(worst_excess, excess)
    assert worst_excess <= 1e-9
    print(
        f"\nACCEPTANCE 3 (solver oracle): PASS "
        f"(bisection gap {worst_gap:.2e}, inverse-Lipschitz excess {worst_excess:.2e})"
    )


def test_criterion_4_eoc_reproduction_table():
    start = time.time()
    published = {0.75: 1.04, 0.50: 0.88, 0.25: 0.70, 0.10: 0.54}
    seeds = tuple(range(20))
    measured = {}
    for H, target in published.items():
        cfg = StudyConfig(
            "example1",
            "implicit_euler",
            hurst=(H,),
            step_exponents=(5, 6, 7, 8, 9, 10),
            ref_exponent=12,
            seeds=seeds,
        )
        result = run_study(cfg)
        measured[H] = result.mean_average_eoc
        assert abs(result.mean_average_eoc - target) <= 0.25, (H, result.mean_average_eoc)
        assert result.mean_average_eoc >= H - 0.05, (H, result.mean_average_eoc)
    elapsed = time.time() - start
    assert elapsed < 600.0
    detail = ", ".join(f"H={H}: {v:.3f} (target {published[H]})" for H, v in measured.items())
    print(f"\nACCEPTANCE 4 (EOC table): PASS ({detail}, {elapsed:.0f}s)")


def test_criterion_5_stiffness_demonstration():
    start = time.time()
    quiet = stability_demo(2**-5, zero_noise=True)
    expl = np.abs(quiet.explicit.states[:, 0])
    impl = np.abs(quiet.implicit.states[:, 0])
    assert np.all(np.diff(expl) > 0.0)
    assert np.allclose(np.diff(expl) / expl[:-1], 0.1875, atol=1e-12)  # factor 1.1875
    gaps = np.diff(impl)
    assert np.all(gaps <= 0.0)
    assert np.all(gaps[impl[:-1] > 1e-6] < 0.0)  # strict decay above the tolerance floor
    assert impl[-1] < 1e-6

    noisy = stability_demo(2**-5, zero_noise=False)
    assert noisy.explicit_unstable
    ratio = noisy.explicit_sign_changes / max(noisy.implicit_sign_changes, 1)
    assert ratio >= 10.0
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 5 (stiffness demo): PASS "
        f"(sign changes {noisy.explicit_sign_changes} vs {noisy.implicit_sign_changes}, "
        f"ratio {ratio:.1f}, {elapsed:.1f}s)"
    )


def test_criterion_6_example3_convergence_and_overflow():
    start = time.time()
    cfg = StudyConfig(
        "example3",
        "simplified_milstein",
        step_exponents=(5, 6, 7, 8, 9),
        ref_exponent=12,
        seeds=tuple(range(10)),
    )
    result = run_study(cfg)
    assert result.mean_average_eoc >= 0.25, result.mean_average_eoc

    overflow_cfg = StudyConfig(
        "example3", "explicit_euler", step_exponents=(6,), ref_exponent=9, seeds=(0, 1, 2)
    )
    overflow = run_study(overflow_cfg)  # must not raise
    flags = [t.rows[0].flag for t in overflow.seed_tables.values()]
    assert all(f is not None and "blowup" in f for f in flags)
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 6 (example3 convergence): PASS "
        f"(mean avg EOC {result.mean_average_eoc:.3f}, overflow rows {flags}, {elapsed:.0f}s)"
    )


def test_criterion_7_fbm_statistics():
    start = time.time()
    grid = make_grid(1.0, 256)
    n_samples = 100_000
    rng = np.random.default_rng(99)
    pair_idx = []
    while len(pair_idx) < 10:
        a, b = (int(v) for v in rng.integers(0, 257, size=2))
        if a != b:
            pair_idx.append((a, b))
    report = []
    for H in (0.25, 0.5, 0.75):
        cfg = FbmConfig((H,), 1, grid, 0)
        var_end = 0.0
        inc2 = np.zeros(len(pair_idx))
        for s in range(n_samples):
            v = sample_fbm(dataclasses.replace(cfg, seed=s)).values[:, 0]
            var_end += v[-1] ** 2
            for k, (i, j) in enumerate(pair_idx):
                inc2[k] += (v[j] - v[i]) ** 2
        var_end /= n_samples
        inc2 /= n_samples
        assert 0.95 <= var_end <= 1.05, (H, var_end)
        for k, (i, j) in enumerate(pair_idx):
            expected = abs(grid.nodes[j] - grid.nodes[i]) ** (2.0 * H)
            assert abs(inc2[k] - expected) <= 0.05 * expected, (H, i, j, inc2[k], expected)
        report.append(f"H={H}: Var(B(1))={var_end:.4f}")
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7 (fBm statistics): PASS ({'; '.join(report)}, {elapsed:.0f}s)")


def test_criterion_8_boundedness_certificate():
    # the harness asserts the certificate on every example1 implicit-Euler
    # trajectory (2*C_b*h <= 1 holds at every study step size since C_b = 1)
    cfg = StudyConfig(
        "example1",
        "implicit_euler",
        hurst=(0.25,),
        step_exponents=(5, 6, 7),
        ref_exponent=10,
        seeds=(0, 1, 2),
    )
    result = run_study(cfg)
    assert result.bound_checks == 3 * (1 + 3)  # reference + three coarse runs per seed

    # direct re-check on a fresh trajectory
    problem = Problem(double_well_drift(), xi=[-3.0], T=1.0)
    path = sample_fbm(FbmConfig((0.75,), 1, make_grid(1.0, 256), 11))
    traj = run_scheme("implicit_euler", problem, path)
    peak = float(np.max(np.abs(traj.states)))
    bound = boundedness_bound(problem, path)
    assert peak <= bound
    print(
        f"\nACCEPTANCE 8 (boundedness certificate): PASS "
        f"({result.bound_checks} trajectories certified; spot check {peak:.3f} <= {bound:.3f})"
    )


def test_criterion_9_local_order_probe():
    start = time.time()
    problem = probe_default_problem()
    slopes = {
        s: local_error_probe(problem, s).slope
        for s in ("euler", "milstein", "milstein3")
    }
    assert slopes["euler"] >= 1.8, slopes
    assert slopes["milstein3"] >= slopes["milstein"] >= slopes["euler"], slopes
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 9 (local-order probe): PASS "
        f"(euler {slopes['euler']:.2f}, milstein {slopes['milstein']:.2f}, "
        f"milstein3 {slopes['milstein3']:.2f}, {elapsed:.1f}s)"
    )
