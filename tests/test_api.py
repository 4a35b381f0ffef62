"""The public surface of the package: what it exports resolves, what was cut
stays cut, and the traced benchmark can still wrap every name it patches."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import roughtaylor
from roughtaylor import fbm, fields, harness, schemes, solver
from roughtaylor.cli import build_parser
from roughtaylor.grids import make_grid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(roughtaylor.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

REMOVED = {
    "grids": ["holder_norm", "p_variation_norm", "control_superadditivity_defect", "_path_values"],
    "lift": [
        "rough_holder_norm",
        "interval_tensors",
        "tensors_over",
        "geometricity_defect",
        "chen_defect",
        "_pair_tables",
    ],
    "fields": ["validate_drift_jacobian", "validate_diffusion_derivatives", "audit_one_sided_lipschitz"],
}


def _reexports():
    """(submodule, name) for every `from .module import name` in __init__."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"roughtaylor.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"roughtaylor.{module}.__all__ names missing {name!r}"


def test_every_reexport_is_the_module_attribute():
    pairs = _reexports()
    assert pairs
    for module, name in pairs:
        mod = importlib.import_module(f"roughtaylor.{module}")
        assert getattr(roughtaylor, name) is getattr(mod, name)


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"roughtaylor.{module}")
        for name in names:
            assert not hasattr(mod, name), f"roughtaylor.{module}.{name}"
            assert not hasattr(roughtaylor, name), f"roughtaylor.{name}"
    assert list(inspect.signature(solver.solve_step).parameters) == ["drift", "h", "r"]
    assert list(inspect.signature(schemes.semi_implicit_taylor).parameters) == ["problem", "lift", "order"]
    # the noise dimension is Problem.noise_dim; probe and stability settings are constants
    assert list(inspect.signature(harness.run_study).parameters) == ["config", "problem"]
    assert list(inspect.signature(harness.local_error_probe).parameters) == ["problem", "scheme"]
    assert list(inspect.signature(harness.stability_demo).parameters) == ["h", "seed", "zero_noise"]
    assert "zero_noise" not in inspect.signature(harness.StudyConfig).parameters
    # the compositions take sigma and its derivatives, evaluated once per step
    assert list(inspect.signature(fields.first_order_composition).parameters) == ["S", "D"]
    assert list(inspect.signature(fields.second_order_composition).parameters) == ["S", "D", "D2"]
    assert not hasattr(harness.ErrorTable, "errors") and not hasattr(harness.ErrorTable, "steps")
    # FbmConfig alone configures a draw, and the grid cap is fbm.DENSE_GRID_LIMIT
    assert list(inspect.signature(fbm.sample_fbm).parameters) == ["config"]
    assert "max_dense_n" not in inspect.signature(fbm.FbmConfig).parameters
    assert "max_dense_n" not in inspect.signature(harness.StudyConfig).parameters
    run = ["run", "--problem", "example1", "--scheme", "implicit_euler"]
    sample = ["sample-fbm", "--hurst", "0.5", "--n", "8", "--seed", "0", "--out", "x.csv"]
    for command in (run, sample):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "--max-dense-n", "8192"])
        assert exit_info.value.code == 2


def test_traced_benchmark_patches_resolve(tmp_path):
    # perfbench/spans.py wraps module attributes by name; load it from its
    # file, enter and leave its context, and check every name is restored
    spec = importlib.util.spec_from_file_location("_perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    watched = [
        (harness, "sample_fbm"),
        (fbm, "covariance_matrix"),
        (fbm, "cholesky"),
        (harness, "restrict"),
        (harness, "piecewise_linear_lift"),
        (schemes, "first_order_composition"),
        (schemes, "second_order_composition"),
        (harness, "boundedness_bound"),
        (harness, "_write_study_files"),
        (schemes, "solve_step"),
        (harness, "run_scheme"),
    ]
    before = [getattr(module, attr) for module, attr in watched]
    with spans.instrumented(spans.SpanRecorder()) as rec:
        assert schemes.solve_step is not before[-2]
        # the order-3 step contracts sigma's derivatives as matrix products and
        # calls neither composition, so the wrapped compositions count nothing
        path = harness.smooth_driver_path(make_grid(1.0, 4), 2)
        harness.run_scheme("simplified_milstein3", harness.example_problem("example3")[0], path)
        # the study path looks the wrapped names up at call time
        config = harness.StudyConfig(
            "example1", "implicit_euler", step_exponents=(3, 4), ref_exponent=6, out_dir=tmp_path
        )
        assert harness.run_study(config).bound_checks > 0
    assert rec.counts["fields.composition_calls"] == 0
    recorded = {span[0] for span in rec.spans}
    for layer in (
        "fbm.sample",
        "fbm.restrict",
        "lift.lift",
        "schemes.trajectory",
        "harness.certify",
        "harness.csv",
    ):
        assert layer in recorded, layer
    assert rec.counts["harness.csv_bytes"] > 0
    assert [getattr(module, attr) for module, attr in watched] == before
