"""Nothing in the package imports SciPy: every study, CLI command and the
dense ``fbm.cholesky`` oracle run with SciPy blocked, each check in a fresh
interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# SciPy made unimportable: `import scipy...` raises ImportError
BLOCKED = "import sys\nsys.modules['scipy'] = None\n"


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


SCALAR_COMMANDS = [
    ["run", "--problem", "example1", "--scheme", "implicit_euler", "--hurst", "0.5",
     "--steps", "4..5", "--ref", "8", "--seeds", "2", "--out", "out"],
    ["run", "--problem", "example2", "--scheme", "explicit_euler",
     "--steps", "4..5", "--ref", "8", "--seeds", "2", "--out", "out"],
    ["stability", "--h", "0.03125"],
    ["probe-local", "--scheme", "milstein3"],
    ["sample-fbm", "--hurst", "0.75", "--n", "64", "--seed", "1", "--out", "fbm.csv"],
]


@pytest.mark.parametrize("argv", SCALAR_COMMANDS, ids=lambda argv: " ".join(argv[:5]))
def test_scalar_command_runs_without_scipy(argv, tmp_path):
    code = BLOCKED + f"from roughtaylor.cli import main\nsys.exit(main({argv!r}))\n"
    child = _python(code, tmp_path)
    assert child.returncode == 0, child.stderr


PLANAR_SCHEMES = ["simplified_milstein", "semi_implicit_milstein3"]


def _planar_run(scheme: str) -> list[str]:
    return ["run", "--problem", "example3", "--scheme", scheme, "--steps", "4..5",
            "--ref", "8", "--seeds", "2", "--out", scheme]


@pytest.mark.parametrize("scheme", PLANAR_SCHEMES)
def test_planar_command_runs_without_scipy(scheme, tmp_path):
    # its implicit steps solve 2x2 Newton systems
    code = BLOCKED + f"from roughtaylor.cli import main\nsys.exit(main({_planar_run(scheme)!r}))\n"
    child = _python(code, tmp_path)
    assert child.returncode == 0, child.stderr


def test_planar_run_without_newton_steps_needs_no_scipy(tmp_path):
    # with zero drift every initial guess is the root, so no step of this
    # d = 2 trajectory takes a Newton step
    code = BLOCKED + (
        "from roughtaylor import Problem, semi_implicit_taylor, piecewise_linear_lift\n"
        "from roughtaylor.fbm import FbmConfig, sample_fbm\n"
        "from roughtaylor.fields import constant_diffusion, zero_drift\n"
        "from roughtaylor.grids import make_grid\n"
        "sigma = constant_diffusion([[1.0, 0.5], [0.0, 2.0]])\n"
        "problem = Problem(zero_drift(2), xi=[1.0, -1.0], T=1.0, diffusion=sigma)\n"
        "path = sample_fbm(FbmConfig(0.75, 2, make_grid(1.0, 64), 0))\n"
        "states = semi_implicit_taylor(problem, piecewise_linear_lift(path), 2).states\n"
        "assert states.shape == (65, 2)\n"
    )
    child = _python(code, tmp_path)
    assert child.returncode == 0, child.stderr


def test_commands_and_dense_cholesky_run_without_scipy(tmp_path):
    commands = SCALAR_COMMANDS + [_planar_run(scheme) for scheme in PLANAR_SCHEMES]
    code = BLOCKED + (
        "import numpy as np\n"
        "from roughtaylor import fbm\n"
        "from roughtaylor.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert np.array_equal(fbm.cholesky([[4.0, 2.0], [2.0, 5.0]]), [[2.0, 0.0], [1.0, 2.0]])\n"
        "try:\n"
        "    fbm.cholesky([[1.0, 0.0], [0.0, -1.0]])\n"
        "except fbm.NotPositiveDefiniteError as err:\n"
        "    assert err.index == 2, err.index\n"
        "else:\n"
        "    raise AssertionError('no failing pivot reported')\n"
    )
    child = _python(code, tmp_path)
    assert child.returncode == 0, child.stderr
