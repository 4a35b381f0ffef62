"""Scalar work never loads SciPy.  SciPy serves only the d > 1 Newton systems
(LAPACK dgesv) and the dense ``fbm.cholesky`` oracle, and is imported on
first use; each check runs in a fresh interpreter."""

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


def test_planar_study_needs_scipy(tmp_path):
    code = BLOCKED + (
        "from roughtaylor.harness import StudyConfig, run_study\n"
        "try:\n"
        "    run_study(StudyConfig('example3', 'simplified_milstein', step_exponents=(4,),\n"
        "                          ref_exponent=6, seeds=(0,)))\n"
        "except ImportError:\n"
        "    sys.exit(3)\n"
    )
    child = _python(code, tmp_path)
    assert child.returncode == 3, child.stderr


def test_scipy_loaded_on_first_planar_step(tmp_path):
    code = (
        "import sys\n"
        "import roughtaylor\n"
        "from roughtaylor.harness import StudyConfig, example_problem, run_study\n"
        "run_study(StudyConfig('example1', 'implicit_euler', hurst=(0.5,), step_exponents=(4,),\n"
        "                      ref_exponent=6, seeds=(0,)))\n"
        "assert 'scipy' not in sys.modules, 'a scalar study loaded SciPy'\n"
        "problem = example_problem('example3')[0]\n"
        "roughtaylor.solve_step(problem.drift, 0.01, problem.xi)\n"
        "assert 'scipy' in sys.modules, 'a planar Newton step ran without dgesv'\n"
    )
    child = _python(code, tmp_path)
    assert child.returncode == 0, child.stderr
