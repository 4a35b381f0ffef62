"""Hypothesis profiles: local runs draw fresh examples; CI selects the
derandomized "ci" profile with HYPOTHESIS_PROFILE=ci, so a property over
wide input ranges gives the same verdict on every run of a commit.

The report header names the directory of the imported package:
pyproject.toml's ``pythonpath = ["src"]`` goes ahead of PYTHONPATH, so a
run from this checkout tests this checkout's ``src`` whatever PYTHONPATH
says, and the header shows which tree a run tested."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_report_header(config):
    import roughtaylor

    return f"roughtaylor: {Path(roughtaylor.__file__).parent}"
