"""The README's library example runs against the current API."""

import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
FULL_SEEDS = "seeds=tuple(range(10))"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    # one seed instead of ten keeps the study to about a second
    assert FULL_SEEDS in blocks[0]
    code = blocks[0].replace(FULL_SEEDS, "seeds=(0,)")
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert np.array_equal(namespace["trajectory"].states, namespace["same"].states)
    assert np.all(np.isfinite(namespace["trajectory"].states))
    assert math.isfinite(namespace["result"].mean_average_eoc)
