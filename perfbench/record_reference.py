"""Record the golden studies' outputs into reference.json.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted: the benchmark's
reference check compares every later commit with these values.
"""

from __future__ import annotations

import json
import math

import run


def record() -> dict:
    from roughtaylor.harness import run_study

    import checks
    import workloads

    reference = {}
    for scale in (workloads.FULL, workloads.TINY):
        for workload in workloads.WORKLOADS.values():
            for config in workload.golden(scale):
                result = run_study(config)
                avg = result.mean_average_eoc
                reference[checks.study_key(config)] = {
                    "mean_average_eoc": None if math.isnan(avg) else avg,
                    "seeds": checks.seed_rows(result),
                }
    return reference


if __name__ == "__main__":
    run.prepare_process()
    import checks

    checks.REFERENCE_FILE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE_FILE.relative_to(run.ROOT)}")
