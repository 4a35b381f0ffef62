"""Span recorder for the traced pass.

Layers are timed from outside: ``instrumented`` swaps the module-level names
that ``roughtaylor.harness``, ``roughtaylor.schemes`` and ``roughtaylor.fbm``
look up at call time for wrappers that record a span around the original
call, and restores them on exit.  Nothing inside ``src/`` is traced.

A span is (layer name, start, end, parent span, study id).  Spans stay in
memory until ``write_csv``.  A layer's self time is its spans' durations
minus the durations of their child spans; the calls are sequential, so
children never overlap.  Time of the traced wall outside every root span is
reported as unattributed, so self times plus unattributed time equal the
traced wall.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

LAYERS = (
    "harness.study",
    "fbm.sample",
    "fbm.covariance",
    "fbm.cholesky",
    "fbm.restrict",
    "lift.lift",
    "fields.composition",
    "solver.solve",
    "schemes.trajectory",
    "harness.certify",
    "harness.csv",
)


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.study = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.study)

    def self_times(self) -> dict[str, float]:
        own = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return {name: own.get(name, 0.0) for name in LAYERS}

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write_csv(self, target) -> None:
        with open(target, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,study\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            fh.writelines(
                f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{study}\n"
                for i, (name, start, end, parent, study) in enumerate(self.spans)
            )


@contextmanager
def instrumented(rec: SpanRecorder):
    """Wrap the layer entry points of the study path for the duration of
    the block."""
    from roughtaylor import fbm, harness, schemes
    from roughtaylor.schemes import BlowupError, SchemeStepError
    from roughtaylor.solver import ConvergenceError

    counts = rec.counts
    saved = []

    def patch(module, attr, name, after=None):
        orig = getattr(module, attr)

        @wraps(orig)
        def wrapper(*args, **kwargs):
            out = rec.call(name, orig, *args, **kwargs)
            if after is not None:
                after(out, *args)
            return out

        saved.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def sampled(path, config, *_):
        counts["fbm.component_draws"] += config.m
        counts["fbm.sample_bytes"] += config.m * config.grid.N**2 * 8

    def built(*_):
        counts["fbm.factor_builds"] += 1

    def lifted(*_):
        counts["lift.lift_calls"] += 1

    def composed(*_):
        counts["fields.composition_calls"] += 1

    def written(files, *_):
        counts["harness.csv_bytes"] += sum(p.stat().st_size for p in files)

    patch(harness, "sample_fbm", "fbm.sample", sampled)
    patch(fbm, "covariance_matrix", "fbm.covariance")
    patch(fbm, "cholesky", "fbm.cholesky", built)
    patch(harness, "restrict", "fbm.restrict")
    patch(harness, "piecewise_linear_lift", "lift.lift", lifted)
    patch(schemes, "first_order_composition", "fields.composition", composed)
    patch(schemes, "second_order_composition", "fields.composition", composed)
    patch(harness, "boundedness_bound", "harness.certify")
    patch(harness, "_write_study_files", "harness.csv", written)

    solve_step = schemes.solve_step

    @wraps(solve_step)
    def traced_solve(*args, **kwargs):
        counts["solver.solve_calls"] += 1
        try:
            report = rec.call("solver.solve", solve_step, *args, **kwargs)
        except ConvergenceError:
            counts["solver.failures"] += 1
            raise
        counts["solver.iterations"] += report.iterations
        counts["solver.contraction"] += report.method_used == "contraction"
        return report

    run_scheme = harness.run_scheme

    @wraps(run_scheme)
    def traced_scheme(scheme, problem, path):
        try:
            trajectory = rec.call("schemes.trajectory", run_scheme, scheme, problem, path)
        except BlowupError as err:
            counts["schemes.blowups"] += 1
            counts["schemes.steps"] += err.step
            raise
        except SchemeStepError as err:
            counts["schemes.steps"] += err.step
            raise
        counts["schemes.steps"] += path.grid.N
        return trajectory

    saved += [(schemes, "solve_step", solve_step), (harness, "run_scheme", run_scheme)]
    schemes.solve_step = traced_solve
    harness.run_scheme = traced_scheme
    try:
        yield rec
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)
