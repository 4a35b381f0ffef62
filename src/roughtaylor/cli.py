"""Command-line front end.

Subcommands:
  run         convergence study (per-seed + aggregate + log-log CSVs)
  stability   forward vs drift-implicit Euler on the stiff linear problem
  probe-local one-step order probe on the smooth deterministic driver
  sample-fbm  dump one seeded fBm path as CSV

Exit code 0 on success, 2 with a diagnostic on precondition violations,
among them an output path no file can be written to.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import harness
from .fbm import FbmConfig, _check_grid_size, dump_path_csv, sample_fbm
from .grids import _check_target, _write_csv, make_grid
from .schemes import dump_trajectory_csv


# The most values a count or range may give.  A study runs every seed and
# every step exponent it is given, so a count above this is a typo, and its
# tuple alone would take tens of megabytes, or all memory (10^12 seeds).
_MAX_VALUES = 10**6


def _span(lo: int, stop: int, flag: str, text: str) -> tuple[int, ...]:
    """The integers lo..stop-1, or ValueError naming ``flag`` if they are
    more than _MAX_VALUES, before any tuple is built."""
    if stop - lo > _MAX_VALUES:
        raise ValueError(f"{flag} {text!r} gives more than {_MAX_VALUES} values")
    return tuple(range(lo, stop))


def _parse_list(text: str, flag: str, kind=int) -> tuple:
    """A comma list of ``kind`` values, or for integers a range lo..hi."""
    try:
        if not (kind is int and ".." in text):
            return tuple(kind(tok) for tok in text.split(","))
        lo, hi = map(int, text.split(".."))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} expects {noun}, got {text!r}") from None
    return _span(lo, hi + 1, flag, text)


def _parse_seeds(text: str) -> tuple[int, ...]:
    if "," in text or ".." in text:
        return _parse_list(text, "--seeds")
    (count,) = _parse_list(text, "--seeds")
    return _span(0, count, "--seeds", text)


def _cmd_run(args) -> int:
    config = harness.StudyConfig(
        problem=args.problem,
        scheme=args.scheme,
        hurst=_parse_list(args.hurst, "--hurst", float) if args.hurst else None,
        step_exponents=_parse_list(args.steps, "--steps"),
        ref_exponent=args.ref,
        seeds=_parse_seeds(args.seeds),
        out_dir=args.out,
    )
    result = harness.run_study(config)
    print(f"# {args.problem} / {args.scheme}, {len(config.seeds)} seed(s)")
    print("h            mean_error    mean_eoc   flagged")
    for row in result.aggregate:
        print(f"{row.h:<12.6g} {row.mean_error:<13.6g} {row.mean_eoc:<10.4g} {row.flagged}")
    print(f"mean average EOC: {result.mean_average_eoc:.4g}")
    for p in result.files:
        print(f"wrote {p}")
    return 0


def _cmd_stability(args) -> int:
    if args.out:
        _check_target(args.out, directory=True)
    report = harness.stability_demo(args.h, seed=args.seed, zero_noise=args.zero_noise)
    verdict = "UNSTABLE" if report.explicit_unstable else "stable"
    print(f"h = {report.h:g}: forward drift map |1 - 70h| = {report.explicit_factor:g} -> {verdict}")
    print(
        f"forward Euler : {report.explicit_increment_flips} increment sign flips, "
        f"{report.explicit_sign_changes} zero crossings, "
        f"max |y| = {report.explicit_max_amplitude:.6g}"
    )
    print(
        f"implicit Euler: {report.implicit_increment_flips} increment sign flips, "
        f"{report.implicit_sign_changes} zero crossings, "
        f"max |y| = {report.implicit_max_amplitude:.6g}"
    )
    if args.out:
        out = Path(args.out)
        dump_trajectory_csv(report.explicit, out / "stability_explicit.csv")
        dump_trajectory_csv(report.implicit, out / "stability_implicit.csv")
        print(f"wrote {out / 'stability_explicit.csv'} and {out / 'stability_implicit.csv'}")
    return 0


def _cmd_probe_local(args) -> int:
    if args.out:
        _check_target(args.out)
    problem = harness.probe_default_problem()
    result = harness.local_error_probe(problem, args.scheme)
    print("h            one_step_error")
    for h, e in zip(result.steps, result.errors):
        print(f"{h:<12.6g} {e:.6g}")
    print(f"log-log slope: {result.slope:.4g}")
    if args.out:
        _write_csv(args.out, ("h", "error"), zip(result.steps, result.errors), 10)
        print(f"wrote {args.out}")
    return 0


def _cmd_sample_fbm(args) -> int:
    # the cap first: make_grid refuses 2^1024 steps or more for want of a float N
    _check_grid_size(math.log2(max(args.n, 1)))
    grid = make_grid(args.T, args.n)
    hurst = _parse_list(args.hurst, "--hurst", float)
    config = FbmConfig(hurst, len(hurst), grid, args.seed)
    _check_target(args.out)
    path = sample_fbm(config)
    dump_path_csv(path, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughtaylor",
        description="semi-implicit Taylor schemes for stiff rough differential equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="convergence study")
    run.add_argument("--problem", required=True, choices=sorted(harness.EXAMPLES))
    run.add_argument("--scheme", required=True)
    run.add_argument("--hurst", default=None, help="Hurst parameter(s), e.g. 0.75 or 0.4,0.4")
    run.add_argument("--steps", default="5..10", help="step exponents, e.g. 5..10 or 5,7,9")
    run.add_argument("--ref", type=int, default=12, help="reference exponent")
    run.add_argument("--seeds", default="1", help="count n (0..n-1), range lo..hi, or list a,b")
    run.add_argument("--out", default=None, help="output directory for CSV files")
    run.set_defaults(func=_cmd_run)

    stab = sub.add_parser("stability", help="stiffness demonstration")
    stab.add_argument("--h", type=float, required=True)
    stab.add_argument("--seed", type=int, default=harness.DEFAULT_STABILITY_SEED)
    stab.add_argument("--zero-noise", action="store_true")
    stab.add_argument("--out", default=None)
    stab.set_defaults(func=_cmd_stability)

    probe = sub.add_parser("probe-local", help="local-order probe")
    probe.add_argument("--scheme", required=True, choices=list(harness._PROBE_SCHEMES))
    probe.add_argument("--out", default=None)
    probe.set_defaults(func=_cmd_probe_local)

    samp = sub.add_parser("sample-fbm", help="dump one fBm path")
    samp.add_argument("--hurst", required=True)
    samp.add_argument("--n", type=int, required=True)
    samp.add_argument("--seed", type=int, required=True)
    samp.add_argument("--out", required=True)
    samp.add_argument("--T", type=float, default=1.0)
    samp.set_defaults(func=_cmd_sample_fbm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        if err.filename is None:  # not a path the command writes to
            raise
        print(f"error: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
