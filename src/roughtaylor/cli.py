"""Command-line front end.

Subcommands:
  run         convergence study (per-seed + aggregate + log-log CSVs)
  stability   forward vs drift-implicit Euler on the stiff linear problem
  probe-local one-step order probe on the smooth deterministic driver
  sample-fbm  dump one seeded fBm path as CSV

Exit code 0 on success, 2 with a diagnostic on precondition violations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .fbm import DENSE_GRID_LIMIT, FbmConfig, dump_path_csv, sample_fbm
from .grids import make_grid
from .schemes import dump_trajectory_csv
from .solver import StepSizeError


def _parse_hurst(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects integers, got {text!r}") from None


def _parse_seeds(text: str) -> tuple[int, ...]:
    if "," in text or ".." in text:
        return _parse_ints(text, "--seeds")
    (count,) = _parse_ints(text, "--seeds")
    return tuple(range(count))


def _out_file(target: str) -> Path:
    """``target`` as a Path, with its missing parent directories created."""
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    config = harness.StudyConfig(
        problem=args.problem,
        scheme=args.scheme,
        hurst=_parse_hurst(args.hurst) if args.hurst else None,
        step_exponents=_parse_ints(args.steps, "--steps"),
        ref_exponent=args.ref,
        seeds=_parse_seeds(args.seeds),
        out_dir=args.out,
        max_dense_n=args.max_dense_n,
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
    report = harness.stability_demo(args.h, seed=args.seed, zero_noise=args.zero_noise)
    verdict = "UNSTABLE" if report.explicit_unstable else "stable"
    print(f"h = {report.h:g}: forward drift map |1 - 70h| = {abs(1 - 70 * args.h):g} -> {verdict}")
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
        out.mkdir(parents=True, exist_ok=True)
        dump_trajectory_csv(report.explicit, out / "stability_explicit.csv")
        dump_trajectory_csv(report.implicit, out / "stability_implicit.csv")
        print(f"wrote {out / 'stability_explicit.csv'} and {out / 'stability_implicit.csv'}")
    return 0


def _cmd_probe_local(args) -> int:
    problem = harness.probe_default_problem()
    result = harness.local_error_probe(problem, args.scheme)
    print("h            one_step_error")
    for h, e in zip(result.steps, result.errors):
        print(f"{h:<12.6g} {e:.6g}")
    print(f"log-log slope: {result.slope:.4g}")
    if args.out:
        lines = ["h,error"] + [f"{h:.10g},{e:.10g}" for h, e in zip(result.steps, result.errors)]
        _out_file(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_sample_fbm(args) -> int:
    grid = make_grid(args.T, args.n)
    hurst = _parse_hurst(args.hurst)
    config = FbmConfig(hurst, len(hurst), grid, args.seed, max_dense_n=args.max_dense_n)
    path = sample_fbm(config)
    dump_path_csv(path, _out_file(args.out))
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
    run.add_argument("--max-dense-n", type=int, default=DENSE_GRID_LIMIT)
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
    samp.add_argument("--max-dense-n", type=int, default=DENSE_GRID_LIMIT)
    samp.set_defaults(func=_cmd_sample_fbm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, StepSizeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
