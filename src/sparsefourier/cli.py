"""Command-line interface: recover, bench, and verify subcommands.

recover runs one seeded trial, bench a seeded batch; both print a JSON or
CSV report. verify runs the seeded Monte Carlo checks of the checks module
(measurement-coefficient moments, the estimator tail bound, the shifted-box
acceptance rate) and prints one PASS/FAIL line per check.

Exit codes: 0 success, 2 configuration error, 3 sample-audit violation,
4 a verify check missed its threshold; other failures return 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .checks import CHECKS
from .recovery import DESK_PROFILE, ShiftFailure
from .runner import ALGORITHMS, emit_report, run_experiment
from .sampling import AuditViolation
from .signals import SignalSpec

__all__ = ["main"]


def _add_signal_args(sub):
    sub.add_argument("--p", type=int, required=True, help="alphabet size per dimension")
    sub.add_argument("--d", type=int, required=True, help="number of dimensions")
    sub.add_argument("--k", type=int, required=True, help="sparsity")
    sub.add_argument("--sigma", type=float, default=0.0, help="frequency-domain noise level")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--algo", choices=ALGORITHMS, default="main")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        dest="overrides",
        help="override a constant of the desk profile (e.g. --set C_B=64); repeatable",
    )
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sfft", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    recover = sub.add_parser("recover", help="run one recovery trial")
    _add_signal_args(recover)

    bench = sub.add_parser("bench", help="run a seeded batch of trials")
    _add_signal_args(bench)
    bench.add_argument("--trials", type=int, default=10)

    verify = sub.add_parser("verify", help="Monte Carlo checks of the core probability facts")
    verify.add_argument("--seed", type=int, default=0)
    return parser


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        key = name.strip().lower().replace("-", "_")
        if key not in vars(DESK_PROFILE):
            raise ValueError(f"unknown constant {name!r}; choose from {sorted(vars(DESK_PROFILE))}")
        cast = type(getattr(DESK_PROFILE, key))
        try:
            out[key] = cast(value)
        except ValueError:
            raise ValueError(f"cannot parse {value!r} as {cast.__name__} for {name}")
    return out


def _run_report(args, trials: int, seeds=None) -> int:
    spec = SignalSpec(p=args.p, d=args.d, k=args.k, sigma=args.sigma, seed=args.seed)
    config = dataclasses.replace(DESK_PROFILE, **_parse_overrides(args.overrides))
    report = run_experiment(spec, config, trials, algorithm=args.algo, seeds=seeds)
    text = emit_report(report, args.format, args.out)
    if args.out:
        agg = report.aggregates
        print(f"wrote {args.out}: success_rate={agg['success_rate']}, trials={trials}")
    else:
        sys.stdout.write(text)
    return 0


def _run_verify(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got seed={seed}")
    failed = False
    for name, fn in CHECKS.items():
        ok, detail = fn(seed)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return 4 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args.seed)
        if args.command == "recover":
            return _run_report(args, trials=1, seeds=[args.seed])
        return _run_report(args, trials=args.trials)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AuditViolation as exc:
        print(f"sample audit violation: {exc}", file=sys.stderr)
        return 3
    except (ShiftFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
