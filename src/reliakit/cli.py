"""Command-line interface.

Exit codes: 0 ok, 2 contract violation, 3 hash mismatch, 4 schema or gate
failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys

from .bootstrap import MAX_B
from .errors import EXIT_OK, EXIT_OTHER, EXIT_SCHEMA, ReliakitError
from .pipeline import RunConfig, cmd_multiverse, cmd_run, cmd_verify


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _bootstrap_budget(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_B:
        raise argparse.ArgumentTypeError(f"must be at most 2**32 = {MAX_B}, got {text!r}")
    return value


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("smoke", "final"), required=True)
    parser.add_argument("--seed", type=int, default=42, help="base RNG seed (default 42)")
    parser.add_argument(
        "--bootstrap",
        type=_bootstrap_budget,
        default=None,
        metavar="B",
        help="bootstrap replicates, at most 2**32 (default: 5000 final, 200 smoke)",
    )
    parser.add_argument(
        "--workspace",
        default=".",
        help="workspace root; the registry is its contracts/measures.json (default: .)",
    )
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="at most this many worker processes; work too small to pay for "
        "a process pool runs serially (default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reliakit",
        description="Test-retest reliability pipeline with bootstrap inference "
        "and a 24-cell multiverse.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="default-specification run over the primary tier")
    _add_run_flags(run)

    multi = sub.add_parser("multiverse", help="full 24-cell specification grid")
    _add_run_flags(multi)

    verify = sub.add_parser("verify", help="run the promotion gate")
    verify.add_argument("--mode", choices=("smoke", "final"), required=True)
    verify.add_argument("--workspace", default=".", help="workspace root (default: .)")
    verify.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        mode=args.mode,
        workspace=args.workspace,
        out_dir=args.out,
        base_seed=args.seed,
        bootstrap_b=args.bootstrap,
        workers=args.workers,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            summary = cmd_run(_config_from(args))
            print(
                f"run complete: {summary['pass_count']}/{summary['n_primary']} "
                f"headline passes, outputs in {args.out}"
            )
        elif args.command == "multiverse":
            summary = cmd_multiverse(_config_from(args))
            grand = summary["grand"]
            print(
                f"multiverse complete: {grand['pass_count']}/{grand['estimable']} "
                f"passes over {grand['total_cells']} cells, outputs in {args.out}"
            )
        elif args.command == "verify":
            report = cmd_verify(args.mode, args.workspace, args.out)
            for check in report.checks:
                state = "SKIP" if check.skipped else ("PASS" if check.passed else "FAIL")
                print(f"{check.id:>3} {check.name:<24} {state}  {check.detail}")
            print(
                f"gate {'PASSED' if report.overall else 'FAILED'} "
                f"({report.executed} executed, {report.skipped} skipped)"
            )
            if not report.overall:
                return EXIT_SCHEMA
        return EXIT_OK
    except ReliakitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    raise SystemExit(main())
