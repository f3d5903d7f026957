"""
Command-line runner for the packaged experiments.

    kerrzeno run <config.json> [--seed S] [--output PATH] [--format csv|json]
    kerrzeno validate <config.json>
    kerrzeno list

Exit codes: 0 success, 2 config error (including a master seed outside
[0, 2**63)), 3 numeric/truncation error (any ValueError or OverflowError
a validated config raises while running), 4 I/O error.  With no output
path the payload goes to stdout; progress and summaries go to stderr so
piped output stays clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiments import (
    EXPERIMENTS,
    run_experiment,
    seed_problem,
    validate_config,
    write_csv,
    write_json,
)
from .version import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load_config(path: str) -> tuple[dict | None, int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh), EXIT_OK
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_IO
    except ValueError as exc:  # a JSONDecodeError, or an integer past 4300 digits
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return None, EXIT_CONFIG


def _report_errors(errors: list[tuple[str, str]]) -> None:
    for path, message in errors:
        where = path if path else "<root>"
        print(f"config error at {where}: {message}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    raw, status = _load_config(args.config)
    if raw is None:
        return status
    config, errors = validate_config(raw)
    if config is None:
        _report_errors(errors)
        return EXIT_CONFIG
    if args.seed is not None:
        problem = seed_problem(args.seed)
        if problem is not None:
            _report_errors([("master_seed", f"--seed {problem}")])
            return EXIT_CONFIG
        config = dataclasses.replace(config, master_seed=args.seed)
    out_path = args.output if args.output is not None else config.output_path
    out_format = args.format if args.format is not None else config.output_format

    try:
        envelope = run_experiment(config)
    except (ValueError, FloatingPointError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    write = write_csv if out_format == "csv" else write_json
    try:
        if out_path is None:
            write(envelope, sys.stdout)
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                write(envelope, fh)
    except OSError as exc:
        where = out_path if out_path is not None else "stdout"
        print(f"error: cannot write {where}: {exc}", file=sys.stderr)
        return EXIT_IO
    if out_path is not None:
        print(
            f"{config.experiment}: wrote {len(envelope.rows)} rows to {out_path} "
            f"(seed {config.master_seed}, {envelope.wall_time_s:.2f}s)",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    raw, status = _load_config(args.config)
    if raw is None:
        return status
    config, errors = validate_config(raw)
    if config is None:
        _report_errors(errors)
        return EXIT_CONFIG
    resolved = {
        "experiment": config.experiment,
        "master_seed": config.master_seed,
        "output": {"path": config.output_path, "format": config.output_format},
        "parameters": config.parameters,
    }
    print(json.dumps(resolved, indent=2))
    return EXIT_OK


def _cmd_list(_: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[name]
        print(f"{name}")
        print(f"  {spec.description}")
        for f in spec.fields:
            default = "null" if f.default is None else json.dumps(f.default)
            extra = f"  -- {f.help}" if f.help else ""
            print(f"    {f.name}: {f.kind} = {default}{extra}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrzeno",
        description="Batch experiments for observed Kerr dynamics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a config and write its result")
    run_p.add_argument("config", help="path to a JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override master_seed")
    run_p.add_argument("--output", default=None, help="override the output path")
    run_p.add_argument("--format", choices=("csv", "json"), default=None)
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check a config and echo its resolution")
    val_p.add_argument("config", help="path to a JSON config")
    val_p.set_defaults(func=_cmd_validate)

    list_p = sub.add_parser("list", help="show experiments and their parameters")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
