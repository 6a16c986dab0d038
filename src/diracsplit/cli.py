"""Command-line front end: run verification suites, emit reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
or configuration error, 3 JSON report path unwritable, 4 a library error
(a :class:`~diracsplit.errors.DiracSplitError`) stopped a suite; its code
is printed on stderr and no report is written.

The argument parser is built once, when the module is imported, and
every ``main`` call parses with it: ``parse_args`` fills a fresh
namespace from the declared defaults each time, so nothing of one call
reaches the next.  The JSON report is ``Report.to_json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import DiracSplitError
from .reports import Report, format_human
from .suites import (
    BACKEND_CHOICES,
    REP_CHOICES,
    RunConfig,
    SUITE_NAMES,
    run,
)

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_USAGE = 2
EXIT_JSON_UNWRITABLE = 3
EXIT_LIBRARY_ERROR = 4

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the Dirac subsolution verification suites.",
    )
    parser.add_argument(
        "suite",
        choices=SUITE_NAMES + ("all",),
        help="which check family to run",
    )
    parser.add_argument("--rep", choices=REP_CHOICES, default=None,
                        help="gamma representation (default spinor)")
    parser.add_argument("--backend", choices=BACKEND_CHOICES, default=None,
                        help="arithmetic backend selection (default both)")
    parser.add_argument("--tol", type=float, default=None,
                        help="float residual tolerance (default 1e-10)")
    parser.add_argument("--trials", type=int, default=None,
                        help="fuzz trial count (default 1000)")
    parser.add_argument("--seed", type=int, default=None,
                        help="64-bit fuzz seed")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON report to PATH")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file; explicit flags override it")
    return parser


#: built once per process: parsing reads it and leaves it as it was
_PARSER = _build_parser()


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _range_value(key: str, rng) -> tuple:
    if not (isinstance(rng, (list, tuple)) and len(rng) == 2):
        raise UsageError(f"{key} must be a two-element list")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in rng):
        raise UsageError(f"{key} entries must be numbers")
    try:
        return (float(rng[0]), float(rng[1]))
    except OverflowError:
        raise UsageError(f"{key} entries must be finite numbers") from None


def _assemble_config(args: argparse.Namespace) -> RunConfig:
    file_values = {} if args.config is None else _load_config_file(args.config)
    values = {}
    for key in _CONFIG_KEYS:
        # the suite positional is always explicit on the command line,
        # so a "suite" key in the file never overrides it
        if key in file_values and key != "suite":
            value = file_values[key]
            values[key] = _range_value(key, value) if key.endswith("_range") else value
        flag = getattr(args, key, None)  # the ranges have no flag
        if flag is not None:
            values[key] = flag
    try:
        config = RunConfig(**values)
        config.validate()
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return config


def _emit_json(report: Report, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        config = _assemble_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = run(config)
    except DiracSplitError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_LIBRARY_ERROR
    sys.stdout.write(format_human(report))

    if args.json is not None:
        try:
            _emit_json(report, args.json)
        except OSError as exc:
            print(f"error: cannot write JSON report: {exc}", file=sys.stderr)
            return EXIT_JSON_UNWRITABLE

    return EXIT_OK if report.failed == 0 else EXIT_CHECK_FAILURES


if __name__ == "__main__":
    sys.exit(main())
