"""Command-line entry point: run a registered experiment, emit a report.

    sqmlab <experiment> [--config FILE] [--out DIR] [--csv] [--KEY VALUE ...]

Reports are deterministic: a fixed seed and config produce a
byte-identical JSON file (sorted keys, complex numbers as [re, im],
cases sorted by case key).  The exit status is 0 iff every case
passed, 1 if a case failed, and 2 for bad input, including a value
the run cannot represent (an ArithmeticError, whose message lists the
parameters given by --config and --KEY VALUE), a setting given twice
and an --out where the report cannot be written; on exit 2 no report
is written and no case line printed.  Config files are flat
key=value lines; values parse as int, float, bool, comma list, or
string.  After the experiment name, every further --KEY VALUE pair
overrides that key of the experiment's DEFAULTS (--seed U64 the RNG
seed), its value parsed as in a config file, and overrides the config
file too.  The report is JSON unless --csv asks for the case table.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .experiments import DEFAULTS, run_experiment


def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


def _parse_value(text: str):
    """A config value: commas make a tuple, anything else is one scalar."""
    if "," in text:
        return tuple(_parse_scalar(v) for v in text.split(",") if v.strip())
    return _parse_scalar(text)


def parse_config(path: str | Path) -> dict:
    """Flat key=value config; '#' comments; commas make tuples."""
    params: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or key.strip() in params:
            raise ValueError(f"{path}:{lineno}: expected one key=value line per key, got {raw!r}")
        params[key.strip()] = _parse_value(value)
    return params


def _json_default(obj):
    """json's hook for what it cannot encode: complex -> [re, im], numpy -> python."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def render_json(report: dict) -> str:
    """The canonical report text: sorted keys, indent 2, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"


def write_csv(report: dict, path: Path) -> None:
    """One row per case; csv writes a float as str does and None (rel_err) as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["case", "value_re", "value_im", "oracle_re", "oracle_im",
             "abs_err", "rel_err", "tol", "pass"]
        )
        for case in report["cases"]:
            v, o = case["value"], case["oracle"]
            writer.writerow([
                case["case"], v.real, v.imag, o.real, o.imag,
                case["abs_err"], case["rel_err"], case["tol"], int(case["pass"]),
            ])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqmlab",
        description="Run a verification experiment and write its report.",
        epilog="Each further --KEY VALUE overrides that default: --order 2, --seed 7.",
        allow_abbrev=False,
    )
    parser.add_argument("experiment", choices=sorted(DEFAULTS), metavar="experiment",
                        help=f"one of: {', '.join(sorted(DEFAULTS))}")
    parser.add_argument("--config", action="append", default=[],
                        help="flat key=value parameter file, given at most once")
    parser.add_argument("--out", type=str, default="reports",
                        help="directory for report files (default: ./reports)")
    parser.add_argument("--csv", action="store_true",
                        help="write the CSV case table instead of the JSON report")
    return parser


def _collect_params(args: argparse.Namespace, overrides: Sequence[str] = ()) -> dict:
    """Config file, then the --KEY VALUE pairs in `overrides`.

    A trailing --KEY with no value reads like the config line `KEY =`.
    Each of --config and the keys may be given once.
    """
    if len(args.config) > 1:
        raise ValueError(f"--config given {len(args.config)} times; give one file")
    params = parse_config(args.config[0]) if args.config else {}
    flags, values = overrides[::2], [*overrides[1::2], ""]
    for flag, value in zip(flags, values):
        if not flag.startswith("--") or flags.count(flag) > 1:
            raise ValueError(f"expected each --KEY VALUE once after the experiment, got {flag!r}")
        params[flag[2:]] = _parse_value(value)
    return params


def main(argv: list[str] | None = None) -> int:
    args, overrides = build_parser().parse_known_args(argv)
    params: dict = {}
    path = Path(args.out) / f"{args.experiment}.{'csv' if args.csv else 'json'}"
    try:
        params = _collect_params(args, overrides)
        report = {"schema": 1, "experiment": args.experiment,
                  **run_experiment(args.experiment, params)}
        path.parent.mkdir(parents=True, exist_ok=True)
        if args.csv:
            write_csv(report, path)
        else:
            path.write_text(render_json(report))
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        why, given = "", ""
        if isinstance(exc, ArithmeticError):
            why = f"parameters out of numeric range ({type(exc).__name__}): "
            pairs = ", ".join(f"{k}={v}" for k, v in params.items())
            given = f" [overrides: {pairs or 'none'}]"
        print(f"sqmlab: error: {why}{exc}{given}", file=sys.stderr)
        return 2

    for case in report["cases"]:
        mark = "pass" if case["pass"] else "FAIL"
        print(f"  [{mark}] {case['case']}  abs_err={case['abs_err']:.3e}")
    summary = report["summary"]
    print(
        f"{args.experiment}: {summary['cases']} cases, "
        f"{summary['failures']} failures, max_abs_err={summary['max_abs_err']:.3e} "
        f"-> {path}"
    )
    return 0 if summary["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
