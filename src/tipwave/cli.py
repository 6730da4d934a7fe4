"""Command-line entry point.

    tipwave simulate CONFIG [--out DIR] [--override key=value ...]
    tipwave spectrum --family {A2,A,Abb} [--n-max K] CONFIG [--out DIR]
    tipwave report OUTDIR

``spectrum`` appends ``mode``, ``family`` and ``n_max`` overrides and
runs ``simulate``'s path. Exit codes: 0 success, 1 usage or config
error (also a config that is not UTF-8; an unwritable --out, with one
``output error:`` line; a spectrum whose contour sweep fails or leaves a
branch without a root, with one ``spectral error:`` line; for report, a
malformed trace or one that is not UTF-8, with one ``report error:``
line naming the file and line, and an unwritable report.txt, with one
``output error:`` line), 2 numerical blow-up, 3 configured acceptance
threshold failed. A time-domain run whose spectral summary is skipped
still exits 0, with a ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from .energy import EnergyTrace, NoFitError, fit_decay_rate
from .scenarios import ConfigError, parse_config, run_scenario
from .spectral import ContourError
from .systems import BlowUpError


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _cmd_simulate(args) -> int:
    try:
        config = parse_config(_read(args.config), overrides=args.override)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    printed = config.warnings
    for msg in printed:
        print(f"warning: {msg}", file=sys.stderr)
    try:
        result = run_scenario(config, out_dir=args.out)
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 2
    except ContourError as exc:
        print(f"spectral error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    for msg in result.warnings:
        if msg not in printed:
            print(f"warning: {msg}", file=sys.stderr)
    if config.mode == "spectrum":
        for tag, value in result.abscissae.items():
            print(f"spectral abscissa {tag} = {value!r}")
    print(f"artifacts written to {result.out_dir}")
    if result.threshold_failures:
        for msg in result.threshold_failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 3
    return 0


def _cmd_spectrum(args) -> int:
    args.override.append("mode=spectrum")
    if args.family:
        args.override.append(f"family={args.family}")
    if args.n_max is not None:
        args.override.append(f"n_max={args.n_max}")
    return _cmd_simulate(args)


def _cmd_report(args) -> int:
    paths = sorted(glob.glob(os.path.join(glob.escape(args.out_dir), "energy_*.csv")))
    if not paths:
        print(f"no energy traces found in {args.out_dir}", file=sys.stderr)
        return 1
    lines = []
    for path in paths:
        name = os.path.basename(path)[len("energy_"):-len(".csv")]
        row, _, tag = name.rpartition("_")
        if not row or not tag:
            print(f"report error: {path}: expected a file name energy_<row>_<tag>.csv",
                  file=sys.stderr)
            return 1
        try:
            trace = EnergyTrace.read_csv(path, space_tag=tag)
        except (OSError, ValueError) as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 1
        try:
            rate, _ = fit_decay_rate(trace)
            lines.append(f"{name}: fitted energy rate = {rate!r} (state rate {rate / 2!r})")
        except NoFitError as exc:
            lines.append(f"{name}: no fit ({exc})")
    report_path = os.path.join(args.out_dir, "report.txt")
    try:
        with open(report_path, "w", newline="") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"report written to {report_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as 2 means a blow-up (subparsers share the class)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="tipwave",
        description="Simulation and spectral analysis of a boundary-stabilized "
                    "wave equation with tip mass.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario config")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None, help="output directory override")
    p_sim.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="config override (repeatable)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_spec = sub.add_parser("spectrum", help="compute one characteristic-equation spectrum")
    p_spec.add_argument("config")
    p_spec.add_argument("--family", choices=("A2", "A", "Abb"))
    p_spec.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_spec.add_argument("--out", default=None)
    p_spec.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_rep = sub.add_parser("report", help="re-fit rates from existing traces")
    p_rep.add_argument("out_dir")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
