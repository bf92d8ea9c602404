"""Command-line entry point.

``apeuler run`` executes a study described by a config file plus optional
command-line overrides.  Exit codes: 0 on full success, 1 on a usage or
config error, 2 when some sweep cells failed but the rest completed.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import (
    ConfigError,
    default_config,
    load_config,
    parse_config_text,
    render_config,
)
from .harness import run_experiment

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apeuler",
        description="Finite-volume solvers for barotropic flow at low Mach "
                    "number and refinement-statistics studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured study")
    run.add_argument("--config", metavar="PATH",
                     help="key=value config file (defaults apply without it)")
    run.add_argument("--mode", help="override the study mode")
    run.add_argument("--grids", metavar="K1,K2,...",
                     help="override the sweep grid list")
    run.add_argument("--eps", metavar="E1,E2,...",
                     help="override the Mach number list")
    run.add_argument("--out", metavar="DIR", help="override output directory")
    run.add_argument("--workers", type=int, metavar="N",
                     help="sweep cells run at a time, each in its own process")
    run.add_argument("--print-defaults", action="store_true",
                     help="print the built-in defaults and exit")
    run.add_argument("--print-config", action="store_true",
                     help="print the effective config and exit")
    return parser


def _effective_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    overrides = []
    if args.mode is not None:
        overrides.append(f"mode = {args.mode}")
    if args.grids is not None:
        overrides.append(f"grids = {args.grids}")
    if args.eps is not None:
        overrides.append(f"eps = {args.eps}")
    if args.out is not None:
        overrides.append(f"outdir = {args.out}")
    if args.workers is not None:
        overrides.append(f"workers = {args.workers}")
    if overrides:
        cfg = parse_config_text("\n".join(overrides), base=cfg,
                                source="<command line>")
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2; here 2 means failed cells
        return 1 if exc.code else 0

    if args.print_defaults:
        print(render_config(default_config()), end="")
        return 0

    try:
        cfg = _effective_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.print_config:
        print(render_config(cfg), end="")
        return 0

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    bundle = run_experiment(cfg)
    print(f"wrote {len(bundle.files)} files to {bundle.outdir} "
          f"(config {bundle.config_hash})")
    if bundle.failures:
        for failure in bundle.failures:
            print(f"failed: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
