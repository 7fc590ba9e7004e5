"""Command-line entry point.

Subcommands: solve, sweep, adapt, export-matrices.  Each takes a YAML
config; --seed overrides both the fracture-field and offline seeds, and
--out overrides the output directory.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .fractures import GeometryError
from . import driver


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_common(p):
    p.add_argument("-c", "--config", required=True, help="YAML run config")
    p.add_argument("--seed", type=_seed, default=None,
                   help="override fracture and offline seeds")
    p.add_argument("--out", default=None, help="override output directory")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="msfrac",
        description="Multiscale spectral coarse solver for Darcy flow in "
                    "fractured porous media")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("solve", "single coarse solve and error report"),
            ("sweep", "offline-dimension sweep (convergence table)"),
            ("adapt", "adaptive enrichment loop"),
            ("export-matrices", "dump assembled operators (Matrix Market)")]:
        _add_common(sub.add_parser(name, help=helptext))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.fractures.seed = args.seed
            cfg.offline.seed = args.seed
        if args.out is not None:
            cfg.outputs.dir = args.out

        if args.command in ("solve", "sweep"):
            run = driver.run_solve if args.command == "solve" else driver.run_sweep
            for r in run(cfg):
                print(f"dim={r.dim_Voff} l2_fine={100 * r.rel_L2_vs_fine:.4g}% "
                      f"h1_fine={100 * r.rel_energy_vs_fine:.4g}%")
        elif args.command == "adapt":
            _, history = driver.run_adapt(cfg)
            for rep in history:
                h1 = ("" if rep.energy_error is None
                      else f" h1_fine={100 * rep.energy_error:.4g}%")
                print(f"iter={rep.iteration} dim={rep.dim}"
                      f" marked={len(rep.marked)}{h1}")
        elif args.command == "export-matrices":
            for path in driver.run_export_matrices(cfg):
                print(path)
    except (ConfigError, GeometryError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
