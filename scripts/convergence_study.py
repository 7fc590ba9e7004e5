"""Offline-dimension convergence study across fracture-field families.

For each requested generator this runs the full pipeline once (fine
reference, snapshot spaces, spectral modes) and then re-solves the
coarse problem at every mode count in the sweep, printing an
error-vs-dimension table.  Per-field CSVs land under --out.  A field
that draws no fracture on the grid, as ``isolated_blocks`` mostly does
at ``--refine`` 8 or less, is skipped with a one-line note.

Usage:
    python scripts/convergence_study.py
    python scripts/convergence_study.py --fields crossing_channels --refine 5
"""

import argparse
import time

from msfrac.config import RunConfig, GridConfig, FracturesConfig, OutputsConfig
from msfrac import driver
from msfrac.fractures import GeometryError

DEFAULT_FIELDS = ["isolated_blocks", "crossing_channels",
                  "crossing_network", "mixed_short_long"]


def run_field(name, args):
    cfg = RunConfig(
        grid=GridConfig(coarse_nx=args.coarse, coarse_ny=args.coarse,
                        refine=args.refine, t=args.t),
        fractures=FracturesConfig(field=name, seed=args.seed),
        sweep=list(range(1, args.max_modes + 1)),
        outputs=OutputsConfig(dir=f"{args.out}/{name}"),
    )
    t0 = time.perf_counter()
    reports = driver.run_sweep(cfg)
    dt = time.perf_counter() - t0

    print(f"\n{name} (seed {args.seed}, {dt:.1f}s)")
    print(f"  {'dim':>5}  {'l2_fine%':>9}  {'h1_fine%':>9}  {'h1_snap%':>9}")
    for r in reports:
        snap = ("" if r.rel_energy_vs_snap is None
                else f"{100 * r.rel_energy_vs_snap:9.3f}")
        print(f"  {r.dim_Voff:>5}  {100 * r.rel_L2_vs_fine:9.4f}"
              f"  {100 * r.rel_energy_vs_fine:9.3f}  {snap}")
    return reports


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fields", nargs="+", default=DEFAULT_FIELDS)
    ap.add_argument("--coarse", type=int, default=10)
    ap.add_argument("--refine", type=int, default=10)
    ap.add_argument("--t", type=int, default=2, help="oversampling layers")
    ap.add_argument("--max-modes", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="runs/convergence")
    args = ap.parse_args()

    for name in args.fields:
        try:
            run_field(name, args)
        except GeometryError as exc:    # a field that draws no fracture here
            print(f"\n{name}: skipped, {exc}")


if __name__ == "__main__":
    main()
