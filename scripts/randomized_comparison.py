"""Full vs. randomized snapshot spaces at matched coarse dimension.

For each mode count M the randomized run draws k_nb = M plus p_bf
oversamples per interior neighborhood.  Reports both energy errors
and their ratio.
"""

import argparse

from msfrac.config import (RunConfig, GridConfig, FracturesConfig,
                           OfflineConfig, OutputsConfig)
from msfrac import driver


def sweep(mode, args, m, out):
    off = OfflineConfig(mode=mode, k_nb=m, p_bf=args.p_bf, seed=args.offline_seed)
    cfg = RunConfig(
        grid=GridConfig(coarse_nx=args.coarse, coarse_ny=args.coarse,
                        refine=args.refine, t=args.t),
        fractures=FracturesConfig(field=args.field, seed=args.seed),
        offline=off, sweep=[m],
        outputs=OutputsConfig(dir=out))
    return driver.run_sweep(cfg)[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", default="crossing_channels")
    ap.add_argument("--coarse", type=int, default=10)
    ap.add_argument("--refine", type=int, default=10)
    ap.add_argument("--t", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1, help="fracture-field seed")
    ap.add_argument("--offline-seed", type=int, default=0)
    ap.add_argument("--p-bf", type=int, default=4, help="oversampling draws")
    ap.add_argument("--modes", type=int, nargs="+", default=[3, 4, 5])
    ap.add_argument("--out", default="runs/randomized")
    args = ap.parse_args()

    print(f"{args.field} (seed {args.seed}), p_bf={args.p_bf}")
    print(f"  {'M':>3}  {'dim':>5}  {'h1_full%':>9}  {'h1_rand%':>9}"
          f"  {'ratio':>6}")
    for m in args.modes:
        full = sweep("full", args, m, f"{args.out}/full_m{m}")
        rand = sweep("randomized", args, m, f"{args.out}/rand_m{m}")
        e_f = 100 * full.rel_energy_vs_fine
        e_r = 100 * rand.rel_energy_vs_fine
        print(f"  {m:>3}  {rand.dim_Voff:>5}  {e_f:9.3f}  {e_r:9.3f}"
              f"  {e_r / e_f:6.3f}")


if __name__ == "__main__":
    main()
