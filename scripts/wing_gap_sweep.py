#!/usr/bin/env python3
"""Sweep the wing inner radius and tabulate the height gap bounds.

For each epsilon the wing profile is solved on the minus branch, the
turning radius r0 and the height gap t(eps) - t(r0) are measured, and
both analytic bounds are printed next to them.  The gap shrinks to 0
with epsilon, which is the behavior this table makes visible.

Usage:
    python scripts/wing_gap_sweep.py --epsilons 0.01,0.05,0.1,0.5,1,2
"""

import argparse
import sys

from soliton_forge import SolitonSpec, TerminationPolicy, make_builtin_warp, solve_wing
from soliton_forge.diagnostics import wing_height_report
from soliton_forge.profile_solver import TIGHT_ATOL, TIGHT_RTOL


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilons", default="0.01,0.05,0.1,0.5,1,2",
                    help="comma-separated inner radii")
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--K", type=float, default=-1.0)
    ap.add_argument("--r-max", type=float, default=25.0)
    args = ap.parse_args(argv)

    warp = make_builtin_warp("rotational", args.K)
    print(f"{'eps':>8} {'r0':>10} {'r0-eps':>10} {'gap':>12} "
          f"{'lower':>12} {'upper':>12} {'ok':>4}")
    previous = None
    monotone = True
    for eps in sorted(float(v) for v in args.epsilons.split(",")):
        spec = SolitonSpec(c=args.c, n=args.n, family="wing", warp=warp,
                           epsilon=eps)
        curve = solve_wing(spec, branch=-1,
                           stop=TerminationPolicy(r_max=args.r_max),
                           rtol=TIGHT_RTOL, atol=TIGHT_ATOL)
        rep = wing_height_report(curve)
        d = rep.details
        print(f"{eps:8.3f} {d['r_turn']:10.5f} {d['r_turn'] - eps:10.5f} "
              f"{d['gap']:12.6f} {d['lower']:12.6f} {d['upper']:12.6f} "
              f"{'yes' if rep.passed else 'NO':>4}")
        if previous is not None and d["gap"] <= previous:
            monotone = False
        previous = d["gap"]
    print(f"gap increasing in eps (-> 0 with eps): "
          f"{'yes' if monotone else 'NO'}")
    return 0 if monotone else 1


if __name__ == "__main__":
    sys.exit(main())
