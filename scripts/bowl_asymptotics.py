#!/usr/bin/env python3
"""Decay table for the bowl slope gap psi = u' - (c/(n-1)) xi/xi'.

Solves the radial bowl graph on a negatively curved base and prints
psi and the rescaled gap lambda = (xi/xi') psi over the outer decades,
together with the sandwich check (1 - eps) zeta <= u' <= zeta.

Usage:
    python scripts/bowl_asymptotics.py --K -1 --c 1 --r-max 20
"""

import argparse
import sys

import numpy as np

from soliton_forge import (CurvatureBounds, SolitonSpec, make_builtin_warp,
                           solve_radial_graph)
from soliton_forge.diagnostics import asymptotic_report
from soliton_forge.profile_solver import TIGHT_ATOL, TIGHT_RTOL


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--K", type=float, default=-1.0)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--r-max", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.K >= 0:
        ap.error("the slope asymptotics need K < 0")

    warp = make_builtin_warp("rotational", args.K)
    spec = SolitonSpec(c=args.c, n=args.n, family="bowl", warp=warp)
    graph = solve_radial_graph(spec, r_span=(0.0, args.r_max),
                               rtol=TIGHT_RTOL, atol=TIGHT_ATOL)

    print(f"{'r':>8} {'u_prime':>14} {'zeta':>14} {'psi':>12} {'lambda':>12}")
    for r in np.geomspace(args.r_max / 32, args.r_max, 12):
        zeta = (args.c / (args.n - 1)) * warp.g(r)
        du = float(graph.du_eval(r))
        psi = du - zeta
        print(f"{r:8.3f} {du:14.9f} {zeta:14.9f} {psi:12.3e} "
              f"{warp.g(r) * psi:12.3e}")

    report = asymptotic_report(graph, bounds=CurvatureBounds(args.K, args.K))
    print(f"eventually negative: {report.details['eventually_negative']}; "
          f"decade shrink: {report.details['decade_shrink']}; "
          f"sandwich (eps=0.05, r >= 10): {report.details['sandwich']}")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
