#!/usr/bin/env python3
"""Monotonicity of the weighted area functional along graph flow.

Runs graphical mean curvature flow from a soliton-plus-bump initial
condition and prints F(tau), the defect D(tau), and the balance
dF/dtau + D, which should vanish up to discretization error.

Usage:
    python scripts/flow_monotonicity.py --K -1 --amplitude 0.05
"""

import argparse
import sys

import numpy as np

from soliton_forge import FlowProblem, bump_initial, discrete_soliton, make_builtin_warp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--K", type=float, default=-1.0)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--R", type=float, default=10.0)
    ap.add_argument("--nodes", type=int, default=2001)
    ap.add_argument("--amplitude", type=float, default=0.05)
    ap.add_argument("--width", type=float, default=0.5)
    ap.add_argument("--center", type=float, default=3.0)
    ap.add_argument("--dtau", type=float, default=5e-4)
    ap.add_argument("--horizon", type=float, default=0.1)
    args = ap.parse_args(argv)

    warp = make_builtin_warp("rotational", args.K)
    problem = FlowProblem(args.c, args.n, warp, r_max=args.R,
                          n_nodes=args.nodes)
    base = discrete_soliton(problem)
    u0 = bump_initial(problem, amplitude=args.amplitude, width=args.width,
                      center=args.center, base=base)
    traj = problem.run(u0, args.dtau, args.horizon, scheme="implicit",
                       record_every=2)

    taus, F, D = traj.taus, traj.F_values, traj.defect_values
    dF = traj.dF_dtau()
    print(f"{'tau':>8} {'F':>16} {'D':>12} {'dF/dtau + D':>14}")
    stride = max(1, (taus.size - 2) // 12)
    for k in range(1, taus.size - 1, stride):
        print(f"{taus[k]:8.4f} {F[k]:16.9f} {D[k]:12.5e} "
              f"{dF[k - 1] + D[k]:14.3e}")

    check = traj.monotonicity_check(tol_rel=1e-3, tol_abs=1e-6)
    print(f"F non-increasing: {check['F_nonincreasing']}; "
          f"max |dF/dtau + D| = {check['max_gap']:.3e} "
          f"(allowed {check['min_allowed_gap']:.3e}); "
          f"balance: {'pass' if check['balance_ok'] else 'FAIL'}")
    return 0 if check["F_nonincreasing"] and check["balance_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
