"""Command-line interface.

Subcommands: soliton (solve one family and export artifacts), verify
(diagnostics on a solve or CSV input), flow (graphical mean curvature
flow), isometry (apply a Lorentz map to a point set), sweep (parameter
grids).  Exit codes: 0 success, 2 verification failure, 1 usage or
runtime error.  Flag values override JSON config values, which override
built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import diagnostics, fileio, lorentz, mcf_flow
from .graph_solvers import solve_grim, solve_radial_graph
from .meshing import revolve_profile
from .profile_solver import (_FAMILY_KIND, SolitonSpec, TerminationPolicy,
                             solve_bowl, solve_ideal_parametric, solve_wing)
from .warp_models import make_builtin_warp


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="soliton-forge",
                     description="Translating-soliton toolkit")
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: current)")
    parser.add_argument("--tol-rel", type=float, default=None)
    parser.add_argument("--tol-abs", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized property checks")
    sub = parser.add_subparsers(dest="command", required=True)

    sol = sub.add_parser("soliton", help="solve one soliton family")
    sol.add_argument("family", choices=("bowl", "wing", "ideal", "grim"))
    sol.add_argument("--K", type=float, default=None, help="radial curvature")
    sol.add_argument("--n", type=int, default=None)
    sol.add_argument("--c", type=float, default=None)
    sol.add_argument("--r-max", type=float, default=None)
    sol.add_argument("--epsilon", type=float, default=None,
                     help="inner radius (wing family)")
    sol.add_argument("--branch", type=int, choices=(-1, 1), default=None)
    sol.add_argument("--segments", type=int, default=None,
                     help="angular mesh segments")
    sol.add_argument("--chart", choices=("cylindrical", "poincare_disk"),
                     default=None)
    sol.add_argument("--tag", default=None, help="artifact basename")

    ver = sub.add_parser("verify", help="run diagnostics")
    ver.add_argument("--input", type=Path, required=True,
                     help="profile CSV produced by the soliton subcommand")
    ver.add_argument("--K", type=float, default=None)
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--c", type=float, default=None)
    ver.add_argument("--family", default=None)
    ver.add_argument("--epsilon", type=float, default=None)

    flow = sub.add_parser("flow", help="graphical mean curvature flow")
    flow.add_argument("--chart", choices=("polar", "equidistant"), default=None)
    flow.add_argument("--K", type=float, default=None)
    flow.add_argument("--n", type=int, default=None)
    flow.add_argument("--c", type=float, default=None)
    flow.add_argument("--R", type=float, default=None)
    flow.add_argument("--nodes", type=int, default=None)
    flow.add_argument("--dtau", type=float, default=None)
    flow.add_argument("--horizon", type=float, default=None)
    flow.add_argument("--scheme", choices=("explicit", "implicit"), default=None)
    flow.add_argument("--bc", choices=("robin", "dirichlet"), default=None)
    flow.add_argument("--initial", default=None,
                      help="soliton | flat | bump | csv:<path>")
    flow.add_argument("--bump-amplitude", type=float, default=None)
    flow.add_argument("--bump-width", type=float, default=None)
    flow.add_argument("--bump-center", type=float, default=None)
    flow.add_argument("--record-every", type=int, default=None)
    flow.add_argument("--tag", default=None)

    iso = sub.add_parser("isometry", help="apply a Lorentz map to points")
    iso.add_argument("--map", choices=("hyperbolic", "parabolic"), default=None)
    iso.add_argument("--param", type=float, default=None)
    iso.add_argument("--map-json", type=Path, default=None,
                     help="JSON descriptor {type, param}")
    iso.add_argument("--points", type=Path, required=True)
    iso.add_argument("--tag", default=None)

    swp = sub.add_parser("sweep", help="solve over a parameter grid")
    swp.add_argument("--family", choices=("bowl", "wing"), default=None)
    swp.add_argument("--K", type=float, default=None)
    swp.add_argument("--n", type=int, default=None)
    swp.add_argument("--c", type=float, default=None)
    swp.add_argument("--epsilons", default=None,
                     help="comma-separated inner radii (wing sweep)")
    swp.add_argument("--c-values", default=None,
                     help="comma-separated speeds (bowl sweep)")
    swp.add_argument("--r-max", type=float, default=None)
    swp.add_argument("--tag", default=None)
    return parser


_DEFAULTS = {
    "K": -1.0, "n": 2, "c": 1.0, "r_max": 10.0, "epsilon": 0.5,
    "branch": -1, "segments": 64, "chart": None, "tag": None,
    "R": 10.0, "nodes": 2001, "dtau": None, "horizon": 0.1,
    "scheme": "explicit", "bc": "robin", "initial": "soliton",
    "bump_amplitude": 0.05, "bump_width": 0.5, "bump_center": 3.0,
    "record_every": 1, "family": None, "map": None, "param": None,
    "epsilons": None, "c_values": None, "tol_rel": 1e-3, "tol_abs": 1e-6,
    "seed": 0, "out": Path("."),
}


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the JSON config, then from defaults."""
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(config, dict):
            raise UsageError("config must be a JSON object")
    for key, value in vars(args).items():
        if value is not None:
            continue
        if key in config:
            setattr(args, key, config[key])
        elif key in _DEFAULTS:
            setattr(args, key, _DEFAULTS[key])
    if isinstance(args.out, str):
        args.out = Path(args.out)
    return args


def _out_path(args, name: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _make_spec(family, K, n, c, epsilon=None) -> SolitonSpec:
    warp = make_builtin_warp(_FAMILY_KIND[family], K)
    return SolitonSpec(c=c, n=n, family=family, warp=warp,
                       epsilon=epsilon if family == "wing" else None)


def _cmd_soliton(args) -> int:
    family = args.family
    if family == "wing" and args.epsilon <= 0:
        raise UsageError("--epsilon must be > 0 for the wing family")
    tag = args.tag or family
    stop = TerminationPolicy(r_max=args.r_max)

    # tight tolerances keep the FD-based diagnostics below their gates
    tight = {"rtol": 1e-11, "atol": 1e-13}
    meta = {"family": family, "c": args.c, "n": args.n, "K": args.K}
    if family == "bowl":
        spec = _make_spec(family, args.K, args.n, args.c)
        curve = solve_bowl(spec, stop=stop, **tight)
    elif family == "wing":
        spec = _make_spec(family, args.K, args.n, args.c, epsilon=args.epsilon)
        curve = solve_wing(spec, branch=args.branch, stop=stop, **tight)
    elif family == "ideal":
        spec = _make_spec(family, args.K, args.n, args.c)
        curve = solve_ideal_parametric(spec, (0.0, 0.0, 0.0), stop=stop)
    else:
        warp = make_builtin_warp("equidistant", args.K)
        graph = solve_grim(args.c, args.n, warp,
                           r_span=(-args.r_max, args.r_max))
        path = _out_path(args, f"{tag}.csv")
        fileio.export_graph_csv(graph, path, meta=meta)
        print(f"wrote {path}")
        return 0

    if family == "wing":
        meta["epsilon"] = args.epsilon
        meta["branch"] = args.branch
    csv_path = _out_path(args, f"{tag}.csv")
    fileio.export_profile_csv(curve, csv_path, meta=meta)
    written = [csv_path]

    report = diagnostics.run_profile_checks(curve)
    report_path = _out_path(args, f"{tag}_diagnostics.json")
    fileio.export_report_json(report, report_path)
    written.append(report_path)

    if args.n == 2 and family in ("bowl", "wing"):
        chart = args.chart or ("poincare_disk" if args.K < 0 else "cylindrical")
        mesh = revolve_profile(curve, angular_segments=args.segments,
                               chart=chart)
        obj_path = _out_path(args, f"{tag}.obj")
        fileio.export_mesh_obj(mesh, obj_path, meta=meta)
        written.append(obj_path)

    for path in written:
        print(f"wrote {path}")
    print(f"diagnostics: {'pass' if report.passed else 'FAIL'}")
    return 0


def _cmd_verify(args) -> int:
    curve = fileio.read_profile_csv(args.input)
    meta = getattr(curve, "meta", {})

    def pick(flag, key, default, cast):
        if flag is not None:
            return flag
        if key in meta:
            return cast(meta[key])
        return default

    family = pick(args.family, "family", "bowl", str)
    K = pick(args.K, "K", -1.0, float)
    n = pick(args.n, "n", 2, int)
    c = pick(args.c, "c", 1.0, float)
    epsilon = pick(args.epsilon, "epsilon", None,
                   float) if family == "wing" else None
    spec = _make_spec(family, K, n, c, epsilon=epsilon)
    curve.spec = spec

    report = diagnostics.DiagnosticsReport()
    report.add(diagnostics.geodesic_residual(curve, spec))
    report.add(diagnostics.drift_identity_residual(curve, spec))
    report.add(diagnostics.drift_identity_random(spec, seed=args.seed))

    report_path = _out_path(args, f"{Path(args.input).stem}_verify.json")
    fileio.export_report_json(report, report_path)
    for check in report.checks:
        status = "pass" if check.passed else ("n/a" if not check.applicable
                                              else "FAIL")
        print(f"{check.name}: {status} (max {check.max_abs_residual:.3e}, "
              f"tol {check.tolerance:.1e})")
    print(f"wrote {report_path}")
    return 0 if report.passed else 2


def _cmd_flow(args) -> int:
    chart = args.chart or "polar"
    warp_kind = "rotational" if chart == "polar" else "equidistant"
    warp = make_builtin_warp(warp_kind, args.K)
    problem = mcf_flow.FlowProblem(args.c, args.n, warp, r_max=args.R,
                                   n_nodes=args.nodes, chart=chart, bc=args.bc)
    dtau = args.dtau
    if dtau is None:
        dtau = 0.9 * problem.stability_bound() if args.scheme == "explicit" \
            else 1e-3
    initial = args.initial
    if initial == "soliton":
        u0 = mcf_flow.soliton_initial(problem)
    elif initial == "flat":
        u0 = mcf_flow.flat_initial(problem)
    elif initial == "bump":
        u0 = mcf_flow.bump_initial(problem, amplitude=args.bump_amplitude,
                                   width=args.bump_width,
                                   center=args.bump_center)
    elif initial.startswith("csv:"):
        u0 = fileio.read_table(initial[4:])[2][:, -1]
        if u0.size != problem.r_grid.size:
            raise UsageError("csv initial data does not match the grid")
    else:
        raise UsageError(f"unknown initial data {initial!r}")

    trajectory = problem.run(u0, dtau, args.horizon, scheme=args.scheme,
                             record_every=args.record_every)
    tag = args.tag or "flow"
    traj_path = _out_path(args, f"{tag}_trajectory.csv")
    fileio.export_trajectory_csv(trajectory, traj_path,
                                 meta={"K": args.K, "c": args.c, "n": args.n})
    for label, state in (("initial", trajectory.snapshots[0]),
                         ("final", trajectory.snapshots[-1])):
        snap_path = _out_path(args, f"{tag}_{label}.csv")
        fileio.write_table(snap_path, ("r", "u"), (state.r_grid, state.u),
                           {"tau": fileio.fmt(state.tau)})
        print(f"wrote {snap_path}")
    check = trajectory.monotonicity_check(tol_rel=args.tol_rel,
                                          tol_abs=args.tol_abs)
    print(f"wrote {traj_path}")
    print(f"F non-increasing: {check['F_nonincreasing']}; "
          f"max |dF/dtau + D| = {check['max_gap']:.3e}")
    return 0


def _cmd_isometry(args) -> int:
    if args.map_json is not None:
        try:
            descriptor = json.loads(Path(args.map_json).read_text())
            map_type, param = descriptor["type"], float(descriptor["param"])
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError("--map-json needs a JSON object with a 'type' and "
                             f"a numeric 'param' ({exc!r})") from None
    elif args.map is not None and args.param is not None:
        map_type, param = args.map, args.param
    else:
        raise UsageError("provide --map with --param, or --map-json")
    coords, heights = fileio.read_points_csv(args.points)
    n = coords.shape[1] - 1
    if map_type == "hyperbolic":
        lmap = lorentz.hyperbolic_translation(param, n)
    elif map_type == "parabolic":
        lmap = lorentz.parabolic_translation(param, n)
    else:
        raise UsageError(f"unknown map type {map_type!r}")
    points = [lorentz.LorentzPoint(row) for row in coords]
    moved = [lmap.apply(p) for p in points]
    tag = args.tag or f"{map_type}_{param:g}"
    path = _out_path(args, f"points_{tag}.csv")
    fileio.export_points_csv(moved, path, heights=heights,
                             meta={"map": map_type, "param": param})
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    family = args.family or ("wing" if args.epsilons else "bowl")
    tag = args.tag or f"sweep_{family}"

    if family == "wing":
        if not args.epsilons:
            raise UsageError("wing sweep needs --epsilons")
        epsilons = [float(v) for v in str(args.epsilons).split(",")]

        names = ("epsilon", "r_turn", "gap", "lower", "upper", "pass")

        def solve_one(eps):
            spec = _make_spec("wing", args.K, args.n, args.c, epsilon=eps)
            curve = solve_wing(spec, branch=-1,
                               stop=TerminationPolicy(r_max=args.r_max))
            res = diagnostics.wing_height_report(curve)
            return (eps, *(res.details[k] for k in names[1:5]), res.passed)

        rows = sorted(map(solve_one, epsilons), key=lambda row: -row[0])
        path = _out_path(args, f"{tag}.csv")
        fileio.write_table(path, names, list(zip(*rows)))
        print(f"wrote {path}")
        monotone = all(a[2] > b[2] for a, b in zip(rows, rows[1:]))
        print(f"gap decreasing toward epsilon -> 0: {monotone}")
        return 0 if monotone and all(row[5] for row in rows) else 2

    if not args.c_values:
        raise UsageError("bowl sweep needs --c-values")
    c_values = [float(v) for v in str(args.c_values).split(",")]

    def solve_one_c(c):
        spec = _make_spec("bowl", args.K, args.n, c)
        graph = solve_radial_graph(spec, r_span=(0.0, args.r_max))
        return c, float(graph.u[-1]), float(graph.du[-1])

    rows = sorted(solve_one_c(c) for c in c_values)
    path = _out_path(args, f"{tag}.csv")
    fileio.write_table(path, ("c", "u_rmax", "du_rmax"), list(zip(*rows)))
    print(f"wrote {path}")
    return 0


_COMMANDS = {"soliton": _cmd_soliton, "verify": _cmd_verify,
             "flow": _cmd_flow, "isometry": _cmd_isometry,
             "sweep": _cmd_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
