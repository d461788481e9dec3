"""Command-line interface.

Subcommands: soliton (solve one family and export artifacts), verify
(diagnostics on a solve or CSV input), flow (graphical mean curvature
flow), isometry (apply a Lorentz map to a point set), sweep (parameter
grids).  The module imports only fileio, lorentz and warp_models; each
command imports the solvers it runs, so every command but flow loads
NumPy alone and never SciPy.  Exit codes: 0 success, 2 verification
failure (for soliton also a profile that ends short of --r-max), 1 usage
or runtime error.  Flag values override JSON config values, which
override the ``# key=value`` metadata of the verify input, which
override the built-in defaults declared on the flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import fileio, lorentz
from .warp_models import _FAMILY_KIND, CHARTS, FAMILIES, make_builtin_warp

#: the most flow steps one command takes; 10^6 steps on 2001 nodes take minutes
MAX_FLOW_STEPS = 10**6


class UsageError(Exception):
    pass


def _numbers(text: str) -> list:
    """The type of --epsilons and --c-values: comma-separated numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1; ``commands``
    maps each command name to its subparser."""

    def error(self, message):
        raise UsageError(message)

    def set_own_defaults(self, values: dict) -> None:
        """set_defaults for the keys of ``values`` this parser has a flag for,
        as the text str(value) its flag's type converts; a null, list or
        object is a usage error."""
        dests = {action.dest for action in self._actions}
        for key, value in values.items():
            if key in dests and (value is None or isinstance(value, (list, dict))):
                raise UsageError(f"config value {key} = {json.dumps(value)} is no flag value")
        self.set_defaults(**{k: str(v) for k, v in values.items() if k in dests})


def build_parser() -> _Parser:
    parser = _Parser(prog="soliton-forge",
                     description="Translating-soliton toolkit")
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current)")
    parser.add_argument("--tol-rel", type=float, default=1e-3)
    parser.add_argument("--tol-abs", type=float, default=1e-6)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property checks")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name, summary):
        """Subparser with the soliton parameters every command but isometry takes."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--K", type=float, default=-1.0, help="radial curvature")
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--c", type=float, default=1.0)
        return p

    sol = command("soliton", "solve one soliton family")
    sol.add_argument("family", choices=FAMILIES)
    sol.add_argument("--r-max", type=float, default=10.0)
    sol.add_argument("--epsilon", type=float, default=0.5,
                     help="inner radius (wing family)")
    sol.add_argument("--branch", type=int, choices=(-1, 1), default=-1)
    sol.add_argument("--segments", type=int, default=64,
                     help="angular mesh segments")
    sol.add_argument("--chart", choices=("cylindrical", "poincare_disk"))
    sol.add_argument("--tag", help="artifact basename")

    ver = command("verify", "run diagnostics")
    ver.add_argument("--input", type=Path, required=True,
                     help="profile CSV produced by the soliton subcommand")
    ver.add_argument("--family", choices=FAMILIES, default="bowl")
    ver.add_argument("--epsilon", type=float, default=0.5)

    flow = command("flow", "graphical mean curvature flow")
    flow.add_argument("--chart", choices=("polar", "equidistant"), default="polar")
    flow.add_argument("--R", type=float, default=10.0)
    flow.add_argument("--nodes", type=int, default=2001)
    flow.add_argument("--dtau", type=float)
    flow.add_argument("--horizon", type=float, default=0.1)
    flow.add_argument("--scheme", choices=("explicit", "implicit"),
                      default="explicit")
    flow.add_argument("--bc", choices=("robin", "dirichlet"), default="robin")
    flow.add_argument("--initial", default="soliton",
                      help="soliton | flat | bump | csv:<path>")
    flow.add_argument("--bump-amplitude", type=float, default=0.05)
    flow.add_argument("--bump-width", type=float, default=0.5)
    flow.add_argument("--bump-center", type=float, default=3.0)
    flow.add_argument("--record-every", type=int, default=1)
    flow.add_argument("--tag")

    iso = sub.add_parser("isometry", help="apply a Lorentz map to points")
    iso.add_argument("--map", choices=("hyperbolic", "parabolic"))
    iso.add_argument("--param", type=float)
    iso.add_argument("--map-json", type=Path, help="JSON descriptor {type, param}")
    iso.add_argument("--points", type=Path, required=True)
    iso.add_argument("--tag")

    swp = command("sweep", "solve over a parameter grid")
    swp.add_argument("--family", choices=("bowl", "wing"))
    swp.add_argument("--epsilons", type=_numbers,
                     help="comma-separated inner radii (wing sweep)")
    swp.add_argument("--c-values", type=_numbers,
                     help="comma-separated speeds (bowl sweep)")
    swp.add_argument("--r-max", type=float, default=10.0)
    swp.add_argument("--tag")
    return parser


def _parse(parser: _Parser, argv) -> argparse.Namespace:
    """Resolve every value as flag > --config > verify input metadata > default.

    A first parse finds the command, the config and the verify input.  Their
    values become defaults of the parser that owns each key, as text going
    through its flag's type, and a second parse lays the flags over them.
    Top-level keys go on the top-level parser, because a subparser's defaults
    override flags given before the command.
    """
    args = parser.parse_args(argv)
    command = parser.commands[args.command]
    layers = []
    if args.command == "verify":
        profile = fileio.read_profile_csv(args.input)
        command.set_defaults(profile=profile)
        layers.append(profile.meta)
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(config, dict):
            raise UsageError("config must be a JSON object")
        layers.append(config)
    for values in layers:
        parser.set_own_defaults(values)
        command.set_own_defaults(values)
    return parser.parse_args(argv)


def _out_path(args, name: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _warp(kind: str, K: float):
    """The built-in warp of ``kind`` at curvature --K; a K it rejects (not
    finite, positive, or 0 off the polar chart) is a usage error."""
    try:
        return make_builtin_warp(kind, K)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _make_spec(family, K, n, c, epsilon=None):
    from .profile_solver import SolitonSpec
    warp = _warp(_FAMILY_KIND[family], K)
    return SolitonSpec(c=c, n=n, family=family, warp=warp,
                       epsilon=epsilon if family == "wing" else None)


def _check_starts(what: str, starts, r_max: float, low: float = -math.inf) -> None:
    """Each solve starts above ``low`` and below --r-max, so its radius stop
    lies ahead of it; checked before any solve."""
    for r0 in starts:
        if not low < r0 < r_max:
            above = f"> {low:g} and " if low > -math.inf else ""
            raise UsageError(f"{what} {r0:g} must be {above}below --r-max {r_max:g}")


def _cmd_soliton(args) -> int:
    from . import diagnostics
    from .graph_solvers import GRIM_LAUNCH_R, solve_grim
    from .meshing import revolve_profile
    from .profile_solver import (AXIS_LAUNCH_S, TerminationPolicy, solve_bowl,
                                 solve_ideal_parametric, solve_wing)
    family = args.family
    if family == "wing":
        _check_starts("wing --epsilon", [args.epsilon], args.r_max, low=0.0)
    else:
        r0 = {"bowl": AXIS_LAUNCH_S, "ideal": 0.0,
              "grim": GRIM_LAUNCH_R if args.n >= 3 else 0.0}[family]
        _check_starts(f"{family} start radius", [r0], args.r_max)
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
        warp = _warp("equidistant", args.K)
        # an n >= 3 grim graph is singular on r = 0, so it is solved on r > 0
        r_min = 0.0 if args.n >= 3 else -args.r_max
        graph = solve_grim(args.c, args.n, warp, r_span=(r_min, args.r_max))
        path = _out_path(args, f"{tag}.csv")
        fileio.export_graph_csv(graph, path, meta=meta)
        print(f"wrote {path}")
        return 0

    if family == "wing":
        meta["epsilon"] = args.epsilon
        meta["branch"] = args.branch
    # the report and the mesh are built before any file is written, so a
    # mesh that cannot be built leaves nothing behind
    report = diagnostics.run_profile_checks(curve)
    mesh = None
    if args.n == 2 and family in ("bowl", "wing"):
        chart = args.chart or ("poincare_disk" if args.K < 0 else "cylindrical")
        mesh = revolve_profile(curve, angular_segments=args.segments,
                               chart=chart)

    written = [
        fileio.export_profile_csv(curve, _out_path(args, f"{tag}.csv"), meta=meta),
        fileio.export_report_json(report, _out_path(args, f"{tag}_diagnostics.json"))]
    if mesh is not None:
        written.append(fileio.export_mesh_obj(mesh, _out_path(args, f"{tag}.obj"),
                                              meta=meta))
    for path in written:
        print(f"wrote {path}")
    print(f"diagnostics: {'pass' if report.passed else 'FAIL'}")
    if curve.termination != "max_radius":
        print(f"{family} curve stopped by {curve.termination} at "
              f"r = {curve.r[-1]:.6g}, short of --r-max {args.r_max:g}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    # argparse checks choices on a flag only, not on a metadata or config default
    if args.family not in FAMILIES:
        raise UsageError(f"unknown family {args.family!r}; choose from {FAMILIES}")
    from . import diagnostics
    curve = args.profile
    spec = _make_spec(args.family, args.K, args.n, args.c, epsilon=args.epsilon)
    curve.spec = spec

    report = diagnostics.DiagnosticsReport(
        [*diagnostics.profile_identities(curve, spec),
         diagnostics.drift_identity_random(spec, seed=args.seed)])

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
    from . import mcf_flow
    warp_kind = {chart: kind for kind, chart in CHARTS.items()}[args.chart]
    warp = _warp(warp_kind, args.K)
    problem = mcf_flow.FlowProblem(args.c, args.n, warp, r_max=args.R,
                                   n_nodes=args.nodes, bc=args.bc)
    dtau = args.dtau
    if dtau is None and args.scheme == "implicit":
        dtau = 1e-3
    elif dtau is None:
        # the largest whole-step division of the horizon within 0.9 x the
        # bound; run() rejects a horizon that is not finite and > 0
        steps = args.horizon / (0.9 * problem.stability_bound())
        dtau = args.horizon / math.ceil(steps) if 0 < steps < math.inf else args.horizon
    # refused before any work: more steps than the bound, or fewer than the
    # three records the F/D check differences
    steps, records = mcf_flow.run_counts(dtau, args.horizon, args.record_every)
    if steps > MAX_FLOW_STEPS:
        raise UsageError(f"{steps} steps of {dtau:g} exceed the bound of {MAX_FLOW_STEPS} "
                         "steps: take a larger --dtau with --scheme implicit")
    if records < 3:
        raise UsageError(f"need at least three records, got {records}: --horizon "
                         f"{args.horizon:g} must be longer than --record-every "
                         f"{args.record_every} steps of {dtau:g}")
    initial = args.initial
    if initial == "soliton":
        u0 = mcf_flow.soliton_initial(problem)
    elif initial == "flat":
        u0 = mcf_flow.flat_initial(problem)
    elif initial == "bump":
        base = mcf_flow.soliton_initial(problem)
        try:
            u0 = mcf_flow.bump_initial(problem, amplitude=args.bump_amplitude,
                                       width=args.bump_width,
                                       center=args.bump_center, base=base)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    elif initial.startswith("csv:"):
        data = fileio.read_table(initial[4:])[2]
        if data.shape[1] < 2:
            raise UsageError("csv initial data needs a height column after r")
        if data.shape[0] != problem.r_grid.size or (
                abs(data[:, 0] - problem.r_grid).max() > 1e-12 * problem.r_max):
            raise UsageError("csv initial data: its first column must be the flow grid r")
        u0 = data[:, -1]
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
    moved = lorentz.transform_points(lmap, coords)
    tag = args.tag or f"{map_type}_{param:g}"
    path = _out_path(args, f"points_{tag}.csv")
    fileio.export_points_csv(moved, path, heights=heights,
                             meta={"map": map_type, "param": param})
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    from . import diagnostics
    from .graph_solvers import solve_radial_graph
    from .profile_solver import AXIS_LAUNCH_S, TerminationPolicy, solve_wing
    family = args.family or ("wing" if args.epsilons else "bowl")
    tag = args.tag or f"sweep_{family}"

    if family == "wing":
        if not args.epsilons:
            raise UsageError("wing sweep needs --epsilons")
        _check_starts("wing --epsilon", args.epsilons, args.r_max, low=0.0)

        names = ("epsilon", "r_turn", "gap", "lower", "upper", "pass")

        def solve_one(eps):
            spec = _make_spec("wing", args.K, args.n, args.c, epsilon=eps)
            curve = solve_wing(spec, branch=-1,
                               stop=TerminationPolicy(r_max=args.r_max))
            res = diagnostics.wing_height_report(curve)
            return (eps, *(res.details[k] for k in names[1:5]), res.passed)

        rows = sorted(map(solve_one, args.epsilons), key=lambda row: -row[0])
        path = _out_path(args, f"{tag}.csv")
        fileio.write_table(path, names, list(zip(*rows)))
        print(f"wrote {path}")
        monotone = all(a[2] > b[2] for a, b in zip(rows, rows[1:]))
        print(f"gap decreasing toward epsilon -> 0: {monotone}")
        return 0 if monotone and all(row[5] for row in rows) else 2

    if not args.c_values:
        raise UsageError("bowl sweep needs --c-values")
    _check_starts("bowl start radius", [AXIS_LAUNCH_S if args.n > 1 else 0.0], args.r_max)

    def solve_one_c(c):
        spec = _make_spec("bowl", args.K, args.n, c)
        graph = solve_radial_graph(spec, r_span=(0.0, args.r_max))
        if graph.gradient_blowup:
            raise ValueError(f"bowl graph with c = {c:g} blows up at "
                             f"r = {graph.blowup_radius:.6g}, short of --r-max {args.r_max:g}")
        return c, float(graph.u[-1]), float(graph.du[-1])

    rows = sorted(solve_one_c(c) for c in args.c_values)
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
        args = _parse(parser, argv)
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
