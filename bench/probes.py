"""Probe phase of the traced run: fixed reference calls into each layer.

Every probe calls its layer once untimed, so caches fill and lazy imports
finish, then reports the median of several timed repeats.  Inputs are fixed
(no seed), so the counts repeat exactly from run to run and show when a
speed-up came from doing less work, such as a looser tolerance.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import TIGHT, CliPipeline, write_points_csv

US, MS, NS = 1e6, 1e3, 1e9


def _median_time(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _reference_bowl(sf):
    warp = sf.make_builtin_warp("rotational", -1.0)
    spec = sf.SolitonSpec(c=1.0, n=2, family="bowl", warp=warp)
    return spec, lambda: sf.solve_bowl(spec, stop=sf.TerminationPolicy(r_max=10.0),
                                       **TIGHT)


def warp_probes(sf, m):
    warp = sf.make_builtin_warp("rotational", -1.0)
    rs = [float(r) for r in np.linspace(0.01, 10.0, 2000)]

    def scalar():
        for r in rs:
            warp.xi_ratio(r)
    m["warp_models.xi_ratio_scalar_us"] = (_median_time(scalar, 5) / len(rs) * US, "us")
    grid = np.linspace(0.01, 10.0, 100_000)
    m["warp_models.xi_ratio_vector_ns_per_point"] = (
        _median_time(lambda: warp.xi_ratio(grid), 7) / grid.size * NS, "ns")


def profile_probes(sf, m):
    spec, solve = _reference_bowl(sf)
    states = [(float(r), float(p)) for r, p in
              zip(np.linspace(0.01, 10.0, 2000), np.linspace(-1.5, 1.5, 2000))]

    def rhs():
        for state in states:
            sf.profile_rhs(state, spec)
    m["profile_solver.profile_rhs_us"] = (_median_time(rhs, 5) / len(states) * US, "us")
    solve_s = _median_time(solve, 5)
    calls = solve().diagnostics["n_rhs_evals"]
    m["profile_solver.solve_s"] = (solve_s, "s")
    m["profile_solver.rhs_calls"] = (calls, "count")
    m["profile_solver.us_per_rhs"] = (solve_s / calls * US, "us")


def graph_probes(sf, m):
    rot = sf.make_builtin_warp("rotational", -1.0)
    spec = sf.SolitonSpec(c=1.0, n=2, family="bowl", warp=rot)
    bus = sf.make_builtin_warp("busemann", -1.0)
    equi = sf.make_builtin_warp("equidistant", -1.0)

    def solves():
        sf.solve_radial_graph(spec, r_span=(0.0, 10.0), **TIGHT)
        sf.solve_ideal_graph(2.0, 2, bus, r_span=(0.0, 2.0), **TIGHT)
        sf.solve_grim(1.0, 2, equi, r_span=(-10.0, 10.0), **TIGHT)
    m["graph_solvers.solve_s"] = (_median_time(solves, 3), "s")


def diagnostics_probes(sf, m):
    """The check bundle over fixed cases, including the two known failures:
    the n = 3 flux first integral and a thin wing's conformal geodesic."""
    graphs, curves = [], []
    for K, n in ((-1.0, 2), (-1.0, 3)):
        warp = sf.make_builtin_warp("rotational", K)
        spec = sf.SolitonSpec(c=1.0, n=n, family="bowl", warp=warp)
        graphs.append(sf.solve_radial_graph(spec, r_span=(0.0, 10.0), **TIGHT))
    bowl_spec, solve = _reference_bowl(sf)
    curves.append(solve())
    wing_spec = sf.SolitonSpec(c=0.85, n=3, family="wing", epsilon=0.1,
                               warp=sf.make_builtin_warp("rotational", -2.0))
    curves.append(sf.solve_wing(wing_spec, branch=-1,
                                stop=sf.TerminationPolicy(r_max=10.0), **TIGHT))
    results = []

    def bundle():
        results.clear()
        for curve in curves:
            results.extend(sf.run_profile_checks(curve).checks)
        for graph in graphs:
            results.append(sf.flux_residual(graph))
            results.append(sf.asymptotic_report(graph))
    m["diagnostics.check_s"] = (_median_time(bundle, 3), "s")
    m["diagnostics.checks_run"] = (len(results), "count")
    m["diagnostics.checks_failed"] = (
        sum(1 for c in results if c.applicable and not c.passed), "count")
    n_states = 10_000
    m["diagnostics.drift_identity_us_per_state"] = (
        _median_time(lambda: sf.drift_identity_random(bowl_spec, n_states=n_states,
                                                      seed=7), 3) / n_states * US,
        "us")


def flow_probes(sf, m):
    warp = sf.make_builtin_warp("rotational", -1.0)
    nodes = 8001
    build_s = _median_time(
        lambda: sf.FlowProblem(1.0, 2, warp, r_max=10.0, n_nodes=nodes), 3)
    m["mcf_flow.build_s"] = (build_s, "s")
    m["mcf_flow.build_us_per_node"] = (build_s / nodes * US, "us")
    big = sf.FlowProblem(1.0, 2, warp, r_max=10.0, n_nodes=nodes)
    m["mcf_flow.initial_s"] = (_median_time(
        lambda: sf.bump_initial(big, base=sf.discrete_soliton(big)), 3), "s")

    # acceptance criterion 09's configuration: 200 implicit steps, 2001 nodes
    prob = sf.FlowProblem(1.0, 2, warp, r_max=10.0, n_nodes=2001)
    u0 = sf.bump_initial(prob, base=sf.discrete_soliton(prob))
    steps, dtau = 200, 5e-4
    traj = []

    def run():
        traj[:] = [prob.run(u0, dtau, steps * dtau, scheme="implicit",
                            record_every=2)]
    run_s = _median_time(run, 3)
    done = (traj[0].taus.size - 1) * 2
    m["mcf_flow.run_s"] = (run_s, "s")
    m["mcf_flow.steps"] = (done, "count")
    m["mcf_flow.ns_per_node_step"] = (run_s / (done * prob.r_grid.size) * NS, "ns")
    m["mcf_flow.step_implicit_ms"] = (
        _median_time(lambda: prob.step_implicit(u0, dtau), 21) * MS, "ms")

    def record():
        prob.weighted_functional(u0, 0.0)
        prob.soliton_defect(u0, 0.0)
    m["mcf_flow.record_ms"] = (_median_time(record, 21) * MS, "ms")


def mesh_probes(sf, m, curve):
    mesh = []

    def revolve():
        mesh[:] = [sf.revolve_profile(curve, angular_segments=64,
                                      chart="poincare_disk")]
    m["meshing.revolve_s"] = (_median_time(revolve, 5), "s")
    m["meshing.faces"] = (mesh[0].n_faces, "count")


def fileio_probes(m, curve, coords, workdir: Path):
    """The profile CSV round trip, and the 20k-point CSV the isometry reads."""
    from soliton_forge import fileio
    profile = workdir / "probe_profile.csv"
    points = workdir / "probe_points.csv"
    write = lambda: (fileio.export_profile_csv(curve, profile, meta={"K": -1.0}),
                     fileio.export_points_csv(coords, points))
    read = lambda: (fileio.read_profile_csv(profile),
                    fileio.read_points_csv(points))
    m["fileio.write_s"] = (_median_time(write, 3), "s")
    size = profile.stat().st_size + points.stat().st_size
    m["fileio.bytes_written"] = (size, "count")
    m["fileio.read_s"] = (_median_time(read, 3), "s")
    m["fileio.bytes_read"] = (size, "count")


def lorentz_probes(sf, m, coords):
    lmap = sf.parabolic_translation(0.7, 2)
    pts = [sf.LorentzPoint(row) for row in coords]
    t = _median_time(lambda: sf.transform_points(lmap, pts), 3)
    m["lorentz.transform_points_s"] = (t, "s")
    m["lorentz.us_per_point"] = (t / len(pts) * US, "us")


def cli_probes(m, workdir: Path):
    pipeline = CliPipeline(workdir, tiny=False)
    pipeline.prepare(0)
    code = ("import time; t = time.perf_counter(); import soliton_forge.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(4):
        out = subprocess.run([sys.executable, "-c", code], env=pipeline.env,
                             check=True,
                             capture_output=True, text=True, timeout=120)
        imports.append(float(out.stdout))
    m["cli.import_s"] = (statistics.median(imports[1:]), "s")

    # one fresh interpreter per subcommand, README arguments
    reference = {
        "soliton": ["soliton", "bowl", "--K", "-1", "--n", "2", "--c", "1",
                    "--r-max", "10"],
        "verify": ["verify", "--input", None],
        "flow": ["flow", "--scheme", "implicit", "--dtau", "1e-3",
                 "--horizon", "0.1"],
        "sweep": ["sweep", "--family", "wing", "--epsilons", "0.1,0.5,1,2"],
        "isometry": ["isometry", "--map", "parabolic", "--param", "0.7",
                     "--points", str(pipeline.points)],
    }
    bowl_csv = None
    for name, args in reference.items():
        if None in args:
            args[args.index(None)] = str(bowl_csv)
        out_dir = workdir / f"probe_{name}" / "out"
        out_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        code, _ = pipeline.spawn(args, out_dir)
        m[f"cli.{name}_ms"] = ((time.perf_counter() - t0) * MS, "ms")
        if code not in (0, 2):
            raise RuntimeError(f"probe cli {name} exited {code}")
        if name == "soliton":
            bowl_csv = out_dir / "bowl.csv"


def run_probes(sf, workdir: Path) -> dict:
    m = {}
    warp_probes(sf, m)
    profile_probes(sf, m)
    graph_probes(sf, m)
    diagnostics_probes(sf, m)
    flow_probes(sf, m)
    curve = _reference_bowl(sf)[1]()
    coords = write_points_csv(workdir / "probe_input.csv", 20_000, 0)[:, :3]
    mesh_probes(sf, m, curve)
    fileio_probes(m, curve, coords, workdir)
    lorentz_probes(sf, m, coords)
    cli_probes(m, workdir)
    return m
