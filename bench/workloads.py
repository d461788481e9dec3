"""The benchmark's three workloads.

Each workload turns a seed into an endless stream of op specs, runs one op
at a time through the program's public functions, and checks the op's
outputs.  ``run`` returns the raw outputs from the timed region; ``check``
runs afterwards, outside it, and returns an ``OpResult`` or raises
``OutputError`` when an output is wrong.

``OpResult.checks_ok`` is the verdict of the checks the program itself ran
(``CheckResult.passed``, ``monotonicity_check``, a CLI exit code of 2); a
False verdict is a known defect being counted, not a broken op.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

TIGHT = {"rtol": 1e-11, "atol": 1e-13}


class OutputError(Exception):
    """An op's output failed the benchmark's own check."""


@dataclass
class OpResult:
    kind: str
    checks_ok: bool
    digest: str
    counts: dict = field(default_factory=dict)
    failed_checks: list = field(default_factory=list)
    rss_kb: int = 0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _require(cond, message):
    if not cond:
        raise OutputError(message)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def stratified(rng, n_strata: int, dims: int):
    """Endless points of the unit cube; each block of ``n_strata`` points is
    a Latin hypercube (every axis hits each of its equal strata once), so a
    run of a few blocks covers each parameter's range evenly whatever the
    seed."""
    while True:
        perms = [rng.permutation(n_strata) for _ in range(dims)]
        for j in range(n_strata):
            yield [(p[j] + rng.uniform()) / n_strata for p in perms]


# -- construct_verify ----------------------------------------------------

class ConstructVerify:
    """Solve one soliton at tight tolerances and run the program's checks."""

    name = "construct_verify"
    cycle_len = 10
    KINDS = [(family, n) for family in ("bowl", "wing", "radial", "ideal", "grim")
             for n in (2, 3)]

    def __init__(self, workdir: Path, tiny: bool = False):
        self.r_max = 5.0 if tiny else 10.0
        self.r_ideal = 2.5 if tiny else 5.0
        self.n_states = 1000 if tiny else 10_000
        import soliton_forge as sf
        self.sf = sf

    nominal_s = reference.NOMINAL_S

    def prepare(self, seed):
        pass

    def reference(self) -> float:
        return reference.kernel()

    def stream(self, seed, key=0):
        """Every cycle runs each (family, n) kind once, in a seeded order;
        each kind's K, c and epsilon are stratified over eight cycles."""
        rng = np.random.default_rng([key, seed])
        draws = {kind: stratified(rng, 8, 3) for kind in self.KINDS}
        for cycle in itertools.count():
            for i in rng.permutation(len(self.KINDS)):
                family, n = self.KINDS[i]
                uk, uc, ue = next(draws[(family, n)])
                # busemann and equidistant warps need K < 0; near K = 0 the
                # equidistant grim graph is not entire and its solve raises
                k_hi = 0.0 if family in ("bowl", "wing", "radial") else -0.05
                yield {"kind": f"{family}_n{n}", "cycle": cycle,
                       "family": family, "n": n,
                       "K": -2.0 + (k_hi + 2.0) * uk,
                       "c": 0.5 + 1.5 * uc,
                       "epsilon": 0.05 + 1.95 * ue,
                       "check_seed": int(rng.integers(2**31))}

    def warmup_specs(self, seed):
        stream = self.stream(seed, key=1)
        return [next(stream) for _ in self.KINDS]

    def run(self, spec, tr):
        sf, family, n, K, c = self.sf, spec["family"], spec["n"], spec["K"], spec["c"]
        out = {"spec": spec}
        if family in ("bowl", "wing", "radial"):
            with tr.span("warp_models.make_builtin_warp"):
                warp = sf.make_builtin_warp("rotational", K)
            with tr.span("profile_solver.SolitonSpec"):
                sspec = sf.SolitonSpec(
                    c=c, n=n, family="wing" if family == "wing" else "bowl",
                    warp=warp,
                    epsilon=spec["epsilon"] if family == "wing" else None)
        if family in ("bowl", "wing"):
            stop = sf.TerminationPolicy(r_max=self.r_max)
            if family == "bowl":
                with tr.span("profile_solver.solve_bowl"):
                    curve = sf.solve_bowl(sspec, stop=stop, **TIGHT)
            else:
                with tr.span("profile_solver.solve_wing"):
                    curve = sf.solve_wing(sspec, branch=-1, stop=stop, **TIGHT)
            with tr.span("diagnostics.run_profile_checks"):
                out["checks"] = sf.run_profile_checks(curve).checks
            out["curve"] = curve
            if n == 2:
                chart = "poincare_disk" if K < 0 else "cylindrical"
                with tr.span("meshing.revolve_profile"):
                    out["mesh"] = sf.revolve_profile(curve, angular_segments=64,
                                                     chart=chart)
            return out
        if family == "radial":
            with tr.span("graph_solvers.solve_radial_graph"):
                graph = sf.solve_radial_graph(sspec, r_span=(0.0, self.r_max),
                                              **TIGHT)
            with tr.span("diagnostics.flux_residual"):
                flux = sf.flux_residual(graph)
            with tr.span("diagnostics.asymptotic_report"):
                asym = sf.asymptotic_report(graph)
            checks = [flux, asym]
        elif family == "ideal":
            with tr.span("warp_models.make_builtin_warp"):
                warp = sf.make_builtin_warp("busemann", K)
            with tr.span("graph_solvers.solve_ideal_graph"):
                graph = sf.solve_ideal_graph(c, n, warp, r_span=(0.0, self.r_ideal),
                                             **TIGHT)
            checks = []
        else:
            with tr.span("warp_models.make_builtin_warp"):
                warp = sf.make_builtin_warp("equidistant", K)
            span = (-self.r_max, self.r_max) if n == 2 else (0.0, self.r_max)
            with tr.span("graph_solvers.solve_grim"):
                graph = sf.solve_grim(c, n, warp, r_span=span, **TIGHT)
            checks = []
        with tr.span("diagnostics.drift_identity_random"):
            checks.append(sf.drift_identity_random(
                graph.spec, n_states=self.n_states, seed=spec["check_seed"]))
        out["graph"], out["checks"] = graph, checks
        return out

    def check(self, out):
        spec, family = out["spec"], out["spec"]["family"]
        # a check that does not apply (asymptotic_report at K = 0) does not fail
        failed = [ch.name for ch in out["checks"] if ch.applicable and not ch.passed]
        n_checks = len(out["checks"])
        _require(n_checks > 0, "no checks ran")
        _require(all(math.isfinite(ch.max_abs_residual) or not ch.applicable
                     for ch in out["checks"]), "non-finite check residual")
        counts = {"checks_run": n_checks, "checks_failed": len(failed)}
        if "curve" in out:
            curve = out["curve"]
            _require(_finite(curve.r, curve.t, curve.phi), "non-finite profile")
            _require(curve.termination == "max_radius",
                     f"profile stopped by {curve.termination}")
            counts["rhs_calls"] = curve.diagnostics["n_rhs_evals"]
            if family == "bowl":
                _require(np.all(np.cos(curve.phi) > 0), "bowl is not a graph")
            else:
                _require(len(curve.turning_points) >= 1, "wing never turned")
            arrays = [curve.s, curve.r, curve.t, curve.phi]
            mesh = out.get("mesh")
            if mesh is not None:
                k = mesh.meta["angular_segments"]
                fan = 1 if mesh.meta["axis_fan"] else 0
                rings = mesh.meta["profile_samples"] - fan
                _require(mesh.n_faces == fan * k + 2 * k * (rings - 1),
                         "mesh face count does not match its rings")
                counts["faces"] = mesh.n_faces
                arrays.append(mesh.vertices)
        else:
            graph = out["graph"]
            _require(_finite(graph.r_grid, graph.u, graph.du), "non-finite graph")
            arrays = [graph.r_grid, graph.u, graph.du]
            if family == "radial":
                _require(not graph.gradient_blowup, "bowl graph blew up")
                _require(np.all(graph.du >= -1e-9), "bowl graph slope negative")
            elif family == "ideal":
                self._check_ideal(spec, graph)
            elif spec["n"] == 2:
                # the n = 2 grim graph is even in r on a symmetric grid
                scale = 1.0 + np.max(np.abs(graph.u))
                _require(np.max(np.abs(graph.u - graph.u[::-1])) <= 1e-6 * scale,
                         "grim graph is not even")
            else:
                _require(np.all(graph.du >= 0), "grim graph slope negative")
        arrays += [[ch.max_abs_residual for ch in out["checks"]]]
        return OpResult(spec["kind"], not failed, _digest(*arrays), counts, failed)

    @staticmethod
    def _check_ideal(spec, graph):
        # constant coefficient a = c - (n-1) k: u = -ln(cos(a r)) / a up to
        # the vertical point pi / (2|a|)
        a = spec["c"] - (spec["n"] - 1) * math.sqrt(-spec["K"])
        r_hi = graph.r_grid[-1]
        if abs(a) > 1e-12:
            r_hi = min(r_hi, math.pi / (2 * abs(a)))
        r = np.linspace(0.0, 0.9 * r_hi, 200)
        exact = (-np.log(np.cos(a * r)) / a) if abs(a) > 1e-12 else 0.0 * r
        err = np.max(np.abs(np.asarray(graph.u_eval(r)) - exact))
        _require(err <= 1e-6 * (1.0 + np.max(np.abs(exact))),
                 f"ideal graph misses its closed form by {err:.2e}")


# -- flow_monotone -------------------------------------------------------

class FlowMonotone:
    """Graphical MCF runs that record F and D, then check monotonicity."""

    name = "flow_monotone"
    cycle_len = 6

    def __init__(self, workdir: Path, tiny: bool = False):
        div = 10 if tiny else 1
        self.implicit_nodes = (201, 401, 601, 801) if tiny else (2001, 4001, 6001, 8001)
        self.explicit_nodes = 101 if tiny else 1001
        self.translate_nodes = 501 if tiny else 2001
        self.implicit_steps = 200 // div
        self.explicit_steps = 2000 // div
        self.translate_steps = 1000 // div
        import soliton_forge as sf
        self.sf = sf

    nominal_s = reference.NOMINAL_S

    def prepare(self, seed):
        pass

    def reference(self) -> float:
        return reference.kernel()

    def stream(self, seed, key=0):
        """Each cycle: four implicit bump runs (one per grid size), one
        explicit run and one soliton translation run, in a seeded order.
        Each kind alternates K = 0 and K = -1 and stratifies its bump."""
        rng = np.random.default_rng([key, seed])
        ops = [("implicit", m) for m in self.implicit_nodes]
        ops += [("explicit", self.explicit_nodes), ("translate", self.translate_nodes)]
        draws = {op: stratified(rng, 2, 4) for op in ops}
        for cycle in itertools.count():
            for j in rng.permutation(len(ops)):
                scheme, nodes = ops[j]
                uk, ua, uw, uc = next(draws[ops[j]])
                yield {"kind": f"{scheme}_{nodes}", "cycle": cycle,
                       "scheme": scheme, "nodes": int(nodes),
                       "K": 0.0 if uk < 0.5 else -1.0,
                       "amplitude": 0.02 + 0.06 * ua,
                       "width": 0.3 + 0.5 * uw,
                       "center": 2.0 + 3.0 * uc}

    def warmup_specs(self, seed):
        """One op per scheme; the implicit one on the smallest grid."""
        specs = {}
        for spec in self.stream(seed, key=1):
            if spec["nodes"] in (self.implicit_nodes[0], self.explicit_nodes,
                                 self.translate_nodes):
                specs.setdefault(spec["scheme"], spec)
            if len(specs) == 3:
                return list(specs.values())

    def run(self, spec, tr):
        sf, kind = self.sf, spec["scheme"]
        with tr.span("warp_models.make_builtin_warp"):
            warp = sf.make_builtin_warp("rotational", spec["K"])
        with tr.span("mcf_flow.FlowProblem"):
            prob = sf.FlowProblem(1.0, 2, warp, r_max=10.0, n_nodes=spec["nodes"])
        out = {"spec": spec}
        if kind == "translate":
            with tr.span("mcf_flow.soliton_initial"):
                u0 = sf.soliton_initial(prob)
            with tr.span("mcf_flow.FlowProblem.pin_boundary_slopes"):
                prob.pin_boundary_slopes(u0)
            dtau, steps, every = 1e-3, self.translate_steps, self.translate_steps // 2
            scheme = "implicit"
        else:
            with tr.span("mcf_flow.discrete_soliton"):
                base = sf.discrete_soliton(prob)
            with tr.span("mcf_flow.bump_initial"):
                u0 = sf.bump_initial(prob, amplitude=spec["amplitude"],
                                     width=spec["width"], center=spec["center"],
                                     base=base)
            if kind == "implicit":
                dtau, steps, every, scheme = 5e-4, self.implicit_steps, 2, "implicit"
            else:
                with tr.span("mcf_flow.FlowProblem.stability_bound"):
                    dtau = 0.9 * prob.stability_bound()
                steps, every, scheme = self.explicit_steps, 20, "explicit"
        with tr.span("mcf_flow.FlowProblem.run"):
            traj = prob.run(u0, dtau, steps * dtau, scheme=scheme, record_every=every)
        # a translation run is checked by its speed; F is not normalised for
        # soliton_initial heights, so the F/D balance does not apply to it
        out["verdict"] = {}
        if kind != "translate":
            with tr.span("mcf_flow.FlowTrajectory.monotonicity_check"):
                out["verdict"] = traj.monotonicity_check()
        out.update(u0=u0, traj=traj, steps=steps, every=every, dtau=dtau)
        return out

    def check(self, out):
        spec, traj, verdict = out["spec"], out["traj"], out["verdict"]
        steps, every, dtau = out["steps"], out["every"], out["dtau"]
        u_end = traj.snapshots[-1].u
        _require(traj.taus.size == steps // every + 1, "wrong number of records")
        _require(abs(traj.taus[-1] - steps * dtau) <= 1e-12, "flow stopped early")
        _require(_finite(traj.F_values, traj.defect_values, u_end),
                 "non-finite flow record")
        _require(np.all(traj.defect_values >= -1e-12), "negative defect D")
        if spec["scheme"] == "translate":
            # a soliton translates at speed c = 1 (acceptance criterion 09)
            err = np.max(np.abs(u_end - out["u0"] - traj.taus[-1]))
            _require(err <= 5e-5, f"soliton translation error {err:.2e}")
        failed = [name for name in ("F_nonincreasing", "balance_ok")
                  if not verdict.get(name, True)]
        return OpResult(spec["kind"], not failed,
                        _digest(traj.taus, traj.F_values, traj.defect_values, u_end),
                        {"steps": steps},
                        failed)


# -- cli_pipeline --------------------------------------------------------

def write_points_csv(path: Path, n_points: int, seed: int):
    """Seeded points on the upper sheet of the hyperboloid in R^{2,1},
    with a height column, in the CLI's point-CSV format."""
    rng = np.random.default_rng([2, seed])
    rho = rng.uniform(0.0, 3.0, n_points)
    theta = rng.uniform(0.0, 2 * math.pi, n_points)
    height = rng.uniform(-1.0, 1.0, n_points)
    pts = np.column_stack((np.cosh(rho), np.sinh(rho) * np.cos(theta),
                           np.sinh(rho) * np.sin(theta), height))
    lines = ["x0,x1,x2,height"]
    lines += [",".join(f"{v:.17g}" for v in row) for row in pts]
    path.write_text("\n".join(lines) + "\n")
    return pts


def _read_rows(path: Path) -> np.ndarray:
    rows = [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    return np.array([[float(v) if v else math.nan for v in r.split(",")]
                     for r in rows])


class CliPipeline:
    """The README quickstart, one fresh interpreter per command."""

    name = "cli_pipeline"
    cycle_len = 8
    PASS = ("soliton_bowl", "soliton_wing", "soliton_grim", "verify", "flow",
            "sweep_wing", "sweep_bowl", "isometry")
    TIMEOUT_S = 150

    def __init__(self, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.n_points = 2000 if tiny else 20_000
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env.pop("SOLITON_FORGE_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        self.env = env
        self.points = workdir / "points.csv"
        self.last_bowl_csv = None

    # the commands run in child processes, whose speed a kernel timed in
    # this process does not track (NOTES.md); the gauge is a fresh process
    # that does what a command does besides the program's own work
    nominal_s = reference.NOMINAL_PROCESS_S

    def reference(self) -> float:
        return reference.process_time(self.env, self.workdir)

    def prepare(self, seed):
        self.points_in = write_points_csv(self.points, self.n_points, seed)

    def stream(self, seed, key=0):
        """Passes over the quickstart commands in a fixed order.

        Solver arguments are the README's, whose checks pass; the seed draws
        the isometry parameter and the bowl sweep's speeds, whose outputs
        carry no check verdict, so every pass has the same verdicts.
        """
        rng = np.random.default_rng([key, seed])
        fixed = ["--K", "-1", "--c", "1"]
        for cycle in itertools.count():
            c_values = ",".join(f"{v:.6g}" for v in np.sort(rng.uniform(0.5, 2.0, 4)))
            argvs = {
                "soliton_bowl": ["soliton", "bowl", *fixed, "--n", "2",
                                 "--r-max", "10"],
                "soliton_wing": ["soliton", "wing", *fixed, "--epsilon", "0.5"],
                "soliton_grim": ["soliton", "grim", *fixed],
                "verify": ["verify", "--input", None],
                "flow": ["flow", "--scheme", "implicit", "--dtau", "1e-3",
                         "--horizon", "0.1"],
                "sweep_wing": ["sweep", "--family", "wing", *fixed,
                               "--epsilons", "0.1,0.5,1,2"],
                "sweep_bowl": ["sweep", "--family", "bowl", "--K", "-1",
                               "--c-values", c_values],
                "isometry": ["isometry", "--map", "parabolic", "--param",
                             f"{rng.uniform(0.3, 1.0):.6g}", "--points", None],
            }
            for kind in self.PASS:
                yield {"kind": kind, "cycle": cycle, "args": argvs[kind]}

    def warmup_specs(self, seed):
        stream = self.stream(seed, key=1)
        return [next(stream) for _ in self.PASS]

    def spawn(self, args, out_dir: Path):
        log = out_dir.parent
        argv = [sys.executable, "-m", "soliton_forge.cli", "--out", str(out_dir)]
        with open(log / "stdout", "wb") as so, open(log / "stderr", "wb") as se:
            proc = subprocess.Popen(argv + args, cwd=out_dir, env=self.env,
                                    stdout=so, stderr=se)
            timer = threading.Timer(self.TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def run(self, spec, tr):
        args = list(spec["args"])
        if spec["kind"] == "verify":
            args[args.index(None)] = str(self.last_bowl_csv)
        elif spec["kind"] == "isometry":
            args[args.index(None)] = str(self.points)
        op_dir = Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))
        out_dir = op_dir / "out"
        out_dir.mkdir()
        with tr.span(f"cli.{args[0]}"):
            code, rss = self.spawn(args, out_dir)
        if spec["kind"] == "soliton_bowl":
            self.last_bowl_csv = out_dir / "bowl.csv"
        return {"spec": spec, "code": code, "rss_kb": rss, "op_dir": op_dir}

    def check(self, out):
        kind, code, op_dir = out["spec"]["kind"], out["code"], out["op_dir"]
        stdout = (op_dir / "stdout").read_text()
        # exit code 2 is the program's own verification verdict
        verdict_codes = {"verify", "sweep_wing"}
        _require(code == 0 or (code == 2 and kind in verdict_codes),
                 f"{kind} exited {code}: "
                 f"{(op_dir / 'stderr').read_text().strip()[-300:]}")
        written = [Path(line[len("wrote "):]) for line in stdout.splitlines()
                   if line.startswith("wrote ")]
        _require(written, f"{kind} reported no artifacts")
        for path in written:
            _require(path.is_file() and path.stat().st_size > 0,
                     f"{kind}: artifact {path.name} missing or empty")
        ok = code == 0
        if kind.startswith("soliton_") and kind != "soliton_grim":
            ok = ok and "diagnostics: pass" in stdout
        elif kind == "flow":
            ok = "F non-increasing: True" in stdout
        elif kind == "isometry":
            self._check_isometry(written[0])
        h = hashlib.sha256()
        for path in sorted(written, key=lambda p: p.name):
            h.update(path.name.encode() + path.read_bytes())
        nbytes = sum(p.stat().st_size for p in written)
        if kind != "soliton_bowl":
            shutil.rmtree(op_dir, ignore_errors=True)
        return OpResult(kind, ok, h.hexdigest()[:16],
                        {"bytes_written": nbytes}, [] if ok else [kind],
                        rss_kb=out["rss_kb"])

    def _check_isometry(self, path: Path):
        rows = _read_rows(path)
        _require(rows.shape == self.points_in.shape, "isometry lost points")
        x = rows[:, :3]
        form = -x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2
        _require(np.all(np.abs(form + 1.0) <= 1e-9 * x[:, 0] ** 2),
                 "isometry image left the hyperboloid")
        # a parabolic translation keeps the horosphere level x0 + x1
        before = self.points_in[:, 0] + self.points_in[:, 1]
        _require(np.allclose(x[:, 0] + x[:, 1], before, rtol=1e-9, atol=1e-12),
                 "isometry moved horosphere levels")
        _require(np.array_equal(rows[:, 3], self.points_in[:, 3]),
                 "isometry changed heights")


WORKLOADS = {w.name: w for w in (ConstructVerify, FlowMonotone, CliPipeline)}
