"""soliton-forge benchmark: one closed-loop client, one op at a time.

    python3 bench/run.py --workload construct_verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs two copies of the op stream, one untraced and one
traced, a cycle of each in turn; it reports the tracing overhead and the
per-layer span self times, then runs the probe phase (probes.py) for the
per-layer metrics.  ``--self-check`` runs every workload at a tiny size in both modes.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A longer report, with the environment facts, per-op records and
span table, goes to .bench_out/.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# latency_tail_ms and failed_frac are printed but are not JSON metrics: the
# tail is too unsteady for a bound, failed_frac is 0 on two workloads
# (NOTES.md)
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "peak_rss_mb": "MB", "checks_passed_frac": "frac"}
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def _require_source():
    if not (SRC / "soliton_forge" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'soliton_forge'}; "
                 "run from the root of a soliton-forge checkout")
    sys.path.insert(0, str(SRC))


def environment(seed) -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip()
                for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(index / "level")
        if level in ("2", "3"):
            caches[f"l{level}_cache"] = read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "soliton_forge").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "l2_cache": caches.get("l2_cache"),
            "l3_cache": caches.get("l3_cache"), "git_commit": commit,
            "src_sha256": src.hexdigest()[:16], "seed": seed}


def tail(values) -> tuple:
    """Highest order statistic with TAIL_BEYOND samples above it, as
    (value, percentile); the median when there are too few samples."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < (len(ordered) + 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def closed_loop(workload, stream, tracer, seconds=None, max_ops=None,
                first_op=0) -> dict:
    """Run ops back to back until ``seconds`` pass or ``max_ops`` ran.

    Each op's record has its kind, cycle, start and end (after its output
    check) and latency (the timed program calls only).  The workload's
    speed gauge runs between consecutive ops, outside both, and each op's
    ``speed`` is the mean of the gauge times just before and just after it
    over the gauge's nominal time.
    """
    records = []
    before = workload.reference()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds) if max_ops is None \
            else len(records) < max_ops:
        spec = next(stream)
        rec = {"op": first_op + len(records), "kind": spec["kind"],
               "cycle": spec["cycle"]}
        tracer.op_id = rec["op"]
        t0 = time.perf_counter()
        rec["start"] = t0 - start
        try:
            with tracer.span("bench.op"):
                out = workload.run(spec, tracer)
            rec["latency_s"] = time.perf_counter() - t0
            res = workload.check(out)
        except Exception as exc:  # keep the loop going; the op counts as failed
            rec.setdefault("latency_s", time.perf_counter() - t0)
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["where"] = traceback.format_exc(limit=-2)
        else:
            rec.update(checks_ok=res.checks_ok, failed_checks=res.failed_checks,
                       digest=res.digest, counts=res.counts, rss_kb=res.rss_kb)
        rec["end"] = time.perf_counter() - start
        after = workload.reference()
        rec["speed"] = (before + after) / 2 / workload.nominal_s
        before = after
        records.append(rec)
    return {"ops": records, "elapsed_s": time.perf_counter() - start}


def alternating(workload, seed, seconds, max_pairs=None):
    """Untraced and traced copies of one op stream, a cycle of each in turn,
    so that drift in machine speed hits both alike.  A new pair starts only
    if the last pair's duration still fits in ``seconds``."""
    from tracing import NullTracer, Tracer
    tracer = Tracer()
    streams = [workload.stream(seed), workload.stream(seed)]
    runs = [{"ops": [], "elapsed_s": 0.0} for _ in range(2)]
    start = time.perf_counter()
    pairs, pair_s = 0, 0.0
    while (time.perf_counter() - start + pair_s <= seconds or pairs == 0) \
            if max_pairs is None else pairs < max_pairs:
        t0 = time.perf_counter()
        for run, stream, tr in zip(runs, streams, (NullTracer(), tracer)):
            part = closed_loop(workload, stream, tr, max_ops=workload.cycle_len,
                               first_op=pairs * workload.cycle_len)
            run["ops"] += part["ops"]
            run["elapsed_s"] += part["elapsed_s"]
        pairs += 1
        pair_s = time.perf_counter() - t0
    return runs, tracer


def summarize(run: dict, workload) -> dict:
    """End-to-end figures that depend neither on where the run's op mix
    happened to stop nor on how fast the shared machine ran meanwhile.

    Each op's times are first divided by its own speed factor, taken from
    the speed gauge timed just before and after it (reference.py), so that
    they read at the nominal machine speed; raw figures go to the report.  Kinds differ in cost by up to 5x, so a median over the pooled
    ops jumps between kinds; instead latency_p50 is the geometric mean over
    kinds of each kind's median, and the tail scales it by the high
    percentile of each op's latency over its kind's median.  ops_per_s is
    the median over complete cycles (one op of each kind) of ops per second
    of op time (run plus output check).
    """
    ops, cycle_len = run["ops"], workload.cycle_len

    def kind_medians(key):
        by_kind = {}
        for op in ops:
            by_kind.setdefault(op["kind"], []).append(key(op))
        return {k: statistics.median(v) for k, v in by_kind.items()}

    medians = kind_medians(lambda op: op["latency_s"] / op["speed"])
    raw_medians = kind_medians(lambda op: op["latency_s"])
    p50 = statistics.geometric_mean(medians.values())
    raw_p50 = statistics.geometric_mean(raw_medians.values())
    ratio, tail_pct = tail([op["latency_s"] / op["speed"] / medians[op["kind"]]
                            for op in ops])
    cycles = {}
    for op in ops:
        cycles.setdefault(op["cycle"], []).append(op)
    full = [c for c in cycles.values() if len(c) == cycle_len] or [ops]

    def rate(cycle, scale):
        return (sum("error" not in op for op in cycle)
                / sum((op["end"] - op["start"]) / scale(op) for op in cycle))

    ops_per_s = statistics.median(rate(c, lambda op: op["speed"]) for c in full)
    raw_ops_per_s = statistics.median(rate(c, lambda op: 1.0) for c in full)
    clean = [op for op in ops if "error" not in op]
    passed = sum(op["checks_ok"] for op in clean)
    counts = {}
    for op in clean:
        for name, value in op["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": p50 * ratio * 1e3,
        "speed_factor": statistics.median(op["speed"] for op in ops),
        "raw": {"ops_per_s": raw_ops_per_s, "latency_p50_ms": raw_p50 * 1e3},
        "tail_percentile": tail_pct,
        "samples": len(ops),
        "complete_cycles": sum(len(c) == cycle_len for c in cycles.values()),
        "kind_median_ms": {k: v * 1e3 for k, v in sorted(medians.items())},
        "checks_passed_frac": passed / len(ops),
        # ops that raised, failed an output check, or whose program-run
        # checks reported a failure
        "failed_frac": 1.0 - passed / len(ops),
        "failed_checks": sorted({c for op in clean for c in op["failed_checks"]}),
        "counts": counts,
    }


def peak_rss(name, ops) -> float:
    if name == "cli_pipeline":  # the largest child process
        return max((op.get("rss_kb", 0) for op in ops), default=0) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(name, seed, workdir, tiny):
    """Import every layer, build the workload and generate its inputs."""
    import soliton_forge.cli  # noqa: F401  (imports every layer)
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name](workdir, tiny=tiny)
    workload.prepare(seed)
    return workload


def warm_up(workload, seed):
    from tracing import NullTracer
    workload.reference()
    for spec in workload.warmup_specs(seed):
        workload.check(workload.run(spec, NullTracer()))


def setup_seconds(args, workdir) -> tuple:
    """Wall times of fresh set-up processes, each in its own directory, and
    the speed factor of the process gauge timed right after them."""
    import reference
    times = []
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    for i in range(1 if args.tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv + ["--workdir", str(workdir / f"setup-{i}")],
                       check=True, timeout=170)
        times.append(time.perf_counter() - t0)
    return times, reference.process_time() / reference.NOMINAL_PROCESS_S


def execute(args) -> int:
    from tracing import NullTracer, self_times

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed)}
    try:
        import soliton_forge.cli  # noqa: F401  compiles bytecode before timing set-up
        if not args.trace:
            report["setup_runs_s"], report["setup_speed"] = setup_seconds(args, workdir)
        workload = set_up(args.workload, args.seed, workdir, args.tiny)
        warm_up(workload, args.seed)
        max_ops = workload.cycle_len if args.tiny else None
        if not args.trace:
            run = closed_loop(workload, workload.stream(args.seed), NullTracer(),
                              args.seconds, max_ops)
            runs = [run]
            s = summarize(run, workload)
            s["peak_rss_mb"] = peak_rss(args.workload, run["ops"])
            # set-up is mostly interpreter start-up and import, which the
            # process gauge tracks and the in-process kernel does not
            s["raw"]["setup_s"] = statistics.median(report["setup_runs_s"])
            s["setup_s"] = s["raw"]["setup_s"] / report["setup_speed"]
            metrics = {k: s[k] for k in END_TO_END}
            units = END_TO_END
            consistent = True
        else:
            (plain, traced), tracer = alternating(
                workload, args.seed, args.seconds, 1 if args.tiny else None)
            runs = [plain, traced]
            s = {"untraced": summarize(plain, workload),
                 "traced": summarize(traced, workload)}
            # both ran the same op stream: op i must give the same output
            first = {op["op"]: op.get("digest") for op in plain["ops"]}
            consistent = all(first[op["op"]] == op.get("digest")
                             for op in traced["ops"])
            report["spans"] = self_times(tracer.spans)
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(tracer.as_records()))
            import probes
            import soliton_forge as sf
            probe = probes.run_probes(sf, workdir)
            # raw rates: the copies alternate, so drift already hits both,
            # and separate speed factors would only add their noise
            rates = [s[k]["raw"]["ops_per_s"] for k in ("untraced", "traced")]
            probe["tracing.overhead_ops_per_s"] = (rates[0] - rates[1], "1/s")
            metrics = {k: v for k, (v, _) in probe.items()}
            units = {k: u for k, (_, u) in probe.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [op for run in runs for op in run["ops"] if "error" in op]
    attempted = sum(len(run["ops"]) for run in runs)
    report.update(summary=s, metrics=metrics, units=units, consistent=consistent,
                  ops=[run["ops"] for run in runs])
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=str))

    print(f"environment: {json.dumps(report['environment'])}")
    for f in failures:
        print(f"FAILED op {f['op']} ({f['kind']}): {f['error']}", file=sys.stderr)
    if args.trace:
        print(f"tracing overhead: {metrics['tracing.overhead_ops_per_s']:.4g} ops/s "
              f"({s['untraced']['raw']['ops_per_s']:.4g} untraced, "
              f"{s['traced']['raw']['ops_per_s']:.4g} traced, raw)")
        print("self time of the traced ops, by layer and by call:")
        calls = report["spans"]["calls"]
        for layer, row in sorted(report["spans"]["layers"].items()):
            print(f"  {layer:42s} {row['calls']:6d} calls {row['self_s']:9.4f} s")
            for name in sorted(n for n in calls if n.startswith(layer + ".")):
                print(f"    {name:40s} {calls[name]['calls']:6d} calls "
                      f"{calls[name]['self_s']:9.4f} s")
    else:
        print(f"speed factor {s['speed_factor']:.4f} (speed gauge over nominal); "
              "raw: " + ", ".join(f"{k} {v:.6g}" for k, v in s["raw"].items()))
        print(f"{s['samples']} ops, {s['complete_cycles']} complete cycles; "
              f"latency_tail_ms = {s['latency_tail_ms']:.6g} ms "
              f"(p{s['tail_percentile']:.1f} of latency over kind median); "
              f"failed_frac = {s['failed_frac']:.4f} "
              f"(failing checks: {', '.join(s['failed_checks']) or 'none'})")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(json.dumps({"correct": consistent and not failures,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def setup_only(args) -> int:
    """One set-up, timed by the parent: import, inputs and one warm-up op
    per kind.  The CLI workload's warm-up is a whole pass of subprocesses,
    run once per run instead (see NOTES.md)."""
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    workload = set_up(args.workload, args.seed, workdir, args.tiny)
    if args.workload != "cli_pipeline":
        warm_up(workload, args.seed)
    return 0


def self_check() -> int:
    """Each workload at a tiny size, untraced and traced: every metric in
    BENCHMARK.json is printed with its unit, and both runs' ops give the
    same outputs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        digests = {}
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if done.returncode != 0:
                problems.append(f"{w['name']} trace {trace}: exit {done.returncode}"
                                f"\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{w['name']} trace {trace}: metrics {got} != {wanted[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w['name']} trace {trace}: not correct")
            report = json.loads((OUT / f"report-{w['name']}-seed1-trace{trace}.json")
                                .read_text())
            digests[trace] = [[op.get("digest") for op in ops] for ops in report["ops"]]
        if len(digests) == 2 and not (digests[0][0] == digests[1][0] == digests[1][1]):
            problems.append(f"{w['name']}: traced and untraced outputs differ")
        print(f"self-check {w['name']}: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, one op of each kind per phase")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    _require_source()
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    return execute(args)


if __name__ == "__main__":
    sys.exit(main())
