"""qarrival benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root (no install step; the library is imported
from ``src/``):

    python3 benchmarks/run.py --workload beam_scan --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --self-check

A run repeats its workload's fixed job until ``--seconds`` have passed and
reports medians.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` alternates an untraced phase with a traced
phase and reports the per-layer metrics.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the environment.  A fuller record
(rep times, every check, checksums, environment) goes to ``.bench_out/``,
and the spans of a traced run to ``.bench_out/<workload>.spans.npz``.

BLAS threads and ``QARRIVAL_THREADS`` are pinned to 1; the whole benchmark
runs in one process and one thread, apart from the set-up probes, which
run one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "QARRIVAL_THREADS": "1"}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


class EnvironmentFailure(Exception):
    """The checkout cannot run the benchmark (no library, no BENCHMARK.json)."""


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise EnvironmentFailure(f"cannot read {path}: {exc}") from exc


def _import_library():
    """Import qarrival from this checkout's ``src/`` and the workload code."""
    if not os.path.isdir(os.path.join(SRC, "qarrival")):
        raise EnvironmentFailure(f"no qarrival sources under {SRC}")
    sys.path.insert(0, SRC)
    import qarrival
    if not os.path.abspath(qarrival.__file__).startswith(SRC + os.sep):
        raise EnvironmentFailure(f"qarrival imported from {qarrival.__file__}, not {SRC}")
    import workloads
    return workloads


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment():
    import numpy
    import scipy
    pkg = os.path.join(SRC, "qarrival")
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {k: os.environ.get(k) for k in PINNED if k != "QARRIVAL_THREADS"},
        "QARRIVAL_THREADS": os.environ.get("QARRIVAL_THREADS"),
        "git_commit": _git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def _workload(wl_mod, name, seed, tiny, subdir):
    reference = _load_json(os.path.join(HERE, "reference.json"))
    size = "tiny" if tiny else "full"
    return wl_mod.WORKLOADS[name](seed, tiny, os.path.join(OUT_DIR, name, subdir),
                                  reference[size].get(name, {}))


# ---------------------------------------------------------------------------
# set-up time: fresh processes that import everything and build the inputs
# ---------------------------------------------------------------------------

def probe_setup(args):
    """Child side of a set-up probe: import, build inputs, say ready."""
    wl_mod = _import_library()
    wl = _workload(wl_mod, args.workload, args.seed, args.tiny, "probe")
    wl.make_inputs(0)
    print("ready", flush=True)


def measure_setup(args, probes):
    """Median time from process start to ready over ``probes`` fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------------

class Run:
    """Repetitions of one workload's job, with their timings and checks."""

    def __init__(self, wl, cache_info, check_cls):
        self.wl = wl
        self.cache_info = cache_info
        self.check_cls = check_cls
        self.checks = []
        self.reps = {False: [], True: []}  # traced -> list of rep records

    def phase(self, seconds, tracer=None):
        """Repeat the job for ``seconds`` (at least once); False if the job raised."""
        traced = tracer is not None
        plain_quad = self.wl.quad
        deadline = time.perf_counter() + seconds
        rep = 0
        while True:
            inp = self.wl.make_inputs(rep)
            before = self.cache_info()
            if traced:
                tracer.install()
                self.wl.quad = tracer.wrap("bench.quad", plain_quad)
            try:
                t0 = time.perf_counter()
                out = self.wl.job(inp)
                elapsed = time.perf_counter() - t0
            except Exception as exc:  # a failing job is a failed check, not a crash
                self.checks.append(self.check_cls("job", False, repr(exc)))
                return False
            finally:
                if traced:
                    tracer.uninstall()
                    self.wl.quad = plain_quad
            after = self.cache_info()
            self.reps[traced].append({
                "s": elapsed,
                "work": self.wl.work(inp, out),
                "cache_hits": after.hits - before.hits,
                "cache_misses": after.misses - before.misses,
                "latency": out.get("latency", []),
            })
            try:
                self.checks.extend(self.wl.check(inp, out))
            except Exception as exc:
                self.checks.append(self.check_cls("check", False, repr(exc)))
            rep += 1
            if time.perf_counter() >= deadline:
                return True

    def finish(self):
        try:
            self.checks.extend(self.wl.final_checks())
        except Exception as exc:
            self.checks.append(self.check_cls("final", False, repr(exc)))

    def median(self, key, traced=False):
        return statistics.median(r[key] for r in self.reps[traced])

    def throughput(self):
        return statistics.median(r["work"] / r["s"] for r in self.reps[False])

    def hit_share(self, traced):
        hits = sum(r["cache_hits"] for r in self.reps[traced])
        total = hits + sum(r["cache_misses"] for r in self.reps[traced])
        return hits / total if total else 0.0


def _percentile_ms(samples, q):
    if not samples:
        return 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end_metrics(run, setup_s):
    return {
        "setup_s": setup_s,
        "run_s": run.median("s"),
        "throughput": run.throughput(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run, tracer):
    from tracing import FUNCTIONS, METHODS
    jobs = len(run.reps[True])
    summary = tracer.summary()
    out = {}

    def stat(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0, "work2": 0.0})

    traced_names = [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS] + ["bench.quad"]
    for name in traced_names:
        st = stat(name)
        out[f"{name}.calls"] = st["calls"] / jobs
        out[f"{name}.s"] = st["s"] / jobs
        out[f"{name}.self_s"] = st["self_s"] / jobs
        for work_name in ("nodes", "points", "records"):
            out[f"{name}.{work_name}"] = st["work"] / jobs
    # solver cost per node^2: inclusive solver seconds over the sum of M^2
    solvers = [stat(n) for n in ("propagate.solve_renewal", "propagate.solve_volterra")]
    node2 = sum(st["work2"] for st in solvers)
    out["propagate.ns_per_node2"] = sum(st["s"] for st in solvers) / node2 * 1e9 if node2 else 0.0
    evaluators = [stat(m[0]) for m in METHODS]
    calls = sum(st["calls"] for st in evaluators)
    out["intensity.evaluator.points_per_call"] = (
        sum(st["work"] for st in evaluators) / calls if calls else 0.0)
    out["intensity.beam_table.hit_share"] = run.hit_share(True)
    latency = [x for r in run.reps[False] for x in r["latency"]]
    out["cli.main.p50_ms"] = _percentile_ms(latency, 50)
    out["cli.main.p90_ms"] = _percentile_ms(latency, 90)
    out["bench.run_s_untraced"] = run.median("s", False)
    out["bench.run_s_traced"] = run.median("s", True)
    out["bench.trace_overhead_s"] = out["bench.run_s_traced"] - out["bench.run_s_untraced"]
    out["bench.spans_per_job"] = len(tracer.spans) / jobs
    return out


def _select(values, specs):
    """The metrics that BENCHMARK.json names, with their units, in its order."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]} for s in specs}


def run_workload(args, wl_mod, spec):
    """One benchmark run; returns (result line, full record)."""
    from tracing import Tracer
    import qarrival.intensity as intensity

    setup_s = probe_times = None
    if not args.trace:
        setup_s, probe_times = measure_setup(args, 1 if args.tiny else SETUP_PROBES)
    wl = _workload(wl_mod, args.workload, args.seed, args.tiny, "run")
    run = Run(wl, intensity._beam_tables.cache_info, wl_mod.Check)
    tracer = None
    if args.trace:
        tracer = Tracer()
        ok = run.phase(args.seconds / 2.0) and run.phase(args.seconds / 2.0, tracer)
    else:
        ok = run.phase(args.seconds)
    if ok:
        run.finish()
    failed = sum(not c.ok for c in run.checks)
    metrics = {}
    if ok:
        if args.trace:
            values = per_layer_metrics(run, tracer)
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.save(os.path.join(OUT_DIR, f"{args.workload}.spans.npz"))
            metrics = _select(values, spec["per_layer"])
        else:
            metrics = _select(end_to_end_metrics(run, setup_s), spec["end_to_end"])
    result = {"correct": failed == 0, "attempted": len(run.checks), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(),
        "setup_probe_s": probe_times, "metrics": metrics,
        "reps": {("traced" if k else "untraced"): [
            {key: r[key] for key in ("s", "work", "cache_hits", "cache_misses")} for r in v]
            for k, v in run.reps.items()},
        "beam_table_hit_share": run.hit_share(False),
        "work_unit": wl.work_unit,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in run.checks],
        "checksums": wl.measured,
    }
    return result, record


def _write_record(record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{record['workload']}-seed{record['seed']}"
                                 f"-trace{record['trace']}{'-tiny' if record['tiny'] else ''}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


# ---------------------------------------------------------------------------
# self-check: every workload, check and metric name at tiny sizes
# ---------------------------------------------------------------------------

def self_check(wl_mod, spec):
    problems = []
    for name in wl_mod.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=trace,
                                      tiny=True)
            t0 = time.perf_counter()
            result, record = run_workload(args, wl_mod, spec)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            ran = {c["name"] for c in record["checks"]}
            unrun = [c for c in wl_mod.WORKLOADS[name].check_names if c not in ran]
            failed = [c for c in record["checks"] if not c["ok"]]
            status = "ok" if not (missing or bad or unrun or failed) else "FAIL"
            print(f"self-check {name} trace={trace}: {status} "
                  f"({len(record['checks'])} checks, {len(result['metrics'])} metrics, "
                  f"{time.perf_counter() - t0:.1f}s)")
            for label, items in (("missing metrics", missing), ("non-finite metrics", bad),
                                 ("checks never run", unrun), ("failed checks", failed)):
                if items:
                    problems.append(f"{name} trace={trace} {label}: {items}")
    for p in problems:
        print(p)
    return not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="beam_scan")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="sizes that run in about a second, one set-up probe")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny sizes and check every name")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(PINNED)  # before numpy loads its BLAS
    try:
        spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
        wl_mod = _import_library()
    except (EnvironmentFailure, ImportError) as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        probe_setup(args)
        return 0
    if args.self_check:
        return 0 if self_check(wl_mod, spec) else 1
    if args.workload not in wl_mod.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, record = run_workload(args, wl_mod, spec)
    path = _write_record(record)
    env = record["environment"]
    print(f"record {os.path.relpath(path, ROOT)}")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"FAILED CHECK {c['name']}: {c['detail']}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
