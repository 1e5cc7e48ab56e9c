#!/usr/bin/env python3
"""kpidyn benchmark: one closed-loop client per run, one workload per run.

    python3 bench/run.py --workload bvp-well --seed 1 --seconds 30 --trace 0

Run from the root of a kpidyn checkout; the package is imported from its
``src/`` directory.  Workloads (see bench/README.md for why each exists):

  bvp-well  shooting and direct solves of seeded quadratic wells
  bvp-grid  solves and long forward runs on seeded tabulated landscapes
  cli-lab   sessions of the kpidyn command line on fixed files

The run executes whole rounds of its workload's op schedule: first the
workload's ``tail_rounds`` (one when traced), then more only while the
last round's duration says the next one ends within ``--seconds``.  The
tail latency is taken over those first rounds, so every run compares
the same ops.
Every op's result is checked against a reference outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
rounds with every public kpidyn function and method traced, replays each
round untraced right after it to measure the tracing overhead, and
prints the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines above it
give the environment, the failure breakdown and the tail percentile.
Full results, and the spans of a traced run, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("bvp-well", "bvp-grid", "cli-lab")
SETUP_SAMPLES = 5           # set-up runs per benchmark run; the median is reported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10            # the tail percentile keeps at least this many ops above it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


# -- set-up -------------------------------------------------------------------

def timed_setup(workload: str, seed: int, workdir: str):
    """Import kpidyn, build round 0 and run one warm-up op; input generation untimed.

    Returns (timings, workload object, state, round-0 ops).
    """
    if not (SRC / "kpidyn" / "__init__.py").is_file():
        fail(f"no kpidyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    importlib.import_module("kpidyn")
    importlib.import_module("kpidyn.cli")
    t_import = time.perf_counter() - t0

    sys.path.insert(0, str(BENCH))
    import workloads                       # numpy/scipy are loaded by now
    wl = workloads.WORKLOADS[workload]
    state = wl.prepare(seed, workdir)
    inputs = wl.generate(state, 0)

    t0 = time.perf_counter()
    ops = wl.build(state, inputs)
    t_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    try:
        ops[0].run()
    except Exception:
        pass                               # round 0 runs it again and records it
    t_warm = time.perf_counter() - t0
    timings = {"import_s": t_import, "build_s": t_build, "warmup_s": t_warm,
               "setup_s": t_import + t_build + t_warm}
    return timings, wl, state, ops


def setup_in_child(workload: str, seed: int) -> dict:
    """One set-up sample in a fresh interpreter, so the import is cold."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=150, cwd=str(ROOT))
    if proc.returncode != 0:
        fail(f"set-up sample failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def make_workdir() -> str:
    OUT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="work-", dir=OUT)


# -- environment --------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kpidyn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    def blas_info(show_config):
        deps = show_config(mode="dicts").get("Build Dependencies", {})
        return {k: deps.get("blas", {}).get(k)
                for k in ("name", "version", "openblas configuration")}

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas_info(numpy.show_config),
        "scipy_blas": blas_info(scipy.show_config), "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(), "cpu_model": cpu_model(), "platform": platform.platform(),
        "git_commit": git_commit(), "source_sha256": source_digest(), "seed": seed,
    }


def refuse_overload(env: dict, load_processes: int) -> None:
    """Refuse a run whose load would start more threads or processes than nproc."""
    cores = env["nproc"]
    threads = load_processes * max(env["blas_threads"].values(), default=1)
    if threads > cores:
        fail(f"load of {load_processes} process(es) x BLAS threads = {threads} "
             f"exceeds nproc={cores}", code=3)


# -- the closed loop ----------------------------------------------------------

def execute(op, op_id, rnd, tracer, workloads) -> dict:
    if tracer is not None:
        tracer.op = op_id
    status, message, out = "ok", "", None
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:
        status = exc.error if isinstance(exc, workloads.CliFailed) else type(exc).__name__
        message = str(exc)[:300]
        if not isinstance(exc, op.allowed):     # not an honest "no answer": a bug
            status = f"unexpected.{status}"
    finally:
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
    wrong = status.startswith("unexpected.")
    if status == "ok":
        try:
            op.check(out)
        except Exception as exc:
            status, message, wrong = "check", str(exc)[:300], True
    return {"kind": op.kind, "round": rnd, "latency": latency, "status": status,
            "message": message, "wrong": wrong}


def run_rounds(wl, state, first_ops, budget_s, workloads, min_rounds=1, tracer=None):
    """Run min_rounds rounds, then whole rounds until the budget is used up.

    With a tracer, each traced round is followed by an untraced replay of
    the same inputs; alternating the two keeps drift in machine speed out
    of the tracing overhead.  Returns (records, replay records, rounds).
    """
    records, replay = [], []
    started = time.perf_counter()
    rnd = 0
    while True:
        round_start = time.perf_counter()
        ops = first_ops if rnd == 0 else wl.build(state, wl.generate(state, rnd))
        for op in ops:
            records.append(execute(op, len(records), rnd, tracer, workloads))
        if tracer is not None:
            tracer.uninstall()
            for op in wl.build(state, wl.generate(state, rnd)):
                replay.append(execute(op, len(replay), rnd, None, workloads))
            tracer.install()
        rnd += 1
        now = time.perf_counter()
        if rnd >= min_rounds and (now - started) + (now - round_start) > budget_s:
            break
    return records, replay, rnd


# -- metrics ------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND ops above it.

    Returns (latency, percentile, ops above it); with too few ops, the maximum.
    """
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def round_throughput(records) -> float:
    """Median over rounds of passed ops per second of op time.

    A round-level median keeps one rare, slow failure (a shooting solve
    that runs out of Newton iterations) from setting a run's throughput;
    failures still count in ok_ratio and in the latency percentiles.
    """
    ok, busy = Counter(), Counter()
    for r in records:
        ok[r["round"]] += r["status"] == "ok"
        busy[r["round"]] += r["latency"]
    return statistics.median(ok[k] / busy[k] for k in busy)


def tail_latencies(records, tail_rounds) -> list[float]:
    return [r["latency"] for r in records if r["round"] < tail_rounds]


def end_to_end(records, setup_s, tail_rounds) -> dict[str, tuple[float, str]]:
    lat = [r["latency"] for r in records]
    ok = sum(1 for r in records if r["status"] == "ok")
    tail_s, _, _ = tail(tail_latencies(records, tail_rounds))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (round_throughput(records), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def summarize(records, tail_rounds) -> dict:
    by_kind = defaultdict(list)
    failures = defaultdict(Counter)
    for r in records:
        by_kind[r["kind"]].append(r["latency"])
        if r["status"] != "ok":
            failures[r["kind"]][r["status"]] += 1
    tail_ops = tail_latencies(records, tail_rounds)
    tail_s, pct, beyond = tail(tail_ops)
    return {
        "ops": len(records),
        "tail": {"value_ms": 1e3 * tail_s, "percentile": pct, "ops": len(tail_ops),
                 "rounds": tail_rounds, "ops_beyond": beyond},
        "failures_by_type": dict(Counter(r["status"] for r in records if r["status"] != "ok")),
        "failures_by_kind": {k: dict(v) for k, v in failures.items()},
        "failure_messages": sorted({f'{r["kind"]}: {r["message"]}'
                                    for r in records if r["status"] != "ok"})[:20],
        "median_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
    }


def emit(result: dict, report: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump({"result": result, **report}, fh, indent=2)
    summary = report["summary"]
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    if "setup_samples" in report:
        print("setup samples (s): " + ", ".join(f'{s["setup_s"]:.4f}'
                                                for s in report["setup_samples"]))
    print(f'ops: {summary["ops"]} in {report["rounds"]} round(s); failures by type: '
          + json.dumps(summary["failures_by_type"], sort_keys=True))
    print("failures by op: " + json.dumps(summary["failures_by_kind"], sort_keys=True))
    t = summary["tail"]
    print(f'op_tail_ms at p{t["percentile"]:.1f} of {t["ops"]} ops in the first '
          f'{t["rounds"]} round(s) ({t["ops_beyond"]} beyond): {t["value_ms"]:.3f} ms')
    for name, metric in result["metrics"].items():
        print(f'{name} = {metric["value"]:.6g} {metric["unit"]}')
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread per process, set before numpy loads, so the load is
    # one thread per client or pool worker; set-up children and forked pool
    # workers inherit it.  An explicit setting in the environment wins.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    workdir = make_workdir()
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    timings, wl, state, first_ops = timed_setup(args.workload, args.seed, workdir)
    import workloads
    from tracing import Tracer, per_layer_metrics

    env = environment(args.seed)
    refuse_overload(env, wl.load_processes)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"environment": env, "workload": args.workload, "seconds": args.seconds}

    if args.trace == 0:
        samples = [timings] + [setup_in_child(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        records, _, rounds = run_rounds(wl, state, first_ops, args.seconds, workloads,
                                        min_rounds=wl.tail_rounds)
        metrics = end_to_end(records, statistics.median(s["setup_s"] for s in samples),
                             wl.tail_rounds)
        report["setup_samples"] = samples
        replay = []
    else:
        tracer = Tracer()
        tracer.install()
        try:
            records, replay, rounds = run_rounds(wl, state, first_ops, args.seconds,
                                                 workloads, tracer=tracer)
        finally:
            tracer.uninstall()
        untraced_s = sum(r["latency"] for r in replay)
        first = {i for i, r in enumerate(records) if r["round"] == 0}
        metrics = per_layer_metrics(tracer, records, first, untraced_s)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        report["untraced_replay_s"] = untraced_s
    failed = sum(1 for r in records if r["status"] != "ok")
    wrong = any(r["wrong"] for r in records + replay)
    report.update(rounds=rounds, summary=summarize(records, min(rounds, wl.tail_rounds)))
    result = {"correct": not wrong, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    emit(result, report, OUT / f"result-{tag}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
