#!/usr/bin/env python3
"""Benchmark of the quditctx CLI as its users run it: fixed batches of jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one ``quditctx`` CLI call in a fresh Python process, run one at a
time (a closed loop with one client).  A pass runs every job of the workload
once, in an order shuffled by the seed; passes repeat while the time spent in
passes, plus one more pass, fits in ``--seconds``.  Every output is checked
against the paper's values and hashed; every repeat of a job must give the
same digest.

With ``--trace 0`` the last line reports the end-to-end metrics (medians over
passes).  With ``--trace 1`` untraced and traced passes alternate; a traced
pass runs each job under ``traced.py``, which records a span around each
layer's public functions, and the last line reports the per-layer metrics.
See README.md for the workloads and the layer-to-metric table.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import CERTIFIED, check_job
from traced import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Jobs known to end at their deadline get --budget-seconds 5; every other job
# closes well inside the default 60 s budget.  No job passes --jobs, --seed or
# --theta-cap, flags the roadmap plans to delete.
WORKLOADS = {
    # states and graphs do real work here (900-vertex graphs); chi ends bounded at d=3 tot
    "large-family": {
        "counts-d5-verify": ["counts", "-d", "5", "--verify"],
        "invariants-d5-sep": ["invariants", "-d", "5", "--family", "sep"],
        "invariants-d3-tot": ["invariants", "-d", "3", "--family", "tot"],
        "export-d5-sep": ["export", "-d", "5", "--family", "sep", "--format", "dimacs",
                          "--out", "export-d5-sep.dimacs"],
    },
    # small graphs: branch and bound, the d=7 alpha deadline, theta ADMM, bell
    "chsh-table": {
        "chsh-d3": ["chsh", "-d", "3", "--k-max", "4"],
        "chsh-d5": ["chsh", "-d", "5", "--k-max", "6"],
        "chsh-d7": ["chsh", "-d", "7", "--k-max", "10", "--budget-seconds", "5"],
        "pm": ["pm"],
        "kcbs": ["kcbs"],
        "alt-chsh": ["alt-chsh"],
    },
    # every field closes by work: exact chromatic search, rational simplex, theta
    "small-exact": {
        "invariants-d2-sep": ["invariants", "-d", "2", "--family", "sep"],
        "invariants-d2-ent": ["invariants", "-d", "2", "--family", "ent"],
        "invariants-d2-tot": ["invariants", "-d", "2", "--family", "tot"],
        "invariants-d3-ent": ["invariants", "-d", "3", "--family", "ent"],
        "invariants-d7-single": ["invariants", "-d", "7", "--family", "single"],
    },
}

SETUP_SAMPLES_PER_PASS = 3
JOB_TIMEOUT_S = 100.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# spans whose inclusive time is reported as <name>.s (chsh_scenario reports self time)
TIMED_LAYERS = [f"{mod}.{attr.split('.')[-1]}" for mod, attr, _ in LAYERS
                if attr != "chsh_scenario"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> (unit, value from get(layer, key), the totals of one traced pass)
DERIVED = {
    "states.enumerate_two_qudit.states": (
        "count", lambda get: get("states.enumerate_two_qudit", "states")),
    "graphs.orthogonality_graph.pairs": (
        "count", lambda get: get("graphs.orthogonality_graph", "pairs")),
    "graphs.orthogonality_graph.edges_per_pair": (
        "ratio", lambda get: _ratio(get("graphs.orthogonality_graph", "edges"),
                                    get("graphs.orthogonality_graph", "pairs"))),
    "graphs.complement.calls": ("count", lambda get: get("graphs.complement", "calls")),
    "graphs.to_dimacs.bytes": ("bytes", lambda get: get("graphs.to_dimacs", "bytes")),
    "invariants.max_clique.calls": ("count", lambda get: get("invariants.max_clique", "calls")),
    "invariants.max_clique.nodes": ("count", lambda get: get("invariants.max_clique", "nodes")),
    "invariants.max_clique.exact_ratio": (
        "ratio", lambda get: _ratio(get("invariants.max_clique", "exact"),
                                    get("invariants.max_clique", "calls"))),
    # node rate of the calls that stopped at their deadline
    "invariants.max_clique.nodes_per_s": (
        "1/s", lambda get: _ratio(get("invariants.max_clique", "bounded_nodes"),
                                  get("invariants.max_clique", "bounded_s"))),
    "invariants.chromatic_number.exact_ratio": (
        "ratio", lambda get: _ratio(get("invariants.chromatic_number", "exact"),
                                    get("invariants.chromatic_number", "calls"))),
    "invariants.maximal_cliques.count": (
        "count", lambda get: get("invariants.maximal_cliques", "count")),
    "invariants.lovasz_theta.iterations": (
        "count", lambda get: get("invariants.lovasz_theta", "iterations")),
    "invariants.lovasz_theta.converged_ratio": (
        "ratio", lambda get: _ratio(get("invariants.lovasz_theta", "converged"),
                                    get("invariants.lovasz_theta", "calls"))),
    "bell.chsh_scenario.self_s": ("s", lambda get: get("bell.chsh_scenario", "self_s")),
}

ALL_JOBS = sorted({job for jobs in WORKLOADS.values() for job in jobs})


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in the order reported."""
    names = [(f"{layer}.s", "s") for layer in TIMED_LAYERS]
    names += [(name, unit) for name, (unit, _) in DERIVED.items()]
    for job in ALL_JOBS:
        names += [(f"cli.{job}.wall_s", "s"), (f"cli.{job}.cpu_s", "s"),
                  (f"cli.{job}.unattributed_s", "s")]
    return names + [("trace_overhead_frac", "ratio"), ("calib_s", "s")]


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def _kill_group(pid: int, fired: list) -> None:
    fired.append(True)
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_job(job: str, args: list[str], traced: bool, work: Path, deadline: float) -> dict:
    """Run one CLI job to completion; wall time runs from spawn to exit."""
    out_path, err_path, spans_path = (work / f"{job}.{ext}" for ext in ("out", "err", "spans"))
    if traced:
        cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), "--", *args]
    else:
        cmd = [sys.executable, "-m", "quditctx.cli", *args]
    timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.perf_counter()))
    fired: list = []
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=work, env=child_env(),
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid, fired))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # pool workers share the job's process group; leave none behind
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    spans = None
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
        "timed_out": bool(fired),
        "spans": spans,
    }


def finish_job(job: str, args: list[str], res: dict, work: Path) -> None:
    """Check and hash a job's output in place: adds digest, problems, statuses."""
    stdout = (work / f"{job}.out").read_text()
    export_text = None
    if args[0] == "export":
        export_file = work / args[args.index("--out") + 1]
        if export_file.exists():
            export_text = export_file.read_text()
            export_file.unlink()  # a later pass must write its own
        digest_src = export_text or ""
    else:
        digest_src = stdout
    res["digest"] = hashlib.sha256(digest_src.encode()).hexdigest()
    res["problems"], res["statuses"] = [], []
    if res["timed_out"]:
        res["problems"].append("timed out")
    elif res["returncode"] != 0:
        err = (work / f"{job}.err").read_text().strip().splitlines()
        res["problems"].append(f"exit {res['returncode']}: {err[-1] if err else ''}")
    else:
        try:
            res["problems"], res["statuses"] = check_job(args, stdout, export_text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            res["problems"].append(f"unreadable output: {exc!r}")


def run_pass(jobs: dict, order: list[str], traced: bool, work: Path, deadline: float) -> dict:
    t0 = time.perf_counter()
    results = {job: run_job(job, jobs[job], traced, work, deadline) for job in order}
    wall = time.perf_counter() - t0
    for job in order:
        finish_job(job, jobs[job], results[job], work)
    return {"traced": traced, "order": order, "wall_s": wall, "jobs": results}


# ---------------------------------------------------------------------------
# set-up, calibration, machine info
# ---------------------------------------------------------------------------

def import_time(work: Path) -> float:
    """Seconds from spawning a fresh interpreter to the return of
    ``import quditctx.cli``; both sides read the same monotonic clock."""
    code = "import quditctx.cli\nimport time\nprint(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], cwd=work, env=child_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip()) - t0


def calibrate() -> float:
    """A fixed CPU kernel (Python big-int bit work plus a dense eigh), to tell
    host drift from program change.  A diagnostic, not a gate."""
    t0 = time.perf_counter()
    acc, row = 0, (1 << 3000) - 1
    for i in range(60_000):
        acc += (row & ~(i * 0x9E3779B97F4A7C15)).bit_count()
    m = np.random.default_rng(0).standard_normal((300, 300))
    for _ in range(5):
        np.linalg.eigh(m + m.T)
    return time.perf_counter() - t0


def blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_totals(job_spans: list[list]) -> dict:
    """Per span name: time of the outermost calls (s), self time, call count
    and counter sums, over the span lists of one pass's jobs."""
    acc: dict = {}
    for spans in job_spans:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, counters) in enumerate(spans):
            a = acc.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            dur = end - start
            a["calls"] += 1
            a["self_s"] += dur - child_time[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p >= 0:
                continue  # nested in a call of the same function
            a["s"] += dur
            for key, val in (counters or {}).items():
                a[key] = a.get(key, 0) + val
    return acc


def layer_metrics(traced_pass: dict) -> dict:
    jobs = traced_pass["jobs"]
    totals = layer_totals([res["spans"] or [] for res in jobs.values()])

    def get(layer: str, key: str):  # a layer the pass never called reads as 0
        return totals.get(layer, {}).get(key, 0)

    out = {f"{layer}.s": get(layer, "s") for layer in TIMED_LAYERS}
    out.update({name: fn(get) for name, (_, fn) in DERIVED.items()})
    for job, res in jobs.items():
        covered = sum(end - start for _, start, end, parent, _ in res["spans"] or [] if parent < 0)
        out[f"cli.{job}.unattributed_s"] = res["wall_s"] - covered
    return out


def pass_problems(passes: list[dict]) -> list[str]:
    """Jobs that failed a check, plus digest mismatches against the first pass."""
    first: dict = {}
    problems = []
    for i, p in enumerate(passes):
        for job, res in p["jobs"].items():
            ref = first.setdefault(job, res["digest"])
            if res["digest"] != ref:
                res["problems"].append(f"digest {res['digest'][:12]} != first pass {ref[:12]}")
            problems += [f"pass {i} {job}: {msg}" for msg in res["problems"]]
    return problems


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    statuses = [s for p in passes for res in p["jobs"].values() for s in res["statuses"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "fields_exact_frac": (_ratio(sum(s in CERTIFIED for s in statuses), len(statuses)), "ratio"),
        "peak_rss_mb": (statistics.median(max(r["rss_mb"] for r in p["jobs"].values())
                                          for p in passes), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(passes: list[dict], calib: list[float]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    by_pass = [layer_metrics(p) for p in traced]
    values = {name: statistics.median(m.get(name, 0.0) for m in by_pass)
              for name, _ in per_layer_names()}
    # a job's wall and CPU time are what a user pays: take them untraced
    for job in passes[0]["jobs"]:
        values[f"cli.{job}.wall_s"] = statistics.median(p["jobs"][job]["wall_s"] for p in plain)
        values[f"cli.{job}.cpu_s"] = statistics.median(p["jobs"][job]["cpu_s"] for p in plain)
    values["trace_overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in plain) - 1.0)
    values["calib_s"] = statistics.median(calib)
    units = dict(per_layer_names())
    return {name: (values[name], units[name]) for name in units}


# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    run_end = time.perf_counter() + RUN_LIMIT_S
    jobs = WORKLOADS[workload]
    rng = random.Random(seed)
    import_time(work)  # first import writes the bytecode cache; users pay that once
    setup: list[float] = []
    passes: list[dict] = []
    calib: list[float] = []
    while True:
        # spread over the run, so set-up sees the same host as the passes
        setup += [import_time(work) for _ in range(SETUP_SAMPLES_PER_PASS)]
        calib.append(calibrate())
        order = sorted(jobs)
        rng.shuffle(order)
        passes.append(run_pass(jobs, order, trace and len(passes) % 2 == 1, work, run_end))
        # --seconds counts pass time only; set-up samples and calibration are extra
        measured = sum(p["wall_s"] for p in passes)
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= (2 if trace else 1) and measured + typical > seconds:
            break
        if time.perf_counter() + typical > run_end:
            break
    problems = pass_problems(passes)
    metrics = per_layer(passes, calib) if trace else end_to_end(passes, setup)
    failed = sum(1 for p in passes for res in p["jobs"].values() if res["problems"])
    attempted = sum(len(p["jobs"]) for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_info(),
        "setup_samples_s": setup,
        "calib_s": calib,
        "passes": [{"traced": p["traced"], "order": p["order"], "wall_s": p["wall_s"],
                    "jobs": {job: {k: r[k] for k in ("wall_s", "cpu_s", "rss_mb", "returncode",
                                                     "digest")}
                             for job, r in p["jobs"].items()}}
                   for p in passes],
        "problems": problems,
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quditctx" / "cli.py").is_file():
        print(f"error: no quditctx sources under {SRC}", file=sys.stderr)
        return 1
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(info, sort_keys=True))
    for msg in info["problems"]:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
