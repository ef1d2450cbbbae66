#!/usr/bin/env python3
"""Host-cost benchmark of the wimpy simulator (see perfbench/NOTES.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the benchmark binary (perfbench/CMakeLists.txt,
Release, into .bench_build/perfbench), runs one workload for the time
budget, checks every experiment call's simulated digest, and prints as its
last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Every experiment call -- a set-up call, a replication,
or a pass of the traced run's MapReduce ladder -- is one operation. It fails
if it throws, crashes the binary, overruns its wall budget, or gives a
digest that differs from the first call of its kind with the same seed.

--smoke runs every workload at tiny geometries, checks that each named
metric appears with its unit, that a doctored digest counts as a failure,
and that the span file folds with tools/flamegraph.py.
"""

import argparse
import ctypes
import hashlib
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = BUILD_DIR / "runs"
BINARY = BUILD_DIR / "perfbench"

# One experiment call may take this long before it counts as failed and
# the binary is stopped; a whole run of the binary gets RUN_BUDGET_S.
OP_BUDGET_S = 90.0
RUN_BUDGET_S = 165.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def die_with_parent():
    """Runs in the child before exec: the benchmark binary gets SIGKILL
    when run.py ends, however it ends (PR_SET_PDEATHSIG)."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


def run_binary(args, extra):
    """Runs the binary and returns (records, status); status is "ok",
    "crashed" or "timeout". Records stream one JSON object per line."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=die_with_parent)
    lines = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    records, status = [], "ok"
    start = last = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            wait = min(OP_BUDGET_S - (now - last), RUN_BUDGET_S - (now - start))
            try:
                line = lines.get(timeout=max(0.0, wait))
            except queue.Empty:
                status = "timeout"
                break
            if line is None:
                break
            last = time.monotonic()
            line = line.strip()
            if line:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    log(f"unparsable output line: {line[:200]}")
                    status = "crashed"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
    if status == "ok" and (proc.returncode != 0 or
                           not records or records[-1].get("kind") != "end"):
        status = "crashed"
    if status != "ok":
        log(f"benchmark binary {status} (exit code {proc.returncode})")
    return records, status


def drop(digest, keys):
    return {k: v for k, v in digest.items() if k not in keys}


def count_operations(records, status):
    """Returns (attempted, failed, problems) over the experiment calls."""
    references = {}
    attempted = failed = 0
    problems = []
    for rec in records:
        kind = rec.get("kind")
        if kind not in ("setup", "rep", "mr_ladder", "mr_sweep"):
            continue
        attempted += 1
        if "error" in rec:
            failed += 1
            problems.append(f"{kind} threw: {rec['error']}")
            continue
        # Set-up calls share one digest, and so do replications. With its
        # sinks off a replication simulates the same system, only without
        # the sinks' sampling events. The MR ladder gives one digest
        # whether run in order or swept on any number of threads.
        digest = rec["digest"]
        if kind == "setup":
            group, ignore = "setup", ()
        elif kind != "rep":
            group, ignore = "mr", ()
        elif rec.get("sinks", True):
            group, ignore = "rep", ()
        else:
            group, ignore = "rep", ("sim.events",)
            reference = references.setdefault("rep/no-sinks", digest)
            if digest != reference:
                failed += 1
                problems.append(f"{kind} digest {digest} != {reference}")
                continue
        reference = references.setdefault(group, digest)
        if drop(digest, ignore) != drop(reference, ignore):
            failed += 1
            problems.append(f"{kind} digest {digest} != {reference}")
    if status != "ok":
        # The call in flight when the binary died or overran its budget.
        attempted += 1
        failed += 1
        problems.append(f"benchmark binary {status}")
    return attempted, failed, problems


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def summarise(records, trace):
    """Returns {name: {"value", "unit"}} for this run's metric set."""
    if trace:
        return {r["name"]: {"value": r["value"], "unit": r["unit"]}
                for r in records if r.get("kind") == "metric"}
    end = next((r for r in records if r.get("kind") == "end"), None)
    if end is None:
        return {}
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    return {name: {"value": end[name], "unit": unit}
            for name, unit in units.items()}


def metric_problems(metrics, trace):
    expected = expected_metrics(trace)
    problems = []
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"metric {name} missing")
        elif metrics[name]["unit"] != unit:
            problems.append(f"metric {name} has unit "
                            f"{metrics[name]['unit']}, expected {unit}")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(args, extra=()):
    """Runs one workload; returns the result object (and writes the run's
    context record next to the build)."""
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = RUNS_DIR / f"{stem}.trace.json"
    extra = list(extra)
    if args.trace:
        extra += ["--trace-file", str(trace_file)]
    load_start = os.getloadavg()
    records, status = run_binary(args, extra)
    load_end = os.getloadavg()

    attempted, failed, problems = count_operations(records, status)
    metrics = summarise(records, args.trace)
    problems += metric_problems(metrics, args.trace)
    built = next((r for r in records if r.get("kind") == "context"), {})
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "loadavg_start": load_start[0],
        "loadavg_end": load_end[0],
        "build_type": built.get("build_type", "unknown"),
        "release": built.get("build_type") == "Release" and
                   built.get("ndebug", False),
        "compiler": built.get("compiler", "unknown"),
        "commit": commit(), "source_sha256": source_digest(),
        "trace_file": str(trace_file.relative_to(ROOT)) if args.trace else None,
        "problems": problems,
    }
    (RUNS_DIR / f"{stem}.context.json").write_text(
        json.dumps(context, indent=2) + "\n")
    print("context: " + json.dumps(context, sort_keys=True))
    if not context["release"]:
        log(f"WARNING: not a Release build ({context['build_type']}); "
            "timings are not comparable")
    for p in problems:
        log(p)
    return {
        "correct": failed == 0 and not problems,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


def smoke():
    """Self-test at tiny geometries; returns a process exit code."""
    ok = True

    def check(cond, what):
        nonlocal ok
        print(f"smoke: {'ok  ' if cond else 'FAIL'} {what}")
        ok = ok and cond

    seed = 1
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload["name"], seed=seed,
                                      seconds=1, trace=trace)
            result = run_once(args, ["--smoke"])
            check(result["correct"] and result["failed"] == 0,
                  f"{workload['name']} trace={trace} correct, "
                  f"{result['attempted']} operations")
            check(not metric_problems(result["metrics"], trace),
                  f"{workload['name']} trace={trace} every metric with its "
                  "unit")
            if trace:
                check(folds(args), f"{workload['name']} span file folds")
    args = argparse.Namespace(workload="web_closed_100k", seed=seed,
                              seconds=1, trace=0)
    doctored = run_once(args, ["--smoke", "--doctor-digest"])
    check(doctored["failed"] >= 1 and not doctored["correct"],
          "a doctored digest counts as a failed operation")
    return 0 if ok else 1


def folds(args):
    """True if tools/flamegraph.py folds the run's span file into stacks
    under the run's root span (skipped when the tool is absent)."""
    tool = ROOT / "tools" / "flamegraph.py"
    if not tool.is_file():
        return True
    trace_file = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace1.trace.json"
    out = subprocess.run([sys.executable, str(tool), str(trace_file)],
                         capture_output=True, text=True)
    lines = out.stdout.splitlines()
    return (out.returncode == 0 and lines and
            all(line.startswith(f"pid0;run/{args.workload}")
                for line in lines))


def main():
    # SIGTERM unwinds like an exception, so the cleanup in run_binary and
    # subprocess.run stops the processes this script started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not args.smoke:
        names = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    print(json.dumps(run_once(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
