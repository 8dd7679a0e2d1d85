"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/isolab``.  Each workload
runs in fresh processes (``worker.py``) with ``PYTHONPATH=src``,
``PYTHONHASHSEED=0`` and ``ISOLAB_PRECISION`` unset.  ``--trace 0`` prints
the end-to-end metrics: set-up time is the median over several fresh
processes that import ``isolab`` and generate the inputs, the rest comes
from one closed-loop run of ``--seconds``.  ``--trace 1`` runs the
workload untraced and then traced, each for ``--seconds``, and prints the
per-layer metrics.  A provenance line precedes the result line; the result
line is the last line of stdout.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import probe, speed_factor
from tracer import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("weil-census", "cartier-witt", "poset", "cli-mix")
SETUP_PROBES = 7
# a worker gets its run time plus this much for set-up, the cut round and the oracles
WORKER_SLACK_S = 60

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
)


def worker_env():
    env = {k: v for k, v in os.environ.items() if k not in ("ISOLAB_PRECISION", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, extra):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    return subprocess.Popen(
        cmd + extra, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )


def finish(proc, timeout):
    """Wait for ``proc``; returns its remaining stdout lines."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish within %d s" % timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return out.splitlines()


def setup_seconds(args):
    """Wall time from spawning a fresh interpreter until it has imported
    isolab and generated its inputs, raw and scaled to the reference
    machine speed measured just before."""
    factor = speed_factor([probe() for _ in range(5)])
    t0 = time.perf_counter()
    proc = start_worker(args, ["--seconds", "0", "--setup-only"])
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    finish(proc, WORKER_SLACK_S)
    if line.strip() != "READY":
        raise RuntimeError("set-up probe did not report READY")
    return elapsed, elapsed * factor


def measure(args, trace):
    proc = start_worker(args, ["--seconds", str(args.seconds), "--trace", str(trace)])
    lines = finish(proc, args.seconds + WORKER_SLACK_S)
    if not lines or lines[0] != "READY":
        raise RuntimeError("worker did not report READY")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; do not pick up an enclosing repository
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "isolab", "__init__.py")):
        print("perfbench: no isolab sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    try:
        if args.trace:
            untraced = measure(args, 0)
            run = measure(args, 1)
            metrics = dict(run["layers"])
            base = untraced["metrics"]["throughput_ops_s"]
            metrics["trace.untraced_throughput_ops_s"] = base
            metrics["trace.overhead_ratio"] = base / metrics["trace.throughput_ops_s"]
            units = dict(metric_names())
            metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
            correct = run["correct"] and untraced["correct"]
            run["errors"] = untraced["errors"] + run["errors"]
        else:
            setups = [setup_seconds(args) for _ in range(SETUP_PROBES)]
            run = measure(args, 0)
            values = dict(run["metrics"], setup_s=statistics.median(scaled for _, scaled in setups))
            run["details"]["raw_wall"]["setup_s"] = statistics.median(raw for raw, _ in setups)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            correct = run["correct"]
    except RuntimeError as ex:
        print("perfbench: %s" % ex, file=sys.stderr)
        return 1

    for error in run["errors"]:
        print("perfbench: check failed: %s" % error, file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "env": {"PYTHONHASHSEED": "0", "ISOLAB_PRECISION": None},
        "loop": "closed, one client",
        **run["details"],
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
