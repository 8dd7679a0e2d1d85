"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH=src``, ``PYTHONHASHSEED=0`` and
``ISOLAB_PRECISION`` unset.  Prints ``READY`` once ``isolab`` is imported
and the first round of inputs is generated (the set-up phase), then runs
the closed loop for ``--seconds``, checks every result and prints one
JSON line with the measurements.  ``--setup-only`` stops after
``READY``.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from array import array

import workloads
from calibrate import PROBE_EVERY_S, probe, speed_factors
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Samples:
    """Per-op measurements in flat arrays: about 20 bytes an op, so the
    worker's peak RSS does not grow with throughput."""

    def __init__(self):
        self.round = array("I")
        self.cls = array("H")
        self.latency = array("d")
        self.start = array("d")
        self.ok = bytearray()
        self.classes = []
        self._index = {}

    def add(self, round_no, cls, latency, ok, start):
        if cls not in self._index:
            self._index[cls] = len(self.classes)
            self.classes.append(cls)
        self.round.append(round_no)
        self.cls.append(self._index[cls])
        self.latency.append(latency)
        self.start.append(start)
        self.ok.append(ok)

    def __len__(self):
        return len(self.latency)


def closed_loop(workload, rng, first_round, seconds, tracer):
    """Run whole rounds back to back until ``seconds`` have passed; the
    round in progress at the deadline is cut.  Each op's record is checked
    as soon as the op returns, outside its timing, and then dropped, so no
    result outlives its op; round-level checks run when a round completes.
    Returns the samples, the speed probes ``(start_s, duration_s)``, the
    distinct descriptions of failed ops, the oracle errors and the number
    of complete rounds."""
    samples, probes, failures, errors = Samples(), [], set(), []
    ops, round_no = first_round, 0
    start = time.perf_counter()
    deadline, next_probe = start + seconds, start
    while True:
        for cls, op in ops:
            now = time.perf_counter()
            if now >= deadline:
                return samples, probes, failures, errors, round_no
            if now >= next_probe:
                probes.append((now - start, probe()))
                next_probe = time.perf_counter() + PROBE_EVERY_S
            workload.before_op()
            if tracer is not None:
                tracer.op_id += 1
                tracer.active = True
            t0 = time.perf_counter()
            try:
                ok, record = workload.run(op)
            except Exception as ex:  # an op that raises unexpectedly is a failed op
                ok, record = False, None
                failures.add("%s: %s: %s" % (cls, type(ex).__name__, ex))
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            samples.add(round_no, cls, latency, ok, t0 - start)
            if record is not None:
                errors += workload.check(record)
                if not ok:
                    failures.add("%s: %s" % (cls, repr(record)[:300]))
                record = None  # not held while the next op runs
        errors += workload.end_round()
        round_no += 1
        ops = workload.make_round(rng)


def latency_metrics(lat):
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    return {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
    }, sum(1 for v in lat if v > p90)


def summarize(samples, probes, complete_rounds):
    """End-to-end metrics over the complete rounds (all ops if none)."""
    measured = [i for i, r in enumerate(samples.round) if r < complete_rounds] or range(len(samples))
    factors = speed_factors(probes, [samples.start[i] for i in measured])
    raw = [samples.latency[i] for i in measured]
    metrics, beyond = latency_metrics([lat * f for lat, f in zip(raw, factors)])
    raw_metrics, _ = latency_metrics(raw)
    ok = sum(samples.ok[i] for i in measured)
    metrics["success_rate"] = ok / len(measured)
    details = {
        "samples": len(measured),
        "samples_beyond_p90": beyond,
        "complete_rounds": complete_rounds,
        "error_rate": 1 - ok / len(measured),
        "raw_wall": raw_metrics,
        "speed_probes": len(probes),
        "probe_median_ms": statistics.median(d for _, d in probes) * 1e3,
    }
    per_class = {}
    for c, lat, ok in zip(samples.cls, samples.latency, samples.ok):
        per_class.setdefault(samples.classes[c], []).append((lat, ok))
    details["ops_per_class"] = {
        cls: {
            "attempted": len(runs),
            "failed": sum(1 for _, ok in runs if not ok),
            "median_ms": statistics.median(lat for lat, _ in runs) * 1e3,
        }
        for cls, runs in sorted(per_class.items())
    }
    return metrics, details


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    rng = random.Random(args.seed)
    first_round = workload.make_round(rng)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer(keys_per_op=workload.cold_caches)
        tracer.install()
    samples, probes, failures, errors, complete_rounds = closed_loop(
        workload, rng, first_round, args.seconds, tracer
    )
    if not samples:
        print("no op finished within %s s" % args.seconds, file=sys.stderr)
        return 1
    # read before summarizing, which builds lists as long as the run
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, details = summarize(samples, probes, complete_rounds)
    metrics["peak_rss_mib"] = peak_rss_mib
    errors += workload.final_check()
    details.update(workload.report())
    details["failed_ops"] = sorted(failures)[:20]
    out = {
        "correct": not errors,
        "attempted": len(samples),
        "failed": len(samples) - sum(samples.ok),
        "metrics": metrics,
        "details": details,
        "errors": errors[:20],
    }
    if tracer is not None:
        layer = tracer.metrics()
        layer["trace.throughput_ops_s"] = metrics["throughput_ops_s"]
        silent = [name for name in workload.targets if not tracer.calls[name]]
        if silent:
            out["correct"] = False
            out["errors"].append("self-check: zero calls traced for %s" % ", ".join(silent))
        out["layers"] = layer
        spans_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, "spans-%s-seed%d.csv" % (args.workload, args.seed))
        tracer.write_spans(path)
        details["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
