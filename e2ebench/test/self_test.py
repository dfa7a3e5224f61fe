#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Runs every workload of BENCHMARK.json for one second, untraced and traced
(with two different seeds), through e2ebench/run.py, and checks that:

  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * the correctness checks passed and no op failed;
  * the untraced run reports every end-to-end metric, each positive and
    with its declared unit;
  * the traced run reports every per-layer metric with its declared unit,
    and the metrics of every layer that runs in the workload are non-zero.

It also prints a warning for each run whose report marks the host as
contended (CPU steal above 5% even in the window's quiet slices): such a run
checks correctness but its figures are not fit for comparison.

Usage, from the repository root:  python3 e2ebench/test/self_test.py
Exits non-zero when any workload fails a check.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Per-layer metrics that must be non-zero because their layer runs in the
# workload. Wasted-work ratios (refusals, rewinds, duplicates, retries),
# storage.fsyncs_per_record (the file stores write through the page cache
# and never sync) and the tracing overhead may legitimately be zero, so only
# their presence is checked.
COMMON = [
    "common.executor_tasks_per_op", "common.runtime_threads_peak",
    "net.bytes_per_op", "net.delivery_wait_p50_us", "net.delivery_wait_p99_us",
]
GEO = [
    "net.msgs_per_append", "net.handler_geo_p50_us",
    "chariots.records_per_batch", "chariots.remote_apply_p50_ms",
    "chariots.remote_apply_p99_ms", "chariots.sender_records_per_msg",
]
# Only geo_closed_filestore has file stores and times the commit wait.
FILESTORE = [
    "storage.appendv_per_record", "storage.appendv_p50_us",
    "storage.appendv_p99_us", "storage.bytes_per_user_byte",
    "storage.busy_frac",
    "chariots.commit_wait_p50_us", "chariots.commit_wait_p99_us",
]
RUNNING = {
    "geo_closed": COMMON + GEO,
    "geo_closed_filestore": COMMON + GEO + FILESTORE,
    "flstore_mixed": COMMON + [
        "net.msgs_per_append", "net.msgs_per_read",
        "net.handler_append_p50_us", "net.handler_read_p50_us",
        "net.handler_inv_p50_us", "net.handler_val_p50_us",
        "net.rpc_rtt_append_p50_us", "net.rpc_rtt_read_p50_us",
        "net.rpc_rtt_inv_p50_us", "flstore.inv_round_p50_us",
        "flstore.inv_round_p99_us", "flstore.read_cache_hit_frac",
        "flstore.read_share_max",
    ],
}


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        raise AssertionError("%s trace=%d exited %d" % (
            workload, trace, out.returncode))
    report = os.path.join(ROOT, ".bench_out", "%s%s.json" % (
        workload, "-trace" if trace else ""))
    with open(report) as f:
        meta = json.load(f)["meta"]
    if meta["host_contended"]:
        print("warn %s trace=%d: host contended (quiet-slice steal %.3f), "
              "figures not comparable" % (
                  workload, trace, meta["host_quiet_steal_frac"]))
    return json.loads(lines[-1])


def check_metrics(result, declared, workload, trace):
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(metrics) == set(want), (
        "%s trace=%d metric names differ: missing %s, extra %s" % (
            workload, trace, sorted(set(want) - set(metrics)),
            sorted(set(metrics) - set(want))))
    for name, metric in metrics.items():
        assert set(metric) == {"value", "unit"}, (workload, name)
        assert metric["unit"] == want[name], (workload, name, metric["unit"])
        assert isinstance(metric["value"], (int, float)), (workload, name)
        assert math.isfinite(metric["value"]), (workload, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        try:
            for seed, trace in ((7, 0), (8, 1)):
                result = run(workload, seed, trace)
                assert set(result) == {
                    "correct", "attempted", "failed", "metrics"}
                assert result["correct"] is True, (workload, trace)
                assert result["failed"] == 0, (
                    workload, trace, result["failed"])
                assert result["attempted"] >= 1, (workload, trace)
                if trace == 0:
                    check_metrics(result, bench["end_to_end"], workload, 0)
                    for name, metric in result["metrics"].items():
                        assert metric["value"] > 0, (workload, name, metric)
                else:
                    check_metrics(result, bench["per_layer"], workload, 1)
                    for name in RUNNING[workload]:
                        assert result["metrics"][name]["value"] > 0, (
                            workload, name, "layer runs but metric is 0")
            print("ok   %s" % workload)
        except AssertionError as e:
            failures += 1
            print("FAIL %s: %s" % (workload, e))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
