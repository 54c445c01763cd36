#!/usr/bin/env python3
"""Determinism check for the benchmark's exact work counters.

    python3 perfbench/check_determinism.py

For every workload it makes two short untraced runs with seed 5 and one
with seed 6 (through perfbench/run.py, so the build is shared), then
requires:

  * every exact counter repeats bit for bit across the same-seed runs;
  * the other seed changes the generated client sequence (serve_*) or the
    shard traces (sweep), and serve_splice still copies 0 payload bytes
    per request;
  * serve_percall's arena allocations per checked step stay within 5% of
    the machine's 16384 frames: the O(frames) spec-collection copies that
    persistent spec collections are meant to remove. That change will fail
    this line on purpose and should update the expectation with it.

The counters come from a fixed counted window, not from the timed loop, so
a run whose only error is too few latency samples beyond p99.9 (a short or
slow run) still counts; any other error fails the check.

Exits 0 when all hold and prints one line per check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

EXACT = [
    "vstd.arena_allocs_per_step", "vstd.heap_allocs_per_step",
    "verif.dirty_entries_per_step", "verif.max_dirty_entries", "verif.wf_checks",
    "verif.audit_passes", "drivers.burst_fill", "drivers.tx_full_drops", "net.parse_fail",
    "apps.splice_frac", "obs.bytes_copied_per_req", "obs.heap_allocs_per_req",
    "verif.sweep.batch_drains", "verif.sweep.coverage_cells",
]
SECONDS = 3
SEED = 5
OTHER_SEED = 6
PERCALL_FRAMES = 16384
# The timing gate of an untraced run; it says nothing about the counters.
TAIL_GATE = "fewer than 10 latency samples beyond p99.9"


def run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    path = os.path.join(os.getcwd(), ".bench_out", "%s_s%d_t0.json" % (workload, seed))
    if os.path.exists(path):
        os.remove(path)  # a report left by an earlier run must not be read
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    report = None
    if os.path.exists(path):
        with open(path) as f:
            report = json.load(f)
    if report is None or [e for e in report["errors"] if e != TAIL_GATE]:
        print(proc.stdout)
        raise SystemExit("FAIL %s seed %d: run exited %d" % (workload, seed, proc.returncode))
    counters = {k: report["metrics"][k] for k in EXACT}
    return counters, report["info"].get("sequence_digest")


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in ("serve_splice", "serve_percall", "sweep"):
        a, digest_a = run(workload, SEED)
        b, digest_b = run(workload, SEED)
        c, digest_c = run(workload, OTHER_SEED)
        diff = [k for k in EXACT if a[k] != b[k]]
        check(not diff and digest_a == digest_b,
              "%s: same seed repeats every exact counter%s" % (
                  workload, " (differs: %s)" % ", ".join(diff) if diff else ""))
        check(digest_a != digest_c, "%s: seed %d and %d generate different inputs" % (
            workload, SEED, OTHER_SEED))
        if workload == "serve_splice":
            check(a["obs.bytes_copied_per_req"] == 0 and c["obs.bytes_copied_per_req"] == 0,
                  "serve_splice: 0 payload bytes copied per request on both seeds")
        if workload == "serve_percall":
            allocs = a["vstd.arena_allocs_per_step"]
            check(abs(allocs - PERCALL_FRAMES) <= 0.05 * PERCALL_FRAMES,
                  "serve_percall: %.1f arena allocs per step within 5%% of %d frames" % (
                      allocs, PERCALL_FRAMES))
    print("%d failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
