#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_splice --seed 7 --seconds 30 --trace 0

Builds perfbench/ (which compiles the Atmosphere libraries from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs one workload
once and prints, as the last line of standard output, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and
writes a Chrome trace. Everything else (host fingerprint, sample counts,
the span self-time table) goes to the lines before it and to a report file
under .bench_out/. Exits non-zero when the build fails or an output check
does not pass.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the perfbench binary; returns its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def steal_ticks():
    """Cumulative steal time of all CPUs, in USER_HZ ticks (0 if unknown)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def self_time_table(self_time, requests_layer="serve.request"):
    """Lines of the span self-time report: per layer, and the remainder."""
    layers = {k: v for k, v in self_time.items() if isinstance(v, dict)}
    total = sum(v["self_ns"] for v in layers.values()) or 1
    per = layers.get(requests_layer, {}).get("count") or 0
    lines = ["%-20s %10s %14s %8s %12s" % ("layer", "spans", "self_ms", "share", "self_ns/req")]
    for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append("%-20s %10d %14.3f %7.2f%% %12s" % (
            name, v["count"], v["self_ns"] / 1e6, 100.0 * v["self_ns"] / total,
            "%.1f" % (v["self_ns"] / per) if per else "-"))
    if per:
        rest = sum(layers.get(k, {}).get("self_ns", 0) for k in ("serve.request", "serve.poll"))
        lines.append("unattributed (serve.request + serve.poll self): %.1f ns/req, %.2f%%" % (
            rest / per, 100.0 * rest / total))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("perfbench: unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    binary = build(build_dir)

    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s_s%d_t%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, stem + ".trace.json")]

    steal0, wall0 = steal_ticks(), time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % BINARY_TIMEOUT_S)
    wall = time.monotonic() - wall0
    steal_s = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: binary printed nothing (exit %d)" % proc.returncode)
    raw = json.loads(lines[-1])

    ncpu = os.cpu_count() or 1
    host = {
        "cpu_model": cpu_model(),
        "nproc": ncpu,
        "affinity": sorted(os.sched_getaffinity(0)),
        "build_type": raw["build"]["type"],
        "compiler": raw["build"]["compiler"],
        "steal_s": round(steal_s, 3),
        "steal_pct": round(100.0 * steal_s / (wall * ncpu), 3) if wall > 0 else 0.0,
        "kernel": platform.release(),
    }

    errors = list(raw["errors"])
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            errors.append("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
    correct = bool(raw["correct"]) and proc.returncode == 0 and not errors

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "correct": correct, "errors": errors,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": raw["metrics"], "info": raw["info"]}
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(report, f, indent=1)

    print("host: " + json.dumps(host))
    print("info: " + json.dumps(raw["info"].get("counted_window", {})) +
          " lat_samples=%s lat_p999_beyond=%s" % (raw["info"].get("lat_samples"),
                                                  raw["info"].get("lat_p999_beyond")))
    if args.trace and "self_time" in raw["info"]:
        for line in self_time_table(raw["info"]["self_time"]):
            print(line)
    for e in errors:
        print("error: " + e)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
