#!/usr/bin/env python3
"""Builds and runs the NVMe-CR host-time benchmark (see BENCHMARK.json).

Run from the repository root:

    python3 perfbench/run.py --workload nvmecr_weak448 --seed 1 \
        --seconds 40 --trace 0

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/; later calls rebuild incrementally. The run is a closed
loop of units (one CoMD job, or one pass over the chaos schedules), each
in a fresh perfbench_run process with a fixed address-space layout, for
as many units as fit in --seconds (at least one; two with --trace 1).
With --trace 1 every other unit is traced. One line per unit is printed, then
the metrics as one JSON object on the last line: every end-to-end metric
of BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
It exits non-zero, printing no result, when the sources are missing, the
build fails, or a unit crashes or overruns the run's time limit.
"""

import argparse
import ctypes
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_run")
WORKLOADS = ("nvmecr_weak448", "dfs_multilevel448", "chaos_campaign")
# Whole-run limits in seconds; the run that builds gets more.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 880
ADDR_NO_RANDOMIZE = 0x0040000
LIBC = ctypes.CDLL(None, use_errno=True)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_child(cmd, deadline, **kw):
    """Runs cmd to completion or kills it at the deadline."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("time limit exceeded: " + " ".join(cmd))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        fail("exit code %d: %s" % (proc.returncode, " ".join(cmd)))
    return out


def fixed_layout():
    """Runs in the unit's process before exec: turns ASLR off for it, so
    every unit gets the same memory layout. Skipped if not permitted."""
    persona = LIBC.personality(0xffffffff)
    if persona != -1:
        LIBC.personality(persona | ADDR_NO_RANDOMIZE)


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # Serialize builds of one checkout; closing the file releases it.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_child(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"] + gen, deadline,
                      stdout=sys.stderr, env=env)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_child(["cmake", "--build", BUILD, "--target", "perfbench_run",
                   "-j", jobs], deadline, stdout=sys.stderr, env=env)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def lower_quartile(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=4, method="inclusive")[0]


def scaled(times, calibs, calib_ref):
    """Host times at the host's uncontended speed: each time scaled by
    calib_ref over the calibration timed right after it. The calibration
    is the benchmark's own fixed code, so a faster program still shows
    in full."""
    return [t * calib_ref / c for t, c in zip(times, calibs)]


def calibrated_wall(units, calib_ref):
    """Host seconds of a unit's timed region: the sum of its scaled pieces
    (stretches of a CoMD job, chaos schedules), lower quartile over the
    units, since interference only adds time."""
    return lower_quartile([sum(scaled(u["pieces_s"], u["calib_s"], calib_ref))
                           for u in units])


def calibrated_setup(units, calib_ref):
    """Host seconds of one set-up: each repetition scaled and taken at its
    fastest over the units (it is the same work in every unit), then the
    median over the repetitions."""
    reps = zip(*(scaled(u["setup_reps_s"], u["setup_calib_s"], calib_ref)
                 for u in units))
    return median([min(times) for times in reps])


def fingerprint_value(hex_digest):
    """JSON-safe integer view of a 64-bit fingerprint (below 2^52)."""
    h = int(hex_digest, 16)
    return (h ^ (h >> 52)) & ((1 << 52) - 1)


def aggregate(workload, trace, units, spec):
    chaos = workload == "chaos_campaign"
    ok = [u for u in units if u["ok"]]
    fingerprints = {u["fingerprint"] for u in ok}
    correct = bool(ok) and len(fingerprints) == 1
    if len(fingerprints) > 1:
        print("CHECK FAILED: units disagree on the simulated fingerprint")
    if chaos:
        # Every unit covers the same schedules: count their verdicts once.
        attempted, failed = units[0]["attempted"], units[0]["failed"]
    else:
        attempted = len(units)
        failed = sum(u["failed"] for u in units)
    noun = "schedules" if chaos else "jobs"
    print("failed_frac: %.6f (%d of %d %s failed)"
          % (failed / attempted, failed, attempted, noun))
    plain = [u for u in ok if not u["traced"]]
    # The host's fastest calibration in the run: its uncontended speed.
    calib_ref = min((c for u in ok for c in u["calib_s"] + u["setup_calib_s"]),
                    default=0.0)
    wall = calibrated_wall(plain, calib_ref)
    if chaos:
        print("schedule_p50_ms: %.4f  schedule_p90_ms: %.4f  "
              "(medians over %d units of %d schedules)"
              % (median([u["layers"]["chaos.schedule_p50_ms"] for u in ok]),
                 median([u["layers"]["chaos.schedule_p90_ms"] for u in ok]),
                 len(ok), attempted))

    if not trace:
        values = {
            "wall_s": wall,
            "setup_s": calibrated_setup(ok, calib_ref),
            "peak_rss_mb": median([u["peak_rss_mb"] for u in plain]),
        }
        names = spec["end_to_end"]
    else:
        traced = [u for u in ok if u["traced"]]
        # A chaos unit cannot be traced, so all its units are measured.
        measured = ok if chaos else traced
        keys = {k for u in measured for k in u["layers"]}
        values = {k: median([u["layers"].get(k, 0.0) for u in measured])
                  for k in keys}
        events = plain[0]["events"] if plain else 0
        if events:
            values["simcore.host_ns_per_event"] = wall * 1e9 / events
        if wall > 0 and traced:
            values["obs.trace_overhead_frac"] = (
                calibrated_wall(traced, calib_ref) / wall - 1.0)
        if ok:
            values["workloads.sim_fingerprint"] = fingerprint_value(
                ok[0]["fingerprint"])
        names = spec["per_layer"]
    known = {m["name"] for m in names}
    unknown = sorted(set(values) - known)
    if unknown:
        fail("metrics missing from BENCHMARK.json: %s" % unknown)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in names}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    # Turn SIGTERM into SystemExit so a running unit is always reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    limit = BUILD_LIMIT_S if not os.path.isfile(BINARY) else RUN_LIMIT_S
    deadline = time.monotonic() + limit
    build(deadline)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    deadline = min(deadline, time.monotonic() + RUN_LIMIT_S)
    stop = time.monotonic() + args.seconds
    units = []
    took = []
    while True:
        traced = args.trace == 1 and len(units) % 2 == 1
        start = time.monotonic()
        out = run_child([BINARY, "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--trace", "1" if traced else "0"],
                        deadline, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                        preexec_fn=fixed_layout)
        took.append(time.monotonic() - start)
        unit = json.loads(out.splitlines()[-1])
        unit["traced"] = traced
        print("unit %d %s: %s  wall %.4f s  setup %.6f s  rss %.1f MB  "
              "fingerprint %s" % (len(units), "traced" if traced else
                                  "untraced", "ok" if unit["ok"] else
                                  "FAILED", unit["wall_s"], unit["setup_s"],
                                  unit["peak_rss_mb"], unit["fingerprint"]))
        for msg in unit["messages"]:
            print("  " + msg)
        units.append(unit)
        # Start another unit only if one more is likely to end in time.
        if (time.monotonic() + max(took) > stop
                and (not args.trace or len(units) >= 2)):
            break
    print(json.dumps(aggregate(args.workload, args.trace, units, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
