#!/usr/bin/env python3
"""EdgeRT benchmark: seeded fleet / serve / stream workloads.

    python3 perfbench/run.py --workload fleet_steady --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a source checkout. The first run builds the
EdgeRT libraries and perfbench_worker into .bench_build/ (CMake,
RelWithDebInfo). Each measurement is one worker process running one
runner call, so peak RSS is that call's alone. The command:

  1. repeats the workload for --seconds (at least three runs) and
     reports medians, checking every report's invariants and that
     every same-seed report has the same bytes. Before each run it
     times a fixed calibration loop and the zero-traffic call
     (set-up); run times are scaled by how fast the host ran the
     calibration, so a slow or fast spell of the host cancels;
  2. tops the set-up runs up to SETUP_RUNS;
  3. replays once more with sim_threads = min(4, nproc) and checks
     the report is byte-identical to the serial one;
  4. with --trace 1, runs once more with the tracer on and prints the
     per-layer split instead of the end-to-end metrics.

The last stdout line is one JSON object: correct, attempted, failed
and metrics. A failed check exits 1; a missing source tree or a
failed build exits 2 without a result line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BUILD, "perfbench_worker")

SETUP_RUNS = 21
MIN_RUNS = 3
# The calibration loop's median user CPU time on the 4-vCPU Xeon VM
# the notes were measured on. Run times are reported at that speed:
# measured time x CALIBRATION_S / median calibration CPU time.
CALIBRATION_S = 0.25
WORKER_TIMEOUT_S = 150

def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no EdgeRT source tree at %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target",
                  "perfbench_worker", "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            die("build failed: %s" % " ".join(cmd))


def run_worker(tmp, workload, seed, setup=False, threads=1,
               trace=False):
    """One worker process writing into directory `tmp`. Returns
    (measurement, report bytes, (spans, metrics) files or None);
    raises RuntimeError when the worker fails."""
    report = os.path.join(tmp, "report.json")
    cmd = [WORKER, "--workload", workload, "--seed", str(seed),
           "--sim-threads", str(threads), "--report-out", report]
    if setup:
        cmd.append("--setup")
    files = None
    if trace:
        files = (os.path.join(tmp, "spans.json"),
                 os.path.join(tmp, "metrics.json"))
        cmd += ["--trace", "--spans-out", files[0],
                "--metrics-out", files[1]]
    p = subprocess.run(cmd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       timeout=WORKER_TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError("worker exited %d: %s"
                           % (p.returncode, p.stderr.strip()[-2000:]))
    line = json.loads(p.stdout.strip().splitlines()[-1])
    with open(report, "rb") as f:
        data = f.read()
    line["report_bytes"] = len(data)
    return line, data, files


def calibrate():
    """User CPU seconds of one calibration loop in a fresh worker.
    CPU time leaves out the spells the loop waited for a core."""
    p = subprocess.run([WORKER, "--calibrate"], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       timeout=WORKER_TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError("calibration exited %d: %s"
                           % (p.returncode, p.stderr.strip()[-2000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])["user_s"]


def read_json(path):
    with open(path) as f:
        return json.load(f)


def fmt(value):
    if value is None:
        return "missing"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(metrics.KIND))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        return measure(tmp, args)


def measure(tmp, args):
    w, seed = args.workload, args.seed
    errors = []
    attempted = failed = 0
    print("perfbench: workload %s seed %d" % (w, seed))

    # attempted and failed count ops (requests or frames) over every
    # run; a zero-traffic set-up run counts as one. A run that fails
    # a check fails all of its ops.
    def checked(line, data, reference, label):
        nonlocal attempted, failed
        report, errs = metrics.check_run(w, data, reference)
        ops = metrics.outcome(w, report)["ops"] if report else 0
        attempted += max(ops, 1)
        if errs:
            failed += max(ops, 1)
            errors.extend("%s: %s" % (label, e) for e in errs)
        return report

    setups = []

    def setup_run():
        line, data, _ = run_worker(tmp, w, seed, setup=True)
        checked(line, data, None, "setup %d" % len(setups))
        setups.append(line["wall_s"])

    # Set-up runs are spread over the window, one before each timed
    # run, so that their median samples the same host spells.
    calibrations, runs, reference, report = [], [], None, None
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < args.seconds:
        calibrations.append(calibrate())
        setup_run()
        line, data, _ = run_worker(tmp, w, seed)
        r = checked(line, data, reference, "run %d" % len(runs))
        if reference is None:
            reference, report = data, r
        runs.append(line)
    while len(setups) < SETUP_RUNS:
        setup_run()

    threads = min(4, os.cpu_count() or 1)
    line, data, _ = run_worker(tmp, w, seed, threads=threads)
    checked(line, data, reference, "sim_threads=%d check" % threads)

    if report is None:
        return finish(errors, attempted, failed, {})
    out = metrics.outcome(w, report)
    raw_wall = statistics.median(r["wall_s"] for r in runs)
    speed = CALIBRATION_S / statistics.median(calibrations)
    setup = statistics.median(setups)
    e2e = {
        "wall_s": raw_wall * speed,
        "cpu_s": statistics.median(r["user_s"] + r["sys_s"]
                                   for r in runs) * speed,
        "host_req_per_s": out["ops"] / ((raw_wall - setup) * speed)
        if raw_wall > setup else 0.0,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0
                                         for r in runs),
        "setup_s": setup,
        "sim_p99_ms": out["sim_p99_ms"],
        "sim_goodput_pct": out["sim_goodput_pct"],
    }
    for name, value in e2e.items():
        print("  %-18s %12s %s"
              % (name, fmt(value), metrics.E2E_UNITS[name]))
    print("  %-18s %12d (p99 samples %d)"
          % ("ops", out["ops"], out["p99_samples"]))
    print("  %-18s %12d" % ("ops_failed", out["ops_failed"] + failed))
    print("  %-18s     %08x" % ("report_crc32", zlib.crc32(reference)))
    print("  runs %d, set-up runs %d, replay check sim_threads=%d"
          % (len(runs), len(setups), threads))
    print("  host speed x%.4f (%d calibrations, median %.4f s); "
          "unscaled wall %.4f s"
          % (speed, len(calibrations), statistics.median(calibrations),
             raw_wall))

    result = {name: {"value": v, "unit": metrics.E2E_UNITS[name]}
              for name, v in e2e.items()}
    if args.trace:
        line, data, (spans_f, metrics_f) = run_worker(tmp, w, seed,
                                                      trace=True)
        traced = checked(line, data, reference, "traced run")
        if traced is None:
            return finish(errors, attempted, failed, {})
        result = layers(w, line, spans_f, metrics_f, traced, raw_wall)
    return finish(errors, attempted, failed, result)


def layers(w, line, spans_f, metrics_f, report, untraced_wall):
    """Print and return the per-layer metrics of the traced run."""
    values, split = metrics.layer_metrics(
        w, read_json(spans_f), read_json(metrics_f), report, line,
        untraced_wall)
    print("  traced run: wall %.4f s; host split of bench.run:"
          % line["wall_s"])
    for name, value in sorted(split.items()):
        print("    gap %-14s %10.4f s" % (name, value))
    for name, unit, _ in metrics.LAYER_METRICS:
        print("  %-28s %12s %s" % (name, fmt(values[name]), unit))
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in metrics.LAYER_METRICS}


def finish(errors, attempted, failed, result):
    for e in errors:
        print("CHECK FAILED: " + e)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
