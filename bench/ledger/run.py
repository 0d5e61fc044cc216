#!/usr/bin/env python3
"""Layer-ledger driver: builds fftx_ledger from source, runs one workload and
prints one JSON result line.

    python3 bench/ledger/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--smoke]

Run from anywhere inside a checkout of the repository.  --trace 0 reports
the end-to-end metrics named in BENCHMARK.json; setup_s is the median of
several cold --setup-only launches.  --trace 1 runs the per-layer pass and
reports the per-layer metrics.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the build log and a
human-readable table go to stderr, and each child's full result (resolved
config, checks, spans, Chrome trace) lands in .bench_build/ledger/out/.
Exits nonzero when the build fails, a check fails or a metric is missing.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"
BINARY = BUILD / "fftx_ledger"
OUT = BUILD / "out"
SETUP_LAUNCHES = 5
BUDGET_S = 170.0  # one invocation, build excluded


class LedgerError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally, serialized by a lock file."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise LedgerError(f"no library sources under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release", *gen],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "fftx_ledger", "-j", jobs],
                       stdout=sys.stderr, check=True)


def ledger(args, deadline):
    """Runs one fftx_ledger process; returns its result JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise LedgerError("time budget spent before " + " ".join(args))
    proc = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise LedgerError(f"fftx_ledger {' '.join(args)} printed no result")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("failed", 0) == 0:
        raise LedgerError(f"fftx_ledger exited {proc.returncode}")
    return result


def measure(opts):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if opts.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]

    OUT.mkdir(parents=True, exist_ok=True)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds), "--out", str(OUT)]
    if opts.smoke:
        common.append("--smoke")
    deadline = time.monotonic() + BUDGET_S

    if opts.trace:
        results = [ledger(common + ["--layers"], deadline)]
        metrics = dict(results[0]["metrics"])
    else:
        launches = 1 if opts.smoke else SETUP_LAUNCHES
        setups = [ledger(common + ["--setup-only"], deadline)
                  for _ in range(launches)]
        results = setups + [ledger(common, deadline)]
        metrics = dict(results[-1]["metrics"])
        metrics["setup_s"] = {
            "value": statistics.median(
                r["metrics"]["setup_s"]["value"] for r in setups),
            "unit": "s"}

    missing = [n for n in names if n not in metrics]
    if missing:
        raise LedgerError("missing metrics: " + ", ".join(missing))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0 and all(r["correct"] for r in results),
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: metrics[n] for n in names}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="8 bands, 2 timed runs, a 2 s service run")
    opts = ap.parse_args()
    try:
        build()
        result = measure(opts)
    except (LedgerError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
