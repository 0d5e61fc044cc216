#!/usr/bin/env python3
"""Smoke test of the layer ledger (ctest `ledger_smoke`).

For every workload in BENCHMARK.json it runs `fftx_ledger --smoke` in all
three passes (set-up, end-to-end, per-layer) and checks the result schema,
that every metric BENCHMARK.json names is present with its unit and a
finite value, and that no operation failed (error_frac == 0).  It then
checks seed hygiene -- two seeds check different bands under an identical
configuration -- and that --self-test makes the output check fire.

    python3 bench/ledger/test_ledger.py --binary PATH/TO/fftx_ledger
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
KEYS = {"config", "metrics", "attempted", "failed", "correct"}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what, flush=True)


def ledger(binary, *args):
    proc = subprocess.run([binary, "--smoke", *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def check_pass(binary, workload, args, metrics):
    label = " ".join([workload, *args]) or workload
    code, res = ledger(binary, "--workload", workload, *args)
    expect(code == 0, f"{label}: exit code {code}")
    expect(set(res) == KEYS, f"{label}: result keys {sorted(res)}")
    expect(res.get("correct") is True and res.get("failed") == 0
           and res.get("attempted", 0) >= 1,
           f"{label}: error_frac != 0 ({res.get('failed')} of "
           f"{res.get('attempted')})")
    got = res.get("metrics", {})
    for m in metrics:
        v = got.get(m["name"], {})
        expect(set(v) == {"value", "unit"} and v["unit"] == m["unit"]
               and isinstance(v["value"], (int, float))
               and math.isfinite(v["value"]),
               f"{label}: metric {m['name']} missing or malformed: {v}")
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    b = ap.parse_args().binary
    spec = json.loads(SPEC.read_text())
    e2e = spec["end_to_end"]
    setup = [m for m in e2e if m["name"] == "setup_s"]
    measured = [m for m in e2e if m["name"] != "setup_s"]

    for w in (x["name"] for x in spec["workloads"]):
        check_pass(b, w, ["--setup-only"], setup)
        check_pass(b, w, [], measured)
        check_pass(b, w, ["--layers"], spec["per_layer"])

    # --seed changes the inputs and nothing else.
    one = check_pass(b, "paper_original", ["--seed", "1"], measured)
    two = check_pass(b, "paper_original", ["--seed", "2"], measured)
    expect(one["config"]["preset"] == two["config"]["preset"],
           "seeds 1 and 2 resolved different configurations")
    expect(one["config"]["checks"]["first_band"] !=
           two["config"]["checks"]["first_band"] or
           one["config"]["checks"]["carried_bands"] !=
           two["config"]["checks"]["carried_bands"],
           "seeds 1 and 2 checked the same bands")

    # The check fires on a corrupted coefficient.
    for w in ("paper_original", "service_mixed"):
        code, res = ledger(b, "--workload", w, "--self-test")
        expect(code != 0 and res.get("failed", 0) >= 1,
               f"{w} --self-test: check did not fire (exit {code})")

    print("ledger smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
