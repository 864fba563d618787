#!/usr/bin/env python3
"""Tiny-size self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the self-test shapes (--tiny,
one second) through run.py, untraced and traced, and checks that:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, every op verified, exit code 0;
  * every end-to-end (untraced) and per-layer (traced) metric named in
    BENCHMARK.json is printed, with the unit given there, as a finite
    number, and end-to-end values are never 0;
  * the exact-count pins hold: lu_ll writes n^2/P NVM words, cacg_3d's
    NVM writes per CG step are within 15% of the Section 8 model, and
    the lu_ll and mm25d counts do not depend on the seed;
  * the traced run wrote Chrome trace-event JSON;
  * an unknown workload exits non-zero without a result line.
Exits 0 when all hold.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (7, 8)
EXACT = ("nvm_write_words", "net_words", "net_messages", "iterations")
TINY = {"lu_ll": {"n": 48, "P": 4}, "cacg_3d": {"n": 512, "P": 4, "s": 4}}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None)


def check_result(tag, code, res, spec):
    expect(code == 0, f"{tag}: exit code {code}")
    if res is None:
        expect(False, f"{tag}: no result line")
        return {}
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys {sorted(res)}")
    expect(res.get("correct") is True and res.get("failed") == 0
           and res.get("attempted", 0) >= 1, f"{tag}: ops not all verified")
    metrics = res.get("metrics", {})
    expect(set(metrics) == {m["name"] for m in spec},
           f"{tag}: metric names differ from BENCHMARK.json")
    for m in spec:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"],
               f"{tag}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        v = got.get("value")
        expect(isinstance(v, (int, float)) and math.isfinite(v),
               f"{tag}: {m['name']} value {v!r}")
    return {k: v["value"] for k, v in metrics.items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in bench["workloads"]):
        counts = []
        for seed in SEEDS:
            code, res = run(wl, seed, 0)
            vals = check_result(f"{wl}/seed{seed}", code, res,
                                bench["end_to_end"])
            for m in bench["end_to_end"]:
                expect(vals.get(m["name"]) != 0, f"{wl}: {m['name']} is 0")
            counts.append({k: vals.get(k) for k in EXACT})
        if wl in ("lu_ll", "mm25d"):
            expect(counts[0] == counts[1],
                   f"{wl}: exact counts depend on the seed {counts}")
        if wl == "lu_ll":
            n, P = TINY[wl]["n"], TINY[wl]["P"]
            expect(counts[0]["nvm_write_words"] == n * n // P,
                   f"lu_ll: NVM writes {counts[0]['nvm_write_words']} "
                   f"!= n^2/P = {n * n // P}")
        if wl == "cacg_3d":
            t = TINY[wl]
            model = 3.0 / t["s"] * t["n"] / t["P"]
            per_step = counts[0]["nvm_write_words"] / counts[0]["iterations"]
            expect(abs(per_step / model - 1.0) <= 0.15,
                   f"cacg_3d: NVM writes/step {per_step} vs model {model}")

        code, res = run(wl, SEEDS[0], 1)
        check_result(f"{wl}/traced", code, res, bench["per_layer"])
        target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        traces = list(target.glob(f"**/traces/{wl}-seed{SEEDS[0]}.json"))
        expect(len(traces) == 1, f"{wl}: trace file not found")
        if traces:
            events = json.loads(traces[0].read_text())["traceEvents"]
            expect(events and all(e["ph"] == "X" for e in events),
                   f"{wl}: trace has no complete events")

    code, res = run("no_such_workload", 1, 0)
    expect(code != 0 and res is None, "unknown workload was accepted")
    print("selftest: " + ("OK" if not failures else
                          f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
