#!/usr/bin/env python3
"""Baseline drift check and speed-ratio floors for the bench --json reports.

Usage: check_drift.py [--tol REL] [--perf KEY>=FLOOR ...]
                      BASELINE_DIR REPORT.json [...]

Each REPORT is compared against BASELINE_DIR/<basename REPORT>.  The
reports are two-level JSON objects: case -> counter -> number.  Keys
containing "wall" or "seconds" are wall-clock measurements, and keys
ending in "_ratio" are same-run speed ratios; both are skipped.  Every
other value is a deterministic simulator counter, so a relative
deviation beyond --tol (default 5%) fails the check, as does a case or
counter appearing on only one side.

--perf KEY>=FLOOR (repeatable) gates a same-run ratio instead: every
occurrence of KEY in the REPORTs -- a bare key, or CASE.KEY -- must be
at least FLOOR, and KEY must occur in at least one report.  Ratios of
two timings taken in the same process are robust to a noisy host in
a way absolute wall times are not.

Regenerating a baseline after an *intentional* counter change:
    WA_SCALE=... WA_PROCS=... build/bench/<bench> --json \\
        bench/baselines/BENCH_<bench>.json
(the exact pinned environments live in .github/workflows/ci.yml).
"""

import json
import os
import sys


def is_timing(key: str) -> bool:
    return "wall" in key or "seconds" in key or key.endswith("_ratio")


def parse_perf(spec: str):
    """'KEY>=FLOOR' -> (KEY, FLOOR), or None when malformed."""
    key, sep, floor = spec.partition(">=")
    if not sep or not key:
        return None
    try:
        value = float(floor)
    except ValueError:
        return None
    if value != value:  # NaN
        return None
    return key, value


def check_perf(reports: dict, key: str, floor: float) -> list[str]:
    """Every occurrence of KEY (bare or CASE.KEY) must be >= floor."""
    errors, seen = [], 0
    for name, got in reports.items():
        for case, kv in got.items():
            for k, v in kv.items():
                if key not in (k, f"{case}.{k}"):
                    continue
                seen += 1
                if not float(v) >= floor:
                    errors.append(f"{name}: {case}.{k} = {float(v):g} "
                                  f"below the floor {floor:g}")
    if seen == 0:
        errors.append(f"--perf {key}: key not found in any report")
    return errors


def compare(base: dict, got: dict, tol: float, name: str) -> list[str]:
    errors = []
    for case in sorted(set(base) | set(got)):
        if case not in got:
            errors.append(f"{name}: case '{case}' missing from report")
            continue
        if case not in base:
            errors.append(f"{name}: case '{case}' not in baseline "
                          "(regenerate the baseline if intentional)")
            continue
        bkv, gkv = base[case], got[case]
        for key in sorted(set(bkv) | set(gkv)):
            if is_timing(key):
                continue
            if key not in gkv:
                errors.append(f"{name}: {case}.{key} missing from report")
                continue
            if key not in bkv:
                errors.append(f"{name}: {case}.{key} not in baseline")
                continue
            b, g = float(bkv[key]), float(gkv[key])
            denom = max(abs(b), 1.0)
            rel = abs(g - b) / denom
            if rel > tol:
                errors.append(
                    f"{name}: {case}.{key} drifted {rel:.1%} "
                    f"(baseline {b:g}, measured {g:g}, tol {tol:.1%})")
    return errors


def usage_error(msg: str) -> int:
    print(f"check_drift.py: {msg}", file=sys.stderr)
    print(__doc__, file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    args = argv[1:]
    tol = 0.05
    perf = []
    while args and args[0] in ("--tol", "--perf"):
        # Garbage option values exit 2 with a usage message, matching
        # the strict WA_* env-parsing convention of the C++ benches,
        # instead of dying with an unhandled ValueError traceback.
        if len(args) < 2:
            return usage_error(f"{args[0]} needs a value")
        if args[0] == "--tol":
            try:
                tol = float(args[1])
            except ValueError:
                tol = float("nan")
            if not tol >= 0:  # also rejects NaN
                return usage_error("--tol must be a non-negative number, "
                                   f"got '{args[1]}'")
        else:
            spec = parse_perf(args[1])
            if spec is None:
                return usage_error("--perf must look like KEY>=FLOOR, "
                                   f"got '{args[1]}'")
            perf.append(spec)
        args = args[2:]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2

    baseline_dir, reports = args[0], args[1:]
    errors = []
    loaded = {}
    for report in reports:
        name = os.path.basename(report)
        with open(report) as f:
            got = json.load(f)
        loaded[name] = got
        base_path = os.path.join(baseline_dir, name)
        if not os.path.exists(base_path):
            errors.append(f"{name}: no baseline at {base_path} "
                          "(check it in to enable the drift guard)")
            continue
        with open(base_path) as f:
            base = json.load(f)
        errors.extend(compare(base, got, tol, name))
    for key, floor in perf:
        errors.extend(check_perf(loaded, key, floor))

    if errors:
        print("bench check failed:")
        for e in errors:
            print("  " + e)
        return 1
    gates = f", {len(perf)} perf floor(s)" if perf else ""
    print(f"bench baselines clean ({len(reports)} report(s), "
          f"tol {tol:.1%}{gates})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
