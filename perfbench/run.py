#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload lu_ll|mm25d|cacg_3d --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
the perfbench CMake package (the library sources under src/ plus the
program under perfbench/src) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only re-check the build.  Build
output goes to stderr, so the last line of stdout is the program's JSON
result.  --trace 1 also writes a Chrome trace-event file to
<build dir>/traces/<workload>-seed<N>.json.  The exit code is the
program's: 0 only when every op was verified.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "dist").is_dir():
        fail(f"no library sources under {ROOT / 'src'}; run from a checkout")
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return build_dir / "wa_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="self-test shapes (see selftest.py)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    exe = build(build_dir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"wa_perfbench did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
