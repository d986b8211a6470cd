#!/usr/bin/env python3
"""Build the ledger and run one workload.

    python3 ledger/run.py --workload <live_mesh|replay_tiers|serve_tenants> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the ledger (Release, the root CMakeLists.txt's flags) into
.bench_build/ (or $CARGO_TARGET_DIR); later runs only re-check the build.
Build output goes to stderr, so the last line of stdout is the ledger's
JSON result. A traced run writes its spans to
.bench_build/traces/trace-<workload>-<seed>.json.

Exits nonzero, without a result line, when the library sources are
missing, the build fails, or a correctness check fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
WORKLOADS = ("live_mesh", "replay_tiers", "serve_tenants")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"meshopt sources not found in {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(LEDGER), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "meshledger",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", code=3)
    return build_dir / "meshledger"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-file",
                str(traces / f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"meshledger did not finish within {RUN_TIMEOUT_S} s", code=4)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
