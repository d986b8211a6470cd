#!/usr/bin/env python3
"""Run every workload repeatedly and report how steady each metric is.

    python3 ledger/steadiness.py [--runs 10] [--seconds 10] [--seed 1]
                                 [--workloads live_mesh,replay_tiers,...]

Run from the repository root. Makes --runs rounds; each round runs every
workload once through ledger/run.py with seed --seed + round, in forward
order on even rounds and reverse order on odd ones, so slow drift of the
host hits every workload alike. Prints, per workload and end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4), the
interquartile range as a share of the median, and that share against the
metric's bound in BENCHMARK.json (set-up time is listed but not held to
its bound: its spread is process start-up noise). Also prints each
workload's failed share. Exits nonzero if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "ledger" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"steadiness: {workload} seed {seed} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            results[w].append(run_once(w, args.seed + i, args.seconds))
            print(f"run {i + 1}/{args.runs} {w}: "
                  + json.dumps(results[w][-1]["metrics"]), file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<14} {'metric':<12} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'bound':>6}  within bound/3")
    for w in workloads:
        rows = results[w]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = ("n/a (set-up)" if name == "setup_s"
                       else "yes" if spread < bound / 3 else "NO")
            print(f"{w:<14} {name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6}  {verdict}")
        attempted = sum(r["attempted"] for r in rows)
        failed = sum(r["failed"] for r in rows)
        shares = sorted({r["failed"] / r["attempted"] for r in rows})
        print(f"{w:<14} failed {failed}/{attempted}; per-run failed shares "
              f"{shares}")


if __name__ == "__main__":
    main()
