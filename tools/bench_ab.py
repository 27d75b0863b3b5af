#!/usr/bin/env python3
"""Same-runner A/B perf gate: the benchmark on a parent and a change tree.

    python3 tools/bench_ab.py PARENT_DIR CHANGE_DIR

For every workload in CHANGE_DIR/BENCHMARK.json, runs
`benchmark/run.py --workload W --seconds 10` in both checkouts, PAIRS
times each, alternating which tree runs first. Each tree builds into its
own `<tree>/.bench_build`. Every result line is saved under
CHANGE_DIR/benchmark-results/, and a GitHub-flavoured table of each
end-to-end metric goes to stdout; build and run logs go to stderr.

Exits 1 when a run fails, when a result line is not `"correct": true`
with `"failed": 0`, or when an end-to-end metric regresses on a
workload: the change's median is worse than the parent's by more than
the metric's BENCHMARK.json bound, and the change is worse in at least
MIN_PAIRS_LOST of the PAIRS pairs.
"""

import json
import os
import statistics
import subprocess
import sys

# With the pair rule, ~3 % A/A false alarms at 15-27 % single-run spread.
PAIRS = 7
# Settles the fastest-repeat timings; 42 runs of ~11 s cost ~8 minutes.
SECONDS = 10
# A lone slow run on a shared runner can move a median, not lose 6 pairs.
MIN_PAIRS_LOST = 6


def run_once(tree, workload):
    """Runs one workload in `tree`; returns its result line, raw and
    parsed."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seconds", str(SECONDS)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{tree}: {workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"{tree}: {workload} is not correct: {lines[-1]}")
    return lines[-1], result


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = (os.path.abspath(path) for path in sys.argv[1:])
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = os.path.join(change, "benchmark-results")
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        order = ("parent", "change")
        for pair in range(PAIRS):
            for side in order if pair % 2 == 0 else reversed(order):
                print(f"{workload} pair {pair + 1}/{PAIRS}: {side}",
                      file=sys.stderr)
                runs[side].append(
                    run_once(parent if side == "parent" else change,
                             workload))
        for side, results in runs.items():
            with open(os.path.join(out_dir, f"{workload}.{side}.jsonl"),
                      "w") as f:
                f.writelines(line + "\n" for line, _ in results)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            base = [r["metrics"][name]["value"] for _, r in runs["parent"]]
            cur = [r["metrics"][name]["value"] for _, r in runs["change"]]
            base_median = statistics.median(base)
            cur_median = statistics.median(cur)
            delta = (cur_median - base_median) / base_median
            lost = sum(sign * (c - b) > 0 for b, c in zip(base, cur))
            bad = sign * delta > metric["bound"] and lost >= MIN_PAIRS_LOST
            regressed = regressed or bad
            rows.append(f"| {workload} | `{name}` | {base_median:.4g} | "
                        f"{cur_median:.4g} | {delta:+.1%} | {lost}/{PAIRS} | "
                        f"{'**REGRESSED**' if bad else 'ok'} |")

    print(f"### Benchmark A/B: {PAIRS} alternating pairs of {SECONDS} s runs"
          f" per workload — {'REGRESSED' if regressed else 'ok'}\n")
    print("| workload | metric | parent median | change median | delta "
          "| pairs lost | verdict |")
    print("|---|---|---:|---:|---:|---:|---|")
    print("\n".join(rows))
    print(f"\nA metric regresses when the change's median is worse than the "
          f"parent's by more than its BENCHMARK.json bound and the change "
          f"is worse in at least {MIN_PAIRS_LOST} of {PAIRS} pairs.")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
