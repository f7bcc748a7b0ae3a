#!/usr/bin/env python3
"""Compares two sets of perfbench runs: a parent checkout against a change.

    # Run pairs: pair i uses seed i+1 on both sides, and the side that
    # runs first alternates from pair to pair.  Every run lasts
    # BENCHMARK.json's run_seconds.
    python3 perfbench/compare.py run --parent ../parent --change . \\
        --pairs 10 --out runs.jsonl

    # Report per workload and per end-to-end metric of BENCHMARK.json.
    python3 perfbench/compare.py report runs.jsonl

For each workload and end-to-end metric of this repository's
BENCHMARK.json, the report gives each side's median and
quartiles, the share of pairs the change wins (ties count for neither),
and a verdict:

  gain         the change wins >= 9/10 of the pairs and the medians differ
               by more than the parent's own spread (q3 - q1)
  regression   the change's median is worse than the parent's by more than
               the metric's bound
  unresolved   the parent's spread, (q3 - q1) / median, is wider than the
               bound, unless every change run beats every parent run
  within bound none of the above

Quartiles come from statistics.quantiles(values, n=4).  `report` exits 1
when a run was incorrect or a metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import build_dir  # noqa: E402  (the build tree of a checkout)


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as f:
        return json.load(f)


def run_one(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "exit": proc.returncode}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def driver_of(checkout: str) -> str:
    return os.path.join(build_dir(os.path.abspath(checkout)), "perfbench")


def cmd_run(opts: argparse.Namespace) -> int:
    spec = load_spec()
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in spec["workloads"]])
    sides = {"parent": opts.parent, "change": opts.change}
    same_checkout = (os.path.realpath(opts.parent)
                     == os.path.realpath(opts.change))
    with open(opts.out, "a", encoding="utf-8") as out:
        for pair in range(opts.pairs):
            seed = pair + 1
            order = ["parent", "change"] if pair % 2 == 0 else [
                "change", "parent"]
            for workload in workloads:
                for side in order:
                    result = run_one(sides[side], workload, seed,
                                     spec["run_seconds"])
                    line = {"side": side, "pair": pair, "seed": seed,
                            "workload": workload, "result": result}
                    out.write(json.dumps(line) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: "
                          f"correct={result['correct']}", file=sys.stderr)
            if pair == 0 and not same_checkout:
                # Two checkouts must have run two builds: a shared build
                # tree would make every comparison agree with itself.
                a, b = (driver_of(sides[s]) for s in ("parent", "change"))
                if (not os.path.exists(a) or not os.path.exists(b)
                        or os.path.samefile(a, b)):
                    raise SystemExit(
                        f"compare: parent and change did not run two "
                        f"distinct builds ({a}, {b})")
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_report(opts: argparse.Namespace) -> int:
    spec = load_spec()
    runs: dict[tuple[str, str], dict[int, dict]] = {}
    with open(opts.runs, encoding="utf-8") as f:
        for raw in f:
            line = json.loads(raw)
            runs.setdefault((line["workload"], line["side"]), {})[
                line["pair"]] = line["result"]
    status = 0
    workloads = sorted({w for w, _ in runs})
    for workload in workloads:
        parent = runs.get((workload, "parent"), {})
        change = runs.get((workload, "change"), {})
        pairs = sorted(set(parent) & set(change))
        bad = [p for p in pairs
               if not (parent[p]["correct"] and change[p]["correct"])]
        print(f"\n== {workload}: {len(pairs)} pair(s)"
              + (f", INCORRECT runs in pairs {bad}" if bad else ""))
        if bad:
            status = 1
        print(f"{'metric':26} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'spread p/c':>11} {'wins':>6} "
              f"{'bound':>5}  verdict")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            pv = [parent[p]["metrics"][name]["value"] for p in pairs
                  if name in parent[p]["metrics"]]
            cv = [change[p]["metrics"][name]["value"] for p in pairs
                  if name in change[p]["metrics"]]
            if not pv or len(pv) != len(cv):
                print(f"{name:26} missing values")
                status = 1
                continue
            pq, cq = quartiles(pv), quartiles(cv)

            def better(a: float, b: float) -> bool:
                return a < b if lower else a > b

            wins = sum(better(c, p) for p, c in zip(pv, cv))
            spread_p = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
            spread_c = (cq[2] - cq[0]) / cq[1] if cq[1] else 0.0
            worse_by = ((cq[1] - pq[1]) if lower else (pq[1] - cq[1])) / pq[1] \
                if pq[1] else 0.0
            all_better = all(better(c, p) for c in cv for p in pv)
            all_worse = all(better(p, c) for c in cv for p in pv)
            if worse_by > m["bound"] and (spread_p <= m["bound"] or all_worse):
                verdict = "regression"
                status = 1
            elif (wins >= 0.9 * len(pv) and better(cq[1], pq[1])
                  and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
                verdict = "gain"
            elif spread_p > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{name:26} {fmt.format(*pq):>30} {fmt.format(*cq):>30} "
                  f"{spread_p:5.3f}/{spread_c:5.3f} {wins:3}/{len(pv):<2} "
                  f"{m['bound']:5.2f}  {verdict}")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating parent/change pairs")
    r.add_argument("--parent", required=True, help="parent checkout root")
    r.add_argument("--change", required=True, help="change checkout root")
    r.add_argument("--workloads", default="", help="comma list (default all)")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--out", required=True, help="JSON-lines file to append")
    p = sub.add_parser("report", help="summarise a runs file")
    p.add_argument("runs")
    opts = ap.parse_args()
    return cmd_run(opts) if opts.cmd == "run" else cmd_report(opts)


if __name__ == "__main__":
    sys.exit(main())
