#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/steady.py --runs 10 --against perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed 1..runs for each workload, one
process at a time, and reports per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  A spread is
"ok" within the metric's bound and "steady" below a third of it
(``setup_s`` is only held to the second rule's comparison of medians).
With ``--against``, each median is also compared with the median of an
earlier report, which may be worse by at most the bound.  Exits 1 if a
run fails its checks, a spread other than ``setup_s`` exceeds its bound
or a median is worse than ``--against`` by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, HERE, ROOT, RUN_SECONDS, WORKLOADS


def run_once(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "ok": spread <= bound,
        "steady": spread < bound / 3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    earlier = json.loads(args.against.read_text()) if args.against else None
    seeds = list(range(1, args.runs + 1))
    report = {"runs": args.runs, "seeds": seeds, "seconds": RUN_SECONDS, "workloads": {}}
    bad = False
    print(f"{'workload':18} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>5}  verdict")
    for workload in WORKLOADS:
        results = [run_once(workload, s) for s in seeds]
        failed = sum(r["failed"] for r in results)
        rows = {}
        for name, unit, bound in END_TO_END:
            row = summarize([r["metrics"][name]["value"] for r in results], bound)
            row["unit"] = unit
            verdict = "steady" if row["steady"] else "ok" if row["ok"] else "WIDE"
            if name != "setup_s":
                bad |= not row["ok"]
            else:
                verdict += " (not gated)"
            if earlier:
                old = earlier["workloads"][workload][name]["median"]
                row["change"] = row["median"] / old - 1
                verdict += f", {row['change']:+.3f} vs earlier"
                if row["change"] > bound:
                    verdict += " WORSE"
                    bad = True
            rows[name] = row
            print(f"{workload:18} {name:12} {row['median']:10.5g} {row['q1']:10.5g} "
                  f"{row['q3']:10.5g} {row['spread']:7.4f} {bound:5.2f}  {verdict}")
        report["workloads"][workload] = dict(rows, failed=failed,
                                             attempted=sum(r["attempted"] for r in results))
        if failed or not all(r["correct"] for r in results):
            print(f"{workload}: {failed} failed items")
            bad = True
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
