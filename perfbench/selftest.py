#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that:

* ``BENCHMARK.json`` equals the manifest ``run.py --write-manifest`` writes;
* every workload, untraced and traced, prints every declared metric by
  name with its unit, its last line carries exactly those metrics, and
  no item fails;
* a different seed changes the walks of ``move_walk`` but none of the
  outputs it checks;
* the pinned Jones polynomials of members with at most 12 crossings, and
  the torus closed forms there, equal the brute-force state sum of
  ``tests/oracles.py``.

Prints each problem found and exits 1 if there is any.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

import run  # noqa: E402
import workloads  # noqa: E402
from tests.oracles import jones_bruteforce  # noqa: E402
from twistknots.families import twist  # noqa: E402

BRUTE_FORCE_MAX_CROSSINGS = 12

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_manifest() -> None:
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(committed == run.manifest(), "BENCHMARK.json differs from run.manifest()")


def check_outputs() -> None:
    declared = {
        0: {name: unit for name, unit, _ in run.END_TO_END},
        1: dict(run.per_layer_metrics()),
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", str(trace)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(argv, sizes=workloads.TINY)
            lines = out.getvalue().strip().splitlines()
            where = f"{workload} --trace {trace}"
            check(code == 0, f"{where}: exit code {code}")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{where}: {result['failed']} of {result['attempted']} items failed")
            want = declared[trace]
            check(set(result["metrics"]) == set(want),
                  f"{where}: metrics {sorted(result['metrics'])}")
            for name, unit in want.items():
                check(result["metrics"].get(name, {}).get("unit") == unit,
                      f"{where}: {name} lacks unit {unit} in the result")
                printed = rf"{re.escape(name)} -?[0-9.e+-]+ {re.escape(unit)}"
                check(any(re.fullmatch(printed, line) for line in lines[:-1]),
                      f"{where}: {name} not printed with unit {unit}")
            if trace == 0:
                check("failed_frac 0 frac" in lines, f"{where}: failed_frac is not 0")


def check_seed_changes_walk_only() -> None:
    fams = workloads.load_families(run.direct)
    logs, seen = [], []
    for seed in (1, 2):
        pins, log = workloads.Pins.load(), {}
        for _, item in workloads.build("move_walk", fams, seed, pins, workloads.TINY, log):
            item(run.direct)
        logs.append(log)
        seen.append(pins.seen)
    check(logs[0] != logs[1], "move_walk: seeds 1 and 2 took the same walks")
    check(seen[0] == seen[1], "move_walk: seeds 1 and 2 checked different outputs")


def check_against_brute_force() -> None:
    fams = workloads.load_families(run.direct)
    pinned = json.loads(workloads.PINNED_PATH.read_text(encoding="utf-8"))
    compared = 0
    for key, value in pinned.items():
        m = re.fullmatch(r"(\w+)/n=(-?\d+)/jones", key)
        if not m:
            continue
        d = twist(fams[m[1]], int(m[2]))
        if d.n_crossings <= BRUTE_FORCE_MAX_CROSSINGS:
            check([list(p) for p in jones_bruteforce(d).pairs()] == value,
                  f"{key}: pinned Jones differs from brute force")
            compared += 1
    for fname, (p0, q) in workloads.TORUS.items():
        for n in range(-12, 13):
            d = twist(fams[fname], n)
            if d.n_crossings <= BRUTE_FORCE_MAX_CROSSINGS:
                check(jones_bruteforce(d) == workloads.torus_jones(p0 + q * n, q),
                      f"{fname}/n={n}: closed-form Jones differs from brute force")
                compared += 1
    check(compared >= 10, f"only {compared} values compared with brute force")


def main() -> int:
    for test in (check_manifest, check_outputs, check_seed_changes_walk_only,
                 check_against_brute_force):
        test()
        print(f"{test.__name__}: {'ok' if not problems else 'FAILED'}")
        if problems:
            break
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
