#!/usr/bin/env python3
"""Record the pinned expected values of the benchmark's checks.

    python3 perfbench/pin.py

Runs every workload's items once at full size with a recording ``Pins``
and writes ``perfbench/pinned.json``.  Values for the same key must agree
within the run (for example the Jones polynomial of a family's base,
reached from every untwisted witness).  Run it only to pin the values of
a commit whose outputs are trusted; the self-test then cross-checks the
small ones against brute force.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from run import WORKLOADS, direct  # noqa: E402


def main() -> int:
    pins = workloads.Pins()
    fams = workloads.load_families(direct)
    for name in WORKLOADS:
        for _, run in workloads.build(name, fams, 1, pins):
            run(direct)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.values.items())]
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    workloads.PINNED_PATH.write_text(text, encoding="utf-8")
    print(f"pinned {len(pins.values)} values to {workloads.PINNED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
