"""The benchmark's output checks, run at its tiny size.

Every item of every ``perfbench`` workload runs once through the untraced
call path and is checked against ``perfbench/pinned.json`` and the closed
forms, so a change to an output the benchmark checks, or to the keywords
it passes to the library, fails the suite and not only the benchmark.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def families():
    return workloads.load_families(run.direct)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_workload_matches_pins(workload, families):
    items = workloads.build(workload, families, 1, workloads.Pins.load(), workloads.TINY)
    assert items
    for item_id, item in items:
        try:
            item(run.direct)
        except workloads.Mismatch as exc:
            pytest.fail(f"{item_id}: {exc}")
