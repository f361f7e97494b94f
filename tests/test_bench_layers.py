"""A smoke run of ``scripts/bench_layers.py``: every row once, so a
change of a call's output or counter record shape breaks tier-1 rather
than the next layer-bench run, and the rows read the counters pinned in
the invariant tests."""

import ast
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from twistknots.corpus import chain_family
from twistknots.diagram import parse_pd, serialize
from twistknots.families import twist

from .test_invariants import PINNED_SIGNATURES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"
REPEAT_CONSTANTS = ("REPEATS", "JONES_REPEATS", "SHORT_JONES_REPEATS", "MOVE_REPEATS",
                    "TWIST_REPEATS", "SPLIT_REPEATS")
# the (layer, input) rows the layer bench must keep, by layer
KEPT_ROWS = {
    "families.TwistFamily": ["load_corpus(), chain_family(3), chain_family(4)"],
    "families.twist": ["chain_4 n=13", "chain_4 n=52", "torus_q3 n=13", "torus_q3 n=40",
                       "whitehead n=30", "wind3_wrap9 n=10"],
    "families.untwist_schedule": ["chain_4 n=13", "chain_4 n=52", "torus_q3 n=13", "torus_q3 n=40"],
    "diagram.change_crossings": ["chain_4 n=13, untwist sites"],
    "diagram.mirror": ["chain_4 n=13"],
    "diagram.disjoint_union": ["3 x chain_4 n=13"],
    "moves.greedy_simplify": [*(f"chain_4 n={n}, untwist sites changed" for n in (10, 50, 100)),
                              "torus_q3 n=13, untwist sites changed",
                              "chain_3 n=13, untwist sites changed"],
    "invariants._scan_order": ["wind3_wrap9 n=10", "wind3_wrap9 n=30", "whitehead n=30",
                               "torus_q3 n=12"],
    "invariants.signature": ["chain_4 n=13", "chain_4 n=26", "chain_4 n=52", "chain_4 n=200",
                             "torus_q3 n=13", "torus_q3 n=40", "whitehead n=30", "torus_q2 n=13",
                             "largewrap_w0_p4 n=50", "chain_3 n=13", "3 x chain_4 n=13, split",
                             "wind3_wrap9 n=0, split"],
    "diagram.structurally_equal": ["3 x chain_4 n=13, split, against a relabelled shuffled copy"],
    "invariants.kauffman_bracket_jones": [
        "wind3_wrap9 n=1", "wind3_wrap9 n=10", "wind3_wrap9 n=30", "whitehead n=30",
        "largewrap_w0_p4 n=7", "torus_q3 n=12", "wind3_wrap9 n=1, cold table",
        "whitehead n=30, cold table", "torus_q3 n=12, cold table", "full twist on 8 strands",
        "full twist on 8 strands, as Delta^2", "whitehead n=1",
        "torus_q3 n=0", "mazur n=10"],
    "families.coherent_reduction": ["whitehead", "mazur", "largewrap_w0_p4", "wind3_wrap9"],
    "moves.reidemeister_moves": [
        "whitehead n=-2", "whitehead n=2", "mazur n=-1", "mazur n=1", "torus_q2 n=2",
        "torus_q3 n=2", "largewrap_w0_p4 n=1", "chain_4 n=2, untwist sites changed",
        "torus_q2 n=3, untwist sites changed"],
    "diagram.parse_pd": ["chain_4 n=52", "chain_4 n=52, signs stripped"],
    "diagram.from_raw": ["3 x chain_4 n=13, relabelled and shuffled"],
    "braids.braid_closure": ["full twist on 8 strands", "full twist on 8 strands, as Delta^2"],
}


# stands in for tracemalloc: traces nothing and reports a zero peak
UNTRACED = SimpleNamespace(start=lambda: None, stop=lambda: None,
                           get_traced_memory=lambda: (0, 0))


@pytest.fixture(scope="module")
def bench_run():
    """The rows of one run, and its host record."""
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with pytest.MonkeyPatch.context() as patch:
        for name in REPEAT_CONSTANTS:
            patch.setattr(bench, name, 1)
        # the heap peak is a measurement, not a driver, and tracing makes
        # the long scans about 13 times slower
        patch.setattr(bench, "tracemalloc", UNTRACED)
        gauge = []
        rows = list(bench.rows(gauge))
        return rows, bench.host(gauge)


@pytest.fixture(scope="module")
def bench_rows(bench_run):
    return bench_run[0]


def test_host_gauge_times_the_reference_task_before_every_row(bench_run):
    rows, host = bench_run
    gauge = host["gauge"]
    assert gauge["task"] == "perfbench/reference.py sample()"
    assert gauge["samples"] == len(rows)
    assert gauge["median_s"] > 0 and gauge["iqr_s"] >= 0


def test_every_row_runs_once_with_its_drivers(bench_rows):
    pairs = [(row["layer"], row["input"]) for row in bench_rows]
    assert len(set(pairs)) == len(pairs)
    assert {(layer, i) for layer, inputs in KEPT_ROWS.items() for i in inputs} <= set(pairs)
    for row in bench_rows:
        assert row["repeats"] == 1
        assert None not in row.values(), row
    # only the wide scans take the untimed traced call for their heap peak
    heap = {(row["layer"], row["input"]) for row in bench_rows if "peak_kib" in row}
    assert heap == {("invariants.kauffman_bracket_jones", f"wind3_wrap9 n={n}") for n in (1, 10, 30)}


def test_parse_rows_read_back_the_member():
    d = twist(chain_family(4), 52)
    text = serialize(d)
    assert parse_pd(text) == d
    assert parse_pd(text.replace("X+", "X").replace("X-", "X")) == d


def test_cold_table_rows_scan_as_the_warm_ones(bench_rows):
    # a scan's counters do not depend on what the shared transition table
    # held before it, and a call right after the table is cleared leaves
    # in it exactly the (link, pattern) pairs it met
    jones = {row["input"]: row for row in bench_rows
             if row["layer"] == "invariants.kauffman_bracket_jones"}
    drivers = ("crossings", "width", "state_updates", "transitions", "repacks")
    for label in ("wind3_wrap9 n=1", "whitehead n=30", "torus_q3 n=12"):
        cold, warm = jones[f"{label}, cold table"], jones[label]
        assert [cold[k] for k in drivers] == [warm[k] for k in drivers]
        assert cold["table_entries"] == cold["transitions"]


def test_rows_read_the_pinned_counters(bench_rows):
    # each reader takes its fields by name from the record its call
    # returns: the scan's and the form's match the invariant tests' pins
    rows = {(row["layer"], row["input"]): row for row in bench_rows}
    scan = rows["invariants.kauffman_bracket_jones", "wind3_wrap9 n=1"]
    assert [scan[k] for k in ("crossings", "width", "state_updates", "transitions", "repacks")] == [
        78, 7, 1980, 311, 10]
    form = rows["invariants.signature", "chain_4 n=13"]
    (pinned,) = [pin for label, _, pin in PINNED_SIGNATURES if label == "chain_4 n=13"]
    assert (form["crossings"], form["white_faces"], form["peak_row_nonzeros"]) == (
        pinned[0], pinned[1], pinned[4])
    assert [rows["families.coherent_reduction", name]["candidates"]
            for name in ("whitehead", "mazur", "largewrap_w0_p4", "wind3_wrap9")] == [2, 2, 2, 1]


def test_script_imports_no_logging():
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "logging" not in {m.split(".")[0] for m in modules if m}
