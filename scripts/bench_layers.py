#!/usr/bin/env python3
"""Time the parse, placement, closure, twist, simplification, scan, signature,
reduction and move layers on their own.

Run from the repository root:

    python3 scripts/bench_layers.py --label after --out bench/BENCH_jones.json

``rows()`` holds one table, one row per line: the layer, the input's
label, the argument, the call and the number of calls timed.  One loop
times ``repeats`` calls of each row's call on its argument and writes
the median seconds ``s`` next to the cost drivers that the layer's
reader in ``DRIVERS`` takes from the last call's output, by name.  The
Jones and signature rows time ``invariants._jones`` and
``invariants._signature``, which return the value with the counters of
its scan or form, so no DEBUG record is read.  The move layer's reader
adds timings of its own (see ``move_drivers``), and the rows in
``HEAP_ROWS`` add the peak heap of one more call (``peak_kib``).
A Jones row also reports the entries of the transition table that every
scan shares after the row, and a row labelled "cold table" clears that
table before each call (see ``cold``).
The rows go into the ``--out`` JSON file under ``--label`` and other
labels are kept, so one file holds the numbers of a change before and
after.  Before each row the script times one run of the benchmark's
reference task (``perfbench/reference.py``'s ``sample()``), which uses
none of the library, and writes the median and interquartile range of
those times in the label's ``host`` record as a gauge of how fast the
host ran; each row's ``s`` stays the raw seconds.
"""

import argparse
import json
import os
import pathlib
import platform
import random
import statistics
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.reference import sample
from twistknots import braids, diagram, invariants, moves
from twistknots.corpus import chain_family, load_corpus
from twistknots.families import coherent_reduction, full_twist_braid, twist, untwist_schedule

REPEATS = 3
# most scans take milliseconds, so their median takes more calls; the
# long scans of wind3_wrap9 n=10, 30 take seconds and get REPEATS
JONES_REPEATS = 11
# the short scans take a millisecond or less
SHORT_JONES_REPEATS = 101
# a move enumeration takes milliseconds, so its median takes more calls
MOVE_REPEATS = 51
# so does a parse, a placement of raw rows, a braid closure, a twist, an
# untwist schedule, a crossing change or the simplification of a sweep
# witness
TWIST_REPEATS = 21
# and a signature, or a structural comparison of a split diagram
SPLIT_REPEATS = 21


def timed(fn, arg, repeats=REPEATS):
    """The last result of ``fn(arg)`` and the median seconds of a call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(arg)
        times.append(time.perf_counter() - start)
    return out, statistics.median(times)


# -- calls, each of a row's argument --------------------------------------


def unpacked(fn):
    """``fn`` of the items of an argument tuple."""
    return lambda args: fn(*args)


def scan_order(d):
    """The scan plan of ``d`` from its dart mates, derived as one Jones
    call derives them."""
    return invariants._scan_order(diagram._mates(d._tail, d._head))


def results(*finders):
    """The result of every move the ``finders`` find in a diagram, each
    one read once."""
    return lambda d: [move.result for find in finders for move in find(d)]


all_moves = results(moves.reidemeister_moves)


# -- each layer's cost drivers, from (argument, last output, seconds)


def signature_drivers(d, out, secs):
    """The form's rows (white faces) and peak row nonzeros."""
    _, form = out
    return {"crossings": form.crossings, "white_faces": form.white_faces,
            "peak_row_nonzeros": form.peak_row_nonzeros}


def cold(call):
    """``call`` right after the transition table that every scan shares is
    cleared, so the call derives each transition its scan meets; the
    clear, timed with it, frees the entries of the call before."""
    def run(arg):
        invariants._TRANSITIONS.clear()
        return call(arg)
    return run


def jones_drivers(d, out, secs):
    """The scan's width, state updates, transitions met and repacks, and the
    entries of the shared transition table after the row."""
    _, scan = out
    table = sum(len(by_g) for _, by_g in invariants._TRANSITIONS.values())
    return {"crossings": scan.crossings, "width": scan.width, "state_updates": scan.updates,
            "transitions": scan.transitions, "repacks": scan.repacks, "table_entries": table}


def peak_kib(call, arg):
    """The peak Python heap of one more call, untimed, under
    ``tracemalloc``, which makes the call about 20 times slower."""
    tracemalloc.start()
    call(arg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 1024, 1)


def move_drivers(d, built, secs):
    """The row times the enumeration plus a read of every result, so ``s``
    and ``us_per_result`` count every construction whether results are
    built on enumeration or on first read.  ``enumerate_s`` times the
    enumeration alone, ``removals_s`` the R1- and R2- moves of
    ``moves.removals`` and ``r3_s`` the R3 moves, each with every result
    read."""
    _, enumerate_s = timed(moves.reidemeister_moves, d, MOVE_REPEATS)
    removals, removals_s = timed(results(moves.removals), d, MOVE_REPEATS)
    r3, r3_s = timed(results(moves.r3_moves), d, MOVE_REPEATS)
    return {"crossings": d.n_crossings, "moves_out": len(built), "enumerate_s": round(enumerate_s, 6),
            "us_per_result": round(1e6 * secs / len(built), 2), "removals_out": len(removals),
            "removals_s": round(removals_s, 6), "r3_out": len(r3), "r3_s": round(r3_s, 6)}


# the rows that also report ``peak_kib``: the wide scans, whose states
# hold the heap
HEAP_ROWS = {("invariants.kauffman_bracket_jones", f"wind3_wrap9 n={n}") for n in (1, 10, 30)}


DRIVERS = {
    "families.TwistFamily": lambda arg, fs, _: {
        "families": len(fs), "crossings": sum(f.base.n_crossings for f in fs)},
    "diagram.parse_pd": lambda text, d, _: {"crossings": d.n_crossings},
    "diagram.from_raw": lambda raw, out, _: {"crossings": out[0].n_crossings},
    "braids.braid_closure": lambda word, d, _: {"strands": word.strands,
                                                "crossings": d.n_crossings},
    "families.twist": lambda f_n, d, _: {"crossings_out": d.n_crossings},
    "families.untwist_schedule": lambda f_n, sites, _: {
        "crossings_out": twist(*f_n).n_crossings, "sites": len(sites)},
    "diagram.change_crossings": lambda s, d, _: {"crossings": d.n_crossings, "sites": len(s)},
    "diagram.mirror": lambda d, out, _: {"crossings": out.n_crossings},
    "diagram.disjoint_union": lambda d, out, _: {"crossings": out.n_crossings,
                                                 "components": out.n_components},
    # the output is (diagram, trace), and the plan (order, width, links)
    "moves.greedy_simplify": lambda d, out, _: {"crossings": d.n_crossings, "steps": len(out[1])},
    "invariants._scan_order": lambda d, plan, _: {"crossings": d.n_crossings, "width": plan[1]},
    "invariants.signature": signature_drivers,
    "diagram.structurally_equal": lambda ds, eq, _: {"crossings": ds[0].n_crossings, "equal": eq},
    "invariants.kauffman_bracket_jones": jones_drivers,
    "families.coherent_reduction": lambda f, red, _: {"crossings": f.base.n_crossings,
        "changes": list(red.changes), "candidates": red.candidates},
    "moves.reidemeister_moves": move_drivers,
}


def tripled(d):
    """Three copies of ``d`` side by side."""
    return d.disjoint_union(d).disjoint_union(d)


def rows(gauge):
    """The table's rows, each timed after one run of the reference task,
    whose seconds go on ``gauge``."""
    fam = {**load_corpus(), "chain_3": chain_family(3), "chain_4": chain_family(4)}

    def twist_args(name, n):
        return f"{name} n={n}", (fam[name], n)

    def member(name, n):
        return f"{name} n={n}", twist(fam[name], n)

    def cold_member(name, n):
        return f"{name} n={n}, cold table", twist(fam[name], n)

    def untwisted(name, n):
        d = twist(fam[name], n).change_crossings(untwist_schedule(fam[name], n))
        return f"{name} n={n}, untwist sites changed", d

    text = diagram.serialize(twist(fam["chain_4"], 52))
    unsigned = text.replace("X+", "X").replace("X-", "X")
    k13, sites = twist(fam["chain_4"], 13), untwist_schedule(fam["chain_4"], 13)
    union = tripled(k13)
    shuffle = random.Random(1)
    names = shuffle.sample(range(2 * union.n_crossings), 2 * union.n_crossings)
    raw = [(tuple(names[e] for e in c.edges), c.sign) for c in union.crossings]
    shuffled = shuffle.sample(raw, len(raw))
    copy, _ = diagram.OrientedLinkDiagram.from_raw(shuffled)
    eight, delta2 = braids.torus_braid(8, 8), full_twist_braid(8, 1)
    R, T, S, M, reduce = REPEATS, TWIST_REPEATS, SPLIT_REPEATS, MOVE_REPEATS, coherent_reduction
    # the Jones and signature rows time the calls that also return their counters
    J, jones, sig = JONES_REPEATS, invariants._jones, invariants._signature
    at, sched, greedy = unpacked(twist), unpacked(untwist_schedule), moves.greedy_simplify
    table = [
        # each family splices and validates its n = 1 member when it is made
        ("families.TwistFamily", "load_corpus(), chain_family(3), chain_family(4)", None,
         lambda _: [*load_corpus().values(), chain_family(3), chain_family(4)], T),
        # the dense-label path, and the sign walk of _infer_signs
        ("diagram.parse_pd", "chain_4 n=52", text, diagram.parse_pd, T),
        ("diagram.parse_pd", "chain_4 n=52, signs stripped", unsigned, diagram.parse_pd, T),
        # the rows that the structurally_equal row's copy is placed from
        ("diagram.from_raw", "3 x chain_4 n=13, relabelled and shuffled", shuffled,
         diagram.OrientedLinkDiagram.from_raw, T),
        # the closures of the two 8-strand full twists that the Jones rows scan
        ("braids.braid_closure", "full twist on 8 strands", eight, braids.braid_closure, T),
        ("braids.braid_closure", "full twist on 8 strands, as Delta^2", delta2,
         braids.braid_closure, T),
        ("families.twist", *twist_args("chain_4", 13), at, T),
        ("families.untwist_schedule", *twist_args("chain_4", 13), sched, T),
        ("families.twist", *twist_args("chain_4", 52), at, T),
        ("families.untwist_schedule", *twist_args("chain_4", 52), sched, T),
        ("families.twist", *twist_args("torus_q3", 13), at, T),
        ("families.untwist_schedule", *twist_args("torus_q3", 13), sched, T),
        ("families.twist", *twist_args("torus_q3", 40), at, T),
        ("families.untwist_schedule", *twist_args("torus_q3", 40), sched, T),
        ("families.twist", *twist_args("whitehead", 30), at, T),
        ("families.twist", *twist_args("wind3_wrap9", 10), at, T),
        ("diagram.change_crossings", "chain_4 n=13, untwist sites", sites, k13.change_crossings, T),
        ("diagram.mirror", "chain_4 n=13", k13, diagram.OrientedLinkDiagram.mirror, T),
        # the split diagram of the signature and structural equality rows
        ("diagram.disjoint_union", "3 x chain_4 n=13", k13, tripled, T),
        ("moves.greedy_simplify", *untwisted("chain_4", 10), greedy, R),
        ("moves.greedy_simplify", *untwisted("chain_4", 50), greedy, R),
        ("moves.greedy_simplify", *untwisted("chain_4", 100), greedy, R),
        # the largest bounds_sweep witnesses of the other families
        ("moves.greedy_simplify", *untwisted("torus_q3", 13), greedy, T),
        ("moves.greedy_simplify", *untwisted("chain_3", 13), greedy, T),
        ("invariants._scan_order", *member("wind3_wrap9", 10), scan_order, R),
        ("invariants._scan_order", *member("wind3_wrap9", 30), scan_order, R),
        # narrow members, where planning is a fifth to a third of a Jones call
        ("invariants._scan_order", *member("whitehead", 30), scan_order, SHORT_JONES_REPEATS),
        ("invariants._scan_order", *member("torus_q3", 12), scan_order, SHORT_JONES_REPEATS),
        # chain_4 and largewrap_w0_p4 keep long rows along the twist box in their forms
        ("invariants.signature", *member("chain_4", 13), sig, S),
        ("invariants.signature", *member("chain_4", 26), sig, S),
        ("invariants.signature", *member("chain_4", 52), sig, S),
        ("invariants.signature", *member("chain_4", 200), sig, S),
        ("invariants.signature", *member("torus_q3", 13), sig, S),
        ("invariants.signature", *member("torus_q3", 40), sig, S),
        ("invariants.signature", *member("whitehead", 30), sig, S),
        ("invariants.signature", *member("torus_q2", 13), sig, S),
        ("invariants.signature", *member("largewrap_w0_p4", 50), sig, S),
        ("invariants.signature", *member("chain_3", 13), sig, S),
        # split diagrams: three copies side by side (486 crossings), and 3 pieces
        ("invariants.signature", "3 x chain_4 n=13, split", union, sig, S),
        ("invariants.signature", "wind3_wrap9 n=0, split", twist(fam["wind3_wrap9"], 0), sig, S),
        # the first form here that takes a congruence step
        ("invariants.signature", *member("wind3_wrap9", -3), sig, S),
        ("diagram.structurally_equal", "3 x chain_4 n=13, split, against a relabelled shuffled copy",
         (union, copy), unpacked(diagram.structurally_equal), S),
        ("invariants.kauffman_bracket_jones", *member("wind3_wrap9", 1), jones, J),
        # the long scans take seconds
        ("invariants.kauffman_bracket_jones", *member("wind3_wrap9", 10), jones, R),
        ("invariants.kauffman_bracket_jones", *member("wind3_wrap9", 30), jones, R),
        ("invariants.kauffman_bracket_jones", *member("whitehead", 30), jones, J),
        ("invariants.kauffman_bracket_jones", *member("largewrap_w0_p4", 7), jones, J),
        ("invariants.kauffman_bracket_jones", *member("torus_q3", 12), jones, J),
        # the same scans deriving every transition they meet
        ("invariants.kauffman_bracket_jones", *cold_member("wind3_wrap9", 1), cold(jones), J),
        ("invariants.kauffman_bracket_jones", *cold_member("whitehead", 30), cold(jones), J),
        ("invariants.kauffman_bracket_jones", *cold_member("torus_q3", 12), cold(jones), J),
        # one full twist on 8 strands in two braid words: (s1...s7)^8, and
        # Delta^2, which scans with a third of the state updates
        ("invariants.kauffman_bracket_jones", "full twist on 8 strands",
         braids.braid_closure(eight), jones, J),
        ("invariants.kauffman_bracket_jones", "full twist on 8 strands, as Delta^2",
         braids.braid_closure(delta2), jones, J),
        # short scans, where a call's fixed cost outweighs its states
        ("invariants.kauffman_bracket_jones", *member("whitehead", 1), jones, SHORT_JONES_REPEATS),
        ("invariants.kauffman_bracket_jones", *member("torus_q3", 0), jones, SHORT_JONES_REPEATS),
        ("invariants.kauffman_bracket_jones", *member("mazur", 10), jones, SHORT_JONES_REPEATS),
        # the non-coherent families
        ("families.coherent_reduction", "whitehead", fam["whitehead"], reduce, J),
        ("families.coherent_reduction", "mazur", fam["mazur"], reduce, J),
        ("families.coherent_reduction", "largewrap_w0_p4", fam["largewrap_w0_p4"], reduce, J),
        ("families.coherent_reduction", "wind3_wrap9", fam["wind3_wrap9"], reduce, J),
        ("moves.reidemeister_moves", *member("whitehead", -2), all_moves, M),
        ("moves.reidemeister_moves", *member("whitehead", 2), all_moves, M),
        ("moves.reidemeister_moves", *member("mazur", -1), all_moves, M),
        ("moves.reidemeister_moves", *member("mazur", 1), all_moves, M),
        ("moves.reidemeister_moves", *member("torus_q2", 2), all_moves, M),
        # R3-bearing
        ("moves.reidemeister_moves", *member("torus_q3", 2), all_moves, M),
        ("moves.reidemeister_moves", *member("largewrap_w0_p4", 1), all_moves, M),
        # the untwisted members hold the R2- moves
        ("moves.reidemeister_moves", *untwisted("chain_4", 2), all_moves, M),
        ("moves.reidemeister_moves", *untwisted("torus_q2", 3), all_moves, M),
    ]
    for layer, label, arg, call, repeats in table:
        gauge.append(sample())
        out, secs = timed(call, arg, repeats)
        row = {"layer": layer, "input": label, **DRIVERS[layer](arg, out, secs)}
        if (layer, label) in HEAP_ROWS:
            row["peak_kib"] = peak_kib(call, arg)
        yield {**row, "repeats": repeats, "s": round(secs, 6)}


def host(gauge):
    """The host record: the machine, and the gauge, the median and
    interquartile range of the reference task's seconds over the run."""
    q1, median, q3 = statistics.quantiles(gauge, n=4, method="inclusive")
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "gauge": {"task": "perfbench/reference.py sample()", "samples": len(gauge),
                      "median_s": round(median, 6), "iqr_s": round(q3 - q1, 6)}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the file")
    ap.add_argument("--out", required=True, type=pathlib.Path)
    args = ap.parse_args()
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    gauge, run = [], []
    for row in rows(gauge):
        print(json.dumps(row))
        run.append(row)
    data[args.label] = {"host": host(gauge), "rows": run}
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
