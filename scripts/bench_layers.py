#!/usr/bin/env python3
"""Time the twist, simplification, scan, signature, reduction and move layers on their own.

Run from the repository root:

    python3 scripts/bench_layers.py --label after --out BENCH_jones.json

Times ``families.TwistFamily`` construction of ``load_corpus()`` plus
``chain_family(3)`` and ``chain_family(4)`` (each family splices and
validates its n = 1 member when it is made),
``families.twist`` on ``chain_4`` at n = 13, 52, ``torus_q3`` at
n = 13, 40, ``whitehead`` at n = 30 and ``wind3_wrap9`` at n = 10, and
``families.untwist_schedule`` on the two coherent ones of those,
``diagram.change_crossings`` of the 78 untwist sites of
``twist(chain_4, 13)``, ``moves.greedy_simplify`` on untwisted
``chain_4`` members (the untwist sites of ``twist(chain_4, n)`` changed)
at n = 10, 50, 100,
``invariants._scan_order`` (with the dart mates it reads) on
``twist(wind3_wrap9, n)`` at n = 10, 30,
``invariants.signature`` on ``twist(chain_4, n)`` at n = 13, 26, 52, 200,
``twist(torus_q3, n)`` at n = 13, 40, ``twist(whitehead, 30)``,
``twist(torus_q2, 13)`` and ``twist(largewrap_w0_p4, 50)`` (chain_4 and
largewrap_w0_p4 keep long rows along the twist box in their forms), and
on two split diagrams: three
copies of ``twist(chain_4, 13)`` side by side (486 crossings) and
``twist(wind3_wrap9, 0)`` (3 pieces), ``diagram.structurally_equal`` of
that union and a relabelled, shuffled copy, ``invariants.kauffman_bracket_jones``
on ``twist(wind3_wrap9, n)`` at n = 1, 10, 30, ``twist(whitehead, 30)``,
``twist(largewrap_w0_p4, 7)``, ``twist(torus_q3, 12)``, the closed full
twist on 8 strands, and the short scans ``twist(whitehead, 1)``,
``twist(torus_q3, 0)`` and ``twist(mazur, 10)``, where a call's fixed
cost outweighs its states, ``families.coherent_reduction`` on the non-coherent
``whitehead``, ``mazur``, ``largewrap_w0_p4`` and ``wind3_wrap9``, and
``moves.reidemeister_moves`` on
``twist(whitehead, n)`` at n = -2, 2, ``twist(mazur, n)`` at n = -1, 1,
``twist(torus_q2, 2)``, the R3-bearing ``twist(torus_q3, 2)`` and
``twist(largewrap_w0_p4, 1)``, and the untwisted ``chain_4`` n=2 and
``torus_q2`` n=3 members.  Each row holds the crossings in, the cost driver
(the families built and their base crossings, the crossings out of a
twist or of the schedule's member and the
schedule's sites, the sites changed, greedy steps, scan width, the
white faces (the form's rows, the smaller color class of each piece)
and peak row nonzeros of the elimination or the scan's
width, state updates, transitions derived and repacks, read from their
DEBUG records (code whose record lacks the last two leaves them out), the
Jones scans
one coherent reduction makes, counted from the same records, or the moves
out, each result one built and validated diagram), the number of calls
timed (``REPEATS``, ``TWIST_REPEATS`` for the twist layer and crossing
changes, ``JONES_REPEATS`` for the scan and coherent reduction,
``SHORT_JONES_REPEATS`` for the short scans,
``MOVE_REPEATS`` for moves, ``SPLIT_REPEATS`` for signatures and the
split diagrams)
and their median seconds.  A split signature row also holds
``records_per_call``, the DEBUG records one call logs, and reads its
white faces and peak from the last one.  A scan row also
holds ``peak_kib``, the peak Python heap of one more call, untimed, under
``tracemalloc``.  A
move row times the enumeration plus a read of every result, so its
seconds and microseconds per built result count every construction
whether results are built on enumeration or on first read;
``enumerate_s`` is the median seconds of the enumeration alone, and
``removals_s`` that of listing the R1- and R2- moves (``removals_out``
of them) with every result read, and ``r3_s`` that of listing the R3
moves (``r3_out`` of them) with every result read.  The rows go into
the ``--out`` JSON file under ``--label`` and other labels are kept, so
one file holds the numbers of a change before and after.
"""

import argparse
import json
import logging
import os
import pathlib
import platform
import random
import statistics
import sys
import time
import tracemalloc
from functools import partial

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from twistknots import invariants, moves
from twistknots.braids import braid_closure, torus_braid
from twistknots.corpus import chain_family, load_corpus
from twistknots.diagram import OrientedLinkDiagram, _mates, structurally_equal
from twistknots.families import coherent_reduction, twist, untwist_schedule

REPEATS = 3
# most scans take milliseconds, so their median takes more calls; the
# long scans of wind3_wrap9 n=10, 30 take seconds and get REPEATS
JONES_REPEATS = 11
# the short scans take a millisecond or less
SHORT_JONES_REPEATS = 101
# a move enumeration takes milliseconds, so its median takes more calls
MOVE_REPEATS = 51
# so does a twist or an untwist schedule
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


def scan_order(d):
    """The scan order of ``d`` from its dart mates, derived as one Jones
    call derives them."""
    return invariants._scan_order(_mates(d._tail, d._head))


def enumerate_and_read(d):
    """All moves of ``d``, each result read once."""
    out = moves.reidemeister_moves(d)
    for move in out:
        move.result
    return out


def read_removals(d):
    """The R1- and R2- moves of ``d``, each result read once."""
    out = [*moves.r1_removals(d), *moves.r2_removals(d)]
    for move in out:
        move.result
    return out


def read_r3(d):
    """The R3 moves of ``d``, each result read once."""
    out = list(moves.r3_moves(d))
    for move in out:
        move.result
    return out


def build_families(_):
    """The corpus plus the chain families the benchmark sweeps."""
    return [*load_corpus().values(), chain_family(3), chain_family(4)]


def rows():
    fams, secs = timed(build_families, None, TWIST_REPEATS)
    yield {
        "layer": "families.TwistFamily",
        "input": "load_corpus(), chain_family(3), chain_family(4)",
        "families": len(fams),
        "crossings": sum(f.base.n_crossings for f in fams),
        "repeats": TWIST_REPEATS,
        "s": round(secs, 5),
    }
    chain = chain_family(4)
    corpus = load_corpus()
    members = ((chain, 13), (chain, 52), (corpus["torus_q3"], 13), (corpus["torus_q3"], 40),
               (corpus["whitehead"], 30), (corpus["wind3_wrap9"], 10))
    for f, n in members:
        d, secs = timed(partial(twist, f), n, TWIST_REPEATS)
        yield {
            "layer": "families.twist",
            "input": f"{f.name} n={n}",
            "crossings_out": d.n_crossings,
            "repeats": TWIST_REPEATS,
            "s": round(secs, 5),
        }
        if f.eta_hat == f.omega:
            sites, secs = timed(partial(untwist_schedule, f), n, TWIST_REPEATS)
            yield {
                "layer": "families.untwist_schedule",
                "input": f"{f.name} n={n}",
                "crossings_out": d.n_crossings,
                "sites": len(sites),
                "repeats": TWIST_REPEATS,
                "s": round(secs, 5),
            }
    member, sites = twist(chain, 13), untwist_schedule(chain, 13)
    _, secs = timed(member.change_crossings, sites, TWIST_REPEATS)
    yield {
        "layer": "diagram.change_crossings",
        "input": "chain_4 n=13, untwist sites",
        "crossings": member.n_crossings,
        "sites": len(sites),
        "repeats": TWIST_REPEATS,
        "s": round(secs, 6),
    }
    for n in (10, 50, 100):
        d = twist(chain, n).change_crossings(untwist_schedule(chain, n))
        (_, trace), secs = timed(moves.greedy_simplify, d)
        yield {
            "layer": "moves.greedy_simplify",
            "input": f"chain_4 n={n}, untwist sites changed",
            "crossings": d.n_crossings,
            "steps": len(trace),
            "repeats": REPEATS,
            "s": round(secs, 4),
        }
    wind = corpus["wind3_wrap9"]
    for n in (10, 30):
        d = twist(wind, n)
        plan, secs = timed(scan_order, d)
        yield {
            "layer": "invariants._scan_order",
            "input": f"wind3_wrap9 n={n}",
            "crossings": d.n_crossings,
            "width": plan[1],
            "repeats": REPEATS,
            "s": round(secs, 4),
        }
    records = []
    keep = logging.Handler()
    keep.emit = records.append
    log = logging.getLogger("twistknots.invariants")
    log.setLevel(logging.DEBUG)
    log.addHandler(keep)
    torus = corpus["torus_q3"]
    for f, n in ((chain, 13), (chain, 26), (chain, 52), (chain, 200), (torus, 13), (torus, 40),
                 (corpus["whitehead"], 30), (corpus["torus_q2"], 13),
                 (corpus["largewrap_w0_p4"], 50)):
        d = twist(f, n)
        records.clear()
        _, secs = timed(invariants.signature, d, SPLIT_REPEATS)
        # crossings, white faces, pivots, congruence steps, peak, seconds;
        # code without the record leaves the cost driver out
        args = records[-1].args if records else (None,) * 6
        yield {
            "layer": "invariants.signature",
            "input": f"{f.name} n={n}",
            "crossings": d.n_crossings,
            "white_faces": args[1],
            "peak_row_nonzeros": args[4],
            "repeats": SPLIT_REPEATS,
            "s": round(secs, 6),
        }
    union = member.disjoint_union(member).disjoint_union(member)
    for tag, d in (("3 x chain_4 n=13", union), ("wind3_wrap9 n=0", twist(corpus["wind3_wrap9"], 0))):
        records.clear()
        _, secs = timed(invariants.signature, d, SPLIT_REPEATS)
        yield {
            "layer": "invariants.signature",
            "input": f"{tag}, split",
            "crossings": d.n_crossings,
            "white_faces": records[-1].args[1],
            "peak_row_nonzeros": records[-1].args[4],
            "records_per_call": len(records) // SPLIT_REPEATS,
            "repeats": SPLIT_REPEATS,
            "s": round(secs, 5),
        }
    shuffle = random.Random(1)
    names = shuffle.sample(range(2 * union.n_crossings), 2 * union.n_crossings)
    raw = [(tuple(names[e] for e in c.edges), c.sign) for c in union.crossings]
    copy, _ = OrientedLinkDiagram.from_raw(shuffle.sample(raw, len(raw)))
    equal, secs = timed(partial(structurally_equal, union), copy, SPLIT_REPEATS)
    yield {
        "layer": "diagram.structurally_equal",
        "input": "3 x chain_4 n=13, split, against a relabelled shuffled copy",
        "crossings": union.n_crossings,
        "equal": equal,
        "repeats": SPLIT_REPEATS,
        "s": round(secs, 5),
    }
    scans = [(f"{name} n={n}", twist(corpus[name], n), repeats) for name, n, repeats in (
        ("wind3_wrap9", 1, JONES_REPEATS), ("wind3_wrap9", 10, REPEATS),
        ("wind3_wrap9", 30, REPEATS), ("whitehead", 30, JONES_REPEATS),
        ("largewrap_w0_p4", 7, JONES_REPEATS), ("torus_q3", 12, JONES_REPEATS))]
    scans.append(("full twist on 8 strands", braid_closure(torus_braid(8, 8)), JONES_REPEATS))
    scans += [(f"{name} n={n}", twist(corpus[name], n), SHORT_JONES_REPEATS) for name, n in (
        ("whitehead", 1), ("torus_q3", 0), ("mazur", 10))]
    for tag, d, repeats in scans:
        records.clear()
        _, secs = timed(invariants.kauffman_bracket_jones, d, repeats)
        # crossings, width, updates, transitions derived, repacks, seconds
        args = records[-1].args
        width, updates = args[1:3]
        derived, repacks = args[3:5] if len(args) == 6 else (None, None)
        tracemalloc.start()
        invariants.kauffman_bracket_jones(d)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        yield {
            "layer": "invariants.kauffman_bracket_jones",
            "input": tag,
            "crossings": d.n_crossings,
            "width": width,
            "state_updates": updates,
            "transitions": derived,
            "repacks": repacks,
            "repeats": repeats,
            "s": round(secs, 5),
            "peak_kib": round(peak / 1024, 1),
        }
    for name in ("whitehead", "mazur", "largewrap_w0_p4", "wind3_wrap9"):
        f = corpus[name]
        records.clear()
        red, secs = timed(coherent_reduction, f, JONES_REPEATS)
        scans = sum(r.msg.startswith("bracket scan") for r in records)
        yield {
            "layer": "families.coherent_reduction",
            "input": name,
            "crossings": f.base.n_crossings,
            "changes": list(red.changes),
            "jones_scans": scans // JONES_REPEATS,
            "repeats": JONES_REPEATS,
            "s": round(secs, 5),
        }
    inputs = [(f"{name} n={n}", twist(corpus[name], n)) for name, n in (
        ("whitehead", -2), ("whitehead", 2), ("mazur", -1), ("mazur", 1), ("torus_q2", 2),
        ("torus_q3", 2), ("largewrap_w0_p4", 1))]
    # the untwisted members are where the R2- moves are
    for f, n in ((chain, 2), (corpus["torus_q2"], 3)):
        d = twist(f, n).change_crossings(untwist_schedule(f, n))
        inputs.append((f"{f.name} n={n}, untwist sites changed", d))
    for tag, d in inputs:
        out, secs = timed(enumerate_and_read, d, MOVE_REPEATS)
        _, enumerate_secs = timed(moves.reidemeister_moves, d, MOVE_REPEATS)
        removals, removals_secs = timed(read_removals, d, MOVE_REPEATS)
        r3, r3_secs = timed(read_r3, d, MOVE_REPEATS)
        yield {
            "layer": "moves.reidemeister_moves",
            "input": tag,
            "crossings": d.n_crossings,
            "moves_out": len(out),
            "repeats": MOVE_REPEATS,
            "us_per_result": round(1e6 * secs / len(out), 2),
            "enumerate_s": round(enumerate_secs, 5),
            "removals_out": len(removals),
            "removals_s": round(removals_secs, 6),
            "r3_out": len(r3),
            "r3_s": round(r3_secs, 6),
            "s": round(secs, 5),
        }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the file")
    ap.add_argument("--out", required=True, type=pathlib.Path)
    args = ap.parse_args()
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = {
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "rows": [],
    }
    for row in rows():
        print(json.dumps(row))
        data[args.label]["rows"].append(row)
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
