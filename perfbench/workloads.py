"""Inputs, calls and output checks of the three benchmark workloads.

Every item is a pair ``(item_id, run)``; ``run(call)`` drives the public
``twistknots`` API and raises ``Mismatch`` when an output is wrong.  The
library is reached only through ``call(layer_name, fn, *args)`` so that
the traced run can wrap each call in a span (see ``run.py``).

Expected values come from closed forms where the paper's families have
them (crossing counts, untwist site counts, torus knot Jones polynomials
and signatures) and otherwise from ``pinned.json``: values recorded at
the commit that introduced the benchmark by ``pin.py``.  The self-test
cross-checks the small pinned Jones values against the brute-force
state sum in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from twistknots.corpus import chain_family, load_corpus
from twistknots.diagram import parse_pd, serialize
from twistknots.families import coherent_reduction, twist, untwist_schedule
from twistknots.invariants import kauffman_bracket_jones, signature
from twistknots.moves import greedy_simplify, reidemeister_moves
from twistknots.polynomials import LaurentPolynomial

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

# Above every diagram any workload builds (the largest has 162 crossings),
# so the exact computations measure the scan, not the refusal policy.
EXACT_LIMIT = 1000

# base torus knot T(p0, q) of each torus family; twisting by n gives
# T(p0 + q*n, q)
TORUS = {"torus_q2": (3, 2), "torus_q3": (4, 3)}

@dataclass(frozen=True)
class Sizes:
    sweep_n: int  # bounds_sweep twists n = +-1 .. +-sweep_n
    torus_jones_n: int  # torus members with |n| <= this get a Jones check
    wide_ns: tuple  # wide_certificates: (family, max |n|)
    walk_starts: tuple  # move_walk: (family, n) of the walks' starts
    walk_replicas: int  # walks from each start, each with its own moves
    walk_steps: int  # Reidemeister steps per walk
    crossing_cap: int  # above it a walk takes only non-increasing moves


# Sized so that every workload has at least 100 items (p90 then has ten
# items beyond it) and one pass takes a few seconds.  Walks are short and
# start twice from each diagram: across twelve seeds the candidate moves
# built per step then had a median, p90 and sum that varied by under 4%
# (IQR over median), so the seed changes the walks but not their cost.
# mazur n=+-2 is left out of the walks: its 15 crossings are above the
# cap, so a walk from it stays at 15 crossings or drops to 13 on one
# seeded choice, and those costliest steps made the workload's time vary
# by about 10% between seeds.
FULL = Sizes(
    sweep_n=13,
    torus_jones_n=12,
    wide_ns=(("whitehead", 30), ("mazur", 10), ("largewrap_w0_p4", 7), ("wind3_wrap9", 1)),
    walk_starts=(
        ("whitehead", 1), ("whitehead", -1), ("whitehead", 2), ("whitehead", -2),
        ("torus_q2", 1), ("torus_q2", -1), ("torus_q2", 2), ("torus_q2", -2),
        ("mazur", 1), ("mazur", -1),
    ),
    walk_replicas=2,
    walk_steps=5,
    crossing_cap=8,
)

TINY = Sizes(
    sweep_n=2,
    torus_jones_n=2,
    wide_ns=(("whitehead", 2), ("mazur", 1), ("largewrap_w0_p4", 1)),
    walk_starts=(("whitehead", 1), ("torus_q2", -1)),
    walk_replicas=1,
    walk_steps=3,
    crossing_cap=6,
)


class Mismatch(Exception):
    """An output differs from its expected value."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def load_families(call) -> dict:
    """The shipped corpus plus the generated chain families."""
    fams = dict(call("corpus.load_corpus", load_corpus))
    fams["chain_3"] = chain_family(3)
    fams["chain_4"] = chain_family(4)
    return fams


# -- expected values ----------------------------------------------------------


def torus_jones(p: int, q: int) -> LaurentPolynomial:
    """Jones polynomial of T(p, q), ``q > 0``, in the library's convention.

    For ``p > 0`` that is the textbook
    ``t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)``
    under ``t -> 1/t``; ``p < 0`` is the mirror and ``|p| <= 1`` the
    unknot.  Exponents are doubled, as in ``LaurentPolynomial``.
    """
    a = abs(p)
    if a <= 1:
        return LaurentPolynomial.one()
    num = {0: 1, a + 1: -1, q + 1: -1, a + q: 1}
    quo: dict[int, int] = {}
    for k in range(a + q - 1):  # numerator / (1 - t^2), exact
        quo[k] = num.get(k, 0) + quo.get(k - 2, 0)
    shift = (a - 1) * (q - 1) // 2
    sign = -1 if p > 0 else 1
    return LaurentPolynomial({sign * 2 * (k + shift): c for k, c in quo.items()})


def torus_signature(p: int, q: int) -> int:
    """Signature of T(p, q) for q in (2, 3); the right trefoil gives -2."""
    a = abs(p)
    if q == 2:
        value = -(a - 1)
    elif q == 3:
        k, r = divmod(a, 6)
        value = {0: 0, 1: -8 * k, 2: -8 * k - 2, 4: -8 * k - 6, 5: -8 * k - 8}[r]
    else:
        raise ValueError(f"no signature formula for q={q}")
    return value if p > 0 else -value


def crossings_after_twist(f, n: int) -> int:
    eta = f.eta_hat
    return f.base.n_crossings + abs(n) * eta * (eta - 1)


def _encode(value):
    if isinstance(value, LaurentPolynomial):
        return [list(pair) for pair in value.pairs()]
    if isinstance(value, tuple):
        return list(value)
    return value


class Pins:
    """Values pinned at one commit, keyed ``family/n=<n>/<what>``.

    With ``values=None`` it records instead: the first value seen for a
    key is stored and later ones must equal it.  ``seen`` keeps every
    checked output of the run, which the self-test compares across seeds.
    """

    def __init__(self, values: dict | None = None):
        self.recording = values is None
        self.values = {} if values is None else values
        self.seen: dict = {}

    @classmethod
    def load(cls) -> "Pins":
        return cls(json.loads(PINNED_PATH.read_text(encoding="utf-8")))

    def check(self, key: str, actual) -> None:
        got = _encode(actual)
        self.seen[key] = got
        if self.recording and key not in self.values:
            self.values[key] = got
            return
        expect(key in self.values, f"{key}: no pinned value")
        expect(got == self.values[key], f"{key}: got {got}, pinned {self.values[key]}")

    def expect_equal(self, key: str, actual, expected) -> None:
        """Check against a closed form; recorded in ``seen`` like pins."""
        self.seen[key] = _encode(actual)
        expect(actual == expected, f"{key}: got {actual}, expected {expected}")


# -- bounds_sweep -------------------------------------------------------------


def _sweep_item(f, fname: str, n: int, pins: Pins, sizes: Sizes):
    key = f"{fname}/n={n}"

    def run(call):
        d = call("families.twist", twist, f, n)
        expect(
            d.n_crossings == crossings_after_twist(f, n),
            f"{key}: {d.n_crossings} crossings after twisting",
        )
        sig = call("invariants.signature", signature, d)
        torus = TORUS.get(fname)
        if torus:
            p0, q = torus
            p = p0 + q * n
            pins.expect_equal(f"{key}/signature", sig, torus_signature(p, q))
            if abs(n) <= sizes.torus_jones_n:
                jones = call(
                    "invariants.kauffman_bracket_jones",
                    kauffman_bracket_jones, d, limit=EXACT_LIMIT,
                )
                pins.expect_equal(f"{key}/jones", jones, torus_jones(p, q))
        else:
            pins.check(f"{key}/signature", sig)
        if n < 1:
            return
        # upper-bound witness: change the untwist sites, simplify, and
        # compare with the base link
        sites = call("families.untwist_schedule", untwist_schedule, f, n)
        w = f.omega
        expect(len(sites) == n * w * (w - 1) // 2, f"{key}: {len(sites)} untwist sites")
        changed = call("diagram.change_crossings", d.change_crossings, sites)
        small, _ = call("moves.greedy_simplify", greedy_simplify, changed)
        jones = call(
            "invariants.kauffman_bracket_jones",
            kauffman_bracket_jones, small, limit=EXACT_LIMIT,
        )
        if torus:
            pins.expect_equal(f"{fname}/n=0/jones", jones, torus_jones(*torus))
        else:
            pins.check(f"{fname}/n=0/jones", jones)

    return key, run


def bounds_sweep(fams, rng, pins, sizes):
    ns = [n for k in range(1, sizes.sweep_n + 1) for n in (k, -k)]
    items = [
        _sweep_item(fams[fname], fname, n, pins, sizes)
        for fname in ("torus_q2", "torus_q3", "chain_3", "chain_4")
        for n in ns
    ]
    rng.shuffle(items)
    return items


# -- wide_certificates ----------------------------------------------------------


def _coherent_item(f, fname: str, pins: Pins):
    key = f"{fname}/coherent_changes"

    def run(call):
        red = call(
            "families.coherent_reduction",
            coherent_reduction, f, certificate_limit=EXACT_LIMIT,
        )
        expect(red.reduced.eta_hat == red.reduced.omega, f"{key}: not coherent")
        pins.check(key, red.changes)

    return key, run


def _member_item(f, fname: str, n: int, pins: Pins):
    key = f"{fname}/n={n}"

    def run(call):
        d = call("families.twist", twist, f, n)
        expect(
            d.n_crossings == crossings_after_twist(f, n),
            f"{key}: {d.n_crossings} crossings after twisting",
        )
        pins.check(f"{key}/signature", call("invariants.signature", signature, d))
        jones = call(
            "invariants.kauffman_bracket_jones",
            kauffman_bracket_jones, d, limit=EXACT_LIMIT,
        )
        pins.check(f"{key}/jones", jones)

    return key, run


def wide_certificates(fams, rng, pins, sizes):
    items = []
    for fname, top in sizes.wide_ns:
        items.append(_coherent_item(fams[fname], fname, pins))
        items.extend(
            _member_item(fams[fname], fname, n, pins)
            for k in range(1, top + 1)
            for n in (k, -k)
        )
    rng.shuffle(items)
    return items


# -- move_walk ------------------------------------------------------------------


def _walk_items(f, fname: str, n: int, r: int, seed: int, pins: Pins, sizes: Sizes, log: list):
    """Items of walk ``r`` from ``twist(f, n)``: one per step.

    The first item also starts the walk and the last one also ends it.
    Starting resets the walk state, so every pass replays the same walk;
    the move choices come from ``seed`` and the walk's name.  Start and
    end cost about a millisecond, a step tens of milliseconds, so every
    item's latency is about one step's.
    """
    start_key = f"{fname}/n={n}"
    walk = f"{start_key}/walk={r}"
    state: dict = {}

    def start(call):
        d = call("families.twist", twist, f, n)
        jones = call(
            "invariants.kauffman_bracket_jones",
            kauffman_bracket_jones, d, limit=EXACT_LIMIT,
        )
        if fname in TORUS:
            p0, q = TORUS[fname]
            pins.expect_equal(f"{start_key}/jones", jones, torus_jones(p0 + q * n, q))
        else:
            pins.check(f"{start_key}/jones", jones)
        state.update(d=d, jones=jones, rng=random.Random(f"{seed}/{walk}"))
        log.clear()

    def step(call):
        d = state["d"]
        moves = call("moves.reidemeister_moves", reidemeister_moves, d)
        expect(bool(moves), f"{walk}: no Reidemeister move applies")
        if d.n_crossings > sizes.crossing_cap:
            allowed = [m for m in moves if m.result.n_crossings <= d.n_crossings]
            moves = allowed or moves
        move = state["rng"].choice(moves)
        log.append((move.kind, move.site))
        text = call("diagram.serialize", serialize, move.result)
        back = call("diagram.parse_pd", parse_pd, text)
        expect(back == move.result, f"{walk}: serialize/parse_pd round trip differs")
        state["d"] = back

    def end(call):
        small, _ = call("moves.greedy_simplify", greedy_simplify, state["d"])
        jones = call(
            "invariants.kauffman_bracket_jones",
            kauffman_bracket_jones, small, limit=EXACT_LIMIT,
        )
        pins.expect_equal(f"{start_key}/end_jones", jones, state["jones"])

    def item(i):
        def run(call):
            if i == 0:
                start(call)
            step(call)
            if i == sizes.walk_steps - 1:
                end(call)

        return f"{walk}/step={i}", run

    return [item(i) for i in range(sizes.walk_steps)]


def move_walk(fams, rng, pins, sizes, seed, walk_log):
    walks = [(fname, n, r) for fname, n in sizes.walk_starts for r in range(sizes.walk_replicas)]
    rng.shuffle(walks)
    items = []
    for fname, n, r in walks:
        log = walk_log.setdefault(f"{fname}/n={n}/walk={r}", [])
        items.extend(_walk_items(fams[fname], fname, n, r, seed, pins, sizes, log))
    return items


def build(workload: str, fams: dict, seed: int, pins: Pins, sizes: Sizes = FULL, walk_log=None):
    """Item list of one workload; ``seed`` fixes the order and the walks.

    ``walk_log``, if given, receives the moves each walk takes.
    """
    rng = random.Random(seed)
    if workload == "bounds_sweep":
        return bounds_sweep(fams, rng, pins, sizes)
    if workload == "wide_certificates":
        return wide_certificates(fams, rng, pins, sizes)
    if workload == "move_walk":
        return move_walk(fams, rng, pins, sizes, seed, {} if walk_log is None else walk_log)
    raise ValueError(f"unknown workload {workload!r}")
