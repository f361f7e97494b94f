"""Classical invariants: the Jones polynomial and the signature.

The bracket polynomial is computed by scanning crossings one at a time,
so cost is governed by the width of the scan (its peak number of open
pairs) rather than 2^crossings; a greedy ordering keeps that width small
on braid-like diagrams, and one budget, ``WIDTH_BUDGET``, bounds it before
any state is built.  The order takes a crossing with the most edges to
crossings already placed, and among those the one whose unplaced
neighbours have the most such edges, so the edges it opens lead to
crossings that close them soon and the frontier stays compact (the
frontier-keeping order of Bar-Natan, arXiv:math/0606318).  On the
width-7 twist boxes of ``twist(wind3_wrap9, 10)`` that takes a quarter of
the state updates that the lowest index among ties takes (20,088 against
81,600), at the same width.  The pass that orders the crossings also
plans the scan: each open dart (code ``4 * crossing + slot``) keeps one
frontier position while it is open, freed positions going to new darts
lowest first, and each step gets its crossing's link, a tuple saying what each
slot meets, equal links being one tuple.  A state's key is one int
holding, in a field of f bits per position, its partner's position + 1,
or 0 for a free position.  Its value is a lowest exponent lo and one
integer packing the coefficients of A^lo, A^(lo+2), ... as signed digits
in base 2^bits, and a state whose value is 0 is dropped.  After every
few crossings the digits are repacked to the width the largest
coefficient then needs plus a proven bound on its growth until the next
repack, so no coefficient can overflow its digit and the digits stay
narrow on long scans; a repack that keeps the width only trims.  A
state's two children depend only on the fields at the positions a
crossing glues, so the scan works out, once per link and pattern of
those fields, each smoothing's bits to clear and to set, power of A and
loops closed, from a table of how a smoothing joins the four slots
shared by all scans; a child is then two bit operations on its parent's
key, and its value one multiplication when the smoothing closes a loop.
Those transitions depend on the field width, the link and the pattern
alone, and the members of a twist family repeat one twist block, so
they meet the same ones for every n: one table shared by every scan
keeps them, and each is derived once per process.  So the work is split
by what it depends on: once per crossing, the planning pass places it
and builds its link; once per process, field width and link, the mask
of its glued fields, and once per process, field width, link and glued
pattern, the transitions; once per scan, link and pattern met, a lookup
in that table; once per state, its two children, a state being dropped
as soon as its terms cancel.  A repack costs one mask per byte width
tried and one test per state, and the result's coefficients are read
off the packed value a byte lane at a time and stored as they come,
already ordered and nonzero.
The signature comes from the Goeritz form of a checkerboard
coloring with its orientation correction term.  By Gordon and Litherland
(On the signature of a link, 1978) either color class of the faces spans
a surface whose form, so corrected, gives the signature; the white class
of each piece is its smaller one, so the form has the fewer rows.  On a
twisted diagram the other class holds every bigon of the twist box:
``twist(whitehead, 30)`` has 3 white faces against 61.  One
breadth-first pass over the face graph colors the faces and counts the
classes, and one pass over the crossings writes the form: each crossing
adds its entry to the two rows it joins, an entry the crossings cancel
is dropped where it cancels, and each diagonal is minus its row's sum.
The form is kept as sparse rows, one per white face, and eliminated
fraction-free in exact integers, least-degree row first.  Each entry
keeps the scale it was last written at and is read at the current one,
so a pivot writes only the entries between two of its neighbours and no
row is ever rewritten whole: on a long narrow diagram, whose form is
banded apart from a few long rows along the twist box, the cost grows
about linearly in the crossings.  A pivot step reads and writes each
entry in place.  One heap of (row length, face) picks the pivots: each
row with a nonzero diagonal is pushed when it is first seen and again
after every step that writes it, and an entry whose row has since gone,
lost its diagonal or changed length is dropped when it is popped.  A
split diagram gets one form over all its faces, one block per piece,
with one white face left out per piece.

Counters are read from the record each invariant returns with its value:
``_jones`` returns the polynomial and its scan's ``ScanStats``, and
``_signature`` the signature and its form's ``FormStats``.  Each logs
the record, with the call's seconds, as one DEBUG record on
``twistknots.invariants``; the public functions return the value alone.
"""

from __future__ import annotations

import time
from collections import namedtuple
from heapq import heappop, heappush
from itertools import compress
from operator import attrgetter, not_

from .diagram import DiagramError, OrientedLinkDiagram, _check_diagram, _debug, _mates
from .polynomials import LaurentPolynomial

# most open pairs a scan may keep; cost grows like the Catalan number of the
# width.  The closed full twist on k strands (width k) takes 0.025-0.046 s
# and peaks at 16.9 MB RSS at k=8, and 0.48-0.52 s and 22.2 MB at k=10
# (only with a raised limit), each the Jones call alone in one process
# (2-core x86-64, Python 3.11.7)
WIDTH_BUDGET = 8

_SIGN = attrgetter("sign")

# crossings scanned between two repacks of the states' digits; the digits
# carry 3 bits of headroom per crossing until the next repack
_REPACK_EVERY = 8

# per smoothing, its power of A and each slot's partner: the A-type
# joins slots (0,1) and (2,3), the B-type (0,3) and (1,2)
_SMOOTH = ((1, (1, 0, 3, 2)), (-1, (3, 2, 1, 0)))

# the (power of A, joined slot pairs, closed loops) of each smoothing, by a
# crossing's slot pattern: each slot's end is another slot, or 4 when open
# (see _walk).  A walk reads nothing else, and slots that are each other's
# ends pair up, so the patterns are the partial matchings of four slots:
# at most ten, shared by every scan
_WALKS: dict[tuple[int, ...], tuple[tuple[int, tuple, int], ...]] = {}

# per (bits per field, link): the mask of the link's glued fields and the
# transitions by glued pattern (see _transitions).  A key holds only a
# crossing's local pattern, never a diagram, so this is a memo of a pure
# function shared by every scan, as _WALKS is: the members of a twist
# family repeat one twist block and meet the same keys for every n
_TRANSITIONS: dict[tuple[int, tuple[int, ...]], tuple[int, dict[int, tuple[int, ...]]]] = {}


class LimitExceeded(DiagramError):
    """Scan width (peak open pairs of the scan order) above the budget."""


# the work of one Jones scan: crossings scanned, peak open pairs, state
# updates (two children per state per crossing), (link, glued pattern)
# pairs met, and repacks of the states' digits
ScanStats = namedtuple("ScanStats", "crossings width updates transitions repacks")

# the work of one signature's Goeritz form: crossings, rows before one
# white face per piece is left out, pivots, congruence steps, and the
# most nonzeros any row held
FormStats = namedtuple("FormStats", "crossings white_faces pivots congruences peak_row_nonzeros")


def _scan_order(mate: list[int]) -> tuple[list[int], int, list[tuple[int, ...]]]:
    """Greedy order of the crossings of the diagram with dart mates
    ``mate`` that keeps the open frontier small, its peak open pairs, and
    the scan's plan: each step's link.

    Each step takes the crossing with the most edges to crossings already
    placed.  Among ties it takes the one whose unplaced neighbours have
    the most such edges, summed over its edges to other unplaced
    crossings, and then the lowest index.  The edges a crossing opens
    stay open until their other ends are placed, so preferring
    neighbours already held by the placed crossings closes them soon:
    the scan follows one front instead of opening a second one where
    the indices happen to be low.  Unplaced crossings with 1..4 such
    edges sit in a bucket per count, at most one per open edge in all,
    and the sum is worked out only when the top bucket holds more than
    one, so a step costs O(width).  When every bucket is empty no
    unplaced crossing has such an edge, and the lowest unplaced index,
    which only grows, comes next.

    Each open dart holds a fixed frontier position from the crossing that
    opens it to the one that glues it, and a crossing frees its glued
    positions before it places its new darts, each in the lowest free
    position.  A new position is taken only when every lower one is
    held, and at most ``2 * width`` darts are open after any step (two
    per open pair), so every position is below ``2 * width``.  A step's
    link holds, per slot of its crossing, what the slot meets: another
    slot of the crossing (0..3), ``-1 - p`` for the open dart at
    position p that it glues, or ``4 + p`` for the new dart it places at
    p.  Equal links are one tuple.

    The pass works once per crossing on flat lists: the counts, the
    placed flags and each open dart's position.  The freed positions
    wait in a heap, so the lowest free one is one pop, and as a
    position is first taken only when every lower one is held, the
    positions ever used are the peak open darts: the width needs no
    count of its own.
    """
    n = len(mate) >> 2
    count = [0] * n
    placed = [False] * n
    # unplaced crossings by their count of edges to placed ones, 1..4
    b1, b2, b3, b4 = buckets = (set(), set(), set(), set())
    lowest = 0
    order: list[int] = []
    links: list[tuple[int, ...]] = []
    distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
    pos = [0] * len(mate)  # each open dart's position
    freed: list[int] = []  # a heap of the free positions below ``used``
    used = 0  # the positions ever held: 0 .. used - 1
    for _ in range(n):
        top = b4 or b3 or b2 or b1
        if not top:
            while placed[lowest]:
                lowest += 1
            ci = lowest
        elif len(top) == 1:
            ci = top.pop()
        else:
            # c's own count is 0 while it is scored, for the edges with
            # both ends at c
            ci = best = -1
            for c in top:
                k = count[c]
                count[c] = 0
                x = 4 * c
                score = (count[mate[x] >> 2] + count[mate[x + 1] >> 2]
                         + count[mate[x + 2] >> 2] + count[mate[x + 3] >> 2])
                count[c] = k
                if score > best or score == best and c < ci:
                    ci, best = c, score
            top.discard(ci)
        placed[ci] = True
        count[ci] = 0  # a placed neighbour adds nothing to a tie-break
        order.append(ci)
        base = 4 * ci
        link = mate[base : base + 4]
        new = []
        for s in range(4):
            x = link[s]
            cj = x >> 2
            if cj == ci:
                link[s] = x & 3  # an edge with both ends here never opens
            elif placed[cj]:
                p = pos[x]
                heappush(freed, p)
                link[s] = -1 - p
            else:
                new.append(s)
                k = count[cj]
                if k:
                    buckets[k - 1].discard(cj)
                count[cj] = k + 1
                buckets[k].add(cj)
        for s in new:
            if freed:
                p = heappop(freed)
            else:
                p = used
                used += 1
            pos[base + s] = p
            link[s] = 4 + p
        link = tuple(link)
        links.append(distinct.setdefault(link, link))
    # a position is first taken when every lower one is held, so the most
    # darts open at once is the number of positions used
    return order, used >> 1, links


def kauffman_bracket_jones(
    d: OrientedLinkDiagram, limit: int = WIDTH_BUDGET
) -> LaurentPolynomial:
    """Jones polynomial, unknot-normalized, in doubled-t exponents; a scan
    wider than ``limit`` open pairs raises ``LimitExceeded`` up front.
    The scan's counters are ``_jones``'s."""
    return _jones(d, limit)[0]


def _jones(
    d: OrientedLinkDiagram, limit: int = WIDTH_BUDGET
) -> tuple[LaurentPolynomial, ScanStats]:
    """The Jones polynomial of ``d`` and its scan's counters, logged as
    one DEBUG record "bracket scan" with the seconds of the whole call,
    planning included.  A scan the budget refuses logs nothing."""
    start = time.perf_counter()
    _check_diagram(d, "the Jones polynomial needs")
    if type(limit) is not int or limit < 0:
        raise DiagramError(f"width budget must be an int >= 0, got {limit!r}")
    if d.n_components == 0:
        raise DiagramError("the empty diagram has no Jones polynomial")
    _, width, links = _scan_order(_mates(d._tail, d._head))
    if width > limit:
        raise LimitExceeded(f"scan width {width} exceeds the width budget {limit}")
    w = d.writhe()
    # (-A)^{-3w} <D>, then one delta division for unknot normalization
    lo, coeffs, stats = _bracket_with_loops(links, width, d.free_loops)
    lo, coeffs = _divide_delta(lo, coeffs)
    lo -= 3 * w
    if lo % 2 and any(coeffs):
        raise AssertionError("bracket exponent parity violated")
    sign = -1 if w % 2 else 1
    # the exponents rise and zeros are left out, as the class stores them
    lo //= 2
    jones = LaurentPolynomial._of_terms({lo + i: sign * c for i, c in enumerate(coeffs) if c})
    _debug(
        __name__, "bracket scan: %d crossings, peak %d open pairs, %d state updates, "
        "%d transitions met, %d repacks, %.3f s", *stats, time.perf_counter() - start,
    )
    return jones, stats


def _bracket_with_loops(links, width, free_loops) -> tuple[int, list[int], ScanStats]:
    """Sum over states of A^{a-b} * delta^{loops} (note: no -1) of the
    diagram with ``free_loops`` free loops whose scan, of that ``width``,
    has the per-step ``links`` of _scan_order, as its lowest exponent and
    the coefficients of every second power from it, trimmed to its
    nonzero span, and the scan's counters.

    A state's key is one int.  Position p owns bits
    ``f * p .. f * p + f - 1`` of the key, ``f = (2 * width + 2).bit_length()``,
    which hold the position of the dart that p's strand through the
    scanned crossings ends at, plus 1, and 0 while p is free; a glued or
    re-paired position is cleared, so equal matchings give equal keys.
    Every position is below ``2 * width`` (see _scan_order), so a field
    value, at most ``2 * width``, fits in ``f`` bits.  A state's two
    children depend only on the fields at the positions a crossing glues
    (``gmask``), so the scan works out, once per value of
    ``key & gmask``, each smoothing's mask of kept bits, bits to set,
    power of A and loops closed (see _transitions), and a child is
    ``key & keep | put``.  Those depend on nothing else but ``f`` and
    the link, so ``gmask`` and the transitions by glued pattern are kept
    in ``_TRANSITIONS``, shared by every scan: each (f, link, pattern) is
    derived at most once per process.  The scan keeps its own record of
    the (link, pattern) pairs it met, and its ``ScanStats.transitions``
    counts those, whether derived or found in the table, so the count
    does not depend on what ran before.

    A state's value ``(lo, v)`` packs the coefficient of A^(lo+2i) into
    digit i of ``v`` in base B = 2^bits, digits balanced (signed), so a
    smoothing moves ``lo`` by +-1, a closed loop (times delta) is
    ``lo - 2`` with ``v * (-1 - B^2)``, and parts with the same key add
    once the higher ``lo`` is shifted down to the lower one.  Terms that
    cancel leave zero low digits; each repack drops them, raising ``lo``,
    so a value stays about as long as its nonzero span.

    The digits stay exact.  Say a repack finds S states, every
    coefficient below 2^t in absolute value.  A value j crossings later
    sums, over those states and the 2^j smoothings of the j crossings,
    +-A^k * delta^L times a repacked value; each loop closed in those j
    steps runs through one of the 2j arcs their smoothings draw, so
    L <= 2j, and the coefficients of delta^L sum to 2^L in absolute
    value.  So every coefficient then, and every partial sum on the way,
    is below S * 2^(t + 3j).  The digits take at least
    t + bitlength(S) + 3m + 2 bits for the next m = ``_REPACK_EVERY``
    crossings: the start state's (S = 1, its one coefficient 1 taking
    t = 8 bits) for crossings 0..m-1, then a repack's after crossings m,
    2m, ..., and the last repack, before the F free loops multiply by
    delta^F, picks t + 1 + F + 2 bits, so each coefficient is below a
    quarter of the base, and ``v == 0`` exactly when the value is 0: no
    state is dropped on a guess.
    """
    f = (2 * width + 2).bit_length()
    masks = [((1 << f) - 1) << f * p for p in range(2 * width)]  # each position's field
    bits = _digit_bits(1, 1, 3 * _REPACK_EVERY)
    # (-1 - B^2)^k: delta^k on a value, its A^-2k being in the shift, for
    # the k <= 2 loops a smoothing closes
    grow = [(-1 - (1 << 2 * bits)) ** k for k in range(3)]
    states: dict[int, tuple[int, int]] = {0: (0, 1)}
    # per link this scan met: its entry of _TRANSITIONS and, by glued
    # pattern met, the transitions, so the count derived is the scan's own
    plans: dict[tuple, tuple[int, dict[int, tuple], dict[int, tuple]]] = {}
    updates = derived = repacks = 0
    for step, link in enumerate(links):
        if step and not step % _REPACK_EVERY:
            wide, states = _repacked(states, bits, 3 * _REPACK_EVERY)
            if wide != bits:
                bits = wide
                grow = [(-1 - (1 << 2 * bits)) ** k for k in range(3)]
            repacks += 1
        plan = plans.get(link)
        if plan is None:
            entry = _TRANSITIONS.get((f, link))
            if entry is None:
                gmask = 0
                for x in link:
                    if x < 0:
                        gmask |= masks[-1 - x]
                entry = _TRANSITIONS[f, link] = gmask, {}
            plan = plans[link] = *entry, {}
        gmask, known, met = plan
        updates += 2 * len(states)
        parts: dict[int, tuple[int, int]] = {}
        for key, (lo, v) in states.items():
            g = key & gmask
            moves = met.get(g)
            if moves is None:
                moves = known.get(g)
                if moves is None:
                    moves = known[g] = _transitions(g, link, masks, f)
                met[g] = moves
                derived += 1
            # the A- then the B-smoothing's child, written out: a loop over
            # the two would build a tuple per child on the hottest path
            keep, put_a, shift_a, loops_a, put_b, shift_b, loops_b = moves
            key &= keep
            nxt, plo, pv = key | put_a, lo + shift_a, v * grow[loops_a] if loops_a else v
            old = parts.get(nxt)
            if old is not None:
                olo, ov = old
                if olo <= plo:
                    plo, pv = olo, ov + (pv << bits * (plo - olo >> 1))
                else:
                    pv += ov << bits * (olo - plo >> 1)
            if pv:
                parts[nxt] = plo, pv
            else:  # the terms cancelled: the state adds nothing from here on
                del parts[nxt]
            nxt, plo, pv = key | put_b, lo + shift_b, v * grow[loops_b] if loops_b else v
            old = parts.get(nxt)
            if old is not None:
                olo, ov = old
                if olo <= plo:
                    plo, pv = olo, ov + (pv << bits * (plo - olo >> 1))
                else:
                    pv += ov << bits * (olo - plo >> 1)
            if pv:
                parts[nxt] = plo, pv
            else:
                del parts[nxt]
        states = parts
    if len(states) != 1 or 0 not in states:  # raised, so python -O keeps the check
        raise AssertionError("scan left open strands")
    bits, states = _repacked(states, bits, free_loops)
    repacks += 1
    lo, v = states[0]
    lo -= 2 * free_loops
    v *= (-1 - (1 << 2 * bits)) ** free_loops
    # the repack left no low zero digit and times delta keeps the lowest
    # one nonzero, so this is trimmed at both ends
    return lo, _digits(v, bits), ScanStats(len(links), width, updates, derived, repacks)


def _transitions(g, link, masks, f) -> tuple[int, ...]:
    """``(keep, put, shift, loops, put, shift, loops)``, the A- then the
    B-smoothing of a crossing, for the states whose fields at the glued
    positions read ``g``: a child key is ``key & keep | put``, its value
    gains A^shift, each closed loop's A^-2 included, and ``loops`` closed
    loops.  ``keep`` is the same for both smoothings, so one flat tuple
    holds them.  ``link`` is the crossing's (see _scan_order) and
    ``masks[p]`` position p's field; every glued position and every open
    end the smoothing joins is cleared, and each end is set to its new
    partner.

    Each (f, link, g) is derived at most once per process and kept in
    ``_TRANSITIONS`` (see _bracket_with_loops).  What the link alone
    fixes (the new darts' positions and fields, the slots an edge of the
    crossing joins) is read off the link again on each derivation: a
    link meets about three patterns, and keeping those facts per link
    cost as much as it saved."""
    field = (1 << f) - 1
    drop = 0
    ends, pattern = [], []
    for x in link:
        if x < 0:  # glued: where the strand through its partner comes out,
            # a slot when the crossing glues that end too
            drop |= masks[-1 - x]
            q = (g >> f * (-1 - x) & field) - 1
            x = link.index(-1 - q) if -1 - q in link else 4 + q
        if x >= 4:
            drop |= masks[x - 4]
        ends.append(x)
        pattern.append(x if x < 4 else 4)
    pattern = tuple(pattern)
    walked = _WALKS.get(pattern)
    if walked is None:
        walked = _WALKS[pattern] = tuple((sh, *_walk(pattern, smooth)) for sh, smooth in _SMOOTH)
    moves = [~drop]
    for shift, pairs, loops in walked:
        put = 0
        for s, t in pairs:
            a, b = ends[s] - 4, ends[t] - 4
            put |= b + 1 << f * a | a + 1 << f * b
        moves += put, shift - 2 * loops, loops
    return tuple(moves)


def _digit_bits(q: int, count: int, growth: int) -> int:
    """Whole bytes of digits for ``count`` states whose coefficients c
    fit ``q`` bytes as c + 2^(8q-1) and grow by ``growth`` bits: 8q bits,
    the growth, the states' count and 2 spare bits."""
    return 8 * q + count.bit_length() + growth + 2 + 7 & -8


def _repacked(states, bits, growth):
    """The states without their low zero digits, in digits of whole bytes
    wide enough for every coefficient to grow by ``growth`` bits and the
    number of states times over (see _bracket_with_loops), and that width.

    A scan repacks after crossings m, 2m, ... (m = ``_REPACK_EVERY``) and
    once before its free loops; the start state is never repacked, its
    width coming from the same rule (_digit_bits).  A repack that keeps
    the width only trims: the trimmed values are already in its digits.

    Most repacks hold two to five states, so the fixed cost is kept to
    one int, a 1 in each digit of the longest value, whose shifts are
    the masks of every byte width tried; per state there is one trim
    and one mask test, and one byte-lane copy per kept byte when the
    width changes.  Shorter values read as that many digits too, their
    top digits 0."""
    w = bits >> 3
    trimmed = {}
    size = 1  # bits of the longest value
    for key, (lo, v) in states.items():
        z = ((v & -v).bit_length() - 1) // bits  # the low digits that are 0
        v >>= z * bits
        trimmed[key] = lo + 2 * z, v
        b = abs(v).bit_length()
        if b > size:
            size = b
    # every value read as n digits, the longest one's top digit not small;
    # the digit masks below are shifts of ``one``, a 1 in each digit
    n = size // bits + 1
    one = _each(1, w, n)
    # the fewest bytes q that hold every digit c as c + 2^(8q-1): then each
    # digit's bytes above q are zero, one mask test per state
    q = 1
    half, high = one << 7, (one << bits) - (one << 8)
    for _, v in trimmed.values():
        while v + half & high:
            q += 1
            half, high = one << 8 * q - 1, (one << bits) - (one << 8 * q)
    wide = _digit_bits(q, len(states), growth)
    if wide == bits:
        return bits, trimmed
    w2, out = wide >> 3, {}
    half2 = _each(1 << 8 * q - 1, w2, n)
    for key, (lo, v) in trimmed.items():
        raw = (v + half).to_bytes(w * n, "little")
        moved = bytearray(w2 * n)
        for j in range(q):  # byte j of every digit
            moved[j::w2] = raw[j::w]
        out[key] = lo, int.from_bytes(moved, "little") - half2
    return wide, out


def _digits(v: int, bits: int) -> list[int]:
    """The balanced base-2^bits digits of ``v``, lowest first, for bits a
    multiple of 8 and every digit below a quarter of the base."""
    w, half = bits >> 3, 1 << bits - 1
    n = abs(v).bit_length() // bits + 1  # the top digit is not small
    raw = (v + _each(half, w, n)).to_bytes(w * n, "little")
    # each digit's top byte less 128 is its signed top; the lower bytes
    # follow, one pass over all the digits per byte
    digits = [b - 128 for b in raw[w - 1 :: w]]
    for j in range(w - 2, -1, -1):
        digits = [d << 8 | b for d, b in zip(digits, raw[j::w])]
    return digits


def _each(x: int, w: int, n: int) -> int:
    """n digits of ``w`` bytes, each ``x``."""
    return int.from_bytes(x.to_bytes(w, "little") * n, "little")


def _walk(pattern: tuple[int, ...], smooth: tuple[int, ...]) -> tuple[tuple, int]:
    """Join a crossing's four slots by a smoothing: the frontier pairs it
    makes, each as the two slots whose open ends it joins, and the loops
    it closes.  ``pattern[s]`` is the slot where the strand out of slot
    ``s`` comes back, or 4 when it stays open."""
    seen = [False] * 4
    pairs, loops = [], 0
    for s in sorted(range(4), key=lambda s: pattern[s] < 4):  # open ends first
        if seen[s]:
            continue
        x = t = s
        while x < 4 and not seen[x]:
            seen[x] = seen[smooth[x]] = True
            t = smooth[x]
            x = pattern[t]
        if x >= 4:
            pairs.append((s, t))
        else:
            loops += 1
    return tuple(pairs), loops


def _divide_delta(lo: int, coeffs: list[int]) -> tuple[int, list[int]]:
    """Exact division by (-A^2 - A^-2) of a polynomial in scan form."""
    # multiply by -A^2 then divide by (A^4 + 1) from the lowest term up
    q = [-c for c in coeffs]
    for i in range(2, len(q)):
        q[i] -= q[i - 2]
    if any(q[-2:]):
        raise AssertionError("inexact delta division")
    return lo + 2, q[:-2]


def unlink_jones(n_components: int) -> LaurentPolynomial:
    """Jones value of the crossing-free unlink (doubled-t exponents)."""
    # bools and floats are refused: a component count is an int
    if type(n_components) is not int or n_components < 1:
        raise DiagramError(f"need at least one component (an int), got {n_components!r}")
    delta_t = LaurentPolynomial({1: -1, -1: -1})  # -t^(1/2) - t^(-1/2)
    return delta_t ** (n_components - 1)


# -- signature ---------------------------------------------------------------


def signature(d: OrientedLinkDiagram) -> int:
    """Signature of the link via the Goeritz form with orientation
    correction; fixed so the right trefoil gives -2.  The form is built
    on the smaller checkerboard surface of each piece (see _checkerboard;
    Gordon-Litherland holds for either), one row per white face.  A split
    diagram gets one block per piece in one form, free loops adding 0.
    The form's counters are ``_signature``'s."""
    return _signature(d)[0]


def _signature(d: OrientedLinkDiagram) -> tuple[int, FormStats]:
    """The signature of ``d`` and its form's counters, logged as one
    DEBUG record "signature" with the seconds of the form and its
    elimination.  A crossing-free diagram has no form: its counters are
    all 0 and it logs nothing."""
    _check_diagram(d, "the signature needs")
    if not d.crossings:
        return 0, FormStats(0, 0, 0, 0, 0)
    start = time.perf_counter()
    rows, mu, piece = _goeritz(d)
    whites = len(rows)
    _leave_out(rows, piece)
    sig, pivots, congruences, peak = _sparse_signature(rows)
    stats = FormStats(len(d.crossings), whites, pivots, congruences, peak)
    _debug(
        __name__, "signature: %d crossings, %d white faces, %d pivots, "
        "%d congruence steps, peak %d row nonzeros, %.3f s", *stats, time.perf_counter() - start,
    )
    return sig - mu, stats


def _goeritz(d: OrientedLinkDiagram) -> tuple[dict[int, dict[int, int]], int, list[int]]:
    """Goeritz matrix of a diagram as sparse rows keyed by white face in
    ascending order, zeros left out, its orientation correction ``mu`` and
    each face's piece.  The white faces, color 0 of _checkerboard, are the
    smaller class of each piece.  Which class is white sets ``eta`` at
    every crossing: choosing the other class negates each ``eta``, and the
    crossings counted in ``mu`` (``eta`` equal to the sign) become the
    others, so Gordon-Litherland's correction follows the surface.  A
    crossing's corners lie in one piece, so the matrix of a split diagram
    is block-diagonal, one block per piece, and its signature is the sum
    of theirs.

    One pass over the crossings writes each crossing's off-diagonal
    entry into both rows it joins and drops it there if the crossings so
    far cancel it; the diagonal is left to the end, where each row's is
    minus the sum of the row, as every row of the form sums to zero."""
    face_of = d._face_of
    n_faces = max(face_of) + 1
    color, piece = _checkerboard(d._tail, d._head, face_of, n_faces)
    rows: dict[int, dict[int, int]] = {fi: {} for fi in compress(range(n_faces), map(not_, color))}
    mu = 0
    # f<s> is the face of a crossing's slot-s dart, which holds the corner
    # between slots s - 1 and s; opposite corners share a color
    corners = face_of[0::4], face_of[1::4], face_of[2::4], face_of[3::4]
    for f0, f1, f2, f3, sign in zip(*corners, map(_SIGN, d.crossings)):
        if color[f1]:  # corners (1,2) and (3,0) white
            eta, wi, wj = -1, f2, f0
        else:
            eta, wi, wj = 1, f1, f3
        if eta == sign:
            mu += eta
        if wi != wj:
            ri = rows[wi]
            x = ri.get(wj, 0) - eta
            if x:
                ri[wj] = rows[wj][wi] = x
            else:
                del ri[wj], rows[wj][wi]
    for fi, row in rows.items():
        x = -sum(row.values())
        if x:
            row[fi] = x
    return rows, mu, piece


def _leave_out(rows: dict[int, dict[int, int]], piece: list[int]) -> None:
    """Drop, in each piece, the row and column of its first white face of
    largest degree.  Every row of a piece's block sums to zero, so each
    choice leaves a congruent form; a hub face, kept, would fill in every
    row it meets.  One pass over the rows keeps each piece's (degree,
    face) so far, a later face replacing it only at a larger degree."""
    hub: dict[int, tuple[int, int]] = {}
    for fi, row in rows.items():
        degree = len(row) - (fi in row)
        best = hub.get(piece[fi])
        if best is None or degree > best[0]:
            hub[piece[fi]] = degree, fi
    for _, fi in hub.values():
        for fj in rows.pop(fi):
            if fj != fi:
                del rows[fj][fi]


def _checkerboard(tail, head, face_of, n_faces) -> tuple[list[int], list[int]]:
    """Face colors 0/1 with the two sides of every edge apart, and each
    face's piece, named by its least face.  Each component of the face
    graph, one per piece of the diagram, has its smaller color class
    white (0), its least face's class on a tie: that piece's Goeritz
    block then has the fewer rows.  A breadth-first pass colors each face
    as it reaches it and counts the class sizes as it goes; a piece whose
    least face's class is the larger has its colors flipped."""
    adj: list[list[int]] = [[] for _ in range(n_faces)]
    for t, h in zip(tail, head):
        f1, f2 = face_of[t], face_of[h]
        if f1 == f2:
            raise AssertionError("edge borders one face twice; cannot 2-color")
        adj[f1].append(f2)
        adj[f2].append(f1)
    color = [-1] * n_faces
    piece = list(range(n_faces))
    for root in range(n_faces):
        if color[root] >= 0:
            continue
        color[root] = 0
        faces = [root]  # the piece's faces, in the order they are colored
        ones = 0
        for f in faces:
            other = 1 - color[f]
            for g in adj[f]:
                c = color[g]
                if c < 0:
                    color[g] = other
                    piece[g] = root
                    faces.append(g)
                    ones += other
                elif c != other:
                    raise AssertionError("face graph not bipartite")
        if 2 * ones < len(faces):  # more faces of color 0
            for f in faces:
                color[f] ^= 1
    return color, piece


def _sparse_signature(rows: dict[int, dict[int, int]]) -> tuple[int, int, int, int]:
    """Signature of a symmetric integer matrix held as sparse rows, with
    its pivot count, congruence steps and peak row nonzeros.

    ``rows[i][j]`` is entry (i, j), zeros left out; the rows are used up.
    Fraction-free elimination: each pivot step leaves the rest as |pivot|
    times its Schur complement, the division by the previous |pivot|
    being exact (every entry is a minor up to sign) and the positive
    factors keeping every sign the rational elimination would see.  An
    entry the pivot does not meet only changes scale, so each entry is
    kept as ``(x, s)``, its value ``x`` at the scale ``s`` it was last
    written at, and read as ``x * prev // s`` at the current scale
    ``prev``, exactly: a step writes only the entries (i, j) with both i
    and j neighbours of the pivot, at scale |pivot|.  The pivot is a row
    of least degree with a nonzero diagonal, the lowest key among ties.
    A heap of ``(len(row), i)`` keeps that order: the set-up pushes each
    row with a nonzero diagonal, and every step pushes each row it wrote
    that has one, at its new length.  An entry is live while its row is
    still there, still has its diagonal and still has that length; the
    loop pops stale ones until it meets a live one, which is then the
    least (degree, key) row, as every such row has a live entry.  An
    exhausted heap means every diagonal is zero.  Then adding the row
    and column of its lowest neighbour j into the lowest row i makes
    (i, i) = 2 (i, j); no other diagonal changes, and row i is pushed.
    """
    prev = 1
    sig = pivots = congruences = 0
    # (length, key) of every row with a nonzero diagonal, pushed again by
    # each step that writes it; an entry whose row has since changed is stale
    queue: list[tuple[int, int]] = []
    for i in list(rows):
        row = rows[i] = {j: (x, 1) for j, x in rows[i].items()}
        if i in row:
            heappush(queue, (len(row), i))
        elif not row:
            del rows[i]  # a zero row adds nothing
    peak = max(map(len, rows.values()), default=0)
    while rows:
        while queue:
            n, p = heappop(queue)
            row = rows.get(p, ())
            if p in row and len(row) == n:
                break
        else:
            congruences += 1
            i = min(rows)
            ri = rows[i]
            j = min(ri)
            # (i, i) = 2 (i, j), (i, k) += (j, k) and (k, i) += (k, j)
            x, s = ri[j]
            ri[i] = 2 * (x * prev // s), prev
            for k, (y, t) in rows[j].items():
                if k != i:
                    rk = rows[k]
                    x, s = ri.get(k, (0, 1))
                    x = x * prev // s + y * prev // t
                    if x:
                        ri[k] = rk[i] = x, prev
                    else:
                        del rk[i], ri[k]
                    peak = max(peak, len(rk))
            peak = max(peak, len(ri))
            heappush(queue, (len(ri), i))
            continue
        pivots += 1
        r = {j: x * prev // s for j, (x, s) in rows.pop(p).items()}
        pv = r.pop(p)
        sig += 1 if pv > 0 else -1
        apv = abs(pv)
        for i, f in r.items():
            row = rows[i]
            del row[p]
            if pv < 0:
                f = -f
            for j, y in r.items():
                if j in row:
                    x, s = row[j]
                    x = (apv * (x * prev // s) - f * y) // prev
                    if x:
                        row[j] = x, apv
                    else:
                        del row[j]
                else:
                    x = -f * y // prev
                    if x:
                        row[j] = x, apv
            n = len(row)
            if n > peak:
                peak = n
            if i in row:
                heappush(queue, (n, i))
            elif not n:
                del rows[i]
        prev = apv
    return sig, pivots, congruences, peak
