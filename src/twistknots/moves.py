"""Reidemeister moves on oriented PD diagrams.

Enumerates every applicable move of the three kinds, in both directions
for R1 and R2.  Enumeration builds no diagram and no crossing: each move
is made as ``Move(kind, site, builder, *args)``, keeping the builder of
its result and what enumeration found (the input, its edges, the kink
kind or wiring), and the first read of ``Move.result`` builds the
crossings and the diagram, so a search that reads a few of the moves it
lists pays for those alone.  Moves have no equality of their own;
compare their ``(kind, site, result)`` triples.  Each result read costs
one construction, which runs the diagram's full validating pass.  The
additions build only the wirings that fit the faces they are drawn in,
so a result that fails the pass is a bug in this module; it raises
``DiagramError`` on read instead of being dropped.
``reidemeister_moves`` logs one DEBUG record per call on
``twistknots.moves`` with the crossings in, the moves out of each kind
and the seconds, which cover the enumeration alone.

Move kinds: ``R1-``, ``R1+``, ``R2-``, ``R2+``, ``R3``.  One
enumerator, ``removals``, lists the R1- and R2- moves, at the sites a
``greedy_simplify`` trace names them by: a kink by its crossing and
slot, a bigon by its two face darts.

Every kind reads the diagram through dart codes (dart ``(c, s)`` coded
``4 * c + s``) and the dart mate array of ``diagram._mates``, each dart
mated to the other end of its edge.  The removals and
``greedy_simplify`` share one machine on it: one kink test, which
compares a crossing's four mates with its next slots, one bigon test,
which reads each slot's mate and the mate of the dart after it, and
one splice that re-mates the darts around the removed crossings and
gives each re-mated edge the least label of the edges it replaces.  The
splice marks each removed dart it walks by mating it to -1, so it keeps
no set of walked darts and needs an array its caller owns: a removal
result splices a copy, ``greedy_simplify`` its working array.  R3 finds
its triangles on the same faces and mates.  One builder, ``_edited``,
makes every result from the input's crossing rows: it relabels some
darts, leaves some crossings out and appends new rows.
An R1- or R2- result relabels the darts the splice re-mated and leaves
out the removed crossings; ``greedy_simplify`` splices its own array
step after step, names the crossings of its trace by their input
indices, and builds one diagram, its result.  An R3 result slides the
labels around its triangle (``_slid``).  The additions relabel the head
darts of the edges they split and append the crossings they create, with
new edges ``2V..2V+2k-1`` for k new crossings; an R2+ of one free loop
across another labels the second loop ``2V + 2, 2V + 3``.  A result
that loses no crossing keeps the labels ``0..E-1``; a removal leaves
gaps, and ``diagram._relabelled`` renames its labels by first
appearance, as the constructor would.  Each row a result changes is
built once, by ``diagram._row``, and every result is made by the one
door for derived diagrams, ``OrientedLinkDiagram._of_rows``, which
places the rows once and never runs the constructor.
"""

from __future__ import annotations

import time

from .diagram import OrientedLinkDiagram, _check_diagram, _debug, _faces, _mates, _relabelled, _row


class Move:
    """One move: its kind, its site and the diagram it leads to.

    ``Move(kind, site, builder, *args)`` records the builder of the result
    and the arguments enumeration already computed.  The first read of
    ``result`` runs ``builder(*args)``, which builds the result's crossings
    and the diagram through ``_of_rows`` and its full validating pass,
    and keeps it: each result read costs one validated construction,
    later reads cost nothing, and a builder fault raises ``DiagramError``
    on every read.
    """

    __slots__ = ("kind", "site", "_result", "_build")

    def __init__(self, kind: str, site: tuple, builder, *args):
        self.kind = kind
        self.site = site
        self._result = None
        self._build = builder, args

    @property
    def result(self) -> OrientedLinkDiagram:
        if self._result is None:
            builder, args = self._build
            self._result = builder(*args)
            self._build = None
        return self._result


def reidemeister_moves(d: OrientedLinkDiagram) -> list[Move]:
    """All applicable moves: those of ``removals``, ``r3_moves``,
    ``r1_additions`` and ``r2_additions`` in turn, so in kind order R1-,
    R2-, R3, R1+, R2+.

    Builds no diagram: each move's result is built and validated on its
    first read (see ``Move``).  The DEBUG record's seconds cover the
    enumeration alone.
    """
    start = time.perf_counter()
    out = removals(d)
    r1 = sum(m.kind == "R1-" for m in out)
    counts = [r1, len(out) - r1]
    for kind in (r3_moves, r1_additions, r2_additions):
        before = len(out)
        out.extend(kind(d))
        counts.append(len(out) - before)
    _debug(
        __name__, "reidemeister moves: %d crossings in, %d R1-, %d R2-, %d R3, "
        "%d R1+, %d R2+ out, %.3f s",
        d.n_crossings, *counts, time.perf_counter() - start,
    )
    return out


# -- removals -----------------------------------------------------------


def removals(d: OrientedLinkDiagram) -> list[Move]:
    """R1- moves at sites ``(c, s)``, the kinks whose loop joins slots
    ``s`` and ``s + 1`` of crossing ``c``, in crossing and slot order;
    then R2- moves at sites ``(c1, s1, c2, s2)``, the bigons whose two
    face darts are ``(c1, s1)`` and the greater ``(c2, s2)``, in the
    order of their lesser dart.  A ``greedy_simplify`` trace names its
    steps the same way, but puts first the bigon dart at the crossing
    it tested, which may be the greater."""
    _check_diagram(d, "Reidemeister moves need")
    mate = _mates(d._tail, d._head)
    out = [Move("R1-", (c, x & 3), _without, d, mate, (c,))
           for c in range(d.n_crossings) for x in _kinks_at(mate, c)]
    return out + [Move("R2-", (c, x & 3, y >> 2, y & 3), _without, d, mate, (c, y >> 2))
                  for c in range(d.n_crossings) for x, y in _bigons_at(mate, c)
                  if x < y]  # a bigon shows at both its darts


def _without(d, mate, removed) -> OrientedLinkDiagram:
    """``d`` with the ``removed`` crossings spliced out of a copy of its
    mate array (see ``_remove``)."""
    label = _labels(d)
    loops, remated = _remove(mate.copy(), label, [True] * d.n_crossings, removed)
    return _edited(d, [(x, label[x]) for x in remated], removed, (), d.free_loops + loops)


# -- additions ----------------------------------------------------------


def r1_additions(d: OrientedLinkDiagram) -> list[Move]:
    """R1+ moves at sites ``(e, kind)``, four kinks on every edge, then
    ``("free_loop", kind)``, two kinks on a free loop, if there is one."""
    _check_diagram(d, "Reidemeister moves need")
    out = [Move("R1+", (e, kind), _kinked, d, e, kind)
           for e in d.edges for kind in ("pos_a", "pos_b", "neg_a", "neg_b")]
    if d.free_loops:
        out += [Move("R1+", ("free_loop", kind), _kinked, d, None, kind)
                for kind in ("loop_pos", "loop_neg")]
    return out


def _kinked(d, e, kind) -> OrientedLinkDiagram:
    """``d`` with a kink of ``kind`` on edge ``e``, or on a free loop when
    ``e`` is None.  The kink's loop is edge ``2V`` and the strand leaves
    the kink on edge ``2V + 1``, which a free loop enters it on too."""
    loop, m = 2 * d.n_crossings, 2 * d.n_crossings + 1
    if e is None:
        return _edited(d, (), (), (_kink(kind, m, loop, m),), d.free_loops - 1)
    return _edited(d, ((d._head[e], m),), (), (_kink(kind, e, loop, m),), d.free_loops)


def _kink(kind, e, loop, m):
    """The crossing of a kink of ``kind`` whose strand enters on ``e``,
    runs once around the loop edge ``loop`` and leaves on ``m``; the
    ``loop_`` kinds are ``pos_a`` and ``neg_a`` with ``e == m``."""
    if kind in ("pos_a", "loop_pos"):
        return _row((loop, loop, m, e), +1)
    if kind == "pos_b":
        return _row((e, m, loop, loop), +1)
    if kind in ("neg_a", "loop_neg"):
        return _row((e, loop, loop, m), -1)
    return _row((loop, e, m, loop), -1)


def _r2_wiring(over, under, k):
    """The crossing pair of wiring k pushing strand ``over=(e1, m, e2)``
    across ``under=(g1, h, g2)``.

    k = 0, 1 are the parallel wirings (both strands meet the first new
    crossing first) and k = 2, 3 the antiparallel ones, each with the
    finger coming from either side.  Pushing e1 over g1 inside a face
    they both border has exactly one planar wiring, fixed by whether the
    face darts of e1 and g1 are edge tails: (tail, head) -> 0,
    (head, tail) -> 1, (head, head) -> 2, (tail, tail) -> 3.  Two edges
    can share two faces, and an edge can border one face twice, so a
    pair's planar wirings are those of every face occurrence they share.
    """
    e1, m, e2 = over
    g1, h, g2 = under
    if k == 0:
        return _row((g1, m, h, e1), +1), _row((h, m, g2, e2), -1)
    if k == 1:
        return _row((g1, e1, h, m), -1), _row((h, e2, g2, m), +1)
    if k == 2:
        return _row((h, m, g2, e1), +1), _row((g1, m, h, e2), -1)
    return _row((h, e1, g2, m), -1), _row((g1, e2, h, m), +1)


# wiring index by whether the face darts of (over, under) are edge tails
_R2_WIRING = {(True, False): 0, (False, True): 1, (False, False): 2, (True, True): 3}


def r2_additions(d: OrientedLinkDiagram) -> list[Move]:
    """R2+ moves over every ordered edge pair sharing a face: pairs in the
    order first met, each pair's planar wirings in ascending k."""
    _check_diagram(d, "Reidemeister moves need")
    label = _labels(d)
    wirings: dict[tuple[int, int], set[int]] = {}
    for face in _faces(d._tail, d._head):
        sides = [(label[x], d._tail[label[x]] == x) for x in face]
        for i, (e, e_tail) in enumerate(sides):
            for j, (g, g_tail) in enumerate(sides):
                if i != j and e != g:
                    wirings.setdefault((e, g), set()).add(_R2_WIRING[e_tail, g_tail])
    out = [Move("R2+", (e, g, k), _pushed, d, e, g, k)
           for (e, g), ks in wirings.items() for k in sorted(ks)]
    if d.free_loops:
        out += _r2_free_loop_additions(d)
    return out


def _pushed(d, e, g, k) -> OrientedLinkDiagram:
    """``d`` with edge ``e`` pushed across edge ``g`` by wiring ``k``: the
    finger splits ``e`` into ``e, 2V, 2V + 2`` and ``g`` into
    ``g, 2V + 1, 2V + 3``."""
    fresh0 = 2 * d.n_crossings
    m, h, e2, g2 = fresh0, fresh0 + 1, fresh0 + 2, fresh0 + 3
    edits = (d._head[e], e2), (d._head[g], g2)
    return _edited(d, edits, (), _r2_wiring((e, m, e2), (g, h, g2), k), d.free_loops)


def _r2_free_loop_additions(d: OrientedLinkDiagram) -> list[Move]:
    out = [Move("R2+", ("free_loop", g, role, k), _loop_pushed, d, g, role, k)
           for g in d.edges for role in (0, 1) for k in range(4)]
    if d.free_loops >= 2:
        out += [Move("R2+", ("two_loops", k), _loop_pushed, d, None, 0, k) for k in range(4)]
    out += [Move("R2+", ("self_loop", k), _self_pushed, d, k) for k in range(2)]
    return out


def _loop_pushed(d, g, role, k) -> OrientedLinkDiagram:
    """``d`` with a free loop pushed by wiring ``k`` across edge ``g``
    (``role`` 0) or ``g`` across it (``role`` 1), or, when ``g`` is None,
    across a second free loop.  The loop becomes edges ``2V, 2V + 1`` and
    the strand of ``g`` gains ``2V + 2, 2V + 3``; a second loop becomes
    those two edges alone, so the labels stay dense."""
    fresh0 = 2 * d.n_crossings
    m1, m2, h, g2 = fresh0, fresh0 + 1, fresh0 + 2, fresh0 + 3
    loop = (m2, m1, m2)
    if g is None:
        return _edited(d, (), (), _r2_wiring(loop, (g2, h, g2), k), d.free_loops - 2)
    strand = (g, h, g2)
    over, under = (loop, strand) if role == 0 else (strand, loop)
    return _edited(d, ((d._head[g], g2),), (), _r2_wiring(over, under, k), d.free_loops - 1)


def _self_pushed(d, k) -> OrientedLinkDiagram:
    """``d`` with a lone loop pushed across itself: its tongue passes over
    both times (``k`` 0) or under both times (``k`` 1)."""
    fresh0 = 2 * d.n_crossings
    a, t, c, m = fresh0, fresh0 + 1, fresh0 + 2, fresh0 + 3
    if k == 0:
        pair = _row((c, t, m, a), +1), _row((m, t, c, a), -1)
    else:
        pair = _row((a, c, t, m), -1), _row((t, c, a, m), +1)
    return _edited(d, (), (), pair, d.free_loops - 1)


# -- R3 -----------------------------------------------------------------


def r3_moves(d: OrientedLinkDiagram) -> list[Move]:
    """R3 moves at sites ``(c1, s1), (c2, s2), (c3, s3)``, the three face
    darts of a triangle in dart order, the triangles in the order of
    their least dart.

    A triangle is a face of three darts at three crossings; its three
    sides are then three edges.  The move needs one side passing over at
    both its ends, all of which lie on the triangle.
    """
    _check_diagram(d, "Reidemeister moves need")
    mate = _mates(d._tail, d._head)
    out = []
    for face in _faces(d._tail, d._head):
        if len(face) != 3 or len({x >> 2 for x in face}) != 3:
            continue
        if not any(x & mate[x] & 1 for x in face):  # odd slots are over
            continue
        sides = [d.crossings[x >> 2].edges[x & 3] for x in face]
        site = tuple((x >> 2, x & 3) for x in sorted(face))
        out.append(Move("R3", site, _slid, d, sides))
    return out


def _slid(d: OrientedLinkDiagram, sides: list[int]) -> OrientedLinkDiagram:
    """Slide the triangle: every strand swaps which of its two triangle
    crossings it meets first, keeping its middle edge between them.

    Side ``t`` runs from tail dart ``x`` to head dart ``y``; its strand
    enters at ``x ^ 2`` and leaves at ``y ^ 2``.  Its label moves to those
    two darts, and ``x`` and ``y`` take the input's labels beyond them.
    """
    rows = d.crossings
    edits = []
    for t in sides:
        x, y = d._tail[t], d._head[t]
        before, after = rows[x >> 2].edges[(x ^ 2) & 3], rows[y >> 2].edges[(y ^ 2) & 3]
        edits += (x ^ 2, t), (x, after), (y, before), (y ^ 2, t)
    return _edited(d, edits, (), (), d.free_loops)


# -- simplification ------------------------------------------------------


def greedy_simplify(
    d: OrientedLinkDiagram,
) -> tuple[OrientedLinkDiagram, list[tuple]]:
    """Remove kinks (R1-) and bigons (R2-) until none is left.

    Works on the input's dart mate array with the kink and bigon tests
    and the splice that ``removals`` uses: a removal
    re-mates each dart outside the removed crossings to the next outside
    dart along its strand, and only the crossings of re-mated darts are
    looked at again.  Removals never create crossings, so the trace names
    input crossings: ``("R1-", (c, s))`` for the kink whose loop joins
    slots ``s`` and ``s + 1`` of crossing ``c``, and
    ``("R2-", (c1, s1, c2, s2))`` for the bigon whose two face darts are
    ``(c1, s1)`` and ``(c2, s2)``.  A stack of darts says which crossing
    to look at next: one per crossing at the start, the lowest on top,
    then the darts each removal re-mates.  The crossing is tested for a
    kink, then for a bigon, and the first one found is removed.  A dart
    is passed over if its crossing was removed since it was stacked, or
    if the crossing found nothing and none of its darts was re-mated
    since: what both tests find depends only on the mates of the
    crossing's own darts, mating being symmetric.  Each edge of the
    result takes the least input label along it, which ``_edited``
    renames through ``_relabelled``, and the result is built and
    validated once, at the end.
    """
    _check_diagram(d, "greedy simplification needs")
    start = time.perf_counter()
    n = len(d.crossings)
    mate = _mates(d._tail, d._head)
    label = _labels(d)
    alive = [True] * n
    # tested, nothing found and none of its darts re-mated since
    clean = [False] * n
    free_loops = d.free_loops
    remated: list[int] = []
    gone: list[int] = []
    trace: list[tuple] = []
    work = list(range(4 * n - 4, -1, -4))  # a stack of darts, lowest crossing on top
    while work:
        c = work.pop() >> 2
        if clean[c] or not alive[c]:
            continue
        kinks = _kinks_at(mate, c)
        if kinks:
            trace.append(("R1-", (c, kinks[0] & 3)))
            removed = (c,)
        else:
            bigons = _bigons_at(mate, c)
            if not bigons:
                clean[c] = True
                continue
            x, y = bigons[0]
            trace.append(("R2-", (c, x & 3, y >> 2, y & 3)))
            removed = (c, y >> 2)
        loops, darts = _remove(mate, label, alive, removed)
        gone += removed
        free_loops += loops
        remated += darts
        work += darts
        for x in darts:
            clean[x >> 2] = False
    edits = [(x, label[x]) for x in set(remated) if alive[x >> 2]]
    result = _edited(d, edits, gone, (), free_loops) if trace else d
    _debug(
        __name__, "greedy simplify: %d crossings in, %d steps, %d crossings out, %.3f s",
        n, len(trace), result.n_crossings, time.perf_counter() - start,
    )
    return result, trace


def _labels(d: OrientedLinkDiagram) -> list[int]:
    """Each dart's edge label."""
    return [e for c in d.crossings for e in c.edges]


def _kinks_at(mate: list[int], c: int) -> list[int]:
    """The darts of crossing ``c`` mated to the next slot: each one is
    slot ``s`` of a kink whose loop joins slots ``s`` and ``s + 1``."""
    x = 4 * c
    m0, m1, m2, m3 = mate[x:x + 4]
    kinks = []
    if m0 == x + 1:
        kinks.append(x)
    if m1 == x + 2:
        kinks.append(x + 1)
    if m2 == x + 3:
        kinks.append(x + 2)
    if m3 == x:
        kinks.append(x + 3)
    return kinks


def _bigons_at(mate: list[int], c: int) -> list[tuple[int, int]]:
    """The two-dart faces ``x -> y -> x`` with ``x`` at crossing ``c``
    (``y`` the dart after ``x``'s mate, whose own mate is the dart before
    ``x``) and ``y`` at another crossing, whose edge at ``x`` runs over at
    both ends or under at both ends."""
    bigons = []
    x = 4 * c
    before = x + 3  # the dart before x at its crossing
    for m in mate[x:x + 4]:
        if not (x ^ m) & 1:
            y = m + 1 if (m + 1) & 3 else m - 3
            if mate[y] == before and y >> 2 != c:
                bigons.append((x, y))
        before = x
        x += 1
    return bigons


def _remove(
    mate: list[int], label: list[int], alive: list[bool], removed
) -> tuple[int, list[int]]:
    """Splice the ``removed`` crossings out of the mate array.

    Each outside dart is re-mated to the next outside dart along its
    strand, and both take the least label of the edges on the way; a
    strand that never leaves the removed crossings is a free loop.  The
    walk marks each removed dart it passes by mating it to -1, so a
    strand is walked once, from whichever end comes first; nothing reads
    a removed crossing's darts afterwards.  Returns the loop count and
    the re-mated darts, each pair of mates in turn; a later splice can
    remove a crossing of one of them.
    """
    for c in removed:
        alive[c] = False
    darts = [x for c in removed for x in range(4 * c, 4 * c + 4)]
    remated = []
    for x in darts:
        y = mate[x]
        if y < 0 or not alive[y >> 2]:
            continue
        least = label[x]
        while True:  # x ^ 2 is the other slot of x's strand at its crossing
            w = x ^ 2
            if label[w] < least:
                least = label[w]
            z = mate[w]
            mate[x] = mate[w] = -1
            if alive[z >> 2]:
                break
            x = z
        mate[y], mate[z] = z, y
        label[y] = label[z] = least
        remated += (y, z)
    loops = 0
    for x in darts:
        if mate[x] >= 0:
            loops += 1
            while mate[x] >= 0:
                w = x ^ 2
                z = mate[w]
                mate[x] = mate[w] = -1
                x = z
    return loops, remated


def _edited(d, edits, removed, added, free_loops) -> OrientedLinkDiagram:
    """``d`` with each ``(dart, label)`` edit made in order, the ``removed``
    crossings left out and the ``added`` rows appended, placed once
    through ``OrientedLinkDiagram._of_rows``.  Each row that changes is
    built once.  Rows that lost no crossing are labelled ``0..E-1``; a
    removal's are relabelled by ``_relabelled`` before they are built (no
    removal adds a row)."""
    rows = list(d.crossings)
    changed: dict[int, list[int]] = {}
    for x, e in edits:
        changed.setdefault(x >> 2, list(rows[x >> 2].edges))[x & 3] = e
    if removed:
        kept = sorted(set(range(len(rows))).difference(removed))
        edges = _relabelled([tuple(changed[c]) if c in changed else rows[c].edges for c in kept])
        rows = [_row(e, rows[c].sign) for e, c in zip(edges, kept)]
    else:
        for c, edges in changed.items():
            rows[c] = _row(tuple(edges), rows[c].sign)
        rows += added
    return OrientedLinkDiagram._of_rows(rows, free_loops)[0]
