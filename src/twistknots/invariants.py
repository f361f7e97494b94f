"""Classical certificates: Jones polynomial, signature, unlink tests.

The bracket polynomial is computed by scanning crossings one at a time,
so cost is governed by the width of the scan (its peak number of open
pairs) rather than 2^crossings; a greedy ordering keeps that width small
on braid-like diagrams, and one budget, ``WIDTH_BUDGET``, bounds it before
any state is built.  All states share one ordered frontier of open darts
(code ``4 * crossing + slot``); a state is the tuple of partner positions
in it, its value the integer coefficients of A^lo, A^(lo+2), ..., and a
state whose terms cancel is dropped.  What each slot of the next
crossing meets, and where surviving darts move, is worked out once per
crossing; each state then touches four slots.  The signature comes from
the Goeritz form of a checkerboard coloring with its orientation
correction term.  The form is kept as sparse rows, one per white face,
and eliminated fraction-free in exact integers, least-degree row first;
each row is rescaled only when a pivot meets it, so on a long narrow
diagram, whose form is banded, the cost grows about linearly in the
crossings.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from operator import add, sub

from .diagram import DiagramError, OrientedLinkDiagram, _piece_of_component, _subdiagram
from .polynomials import LaurentPolynomial

# most open pairs a scan may keep; cost grows like the Catalan number of the
# width: a k-strand full-twist closure takes 0.27 s at k=8, 9.2 s at k=10
# (2-core Xeon, Python 3.11)
WIDTH_BUDGET = 8

# per smoothing, its power of A and each slot's partner: the A-type
# joins slots (0,1) and (2,3), the B-type (0,3) and (1,2)
_SMOOTH = ((1, (1, 0, 3, 2)), (-1, (3, 2, 1, 0)))


class LimitExceeded(DiagramError):
    """Scan width (peak open pairs of the scan order) above the budget."""


def _scan_order(d: OrientedLinkDiagram) -> tuple[list[int], int]:
    """Greedy order keeping the open frontier small, and its peak open pairs.

    Each step takes the crossing with the most edges to crossings already
    placed, the lowest index among ties.  Unplaced crossings with 1..4
    such edges sit in a bucket per count, at most one per open edge in
    all; when every bucket is empty no unplaced crossing has such an
    edge, and the lowest unplaced index, which only grows, comes next.
    """
    n = len(d.crossings)
    other = [0] * (4 * n)  # per dart, the crossing at the other end of its edge
    for t, h in zip(d._tail, d._head):
        other[t] = h >> 2
        other[h] = t >> 2
    count = [0] * n
    placed = [False] * n
    buckets: list[set[int]] = [set() for _ in range(5)]  # by count; 0 stays empty
    lowest = 0
    order: list[int] = []
    open_edges = width = 0
    for _ in range(n):
        k = 4
        while k and not buckets[k]:
            k -= 1
        if k:
            ci = min(buckets[k])
            buckets[k].discard(ci)
        else:
            while placed[lowest]:
                lowest += 1
            ci = lowest
        placed[ci] = True
        order.append(ci)
        for cj in other[4 * ci : 4 * ci + 4]:
            if cj == ci:
                continue  # an edge with both ends here never opens
            if placed[cj]:
                open_edges -= 1
            else:
                open_edges += 1
                buckets[count[cj]].discard(cj)
                count[cj] += 1
                buckets[count[cj]].add(cj)
        width = max(width, open_edges // 2)
    return order, width


def kauffman_bracket_jones(
    d: OrientedLinkDiagram, limit: int = WIDTH_BUDGET
) -> LaurentPolynomial:
    """Jones polynomial, unknot-normalized, in doubled-t exponents; a scan
    wider than ``limit`` open pairs raises ``LimitExceeded`` up front."""
    if d.n_components == 0:
        raise DiagramError("the empty diagram has no Jones polynomial")
    order, width = _scan_order(d)
    if width > limit:
        raise LimitExceeded(f"scan width {width} exceeds the width budget {limit}")
    w = d.writhe()
    # (-A)^{-3w} <D>, then one delta division for unknot normalization
    lo, coeffs = _divide_delta(*_bracket_with_loops(d, order, width))
    lo -= 3 * w
    if lo % 2 and any(coeffs):
        raise AssertionError("bracket exponent parity violated")
    sign = -1 if w % 2 else 1
    return LaurentPolynomial({lo // 2 + i: sign * c for i, c in enumerate(coeffs)})


def _bracket_with_loops(d, order, width) -> tuple[int, list[int]]:
    """Sum over states of A^{a-b} * delta^{loops} (note: no -1) in a scan
    ``order`` of that ``width``, as its lowest exponent and the
    coefficients of every second power from it."""
    start = time.perf_counter()
    tail, head = d._tail, d._head
    frontier: list[int] = []
    states: dict[tuple[int, ...], tuple[int, list[int]]] = {(): (0, [1])}
    updates = 0
    for ci in order:
        at = {x: i for i, x in enumerate(frontier)}
        glued = {}  # frontier position -> the slot glued to it
        link = []  # per slot: another slot, -1 - a glued position, or None if new
        for s, e in enumerate(d.crossings[ci].edges):
            o = head[e] if tail[e] == 4 * ci + s else tail[e]
            if o >> 2 == ci:
                link.append(o & 3)
            elif o in at:
                glued[at[o]] = s
                link.append(-1 - at[o])
            else:
                link.append(None)
        survivors = [i for i in range(len(frontier)) if i not in glued]
        fresh = [s for s in range(4) if link[s] is None]
        remap = [0] * len(frontier)
        for k, i in enumerate(survivors):
            remap[i] = k
        for k, s in enumerate(fresh, len(survivors)):
            link[s] = 4 + k
        # where the strand through a frontier dart's partner q comes out
        reach = [glued.get(q, 4 + remap[q]) for q in range(len(frontier))]
        frontier = [frontier[i] for i in survivors] + [4 * ci + s for s in fresh]
        updates += 2 * len(states)
        walks: dict[tuple[int, ...], list] = {}
        parts: dict[tuple[int, ...], list] = {}
        for key, (lo, coeffs) in states.items():
            ends = tuple([x if x >= 0 else reach[key[-1 - x]] for x in link])
            if ends not in walks:
                walks[ends] = [(sh, *_walk(ends, smooth)) for sh, smooth in _SMOOTH]
            base = [remap[key[i]] for i in survivors] + [0] * len(fresh)
            for shift, pairs, loops in walks[ends]:
                nxt = list(base)
                for a, b in pairs:
                    nxt[a], nxt[b] = b, a
                part = (lo + shift, coeffs)
                for _ in range(loops):
                    part = _times_delta(part)
                parts.setdefault(tuple(nxt), []).append(part)
        states = {}
        for key, group in parts.items():
            lo, coeffs = _summed(group)
            if coeffs:  # a state whose terms cancelled adds nothing from here on
                states[key] = lo, coeffs
    assert len(states) == 1 and () in states, "scan left open strands"
    total = states[()]
    for _ in range(d.free_loops):
        total = _times_delta(total)
    # only a program that imported logging can have a handler for this
    # record, so the scan never imports it and `import twistknots` stays light
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(
            "bracket scan: %d crossings, peak %d open pairs, %d state updates, %.3f s",
            len(d.crossings), width, updates, time.perf_counter() - start,
        )
    return total


def _walk(ends: tuple[int, ...], smooth: tuple[int, ...]) -> tuple[list, int]:
    """Join a crossing's four slots by a smoothing: the frontier pairs it
    makes and the loops it closes.  ``ends[s]`` is where the strand out
    of slot ``s`` comes back (a slot) or stays open (4 + new position)."""
    seen = [False] * 4
    pairs, loops = [], 0
    for s in sorted(range(4), key=lambda s: ends[s] < 4):  # open ends first
        if seen[s]:
            continue
        x = s
        while x < 4 and not seen[x]:
            seen[x] = seen[smooth[x]] = True
            x = ends[smooth[x]]
        if x >= 4:
            pairs.append((ends[s] - 4, x - 4))
        else:
            loops += 1
    return pairs, loops


def _times_delta(p: tuple[int, list[int]]) -> tuple[int, list[int]]:
    """``p * (-A^2 - A^-2)`` on (lowest exponent, coefficients step 2)."""
    lo, coeffs = p
    out = [-c for c in coeffs] + [0, 0]
    out[2:] = map(sub, out[2:], coeffs)
    return lo - 2, out


def _summed(parts: list[tuple[int, list[int]]]) -> tuple[int, list[int]]:
    """Sum of polynomials in scan form whose exponents share a parity,
    trimmed to its nonzero span."""
    if len(parts) == 1:
        return parts[0]
    lo = min([p[0] for p in parts])
    out = [0] * (max([p[0] + 2 * len(p[1]) for p in parts]) - lo >> 1)
    for plo, coeffs in parts:
        i = plo - lo >> 1
        out[i : i + len(coeffs)] = map(add, out[i : i + len(coeffs)], coeffs)
    nonzero = [i for i, c in enumerate(out) if c]
    if not nonzero:
        return lo, []
    return lo + 2 * nonzero[0], out[nonzero[0] : nonzero[-1] + 1]


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
    if n_components < 1:
        raise DiagramError("need at least one component")
    delta_t = LaurentPolynomial({1: -1, -1: -1})  # -t^(1/2) - t^(-1/2)
    return delta_t ** (n_components - 1)


# -- signature ---------------------------------------------------------------


def signature(d: OrientedLinkDiagram) -> int:
    """Signature of the link via the Goeritz form with orientation
    correction; fixed so the right trefoil gives -2.  A split diagram
    gets the sum over its pieces, free loops adding 0."""
    if not d.crossings:
        return 0
    pieces = _pieces(d)
    if len(pieces) == 1:
        return _piece_signature(d)  # free loops add 0
    return sum(_piece_signature(_subdiagram(d, p)) for p in pieces)


def _pieces(d: OrientedLinkDiagram) -> list[list[int]]:
    """The crossing indices of each connected piece, by least crossing."""
    if len(d._components) == 1:
        return [list(range(len(d.crossings)))]
    comp = d._comp
    root = _piece_of_component(d.crossings, comp, len(d._components))
    pieces: dict[int, list[int]] = {}
    for ci, c in enumerate(d.crossings):
        pieces.setdefault(root[comp[c.edges[0]]], []).append(ci)
    return list(pieces.values())


def _piece_signature(d: OrientedLinkDiagram) -> int:
    start = time.perf_counter()
    rows, mu = _goeritz(d)
    whites = len(rows)
    _leave_out(rows)
    sig, pivots, congruences, peak = _sparse_signature(rows)
    logging = sys.modules.get("logging")  # see _bracket_with_loops
    if logging is not None:
        logging.getLogger(__name__).debug(
            "signature: %d crossings, %d white faces, %d pivots, "
            "%d congruence steps, peak %d row nonzeros, %.3f s",
            len(d.crossings), whites, pivots, congruences, peak,
            time.perf_counter() - start,
        )
    return sig - mu


def _goeritz(d: OrientedLinkDiagram) -> tuple[dict[int, dict[int, int]], int]:
    """Goeritz matrix of a connected diagram as sparse rows keyed by white
    face, zeros left out, and its orientation correction ``mu``."""
    face_of = d._face_of
    n_faces = max(face_of) + 1
    color = _checkerboard(d._tail, d._head, face_of, n_faces)
    rows: dict[int, dict[int, int]] = {fi: {} for fi in range(n_faces) if color[fi] == 0}
    mu = 0
    for ci, c in enumerate(d.crossings):
        # the corner between slots s and s+1 lies in the face of dart
        # 4 * ci + s + 1; opposite corners share a color
        if color[face_of[4 * ci + 1]] == 0:  # corners (0,1) and (2,3) white
            eta, wi, wj = 1, face_of[4 * ci + 1], face_of[4 * ci + 3]
        else:
            eta, wi, wj = -1, face_of[4 * ci + 2], face_of[4 * ci]
        if eta == c.sign:
            mu += eta
        if wi != wj:
            for u, v in ((wi, wj), (wj, wi)):
                row = rows[u]
                row[v] = row.get(v, 0) - eta
                row[u] = row.get(u, 0) + eta
    for fi, row in rows.items():
        rows[fi] = {fj: x for fj, x in row.items() if x}
    return rows, mu


def _leave_out(rows: dict[int, dict[int, int]], fi: int | None = None) -> None:
    """Drop the row and column of white face ``fi``, by default the first
    of largest degree.  Every row of the Goeritz matrix sums to zero, so
    each choice leaves a congruent form; a hub face, kept, would fill in
    every row it meets."""
    if fi is None:
        fi = max(rows, key=lambda f: len(rows[f]) - (f in rows[f]))
    for fj in rows.pop(fi):
        if fj != fi:
            del rows[fj][fi]


def _checkerboard(tail, head, face_of, n_faces) -> list[int]:
    """Face colors 0/1 with the two sides of every edge apart, face 0 white."""
    adj: list[list[int]] = [[] for _ in range(n_faces)]
    for t, h in zip(tail, head):
        f1, f2 = face_of[t], face_of[h]
        if f1 == f2:
            raise AssertionError("edge borders one face twice; cannot 2-color")
        adj[f1].append(f2)
        adj[f2].append(f1)
    color = [-1] * n_faces
    color[0] = 0
    queue = [0]
    while queue:
        f = queue.pop()
        for g in adj[f]:
            if color[g] == -1:
                color[g] = 1 - color[f]
                queue.append(g)
            elif color[g] == color[f]:
                raise AssertionError("face graph not bipartite")
    if -1 in color:
        raise AssertionError("face graph not connected; pieces go one at a time")
    return color


def _sparse_signature(
    rows: dict[int, dict[int, int]], order: list[int] | None = None
) -> tuple[int, int, int, int]:
    """Signature of a symmetric integer matrix held as sparse rows, with
    its pivot count, congruence steps and peak row nonzeros.

    ``rows[i][j]`` is entry (i, j), zeros left out; the rows are used up.
    ``order``, if given, lists every key.
    Fraction-free elimination: each pivot step leaves the rest as |pivot|
    times its Schur complement, the division by the previous |pivot|
    being exact (every entry is a minor up to sign) and the positive
    factors keeping every sign the rational elimination would see.  A row
    the pivot does not meet only changes scale, so each row keeps the
    |pivot| it was last brought to and is rescaled, exactly, only when a
    pivot meets it or it becomes the pivot: a step touches the pivot's
    neighbours alone.  The pivot is a row of least degree with a nonzero
    diagonal, the lowest key among ties (or the first such row of
    ``order``).  When every diagonal is zero, adding the row and column
    of its lowest neighbour j into the lowest row i (or the first of
    ``order``) makes (i, i) = 2 (i, j).
    """
    stamp = dict.fromkeys(rows, 1)
    prev = 1
    sig = pivots = congruences = peak = 0
    # rows with a nonzero diagonal by their length; buckets[0] stays empty
    buckets: list[set[int]] = [set() for _ in range(len(rows) + 1)]
    where: dict[int, int] = {}

    def settle(i):
        nonlocal peak
        row = rows[i]
        peak = max(peak, len(row))
        buckets[where.pop(i, 0)].discard(i)
        if i in row:
            where[i] = len(row)
            buckets[len(row)].add(i)
        elif not row:
            del rows[i], stamp[i]  # a zero row adds nothing

    def current(i):
        s = stamp[i]
        if s != prev:
            rows[i] = {j: x * prev // s for j, x in rows[i].items()}
            stamp[i] = prev
        return rows[i]

    for i in list(rows):
        settle(i)
    while rows:
        if order is None:
            p = next((min(b) for b in buckets if b), None)
        else:
            p = next((i for i in order if i in rows and i in rows[i]), None)
        if p is None:
            congruences += 1
            i = min(rows) if order is None else next(i for i in order if i in rows)
            j = min(rows[i])
            ri, rj = current(i), current(j)
            # (i, i) = 2 (i, j), (i, k) += (j, k) and (k, i) += (k, j)
            ri[i] = 2 * ri[j]
            for k, x in rj.items():
                if k != i:
                    ri[k] = ri.get(k, 0) + x
                    rk = rows[k]
                    rk[i] = rk.get(i, 0) + rk[j]
                    if not rk[i]:
                        del rk[i], ri[k]
                    settle(k)
            settle(i)
            continue
        pivots += 1
        r = current(p)
        buckets[where.pop(p)].discard(p)
        del rows[p], stamp[p]
        pv = r.pop(p)
        sig += 1 if pv > 0 else -1
        apv = abs(pv)
        for i, f in r.items():
            row = current(i)
            del row[p]
            if pv < 0:
                f = -f
            met = {j: (apv * row.get(j, 0) - f * y) // prev for j, y in r.items()}
            if apv != prev:
                row = {j: apv * x // prev for j, x in row.items()}
            row.update(met)
            for j, x in met.items():
                if not x:
                    del row[j]
            rows[i] = row
            stamp[i] = apv
            settle(i)
        prev = apv
    return sig, pivots, congruences, peak


# -- unlink certificate --------------------------------------------------


CERTIFIED_NOT_UNLINK = "CERTIFIED_NOT_UNLINK"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class UnlinkCertificate:
    verdict: str
    reason: str
    detail: object = None


def unlink_certificate(d: OrientedLinkDiagram) -> UnlinkCertificate:
    """Sound non-unlink test: a true unlink is never certified against.
    A Jones scan the width budget refuses leaves it inconclusive."""
    ncomp = d.n_components
    if ncomp == 0:
        return UnlinkCertificate(INCONCLUSIVE, "empty diagram")
    for i in range(ncomp):
        for j in range(i + 1, ncomp):
            lk = d.linking_number(i, j)
            if lk:
                return UnlinkCertificate(
                    CERTIFIED_NOT_UNLINK, f"linking number lk({i},{j}) = {lk}", lk
                )
    try:
        jones = kauffman_bracket_jones(d)
    except LimitExceeded as exc:
        return UnlinkCertificate(INCONCLUSIVE, f"Jones not computed: {exc}")
    if jones != unlink_jones(ncomp):
        return UnlinkCertificate(
            CERTIFIED_NOT_UNLINK,
            f"Jones differs from the {ncomp}-component unlink value",
            jones,
        )
    return UnlinkCertificate(INCONCLUSIVE, "all certificates agree with an unlink")
