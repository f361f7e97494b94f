"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes invariants from first principles (full state
sums, full chain complexes) without touching the production scanning
code, so oracle agreement is a genuine cross-check and not a tautology.
From ``twistknots`` it takes only public names: diagrams are built
through the validating constructor, and ``replay_removals`` checks the
listed removals.  Slot orientations, strand exits and R2+ wirings come
from the tables below, edge ends from ``edge_index_bruteforce`` and faces
from ``faces_bruteforce``.  The move oracles return ``(kind, site,
result)`` triples.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count, permutations, product

from twistknots.diagram import Crossing, DiagramError, OrientedLinkDiagram
from twistknots.families import TwistFamily, full_twist_braid
from twistknots.moves import removals
from twistknots.polynomials import LaurentPolynomial

# smoothing pairings by slot: 0 joins (0,1),(2,3); 1 joins (0,3),(1,2)
_SMOOTH = {0: ((0, 1), (2, 3)), 1: ((0, 3), (1, 2))}
# per sign, whether each slot's edge points into the crossing
_INCOMING = {1: (True, False, False, True), -1: (True, True, False, False)}
# the slot a strand leaves through, by the slot it enters at, and back
_EXIT_OF_ENTRY = {0: 2, 1: 3, 3: 1}
_ENTRY_OF_EXIT = {2: 0, 3: 1, 1: 3}


class _UF:
    def __init__(self):
        self.p = {}

    def find(self, x):
        p = self.p
        p.setdefault(x, x)
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb
            return True
        return False


def _state_loops(d: OrientedLinkDiagram, state: tuple[int, ...]) -> tuple[int, _UF]:
    """Number of closed loops after smoothing every crossing per ``state``."""
    uf = _UF()
    darts = set()
    for ci, c in enumerate(d.crossings):
        for s in range(4):
            darts.add((ci, s))
        for a, b in _SMOOTH[state[ci]]:
            uf.union((ci, a), (ci, b))
    occ = {}
    for ci, c in enumerate(d.crossings):
        for s, e in enumerate(c.edges):
            occ.setdefault(e, []).append((ci, s))
    for pair in occ.values():
        uf.union(pair[0], pair[1])
    roots = {uf.find(x) for x in darts}
    return len(roots), uf


def kauffman_bracket_bruteforce(d: OrientedLinkDiagram) -> LaurentPolynomial:
    """Bracket polynomial in A summed over all 2^n smoothings."""
    n = len(d.crossings)
    delta = LaurentPolynomial({2: -1, -2: -1})
    total = LaurentPolynomial()
    for state in product((0, 1), repeat=n):
        a_count = state.count(0)
        b_count = n - a_count
        loops, _ = _state_loops(d, state)
        loops += d.free_loops
        term = LaurentPolynomial.monomial(a_count - b_count)
        total = total + term * delta ** (loops - 1)
    if n == 0:
        total = delta ** (d.free_loops - 1)
    return total


def jones_bruteforce(d: OrientedLinkDiagram) -> LaurentPolynomial:
    """Jones polynomial (doubled-t exponents), unknot normalized to 1."""
    if d.n_components == 0:
        raise ValueError("Jones needs a nonempty link")
    bracket = kauffman_bracket_bruteforce(d)
    w = d.writhe()
    out: dict[int, int] = {}
    for e, c in bracket.coeffs.items():
        ee = e - 3 * w
        sign = -1 if w % 2 else 1
        # (-A)^{-3w} <D>: sign (-1)^{3w} = (-1)^w, exponent shift -3w
        cc = c * sign
        assert ee % 2 == 0, "bracket exponent parity broken"
        out[ee // 2] = out.get(ee // 2, 0) + cc
    return LaurentPolynomial(out)


# ----------------------------------------------------------------------
# Full-complex Lee homology (deformation x^2 = 1) over the rationals.
# Generators of a state are label vectors over its loops, label 0 = "1"
# (quantum degree +1), label 1 = "x" (quantum degree -1).


def lee_s_bruteforce(d: OrientedLinkDiagram) -> int:
    if d.n_components != 1 or d.free_loops:
        raise ValueError("s oracle handles connected knot diagrams only")
    n = len(d.crossings)
    npos = sum(1 for c in d.crossings if c.sign > 0)
    nneg = n - npos

    states = list(product((0, 1), repeat=n))
    loops_of: dict[tuple, list] = {}
    gens: list[tuple] = []  # (state, labels)
    index: dict[tuple, int] = {}
    for st in states:
        cnt, uf = _state_loops(d, st)
        reps = sorted({uf.find((ci, s)) for ci in range(n) for s in range(4)})
        loops_of[st] = (reps, uf)
        for labels in product((0, 1), repeat=cnt):
            g = (st, labels)
            index[g] = len(gens)
            gens.append(g)

    def hdeg(g):
        return sum(g[0]) - nneg

    def qdeg(g):
        ones = g[1].count(0)
        exes = g[1].count(1)
        return (ones - exes) + sum(g[0]) + npos - 2 * nneg

    # differential: raise one state bit 0 -> 1
    columns: dict[int, dict[int, Fraction]] = {}
    for st in states:
        reps, uf = loops_of[st]
        for ci in range(n):
            if st[ci] == 1:
                continue
            st2 = st[:ci] + (1,) + st[ci + 1 :]
            sign = -1 if sum(st[:ci]) % 2 else 1
            reps2, uf2 = loops_of[st2]
            # loop correspondence via any dart
            def loop2_of_dart(dart):
                return reps2.index(uf2.find(dart))

            def loop_of_dart(dart):
                return reps.index(uf.find(dart))

            darts = [(cj, s) for cj in range(n) for s in range(4)]
            touched = {loop_of_dart((ci, s)) for s in range(4)}
            touched2 = {loop2_of_dart((ci, s)) for s in range(4)}
            for labels in product((0, 1), repeat=len(reps)):
                g = (st, labels)
                gi = index[g]
                # transfer untouched loop labels
                base2 = [None] * len(reps2)
                for dart in darts:
                    l1 = loop_of_dart(dart)
                    l2 = loop2_of_dart(dart)
                    if l1 not in touched and l2 not in touched2:
                        base2[l2] = labels[l1]
                if len(touched) == 2 and len(touched2) == 1:
                    (t2,) = touched2
                    la, lb = sorted(touched)
                    a, b = labels[la], labels[lb]
                    # Lee multiplication: m(x,x) = 1
                    out = (a + b) % 2
                    lab2 = list(base2)
                    lab2[t2] = out
                    _add(columns, gi, index[(st2, tuple(lab2))], sign)
                elif len(touched) == 1 and len(touched2) == 2:
                    (t1,) = touched
                    ta, tb = sorted(touched2)
                    a = labels[t1]
                    # Lee comultiplication: 1 -> 1x + x1, x -> xx + 11
                    outs = [(0, 1), (1, 0)] if a == 0 else [(1, 1), (0, 0)]
                    for xa, xb in outs:
                        lab2 = list(base2)
                        lab2[ta], lab2[tb] = xa, xb
                        _add(columns, gi, index[(st2, tuple(lab2))], sign)
                else:
                    raise AssertionError("smoothing change must merge or split")

    # assemble per-homological-degree matrices and check d*d = 0
    by_h: dict[int, list[int]] = {}
    for gi, g in enumerate(gens):
        by_h.setdefault(hdeg(g), []).append(gi)
    dd: dict[int, dict[int, Fraction]] = {}
    for gi, col in columns.items():
        for gj, c in col.items():
            for gk, c2 in columns.get(gj, {}).items():
                dd.setdefault(gi, {})
                dd[gi][gk] = dd[gi].get(gk, 0) + c * c2
    for col in dd.values():
        assert all(v == 0 for v in col.values()), "d∘d != 0 in oracle"

    # homology at h = 0 with quantum filtration jumps
    h0 = by_h.get(0, [])
    hm1 = by_h.get(-1, [])
    d_out = _matrix(columns, h0, by_h.get(1, []))
    d_in = _matrix(columns, hm1, h0)

    qs = sorted({qdeg(gens[gi]) for gi in h0}, reverse=True)
    jumps = []
    prev = 0
    for j in qs + [None]:
        if j is None:
            dim = _filtered_homology_dim(d_out, d_in, h0, gens, qdeg, None)
        else:
            dim = _filtered_homology_dim(d_out, d_in, h0, gens, qdeg, j)
        while dim > prev:
            jumps.append(j)
            prev += 1
    assert prev == 2 and len(jumps) == 2, f"Lee homology of a knot must be 2-dim, got {prev}"
    j2, j1 = jumps[0], jumps[1]
    assert j2 - j1 == 2, f"filtration levels {j1},{j2} not 2 apart"
    return (j1 + j2) // 2


def _add(columns, gi, gj, coeff):
    col = columns.setdefault(gi, {})
    col[gj] = col.get(gj, 0) + coeff
    if col[gj] == 0:
        del col[gj]


def _matrix(columns, src, dst):
    pos = {gi: k for k, gi in enumerate(dst)}
    rows = []
    for gi in src:
        row = [Fraction(0)] * len(dst)
        for gj, c in columns.get(gi, {}).items():
            if gj in pos:
                row[pos[gj]] = Fraction(c)
        rows.append(row)
    return rows  # rows indexed by src


def _rank(rows):
    m = [r[:] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def _filtered_homology_dim(d_out, d_in, h0, gens, qdeg, level):
    """dim of the image of (ker d ∩ F_level) in H^0; F_level = span{q >= level}."""
    keep = [k for k, gi in enumerate(h0) if level is None or qdeg(gens[gi]) >= level]
    if not keep:
        return 0
    # basis of ker(d_out) restricted to coordinates `keep`
    sub = [d_out[k] for k in keep]
    ker_dim = len(keep) - _rank(sub)
    # dim(im d_in ∩ F): rank of d_in columns projected == rank of rows of d_in
    # restricted to keep-coordinates ... im ∩ F computed via rank identities:
    # dim(im ∩ F) = dim(im) + dim(F) - dim(im + F)
    n = len(h0)
    im_rows = [r[:] for r in d_in if any(x != 0 for x in r)]
    dim_im = _rank(im_rows)
    f_rows = []
    for k in keep:
        row = [Fraction(0)] * n
        row[k] = Fraction(1)
        f_rows.append(row)
    dim_sum = _rank(im_rows + f_rows)
    dim_cap = dim_im + len(keep) - dim_sum
    return ker_dim - dim_cap


# ----------------------------------------------------------------------
# R2+ by generate-and-reject: every wiring of every placement is built
# and only the ones the diagram validator accepts are kept.

# Pushing strand (e1, m, e2) across strand (g1, h, g2) makes two
# crossings, the first on e1/g1 and the second on e2/g2, with m and h the
# new middle edges.  Per wiring k, each crossing's slots 0..3 by the
# strand piece each holds, and its sign.  k = 0, 1: the strands run
# parallel; k = 2, 3: antiparallel.
_R2_WIRINGS = {
    0: ((("g1", "m", "h", "e1"), +1), (("h", "m", "g2", "e2"), -1)),
    1: ((("g1", "e1", "h", "m"), -1), (("h", "e2", "g2", "m"), +1)),
    2: ((("h", "m", "g2", "e1"), +1), (("g1", "m", "h", "e2"), -1)),
    3: ((("h", "e1", "g2", "m"), -1), (("g1", "e2", "h", "m"), +1)),
}


def r2_wiring_table(over, under, k) -> tuple[Crossing, Crossing]:
    """The crossing pair of wiring k pushing strand ``over=(e1, m, e2)``
    across ``under=(g1, h, g2)``, read from ``_R2_WIRINGS``."""
    name = dict(zip(("e1", "m", "e2", "g1", "h", "g2"), (*over, *under)))
    return tuple(
        Crossing(tuple(name[piece] for piece in slots), sign)
        for slots, sign in _R2_WIRINGS[k]
    )


def _with_crossings(d, heads, added, free_loops):
    """``d`` with the head of each edge in ``heads`` renamed (found by a
    linear scan) and ``added`` crossings appended; None if invalid."""
    raw = [[list(c.edges), c.sign] for c in d.crossings]
    for edge, new_edge in heads:
        for ci, c in enumerate(d.crossings):
            for slot, e in enumerate(c.edges):
                if e == edge and _INCOMING[c.sign][slot]:
                    raw[ci][0][slot] = new_edge
    raw += [[list(x.edges), x.sign] for x in added]
    try:
        return OrientedLinkDiagram(
            tuple(Crossing(tuple(ed), s) for ed, s in raw), free_loops
        )
    except DiagramError:
        return None


def r2_additions_bruteforce(d: OrientedLinkDiagram) -> list[tuple]:
    """The R2+ moves of ``d`` as ``(kind, site, result)`` triples."""
    out = []

    def keep(site, heads, added, free_loops):
        result = _with_crossings(d, heads, added, free_loops)
        if result is not None:
            out.append(("R2+", site, result))

    fresh0 = 2 * d.n_crossings
    m, h, e2, g2 = fresh0, fresh0 + 1, fresh0 + 2, fresh0 + 3
    seen_pairs = set()
    for face in faces_bruteforce(d):
        for i, (ci, si) in enumerate(face):
            for j, (cj, sj) in enumerate(face):
                e = d.crossings[ci].edges[si]
                g = d.crossings[cj].edges[sj]
                if i == j or e == g or (e, g) in seen_pairs:
                    continue
                seen_pairs.add((e, g))
                for k in range(4):
                    pair = r2_wiring_table((e, m, e2), (g, h, g2), k)
                    keep((e, g, k), [(e, e2), (g, g2)], pair, d.free_loops)
    if not d.free_loops:
        return out
    m1, m2, h, g2 = fresh0, fresh0 + 1, fresh0 + 2, fresh0 + 3
    for g in d.edges:
        for role, (over, under) in enumerate(
            (((m2, m1, m2), (g, h, g2)), ((g, h, g2), (m2, m1, m2)))
        ):
            for k in range(4):
                pair = r2_wiring_table(over, under, k)
                keep(("free_loop", g, role, k), [(g, g2)], pair, d.free_loops - 1)
    # the second loop takes the labels the strand of g takes above
    n1, n2 = fresh0 + 2, fresh0 + 3
    if d.free_loops >= 2:
        for k in range(4):
            pair = r2_wiring_table((m2, m1, m2), (n2, n1, n2), k)
            keep(("two_loops", k), [], pair, d.free_loops - 2)
    a, t, c, m = fresh0, fresh0 + 1, fresh0 + 2, fresh0 + 3
    for k, pair in enumerate(
        (
            (Crossing((c, t, m, a), +1), Crossing((m, t, c, a), -1)),
            (Crossing((a, c, t, m), -1), Crossing((t, c, a, m), +1)),
        )
    ):
        keep(("self_loop", k), [], pair, d.free_loops - 1)
    return out


def edge_index_bruteforce(d: OrientedLinkDiagram):
    """Per edge: (tail dart, head dart, component), by scanning every
    crossing slot and walking the strands from scratch."""
    tails, heads = {}, {}
    for ci, c in enumerate(d.crossings):
        for slot, e in enumerate(c.edges):
            (heads if _INCOMING[c.sign][slot] else tails)[e] = (ci, slot)
    comp = {}
    for e in sorted(tails):
        if e in comp:
            continue
        label = len(set(comp.values()))
        x = e
        while x not in comp:
            comp[x] = label
            ci, slot = heads[x]
            x = d.crossings[ci].edges[_EXIT_OF_ENTRY[slot]]
    return [(tails[e], heads[e], comp[e]) for e in sorted(tails)]


def structurally_equal_bruteforce(d1: OrientedLinkDiagram, d2: OrientedLinkDiagram) -> bool:
    """Equality up to renaming edges, by trying every bijection between
    the crossings (at most 7 of them): each crossing must keep its sign,
    and slot for slot the edges must rename one to one."""
    if (d1.free_loops, d1.n_crossings) != (d2.free_loops, d2.n_crossings):
        return False
    assert d1.n_crossings <= 7, "the bijections are too many to try"
    return any(
        _renames(d1.crossings, [d2.crossings[j] for j in image])
        for image in permutations(range(d2.n_crossings))
    )


def _renames(crossings1, crossings2) -> bool:
    """Whether one edge renaming takes each crossing to its partner."""
    rename = {}
    for c1, c2 in zip(crossings1, crossings2):
        if c1.sign != c2.sign:
            return False
        for e1, e2 in zip(c1.edges, c2.edges):
            if rename.setdefault(e1, e2) != e2:
                return False
    return len(set(rename.values())) == len(rename)


def faces_bruteforce(d: OrientedLinkDiagram) -> list[list[tuple[int, int]]]:
    """Face orbits ``dart -> rotate(other end of dart)`` from a dart map
    built by scanning, darts visited in (crossing, slot) order."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(d.crossings):
        for slot, e in enumerate(c.edges):
            occ.setdefault(e, []).append((ci, slot))
    other = {}
    for a, b in occ.values():
        other[a], other[b] = b, a
    faces, seen = [], set()
    for ci in range(len(d.crossings)):
        for slot in range(4):
            x = (ci, slot)
            face = []
            while x not in seen:
                seen.add(x)
                face.append(x)
                oc, os = other[x]
                x = (oc, (os + 1) % 4)
            if face:
                faces.append(face)
    return faces


# ----------------------------------------------------------------------
# The frontier scan as first written: every state carries a full dart
# matching as a sorted tuple of dart pairs, and every crossing rebuilds
# the whole matching of every state.  The crossing order only bounds the
# cost; the state sum does not depend on it.

_DELTA_A = LaurentPolynomial({2: -1, -2: -1})  # -A^2 - A^-2


def _close_up(matching: dict, glue_pairs: list[tuple]) -> tuple[dict, int]:
    """Contract glue edges in a perfect matching; count closed loops.

    The union of matching edges and glue edges is a disjoint set of paths
    and cycles (every node has degree 1 or 2); cycles become loops and
    each path re-pairs its two endpoints.
    """
    adj: dict = {}
    done_pairs = set()
    for a, b in matching.items():
        key = (a, b) if a <= b else (b, a)
        if key in done_pairs:
            continue
        done_pairs.add(key)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for a, b in glue_pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    visited = set()
    new_matching: dict = {}
    for start, nbrs in adj.items():
        if len(nbrs) != 1 or start in visited:
            continue
        prev, cur = None, start
        visited.add(start)
        while True:
            nxt = next(y for y in adj[cur] if y != prev)
            prev, cur = cur, nxt
            visited.add(cur)
            if len(adj[cur]) == 1:
                break
        new_matching[start] = cur
        new_matching[cur] = start
    loops = 0
    for start in adj:
        if start in visited:
            continue
        loops += 1
        prev, cur = None, start
        while cur not in visited:
            visited.add(cur)
            nxt = next((y for y in adj[cur] if y != prev), None)
            if nxt is None:
                break
            prev, cur = cur, nxt
    return new_matching, loops


def _matching_key(matching: dict) -> tuple:
    pairs = set()
    for a, b in matching.items():
        pairs.add(tuple(sorted((a, b))))
    return tuple(sorted(pairs))


def scan_order_max(d: OrientedLinkDiagram, lowest_index: bool = False) -> tuple[list[int], int]:
    """The greedy scan order by a ``max`` over every crossing left at each
    step, and its peak open pairs.  The key is (open edges, neighbour sum,
    -index): the most edges to placed crossings, then, per edge to another
    crossing left, the most open edges at that crossing, then the lowest
    index.  ``lowest_index=True`` leaves the neighbour sum out, the rule
    the tie-break is measured against."""
    index = edge_index_bruteforce(d)
    order: list[int] = []
    left = set(range(len(d.crossings)))
    open_edges: set[int] = set()
    width = 0

    def opened(c):
        return sum(e in open_edges for e in d.crossings[c].edges)

    def neighbour_sum(c):
        if lowest_index:
            return 0
        ends = [cj for e in d.crossings[c].edges for cj, _ in index[e][:2]]
        return sum(opened(cj) for cj in ends if cj != c and cj in left)

    while left:
        most = max(map(opened, left))
        ci = max((c for c in left if opened(c) == most), key=lambda c: (neighbour_sum(c), -c))
        left.discard(ci)
        order.append(ci)
        for e in d.crossings[ci].edges:
            if e in open_edges:
                open_edges.discard(e)
            elif any(cj != ci for cj, _ in index[e][:2]):
                open_edges.add(e)  # an edge with both ends here never opens
        width = max(width, len(open_edges) // 2)
    return order, width


def bracket_with_loops_dict(d: OrientedLinkDiagram) -> LaurentPolynomial:
    """Sum over states of A^{a-b} * delta^{loops} (note: no -1)."""
    *_, states = _dict_scan(d, scan_order_max(d)[0])
    assert len(states) == 1 and () in states, "scan left open strands"
    total = states[()]
    if d.free_loops:
        total = total * _DELTA_A**d.free_loops
    return total


def state_updates_dict(d: OrientedLinkDiagram, lowest_index: bool = False) -> int:
    """The state updates of a scan in ``scan_order_max(d, lowest_index)``
    order, counted as the scan logs them: two per state with a nonzero
    value before each crossing.  The scan drops a state whose value is 0,
    and its children add 0, so the nonzero states are the same."""
    *steps, _ = _dict_scan(d, scan_order_max(d, lowest_index)[0])
    return sum(2 * sum(map(bool, states.values())) for states in steps)


def _dict_scan(d: OrientedLinkDiagram, order: list[int]):
    """The states of a scan of the crossings in ``order``, each a
    matching of open darts with its polynomial: before each crossing,
    then after the last.  States whose polynomial is 0 are kept."""
    index = edge_index_bruteforce(d)
    states: dict[tuple, LaurentPolynomial] = {(): LaurentPolynomial.one()}
    processed: set[int] = set()
    for ci in order:
        yield states
        c = d.crossings[ci]
        glue = []
        for s, e in enumerate(c.edges):
            a, b, _ = index[e]
            mine = (ci, s)
            other = b if a == mine else a
            if other[0] in processed or (other[0] == ci and other < mine):
                glue.append((mine, other))
        processed.add(ci)
        new_states: dict[tuple, LaurentPolynomial] = {}
        for key, poly in states.items():
            matching = {}
            for x, y in key:
                matching[x] = y
                matching[y] = x
            for bit, pairs in _SMOOTH.items():
                m2 = dict(matching)
                for s1, s2 in pairs:
                    m2[(ci, s1)] = (ci, s2)
                    m2[(ci, s2)] = (ci, s1)
                m3, loops = _close_up(m2, glue)
                contrib = poly.shift(1 if bit == 0 else -1)
                if loops:
                    contrib = contrib * _DELTA_A**loops
                k2 = _matching_key(m3)
                if k2 in new_states:
                    new_states[k2] = new_states[k2] + contrib
                else:
                    new_states[k2] = contrib
        states = new_states
    yield states


def symmetric_signature_fraction(matrix: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix by rational Gaussian
    elimination, with a congruence step where the diagonal is zero."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    sig = 0
    active = list(range(n))
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is None:
            off = None
            for i in active:
                for j in active:
                    if i != j and m[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                break  # zero block contributes nothing
            i, j = off
            # congruence: add row/col j into i to expose a diagonal entry
            for k in active:
                m[i][k] += m[j][k]
            for k in active:
                m[k][i] += m[k][j]
            continue
        pv = m[piv][piv]
        sig += 1 if pv > 0 else -1
        rest = [i for i in active if i != piv]
        factors = {i: m[i][piv] / pv for i in rest}
        for i in rest:
            f = factors[i]
            if f:
                for j in rest:
                    m[i][j] -= f * m[piv][j]
        # row piv is stale from here on; `active` never revisits it
        active = rest
    return sig


def checkerboard_bruteforce(d: OrientedLinkDiagram, white: int) -> tuple[dict, list[int], list[int]]:
    """Faces 2-colored with the two sides of every edge apart: the face
    of each dart ``(crossing, slot)`` (an index into ``faces_bruteforce``),
    each face's color 0/1 and each face's piece (its least face), the
    least face of each piece colored ``white``.  The corner between slots
    s and s+1 of a crossing lies in the face of dart (crossing, s+1), and
    the corners on the two sides of a slot's edge lie across that edge."""
    face_at = {x: fi for fi, face in enumerate(faces_bruteforce(d)) for x in face}
    n_faces = len(set(face_at.values()))
    adj: list[set[int]] = [set() for _ in range(n_faces)]
    for ci, s in face_at:
        f, g = face_at[(ci, s)], face_at[(ci, (s + 1) % 4)]
        adj[f].add(g)
        adj[g].add(f)
    color = [-1] * n_faces
    piece = list(range(n_faces))
    for root in range(n_faces):
        if color[root] < 0:
            color[root] = white
            todo = [root]
            while todo:
                f = todo.pop()
                for g in adj[f]:
                    assert color[g] != color[f], "faces across an edge share a color"
                    if color[g] < 0:
                        color[g], piece[g] = 1 - color[f], root
                        todo.append(g)
    return face_at, color, piece


def goeritz_signature_bruteforce(d: OrientedLinkDiagram, white: int) -> int:
    """Signature of ``d`` by Gordon–Litherland on the checkerboard surface
    of the color-0 faces of ``checkerboard_bruteforce(d, white)``: the
    signature of the dense Goeritz matrix of those faces, the first face
    of each piece left out, minus the correction mu.  Either color class
    spans a surface, so both values of ``white`` give the signature.

    At a crossing the corners after slot 0 and after slot 2 (counter-
    clockwise from the two ends of the under strand) face each other and
    share a color; eta is +1 where they are color 0 and -1 where the
    other two are.  The faces u, v of the two color-0 corners (maybe one
    face) get -eta at (u, v) and (v, u) and +eta at (u, u) and (v, v),
    and mu sums eta over the crossings whose sign is eta."""
    face_at, color, piece = checkerboard_bruteforce(d, white)
    whites = [fi for fi, x in enumerate(color) if x == 0]
    first = {}
    for fi in whites:
        first.setdefault(piece[fi], fi)
    kept = [fi for fi in whites if first[piece[fi]] != fi]
    g: Counter = Counter()
    mu = 0
    for ci, c in enumerate(d.crossings):
        corner = [face_at[(ci, (s + 1) % 4)] for s in range(4)]
        eta = 1 if color[corner[0]] == 0 else -1
        u, v = (corner[0], corner[2]) if eta == 1 else (corner[1], corner[3])
        for a, b, x in ((u, v, -eta), (v, u, -eta), (u, u, eta), (v, v, eta)):
            g[a, b] += x
        if eta == c.sign:
            mu += eta
    return symmetric_signature_fraction([[g[a, b] for b in kept] for a in kept]) - mu


# ----------------------------------------------------------------------
# Greedy simplification as first written: every step enumerates the
# removals of the whole diagram, takes the first, and builds and
# validates its result.  The removals are ``removals_bruteforce``'s, so
# nothing here shares code with ``greedy_simplify``.


def greedy_simplify_stepwise(
    d: OrientedLinkDiagram,
) -> tuple[OrientedLinkDiagram, list[tuple]]:
    """Apply the first R1- move, else the first R2- move, until none is
    left; sites are those of each intermediate diagram."""
    trace = []
    while True:
        moves = removals_bruteforce(d)
        if not moves:
            return d, trace
        kind, site, d = moves[0]
        trace.append((kind, site))


def replay_removals(
    d: OrientedLinkDiagram, trace: list[tuple]
) -> OrientedLinkDiagram:
    """Replay a ``greedy_simplify`` trace, whose sites name input crossings.

    Each step must be a move that ``removals`` lists for the diagram it
    applies to: its site's darts, mapped to that diagram and the lesser
    dart first, must be a listed ``(kind, site)``.  It is applied
    through ``from_raw``, whose index map keeps track of where every
    input crossing went, and the diagram built must equal that move's
    result.  Returns the last one.
    """
    where = list(range(d.n_crossings))  # input crossing -> position in d
    for kind, site in trace:
        darts = sorted((where[c], s) for c, s in zip(site[::2], site[1::2]))
        if any(ci < 0 for ci, _ in darts):
            raise AssertionError(f"{kind} {site} names a removed crossing")
        key = (kind, sum(darts, ()))
        move = next((m for m in removals(d) if (m.kind, m.site) == key), None)
        if move is None:
            raise AssertionError(f"{kind} {site} is not a listed move")
        removed = {ci for ci, _ in darts}
        keep = [ci for ci in range(d.n_crossings) if ci not in removed]
        raw, loops = _spliced(d, removed, keep)
        d, index_map = OrientedLinkDiagram.from_raw(raw, d.free_loops + loops)
        if d != move.result:
            raise AssertionError(f"{kind} {site} built another diagram")
        moved = dict(zip(keep, index_map))
        where = [moved.get(p, -1) for p in where]
    return d


def _spliced(d, removed, keep):
    """The ``keep`` crossings as raw rows once ``removed`` are deleted,
    each chain of edges through them labelled by its smallest edge, and
    the number of strand cycles lying wholly inside them."""
    index = edge_index_bruteforce(d)

    def other(ci, s):
        a, b, _ = index[d.crossings[ci].edges[s]]
        return b if a == (ci, s) else a

    chained = set()
    raw = []
    for ci in keep:
        edges = []
        for s in range(4):
            chain = [d.crossings[ci].edges[s]]
            x = other(ci, s)
            while x[0] in removed:
                x = (x[0], (x[1] + 2) % 4)
                chain.append(d.crossings[x[0]].edges[x[1]])
                x = other(*x)
            chained.update(chain)
            edges.append(min(chain))
        raw.append((edges, d.crossings[ci].sign))
    inner = {e for ci in removed for e in d.crossings[ci].edges} - chained
    loops = 0
    while inner:
        loops += 1
        e = inner.pop()
        while True:
            ci, s = index[e][1]
            e = d.crossings[ci].edges[(s + 2) % 4]
            if e not in inner:
                break
            inner.discard(e)
    return raw, loops


def removals_bruteforce(d: OrientedLinkDiagram) -> list[tuple]:
    """The R1- then R2- moves of ``d`` as ``(kind, site, result)``
    triples, found from edge labels and ``faces_bruteforce`` and built by
    ``_spliced`` and ``from_raw``.

    A kink is a crossing holding one edge in slots ``s`` and ``s + 1``,
    site ``(c, s)``.  A bigon is a two-dart face at two crossings whose
    first dart's edge sits in slots of one parity at both its ends (over
    at both or under at both), site ``(c1, s1, c2, s2)`` from the face's
    darts in the order ``faces_bruteforce`` lists them, the lesser
    first.
    """
    sites = [
        ("R1-", (ci, s), {ci})
        for ci, c in enumerate(d.crossings)
        for s in range(4)
        if c.edges[s] == c.edges[(s + 1) % 4]
    ]
    parities: dict[int, set[int]] = {}
    for c in d.crossings:
        for s, e in enumerate(c.edges):
            parities.setdefault(e, set()).add(s % 2)
    for face in faces_bruteforce(d):
        if len(face) != 2:
            continue
        (c1, s1), (c2, s2) = face
        if c1 != c2 and len(parities[d.crossings[c1].edges[s1]]) == 1:
            sites.append(("R2-", (c1, s1, c2, s2), {c1, c2}))
    out = []
    for kind, site, removed in sites:
        keep = [ci for ci in range(d.n_crossings) if ci not in removed]
        raw, loops = _spliced(d, removed, keep)
        result, _ = OrientedLinkDiagram.from_raw(raw, d.free_loops + loops)
        out.append((kind, site, result))
    return out


# ----------------------------------------------------------------------
# R3 as first written: triangles from ``faces_bruteforce`` and edge
# labels, each side's ends from ``edge_index_bruteforce``, and the slid
# diagram built from an updated copy of the crossing list.


def r3_moves_bruteforce(d: OrientedLinkDiagram) -> list[tuple]:
    """The R3 moves of ``d`` as ``(kind, site, result)`` triples: every
    face of three darts at three crossings with three distinct side
    edges, one of which runs over at both its ends, site the sorted face
    darts.  Each strand through the triangle then swaps which of its two
    triangle crossings it meets first."""
    index = edge_index_bruteforce(d)
    out = []
    for face in faces_bruteforce(d):
        if len(face) != 3 or len({ci for ci, _ in face}) != 3:
            continue
        sides = [d.crossings[ci].edges[s] for ci, s in face]
        if len(set(sides)) != 3:
            continue
        if not any(all(s in (1, 3) for _, s in index[e][:2]) for e in sides):
            continue
        rows = [list(c.edges) for c in d.crossings]
        for t in sides:
            (tc, ts), (hc, hs), _ = index[t]
            entry, exit_slot = _ENTRY_OF_EXIT[ts], _EXIT_OF_ENTRY[hs]
            x = d.crossings[tc].edges[entry]
            y = d.crossings[hc].edges[exit_slot]
            rows[tc][entry], rows[tc][ts] = t, y
            rows[hc][hs], rows[hc][exit_slot] = x, t
        result = OrientedLinkDiagram(
            tuple(Crossing(tuple(r), c.sign) for r, c in zip(rows, d.crossings)),
            d.free_loops,
        )
        out.append(("R3", tuple(sorted(face)), result))
    return out


def planar_bruteforce(crossings) -> bool:
    """Whether every connected piece of a crossing list, each edge label
    at two slots, has V + 2 face orbits, counted piece by piece."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(crossings):
        for slot, e in enumerate(c.edges):
            occ.setdefault(e, []).append((ci, slot))
    other = {}
    for a, b in occ.values():
        other[a], other[b] = b, a
    piece: dict[int, int] = {}
    for first in range(len(crossings)):
        if first in piece:
            continue
        piece[first] = first
        stack = [first]
        while stack:
            ci = stack.pop()
            for slot in range(4):
                cj = other[ci, slot][0]
                if cj not in piece:
                    piece[cj] = first
                    stack.append(cj)
    faces: dict[int, int] = {}
    seen = set()
    for x in other:
        if x in seen:
            continue
        faces[piece[x[0]]] = faces.get(piece[x[0]], 0) + 1
        while x not in seen:
            seen.add(x)
            oc, os = other[x]
            x = (oc, (os + 1) % 4)
    vertices: dict[int, int] = {}
    for p in piece.values():
        vertices[p] = vertices.get(p, 0) + 1
    return all(faces[p] == v + 2 for p, v in vertices.items())


# ----------------------------------------------------------------------
# The diagram validator as first written: a checked loop over every slot,
# strands followed through the crossing list, pieces found by union-find
# over crossings and faces walked as dart lists.


def normalized_reference(crossings) -> tuple[Crossing, ...]:
    """Crossings in the normal form of the diagram constructor, worked out
    on their own: labels that are exactly the ints ``0..E-1`` (bools
    excluded) are kept, any others renamed by first appearance in slot
    order, and the crossings are sorted by their edge tuples."""
    crossings = list(crossings)
    labels = [e for c in crossings for e in c.edges]
    if not (
        all(type(e) is int for e in labels)
        and sorted(set(labels)) == list(range(len(labels) // 2))
    ):
        rank: dict = {}
        for e in labels:
            rank.setdefault(e, len(rank))
        crossings = [Crossing(tuple(rank[e] for e in c.edges), c.sign) for c in crossings]
    return tuple(sorted(crossings, key=lambda c: c.edges))


def validate_reference(crossings):
    """Check a normalized crossing list and build its edge index.

    Returns ``(tail, head, comp, cycles, face_of)`` as the diagram keeps
    them, or raises the ``DiagramError`` the check fails with.
    """
    n_edges = 2 * len(crossings)
    tail = [-1] * n_edges
    head = [-1] * n_edges
    for ci, c in enumerate(crossings):
        for slot, (e, incoming) in enumerate(zip(c.edges, _INCOMING[c.sign])):
            ends = head if incoming else tail
            if not 0 <= e < n_edges or ends[e] >= 0:
                raise _invalid_edge(crossings, e, incoming)
            ends[e] = 4 * ci + slot
    comp = [-1] * n_edges
    cycles = []
    for start in range(n_edges):
        if comp[start] >= 0:
            continue
        cycle = []
        e = start
        while comp[e] < 0:
            comp[e] = len(cycles)
            cycle.append(e)
            h = head[e]
            e = crossings[h >> 2].edges[_EXIT_OF_ENTRY[h & 3]]
        cycles.append(tuple(cycle))
    faces = _faces(tail, head)
    _check_planarity(tail, head, faces)
    face_of = [0] * (2 * n_edges)
    for fi, face in enumerate(faces):
        for x in face:
            face_of[x] = fi
    return tuple(tail), tuple(head), tuple(comp), tuple(cycles), tuple(face_of)


def _faces(tail, head) -> list[list[int]]:
    mate = [0] * (2 * len(tail))
    for t, h in zip(tail, head):
        mate[t] = h
        mate[h] = t
    faces = []
    seen = [False] * len(mate)
    for first in range(len(mate)):
        if seen[first]:
            continue
        face = []
        x = first
        while not seen[x]:
            seen[x] = True
            face.append(x)
            y = mate[x]
            x = y - (y & 3) + ((y + 1) & 3)
        faces.append(face)
    return faces


def _invalid_edge(crossings, edge, incoming) -> DiagramError:
    labels = [e for c in crossings for e in c.edges]
    for e in labels:
        k = labels.count(e)
        if k != 2:
            return DiagramError(f"edge multiplicity: edge {e} occurs {k} times")
    way = "enters" if incoming else "leaves"
    return DiagramError(f"orientation inconsistency: edge {edge} {way} twice")


def piece_roots(tail, head) -> list[int]:
    """Per crossing, a representative crossing of its connected piece."""
    parent = list(range(len(tail) // 2))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, h in zip(tail, head):
        parent[find(t >> 2)] = find(h >> 2)
    return [find(ci) for ci in range(len(parent))]


def _check_planarity(tail, head, faces) -> None:
    if not tail:
        return
    roots = piece_roots(tail, head)
    if len(faces) == len(roots) + 2 * len(set(roots)):
        return
    crossing_count = Counter(roots)
    face_count = Counter(roots[face[0] >> 2] for face in faces)
    for root, v in crossing_count.items():
        if face_count[root] != v + 2:
            raise DiagramError(
                "non-planar diagram: piece with "
                f"{v} crossings has {face_count[root]} faces (needs {v + 2})"
            )


def closure_crossing_table(sgn, a_up, b_up, lo, hi, new_lo, new_hi) -> tuple[tuple, int]:
    """Raw ``(edges, sign)`` crossing of one braid letter, read from a
    table of all eight (sign, a_up, b_up) cases; the ports are as in
    ``braids._closure_crossing``."""
    sw, se, nw, ne = lo, hi, new_lo, new_hi
    if sgn > 0:
        if a_up and b_up:
            return (se, ne, nw, sw), +1
        if a_up and not b_up:
            return (nw, sw, se, ne), -1
        if not a_up and b_up:
            return (se, ne, nw, sw), -1
        return (nw, sw, se, ne), +1
    else:
        if a_up and b_up:
            return (sw, se, ne, nw), -1
        if a_up and not b_up:
            return (sw, se, ne, nw), +1
        if not a_up and b_up:
            return (ne, nw, sw, se), +1
        return (ne, nw, sw, se), -1


def twist_bruteforce(
    f: TwistFamily, n: int
) -> tuple[OrientedLinkDiagram, list[int], list[int]]:
    """``twist_with_sites(f, n)`` built the long way.

    The whole word of ``|n|`` full twists is built and checked as one
    ``BraidWord``.  Every letter takes two fresh top labels; the last
    labels on each lane are then renamed to the lane's top label in a
    second pass over the region.  The diagram is built from ``Crossing``
    objects, and each raw crossing's position is looked up by hashing
    its relabeled ``Crossing`` among the diagram's.
    """
    word = full_twist_braid(max(len(f.marked_edges), 1), n)
    base = f.base
    raw = [[list(c.edges), c.sign] for c in base.crossings]
    region = []
    if word.letters and f.marked_edges:
        index = edge_index_bruteforce(base)
        fresh = count(2 * base.n_crossings)
        bottom, top, dirs = [], [], []
        for e, s in f.marked_edges:
            h = next(fresh)
            _, (hci, hslot), _ = index[e]
            raw[hci][0][hslot] = h
            bottom.append(e if s > 0 else h)
            top.append(h if s > 0 else e)
            dirs.append(s > 0)
        cur = list(bottom)
        for i, sgn in word.letters:
            i -= 1
            new_lo, new_hi = next(fresh), next(fresh)
            region.append(
                closure_crossing_table(
                    sgn, dirs[i], dirs[i + 1], cur[i], cur[i + 1], new_lo, new_hi
                )
            )
            cur[i], cur[i + 1] = new_lo, new_hi
            dirs[i], dirs[i + 1] = dirs[i + 1], dirs[i]
        rename = {c: t for c, b, t in zip(cur, bottom, top) if c != b}
        region = [(tuple(rename.get(e, e) for e in edges), s) for edges, s in region]
    crossings = [Crossing(tuple(e), s) for e, s in raw] + [
        Crossing(e, s) for e, s in region
    ]
    labels = [e for c in crossings for e in c.edges]
    if set(labels) != set(range(len(labels) // 2)):
        rank = {e: i for i, e in enumerate(dict.fromkeys(labels))}
        crossings = [Crossing(tuple(rank[e] for e in c.edges), c.sign) for c in crossings]
    d = OrientedLinkDiagram(tuple(crossings), base.free_loops)
    position = {c: i for i, c in enumerate(d.crossings)}
    index_map = [position[c] for c in crossings]
    nb = base.n_crossings
    return d, index_map[:nb], index_map[nb:]
