"""Classical certificates: Jones polynomial, signature, unlink tests.

The bracket polynomial is computed by scanning crossings one at a time
and carrying a dictionary of frontier pairings, so cost is governed by
the width of the processed region rather than 2^crossings; a greedy
ordering keeps that width small on braid-like diagrams.  The signature
comes from the Goeritz form of a checkerboard coloring together with
its orientation correction term, which needs no Seifert surface
bookkeeping and stays in exact integer arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import DiagramError, OrientedLinkDiagram
from .polynomials import LaurentPolynomial

DEFAULT_JONES_LIMIT = 24

# smoothing 0 is the A-type: it joins slots (0,1) and (2,3)
_SMOOTH = {0: ((0, 1), (2, 3)), 1: ((0, 3), (1, 2))}

_DELTA_A = LaurentPolynomial({2: -1, -2: -1})  # -A^2 - A^-2


class LimitExceeded(DiagramError):
    """Crossing count above the configured computation limit."""


def _scan_order(d: OrientedLinkDiagram) -> list[int]:
    """Greedy ordering minimizing the open frontier as crossings join."""
    n = len(d.crossings)
    if n == 0:
        return []
    order = []
    done = set()
    open_edges: set[int] = set()
    while len(order) < n:
        best = None
        for ci in range(n):
            if ci in done:
                continue
            shared = sum(1 for e in d.crossings[ci].edges if e in open_edges)
            growth = 4 - 2 * shared
            key = (-shared, growth, ci)
            if best is None or key < best[0]:
                best = (key, ci)
        # prefer staying connected to the current region
        ci = best[1]
        done.add(ci)
        order.append(ci)
        for e in d.crossings[ci].edges:
            if e in open_edges:
                open_edges.discard(e)
            elif any(cj != ci for cj, _ in d.edge_ends(e)):
                open_edges.add(e)  # an edge with both ends here never opens
    return order


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


def kauffman_bracket_jones(
    d: OrientedLinkDiagram, limit: int = DEFAULT_JONES_LIMIT
) -> LaurentPolynomial:
    """Jones polynomial, unknot-normalized, in doubled-t exponents."""
    if d.n_components == 0:
        raise DiagramError("the empty diagram has no Jones polynomial")
    if len(d.crossings) > limit:
        raise LimitExceeded(
            f"{len(d.crossings)} crossings exceeds Jones limit {limit}"
        )
    bracket = _bracket_with_loops(d)
    w = d.writhe()
    # (-A)^{-3w} <D>, then one delta division for unknot normalization
    signed = bracket * (1 if w % 2 == 0 else -1)
    shifted = signed.shift(-3 * w)
    normalized = _divide_delta(shifted)
    out: dict[int, int] = {}
    for e, c in normalized.coeffs.items():
        if e % 2:
            raise AssertionError("bracket exponent parity violated")
        out[e // 2] = out.get(e // 2, 0) + c
    return LaurentPolynomial(out)


def _bracket_with_loops(d: OrientedLinkDiagram) -> LaurentPolynomial:
    """Sum over states of A^{a-b} * delta^{loops} (note: no -1)."""
    order = _scan_order(d)
    states: dict[tuple, LaurentPolynomial] = {(): LaurentPolynomial.one()}
    processed: set[int] = set()
    for ci in order:
        c = d.crossings[ci]
        glue = []
        for s, e in enumerate(c.edges):
            a, b = d.edge_ends(e)
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
    assert len(states) == 1 and () in states, "scan left open strands"
    total = states[()]
    if d.free_loops:
        total = total * _DELTA_A**d.free_loops
    return total


def _matching_key(matching: dict) -> tuple:
    pairs = set()
    for a, b in matching.items():
        pairs.add(tuple(sorted((a, b))))
    return tuple(sorted(pairs))


def _divide_delta(poly: LaurentPolynomial) -> LaurentPolynomial:
    """Exact division by (-A^2 - A^-2)."""
    if poly.is_zero():
        return poly
    # multiply by -A^2 then divide by (A^4 + 1)
    dividend = poly.shift(2) * -1
    p = dict(dividend.coeffs)
    bound = max(p)
    out: dict[int, int] = {}
    while p:
        e = min(p)
        if e > bound:
            raise AssertionError("inexact delta division")
        c = p.pop(e)
        out[e] = c
        top = e + 4
        p[top] = p.get(top, 0) - c
        if p.get(top) == 0:
            del p[top]
    return LaurentPolynomial(out)


def unlink_jones(n_components: int) -> LaurentPolynomial:
    """Jones value of the crossing-free unlink (doubled-t exponents)."""
    if n_components < 1:
        raise DiagramError("need at least one component")
    delta_t = LaurentPolynomial({1: -1, -1: -1})  # -t^(1/2) - t^(-1/2)
    return delta_t ** (n_components - 1)


# -- signature ---------------------------------------------------------------


def signature(d: OrientedLinkDiagram) -> int:
    """Signature of the link via the Goeritz form with orientation
    correction; fixed so the right trefoil gives -2."""
    if not d.is_connected():
        raise DiagramError("signature needs a connected diagram")
    if not d.crossings:
        return 0
    faces = d.faces()
    face_of: dict = {}
    for fi, face in enumerate(faces):
        for dart in face:
            face_of[dart] = fi
    color = _checkerboard(d, faces, face_of)

    def corner_face(ci: int, s: int) -> int:
        # corner between slots s and s+1 belongs to the face of dart (ci, s+1)
        return face_of[(ci, (s + 1) % 4)]

    whites = sorted(fi for fi in range(len(faces)) if color[fi] == 0)
    widx = {fi: k for k, fi in enumerate(whites)}
    n = len(whites)
    G = [[0] * n for _ in range(n)]
    mu = 0
    for ci, c in enumerate(d.crossings):
        corners = [corner_face(ci, s) for s in range(4)]
        # corners[s] sits between slots s,s+1; diagonal pairs (0,2), (1,3)
        if color[corners[0]] != color[corners[2]] or color[corners[1]] != color[
            corners[3]
        ]:
            raise AssertionError("checkerboard coloring broken at a crossing")
        a_white = color[corners[0]] == 0  # corners (0,1) and (2,3)
        eta = 1 if a_white else -1
        if eta == c.sign:
            mu += eta
        wi, wj = (
            (corners[0], corners[2]) if a_white else (corners[1], corners[3])
        )
        if wi != wj:
            G[widx[wi]][widx[wj]] -= eta
            G[widx[wj]][widx[wi]] -= eta
    for i in range(n):
        G[i][i] = -sum(G[i][j] for j in range(n) if j != i)
    minor = [row[1:] for row in G[1:]]
    return _symmetric_signature(minor) - mu


def _checkerboard(d, faces, face_of) -> list[int]:
    adj: dict[int, set[int]] = {fi: set() for fi in range(len(faces))}
    for e in d.edges:
        d1, d2 = d.edge_ends(e)
        f1, f2 = face_of[d1], face_of[d2]
        if f1 == f2:
            raise AssertionError("edge borders one face twice; cannot 2-color")
        adj[f1].add(f2)
        adj[f2].add(f1)
    color = [-1] * len(faces)
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
        raise DiagramError("signature needs a connected diagram")
    return color


def _symmetric_signature(matrix: list[list[int]]) -> int:
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


# -- unlink certificate --------------------------------------------------


CERTIFIED_NOT_UNLINK = "CERTIFIED_NOT_UNLINK"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class UnlinkCertificate:
    verdict: str
    reason: str
    detail: object = None


def unlink_certificate(
    d: OrientedLinkDiagram, jones_limit: int = DEFAULT_JONES_LIMIT
) -> UnlinkCertificate:
    """Sound non-unlink test: a true unlink is never certified against."""
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
    if len(d.crossings) <= jones_limit:
        jones = kauffman_bracket_jones(d, limit=jones_limit)
        if jones != unlink_jones(ncomp):
            return UnlinkCertificate(
                CERTIFIED_NOT_UNLINK,
                f"Jones differs from the {ncomp}-component unlink value",
                jones,
            )
    return UnlinkCertificate(INCONCLUSIVE, "all certificates agree with an unlink")
