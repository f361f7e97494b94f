"""Oriented link diagrams as signed planar diagram (PD) codes.

A diagram is a set of crossings, each holding four edge identifiers read
counterclockwise starting at the incoming under-strand, plus a sign.
With slots numbered 0..3 from that starting point:

* slot 0 carries the incoming under-strand edge, slot 2 the outgoing one;
* the over-strand occupies slots 1 and 3, and its direction is pinned by
  the sign: ``+1`` means the over-strand runs slot 3 -> slot 1, ``-1``
  means slot 1 -> slot 3.  (This is the usual right-hand convention: two
  coherently upward strands with the left one passing over give ``+1``.)

Closed one-component curves with no crossings cannot carry edge labels,
so they are counted separately in ``free_loops``.

Diagrams are immutable and normalized on construction: edge labels are
dense integers ``0..E-1`` and crossings are sorted lexicographically,
which makes the textual normal form round-trip bit-exact.  Inputs whose
labels are already exactly the ints ``{0..E-1}`` keep them, so
re-parsing a serialized diagram reproduces it identically; any other
labels, bools included, are renamed by first appearance.  ``_relabelled``
alone decides this, once per construction from outside labels: rows
from outside are relabelled through it, and so are the edge tuples of
braid closures, the family box plans and the Reidemeister removals.
Code that reads raw labels afterwards (braid closure arcs) zips each raw
row with the row built from it.

A crossing row is one immutable ``(edges, sign)`` tuple, a ``Crossing``.
Rows from outside the library, ``Crossing`` rows or plain ``(edges,
sign)`` tuples or lists alike, pass one check, ``_checked``: it reads
the rows, relabels them and builds each ``Crossing`` with the
constructor's checks.  Its two callers are the two doors for such rows,
the diagram constructor and ``from_raw``, which build the same diagram
from the same rows.  Rows the library derives from checked ones (braid
closures, box-plan members, mirrored and changed rows, move results,
relabelled rows, ``parse_pd``'s) are built by ``_row`` without the
checks.  Every diagram but the constructor's comes through one door,
``_of_rows``, which makes the diagram without the constructor:
``from_raw``, ``parse_pd``, braid closures, the twisted members of
``families``, ``mirror``, ``change_crossings``, ``disjoint_union`` and
every Reidemeister move result and ``greedy_simplify`` result of
``moves``.  Both hand their rows to one placement method, ``_placed``.
It argsorts the rows on their edge tuples (``_row_order``, the one
normal-form order, which ``untwist_schedule`` reads too), keeps each row
object in its sorted place, fills the diagram and returns the index map.

The placement step runs one validating pass in full.  It fills each edge's
tail and head dart and its successor along the strand, and refuses an
edge that lacks one tail and one head.  It then follows the strands to
number the components, and walks the faces on a dart mate array.  Split
diagrams are first class.  Non-planar inputs (PD codes with no
realization in the plane) are refused by one Euler characteristic count
over all connected pieces at once: F = V + 2 * pieces.  The pieces are
counted by a union over components, each crossing joining the
components of its under- and over-strand; the message naming the first
failing piece is only worked out when the count fails.

The pass leaves an edge index on the diagram: each edge's tail dart,
head dart and component, and each dart's face (``_face_of``, faces
numbered in order of their least dart), kept as flat tuples of small
ints.  A dart, slot ``slot`` of crossing ``ci``, is held only as its
code ``x = 4 * ci + slot``, and ``x ^ 2`` is the other slot of its
strand at that crossing; there is no ``(crossing, slot)`` tuple view.
Edge ends, components, faces and everything built on them read the
index instead of scanning the crossings again.  ``_mates(tail, head)``
derives each dart's mate, the dart at the other end of its edge; every
layer reads the mate relation through it.  It is not stored on the
diagram, which would make every construction pay for it.
"""

from __future__ import annotations

import re
import sys
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence


class DiagramError(ValueError):
    """Structurally invalid diagram data."""


class ParseError(DiagramError):
    """Malformed PD text; ``position`` is a character offset when known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at offset {position})")
        self.position = position


def _check_diagram(d, needs: str) -> None:
    """Raise DiagramError unless ``d`` is a diagram; ``needs`` names the
    caller, as in "serialize needs", and the message goes on "a diagram"."""
    if not isinstance(d, OrientedLinkDiagram):
        raise DiagramError(f"{needs} a diagram, got {d!r}")


def _debug(logger: str, message: str, *args) -> None:
    """Log a DEBUG record on ``logger``, if the program imported
    ``logging``: only such a program can have a handler for it, so the
    library never imports it and ``import twistknots`` stays light."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).debug(message, *args)


class Crossing(namedtuple("Crossing", "edges sign")):
    """One crossing: edges counterclockwise from the incoming under-strand,
    and its sign.  A row is an immutable ``(edges, sign)`` tuple, so it
    equals the plain tuple of its fields, has length 2 and iterates over
    them.  The constructor checks one row; ``_checked`` builds every row
    from outside through it, and ``_row`` builds the rows the library
    derives from checked ones without it."""

    __slots__ = ()

    def __new__(cls, edges, sign):
        if type(edges) is not tuple:
            if not isinstance(edges, (tuple, list)):
                raise DiagramError(f"crossing edges must be a tuple or list, got {edges!r}")
            edges = tuple(edges)
        if len(edges) != 4:
            raise DiagramError("crossing needs exactly 4 edges")
        # the int parse_pd reads, so that serialize/parse_pd round-trips it
        if type(sign) is not int or sign not in (1, -1):
            raise DiagramError(f"crossing sign must be the int +1 or -1, got {sign!r}")
        return _new_tuple(cls, (edges, sign))

    # namedtuple's own _make, which _replace calls too, skips the checks
    _make = classmethod(lambda cls, iterable: cls(*iterable))


_new_tuple = tuple.__new__


def _row(edges: tuple[int, int, int, int], sign: int) -> Crossing:
    """The ``Crossing`` of a row derived from checked ones, built without
    the constructor's checks: ``edges`` a 4-tuple of labels, ``sign`` the
    int +1 or -1."""
    return _new_tuple(Crossing, (edges, sign))


# per sign, whether each slot's edge points into the crossing
_INCOMING = {1: (True, False, False, True), -1: (True, True, False, False)}


@dataclass(frozen=True)
class OrientedLinkDiagram:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    # edge index, filled by the validating pass: tail and head dart codes
    # and component of each edge, and the oriented edge cycles
    _tail: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _head: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _comp: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _components: tuple[tuple[int, ...], ...] = field(
        init=False, compare=False, repr=False
    )
    # face of each dart code, faces numbered in order of their least dart
    _face_of: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        """The constructor, for rows from outside: ``_checked`` checks and
        relabels them as it does for ``from_raw``, and they go to
        ``_placed``.  Diagrams the library derives skip it and come
        through ``_of_rows``."""
        self._placed(_checked(self.crossings), self.free_loops)

    @classmethod
    def _of_rows(
        cls, rows: Sequence[Crossing], free_loops: int
    ) -> tuple["OrientedLinkDiagram", list[int]]:
        """The one door for diagrams the library derives: a diagram made
        without the constructor and filled by the placement step from
        ``rows``, with its index map.  No other code makes a diagram with
        ``object.__new__``."""
        d = object.__new__(cls)
        return d, d._placed(rows, free_loops)

    def _placed(self, rows: Sequence[Crossing], free_loops: int) -> list[int]:
        """The placement step, which every diagram passes once: fill this
        diagram from ``Crossing`` rows labelled as the constructor's
        relabelling leaves them, and return its index map, the sorted
        position of each row.  One argsort on the edge tuples puts each
        row object in its place, and one validating pass over the sorted
        rows fills the edge index.  The pass runs in full, so a label
        beyond ``E - 1`` (which the relabelling leaves when a label occurs
        once) or an edge end given twice raises ``DiagramError``.  Labels
        are never negative: they are ``_relabelled``'s ranks or kept ints
        ``0..E-1``, or numbered from ``0`` up by their caller.  Only the
        constructor and ``_of_rows`` call it."""
        # the int parse_pd counts, so that serialize/parse_pd round-trips it
        if type(free_loops) is not int or free_loops < 0:
            raise DiagramError(f"free_loops must be an int >= 0, got {free_loops!r}")
        order = _row_order(list(map(_EDGES, rows)))
        crossings = tuple([rows[i] for i in order])
        tail, head, comp, cycles, face_of = _validate(crossings)
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "free_loops", free_loops)
        object.__setattr__(self, "_tail", tail)
        object.__setattr__(self, "_head", head)
        object.__setattr__(self, "_comp", comp)
        object.__setattr__(self, "_components", cycles)
        object.__setattr__(self, "_face_of", face_of)
        index_map = [0] * len(order)
        for position, i in enumerate(order):
            index_map[i] = position
        return index_map

    # -- basic data ----------------------------------------------------

    @classmethod
    def unknot(cls, loops: int = 1) -> "OrientedLinkDiagram":
        """The crossing-free unlink with the given number of components."""
        return cls((), loops)

    @classmethod
    def from_raw(
        cls, raw: Iterable[tuple[Sequence[int], int]], free_loops: int = 0
    ) -> tuple["OrientedLinkDiagram", list[int]]:
        """Build a diagram and report where each raw crossing ended up.

        Returns ``(diagram, index_map)`` with ``index_map[i]`` the position
        in ``diagram.crossings`` of the ``i``-th raw crossing.  Needed by
        operations that must address specific crossings after the
        normalizing sort.  The rows are checked and relabelled by
        ``_checked``, as the constructor's are, so
        ``from_raw(raw)[0] == OrientedLinkDiagram(raw)``, and go through
        ``_of_rows``.  Rows the library derives are built by ``_row`` and
        go to ``_of_rows`` directly.
        """
        return cls._of_rows(_checked(raw), free_loops)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def edges(self) -> list[int]:
        return list(range(2 * len(self.crossings)))

    @property
    def components(self) -> list[tuple[int, ...]]:
        """Oriented edge cycles, one per component; ``()`` for free loops."""
        return list(self._components) + [()] * self.free_loops

    @property
    def n_components(self) -> int:
        return len(self._components) + self.free_loops

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)

    def component_of_edge(self, edge: int) -> int:
        if not (type(edge) is int and 0 <= edge < len(self._comp)):
            raise DiagramError(f"edge {edge!r} not found")
        return self._comp[edge]

    # -- operations -----------------------------------------------------

    def mirror(self) -> "OrientedLinkDiagram":
        """Flip every crossing's over/under assignment.

        Strand orientations are kept, all signs negate, and the operation
        is an involution: ``change_crossings`` at every site.
        """
        return self.change_crossings(range(len(self.crossings)))

    def change_crossings(self, sites: Iterable[int]) -> "OrientedLinkDiagram":
        try:
            sites = set(sites)
        except TypeError:
            raise DiagramError(f"crossing sites must be an iterable, got {sites!r}") from None
        rows = list(self.crossings)
        for s in sites:
            if not (type(s) is int and 0 <= s < len(rows)):
                raise DiagramError(f"invalid crossing site {s!r}")
            # over and under swap, so the other strand's incoming edge
            # takes slot 0 and the sign flips
            (a, b, c, e), sign = rows[s]
            rows[s] = _row((e, a, b, c), -1) if sign > 0 else _row((b, c, e, a), 1)
        return OrientedLinkDiagram._of_rows(rows, self.free_loops)[0]

    def linking_number(self, i: int, j: int) -> int:
        """Half the signed count of crossings between components i and j."""
        n = self.n_components
        if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
            raise DiagramError(f"invalid component index ({i!r}, {j!r})")
        if i == j:
            raise DiagramError("linking number needs two distinct components")
        total = 0
        comp = self._comp
        for c in self.crossings:
            if {comp[c.edges[0]], comp[c.edges[1]]} == {i, j}:
                total += c.sign
        if total % 2:
            raise DiagramError("odd signed count between components")
        return total // 2

    def disjoint_union(self, other: "OrientedLinkDiagram") -> "OrientedLinkDiagram":
        """Distant union; the other diagram's components come after ours."""
        _check_diagram(other, "can only unite with")
        off = 2 * len(self.crossings)
        rows = [*self.crossings]
        rows += [_row((a + off, b + off, c + off, e + off), sign)
                 for (a, b, c, e), sign in other.crossings]
        return OrientedLinkDiagram._of_rows(rows, self.free_loops + other.free_loops)[0]


def _same_components(d: OrientedLinkDiagram, cycles, label: dict) -> bool:
    """Whether the given edge cycles, each label read through ``label``,
    are the components of ``d`` as edge sets."""
    want = sorted(sorted({label.get(e, -1) for e in c}) for c in cycles)
    return want == sorted(sorted(set(c)) for c in d._components)


# -- normalization and validation ------------------------------------------


_EDGES = attrgetter("edges")


def _checked(raw) -> list[Crossing]:
    """The ``Crossing`` rows of ``raw``, rows from outside the library,
    relabelled as construction relabels them.  Both doors for such rows,
    the constructor and ``from_raw``, call it, and nothing else does.
    ``raw`` may be any iterable and is read once.  Each row must unpack
    into an edge tuple or list and a sign (a string's characters are no
    labels), and its ``Crossing`` is built once, with the constructor's
    checks; of several faulty rows, the first in normal-form order is
    named."""
    try:
        raw = list(raw)
    except TypeError:
        raise DiagramError("raw crossings must be (edges, sign) rows") from None
    try:
        rows = [e for e, _ in raw]
        edges = list(map(tuple, rows))
    except (TypeError, ValueError):  # not rows of an edge iterable and a sign
        raise DiagramError("raw crossings must be (edges, sign) rows") from None
    for e in rows:
        if not isinstance(e, (tuple, list)):
            raise DiagramError(f"crossing edges must be a tuple or list, got {e!r}")
    edges = _relabelled(edges)
    try:
        return [Crossing(e, s) for e, (_, s) in zip(edges, raw)]
    except DiagramError:  # the first faulty row in normal-form order, as always named
        for i in _row_order(edges):
            Crossing(edges[i], raw[i][1])


def _relabelled(rows: list[tuple]) -> list[tuple[int, ...]]:
    """Each crossing's edge tuple relabelled as construction relabels it:
    ``rows`` itself when the labels are already the ints ``0..E-1``
    (bools excluded), else each label renamed to its first-seen rank."""
    labels = [e for row in rows for e in row]
    if set(map(type, labels)) <= {int} and set(labels) == set(range(len(labels) // 2)):
        return rows
    try:
        remap = {e: i for i, e in enumerate(dict.fromkeys(labels))}
    except TypeError:  # an unhashable label, a list say
        raise DiagramError("edge labels must be hashable") from None
    return [tuple(map(remap.__getitem__, row)) for row in rows]


def _row_order(edges: Sequence[tuple[int, ...]]) -> list[int]:
    """The row indices in normal-form order: an argsort on the rows' edge
    tuples.  Two rows with the same edges give an edge two heads, which
    ``_validate`` refuses in either order, so the sign needs no place in
    the key; comparing whole rows would take about twice as long."""
    return sorted(range(len(edges)), key=edges.__getitem__)


def _validate(crossings: tuple[Crossing, ...]):
    """Check a normalized crossing list and build its edge index.

    Returns ``(tail, head, comp, cycles, face_of)``: per edge its tail and
    head dart codes and its component, the oriented edge cycles, and per
    dart code its face.
    """
    n_edges = 2 * len(crossings)
    tail = [-1] * n_edges
    head = [-1] * n_edges
    succ = [0] * n_edges  # the next edge along each edge's strand
    x = 0
    try:
        for (a, b, cc, d), sign in crossings:
            head[a] = x
            tail[cc] = x + 2
            succ[a] = cc
            if sign > 0:  # over-strand slot 3 -> slot 1
                tail[b] = x + 1
                head[d] = x + 3
                succ[d] = b
            else:  # over-strand slot 1 -> slot 3
                head[b] = x + 1
                tail[d] = x + 3
                succ[b] = d
            x += 4
    except IndexError:  # a label beyond E - 1
        raise _edge_error(crossings) from None
    # 2V slots point in and 2V out, so an edge given a second head or
    # tail leaves another edge without one
    if -1 in head or -1 in tail:
        raise _edge_error(crossings)
    # every edge now has one tail and one head, so following the strand
    # is a permutation and each trace closes; the first cycle found from
    # each smallest unseen edge starts at its minimum, so the cycles come
    # out sorted
    comp = [-1] * n_edges
    cycles = []
    for start in range(n_edges):
        if comp[start] < 0:
            k = len(cycles)
            comp[start] = k
            cycle = [start]
            e = succ[start]
            while e != start:
                comp[e] = k
                cycle.append(e)
                e = succ[e]
            cycles.append(tuple(cycle))
    # per dart code its face, faces numbered in order of their least dart
    step = _face_step(tail, head)
    face_of = [-1] * len(step)
    n_faces = 0
    for first in range(len(step)):
        if face_of[first] < 0:
            face_of[first] = n_faces
            x = step[first]
            while x != first:
                face_of[x] = n_faces
                x = step[x]
            n_faces += 1
    # every piece has E = 2V, so planarity (V - E + F = 2) reads F = V + 2;
    # F <= V + 2 holds in every piece (genus >= 0), so the total count
    # reaches V + 2 * pieces only if every piece does
    if crossings:
        root = _piece_of_component(crossings, comp, len(cycles))
        if n_faces != len(crossings) + 2 * len(set(root)):
            raise _planarity_error(crossings, comp, root, face_of)
    return tuple(tail), tuple(head), tuple(comp), tuple(cycles), tuple(face_of)


def _edge_error(crossings) -> DiagramError:
    """The error for crossings whose edges lack one tail and one head:
    a label not seen twice, else the first label outside ``0..E-1``, else
    the first one seen at a second tail or head, in slot order."""
    labels = [e for c in crossings for e in c.edges]
    for e in labels:
        k = labels.count(e)
        if k != 2:
            return DiagramError(f"edge multiplicity: edge {e} occurs {k} times")
    n_edges = len(labels) // 2
    for e in labels:
        if not 0 <= e < n_edges:
            return DiagramError(f"edge label {e} outside 0..{n_edges - 1}")
    # each label of 0..E-1 is at two slots, so some (label, points in)
    # pair repeats
    ends = [(e, i) for c in crossings for e, i in zip(c.edges, _INCOMING[c.sign])]
    e, incoming = next(end for i, end in enumerate(ends) if ends.index(end) < i)
    way = "enters" if incoming else "leaves"
    return DiagramError(f"orientation inconsistency: edge {e} {way} twice")


def _mates(tail: Sequence[int], head: Sequence[int]) -> list[int]:
    """Per dart code its mate, the dart at the other end of its edge."""
    mate = [0] * (2 * len(tail))
    for t, h in zip(tail, head):
        mate[t] = h
        mate[h] = t
    return mate


def _face_step(tail: Sequence[int], head: Sequence[int]) -> list[int]:
    """Per dart code, the next dart of its face: the mate's successor in
    counterclockwise order around the mate's crossing.  The mate and the
    turn are taken in one pass, as every construction runs this."""
    n_darts = 2 * len(tail)
    rot = list(range(1, n_darts + 1))
    rot[3::4] = range(0, n_darts, 4)
    step = [0] * n_darts
    for t, h in zip(tail, head):
        step[t] = rot[h]
        step[h] = rot[t]
    return step


def _faces(tail: Sequence[int], head: Sequence[int]) -> list[list[int]]:
    """Face orbits as lists of dart codes, each from its least dart."""
    step = _face_step(tail, head)
    faces = []
    seen = [False] * len(step)
    for first in range(len(step)):
        if not seen[first]:
            face = []
            x = first
            while not seen[x]:
                seen[x] = True
                face.append(x)
                x = step[x]
            faces.append(face)
    return faces


def _piece_of_component(
    crossings: Sequence[Crossing], comp: Sequence[int], n_components: int
) -> list[int]:
    """Per component, the least component of its connected piece.

    Each crossing joins the components of its under- and over-strand, and
    every component meets a crossing, so these classes are the pieces.
    """
    root = list(range(n_components))
    joins = n_components - 1  # unions left before one piece remains
    for (e, f, _, _), _ in crossings:
        if not joins:
            break
        a, b = comp[e], comp[f]
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a != b:
            if a < b:
                root[b] = a
            else:
                root[a] = b
            joins -= 1
    for i in range(n_components):  # roots are less than their members
        root[i] = root[root[i]]
    return root


def _planarity_error(crossings, comp, root, face_of) -> DiagramError:
    """The error naming the first piece, by least crossing, whose face
    count is not its crossing count plus two; ``root`` is each
    component's piece, as ``_piece_of_component`` gives it."""
    piece = [root[comp[c.edges[0]]] for c in crossings]
    crossing_count = Counter(piece)
    face_piece: dict[int, int] = {}
    for x, f in enumerate(face_of):
        face_piece.setdefault(f, piece[x >> 2])
    face_count = Counter(face_piece.values())
    v, f = next(
        (v, face_count[p]) for p, v in crossing_count.items() if face_count[p] != v + 2
    )
    return DiagramError(
        f"non-planar diagram: piece with {v} crossings has {f} faces (needs {v + 2})"
    )


# -- structural comparison ---------------------------------------------------


def structurally_equal(d1: OrientedLinkDiagram, d2: OrientedLinkDiagram) -> bool:
    """Equality up to renaming edges (slots and signs must match rigidly).
    Each piece of ``d1``, from its least crossing, maps onto the first
    unused crossing of ``d2`` that takes it; greedy is exact, as a piece
    that maps onto two unused pieces of ``d2`` makes them equal."""
    _check_diagram(d1, "structural equality needs")
    _check_diagram(d2, "structural equality needs")
    if d1.free_loops != d2.free_loops:
        return False
    if sorted(c.sign for c in d1.crossings) != sorted(c.sign for c in d2.crossings):
        return False
    mate1, mate2 = _mates(d1._tail, d1._head), _mates(d2._tail, d2._head)
    n = len(d1.crossings)
    matched = [False] * n
    used = [False] * n
    for c0 in range(n):
        if matched[c0]:
            continue
        for t0 in range(n):
            cmap = _try_match(d1, d2, mate1, mate2, c0, t0, used)
            if cmap is not None:
                break
        else:
            return False
        for ci, tj in cmap.items():
            matched[ci] = used[tj] = True
    return True


def _try_match(d1, d2, mate1, mate2, c0, t0, used) -> dict[int, int] | None:
    """The map of the piece of ``d1`` through crossing ``c0`` into the
    crossings of ``d2`` not ``used``, with ``c0`` sent to ``t0``: slot
    for slot, signs and mates kept, which matches the edges one to one.
    ``None`` if there is none.

    Mates are compared by crossing, not slot: in valid diagrams the slots
    then agree.  Signs fix which slots point in and out, so slots can
    differ only where two edges run from one crossing A to one crossing B
    and are wired to B's in-slots the other way round in ``d2``.  A
    crossing's out-slots are adjacent, and so are its in-slots, so one
    wiring is crossed: its edges close a curve with, of the slots of A
    and B, only A's in-slots on one side (if A = B, a loop joining
    opposite slots).  The crossings on that side have as many out-slots
    as in-slots, so no strand can reach A's in-slots without crossing the
    curve: the planarity count would have refused ``d1`` or ``d2``."""
    if used[t0]:
        return None
    cmap = {c0: t0}
    targets = {t0}
    queue = [c0]
    while queue:
        ci = queue.pop()
        tj = cmap[ci]
        if d1.crossings[ci].sign != d2.crossings[tj].sign:
            return None
        for s in range(4):
            oc, od = mate1[4 * ci + s] >> 2, mate2[4 * tj + s] >> 2
            if oc in cmap:
                if cmap[oc] != od:
                    return None
            elif od in targets or used[od]:
                return None
            else:
                cmap[oc] = od
                targets.add(od)
                queue.append(oc)
    return cmap


# -- text serialization -------------------------------------------------------


_TOKEN = re.compile(r"([XO])([+-]?)\[([^\]]*)\]")


def serialize(d: OrientedLinkDiagram) -> str:
    """Textual normal form: signed crossing tuples plus orientation block."""
    _check_diagram(d, "serialize needs")
    parts = []
    if d.crossings:
        parts.append(
            " ".join(
                f"X{'+' if c.sign > 0 else '-'}[{','.join(map(str, c.edges))}]"
                for c in d.crossings
            )
        )
    comps = d.components
    if comps:
        parts.append(" ".join(f"O[{','.join(map(str, c))}]" for c in comps))
    return "\n".join(parts)


def parse_pd(text: str) -> OrientedLinkDiagram:
    """Parse PD notation.

    Accepts ``X[a,b,c,d]`` tuples with optional sign annotations
    (``X+``/``X-``) and an optional block of ``O[...]`` component cycles
    (``O[]`` is a free loop), which is only checked against the crossings
    as edge sets.  Missing signs come from walking each strand (see
    ``_infer_signs``); input that no orientation fits, or whose
    orientation the crossings leave open, raises ``ParseError``.
    Empty input gives the empty diagram.
    """
    if not isinstance(text, str):
        raise ParseError(f"PD text must be a string, got {type(text).__name__}")
    # blank out comments so that offsets stay those of ``text``
    stripped = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)
    crossings_raw: list[tuple[list, int | None, int]] = []
    cycles: list[list] = []
    free_loops = 0
    pos = 0
    for m in _TOKEN.finditer(stripped):
        gap = stripped[pos : m.start()]
        if gap.strip():
            raise ParseError(f"unexpected text {gap.strip()!r}", pos)
        pos = m.end()
        kind, sign_txt, body = m.groups()
        items = [t.strip() for t in body.split(",")] if body.strip() else []
        if "" in items:
            raise ParseError("empty edge label", m.start())
        if kind == "X":
            if len(items) != 4:
                raise ParseError("malformed tuple: crossing needs 4 edges", m.start())
            sign = {"+": 1, "-": -1, "": None}[sign_txt]
            crossings_raw.append((items, sign, m.start()))
        else:
            if sign_txt:
                raise ParseError("orientation cycle cannot carry a sign", m.start())
            if not items:
                free_loops += 1
            else:
                cycles.append(items)
    if stripped[pos:].strip():
        raise ParseError(f"unexpected text {stripped[pos:].strip()!r}", pos)
    if not crossings_raw:
        d = OrientedLinkDiagram((), free_loops)
        if cycles:
            raise ParseError("orientation cycles without crossings")
        return d

    tokens = [t for items, _, _ in crossings_raw for t in items]
    # keep the serial order of a classical code k..k+E-1, counted from 0
    try:
        values = [int(t) for t in tokens] if all(t.isdecimal() for t in tokens) else []
    except ValueError as exc:  # a label past the int digit limit
        raise ParseError(f"edge label too long: {exc}") from None
    k = min(values, default=0)
    serial = bool(values) and set(values) == set(range(k, k + len(tokens) // 2))
    if serial:
        remap = {t: v - k for t, v in zip(tokens, values)}
    else:
        remap = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    tuples = [tuple(remap[t] for t in items) for items, _, _ in crossings_raw]
    signs: list[int | None] = [s for _, s, _ in crossings_raw]

    if None in signs:
        signs = _infer_signs(tuples, signs, [p for _, _, p in crossings_raw], serial)

    # serial labels are 0..E-1 and the others first-seen ranks, which the
    # constructor's relabelling would keep
    d, _ = OrientedLinkDiagram._of_rows(list(map(_row, tuples, signs)), free_loops)
    if cycles and not _same_components(d, cycles, remap):
        raise ParseError("orientation block inconsistent with crossings")
    return d


def _infer_signs(tuples, signs, positions, serial):
    """Fill in the missing signs by walking each strand once.

    Walks start where a strand's direction is known: at every slot 0,
    where the under-strand enters, and at the over-slot where a signed
    crossing's strand enters (3 for ``+1``, 1 for ``-1``).  Each over-pass
    a walk meets takes ``+1`` if entered at slot 3, else ``-1``; entering
    at slot 2, or against a sign, is an inconsistency.  A strand that
    never passes under and meets no sign is oriented only in a classical
    code (``serial``), and only when its crossings' serial hints (edge out
    = edge in + 1, mod E) all agree.  ``positions`` locate the errors.
    """
    m = 2 * len(tuples)
    ends: dict[int, list[int]] = {}
    for ci, t in enumerate(tuples):
        for slot, e in enumerate(t):
            ends.setdefault(e, []).append(4 * ci + slot)
    for e, darts in ends.items():
        if len(darts) != 2:
            raise DiagramError(f"edge multiplicity: edge {e} occurs {len(darts)} times")
    out, walked = list(signs), set()

    def walk(x: int) -> list[int]:
        """Orient the strand entering at dart ``x``; returns its entry darts."""
        path = []
        while x not in walked:
            walked.add(x)
            path.append(x)
            ci, slot = x >> 2, x & 3
            over = 1 if slot == 3 else -1  # the sign, if this is an over-pass
            if slot == 2 or (slot and out[ci] == -over):
                raise ParseError(
                    f"orientation inconsistency at crossing {ci}", positions[ci]
                )
            if slot:
                out[ci] = over
            y = x ^ 2  # the dart where the strand leaves
            a, b = ends[tuples[ci][y & 3]]
            x = b if a == y else a
        return path

    for ci, s in enumerate(signs):
        walk(4 * ci)
        if s is not None:
            walk(4 * ci + (3 if s > 0 else 1))
    for ci in range(len(tuples)):
        if out[ci] is None:
            path = walk(4 * ci + 3)
            # the serial hints: steps of +-1 from the edge in to the edge out
            hints = {
                (tuples[x >> 2][(x ^ 2) & 3] - tuples[x >> 2][x & 3]) % m
                for x in path
            } & ({1, m - 1} if serial else set())
            if len(hints) != 1:
                raise ParseError("ambiguous orientation: add a sign", positions[ci])
            if hints == {m - 1}:
                for x in path:
                    out[x >> 2] *= -1
    return out

