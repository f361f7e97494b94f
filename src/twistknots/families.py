"""Twist families: a base link with marked passes through a spanning disk.

A family is a diagram of the link together with an ordered, signed list
of edges that cross the disk of an (implicit) unknotted twisting circle.
Twisting by ``n`` cuts those edges and splices in ``n`` full twists on
that many strands; positive ``n`` inserts right-handed twists, so a
coherent pair of strands picks up positive crossings.

A mark's sign is the direction in which its strand crosses the disk:
``+1`` means the strand runs bottom to top through the twist box, ``-1``
top to bottom.  It fixes how the box is wired into the planar base
diagram and is not a handedness; the handedness comes from ``n`` alone.

The full-twist word is the palindrome ``H * reverse(H)`` where ``H`` is
the half twist.  Flipping the signs of the second half of each block
turns the block into ``H * H^{-1}``, which cancels freely; that is the
untwisting schedule and it has exactly ``turns * k(k-1)/2`` sites per
full twist on ``k`` strands.

A member is built from the family's box plan: per twist sign, the rows
of one splice of three full twists, relabeled as construction relabels
them and kept on the family.  With ``nb`` base crossings and ``k``
marks, its base rows use labels ``0..2nb+k-1`` for every n; of its three
blocks of ``k(k-1)`` rows, the first touches the base only through its
bottom labels, the last only through its top labels, and each middle
block is the one before it with every label shifted by ``D = 2k(k-1)``.
So ``|n| >= 2`` appends the first block, ``|n| - 2`` shifted middle
blocks, and the last block with its labels ``>= 2nb+k`` shifted by
``(|n| - 3) * D``.  ``|n| = 1`` has its own rows, from its own splice;
construction makes the one of ``n = 1``.  A member's rows go to the
diagram's placement step, which argsorts them on the constructor's sort
key and validates the member in full; ``untwist_schedule`` reads its
sites from the same argsort and builds no diagram.  A twist amount, and
the ``turns`` of ``full_twist_braid``, must be an ``int``; anything
else, a bool included, raises ``FamilyError``, as does a family that is
not a ``TwistFamily``.

Every ``TwistFamily`` is twisted once when it is built: marks that no
one arc in the plane crosses in their order cannot be wired into the
base, and construction refuses them with ``FamilyError``.  That holds
for every way a family is made: directly, from a file, by
``mirror_family`` and by ``coherent_reduction``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, count

from .braids import BraidWord, braid_strand_crossings
from .diagram import (
    Crossing,
    DiagramError,
    OrientedLinkDiagram,
    _relabelled,
    _row,
    _row_order,
    parse_pd,
    serialize,
)
from .invariants import WIDTH_BUDGET, LimitExceeded, kauffman_bracket_jones


class FamilyError(DiagramError):
    pass


class ReductionError(FamilyError):
    """No supported change set realizes the coherent reduction."""


@dataclass(frozen=True)
class TwistFamily:
    """A base diagram and its signed marks.  Construction checks the
    marks and builds ``twist(self, 1)`` once, so marks that cannot be
    wired into the base raise ``FamilyError`` here."""

    base: OrientedLinkDiagram
    marked_edges: tuple[tuple[int, int], ...]
    name: str = ""
    # the box plan: the rows of the n = +-1 and +-3 splices, each made on
    # first use by _member_rows
    _plans: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.base, OrientedLinkDiagram):
            raise FamilyError(f"family base must be an OrientedLinkDiagram, got {self.base!r}")
        if not isinstance(self.name, str):
            raise FamilyError(f"family name must be a string, got {self.name!r}")
        if not isinstance(self.marked_edges, (tuple, list)):
            raise FamilyError("marked_edges must be a sequence of (edge, sign)")
        for m in self.marked_edges:
            if not (
                isinstance(m, (tuple, list))
                and len(m) == 2
                and all(type(x) is int for x in m)
            ):
                raise FamilyError(f"mark {m!r} needs an integer edge and sign")
        marks = tuple(tuple(m) for m in self.marked_edges)
        object.__setattr__(self, "marked_edges", marks)
        edges = set(self.base.edges)
        seen = set()
        for e, s in marks:
            if e not in edges:
                raise FamilyError(f"marked edge {e} is not an edge of the base")
            if e in seen:
                raise FamilyError(f"marked edge {e} listed twice")
            seen.add(e)
            if s not in (1, -1):
                raise FamilyError(f"marked edge sign must be +1/-1, got {s}")
        object.__setattr__(self, "_plans", {})
        try:
            twist(self, 1)
        except DiagramError as exc:
            raise FamilyError(f"marks {list(marks)} cannot be twisted: {exc}") from exc

    # convenience views
    @property
    def eta_hat(self) -> int:
        return len(self.marked_edges)

    @property
    def omega(self) -> int:
        return winding_number(self)


def winding_number(f: TwistFamily) -> int:
    """Sum over components of |net signed passes| through the disk."""
    _check_family(f)
    per_comp: dict[int, int] = {}
    for e, s in f.marked_edges:
        ci = f.base.component_of_edge(e)
        per_comp[ci] = per_comp.get(ci, 0) + s
    return sum(abs(v) for v in per_comp.values())


def half_twist_word(strands: int) -> BraidWord:
    if type(strands) is not int or strands < 1:
        raise DiagramError(f"half twist needs an int >= 1 of strands, got {strands!r}")
    letters = []
    for k in range(2, strands + 1):
        for j in range(k - 1, 0, -1):
            letters.append((j, 1))
    return BraidWord(strands, tuple(letters))


def full_twist_braid(strands: int, turns: int) -> BraidWord:
    """|turns| full twists; letter signs match the sign of ``turns``."""
    _check_amount(turns)
    if strands == 1 or turns == 0:
        return BraidWord(strands)  # which checks the strand count
    h = half_twist_word(strands)
    block = h * h.reversed_word()
    word = BraidWord(strands, block.letters * abs(turns))
    return word if turns > 0 else word.flipped()


def twist(f: TwistFamily, n: int) -> OrientedLinkDiagram:
    """Diagram of the n-times-twisted link; ``twist(f, 0)`` is the base."""
    d, _, _ = twist_with_sites(f, n)
    return d


def _check_amount(n) -> None:
    # bools and floats are refused: a twist amount counts full twists
    if type(n) is not int:
        raise FamilyError(f"twist amount must be an int, got {n!r}")


def _check_family(f) -> None:
    if not isinstance(f, TwistFamily):
        raise FamilyError(f"expected a TwistFamily, got {f!r}")


def _splice(f: TwistFamily, n: int) -> list[Crossing]:
    """The rows of ``twist(f, n)``, relabeled as construction relabels
    them, spliced the long way: the base's crossings with each marked
    edge cut at its head, then one crossing per letter of ``|n|`` full
    twists."""
    base = f.base
    rows = [list(c.edges) for c in base.crossings]
    fresh = count(2 * base.n_crossings)
    bottom, top, dirs = [], [], []
    for e, s in f.marked_edges:
        h = next(fresh)
        x = base._head[e]
        rows[x >> 2][x & 3] = h
        bottom.append(e if s > 0 else h)
        top.append(h if s > 0 else e)
        dirs.append(s > 0)
    raw = [(tuple(row), c.sign) for row, c in zip(rows, base.crossings)]
    letters = full_twist_braid(len(bottom), n).letters
    raw += braid_strand_crossings(letters, bottom, top, dirs, fresh)
    return list(map(_row, _relabelled([e for e, _ in raw]), [s for _, s in raw]))


def _member_rows(f: TwistFamily, n: int) -> list[Crossing]:
    """The rows of ``twist(f, n)``, in their final labels: the base's
    crossings first, then one per letter in word order.  For ``|n| <= 1``
    they are the base's or the plan's own list, which callers never
    change."""
    k = len(f.marked_edges)
    if k < 2 or n == 0:
        return list(f.base.crossings)
    m = abs(n)
    key = n if m == 1 else n // m * 3  # the +-1 splice, or the +-3 one of n's sign
    rows = f._plans.get(key) or f._plans.setdefault(key, _splice(f, key))
    if m == 1:
        return rows
    nb, size = f.base.n_crossings, k * (k - 1)
    low, shift = 2 * nb + k, 2 * size
    first, middle, last = (rows[nb + b * size:nb + (b + 1) * size] for b in range(3))
    out = rows[:nb] + first
    for s in range(0, (m - 2) * shift, shift):
        out += [_row((a + s, b + s, c + s, d + s), sign) for (a, b, c, d), sign in middle]
    s = (m - 3) * shift
    out += [_row(tuple(x + s if x >= low else x for x in edges), sign) for edges, sign in last]
    return out


def twist_with_sites(
    f: TwistFamily, n: int
) -> tuple[OrientedLinkDiagram, list[int], list[int]]:
    """Twisted diagram plus bookkeeping maps.

    Returns ``(diagram, base_sites, twist_sites)``: positions in the
    twisted diagram of each base crossing and of each inserted braid
    letter (in word order).  The box plan's rows go through the one door
    for derived diagrams, ``OrientedLinkDiagram._of_rows``, whose index
    map gives both, and are validated in full there; rows the member
    shares with the plan or the base are not built again.
    """
    _check_family(f)
    _check_amount(n)
    diagram, index_map = OrientedLinkDiagram._of_rows(_member_rows(f, n), f.base.free_loops)
    nb = f.base.n_crossings
    return diagram, index_map[:nb], index_map[nb:]


def untwist_schedule(f: TwistFamily, n: int) -> list[int]:
    """Crossing sites in ``twist(f, n)`` whose change trivializes the
    inserted twist region; exactly ``|n| * w(w-1)/2`` of them.

    Needs a coherent family (``eta_hat == omega``: each component's
    marked passes share one sign, while different components may wind
    in opposite directions) and ``n != 0``.  Each block of a
    twist region is a half twist and its reverse, all letters of the
    sign of ``n``; changing the second half leaves a word that cancels
    freely, for either sign.  The sites are the places of the second
    half of each block's letters in the placement step's argsort of the
    box plan's rows; no diagram is built.
    """
    _check_family(f)
    _check_amount(n)
    if f.eta_hat != f.omega:
        raise FamilyError(
            f"untwist schedule needs a coherent family (eta={f.eta_hat}, omega={f.omega})"
        )
    if n == 0:
        raise FamilyError("untwist schedule needs n != 0")
    k = f.eta_hat
    if k <= 1:
        return []
    nb, block = f.base.n_crossings, k * (k - 1)
    order = _row_order([c.edges for c in _member_rows(f, n)])
    return [p for p, i in enumerate(order) if i >= nb and (i - nb) % block >= block // 2]


def mirror_family(f: TwistFamily) -> TwistFamily:
    """The mirror family: mirrored base, same marks.

    Mirroring swaps over and under at every crossing but keeps every
    strand's orientation, so each marked strand still crosses the disk in
    the same direction and the marks, signs included, are kept as they
    are.  The handedness flips through the twist amount instead: the
    mirror of the ``n`` box is the ``-n`` box.  So for every n,
    ``twist(mirror_family(f), n)`` is structurally equal to
    ``twist(f, -n).mirror()``, and the winding number is unchanged.
    """
    _check_family(f)
    return TwistFamily(
        f.base.mirror(),
        f.marked_edges,
        name=f"{f.name}_mirror" if f.name else "",
    )


# -- coherent reduction -------------------------------------------------------

# largest base crossing-change set that coherent_reduction searches
_MAX_CHANGES = 2


@dataclass(frozen=True)
class CoherentReduction:
    reduced: TwistFamily
    changes: tuple[int, ...]
    # the change sets whose Jones certificate was checked, two scans each
    candidates: int


def _paired_marks(f: TwistFamily) -> tuple[tuple[int, int], ...]:
    """Drop cancelling same-component passes, closest pairs first."""
    marks = list(f.marked_edges)
    base = f.base
    while True:
        best = None
        for i, j in combinations(range(len(marks)), 2):
            (e1, s1), (e2, s2) = marks[i], marks[j]
            if s1 == -s2 and base.component_of_edge(e1) == base.component_of_edge(e2):
                if best is None or j - i < best[1] - best[0]:
                    best = (i, j)
        if best is None:
            break
        i, j = best
        del marks[j]
        del marks[i]
    return tuple(marks)


def coherent_reduction(
    f: TwistFamily, certificate_limit: int = WIDTH_BUDGET
) -> CoherentReduction:
    """Find crossing changes on the base making the family coherent.

    Cancelling disk passes are paired off until no component has
    passes of both signs, which leaves ``omega`` marks; if no one arc
    crosses them in their order, building the reduced family raises
    ``FamilyError``.  A minimal set of base crossing changes (searched
    by size) must then make the twisted diagrams match, which is checked
    by a Jones certificate at twist amount 1.  ``certificate_limit`` is
    the width budget of those Jones scans; ``ReductionError`` is raised
    when it refuses them.  ``candidates`` counts the change sets checked,
    the winning one included, each by two scans; a family that is
    already coherent needs none.
    """
    _check_family(f)
    if type(certificate_limit) is not int or certificate_limit < 0:
        raise FamilyError(f"certificate_limit must be an int >= 0, got {certificate_limit!r}")
    reduced_marks = _paired_marks(f)
    if reduced_marks == f.marked_edges:
        return CoherentReduction(f, (), 0)
    name = f"{f.name}_coherent" if f.name else ""
    reduced = TwistFamily(f.base, reduced_marks, name=name)
    sides = [twist_with_sites(g, 1)[:2] for g in (f, reduced)]
    # Changing base crossings commutes with twisting: mirroring a raw row
    # and cutting a marked edge at its head give the same row in either
    # order.  So each candidate is checked on these two n = 1 diagrams
    # with its base sites changed, and only the winning family is built.
    candidates = 0
    for k in range(_MAX_CHANGES + 1):
        for subset in combinations(range(f.base.n_crossings), k):
            try:
                lhs, rhs = (
                    kauffman_bracket_jones(
                        d.change_crossings([sites[i] for i in subset]), limit=certificate_limit
                    )
                    for d, sites in sides
                )
            except LimitExceeded:
                raise ReductionError(
                    "the certificate exceeds the width budget; raise certificate_limit"
                ) from None
            candidates += 1
            if lhs == rhs:
                if subset:
                    reduced = TwistFamily(f.base.change_crossings(subset), reduced_marks, name=name)
                return CoherentReduction(reduced, subset, candidates)
    raise ReductionError(
        f"no change set of size <= {_MAX_CHANGES} realizes the reduction"
    )


# -- family files --------------------------------------------------------------


def family_to_json_dict(f: TwistFamily) -> dict:
    _check_family(f)
    return {
        "name": f.name,
        "base": serialize(f.base),
        "marked_edges": [{"edge": e, "sign": s} for e, s in f.marked_edges],
        "winding": winding_number(f),
        "wrapping_presentation_only": True,
    }


def family_from_json_dict(data: dict) -> TwistFamily:
    """The family a family file holds.  Raises ``FamilyError`` for a
    malformed file, for marks that ``TwistFamily`` refuses (among them
    marks that cannot be wired into the base), and for a stated winding
    the marks do not give.  The family is built before its winding is
    read, so a file with both unwireable marks and a wrong winding
    reports the marks."""
    if not isinstance(data, dict):
        raise FamilyError("family file must hold a JSON object")
    text, raw_marks = data.get("base"), data.get("marked_edges")
    name = data.get("name", "")
    if not isinstance(text, str):
        raise FamilyError("family file needs a PD text 'base'")
    if not isinstance(raw_marks, list):
        raise FamilyError("family file needs a 'marked_edges' list")
    if not isinstance(name, str):
        raise FamilyError("family name must be a string")
    marks = []
    for m in raw_marks:
        if not isinstance(m, dict) or not all(
            type(m.get(key)) is int for key in ("edge", "sign")
        ):
            raise FamilyError(f"mark {m!r} needs an integer 'edge' and 'sign'")
        marks.append((m["edge"], m["sign"]))
    f = TwistFamily(parse_pd(text), tuple(marks), name=name)
    if "winding" in data and type(data["winding"]) is not int:
        raise FamilyError(f"family winding must be an integer, got {data['winding']!r}")
    if "winding" in data and data["winding"] != winding_number(f):
        raise FamilyError(
            f"family file claims winding {data['winding']} but the "
            f"presentation gives {winding_number(f)}"
        )
    return f


def save_family(f: TwistFamily, path) -> None:
    data = family_to_json_dict(f)  # before the file is opened, and so emptied
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_family(path) -> TwistFamily:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad JSON, bytes that are not UTF-8 and an int past the digit
            # limit are ValueErrors; deep nesting overflows the decoder
            raise FamilyError(f"family file is not JSON: {exc}") from exc
    return family_from_json_dict(data)
