"""Braid words and their standard closures as oriented diagrams.

A word is a sequence of signed Artin generators ``(i, +1)`` / ``(i, -1)``
with ``1 <= i < strands``; the letter ``(i, s)`` crosses the strands in
lanes ``i`` and ``i+1``, the lane-``i``-to-``i+1`` diagonal passing over
for positive letters.  Closures orient every strand coherently upward,
so positive letters close to positive crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

from .diagram import DiagramError, OrientedLinkDiagram, _relabelled, _row


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        # plain ints, bools excluded: nothing is coerced
        if type(self.strands) is not int or self.strands < 1:
            raise DiagramError(f"braid needs an int >= 1 of strands, got {self.strands!r}")
        if not isinstance(self.letters, (tuple, list)):
            raise DiagramError("braid letters must be a sequence of (generator, sign)")
        for letter in self.letters:
            if not (
                isinstance(letter, (tuple, list))
                and len(letter) == 2
                and all(type(x) is int for x in letter)
            ):
                raise DiagramError(f"braid letter {letter!r} needs an int generator and sign")
            i, s = letter
            if not 1 <= i < self.strands:
                raise DiagramError(f"generator index {i} out of range")
            if s not in (1, -1):
                raise DiagramError(f"letter sign must be +1/-1, got {s}")
        object.__setattr__(self, "letters", tuple(map(tuple, self.letters)))

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        _check_word(other, "can only concatenate")
        if other.strands != self.strands:
            raise DiagramError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def flipped(self) -> "BraidWord":
        """Every letter's sign negated, order kept."""
        return BraidWord(self.strands, tuple((i, -s) for i, s in self.letters))

    def reversed_word(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(reversed(self.letters)))

    def permutation(self) -> list[int]:
        """Image of each bottom lane at the top (0-indexed lanes)."""
        perm = list(range(self.strands))
        for i, _ in self.letters:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return perm

    def cycle_count(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        n = 0
        for i in range(self.strands):
            if seen[i]:
                continue
            n += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        return n

    @classmethod
    def from_ints(cls, strands: int, word: Iterable[int]) -> "BraidWord":
        """Signed-integer shorthand: ``2`` means sigma_2, ``-2`` its inverse."""
        ints = tuple(word) if isinstance(word, Iterable) else None
        # bools are refused, as in BraidWord, and so are floats
        if ints is None or any(type(k) is not int for k in ints):
            raise DiagramError(f"braid word must be a sequence of ints, got {word!r}")
        return cls(strands, tuple((abs(k), 1 if k > 0 else -1) for k in ints))


def _check_word(w, needs: str) -> None:
    """Raise DiagramError unless ``w`` is a braid word; ``needs`` names the
    caller, as in "a closure needs", and the message goes on "a braid word"."""
    if not isinstance(w, BraidWord):
        raise DiagramError(f"{needs} a braid word, got {w!r}")


def torus_braid(p: int, q: int) -> BraidWord:
    """(sigma_1 ... sigma_{q-1})^p on q strands; closure is T(p, q)."""
    if not (type(p) is int and type(q) is int and p >= 0 and q >= 1):
        raise DiagramError(f"torus braid needs ints p >= 0 and q >= 1, got ({p!r}, {q!r})")
    row = tuple((i, 1) for i in range(1, q))
    return BraidWord(q, row * p)


def _closure_crossing(sgn, a_up, b_up, lo, hi, new_lo, new_hi) -> tuple[tuple, int]:
    """Raw ``(edges, sign)`` crossing of one braid letter of sign ``sgn``.

    ``lo``/``hi`` are the bottom port edges of lanes i, i+1; ``new_lo``/
    ``new_hi`` the top ports.  ``a_up``/``b_up`` say whether the strand
    occupying that lane at the bottom is oriented upward.  The
    lane-i-to-i+1 diagonal uses ports (lo, new_hi); the other uses
    (hi, new_lo).
    """
    sw, se, nw, ne = lo, hi, new_lo, new_hi
    # the under-strand, lane i+1's for a positive letter and lane i's for a
    # negative one, picks the port at slot 0; opposite strands flip the sign
    if sgn > 0:
        edges = (se, ne, nw, sw) if b_up else (nw, sw, se, ne)
    else:
        edges = (sw, se, ne, nw) if a_up else (ne, nw, sw, se)
    return edges, sgn if a_up == b_up else -sgn


def braid_strand_crossings(
    letters: Sequence[tuple[int, int]],
    bottom_edges: list,
    top_edges: list,
    directions: list[bool],
    fresh,
) -> list[tuple[tuple, int]]:
    """Raw ``(edges, sign)`` crossings of a braid region spliced between
    given edge labels, one per letter in word order.

    ``letters`` are the checked letters of a word (``BraidWord.letters``)
    on ``len(bottom_edges)`` strands.  ``bottom_edges[j]``/``top_edges[j]``
    are the edge labels entering lane ``j`` from below and leaving above;
    ``directions[j]`` is True when the strand starting in lane ``j`` at
    the bottom is oriented upward.  ``fresh`` yields unused edge labels.
    Lanes never touched by a letter must have
    ``bottom_edges[j] == top_edges[j]``.

    One pass: the last letter on each lane takes the lane's top label
    directly.  Every letter still draws two fresh labels, used or not, so
    the labels come out dense only when the last letter ends every lane,
    as on two strands; construction renames any others by first
    appearance.
    """
    last = [-1] * len(bottom_edges)
    for x, (i, _) in enumerate(letters):
        last[i - 1] = last[i] = x
    for j, x in enumerate(last):
        if x < 0 and bottom_edges[j] != top_edges[j]:
            raise DiagramError("untouched lane cannot change its edge label")
    cur = list(bottom_edges)
    dirs = list(directions)
    raw = []
    for x, (i, sgn) in enumerate(letters):
        i -= 1
        new_lo, new_hi = next(fresh), next(fresh)
        if last[i] == x:
            new_lo = top_edges[i]
        if last[i + 1] == x:
            new_hi = top_edges[i + 1]
        raw.append(
            _closure_crossing(sgn, dirs[i], dirs[i + 1], cur[i], cur[i + 1], new_lo, new_hi)
        )
        cur[i], cur[i + 1] = new_lo, new_hi
        dirs[i], dirs[i + 1] = dirs[i + 1], dirs[i]
    return raw


def braid_closure(word: BraidWord) -> OrientedLinkDiagram:
    """Standard closure; crossing count equals word length and component
    count equals the number of permutation cycles."""
    d, _ = braid_closure_with_arcs(word)
    return d


def braid_closure_with_arcs(
    word: BraidWord,
) -> tuple[OrientedLinkDiagram, list[int]]:
    """Closure plus, per lane, the edge label of its closure arc.

    The letters' rows come from a checked word, so they are relabelled by
    ``_relabelled`` and built by ``_row`` without the checks, as the
    family box plans are, and placed once through
    ``OrientedLinkDiagram._of_rows``.  Each arc's label is read from the
    built row of a crossing that held the lane's bottom label: each raw
    row is zipped with its own built row, in input order.  Lanes whose
    strand meets no crossing close into free loops and report ``-1``
    (they own no edge).
    """
    _check_word(word, "a closure needs")
    n = word.strands
    fresh = count(0)
    bottom = [next(fresh) for _ in range(n)]
    raw = braid_strand_crossings(word.letters, bottom, bottom, [True] * n, fresh)
    # a lane no letter touches keeps a label on no crossing: a free loop
    lanes = {j for i, _ in word.letters for j in (i - 1, i)}
    rows = list(map(_row, _relabelled([e for e, _ in raw]), [s for _, s in raw]))
    d, _ = OrientedLinkDiagram._of_rows(rows, n - len(lanes))
    # each lane's arc keeps its bottom label: read it in the lane's row
    label = {}
    for (edges, _), row in zip(raw, rows):
        label.update(zip(edges, row.edges))
    return d, [label.get(b, -1) for b in bottom]
