"""Shipped twist-family presentations and their constructions.

Each family here is built deterministically from small ingredients, and
the corpus is these builders' output; no copy of it is kept on disk.
Like every ``TwistFamily``, each is twisted once when it is built, so
marks that cannot be wired into the base are refused there.

Contents:

* ``torus_q2`` / ``torus_q3``: coherent families of torus knots on the
  closure arcs of the standard braids (T(3,2) and T(4,3) bases).
* ``whitehead``: an unknot with two curls whose loops pass the disk with
  opposite signs; twisting produces the twist knots, all unknottable by
  one crossing change.
* ``mazur``: winding 1, three passes; one coherent pass plus a clasped
  finger, again with unknotting number one throughout.
* ``wind3_wrap9``: three unknotted circles, each passing the disk three
  times with net one; winding 3 with presentation wrapping 9.
* ``largewrap_w0_p4``: a single unknot passing four times with net zero.
"""

from __future__ import annotations

from .braids import BraidWord, braid_closure_with_arcs, torus_braid
from .diagram import parse_pd
from .families import FamilyError, TwistFamily

# two positive curls on a circle; loop edges 1 and 2, connectors 0 and 3
_DOUBLE_CURL = "X+[0,3,2,2] X+[3,0,1,1]\nO[0,2,3,1]"
# double curl with a third curl stacked on the first loop
_TRIPLE_CURL = "X+[0,3,2,2] X+[1,5,4,4] X+[3,0,1,5]\nO[0,2,3,1,5,4]"


def torus_family(p: int, q: int, name: str = "") -> TwistFamily:
    """T(p, q) presented on its q coherent closure arcs."""
    # with p = 0 or q = 1 a lane meets no crossing and closes into a free
    # loop, which owns no edge to mark
    if not (type(p) is int and type(q) is int and p >= 1 and q >= 2):
        raise FamilyError(f"torus family needs ints p >= 1 and q >= 2, got p={p!r}, q={q!r}")
    base, arcs = braid_closure_with_arcs(torus_braid(p, q))
    return TwistFamily(
        base, tuple((a, 1) for a in arcs), name=name or f"torus_{p}_{q}"
    )


def chain_family(strands: int) -> TwistFamily:
    """Coherent family on the closure arcs of a chain-link braid.

    The base is the closure of sigma_1^2 ... sigma_{k-1}^2: a chain of
    Hopf-linked circles, one per strand, so every winding value from 2
    up is available with a small base.
    """
    if type(strands) is not int or strands < 2:
        raise FamilyError(f"chain family needs an int >= 2 of strands, got {strands!r}")
    word = BraidWord(
        strands, tuple((i, 1) for i in range(1, strands) for _ in range(2))
    )
    base, arcs = braid_closure_with_arcs(word)
    return TwistFamily(
        base, tuple((a, 1) for a in arcs), name=f"chain_{strands}"
    )


def whitehead_family() -> TwistFamily:
    base = parse_pd(_DOUBLE_CURL)
    return TwistFamily(base, ((1, 1), (2, -1)), name="whitehead")


def mazur_family() -> TwistFamily:
    base = parse_pd(_TRIPLE_CURL)
    return TwistFamily(base, ((4, 1), (1, 1), (2, -1)), name="mazur")


def wind3_wrap9_family() -> TwistFamily:
    circle = parse_pd(_DOUBLE_CURL)
    base = circle.disjoint_union(circle).disjoint_union(circle)
    marks = []
    for block in range(3):
        off = 4 * block
        for e, s in ((1, 1), (0, 1), (3, -1)):
            marks.append((e + off, s))
    return TwistFamily(base, tuple(marks), name="wind3_wrap9")


def largewrap_w0_p4_family() -> TwistFamily:
    base = parse_pd(_DOUBLE_CURL)
    return TwistFamily(
        base, ((1, 1), (0, 1), (3, -1), (2, -1)), name="largewrap_w0_p4"
    )


BUILDERS = {
    "torus_q2": lambda: torus_family(3, 2, name="torus_q2"),
    "torus_q3": lambda: torus_family(4, 3, name="torus_q3"),
    "whitehead": whitehead_family,
    "mazur": mazur_family,
    "wind3_wrap9": wind3_wrap9_family,
    "largewrap_w0_p4": largewrap_w0_p4_family,
}


def load_corpus() -> dict[str, TwistFamily]:
    """The shipped families, built, keyed and ordered by name."""
    return {name: BUILDERS[name]() for name in sorted(BUILDERS)}
