import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistknots.braids import BraidWord, braid_closure, torus_braid
from twistknots.corpus import chain_family, load_corpus
from twistknots.diagram import (
    Crossing,
    DiagramError,
    OrientedLinkDiagram,
    ParseError,
    _faces,
    _mates,
    parse_pd,
    serialize,
    structurally_equal,
)
from twistknots.families import twist, twist_with_sites
from twistknots.moves import reidemeister_moves

from .oracles import (
    edge_index_bruteforce,
    faces_bruteforce,
    normalized_reference,
    planar_bruteforce,
    structurally_equal_bruteforce,
    validate_reference,
)

TREFOIL_CLASSIC = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"

# every corpus family, plus the chain families the benchmark sweeps
SWEPT_FAMILIES = {**load_corpus(), "chain_3": chain_family(3), "chain_4": chain_family(4)}


def _dart(x: int) -> tuple[int, int]:
    """The (crossing, slot) pair of a dart code."""
    return x >> 2, x & 3


def _edge_index(d):
    """Per edge: its tail and head darts, read from the edge index, and
    its component."""
    return [
        (_dart(t), _dart(h), d.component_of_edge(e))
        for e, (t, h) in enumerate(zip(d._tail, d._head))
    ]

# any JSON value, small
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TestParse:
    def test_empty_input_gives_empty_diagram(self):
        d = parse_pd("")
        assert d.n_crossings == 0
        assert d.n_components == 0

    def test_whitespace_and_comments_only(self):
        assert parse_pd("  # nothing here\n\n").n_components == 0

    def test_classic_trefoil(self):
        d = parse_pd(TREFOIL_CLASSIC)
        assert d.n_crossings == 3
        assert d.n_components == 1
        assert abs(d.writhe()) == 3

    def test_edge_multiplicity_reported(self):
        with pytest.raises(DiagramError, match="edge multiplicity"):
            parse_pd("X+[0,1,1,1] X+[0,2,2,3]")

    def test_malformed_tuple(self):
        with pytest.raises(ParseError, match="malformed tuple"):
            parse_pd("X[1,2,3]")

    def test_garbage_rejected_with_position(self):
        with pytest.raises(ParseError):
            parse_pd("X+[0,1,1,0] garbage")

    @pytest.mark.parametrize(
        "text, error",
        [
            ("X[0,1,1,0] junk X[2,3,3,2]", "unexpected text 'junk'"),
            ("X+[0,1,1,0] O+[0,1]", "cannot carry a sign"),
            ("O[0,1]", "orientation cycles without crossings"),
        ],
    )
    def test_malformed_text_rejected(self, text, error):
        with pytest.raises(ParseError, match=error):
            parse_pd(text)

    @pytest.mark.parametrize("text", [None, 5, b"X+[0,1,1,0]"])
    def test_text_must_be_a_string(self, text):
        # None raised a bare TypeError before
        with pytest.raises(ParseError, match="must be a string"):
            parse_pd(text)

    def test_signed_kinks(self):
        neg = parse_pd("X-[0,1,1,0]")
        assert neg.writhe() == -1
        assert neg.n_components == 1
        pos = parse_pd("X+[0,0,1,1]")
        assert pos.writhe() == 1

    def test_free_loops(self):
        d = parse_pd("O[] O[]")
        assert d.n_components == 2
        assert d.free_loops == 2

    def test_empty_edge_label_between_commas(self):
        with pytest.raises(ParseError, match="empty edge label") as err:
            parse_pd("X+[,3,2,2] X+[3,,1,1]")
        assert err.value.position == 0

    def test_blank_edge_labels(self):
        with pytest.raises(ParseError, match="empty edge label") as err:
            parse_pd("X+[0,3,2,2] # comment\nX+[ , , , ]")
        assert err.value.position == 22

    def test_non_ascii_digit_is_a_plain_label(self):
        assert parse_pd("X-[\u00b2,1,1,\u00b2]") == parse_pd("X-[0,1,1,0]")

    def test_orientation_block_validated(self):
        with pytest.raises(ParseError, match="inconsistent"):
            parse_pd("X-[0,1,1,0]\nO[0] O[1]")

    @pytest.mark.parametrize("p", [13, 15])
    def test_classical_code_from_any_start_in_any_order(self, p):
        # more than 12 crossings: the successor heuristic alone must
        # resolve every sign, so the serial numbering has to survive
        d = braid_closure(torus_braid(p, 2))
        (cycle,) = d.components
        crossings = list(d.crossings)
        random.Random(p).shuffle(crossings)
        zero, one = (
            parse_pd(
                " ".join(
                    f"X[{','.join(str(start + cycle.index(e)) for e in c.edges)}]"
                    for c in crossings
                )
            )
            for start in (0, 1)
        )
        assert one == zero
        assert structurally_equal(zero, d)

    def test_overlong_decimal_label_raises_parse_error(self):
        # the serial-code check read it with int() and raised a bare
        # ValueError past the int digit limit
        big = "1" * 5000
        with pytest.raises(ParseError, match="edge label too long"):
            parse_pd(f"X-[{big},{big}1,{big}1,{big}]")


class TestRoundTrip:
    def test_serialize_parse_identity_on_normal_form(self, trefoil_right, figure_eight):
        for d in (trefoil_right, figure_eight):
            text = serialize(d)
            assert serialize(parse_pd(text)) == text
            assert parse_pd(text) == d

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_rows_raise_only_diagram_errors(self, data):
        d = braid_closure(BraidWord.from_ints(3, [1, -2, 1])).disjoint_union(
            OrientedLinkDiagram.unknot()
        )

        def mutated(value):
            # replace the value, or descend into a list to mutate or drop
            # one of its items
            if isinstance(value, list) and value and data.draw(st.booleans()):
                i = data.draw(st.integers(0, len(value) - 1))
                if data.draw(st.booleans()):
                    value[i] = mutated(value[i])
                else:
                    del value[i]
                return value
            return data.draw(JSON_VALUES)

        raw = [[list(c.edges), c.sign] for c in d.crossings]
        for _ in range(data.draw(st.integers(1, 3))):
            raw = mutated(raw)
        try:
            OrientedLinkDiagram.from_raw(raw, d.free_loops)
        except DiagramError:
            pass

    def test_bool_edge_label_is_relabeled(self):
        # a right trefoil whose labels first appear in the order 0..5
        ints = ((0, 1, 2, 3), (1, 4, 5, 2), (4, 0, 3, 5))
        bools = tuple(tuple(True if e == 1 else e for e in row) for row in ints)
        d = OrientedLinkDiagram(tuple(Crossing(row, 1) for row in bools))
        assert {type(e) for c in d.crossings for e in c.edges} == {int}
        assert d == OrientedLinkDiagram(tuple(Crossing(row, 1) for row in ints))
        text = serialize(d)
        assert "True" not in text
        assert parse_pd(text) == d

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0])
    def test_sign_equal_to_one_but_not_int_rejected(self, sign):
        # kept, 1.0 would make writhe a float, and the serialize/parse_pd
        # round trip would not give back the same values
        with pytest.raises(DiagramError, match="sign"):
            Crossing((0, 1, 1, 0), sign)

    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(lambda door: door(None), "raw crossings must be", id="rows-none"),
            pytest.param(lambda door: door("abc"), "raw crossings must be", id="rows-str"),
            (lambda door: Crossing(5, 1), "tuple or list"),
            (lambda door: Crossing("0110", 1), "tuple or list"),
            (lambda door: door((Crossing(([0], [1], [1], [0]), -1),)), "hashable"),
            (lambda door: door([([[0], [1], [1], [0]], -1)]), "hashable"),
            (lambda door: door(5), "raw crossings must be"),
            (lambda door: door([(5, 1)]), "raw crossings must be"),
            (lambda door: door([None]), "raw crossings must be"),
            (lambda door: door([((0, 1, 1, 0),)]), "raw crossings must be"),
            (lambda door: OrientedLinkDiagram.unknot().disjoint_union(None), "unite with a diagram"),
            (lambda door: OrientedLinkDiagram.unknot().disjoint_union(()), "unite with a diagram"),
        ],
    )
    def test_bad_arguments_raise_diagram_error(self, make, message):
        # each raised a bare TypeError, ValueError, IndexError or
        # AttributeError before; rows from outside pass one check, so the
        # constructor and from_raw refuse them with one message
        refusals = set()
        for door in (OrientedLinkDiagram, OrientedLinkDiagram.from_raw):
            with pytest.raises(DiagramError, match=message) as refused:
                make(door)
            refusals.add(str(refused.value))
        assert len(refusals) == 1

    def test_from_raw_names_the_first_faulty_row_in_normal_form_order(self):
        # the checks meet (2,3,3,2) first, but (0,1,1,0) sorts first; the
        # constructor's rows pass the same check
        rows = [((2, 3, 3, 2), 7), ((0, 1, 1, 0), 9)]
        for door in (OrientedLinkDiagram, OrientedLinkDiagram.from_raw):
            with pytest.raises(DiagramError, match="got 9$"):
                door(rows)

    @pytest.mark.parametrize("edges", ["0110", b"\x00\x01\x01\x00", {0: 1, 1: 0}])
    def test_raw_edges_must_be_a_tuple_or_list(self, edges):
        # from_raw read the string's characters as labels and built the
        # kink X-[0,1,1,0], while Crossing refuses the same row
        message = f"crossing edges must be a tuple or list, got {edges!r}"
        for make in (Crossing, lambda e, s: OrientedLinkDiagram.from_raw([(e, s)])):
            with pytest.raises(DiagramError) as refused:
                make(edges, -1)
            assert str(refused.value) == message
        kink, _ = OrientedLinkDiagram.from_raw([([0, 1, 1, 0], -1)])
        assert kink == parse_pd("X-[0,1,1,0]")

    @pytest.mark.parametrize("loops", [1.5, 1.0, True, "1", None, -1])
    def test_free_loops_must_be_a_nonnegative_int(self, loops):
        # 1.5 was kept, and serialize then raised a bare TypeError
        with pytest.raises(DiagramError, match="free_loops"):
            OrientedLinkDiagram((), loops)

    def test_two_component_serialization(self, hopf_positive):
        text = serialize(hopf_positive)
        assert text.count("O[") == 2
        assert parse_pd(text) == hopf_positive


class TestMirror:
    def test_writhe_negates(self, trefoil_right):
        assert trefoil_right.mirror().writhe() == -3

    def test_involution(self, trefoil_right, figure_eight, kink_negative):
        for d in (trefoil_right, figure_eight, kink_negative):
            assert d.mirror().mirror() == d

    def test_empty(self):
        assert OrientedLinkDiagram(()).mirror() == OrientedLinkDiagram(())


class TestLinking:
    def test_positive_hopf(self, hopf_positive):
        assert hopf_positive.linking_number(0, 1) == 1

    def test_unlink(self):
        d = OrientedLinkDiagram.unknot(2)
        assert d.linking_number(0, 1) == 0

    def test_symmetry(self, hopf_positive):
        assert hopf_positive.linking_number(0, 1) == hopf_positive.linking_number(1, 0)

    def test_invalid_index(self, hopf_positive):
        with pytest.raises(DiagramError):
            hopf_positive.linking_number(0, 2)
        with pytest.raises(DiagramError):
            hopf_positive.linking_number(0, 0)

    @pytest.mark.parametrize("index", [1.0, True, "1", None, -1, 2])
    def test_index_must_be_an_int_in_range(self, hopf_positive, index):
        # 1.0 and True read component 1 before, and "1" raised a TypeError
        for i, j in ((index, 0), (0, index)):
            with pytest.raises(DiagramError, match="invalid component index"):
                hopf_positive.linking_number(i, j)


class TestChangeCrossing:
    def test_involution(self, trefoil_right):
        d2 = trefoil_right.change_crossings([1]).change_crossings([1])
        assert d2 == trefoil_right

    def test_preserves_curve_data(self, trefoil_right):
        d2 = trefoil_right.change_crossings([0])
        assert sorted(map(sorted, d2.components)) == sorted(
            map(sorted, trefoil_right.components)
        )

    def test_invalid_site(self, trefoil_right):
        with pytest.raises(DiagramError):
            trefoil_right.change_crossings([7])

    @pytest.mark.parametrize("sites", [None, 3])
    def test_sites_must_be_an_iterable(self, trefoil_right, sites):
        # both raised a bare TypeError before
        with pytest.raises(DiagramError, match="must be an iterable"):
            trefoil_right.change_crossings(sites)

    @pytest.mark.parametrize("site", [1.0, True, "1", None, -1, 3])
    def test_site_must_be_an_int_in_range(self, trefoil_right, site):
        # 1.0 and True changed crossing 1 before
        with pytest.raises(DiagramError, match="invalid crossing site"):
            trefoil_right.change_crossings([site])

    @pytest.mark.parametrize("edge", [True, 1.0, "0", None, -1, 6])
    def test_edge_must_be_an_int_in_range(self, trefoil_right, edge):
        # True read edge 1 before
        with pytest.raises(DiagramError, match="not found"):
            trefoil_right.component_of_edge(edge)


class TestStructure:
    def test_structurally_equal_relabels(self, trefoil_right):
        shifted = OrientedLinkDiagram(
            tuple(
                Crossing(tuple((e + 2) % 6 for e in c.edges), c.sign)
                for c in trefoil_right.crossings
            )
        )
        assert structurally_equal(trefoil_right, shifted)

    def test_not_equal_to_mirror(self, trefoil_right):
        assert not structurally_equal(trefoil_right, trefoil_right.mirror())

    def test_free_loops_must_match(self, trefoil_right):
        assert not structurally_equal(OrientedLinkDiagram((), 1), OrientedLinkDiagram((), 2))
        plus_loop = trefoil_right.disjoint_union(OrientedLinkDiagram.unknot())
        assert not structurally_equal(trefoil_right, plus_loop)
        assert structurally_equal(plus_loop, plus_loop)

    @pytest.mark.parametrize(
        "word, other, equal",
        [
            ([1, 2, -1, 2], [2, 1, 2, -1], True),  # a cyclic rotation
            ([1, 2, 1, -2], [1, -2, 1, 2], True),
            ([1, 1, 2, -2], [1, 2, 1, -2], False),  # same signs, other diagram
        ],
    )
    def test_reordered_letters(self, word, other, equal):
        d1 = braid_closure(BraidWord.from_ints(3, word))
        d2 = braid_closure(BraidWord.from_ints(3, other))
        assert structurally_equal(d1, d2) == equal
        assert structurally_equal_bruteforce(d1, d2) == equal

    def test_disjoint_union_counts(self, trefoil_right, hopf_positive):
        u = trefoil_right.disjoint_union(hopf_positive)
        assert u.n_components == 3
        assert u.n_crossings == 5
        assert u.writhe() == trefoil_right.writhe() + hopf_positive.writhe()

    def test_faces_euler(self, trefoil_right, figure_eight):
        for d in (trefoil_right, figure_eight):
            v = d.n_crossings
            assert len(_faces(d._tail, d._head)) == v + 2

    def test_nonplanar_rejected(self):
        # virtual-trefoil-style code admits no checkerboard planar structure
        with pytest.raises(DiagramError):
            OrientedLinkDiagram(
                (
                    Crossing((0, 2, 1, 3), 1),
                    Crossing((1, 0, 2, 3), 1),
                )
            )


class TestDenseEntry:
    """The placement step skips the relabelling, not the validating pass."""

    def test_label_beyond_range(self):
        # the closure of sigma_1 sigma_1 with label 3 renamed 7: every label
        # occurs twice, once in and once out
        rows = [Crossing((1, 7, 2, 0), 1), Crossing((7, 1, 0, 2), 1)]
        closure = braid_closure(BraidWord.from_ints(2, [1, 1]))
        assert structurally_equal(OrientedLinkDiagram(tuple(rows)), closure)
        with pytest.raises(DiagramError, match="edge label 7 outside 0..3"):
            OrientedLinkDiagram._of_rows(rows, 0)


class TestCrossingRow:
    """A ``Crossing`` is one immutable ``(edges, sign)`` tuple."""

    def test_repr_hash_and_equality(self):
        c = Crossing((0, 1, 2, 3), 1)
        assert repr(c) == "Crossing(edges=(0, 1, 2, 3), sign=1)"
        assert hash(c) == hash(((0, 1, 2, 3), 1))
        assert c == Crossing([0, 1, 2, 3], 1) == ((0, 1, 2, 3), 1)
        assert c != Crossing((0, 1, 2, 3), -1)
        assert (c.edges, c.sign) == tuple(c) and len(c) == 2

    def test_pickle_and_deepcopy_round_trip(self):
        c = Crossing((3, 0, 2, 1), -1)
        for back in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c), copy.copy(c)):
            assert back == c and type(back) is Crossing

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda c: c._replace(sign=2), "sign must be the int"),
            (lambda c: c._replace(edges=(0, 1)), "exactly 4 edges"),
            (lambda c: Crossing._make(((0, 1, 1, 0), True)), "sign must be the int"),
            (lambda c: Crossing._make(("0110", -1)), "tuple or list"),
        ],
    )
    def test_replace_and_make_check_the_row(self, make, message):
        # namedtuple's own _make, and _replace through it, skip the
        # constructor, and a row with sign 2 would make a wrong diagram
        with pytest.raises(DiagramError, match=message):
            make(Crossing((0, 1, 1, 0), -1))


# a row from outside: a Crossing, or a tuple or list of an edge tuple or
# list and a sign
ROW_SHAPES = (
    Crossing,
    lambda e, s: (tuple(e), s),
    lambda e, s: (list(e), s),
    lambda e, s: [tuple(e), s],
    lambda e, s: [list(e), s],
)


class TestOneCheckForOutsideRows:
    """Rows from outside pass one check whichever door they take: the
    constructor builds the diagram ``from_raw`` builds from the same rows,
    and refuses the rows it refuses with the same message."""

    @pytest.mark.parametrize("seed", range(4))
    def test_constructor_builds_what_from_raw_builds(self, seed):
        rng = random.Random(seed)
        refusals = 0
        for _ in range(60):
            strands = rng.randint(2, 5)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 8))]
            d = braid_closure(BraidWord.from_ints(strands, word))
            labels = rng.choice((
                list(range(2 * d.n_crossings)),
                rng.sample(range(100, 100 + 4 * d.n_crossings), 2 * d.n_crossings),
                [f"e{i}" for i in range(2 * d.n_crossings)],
            ))
            # mixed rows, or every row of one shape
            shapes = rng.choice([[s] for s in ROW_SHAPES] + [ROW_SHAPES])
            rows = [rng.choice(shapes)([labels[e] for e in c.edges], c.sign) for c in d.crossings]
            rng.shuffle(rows)
            if rng.random() < 0.3:  # two faulty rows: the first in normal-form order is named
                for i in rng.sample(range(len(rows)), min(2, len(rows))):
                    edges, _ = rows[i]
                    rows[i] = rng.choice(([edges, rng.choice((0, 2, True, 1.0))], (tuple(edges)[:3], 1)))
            extra = rng.randint(0, 2)
            loops = d.free_loops + extra
            feed = rng.choice((list, tuple, iter))
            try:
                want, _ = OrientedLinkDiagram.from_raw(feed(rows), loops)
            except DiagramError as exc:
                with pytest.raises(DiagramError) as refused:
                    OrientedLinkDiagram(feed(rows), loops)
                assert str(refused.value) == str(exc)
                refusals += 1
                continue
            assert OrientedLinkDiagram(feed(rows), loops) == want
            assert structurally_equal(want, d.disjoint_union(OrientedLinkDiagram.unknot(extra)))
        assert 0 < refusals < 60


def placed_once(monkeypatch) -> list:
    """Record the rows handed to each placement step from now on, and
    refuse the constructor; returns the record."""
    handed, place = [], OrientedLinkDiagram._placed

    def recording(self, rows, free_loops):
        handed.append(list(rows))
        return place(self, rows, free_loops)

    def refused(self):
        raise AssertionError("placed rows went through the constructor")

    monkeypatch.setattr(OrientedLinkDiagram, "_placed", recording)
    monkeypatch.setattr(OrientedLinkDiagram, "__post_init__", refused)
    return handed


def built_in_place(handed, d) -> bool:
    """Whether one placement step took exactly the row objects of ``d``,
    which it keeps in sorted order: the rows are not sorted again."""
    if len(handed) != 1 or len(handed[0]) != d.n_crossings:
        return False
    placed = sorted(handed[0], key=lambda c: c.edges)
    return all(a is b for a, b in zip(placed, d.crossings))


class TestPlacedOnce:
    """``from_raw``, ``parse_pd`` and twisted members place their rows
    once: the row objects of the result are those handed to one placement
    step, in their sorted places, and are not sorted again."""

    def test_twisted_members(self, monkeypatch):
        handed = placed_once(monkeypatch)
        for f in SWEPT_FAMILIES.values():
            for n in range(-3, 4):
                handed.clear()
                d, _, _ = twist_with_sites(f, n)
                assert built_in_place(handed, d), (f.name, n)

    @pytest.mark.parametrize("seed", range(3))
    def test_from_raw_shuffled_and_relabelled(self, monkeypatch, seed):
        rng = random.Random(seed)
        d = twist(chain_family(3), 2)
        names = rng.sample(range(100, 100 + 2 * d.n_crossings), 2 * d.n_crossings)
        raw = [([names[e] for e in c.edges], c.sign) for c in d.crossings]
        rng.shuffle(raw)
        handed = placed_once(monkeypatch)
        got, _ = OrientedLinkDiagram.from_raw(raw, d.free_loops)
        assert built_in_place(handed, got)
        assert structurally_equal(got, d)

    @pytest.mark.parametrize("signed", [True, False])
    def test_parse_pd(self, monkeypatch, signed):
        d = twist(chain_family(4), 3)
        text = serialize(d)
        if not signed:
            text = text.replace("X+", "X").replace("X-", "X")
        handed = placed_once(monkeypatch)
        back = parse_pd(text)
        assert built_in_place(handed, back)
        assert back == d


@st.composite
def oriented_codes(draw, max_crossings=5):
    """Crossing lists whose edges each run from one outgoing slot to one
    incoming slot, wired at random; most are not planar."""
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=max_crossings))
    outs = [4 * ci + s for ci, sign in enumerate(signs) for s in (2, 1 if sign > 0 else 3)]
    ins = [4 * ci + s for ci, sign in enumerate(signs) for s in (0, 3 if sign > 0 else 1)]
    edges = [[0] * 4 for _ in signs]
    for e, (t, h) in enumerate(zip(outs, draw(st.permutations(ins)))):
        edges[t >> 2][t & 3] = edges[h >> 2][h & 3] = e
    return tuple(Crossing(tuple(row), sign) for row, sign in zip(edges, signs))


@st.composite
def braid_words(draw, max_strands=4, max_len=7):
    strands = draw(st.integers(2, max_strands))
    length = draw(st.integers(1, max_len))
    letters = draw(
        st.lists(
            st.tuples(st.integers(1, strands - 1), st.sampled_from((1, -1))),
            min_size=length,
            max_size=length,
        )
    )
    return BraidWord(strands, tuple(letters))


class TestStructuralEquality:
    """``structurally_equal`` against trying every crossing bijection."""

    @given(braid_words(max_len=6), st.data())
    @settings(max_examples=120, deadline=None)
    def test_structurally_equal_matches_bruteforce(self, word, data):
        d = braid_closure(word)
        # the same letters in another order: equal or not, signs alike
        letters = data.draw(st.permutations(word.letters))
        others = [braid_closure(BraidWord(word.strands, tuple(letters)))]
        # a relabeled copy with its crossings shuffled, always equal
        names = data.draw(st.permutations(range(2 * d.n_crossings)))
        offset = data.draw(st.sampled_from((0, 7)))
        raw = [(tuple(offset + names[e] for e in c.edges), c.sign) for c in d.crossings]
        copy, _ = OrientedLinkDiagram.from_raw(data.draw(st.permutations(raw)), d.free_loops)
        assert structurally_equal(d, copy)
        others += [copy, copy.change_crossings([data.draw(st.integers(0, d.n_crossings - 1))])]
        for other in others:
            want = structurally_equal_bruteforce(d, other)
            assert structurally_equal(d, other) == want
            assert structurally_equal(other, d) == want

    @given(braid_words(max_len=3), braid_words(max_len=3), st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_split_diagrams_in_either_order(self, w1, w2, loops):
        d1, d2 = braid_closure(w1), braid_closure(w2)
        loop = OrientedLinkDiagram.unknot(loops)
        a = d1.disjoint_union(d2).disjoint_union(loop)
        b = loop.disjoint_union(d2).disjoint_union(d1)
        assert structurally_equal(a, b)
        assert structurally_equal_bruteforce(a, b)
        c = d1.disjoint_union(d2.mirror()).disjoint_union(loop)
        assert structurally_equal(a, c) == structurally_equal_bruteforce(a, c)

    @given(braid_words(max_len=7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rewired_heads_match_bruteforce(self, word, data):
        """Diagrams that differ from a closure by the heads of two edges
        swapped, where that validates: the matcher meets wirings that no
        braid closure has."""
        d = braid_closure(word)
        n_edges = 2 * d.n_crossings
        pairs = st.tuples(st.integers(0, n_edges - 1), st.integers(0, n_edges - 1))
        rewired = [d]
        for e, f in data.draw(st.lists(pairs, min_size=1, max_size=6)):
            rows = [list(c.edges) for c in d.crossings]
            (ci, s), (cj, t) = _dart(d._head[e]), _dart(d._head[f])
            rows[ci][s], rows[cj][t] = f, e
            try:
                rewired.append(
                    OrientedLinkDiagram(
                        tuple(Crossing(tuple(r), c.sign) for r, c in zip(rows, d.crossings)),
                        d.free_loops,
                    )
                )
            except DiagramError:
                continue
        for a in rewired:
            for b in rewired:
                assert structurally_equal(a, b) == structurally_equal_bruteforce(a, b)

    def test_crossed_parallel_edges_never_validate(self):
        """Two edges from one crossing to one crossing, their heads
        swapped, never give a valid diagram.  This is why the matcher
        compares the crossings of mates and not their slots."""
        diagrams = [twist(f, n) for f in SWEPT_FAMILIES.values() for n in range(-3, 4)]
        rng = random.Random(0)
        for _ in range(3000):
            strands = rng.randint(2, 5)
            letters = [
                rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 10))
            ]
            diagrams.append(braid_closure(BraidWord.from_ints(strands, letters)))
        swaps = 0
        for d in diagrams:
            parallel: dict[tuple[int, int], list[int]] = {}
            for e, (t, h) in enumerate(zip(d._tail, d._head)):
                parallel.setdefault((t >> 2, h >> 2), []).append(e)
            # a crossing has two out-slots, so no more than two edges share
            # their tail and head crossings
            for e, f in (edges for edges in parallel.values() if len(edges) == 2):
                rows = [list(c.edges) for c in d.crossings]
                (ci, s), (cj, t) = _dart(d._head[e]), _dart(d._head[f])
                rows[ci][s], rows[cj][t] = f, e
                crossed = tuple(Crossing(tuple(r), c.sign) for r, c in zip(rows, d.crossings))
                with pytest.raises(DiagramError, match="non-planar"):
                    OrientedLinkDiagram(crossed, d.free_loops)
                swaps += 1
        assert swaps > 1000


class TestPlanarity:
    @given(oriented_codes(), st.lists(braid_words(), max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_global_euler_count_matches_pieces(self, code, words):
        d = OrientedLinkDiagram(())
        for word in words:
            d = d.disjoint_union(braid_closure(word))
        crossings = d.crossings + tuple(
            Crossing(tuple(e + 2 * d.n_crossings for e in c.edges), c.sign) for c in code
        )
        if planar_bruteforce(crossings):
            assert OrientedLinkDiagram(crossings).n_crossings == len(crossings)
        else:
            with pytest.raises(DiagramError, match="non-planar diagram: piece with"):
                OrientedLinkDiagram(crossings)


def _check_against_reference(crossings, free_loops=0):
    """Construction agrees with the reference validator: the same edge
    index, dart mates and faces, or the same error class and message."""
    norm = normalized_reference(crossings)
    try:
        want = validate_reference(norm)
    except DiagramError as exc:
        with pytest.raises(DiagramError) as got:
            OrientedLinkDiagram(crossings, free_loops)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    d = OrientedLinkDiagram(crossings, free_loops)
    assert d.crossings == norm
    assert (d._tail, d._head, d._comp, d._components, d._face_of) == want
    assert _edge_index(d) == edge_index_bruteforce(d)
    mate = [0] * (4 * d.n_crossings)
    for (tc, ts), (hc, hs), _ in edge_index_bruteforce(d):
        mate[4 * tc + ts], mate[4 * hc + hs] = 4 * hc + hs, 4 * tc + ts
    assert _mates(d._tail, d._head) == mate
    face = {x: fi for fi, darts in enumerate(faces_bruteforce(d)) for x in darts}
    assert d._face_of == tuple(face[_dart(x)] for x in range(4 * d.n_crossings))


class TestValidatorOracle:
    @given(oriented_codes(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_codes(self, code, data):
        rows = [list(c.edges) for c in code]
        slots = [(ci, s) for ci in range(len(rows)) for s in range(4)]
        # optionally swap two labels (a second head or tail) or overwrite
        # one (a label seen once or three times)
        for _ in range(data.draw(st.integers(0, 2))):
            ci, s = data.draw(st.sampled_from(slots))
            if data.draw(st.booleans()):
                cj, t = data.draw(st.sampled_from(slots))
                rows[ci][s], rows[cj][t] = rows[cj][t], rows[ci][s]
            else:
                rows[ci][s] = data.draw(st.integers(0, 2 * len(rows)))
        _check_against_reference(
            tuple(Crossing(tuple(row), c.sign) for row, c in zip(rows, code))
        )

    @given(st.lists(braid_words(), min_size=1, max_size=3), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_split_closures_with_free_loops(self, words, loops):
        d = OrientedLinkDiagram.unknot(loops)
        for word in words:
            d = d.disjoint_union(braid_closure(word))
        _check_against_reference(d.crossings, d.free_loops)

    @given(braid_words(max_len=5), st.integers(0, 1))
    @settings(max_examples=15, deadline=None)
    def test_move_results(self, word, loops):
        d = braid_closure(word).disjoint_union(OrientedLinkDiagram.unknot(loops))
        for move in reidemeister_moves(d):
            _check_against_reference(move.result.crossings, move.result.free_loops)


class TestHypothesis:
    @given(braid_words())
    @settings(max_examples=60, deadline=None)
    def test_closure_roundtrip_and_mirror(self, word):
        d = braid_closure(word)
        assert parse_pd(serialize(d)) == d
        assert d.mirror().mirror() == d
        assert d.mirror().writhe() == -d.writhe()

    @given(braid_words())
    @settings(max_examples=40, deadline=None)
    def test_components_match_permutation_cycles(self, word):
        d = braid_closure(word)
        assert d.n_components == word.cycle_count()

    @given(braid_words(), st.integers(0, 2), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_edge_index_matches_scan(self, word, loops, mirrored):
        d = braid_closure(word).disjoint_union(OrientedLinkDiagram.unknot(loops))
        if mirrored:
            d = d.mirror()
        assert _edge_index(d) == edge_index_bruteforce(d)
        for e in d.edges:
            assert e in d.components[d.component_of_edge(e)]
        faces = _faces(d._tail, d._head)
        assert [list(map(_dart, face)) for face in faces] == faces_bruteforce(d)
        for bad in (-1, len(d.edges), "0"):
            with pytest.raises(DiagramError, match="not found"):
                d.component_of_edge(bad)

    @given(braid_words(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_from_raw_index_map(self, word, rng):
        # labels off the normal form, crossings out of sorted order
        d = braid_closure(word)
        raw = [([7 + 3 * e for e in c.edges], c.sign) for c in d.crossings]
        rng.shuffle(raw)
        d, index_map = OrientedLinkDiagram.from_raw(raw)
        labels = dict.fromkeys(e for edges, _ in raw for e in edges)
        rank = {e: i for i, e in enumerate(labels)}
        assert [d.crossings[i] for i in index_map] == [
            Crossing(tuple(rank[e] for e in edges), s) for edges, s in raw
        ]

    @given(braid_words(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_from_raw_index_map_dense_labels(self, word, rng):
        # labels already 0..E-1, so none are renamed; only the order moves
        d = braid_closure(word)
        raw = [(list(c.edges), c.sign) for c in d.crossings]
        rng.shuffle(raw)
        got, index_map = OrientedLinkDiagram.from_raw(raw, d.free_loops)
        assert got == d
        assert sorted(index_map) == list(range(d.n_crossings))
        assert [got.crossings[i] for i in index_map] == [
            Crossing(tuple(edges), s) for edges, s in raw
        ]

    @pytest.mark.parametrize("relabel", [False, True])
    def test_from_raw_reads_any_iterable_once(self, relabel):
        # reading the rows of an iterator twice found the signs in an
        # empty one: a bare IndexError
        d = braid_closure(torus_braid(3, 4))
        rows = [([7 + 3 * e if relabel else e for e in c.edges], c.sign) for c in d.crossings]
        want = OrientedLinkDiagram.from_raw(rows)
        edges, signs = zip(*rows)
        assert OrientedLinkDiagram.from_raw(iter(rows)) == want
        assert OrientedLinkDiagram.from_raw(zip(edges, signs)) == want
        with pytest.raises(DiagramError, match="raw crossings must be"):
            OrientedLinkDiagram.from_raw(None)

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("flip", [False, True])
    def test_from_raw_refuses_repeated_crossing(self, relabel, flip):
        # a repeated crossing gives its edges a second head and tail
        d = braid_closure(torus_braid(3, 2))
        raw = [([7 + 3 * e if relabel else e for e in c.edges], c.sign) for c in d.crossings]
        edges, sign = raw[1]
        raw.insert(0, (edges, -sign if flip else sign))
        with pytest.raises(DiagramError):
            OrientedLinkDiagram.from_raw(raw)


# every corpus member at |n| <= 2, up to 150 crossings
CORPUS_MEMBERS = [
    twist(f, n) for _, f in load_corpus().items() for n in range(-2, 3)
]


def unsigned_text(d, rng, keep=0.0):
    """PD text of ``d`` with the crossings shuffled, the edges renamed to
    shuffled non-decimal labels and each sign kept with chance ``keep``.

    Returns the text and whether the kept signs and the under-passes
    orient every component: each one passes under somewhere or over at a
    signed crossing.
    """
    names = [f"e{k}" for k in range(2 * d.n_crossings)]
    rng.shuffle(names)
    crossings = list(d.crossings)
    rng.shuffle(crossings)
    pinned = set()
    parts = []
    for c in crossings:
        signed = rng.random() < keep
        pinned.add(d.component_of_edge(c.edges[0]))
        if signed:
            pinned.add(d.component_of_edge(c.edges[1]))
        sign = ("+" if c.sign > 0 else "-") if signed else ""
        parts.append(f"X{sign}[{','.join(names[e] for e in c.edges)}]")
    parts += ["O[]"] * d.free_loops
    return " ".join(parts), len(pinned) == d.n_components - d.free_loops


class TestUnsignedParse:
    """Unsigned crossings are oriented by walking each strand once."""

    @pytest.mark.parametrize("keep", [0.0, 0.5])
    @given(
        st.one_of(braid_words().map(braid_closure), st.sampled_from(CORPUS_MEMBERS)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_shuffled_codes_parse_to_the_original(self, keep, d, rng):
        text, oriented = unsigned_text(d, rng, keep)
        if oriented:
            assert structurally_equal(parse_pd(text), d)
        else:
            with pytest.raises(ParseError, match="ambiguous orientation"):
                parse_pd(text)

    @pytest.mark.parametrize("seed", range(10))
    def test_shuffled_torus_7_3(self, seed):
        d = twist(load_corpus()["torus_q3"], 1)
        assert d.n_crossings == 14
        text, oriented = unsigned_text(d, random.Random(seed))
        assert oriented
        assert structurally_equal(parse_pd(text), d)

    def test_one_construction_per_parse(self, monkeypatch):
        built = []
        place = OrientedLinkDiagram._placed

        def counting(self, rows, free_loops):
            built.append(self)  # counted even if validation then raises
            return place(self, rows, free_loops)

        monkeypatch.setattr(OrientedLinkDiagram, "_placed", counting)
        d = braid_closure(BraidWord.from_ints(3, [1, -2, 1, -2, 1]))
        text, _ = unsigned_text(d, random.Random(0))
        built.clear()
        back = parse_pd(text)
        assert len(built) == 1
        assert structurally_equal(back, d)

    @pytest.mark.parametrize(
        "text, error",
        [
            # the under-strand leaving crossing 0 enters crossing 1 at slot 2
            ("X[a,b,c,d] X[d,a,c,b]", "orientation inconsistency"),
            # the kink's strand enters its over-slot against the sign
            ("X+[a,b,b,a] X[c,d,d,c]", "orientation inconsistency"),
            ("X[a,b,c,d] X[a,b,c,e]", "edge multiplicity"),
            # classical code: loop 1-2 lies over loop 3-4, and its serial
            # hints disagree, as they do on every two-edge strand
            ("X[1,3,2,4] X[2,3,1,4]", "ambiguous orientation"),
            # signed texts, validated with their own labels: x occurs three
            # times and w once, so the first-seen ranks are still 0..3
            ("X+[x,y,z,x] X-[w,x,y,z]", "^edge multiplicity: edge 0 occurs 3 times$"),
            # d and e occur once, so the ranks run to 4, past E - 1 = 3
            ("X+[a,b,c,d] X+[e,a,b,c]", "^edge multiplicity: edge 3 occurs 1 times$"),
            # a 1-based classical code, counted from 0: label 2 is edge 1
            ("X-[1,4,2,5] X-[3,6,4,1] X+[5,2,6,3]",
             "^orientation inconsistency: edge 1 leaves twice$"),
        ],
    )
    def test_unorientable_input(self, text, error):
        with pytest.raises(DiagramError, match=error):
            parse_pd(text)

    @pytest.mark.parametrize(
        "text, signed",
        [
            # the closure of s1 s1^-1 s1 s1^-1: the strand over all four
            # crossings is labelled 1-4, and its serial labels fall along
            # the walk, so the walk's orientation is reversed
            (
                "X[5,3,6,4] X[6,3,7,2] X[7,1,8,2] X[8,1,5,4]",
                "X-[5,3,6,4] X+[6,3,7,2] X-[7,1,8,2] X+[8,1,5,4]",
            ),
            # the same diagram with the labels rising along the walk
            (
                "X[5,2,6,1] X[6,2,7,3] X[7,4,8,3] X[8,4,5,1]",
                "X+[5,2,6,1] X-[6,2,7,3] X+[7,4,8,3] X-[8,4,5,1]",
            ),
        ],
    )
    def test_over_only_strand_follows_its_serial_labels(self, text, signed):
        assert parse_pd(text) == parse_pd(signed)
