import hashlib
import logging
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistknots.braids import BraidWord, braid_closure, braid_closure_with_arcs
from twistknots.corpus import chain_family, load_corpus
from twistknots.diagram import (
    Crossing,
    DiagramError,
    OrientedLinkDiagram,
    _row,
    parse_pd,
    serialize,
    structurally_equal,
)
from twistknots.families import twist, untwist_schedule
from twistknots.invariants import kauffman_bracket_jones
from twistknots.moves import (
    Move,
    _edited,
    _kink,
    _r2_wiring,
    greedy_simplify,
    r1_additions,
    r2_additions,
    r3_moves,
    reidemeister_moves,
    removals,
)

from .oracles import (
    greedy_simplify_stepwise,
    jones_bruteforce,
    r2_additions_bruteforce,
    r3_moves_bruteforce,
    removals_bruteforce,
    replay_removals,
)
from .test_diagram import SWEPT_FAMILIES, braid_words


def _triples(moves):
    """Moves as ``(kind, site, result)`` triples, each result read."""
    return [(m.kind, m.site, m.result) for m in moves]


class TestR1:
    def test_kink_has_removal(self, kink_negative):
        moves = [m for m in reidemeister_moves(kink_negative) if m.kind == "R1-"]
        assert moves
        assert all(m.result.n_crossings == 0 for m in moves)
        assert all(m.result.n_components == 1 for m in moves)

    def test_addition_then_removal(self, trefoil_right):
        adds = [m for m in reidemeister_moves(trefoil_right) if m.kind == "R1+"]
        assert adds
        for m in adds[:4]:
            assert m.result.n_crossings == 4
            back = [x for x in removals(m.result) if x.kind == "R1-"]
            assert any(
                structurally_equal(x.result, trefoil_right) for x in back
            )

    def test_kink_sign_options(self):
        d = OrientedLinkDiagram.unknot()
        adds = [m for m in reidemeister_moves(d) if m.kind == "R1+"]
        writhes = {m.result.writhe() for m in adds}
        assert writhes == {1, -1}


class TestR2:
    def test_hopf_after_change_is_r2_removable(self, hopf_positive):
        changed = hopf_positive.change_crossings([0])
        moves = [m for m in removals(changed) if m.kind == "R2-"]
        assert moves
        result = moves[0].result
        assert result.n_crossings == 0
        assert result.n_components == 2

    def test_braid_sigma_sigma_inverse(self):
        d = braid_closure(BraidWord.from_ints(2, [1, -1]))
        moves = [m for m in removals(d) if m.kind == "R2-"]
        assert moves
        assert moves[0].result.n_crossings == 0
        assert moves[0].result.n_components == 2

    def test_trefoil_has_no_decreasing_move(self, trefoil_right):
        # exhaustive enumeration: no R1 or R2 removal exists
        assert removals(trefoil_right) == []

    def test_additions_exist_and_preserve_components(self, trefoil_right):
        adds = [m for m in reidemeister_moves(trefoil_right) if m.kind == "R2+"]
        assert adds
        for m in adds:
            assert m.result.n_crossings == 5
            assert m.result.n_components == 1

    def test_zero_crossing_unknot_moves(self):
        d = OrientedLinkDiagram.unknot()
        kinds = {m.kind for m in reidemeister_moves(d)}
        assert kinds == {"R1+", "R2+"}


def _small_corpus_members():
    for name, f in load_corpus().items():
        for n in range(-2, 3):
            d = twist(f, n)
            if d.n_crossings <= 16:
                yield f"{name}/n={n}", d


class TestR2AdditionsOracle:
    """Only planar wirings are built; generate-and-reject gives the same
    moves (kinds, sites, results) in the same order."""

    def test_corpus_members(self):
        for tag, d in _small_corpus_members():
            assert _triples(r2_additions(d)) == r2_additions_bruteforce(d), tag

    def test_seeded_walks(self):
        # removals and R3 first, so the walks reach free loops
        for tag, d in _small_corpus_members():
            rng = random.Random(tag)
            for step in range(2):
                moves = removals(d) + r3_moves(d)
                d = rng.choice(moves or list(r2_additions(d))).result
                assert _triples(r2_additions(d)) == r2_additions_bruteforce(d), (tag, step)

    @given(braid_words(), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_braid_closures_with_free_loops(self, word, loops):
        d = braid_closure(word).disjoint_union(OrientedLinkDiagram.unknot(loops))
        assert _triples(r2_additions(d)) == r2_additions_bruteforce(d)


def _removals(d):
    return _triples(removals(d))


class TestRemovalsOracle:
    """Kinks and bigons found and spliced out on the dart mate array give
    the moves (kinds, sites, results) that edge labels, brute-force faces
    and ``_spliced`` give, in the same order."""

    def test_corpus_members(self):
        for tag, d in _small_corpus_members():
            assert _removals(d) == removals_bruteforce(d), tag

    def test_untwisted_members(self):
        # the untwist changes leave bigons to remove
        fams = load_corpus()
        for f in (fams["torus_q2"], fams["torus_q3"], chain_family(3), chain_family(4)):
            for n in (1, 2):
                d = _untwisted(f, n)
                moves = _removals(d)
                assert any(kind == "R2-" for kind, _, _ in moves)
                assert moves == removals_bruteforce(d), (f.name, n)

    def test_seeded_walks(self):
        # any move may come next, so the walks pick up kinks and bigons
        for tag, d in _small_corpus_members():
            rng = random.Random(tag)
            for step in range(3):
                d = parse_pd(serialize(rng.choice(reidemeister_moves(d)).result))
                assert _removals(d) == removals_bruteforce(d), (tag, step)

    @given(braid_words(), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_braid_closures_with_free_loops(self, word, loops):
        d = braid_closure(word).disjoint_union(OrientedLinkDiagram.unknot(loops))
        assert _removals(d) == removals_bruteforce(d)


class TestR3Oracle:
    """Triangles found on dart codes and slid on the per-dart label array
    give the moves (kinds, sites, results) that edge labels, brute-force
    faces and an updated crossing list give, in the same order."""

    def test_corpus_members(self):
        found = 0
        for tag, d in _small_corpus_members():
            want = r3_moves_bruteforce(d)
            assert _triples(r3_moves(d)) == want, tag
            found += len(want)
        assert found

    def test_seeded_walks(self):
        for tag, d in _small_corpus_members():
            rng = random.Random(tag)
            for step in range(3):
                d = parse_pd(serialize(rng.choice(reidemeister_moves(d)).result))
                assert _triples(r3_moves(d)) == r3_moves_bruteforce(d), (tag, step)

    @given(braid_words(), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_braid_closures_with_free_loops(self, word, loops):
        d = braid_closure(word).disjoint_union(OrientedLinkDiagram.unknot(loops))
        assert _triples(r3_moves(d)) == r3_moves_bruteforce(d)


class TestLazyResults:
    """Enumeration builds nothing; each result is built once, on first read."""

    def test_one_construction_per_result_read(self, monkeypatch):
        built, made = [], []
        place, check = OrientedLinkDiagram._placed, Crossing.__new__

        def counting(self, rows, free_loops):
            built.append(self)  # counted even if validation then raises
            return place(self, rows, free_loops)

        def counting_crossings(cls, edges, sign):
            made.append((edges, sign))
            return check(cls, edges, sign)

        def counting_rows(edges, sign):
            made.append((edges, sign))
            return _row(edges, sign)

        # every construction passes through the placement step, and every
        # row is built checked or by the unchecked builder
        monkeypatch.setattr(OrientedLinkDiagram, "_placed", counting)
        monkeypatch.setattr(Crossing, "__new__", counting_crossings)
        monkeypatch.setattr("twistknots.moves._row", counting_rows)
        # a triangle, a bigon, a kink and two free loops: every builder runs
        d = (
            braid_closure(BraidWord.from_ints(4, [1, 2, 1, 3, -3]))
            .disjoint_union(braid_closure(BraidWord.from_ints(2, [1])))
            .disjoint_union(OrientedLinkDiagram.unknot(2))
        )
        built.clear()
        made.clear()
        moves = reidemeister_moves(d)
        assert built == [] and made == []
        assert {m.kind for m in moves} == {"R1-", "R2-", "R3", "R1+", "R2+"}
        for m in moves:
            m.result
        assert len(built) == len(moves)
        # a second read returns the diagram the first one built
        assert all(m.result is b for m, b in zip(moves, built))
        assert len(built) == len(moves)

    def test_every_result_is_placed_once_and_skips_the_constructor(self, monkeypatch):
        # a triangle, a bigon, a kink and a free loop: every kind of move
        d = (
            braid_closure(BraidWord.from_ints(4, [1, 2, 1, 3, -3]))
            .disjoint_union(braid_closure(BraidWord.from_ints(2, [1])))
            .disjoint_union(OrientedLinkDiagram.unknot(1))
        )
        found = reidemeister_moves(d)
        first = {m.kind: m for m in reversed(found)}
        assert set(first) == {"R1-", "R2-", "R3", "R1+", "R2+"}
        untwisted = _untwisted(chain_family(3), 2)
        # lane 3 meets no letter: the closure has a free loop, arc -1
        word, arcs = BraidWord.from_ints(4, [1, 2, -1, 2]), []
        placed, place = [], OrientedLinkDiagram._placed

        def counting(self, rows, free_loops):
            placed.append(self)
            return place(self, rows, free_loops)

        def refused(self):
            raise AssertionError("a derived diagram went through the constructor")

        def checked(cls, edges, sign):
            raise AssertionError("a derived row went through the Crossing checks")

        def closure():
            result, lanes = braid_closure_with_arcs(word)
            arcs.append(lanes)
            return result

        monkeypatch.setattr(OrientedLinkDiagram, "_placed", counting)
        monkeypatch.setattr(OrientedLinkDiagram, "__post_init__", refused)
        monkeypatch.setattr(Crossing, "__new__", checked)
        builds = {
            "mirror": d.mirror,
            "change_crossings": lambda: d.change_crossings([0, 2]),
            "disjoint_union": lambda: d.disjoint_union(d),
            **{kind: lambda m=m: m.result for kind, m in first.items()},
            "greedy_simplify": lambda: greedy_simplify(untwisted)[0],
            "braid_closure": closure,
        }
        for name, build in builds.items():
            placed.clear()
            result = build()
            assert len(placed) == 1 and placed[0] is result, name
        assert arcs == [[3, 0, 4, -1]]

    @staticmethod
    def _check_read_order(d):
        """Results read forwards, in reverse, and as each move is yielded
        (before the enumeration moves on) are the same valid diagrams."""
        forwards, backwards = reidemeister_moves(d), reidemeister_moves(d)
        for m in reversed(backwards):
            m.result
        assert _triples(forwards) == _triples(backwards)
        kinds = (removals, r3_moves, r1_additions, r2_additions)
        at_yield = [(m.kind, m.site, m.result) for kind in kinds for m in kind(d)]
        assert _triples(forwards) == at_yield
        for m in forwards:
            assert parse_pd(serialize(m.result)) == m.result, (m.kind, m.site)

    def test_read_order_corpus_members(self):
        for _, d in _small_corpus_members():
            self._check_read_order(d)

    @given(braid_words(), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_read_order_braid_closures(self, word, loops):
        self._check_read_order(
            braid_closure(word).disjoint_union(OrientedLinkDiagram.unknot(loops))
        )

    def test_builder_fault_raises_on_read(self, trefoil_right):
        # an edit that leaves edge 0 with one occurrence
        move = Move("R3", (), _edited, trefoil_right, ((0, 9),), (), (), 0)
        for _ in range(2):
            with pytest.raises(DiagramError):
                move.result

    @staticmethod
    def _faulty_results(kind, match, d):
        """Every ``kind`` result of ``d`` but the self-loop pushes raises
        ``DiagramError`` matching ``match`` on every read."""
        faulty = [
            m for m in reidemeister_moves(d) if m.kind == kind and m.site[0] != "self_loop"
        ]
        assert faulty
        for m in faulty:
            for _ in range(2):
                with pytest.raises(DiagramError, match=match):
                    m.result

    def test_swapped_wiring_slots_raise_on_read(self, monkeypatch, trefoil_right):
        def swapped(over, under, k):
            first, second = _r2_wiring(over, under, k)
            a, b, c, e = first.edges
            return Crossing((c, b, a, e), first.sign), second

        monkeypatch.setattr("twistknots.moves._r2_wiring", swapped)
        d = trefoil_right.disjoint_union(OrientedLinkDiagram.unknot(2))
        self._faulty_results("R2+", "orientation inconsistency", d)

    def test_kink_label_beyond_range_raises_on_read(self, monkeypatch, trefoil_right):
        # the loop edge labelled 2V + 2: every label occurs twice, once in
        # and once out, and 2V is left out
        monkeypatch.setattr(
            "twistknots.moves._kink", lambda kind, e, loop, m: _kink(kind, e, loop + 2, m)
        )
        d = trefoil_right.disjoint_union(OrientedLinkDiagram.unknot(1))
        self._faulty_results("R1+", "edge label 8 outside 0..7", d)


class TestDenseResultsSkipNormalization:
    """R1+, R2+ and R3 results, and the results of ``change_crossings``,
    ``mirror`` and ``disjoint_union``, keep the labels ``0..E-1`` and go
    straight to the placement step through ``_of_rows``: the
    constructor's relabelling, which they skip, would leave them as they
    are."""

    @given(braid_words().map(braid_closure), st.integers(0, 2))
    @example(braid_closure(BraidWord(2, ((1, 1),))), 2)
    # members with triangles, so with R3 moves
    @example(twist(load_corpus()["torus_q3"], 2), 0)
    @example(twist(load_corpus()["largewrap_w0_p4"], 1), 1)
    @settings(max_examples=40, deadline=None)
    def test_constructor_keeps_results(self, base, loops):
        d = base.disjoint_union(OrientedLinkDiagram.unknot(loops))
        fresh0 = 2 * d.n_crossings
        moves = [*r3_moves(d), *r1_additions(d), *r2_additions(d)]
        derived = {
            "mirror": d.mirror(),
            "change_crossings": d.change_crossings(range(0, d.n_crossings, 2)),
            "disjoint_union": base.disjoint_union(d),
        }
        results = [(m.site, m.result) for m in moves] + list(derived.items())
        for site, result in results:
            built = OrientedLinkDiagram(result.crossings, result.free_loops)
            assert result == built, site
            for name in ("_tail", "_head", "_comp", "_components", "_face_of"):
                assert getattr(result, name) == getattr(built, name), (site, name)
        for m in moves:
            if m.site[0] == "two_loops":
                # the second loop once took labels 2V + 4, 2V + 5, which the
                # constructor renamed
                m1, m2, n1, n2 = fresh0, fresh0 + 1, fresh0 + 4, fresh0 + 5
                pair = _r2_wiring((m2, m1, m2), (n2, n1, n2), m.site[1])
                old = OrientedLinkDiagram(d.crossings + pair, d.free_loops - 2)
                assert structurally_equal(m.result, old), m.site


class TestMoveLog:
    def test_logs_one_record_per_call(self, caplog, trefoil_right):
        d = trefoil_right.disjoint_union(OrientedLinkDiagram.unknot(1))
        with caplog.at_level(logging.DEBUG, logger="twistknots.moves"):
            moves = reidemeister_moves(d)
        (record,) = caplog.records
        assert record.name == "twistknots.moves"
        assert record.levelno == logging.DEBUG
        crossings, *counts, seconds = record.args
        kinds = [m.kind for m in moves]
        assert crossings == 3 and seconds >= 0
        assert counts == [kinds.count(k) for k in ("R1-", "R2-", "R3", "R1+", "R2+")]
        assert sum(counts) == len(moves) and counts[3] > 0


class TestR3:
    def test_trefoil_braid_with_triangle(self):
        # sigma_1 sigma_2 sigma_1 closure has an R3-movable triangle
        d = braid_closure(BraidWord.from_ints(3, [1, 2, 1]))
        moves = list(r3_moves(d))
        assert moves
        j = kauffman_bracket_jones(d)
        for m in moves:
            assert m.result.n_crossings == d.n_crossings
            assert m.result.writhe() == d.writhe()
            assert kauffman_bracket_jones(m.result) == j

    def test_alternating_triangle_blocked(self, trefoil_right):
        # the standard trefoil's triangles have the cyclic over-pattern
        assert list(r3_moves(trefoil_right)) == []


def _check_greedy(d: OrientedLinkDiagram) -> OrientedLinkDiagram:
    """Greedy's result, once its trace replays to it, no removal is left,
    and the stepwise greedy ends at as many crossings and the same Jones."""
    result, trace = greedy_simplify(d)
    assert structurally_equal(replay_removals(d, trace), result)
    assert removals_bruteforce(result) == []
    stepwise, _ = greedy_simplify_stepwise(d)
    assert result.n_crossings == stepwise.n_crossings
    if result.n_components:
        assert kauffman_bracket_jones(result) == kauffman_bracket_jones(stepwise)
    return result


def _untwisted(f, n):
    return twist(f, n).change_crossings(untwist_schedule(f, n))


def _first_step_inputs():
    """Seeded braid closures, some beside a second closure, with up to
    two free loops; then the untwisted members of the coherent sweep
    families at n = 1..5."""
    rng = random.Random(39)

    def closure():
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 10))]
        return braid_closure(BraidWord.from_ints(strands, word))

    for i in range(400):
        d = closure().disjoint_union(closure()) if i % 3 == 0 else closure()
        yield f"closure {i}", d.disjoint_union(OrientedLinkDiagram.unknot(i % 3))
    for name in ("torus_q2", "torus_q3", "chain_3", "chain_4"):
        for n in range(1, 6):
            yield f"{name} n={n}", _untwisted(SWEPT_FAMILIES[name], n)


# (steps, crossings out, the first 16 hex digits of the sha256 of
# repr(trace)) of greedy_simplify on each untwisted sweep input, n = 1..13
PINNED_GREEDY_UNTWISTED = {
    "torus_q2": [(1, 3, 'f8c62862dfb9baca'), (2, 3, 'aac6ba97a02c3d35'), (3, 3, 'b417b2ac9abd0874'),
                 (4, 3, '31baf326993a8e2f'), (5, 3, '2aff6b8410b4f840'), (6, 3, '6eae234f006df997'),
                 (7, 3, 'ebae7994278085a7'), (8, 3, 'c56e0f170d32fb5c'), (9, 3, 'a7ba5e6907b63038'),
                 (10, 3, 'e25119ef8596b5d0'), (11, 3, '8b3a2ef5f3d52522'),
                 (12, 3, '475ddccef1cae8ae'), (13, 3, '85818f6c4897cea1')],
    "torus_q3": [(3, 8, '065473a553307da4'), (6, 8, '17901c506646b281'), (9, 8, '8b051eaa8ef93026'),
                 (12, 8, 'fb1d198e12d4b65e'), (15, 8, '01a9cdc69a01aada'),
                 (18, 8, '71d09b8f1d2b8958'), (21, 8, '4646297e572a7741'),
                 (24, 8, '38094d41c953c6aa'), (27, 8, '255d161220511ec4'),
                 (30, 8, '4a9bb5f03b3641f8'), (33, 8, '18938334f327f823'),
                 (36, 8, '86e9c813f4b6c920'), (39, 8, '4f76288a0d332744')],
    "chain_3": [(3, 4, '65fa64cdd65fe404'), (6, 4, 'c72043c2a72a3fa4'), (9, 4, '2d16e41df6452418'),
                (12, 4, 'ff880938b560ce41'), (15, 4, '5665b23ce4bb0517'),
                (18, 4, 'ec1482c5f91b94a8'), (21, 4, '5576f762575acb7f'),
                (24, 4, '2bd084628a70d174'), (27, 4, '20373f1696dec78e'),
                (30, 4, 'dd0fd36c6429dcfa'), (33, 4, 'fa55a8f9ddf4b6d2'),
                (36, 4, 'b3cd63b7d89aaf72'), (39, 4, 'afc195ed6a76208d')],
    "chain_4": [(6, 6, '8c58f09c062ed27b'), (12, 6, '2773f82ca1084f0b'), (18, 6, 'f8a272564b627f20'),
                (24, 6, 'c4d80a2bd4d820e3'), (30, 6, 'a51855d60dd68d09'),
                (36, 6, '7b6557ac94035e86'), (42, 6, '67b0de9299dd17f0'),
                (48, 6, '53797f7ca5f9c8f6'), (54, 6, '14b00459e696cfc0'),
                (60, 6, '1aa73dbf18b62a7b'), (66, 6, '2acdb73db60379bb'),
                (72, 6, 'f956755500364f11'), (78, 6, '7a9b03dd8a404a1c')],
}

# the same of each corpus member, n = -3..3; '4f53cda18c2baa0c' is no step
PINNED_GREEDY_MEMBERS = {
    "largewrap_w0_p4": [(2, 35, '55184cee74e10177'), (2, 23, '55184cee74e10177'),
                        (2, 11, '55184cee74e10177'), (2, 0, 'e2099556ca1e1e01'),
                        (0, 14, '4f53cda18c2baa0c'), (0, 26, '4f53cda18c2baa0c'),
                        (0, 38, '4f53cda18c2baa0c')],
    "mazur": [(1, 19, '10e23cd673f4d115'), (1, 13, '87c2e2c962e618c3'), (1, 7, '74d3aa6cd3284cff'),
              (3, 0, 'cf28eeae6ba53899'), (0, 9, '4f53cda18c2baa0c'), (0, 15, '4f53cda18c2baa0c'),
              (0, 21, '4f53cda18c2baa0c')],
    "torus_q2": [(3, 3, '1036838e9023adb6'), (4, 0, 'aea3629987f63aa9'), (3, 0, '780afc8899f05f1a'),
                 (0, 3, '4f53cda18c2baa0c'), (0, 5, '4f53cda18c2baa0c'), (0, 7, '4f53cda18c2baa0c'),
                 (0, 9, '4f53cda18c2baa0c')],
    "torus_q3": [(3, 20, 'ae560126dd80c1da'), (3, 14, 'b2f3efc496dbb0bf'),
                 (3, 8, '5d18eda03e7d3390'), (0, 8, '4f53cda18c2baa0c'), (0, 14, '4f53cda18c2baa0c'),
                 (0, 20, '4f53cda18c2baa0c'), (0, 26, '4f53cda18c2baa0c')],
    "whitehead": [(0, 8, '4f53cda18c2baa0c'), (0, 6, '4f53cda18c2baa0c'), (0, 4, '4f53cda18c2baa0c'),
                  (2, 0, 'e2099556ca1e1e01'), (0, 4, '4f53cda18c2baa0c'),
                  (0, 6, '4f53cda18c2baa0c'), (0, 8, '4f53cda18c2baa0c')],
    "wind3_wrap9": [(114, 18, '0af073728f61c163'), (78, 12, 'ccaa4af067bdf6f2'),
                    (42, 6, 'f39718dc5e07d573'), (6, 0, '9f254d0826670107'),
                    (42, 6, '124b7d78d400e51a'), (78, 12, 'e854d8bd5308eae1'),
                    (114, 18, 'f6d30f387816f08b')],
}


def _greedy_pin(d):
    result, trace = greedy_simplify(d)
    return len(trace), result.n_crossings, hashlib.sha256(repr(trace).encode()).hexdigest()[:16]


class TestSimplify:
    def test_greedy_reduces_free_word(self):
        w = BraidWord.from_ints(3, [1, 2, -2, -1, 1, -1])
        d = braid_closure(w)
        simplified, trace = greedy_simplify(d)
        assert simplified.n_crossings == 0
        assert len(trace) >= 3

    def test_trace_replay(self, hopf_positive):
        changed = hopf_positive.change_crossings([0])
        simplified, trace = greedy_simplify(changed)
        assert simplified == OrientedLinkDiagram.unknot(2)
        assert trace == [("R2-", (0, 0, 1, 3))]
        assert replay_removals(changed, trace) == simplified
        _check_greedy(changed)

    def test_trace_replay_corpus_members(self):
        for name, f in load_corpus().items():
            for n in range(-3, 4):
                _check_greedy(twist(f, n))

    def test_traces_pinned(self):
        # which removal greedy takes at each step, not only where it ends
        for name, pins in PINNED_GREEDY_UNTWISTED.items():
            f = SWEPT_FAMILIES[name]
            assert [_greedy_pin(_untwisted(f, n)) for n in range(1, 14)] == pins, name
        assert set(PINNED_GREEDY_MEMBERS) == set(load_corpus())
        for name, pins in PINNED_GREEDY_MEMBERS.items():
            f = SWEPT_FAMILIES[name]
            assert [_greedy_pin(twist(f, n)) for n in range(-3, 4)] == pins, name

    def test_trace_replay_untwisted_sweep_inputs(self):
        fams = load_corpus()
        for f in (fams["torus_q2"], fams["torus_q3"], chain_family(3), chain_family(4)):
            for n in (1, 2, 3):
                assert structurally_equal(_check_greedy(_untwisted(f, n)), f.base)

    @given(braid_words(), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_trace_replay_braid_closures(self, word, loops):
        _check_greedy(braid_closure(word).disjoint_union(OrientedLinkDiagram.unknot(loops)))

    def test_first_step_is_a_listed_removal(self):
        # greedy's trace and removals name a move by the same site
        kinds = set()
        for tag, d in _first_step_inputs():
            _, trace = greedy_simplify(d)
            if trace:
                assert trace[0] in {(m.kind, m.site) for m in removals(d)}, (tag, trace[0])
                kinds.add(trace[0][0])
        assert kinds == {"R1-", "R2-"}

    def test_no_move_returns_input(self, trefoil_right):
        assert greedy_simplify(trefoil_right) == (trefoil_right, [])

    def test_one_validating_construction(self, monkeypatch):
        built = []
        place = OrientedLinkDiagram._placed

        def counting(self, rows, free_loops):
            built.append(self)
            return place(self, rows, free_loops)

        d = _untwisted(chain_family(4), 3)
        monkeypatch.setattr(OrientedLinkDiagram, "_placed", counting)
        result, trace = greedy_simplify(d)
        assert len(trace) == 18
        assert len(built) == 1 and built[0] is result

    def test_long_untwisted_chain_is_fast(self):
        f = chain_family(4)
        d = _untwisted(f, 100)
        start = time.perf_counter()
        result, trace = greedy_simplify(d)
        assert time.perf_counter() - start < 1.0  # stepwise: several seconds
        assert (d.n_crossings, len(trace)) == (1206, 600)
        assert structurally_equal(result, f.base)

    def test_logs_one_record_per_call(self, caplog):
        d = braid_closure(BraidWord.from_ints(3, [1, 2, -2, -1, 1, -1]))
        with caplog.at_level(logging.DEBUG, logger="twistknots.moves"):
            greedy_simplify(d)
        (record,) = caplog.records
        assert record.name == "twistknots.moves"
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith(
            "greedy simplify: 6 crossings in, 3 steps, 0 crossings out, "
        )


class TestJonesInvarianceRandomWalk:
    def test_random_walks_preserve_jones(self):
        rng = random.Random(42)
        for seed_word in ([1, 1, 1], [1, -2, 1, -2], [1, 1]):
            d = braid_closure(BraidWord.from_ints(max(abs(x) for x in seed_word) + 1, seed_word))
            j = jones_bruteforce(d)
            cur = d
            for _ in range(25):
                moves = [
                    m
                    for m in reidemeister_moves(cur)
                    if m.result.n_crossings <= d.n_crossings + 3
                ]
                if not moves:
                    break
                cur = rng.choice(moves).result
                assert kauffman_bracket_jones(cur) == j
