from itertools import count, product

import pytest

from twistknots.braids import (
    BraidWord,
    _closure_crossing,
    braid_closure,
    braid_strand_crossings,
    torus_braid,
)
from twistknots.diagram import DiagramError

from .oracles import closure_crossing_table, jones_bruteforce


class TestBraidWord:
    def test_empty_word_allowed(self):
        w = BraidWord(3)
        assert len(w) == 0
        assert w.cycle_count() == 3

    def test_index_range_checked(self):
        with pytest.raises(DiagramError):
            BraidWord(2, ((2, 1),))

    @pytest.mark.parametrize("strands", [3.0, "3", True, None, 0])
    def test_strand_count_must_be_a_positive_int(self, strands):
        with pytest.raises(DiagramError, match="strands"):
            BraidWord(strands)

    @pytest.mark.parametrize(
        "letter", [(1.7, 1), ("x", 1), (1, 1.0), (True, 1), (1, True), (1,), (1, 1, 1), 1, None]
    )
    def test_letters_must_be_int_pairs(self, letter):
        # a float or bool letter was coerced by int() before
        with pytest.raises(DiagramError, match="letter"):
            BraidWord(3, (letter,))

    def test_letter_sign_must_be_one(self):
        with pytest.raises(DiagramError, match="letter sign must be"):
            BraidWord(2, ((1, 2),))

    def test_words_on_different_strand_counts_do_not_concatenate(self):
        with pytest.raises(DiagramError, match="different strand counts"):
            BraidWord(2) * BraidWord(3)

    @pytest.mark.parametrize("other", [3, None, ((1, 1),)])
    def test_words_concatenate_only_with_words(self, other):
        # these raised a bare AttributeError before
        with pytest.raises(DiagramError, match="concatenate a braid word"):
            BraidWord(2) * other

    def test_letters_must_be_a_sequence(self):
        with pytest.raises(DiagramError, match="letters"):
            BraidWord(3, 5)

    def test_list_letters_are_kept_as_tuples(self):
        assert BraidWord(3, [[1, 1], (2, -1)]).letters == ((1, 1), (2, -1))

    @pytest.mark.parametrize("p, q", [(2, 1.5), (1.5, 2), (True, 2), (2, "3"), (-1, 2), (2, 0)])
    def test_torus_braid_needs_int_p_and_q(self, p, q):
        # the floats raised a bare TypeError before, and p = -1 gave the empty word
        with pytest.raises(DiagramError, match="torus braid"):
            torus_braid(p, q)

    def test_torus_braid_shape(self):
        w = torus_braid(4, 3)
        assert w.strands == 3
        assert len(w) == 8
        assert all(s == 1 for _, s in w.letters)


class TestClosure:
    def test_hopf_link(self):
        d = braid_closure(torus_braid(2, 2))
        assert d.n_crossings == 2
        assert d.n_components == 2
        assert d.linking_number(0, 1) == 1

    def test_identity_braid_closes_to_unlink(self):
        d = braid_closure(BraidWord(2))
        assert d.n_crossings == 0
        assert d.n_components == 2
        assert d.free_loops == 2

    def test_t43_closure(self):
        d = braid_closure(torus_braid(4, 3))
        assert d.n_crossings == 8
        assert d.n_components == 1

    def test_crossing_count_equals_word_length(self):
        w = BraidWord.from_ints(3, [1, -2, 1, 1, -2])
        assert braid_closure(w).n_crossings == 5

    def test_untouched_lane_keeps_its_label(self):
        # lane 2 meets no letter, so it cannot go from label 2 to label 7
        with pytest.raises(DiagramError, match="untouched lane"):
            braid_strand_crossings(((1, 1),), [0, 1, 2], [5, 6, 7], [True] * 3, count(10))

    def test_untouched_strand_becomes_free_loop(self):
        d = braid_closure(BraidWord.from_ints(3, [1, 1]))
        assert d.free_loops == 1
        assert d.n_components == 3

    def test_writhe_is_letter_sign_sum(self):
        w = BraidWord.from_ints(3, [1, -2, 1, -2])
        assert braid_closure(w).writhe() == 0

    def test_positive_and_negative_hopf_differ(self):
        pos = braid_closure(torus_braid(2, 2))
        neg = braid_closure(BraidWord.from_ints(2, [-1, -1]))
        assert pos.linking_number(0, 1) == 1
        assert neg.linking_number(0, 1) == -1
        assert jones_bruteforce(pos) != jones_bruteforce(neg)

    @pytest.mark.parametrize("sgn,a_up,b_up", product((1, -1), (True, False), (True, False)))
    def test_letter_rules_match_the_table(self, sgn, a_up, b_up):
        ports = ("lo", "hi", "new_lo", "new_hi")  # four distinct labels
        assert _closure_crossing(sgn, a_up, b_up, *ports) == closure_crossing_table(
            sgn, a_up, b_up, *ports
        )
