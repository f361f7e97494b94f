import logging
import re
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistknots import families
from twistknots.braids import BraidWord, braid_closure, braid_closure_with_arcs, torus_braid
from twistknots.corpus import (
    BUILDERS,
    chain_family,
    load_corpus,
    mazur_family,
    torus_family,
    whitehead_family,
    wind3_wrap9_family,
)
from twistknots.diagram import DiagramError, parse_pd, serialize, structurally_equal
from twistknots.families import (
    FamilyError,
    ReductionError,
    TwistFamily,
    coherent_reduction,
    family_from_json_dict,
    family_to_json_dict,
    full_twist_braid,
    half_twist_word,
    load_family,
    mirror_family,
    save_family,
    twist,
    twist_with_sites,
    untwist_schedule,
    winding_number,
)
from twistknots.invariants import WIDTH_BUDGET, kauffman_bracket_jones as jones, unlink_jones
from twistknots.moves import (
    greedy_simplify,
    r1_additions,
    r2_additions,
    r3_moves,
    reidemeister_moves,
    removals,
)

from .oracles import jones_bruteforce, twist_bruteforce
from .test_diagram import JSON_VALUES, SWEPT_FAMILIES, braid_words

# the corpus families that coherent_reduction has to reduce
NON_COHERENT = ["whitehead", "mazur", "largewrap_w0_p4", "wind3_wrap9"]

# twist amounts that are not ints; a bool is refused too
NON_INT_AMOUNTS = [True, 1.0, 2.5, "1", None]


def assert_twist_matches_bruteforce(f, n):
    """``twist_with_sites`` and, where defined, ``untwist_schedule`` equal
    the long-way construction of ``twist_bruteforce``."""
    d, base_sites, twist_sites = twist_with_sites(f, n)
    want_d, want_base, want_twist = twist_bruteforce(f, n)
    assert d == want_d
    assert (base_sites, twist_sites) == (want_base, want_twist)
    k = f.eta_hat
    if n != 0 and k == f.omega:
        block = k * (k - 1)
        want = sorted(
            want_twist[b * block + p] for b in range(abs(n)) for p in range(block // 2, block)
        )
        assert untwist_schedule(f, n) == want


class TestWinding:
    def test_torus_families(self):
        assert winding_number(torus_family(3, 2)) == 2
        assert winding_number(torus_family(4, 3)) == 3

    def test_whitehead_zero(self):
        assert winding_number(whitehead_family()) == 0

    @pytest.mark.parametrize(
        "mark", [("x", 1), (1.7, 1), (True, 1), (1, 1.0), (1, False), (1,), (1, 1, 1), 5]
    )
    def test_mistyped_marks_rejected(self, mark):
        with pytest.raises(FamilyError, match="integer edge and sign"):
            TwistFamily(torus_family(3, 2).base, (mark,))

    def test_empty_marks(self):
        f = TwistFamily(torus_family(3, 2).base, ())
        assert winding_number(f) == 0

    def test_mark_listed_twice_rejected(self):
        with pytest.raises(FamilyError, match="marked edge 0 listed twice"):
            TwistFamily(torus_family(3, 2).base, ((0, 1), (0, 1)))

    def test_mark_sign_must_be_one(self):
        with pytest.raises(FamilyError, match="sign must be"):
            TwistFamily(torus_family(3, 2).base, ((0, 2),))

    @pytest.mark.parametrize("base", [None, "abc", 3, "X+[0,0,1,1]"])
    def test_base_must_be_a_diagram(self, base):
        # these raised a bare AttributeError on reading the base's edges
        with pytest.raises(FamilyError, match="base must be an OrientedLinkDiagram"):
            TwistFamily(base, ())

    @pytest.mark.parametrize("name", [5, None, b"fam"])
    def test_name_must_be_a_string(self, name):
        # a name of 5 was accepted, and load_family then refused the
        # file that save_family wrote
        with pytest.raises(FamilyError, match="family name must be a string"):
            TwistFamily(torus_family(3, 2).base, (), name=name)

    def test_parity_invariant(self):
        for fam in load_corpus().values():
            assert (winding_number(fam) - fam.eta_hat) % 2 == 0

    def test_wrapping_bounds(self):
        fams = load_corpus()
        assert fams["wind3_wrap9"].eta_hat == 9
        assert winding_number(fams["wind3_wrap9"]) == 3
        assert fams["torus_q3"].eta_hat == 3
        assert TwistFamily(fams["torus_q2"].base, ()).eta_hat == 0


class TestFullTwistBraid:
    def test_single_strand_never_twists(self):
        assert len(full_twist_braid(1, 5)) == 0

    def test_three_strands_one_turn(self):
        w = full_twist_braid(3, 1)
        assert len(w) == 6
        assert all(s == 1 for _, s in w.letters)
        assert w.permutation() == [0, 1, 2]

    def test_two_strands_negative(self):
        w = full_twist_braid(2, -2)
        assert w.letters == ((1, -1),) * 4

    def test_letter_count_formula(self):
        for k in range(2, 7):
            for n in (1, 2, 3, -1, -2):
                assert len(full_twist_braid(k, n)) == abs(n) * k * (k - 1)

    def test_full_twist_is_pure(self):
        for k in range(2, 6):
            assert full_twist_braid(k, 2).permutation() == list(range(k))

    @pytest.mark.parametrize("turns", NON_INT_AMOUNTS)
    def test_turns_must_be_int(self, turns):
        # 1.5 raised a bare TypeError and True gave one full twist before
        with pytest.raises(FamilyError, match="must be an int"):
            full_twist_braid(3, turns)

    @pytest.mark.parametrize("strands", [3.0, "3", True, None, 0])
    def test_strands_must_be_a_positive_int(self, strands):
        with pytest.raises(DiagramError, match="strands"):
            full_twist_braid(strands, 1)


class TestTwist:
    def test_zero_twist_is_base(self):
        for fam in load_corpus().values():
            assert twist(fam, 0) == fam.base

    def test_two_strand_unlink_gives_hopf(self):
        base, arcs = braid_closure_with_arcs(BraidWord.from_ints(2, [1, -1]))
        f = TwistFamily(base, tuple((a, 1) for a in arcs))
        got = jones(twist(f, 1))
        assert got == jones_bruteforce(braid_closure(torus_braid(2, 2)))

    def test_torus_step(self):
        f = torus_family(3, 2)
        assert jones(twist(f, 1)) == jones_bruteforce(braid_closure(torus_braid(5, 2)))

    def test_crossing_count_arithmetic(self):
        for fam in load_corpus().values():
            eta = fam.eta_hat
            for n in (-2, -1, 1, 2):
                if fam.base.n_crossings + abs(n) * eta * (eta - 1) > 90:
                    continue
                t = twist(fam, n)
                assert (
                    t.n_crossings - fam.base.n_crossings
                    == abs(n) * eta * (eta - 1)
                )


    @pytest.mark.parametrize("name", sorted(SWEPT_FAMILIES))
    def test_matches_bruteforce(self, name):
        # |n| >= 4 repeats the box plan's middle block; the long twists
        # are left to the families on at most four strands
        f = SWEPT_FAMILIES[name]
        far = range(7, 21) if f.eta_hat <= 4 else ()
        for n in [*range(-6, 7), *far, *(-n for n in far)]:
            assert_twist_matches_bruteforce(f, n)

    def test_one_mark_family_keeps_the_base(self):
        f = chain_family(3)
        g = TwistFamily(f.base, f.marked_edges[:1])
        for n in (3, -3):
            assert_twist_matches_bruteforce(g, n)
            assert twist(g, n) == g.base

    @given(braid_words(max_strands=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_braid_closure_families_match_bruteforce(self, word, data):
        # a run of neighbouring closure arcs, passing the disk together
        base, arcs = braid_closure_with_arcs(word)
        lo = data.draw(st.integers(0, word.strands - 1))
        hi = data.draw(st.integers(lo + 1, word.strands))
        marks = tuple((a, 1) for a in arcs[lo:hi] if a >= 0)
        f = TwistFamily(base, marks)
        for n in data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3)):
            assert_twist_matches_bruteforce(f, n)

    @pytest.mark.parametrize("amount", NON_INT_AMOUNTS)
    def test_non_int_amount_rejected(self, amount):
        f = chain_family(3)
        for fn in (twist, twist_with_sites, untwist_schedule):
            with pytest.raises(FamilyError, match="must be an int"):
                fn(f, amount)
        # a family with one mark builds no twist, but the amount is still checked
        with pytest.raises(FamilyError, match="must be an int"):
            twist(TwistFamily(f.base, f.marked_edges[:1]), amount)

    @pytest.mark.parametrize("family", [None, SWEPT_FAMILIES["chain_3"].base, 3])
    @pytest.mark.parametrize("fn", [twist, twist_with_sites, untwist_schedule, coherent_reduction])
    def test_non_family_rejected(self, fn, family):
        # None raised a bare AttributeError in each of them
        args = (family,) if fn is coherent_reduction else (family, 1)
        with pytest.raises(FamilyError, match="expected a TwistFamily"):
            fn(*args)

    def test_box_plan_spliced_once(self, monkeypatch):
        # per sign, the |n| = 1 rows (construction splices n = 1) and one
        # |n| = 3 splice serve every member and schedule
        real = families._splice
        seen = []

        def counted(g, n):
            seen.append(n)
            return real(g, n)

        monkeypatch.setattr(families, "_splice", counted)
        f = chain_family(4)
        for n in range(-20, 21):
            twist(f, n)
            if n >= 1:
                untwist_schedule(f, n)
        assert sorted(seen) == [-3, -1, 1, 3]
        # the plan the family holds leaves its identity untouched
        fresh = TwistFamily(f.base, f.marked_edges, f.name)
        assert f == fresh
        assert hash(f) == hash(fresh)
        assert repr(f) == repr(fresh)
        assert family_to_json_dict(f) == family_to_json_dict(fresh)


class TestSchedule:
    def test_lengths(self):
        assert len(untwist_schedule(chain_family(3), 1)) == 3
        assert len(untwist_schedule(chain_family(5), 2)) == 20
        one_strand = TwistFamily(torus_family(3, 2).base, ((0, 1),))
        assert untwist_schedule(one_strand, 3) == []

    def test_non_coherent_rejected(self):
        with pytest.raises(FamilyError):
            untwist_schedule(whitehead_family(), 1)

    def test_zero_amount_rejected(self):
        with pytest.raises(FamilyError, match="n != 0"):
            untwist_schedule(torus_family(3, 2), 0)

    def test_length_formula_sweep(self):
        for omega in range(2, 7):
            f = chain_family(omega)
            for n in (*range(1, 5), *range(-1, -14, -1)):
                assert len(untwist_schedule(f, n)) == abs(n) * omega * (omega - 1) // 2

    def test_untwist_recovers_base_bracket(self):
        for omega in (2, 3, 4):
            f = chain_family(omega)
            base_j = jones(f.base)
            for n in (1, 2, 3, *range(-1, -14, -1)):
                t = twist(f, n)
                changed = t.change_crossings(untwist_schedule(f, n))
                simp, _ = greedy_simplify(changed)
                assert simp.n_crossings <= f.base.n_crossings
                assert jones(simp) == base_j, (omega, n)


    @pytest.mark.parametrize("name", ["torus_q2", "torus_q3", "chain_3", "chain_4"])
    def test_negative_amounts_untwist_to_the_base(self, name):
        # the blocks of a negative twist are flipped half twists and their
        # reverses, whose second halves cancel the first just the same
        f = SWEPT_FAMILIES[name]
        base, _ = greedy_simplify(f.base)
        for n in (-1, -2, -3, -5, -8, -13):
            sites = untwist_schedule(f, n)
            assert len(sites) == -n * f.omega * (f.omega - 1) // 2
            simp, _ = greedy_simplify(twist(f, n).change_crossings(sites))
            assert structurally_equal(simp, base), n
            assert jones(simp) == jones(f.base), n


class TestCoherentReduction:
    def test_already_coherent(self):
        f = torus_family(3, 2)
        red = coherent_reduction(f)
        assert len(red.changes) == 0
        assert red.reduced == f

    def test_whitehead_reduces_to_empty(self):
        f = whitehead_family()
        red = coherent_reduction(f)
        assert red.reduced.eta_hat == 0
        assert len(red.changes) == 1
        for n in (0, 1, 3):
            assert twist(red.reduced, n) == red.reduced.base

    def test_nine_strand_reduces(self):
        f = wind3_wrap9_family()
        red = coherent_reduction(f, certificate_limit=100)
        assert red.reduced.eta_hat == 3
        assert len(red.changes) >= 0

    def test_nine_strand_reduces_within_default_budget(self):
        # 78 crossings at n=1, but a scan width of 7
        red = coherent_reduction(wind3_wrap9_family())
        assert red.reduced.eta_hat == 3

    def test_budget_refusing_every_certificate(self):
        with pytest.raises(ReductionError, match="width budget"):
            coherent_reduction(wind3_wrap9_family(), certificate_limit=6)

    @pytest.mark.parametrize("name", NON_COHERENT)
    def test_twists_a_bounded_number_of_times(self, monkeypatch, name):
        # the family and its reduced family are twisted once each, and the
        # reduced family once more on construction; only a winning
        # nonempty change set builds (and so twists) one more family
        real = families.twist_with_sites
        seen = []

        def counted(g, n):
            seen.append(n)
            return real(g, n)

        monkeypatch.setattr(families, "twist_with_sites", counted)
        f = SWEPT_FAMILIES[name]
        for g in (f, mirror_family(f)):
            seen.clear()
            red = coherent_reduction(g)
            assert seen == [1] * (4 if red.changes else 3), g.name

    def test_candidates_count_the_certificates_checked(self, caplog):
        # each change set checked takes two Jones scans, one per side, and
        # each scan logs one "bracket scan" record; a coherent family
        # checks none
        want = {"torus_q3": 0, "wind3_wrap9": 1, "whitehead": 2, "mazur": 2,
                "largewrap_w0_p4": 2}
        for name, candidates in want.items():
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="twistknots.invariants"):
                red = coherent_reduction(SWEPT_FAMILIES[name])
            assert red.candidates == candidates, name
            scans = [r for r in caplog.records if r.msg.startswith("bracket scan")]
            assert len(scans) == 2 * candidates == len(caplog.records), name

    def test_base_changes_commute_with_twisting(self):
        # coherent_reduction rests on this: it changes the base sites of
        # one twisted diagram per side instead of building a family per
        # change set
        fams = {**load_corpus(), "chain_3": chain_family(3)}
        cases = 0
        for f in fams.values():
            for marks in (f.marked_edges, families._paired_marks(f)):
                g = TwistFamily(f.base, marks)
                twisted = [(n, *twist_with_sites(g, n)[:2]) for n in (1, -1, 2, -2, 3, -3)]
                for k in range(3):
                    for subset in combinations(range(f.base.n_crossings), k):
                        h = TwistFamily(f.base.change_crossings(subset), marks)
                        for n, d, base_sites in twisted:
                            changed = d.change_crossings([base_sites[i] for i in subset])
                            assert structurally_equal(twist(h, n), changed), (f.name, marks, subset, n)
                            cases += 1
        assert cases == 1104

    @pytest.mark.parametrize("name", NON_COHERENT)
    def test_certificate_holds_at_other_twist_amounts(self, name):
        # the search certifies at n = 1 only; the found changes agree at
        # n = +-1..+-3 too
        f = SWEPT_FAMILIES[name]
        for g in (f, mirror_family(f)):
            red = coherent_reduction(g)
            for n in (1, -1, 2, -2, 3, -3):
                d, base_sites, _ = twist_with_sites(g, n)
                changed = d.change_crossings([base_sites[i] for i in red.changes])
                assert jones(changed) == jones(twist(red.reduced, n)), (g.name, n)

    @pytest.mark.parametrize("limit", [None, "x", 1.5, True])
    def test_certificate_limit_must_be_an_int(self, limit):
        # checked up front, also on a family that needs no certificate;
        # 1.5 was accepted and None or "x" raised a bare TypeError
        for f in (whitehead_family(), torus_family(3, 2)):
            with pytest.raises(FamilyError, match="certificate_limit"):
                coherent_reduction(f, certificate_limit=limit)

    def test_negative_certificate_limit_refused_up_front(self):
        # was ReductionError("... raise certificate_limit") from the first
        # scan, and no error at all on a family that needs no certificate
        for f in (whitehead_family(), torus_family(3, 2)):
            with pytest.raises(FamilyError, match="certificate_limit must be an int >= 0") as err:
                coherent_reduction(f, certificate_limit=-1)
            assert not isinstance(err.value, ReductionError)

    def test_winding_preserved(self):
        for fam in (whitehead_family(), mazur_family()):
            red = coherent_reduction(fam)
            assert winding_number(red.reduced) == winding_number(fam)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_pairing_leaves_the_winding_number_of_marks(self, data):
        # a stand-in, since most random mark lists cannot be twisted and
        # TwistFamily refuses them
        base = data.draw(st.sampled_from([f.base for f in SWEPT_FAMILIES.values()]))
        mark = st.tuples(st.sampled_from(base.edges), st.sampled_from([1, -1]))
        g = SimpleNamespace(base=base, marked_edges=tuple(data.draw(st.lists(mark, max_size=10))))
        left = families._paired_marks(g)
        # the winding number of the marks, as winding_number defines it; it
        # refuses the stand-in
        net: dict[int, int] = {}
        for e, s in g.marked_edges:
            c = base.component_of_edge(e)
            net[c] = net.get(c, 0) + s
        assert len(left) == sum(abs(v) for v in net.values())
        signed = {(base.component_of_edge(e), s) for e, s in left}
        assert len(signed) == len({c for c, _ in signed})  # one sign per component


class TestMirrorFamily:
    def test_structural_identity(self):
        for fam in (torus_family(3, 2), whitehead_family()):
            m = mirror_family(fam)
            for n in (-1, 1, 2):
                assert structurally_equal(twist(m, n), twist(fam, -n).mirror()), (
                    fam.name,
                    n,
                )

    def test_structural_identity_all_families(self):
        # the mirror keeps each mark's direction through the twist box;
        # building twist(m, n) validates its planarity
        for fam in load_corpus().values():
            m = mirror_family(fam)
            for n in (-2, -1, 1, 2):
                assert structurally_equal(twist(m, n), twist(fam, -n).mirror()), (
                    fam.name,
                    n,
                )
            mm = mirror_family(m)
            assert (mm.base, mm.marked_edges) == (fam.base, fam.marked_edges)

    def test_winding_preserved(self):
        for fam in load_corpus().values():
            assert winding_number(mirror_family(fam)) == winding_number(fam)

    def test_empty_marks(self):
        f = TwistFamily(torus_family(3, 2).base, ())
        m = mirror_family(f)
        assert m.base == f.base.mirror()
        assert winding_number(m) == 0

    def test_involution(self):
        f = whitehead_family()
        mm = mirror_family(mirror_family(f))
        assert mm.base == f.base
        assert mm.marked_edges == f.marked_edges


class TestConstructionCheck:
    """Every family is twisted once when it is built, however it is built."""

    @pytest.mark.parametrize("name", sorted(SWEPT_FAMILIES))
    def test_one_flipped_mark_refused(self, name):
        # each of these constructed, and twist(f, 1) then failed as non-planar
        f = SWEPT_FAMILIES[name]
        for i, (e, s) in enumerate(f.marked_edges):
            marks = f.marked_edges[:i] + ((e, -s),) + f.marked_edges[i + 1:]
            with pytest.raises(FamilyError, match=re.escape(f"marks {list(marks)} cannot")):
                TwistFamily(f.base, marks)

    # the changes coherent_reduction finds, the same on a family's mirror
    REDUCTION_CHANGES = {
        "chain_3": (), "chain_4": (), "largewrap_w0_p4": (0,), "mazur": (0,),
        "torus_q2": (), "torus_q3": (), "whitehead": (0,), "wind3_wrap9": (),
    }

    @pytest.mark.parametrize("name", sorted(SWEPT_FAMILIES))
    def test_shipped_families_construct(self, name):
        f = SWEPT_FAMILIES[name]
        for g in (f, mirror_family(f)):
            for limit in (WIDTH_BUDGET, 1000):
                red = coherent_reduction(g, certificate_limit=limit)
                assert red.changes == self.REDUCTION_CHANGES[name], g.name
                assert red.reduced.eta_hat == winding_number(g)
                if red.changes:
                    assert red.reduced == TwistFamily(
                        g.base.change_crossings(red.changes),
                        families._paired_marks(g),
                        name=f"{g.name}_coherent",
                    )


class TestCorpusFiles:
    @pytest.mark.parametrize("strands", [1.5, "3", True, 1, 0])
    def test_chain_family_needs_two_int_strands(self, strands):
        # 1.5 raised a bare TypeError, and 1 named the edge -1
        with pytest.raises(FamilyError, match="chain family needs an int >= 2"):
            chain_family(strands)

    @pytest.mark.parametrize("p, q", [(3, 1), (0, 3), (1, 1), (2.0, 2), (3, True)])
    def test_torus_family_needs_every_lane_crossed(self, p, q):
        # (3, 1) and (0, 3) leave a lane on no crossing, a free loop, and
        # named its arc as the marked edge -1
        with pytest.raises(FamilyError, match=f"p >= 1 and q >= 2, got p={p!r}, q={q!r}"):
            torus_family(p, q)

    def test_corpus_is_built_in_name_order(self):
        fams = load_corpus()
        assert list(fams) == sorted(BUILDERS)
        assert [f.name for f in fams.values()] == list(fams)

    def test_bases_are_what_they_claim(self):
        fams = load_corpus()
        # unknot bases simplify to nothing
        for name in ("whitehead", "mazur", "largewrap_w0_p4"):
            simp, _ = greedy_simplify(fams[name].base)
            assert jones(simp) == 1
        assert fams["wind3_wrap9"].base.n_components == 3


_PD_TEXT = st.text(alphabet="XO+-[],0123456789\u00b2 \n#", max_size=40)


@st.composite
def mutated_family_dicts(draw):
    """``family_to_json_dict(torus_family(3, 2))`` with keys of the file
    or of its marks dropped or replaced."""
    data = family_to_json_dict(torus_family(3, 2))
    for _ in range(draw(st.integers(1, 3))):
        marks = data.get("marked_edges")
        if isinstance(marks, list) and marks and draw(st.booleans()):
            i = draw(st.integers(0, len(marks) - 1))
            if not isinstance(marks[i], dict) or draw(st.booleans()):
                marks[i] = draw(JSON_VALUES)
                continue
            target = marks[i]
            key = draw(st.sampled_from(["edge", "sign"]))
        else:
            target = data
            key = draw(st.sampled_from(sorted(data)))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(_PD_TEXT if key == "base" else JSON_VALUES)
    return data


class TestFamilyFiles:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data.pop("base"),
            lambda data: data.pop("marked_edges"),
            lambda data: data["marked_edges"][0].pop("edge"),
            lambda data: data["marked_edges"][1].pop("sign"),
            lambda data: data["marked_edges"][0].update(edge=str(data["marked_edges"][0]["edge"])),
            lambda data: data["marked_edges"][0].update(edge=float(data["marked_edges"][0]["edge"])),
        ],
    )
    def test_bad_files_raise_family_error(self, edit):
        data = family_to_json_dict(torus_family(3, 2))
        edit(data)
        with pytest.raises(FamilyError):
            family_from_json_dict(data)

    @pytest.mark.parametrize(
        "fam, winding",
        [(whitehead_family(), False), (whitehead_family(), 0.0), (torus_family(3, 2), 2.0),
         (torus_family(3, 2), "2")],
        ids=["bool", "float zero", "float", "string"],
    )
    def test_non_integer_winding_raises_family_error(self, fam, winding):
        # the first three equal the presentation's winding
        data = family_to_json_dict(fam)
        data["winding"] = winding
        with pytest.raises(FamilyError, match="integer"):
            family_from_json_dict(data)

    @pytest.mark.parametrize(
        "marks, twists",
        [
            ([(0, 1), (1, -1)], False),
            ([(1, -1), (0, 1)], False),
            ([(0, 1), (1, 1)], False),
            ([(1, 1), (0, 1)], True),
            ([(0, -1), (1, -1)], True),
        ],
    )
    def test_marks_no_arc_crosses_are_refused(self, marks, twists):
        # the refused ones loaded before, and then every twist failed
        # with "non-planar diagram"
        data = {
            "base": "X+[0,0,1,1]",
            "marked_edges": [{"edge": e, "sign": s} for e, s in marks],
        }
        if twists:
            f = family_from_json_dict(data)
            for n in (1, -1, 2, -2):
                assert twist(f, n).n_crossings == 1 + 2 * abs(n)
        else:
            with pytest.raises(FamilyError, match=rf"marks \[\({marks[0][0]}, "):
                family_from_json_dict(data)
            # construction refuses them too, naming the marks
            with pytest.raises(FamilyError, match=re.escape(f"marks {marks} cannot be twisted")):
                TwistFamily(parse_pd(data["base"]), tuple(marks))

    def test_unwireable_marks_reported_before_a_wrong_winding(self):
        data = {
            "base": "X+[0,0,1,1]",
            "marked_edges": [{"edge": 0, "sign": 1}, {"edge": 1, "sign": -1}],
            "winding": 5,
        }
        with pytest.raises(FamilyError, match="cannot be twisted"):
            family_from_json_dict(data)

    def test_save_load_round_trip(self, tmp_path):
        for name, fam in load_corpus().items():
            save_family(fam, tmp_path / f"{name}.json")
            assert load_family(tmp_path / f"{name}.json") == fam

    @pytest.mark.parametrize("text", ["{", "[1, 2]", '{"base": "X[0,1]"}'])
    def test_bad_file_on_disk_raises_family_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FamilyError):
            load_family(path)

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{}",  # not UTF-8: raised a bare UnicodeDecodeError
        b"[" * 100000,  # raised a RecursionError
        b"1" * 5000,  # past the int digit limit: raised a bare ValueError
    ], ids=["not_utf8", "deep_nesting", "long_int"])
    def test_undecodable_file_raises_family_error(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(FamilyError, match="not JSON"):
            load_family(path)

    def test_missing_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_family(tmp_path / "missing.json")

    def test_refused_family_leaves_the_file_as_it_was(self, tmp_path):
        # the file was opened, so emptied, before the family was read
        path = tmp_path / "whitehead.json"
        save_family(whitehead_family(), path)
        before = path.read_bytes()
        with pytest.raises(FamilyError, match="expected a TwistFamily"):
            save_family(None, path)
        assert path.read_bytes() == before

    @given(mutated_family_dicts())
    @settings(max_examples=300, deadline=None)
    def test_mutated_files_raise_only_diagram_errors(self, data):
        try:
            family_from_json_dict(data)
        except DiagramError:
            pass


_TREFOIL = braid_closure(BraidWord.from_ints(2, [1, 1, 1]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: structurally_equal(_TREFOIL, None), DiagramError,
                     "structural equality needs a diagram", id="structurally_equal(d, None)"),
        pytest.param(lambda: structurally_equal(None, _TREFOIL), DiagramError,
                     "structural equality needs a diagram", id="structurally_equal(None, d)"),
        pytest.param(lambda: serialize(None), DiagramError, "serialize needs a diagram",
                     id="serialize"),
        pytest.param(lambda: greedy_simplify(None), DiagramError,
                     "greedy simplification needs a diagram", id="greedy_simplify"),
        pytest.param(lambda: reidemeister_moves(None), DiagramError,
                     "Reidemeister moves need a diagram", id="reidemeister_moves"),
        *(
            pytest.param(lambda kind=kind: kind(None), DiagramError,
                         "Reidemeister moves need a diagram", id=kind.__name__)
            for kind in (removals, r3_moves, r1_additions, r2_additions)
        ),
        # the R1- and R2- moves, read off removals as the move tests read them
        *(
            pytest.param(lambda kind=kind: [m for m in removals(None) if m.kind == kind],
                         DiagramError, "Reidemeister moves need a diagram",
                         id=f"r{kind[1]}_removals")
            for kind in ("R1-", "R2-")
        ),
        pytest.param(lambda: winding_number(None), FamilyError, "expected a TwistFamily",
                     id="winding_number"),
        pytest.param(lambda: mirror_family(None), FamilyError, "expected a TwistFamily",
                     id="mirror_family"),
        pytest.param(lambda: family_to_json_dict(None), FamilyError, "expected a TwistFamily",
                     id="family_to_json_dict"),
        pytest.param(lambda: braid_closure(None), DiagramError, "a closure needs a braid word",
                     id="braid_closure"),
        pytest.param(lambda: braid_closure_with_arcs("x"), DiagramError,
                     "a closure needs a braid word", id="braid_closure_with_arcs"),
        pytest.param(lambda: BraidWord.from_ints(3, None), DiagramError, "sequence of ints",
                     id="from_ints(3, None)"),
        pytest.param(lambda: BraidWord.from_ints(3, ["a"]), DiagramError, "sequence of ints",
                     id="from_ints(3, ['a'])"),
        pytest.param(lambda: BraidWord.from_ints(3, [True]), DiagramError, "sequence of ints",
                     id="from_ints(3, [True])"),
        pytest.param(lambda: half_twist_word("a"), DiagramError, "int >= 1 of strands",
                     id="half_twist_word"),
        *(
            pytest.param(lambda n=n: unlink_jones(n), DiagramError, "at least one component",
                         id=f"unlink_jones({n!r})")
            for n in ("a", 2.5, True)
        ),
    ],
)
def test_wrong_typed_arguments_raise_library_errors(call, error, message):
    # each raised a bare AttributeError or TypeError, and unlink_jones(True)
    # returned 1
    with pytest.raises(error, match=message):
        call()
