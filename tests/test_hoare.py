"""The consistent Hoare powerdomain, join certificates, and relative consistency."""

import json

import pytest

from powerlab import (
    FinitePoset,
    InvariantError,
    NoWitnessFound,
    PosetError,
    PosetMap,
    SetFamily,
    VSemilattice,
    WitnessCert,
    build_hc,
    catalog,
    gamma,
    gamma_c,
    is_consistent,
    r_gamma_c,
    refute_v_existing,
    sup_of_image,
)
from powerlab import hoare
from powerlab.enumeration import canonical_form, enumerate_v_semilattices, iter_monotone_maps
from powerlab.hoare import f_c, first_refutation, is_relatively_consistent, partial_join
from powerlab.poset import upper_bounds
from powerlab.suite import (
    check_def_2_1,
    check_sober,
    check_thm_2_2,
    check_thm_3_9,
    check_thm_3_10,
)

from conftest import (
    literal_first_refutation,
    literal_first_refutations,
    literal_join_laws,
    small_posets,
    without_pair,
)

SEMILATTICES = [l for n in range(1, 5) for l in enumerate_v_semilattices(n)]


def as_pair(cert):
    """A search result as the oracle's (semilattice, map image), or None."""
    return None if cert is None else (cert.semilattice, cert.map.img)


def witness(cert):
    """A search result as (semilattice, map image, subset), or None."""
    return None if cert is None else (cert.semilattice, cert.map.img, cert.subset)


def members_as_labels(fam):
    return [tuple(fam.base.subset_labels(m)) for m in fam.members]


class TestGammaC:
    def test_antichain(self, a2):
        assert members_as_labels(gamma_c(a2)) == [("a",), ("b",)]

    def test_vee(self, vee):
        assert len(gamma_c(vee)) == 4

    def test_wedge(self, wedge):
        assert members_as_labels(gamma_c(wedge)) == [
            ("m",),
            ("m", "a"),
            ("m", "b"),
        ]

    def test_members_are_consistent_closed(self):
        for p in small_posets(4):
            g = set(gamma(p).members)
            for m in gamma_c(p):
                assert m in g and is_consistent(p, m)


class TestBuildHc:
    def test_antichain_is_two_antichain(self, a2):
        h = build_hc(a2)
        assert h.poset.n == 2
        assert not h.poset.leq(0, 1) and not h.poset.leq(1, 0)

    def test_vee_shape(self, vee):
        h = build_hc(vee)
        fam = h.family
        a = fam.index_of[vee.subset_from_labels(["a"])]
        b = fam.index_of[vee.subset_from_labels(["b"])]
        ab = fam.index_of[vee.subset_from_labels(["a", "b"])]
        top = fam.index_of[vee.full_mask]
        assert h.poset.leq(a, ab) and h.poset.leq(b, ab) and h.poset.leq(ab, top)
        assert not h.poset.leq(a, b)

    def test_singleton_isomorphic_to_base(self, s1):
        h = build_hc(s1)
        assert h.poset.n == 1
        assert h.j.img == (0,)

    def test_closure_adds_nothing_on_finite_posets(self):
        for p in small_posets(4):
            h = build_hc(p)
            assert h.family_equals_gamma_c
            assert h.family.members == gamma_c(p).members

    def test_embedding_is_order_reflecting_and_injective(self):
        for p in small_posets(4):
            h = build_hc(p)
            assert len(set(h.j.img)) == p.n
            for x in range(p.n):
                for y in range(p.n):
                    assert bool(p.le[x][y]) == h.poset.leq(h.j.img[x], h.j.img[y])

    def test_empty_poset_rejected(self):
        from powerlab import FinitePoset

        with pytest.raises(PosetError):
            build_hc(FinitePoset([]))

    def test_builds_past_the_directed_subset_cap(self):
        # members are tested as lower sets, so the exhaustive directed-subset
        # enumeration, which refuses more than DIRECTED_SUBSET_CAP = 16
        # elements, is never reached; Thm2.2, whose way-below is that
        # enumeration, reports the cap instead of raising
        p = catalog.chain(24)
        assert len(build_hc(p).family.members) == 24
        checks = (check_def_2_1, check_thm_3_9, check_thm_3_10, check_sober)
        assert [check(p, 2).verdict for check in checks] == ["PASS"] * 4
        assert check_thm_2_2(p, 2).verdict == "INCONCLUSIVE"

    def test_union_table_is_validated(self, monkeypatch, vee):
        monkeypatch.setattr("powerlab.hoare.closure_in_family", without_pair)
        with pytest.raises(InvariantError, match="not its consistent join"):
            build_hc.__wrapped__(vee)

    def test_builds_one_inclusion_poset(self, monkeypatch):
        # the closure inside gamma(p) reads member bitmasks, so the only
        # inclusion order built is the powerdomain's own
        built = []
        inclusion = SetFamily.poset.func

        def counting(family):
            built.append(family)
            return inclusion(family)

        monkeypatch.setattr(SetFamily, "poset", property(counting))
        for p in small_posets(5):
            built.clear()
            h = build_hc.__wrapped__(p)
            assert len(built) == 1 and built[0] is h.family


class TestPartialJoin:
    def test_vee_union(self, vee):
        h = build_hc(vee)
        a = vee.subset_from_labels(["a"])
        b = vee.subset_from_labels(["b"])
        assert partial_join(h, a, b) == vee.subset_from_labels(["a", "b"])

    def test_idempotent(self):
        for p in small_posets(3):
            h = build_hc(p)
            for m in h.family.members:
                assert partial_join(h, m, m) == m

    def test_antichain_none(self, a2):
        h = build_hc(a2)
        assert partial_join(h, 0b01, 0b10) is None

    def test_non_member_rejected(self, a2):
        h = build_hc(a2)
        with pytest.raises(PosetError, match="member"):
            partial_join(h, 0b11, 0b01)

    def test_laws_exhaustive(self):
        for p in small_posets(4):
            h = build_hc(p)
            ms = h.family.members
            for a in ms:
                for b in ms:
                    ab = partial_join(h, a, b)
                    assert ab == partial_join(h, b, a)
                    if ab is not None:
                        assert a & ~ab == 0 and ab == a | b
                    for c in ms:
                        left = partial_join(h, ab, c) if ab is not None else None
                        bc = partial_join(h, b, c)
                        right = partial_join(h, a, bc) if bc is not None else None
                        assert left == right

    def test_literal_join_laws_hold(self):
        # the laws build_hc's validation implies, read literally off its table
        for p in small_posets(5):
            assert literal_join_laws(build_hc(p)) == []


class TestSupOfImage:
    def test_embedding_of_consistent_member(self, vee):
        h = build_hc(vee)
        cert = sup_of_image(h.semilattice, h.j, vee.subset_from_labels(["a", "b"]))
        assert cert.verdict == "SUP_EXISTS"
        assert h.family.members[cert.value] == vee.subset_from_labels(["a", "b"])

    def test_singleton_maps_to_its_image(self, vee, c2):
        l = VSemilattice.from_poset(c2)
        f = PosetMap(vee, c2, (0, 0, 1))
        cert = sup_of_image(l, f, vee.subset_from_labels(["b"]))
        assert cert.verdict == "SUP_EXISTS" and cert.value == 0

    def test_antichain_pair_has_no_sup(self, a2):
        h = build_hc(a2)
        cert = sup_of_image(h.semilattice, h.j, a2.full_mask)
        assert cert.verdict == "NO_SUP" and cert.value is None

    def test_requires_monotone(self, c2):
        l = VSemilattice.from_poset(c2)
        with pytest.raises(PosetError, match="monotone"):
            sup_of_image(l, PosetMap(c2, c2, (1, 0)), 0b01)

    def test_accepts_plain_poset_codomain(self, c2, bowtie):
        f = PosetMap(c2, c2, (0, 1))
        assert sup_of_image(c2, f, 0b11).verdict == "SUP_EXISTS"
        with pytest.raises(PosetError, match="semilattice"):
            g = PosetMap(bowtie, bowtie, tuple(range(4)))
            sup_of_image(bowtie, g, 0b11)

    @pytest.mark.parametrize("bits", [1 << 5, -1])
    def test_rejects_sets_outside_the_domain(self, vee, bits):
        h = build_hc(vee)
        with pytest.raises(PosetError, match="not a subset of the map's domain"):
            sup_of_image(h.semilattice, h.j, bits)

    def test_cert_json_recomputable(self, a2):
        h = build_hc(a2)
        cert = sup_of_image(h.semilattice, h.j, a2.full_mask)
        blob = json.loads(json.dumps(cert.to_json()))
        assert blob["verdict"] == "NO_SUP"
        assert blob["subset"] == ["a", "b"]
        # the verdict is recomputable from the carried (L, f, subset)
        again = sup_of_image(cert.semilattice, cert.map, cert.subset)
        assert again.verdict == cert.verdict and again.value == cert.value


class TestRefuteVExisting:
    def test_antichain_pair_refuted_canonically(self, a2):
        cert = refute_v_existing(a2, a2.full_mask, max_size=3)
        assert isinstance(cert, WitnessCert)
        assert cert.verdict == "NO_SUP"
        # the canonical witness is the powerdomain with the point-closure embedding
        h = build_hc(a2)
        assert cert.semilattice == h.semilattice and cert.map == h.j

    def test_wedge_top_refuted(self, wedge):
        cert = refute_v_existing(wedge, wedge.full_mask, max_size=3)
        assert isinstance(cert, WitnessCert) and cert.verdict == "NO_SUP"

    def test_consistent_member_survives(self, vee):
        result = refute_v_existing(vee, vee.subset_from_labels(["a", "b"]), max_size=3)
        assert isinstance(result, NoWitnessFound)
        assert result.max_size == 3
        assert result.to_json() == {"verdict": "NOT_FOUND", "searched_max_size": 3}

    def test_requires_nonempty_closed(self, vee):
        with pytest.raises(PosetError):
            refute_v_existing(vee, vee.subset_from_labels(["t"]))
        with pytest.raises(PosetError):
            refute_v_existing(vee, 0)

    @pytest.mark.parametrize("bits", [1 << 5, -1])
    def test_rejects_sets_outside_the_poset(self, vee, bits):
        # a bit past the last element, or a negative int, is no subset of
        # the poset: refused as input, not an IndexError from the search
        with pytest.raises(PosetError, match="subsets of the poset"):
            refute_v_existing(vee, bits)

    def test_members_survive_nonmembers_refuted(self):
        for p in small_posets(3):
            members = set(build_hc(p).family.members)
            for a in gamma(p).members:
                result = refute_v_existing(p, a, max_size=3)
                if a in members:
                    assert isinstance(result, NoWitnessFound)
                else:
                    assert isinstance(result, WitnessCert)


    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_below_one_rejected(self, vee, bound):
        with pytest.raises(PosetError, match="at least 1"):
            refute_v_existing(vee, vee.subset_from_labels(["a", "b"]), max_size=bound)


class TestFirstRefutations:
    """The bounded search on its own, without the canonical witness in front,
    against the unpruned literal search."""

    @pytest.mark.parametrize("p", small_posets(4), ids=lambda p: canonical_form(p).hex())
    def test_same_first_map_as_the_literal_search(self, p):
        for a in gamma(p).members:
            for l in SEMILATTICES:
                cert = first_refutation(p, a, [l])
                assert as_pair(cert) == literal_first_refutation(p, a, [l])
                if cert is not None:
                    assert cert.subset == a and cert.verdict == "NO_SUP"
                    assert sup_of_image(cert.semilattice, cert.map, a).verdict == "NO_SUP"

    @pytest.mark.parametrize("p", small_posets(4), ids=lambda p: canonical_form(p).hex())
    def test_batch_equals_single_sets(self, p):
        # the batch oracle, one sweep for all the closed sets, finds for each
        # set the witness that the single-set search and the literal search find
        sets = gamma(p).members
        h = build_hc(p)
        for a, want in zip(sets, literal_first_refutations(p, sets, SEMILATTICES)):
            cert = first_refutation(p, a, SEMILATTICES)
            assert witness(cert) == witness(want)
            assert as_pair(cert) == literal_first_refutation(p, a, SEMILATTICES)
            # and with the canonical witness in front, as Thm3.9 runs it
            canonical = sup_of_image(h.semilattice, h.j, a)
            expected = canonical if canonical.verdict == "NO_SUP" else cert or NoWitnessFound(4)
            assert refute_v_existing(p, a, 4) == expected

    def test_semilattice_with_a_least_element_refutes(self, a2, wedge):
        # a bottom below two atoms: the two atoms have no upper bound, so the
        # identity on the antichain refutes it although the wedge has a bottom
        l = VSemilattice.from_poset(wedge)
        cert = first_refutation(a2, a2.full_mask, [l])
        assert cert is not None and sup_of_image(l, cert.map, a2.full_mask).verdict == "NO_SUP"

    def test_empty_set_rejected(self, a2):
        with pytest.raises(PosetError, match="nonempty"):
            first_refutation(a2, 0, SEMILATTICES)

    @pytest.mark.parametrize("bits", [1 << 5, -1])
    def test_rejects_sets_outside_the_poset(self, vee, bits):
        # refused as input before the sweep, not an IndexError from it
        with pytest.raises(PosetError, match="subsets of the poset"):
            first_refutation(vee, bits, SEMILATTICES)

    @pytest.mark.parametrize("max_n, bound", [(6, 1), (6, 2), (6, 3), (6, 4), (4, 5)])
    def test_same_first_witness_as_the_unbounded_search(self, max_n, bound):
        # dropping every set with an upper bound changes no set's first witness
        semilattices = [l for n in range(1, bound + 1) for l in enumerate_v_semilattices(n)]
        for p in small_posets(max_n):
            sets = gamma(p).members
            got = [first_refutation(p, a, semilattices) for a in sets]
            want = literal_first_refutations(p, sets, semilattices)
            assert [witness(c) for c in got] == [witness(c) for c in want]

    def test_pairwise_bounds_are_not_enough(self):
        # three points with an upper bound for each pair but none for all
        # three: only a semilattice of 6 elements refutes them, so the search
        # must keep them although every pair of them is bounded
        p = FinitePoset.from_covers(
            ["a", "b", "c", "ab", "bc", "ac"],
            [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"), ("a", "ac"), ("c", "ac")],
        )
        semilattices = [l for n in range(1, 7) for l in enumerate_v_semilattices(n)]
        sets = gamma(p).members
        got = [first_refutation(p, a, semilattices) for a in sets]
        want = literal_first_refutations(p, sets, semilattices)
        assert [witness(c) for c in got] == [witness(c) for c in want]
        assert got[sets.index(p.subset_from_labels(["a", "b", "c"]))].semilattice.n == 6

    def test_a_bounded_subset_without_a_sup_entry_raises(self, a2):
        # the chain 0 < 1 with the sup of {0, 1} struck from its sup_table:
        # the bounded-set reduction would no longer match the table it reads
        l = VSemilattice.from_poset(catalog.chain(2))
        assert first_refutation(a2, a2.full_mask, [l]) is None
        l.__dict__["sup_table"] = l.sup_table[:3] + (None,)
        with pytest.raises(InvariantError, match="bounded subset with no sup"):
            first_refutation(a2, a2.full_mask, [l])

    def test_every_bounded_subset_has_a_sup_entry(self):
        # the premise of the bounded-set reduction, on the enumerated
        # semilattices and on the powerdomains
        lattices = [l for n in range(1, 6) for l in enumerate_v_semilattices(n)]
        lattices += [build_hc(p).semilattice for p in small_posets(5)]
        for l in lattices:
            sup = l.sup_table
            for b in range(1, 1 << l.n):
                assert (upper_bounds(l.poset, b) != 0) == (sup[b] is not None)

    def test_no_member_reaches_the_map_sweep(self, monkeypatch, a2):
        # every member is bounded, so the search walks no monotone map for it
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return iter_monotone_maps(p, q)

        monkeypatch.setattr(hoare, "iter_monotone_maps", counting)
        for p in small_posets(5):
            members = build_hc(p).family.members
            assert all(isinstance(refute_v_existing(p, a, 4), NoWitnessFound) for a in members)
        assert calls == []
        # an unbounded set does reach it
        first_refutation(a2, a2.full_mask, SEMILATTICES)
        assert calls


class TestRelativelyConsistent:
    def test_vee_pair(self, vee):
        pair = vee.subset_from_labels(["a", "b"])
        fc = f_c(vee, pair)
        assert vee.subset_from_labels(["a"]) in fc
        assert vee.subset_from_labels(["b"]) in fc
        assert pair in fc
        assert is_relatively_consistent(vee, pair)

    def test_antichain_pair_family_not_directed(self, a2):
        assert f_c(a2, a2.full_mask) == [0b01, 0b10]
        assert not is_relatively_consistent(a2, a2.full_mask)

    def test_point_closures_always_qualify(self):
        for p in small_posets(4):
            for x in range(p.n):
                assert is_relatively_consistent(p, p.down_masks[x])

    def test_requires_closed(self, vee):
        with pytest.raises(PosetError):
            is_relatively_consistent(vee, vee.subset_from_labels(["t"]))

    def test_agreement_with_powerdomain(self):
        for p in small_posets(4):
            assert r_gamma_c(p).members == build_hc(p).family.members

    def test_table_matches_the_per_set_oracle(self):
        for p in small_posets(6):
            oracle = SetFamily(p, [m for m in gamma(p) if is_relatively_consistent(p, m)])
            assert r_gamma_c(p) == oracle

    def test_one_consistency_test_per_closed_set(self, monkeypatch):
        # r_gamma_c tests each closed set's way-below scope once, and never
        # runs the literal definition's f_c or closure comparison
        calls = []

        def counting(p, bits):
            calls.append(bits)
            return is_consistent(p, bits)

        def refused(*args):
            raise AssertionError("r_gamma_c ran the literal definition")

        monkeypatch.setattr(hoare, "is_consistent", counting)
        monkeypatch.setattr(hoare, "f_c", refused)
        monkeypatch.setattr(hoare, "scott_closure", refused)
        for p in small_posets(5):
            calls.clear()
            r_gamma_c(p)
            assert len(calls) == len(gamma(p))

    # way-below tables other than the order: the collapse reads nothing of the
    # table, so r_gamma_c must agree with the literal definition on each
    WAY_BELOW_TABLES = {
        "up-set": lambda p: p.up_masks,
        "full": lambda p: (p.full_mask,) * p.n,
        "strict down-set": lambda p: tuple(d & ~(1 << x) for x, d in enumerate(p.down_masks)),
    }

    @pytest.mark.parametrize("table", sorted(WAY_BELOW_TABLES))
    def test_collapse_holds_for_any_way_below_table(self, monkeypatch, table):
        monkeypatch.setattr(hoare, "way_down_masks", self.WAY_BELOW_TABLES[table])
        kept = 0
        for p in small_posets(5):
            oracle = SetFamily(p, [m for m in gamma(p) if is_relatively_consistent(p, m)])
            assert r_gamma_c(p) == oracle
            kept += len(oracle) > 0
        # not vacuous: the up-set and full tables keep members on some posets
        assert kept == {"up-set": 53, "full": 25, "strict down-set": 0}[table]
