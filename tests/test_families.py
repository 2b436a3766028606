"""Scott closed families, their inclusion order, and closure inside a family."""

import random

import pytest

from powerlab import (
    PosetError,
    SetFamily,
    catalog,
    closure_in_family,
    gamma,
    gamma0,
    is_lower_set,
)
from powerlab.poset import _ideals

from conftest import small_posets


def members_as_labels(fam):
    return [tuple(fam.base.subset_labels(m)) for m in fam.members]


class TestGamma:
    def test_antichain(self, a2):
        assert members_as_labels(gamma(a2)) == [("a",), ("b",), ("a", "b")]

    def test_two_chain(self, c2):
        assert len(gamma(c2)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_chain_has_n_ideals(self, n):
        assert len(gamma(catalog.chain(n))) == n

    def test_vee(self, vee):
        assert members_as_labels(gamma0(vee)) == [
            (),
            ("a",),
            ("b",),
            ("a", "b"),
            ("a", "b", "t"),
        ]

    def test_gamma0_adds_exactly_the_empty_set(self):
        for p in small_posets(4):
            g, g0 = gamma(p), gamma0(p)
            assert len(g0) == len(g) + 1
            assert 0 in g0 and 0 not in g

    def test_matches_naive_filter(self):
        # the ideals loop never touches most of 2**n; the filter is the oracle,
        # for the family and for the raw list, which must hold no duplicate
        # and the empty set exactly when asked for
        for p in small_posets(6) + [catalog.chain(12), catalog.antichain(10)]:
            naive = sorted(
                (a for a in range(1, 1 << p.n) if is_lower_set(p, a)),
                key=lambda b: (b.bit_count(), b),
            )
            assert list(gamma(p).members) == naive
            raw = _ideals(p)
            assert len(raw) == len(set(raw))
            assert raw[0] == 0 and sorted(raw[1:]) == sorted(naive)

    def test_singleton(self, s1):
        assert members_as_labels(gamma0(s1)) == [(), ("x",)]


class TestSetFamily:
    def test_rejects_duplicates(self, a2):
        with pytest.raises(PosetError, match="duplicate"):
            SetFamily(a2, [1, 1])

    def test_rejects_foreign_members(self, a2):
        with pytest.raises(PosetError, match="universe"):
            SetFamily(a2, [1 << 5])

    def test_canonical_order(self, vee):
        fam = SetFamily(vee, [vee.full_mask, 1, 2])
        assert fam.members == (1, 2, vee.full_mask)

    def test_json_shape(self, a2):
        data = gamma(a2).to_json()
        assert set(data) == {"poset", "members"}
        assert data["members"] == [["a"], ["b"], ["a", "b"]]
        assert data["poset"] == {"labels": ["a", "b"], "covers": []}


class TestAsPoset:
    def test_gamma_a2_is_vee_shaped(self, a2):
        fp = gamma(a2).poset
        assert fp.n == 3
        assert fp.labels == ("{a}", "{b}", "{a,b}")
        assert fp.leq(0, 2) and fp.leq(1, 2) and not fp.leq(0, 1)

    def test_gamma_c2_is_chain(self, c2):
        fp = gamma(c2).poset
        assert fp.n == 2 and fp.leq(0, 1)

    def test_single_member_family(self, s1):
        fp = SetFamily(s1, [1]).poset
        assert fp.n == 1

    def test_preserves_and_reflects_inclusion(self):
        for p in small_posets(4):
            fam = gamma0(p)
            fp = fam.poset
            for i, a in enumerate(fam.members):
                for j, b in enumerate(fam.members):
                    assert fp.leq(i, j) == (a & ~b == 0)


class TestClosureInFamily:
    def test_already_closed(self, a2):
        fam = gamma(a2)
        sub = [a2.subset_from_labels(["a"]), a2.subset_from_labels(["b"])]
        assert closure_in_family(fam, sub).members == tuple(sub)

    def test_whole_family_is_fixed(self):
        for p in small_posets(3):
            fam = gamma(p)
            assert closure_in_family(fam, fam.members).members == fam.members

    def test_lower_closure_added(self, vee):
        fam = gamma(vee)
        closed = closure_in_family(fam, [vee.full_mask])
        # the down-set of the whole family order is everything below the top member
        assert closed.members == fam.members

    def test_downward_closed_chain_is_fixed(self, c3):
        # a downward-closed chain already holds the sups of its directed parts
        fam = gamma(c3)
        sub = fam.members[:2]
        assert closure_in_family(fam, sub).members == tuple(sub)

    def test_rejects_non_members(self, a2):
        with pytest.raises(PosetError, match="belong"):
            closure_in_family(gamma(a2), [a2.full_mask | 0b100])
        with pytest.raises(PosetError, match="belong"):
            closure_in_family(gamma(catalog.wedge()), [0b110])

    def test_result_is_lower_and_directed_closed(self):
        rng = random.Random(7)
        for p in small_posets(4):
            fam = gamma0(p)
            for _ in range(5):
                k = rng.randint(0, len(fam.members))
                sub = rng.sample(fam.members, k)
                closed = closure_in_family(fam, sub)
                chosen = set(closed.members)
                fp = fam.poset
                for m in closed.members:
                    i = fam.index_of[m]
                    for j in range(fp.n):
                        if fp.leq(j, i):
                            assert fam.members[j] in chosen
                assert set(sub) <= chosen

    def test_closure_operator_laws(self):
        rng = random.Random(11)
        for p in small_posets(3):
            fam = gamma0(p)
            subs = [rng.sample(fam.members, rng.randint(0, len(fam.members))) for _ in range(4)]
            for sub in subs:
                c1 = closure_in_family(fam, sub)
                assert set(sub) <= set(c1.members)
                assert closure_in_family(fam, c1.members) == c1
            small, large = sorted(subs[:2], key=len)
            grown = set(small) | set(large)
            assert set(closure_in_family(fam, small).members) <= set(
                closure_in_family(fam, grown).members
            )
