"""Order axioms, elementary predicates, and their finite-case reductions."""

import itertools
import json

import pytest

from powerlab import (
    FinitePoset,
    PosetError,
    PosetMap,
    down_set,
    hasse,
    is_consistent,
    is_directed,
    is_irreducible_closed,
    is_lower_set,
    is_scott_closed,
    is_sober,
    iter_bits,
    scott_closure,
    sup,
    upper_bounds,
    way_below,
)
from powerlab.enumeration import enumerate_v_semilattices, monotone_map_images
from powerlab.poset import least_upper_bound, subset_images

from conftest import small_posets


def floyd_warshall_closure(n, cover_pairs, labels):
    """Independent oracle for the reflexive-transitive closure of the covers."""
    idx = {lab: i for i, lab in enumerate(labels)}
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in cover_pairs:
        reach[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return reach


def bits(p, *labels):
    return p.subset_from_labels(labels)


class TestConstruction:
    def test_singleton(self, s1):
        assert s1.n == 1
        assert hasse(s1) == ()

    def test_two_chain(self, c2):
        assert c2.leq(0, 1)
        assert not c2.leq(1, 0)

    def test_vee_closure_matches_oracle(self, vee):
        oracle = floyd_warshall_closure(3, [("a", "t"), ("b", "t")], vee.labels)
        assert vee.le.tolist() == oracle

    @pytest.mark.parametrize(
        "labels,covers",
        [
            (("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))),
            (("a", "b"), (("a", "b"), ("b", "a"))),
        ],
    )
    def test_cycle_rejected(self, labels, covers):
        with pytest.raises(PosetError, match="cycle"):
            FinitePoset.from_covers(labels, covers)

    def test_duplicate_label_rejected(self):
        with pytest.raises(PosetError, match="duplicate"):
            FinitePoset.from_covers(("a", "a"), ())

    def test_unknown_cover_label_rejected(self):
        with pytest.raises(PosetError):
            FinitePoset.from_covers(("a",), (("a", "z"),))

    def test_axioms_enforced_on_raw_matrices(self):
        with pytest.raises(PosetError, match="reflexive"):
            FinitePoset([[False]])
        with pytest.raises(PosetError, match="antisymmetric"):
            FinitePoset([[True, True], [True, True]])
        with pytest.raises(PosetError, match="transitive"):
            FinitePoset(
                [
                    [True, True, False],
                    [False, True, True],
                    [False, False, True],
                ]
            )

    def test_relation_is_read_only(self, vee):
        with pytest.raises(ValueError):
            vee.le[0, 0] = False


class TestDownSet:
    def test_vee_top(self, vee):
        assert down_set(vee, bits(vee, "t")) == vee.full_mask

    def test_empty(self, vee):
        assert down_set(vee, 0) == 0

    def test_minimal_element(self, a2):
        assert down_set(a2, bits(a2, "a")) == bits(a2, "a")

    def test_idempotent_and_monotone(self):
        for p in small_posets(4):
            for a in range(1 << p.n):
                d = down_set(p, a)
                assert down_set(p, d) == d
                for b in range(1 << p.n):
                    if a & ~b == 0:
                        assert d & ~down_set(p, b) == 0


class TestConsistency:
    def test_antichain_pair_inconsistent(self, a2):
        assert not is_consistent(a2, bits(a2, "a", "b"))

    def test_vee_pair_consistent(self, vee):
        assert is_consistent(vee, bits(vee, "a", "b"))
        assert upper_bounds(vee, bits(vee, "a", "b")) == bits(vee, "t")

    def test_singletons_consistent(self):
        for p in small_posets(4):
            for x in range(p.n):
                assert is_consistent(p, 1 << x)

    def test_empty_set_consistent(self, a2):
        assert is_consistent(a2, 0)

    def test_consistency_definition_and_heredity(self):
        for p in small_posets(4):
            for a in range(1, 1 << p.n):
                assert is_consistent(p, a) == (upper_bounds(p, a) != 0)
                if is_consistent(p, a):
                    for b in range(1 << p.n):
                        if b & ~a == 0:
                            assert is_consistent(p, b)


class TestDirectedAndSup:
    def test_chain_directed(self, c2):
        assert is_directed(c2, c2.full_mask)
        assert sup(c2, c2.full_mask) == 1

    def test_antichain_pair(self, a2):
        pair = bits(a2, "a", "b")
        assert not is_directed(a2, pair)
        assert sup(a2, pair) is None

    def test_vee_pair(self, vee):
        pair = bits(vee, "a", "b")
        assert not is_directed(vee, pair)
        assert sup(vee, pair) == vee.label_index["t"]

    def test_empty_directed_is_error(self, c2):
        with pytest.raises(PosetError, match="nonempty"):
            is_directed(c2, 0)

    def test_sup_of_empty_is_bottom_when_present(self, c3, a2):
        assert sup(c3, 0) == 0
        assert sup(a2, 0) is None

    def test_directed_sets_contain_their_sup(self):
        for p in small_posets(4):
            for a in range(1, 1 << p.n):
                if is_directed(p, a):
                    s = sup(p, a)
                    assert s is not None and a >> s & 1

    def test_sup_is_least_upper_bound_by_naive_search(self):
        for p in small_posets(4):
            for a in range(1 << p.n):
                ubs = [
                    u
                    for u in range(p.n)
                    if all(p.le[x, u] for x in iter_bits(a))
                ]
                least = [u for u in ubs if all(p.le[u, v] for v in ubs)]
                assert sup(p, a) == (least[0] if least else None)


class TestScottClosed:
    def test_vee_examples(self, vee):
        assert is_lower_set(vee, bits(vee, "a", "b"))
        assert is_scott_closed(vee, bits(vee, "a", "b"))
        assert not is_lower_set(vee, bits(vee, "t"))

    def test_empty_is_closed(self, vee):
        assert is_scott_closed(vee, 0)

    def test_scott_closed_iff_lower(self):
        # the finite-case reduction is a theorem of this suite, not an assumption
        for p in small_posets(4):
            for a in range(1 << p.n):
                assert is_scott_closed(p, a) == is_lower_set(p, a)

    def test_closure_equals_down_set(self):
        for p in small_posets(4):
            for a in range(1 << p.n):
                assert scott_closure(p, a) == down_set(p, a)

    def test_closure_operator_laws(self):
        for p in small_posets(4):
            for a in range(1 << p.n):
                c = scott_closure(p, a)
                assert a & ~c == 0
                assert scott_closure(p, c) == c
                for b in range(1 << p.n):
                    if a & ~b == 0:
                        assert c & ~scott_closure(p, b) == 0

    def test_closure_fixes_closed_sets(self, vee):
        assert scott_closure(vee, bits(vee, "a")) == bits(vee, "a")
        assert scott_closure(vee, bits(vee, "t")) == vee.full_mask


class TestWayBelow:
    def test_chain(self, c2):
        assert way_below(c2, 0, 1)

    def test_reflexive_on_finite(self):
        for p in small_posets(3):
            for x in range(p.n):
                assert way_below(p, x, x)

    def test_not_below(self, vee):
        assert not way_below(vee, vee.label_index["t"], vee.label_index["a"])

    def test_way_below_iff_le(self):
        for p in small_posets(4):
            for x in range(p.n):
                for y in range(p.n):
                    assert way_below(p, x, y) == bool(p.le[x, y])


class TestDirectedEnumeration:
    def test_matches_naive_filter(self):
        # the pruned recursion must agree with filtering all subsets
        from powerlab.poset import enumerate_directed_subsets

        for p in small_posets(4):
            naive = {
                a
                for a in range(1, 1 << p.n)
                if is_directed(p, a)
            }
            assert set(enumerate_directed_subsets(p.up_masks, p.full_mask)) == naive

    def test_respects_domain_restriction(self, vee):
        from powerlab.poset import enumerate_directed_subsets

        domain = bits(vee, "a", "b")
        got = set(enumerate_directed_subsets(vee.up_masks, domain))
        assert got == {bits(vee, "a"), bits(vee, "b")}


class TestIrreducibleAndSober:
    def test_vee_split(self, vee):
        assert not is_irreducible_closed(vee, bits(vee, "a", "b"))
        assert is_irreducible_closed(vee, vee.full_mask)

    def test_rejects_non_closed(self, vee):
        with pytest.raises(PosetError):
            is_irreducible_closed(vee, bits(vee, "t"))

    def test_empty_not_irreducible(self, vee):
        assert not is_irreducible_closed(vee, 0)

    def test_irreducible_closed_sets_are_principal(self):
        for p in small_posets(4):
            for a in range(1, 1 << p.n):
                if is_lower_set(p, a) and is_irreducible_closed(p, a):
                    assert any(a == p.down_masks[x] for x in range(p.n))

    def test_all_small_posets_sober(self):
        # exhaustive up to five elements
        for p in small_posets(5):
            assert is_sober(p)


class TestHasseAndExport:
    def test_examples(self, c2, vee, s1):
        assert hasse(c2) == ((0, 1),)
        assert set(hasse(vee)) == {(0, 2), (1, 2)}
        assert hasse(s1) == ()

    def test_transitive_reduction_oracle(self):
        # covers = strict pairs with nothing in between, computed naively
        for p in small_posets(4):
            expected = set()
            for i in range(p.n):
                for j in range(p.n):
                    if i != j and p.le[i, j]:
                        if not any(
                            k != i and k != j and p.le[i, k] and p.le[k, j]
                            for k in range(p.n)
                        ):
                            expected.add((i, j))
            assert set(hasse(p)) == expected

    def test_round_trip(self):
        for p in small_posets(4):
            q = FinitePoset.from_covers(
                p.labels, [(p.labels[i], p.labels[j]) for i, j in hasse(p)]
            )
            assert q == p

    def test_json_round_trip_identical(self, vee):
        blob = json.dumps(vee.to_json())
        assert FinitePoset.from_json(blob) == vee

    def test_json_requires_fields(self):
        with pytest.raises(PosetError, match="fields"):
            FinitePoset.from_json({"labels": ["a"]})

    def test_dot_output(self, vee):
        dot = vee.to_dot()
        assert dot.startswith("digraph")
        assert '"a" -> "t";' in dot
        assert '"b" -> "t";' in dot
        assert '"a" -> "b"' not in dot


class TestPosetMap:
    def test_validation(self, c2, a2):
        with pytest.raises(PosetError):
            PosetMap(c2, a2, (0,))
        with pytest.raises(PosetError):
            PosetMap(c2, a2, (0, 5))

    def test_monotone(self, c2, a2):
        assert PosetMap(c2, c2, (0, 1)).is_monotone()
        assert not PosetMap(c2, a2, (0, 1)).is_monotone()

    def test_image_and_preimage(self, vee, c2):
        f = PosetMap(vee, c2, (0, 0, 1))
        assert f.image_bits(bits(vee, "a", "b")) == 1
        assert f.preimage_bits(1) == bits(vee, "a", "b")

    def test_compose(self, c2, c3):
        f = PosetMap(c2, c3, (0, 2))
        g = PosetMap(c3, c2, (0, 0, 1))
        assert g.compose(f).img == (0, 1)

    def test_monotone_matches_relation_matrix(self):
        # all functions, against the order read from the boolean matrices
        for p in small_posets(3):
            for q in small_posets(3):
                for img in itertools.product(range(q.n), repeat=p.n):
                    expected = all(
                        q.le[img[i], img[j]]
                        for i in range(p.n)
                        for j in range(p.n)
                        if p.le[i, j]
                    )
                    assert PosetMap(p, q, img).is_monotone() == expected

    def test_subset_images_match_image_bits(self):
        codomains = [l.poset for n in range(1, 4) for l in enumerate_v_semilattices(n)]
        for p in small_posets(4):
            for q in codomains:
                for img in monotone_map_images(p, q):
                    f = PosetMap(p, q, img)
                    table = subset_images(img, p.n)
                    assert len(table) == 1 << p.n
                    assert all(table[a] == f.image_bits(a) for a in range(1 << p.n))

    def test_monotone_iff_scott_continuous_on_finite(self):
        # all functions, not only the monotone ones, at tiny sizes
        for p in small_posets(3):
            for q in small_posets(3):
                if q.n > 3:
                    continue
                for img in itertools.product(range(q.n), repeat=p.n):
                    f = PosetMap(p, q, img)
                    assert f.is_monotone() == f.is_scott_continuous()


def test_least_upper_bound_no_least():
    # two incomparable upper bounds: bounded but no least bound
    from powerlab import catalog

    b = catalog.bowtie()
    pair = b.subset_from_labels(["a", "b"])
    assert upper_bounds(b, pair) == b.subset_from_labels(["s", "t"])
    assert least_upper_bound(b.up_masks, b.full_mask, pair) is None
