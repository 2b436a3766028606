"""Order axioms, elementary predicates, and their finite-case reductions."""

import itertools
import json
import random

import pytest

from powerlab import (
    FinitePoset,
    PosetError,
    PosetMap,
    catalog,
    down_set,
    hasse,
    is_consistent,
    is_lower_set,
    is_sober,
    iter_bits,
    scott_closure,
    sup,
    upper_bounds,
    way_down_masks,
)
from powerlab.enumeration import enumerate_posets, enumerate_v_semilattices, monotone_map_images
from powerlab.poset import (
    DIRECTED_SUBSET_CAP,
    directed_subsets_with_sups,
    directed_sup_closure_step,
    enumerate_directed_subsets,
    is_directed,
    is_irreducible_closed,
    is_scott_closed,
    least_upper_bound,
    way_below,
)
from powerlab.suite import _membership_table, check_thm_2_2

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
        assert [list(row) for row in vee.le] == oracle

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

    def test_empty_label_rejected(self):
        # its set label would be "{}", the empty set's, so gamma0 would
        # build a family poset with a duplicate label
        for build in (
            lambda: FinitePoset.from_covers(["", "a"], []),
            lambda: FinitePoset.from_up_masks([1, 2], ["", "a"]),
            lambda: FinitePoset([[True]], [""]),
        ):
            with pytest.raises(PosetError, match="empty label"):
                build()

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
        with pytest.raises(TypeError):
            vee.le[0][0] = False


AXIOMS = ("reflexive", "antisymmetric", "transitive")


def first_failing_axiom(m):
    """Literal oracle: the first order axiom the matrix breaks, in the order
    the constructor checks them, or None for a partial order."""
    n = len(m)
    if not all(m[i][i] for i in range(n)):
        return "reflexive"
    if any(m[i][j] and m[j][i] for i in range(n) for j in range(n) if i != j):
        return "antisymmetric"
    if any(
        m[i][j] and m[j][k] and not m[i][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    ):
        return "transitive"
    return None


def random_matrices(rng, n, count):
    """Uniform matrices, matrices with a true diagonal, random partial orders
    and random partial orders with one entry flipped, in turn."""
    for k in range(count):
        m = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
        if k % 4:
            for i in range(n):
                m[i][i] = True
        if k % 4 >= 2:
            # close the upper triangle transitively and relabel: a partial order
            for i in range(n):
                for j in range(n):
                    m[i][j] = i == j or (i < j and m[i][j])
            for mid in range(n):
                for i in range(n):
                    for j in range(n):
                        m[i][j] = m[i][j] or (m[i][mid] and m[mid][j])
            perm = rng.sample(range(n), n)
            m = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        if k % 4 == 3:
            i, j = rng.randrange(n), rng.randrange(n)
            m[i][j] = not m[i][j]
        yield m


class TestAxiomOracle:
    def check(self, m):
        n = len(m)
        masks = [sum(1 << j for j in range(n) if m[i][j]) for i in range(n)]
        axiom = first_failing_axiom(m)
        if axiom is not None:
            for build in (lambda: FinitePoset(m), lambda: FinitePoset.from_up_masks(masks)):
                with pytest.raises(PosetError, match=f"^relation is not {axiom}$"):
                    build()
            return axiom
        p = FinitePoset(m)
        assert p == FinitePoset.from_up_masks(masks)
        assert all(p.leq(i, j) == m[i][j] for i in range(n) for j in range(n))
        assert [list(row) for row in p.le] == m
        assert all(
            p.down_masks[j] >> i & 1 == m[i][j] for i in range(n) for j in range(n)
        )
        return axiom

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_matrix(self, n):
        seen = set()
        for code in range(1 << n * n):
            m = [[bool(code >> (i * n + j) & 1) for j in range(n)] for i in range(n)]
            seen.add(self.check(m))
        # two elements cannot break transitivity without breaking an earlier axiom
        assert seen == {None, *AXIOMS[:n]}

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_random_matrices(self, n):
        seen = {self.check(m) for m in random_matrices(random.Random(n), n, 400)}
        assert seen == {None, *AXIOMS}

    def test_up_masks_outside_the_universe_rejected(self):
        with pytest.raises(PosetError, match="outside"):
            FinitePoset.from_up_masks([0b101, 0b10])
        with pytest.raises(PosetError, match="outside"):
            FinitePoset.from_up_masks([-1])

    def test_mask_and_matrix_builds_agree(self):
        for p in small_posets(5):
            from_matrix = FinitePoset([list(row) for row in p.le])
            from_masks = FinitePoset.from_up_masks(p.up_masks)
            assert from_matrix == from_masks == p
            assert hash(from_matrix) == hash(from_masks) == hash(p)
            renamed = FinitePoset.from_up_masks(p.up_masks, [lab.upper() for lab in p.labels])
            assert renamed != from_matrix and renamed != from_masks
            assert len({from_matrix, from_masks, renamed}) == 2

    def test_any_truth_values_build_the_same_poset(self):
        truthy, falsy = ("yes", 2, -1, 0.5, [0]), (None, "", 0.0, [], ())
        for p in small_posets(5):
            bools = [list(row) for row in p.le]
            ints = [[int(v) for v in row] for row in bools]
            mixed = [
                [(truthy if v else falsy)[(i + j) % 5] for j, v in enumerate(row)]
                for i, row in enumerate(bools)
            ]
            built = [FinitePoset(m) for m in (bools, ints, mixed)]
            assert built == [p] * 3
            assert all(q.up_masks == p.up_masks and q.down_masks == p.down_masks for q in built)

    def test_closure_of_random_covers_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 6)
            labels = tuple("abcdef"[:n])
            covers = [
                (labels[a], labels[b])
                for a, b in itertools.permutations(range(n), 2)
                if rng.random() < 0.25
            ]
            oracle = floyd_warshall_closure(n, covers, labels)
            if first_failing_axiom(oracle) is None:
                p = FinitePoset.from_covers(labels, covers)
                assert [list(row) for row in p.le] == oracle
            else:
                with pytest.raises(PosetError, match="cycle"):
                    FinitePoset.from_covers(labels, covers)


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
        for p in small_posets(5):
            for a in range(1 << p.n):
                ubs = [
                    u
                    for u in range(p.n)
                    if all(p.le[x][u] for x in iter_bits(a))
                ]
                least = [u for u in ubs if all(p.le[u][v] for v in ubs)]
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
                    assert way_below(p, x, y) == bool(p.le[x][y])

    def test_masks_match_the_per_pair_oracle(self):
        for p in small_posets(6):
            masks = way_down_masks(p)
            for y in range(p.n):
                assert masks[y] == sum(1 << x for x in range(p.n) if way_below(p, x, y))

    def test_masks_read_no_directed_subset(self, monkeypatch):
        # the table is read from the lower sets; the directed subsets are
        # left to the oracles
        def refusing(*args):
            raise AssertionError("way_down_masks enumerated directed subsets")

        monkeypatch.setattr("powerlab.poset.enumerate_directed_subsets", refusing)
        fresh = FinitePoset.from_up_masks(catalog.bowtie().up_masks)
        assert way_down_masks(fresh) == fresh.down_masks

    def test_masks_match_the_directed_subset_pass(self):
        # the table read from the ideals against the pass it replaced, over
        # every directed subset: on every poset up to 6 elements and on a
        # seeded sample of 500 of the 16 999 classes of 8
        def directed_subset_pass(p):
            out = [p.full_mask] * p.n
            for dbits, s in directed_subsets_with_sups(p, p.full_mask):
                if s is not None:
                    for y in iter_bits(p.down_masks[s]):
                        out[y] &= down_set(p, dbits)
            return tuple(out)

        eights = random.Random(42).sample(enumerate_posets(8, max_n=8), 500)
        for p in [*small_posets(6), *eights]:
            assert way_down_masks(p) == directed_subset_pass(p)


def _naive_directed(p, domain):
    """Every nonempty directed subset of ``domain``, ascending: the
    ``is_directed`` filter over all subsets."""
    return [a for a in range(1, 1 << p.n) if not a & ~domain and is_directed(p, a)]


class TestDirectedEnumeration:
    """``enumerate_directed_subsets`` against the ``is_directed`` filter; a
    sorted list is compared, so a duplicate subset fails too."""

    def test_matches_naive_filter(self):
        # the growth order is read from the up-sets, not the element numbers,
        # so each poset is also checked under a seeded random relabeling
        rng = random.Random(26)
        for p in small_posets(6):
            perm = rng.sample(range(p.n), p.n)
            up = [0] * p.n
            for i, row in enumerate(p.up_masks):
                up[perm[i]] = sum(1 << perm[j] for j in iter_bits(row))
            for q in (p, FinitePoset.from_up_masks(up)):
                got = enumerate_directed_subsets(q.up_masks, q.full_mask)
                assert sorted(got) == _naive_directed(q, q.full_mask)

    def test_every_domain_matches_naive_filter(self):
        for p in small_posets(4):
            for domain in range(1 << p.n):
                got = enumerate_directed_subsets(p.up_masks, domain)
                assert sorted(got) == _naive_directed(p, domain)

    def test_respects_domain_restriction(self, vee):
        domain = bits(vee, "a", "b")
        got = set(enumerate_directed_subsets(vee.up_masks, domain))
        assert got == {bits(vee, "a"), bits(vee, "b")}

    def test_totals_over_the_whole_poset(self):
        # 1193 is the enumerated item count of a default verify run
        totals = {5: 0, 6: 0}
        for p in small_posets(6):
            count = len(enumerate_directed_subsets(p.up_masks, p.full_mask))
            for n in totals:
                totals[n] += count if p.n <= n else 0
        assert totals == {5: 1193, 6: 9961}

    def test_sizes_at_the_cap(self):
        # every nonempty subset of a chain is directed, and only the
        # singletons of an antichain are
        c, a = catalog.chain(DIRECTED_SUBSET_CAP), catalog.antichain(DIRECTED_SUBSET_CAP)
        assert len(enumerate_directed_subsets(c.up_masks, c.full_mask)) == 65535
        assert sorted(enumerate_directed_subsets(a.up_masks, a.full_mask)) == [
            1 << i for i in range(DIRECTED_SUBSET_CAP)
        ]

    def test_one_cap_past_sixteen_elements(self):
        # the enumeration refuses the domain itself, so every literal
        # definition that quantifies over directed subsets stops at the cap
        p = catalog.chain(DIRECTED_SUBSET_CAP + 1)
        refusals = (
            lambda: enumerate_directed_subsets(p.up_masks, p.full_mask),
            lambda: way_below(p, 0, 1),
            lambda: directed_sup_closure_step(p.up_masks, p.full_mask, p.full_mask),
        )
        for refusal in refusals:
            with pytest.raises(PosetError, match=f"capped at {DIRECTED_SUBSET_CAP} elements"):
                refusal()
        assert check_thm_2_2(p, 4).verdict == "INCONCLUSIVE"


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

    def test_sober_matches_per_set_oracle(self):
        # is_sober enumerates the closed sets once; the oracle asks
        # is_irreducible_closed of each nonempty one
        for p in small_posets(6):
            principal = set(p.down_masks)
            oracle = all(
                a in principal or not is_irreducible_closed(p, a)
                for a in p.ideals[1:]
            )
            assert is_sober(p) == oracle

    def test_a_non_principal_set_that_is_no_union_is_not_sober(self, monkeypatch, a2):
        # with {b} dropped from the closed sets of the two-antichain, {a, b}
        # is no point closure, and its only other closed sets, the empty set
        # and {a}, are both below it: no union of an incomparable pair gives it
        b = a2.subset_from_labels(["b"])
        ideals = FinitePoset.ideals.func

        def without_b(p):
            return tuple(c for c in ideals(p) if c != b)

        assert is_sober(a2)
        monkeypatch.setattr(FinitePoset, "ideals", property(without_b))
        assert not is_sober(a2)


class TestCatalog:
    def test_antichain_past_ten_elements(self):
        # the default labels, the same letters as before up to ten elements
        p = catalog.antichain(30)
        assert p.n == 30 and len(set(p.labels)) == 30
        assert p.up_masks == tuple(1 << i for i in range(30))
        assert catalog.antichain(10).labels == tuple("abcdefghij")
        # past the precomputed labels too: a..z, then x26, x27, ...
        for n in (255, 256, 257, 300):
            want = tuple("abcdefghijklmnopqrstuvwxyz"[i] if i < 26 else f"x{i}" for i in range(n))
            assert catalog.antichain(n).labels == want


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
                    if i != j and p.le[i][j]:
                        if not any(
                            k != i and k != j and p.le[i][k] and p.le[k][j]
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

    @pytest.mark.parametrize(
        "text",
        ["{", b'{"labels": ["\xff"], "covers": []}', "[" * 200_000 + "]" * 200_000],
        ids=["not-json", "not-utf8", "nested-too-deep"],
    )
    def test_malformed_json_text_rejected(self, text):
        with pytest.raises(PosetError, match="malformed JSON"):
            FinitePoset.from_json(text)

    def test_json_bytes_round_trip(self, vee):
        assert FinitePoset.from_json(json.dumps(vee.to_json()).encode()) == vee

    def test_dot_output(self, vee):
        dot = vee.to_dot()
        assert dot.startswith("digraph")
        assert '"a" -> "t";' in dot
        assert '"b" -> "t";' in dot
        assert '"a" -> "b"' not in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        p = FinitePoset.from_covers(['a"b', "c\\"], [('a"b', "c\\")])
        assert p.to_dot() == "\n".join(
            [
                "digraph hasse {",
                "  rankdir=BT;",
                r'  "a\"b";',
                r'  "c\\";',
                r'  "a\"b" -> "c\\";',
                "}",
            ]
        )


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

    def test_monotone_matches_relation_matrix(self):
        # all functions, against the order read from the boolean matrices
        for p in small_posets(3):
            for q in small_posets(3):
                for img in itertools.product(range(q.n), repeat=p.n):
                    expected = all(
                        q.le[img[i]][img[j]]
                        for i in range(p.n)
                        for j in range(p.n)
                        if p.le[i][j]
                    )
                    assert PosetMap(p, q, img).is_monotone() == expected

    def test_subset_images_match_image_bits(self):
        codomains = [l.poset for n in range(1, 4) for l in enumerate_v_semilattices(n)]
        for p in small_posets(4):
            for q in codomains:
                for img in monotone_map_images(p, q):
                    f = PosetMap(p, q, img)
                    # v is in the image of a exactly when its fibre, the
                    # image string translated by v's membership table, meets a
                    strings = [bytes(img).translate(_membership_table(1 << v)) for v in range(q.n)]
                    fibres = [int(s[::-1], 2) for s in strings]
                    for a in range(1 << p.n):
                        image = sum(1 << v for v, fibre in enumerate(fibres) if fibre & a)
                        assert image == f.image_bits(a)

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
