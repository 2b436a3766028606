"""Partial joins, F-Scott closed sets, the closure operator, and homomorphisms."""

import itertools

import pytest

from powerlab import (
    PosetError,
    PosetMap,
    VSemilattice,
    build_hc,
    catalog,
    cl_f,
    enumerate_v_semilattices,
    gamma_f,
    is_f_scott_closed,
    semilattice,
)
from powerlab.semilattice import (
    f_scott_continuity_violation,
    is_f_scott_closed_literal,
    is_f_scott_continuous,
    is_homomorphism,
    iter_homomorphisms,
    meet_irreducibles,
    sup_exists_transport_check,
)
from powerlab.suite import check_thm_3_10, run_all

from conftest import closure_mutant, lectic_gamma_f, small_posets


def semis_upto(k):
    out = []
    for n in range(1, k + 1):
        out.extend(enumerate_v_semilattices(n))
    return out


class TestVSemilattice:
    def test_vee_is_semilattice(self, vee):
        l = VSemilattice.from_poset(vee)
        assert l is not None
        a, b, t = range(3)
        assert l.join[a][b] == t
        assert l.join[a][t] == t

    def test_bowtie_is_not(self, bowtie):
        assert VSemilattice.from_poset(bowtie) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_chains_are_semilattices(self, n):
        l = VSemilattice.from_poset(catalog.chain(n))
        assert l is not None
        for i in range(n):
            for j in range(n):
                assert l.join[i][j] == max(i, j)

    def test_antichain_join_table_is_diagonal(self, a2):
        l = VSemilattice.from_poset(a2)
        assert l.join == ((0, -1), (-1, 1))

    def test_validation_rejects_bad_tables(self, vee):
        good = VSemilattice.from_poset(vee)
        rows = [list(r) for r in good.join]
        rows[0][1] = rows[1][0] = -1  # consistent pair marked undefined
        with pytest.raises(PosetError):
            VSemilattice(vee, rows)
        rows = [list(r) for r in good.join]
        rows[0][0] = 2
        with pytest.raises(PosetError, match="idempotent"):
            VSemilattice(vee, rows)
        for bad in (-2, 1.0):  # not an element index nor -1
            with pytest.raises(PosetError, match="neither"):
                VSemilattice(catalog.chain(2), [[0, bad], [bad, 1]])

    def test_validation_pins_the_table(self):
        # the O(n**2) validation leaves exactly one table per poset, the
        # consistent join, and that table is associative in the Kleene sense
        # (an undefined join, -1, joins with anything to -1) although no
        # associativity loop runs
        tables = semis_upto(5) + [build_hc(p).semilattice for p in small_posets(4)]
        for l in tables:
            n, join = l.n, l.join
            t = [row + (-1,) for row in join] + [(-1,) * (n + 1)]
            for i, j, k in itertools.product(range(n), repeat=3):
                assert t[t[i][j]][k] == t[i][t[j][k]]
            for i, j in itertools.product(range(n), repeat=2):
                for v in range(-1, n):
                    if v == join[i][j]:
                        continue
                    # one changed entry, then the same change made symmetric,
                    # which the commutativity check cannot see
                    for cells in ({(i, j)}, {(i, j), (j, i)}):
                        rows = [list(r) for r in join]
                        for a, b in cells:
                            rows[a][b] = v
                        with pytest.raises(PosetError):
                            VSemilattice(l.poset, rows)

    def test_defined_iff_bounded(self):
        for l in semis_upto(4):
            p = l.poset
            for i in range(p.n):
                for j in range(p.n):
                    assert (l.join[i][j] != -1) == (p.up_masks[i] & p.up_masks[j] != 0)

    def test_sup_of_bits_matches_naive(self):
        from powerlab import sup

        for l in semis_upto(4):
            for a in range(1 << l.n):
                assert l.sup_of_bits(a) == sup(l.poset, a)

    def test_sup_table_matches_least_upper_bound(self):
        from powerlab.poset import least_upper_bound, upper_bounds

        for l in semis_upto(5):
            up, full = l.poset.up_masks, l.poset.full_mask
            assert len(l.sup_table) == 1 << l.n
            for b in range(1 << l.n):
                assert l.bound_masks[b] == upper_bounds(l.poset, b)
                assert l.sup_table[b] == least_upper_bound(up, full, b)
                assert l.sup_of_bits(b) == l.sup_table[b]

    def test_column_join_matches_the_join_table(self):
        # entry (s << 4) | y is join[s][y], 15 where undefined; row n, the
        # empty set, is the identity, and every other entry is NO_SUP
        from powerlab.semilattice import NO_SUP

        assert NO_SUP == 15
        for l in semis_upto(6):
            n, table = l.n, l.column_join
            assert len(table) == 256
            for e, z in enumerate(table):
                s, y = e >> 4, e & 15
                if s < n and y < n:
                    assert z == (NO_SUP if l.join[s][y] == -1 else l.join[s][y])
                elif s == n and y < n:
                    assert z == y
                else:
                    assert z == NO_SUP

    def test_from_poset_matches_the_per_pair_scan(self):
        # the join table of the literal scan on every pair, or None when
        # some bounded pair has no least upper bound
        from powerlab.poset import least_upper_bound

        for p in small_posets(6):
            up, full = p.up_masks, p.full_mask
            join = [
                [-1 if not up[i] & up[j] else least_upper_bound(up, full, (1 << i) | (1 << j))
                 for j in range(p.n)]
                for i in range(p.n)
            ]
            l = VSemilattice.from_poset(p)
            if any(None in row for row in join):
                assert l is None
            else:
                assert l is not None and [list(row) for row in l.join] == join

    def test_join_csv(self, vee):
        l = VSemilattice.from_poset(vee)
        lines = l.join_table_csv().strip().splitlines()
        assert lines[0] == ",a,b,t"
        assert lines[1] == "a,a,t,t"


class TestFScottClosed:
    def test_hoare_vee_counterexample(self, vee):
        l = build_hc(vee).semilattice
        pair = 0b0011  # the two point closures, join missing
        assert not is_f_scott_closed(l, pair)

    def test_principal_ideals_closed(self):
        for l in semis_upto(4):
            for x in range(l.n):
                assert is_f_scott_closed(l, l.poset.down_masks[x])

    def test_empty_closed(self, vee):
        assert is_f_scott_closed(VSemilattice.from_poset(vee), 0)

    def test_pair_reduction_matches_literal(self):
        # closure under consistent pairs equals closure under all consistent
        # finite subsets; checked against the by-the-book variant
        for l in semis_upto(4):
            for a in range(1 << l.n):
                assert is_f_scott_closed(l, a) == is_f_scott_closed_literal(l, a)


class TestClF:
    def test_consistent_set_closes_to_principal(self):
        from powerlab import is_consistent

        for l in semis_upto(4):
            for a in range(1, 1 << l.n):
                if is_consistent(l.poset, a):
                    s = l.sup_of_bits(a)
                    assert s is not None
                    assert cl_f(l, a) == l.poset.down_masks[s]

    def test_fixed_points(self):
        for l in semis_upto(4):
            for a in range(1 << l.n):
                if is_f_scott_closed_literal(l, a):
                    assert cl_f(l, a) == a

    def test_wedge_powerdomain_example(self, wedge):
        h = build_hc(wedge)
        l = h.semilattice
        fam = h.family
        ma = 1 << fam.index_of[wedge.subset_from_labels(["m", "a"])]
        mb = 1 << fam.index_of[wedge.subset_from_labels(["m", "b"])]
        m = 1 << fam.index_of[wedge.subset_from_labels(["m"])]
        # the two upper members are inconsistent in the powerdomain, so only
        # the lower closure fires
        assert cl_f(l, ma | mb) == m | ma | mb

    def test_closure_operator_laws(self):
        for l in semis_upto(3):
            for a in range(1 << l.n):
                c = cl_f(l, a)
                assert a & ~c == 0
                assert cl_f(l, c) == c
                for b in range(1 << l.n):
                    if a & ~b == 0:
                        assert c & ~cl_f(l, b) == 0

    def test_mutation_hooks_change_results(self, vee):
        l = build_hc(vee).semilattice
        pair = 0b0011
        assert cl_f(l, pair) == 0b0111
        with closure_mutant("pair_join"):
            assert cl_f(l, pair) == 0b0011
        assert cl_f(l, pair) == 0b0111

    def test_mutant_leaves_no_result_behind(self):
        # the mutant's closed sets must not be served from the gamma_f cache
        # once it is gone, nor the real ones while it is active
        trio = [(p, build_hc(p).semilattice) for p in catalog.standard_trio()]

        def results():
            return [
                (gamma_f(l).members, [cl_f(l, a) for a in range(1 << l.n)], check_thm_3_10(p).verdict)
                for p, l in trio
            ]

        clean = results()
        assert all(verdict == "PASS" for _, _, verdict in clean)
        with closure_mutant("pair_join"):
            mutated = results()
        assert [closed for closed, _, _ in mutated] != [closed for closed, _, _ in clean]
        assert results() == clean


class TestGammaF:
    def test_antichain_all_subsets(self, a2):
        l = VSemilattice.from_poset(a2)
        assert gamma_f(l).members == (0, 1, 2, 3)

    def test_hoare_vee_excludes_unjoined_pair(self, vee):
        l = build_hc(vee).semilattice
        members = gamma_f(l).members
        assert len(members) == 5
        assert 0b0011 not in members

    def test_singleton(self, s1):
        l = VSemilattice.from_poset(s1)
        assert gamma_f(l).members == (0, 1)

    def test_matches_naive_filter(self):
        for l in semis_upto(4):
            naive = sorted(
                (a for a in range(1 << l.n) if is_f_scott_closed_literal(l, a)),
                key=lambda b: (b.bit_count(), b),
            )
            assert list(gamma_f(l).members) == naive

    def test_matches_naive_filter_on_powerdomains(self):
        for p in small_posets(4):
            l = build_hc(p).semilattice
            naive = sorted(
                (a for a in range(1 << l.n) if is_f_scott_closed_literal(l, a)),
                key=lambda b: (b.bit_count(), b),
            )
            assert list(gamma_f(l).members) == naive

    def test_matches_the_lectic_oracle_on_powerdomains(self):
        for p in small_posets(6):
            l = build_hc(p).semilattice
            assert gamma_f(l) == lectic_gamma_f(l)

    def test_matches_the_lectic_oracle_on_semilattices(self):
        for l in semis_upto(5):
            assert gamma_f(l) == lectic_gamma_f(l)

    def test_one_cl_f_call_per_closure_step(self, monkeypatch):
        # on the default run's families, gamma_f calls cl_f once for the
        # empty set and once per (closed set, minimal element outside it)
        # pair; Next-Closure made 3855 calls on the same families
        families, calls = [], []
        cached, real = semilattice._gamma_f_cached, semilattice.cl_f

        def recording(l):
            families.append(l)
            return cached(l)

        def counting(l, bits):
            calls.append(bits)
            return real(l, bits)

        cached.cache_clear()
        try:
            with monkeypatch.context() as mp:
                mp.setattr(semilattice, "_gamma_f_cached", recording)
                mp.setattr(semilattice, "cl_f", counting)
                assert not run_all().any_fail
            steps = 0
            for l in dict.fromkeys(families):
                down = l.poset.down_masks
                steps += 1
                for c in cached(l).members:
                    steps += sum(down[x] & ~c == 1 << x for x in range(l.n) if not c >> x & 1)
        finally:
            cached.cache_clear()
        assert len(calls) == steps == 2687


def _closure_systems(semilattice_n, powerdomain_base_n):
    """The F-Scott closure systems of the semilattices up to the first size
    and of the powerdomains of the posets up to the second."""
    lattices = semis_upto(semilattice_n)
    lattices += [build_hc(p).semilattice for p in small_posets(powerdomain_base_n)]
    return [gamma_f(l) for l in lattices]


class TestClosureSystem:
    def test_every_closed_set_meets_its_irreducibles(self):
        for fc in _closure_systems(5, 4):
            irreducibles = meet_irreducibles(fc)
            assert set(irreducibles) <= set(fc.members)
            for c in fc.members:
                meet = fc.base.full_mask
                for i in irreducibles:
                    if not c & ~i:
                        meet &= i
                assert meet == c
            # and none is the meet of the other irreducibles containing it
            for k, i in enumerate(irreducibles):
                meet = fc.base.full_mask
                for j in irreducibles[:k] + irreducibles[k + 1 :]:
                    if not i & ~j:
                        meet &= j
                assert meet != i

    def test_irreducible_count(self):
        systems = [gamma_f(l) for l in semis_upto(4)]
        assert sum(len(fc.members) for fc in systems) == 152
        assert sum(len(meet_irreducibles(fc)) for fc in systems) == 73


class TestHomomorphisms:
    def test_identity(self, vee):
        l = VSemilattice.from_poset(vee)
        ident = PosetMap(vee, vee, tuple(range(3)))
        assert is_homomorphism(ident, l, l)

    def test_constant_maps(self, vee, c3):
        l = VSemilattice.from_poset(vee)
        m = VSemilattice.from_poset(c3)
        for v in range(3):
            const = PosetMap(vee, c3, (v, v, v))
            assert is_homomorphism(const, l, m)

    def test_hoare_vee_to_chain_example(self, vee, c2):
        l = build_hc(vee).semilattice
        m = VSemilattice.from_poset(c2)
        # collapsing both point closures to 0 forces their join to 0 as well
        collapse = PosetMap(l.poset, c2, (0, 0, 0, 1))
        assert is_homomorphism(collapse, l, m)
        # monotone but sends the join of the point closures above their images
        stepped = PosetMap(l.poset, c2, (0, 0, 1, 1))
        assert stepped.is_monotone()
        assert not is_homomorphism(stepped, l, m)
        swapped = PosetMap(l.poset, c2, (1, 0, 0, 1))
        assert not swapped.is_monotone()

    def test_endpoint_validation(self, vee, c2):
        l = VSemilattice.from_poset(vee)
        m = VSemilattice.from_poset(c2)
        with pytest.raises(PosetError, match="endpoints"):
            is_homomorphism(PosetMap(c2, c2, (0, 1)), l, m)

    def test_monotone_non_join_preserving(self, vee, c3):
        l = VSemilattice.from_poset(vee)
        m = VSemilattice.from_poset(c3)
        f = PosetMap(vee, c3, (0, 1, 2))
        assert f.is_monotone()
        assert not is_homomorphism(f, l, m)
        # the preimage of the ideal below 1 is the unjoined pair {a, b}
        violation = f_scott_continuity_violation(f, l, m)
        assert violation is not None
        c, pre = violation
        assert pre == vee.subset_from_labels(["a", "b"])

    def test_homomorphisms_preserve_directed_sups(self):
        for l in semis_upto(3):
            for m in semis_upto(3):
                for img in iter_homomorphisms(l, m):
                    assert PosetMap(l.poset, m.poset, img).is_scott_continuous()


class TestEnumerateHomomorphisms:
    def test_counts(self, s1, c2, a2):
        ls1 = VSemilattice.from_poset(s1)
        lc2 = VSemilattice.from_poset(c2)
        la2 = VSemilattice.from_poset(a2)
        assert len(list(iter_homomorphisms(ls1, ls1))) == 1
        assert len(list(iter_homomorphisms(lc2, lc2))) == 3
        assert len(list(iter_homomorphisms(la2, lc2))) == 4

    def test_matches_naive_filter(self):
        # the powerdomains are the domains the map sweep streams homomorphisms from
        domains = semis_upto(3) + [build_hc(p).semilattice for p in small_posets(3)]
        for l in domains:
            for m in semis_upto(3):
                # lexicographic in the images along the linear extension
                order = l.poset.linear_extension
                naive = []
                for along in itertools.product(range(m.n), repeat=l.n):
                    img = [0] * l.n
                    for e, v in zip(order, along):
                        img[e] = v
                    f = PosetMap(l.poset, m.poset, tuple(img))
                    if f.is_monotone() and is_homomorphism(f, l, m):
                        naive.append(f.img)
                got = tuple(iter_homomorphisms(l, m))
                assert got == tuple(naive)


class TestFScottContinuity:
    def test_identity_continuous(self, vee):
        l = VSemilattice.from_poset(vee)
        assert is_f_scott_continuous(PosetMap(vee, vee, (0, 1, 2)), l, l)

    def test_homomorphism_iff_continuous(self):
        for l in semis_upto(3):
            for m in semis_upto(3):
                for img in itertools.product(range(m.n), repeat=l.n):
                    f = PosetMap(l.poset, m.poset, img)
                    if not f.is_monotone():
                        continue
                    assert is_homomorphism(f, l, m) == is_f_scott_continuous(f, l, m)


class TestTransport:
    def test_requires_monotone(self, a2, c2):
        l = VSemilattice.from_poset(c2)
        f = PosetMap(c2, c2, (1, 0))
        with pytest.raises(PosetError, match="monotone"):
            sup_exists_transport_check(c2, l, f, 0b01)

    def test_closed_sets_trivially_pass(self, vee, c2):
        l = VSemilattice.from_poset(c2)
        f = PosetMap(vee, c2, (0, 0, 1))
        closed = vee.subset_from_labels(["a", "b"])
        assert sup_exists_transport_check(vee, l, f, closed)

    def test_collapse_map_example(self, vee, c2):
        l = VSemilattice.from_poset(c2)
        f = PosetMap(vee, c2, (0, 0, 1))
        top_only = vee.subset_from_labels(["t"])
        assert sup_exists_transport_check(vee, l, f, top_only)

    def test_both_sides_nonexistent(self, a2):
        la2 = VSemilattice.from_poset(a2)
        ident = PosetMap(a2, a2, (0, 1))
        assert sup_exists_transport_check(a2, la2, ident, a2.full_mask)
