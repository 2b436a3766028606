"""The one map sweep behind Lem2.3, Freeness and Lem3.8: failure parity
with each statement's own loop, mutants that reach every failure detail,
the pass path against the failure path, premise B, cache hygiene and
sharing, one ``_column_sups`` table per (poset, semilattice) pair with
no homomorphism stream on the pass path, and a shifted ``column_join``
that every column reader sees.  Lem3.6, which has its own loop
over pairs of semilattices, is held to the same parity and runs no map
sweep."""

import itertools
import json
from types import SimpleNamespace

import pytest

from powerlab import catalog, semilattice
from powerlab.enumeration import monotone_map_images
from powerlab.hoare import build_hc
from powerlab.poset import iter_bits, iter_monotone_maps
from powerlab.semilattice import (
    NO_SUP,
    VSemilattice,
    _columns,
    _monotone_columns,
    iter_homomorphisms,
)
from powerlab.suite import (
    MAX_FAILURES,
    Config,
    _column_sups,
    _map_sweep,
    _points_generate,
    _semilattices_upto,
    check_freeness,
    check_lemma_2_3,
    check_lemma_3_6,
    check_lemma_3_8,
    run_all,
)

from conftest import (
    closure_mutant,
    literal_freeness,
    literal_lemma_2_3,
    literal_lemma_3_6,
    literal_lemma_3_8,
    small_posets,
    sweep_mutant,
)

CHECKS = (
    (check_lemma_2_3, literal_lemma_2_3),
    (check_freeness, literal_freeness),
    (check_lemma_3_8, literal_lemma_3_8),
)


def _unproven(h):
    # premise B read as failed, so every semilattice takes the failure path
    return False


def _without_first_homomorphism(l, m):
    return itertools.islice(iter_homomorphisms(l, m), 1, None)


def _without_homomorphisms(l, m):
    return iter(())


def _with_a_non_monotone_map(l, m):
    # sends element k to k mod |m|, kept only where that breaks the order: its
    # restriction along the embedding is then no monotone map, and Lem3.8
    # must evaluate it apart from the map sweep
    g = tuple(k % m.n for k in range(l.n))
    up_l, up_m = l.poset.up_masks, m.poset.up_masks
    monotone = all(up_m[g[i]] >> g[j] & 1 for i in range(l.n) for j in iter_bits(up_l[i]))
    return itertools.chain(iter_homomorphisms(l, m), () if monotone else (g,))


def _no_sup_for_the_full_set(l, columns):
    # every map's sup at the full domain, whose entry comes last, taken
    # away; the full domain is a powerdomain member whenever the poset has
    # a top
    return _column_sups(l, columns)[:-1] + (bytes([NO_SUP]) * len(columns[0]),)


def _shifted_sup_for_the_full_set(l, columns):
    # moves every map's sup at the full domain to the next element, so the
    # extension leaves the homomorphisms and, into an antichain, stops being
    # monotone
    out = _column_sups(l, columns)
    return out[:-1] + (bytes(s if s == NO_SUP else (s + 1) % l.n for s in out[-1]),)


def _full_sup_for_every_pair(l, columns):
    # every subset of two or more elements takes the full domain's sups: on
    # the vee the extension stays monotone and restricts to the map, but
    # sends the pair of minimal points to the top's image, which breaks the
    # join of their point closures wherever their images join below it
    out = _column_sups(l, columns)
    return tuple(out[-1] if a & (a - 1) else s for a, s in enumerate(out))


# the mutants of the sup table that every statement on maps reads, patched
# over ``_column_sups`` in powerlab.suite
TABLE_MUTANTS = {
    "undefined_sup": ("_column_sups", _no_sup_for_the_full_set),
}


# (the powerlab.suite names patched, each with its mutant; the failure
# details the mutant must raise).  The pass path streams no homomorphism,
# so a mutant of the stream is paired with premise B read as failed: the
# sweep cannot then prove uniqueness and must walk every semilattice
# through the stream.  A mutant of the table itself must be caught by the
# pass path's own tests.
MUTANTS = {
    "drop_one_homomorphism": (
        {"iter_homomorphisms": _without_first_homomorphism, "_points_generate": _unproven},
        {
            ("Freeness", "{N} powerdomain maps vs {M} monotone maps"),
            ("Freeness", "extension does not preserve joins"),
            ("Freeness", "{N} powerdomain maps restrict to this map"),
        },
    ),
    "drop_every_homomorphism": (
        {"iter_homomorphisms": _without_homomorphisms, "_points_generate": _unproven},
        {("Lem3.8", "map-refutable and embedding-refutable subsets disagree")},
    ),
    "add_a_non_monotone_map": (
        {"iter_homomorphisms": _with_a_non_monotone_map, "_points_generate": _unproven},
        {
            ("Freeness", "{N} powerdomain maps vs {M} monotone maps"),
            ("Lem3.8", "map-refutable and embedding-refutable subsets disagree"),
        },
    ),
    "unjoined_sup": (
        {"_column_sups": _full_sup_for_every_pair},
        {
            ("Freeness", "extension does not preserve joins"),
            ("Freeness", "{N} powerdomain maps restrict to this map"),
        },
    ),
    "undefined_sup": (
        dict([TABLE_MUTANTS["undefined_sup"]]),
        {
            ("Lem2.3", "member image has no least upper bound"),
            ("Freeness", "extension undefined on a member"),
        },
    ),
    "shifted_sup": (
        {"_column_sups": _shifted_sup_for_the_full_set},
        {
            ("Freeness", "extension not monotone"),
            ("Freeness", "extension does not restrict to the map"),
        },
    ),
}


def _detail_kind(detail):
    # the two details that carry counts, with the counts taken out
    if detail.endswith(" monotone maps"):
        return "{N} powerdomain maps vs {M} monotone maps"
    if detail.endswith("expected exactly the sup-of-image extension"):
        return "{N} powerdomain maps restrict to this map"
    return detail


def _dump(failures):
    return json.dumps(failures, sort_keys=True)


def test_every_poset_matches_the_statement_loops():
    for p in small_posets(4):
        for check, literal in CHECKS:
            assert _dump(check(p, 4).failures) == _dump(literal(p, 4))


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_failures_match_the_statement_loops(mutant):
    patches, expected = MUTANTS[mutant]
    seen = set()
    with sweep_mutant(**patches):
        for p in small_posets(3):
            for check, literal in CHECKS:
                failures = check(p, 3).failures
                assert _dump(failures) == _dump(literal(p, 3))
                seen.update((f["statement"], _detail_kind(f["detail"])) for f in failures)
    assert expected <= seen


def test_mutants_reach_every_failure_detail():
    # every detail the three statements report, counts taken out, but the
    # count of maps into the 2-chain, which
    # test_a_default_run_counts_the_maps_into_the_2_chain reaches
    every = {
        ("Lem2.3", "member image has no least upper bound"),
        ("Freeness", "{N} powerdomain maps vs {M} monotone maps"),
        ("Freeness", "extension undefined on a member"),
        ("Freeness", "extension not monotone"),
        ("Freeness", "extension does not preserve joins"),
        ("Freeness", "extension does not restrict to the map"),
        ("Freeness", "{N} powerdomain maps restrict to this map"),
        ("Lem3.8", "map-refutable and embedding-refutable subsets disagree"),
    }
    assert set().union(*(details for _, details in MUTANTS.values())) == every


def _without_the_vees_last_map(p, q):
    # the last monotone map out of the vee dropped, every other pair's maps,
    # the powerdomain's among them, left whole
    maps = tuple(iter_monotone_maps(p, q))
    return maps[:-1] if p == catalog.vee() else maps


# the leak test's mutants: those of MUTANTS, and one of the enumeration
# itself, patched over iter_monotone_maps in powerlab.semilattice, whose
# cached map tables read it.  The sweep's table then holds one map fewer
# than the homomorphisms the failure path streams from the powerdomain
LEAK_MUTANTS = {
    **MUTANTS,
    "drop_one_map": (
        {"iter_monotone_maps": _without_the_vees_last_map, "_points_generate": _unproven},
        {("Freeness", "{N} powerdomain maps vs {M} monotone maps")},
    ),
}


@pytest.mark.parametrize("mutant", sorted(LEAK_MUTANTS))
def test_mutant_result_does_not_leak(mutant):
    # a cached PASS must not survive into the mutant, nor its FAIL out of
    # it, on the vee: the smallest poset whose powerdomain has a join of two
    # incomparable members.  Nor may a mutant's map table survive in the
    # cache of every pair's maps, which the pass path reads without a count
    patches, expected = LEAK_MUTANTS[mutant]
    p = catalog.vee()
    checks = {"Lem2.3": check_lemma_2_3, "Freeness": check_freeness, "Lem3.8": check_lemma_3_8}
    statements = sorted({s for s, _ in expected})
    assert [checks[s](p, 2).verdict for s in statements] == ["PASS"] * len(statements)
    with sweep_mutant(**patches):
        assert [checks[s](p, 2).verdict for s in statements] == ["FAIL"] * len(statements)
    assert [checks[s](p, 2).verdict for s in statements] == ["PASS"] * len(statements)
    for l in _semilattices_upto(2):
        assert _monotone_columns(p, l.poset) == _columns(monotone_map_images(p, l.poset), p.n)


def _without_the_first_map(p, q):
    return itertools.islice(iter_monotone_maps(p, q), 1, None)


def test_a_default_run_counts_the_maps_into_the_2_chain():
    # an enumeration that drops the first map of every pair feeds both the
    # map tables and the homomorphism stream they are compared with; only
    # the count of the maps into the 2-chain against the lower sets sees it
    with sweep_mutant(iter_monotone_maps=_without_the_first_map):
        summary = run_all()
    freeness = next(g for g in summary.groups if g["statement"] == "Freeness")
    details = {f["detail"] for f in freeness["failures"]}
    # the one-element poset's two maps, one of them dropped
    assert "1 monotone maps into the 2-chain vs 2 lower sets" in details
    assert not run_all().any_fail


@pytest.mark.parametrize("mutant", [None, *sorted(MUTANTS)])
def test_failure_path_matches_the_pass_path(mutant):
    # with premise B read as failed every semilattice is walked through the
    # homomorphism stream; the findings must be those of the pass path,
    # clean and under each mutant
    patches = MUTANTS[mutant][0] if mutant else {}
    posets = small_posets(4)

    def swept(p):
        return _dump({s: [r.failures, r.failure_count] for s, r in _map_sweep(p, 4).items()})

    with sweep_mutant(**patches):
        passed = [swept(p) for p in posets]
    with sweep_mutant(**{**patches, "_points_generate": _unproven}):
        walked = [swept(p) for p in posets]
    # the posets whose findings differ, so that a failure names them
    assert [p for p, a, b in zip(posets, walked, passed) if a != b] == []


def test_points_generate_every_powerdomain_up_to_six():
    # premise B on each of the 405 posets of 1 to 6 elements
    posets = small_posets(6)
    assert len(posets) == 405
    assert all(_points_generate(build_hc(p)) for p in posets)


def test_points_generate_is_not_vacuous():
    # with the join of the vee's two minimal points taken out, the member
    # they make is reached from no point closure
    h = build_hc(catalog.vee())
    a, b = (h.j.img[x] for x in range(2))
    join = [list(row) for row in h.semilattice.join]
    join[a][b] = join[b][a] = -1
    broken = SimpleNamespace(j=h.j, semilattice=SimpleNamespace(join=join))
    assert _points_generate(h) and not _points_generate(broken)


def test_default_run_streams_no_homomorphism(monkeypatch):
    # every (poset, semilattice) pair of a default run passes on its sup
    # table alone, and Prop3.4 and Lem3.6 flag homomorphisms by columns
    calls = []

    def counted(l, m):
        calls.append((l, m))
        return iter_homomorphisms(l, m)

    monkeypatch.setattr(semilattice, "iter_homomorphisms", counted)
    with sweep_mutant(iter_homomorphisms=counted):
        summary = run_all()
    assert not summary.any_fail and not summary.any_inconclusive
    assert calls == []


def test_pass_path_reads_one_column_table_per_pair():
    # at their default bounds, posets <= 4 and semilattices <= 4, the three
    # statements evaluate each (poset, semilattice) pair's maps in one sup
    # table, and Lem3.8 builds no table for the homomorphisms
    calls = []

    def counted(l, columns):
        calls.append((l, len(columns[0])))
        return _column_sups(l, columns)

    posets = small_posets(4)
    semilattices = _semilattices_upto(4)
    maps = sum(len(monotone_map_images(p, l.poset)) for p in posets for l in semilattices)
    with sweep_mutant(_column_sups=counted):
        for p in posets:
            for check, _ in CHECKS:
                assert check(p, 4).verdict == "PASS"
    assert [l for l, _ in calls] == list(semilattices) * len(posets)
    assert sum(k for _, k in calls) == maps == 18526


# -- Lem3.6, by its own loop -----------------------------------------------------

LEMMA_3_6_BOUNDS = [(a, b) for a in range(1, 4) for b in range(1, 4)]


def test_lemma_3_6_matches_its_loop():
    for bounds in LEMMA_3_6_BOUNDS + [(4, 4)]:
        assert _dump(check_lemma_3_6(*bounds).failures) == _dump(literal_lemma_3_6(*bounds))


def test_lemma_3_6_matches_its_loop_under_the_pair_join_mutant():
    with closure_mutant("pair_join"):
        for bounds in LEMMA_3_6_BOUNDS:
            assert _dump(check_lemma_3_6(*bounds).failures) == _dump(literal_lemma_3_6(*bounds))


def test_lemma_3_6_keeps_the_first_failures_and_counts_them_all():
    # under an empty closure, 186 508 (map, subset) pairs break at the
    # default bounds: the report keeps the first MAX_FAILURES of them, in
    # the order of the statement's own loop, and it and the run's group
    # carry the exact count
    with sweep_mutant(cl_f=lambda l, a: 0):
        report = check_lemma_3_6(4, 4)
        group = run_all(Config(suites=("lem3.6",))).groups[0]
        assert check_lemma_3_6(3, 3).failure_count == 2232
        assert _dump(check_lemma_3_6(3, 3).failures) == _dump(literal_lemma_3_6(3, 3))
    assert report.failure_count == group["failure_count"] == 186508
    assert len(report.failures) == len(group["failures"]) == MAX_FAILURES


_COLUMN_JOIN = VSemilattice.__dict__["column_join"]


def _shifted_column_join(l):
    # each defined join z of a sup s < n with an element y, other than s or
    # y itself, moved to the next element
    return bytes(
        z if z == NO_SUP or z in (e >> 4, e & 15) or e >> 4 >= l.n else (z + 1) % l.n
        for e, z in enumerate(_COLUMN_JOIN.func(l))
    )


def _sups_under_a_shifted_join(l, columns):
    # _column_sups folded through the shifted join table, which no other
    # reader of column_join sees; a class-level property overrides any value
    # already cached on an instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VSemilattice, "column_join", property(_shifted_column_join))
        return _column_sups(l, columns)


def test_lemma_3_6_matches_its_loop_under_a_sup_mutant():
    # the join table that _column_sups reads, for the check's many maps and
    # the loop's one map at a time
    with sweep_mutant(_column_sups=_sups_under_a_shifted_join):
        assert check_lemma_3_6(3, 3).failures
        for bounds in LEMMA_3_6_BOUNDS:
            assert _dump(check_lemma_3_6(*bounds).failures) == _dump(literal_lemma_3_6(*bounds))


def test_every_poset_matches_the_statement_loops_under_a_sup_mutant():
    # the same sup tables under the map sweep: the extensions they take out
    # of order or off the joins must fail the pass path's column tests, so
    # that the failure path reports what the statement loops report
    seen = set()
    with sweep_mutant(_column_sups=_sups_under_a_shifted_join):
        for p in small_posets(3):
            for check, literal in CHECKS:
                failures = check(p, 3).failures
                assert _dump(failures) == _dump(literal(p, 3))
                seen.update((f["statement"], _detail_kind(f["detail"])) for f in failures)
    assert ("Freeness", "extension not monotone") in seen


def test_every_column_reader_sees_a_shifted_column_join():
    # the shifted join table installed on the class, where every reader of
    # column_join finds it: the sup tables of the map sweep, Prop3.2 and
    # Lem3.6, and Prop3.4's homomorphism flags.  The finding counts of a
    # default run are pinned, so no reader drops out of the column format
    with sweep_mutant(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(VSemilattice, "column_join", property(_shifted_column_join))
        summary = run_all()
    assert {g["statement"]: g["failure_count"] for g in summary.groups if g["failures"]} == {
        "Freeness": 186,
        "Prop3.2": 2,
        "Prop3.4": 301,
        "Lem3.6": 50,
    }
    assert not summary.any_inconclusive


def test_one_map_sweep_entry_per_poset():
    # the sweep loops over the semilattices itself, so its cache holds one
    # entry per poset at the bound: the 24 posets of 1 to 4 elements
    _map_sweep.cache_clear()
    summary = run_all(Config(suites=("lem2.3", "freeness", "lem3.8")))
    assert not summary.any_fail and not summary.any_inconclusive
    assert _map_sweep.cache_info().currsize == 24


def _no_sup_for_any_nonempty_set(l, columns):
    # every map's sup taken away at every nonempty subset
    out = _column_sups(l, columns)
    return out[:1] + (bytes([NO_SUP]) * len(columns[0]),) * (len(out) - 1)


def test_the_sweep_holds_capped_reports():
    # with no sup for any nonempty set, every member image of every map is
    # a finding: a default run counts every one, and the reports that the
    # sweep's cache holds keep at most MAX_FAILURES payloads each
    with sweep_mutant(_column_sups=_no_sup_for_any_nonempty_set):
        summary = run_all(Config(suites=("lem2.3", "freeness", "lem3.8")))
        reports = [r for p in small_posets(4) for r in _map_sweep(p, 4).values()]
        assert _map_sweep.cache_info().currsize == 24
    counted = {
        g["statement"]: (g.get("failure_count", 0), len(g["failures"])) for g in summary.groups
    }
    assert counted == {"Lem2.3": (78266, 21469), "Freeness": (18526, 13892), "Lem3.8": (0, 0)}
    assert sum(r.failure_count for r in reports) == 78266 + 18526
    assert max(len(r.failures) for r in reports) == MAX_FAILURES


def test_lemma_3_6_runs_no_map_sweep():
    # Lem3.6 quantifies over pairs of semilattices and has its own loop, so a
    # run of it alone fills no entry of the per-poset map sweep
    _map_sweep.cache_clear()
    summary = run_all(Config(suites=("lem3.6",)))
    assert not summary.any_fail and not summary.any_inconclusive
    assert summary.groups[0]["instances"] == 1
    assert _map_sweep.cache_info().misses == 0
