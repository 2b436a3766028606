"""The one map sweep behind Lem2.3, Freeness, Lem3.8 and Lem3.6: failure
parity with each statement's own loop, mutants that reach every failure
detail, cache hygiene and sharing, and one ``_image_sups`` table per map."""

import json
from types import SimpleNamespace

import pytest

from powerlab import catalog, suite
from powerlab.enumeration import monotone_map_images
from powerlab.poset import InvariantError, iter_bits
from powerlab.semilattice import _homomorphism_images
from powerlab.suite import (
    LEMMA_3_6_CAP,
    _image_sups,
    _map_sweep,
    _semilattices_upto,
    check_freeness,
    check_lemma_2_3,
    check_lemma_3_6,
    check_lemma_3_8,
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


def _without_first_homomorphism(l, m):
    return _homomorphism_images(l, m)[1:]


def _without_homomorphisms(l, m):
    return ()


def _with_a_non_monotone_map(l, m):
    # sends element k to k mod |m|, kept only where that breaks the order: its
    # restriction along the embedding is then no monotone map, and Lem3.8
    # must evaluate it apart from the map sweep
    g = tuple(k % m.n for k in range(l.n))
    up_l, up_m = l.poset.up_masks, m.poset.up_masks
    monotone = all(up_m[g[i]] >> g[j] & 1 for i in range(l.n) for j in iter_bits(up_l[i]))
    return _homomorphism_images(l, m) + (() if monotone else (g,))


def _no_sup_for_the_full_set(l, img):
    # the full domain is a powerdomain member whenever the poset has a top
    out = _image_sups(l, img)
    out[-1] = -1
    return out


def _shifted_sup_for_the_full_set(l, img):
    # moves the full set's sup to the next element, so the extension leaves
    # the homomorphisms and, into an antichain, stops being monotone
    out = _image_sups(l, img)
    if out[-1] >= 0:
        out[-1] = (out[-1] + 1) % l.n
    return out


# (patched name in powerlab.suite, mutant, the failure details it must raise)
MUTANTS = {
    "drop_one_homomorphism": (
        "_homomorphism_images",
        _without_first_homomorphism,
        {
            ("Freeness", "{N} powerdomain maps vs {M} monotone maps"),
            ("Freeness", "extension does not preserve joins"),
            ("Freeness", "{N} powerdomain maps restrict to this map"),
        },
    ),
    "drop_every_homomorphism": (
        "_homomorphism_images",
        _without_homomorphisms,
        {("Lem3.8", "map-refutable and embedding-refutable subsets disagree")},
    ),
    "add_a_non_monotone_map": (
        "_homomorphism_images",
        _with_a_non_monotone_map,
        {
            ("Freeness", "{N} powerdomain maps vs {M} monotone maps"),
            ("Lem3.8", "map-refutable and embedding-refutable subsets disagree"),
        },
    ),
    "undefined_sup": (
        "_image_sups",
        _no_sup_for_the_full_set,
        {
            ("Lem2.3", "member image has no least upper bound"),
            ("Freeness", "extension undefined on a member"),
        },
    ),
    "shifted_sup": (
        "_image_sups",
        _shifted_sup_for_the_full_set,
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
    name, replacement, expected = MUTANTS[mutant]
    seen = set()
    with sweep_mutant(name, replacement):
        for p in small_posets(3):
            for check, literal in CHECKS:
                failures = check(p, 3).failures
                assert _dump(failures) == _dump(literal(p, 3))
                seen.update((f["statement"], _detail_kind(f["detail"])) for f in failures)
    assert expected <= seen


def test_mutants_reach_every_failure_detail():
    # every detail the three statements report, counts taken out
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
    assert set().union(*(details for _, _, details in MUTANTS.values())) == every


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_result_does_not_leak(mutant):
    # a cached PASS must not survive into the mutant, nor its FAIL out of it
    name, replacement, expected = MUTANTS[mutant]
    p = catalog.chain(2)
    checks = {"Lem2.3": check_lemma_2_3, "Freeness": check_freeness, "Lem3.8": check_lemma_3_8}
    statements = sorted({s for s, _ in expected})
    assert [checks[s](p, 2).verdict for s in statements] == ["PASS"] * len(statements)
    with sweep_mutant(name, replacement):
        assert [checks[s](p, 2).verdict for s in statements] == ["FAIL"] * len(statements)
    assert [checks[s](p, 2).verdict for s in statements] == ["PASS"] * len(statements)


def test_one_sup_table_per_map():
    # the three statements share one _image_sups table per (poset,
    # semilattice, map) at their default bounds: posets <= 4, semilattices <= 4
    calls = []

    def counted(l, img):
        calls.append(1)
        return _image_sups(l, img)

    posets = small_posets(4)
    maps = sum(len(monotone_map_images(p, l.poset)) for p in posets for l in _semilattices_upto(4))
    with sweep_mutant("_image_sups", counted):
        for p in posets:
            for check, _ in CHECKS:
                assert check(p, 4).verdict == "PASS"
    assert len(calls) == maps == 18526


# -- Lem3.6, read from the same sweep ------------------------------------------

LEMMA_3_6_BOUNDS = [(a, b) for a in range(1, 4) for b in range(1, 4)]


def test_lemma_3_6_matches_its_loop():
    for bounds in LEMMA_3_6_BOUNDS + [(4, 4)]:
        assert _dump(check_lemma_3_6(*bounds).failures) == _dump(literal_lemma_3_6(*bounds))


def test_lemma_3_6_matches_its_loop_under_the_pair_join_mutant():
    with closure_mutant("pair_join"):
        for bounds in LEMMA_3_6_BOUNDS:
            assert _dump(check_lemma_3_6(*bounds).failures) == _dump(literal_lemma_3_6(*bounds))


def test_lemma_3_6_matches_its_loop_under_a_sup_mutant():
    name, replacement, _ = MUTANTS["shifted_sup"]
    with sweep_mutant(name, replacement):
        assert check_lemma_3_6(3, 3).failures
        for bounds in LEMMA_3_6_BOUNDS:
            assert _dump(check_lemma_3_6(*bounds).failures) == _dump(literal_lemma_3_6(*bounds))


def test_lemma_3_6_report_does_not_depend_on_which_statement_sweeps_first():
    name, replacement, _ = MUTANTS["shifted_sup"]
    with sweep_mutant(name, replacement):
        lemma_3_6_first = check_lemma_3_6(3, 3).failures
        _map_sweep.cache_clear()
        for p in small_posets(3):
            check_lemma_2_3(p, 3)
        misses = _map_sweep.cache_info().misses
        lemma_2_3_first = check_lemma_3_6(3, 3).failures
        # every pair Lem3.6 reads was swept for Lem2.3 already
        assert _map_sweep.cache_info().misses == misses
    assert lemma_3_6_first
    assert _dump(lemma_3_6_first) == _dump(lemma_2_3_first)


def test_lemma_3_6_refuses_a_sweep_that_found_no_semilattice():
    # the sweep looks up the semilattice on its poset among the enumerated
    # ones; with none found it tests no homomorphism, which must not pass
    pool = _semilattices_upto(2)
    with sweep_mutant("enumerate_v_semilattices", lambda n: ()):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(suite, "_semilattices_upto", lambda k: pool)
            with pytest.raises(InvariantError, match="found no semilattice"):
                check_lemma_3_6(2, 2)


def _closures_to_the_empty_set(l):
    # every subset's F-Scott closure read as the empty set: a homomorphism
    # into a semilattice of two or more elements, such as a constant map at a
    # non-bottom, then gives some subset and its closure different sups
    return SimpleNamespace(closures=[0] * (1 << l.n))


def test_lemma_3_6_is_swept_only_within_its_cap():
    # the sweep finds the semilattice on its poset among the enumerated ones
    d = next(l.poset for l in _semilattices_upto(2) if l.n == 2)
    with sweep_mutant("gamma_f", _closures_to_the_empty_set):
        for m in _semilattices_upto(LEMMA_3_6_CAP + 1):
            found = _map_sweep(d, m).get("Lem3.6")
            assert bool(found) == (2 <= m.n <= LEMMA_3_6_CAP)
        assert check_lemma_3_6(2, 2).failures


@pytest.mark.parametrize("bounds", [(LEMMA_3_6_CAP + 1, 2), (2, LEMMA_3_6_CAP + 1)])
def test_lemma_3_6_refuses_a_pair_above_its_cap(bounds):
    with pytest.raises(InvariantError, match="not swept above"):
        check_lemma_3_6(*bounds)
