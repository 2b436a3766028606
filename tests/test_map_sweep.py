"""The one map sweep behind Lem2.3, Freeness and Lem3.8: failure parity
with each statement's own loop, mutants that reach every failure detail,
cache hygiene and sharing, and one ``_member_sups`` evaluation and no full
``_image_sups`` table per map on the pass path.  Lem3.6,
which has its own loop over pairs of semilattices, is held to the same
parity and runs no map sweep."""

import itertools
import json

import pytest

from powerlab import catalog
from powerlab.enumeration import monotone_map_images
from powerlab.poset import iter_bits
from powerlab.semilattice import NO_SUP, iter_homomorphisms
from powerlab.suite import (
    Config,
    _image_sups,
    _map_sweep,
    _member_sups,
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


def _no_sup_for_the_last_member(l, img, maxima):
    # the last member is the full domain whenever the poset has a top
    return _member_sups(l, img, maxima)[:-1] + (NO_SUP,)


def _shifted_sup_for_the_last_member(l, img, maxima):
    # moves the last member's sup to the next element, so the extension
    # leaves the homomorphisms and, into an antichain, stops being monotone
    out = _member_sups(l, img, maxima)
    return out if out[-1] == NO_SUP else out[:-1] + ((out[-1] + 1) % l.n,)


def _no_sup_for_the_full_set(l, img):
    # the full-table form of the undefined sup, for the statements that read
    # every subset: the full domain's entry comes last
    return _image_sups(l, img)[:-1] + bytes([NO_SUP])


def _shifted_sup_for_the_full_set(l, img):
    # the full-table form of the shifted sup
    out = _image_sups(l, img)
    return out if out[-1] == NO_SUP else out[:-1] + bytes([(out[-1] + 1) % l.n])


# the full-table mutants, patched over ``_image_sups`` in powerlab.suite
TABLE_MUTANTS = {
    "undefined_sup": ("_image_sups", _no_sup_for_the_full_set),
    "shifted_sup": ("_image_sups", _shifted_sup_for_the_full_set),
}


# (patched name in powerlab.suite, mutant, the failure details it must raise)
MUTANTS = {
    "drop_one_homomorphism": (
        "iter_homomorphisms",
        _without_first_homomorphism,
        {
            ("Freeness", "{N} powerdomain maps vs {M} monotone maps"),
            ("Freeness", "extension does not preserve joins"),
            ("Freeness", "{N} powerdomain maps restrict to this map"),
        },
    ),
    "drop_every_homomorphism": (
        "iter_homomorphisms",
        _without_homomorphisms,
        {("Lem3.8", "map-refutable and embedding-refutable subsets disagree")},
    ),
    "add_a_non_monotone_map": (
        "iter_homomorphisms",
        _with_a_non_monotone_map,
        {
            ("Freeness", "{N} powerdomain maps vs {M} monotone maps"),
            ("Lem3.8", "map-refutable and embedding-refutable subsets disagree"),
        },
    ),
    "undefined_sup": (
        "_member_sups",
        _no_sup_for_the_last_member,
        {
            ("Lem2.3", "member image has no least upper bound"),
            ("Freeness", "extension undefined on a member"),
        },
    ),
    "shifted_sup": (
        "_member_sups",
        _shifted_sup_for_the_last_member,
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


def test_pass_path_reads_member_sups_only():
    # at their default bounds, posets <= 4 and semilattices <= 4, the three
    # statements evaluate each (poset, semilattice, map) at the powerdomain
    # members once and build no full sup table
    calls = {"_member_sups": 0, "_image_sups": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    posets = small_posets(4)
    maps = sum(len(monotone_map_images(p, l.poset)) for p in posets for l in _semilattices_upto(4))
    with sweep_mutant("_member_sups", counted("_member_sups", _member_sups)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("powerlab.suite._image_sups", counted("_image_sups", _image_sups))
            for p in posets:
                for check, _ in CHECKS:
                    assert check(p, 4).verdict == "PASS"
    assert calls == {"_member_sups": maps, "_image_sups": 0}
    assert maps == 18526


# -- Lem3.6, by its own loop -----------------------------------------------------

LEMMA_3_6_BOUNDS = [(a, b) for a in range(1, 4) for b in range(1, 4)]


def test_lemma_3_6_matches_its_loop():
    for bounds in LEMMA_3_6_BOUNDS + [(4, 4)]:
        assert _dump(check_lemma_3_6(*bounds).failures) == _dump(literal_lemma_3_6(*bounds))


def test_lemma_3_6_matches_its_loop_under_the_pair_join_mutant():
    with closure_mutant("pair_join"):
        for bounds in LEMMA_3_6_BOUNDS:
            assert _dump(check_lemma_3_6(*bounds).failures) == _dump(literal_lemma_3_6(*bounds))


def test_lemma_3_6_matches_its_loop_under_a_sup_mutant():
    name, replacement = TABLE_MUTANTS["shifted_sup"]
    with sweep_mutant(name, replacement):
        assert check_lemma_3_6(3, 3).failures
        for bounds in LEMMA_3_6_BOUNDS:
            assert _dump(check_lemma_3_6(*bounds).failures) == _dump(literal_lemma_3_6(*bounds))


def test_one_map_sweep_entry_per_poset():
    # the sweep loops over the semilattices itself, so its cache holds one
    # entry per poset at the bound: the 24 posets of 1 to 4 elements
    _map_sweep.cache_clear()
    summary = run_all(Config(suites=("lem2.3", "freeness", "lem3.8")))
    assert not summary.any_fail and not summary.any_inconclusive
    assert _map_sweep.cache_info().currsize == 24


def test_lemma_3_6_runs_no_map_sweep():
    # Lem3.6 quantifies over pairs of semilattices and has its own loop, so a
    # run of it alone fills no entry of the per-poset map sweep
    _map_sweep.cache_clear()
    summary = run_all(Config(suites=("lem3.6",)))
    assert not summary.any_fail and not summary.any_inconclusive
    assert summary.groups[0]["instances"] == 1
    assert _map_sweep.cache_info().misses == 0
