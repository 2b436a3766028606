"""Prop3.4 and Lem3.6 evaluate a semilattice pair's maps all at once, as
byte columns: the homomorphism flags against ``is_homomorphism``, the
cached homomorphism columns against ``iter_homomorphisms``, the continuity
flags against ``is_f_scott_continuous``, the sup columns at the
widest codomain and with no maps, failure payloads against each statement's
per-map loop, the packing limits, one enumeration and one sup table per
pair."""

import json
from collections import Counter
from functools import lru_cache

import pytest

from powerlab import catalog
from powerlab.enumeration import monotone_map_images
from powerlab.poset import PosetError, PosetMap, iter_monotone_maps
from powerlab.semilattice import (
    VSemilattice,
    _column_sups,
    _homomorphism_images,
    _map_columns,
    _monotone_columns,
    is_f_scott_continuous,
    is_homomorphism,
    iter_homomorphisms,
    meet_irreducibles,
)
from powerlab.suite import Config, _semilattices_upto, check_lemma_3_6, check_prop_3_4, run_all

from conftest import literal_prop_3_4, sweep_mutant
from test_suite import _sup_oracle


def _dump(failures):
    return json.dumps(failures, sort_keys=True)


@lru_cache(maxsize=None)
def _continuous(l, m):
    # the monotone maps l -> m that is_f_scott_continuous accepts
    return tuple(
        img
        for img in monotone_map_images(l.poset, m.poset)
        if is_f_scott_continuous(PosetMap(l.poset, m.poset, img), l, m)
    )


def _continuity_as_homomorphisms(complement):
    # _map_columns with the continuity oracle's verdicts, or their
    # complement, in place of the homomorphism flags
    def mutant(l, m):
        columns, _ = _map_columns(l, m)
        continuous = set(_continuous(l, m))
        return columns, bytes((img in continuous) != complement for img in zip(*columns))

    return mutant


def test_flags_match_is_homomorphism_on_every_pair():
    # the columns are iter_monotone_maps' rows, and each flag is the literal
    # definition's verdict on its row
    pool = _semilattices_upto(4)
    homs = 0
    for l in pool:
        for m in pool:
            columns, flags = _map_columns(l, m)
            images = tuple(zip(*columns))
            assert images == monotone_map_images(l.poset, m.poset)
            assert list(flags) == [is_homomorphism(PosetMap(l.poset, m.poset, g), l, m) for g in images]
            homs += sum(flags)
    assert homs == 16413


def test_homomorphism_columns_match_the_stream_on_every_pair():
    # the cached view Lem3.6 reads is iter_homomorphisms' rows, transposed
    # into one byte column per domain element
    pool = _semilattices_upto(4)
    homs = 0
    for l in pool:
        for m in pool:
            rows = list(iter_homomorphisms(l, m))
            columns = _homomorphism_images(l, m)
            assert columns == tuple(bytes(g[x] for g in rows) for x in range(l.n))
            homs += len(rows)
    assert homs == 16413


@pytest.mark.usefixtures("cached_literal_closedness")
class TestContinuityFlags:
    """With the homomorphism flags of Prop3.4 replaced by the continuity
    oracle, the check fails on exactly the maps whose flag disagrees with
    ``is_f_scott_continuous``."""

    def test_flags_match_the_oracle_on_every_pair(self):
        with sweep_mutant(_map_columns=_continuity_as_homomorphisms(False)):
            assert check_prop_3_4(4, 0).failures == []

    def test_flags_are_not_vacuous(self):
        # the oracle's complement as the homomorphisms: every map disagrees,
        # and each failure names the map's oracle verdict as its continuity
        with sweep_mutant(_map_columns=_continuity_as_homomorphisms(True)):
            failures = check_prop_3_4(4, 0).failures
        pool = _semilattices_upto(4)
        assert len(failures) == sum(len(monotone_map_images(l.poset, m.poset)) for l in pool for m in pool)
        assert len(failures) == 17993
        continuous = sum(len(_continuous(l, m)) for l in pool for m in pool)
        assert sum("continuity=True" in f["detail"] for f in failures) == continuous


class TestPayloads:
    """Failures are walked from the flagged rows in the per-map order."""

    def test_prop_3_4_matches_its_loop(self):
        assert _dump(check_prop_3_4(3, 0).failures) == _dump(literal_prop_3_4(3))

    @pytest.mark.parametrize("drop", [0, 1, -1])
    def test_prop_3_4_matches_its_loop_without_an_irreducible(self, drop, monkeypatch):
        def mutant(family):
            out = list(meet_irreducibles(family))
            if out[drop:]:
                del out[drop]
            return tuple(out)

        monkeypatch.setattr("powerlab.suite.meet_irreducibles", mutant)
        failures = check_prop_3_4(3, 0).failures
        assert failures
        assert _dump(failures) == _dump(literal_prop_3_4(3))

    def test_prop_3_4_matches_its_loop_without_a_homomorphism(self):
        # each pair's first homomorphism flagged as none
        def mutant(l, m):
            columns, flags = _map_columns(l, m)
            return columns, flags.replace(b"\x01", b"\x00", 1)

        with sweep_mutant(_map_columns=mutant):
            failures = check_prop_3_4(3, 0).failures
            assert failures
            assert _dump(failures) == _dump(literal_prop_3_4(3))


class TestSupColumns:
    def test_fourteen_elements_fit(self):
        # the widest codomain: the empty-set marker 14 and NO_SUP's 15
        # stay apart from every element
        for m in (catalog.chain(14), catalog.antichain(14)):
            m = VSemilattice.from_poset(m)
            for l in _semilattices_upto(2):
                images = monotone_map_images(l.poset, m.poset)
                columns = _column_sups(m, _monotone_columns(l.poset, m.poset))
                assert len(columns) == 1 << l.n
                for r, g in enumerate(images):
                    f = PosetMap(l.poset, m.poset, g)
                    assert bytes(c[r] for c in columns) == _sup_oracle(f, m)

    def test_no_maps_give_one_empty_string(self):
        # with no map each of the n domain columns is empty, and so is
        # every subset's string, one per subset
        for m in _semilattices_upto(3):
            for n in range(1, 4):
                assert _column_sups(m, (b"",) * n) == (b"",) * (1 << n)


class TestPackingLimits:
    def test_a_fifteen_element_codomain_is_refused(self):
        with pytest.raises(PosetError, match="at most 14 elements, not 15"):
            VSemilattice.from_poset(catalog.chain(15)).column_join

    def test_oversized_bounds_are_refused_before_any_work(self, monkeypatch):
        def no_work(k):
            raise AssertionError("semilattices enumerated")

        monkeypatch.setattr("powerlab.suite._semilattices_upto", no_work)
        with pytest.raises(PosetError, match="pair bound 9 exceeds 8"):
            check_prop_3_4(9, 1)
        with pytest.raises(PosetError, match="m bound 15 exceeds 14"):
            check_lemma_3_6(1, 15)


def test_lemma_3_6_builds_no_sup_table_per_map(monkeypatch):
    # one sup table per semilattice pair holds its 16 413 homomorphisms
    calls = []

    def counted(m, columns):
        calls.append(len(columns[0]))
        return _column_sups(m, columns)

    monkeypatch.setattr("powerlab.suite._column_sups", counted)
    assert check_lemma_3_6(4, 4).verdict == "PASS"
    pool = _semilattices_upto(4)
    assert len(calls) == len(pool) ** 2
    assert sum(calls) == sum(len(_homomorphism_images(l, m)[0]) for l in pool for m in pool) == 16413


def test_each_pair_is_enumerated_once(monkeypatch):
    # Prop3.4 and Lem3.6 read one table per semilattice pair, so a run of
    # both enumerates each pair's monotone maps once
    counts = Counter()

    def counted(p, q):
        counts[p, q] += 1
        return iter_monotone_maps(p, q)

    monkeypatch.setattr("powerlab.semilattice.iter_monotone_maps", counted)
    with sweep_mutant():
        summary = run_all(Config(suites=("prop3.4", "lem3.6")))
    assert not summary.any_fail and not summary.any_inconclusive
    pool = _semilattices_upto(4)
    assert counts == Counter({(l.poset, m.poset): 1 for l in pool for m in pool})


def test_a_default_run_enumerates_each_pair_once(monkeypatch):
    # the map sweep, Prop3.2, Prop3.4 and Lem3.6 read one cached table per
    # (domain, codomain) pair: 552 tables of 18 526 maps in all, where a
    # table per reader came to 1265 enumerations of 39 464 maps
    counts, maps = Counter(), []

    def counted(p, q):
        counts[p, q] += 1
        rows = tuple(iter_monotone_maps(p, q))
        maps.append(len(rows))
        return rows

    monkeypatch.setattr("powerlab.semilattice.iter_monotone_maps", counted)
    with sweep_mutant():
        summary = run_all()
    assert not summary.any_fail and not summary.any_inconclusive
    assert set(counts.values()) == {1}
    assert (len(counts), sum(maps)) == (552, 18526)
