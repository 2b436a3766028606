"""Prop3.4 and Lem3.6 evaluate a semilattice pair's maps all at once, as
byte columns: the continuity flags against ``is_f_scott_continuous``, the
sup columns against ``_image_sups``, failure payloads against each
statement's per-map loop, the packing limits, and no per-map sup table."""

import json
from functools import lru_cache

import pytest

from powerlab import catalog
from powerlab.enumeration import monotone_map_images
from powerlab.poset import PosetError, PosetMap
from powerlab.semilattice import (
    NO_SUP,
    VSemilattice,
    _column_join,
    _column_sups,
    _homomorphism_images,
    _image_sups,
    is_f_scott_continuous,
    meet_irreducibles,
)
from powerlab.suite import _semilattices_upto, check_lemma_3_6, check_prop_3_4

from conftest import literal_prop_3_4, sweep_mutant

# a column nibble read back as a sup byte: 15 is NO_SUP
_SUP_BYTE = bytes(range(15)) + bytes([NO_SUP]) * 241


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


class TestContinuityFlags:
    """With the homomorphism side of Prop3.4 replaced by the continuity
    oracle, the check fails on exactly the maps whose flag disagrees with
    ``is_f_scott_continuous``."""

    def test_flags_match_the_oracle_on_every_pair(self):
        with sweep_mutant("_homomorphism_images", _continuous):
            assert check_prop_3_4(4, 0).failures == []

    def test_flags_are_not_vacuous(self):
        # the oracle's complement as the homomorphisms: every map disagrees,
        # and each failure names the map's oracle verdict as its continuity
        def discontinuous(l, m):
            cont = set(_continuous(l, m))
            return tuple(g for g in monotone_map_images(l.poset, m.poset) if g not in cont)

        with sweep_mutant("_homomorphism_images", discontinuous):
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
        def mutant(l, m):
            return _homomorphism_images(l, m)[1:]

        with sweep_mutant("_homomorphism_images", mutant):
            failures = check_prop_3_4(3, 0).failures
            assert failures
            assert _dump(failures) == _dump(literal_prop_3_4(3))


class TestSupColumns:
    def test_every_homomorphism_matches_image_sups(self):
        pool = _semilattices_upto(4)
        for l in pool:
            for m in pool:
                homs = _homomorphism_images(l, m)
                columns = _column_sups(m, homs, _column_join(m))
                assert len(columns) == 1 << l.n
                for r, g in enumerate(homs):
                    assert bytes(c[r] for c in columns).translate(_SUP_BYTE) == _image_sups(m, g)

    def test_fourteen_elements_fit(self):
        # the widest codomain: the empty-set marker 14 and NO_SUP's 15
        # stay apart from every element
        for m in (catalog.chain(14), catalog.antichain(14)):
            m = VSemilattice.from_poset(m)
            for l in _semilattices_upto(2):
                images = monotone_map_images(l.poset, m.poset)
                columns = _column_sups(m, images, _column_join(m))
                for r, g in enumerate(images):
                    assert bytes(c[r] for c in columns).translate(_SUP_BYTE) == _image_sups(m, g)


class TestPackingLimits:
    def test_a_fifteen_element_codomain_is_refused(self):
        with pytest.raises(PosetError, match="at most 14 elements, not 15"):
            _column_join(VSemilattice.from_poset(catalog.chain(15)))

    def test_oversized_bounds_are_refused_before_any_work(self, monkeypatch):
        def no_work(k):
            raise AssertionError("semilattices enumerated")

        monkeypatch.setattr("powerlab.suite._semilattices_upto", no_work)
        with pytest.raises(PosetError, match="pair bound 9 exceeds 8"):
            check_prop_3_4(9, 1)
        with pytest.raises(PosetError, match="m bound 15 exceeds 14"):
            check_lemma_3_6(1, 15)


def test_lemma_3_6_builds_no_sup_table_per_map(monkeypatch):
    # the columns replace the 16 413 per-homomorphism _image_sups tables
    calls = []

    def counted(l, img):
        calls.append(img)
        return _image_sups(l, img)

    monkeypatch.setattr("powerlab.suite._image_sups", counted)
    monkeypatch.setattr("powerlab.semilattice._image_sups", counted)
    assert check_lemma_3_6(4, 4).verdict == "PASS"
    assert calls == []
    pool = _semilattices_upto(4)
    assert sum(len(_homomorphism_images(l, m)) for l in pool for m in pool) == 16413
