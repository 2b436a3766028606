"""The filtered poset generator against the unfiltered loop: the same forms,
fewer candidates labelled and no candidate built, pinned bytes, a class-count
guard that catches a filter losing a class at every size A000112 covers, and
the order checks that every generated form still passes through."""

import hashlib
from contextlib import contextmanager

import pytest

from powerlab import Config, FinitePoset, canonical_form, enumerate_posets, run_all
from powerlab import enumeration
from powerlab.enumeration import POSET_COUNTS, _canonical_forms
from powerlab.poset import InvariantError, PosetError

from conftest import literal_canonical_forms

# the candidates the filters let through at each size, every one of them
# labelled; the unfiltered loop labels 1, 2, 7, 28, 135, 766, 5439
FILTERED_CANDIDATES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 68, 6: 350, 7: 2333}

FORMS_DIGEST = "fd2eb824a2ead515603ae182e42bf32143ddb34e01706510912260c9c74b68cf"

# the n = 8 forms, past the literal search (n <= 7) and the brute-force
# oracle (n <= 6); only A000112's count and these bytes check them
FORMS_8_DIGEST = "c96a299eb6e84493111b01eba24310a98321154332b533f7c2eebff285c8b91a"


# the lower sets of a poset, read past a patched ``FinitePoset.ideals``
lower_sets = FinitePoset.ideals.func


@contextmanager
def generation_mutant(ideals):
    """Run with ``FinitePoset.ideals`` read as ``ideals(p)``, uncached, the
    generator recomputing every size; no form or shared instance generated
    under it outlives it."""

    def clear():
        _canonical_forms.cache_clear()
        enumeration._poset_from_form.cache_clear()

    clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FinitePoset, "ideals", property(ideals))
            yield
    finally:
        clear()


@pytest.mark.parametrize("n", range(1, 8))
def test_forms_match_the_unfiltered_loop(n):
    assert _canonical_forms(n) == literal_canonical_forms(n)
    assert len(_canonical_forms(n)) == POSET_COUNTS[n]


def test_forms_are_pinned():
    data = b"".join(f for n in range(1, 8) for f in _canonical_forms(n))
    assert hashlib.sha256(data).hexdigest() == FORMS_DIGEST


def test_forms_of_eight_are_pinned():
    forms = _canonical_forms(8)
    assert len(forms) == POSET_COUNTS[8]
    assert hashlib.sha256(b"".join(forms)).hexdigest() == FORMS_8_DIGEST


def test_generation_runs_no_bit_generator(monkeypatch):
    # canonical_form and the generator read the masks in plain loops: a
    # per-element iter_bits generator would cost more than the search
    classes = {n: _canonical_forms(n) for n in range(1, 7)}
    fresh = [FinitePoset.from_up_masks(p.up_masks) for n in classes for p in enumerate_posets(n)]

    def refuse(mask):
        raise AssertionError("iter_bits called")

    monkeypatch.setattr(enumeration, "iter_bits", refuse)
    assert sorted(canonical_form(p) for p in fresh) == [f for n in classes for f in classes[n]]
    _canonical_forms.cache_clear()
    enumeration._poset_from_form.cache_clear()
    try:
        assert {n: _canonical_forms(n) for n in classes} == classes
    finally:
        _canonical_forms.cache_clear()
        enumeration._poset_from_form.cache_clear()


def _counting_builds(monkeypatch) -> list:
    """The sizes of the posets ``FinitePoset.from_up_masks`` builds from now
    on, in build order."""
    sizes = []
    from_up_masks = FinitePoset.from_up_masks.__func__

    def counted(cls, up_masks, labels=None):
        p = from_up_masks(cls, up_masks, labels)
        sizes.append(p.n)
        return p

    monkeypatch.setattr(FinitePoset, "from_up_masks", classmethod(counted))
    return sizes


def _counting_labels(monkeypatch) -> list:
    """The sizes of the candidates ``_canonical_forms`` labels from now on,
    in labelling order."""
    sizes = []
    label = enumeration._label

    def counted(n, up, down):
        sizes.append(n)
        return label(n, up, down)

    monkeypatch.setattr(enumeration, "_label", counted)
    return sizes


def test_filters_build_fewer_candidates(monkeypatch):
    # every parent's shared instance exists before the count starts
    for n in range(1, 8):
        _canonical_forms(n)
    labelled = _counting_labels(monkeypatch)
    built = _counting_builds(monkeypatch)
    _canonical_forms.cache_clear()
    try:
        candidates = {}
        for n in range(1, 8):
            before = len(labelled)
            _canonical_forms(n)
            candidates[n] = labelled[before:].count(n)
            # the parents are the shared instances, and a candidate is
            # labelled from its masks: no poset is built at all
            assert built == []
    finally:
        _canonical_forms.cache_clear()
    assert candidates == FILTERED_CANDIDATES


@pytest.mark.parametrize("n", range(1, 7))
def test_a_cold_run_builds_a_poset_only_per_class(monkeypatch, n):
    enumeration._poset_from_form.cache_clear()
    _canonical_forms.cache_clear()
    built = _counting_builds(monkeypatch)
    try:
        _canonical_forms(n)
        assert built.count(n) == 0
        enumerate_posets(n)
        assert built.count(n) == POSET_COUNTS[n]
    finally:
        enumeration._poset_from_form.cache_clear()
        _canonical_forms.cache_clear()


def test_a_valid_cache_file_builds_each_poset_once(monkeypatch, tmp_path):
    n = 5
    enumerate_posets(n, cache_dir=tmp_path)
    sizes = _counting_builds(monkeypatch)
    enumeration._poset_from_form.cache_clear()
    posets = enumerate_posets(n, cache_dir=tmp_path)
    assert sizes == [n] * POSET_COUNTS[n]
    assert all(a is b for a, b in zip(enumerate_posets(n), posets))


def _without_ideals_containing_0(p):
    # not invariant under isomorphism: it loses the chain already at n = 2
    return [i for i in lower_sets(p) if not i & 1]


def _without_the_empty_ideal_of_a_six(p):
    # loses only the antichain on 7, past the brute-force oracle's reach
    out = lower_sets(p)
    return [i for i in out if i] if p.n == 6 else out


def _antichains_of_maximal_elements(p):
    # each lower set cut to its maximal elements: a child whose new element
    # lies above only those is not transitive once the ideal has a chain
    return [
        sum(1 << i for i in range(p.n) if ideal >> i & 1 and p.up_masks[i] & ideal == 1 << i)
        for ideal in lower_sets(p)
    ]


@pytest.mark.parametrize("n", range(3, 6))
def test_a_candidate_that_is_no_order_never_returns(n):
    # the labeller checks no order axiom; every form is checked when it is
    # unpacked, so a non-transitive candidate fails before it is returned,
    # and before any class count could (on n <= 2 the mutant changes nothing)
    with generation_mutant(_antichains_of_maximal_elements):
        with pytest.raises(PosetError, match="not transitive"):
            enumerate_posets(n)


def test_a_lost_class_raises():
    with generation_mutant(_without_ideals_containing_0):
        with pytest.raises(InvariantError, match="A000112"):
            enumerate_posets(5)
        # inside a check the broken invariant is that check's failure
        summary = run_all(Config(suites=("enum",)))
        (group,) = summary.groups
        assert [("A000112" in f["detail"]) for f in group["failures"]] == [True]
        assert summary.exit_code() == 1


def test_a_class_lost_past_the_oracle_raises():
    with generation_mutant(_without_the_empty_ideal_of_a_six):
        assert len(enumerate_posets(6)) == POSET_COUNTS[6]
        with pytest.raises(InvariantError, match="generated 2044 posets of size 7"):
            enumerate_posets(7, max_n=7)
