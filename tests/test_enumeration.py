"""Canonical forms, isomorphism, generation up to isomorphism, monotone maps."""

import itertools

import pytest

from powerlab import (
    FinitePoset,
    PosetError,
    PosetMap,
    VSemilattice,
    are_isomorphic,
    canonical_form,
    enumerate_posets,
    enumerate_v_semilattices,
    unpack_canonical,
)
from powerlab import enumeration
from powerlab.enumeration import bruteforce_canonical_forms, iter_monotone_maps, monotone_map_images


from conftest import small_posets


def bruteforce_isomorphic(p, q):
    """Independent oracle: scan all n! relabelings for a matrix match."""
    if p.n != q.n:
        return False
    n = p.n
    for perm in itertools.permutations(range(n)):
        if all(p.le[i][j] == q.le[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            return True
    return False


def relabel(p, perm):
    n = p.n
    le = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            le[perm[i]][perm[j]] = p.le[i][j]
    return FinitePoset(le)


class TestCanonicalForm:
    def test_isomorphic_to_any_relabeling(self):
        for p in small_posets(4):
            for perm in itertools.permutations(range(p.n)):
                assert are_isomorphic(p, relabel(p, perm))

    def test_distinguishes_examples(self, c2, a2, vee, wedge):
        assert not are_isomorphic(c2, a2)
        assert not are_isomorphic(vee, wedge)

    def test_different_sizes(self, s1, c2):
        assert not are_isomorphic(s1, c2)

    def test_classification_matches_bruteforce_small(self):
        # both directions over every pair of classes up to n = 4
        posets = small_posets(4)
        for p in posets:
            for q in posets:
                assert are_isomorphic(p, q) == bruteforce_isomorphic(p, q)

    def test_classification_matches_bruteforce_n5(self):
        reps = enumerate_posets(5)
        # equal canonical forms really are isomorphism classes: every relabeling
        # lands back on its representative
        rng = __import__("random").Random(5)
        for p in reps:
            perm = list(range(5))
            rng.shuffle(perm)
            assert canonical_form(relabel(p, perm)) == canonical_form(p)
        # distinct canonical forms really are distinct classes
        for i, p in enumerate(reps):
            for q in reps[i + 1 :]:
                assert not bruteforce_isomorphic(p, q)

    def test_canonical_form_round_trips(self):
        for p in small_posets(4):
            q = unpack_canonical(canonical_form(p))
            assert are_isomorphic(p, q)
            assert canonical_form(q) == canonical_form(p)

    def test_pairwise_distinct_across_enumeration(self):
        forms = [canonical_form(p) for n in range(1, 5) for p in enumerate_posets(n)]
        assert len(set(forms)) == len(forms)


class TestEnumeratePosets:
    def test_counts_against_oracle(self):
        got = [len(enumerate_posets(n)) for n in range(1, 6)]
        oracle = [len(bruteforce_canonical_forms(n)) for n in range(1, 6)]
        assert got == oracle

    def test_small_counts(self):
        assert len(enumerate_posets(2)) == 2
        assert len(enumerate_posets(3)) == 5

    def test_classes_match_oracle_exactly(self):
        for n in range(1, 6):
            emitted = {canonical_form(p) for p in enumerate_posets(n)}
            assert emitted == bruteforce_canonical_forms(n)

    def test_deterministic_order(self):
        first = [p.up_masks for p in enumerate_posets(4)]
        second = [p.up_masks for p in enumerate_posets(4)]
        assert first == second

    def test_cap_enforced(self):
        with pytest.raises(PosetError, match="cap"):
            enumerate_posets(7)
        with pytest.raises(PosetError):
            enumerate_posets(0)

    def test_cache_round_trip(self, tmp_path):
        fresh = enumerate_posets(4)
        warmup = enumerate_posets(4, cache_dir=tmp_path)
        assert (tmp_path / "posets_n4.bin").exists()
        cached = enumerate_posets(4, cache_dir=tmp_path)
        assert [p.up_masks for p in cached] == [p.up_masks for p in fresh]
        assert [p.up_masks for p in warmup] == [p.up_masks for p in fresh]

    def test_environment_names_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POWERLAB_CACHE", str(tmp_path))
        enumerate_posets(3)
        assert list(tmp_path.iterdir()) == []

    def test_size_six_matches_oracle(self):
        # the n = 6 classes take a couple of seconds to cross-check
        emitted = {canonical_form(p) for p in enumerate_posets(6)}
        assert emitted == bruteforce_canonical_forms(6)

    def test_size_six_classification_spot_checks(self):
        # full pairwise permutation search is out of reach at n = 6, so the
        # cross-check is relabeling invariance plus a seeded pair sample
        import random

        rng = random.Random(6)
        reps = enumerate_posets(6)
        for p in reps:
            perm = list(range(6))
            rng.shuffle(perm)
            assert canonical_form(relabel(p, perm)) == canonical_form(p)
        for _ in range(100):
            p, q = rng.sample(reps, 2)
            assert not bruteforce_isomorphic(p, q)


def pack(p):
    """The row-major relation bits of ``p`` under its own labels, packed like
    a canonical form but without minimizing over relabelings."""
    acc = sum(row << (i * p.n) for i, row in enumerate(p.up_masks))
    return bytes([p.n]) + acc.to_bytes((p.n * p.n + 7) // 8, "big")


def largest_packing(n):
    """The largest packed relation of any labeling of any poset on n points;
    it is not a canonical form, since those are the least packings."""
    return max(
        pack(relabel(p, perm))
        for p in enumerate_posets(n)
        for perm in itertools.permutations(range(n))
    )


def corrupt_header(n, count):
    """A corruption that replaces the header and keeps the records."""

    def apply(data):
        header = enumeration._HEADER
        return header.pack(n, count) + data[header.size :]

    return apply


def corrupt_records(change):
    """A corruption that edits the list of fixed-size n = 4 records and keeps
    the header and the file size consistent."""

    def apply(data):
        start, size = enumeration._HEADER.size, 1 + (4 * 4 + 7) // 8
        records = [data[k : k + size] for k in range(start, len(data), size)]
        return data[:start] + b"".join(change(records))

    return apply


CORRUPTIONS = {
    "empty": lambda data: b"",
    "truncated": lambda data: data[: len(data) // 2],
    "trailing-byte": lambda data: data + b"\x00",
    "wrong-n": corrupt_header(5, 16),
    "wrong-count": corrupt_header(4, 15),
    # header and size agree, but n = 4 has 16 classes, not 15
    "cut": lambda data: corrupt_header(4, 15)(corrupt_records(lambda r: r[:-1])(data)),
    "unsorted": corrupt_records(lambda r: [r[1], r[0], *r[2:]]),
    "duplicate": corrupt_records(lambda r: [r[0], r[0], *r[2:]]),
    "not-a-poset": corrupt_records(lambda r: [*r[:-1], b"\x04\xff\xff"]),
    "not-canonical": corrupt_records(lambda r: [*r[:-1], largest_packing(4)]),
    # an n = 3 form has the same 3-byte size, sorts first and is canonical
    "foreign-n": corrupt_records(lambda r: [canonical_form(enumerate_posets(3)[0]), *r[1:]]),
}


class TestCacheFile:
    def test_valid_file_is_read_not_recomputed(self, tmp_path, monkeypatch):
        fresh = enumerate_posets(4, cache_dir=tmp_path)

        def boom(n):
            raise AssertionError("recomputed despite a valid cache file")

        monkeypatch.setattr("powerlab.enumeration._canonical_forms", boom)
        cached = enumerate_posets(4, cache_dir=tmp_path)
        assert [p.up_masks for p in cached] == [p.up_masks for p in fresh]

    def test_file_layout(self, tmp_path):
        forms = [canonical_form(p) for p in enumerate_posets(4, cache_dir=tmp_path)]
        data = (tmp_path / "posets_n4.bin").read_bytes()
        assert data == enumeration._HEADER.pack(4, 16) + b"".join(forms)
        assert list(tmp_path.iterdir()) == [tmp_path / "posets_n4.bin"]

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_invalid_file_is_recomputed_and_rewritten(self, tmp_path, name):
        expected = [p.up_masks for p in enumerate_posets(4)]
        enumerate_posets(4, cache_dir=tmp_path)
        path = tmp_path / "posets_n4.bin"
        good = path.read_bytes()
        bad = CORRUPTIONS[name](good)
        assert bad != good
        path.write_bytes(bad)
        got = enumerate_posets(4, cache_dir=tmp_path)
        assert [p.up_masks for p in got] == expected
        assert path.read_bytes() == good
        assert list(tmp_path.iterdir()) == [path]


class TestEnumerateSemilattices:
    def test_both_two_element_posets_qualify(self):
        assert len(enumerate_v_semilattices(2)) == 2

    def test_matches_filter(self):
        for n in range(1, 5):
            got = [l.poset.up_masks for l in enumerate_v_semilattices(n)]
            want = [
                p.up_masks for p in enumerate_posets(n) if VSemilattice.from_poset(p) is not None
            ]
            assert got == want

    def test_vee_included_bowtie_excluded(self, vee, bowtie):
        forms3 = {canonical_form(l.poset) for l in enumerate_v_semilattices(3)}
        assert canonical_form(vee) in forms3
        forms4 = {canonical_form(l.poset) for l in enumerate_v_semilattices(4)}
        assert canonical_form(bowtie) not in forms4


class TestMonotoneMaps:
    def test_from_singleton(self, s1, vee):
        assert len(monotone_map_images(s1, vee)) == vee.n

    def test_counts(self, c2, a2):
        assert len(monotone_map_images(c2, c2)) == 3
        assert len(monotone_map_images(a2, c2)) == 4

    def test_matches_naive_filter(self):
        for p in small_posets(3):
            for q in small_posets(3):
                naive = {
                    img
                    for img in itertools.product(range(q.n), repeat=p.n)
                    if all(
                        q.le[img[i]][img[j]]
                        for i in range(p.n)
                        for j in range(p.n)
                        if p.le[i][j]
                    )
                }
                assert set(monotone_map_images(p, q)) == naive
                for img in monotone_map_images(p, q):
                    assert PosetMap(p, q, img).is_monotone()

    def test_lexicographic_along_the_linear_extension(self):
        # the refutation search reports the first refuting map in this order
        semilattices = [l for n in range(1, 5) for l in enumerate_v_semilattices(n)]
        for p in small_posets(4):
            order = p.linear_extension
            for l in semilattices:
                maps = monotone_map_images(p, l.poset)
                keys = [tuple(img[e] for e in order) for img in maps]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                assert tuple(iter_monotone_maps(p, l.poset)) == maps
