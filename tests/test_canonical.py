"""The pruned canonical-form search against the unpruned one, and properties
of ``canonical_form`` on random posets past the enumerated sizes.

On the enumerated posets (n <= 7) even a search that branches on the first
element of each target cell alone returns the right form under every
relabeling tried, so those classes cannot tell good pruning from bad.  The
crown unions below can: refinement leaves elements of different orbits in one
cell there, so a search that prunes one of them returns forms that depend on
the labeling.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlab import (
    FinitePoset,
    PosetError,
    are_isomorphic,
    canonical_form,
    catalog,
    enumerate_posets,
    unpack_canonical,
)
from powerlab.poset import iter_bits

from conftest import literal_canonical_form
from test_enumeration import relabel


class TestAgainstUnprunedSearch:
    def test_every_class_up_to_six_relabeled(self):
        rng = random.Random(5)
        for n in range(1, 7):
            for p in enumerate_posets(n):
                for _ in range(3):
                    q = relabel(p, rng.sample(range(n), n))
                    assert canonical_form(q) == literal_canonical_form(q)

    def test_every_class_of_seven(self):
        rng = random.Random(7)
        for p in enumerate_posets(7, max_n=7):
            q = relabel(p, rng.sample(range(7), 7))
            assert canonical_form(q) == literal_canonical_form(q)

    def test_empty_poset(self):
        empty = FinitePoset.from_covers([], [])
        assert canonical_form(empty) == literal_canonical_form(empty) == bytes([0])


def test_the_header_byte_bounds_the_size():
    largest = catalog.antichain(255)
    assert unpack_canonical(canonical_form(largest)) == largest
    p = catalog.antichain(256)
    with pytest.raises(PosetError, match="at most 255 elements, not 256"):
        canonical_form(p)
    with pytest.raises(PosetError, match="at most 255 elements"):
        are_isomorphic(p, p)


def crown_union(*halves):
    """The height-2 poset of a union of cycles: for each m in ``halves``,
    minimal elements b_0..b_{m-1} and maximal t_0..t_{m-1} with b_i below t_i
    and t_{i+1 mod m}.  Every element has two covers or two cocovers, so
    refinement keeps all minimal elements in one cell, though elements of
    cycles of different lengths lie in different orbits."""
    labels, covers = [], []
    for c, m in enumerate(halves):
        bottoms = [f"b{c}_{i}" for i in range(m)]
        tops = [f"t{c}_{i}" for i in range(m)]
        labels += bottoms + tops
        for i in range(m):
            covers += [(bottoms[i], tops[i]), (bottoms[i], tops[(i + 1) % m])]
    return FinitePoset.from_covers(labels, covers)


@pytest.mark.parametrize("halves", [(2, 3), (2, 4), (2, 2, 3)], ids=["4+6", "4+8", "4+4+6"])
def test_cells_wider_than_orbits(halves):
    p = crown_union(*halves)
    rng = random.Random(3)
    form = literal_canonical_form(p)
    for _ in range(6):
        q = relabel(p, rng.sample(range(p.n), p.n))
        assert canonical_form(q) == literal_canonical_form(q) == form


@st.composite
def posets_with_relabeling(draw):
    """A random poset on 7..12 elements, built as a random DAG on 0..n-1
    (edges go up in index order) and transitively closed, and a permutation."""
    n = draw(st.integers(7, 12))
    density = draw(st.integers(0, 10))
    pairs = n * (n - 1) // 2
    edges = iter(draw(st.lists(st.integers(0, 9), min_size=pairs, max_size=pairs)))
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if next(edges) < density:
                up[i] |= 1 << j
    for i in reversed(range(n)):
        # every up-set above i is closed already
        for j in list(iter_bits(up[i] & ~(1 << i))):
            up[i] |= up[j]
    p = FinitePoset([[bool(up[i] >> j & 1) for j in range(n)] for i in range(n)])
    return p, draw(st.permutations(range(n)))


@settings(derandomize=True, deadline=None, database=None)
@given(posets_with_relabeling())
def test_canonical_form_properties(case):
    p, perm = case
    form = canonical_form(p)
    assert canonical_form(relabel(p, perm)) == form
    assert canonical_form(unpack_canonical(form)) == form
