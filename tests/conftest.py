from contextlib import contextmanager

import pytest

from powerlab import catalog, down_set
from powerlab.poset import directed_sup_closure_step, iter_bits


@pytest.fixture
def s1():
    return catalog.singleton()


@pytest.fixture
def c2():
    return catalog.chain(2)


@pytest.fixture
def c3():
    return catalog.chain(3)


@pytest.fixture
def a2():
    return catalog.antichain(2)


@pytest.fixture
def vee():
    return catalog.vee()


@pytest.fixture
def wedge():
    return catalog.wedge()


@pytest.fixture
def bowtie():
    return catalog.bowtie()


def small_posets(max_n=4):
    """All enumerated posets up to max_n; shared sweep helper for tests."""
    from powerlab import enumerate_posets

    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_posets(n))
    return out


def literal_fixpoint(p, bits, join=None):
    """The literal closures, directed-sup step included: down-closure, then
    the consistent-pair joins of ``join`` when given, then the sups of all
    directed subsets, repeated until nothing changes.  The reference that the
    production closures and the criterion-8 mutants are compared with."""
    cur = bits
    while True:
        nxt = down_set(p, cur)
        if join is not None:
            elems = [i for i in range(p.n) if nxt >> i & 1]
            for a in elems:
                for b in elems:
                    if join[a][b] != -1:
                        nxt |= 1 << join[a][b]
        nxt |= directed_sup_closure_step(p.up_masks, p.full_mask, nxt)
        if nxt == cur:
            return cur
        cur = nxt


# the module global that cl_f calls for each step; cl_f never runs a
# directed-sup step, so that mutant patches nothing
_CLOSURE_STEP_FUNCTIONS = {"lower": "down_set", "pair_join": "_step_pair_join", "directed_sup": None}


@contextmanager
def closure_mutant(step):
    """Run with one cl_f step ("lower", "pair_join" or "directed_sup")
    replaced by the identity in ``powerlab.semilattice``.  The gamma_f cache,
    the one cache holding a cl_f result, is cleared on entry and on exit, so
    no result leaks into or out of the mutant."""
    from powerlab import semilattice

    name = _CLOSURE_STEP_FUNCTIONS[step]
    semilattice._gamma_f_cached.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            if name is not None:
                mp.setattr(semilattice, name, lambda _, bits: bits)
            yield
    finally:
        semilattice._gamma_f_cached.cache_clear()


def mutant_failures(step):
    """Thm3.10's failures on the standard trio under ``closure_mutant(step)``."""
    from powerlab.suite import check_thm_3_10

    with closure_mutant(step):
        return [f for p in catalog.standard_trio() for f in check_thm_3_10(p).failures]


def literal_first_refutation(p, bits, semilattices):
    """The bounded refutation search with no reduction: every semilattice in
    the order given, every cached monotone map in its order, and the join of
    the image of every element of the set, computed by ``sup_of_bits``.  The
    first (semilattice, map image) under which that join does not exist, or
    None.  The reference for the reductions of ``first_refutations``."""
    from powerlab.enumeration import monotone_map_images

    for l in semilattices:
        for img in monotone_map_images(p, l.poset):
            image = 0
            for x in iter_bits(bits):
                image |= 1 << img[x]
            if l.sup_of_bits(image) is None:
                return l, img
    return None


def literal_canonical_form(p):
    """The canonical form by the unpruned search: the same colours, refinement,
    target cell and packed leaf as ``canonical_form``, but every element of
    every target cell is branched on, so an n-element antichain costs n!
    leaves.  No cache is read or written.  The reference for the twin pruning
    and the leaf packing of the production search."""
    n = p.n
    up, down = p.up_masks, p.down_masks

    def refine(colors):
        while True:
            sigs = []
            for i in range(n):
                below = sorted(colors[j] for j in iter_bits(down[i] & ~(1 << i)))
                above = sorted(colors[j] for j in iter_bits(up[i] & ~(1 << i)))
                sigs.append((colors[i], tuple(below), tuple(above)))
            ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
            new = tuple(ranking[s] for s in sigs)
            if new == colors:
                return new
            colors = new

    def leaf_bytes(colors):
        perm = sorted(range(n), key=lambda i: colors[i])
        inv = [0] * n
        for new, old in enumerate(perm):
            inv[old] = new
        acc = 0
        pos = 0
        for i in range(n):
            row = 0
            for j in iter_bits(up[perm[i]]):
                row |= 1 << inv[j]
            for j in range(n):
                if row >> j & 1:
                    acc |= 1 << pos
                pos += 1
        return bytes([n]) + acc.to_bytes((n * n + 7) // 8, "big")

    leaves = []

    def search(colors):
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            leaves.append(leaf_bytes(colors))
            return
        fresh = max(colors) + 1
        for v in target:
            branched = list(colors)
            branched[v] = fresh
            search(refine(tuple(branched)))

    initial = tuple((down[i].bit_count(), up[i].bit_count()) for i in range(n))
    ranking = {s: r for r, s in enumerate(sorted(set(initial)))}
    search(refine(tuple(ranking[s] for s in initial)))
    return min(leaves)
