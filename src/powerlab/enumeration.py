"""Generation of all finite posets up to isomorphism, canonical forms, the
semilattices among them, and cached lists of ``poset.iter_monotone_maps``.

Canonical labeling uses colour refinement plus individualization search and
returns the least packed relation matrix over the leaves of the search, so
equal byte strings mean isomorphic posets.  The search skips the branches of
twins, elements with the same strict up-set and down-set: swapping two twins
is an automorphism, so their branches reach leaves with the same packed
bytes and dropping all but one leaves the minimum unchanged
(``canonical_form`` spells out the argument).

Poset generation grows instances one maximal element at a time, which avoids
ever materializing the 2**(n*n) relation space: each canonical parent on
n - 1 elements is extended by a new maximal element above each of its
ideals.  Two isomorphism-invariant filters, the cheap half of canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998), skip most candidates before a poset is built.  The down-size
filter keeps a candidate only when its new element is a maximal element of
largest down-set size: every class arises from its canonical parent by
adding such an element back, so no class is lost.  The twin filter keeps,
within each class of the parent's twins, only ideals whose members come
first in index order: permuting twins is an automorphism of the parent,
which carries any ideal to such a one, gives an isomorphic child and keeps
the down-size verdict.  The candidates that survive are then deduplicated
by canonical form, and a class count that disagrees with A000112 raises
(``_canonical_forms`` spells out the argument).
"""

from __future__ import annotations

import struct
import tempfile
from functools import lru_cache
from pathlib import Path

from .poset import FinitePoset, InvariantError, PosetError, iter_bits, iter_monotone_maps
from .semilattice import VSemilattice

DEFAULT_MAX_N = 6

# The number of posets on n unlabeled points, n = 1..8 (OEIS A000112;
# Brinkmann & McKay, "Posets on up to 16 points", Order 19, 2002)
POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045, 8: 16999}


# -- canonical forms ----------------------------------------------------------


def unpack_canonical(data: bytes) -> FinitePoset:
    """Rebuild a poset (with default labels) from its packed canonical form."""
    n = data[0]
    acc = int.from_bytes(data[1:], "big")
    full = (1 << n) - 1
    return FinitePoset.from_up_masks([acc >> (i * n) & full for i in range(n)])


def canonical_form(p: FinitePoset) -> bytes:
    """Canonical labeling bytes; equal bytes iff isomorphic posets.

    The form is an n header byte and then the row-major bits of the relation
    relabeled by a discrete colouring, minimized over the leaves of an
    individualization-refinement search:

    - the initial colour of ``i`` ranks its (down-set size, up-set size);
    - a refinement round gives ``i`` the rank of (its colour, the sorted
      colours strictly below it, the sorted colours strictly above it), and
      rounds repeat until no cell splits.  An element alone in its colour
      cell gets just ``(colour,)``: no other signature starts with that
      colour, so its neighbour colours never decide an order or an equality
      between signatures, and dropping them leaves every rank unchanged;
    - a non-discrete colouring branches on its first non-singleton cell in
      colour order: each branch gives one element of that cell the fresh
      colour ``max + 1`` and refines again;
    - a discrete colouring is a leaf; element ``i`` moves to position
      ``colour[i]``.

    Twin pruning.  Two elements are twins when they have the same strict
    up-set and the same strict down-set.  Swapping two twins is then an
    automorphism of the poset, and when both lie in the target cell it also
    fixes the current colouring.  Refinement and the choice of target cell
    only read the order and the colours, so they commute with any
    automorphism that fixes the colouring: the subtree below one twin is the
    swap's image of the subtree below the other, and every leaf there packs
    the same relation.  So the search branches only on the first twin of
    each twin class in the target cell.  It reaches fewer leaves, and the
    set of leaf values, hence their minimum, is unchanged.
    """
    n = p.n
    if n > 255:
        raise PosetError(f"a canonical form's header byte holds at most 255 elements, not {n}")
    up = p.up_masks
    elems = range(n)
    # one bit pass fills both, in ascending order.  Lists, not tuples: a
    # tuple(<generator>) is allocated at a guessed size and shrunk, and once
    # freed it fills the free list of a smaller size (about 0.8 MB more peak
    # RSS over the n <= 7 enumeration)
    above, below = [[] for _ in elems], [[] for _ in elems]
    for i in elems:
        rest = up[i] & ~(1 << i)
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            above[i].append(j)
            below[j].append(i)
            rest ^= low

    def refine(colors: list[int], k: int) -> tuple[list[int], int]:
        # colours are always 0..k-1, so a round that ranks k distinct
        # signatures reproduces them and is the fixpoint
        while k < n:
            sizes = [0] * k
            for c in colors:
                sizes[c] += 1
            get = colors.__getitem__
            sigs = [
                (c,)
                if sizes[c] == 1
                else (c, tuple(sorted(map(get, below[i]))), tuple(sorted(map(get, above[i]))))
                for i, c in enumerate(colors)
            ]
            distinct = sorted(set(sigs))
            if len(distinct) == k:
                break
            rank = {s: r for r, s in enumerate(distinct)}
            colors = [rank[s] for s in sigs]
            k = len(distinct)
        return colors, k

    # an explicit stack: a nested function that calls itself is a reference
    # cycle, left to the garbage collector after every call
    initial = [(len(below[i]), len(above[i])) for i in elems]
    ranking = {s: r for r, s in enumerate(sorted(set(initial)))}
    stack = [refine([ranking[s] for s in initial], len(ranking))]
    best = 1 << n * n  # above every leaf
    twin_key = None
    while stack:
        colors, k = stack.pop()
        if k == n:
            # relation bit (i, j) lands at bit colour[i] * n + colour[j]
            acc = 0
            for i in elems:
                row = 0
                for j in above[i]:
                    row |= 1 << colors[j]
                acc |= (row | 1 << colors[i]) << colors[i] * n
            best = min(best, acc)
            continue
        if twin_key is None:
            twin_key = [(up[i] & ~(1 << i), p.down_masks[i] & ~(1 << i)) for i in elems]
        sizes = [0] * k
        for c in colors:
            sizes[c] += 1
        target = next(c for c in range(k) if sizes[c] > 1)
        seen = set()
        for v in elems:
            if colors[v] == target and twin_key[v] not in seen:
                seen.add(twin_key[v])
                branched = colors.copy()
                branched[v] = k
                stack.append(refine(branched, k + 1))
    return bytes([n]) + best.to_bytes((n * n + 7) // 8, "big")


def are_isomorphic(p: FinitePoset, q: FinitePoset) -> bool:
    return p.n == q.n and canonical_form(p) == canonical_form(q)


# -- generation up to isomorphism ----------------------------------------------


@lru_cache(maxsize=None)
def _poset_from_form(form: bytes) -> FinitePoset:
    # one shared instance per class, so its cached properties (``ideals``,
    # ``directed_subsets``) survive re-enumeration
    return unpack_canonical(form)


def enumerate_posets(n: int, max_n: int = DEFAULT_MAX_N, cache_dir=None):
    """All posets on ``n`` elements up to isomorphism, in canonical-form order.

    Each emitted poset is the canonical representative of its class, so two
    runs (and cached versus recomputed runs) produce identical output.  Only
    a named ``cache_dir`` is read or written: a cache file that fails
    validation is recomputed and rewritten.
    """
    if n < 1:
        raise PosetError("poset enumeration needs n >= 1")
    if n > max_n:
        raise PosetError(f"n={n} exceeds the enumeration cap {max_n}")
    if cache_dir is None:
        forms = _canonical_forms(n)
    else:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        forms = _read_cache(cache_dir, n)
        if forms is None:
            forms = _canonical_forms(n)
            _write_cache(cache_dir, n, forms)
    return tuple(_poset_from_form(f) for f in forms)


@lru_cache(maxsize=None)
def _canonical_forms(n: int) -> tuple[bytes, ...]:
    """The sorted canonical forms of the posets on ``n`` elements.

    Every poset C is the one-point extension of C - x by a maximal x lying
    above exactly the ideal ``↓x - x``, so extending each canonical parent
    on n - 1 elements by every ideal reaches every class.  Two filters skip
    candidates before any poset is built, and neither loses a class:

    - Down-size.  Choose x among the maximal elements of C with the largest
      down-set.  Down-set size is an isomorphism invariant, so the candidate
      built from the canonical parent of C - x has its new element n - 1 in
      that position too.  A candidate whose new element is not a maximal
      element of largest down-set size is therefore skipped, and its class
      still arrives through such a candidate.  The new element's down-set
      has |ideal| + 1 elements; the child's other maximal elements are the
      parent's maximal elements outside the ideal, with their down-sets
      unchanged, so the test reads only the parent's masks.
    - Twins.  Two elements of the parent with the same strict up-set and
      strict down-set are twins, and swapping them is an automorphism of
      the parent.  It maps an ideal to an ideal and extends, fixing n - 1,
      to an isomorphism of the two children, which keeps every down-set
      size, so the down-size filter gives both the same verdict.  Permuting
      each twin class therefore brings any ideal to one whose members in
      that class come first in index order, and only those are kept.

    Which candidates survive changes no class, so ``seen`` and the sorted
    result are what the unfiltered loop gives.  A result whose class count
    differs from A000112 where that is known raises ``InvariantError``, so
    a filter that did lose a class fails loudly at every size up to 8.
    Generation starts from the empty poset, and each parent is the shared
    ``_poset_from_form`` instance that ``enumerate_posets`` also returns.
    """
    if n == 0:
        return (bytes([0]),)
    seen: set[bytes] = set()
    top = 1 << (n - 1)
    for prev in _canonical_forms(n - 1):
        p = _poset_from_form(prev)
        up, down = p.up_masks, p.down_masks
        # over[s]: the parent's maximal elements whose down-sets exceed size s
        maximal = [i for i in range(n - 1) if up[i] == 1 << i]
        over = [sum(1 << i for i in maximal if down[i].bit_count() > s) for s in range(n + 1)]
        # (a, b) with b the next twin after a in index order: keep b only with a
        classes: dict = {}
        for i in range(n - 1):
            classes.setdefault((up[i] & ~(1 << i), down[i] & ~(1 << i)), []).append(i)
        twins = [(c[k], c[k + 1]) for c in classes.values() for k in range(len(c) - 1)]
        # the new element n - 1 is maximal and lies above exactly the ideal
        for ideal in p.ideals:
            if over[ideal.bit_count() + 1] & ~ideal:
                continue
            if twins and any(ideal >> b & 1 and not ideal >> a & 1 for a, b in twins):
                continue
            child = [row | top if ideal >> i & 1 else row for i, row in enumerate(up)]
            child.append(top)
            seen.add(canonical_form(FinitePoset.from_up_masks(child)))
    expected = POSET_COUNTS.get(n, len(seen))
    if len(seen) != expected:
        raise InvariantError(f"generated {len(seen)} posets of size {n}, A000112 has {expected}")
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def enumerate_v_semilattices(n: int) -> tuple:
    """The posets of size ``n`` on which every consistent pair has a least join."""
    candidates = (VSemilattice.from_poset(p) for p in enumerate_posets(n))
    return tuple(l for l in candidates if l is not None)


# -- brute-force oracles --------------------------------------------------------

def bruteforce_canonical_forms(n: int) -> frozenset:
    """Independent oracle: every relation compatible with the numeric order,
    filtered for transitivity, deduplicated by canonical form.

    Every poset admits a linear extension, so restricting to relations with
    i <= j keeps one labeled copy of every isomorphism class while shrinking
    the search to 2**(n*(n-1)/2) candidates.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    forms = set()
    for pattern in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k in iter_bits(pattern):
            i, j = pairs[k]
            up[i] |= 1 << j
        if any(up[j] & ~row for row in up for j in iter_bits(row)):
            continue
        forms.add(canonical_form(FinitePoset.from_up_masks(up)))
    return frozenset(forms)


# -- monotone maps ----------------------------------------------------------------


@lru_cache(maxsize=None)
def monotone_map_images(p: FinitePoset, q: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """``iter_monotone_maps(p, q)``, cached; the checks stream the maps
    instead, so only the tests and the benchmark's tracer read it."""
    return tuple(iter_monotone_maps(p, q))


# -- canonical form cache file -----------------------------------------------------


# posets_n{n}.bin: a header of n and the class count, then the forms as
# fixed-size records of 1 + ceil(n*n / 8) bytes, in increasing order
_HEADER = struct.Struct(">II")


def _cache_file(cache_dir: Path, n: int) -> Path:
    return cache_dir / f"posets_n{n}.bin"


def _write_cache(cache_dir: Path, n: int, forms) -> None:
    """Write to a temp file beside the cache file, then move it into place, so
    no reader sees a partly written file."""
    fh = tempfile.NamedTemporaryFile(dir=cache_dir, prefix=f".posets_n{n}.", delete=False)
    try:
        with fh:
            fh.write(_HEADER.pack(n, len(forms)) + b"".join(forms))
        Path(fh.name).replace(_cache_file(cache_dir, n))
    except BaseException:
        Path(fh.name).unlink(missing_ok=True)
        raise


def _read_cache(cache_dir: Path, n: int):
    """The cached forms of size ``n``, or None when the file is missing or is
    not exactly what ``_write_cache`` writes: a size that disagrees with its
    header, another n, a class count other than ``POSET_COUNTS[n]``, forms
    out of order or a form that is not canonical (on its shared instance)."""
    try:
        data = _cache_file(cache_dir, n).read_bytes()
    except FileNotFoundError:
        return None
    size = 1 + (n * n + 7) // 8
    count, extra = divmod(len(data) - _HEADER.size, size)
    if extra or count < 0 or data[: _HEADER.size] != _HEADER.pack(n, count):
        return None
    if count != POSET_COUNTS.get(n, count):  # a cut file with a consistent header
        return None
    forms = tuple(data[k : k + size] for k in range(_HEADER.size, len(data), size))
    try:
        if any(a >= b for a, b in zip(forms, forms[1:])) or any(
            f[0] != n or canonical_form(_poset_from_form(f)) != f for f in forms
        ):
            return None
    except PosetError:  # some form's bits are not a partial order
        return None
    return forms
