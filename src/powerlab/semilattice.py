"""Posets with partial joins on consistent pairs, and their F-Scott closure system.

A ``VSemilattice`` is a finite poset in which every consistent pair has a
least upper bound; the join table is defined exactly on consistent pairs and
validated once at construction, in O(n**2) with no associativity loop
(``VSemilattice`` proves it redundant).  F-Scott closed subsets are lower
sets that also contain the join of each of their consistent finite subsets;
``cl_f`` is the corresponding closure operator, a down-set followed by a
semi-naive worklist that joins every pair once, and ``gamma_f`` generates
all closed sets by closure steps, cl_f(max C ∪ {x}) from each closed set C
found and each x minimal outside it, so the work is one ``cl_f`` per such
pair rather than 2**n; ``is_f_scott_closed`` is ``cl_f``'s fixpoint test.  Homomorphisms are the
monotone maps of ``iter_monotone_maps`` that preserve the join of every
consistent incomparable pair; ``iter_homomorphisms`` streams them, and
``is_homomorphism``, the literal definition over every consistent pair, is
its test oracle; ``f_scott_continuity_violation``, the F-Scott continuity
oracle, decides closed sets with ``is_f_scott_closed_literal`` alone, so it
shares no code with ``cl_f``.  Maps are held many at once as byte columns,
byte ``r`` of column ``x`` being the image of ``x`` under map ``r``:
``_monotone_columns`` turns the rows of ``iter_monotone_maps`` into them by
``_columns``, the one transpose, and caches them: one table per (domain,
codomain) pair per run.  ``_homomorphism_images`` keeps a semilattice
pair's homomorphisms from that table, testing all maps at once.  Strings of
bytes are joined in one place, ``_joined``: one ``translate`` of the packed
nibbles ``(x << 4) | y`` by ``VSemilattice.column_join``.  Sups of images
have one evaluator, ``_column_sups``: each domain element extends the sups
of every subset so far with one ``_joined``.  A sup and an image must each
fit a nibble, with ``NO_SUP`` = 15 for no sup and the codomain's size for
the empty set, so the codomain has at most 14 elements.

The module carries no test switch: mutation probes replace a ``cl_f`` step
in this module's namespace from outside, and clear ``gamma_f``'s cache, the
one that holds ``cl_f`` results.  Replacing ``down_set``, which ``cl_f``
calls on its argument and ``_step_pair_join`` on each new join, leaves the
closure under pair joins alone; replacing ``_step_pair_join``, the worklist,
leaves the bare down-set.
"""

from __future__ import annotations

import io
from functools import cached_property, lru_cache
from itertools import compress

from .families import SetFamily
from .poset import (
    FinitePoset,
    PosetError,
    PosetMap,
    down_set,
    is_consistent,
    is_scott_closed,
    iter_bits,
    iter_monotone_maps,
    scott_closure,
    sup,
)

# the nibble that marks a set with no least upper bound in a sup column
NO_SUP = 15


class VSemilattice:
    """A finite poset with a partial join defined exactly on consistent pairs.

    The table is validated at construction: each entry is an element index
    or -1, it is defined iff its pair is bounded, and each defined entry is
    the least upper bound of its pair; idempotence and commutativity are
    checked by name.  Kleene associativity then holds and is not checked.
    If (i v j) v k is defined it is an upper bound u of {i, j, k}, so j v k
    exists below u and i v (j v k) exists; both sides are the least upper
    bound of {i, j, k}.  If either side is undefined, {i, j, k} has no upper
    bound, so the other side is undefined too.
    """

    def __init__(self, poset: FinitePoset, join):
        self.poset = poset
        self.join = tuple(tuple(row) for row in join)
        self._validate()

    @property
    def n(self) -> int:
        return self.poset.n

    @classmethod
    def from_poset(cls, p: FinitePoset):
        """Populate the join table by ``sup``'s rule, or return None if some
        consistent pair has no least upper bound."""
        up, principal = p.up_masks, p.principal
        join = [[principal.get(a & b, -1) for b in up] for a in up]
        if any(v == -1 and a & b for a, row in zip(up, join) for b, v in zip(up, row)):
            return None
        return cls(p, join)

    def _validate(self):
        p, join, n = self.poset, self.join, self.poset.n
        if len(join) != n or any(len(row) != n for row in join):
            raise PosetError("join table has wrong shape")
        up = p.up_masks
        for i in range(n):
            if join[i][i] != i:
                raise PosetError("join table is not idempotent")
            for j in range(n):
                v = join[i][j]
                if not isinstance(v, int) or not -1 <= v < n:
                    raise PosetError(f"join entry {v!r} is neither an element index nor -1")
                ub = up[i] & up[j]
                if (v != -1) != (ub != 0):
                    raise PosetError("join defined iff pair is consistent; table disagrees")
                if v == -1:
                    continue
                if join[j][i] != v:
                    raise PosetError("join table is not commutative")
                if not ub >> v & 1:
                    raise PosetError("join entry is not an upper bound")
                if ub & ~up[v]:
                    raise PosetError("join entry is not the least upper bound")

    def sup_of_bits(self, bits: int):
        """``sup`` of an arbitrary subset; sweeps over many subsets index ``sup_table``."""
        return sup(self.poset, bits)

    @cached_property
    def bound_masks(self) -> tuple:
        """``bound_masks[b]``: the common upper bounds of subset ``b``, the
        whole universe for the empty set.  Dense over all 2**n subsets, one
        AND each: the subsets holding element ``k`` are those without it,
        each bound by ``k``'s up-set."""
        bounds = [self.poset.full_mask]
        for row in self.poset.up_masks:
            bounds += [ub & row for ub in bounds]
        return tuple(bounds)

    @cached_property
    def sup_table(self) -> tuple:
        """``sup_table[b]`` is ``sup_of_bits(b)`` for every subset ``b``: the
        ``poset.principal`` lookup of ``bound_masks[b]``."""
        principal = self.poset.principal
        return tuple(principal.get(ub) for ub in self.bound_masks)

    @cached_property
    def column_join(self) -> bytes:
        """A ``bytes.translate`` table of the join on packed nibble pairs:
        entry ``(s << 4) | y`` is ``join[s][y]``, or ``NO_SUP`` where that is
        undefined.  Row ``n`` stands for the empty set and is the identity;
        every other entry is ``NO_SUP``, so a set with no sup stays without
        one.  Read at a set's sup ``s`` and an element ``y`` it gives the sup
        of that set with ``y`` added.  The nibbles need ``n <= 14``, else a
        ``PosetError``; ``_joined`` is its one reader."""
        n = self.n
        if n > 14:
            raise PosetError(f"sup columns pack at most 14 elements, not {n}")
        pad = bytes([NO_SUP])
        rows = [[NO_SUP if v == -1 else v for v in row] for row in self.join] + [range(n)]
        return b"".join(bytes(row).ljust(16, pad) for row in rows).ljust(256, pad)

    @cached_property
    def join_triples(self) -> tuple:
        """``(i, j, z)`` for each consistent incomparable pair ``i < j`` with
        join ``z``: the joins a homomorphism test must check, since a
        monotone map already preserves the join of a comparable pair."""
        join = self.join
        return tuple(
            (i, j, z)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if (z := join[i][j]) not in (-1, i, j)
        )

    def join_table_csv(self) -> str:
        import csv  # here, not at module level: only ``gammaf --format csv`` writes one

        buf = io.StringIO()
        writer = csv.writer(buf)
        labels = self.poset.labels
        writer.writerow([""] + list(labels))
        for i, lab in enumerate(labels):
            writer.writerow(
                [lab] + [labels[v] if v != -1 else "" for v in self.join[i]]
            )
        return buf.getvalue()

    def __repr__(self):
        return f"VSemilattice({self.poset!r})"

    def __eq__(self, other):
        if not isinstance(other, VSemilattice):
            return NotImplemented
        return self.poset == other.poset and self.join == other.join

    def __hash__(self):
        return hash((self.poset, self.join))


def _columns(rows, n: int) -> tuple[bytes, ...]:
    """The one transpose of map rows, each of ``n`` images, into byte columns."""
    return tuple(map(bytes, zip(*rows))) or (b"",) * n


@lru_cache(maxsize=None)
def _monotone_columns(p: FinitePoset, q: FinitePoset) -> tuple[bytes, ...]:
    """``iter_monotone_maps(p, q)`` as byte columns: the one map table of a
    (domain, codomain) pair, enumerated once per run and read by the map
    sweep, Prop3.2, Prop3.4 and ``_homomorphism_images``.  The sup tables
    built from it are rebuilt on each read, never cached: held for every
    pair they would outweigh the columns many times over."""
    return _columns(iter_monotone_maps(p, q), p.n)


def _joined(m: VSemilattice, xs: bytes, ys: bytes) -> bytes:
    """The bytewise joins in ``m`` of two strings of bytes at most 15: the
    pairs packed as nibbles, one ``translate`` by ``m.column_join``."""
    packed = (int.from_bytes(xs, "big") << 4) | int.from_bytes(ys, "big")
    return packed.to_bytes(len(xs), "big").translate(m.column_join)


def _column_sups(m: VSemilattice, columns) -> tuple:
    """The sups in ``m`` of the images of every domain subset under the maps
    of ``columns``: byte ``r`` of ``out[a]`` is the least upper bound of the
    image of subset ``a`` under map ``r``, or ``NO_SUP`` if it has none.

    The subsets' sups sit one after another in one byte string, ``k`` bytes
    per subset for the ``k`` maps, and each domain element ``x`` extends all
    of them at once, in subset order, by the recurrence ``out[a | bit(x)] =
    join(out[a], column x)``: column ``x`` is repeated once per subset so
    far and joined with ``out`` by one ``_joined``.  The empty set's ``m.n``
    gives way to the bottom at the end.  The recurrence is sound in a
    semilattice: for a nonempty S with sup s, sup(S ∪ {y}) exists exactly
    when join(s, y) does, and then they are equal, since an upper bound of
    S ∪ {y} bounds s and y; a nonempty S with no sup is unbounded, because
    a bounded nonempty set has a sup, and so is S ∪ {y}.  With no maps every
    string is empty."""
    k = len(columns[0])
    out = bytes([m.n]) * k
    for x, col in enumerate(columns):
        out += _joined(m, out, col * (1 << x))
    bottom = m.sup_of_bits(0)
    out = bytes([NO_SUP if bottom is None else bottom]) * k + out[k:]
    return tuple(out[a * k : a * k + k] for a in range(1 << len(columns)))


# -- F-Scott closed sets ------------------------------------------------------


def is_f_scott_closed(l: VSemilattice, bits: int) -> bool:
    """Whether ``bits`` is a fixpoint of ``cl_f``: a lower set holding the
    join of each of its consistent pairs.  The test suite checks it against
    is_f_scott_closed_literal, which tests every consistent finite subset."""
    return cl_f(l, bits) == bits


def is_f_scott_closed_literal(l: VSemilattice, bits: int) -> bool:
    """By-the-book check: Scott closed and containing the least upper bound of
    every consistent nonempty finite subset.  Exponential; test oracle only."""
    if not is_scott_closed(l.poset, bits):
        return False
    elems = list(iter_bits(bits))
    for sub in range(1, 1 << len(elems)):
        f = 0
        for k in iter_bits(sub):
            f |= 1 << elems[k]
        if not is_consistent(l.poset, f):
            continue
        s = l.sup_of_bits(f)
        if s is None or not bits >> s & 1:
            return False
    return True


def _step_pair_join(l: VSemilattice, bits: int) -> int:
    """Close the lower set ``bits`` under the joins of its consistent pairs,
    adding the down-set of each join, by semi-naive evaluation.

    Each element of the result is queued once, when it enters, and on being
    processed it is joined with the elements processed before it, not with
    the whole set.  A pair of the result is thus joined exactly once, when
    the later of its two elements is processed; no round re-joins old pairs.
    """
    p, join = l.poset, l.join
    done, queue, new = [], [], bits
    while True:
        while new:
            low = new & -new
            queue.append(low.bit_length() - 1)
            new ^= low
        if not queue:
            return bits
        x = queue.pop()
        row = join[x]
        found = 0
        for y in done:
            v = row[y]
            if v != -1:
                found |= 1 << v
        done.append(x)
        new = found & ~bits
        if new:
            new = down_set(p, new) & ~bits
            bits |= new


def cl_f(l: VSemilattice, bits: int) -> int:
    """Least F-Scott closed superset: the down-set of ``bits``, closed under
    consistent pair joins by ``_step_pair_join``.

    The result is a lower set (the start is one, and each join enters with
    its down-set) holding the join of each of its consistent pairs, hence of
    each of its consistent finite subsets; everything added lies in every
    F-Scott closed superset.  The semi-naive worklist joins every pair once
    (Bancilhon & Ramakrishnan, SIGMOD 1986), where iterating both steps to a
    fixpoint re-joined every pair on every round.

    The literal definition also closes under directed sups.  On a finite poset
    that step adds nothing: a finite directed set has a greatest element, so
    its sup already belongs to it.  The test suite checks this against the
    literal fixpoint."""
    return _step_pair_join(l, down_set(l.poset, bits))


def meet_irreducibles(family: SetFamily) -> tuple[int, ...]:
    """The members, in member order, that are not the intersection of the
    members strictly containing them.  The full set is the empty
    intersection and is never one; every member is the intersection of
    the irreducibles containing it (Davey & Priestley, *Introduction to
    Lattices and Order*, 2nd ed., ch. 7)."""
    members = family.members
    out = []
    for c in members:
        above = family.base.full_mask
        for d in members:
            if d != c and not c & ~d:
                above &= d
        if above != c:
            out.append(c)
    return tuple(out)


def gamma_f(l: VSemilattice) -> SetFamily:
    """Every F-Scott closed set, the empty set included, generated by closure
    steps: from cl_f(∅), each closed set C found yields cl_f(max C ∪ {x})
    for each x minimal outside C, until no step finds a new set.

    Every step gives a closed set, and every closed set D is found: cl_f(∅)
    lies in D, so take a largest found set C inside D.  If C ≠ D, take x
    minimal in D \\ C.  Then x is minimal outside C, since D is a lower set,
    and cl_f(max C ∪ {x}) = cl_f(C ∪ {x}), since C = ↓max C.  That set is
    found, lies in D and strictly contains C, against the choice of C; so
    C = D.  This is the usual generation argument for closure systems
    (Ganter & Wille, *Formal Concept Analysis*, Springer 1999, ch. 1).
    Each found set is expanded once, so ``cl_f`` runs once for the empty
    set and once per (closed set, minimal outside element) pair; the order
    of expansion is immaterial, and ``SetFamily`` puts the members in its
    canonical order.  The step inputs are ``max C ∪ {x}``, not lower sets,
    so a ``cl_f`` that skips its down-set shows in the sets found."""
    return _gamma_f_cached(l)


@lru_cache(maxsize=None)
def _gamma_f_cached(l: VSemilattice) -> SetFamily:
    p = l.poset
    up, down = p.up_masks, p.down_masks
    start = cl_f(l, 0)
    found, stack = {start}, [start]
    while stack:
        c = stack.pop()
        tops = sum(1 << x for x in iter_bits(c) if up[x] & c == 1 << x)
        for x in iter_bits(p.full_mask & ~c):
            if down[x] & ~c == 1 << x and (d := cl_f(l, tops | 1 << x)) not in found:
                found.add(d)
                stack.append(d)
    return SetFamily(p, found)


# -- maps between semilattices ------------------------------------------------


def is_homomorphism(f: PosetMap, l: VSemilattice, m: VSemilattice) -> bool:
    """The literal definition, the test oracle of ``iter_homomorphisms``:
    monotone, and preserving the join of every consistent pair.  Directed
    sups need no test: on finite posets a monotone map preserves them, which
    the test suite checks with ``PosetMap.is_scott_continuous``."""
    _check_map(f, l, m)
    if not f.is_monotone():
        return False
    img, jm = f.img, m.join
    return all(
        z == -1 or jm[img[i]][img[j]] == img[z]
        for i, row in enumerate(l.join)
        for j, z in enumerate(row)
    )


def _check_map(f: PosetMap, l: VSemilattice, m: VSemilattice):
    if f.dom != l.poset or f.cod != m.poset:
        raise PosetError("map endpoints do not match the given semilattices")


def f_scott_continuity_violation(f: PosetMap, l: VSemilattice, m: VSemilattice):
    """The first closed set of the codomain, in subset order, whose preimage
    is not closed, or None.  Both sides are decided by
    ``is_f_scott_closed_literal``, so the oracle shares no code with
    ``cl_f``."""
    _check_map(f, l, m)
    for c in range(1 << m.n):
        if is_f_scott_closed_literal(m, c):
            pre = f.preimage_bits(c)
            if not is_f_scott_closed_literal(l, pre):
                return c, pre
    return None


def is_f_scott_continuous(f: PosetMap, l: VSemilattice, m: VSemilattice) -> bool:
    """Preimages of F-Scott closed sets are F-Scott closed."""
    return f_scott_continuity_violation(f, l, m) is None


def iter_homomorphisms(l: VSemilattice, m: VSemilattice):
    """The images of the homomorphisms ``l -> m``, streamed in the order of
    ``iter_monotone_maps``: the monotone maps that preserve the join of each
    pair of ``l.join_triples``, since a monotone map already preserves the
    join of a comparable pair.  With no such pair every monotone map is one."""
    triples = l.join_triples
    if not triples:
        yield from iter_monotone_maps(l.poset, m.poset)
        return
    jm = m.join
    for img in iter_monotone_maps(l.poset, m.poset):
        for i, j, z in triples:
            if jm[img[i]][img[j]] != img[z]:
                break
        else:
            yield img


# a ``bytes.translate`` table sending 0 to 1 and every other byte to 0
_ZERO_FLAGS = bytes([1]) + bytes(255)


@lru_cache(maxsize=None)
def _homomorphism_images(l: VSemilattice, m: VSemilattice) -> tuple[bytes, ...]:
    """The homomorphisms ``l -> m``: the rows of the pair's shared
    ``_monotone_columns`` table that preserve each join of
    ``l.join_triples``, or that table, uncopied, when every row does.  Per
    triple ``(i, j, z)``, ``_joined`` of columns ``i`` and ``j`` XOR column
    ``z`` is 0 exactly at the maps that preserve it; every byte is at most
    15, so the OR over the triples stays bytewise.  Read by Prop3.4 and
    Lem3.6; codomains of at most 14 elements."""
    columns = _monotone_columns(l.poset, m.poset)
    wrong = 0
    for i, j, z in l.join_triples:
        joined = _joined(m, columns[i], columns[j])
        wrong |= int.from_bytes(joined, "big") ^ int.from_bytes(columns[z], "big")
    if not wrong:
        return columns
    flags = wrong.to_bytes(len(columns[0]), "big").translate(_ZERO_FLAGS)
    return tuple(bytes(compress(col, flags)) for col in columns)


def sup_exists_transport_check(
    p: FinitePoset, l: VSemilattice, f: PosetMap, bits: int
) -> bool:
    """One instance of the closure-transport law: the image of a set and of its
    Scott closure have a least upper bound together or not at all, and the two
    bounds agree when they exist."""
    if f.dom != p or f.cod != l.poset:
        raise PosetError("map endpoints do not match")
    if not f.is_monotone():
        raise PosetError("transport check requires a monotone map")
    s_direct = l.sup_of_bits(f.image_bits(bits))
    s_closed = l.sup_of_bits(f.image_bits(scott_closure(p, bits)))
    return s_direct == s_closed
