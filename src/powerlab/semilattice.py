"""Posets with partial joins on consistent pairs, and their F-Scott closure system.

A ``VSemilattice`` is a finite poset in which every consistent pair has a
least upper bound; the join table is defined exactly on consistent pairs and
validated once at construction, in O(n**2) with no associativity loop
(``VSemilattice`` proves it redundant).  F-Scott closed subsets are lower
sets that also contain the join of each of their consistent finite subsets;
``cl_f`` is the corresponding closure operator, a down-set followed by a
semi-naive worklist that joins every pair once, and ``gamma_f`` enumerates
all closed sets with the lectic Next-Closure algorithm, so the work is
proportional to the number of closed sets rather than to 2**n.
Homomorphisms are the monotone maps of ``iter_monotone_maps`` that preserve
the join of every consistent incomparable pair; ``iter_homomorphisms``
streams them.  Sups of images run on ``sup_translations``, one 256-byte
``bytes.translate`` table per element: ``_image_sups`` gives the sup of
every subset's image under a map as bytes, ``NO_SUP`` marking none, and
``_member_sups`` the sups at given lower sets only, from their maximal
elements.

The module carries no test switch: mutation probes replace a ``cl_f`` step
in this module's namespace from outside, and clear ``gamma_f``'s cache, the
one that holds ``cl_f`` results.  Replacing ``down_set``, which ``cl_f``
calls on its argument and ``_step_pair_join`` on each new join, leaves the
closure under pair joins alone; replacing ``_step_pair_join``, the worklist,
leaves the bare down-set.
"""

from __future__ import annotations

import csv
import io
from functools import cached_property, lru_cache

from .families import SetFamily
from .poset import (
    FinitePoset,
    InvariantError,
    PosetError,
    PosetMap,
    directed_subsets_with_sups,
    down_set,
    is_consistent,
    is_lower_set,
    is_scott_closed,
    iter_bits,
    iter_monotone_maps,
    scott_closure,
    sup,
)

# the byte that marks a set with no least upper bound in a sup table
NO_SUP = 255


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

    def defined(self, i: int, j: int) -> bool:
        return self.join[i][j] != -1

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
    def sup_translations(self) -> tuple:
        """``sup_translations[y]`` is a 256-byte ``bytes.translate`` table:
        entry ``s`` is ``join[s][y]``, or ``NO_SUP`` where that is undefined,
        entry ``n`` is ``y`` and every other entry is ``NO_SUP``.

        Read at a set's sup ``s`` it gives the sup of that set with ``y``
        added; entry ``n`` stands for the empty set, and a set with no sup
        stays without one.  ``_image_sups`` and ``_member_sups`` run on these
        tables, so they need ``n`` and ``NO_SUP`` to be distinct bytes: a
        semilattice of ``NO_SUP`` or more elements is a ``PosetError``."""
        n = self.n
        if n >= NO_SUP:
            raise PosetError(f"sup tables hold at most {NO_SUP - 1} elements, not {n}")
        columns = ([NO_SUP if v == -1 else v for v in col] for col in zip(*self.join))
        pad = bytes([NO_SUP]) * (255 - n)
        return tuple(bytes(col) + bytes([y]) + pad for y, col in enumerate(columns))

    @cached_property
    def empty_sup(self) -> bytes:
        """The sup of the empty set, the bottom ``sup_of_bits(0)``, as one byte
        of a sup table: ``NO_SUP`` when there is no bottom."""
        bottom = self.sup_of_bits(0)
        return bytes([NO_SUP if bottom is None else bottom])

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


def is_v_semilattice(p: FinitePoset) -> bool:
    return VSemilattice.from_poset(p) is not None


def _image_sups(l: VSemilattice, img) -> bytes:
    """``out[a]``: the least upper bound in ``l`` of the image of subset ``a``
    of the domain under ``img``, or ``NO_SUP`` if it has none; one byte per
    domain subset.

    One ``translate`` per domain element, by the recurrence ``out[a | bit(y)]
    = join(out[a], img[y])`` on ``l.sup_translations``, where byte ``n``
    marks the empty image until its sup, ``l.empty_sup``, replaces it.  This
    is sound in a semilattice: for a nonempty S with sup s, sup(S ∪ {y})
    exists exactly when join(s, y) does, and then they are equal, since an
    upper bound of S ∪ {y} bounds s and y; a nonempty S with no sup is
    unbounded, because a bounded nonempty set has a sup, and so is S ∪ {y}.
    """
    tables = l.sup_translations
    out = bytes([len(tables)])
    for v in img:
        out += out.translate(tables[v])
    return l.empty_sup + out[1:]


def _member_sups(l: VSemilattice, img, maxima) -> tuple:
    """The sup in ``l`` of the image under the monotone ``img`` of each
    nonempty lower set, or ``NO_SUP`` where it has none: the fold of
    ``_image_sups`` over the set's maximal elements only, which ``maxima``
    gives per set as the first one and a tuple of the others.

    That is enough because ``img`` is monotone: each element of a lower set
    m lies below a maximal one, so its image lies below that one's image, and
    the images of m and of max m have the same upper bounds, hence the same
    sup or none."""
    tables = l.sup_translations
    out = []
    for first, rest in maxima:
        s = img[first]
        for x in rest:
            s = tables[img[x]][s]
        out.append(s)
    return tuple(out)


# -- F-Scott closed sets ------------------------------------------------------


def is_f_scott_closed(l: VSemilattice, bits: int) -> bool:
    """Lower set closed under joins of its consistent pairs.

    Iterated pair joins generate the joins of all consistent finite subsets;
    that reduction is validated against is_f_scott_closed_literal in the test
    suite rather than assumed silently.
    """
    if not is_lower_set(l.poset, bits):
        return False
    elems = list(iter_bits(bits))
    join = l.join
    for a in range(len(elems)):
        for b in range(a + 1, len(elems)):
            v = join[elems[a]][elems[b]]
            if v != -1 and not bits >> v & 1:
                return False
    return True


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
    done = []
    queue = list(iter_bits(bits))
    while queue:
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
            queue.extend(iter_bits(new))
    return bits


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
    """Every F-Scott closed set, the empty set included, by Next-Closure in
    lectic order."""
    return _gamma_f_cached(l)


@lru_cache(maxsize=None)
def _gamma_f_cached(l: VSemilattice) -> SetFamily:
    n = l.n
    members = []
    current = cl_f(l, 0)
    members.append(current)
    full = cl_f(l, l.poset.full_mask)
    while current != full:
        for i in range(n - 1, -1, -1):
            if current >> i & 1:
                continue
            prefix = current & ((1 << i) - 1)
            cand = cl_f(l, prefix | (1 << i))
            if cand & ((1 << i) - 1) == prefix:
                current = cand
                members.append(current)
                break
        else:
            raise InvariantError("lectic enumeration stalled before the top closure")
    return SetFamily(l.poset, members)


# -- maps between semilattices ------------------------------------------------


def is_homomorphism(f: PosetMap, l: VSemilattice, m: VSemilattice) -> bool:
    """Monotone and preserving the join of every consistent pair.

    Preservation of directed sups follows from monotonicity on finite posets;
    that reduction is itself exercised by the test suite via
    preserves_directed_sups.
    """
    _check_map(f, l, m)
    if not f.is_monotone():
        return False
    return _img_is_homomorphism(f.img, l, m)


def _img_is_homomorphism(img, l: VSemilattice, m: VSemilattice) -> bool:
    """Whether the map with images ``img`` preserves every consistent join.

    The map must be monotone: only the pairs of ``l.join_triples`` are
    tested, because a monotone map preserves the join of a comparable pair.
    """
    jm = m.join
    return all(jm[img[i]][img[j]] == img[z] for i, j, z in l.join_triples)


def preserves_directed_sups(f: PosetMap, l: VSemilattice, m: VSemilattice) -> bool:
    """Literal check over all directed subsets; test oracle for the finite reduction."""
    _check_map(f, l, m)
    for dbits, s in directed_subsets_with_sups(l.poset):
        t = m.sup_of_bits(f.image_bits(dbits))
        if s is None:
            continue
        if t is None or t != f.img[s]:
            return False
    return True


def _check_map(f: PosetMap, l: VSemilattice, m: VSemilattice):
    if f.dom != l.poset or f.cod != m.poset:
        raise PosetError("map endpoints do not match the given semilattices")


def f_scott_continuity_violation(f: PosetMap, l: VSemilattice, m: VSemilattice):
    """A closed set of the codomain whose preimage is not closed, or None."""
    _check_map(f, l, m)
    for c in gamma_f(m).members:
        pre = f.preimage_bits(c)
        if not is_f_scott_closed(l, pre):
            return c, pre
    return None


def is_f_scott_continuous(f: PosetMap, l: VSemilattice, m: VSemilattice) -> bool:
    """Preimages of F-Scott closed sets are F-Scott closed."""
    return f_scott_continuity_violation(f, l, m) is None


def enumerate_homomorphisms(l: VSemilattice, m: VSemilattice) -> list[PosetMap]:
    """All join-preserving monotone maps, in the order of ``iter_monotone_maps``."""
    return [PosetMap(l.poset, m.poset, img) for img in _homomorphism_images(l, m)]


def iter_homomorphisms(l: VSemilattice, m: VSemilattice):
    """The images of the homomorphisms ``l -> m``, streamed in the order of
    ``iter_monotone_maps``: the monotone maps that preserve the join of each
    pair of ``l.join_triples``, since a monotone map already preserves the
    join of a comparable pair."""
    triples = l.join_triples
    jm = m.join
    for img in iter_monotone_maps(l.poset, m.poset):
        for i, j, z in triples:
            if jm[img[i]][img[j]] != img[z]:
                break
        else:
            yield img


@lru_cache(maxsize=None)
def _homomorphism_images(l: VSemilattice, m: VSemilattice) -> tuple[tuple[int, ...], ...]:
    """``iter_homomorphisms(l, m)`` as a tuple, cached for the semilattice
    pairs that Prop3.4 and Lem3.6 both read."""
    return tuple(iter_homomorphisms(l, m))


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
    if (s_direct is None) != (s_closed is None):
        return False
    return s_direct == s_closed
