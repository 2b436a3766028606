"""Posets with partial joins on consistent pairs, and their F-Scott closure system.

A ``VSemilattice`` is a finite poset in which every consistent pair has a
least upper bound; the join table is defined exactly on consistent pairs and
validated once at construction.  F-Scott closed subsets are lower sets that
also contain the join of each of their consistent finite subsets; ``cl_f``
is the corresponding closure operator and ``gamma_f`` enumerates all closed
sets with the lectic Next-Closure algorithm, so the work is proportional to
the number of closed sets rather than to 2**n.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .families import SetFamily
from .poset import (
    FinitePoset,
    InvariantError,
    PosetError,
    PosetMap,
    down_set,
    is_consistent,
    is_lower_set,
    is_scott_closed,
    iter_bits,
    least_upper_bound,
    scott_closure,
)

# "directed_sup" names the literal closure step that cl_f omits: a finite
# directed set contains its sup, so the step never adds an element and
# disabling it changes nothing.  The name stays accepted for the mutation probe.
CLOSURE_STEPS = ("lower", "pair_join", "directed_sup")

# Mutation hooks for the verification suite: closure steps listed here are
# skipped by cl_f.  Test plumbing only; never set outside disable_closure_step.
_DISABLED_STEPS: set[str] = set()


@contextmanager
def disable_closure_step(name: str):
    """Temporarily drop one cl_f closure step ("lower" | "pair_join" | "directed_sup").

    Dropping "directed_sup" is a no-op, because cl_f never runs that step.
    """
    if name not in CLOSURE_STEPS:
        raise ValueError(f"unknown closure step {name!r}")
    if name in _DISABLED_STEPS:
        raise ValueError(f"closure step {name!r} already disabled")
    _DISABLED_STEPS.add(name)
    try:
        yield
    finally:
        _DISABLED_STEPS.discard(name)


def _disabled_key() -> frozenset:
    return frozenset(_DISABLED_STEPS)


class VSemilattice:
    """A finite poset with a partial join defined exactly on consistent pairs.

    The table is validated at construction: defined iff the pair is bounded,
    each defined entry is the least upper bound, and the partial operation is
    commutative, idempotent, inflationary and associative wherever the
    relevant entries are defined.
    """

    def __init__(self, poset: FinitePoset, join):
        self.poset = poset
        self.join = tuple(tuple(row) for row in join)
        self._validate()
        self._clf_memo: dict[tuple, int] = {}

    @property
    def n(self) -> int:
        return self.poset.n

    @classmethod
    def from_poset(cls, p: FinitePoset):
        """Populate the join table, or return None if some consistent pair
        has no least upper bound."""
        n = p.n
        join = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                ub = p.up_masks[i] & p.up_masks[j]
                if ub == 0:
                    continue
                least = least_upper_bound(p.up_masks, p.full_mask, (1 << i) | (1 << j))
                if least is None:
                    return None
                join[i][j] = join[j][i] = least
        return cls(p, join)

    def _validate(self):
        p, join, n = self.poset, self.join, self.poset.n
        if len(join) != n or any(len(row) != n for row in join):
            raise PosetError("join table has wrong shape")
        for i in range(n):
            if join[i][i] != i:
                raise PosetError("join table is not idempotent")
            for j in range(n):
                v = join[i][j]
                bounded = p.up_masks[i] & p.up_masks[j] != 0
                if (v != -1) != bounded:
                    raise PosetError("join defined iff pair is consistent; table disagrees")
                if v == -1:
                    continue
                if join[j][i] != v:
                    raise PosetError("join table is not commutative")
                if not (p.le[i, v] and p.le[j, v]):
                    raise PosetError("join entry is not an upper bound")
                ub = p.up_masks[i] & p.up_masks[j]
                if ub & ~p.up_masks[v]:
                    raise PosetError("join entry is not the least upper bound")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = join[i][j]
                    left = join[left][k] if left != -1 else -1
                    right = join[j][k]
                    right = join[i][right] if right != -1 else -1
                    if left != right:
                        raise PosetError("join table is not associative where defined")

    def defined(self, i: int, j: int) -> bool:
        return self.join[i][j] != -1

    def sup_of_bits(self, bits: int):
        """Least upper bound of an arbitrary subset in the underlying poset, or None.

        Computed on each call; sweeps over many subsets index ``sup_table``.
        """
        return least_upper_bound(self.poset.up_masks, self.poset.full_mask, bits)

    @cached_property
    def sup_table(self) -> tuple:
        """``sup_table[b]`` is ``sup_of_bits(b)`` for every subset ``b``.

        Dense over all 2**n subsets, so build it only for small semilattices.
        The common upper bounds of each subset come from one AND per subset;
        the sup exists exactly when they form the principal up-set of an
        element, and up-sets of distinct elements differ.
        """
        up = self.poset.up_masks
        bounds = [self.poset.full_mask]
        for row in up:
            bounds += [ub & row for ub in bounds]
        principal = {row: i for i, row in enumerate(up)}
        return tuple(principal.get(ub) for ub in bounds)

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
    found = 0
    elems = list(iter_bits(bits))
    join = l.join
    for a in range(len(elems)):
        for b in range(a + 1, len(elems)):
            v = join[elems[a]][elems[b]]
            if v != -1:
                found |= 1 << v
    return bits | found


def cl_f(l: VSemilattice, bits: int) -> int:
    """Least F-Scott closed superset: fixpoint of the lower-closure and
    consistent-pair-join steps.

    The literal definition also closes under directed sups; on a finite poset
    that step adds nothing (see ``CLOSURE_STEPS``), which the test suite
    checks against the literal fixpoint."""
    key = (_disabled_key(), bits)
    hit = l._clf_memo.get(key)
    if hit is not None:
        return hit
    disabled = _DISABLED_STEPS
    cur = bits
    while True:
        prev = cur
        if "lower" not in disabled:
            cur = down_set(l.poset, cur)
        if "pair_join" not in disabled:
            cur = _step_pair_join(l, cur)
        if cur == prev:
            break
    l._clf_memo[key] = cur
    return cur


@dataclass(frozen=True)
class FClosureSystem:
    """All F-Scott closed subsets of a semilattice, the empty set included."""

    base: VSemilattice
    family: SetFamily

    @property
    def members(self) -> tuple[int, ...]:
        return self.family.members


def gamma_f(l: VSemilattice) -> FClosureSystem:
    """Enumerate every F-Scott closed set by Next-Closure in lectic order."""
    return _gamma_f_cached(l, _disabled_key())


@lru_cache(maxsize=None)
def _gamma_f_cached(l: VSemilattice, disabled_key) -> FClosureSystem:
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
    return FClosureSystem(l, SetFamily(l.poset, members))


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
    jl, jm = l.join, m.join
    n = l.n
    for i in range(n):
        for j in range(i + 1, n):
            v = jl[i][j]
            if v == -1:
                continue
            w = jm[img[i]][img[j]]
            if w == -1 or w != img[v]:
                return False
    return True


def preserves_directed_sups(f: PosetMap, l: VSemilattice, m: VSemilattice) -> bool:
    """Literal check over all directed subsets; test oracle for the finite reduction."""
    _check_map(f, l, m)
    from .poset import directed_subsets_with_sups

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
    """All join-preserving monotone maps, by backtracking along a linear
    extension with monotonicity and join-constraint propagation."""
    return [PosetMap(l.poset, m.poset, img) for img in _homomorphism_images(l, m)]


@lru_cache(maxsize=None)
def _homomorphism_images(l: VSemilattice, m: VSemilattice) -> tuple[tuple[int, ...], ...]:
    lp, mp = l.poset, m.poset
    n = lp.n
    order = lp.linear_extension
    # pairs (x, y) strictly below z whose join is z: once x and y have images,
    # the image of z is forced
    forcing: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z = l.join[i][j]
            if z != -1 and z != i and z != j:
                forcing[z].append((i, j))
    strict_down = [lp.down_masks[e] & ~(1 << e) for e in range(n)]
    img = [-1] * n
    out: list[tuple[int, ...]] = []

    def rec(k: int):
        if k == n:
            out.append(tuple(img))
            return
        z = order[k]
        cand = mp.full_mask
        for p_ in iter_bits(strict_down[z]):
            cand &= mp.up_masks[img[p_]]
        for (x, y) in forcing[z]:
            w = m.join[img[x]][img[y]]
            if w == -1:
                return
            cand &= 1 << w
        for v in iter_bits(cand):
            img[z] = v
            rec(k + 1)
        img[z] = -1

    rec(0)
    return tuple(out)


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
