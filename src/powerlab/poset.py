"""Finite partial orders and their elementary order-theoretic predicates.

A poset is stored as a read-only boolean matrix ``le`` with ``le[i, j]``
meaning element ``i`` is below element ``j``.  Subsets of the universe are
plain Python ints used as bitmasks (bit ``i`` set means element ``i`` is in
the subset); they are the currency of every family computation in this
package.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class PosetError(ValueError):
    """Invalid input: bad covers, duplicate labels, broken order axioms."""


class InvariantError(RuntimeError):
    """An internal structural invariant broke; indicates a bug, not bad input."""


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _default_labels(n: int) -> tuple[str, ...]:
    letters = string.ascii_lowercase
    return tuple(letters[i] if i < 26 else f"x{i}" for i in range(n))


class FinitePoset:
    """Immutable finite poset on elements ``0..n-1`` with display labels.

    The relation is kept fully transitively closed so that order queries are
    single matrix lookups; the covering relation is derived on demand.
    """

    def __init__(self, le, labels=None):
        le = np.array(le, dtype=bool)
        if le.ndim != 2 or le.shape[0] != le.shape[1]:
            raise PosetError(f"relation matrix must be square, got shape {le.shape}")
        n = le.shape[0]
        labels = tuple(labels) if labels is not None else _default_labels(n)
        if len(labels) != n:
            raise PosetError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise PosetError("duplicate label")
        if n:
            if not le[np.diag_indices(n)].all():
                raise PosetError("relation is not reflexive")
            if (le & le.T).sum() != n:
                raise PosetError("relation is not antisymmetric")
            closed = le.astype(np.uint8) @ le.astype(np.uint8) > 0
            if (closed & ~le).any():
                raise PosetError("relation is not transitive")
        le.flags.writeable = False
        self.n = int(n)
        self.labels = labels
        self.le = le

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_covers(cls, labels, cover_pairs) -> "FinitePoset":
        """Build a poset from labels and covering pairs ``(lower, upper)``.

        The relation is the reflexive-transitive closure of the covers; a
        cycle among the covers is rejected.
        """
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise PosetError("duplicate label")
        n = len(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        adj = np.zeros((n, n), dtype=bool)
        for pair in cover_pairs:
            a, b = pair
            if a not in index or b not in index:
                raise PosetError(f"cover pair {pair!r} uses an unknown label")
            if a == b:
                raise PosetError(f"cover pair {pair!r} is a self-loop")
            adj[index[a], index[b]] = True
        reach = adj.copy()
        reach[np.diag_indices(n)] = True
        for _ in range(max(n, 1)):
            nxt = (reach.astype(np.uint8) @ reach.astype(np.uint8)) > 0
            if (nxt == reach).all():
                break
            reach = nxt
        strict_both = reach & reach.T
        strict_both[np.diag_indices(n)] = False
        if strict_both.any():
            raise PosetError("cycle detected among cover pairs")
        return cls(reach, labels)

    @classmethod
    def from_json(cls, data) -> "FinitePoset":
        """Parse the ``{"labels": [...], "covers": [[lo, hi], ...]}`` format."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or "labels" not in data or "covers" not in data:
            raise PosetError('poset JSON needs "labels" and "covers" fields')
        return cls.from_covers(data["labels"], [tuple(p) for p in data["covers"]])

    # -- derived structure -------------------------------------------------

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """``up_masks[i]`` holds the elements above or equal to ``i``."""
        out = []
        for i in range(self.n):
            row = 0
            for j in range(self.n):
                if self.le[i, j]:
                    row |= 1 << j
            out.append(row)
        return tuple(out)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """``down_masks[i]`` holds the elements below or equal to ``i``."""
        out = []
        for j in range(self.n):
            col = 0
            for i in range(self.n):
                if self.le[i, j]:
                    col |= 1 << i
            out.append(col)
        return tuple(out)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def linear_extension(self) -> tuple[int, ...]:
        # sorting by down-set size gives a topological order of any poset
        return tuple(sorted(range(self.n), key=lambda i: (self.down_masks[i].bit_count(), i)))

    def leq(self, i: int, j: int) -> bool:
        return bool(self.le[i, j])

    # -- subsets by label ---------------------------------------------------

    def subset_from_labels(self, labels) -> int:
        bits = 0
        for lab in labels:
            if lab not in self.label_index:
                raise PosetError(f"unknown label {lab!r}")
            bits |= 1 << self.label_index[lab]
        return bits

    def subset_labels(self, bits: int) -> list[str]:
        return [self.labels[i] for i in iter_bits(bits)]

    # -- export -------------------------------------------------------------

    def to_json(self) -> dict:
        covers = [[self.labels[i], self.labels[j]] for i, j in hasse(self)]
        return {"labels": list(self.labels), "covers": covers}

    def to_dot(self) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for lab in self.labels:
            lines.append(f'  "{lab}";')
        for i, j in hasse(self):
            lines.append(f'  "{self.labels[i]}" -> "{self.labels[j]}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"FinitePoset({self.n}, labels={self.labels!r})"

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.labels == other.labels and (self.le == other.le).all()

    def __hash__(self):
        return hash((self.labels, self.le.tobytes()))


@dataclass(frozen=True)
class PosetMap:
    """A function between posets, given by the image index of each element."""

    dom: FinitePoset
    cod: FinitePoset
    img: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "img", tuple(self.img))
        if len(self.img) != self.dom.n:
            raise PosetError(f"map needs {self.dom.n} images, got {len(self.img)}")
        if any(not 0 <= v < self.cod.n for v in self.img):
            raise PosetError("map image index out of range")

    def __call__(self, i: int) -> int:
        return self.img[i]

    def is_monotone(self) -> bool:
        img, cup = self.img, self.cod.up_masks
        return all(
            cup[img[i]] >> img[j] & 1
            for i, row in enumerate(self.dom.up_masks)
            for j in iter_bits(row)
        )

    def image_bits(self, bits: int) -> int:
        out = 0
        for i in iter_bits(bits):
            out |= 1 << self.img[i]
        return out

    def preimage_bits(self, bits: int) -> int:
        out = 0
        for i, v in enumerate(self.img):
            if bits >> v & 1:
                out |= 1 << i
        return out

    def compose(self, inner: "PosetMap") -> "PosetMap":
        """Return ``self`` after ``inner`` (so the result maps inner.dom to self.cod)."""
        if inner.cod is not self.dom and inner.cod != self.dom:
            raise PosetError("composition mismatch")
        return PosetMap(inner.dom, self.cod, tuple(self.img[v] for v in inner.img))

    def is_scott_continuous(self) -> bool:
        """Literal check: every directed subset's sup is mapped to the sup of its image."""
        for dbits, s in directed_subsets_with_sups(self.dom):
            t = least_upper_bound(self.cod.up_masks, self.cod.full_mask, self.image_bits(dbits))
            if t is None or t != self.img[s]:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "dom": self.dom.to_json(),
            "cod": self.cod.to_json(),
            "map": {self.dom.labels[i]: self.cod.labels[v] for i, v in enumerate(self.img)},
        }


# -- elementary operations on subsets ---------------------------------------


def down_set(p: FinitePoset, bits: int) -> int:
    """All elements below or equal to some element of the subset."""
    out = 0
    for i in iter_bits(bits):
        out |= p.down_masks[i]
    return out


def up_set(p: FinitePoset, bits: int) -> int:
    out = 0
    for i in iter_bits(bits):
        out |= p.up_masks[i]
    return out


def upper_bounds(p: FinitePoset, bits: int) -> int:
    """Common upper bounds of the subset; the whole universe for the empty set."""
    out = p.full_mask
    for i in iter_bits(bits):
        out &= p.up_masks[i]
    return out


def is_consistent(p: FinitePoset, bits: int) -> bool:
    """Whether the subset has a common upper bound; the empty set counts as consistent."""
    if bits == 0:
        return True
    return upper_bounds(p, bits) != 0


def is_directed(p: FinitePoset, bits: int) -> bool:
    """Every pair has an upper bound inside the subset; rejects the empty set."""
    if bits == 0:
        raise PosetError("directedness is only defined for nonempty subsets")
    elems = list(iter_bits(bits))
    up = p.up_masks
    for a in range(len(elems)):
        for b in range(a + 1, len(elems)):
            if up[elems[a]] & up[elems[b]] & bits == 0:
                return False
    return True


def least_upper_bound(up_masks, full_mask: int, bits: int):
    """Least common upper bound of ``bits`` given per-element up-masks, or None."""
    ub = full_mask
    for i in iter_bits(bits):
        ub &= up_masks[i]
    if ub == 0:
        return None
    for b in iter_bits(ub):
        if ub & ~up_masks[b] == 0:
            return b
    return None


def sup(p: FinitePoset, bits: int):
    """Least upper bound of the subset if it exists, else None."""
    return least_upper_bound(p.up_masks, p.full_mask, bits)


def subset_images(img, n: int) -> list[int]:
    """``out[a]`` is the image bitmask of subset ``a`` of ``0..n-1`` under ``img``.

    Covers all 2**n subsets with one OR each, by the recurrence
    ``out[a] = out[a ^ top] | 1 << img[bit(top)]`` on the highest bit ``top``
    of ``a``.
    """
    out = [0]
    for i in range(n):
        bit = 1 << img[i]
        out += [x | bit for x in out]
    return out


def is_lower_set(p: FinitePoset, bits: int) -> bool:
    return down_set(p, bits) == bits


def directed_subsets_with_sups(p: FinitePoset, domain_bits: int | None = None):
    """All nonempty directed subsets of ``domain_bits`` with their sups.

    Exhaustive by construction, so only meant for small universes; results for
    the whole poset are cached on the instance.
    """
    if domain_bits is None or domain_bits == p.full_mask:
        return _directed_cache(p)
    return [(d, s) for d, s in _directed_cache(p) if d & ~domain_bits == 0]


def _directed_cache(p: FinitePoset):
    cached = p.__dict__.get("_directed_subsets")
    if cached is None:
        if p.n > 16:
            raise PosetError("exhaustive directed-subset enumeration capped at 16 elements")
        cached = [
            (d, sup(p, d))
            for d in enumerate_directed_subsets(p.up_masks, p.full_mask)
        ]
        p.__dict__["_directed_subsets"] = cached
    return cached


def enumerate_directed_subsets(up_masks, domain_bits: int) -> list[int]:
    """Nonempty subsets of ``domain_bits`` whose every pair is bounded inside the subset.

    Plain include/exclude recursion over the elements.  A pair that is not yet
    bounded is remembered as the mask of its potential bounds; a branch dies
    as soon as some remembered pair can no longer be bounded by any remaining
    candidate.
    """
    elems = list(iter_bits(domain_bits))
    m = len(elems)
    if m > 22:
        raise PosetError("directed-subset enumeration capped at 22 elements")
    rest = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        rest[k] = rest[k + 1] | (1 << elems[k])
    out: list[int] = []

    def rec(k: int, dmask: int, chosen: tuple[int, ...], needs: tuple[int, ...]):
        for nm in needs:
            if nm & (dmask | rest[k]) == 0:
                return
        if k == m:
            if dmask and not needs:
                out.append(dmask)
            return
        rec(k + 1, dmask, chosen, needs)
        x = elems[k]
        nd = dmask | (1 << x)
        new_needs = [nm for nm in needs if nm & nd == 0]
        ux = up_masks[x]
        for y in chosen:
            c = up_masks[y] & ux
            if c & nd == 0:
                new_needs.append(c)
        rec(k + 1, nd, chosen + (x,), tuple(new_needs))

    rec(0, 0, (), ())
    return out


def directed_sup_closure_step(up_masks, full_mask: int, bits: int) -> int:
    """Sups (when they exist) of every nonempty directed subset of ``bits``.

    The literal directed-sup closure step.  On a finite poset every directed
    subset contains its sup, so the step only returns elements of ``bits``;
    production closures omit it, and the tests keep it as the reference they
    compare the closures against.
    """
    found = 0
    for d in enumerate_directed_subsets(up_masks, bits):
        s = least_upper_bound(up_masks, full_mask, d)
        if s is not None:
            found |= 1 << s
    return found


def is_scott_closed(p: FinitePoset, bits: int) -> bool:
    """Literal check: a lower set containing the sup of each of its directed subsets."""
    if not is_lower_set(p, bits):
        return False
    for d, s in directed_subsets_with_sups(p, bits):
        if s is not None and not bits >> s & 1:
            return False
    return True


def scott_closure(p: FinitePoset, bits: int) -> int:
    """Least Scott closed superset: the down-set.

    A finite directed set has a greatest element, which is its sup, so a
    lower set is already closed under directed sups.  The test suite checks
    this collapse against ``is_scott_closed`` and ``directed_sup_closure_step``.
    """
    return down_set(p, bits)


def way_below(p: FinitePoset, x: int, y: int) -> bool:
    """Whether every directed subset with sup above ``y`` reaches down to ``x``.

    Decided by quantifying over all directed subsets; no finite-poset shortcut
    is assumed here.
    """
    for dbits, s in directed_subsets_with_sups(p):
        if s is not None and p.le[y, s] and not down_set(p, dbits) >> x & 1:
            return False
    return True


def way_down_masks(p: FinitePoset) -> tuple[int, ...]:
    """``out[i]`` holds every element way below ``i``; cached on the poset."""
    cached = p.__dict__.get("_way_down_masks")
    if cached is None:
        cached = tuple(
            sum(1 << x for x in range(p.n) if way_below(p, x, y)) for y in range(p.n)
        )
        p.__dict__["_way_down_masks"] = cached
    return cached


def is_irreducible_closed(p: FinitePoset, bits: int) -> bool:
    """Whether the closed set is not a union of two proper closed subsets."""
    if not is_scott_closed(p, bits):
        raise PosetError("irreducibility is only defined for Scott closed sets")
    if bits == 0:
        return False
    proper = [
        c for c in _closed_subsets(p) if c & ~bits == 0 and c != bits
    ]
    for i, c1 in enumerate(proper):
        for c2 in proper[i + 1 :]:
            if c1 | c2 == bits:
                return False
    return True


def _closed_subsets(p: FinitePoset) -> list[int]:
    cached = p.__dict__.get("_closed_subsets")
    if cached is None:
        cached = [b for b in range(1 << p.n) if is_lower_set(p, b)]
        p.__dict__["_closed_subsets"] = cached
    return cached


def is_sober(p: FinitePoset) -> bool:
    """Every nonempty irreducible closed set is a point closure."""
    for bits in _closed_subsets(p):
        if bits and is_irreducible_closed(p, bits):
            if not any(bits == p.down_masks[x] for x in range(p.n)):
                return False
    return True


def hasse(p: FinitePoset) -> tuple[tuple[int, int], ...]:
    """Covering pairs ``(i, j)``: the transitive reduction of the order."""
    n = p.n
    lt = p.le.copy()
    if n:
        lt[np.diag_indices(n)] = False
    via = (lt.astype(np.uint8) @ lt.astype(np.uint8)) > 0
    cover = lt & ~via
    return tuple((int(i), int(j)) for i, j in zip(*np.nonzero(cover)))
