"""Families of subsets of a poset, ordered by inclusion.

The two standard families are the nonempty lower (= Scott closed) sets and
the same family with the empty set added.  A family is itself a finite poset
under inclusion, which is how closures *inside* a family are computed.
"""

from __future__ import annotations

from functools import cached_property

from .poset import (
    FinitePoset,
    PosetError,
    down_set,
    iter_bits,
)


def _canonical_member_order(members) -> tuple[int, ...]:
    return tuple(sorted(members, key=lambda b: (b.bit_count(), b)))


class SetFamily:
    """A collection of distinct subsets of one poset, kept in canonical order.

    Members are sorted by (size, numeric bit value) so that output is
    reproducible no matter how the family was produced.
    """

    def __init__(self, base: FinitePoset, members):
        members = list(members)
        if len(set(members)) != len(members):
            raise PosetError("duplicate family member")
        for m in members:
            if m & ~base.full_mask:
                raise PosetError("family member outside the base universe")
        self.base = base
        self.members = _canonical_member_order(members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, bits):
        return bits in self.index_of

    def __eq__(self, other):
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.base == other.base and self.members == other.members

    def __hash__(self):
        return hash((self.base, self.members))

    def __repr__(self):
        sets = [
            "{" + ",".join(self.base.subset_labels(m)) + "}" for m in self.members
        ]
        return f"SetFamily({', '.join(sets)})"

    @cached_property
    def index_of(self) -> dict:
        return {m: i for i, m in enumerate(self.members)}

    @cached_property
    def poset(self) -> FinitePoset:
        """The family as a poset under inclusion; member i becomes element i."""
        k = len(self.members)
        le = [[False] * k for _ in range(k)]
        for i, a in enumerate(self.members):
            for j, b in enumerate(self.members):
                le[i][j] = a & ~b == 0
        labels = tuple(
            "{" + ",".join(self.base.subset_labels(m)) + "}" for m in self.members
        )
        return FinitePoset(le, labels)

    def member_bits(self, indices_mask: int) -> list[int]:
        """Members selected by a bitmask over member indices."""
        return [self.members[i] for i in iter_bits(indices_mask)]

    def to_json(self) -> dict:
        return {
            "poset": self.base.to_json(),
            "members": [self.base.subset_labels(m) for m in self.members],
        }

    def to_dot(self) -> str:
        return self.poset.to_dot()


def _ideals(p: FinitePoset, include_empty: bool) -> list[int]:
    """All lower sets, by include/exclude recursion along a linear extension.

    An element may be included only once its whole strict down-set is in, so
    every leaf of the recursion is an ideal and the work is proportional to
    the number of ideals, not to 2**n.
    """
    order = p.linear_extension
    strict_down = tuple(p.down_masks[e] & ~(1 << e) for e in range(p.n))
    out: list[int] = []

    def rec(k: int, mask: int):
        if k == len(order):
            out.append(mask)
            return
        e = order[k]
        rec(k + 1, mask)
        if strict_down[e] & ~mask == 0:
            rec(k + 1, mask | (1 << e))

    rec(0, 0)
    if not include_empty:
        out.remove(0)
    return out


def gamma(p: FinitePoset) -> SetFamily:
    """The nonempty Scott closed (= nonempty lower) subsets of ``p``."""
    return SetFamily(p, _ideals(p, include_empty=False))


def gamma0(p: FinitePoset) -> SetFamily:
    """``gamma`` plus the empty set."""
    return SetFamily(p, _ideals(p, include_empty=True))


def as_poset(family: SetFamily) -> FinitePoset:
    """The inclusion order on the family's members."""
    return family.poset


def closure_in_family(family: SetFamily, subfamily) -> SetFamily:
    """Least subfamily containing ``subfamily`` that is Scott closed in the
    family's inclusion order: its down-set there.

    The family is finite, so every directed subfamily contains its sup and
    the directed-sup step of the literal closure adds nothing; the test suite
    checks this against the literal fixpoint.
    """
    sigma = 0
    for m in subfamily:
        idx = family.index_of.get(m)
        if idx is None:
            raise PosetError("subfamily member does not belong to the family")
        sigma |= 1 << idx
    return SetFamily(family.base, family.member_bits(down_set(family.poset, sigma)))
