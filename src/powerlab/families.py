"""Families of subsets of a poset, ordered by inclusion.

The two standard families are the nonempty lower (= Scott closed) sets and
the same family with the empty set added.  A family is itself a finite poset
under inclusion; a closure *inside* a family is a down-set in that order,
read off the member bitmasks without building the poset.
"""

from __future__ import annotations

from functools import cached_property

from .poset import FinitePoset, PosetError


def _canonical_member_order(members) -> tuple[int, ...]:
    return tuple(sorted(members, key=lambda b: (b.bit_count(), b)))


def _set_label(p: FinitePoset, bits: int) -> str:
    """``{a,b}`` for a subset, with ``\\`` and ``,`` escaped inside each
    element label, so that distinct subsets get distinct labels; no element
    label is empty, so only the empty set is ``{}``."""
    labels = (lab.replace("\\", "\\\\").replace(",", "\\,") for lab in p.subset_labels(bits))
    return "{" + ",".join(labels) + "}"


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
        sets = ", ".join(_set_label(self.base, m) for m in self.members)
        return f"SetFamily({sets})"

    @cached_property
    def index_of(self) -> dict:
        return {m: i for i, m in enumerate(self.members)}

    @cached_property
    def poset(self) -> FinitePoset:
        """The family as a poset under inclusion; member i becomes element i."""
        up = [
            sum(1 << j for j, b in enumerate(self.members) if a & ~b == 0)
            for a in self.members
        ]
        labels = tuple(_set_label(self.base, m) for m in self.members)
        return FinitePoset.from_up_masks(up, labels)

    def to_json(self) -> dict:
        return {
            "poset": self.base.to_json(),
            "members": [self.base.subset_labels(m) for m in self.members],
        }

    def to_dot(self) -> str:
        return self.poset.to_dot()


def gamma(p: FinitePoset) -> SetFamily:
    """The nonempty Scott closed (= nonempty lower) subsets of ``p``: every
    ideal but the first of ``p.ideals``, the empty set."""
    return SetFamily(p, p.ideals[1:])


def gamma0(p: FinitePoset) -> SetFamily:
    """``gamma`` plus the empty set."""
    return SetFamily(p, p.ideals)


def closure_in_family(family: SetFamily, subfamily) -> SetFamily:
    """Least subfamily containing ``subfamily`` that is Scott closed in the
    family's inclusion order: its down-set there, the members of ``family``
    that lie inside some member of ``subfamily``.  The inclusion test reads
    the member bitmasks, so the family's ``poset`` is not built.

    The family is finite, so every directed subfamily contains its sup and
    the directed-sup step of the literal closure adds nothing; the test suite
    checks this against the literal fixpoint.
    """
    tops = list(subfamily)
    if any(m not in family.index_of for m in tops):
        raise PosetError("subfamily member does not belong to the family")
    return SetFamily(family.base, [a for a in family.members if any(not a & ~m for m in tops)])
