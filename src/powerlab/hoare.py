"""The consistent Hoare powerdomain of a finite poset.

The powerdomain is computed as the closure, inside the inclusion order on all
nonempty Scott closed sets, of the consistent ones.  Membership can also be
characterized by join-existence of images under monotone maps into partial
join semilattices; this module provides both the canonical refutation witness
for non-members and the bounded search that backs the characterization checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .enumeration import enumerate_v_semilattices, monotone_map_images
from .families import SetFamily, closure_in_family, gamma
from .poset import (
    FinitePoset,
    InvariantError,
    PosetError,
    PosetMap,
    down_set,
    is_consistent,
    is_scott_closed,
    iter_bits,
    scott_closure,
    way_down_masks,
)
from .semilattice import VSemilattice


def gamma_c(p: FinitePoset) -> SetFamily:
    """The nonempty consistent Scott closed subsets of ``p``."""
    return SetFamily(p, [m for m in gamma(p) if is_consistent(p, m)])


@dataclass(frozen=True)
class ConsistentHoare:
    """The consistent Hoare powerdomain with its embedding of the base poset.

    ``family`` collects the member sets, ``poset`` is their inclusion order,
    ``semilattice`` equips that order with the consistent-pair join (always
    union), and ``j`` sends a point to its down-set.
    """

    base: FinitePoset
    family: SetFamily
    poset: FinitePoset
    semilattice: VSemilattice
    j: PosetMap
    family_equals_gamma_c: bool


@lru_cache(maxsize=None)
def build_hc(p: FinitePoset) -> ConsistentHoare:
    """Close the consistent family inside the full Scott closed family and
    verify every structural invariant of the result."""
    if p.n == 0:
        raise PosetError("powerdomain construction needs a nonempty poset")
    gc = gamma_c(p)
    family = closure_in_family(gamma(p), gc)
    equals = family.members == gc.members
    fp = family.poset
    for m in family.members:
        if m == 0 or not is_scott_closed(p, m):
            raise InvariantError("powerdomain member is not a nonempty Scott closed set")
    j_img = []
    for x in range(p.n):
        idx = family.index_of.get(p.down_masks[x])
        if idx is None:
            raise InvariantError("point closure missing from the powerdomain")
        j_img.append(idx)
    j = PosetMap(p, fp, tuple(j_img))
    for x in range(p.n):
        for y in range(p.n):
            if bool(p.le[x, y]) != bool(fp.le[j_img[x], j_img[y]]):
                raise InvariantError("point-closure embedding does not reflect the order")
    semilattice = VSemilattice.from_poset(fp)
    if semilattice is None:
        raise InvariantError("powerdomain order is not a consistent-join semilattice")
    for i, a in enumerate(family.members):
        for k, b in enumerate(family.members):
            v = semilattice.join[i][k]
            if v != -1 and family.members[v] != a | b:
                raise InvariantError("consistent join in the powerdomain is not the union")
    return ConsistentHoare(p, family, fp, semilattice, j, equals)


def partial_join(h: ConsistentHoare, a_bits: int, b_bits: int):
    """Least upper bound of two members when they are consistent, else None.

    The result is asserted to be the plain union of the two sets.
    """
    ia = h.family.index_of.get(a_bits)
    ib = h.family.index_of.get(b_bits)
    if ia is None or ib is None:
        raise PosetError("partial_join arguments must be powerdomain members")
    v = h.semilattice.join[ia][ib]
    if v == -1:
        return None
    result = h.family.members[v]
    if result != a_bits | b_bits:
        raise InvariantError("consistent join is not the union")
    return result


# -- join-existence certificates ----------------------------------------------


@dataclass(frozen=True)
class WitnessCert:
    """Verdict on whether the image of a subset has a least upper bound.

    Recomputable from (semilattice, map, subset); ``value`` is the codomain
    index of the bound when the verdict is SUP_EXISTS.
    """

    semilattice: VSemilattice
    map: PosetMap
    subset: int
    verdict: str
    value: int | None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "sup": None if self.value is None else self.semilattice.poset.labels[self.value],
            "semilattice": self.semilattice.poset.to_json(),
            "map": {
                self.map.dom.labels[i]: self.map.cod.labels[v]
                for i, v in enumerate(self.map.img)
            },
            "subset": self.map.dom.subset_labels(self.subset),
        }


@dataclass(frozen=True)
class NoWitnessFound:
    """Refutation search exhausted its bound; evidence of membership, not proof."""

    max_size: int

    def to_json(self) -> dict:
        return {"verdict": "NOT_FOUND", "searched_max_size": self.max_size}


def sup_of_image(l: VSemilattice, f: PosetMap, bits: int) -> WitnessCert:
    """Decide whether the image of ``bits`` under ``f`` has a least upper bound."""
    if not isinstance(l, VSemilattice):
        l = VSemilattice.from_poset(l)
        if l is None:
            raise PosetError("codomain is not a consistent-join semilattice")
    if f.cod != l.poset:
        raise PosetError("map codomain does not match the semilattice")
    if not f.is_monotone():
        raise PosetError("sup_of_image requires a monotone map")
    s = l.sup_of_bits(f.image_bits(bits))
    if s is None:
        return WitnessCert(l, f, bits, "NO_SUP", None)
    return WitnessCert(l, f, bits, "SUP_EXISTS", s)


def refute_v_existing(p: FinitePoset, bits: int, max_size: int = 4):
    """Look for a monotone map into a semilattice under which the image of the
    set has no least upper bound.

    The powerdomain with its point-closure embedding is tried first: for a
    non-consistent closed set it always refutes, because any member bounding
    the embedded image would be a consistent superset.  Failing that, all
    semilattices up to ``max_size`` and all monotone maps are searched in
    canonical order; exhaustion is reported with the bound.
    """
    if not is_scott_closed(p, bits) or bits == 0:
        raise PosetError("refutation is defined for nonempty Scott closed sets")
    h = build_hc(p)
    cert = sup_of_image(h.semilattice, h.j, bits)
    if cert.verdict == "NO_SUP":
        return cert
    elems = list(iter_bits(bits))
    for n_l in range(1, max_size + 1):
        for l in enumerate_v_semilattices(n_l):
            sup = l.sup_table
            for img in monotone_map_images(p, l.poset):
                image = 0
                for x in elems:
                    image |= 1 << img[x]
                if sup[image] is None:
                    f = PosetMap(p, l.poset, img)
                    return WitnessCert(l, f, bits, "NO_SUP", None)
    return NoWitnessFound(max_size)


# -- relatively consistent closed sets -----------------------------------------


def f_c(p: FinitePoset, bits: int) -> list[int]:
    """All nonempty finite consistent subsets lying way below the given set."""
    wd = way_down_masks(p)
    scope = 0
    for a in iter_bits(bits):
        scope |= wd[a]
    elems = list(iter_bits(scope))
    out = []
    for sub in range(1, 1 << len(elems)):
        f = 0
        for k in iter_bits(sub):
            f |= 1 << elems[k]
        if is_consistent(p, f):
            out.append(f)
    return sorted(out, key=lambda b: (b.bit_count(), b))


def is_relatively_consistent(p: FinitePoset, bits: int) -> bool:
    """Whether the closed set is the closure of the directed union of the
    down-sets of its way-below consistent finite subsets.

    Directedness of the collected down-sets is checked pairwise; a collection
    that is not directed disqualifies the set outright.
    """
    if not is_scott_closed(p, bits):
        raise PosetError("relative consistency is defined for Scott closed sets")
    if bits == 0:
        return False
    downs = sorted({down_set(p, f) for f in f_c(p, bits)})
    if not downs:
        return False
    for i, d1 in enumerate(downs):
        for d2 in downs[i + 1 :]:
            union = d1 | d2
            if not any(union & ~d3 == 0 for d3 in downs):
                return False
    acc = 0
    for d in downs:
        acc |= d
    return scott_closure(p, acc) == bits



@lru_cache(maxsize=None)
def r_gamma_c(p: FinitePoset) -> SetFamily:
    """All nonempty Scott closed relatively consistent subsets."""
    return SetFamily(p, [m for m in gamma(p) if is_relatively_consistent(p, m)])
