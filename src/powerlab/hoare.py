"""The consistent Hoare powerdomain of a finite poset.

The powerdomain is computed as the closure, inside the inclusion order on all
nonempty Scott closed sets, of the consistent ones.  Membership can also be
characterized by join-existence of images under monotone maps into partial
join semilattices: ``refute_v_existing`` tries the canonical witness on one
set and hands a set it leaves standing to the bounded search,
``first_refutation``, which only searches a set with no upper bound; its
docstring gives the argument.  Relative consistency (Thm 2.2) is decided by
``r_gamma_c`` with one consistency test per closed set; its docstring proves
that collapse of the literal definition, ``is_relatively_consistent``."""

from __future__ import annotations

from functools import lru_cache

from .enumeration import DEFAULT_MAX_N, enumerate_v_semilattices
from .families import SetFamily, closure_in_family, gamma
from .poset import (
    FinitePoset,
    InvariantError,
    PosetError,
    PosetMap,
    down_set,
    is_consistent,
    is_lower_set,
    iter_bits,
    iter_monotone_maps,
    scott_closure,
    way_down_masks,
)
from .semilattice import VSemilattice


def gamma_c(p: FinitePoset) -> SetFamily:
    """The nonempty consistent Scott closed subsets of ``p``."""
    return SetFamily(p, [m for m in gamma(p) if is_consistent(p, m)])


class ConsistentHoare:
    """The consistent Hoare powerdomain with its embedding of the base poset.

    ``family`` collects the member sets, ``poset`` is their inclusion order,
    ``semilattice`` equips that order with the consistent-pair join (always
    union), and ``j`` sends a point to its down-set.
    """

    def __init__(
        self,
        base: FinitePoset,
        family: SetFamily,
        poset: FinitePoset,
        semilattice: VSemilattice,
        j: PosetMap,
        family_equals_gamma_c: bool,
    ):
        self.base, self.family, self.poset = base, family, poset
        self.semilattice, self.j, self.family_equals_gamma_c = semilattice, j, family_equals_gamma_c


@lru_cache(maxsize=None)
def build_hc(p: FinitePoset) -> ConsistentHoare:
    """Close the consistent family inside the full Scott closed family and
    verify every structural invariant of the result.

    A member is tested as a nonempty lower set: on a finite poset the lower
    sets are the Scott closed sets (see ``scott_closure``).  The join of two
    members is their union when that is a member, and undefined otherwise;
    ``VSemilattice`` validates the table, so a union that is not the least
    upper bound of a consistent pair is an error."""
    if p.n == 0:
        raise PosetError("powerdomain construction needs a nonempty poset")
    closed = gamma(p)
    consistent = tuple(m for m in closed if is_consistent(p, m))
    family = closure_in_family(closed, consistent)
    equals = family.members == consistent
    fp = family.poset
    members, index_of = family.members, family.index_of
    if any(m == 0 or not is_lower_set(p, m) for m in members):
        raise InvariantError("powerdomain member is not a nonempty Scott closed set")
    j_img = []
    for x in range(p.n):
        idx = index_of.get(p.down_masks[x])
        if idx is None:
            raise InvariantError("point closure missing from the powerdomain")
        j_img.append(idx)
    j = PosetMap(p, fp, tuple(j_img))
    for x in range(p.n):
        for y in range(p.n):
            if p.leq(x, y) != fp.leq(j_img[x], j_img[y]):
                raise InvariantError("point-closure embedding does not reflect the order")
    join = [[index_of.get(a | b, -1) for b in members] for a in members]
    try:
        semilattice = VSemilattice(fp, join)
    except PosetError as e:
        raise InvariantError(f"powerdomain union table is not its consistent join: {e}") from None
    return ConsistentHoare(p, family, fp, semilattice, j, equals)


def partial_join(h: ConsistentHoare, a_bits: int, b_bits: int):
    """Least upper bound of two members when they are consistent, else None:
    their union, which ``build_hc`` puts in the join table exactly when it
    is a member."""
    ia = h.family.index_of.get(a_bits)
    ib = h.family.index_of.get(b_bits)
    if ia is None or ib is None:
        raise PosetError("partial_join arguments must be powerdomain members")
    v = h.semilattice.join[ia][ib]
    if v == -1:
        return None
    return h.family.members[v]


# -- join-existence certificates ----------------------------------------------


class WitnessCert:
    """Verdict on whether the image of a subset has a least upper bound.

    Recomputable from (semilattice, map, subset); ``value`` is the codomain
    index of the bound when the verdict is SUP_EXISTS.
    """

    def __init__(
        self, semilattice: VSemilattice, map: PosetMap, subset: int, verdict: str, value: int | None
    ):
        self.semilattice, self.map, self.subset = semilattice, map, subset
        self.verdict, self.value = verdict, value

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


class NoWitnessFound:
    """Refutation search exhausted its bound; evidence of membership, not proof."""

    def __init__(self, max_size: int):
        self.max_size = max_size

    def to_json(self) -> dict:
        return {"verdict": "NOT_FOUND", "searched_max_size": self.max_size}


def sup_of_image(l: VSemilattice, f: PosetMap, bits: int) -> WitnessCert:
    """Decide whether the image of ``bits`` under ``f`` has a least upper
    bound; a set outside the domain or a map unfit for ``l`` is a ``PosetError``."""
    if bits < 0 or bits >> f.dom.n:
        raise PosetError(f"{bits} is not a subset of the map's domain")
    if not isinstance(l, VSemilattice):
        l = VSemilattice.from_poset(l)
        if l is None:
            raise PosetError("codomain is not a consistent-join semilattice")
    if f.cod != l.poset:
        raise PosetError("map codomain does not match the semilattice")
    if not f.is_monotone():
        raise PosetError("sup_of_image requires a monotone map")
    return _image_cert(l, f, bits)


def _image_cert(l: VSemilattice, f: PosetMap, bits: int) -> WitnessCert:
    """``sup_of_image`` for a subset of the domain of a monotone map into ``l``."""
    s = l.sup_of_bits(f.image_bits(bits))
    if s is None:
        return WitnessCert(l, f, bits, "NO_SUP", None)
    return WitnessCert(l, f, bits, "SUP_EXISTS", s)


def refute_v_existing(p: FinitePoset, bits: int, max_size: int = 4):
    """Look for a monotone map into a semilattice under which the image of the
    set has no least upper bound.

    The powerdomain with its point-closure embedding is tried first: for a
    non-consistent closed set it always refutes, because any member bounding
    the embedded image would be a consistent superset.  Failing that,
    ``first_refutation`` searches every semilattice of 1 to ``max_size``
    elements and every monotone map in canonical order; exhaustion is
    reported with the bound.  A bound that is a bool or not an integer in 1
    to ``DEFAULT_MAX_N``, or a set that is not a nonempty Scott closed
    subset of the poset, is refused before any search.  The result depends
    only on the poset, the set and the bound.
    """
    if isinstance(max_size, bool) or not isinstance(max_size, int):
        raise PosetError(f"semilattice bound must be an integer, not {max_size!r}")
    if max_size < 1:
        raise PosetError(f"refutation needs a semilattice bound of at least 1, not {max_size}")
    if max_size > DEFAULT_MAX_N:
        raise PosetError(f"semilattice bound {max_size} exceeds the enumeration cap {DEFAULT_MAX_N}")
    if bits <= 0 or bits >> p.n or not is_lower_set(p, bits):
        raise PosetError("refutation is defined for nonempty Scott closed subsets of the poset")
    # build_hc proves that h.j preserves and reflects the order into its semilattice
    h = build_hc(p)
    cert = _image_cert(h.semilattice, h.j, bits)
    if cert.verdict == "NO_SUP":
        return cert
    # lazily, so a set refuted early never enumerates the larger sizes
    semilattices = (l for n in range(1, max_size + 1) for l in enumerate_v_semilattices(n))
    return first_refutation(p, bits, semilattices) or NoWitnessFound(max_size)


def first_refutation(p: FinitePoset, bits: int, semilattices) -> WitnessCert | None:
    """The first (semilattice, monotone map) in canonical order under which
    the image of the nonempty subset ``bits`` has no least upper bound, as a
    ``WitnessCert``, or None when no map into ``semilattices`` refutes it;
    any other set is a ``PosetError``.

    Canonical order walks ``semilattices`` in the order given and, for each,
    the maps of ``iter_monotone_maps``, streamed rather than cached.  A set
    with an upper bound in ``p`` is never refuted, so it returns None before
    any semilattice is read.  In a semilattice a nonempty finite set with an
    upper bound u has a sup: join it pairwise, each partial join being
    defined because its pair lies below u, and staying below u.  A monotone
    map f sends a set bounded by u to one bounded by f(u), whose sup exists.
    This premise is checked, not assumed: in every semilattice the search
    reads, each nonempty subset with a nonzero ``bound_masks`` entry must
    have a ``sup_table`` entry, or ``InvariantError`` is raised.
    """
    if bits <= 0 or bits >> p.n:
        raise PosetError("the refutation search is defined for nonempty subsets of the poset")
    if is_consistent(p, bits):
        return None
    elems = list(iter_bits(bits))
    for l in semilattices:
        sup = l.sup_table
        # the premise: every nonempty subset with a common upper bound has a sup
        if any(s is None and ub for s, ub in zip(sup[1:], l.bound_masks[1:])):
            raise InvariantError(f"{l!r} has a bounded subset with no sup in its sup_table")
        for img in iter_monotone_maps(p, l.poset):
            image = 0
            for x in elems:
                image |= 1 << img[x]
            if sup[image] is None:
                return WitnessCert(l, PosetMap(p, l.poset, img), bits, "NO_SUP", None)
    return None


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

    The literal definition, and the oracle of ``r_gamma_c``: the down-sets
    must form a nonempty family, directed under inclusion as tested pairwise
    (some member contains the union of each pair; a union that is itself a
    member needs no scan), and the Scott closure of its union must be the set.
    """
    if not is_lower_set(p, bits):
        raise PosetError("relative consistency is defined for Scott closed sets")
    downs = {down_set(p, f) for f in f_c(p, bits)}
    if not downs:
        return False
    ordered = sorted(downs)
    for i, d1 in enumerate(ordered):
        for d2 in ordered[i + 1 :]:
            union = d1 | d2
            if union not in downs and not any(union & ~d3 == 0 for d3 in ordered):
                return False
    acc = 0
    for d in ordered:
        acc |= d
    return scott_closure(p, acc) == bits


def r_gamma_c(p: FinitePoset) -> SetFamily:
    """All nonempty Scott closed relatively consistent subsets.

    A closed set m is a member exactly when its scope, the union of its
    elements' ``way_down_masks`` entries, is consistent with down-set m.
    The argument holds for any way-below table.  Let D be the down-sets of
    the nonempty consistent subsets of the scope, ``f_c(m)``:
    - singletons are consistent, so the union of D is ↓scope;
    - a finite family is directed exactly when it contains its union, so D
      is directed exactly when ↓scope = ↓F for a consistent F ⊆ scope;
    - that holds exactly when the scope is consistent: take F = scope, and
      an upper bound of F bounds ↓F ⊇ scope (an empty scope fails ↓scope = m);
    - the Scott closure of ↓scope is ↓scope, which must equal m.
    ``is_relatively_consistent`` runs the definition literally: the oracle."""
    wd = way_down_masks(p)
    out = []
    for m in gamma(p):
        scope = 0
        for a in iter_bits(m):
            scope |= wd[a]
        if is_consistent(p, scope) and down_set(p, scope) == m:
            out.append(m)
    return SetFamily(p, out)
