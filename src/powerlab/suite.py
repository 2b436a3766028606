"""Executable checks for the statement catalog, swept over enumerated posets.

Every check returns a per-instance report with a PASS / FAIL / INCONCLUSIVE
verdict; failures carry a payload from which the instance can be rebuilt and
replayed.  Statements quantifying over all semilattices are only ever checked
up to a size bound, so a passing run means "no counterexample at the bound",
never a proof; the bound travels with each report.

The catalog itself is the ``STATEMENTS`` table at the end of the checks: one
row per statement with its suite aliases, its check and its bounds.
"""

from __future__ import annotations

import copy
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .enumeration import (
    DEFAULT_MAX_N,
    bruteforce_canonical_forms,
    canonical_form,
    enumerate_posets,
    enumerate_v_semilattices,
    iter_monotone_maps,
)
from .families import gamma, gamma0
from .hoare import WitnessCert, build_hc, first_refutations, r_gamma_c, refute_batch
from .poset import (
    FinitePoset,
    InvariantError,
    PosetError,
    is_consistent,
    is_sober,
    iter_bits,
    scott_closure,
    way_down_masks,
)
from .semilattice import (
    VSemilattice,
    _homomorphism_images,
    cl_f,
    gamma_f,
    is_f_scott_closed,
)


@dataclass
class Config:
    """Sweep bounds and options for a verification run."""

    max_poset_n: int = 5
    max_semilattice_n: int = 4
    suites: tuple = ("all",)
    strict: bool = False

    def __post_init__(self):
        for name in ("max_poset_n", "max_semilattice_n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise PosetError(f"{name} must be an integer, not {value!r}")
        if self.max_poset_n < 1 or self.max_semilattice_n < 1:
            raise PosetError("size caps must be at least 1")
        for name in ("max_poset_n", "max_semilattice_n"):
            value = getattr(self, name)
            if value > DEFAULT_MAX_N:
                raise PosetError(f"{name}={value} exceeds the enumeration cap {DEFAULT_MAX_N}")
        if not isinstance(self.strict, bool):
            raise PosetError(f"strict must be true or false, not {self.strict!r}")
        if not isinstance(self.suites, (list, tuple)) or not all(
            isinstance(name, str) for name in self.suites
        ):
            raise PosetError(f"suites must be a list of names, not {self.suites!r}")
        if not self.suites:
            raise PosetError("suites must name at least one statement")
        self.suites = tuple(self.suites)
        # resolve every name before expanding "all", so no name goes unchecked
        resolved = {_statement(name).id for name in self.suites if name.lower() != "all"}
        if any(name.lower() == "all" for name in self.suites):
            resolved = set(STATEMENT_ORDER)
        self.statements = tuple(s for s in STATEMENT_ORDER if s in resolved)


@dataclass
class VerificationReport:
    """Outcome of one statement check on one instance."""

    statement: str
    instance: dict
    verdict: str
    failures: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)
    wall_ms: float = 0.0


def _poset_instance(p: FinitePoset) -> dict:
    return {"poset": p.to_json(), "n": p.n, "canonical": canonical_form(p).hex()}


class _Check:
    """One check's findings on one instance, and the clock that times it.

    Each finding is a replayable payload of the statement, the bounds, the
    instance and a detail line; ``instance=`` in the extras overrides the
    check's own instance for that one payload.
    """

    def __init__(self, statement: str, bounds: dict, instance: dict | None = None):
        self.t0 = time.perf_counter()
        self.statement = statement
        self.bounds = bounds
        self.instance = instance
        self.failures = []
        self.inconclusive = []

    @classmethod
    def on_poset(cls, statement: str, p: FinitePoset, **bounds) -> _Check:
        return cls(statement, {"max_poset_n": p.n, **bounds}, _poset_instance(p))

    @classmethod
    def sweep(cls, statement: str, **bounds) -> _Check:
        return cls(statement, bounds, {"kind": "semilattice sweep", **bounds})

    def _payload(self, detail: str, extra: dict) -> dict:
        return {
            "statement": self.statement,
            "bounds": self.bounds,
            "instance": self.instance,
            "detail": detail,
            **extra,
        }

    def fail(self, detail: str, **extra) -> None:
        self.failures.append(self._payload(detail, extra))

    def doubt(self, detail: str, **extra) -> None:
        self.inconclusive.append(self._payload(detail, extra))

    def report(self) -> VerificationReport:
        verdict = "FAIL" if self.failures else ("INCONCLUSIVE" if self.inconclusive else "PASS")
        return VerificationReport(
            statement=self.statement,
            instance=self.instance,
            verdict=verdict,
            failures=self.failures,
            inconclusive=self.inconclusive,
            wall_ms=(time.perf_counter() - self.t0) * 1000.0,
        )


def _posets_upto(k: int) -> list:
    """Every poset of 1 to ``k`` elements, one per isomorphism class."""
    return [p for n in range(1, k + 1) for p in enumerate_posets(n)]


def _semilattices_upto(k: int) -> tuple:
    """Every semilattice of 1 to ``k`` elements, one per isomorphism class."""
    return tuple(l for n in range(1, k + 1) for l in enumerate_v_semilattices(n))


def _strict_pairs(p: FinitePoset) -> tuple:
    return tuple(
        (i, j) for i, row in enumerate(p.up_masks) for j in iter_bits(row & ~(1 << i))
    )


def _image_sups(l: VSemilattice, img) -> list[int]:
    """``out[a]``: the least upper bound in ``l`` of the image of subset ``a``
    of the domain under ``img``, or -1 if it has none; one entry per domain
    subset.

    One pass over the domain, by the recurrence ``out[a | bit(y)] =
    join(out[a], img[y])`` on the padded columns of ``l.sup_columns``, where
    index ``n`` marks a still empty image and -1 a set with no sup.  This is
    sound in a semilattice: for a nonempty S with sup s, sup(S ∪ {y}) exists
    exactly when join(s, y) does, and then they are equal, since an upper
    bound of S ∪ {y} bounds s and y; a nonempty S with no sup is unbounded,
    because a bounded nonempty set has a sup, and so is S ∪ {y}.  The empty
    image's sup is the bottom element, if there is one.
    """
    cols = l.sup_columns
    out = [l.n]
    for v in img:
        col = cols[v]
        out += [col[s] for s in out]
    bottom = l.sup_table[0]
    out[0] = -1 if bottom is None else bottom
    return out


def _f_closed_table(l: VSemilattice) -> list[bool]:
    """``is_f_scott_closed`` of every subset of ``l``, indexed by bitmask."""
    return [is_f_scott_closed(l, a) for a in range(1 << l.n)]


def _fibres(img, cod_n: int) -> list[int]:
    """``out[v]``: the preimage under ``img`` of element ``v`` of a codomain
    of ``cod_n`` elements.  A subset's preimage is the union of the fibres of
    its elements."""
    out = [0] * cod_n
    for i, v in enumerate(img):
        out[v] |= 1 << i
    return out


def _continuous_by_table(img, dom_closed: list, cod_n: int, cod_sets) -> bool:
    """Whether the preimage under ``img`` of each codomain set in
    ``cod_sets``, each given as a tuple of its elements, is closed, looked up
    in the domain's ``_f_closed_table``.  Each preimage is the union of the
    set's fibres, and the test stops at the first preimage that is not
    closed."""
    fibres = _fibres(img, cod_n)
    for c in cod_sets:
        pre = 0
        for v in c:
            pre |= fibres[v]
        if not dom_closed[pre]:
            return False
    return True


_NO_FINDINGS = MappingProxyType({})

# Lem3.6's bound on both semilattices of a pair, and the largest pair the map
# sweep tests it on
LEMMA_3_6_CAP = 4


@lru_cache(maxsize=None)
def _map_sweep(p: FinitePoset, l: VSemilattice) -> dict:
    """Lem2.3's, Freeness's, Lem3.8's and Lem3.6's findings on the monotone
    maps from ``p`` into ``l``, keyed by statement id, each a list of
    (detail, extras), from one pass over the maps.  A statement with no
    finding has no key, and every pair with no finding at all shares one
    empty read-only mapping, so that clean pairs cost the cache no more
    than their keys.

    Each map's ``_image_sups`` table is computed once and read four ways.
    Its entries at the powerdomain members are the map's sup-of-image
    extension, which must be defined (Lem2.3) and be the one homomorphism
    that restricts to the map (Freeness).  Its -1 entries are the subsets
    the map refutes (Lem3.8).  When ``p`` is the poset of an enumerated
    semilattice ``d``, found by structural equality so that the entry does
    not depend on which statement fills it first, a map that is a
    homomorphism of ``d`` must give every subset and its F-Scott closure the
    same sup (Lem3.6).  Lem3.6 is tested only on pairs within
    ``LEMMA_3_6_CAP``, the only ones it reads; its entry is None when ``p``
    carries no semilattice or the pair is above the cap.

    A map whose restriction group, the powerdomain homomorphisms restricting
    to it, is exactly its extension has nothing to report to Lem2.3 or
    Freeness: a homomorphism has no -1 entry, is among the homomorphisms and
    restricts to the map.  Its other tests are skipped.

    Lem3.8 compares the subsets refuted by some map with those refuted by
    the restriction of some homomorphism; a homomorphism refutes, through
    the embedding, exactly what its restriction refutes.  When every map
    that refutes a subset has a restriction group and every group's
    restriction is among the maps, both sides are the union of the same
    maps' refuted subsets and agree by construction.  Only otherwise are
    the two unions built, by streaming the maps again and evaluating each
    restriction the stream never met, so that a failure names the subsets
    that differ.  The maps are streamed; only findings are kept."""
    h = build_hc(p)
    members = h.family.members
    j_img = h.j.img
    hc_pairs = _strict_pairs(h.poset)
    homs = _homomorphism_images(h.semilattice, l)
    hom_set = set(homs)
    groups: dict = {}
    for g in homs:
        groups.setdefault(tuple([g[k] for k in j_img]), []).append(g)
    d = None
    if max(p.n, l.n) <= LEMMA_3_6_CAP:
        d = next((d for d in enumerate_v_semilattices(p.n) if d.poset == p), None)
    closures = None if d is None else gamma_f(d).closures
    # the homomorphisms of d are the maps preserving these joins, tested as
    # _homomorphism_images tests them, without filling its cache for pairs
    # that Lem3.6's bounds never reach
    triples = () if d is None else d.join_triples
    jl = l.join
    up = l.poset.up_masks
    found = {"Lem2.3": [], "Freeness": [], "Lem3.8": [], "Lem3.6": None if d is None else []}
    per_map = []  # Freeness's findings after its count line
    count = met = 0
    outsider_refutes = False  # a map with no restriction group refutes a subset

    def on_map(detail, **extra):
        return detail, {"semilattice": l.poset.to_json(), "map": list(f_img), **extra}

    for f_img in iter_monotone_maps(p, l.poset):
        count += 1
        sups = _image_sups(l, f_img)
        hom = closures is not None
        for i, j, z in triples:
            if jl[f_img[i]][f_img[j]] != f_img[z]:
                hom = False
                break
        if hom and [sups[c] for c in closures] != sups:
            for a, c in enumerate(closures):
                if sups[a] != sups[c]:
                    found["Lem3.6"].append(
                        (
                            "join-existence does not transport across the closure",
                            {
                                "dom": p.to_json(),
                                "cod": l.poset.to_json(),
                                "map": list(f_img),
                                "subset": p.subset_labels(a),
                            },
                        )
                    )
        ext = tuple([sups[m] for m in members])
        matching = groups.get(f_img, [])
        if matching:
            met += 1
            if matching == [ext]:
                continue
        elif -1 in sups:
            outsider_refutes = True
        if -1 in ext:
            for m, s in zip(members, ext):
                if s < 0:
                    detail = "member image has no least upper bound"
                    found["Lem2.3"].append(on_map(detail, member=p.subset_labels(m)))
            undefined = members[ext.index(-1)]
            per_map.append(
                on_map("extension undefined on a member", member=p.subset_labels(undefined))
            )
            continue
        # a cached homomorphism is monotone, so only an outsider is tested
        if ext not in hom_set:
            if any(not up[ext[i]] >> ext[j] & 1 for i, j in hc_pairs):
                per_map.append(on_map("extension not monotone"))
            else:
                per_map.append(on_map("extension does not preserve joins"))
        if tuple([ext[k] for k in j_img]) != f_img:
            per_map.append(on_map("extension does not restrict to the map"))
        if len(matching) != 1 or matching[0] != ext:
            per_map.append(
                on_map(
                    f"{len(matching)} powerdomain maps restrict to this map, expected "
                    "exactly the sup-of-image extension"
                )
            )
    if len(homs) != count:
        found["Freeness"].append(
            (
                f"{len(homs)} powerdomain maps vs {count} monotone maps",
                {"semilattice": l.poset.to_json()},
            )
        )
    found["Freeness"] += per_map
    if outsider_refutes or met < len(groups):
        refut_maps, refut_homs, restrictions_met = set(), set(), set()
        for f_img in iter_monotone_maps(p, l.poset):
            refuted = [a for a, s in enumerate(_image_sups(l, f_img)) if s < 0]
            refut_maps.update(refuted)
            if f_img in groups:
                restrictions_met.add(f_img)
                refut_homs.update(refuted)
        for img in groups.keys() - restrictions_met:
            refut_homs.update(a for a, s in enumerate(_image_sups(l, img)) if s < 0)
        if refut_maps != refut_homs:
            diff = refut_maps ^ refut_homs
            found["Lem3.8"].append(
                (
                    "map-refutable and embedding-refutable subsets disagree",
                    {
                        "semilattice": l.poset.to_json(),
                        "subsets": [p.subset_labels(a) for a in sorted(diff)],
                    },
                )
            )
    return {k: v for k, v in found.items() if v != []} or _NO_FINDINGS


def _swept(statement: str, p: FinitePoset, semi_bound: int) -> VerificationReport:
    """The report of the findings ``_map_sweep`` keeps for ``statement`` over
    every semilattice at the bound, copied so that no report shares an
    object with the cache."""
    ck = _Check.on_poset(statement, p, max_semilattice_n=semi_bound)
    for l in _semilattices_upto(semi_bound):
        for detail, extra in _map_sweep(p, l).get(statement, ()):
            ck.fail(detail, **copy.deepcopy(extra))
    return ck.report()


# -- per-poset checks: check(p, semi_bound) ---------------------------------------


def check_def_2_1(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """Partial-join laws of the powerdomain, run over its join table of member
    indices: commutative, associative in the Kleene sense, idempotent,
    inflationary, and equal to union when defined."""
    ck = _Check.on_poset("Def2.1", p)
    h = build_hc(p)
    members = h.family.members
    k = len(members)
    # one extra row and column of -1, so that an undefined join (-1) joins
    # with anything to -1
    t = [row + (-1,) for row in h.semilattice.join]
    t.append((-1,) * (k + 1))
    for a in range(k):
        ta = t[a]
        if ta[a] != a:
            ck.fail("join not idempotent")
        for b in range(k):
            ab, tb = ta[b], t[b]
            if ab != tb[a]:
                ck.fail("join not commutative")
            if ab != -1:
                if members[ab] != members[a] | members[b]:
                    ck.fail("join is not the union")
                if members[a] & ~members[ab]:
                    ck.fail("join not inflationary")
            left = t[ab]
            for c in range(k):
                if left[c] != ta[tb[c]]:
                    ck.fail(
                        "join not associative on "
                        f"{p.subset_labels(members[a])}, {p.subset_labels(members[b])}, "
                        f"{p.subset_labels(members[c])}"
                    )
    return ck.report()


def check_thm_2_2(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """The relatively consistent closed sets are exactly the powerdomain
    members, with the way-below relation recomputed by brute force."""
    ck = _Check.on_poset("Thm2.2", p)
    wd = way_down_masks(p)
    for x in range(p.n):
        if wd[x] != p.down_masks[x]:
            ck.fail(f"way-below of {p.labels[x]} differs from its down-set")
    rel = r_gamma_c(p)
    h = build_hc(p)
    if rel.members != h.family.members:
        ck.fail(
            "relatively consistent family differs from the powerdomain",
            relative=[p.subset_labels(m) for m in rel.members],
            powerdomain=[p.subset_labels(m) for m in h.family.members],
        )
    return ck.report()


def check_lemma_2_3(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """The image of every powerdomain member under every monotone map into
    every semilattice at the bound has a least upper bound."""
    return _swept("Lem2.3", p, semi_bound)


def check_freeness(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """Every monotone map into a semilattice extends along the point-closure
    embedding to a unique join-preserving map on the powerdomain, and the
    extension is computed by taking sups of images."""
    return _swept("Freeness", p, semi_bound)


def check_prop_3_2(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """Closure transport: a set's image and its closure's image have a least
    upper bound together (and then the same one), for every monotone map.

    The sups come from ``_image_sups``; which closed sets some map refutes
    is checked against ``first_refutations``, which reads the semilattices'
    ``sup_table`` instead, so a table that invents or drops sups fails."""
    ck = _Check.on_poset("Prop3.2", p, max_semilattice_n=semi_bound)
    subsets = range(1 << p.n)
    closures = [scott_closure(p, a) for a in subsets]
    refutable = [False] * (1 << p.n)
    for l in _semilattices_upto(semi_bound):
        for img in iter_monotone_maps(p, l.poset):
            # sup_exists_transport_check(p, l, f, a) is sups[a] == sups[closures[a]]
            sups = _image_sups(l, img)
            for a in subsets:
                if sups[a] != sups[closures[a]]:
                    ck.fail(
                        "closure transport broke",
                        semilattice=l.poset.to_json(),
                        map=list(img),
                        subset=p.subset_labels(a),
                    )
                if sups[a] < 0:
                    refutable[a] = True
    for a in subsets:
        if refutable[a] != refutable[closures[a]]:
            ck.fail(
                "a set and its closure differ in refutability at the bound",
                subset=p.subset_labels(a),
            )
    closed = gamma(p).members
    for a, cert in zip(closed, first_refutations(p, closed, _semilattices_upto(semi_bound))):
        if refutable[a] != (cert is not None):
            ck.fail(
                "the sup tables and the refutation search disagree on refutability",
                subset=p.subset_labels(a),
            )
    return ck.report()


def check_lemma_3_8(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """For each semilattice at the bound, the subsets refutable through
    monotone maps are exactly those whose embedded image is refutable through
    powerdomain homomorphisms.

    A homomorphism's restriction along the embedding is a monotone map, so
    its refutable subsets are those the map sweep found for that map; only a
    restriction the sweep never met is evaluated."""
    return _swept("Lem3.8", p, semi_bound)


def check_thm_3_9(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """Powerdomain membership versus join-existence: the generic closure adds
    nothing to the consistent family, every non-member is refuted by the
    canonical witness, and every member survives the bounded search.  All
    closed sets go to ``refute_batch`` as one batch; a non-member refuted
    by a map other than the point-closure embedding escaped the canonical
    witness."""
    ck = _Check.on_poset("Thm3.9", p, max_semilattice_n=semi_bound)
    h = build_hc(p)
    if not h.family_equals_gamma_c:
        ck.fail("closure of the consistent family added members")
    closed = gamma(p).members
    for a, cert in zip(closed, refute_batch(p, closed, semi_bound)):
        refuted = isinstance(cert, WitnessCert)
        if a in h.family:
            if refuted:
                ck.fail(
                    "powerdomain member refuted",
                    subset=p.subset_labels(a),
                    witness=cert.to_json(),
                )
        elif not refuted:
            ck.doubt("non-member survived the bounded refutation search", subset=p.subset_labels(a))
        elif cert.map is not h.j:
            ck.fail("canonical witness failed to refute a non-member", subset=p.subset_labels(a))
    return ck.report()


def check_thm_3_10(p: FinitePoset, semi_bound: int = 0) -> VerificationReport:
    """Sending a closed set to the closure of its embedded image is an order
    isomorphism between the closed-set family (with the empty set) and the
    F-Scott closure system of the powerdomain."""
    ck = _Check.on_poset("Thm3.10", p)
    h = build_hc(p)
    l = h.semilattice
    g0 = gamma0(p)
    gf = gamma_f(l)
    if len(gf.members) != len(gamma(p)) + 1:
        ck.fail(f"{len(gf.members)} closed families vs {len(gamma(p)) + 1} closed sets")
    eta = [cl_f(l, h.j.image_bits(a)) for a in g0.members]
    gf_set = set(gf.members)
    for a, image in zip(g0.members, eta):
        if image not in gf_set:
            ck.fail("image is not F-Scott closed", subset=p.subset_labels(a))
    if len(set(eta)) != len(eta):
        ck.fail("map is not injective")
    if set(eta) != gf_set:
        ck.fail("map is not surjective")
    for i, a in enumerate(g0.members):
        for k, b in enumerate(g0.members):
            if (a & ~b == 0) != (eta[i] & ~eta[k] == 0):
                ck.fail(
                    "map does not preserve and reflect inclusion",
                    pair=[p.subset_labels(a), p.subset_labels(b)],
                )
    # eta, read as an index map, must be an order isomorphism of the family posets
    index = [gf.family.index_of.get(image) for image in eta]
    src, dst = g0.poset, gf.family.poset
    if None not in index and any(
        src.leq(i, k) != dst.leq(x, y) for i, x in enumerate(index) for k, y in enumerate(index)
    ):
        ck.fail("map is not an order isomorphism of the family posets")
    return ck.report()


def check_sober(p: FinitePoset, semi_bound: int = 0) -> VerificationReport:
    """Every nonempty irreducible closed set is a point closure."""
    ck = _Check.on_poset("Sober", p)
    if not is_sober(p):
        ck.fail("poset is not sober")
    return ck.report()


# -- global checks: check(**bounds) -----------------------------------------------


def check_prop_3_4(pair_bound: int, consistent_bound: int) -> VerificationReport:
    """Part 1: a map between semilattices preserves consistent joins exactly
    when preimages of F-Scott closed sets are F-Scott closed.  A monotone
    map is a homomorphism when it is among ``_homomorphism_images`` of the
    pair.  It is continuous when the preimage of every meet-irreducible
    closed set of the codomain is closed in the domain's
    ``_f_closed_table``: every closed set is the intersection of the
    irreducibles containing it (the full set being the empty intersection),
    the preimage of an intersection is the intersection of the preimages,
    and the domain's closed sets are closed under intersection, so then
    every closed set's preimage is closed.  Part 2: the F-Scott closure of a
    consistent set is the down-set of its join."""
    ck = _Check.sweep("Prop3.4", pair_bound=pair_bound, consistent_bound=consistent_bound)
    pool = _semilattices_upto(pair_bound)
    irreducibles = [
        [tuple(iter_bits(c)) for c in gamma_f(m).meet_irreducibles()] for m in pool
    ]
    for l in pool:
        l_closed = _f_closed_table(l)
        for m, m_irreducibles in zip(pool, irreducibles):
            homs = set(_homomorphism_images(l, m))
            for img in iter_monotone_maps(l.poset, m.poset):
                # is_homomorphism and is_f_scott_continuous, by lookup
                hom = img in homs
                cont = _continuous_by_table(img, l_closed, m.n, m_irreducibles)
                if hom != cont:
                    ck.fail(
                        f"homomorphism={hom} but continuity={cont}",
                        dom=l.poset.to_json(),
                        cod=m.poset.to_json(),
                        map=list(img),
                    )
    for l in _semilattices_upto(consistent_bound):
        for a in range(1, 1 << l.n):
            if not is_consistent(l.poset, a):
                continue
            s = l.sup_of_bits(a)
            if s is None or cl_f(l, a) != l.poset.down_masks[s]:
                ck.fail(
                    "closure of a consistent set is not the down-set of its join",
                    semilattice=l.poset.to_json(),
                    subset=l.poset.subset_labels(a),
                )
    return ck.report()


def check_lemma_3_6(l_bound: int, m_bound: int) -> VerificationReport:
    """A subset and its F-Scott closure are refuted by exactly the same
    homomorphisms, so join-existence transports across the closure.

    A homomorphism from ``l`` into ``m`` is a monotone map from ``l.poset``,
    so ``_map_sweep(l.poset, m)`` tests it on the sup table it builds for
    Lem2.3, Freeness and Lem3.8, and this check reads its findings.  A sweep
    that found no semilattice on ``l.poset`` tested nothing, and neither
    does one of a pair above ``LEMMA_3_6_CAP``; reading either is an error
    rather than a pass."""
    ck = _Check.sweep("Lem3.6", l_bound=l_bound, m_bound=m_bound)
    for l in _semilattices_upto(l_bound):
        for m in _semilattices_upto(m_bound):
            if max(l.n, m.n) > LEMMA_3_6_CAP:
                raise InvariantError(f"Lem3.6 is not swept above size {LEMMA_3_6_CAP}")
            found = _map_sweep(l.poset, m).get("Lem3.6", ())
            if found is None:
                raise InvariantError(f"the map sweep found no semilattice on {l.poset.to_json()}")
            for detail, extra in found:
                ck.fail(detail, **copy.deepcopy(extra))
    return ck.report()


def check_lemma_3_7(semi_bound: int, hc_base_bound: int) -> VerificationReport:
    """A nonempty F-Scott closed set whose join exists is a principal down-set.

    The empty set is excluded: its join being a bottom element never makes it
    principal, and it is never join-existing once bottomless codomains exist.
    """
    ck = _Check.sweep("Lem3.7", semi_bound=semi_bound, hc_base_bound=hc_base_bound)
    lattices = list(_semilattices_upto(semi_bound))
    lattices += [build_hc(p).semilattice for p in _posets_upto(hc_base_bound)]
    for l in lattices:
        for a in gamma_f(l).members:
            if a == 0:
                continue
            s = l.sup_of_bits(a)
            if s is not None and a != l.poset.down_masks[s]:
                ck.fail(
                    "closed set with a join is not a principal down-set",
                    semilattice=l.poset.to_json(),
                    subset=l.poset.subset_labels(a),
                )
    return ck.report()


def check_cor_3_11(max_poset_n: int) -> VerificationReport:
    """Powerdomains are isomorphic exactly when the posets are, over every
    pair of instances at the cap; sobriety of each instance is verified first."""
    ck = _Check("Cor3.11", {"max_poset_n": max_poset_n})
    posets = _posets_upto(max_poset_n)
    for p in posets:
        if not is_sober(p):
            ck.fail("instance is not sober", instance=_poset_instance(p))
    forms = [canonical_form(p) for p in posets]
    hforms = [canonical_form(build_hc(p).poset) for p in posets]
    pairs = 0
    for i in range(len(posets)):
        for k in range(i, len(posets)):
            pairs += 1
            if (forms[i] == forms[k]) != (hforms[i] == hforms[k]):
                ck.fail(
                    "powerdomain isomorphism disagrees with poset isomorphism",
                    instance={"pair": [posets[i].to_json(), posets[k].to_json()]},
                )
    ck.instance = {"kind": "pair sweep", "pairs": pairs, **ck.bounds}
    return ck.report()


def check_enum(max_poset_n: int) -> VerificationReport:
    """Enumeration self-test: the generated posets match the brute-force
    oracle exactly, class by class, for every size up to the cap."""
    ck = _Check("Enum", {"max_poset_n": max_poset_n})
    counts = {}
    for n in range(1, max_poset_n + 1):
        emitted = enumerate_posets(n)
        forms = [canonical_form(p) for p in emitted]
        if len(set(forms)) != len(forms):
            ck.fail("duplicate isomorphism class emitted", instance={"n": n})
        oracle = bruteforce_canonical_forms(n)
        if set(forms) != oracle:
            ck.fail(
                f"emitted {len(forms)} classes, oracle found {len(oracle)}",
                instance={"n": n},
            )
        counts[n] = len(forms)
    ck.instance = {"kind": "enumeration", "counts": counts, **ck.bounds}
    return ck.report()


# -- registry and orchestration ------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """One catalog row.  ``bounds(config)`` gives the bound a run reports for
    the statement; a global check is called as ``check(**bounds)``, a
    per-poset check as ``check(p, max_semilattice_n)`` on every poset up to
    ``max_poset_n``.  A check reads nothing but its arguments, so its verdict
    depends only on the instance and the bounds."""

    id: str
    aliases: tuple
    check: Callable
    bounds: Callable
    per_poset: bool = False


def _per_poset(cap: int | None = None) -> Callable:
    """Bounds of a per-poset statement: posets up to ``cap`` and the config's."""

    def bounds(config: Config) -> dict:
        n = config.max_poset_n if cap is None else min(cap, config.max_poset_n)
        return {"max_poset_n": n, "max_semilattice_n": config.max_semilattice_n}

    return bounds


STATEMENTS = (
    Statement("Def2.1", (), check_def_2_1, _per_poset(), True),
    Statement("Thm2.2", ("rgamma",), check_thm_2_2, _per_poset(), True),
    Statement("Lem2.3", ("lemma2.3",), check_lemma_2_3, _per_poset(4), True),
    Statement("Freeness", ("thm2.4",), check_freeness, _per_poset(4), True),
    Statement("Prop3.2", (), check_prop_3_2, _per_poset(3), True),
    Statement(
        "Prop3.4",
        (),
        check_prop_3_4,
        lambda c: {"pair_bound": min(4, c.max_semilattice_n), "consistent_bound": 5},
    ),
    Statement(
        "Lem3.6",
        ("lemma3.6",),
        check_lemma_3_6,
        lambda c: dict.fromkeys(("l_bound", "m_bound"), min(LEMMA_3_6_CAP, c.max_semilattice_n)),
    ),
    Statement(
        "Lem3.7",
        ("lemma3.7",),
        check_lemma_3_7,
        lambda c: {"semi_bound": 5, "hc_base_bound": min(4, c.max_poset_n)},
    ),
    Statement("Lem3.8", ("lemma3.8",), check_lemma_3_8, _per_poset(4), True),
    Statement("Thm3.9", (), check_thm_3_9, _per_poset(), True),
    Statement("Thm3.10", (), check_thm_3_10, _per_poset(), True),
    Statement("Cor3.11", (), check_cor_3_11, lambda c: {"max_poset_n": min(4, c.max_poset_n)}),
    Statement("Sober", (), check_sober, _per_poset(), True),
    Statement("Enum", (), check_enum, lambda c: {"max_poset_n": c.max_poset_n}),
)

STATEMENT_ORDER = tuple(s.id for s in STATEMENTS)

# every name --suite accepts, lowercase: each id and its extra aliases
_BY_NAME = {name: s for s in STATEMENTS for name in (s.id.lower(), *s.aliases)}


def _statement(name: str) -> Statement:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise PosetError(f"unknown suite name {name!r}") from None


def run_statement(statement: str, config: Config) -> list[VerificationReport]:
    """All instance reports for one statement at the configured bounds."""
    st = _statement(statement)
    bound = st.bounds(config)
    if not st.per_poset:
        return [st.check(**bound)]
    semi_bound = bound["max_semilattice_n"]
    return [st.check(p, semi_bound) for p in _posets_upto(bound["max_poset_n"])]


@dataclass
class Summary:
    """Grouped result of a verification run."""

    config: Config
    groups: list

    @property
    def any_fail(self) -> bool:
        return any(g["failures"] for g in self.groups)

    @property
    def any_inconclusive(self) -> bool:
        return any(g["inconclusive"] for g in self.groups)

    def exit_code(self) -> int:
        return exit_code_for(self.any_fail, self.any_inconclusive, self.config.strict)

    def to_json(self) -> dict:
        return {
            "config": {
                "max_poset_n": self.config.max_poset_n,
                "max_semilattice_n": self.config.max_semilattice_n,
                "suites": list(self.config.statements),
                # kept because bench/reference.json and the pinned report digest hash it
                "jobs": 1,
                "strict": self.config.strict,
            },
            "statements": self.groups,
            "all_pass": not self.any_fail and not self.any_inconclusive,
        }


def exit_code_for(any_fail: bool, any_inconclusive: bool, strict: bool) -> int:
    if any_fail:
        return 1
    if any_inconclusive and strict:
        return 3
    return 0


def run_all(config: Config | None = None) -> Summary:
    """Run every enabled statement at its configured bound and group reports."""
    config = config or Config()
    groups = []
    for statement in config.statements:
        t0 = time.perf_counter()
        reports = run_statement(statement, config)
        groups.append(
            {
                "statement": statement,
                "bound": _statement(statement).bounds(config),
                "instances": len(reports),
                "failures": [f for r in reports for f in r.failures],
                "inconclusive": [x for r in reports for x in r.inconclusive],
                "wall_ms": (time.perf_counter() - t0) * 1000.0,
            }
        )
    return Summary(config, groups)


def replay_failure(payload: dict) -> str:
    """Re-run the instance a failure payload came from and return the verdict.

    Payloads carry the statement, the bounds it ran at, and the instance
    descriptor, which is all the replay needs: a per-poset check runs on the
    payload's poset, a global check on the payload's bounds.
    """
    st = _statement(payload["statement"])
    bounds = payload["bounds"]
    if st.per_poset:
        p = FinitePoset.from_json(payload["instance"]["poset"])
        return st.check(p, bounds.get("max_semilattice_n", 4)).verdict
    return st.check(**bounds).verdict
