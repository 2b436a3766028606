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
from operator import itemgetter

from .enumeration import (
    DEFAULT_MAX_N,
    POSET_COUNTS,
    bruteforce_canonical_forms,
    canonical_form,
    enumerate_posets,
    enumerate_v_semilattices,
)
from .families import gamma, gamma0
from .hoare import WitnessCert, build_hc, first_refutation, r_gamma_c, refute_v_existing
from .poset import (
    DIRECTED_SUBSET_CAP,
    FinitePoset,
    InvariantError,
    PosetError,
    PosetMap,
    is_consistent,
    is_sober,
    iter_bits,
    iter_monotone_maps,
    scott_closure,
    way_down_masks,
)
from .semilattice import (
    NO_SUP,
    _homomorphism_images,
    _image_sups,
    _member_sups,
    cl_f,
    gamma_f,
    iter_homomorphisms,
    meet_irreducibles,
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


def _poset_instance(p: FinitePoset) -> dict:
    return {"poset": p.to_json(), "n": p.n, "canonical": canonical_form(p).hex()}


@dataclass
class VerificationReport:
    """One check's findings on one instance; the verdict is read off them.
    Each finding is a replayable payload of the statement, the bounds, the
    instance and a detail line; ``instance=`` in the extras overrides the
    report's own instance for that one payload."""

    statement: str
    bounds: dict
    instance: dict | None = None
    failures: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)

    @classmethod
    def on_poset(cls, statement: str, p: FinitePoset, **bounds) -> VerificationReport:
        return cls(statement, {"max_poset_n": p.n, **bounds}, _poset_instance(p))

    @classmethod
    def sweep(cls, statement: str, **bounds) -> VerificationReport:
        return cls(statement, bounds, {"kind": "semilattice sweep", **bounds})

    @property
    def verdict(self) -> str:
        return "FAIL" if self.failures else ("INCONCLUSIVE" if self.inconclusive else "PASS")

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


def _posets_upto(k: int) -> list:
    """Every poset of 1 to ``k`` elements, one per isomorphism class; a list
    off the A000112 total raises ``InvariantError`` instead of a short sweep."""
    posets = [p for n in range(1, k + 1) for p in enumerate_posets(n)]
    expected = sum(POSET_COUNTS[n] for n in range(1, k + 1))
    if len(posets) != expected:
        raise InvariantError(f"{len(posets)} posets of 1 to {k} elements, A000112 has {expected}")
    return posets


def _semilattices_upto(k: int) -> tuple:
    """Every semilattice of 1 to ``k`` elements, one per isomorphism class."""
    return tuple(l for n in range(1, k + 1) for l in enumerate_v_semilattices(n))


def _membership_table(bits: int) -> bytes:
    """A ``bytes.translate`` table sending each element index to ``b"1"`` if
    it is in ``bits`` and to ``b"0"`` otherwise.  It translates a map's image
    string ``bytes(img)`` into the membership string of the preimage of
    ``bits``, and ``bytes(range(n))`` into that of ``bits`` itself."""
    return bytes(b"01"[bits >> v & 1] for v in range(256))


@lru_cache(maxsize=None)
def _map_sweep(p: FinitePoset, semi_bound: int) -> dict:
    """Lem2.3's, Freeness's and Lem3.8's findings on the monotone maps from
    ``p`` into every semilattice at the bound, keyed by statement id, each a
    list of (detail, extras), from one pass over the maps.  Per semilattice,
    in ``_semilattices_upto`` order, Freeness reports its count line before
    its per-map findings.

    The homomorphisms from the powerdomain are streamed once per
    semilattice, counted and grouped by their restriction along the
    embedding.  Each map's sup-of-image extension is evaluated only at the
    powerdomain members, by ``_member_sups`` over each member's maximal
    elements.  It must be defined (Lem2.3) and be the one homomorphism that
    restricts to the map (Freeness).  A map whose restriction group is
    exactly its extension has nothing to report to Lem2.3 or Freeness: a
    homomorphism is defined everywhere, is a homomorphism and restricts to
    the map.  Its other tests are skipped, and an extension is a
    homomorphism exactly when it is in the group of its own restriction.

    Lem3.8 compares the subsets refuted by some map with those refuted by
    the restriction of some homomorphism; a homomorphism refutes, through
    the embedding, exactly what its restriction refutes.  When Freeness
    finds nothing on a semilattice, restriction is a bijection from the
    homomorphisms onto the maps and the extension is its inverse, so both
    sides are the union of the same maps' refuted subsets and agree by
    construction.  Only when Freeness has a finding are the two unions
    built, from the full ``_image_sups`` table of each map and of each
    restriction, so that a failure names the subsets that differ.  The maps
    are streamed; only findings are kept."""
    h = build_hc(p)
    members = h.family.members
    up = p.up_masks
    maximal = ([x for x in iter_bits(m) if up[x] & m == 1 << x] for m in members)
    maxima = [(xs[0], tuple(xs[1:])) for xs in maximal]
    j_img = h.j.img
    # the restriction along the embedding, as a tuple even for one point
    restrict = itemgetter(*j_img) if p.n > 1 else lambda g: (g[j_img[0]],)
    found = {"Lem2.3": [], "Freeness": [], "Lem3.8": []}

    def on_map(detail, **extra):
        return detail, {"semilattice": l.poset.to_json(), "map": list(f_img), **extra}

    for l in _semilattices_upto(semi_bound):
        groups: dict = {}
        homs = 0
        for g in iter_homomorphisms(h.semilattice, l):
            groups.setdefault(restrict(g), []).append(g)
            homs += 1
        per_map = []  # Freeness's findings after its count line
        count = 0
        for f_img in iter_monotone_maps(p, l.poset):
            count += 1
            ext = _member_sups(l, f_img, maxima)
            matching = groups.get(f_img, [])
            if matching == [ext]:
                continue
            if NO_SUP in ext:
                for m, s in zip(members, ext):
                    if s == NO_SUP:
                        detail = "member image has no least upper bound"
                        found["Lem2.3"].append(on_map(detail, member=p.subset_labels(m)))
                undefined = members[ext.index(NO_SUP)]
                per_map.append(
                    on_map("extension undefined on a member", member=p.subset_labels(undefined))
                )
                continue
            # a streamed homomorphism is monotone, so only an outsider is tested
            if ext not in groups.get(restrict(ext), ()):
                if not PosetMap(h.poset, l.poset, ext).is_monotone():
                    per_map.append(on_map("extension not monotone"))
                else:
                    per_map.append(on_map("extension does not preserve joins"))
            if restrict(ext) != f_img:
                per_map.append(on_map("extension does not restrict to the map"))
            if len(matching) != 1 or matching[0] != ext:
                per_map.append(
                    on_map(
                        f"{len(matching)} powerdomain maps restrict to this map, expected "
                        "exactly the sup-of-image extension"
                    )
                )
        if homs != count:
            detail = f"{homs} powerdomain maps vs {count} monotone maps"
            per_map.insert(0, (detail, {"semilattice": l.poset.to_json()}))
        if not per_map:
            continue
        found["Freeness"] += per_map
        refut_maps, refut_homs = (
            {a for img in images for a, s in enumerate(_image_sups(l, img)) if s == NO_SUP}
            for images in (iter_monotone_maps(p, l.poset), groups)
        )
        if refut_maps != refut_homs:
            detail = "map-refutable and embedding-refutable subsets disagree"
            subsets = [p.subset_labels(a) for a in sorted(refut_maps ^ refut_homs)]
            found["Lem3.8"].append((detail, {"semilattice": l.poset.to_json(), "subsets": subsets}))
    return found


def _swept(statement: str, p: FinitePoset, semi_bound: int) -> VerificationReport:
    """The report of the findings ``_map_sweep`` keeps for ``statement``,
    copied so that no report shares an object with the cache."""
    ck = VerificationReport.on_poset(statement, p, max_semilattice_n=semi_bound)
    for detail, extra in _map_sweep(p, semi_bound)[statement]:
        ck.fail(detail, **copy.deepcopy(extra))
    return ck


# -- per-poset checks: check(p, semi_bound) ---------------------------------------


def check_def_2_1(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """Partial-join laws of the powerdomain: ``build_hc`` returns, so
    ``VSemilattice`` has validated its table of member unions as the
    consistent join, hence idempotent, commutative, inflationary and
    Kleene-associative; ``_run_check`` reports its ``InvariantError``."""
    build_hc(p)
    return VerificationReport.on_poset("Def2.1", p)


def check_thm_2_2(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """The relatively consistent closed sets are exactly the powerdomain
    members, with the way-below relation recomputed by brute force."""
    ck = VerificationReport.on_poset("Thm2.2", p)
    if p.n > DIRECTED_SUBSET_CAP:
        ck.doubt(f"way-below is brute-forced only up to {DIRECTED_SUBSET_CAP} elements")
        return ck
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
    return ck


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
    is checked, one closed set at a time, against ``first_refutation``,
    which reads the semilattices' ``sup_table`` instead, so a table that
    invents or drops sups fails.  When every table agrees at a set and its
    closure, so does refutability, which therefore has no test of its own."""
    ck = VerificationReport.on_poset("Prop3.2", p, max_semilattice_n=semi_bound)
    subsets = range(1 << p.n)
    closures = [scott_closure(p, a) for a in subsets]
    refutable = [False] * (1 << p.n)
    pool = _semilattices_upto(semi_bound)
    for l in pool:
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
                if sups[a] == NO_SUP:
                    refutable[a] = True
    for a in gamma(p).members:
        if refutable[a] != (first_refutation(p, a, pool) is not None):
            ck.fail(
                "the sup tables and the refutation search disagree on refutability",
                subset=p.subset_labels(a),
            )
    return ck


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
    canonical witness, and every member survives the bounded search.  Each
    closed set goes to ``refute_v_existing`` on its own; a non-member refuted
    by a map other than the point-closure embedding escaped the canonical
    witness."""
    ck = VerificationReport.on_poset("Thm3.9", p, max_semilattice_n=semi_bound)
    h = build_hc(p)
    if not h.family_equals_gamma_c:
        ck.fail("closure of the consistent family added members")
    for a in gamma(p).members:
        cert = refute_v_existing(p, a, semi_bound)
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
    return ck


def check_thm_3_10(p: FinitePoset, semi_bound: int = 0) -> VerificationReport:
    """Sending a closed set to the closure of its embedded image is an order
    isomorphism between the closed-set family (with the empty set) and the
    F-Scott closure system of the powerdomain.  Both families are ordered by
    inclusion, so the order test is that the map preserves and reflects
    inclusion.  Reflecting inclusion makes the map injective, and a closed
    image, surjectivity and injectivity make the families equally large
    (``gamma0`` is ``gamma`` plus the empty set, from one ``_ideals``
    list), so neither injectivity nor the count has a test of its own."""
    ck = VerificationReport.on_poset("Thm3.10", p)
    h = build_hc(p)
    l = h.semilattice
    g0 = gamma0(p)
    eta = [cl_f(l, h.j.image_bits(a)) for a in g0.members]
    gf_set = set(gamma_f(l).members)
    for a, image in zip(g0.members, eta):
        if image not in gf_set:
            ck.fail("image is not F-Scott closed", subset=p.subset_labels(a))
    if set(eta) != gf_set:
        ck.fail("map is not surjective")
    for i, a in enumerate(g0.members):
        for k, b in enumerate(g0.members):
            if (a & ~b == 0) != (eta[i] & ~eta[k] == 0):
                ck.fail(
                    "map does not preserve and reflect inclusion",
                    pair=[p.subset_labels(a), p.subset_labels(b)],
                )
    return ck


def check_sober(p: FinitePoset, semi_bound: int = 0) -> VerificationReport:
    """Every nonempty irreducible closed set is a point closure."""
    ck = VerificationReport.on_poset("Sober", p)
    if not is_sober(p):
        ck.fail("poset is not sober")
    return ck


# -- global checks: check(**bounds) -----------------------------------------------


def check_prop_3_4(pair_bound: int, consistent_bound: int) -> VerificationReport:
    """Part 1: a map between semilattices preserves consistent joins exactly
    when preimages of F-Scott closed sets are F-Scott closed.  A monotone
    map is a homomorphism when it is among ``_homomorphism_images`` of the
    pair.  It is continuous when the preimage of every meet-irreducible
    closed set of the codomain is closed: every closed set is the
    intersection of the irreducibles containing it (the full set being the
    empty intersection), the preimage of an intersection is the intersection
    of the preimages, and the domain's closed sets are closed under
    intersection, so then every closed set's preimage is closed.  Each
    preimage is ``bytes(img)`` translated by the irreducible's
    ``_membership_table``, looked up among the membership strings of the
    domain's ``gamma_f``.  Part 2: the F-Scott closure of a consistent set is
    the down-set of its join."""
    ck = VerificationReport.sweep(
        "Prop3.4", pair_bound=pair_bound, consistent_bound=consistent_bound
    )
    pool = _semilattices_upto(pair_bound)
    irreducibles = [[_membership_table(c) for c in meet_irreducibles(gamma_f(m))] for m in pool]
    for l in pool:
        elements = bytes(range(l.n))
        l_closed = {elements.translate(_membership_table(a)) for a in gamma_f(l).members}
        for m, m_irreducibles in zip(pool, irreducibles):
            homs = set(_homomorphism_images(l, m))
            for img in iter_monotone_maps(l.poset, m.poset):
                # is_homomorphism and is_f_scott_continuous, by lookup
                hom = img in homs
                cont = l_closed.issuperset(map(bytes(img).translate, m_irreducibles))
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
    return ck


def check_lemma_3_6(l_bound: int, m_bound: int) -> VerificationReport:
    """A subset and its F-Scott closure are refuted by exactly the same
    homomorphisms, so join-existence transports across the closure: each
    homomorphism's ``_image_sups`` table must agree at every subset and at
    that subset's ``cl_f`` closure."""
    ck = VerificationReport.sweep("Lem3.6", l_bound=l_bound, m_bound=m_bound)
    for l in _semilattices_upto(l_bound):
        closures = [cl_f(l, a) for a in range(1 << l.n)]
        at_closures = itemgetter(*closures)
        for m in _semilattices_upto(m_bound):
            for g in _homomorphism_images(l, m):
                sups = _image_sups(m, g)
                if bytes(at_closures(sups)) == sups:
                    continue
                for a, c in enumerate(closures):
                    if sups[a] != sups[c]:
                        ck.fail(
                            "join-existence does not transport across the closure",
                            dom=l.poset.to_json(),
                            cod=m.poset.to_json(),
                            map=list(g),
                            subset=l.poset.subset_labels(a),
                        )
    return ck


def check_lemma_3_7(semi_bound: int, hc_base_bound: int) -> VerificationReport:
    """A nonempty F-Scott closed set whose join exists is a principal down-set.

    The empty set is excluded: its join being a bottom element never makes it
    principal, and it is never join-existing once bottomless codomains exist.
    A base poset whose powerdomain ``build_hc`` refuses is a failure on that
    poset, and the other semilattices are still checked.
    """
    ck = VerificationReport.sweep("Lem3.7", semi_bound=semi_bound, hc_base_bound=hc_base_bound)
    lattices = list(_semilattices_upto(semi_bound))
    for p in _posets_upto(hc_base_bound):
        try:
            lattices.append(build_hc(p).semilattice)
        except InvariantError as e:
            ck.fail(str(e), instance=_poset_instance(p))
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
    return ck


def check_cor_3_11(max_poset_n: int) -> VerificationReport:
    """Powerdomains are isomorphic exactly when the posets are, over every
    pair of instances at the cap; sobriety of each instance is verified first.
    A poset whose powerdomain ``build_hc`` refuses is a failure on that poset,
    and every pair without it is still compared."""
    ck = VerificationReport("Cor3.11", {"max_poset_n": max_poset_n})
    posets = _posets_upto(max_poset_n)
    for p in posets:
        if not is_sober(p):
            ck.fail("instance is not sober", instance=_poset_instance(p))
    built = []  # (poset, its canonical form, its powerdomain's) when build_hc returns
    for p in posets:
        try:
            built.append((p, canonical_form(p), canonical_form(build_hc(p).poset)))
        except InvariantError as e:
            ck.fail(str(e), instance=_poset_instance(p))
    pairs = 0
    for i, (p, form, hform) in enumerate(built):
        for q, qform, qhform in built[i:]:
            pairs += 1
            if (form == qform) != (hform == qhform):
                ck.fail(
                    "powerdomain isomorphism disagrees with poset isomorphism",
                    instance={"pair": [p.to_json(), q.to_json()]},
                )
    ck.instance = {"kind": "pair sweep", "pairs": pairs, **ck.bounds}
    return ck


def check_enum(max_poset_n: int) -> VerificationReport:
    """Enumeration self-test: the generated posets match the brute-force
    oracle exactly, class by class, for every size up to the cap."""
    ck = VerificationReport("Enum", {"max_poset_n": max_poset_n})
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
    return ck


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
        lambda c: dict.fromkeys(("l_bound", "m_bound"), min(4, c.max_semilattice_n)),
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


def _run_check(st: Statement, bounds: dict, p: FinitePoset | None = None) -> VerificationReport:
    """``st``'s report on the poset ``p``, or on ``bounds`` for a global
    statement.  An ``InvariantError`` raised inside the check is the
    instance's one failure, with the error as its detail; a ``PosetError``
    is raised.  A replayed payload without a semilattice bound gets
    ``Config``'s default."""
    semi_bound = bounds.get("max_semilattice_n", Config.max_semilattice_n)
    try:
        return st.check(**bounds) if p is None else st.check(p, semi_bound)
    except InvariantError as e:
        if p is None:
            report = VerificationReport(st.id, bounds, dict(bounds))
        else:
            report = VerificationReport.on_poset(st.id, p, max_semilattice_n=semi_bound)
        report.fail(str(e))
        return report


def run_statement(statement: str, config: Config) -> list[VerificationReport]:
    """All instance reports for one statement at the configured bounds."""
    st = _statement(statement)
    bounds = st.bounds(config)
    if not st.per_poset:
        return [_run_check(st, bounds)]
    return [_run_check(st, bounds, p) for p in _posets_upto(bounds["max_poset_n"])]


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
    payload's poset, a global check on the payload's bounds, by ``_run_check``.
    """
    st = _statement(payload["statement"])
    p = FinitePoset.from_json(payload["instance"]["poset"]) if st.per_poset else None
    return _run_check(st, payload["bounds"], p).verdict
