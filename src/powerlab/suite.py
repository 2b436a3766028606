"""Executable checks for the statement catalog, swept over enumerated posets.

Every check returns a per-instance report with a PASS / FAIL / INCONCLUSIVE
verdict; failures carry a payload from which the instance can be rebuilt and
replayed.  Statements quantifying over all semilattices are only ever checked
up to a size bound, so a passing run means "no counterexample at the bound",
never a proof; the bound travels with each report.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import lru_cache

from .catalog import standard_trio
from .enumeration import (
    are_isomorphic,
    bruteforce_canonical_forms,
    canonical_form,
    enumerate_posets,
    enumerate_v_semilattices,
    monotone_map_images,
)
from .families import gamma, gamma0
from .hoare import (
    WitnessCert,
    build_hc,
    partial_join,
    r_gamma_c,
    refute_v_existing,
    sup_of_image,
)
from .poset import (
    FinitePoset,
    PosetError,
    PosetMap,
    is_consistent,
    is_sober,
    scott_closure,
    subset_images,
    way_down_masks,
)
from .semilattice import (
    VSemilattice,
    _homomorphism_images,
    _img_is_homomorphism,
    cl_f,
    disable_closure_step,
    gamma_f,
    is_f_scott_closed,
)


@dataclass
class Config:
    """Sweep bounds and output options for a verification run."""

    max_poset_n: int = 5
    max_semilattice_n: int = 4
    suites: tuple = ("all",)
    cache_dir: str | None = None
    fmt: str = "json"
    jobs: int = 1
    strict: bool = False

    def __post_init__(self):
        if self.max_poset_n < 1 or self.max_semilattice_n < 1:
            raise PosetError("size caps must be at least 1")
        self.suites = tuple(self.suites)
        resolved = []
        for name in self.suites:
            key = name.lower()
            if key == "all":
                resolved = list(STATEMENT_ORDER)
                break
            if key not in SUITE_ALIASES:
                raise PosetError(f"unknown suite name {name!r}")
            resolved.append(SUITE_ALIASES[key])
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

    def to_dict(self) -> dict:
        return asdict(self)


def _poset_instance(p: FinitePoset) -> dict:
    return {"poset": p.to_json(), "n": p.n, "canonical": canonical_form(p).hex()}


def _payload(statement: str, bounds: dict, instance: dict, detail: str, **extra) -> dict:
    out = {"statement": statement, "bounds": bounds, "instance": instance, "detail": detail}
    out.update(extra)
    return out


@lru_cache(maxsize=None)
def _semilattices_upto(k: int) -> tuple:
    out = []
    for n in range(1, k + 1):
        out.extend(enumerate_v_semilattices(n))
    return tuple(out)


def _strict_pairs(p: FinitePoset) -> tuple:
    pairs = []
    for i in range(p.n):
        for j in range(p.n):
            if i != j and p.le[i, j]:
                pairs.append((i, j))
    return tuple(pairs)


def _image_sups(l: VSemilattice, img) -> list:
    """``out[a]``: the least upper bound in ``l`` of the image of subset ``a``
    of the domain under ``img``, or None; one entry per domain subset."""
    sup = l.sup_table
    return [sup[x] for x in subset_images(img, len(img))]


def _f_closed_table(l: VSemilattice) -> list[bool]:
    """``is_f_scott_closed`` of every subset of ``l``, indexed by bitmask."""
    return [is_f_scott_closed(l, a) for a in range(1 << l.n)]


def _continuous_by_table(f: PosetMap, dom_closed: list, cod_closed_sets) -> bool:
    """F-Scott continuity of ``f``: the preimage of each closed set of the
    codomain is closed, looked up in the domain's ``_f_closed_table``."""
    return all(dom_closed[f.preimage_bits(c)] for c in cod_closed_sets)


# -- per-poset checks -----------------------------------------------------------


def check_def_2_1(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """Partial-join laws of the powerdomain: commutative, associative in the
    Kleene sense, idempotent, inflationary, and equal to union when defined."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": p.n}
    instance = _poset_instance(p)
    failures = []
    h = build_hc(p)
    members = h.family.members

    def pj(a, b):
        return partial_join(h, a, b)

    for a in members:
        if pj(a, a) != a:
            failures.append(_payload("Def2.1", bounds, instance, "join not idempotent"))
        for b in members:
            ab = pj(a, b)
            if ab != pj(b, a):
                failures.append(_payload("Def2.1", bounds, instance, "join not commutative"))
            if ab is not None and a & ~ab:
                failures.append(_payload("Def2.1", bounds, instance, "join not inflationary"))
            for c in members:
                left = pj(ab, c) if ab is not None else None
                bc = pj(b, c)
                right = pj(a, bc) if bc is not None else None
                if left != right:
                    failures.append(
                        _payload(
                            "Def2.1",
                            bounds,
                            instance,
                            "join not associative on "
                            f"{p.subset_labels(a)}, {p.subset_labels(b)}, {p.subset_labels(c)}",
                        )
                    )
    return _finish("Def2.1", instance, failures, [], t0)


def check_thm_2_2(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """The relatively consistent closed sets are exactly the powerdomain
    members, with the way-below relation recomputed by brute force."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": p.n}
    instance = _poset_instance(p)
    failures = []
    wd = way_down_masks(p)
    for x in range(p.n):
        if wd[x] != p.down_masks[x]:
            failures.append(
                _payload(
                    "Thm2.2",
                    bounds,
                    instance,
                    f"way-below of {p.labels[x]} differs from its down-set",
                )
            )
    rel = r_gamma_c(p)
    h = build_hc(p)
    if rel.members != h.family.members:
        failures.append(
            _payload(
                "Thm2.2",
                bounds,
                instance,
                "relatively consistent family differs from the powerdomain",
                relative=[p.subset_labels(m) for m in rel.members],
                powerdomain=[p.subset_labels(m) for m in h.family.members],
            )
        )
    return _finish("Thm2.2", instance, failures, [], t0)


def check_lemma_2_3(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """The image of every powerdomain member under every monotone map into
    every semilattice at the bound has a least upper bound."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": p.n, "max_semilattice_n": semi_bound}
    instance = _poset_instance(p)
    failures = []
    members = build_hc(p).family.members
    for l in _semilattices_upto(semi_bound):
        for img in monotone_map_images(p, l.poset):
            sups = _image_sups(l, img)
            for m in members:
                if sups[m] is None:
                    failures.append(
                        _payload(
                            "Lem2.3",
                            bounds,
                            instance,
                            "member image has no least upper bound",
                            semilattice=l.poset.to_json(),
                            map=list(img),
                            member=p.subset_labels(m),
                        )
                    )
    return _finish("Lem2.3", instance, failures, [], t0)


def check_freeness(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """Every monotone map into a semilattice extends along the point-closure
    embedding to a unique join-preserving map on the powerdomain, and the
    extension is computed by taking sups of images."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": p.n, "max_semilattice_n": semi_bound}
    instance = _poset_instance(p)
    failures = []
    h = build_hc(p)
    members = h.family.members
    j_img = h.j.img
    hc_pairs = _strict_pairs(h.poset)

    def fail(detail, **extra):
        failures.append(_payload("Freeness", bounds, instance, detail, **extra))

    for l in _semilattices_upto(semi_bound):
        monos = monotone_map_images(p, l.poset)
        homs = _homomorphism_images(h.semilattice, l)
        groups: dict = {}
        for g in homs:
            groups.setdefault(tuple(g[j_img[x]] for x in range(p.n)), []).append(g)
        if len(homs) != len(monos):
            fail(
                f"{len(homs)} powerdomain maps vs {len(monos)} monotone maps",
                semilattice=l.poset.to_json(),
            )
        up = l.poset.up_masks
        for f_img in monos:
            sups = _image_sups(l, f_img)
            ext = []
            for m in members:
                s = sups[m]
                if s is None:
                    fail(
                        "extension undefined on a member",
                        semilattice=l.poset.to_json(),
                        map=list(f_img),
                        member=p.subset_labels(m),
                    )
                    break
                ext.append(s)
            else:
                ext_t = tuple(ext)
                if any(not up[ext_t[i]] >> ext_t[j] & 1 for i, j in hc_pairs):
                    fail("extension not monotone", semilattice=l.poset.to_json(), map=list(f_img))
                elif not _img_is_homomorphism(ext_t, h.semilattice, l):
                    fail(
                        "extension does not preserve joins",
                        semilattice=l.poset.to_json(),
                        map=list(f_img),
                    )
                if tuple(ext_t[j_img[x]] for x in range(p.n)) != f_img:
                    fail(
                        "extension does not restrict to the map",
                        semilattice=l.poset.to_json(),
                        map=list(f_img),
                    )
                matching = groups.get(f_img, [])
                if len(matching) != 1 or matching[0] != ext_t:
                    fail(
                        f"{len(matching)} powerdomain maps restrict to this map, expected "
                        "exactly the sup-of-image extension",
                        semilattice=l.poset.to_json(),
                        map=list(f_img),
                    )
    return _finish("Freeness", instance, failures, [], t0)


def check_prop_3_2(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """Closure transport: a set's image and its closure's image have a least
    upper bound together (and then the same one), for every monotone map."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": p.n, "max_semilattice_n": semi_bound}
    instance = _poset_instance(p)
    failures = []
    subsets = range(1 << p.n)
    closures = [scott_closure(p, a) for a in subsets]
    refutable = [False] * (1 << p.n)
    for l in _semilattices_upto(semi_bound):
        for img in monotone_map_images(p, l.poset):
            if not PosetMap(p, l.poset, img).is_monotone():
                raise PosetError("transport check requires a monotone map")
            # sup_exists_transport_check(p, l, f, a) is sups[a] == sups[closures[a]]
            sups = _image_sups(l, img)
            for a in subsets:
                if sups[a] != sups[closures[a]]:
                    failures.append(
                        _payload(
                            "Prop3.2",
                            bounds,
                            instance,
                            "closure transport broke",
                            semilattice=l.poset.to_json(),
                            map=list(img),
                            subset=p.subset_labels(a),
                        )
                    )
                if sups[a] is None:
                    refutable[a] = True
    for a in subsets:
        if refutable[a] != refutable[closures[a]]:
            failures.append(
                _payload(
                    "Prop3.2",
                    bounds,
                    instance,
                    "a set and its closure differ in refutability at the bound",
                    subset=p.subset_labels(a),
                )
            )
    return _finish("Prop3.2", instance, failures, [], t0)


def check_lemma_3_8(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """For each semilattice at the bound, the subsets refutable through
    monotone maps are exactly those whose embedded image is refutable through
    powerdomain homomorphisms."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": p.n, "max_semilattice_n": semi_bound}
    instance = _poset_instance(p)
    failures = []
    h = build_hc(p)
    j_img = h.j.img
    subsets = range(1 << p.n)
    for l in _semilattices_upto(semi_bound):
        refut_maps = set()
        for img in monotone_map_images(p, l.poset):
            sups = _image_sups(l, img)
            refut_maps.update([a for a in subsets if sups[a] is None])
        refut_homs = set()
        for g in _homomorphism_images(h.semilattice, l):
            sups = _image_sups(l, tuple(g[j_img[x]] for x in range(p.n)))
            refut_homs.update([a for a in subsets if sups[a] is None])
        if refut_maps != refut_homs:
            diff = refut_maps ^ refut_homs
            failures.append(
                _payload(
                    "Lem3.8",
                    bounds,
                    instance,
                    "map-refutable and embedding-refutable subsets disagree",
                    semilattice=l.poset.to_json(),
                    subsets=[p.subset_labels(a) for a in sorted(diff)],
                )
            )
    return _finish("Lem3.8", instance, failures, [], t0)


def check_thm_3_9(p: FinitePoset, semi_bound: int) -> VerificationReport:
    """Powerdomain membership versus join-existence: the generic closure adds
    nothing to the consistent family, every non-member is refuted by the
    canonical witness, and every member survives the bounded search."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": p.n, "max_semilattice_n": semi_bound}
    instance = _poset_instance(p)
    failures = []
    inconclusive = []
    h = build_hc(p)
    if not h.family_equals_gamma_c:
        failures.append(
            _payload(
                "Thm3.9",
                bounds,
                instance,
                "closure of the consistent family added members",
            )
        )
    member_set = set(h.family.members)
    for a in gamma(p).members:
        if a in member_set:
            witness = refute_v_existing(p, a, semi_bound)
            if isinstance(witness, WitnessCert):
                failures.append(
                    _payload(
                        "Thm3.9",
                        bounds,
                        instance,
                        "powerdomain member refuted",
                        subset=p.subset_labels(a),
                        witness=witness.to_json(),
                    )
                )
        else:
            cert = sup_of_image(h.semilattice, h.j, a)
            if cert.verdict != "NO_SUP":
                fallback = refute_v_existing(p, a, semi_bound)
                if isinstance(fallback, WitnessCert):
                    failures.append(
                        _payload(
                            "Thm3.9",
                            bounds,
                            instance,
                            "canonical witness failed to refute a non-member",
                            subset=p.subset_labels(a),
                        )
                    )
                else:
                    inconclusive.append(
                        _payload(
                            "Thm3.9",
                            bounds,
                            instance,
                            "non-member survived the bounded refutation search",
                            subset=p.subset_labels(a),
                        )
                    )
    return _finish("Thm3.9", instance, failures, inconclusive, t0)


def check_thm_3_10(p: FinitePoset, semi_bound: int = 0) -> VerificationReport:
    """Sending a closed set to the closure of its embedded image is an order
    isomorphism between the closed-set family (with the empty set) and the
    F-Scott closure system of the powerdomain."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": p.n}
    instance = _poset_instance(p)
    failures = []

    def fail(detail, **extra):
        failures.append(_payload("Thm3.10", bounds, instance, detail, **extra))

    h = build_hc(p)
    l = h.semilattice
    g0 = gamma0(p)
    gf = gamma_f(l)
    if len(gf.members) != len(gamma(p)) + 1:
        fail(f"{len(gf.members)} closed families vs {len(gamma(p)) + 1} closed sets")
    eta = [cl_f(l, h.j.image_bits(a)) for a in g0.members]
    gf_set = set(gf.members)
    for a, image in zip(g0.members, eta):
        if image not in gf_set:
            fail("image is not F-Scott closed", subset=p.subset_labels(a))
    if len(set(eta)) != len(eta):
        fail("map is not injective")
    if set(eta) != gf_set:
        fail("map is not surjective")
    for i, a in enumerate(g0.members):
        for k, b in enumerate(g0.members):
            if (a & ~b == 0) != (eta[i] & ~eta[k] == 0):
                fail(
                    "map does not preserve and reflect inclusion",
                    pair=[p.subset_labels(a), p.subset_labels(b)],
                )
    if not are_isomorphic(g0.poset, gf.family.poset):
        fail("family posets are not isomorphic")
    return _finish("Thm3.10", instance, failures, [], t0)


def check_sober(p: FinitePoset, semi_bound: int = 0) -> VerificationReport:
    """Every nonempty irreducible closed set is a point closure."""
    t0 = time.perf_counter()
    instance = _poset_instance(p)
    failures = []
    if not is_sober(p):
        failures.append(
            _payload("Sober", {"max_poset_n": p.n}, instance, "poset is not sober")
        )
    return _finish("Sober", instance, failures, [], t0)


# -- global checks ----------------------------------------------------------------


def check_prop_3_4(pair_bound: int, consistent_bound: int) -> VerificationReport:
    """Part 1: a map between semilattices preserves consistent joins exactly
    when preimages of F-Scott closed sets are F-Scott closed.  Part 2: the
    F-Scott closure of a consistent set is the down-set of its join."""
    t0 = time.perf_counter()
    bounds = {"pair_bound": pair_bound, "consistent_bound": consistent_bound}
    instance = {"kind": "semilattice sweep", **bounds}
    failures = []
    for l in _semilattices_upto(pair_bound):
        l_closed = _f_closed_table(l)
        for m in _semilattices_upto(pair_bound):
            m_closed_sets = gamma_f(m).members
            for img in monotone_map_images(l.poset, m.poset):
                f = PosetMap(l.poset, m.poset, img)
                # is_homomorphism and is_f_scott_continuous, by table lookup
                hom = f.is_monotone() and _img_is_homomorphism(img, l, m)
                cont = _continuous_by_table(f, l_closed, m_closed_sets)
                if hom != cont:
                    failures.append(
                        _payload(
                            "Prop3.4",
                            bounds,
                            instance,
                            f"homomorphism={hom} but continuity={cont}",
                            dom=l.poset.to_json(),
                            cod=m.poset.to_json(),
                            map=list(img),
                        )
                    )
    for l in _semilattices_upto(consistent_bound):
        for a in range(1, 1 << l.n):
            if not is_consistent(l.poset, a):
                continue
            s = l.sup_of_bits(a)
            if s is None or cl_f(l, a) != l.poset.down_masks[s]:
                failures.append(
                    _payload(
                        "Prop3.4",
                        bounds,
                        instance,
                        "closure of a consistent set is not the down-set of its join",
                        semilattice=l.poset.to_json(),
                        subset=l.poset.subset_labels(a),
                    )
                )
    return _finish("Prop3.4", instance, failures, [], t0)


def check_lemma_3_6(l_bound: int, m_bound: int) -> VerificationReport:
    """A subset and its F-Scott closure are refuted by exactly the same
    homomorphisms, so join-existence transports across the closure."""
    t0 = time.perf_counter()
    bounds = {"l_bound": l_bound, "m_bound": m_bound}
    instance = {"kind": "semilattice sweep", **bounds}
    failures = []
    for l in _semilattices_upto(l_bound):
        closures = [cl_f(l, a) for a in range(1 << l.n)]
        for m in _semilattices_upto(m_bound):
            for g in _homomorphism_images(l, m):
                sups = _image_sups(m, g)
                for a in range(1 << l.n):
                    if sups[a] != sups[closures[a]]:
                        failures.append(
                            _payload(
                                "Lem3.6",
                                bounds,
                                instance,
                                "join-existence does not transport across the closure",
                                dom=l.poset.to_json(),
                                cod=m.poset.to_json(),
                                map=list(g),
                                subset=l.poset.subset_labels(a),
                            )
                        )
    return _finish("Lem3.6", instance, failures, [], t0)


def check_lemma_3_7(semi_bound: int, hc_base_bound: int, cache_dir=None) -> VerificationReport:
    """A nonempty F-Scott closed set whose join exists is a principal down-set.

    The empty set is excluded: its join being a bottom element never makes it
    principal, and it is never join-existing once bottomless codomains exist.
    """
    t0 = time.perf_counter()
    bounds = {"semi_bound": semi_bound, "hc_base_bound": hc_base_bound}
    instance = {"kind": "semilattice sweep", **bounds}
    failures = []
    lattices = list(_semilattices_upto(semi_bound))
    for n in range(1, hc_base_bound + 1):
        for p in enumerate_posets(n, cache_dir=cache_dir):
            lattices.append(build_hc(p).semilattice)
    for l in lattices:
        for a in gamma_f(l).members:
            if a == 0:
                continue
            s = l.sup_of_bits(a)
            if s is not None and a != l.poset.down_masks[s]:
                failures.append(
                    _payload(
                        "Lem3.7",
                        bounds,
                        instance,
                        "closed set with a join is not a principal down-set",
                        semilattice=l.poset.to_json(),
                        subset=l.poset.subset_labels(a),
                    )
                )
    return _finish("Lem3.7", instance, failures, [], t0)


def check_cor_3_11(n_cap: int, cache_dir=None) -> VerificationReport:
    """Powerdomains are isomorphic exactly when the posets are, over every
    pair of instances at the cap; sobriety of each instance is verified first."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": n_cap}
    failures = []
    posets = []
    for n in range(1, n_cap + 1):
        posets.extend(enumerate_posets(n, cache_dir=cache_dir))
    for p in posets:
        if not is_sober(p):
            failures.append(
                _payload("Cor3.11", bounds, _poset_instance(p), "instance is not sober")
            )
    forms = [canonical_form(p) for p in posets]
    hforms = [canonical_form(build_hc(p).poset) for p in posets]
    pairs = 0
    for i in range(len(posets)):
        for k in range(i, len(posets)):
            pairs += 1
            if (forms[i] == forms[k]) != (hforms[i] == hforms[k]):
                failures.append(
                    _payload(
                        "Cor3.11",
                        bounds,
                        {"pair": [posets[i].to_json(), posets[k].to_json()]},
                        "powerdomain isomorphism disagrees with poset isomorphism",
                    )
                )
    instance = {"kind": "pair sweep", "pairs": pairs, **bounds}
    return _finish("Cor3.11", instance, failures, [], t0)


def check_enum(n_cap: int, cache_dir=None) -> VerificationReport:
    """Enumeration self-test: the generated posets match the brute-force
    oracle exactly, class by class, for every size up to the cap."""
    t0 = time.perf_counter()
    bounds = {"max_poset_n": n_cap}
    counts = {}
    failures = []
    for n in range(1, n_cap + 1):
        emitted = enumerate_posets(n, cache_dir=cache_dir)
        forms = [canonical_form(p) for p in emitted]
        if len(set(forms)) != len(forms):
            failures.append(
                _payload("Enum", bounds, {"n": n}, "duplicate isomorphism class emitted")
            )
        oracle = bruteforce_canonical_forms(n)
        if set(forms) != oracle:
            failures.append(
                _payload(
                    "Enum",
                    bounds,
                    {"n": n},
                    f"emitted {len(forms)} classes, oracle found {len(oracle)}",
                )
            )
        counts[n] = len(forms)
    instance = {"kind": "enumeration", "counts": counts, **bounds}
    return _finish("Enum", instance, failures, [], t0)


def _finish(statement, instance, failures, inconclusive, t0) -> VerificationReport:
    verdict = "FAIL" if failures else ("INCONCLUSIVE" if inconclusive else "PASS")
    return VerificationReport(
        statement=statement,
        instance=instance,
        verdict=verdict,
        failures=failures,
        inconclusive=inconclusive,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )


# -- registry and orchestration ------------------------------------------------


STATEMENT_ORDER = (
    "Def2.1",
    "Thm2.2",
    "Lem2.3",
    "Freeness",
    "Prop3.2",
    "Prop3.4",
    "Lem3.6",
    "Lem3.7",
    "Lem3.8",
    "Thm3.9",
    "Thm3.10",
    "Cor3.11",
    "Sober",
    "Enum",
)

_PER_POSET_CHECKS = {
    "Def2.1": (check_def_2_1, None),
    "Thm2.2": (check_thm_2_2, None),
    "Lem2.3": (check_lemma_2_3, 4),
    "Freeness": (check_freeness, 4),
    "Prop3.2": (check_prop_3_2, 3),
    "Lem3.8": (check_lemma_3_8, 4),
    "Thm3.9": (check_thm_3_9, None),
    "Thm3.10": (check_thm_3_10, None),
    "Sober": (check_sober, None),
}

SUITE_ALIASES = {
    "def2.1": "Def2.1",
    "thm2.2": "Thm2.2",
    "rgamma": "Thm2.2",
    "lemma2.3": "Lem2.3",
    "lem2.3": "Lem2.3",
    "freeness": "Freeness",
    "thm2.4": "Freeness",
    "prop3.2": "Prop3.2",
    "prop3.4": "Prop3.4",
    "lemma3.6": "Lem3.6",
    "lem3.6": "Lem3.6",
    "lemma3.7": "Lem3.7",
    "lem3.7": "Lem3.7",
    "lemma3.8": "Lem3.8",
    "lem3.8": "Lem3.8",
    "thm3.9": "Thm3.9",
    "thm3.10": "Thm3.10",
    "cor3.11": "Cor3.11",
    "sober": "Sober",
    "enum": "Enum",
}


def _effective_poset_cap(statement: str, config: Config) -> int:
    cap = _PER_POSET_CHECKS[statement][1]
    return config.max_poset_n if cap is None else min(cap, config.max_poset_n)


def _statement_bound(statement: str, config: Config) -> dict:
    if statement in _PER_POSET_CHECKS:
        return {
            "max_poset_n": _effective_poset_cap(statement, config),
            "max_semilattice_n": config.max_semilattice_n,
        }
    if statement == "Prop3.4":
        return {
            "pair_bound": min(4, config.max_semilattice_n),
            "consistent_bound": 5,
        }
    if statement == "Lem3.6":
        b = min(4, config.max_semilattice_n)
        return {"l_bound": b, "m_bound": b}
    if statement == "Lem3.7":
        return {"semi_bound": 5, "hc_base_bound": min(4, config.max_poset_n)}
    if statement == "Cor3.11":
        return {"max_poset_n": min(4, config.max_poset_n)}
    if statement == "Enum":
        return {"max_poset_n": config.max_poset_n}
    raise PosetError(f"unknown statement {statement!r}")


def run_statement(statement: str, config: Config) -> list[VerificationReport]:
    """All instance reports for one statement at the configured bounds."""
    bound = _statement_bound(statement, config)
    if statement in _PER_POSET_CHECKS:
        fn = _PER_POSET_CHECKS[statement][0]
        tasks = []
        for n in range(1, bound["max_poset_n"] + 1):
            for p in enumerate_posets(n, cache_dir=config.cache_dir):
                tasks.append(p)
        if config.jobs > 1 and len(tasks) > 1:
            args = [
                (statement, p.to_json(), config.max_semilattice_n) for p in tasks
            ]
            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                dicts = list(pool.map(_run_per_poset_task, args))
            return [VerificationReport(**d) for d in dicts]
        return [fn(p, config.max_semilattice_n) for p in tasks]
    if statement == "Prop3.4":
        return [check_prop_3_4(**bound)]
    if statement == "Lem3.6":
        return [check_lemma_3_6(**bound)]
    if statement == "Lem3.7":
        return [check_lemma_3_7(**bound, cache_dir=config.cache_dir)]
    if statement == "Cor3.11":
        return [check_cor_3_11(bound["max_poset_n"], config.cache_dir)]
    if statement == "Enum":
        return [check_enum(bound["max_poset_n"], config.cache_dir)]
    raise PosetError(f"unknown statement {statement!r}")


def _run_per_poset_task(args) -> dict:
    statement, poset_json, semi_bound = args
    p = FinitePoset.from_json(poset_json)
    fn = _PER_POSET_CHECKS[statement][0]
    return fn(p, semi_bound).to_dict()


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
                "jobs": self.config.jobs,
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
                "bound": _statement_bound(statement, config),
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
    descriptor, which is all the replay needs.
    """
    statement = payload["statement"]
    bounds = payload["bounds"]
    if statement in _PER_POSET_CHECKS:
        poset_json = payload["instance"]["poset"]
        p = FinitePoset.from_json(poset_json)
        fn = _PER_POSET_CHECKS[statement][0]
        return fn(p, bounds.get("max_semilattice_n", 4)).verdict
    if statement == "Prop3.4":
        return check_prop_3_4(**bounds).verdict
    if statement == "Lem3.6":
        return check_lemma_3_6(**bounds).verdict
    if statement == "Lem3.7":
        return check_lemma_3_7(**bounds).verdict
    if statement == "Cor3.11":
        return check_cor_3_11(bounds["max_poset_n"]).verdict
    if statement == "Enum":
        return check_enum(bounds["max_poset_n"]).verdict
    raise PosetError(f"unknown statement {statement!r}")


# -- mutation sensitivity ---------------------------------------------------------


def mutation_failures(step: str) -> list[dict]:
    """Failures observed on the standard trio with one cl_f step disabled."""
    out = []
    with disable_closure_step(step):
        for p in standard_trio():
            report = check_thm_3_10(p)
            out.extend(report.failures)
    return out
