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

import time
from collections.abc import Callable
from functools import lru_cache, reduce
from itertools import compress
from operator import itemgetter, not_, or_

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
    hasse,
    is_sober,
    iter_bits,
    scott_closure,
    way_down_masks,
)
from .semilattice import (
    NO_SUP,
    _column_sups,
    _columns,
    _homomorphism_images,
    _joined,
    _monotone_columns,
    cl_f,
    gamma_f,
    iter_homomorphisms,
    meet_irreducibles,
)


class Config:
    """Sweep bounds and options for a verification run.  The class attributes
    are the keyword arguments' defaults."""

    max_poset_n = 5
    max_semilattice_n = 4
    suites = ("all",)
    strict = False

    def __init__(
        self,
        max_poset_n: int = max_poset_n,
        max_semilattice_n: int = max_semilattice_n,
        suites: tuple = suites,
        strict: bool = strict,
    ):
        self.max_poset_n, self.max_semilattice_n = max_poset_n, max_semilattice_n
        self.suites, self.strict = suites, strict
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


class VerificationReport:
    """One check's findings on one instance; the verdict is read off them.
    Each finding is a replayable payload of the statement, the bounds, the
    instance and a detail line; ``instance=`` in the extras overrides the
    report's own instance for that one payload."""

    def __init__(self, statement: str, bounds: dict, instance=None):
        self.statement, self.bounds, self.instance = statement, bounds, instance
        self.failures, self.inconclusive = [], []

    @property
    def instance(self) -> dict | None:
        """Set to a poset, the report holds the poset and builds its
        ``_poset_instance`` the first time this is read, so a report whose
        instance nothing reads, a passing one, builds none."""
        if isinstance(self._instance, FinitePoset):
            self._instance = _poset_instance(self._instance)
        return self._instance

    @instance.setter
    def instance(self, value) -> None:
        self._instance = value

    @classmethod
    def on_poset(cls, statement: str, p: FinitePoset, **bounds) -> VerificationReport:
        return cls(statement, {"max_poset_n": p.n, **bounds}, p)

    @classmethod
    def sweep(cls, statement: str, **bounds) -> VerificationReport:
        return cls(statement, bounds, {"kind": "semilattice sweep", **bounds})

    @property
    def verdict(self) -> str:
        return verdict_of(self.failures, self.inconclusive)

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
    return format(bits & ((1 << 256) - 1), "0256b")[::-1].encode()


def _points_generate(h) -> bool:
    """Premise B: the point closures, ``h.j``'s images, generate every member
    of the powerdomain ``h`` under its defined joins."""
    join = h.semilattice.join
    reached, new = set(), set(h.j.img)
    while new:
        reached |= new
        new = {z for a in reached for b in reached if (z := join[a][b]) != -1} - reached
    return len(reached) == len(join)


def _extends_freely(l, columns, sups, members, points, covers, triples) -> bool:
    """Whether every map's sup-of-image extension, read from ``sups``, the
    ``_column_sups`` table of the map ``columns``, is defined at every
    powerdomain member, restricts to the map at the point closures
    ``points``, and keeps each cover pair ``(a, b)`` in order and each join
    triple ``(i, j, z)`` of the powerdomain, as subsets.  Each order or join
    test is one ``_joined`` of two member strings in ``l``, for all maps at
    once: with no ``NO_SUP`` byte, ``join(s, y) == y`` exactly when
    ``s <= y``."""
    if any(NO_SUP in sups[a] for a in members):
        return False
    if any(sups[a] != col for a, col in zip(points, columns)):
        return False
    return all(_joined(l, sups[a], sups[b]) == sups[b] for a, b in covers) and all(
        _joined(l, sups[i], sups[j]) == sups[z] for i, j, z in triples
    )


@lru_cache(maxsize=None)
def _map_sweep(p: FinitePoset, semi_bound: int) -> dict:
    """Lem2.3's, Freeness's and Lem3.8's findings on the monotone maps from
    ``p`` into every semilattice at the bound, keyed by statement id, each a
    list of (detail, extras), from one pass over the maps.  Per semilattice,
    in ``_semilattices_upto`` order, Freeness reports its count lines before
    its per-map findings.

    The maps into a semilattice, as ``_monotone_columns``, go to one
    ``_column_sups`` table, and each map's sup-of-image extension E is its
    byte at each powerdomain member.  The pass path reads nothing else.
    ``_extends_freely`` tests, for all maps at once, that E is defined on
    every member (Lem2.3), restricts to the map along the embedding j, keeps
    each cover pair of the powerdomain in order, and preserves the join of
    each consistent incomparable pair; ``_points_generate`` tests premise B,
    that j(P) generates the powerdomain under its joins, once per poset.
    These prove that nothing is left to report:

    - Existence.  E is monotone, since the cover pairs generate the order,
      and preserves the join of a comparable pair a <= b, which is b,
      because E(a) <= E(b).  So E is a homomorphism that restricts to the
      map.
    - Uniqueness.  A homomorphism g that restricts to the map agrees with E
      on j(P), and the members where they agree are closed under the
      defined joins: g(a v b) = g(a) v g(b) = E(a) v E(b) = E(a v b).  By
      premise B they agree everywhere.
    - So restriction is a bijection from the homomorphisms onto the maps,
      with the extension its inverse: a homomorphism g restricts to the
      monotone map g.j, whose one homomorphism is g.  Each map's group is
      exactly its extension, and the counts agree, so Freeness has nothing
      to report; Lem3.8's two unions of refuted subsets are unions over the
      same maps and agree.

    A semilattice on which a test fails, and every semilattice when premise
    B fails, takes the failure path instead, on rows: the homomorphisms from
    the powerdomain are streamed once by ``iter_homomorphisms``, counted and
    grouped by their restriction along the embedding.  The stream reads
    ``l.join``, not the pass path's ``column_join``, so a fault in the packed
    table shows as a finding instead of passing both paths.  Each map whose
    group is not exactly its extension is tested for definedness,
    monotonicity, join preservation, restriction and uniqueness, in that
    order.  Lem3.8 then builds both unions, the maps' from the same table
    and the restrictions' from one more ``_column_sups`` table, of their
    ``_columns``, so that a failure names the subsets that differ.  Only
    findings are kept.

    The table and the homomorphisms come from one enumerator, so none of
    these tests sees a map that it drops.  The maps into the 2-element chain
    are counted apart: a monotone map into 0 < 1 is fixed by the lower set
    it sends to 0, so there are as many as ``gamma0(p)`` has members, listed
    by ``p.ideals`` with no code of ``iter_monotone_maps``.  A mismatch is
    Freeness's first finding on that semilattice."""
    h = build_hc(p)
    members = h.family.members
    j_img = h.j.img
    generated = _points_generate(h)
    covers = [(members[a], members[b]) for a, b in hasse(h.poset)]
    triples = [tuple(members[x] for x in t) for t in h.semilattice.join_triples]
    # the restriction along the embedding, as a tuple even for one point
    restrict = itemgetter(*j_img) if p.n > 1 else lambda g: (g[j_img[0]],)
    found = {"Lem2.3": [], "Freeness": [], "Lem3.8": []}

    def on_map(detail, **extra):
        return detail, {"semilattice": l.poset.to_json(), "map": list(f_img), **extra}

    for l in _semilattices_upto(semi_bound):
        columns = _monotone_columns(p, l.poset)
        if l.n == 2 and l.join[0][1] != -1 and len(columns[0]) != len(ideals := gamma0(p)):
            detail = f"{len(columns[0])} monotone maps into the 2-chain vs {len(ideals)} lower sets"
            found["Freeness"].append((detail, {"semilattice": l.poset.to_json()}))
        sups = _column_sups(l, columns)
        if generated and _extends_freely(l, columns, sups, members, p.down_masks, covers, triples):
            continue
        groups: dict = {}
        for g in iter_homomorphisms(h.semilattice, l):
            groups.setdefault(restrict(g), []).append(g)
        per_map = []  # Freeness's findings after its count line
        for f_img, ext in zip(zip(*columns), zip(*[sups[m] for m in members])):
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
        homs = sum(map(len, groups.values()))
        if homs != len(columns[0]):
            detail = f"{homs} powerdomain maps vs {len(columns[0])} monotone maps"
            per_map.insert(0, (detail, {"semilattice": l.poset.to_json()}))
        if not per_map:
            continue
        found["Freeness"] += per_map
        refut_maps, refut_homs = (
            {a for a, row in enumerate(table) if NO_SUP in row}
            for table in (sups, _column_sups(l, _columns(groups, p.n)))
        )
        if refut_maps != refut_homs:
            detail = "map-refutable and embedding-refutable subsets disagree"
            subsets = [p.subset_labels(a) for a in sorted(refut_maps ^ refut_homs)]
            found["Lem3.8"].append((detail, {"semilattice": l.poset.to_json(), "subsets": subsets}))
    return found


def _transport_breaks(closures, columns, sups):
    """The (image, subset) pairs, in map then subset order, at which a map's
    sup in ``sups``, the ``_column_sups`` table of the map ``columns``,
    differs from its sup at ``closures[a]``, the subset's closure.  All maps
    are compared at once; only on a mismatch are they walked one by one."""
    if itemgetter(*closures)(sups) == sups:
        return
    for r, img in enumerate(zip(*columns)):
        for a, c in enumerate(closures):
            if sups[a][r] != sups[c][r]:
                yield img, a


def _swept(statement: str, p: FinitePoset, semi_bound: int) -> VerificationReport:
    """The report of the findings ``_map_sweep`` keeps for ``statement``,
    copied so that no report shares an object with the cache."""
    import copy  # here, not at module level: only a failing sweep copies

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

    The sups of all the maps into a semilattice are one ``_column_sups``
    table, read by ``_transport_breaks`` at every subset and at its Scott
    closure.  Which closed sets some map refutes is checked, one closed set
    at a time, against ``first_refutation``, which reads the semilattices'
    ``sup_table`` instead, so a table that invents or drops sups fails.
    When every table agrees at a set and its closure, so does refutability,
    which therefore has no test of its own."""
    ck = VerificationReport.on_poset("Prop3.2", p, max_semilattice_n=semi_bound)
    closures = [scott_closure(p, a) for a in range(1 << p.n)]
    refutable = set()
    pool = _semilattices_upto(semi_bound)
    for l in pool:
        columns = _monotone_columns(p, l.poset)
        sups = _column_sups(l, columns)
        # sup_exists_transport_check(p, l, f, a) fails exactly at these
        for img, a in _transport_breaks(closures, columns, sups):
            ck.fail(
                "closure transport broke",
                semilattice=l.poset.to_json(),
                map=list(img),
                subset=p.subset_labels(a),
            )
        refutable |= {a for a, row in enumerate(sups) if NO_SUP in row}
    for a in gamma(p).members:
        if (a in refutable) != (first_refutation(p, a, pool) is not None):
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
    its refutable subsets are those the map sweep found for that map; the
    restrictions get a sup table of their own only on a semilattice where
    Freeness has a finding."""
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
    """Sending a closed set A to η(A), the closure of its embedded image, is
    an order isomorphism between the closed-set family (with the empty set)
    and the F-Scott closure system of the powerdomain.  Each image must be
    F-Scott closed and every closed set an image; then η must preserve and
    reflect inclusion, which makes it injective, and a closed image,
    surjectivity and injectivity make the families equally large (``gamma0``
    is ``gamma`` plus the empty set, both read from ``p.ideals``), so neither
    injectivity nor the count has a test of its own.

    Preservation is tested on the covering pairs A ⊂ A ∪ {x} of the family,
    x minimal outside A: any A ⊆ B is joined to B by such steps, adding a
    minimal element of B \\ A at a time, so transitivity gives the rest.
    Reflection follows from ∪η(A) = A, the union of the powerdomain members
    in η(A): if η(A) ⊆ η(B) then A = ∪η(A) ⊆ ∪η(B) = B.  That is one pass
    over each image where testing every pair would take |Γ0|² tests."""
    ck = VerificationReport.on_poset("Thm3.10", p)
    h = build_hc(p)
    l = h.semilattice
    members, down = h.family.members, p.down_masks
    g0 = gamma0(p)
    eta = {a: cl_f(l, h.j.image_bits(a)) for a in g0.members}
    gf_set = set(gamma_f(l).members)
    for a, image in eta.items():
        if image not in gf_set:
            ck.fail("image is not F-Scott closed", subset=p.subset_labels(a))
    if set(eta.values()) != gf_set:
        ck.fail("map is not surjective")
    for a, image in eta.items():
        if reduce(or_, [members[i] for i in iter_bits(image)], 0) != a:
            ck.fail("image does not union back to the set", subset=p.subset_labels(a))
        for x in iter_bits(p.full_mask & ~a):
            if down[x] & ~a == 1 << x and image & ~eta[a | 1 << x]:
                pair = [p.subset_labels(a), p.subset_labels(a | 1 << x)]
                ck.fail("map does not preserve inclusion", pair=pair)
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
    when preimages of F-Scott closed sets are F-Scott closed.  A pair's
    monotone maps are its shared ``_monotone_columns`` table, and its
    homomorphisms are ``_homomorphism_images`` of the pair, cached for
    Lem3.6.  A map is continuous when the preimage of every meet-irreducible
    closed set of the codomain is closed: every closed set is the
    intersection of the irreducibles containing it (the full set being the
    empty intersection), the preimage of an intersection is the
    intersection of the preimages, and the domain's closed sets are closed
    under intersection, so then every closed set's preimage is closed.

    A pair's maps are decided at once, by columns: byte ``r`` of column
    ``x`` is the image of ``x`` under map ``r``.  Translated by a bit table,
    ``_membership_table`` of an irreducible with ``b"1"`` read as ``1 << x``,
    and summed over ``x``, the columns give every map's preimage as a subset
    index, one byte each, so the pair bound is at most 8.  One more
    ``translate`` flags the maps whose preimage is not closed: through the
    ``_membership_table`` of the subset indices that are not F-Scott closed
    in the domain, read as 0 and 1.  The continuous rows are compared with
    the homomorphisms at once, and walked only on a mismatch.  Part 2: the
    F-Scott closure of a consistent set is the down-set of its join; a
    nonempty subset is consistent when its ``bound_masks`` entry is nonzero,
    and its join is its ``sup_table`` entry."""
    if pair_bound > 8:
        raise PosetError(f"Prop3.4 packs preimages in bytes: pair bound {pair_bound} exceeds 8")
    ck = VerificationReport.sweep(
        "Prop3.4", pair_bound=pair_bound, consistent_bound=consistent_bound
    )
    pool = _semilattices_upto(pair_bound)
    as_bit = [bytes.maketrans(b"01", bytes([0, 1 << x])) for x in range(pair_bound)]
    irreducibles = [list(map(_membership_table, meet_irreducibles(gamma_f(m)))) for m in pool]
    irreducibles = [[[c.translate(t) for t in as_bit] for c in cs] for cs in irreducibles]
    for l in pool:
        unclosed = _membership_table(~sum(1 << a for a in gamma_f(l).members)).translate(as_bit[0])
        for m, m_irreducibles in zip(pool, irreducibles):
            columns = _monotone_columns(l.poset, m.poset)
            k = len(columns[0])
            broken = 0
            for tables in m_irreducibles:
                pre = sum(int.from_bytes(x.translate(t), "big") for x, t in zip(columns, tables))
                broken |= int.from_bytes(pre.to_bytes(k, "big").translate(unclosed), "big")
            continuous = bytes(map(not_, broken.to_bytes(k, "big")))
            homs = _homomorphism_images(l, m)
            if tuple(bytes(compress(col, continuous)) for col in columns) == homs:
                continue
            hom_rows = set(zip(*homs))
            for img, c in zip(zip(*columns), continuous):
                h = img in hom_rows
                if h != c:
                    ck.fail(
                        f"homomorphism={h} but continuity={not h}",
                        dom=l.poset.to_json(),
                        cod=m.poset.to_json(),
                        map=list(img),
                    )
    for l in _semilattices_upto(consistent_bound):
        for a, bounds, s in zip(range(1, 1 << l.n), l.bound_masks[1:], l.sup_table[1:]):
            if bounds and (s is None or cl_f(l, a) != l.poset.down_masks[s]):
                ck.fail(
                    "closure of a consistent set is not the down-set of its join",
                    semilattice=l.poset.to_json(),
                    subset=l.poset.subset_labels(a),
                )
    return ck


def check_lemma_3_6(l_bound: int, m_bound: int) -> VerificationReport:
    """A subset and its F-Scott closure are refuted by exactly the same
    homomorphisms, so join-existence transports across the closure: each
    homomorphism's sups must agree at every subset and at that subset's
    ``cl_f`` closure.  The columns of ``_homomorphism_images``, cached by
    Prop3.4, go to one ``_column_sups`` table per pair, whose nibbles hold
    codomains of at most 14 elements, and ``_transport_breaks`` names the
    breaking maps."""
    if m_bound > 14:
        raise PosetError(f"Lem3.6 packs sups into nibbles: m bound {m_bound} exceeds 14")
    ck = VerificationReport.sweep("Lem3.6", l_bound=l_bound, m_bound=m_bound)
    pool = _semilattices_upto(m_bound)
    for l in _semilattices_upto(l_bound):
        closures = [cl_f(l, a) for a in range(1 << l.n)]
        for m in pool:
            homs = _homomorphism_images(l, m)
            for g, a in _transport_breaks(closures, homs, _column_sups(m, homs)):
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


class Statement:
    """One catalog row.  ``bounds(config)`` gives the bound a run reports for
    the statement; a global check is called as ``check(**bounds)``, a
    per-poset check as ``check(p, max_semilattice_n)`` on every poset up to
    ``max_poset_n``.  A check reads nothing but its arguments, so its verdict
    depends only on the instance and the bounds."""

    def __init__(
        self, id: str, aliases: tuple, check: Callable, bounds: Callable, per_poset: bool = False
    ):
        self.id, self.aliases, self.check, self.bounds = id, aliases, check, bounds
        self.per_poset = per_poset


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


class Summary:
    """Grouped result of a verification run."""

    def __init__(self, config: Config, groups: list):
        self.config, self.groups = config, groups

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


def verdict_of(failures, inconclusive) -> str:
    """The one verdict rule, of a report, a statement group or a run: FAIL on
    any failure, else INCONCLUSIVE on any doubt, else PASS."""
    return "FAIL" if failures else ("INCONCLUSIVE" if inconclusive else "PASS")


def exit_code_for(any_fail: bool, any_inconclusive: bool, strict: bool) -> int:
    return {"FAIL": 1, "INCONCLUSIVE": 3 if strict else 0, "PASS": 0}[
        verdict_of(any_fail, any_inconclusive)
    ]


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

    A payload is outside input, refused with ``PosetError`` before any check
    unless its bounds are integers in 1..``DEFAULT_MAX_N`` named by its
    statement's ``bounds(Config())`` and its poset fits ``max_poset_n``.  A
    bound of 0 is refused: every bound a run reports is at least 1, and a
    check at 0 would pass over no instance.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("statement"), str):
        raise PosetError("a failure payload needs a statement name")
    st, bounds = _statement(payload["statement"]), payload.get("bounds")
    names = set(st.bounds(Config()))
    needed = {"max_poset_n"} if st.per_poset else names
    if not isinstance(bounds, dict) or not needed <= set(bounds) <= names:
        raise PosetError(f"{st.id} replays with the bounds {sorted(names)}, not {bounds!r}")
    for name, value in bounds.items():
        if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= DEFAULT_MAX_N:
            raise PosetError(f"bound {name}={value!r} is not an integer in 1..{DEFAULT_MAX_N}")
    if not st.per_poset:
        return _run_check(st, bounds).verdict
    instance = payload.get("instance")
    if not isinstance(instance, dict) or not isinstance(instance.get("poset"), dict):
        raise PosetError(f"a {st.id} failure payload needs its instance's poset")
    p = FinitePoset.from_json(instance["poset"])
    if p.n > bounds["max_poset_n"]:
        raise PosetError(f"the payload's poset has {p.n} elements, past max_poset_n")
    return _run_check(st, bounds, p).verdict
