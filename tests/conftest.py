from contextlib import contextmanager
from functools import lru_cache

import pytest

from powerlab import catalog, down_set
from powerlab.poset import directed_sup_closure_step, iter_bits


@pytest.fixture
def s1():
    return catalog.singleton()


@pytest.fixture
def c2():
    return catalog.chain(2)


@pytest.fixture
def c3():
    return catalog.chain(3)


@pytest.fixture
def a2():
    return catalog.antichain(2)


@pytest.fixture
def vee():
    return catalog.vee()


@pytest.fixture
def wedge():
    return catalog.wedge()


@pytest.fixture
def bowtie():
    return catalog.bowtie()


def small_posets(max_n=4):
    """All enumerated posets up to max_n; shared sweep helper for tests."""
    from powerlab import enumerate_posets

    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_posets(n))
    return out


def without_pair(family, subfamily):
    """``closure_in_family`` with the member made of the two minimal elements
    dropped on every poset isomorphic to the vee, whatever its labels: those
    two points then have no union in the family but a common upper bound,
    the whole vee, so the powerdomain's join table misses a consistent pair.
    Every other poset is left as it is.  Patched in as
    ``powerlab.hoare.closure_in_family``."""
    from powerlab.enumeration import canonical_form
    from powerlab.families import SetFamily, closure_in_family

    closed = closure_in_family(family, subfamily)
    p = closed.base
    if canonical_form(p) != canonical_form(catalog.vee()):
        return closed
    pair = sum(1 << x for x in range(p.n) if p.down_masks[x] == 1 << x)
    return SetFamily(p, [m for m in closed.members if m != pair])


def literal_join_laws(h):
    """The partial-join laws of the powerdomain ``h``, each read literally off
    its join table of member indices: idempotent, commutative, equal to union
    and inflationary where defined, and associative in the Kleene sense (an
    undefined join, -1, joins with anything to -1).  The violated laws, in
    the order found; the reference for what ``build_hc``'s validation
    implies."""
    members = h.family.members
    k = len(members)
    t = [row + (-1,) for row in h.semilattice.join]
    t.append((-1,) * (k + 1))
    found = []
    for a in range(k):
        ta = t[a]
        if ta[a] != a:
            found.append("join not idempotent")
        for b in range(k):
            ab, tb = ta[b], t[b]
            if ab != tb[a]:
                found.append("join not commutative")
            if ab != -1:
                if members[ab] != members[a] | members[b]:
                    found.append("join is not the union")
                if members[a] & ~members[ab]:
                    found.append("join not inflationary")
            left = t[ab]
            for c in range(k):
                if left[c] != ta[tb[c]]:
                    found.append("join not associative")
    return found


def literal_fixpoint(p, bits, join=None, directed_sups=True):
    """The literal closures, directed-sup step included: down-closure, then
    the consistent-pair joins of ``join`` when given, then the sups of all
    directed subsets, repeated until nothing changes.  The reference that the
    production closures and the criterion-8 mutants are compared with.

    The directed-sup step enumerates every directed subset of the current
    set, which is out of reach past a few hundred subsets per instance (the
    enumeration refuses more than ``DIRECTED_SUBSET_CAP`` elements, the one
    cap on directed subsets).  ``directed_sups=False`` drops
    it, leaving the round-by-round fixpoint that re-joins every pair on every
    round: the reference for the larger instances, whose directed subsets
    ``tests/test_collapse.py`` does not enumerate."""
    cur = bits
    while True:
        nxt = down_set(p, cur)
        if join is not None:
            elems = [i for i in range(p.n) if nxt >> i & 1]
            for a in elems:
                for b in elems:
                    if join[a][b] != -1:
                        nxt |= 1 << join[a][b]
        if directed_sups:
            nxt |= directed_sup_closure_step(p.up_masks, p.full_mask, nxt)
        if nxt == cur:
            return cur
        cur = nxt


# the module global of powerlab.semilattice that runs each cl_f step.
# "lower": down_set, called by cl_f on its argument and by _step_pair_join on
# each new join, so the mutant closes under pair joins alone.  "pair_join":
# _step_pair_join, the semi-naive worklist, so the mutant is the bare
# down-set.  cl_f never runs a directed-sup step, so that mutant patches
# nothing.
_CLOSURE_STEP_FUNCTIONS = {"lower": "down_set", "pair_join": "_step_pair_join", "directed_sup": None}


@contextmanager
def closure_mutant(step):
    """Run with one cl_f step ("lower", "pair_join" or "directed_sup")
    replaced by the identity in ``powerlab.semilattice``.  gamma_f's cache,
    the one holding cl_f results, is cleared on entry and on exit, so no
    result leaks into or out of the mutant."""
    from powerlab import semilattice

    name = _CLOSURE_STEP_FUNCTIONS[step]
    semilattice._gamma_f_cached.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            if name is not None:
                mp.setattr(semilattice, name, lambda _, bits: bits)
            yield
    finally:
        semilattice._gamma_f_cached.cache_clear()


def mutant_failures(step):
    """Thm3.10's failures on the standard trio under ``closure_mutant(step)``."""
    from powerlab.suite import check_thm_3_10

    with closure_mutant(step):
        return [f for p in catalog.standard_trio() for f in check_thm_3_10(p).failures]


def lectic_gamma_f(l):
    """Every F-Scott closed set of ``l`` by Next-Closure in lectic order
    (Ganter & Wille, *Formal Concept Analysis*, Springer 1999, ch. 1), with
    ``cl_f`` read from ``powerlab.semilattice`` at call time: the reference
    for the closure-step generation of ``gamma_f``."""
    from powerlab import semilattice
    from powerlab.families import SetFamily

    members = [semilattice.cl_f(l, 0)]
    full = semilattice.cl_f(l, l.poset.full_mask)
    while members[-1] != full:
        current = members[-1]
        for i in range(l.n - 1, -1, -1):
            if current >> i & 1:
                continue
            prefix = current & ((1 << i) - 1)
            cand = semilattice.cl_f(l, prefix | (1 << i))
            if cand & ((1 << i) - 1) == prefix:
                members.append(cand)
                break
        else:
            raise AssertionError("lectic enumeration stalled before the top closure")
    return SetFamily(l.poset, members)


def order_violations(p):
    """The pairs (A, B) of ``gamma0(p)``, as subsets, on which A ⊆ B and
    η(A) ⊆ η(B) disagree, η(A) being ``cl_f`` of the embedded image of A,
    read from ``powerlab.suite`` at call time: Thm3.10's order test by the
    double loop over every pair, the reference for its covering pairs and
    unions."""
    from powerlab import suite

    h = suite.build_hc(p)
    g0 = suite.gamma0(p).members
    eta = [suite.cl_f(h.semilattice, h.j.image_bits(a)) for a in g0]
    return [
        (a, b)
        for a, ea in zip(g0, eta)
        for b, eb in zip(g0, eta)
        if (a & ~b == 0) != (ea & ~eb == 0)
    ]


def one_map_columns(img):
    """The byte columns of the one map ``img``, as ``_column_sups`` takes them."""
    return tuple(bytes([y]) for y in img)


def member_sups(l, img, members):
    """The sup in ``l`` of the image under ``img`` of each member, or
    ``NO_SUP`` where it has none: ``_column_sups`` of the one map, read from
    ``powerlab.suite`` at call time, so a mutant patched there reaches the
    statement loops below and the checks alike."""
    from powerlab import suite

    sups = suite._column_sups(l, one_map_columns(img))
    return tuple(sups[m][0] for m in members)


def literal_lemma_2_3(p, semi_bound):
    """Lem2.3's failures by its own loop: every cached monotone map into every
    semilattice at the bound, with one ``member_sups`` evaluation per map.
    The functions are read from ``powerlab.suite`` at call time, so a mutant
    patched there reaches this loop and the check alike.  The reference for
    the Lem2.3 slice of ``_map_sweep``."""
    from powerlab import suite
    from powerlab.enumeration import monotone_map_images

    ck = suite.VerificationReport.on_poset("Lem2.3", p, max_semilattice_n=semi_bound)
    members = suite.build_hc(p).family.members
    for l in suite._semilattices_upto(semi_bound):
        for img in monotone_map_images(p, l.poset):
            ext = member_sups(l, img, members)
            for m, s in zip(members, ext):
                if s == suite.NO_SUP:
                    ck.fail(
                        "member image has no least upper bound",
                        semilattice=l.poset.to_json(),
                        map=list(img),
                        member=p.subset_labels(m),
                    )
    return ck.failures


def literal_freeness(p, semi_bound):
    """Freeness's failures by its own loop: per semilattice, the maps into
    the 2-chain counted against the lower sets of ``p``, found by testing
    every subset, then the map count, then every cached monotone map's
    sup-of-image extension tested for definedness, monotonicity, join
    preservation, restriction and uniqueness, in that order.  The reference
    for the Freeness slice of ``_map_sweep``."""
    from powerlab import suite
    from powerlab.enumeration import monotone_map_images

    ck = suite.VerificationReport.on_poset("Freeness", p, max_semilattice_n=semi_bound)
    h = suite.build_hc(p)
    members = h.family.members
    j_img = h.j.img
    hc_pairs = [(i, j) for i, r in enumerate(h.poset.le) for j, b in enumerate(r) if b and i != j]
    lower_sets = [a for a in range(1 << p.n) if down_set(p, a) == a]

    def fail_map(detail, **extra):
        ck.fail(detail, semilattice=l.poset.to_json(), map=list(f_img), **extra)

    for l in suite._semilattices_upto(semi_bound):
        monos = monotone_map_images(p, l.poset)
        if l.n == 2 and l.join[0][1] != -1 and len(monos) != len(lower_sets):
            ck.fail(
                f"{len(monos)} monotone maps into the 2-chain vs {len(lower_sets)} lower sets",
                semilattice=l.poset.to_json(),
            )
        homs = tuple(suite.iter_homomorphisms(h.semilattice, l))
        hom_set = set(homs)
        groups = {}
        for g in homs:
            groups.setdefault(tuple([g[k] for k in j_img]), []).append(g)
        if len(homs) != len(monos):
            ck.fail(
                f"{len(homs)} powerdomain maps vs {len(monos)} monotone maps",
                semilattice=l.poset.to_json(),
            )
        up = l.poset.up_masks
        for f_img in monos:
            ext = member_sups(l, f_img, members)
            if suite.NO_SUP in ext:
                undefined = members[ext.index(suite.NO_SUP)]
                fail_map("extension undefined on a member", member=p.subset_labels(undefined))
                continue
            if any(not up[ext[i]] >> ext[j] & 1 for i, j in hc_pairs):
                fail_map("extension not monotone")
            elif ext not in hom_set:
                fail_map("extension does not preserve joins")
            if tuple([ext[k] for k in j_img]) != f_img:
                fail_map("extension does not restrict to the map")
            matching = groups.get(f_img, [])
            if len(matching) != 1 or matching[0] != ext:
                fail_map(
                    f"{len(matching)} powerdomain maps restrict to this map, expected "
                    "exactly the sup-of-image extension"
                )
    return ck.failures


def literal_lemma_3_8(p, semi_bound):
    """Lem3.8's failures by its own loop: per semilattice, the subsets refuted
    by some cached monotone map against those refuted by the restriction of
    some powerdomain homomorphism, each evaluated by ``_column_sups`` on its
    own.  The reference for the Lem3.8 slice of ``_map_sweep``."""
    from powerlab import suite
    from powerlab.enumeration import monotone_map_images

    ck = suite.VerificationReport.on_poset("Lem3.8", p, max_semilattice_n=semi_bound)
    h = suite.build_hc(p)
    j_img = h.j.img
    subsets = range(1 << p.n)

    def refutable(l, img):
        sups = suite._column_sups(l, one_map_columns(img))
        return [a for a in subsets if sups[a][0] == suite.NO_SUP]

    for l in suite._semilattices_upto(semi_bound):
        refut_maps = {a for img in monotone_map_images(p, l.poset) for a in refutable(l, img)}
        refut_homs = set()
        for g in suite.iter_homomorphisms(h.semilattice, l):
            refut_homs.update(refutable(l, tuple([g[k] for k in j_img])))
        if refut_maps != refut_homs:
            diff = refut_maps ^ refut_homs
            ck.fail(
                "map-refutable and embedding-refutable subsets disagree",
                semilattice=l.poset.to_json(),
                subsets=[p.subset_labels(a) for a in sorted(diff)],
            )
    return ck.failures


def literal_lemma_3_6(l_bound, m_bound):
    """Lem3.6's failures by its own loop: every cached homomorphism between
    semilattices at the bounds, with one ``_column_sups`` table each, compared
    at every subset and at its ``cl_f`` closure.  The functions are read at
    call time, so a mutant patched in ``powerlab.suite`` or
    ``powerlab.semilattice`` reaches this loop and the check alike.  The
    reference for ``check_lemma_3_6``."""
    from powerlab import suite

    ck = suite.VerificationReport.sweep("Lem3.6", l_bound=l_bound, m_bound=m_bound)
    for l in suite._semilattices_upto(l_bound):
        closures = [suite.cl_f(l, a) for a in range(1 << l.n)]
        for m in suite._semilattices_upto(m_bound):
            for g in zip(*suite._homomorphism_images(l, m)):
                sups = b"".join(suite._column_sups(m, one_map_columns(g)))
                if bytes([sups[c] for c in closures]) == sups:
                    continue
                for a in range(1 << l.n):
                    if sups[a] != sups[closures[a]]:
                        ck.fail(
                            "join-existence does not transport across the closure",
                            dom=l.poset.to_json(),
                            cod=m.poset.to_json(),
                            map=list(g),
                            subset=l.poset.subset_labels(a),
                        )
    return ck.failures


def literal_prop_3_4(pair_bound):
    """Prop3.4's part-1 failures by its own loop, one map at a time: each
    monotone map between semilattices at the bound is a homomorphism when it
    is among the rows of ``_homomorphism_images`` of the pair, and
    continuous when ``preimage_bits`` of each meet-irreducible closed set of
    the codomain is a closed set of the domain.  The functions are read at
    call time, so a mutant patched in ``powerlab.suite`` reaches this loop
    and the check alike.  The reference for ``check_prop_3_4(pair_bound,
    0)``."""
    from powerlab import suite
    from powerlab.poset import PosetMap, iter_monotone_maps

    ck = suite.VerificationReport.sweep("Prop3.4", pair_bound=pair_bound, consistent_bound=0)
    pool = suite._semilattices_upto(pair_bound)
    for l in pool:
        closed = set(suite.gamma_f(l).members)
        for m in pool:
            homs = set(zip(*suite._homomorphism_images(l, m)))
            irreducibles = suite.meet_irreducibles(suite.gamma_f(m))
            for img in iter_monotone_maps(l.poset, m.poset):
                f = PosetMap(l.poset, m.poset, img)
                hom = img in homs
                cont = all(f.preimage_bits(c) in closed for c in irreducibles)
                if hom != cont:
                    ck.fail(
                        f"homomorphism={hom} but continuity={cont}",
                        dom=l.poset.to_json(),
                        cod=m.poset.to_json(),
                        map=list(img),
                    )
    return ck.failures


@contextmanager
def sweep_mutant(**patches):
    """Run with each name in ``patches`` replaced by its value in
    ``powerlab.suite``, or in ``powerlab.semilattice`` where the suite does
    not hold it: a mutant of a function the map sweep, Prop3.4 or Lem3.6
    reads.  The ``_map_sweep``, ``_monotone_columns`` and
    ``_homomorphism_images`` caches, the ones that could hold a mutant's
    result, are cleared on entry and on exit, so no result leaks into or out
    of the mutant."""
    from powerlab import semilattice, suite

    def clear():
        suite._map_sweep.cache_clear()
        semilattice._monotone_columns.cache_clear()
        semilattice._homomorphism_images.cache_clear()

    clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for attr, value in patches.items():
                mp.setattr(suite if hasattr(suite, attr) else semilattice, attr, value)
            yield
    finally:
        clear()


@pytest.fixture
def cached_literal_closedness(monkeypatch):
    """``is_f_scott_closed_literal`` cached per (semilattice, subset) inside
    ``powerlab.semilattice``, where ``f_scott_continuity_violation`` reads
    it: the continuity oracle then decides each subset literally once per
    test, not once per map."""
    from powerlab import semilattice

    literal = lru_cache(maxsize=None)(semilattice.is_f_scott_closed_literal)
    monkeypatch.setattr(semilattice, "is_f_scott_closed_literal", literal)


def literal_first_refutation(p, bits, semilattices):
    """The bounded refutation search with no reduction: every semilattice in
    the order given, every cached monotone map in its order, and the join of
    the image of every element of the set, computed by ``sup_of_bits``.  The
    first (semilattice, map image) under which that join does not exist, or
    None.  The reference for the reductions of ``first_refutation``."""
    from powerlab.enumeration import monotone_map_images

    for l in semilattices:
        for img in monotone_map_images(p, l.poset):
            image = 0
            for x in iter_bits(bits):
                image |= 1 << img[x]
            if l.sup_of_bits(image) is None:
                return l, img
    return None


def literal_first_refutations(p, sets, semilattices):
    """The batch refutation search with every set whose maximal elements share
    an upper bound still in the sweep: only a set with one maximal element is
    dropped, the semilattices in which every nonempty subset has a sup are
    skipped, and the images of the maximal elements are joined through
    ``sup_table``.  Each set's first ``WitnessCert`` in canonical order, or
    None.  The reference for the bounded-set reduction of
    ``first_refutation``, which takes one set at a time."""
    from powerlab.enumeration import iter_monotone_maps
    from powerlab.hoare import WitnessCert
    from powerlab.poset import PosetError, PosetMap

    up = p.up_masks
    found = [None] * len(sets)
    pending = []
    for i, a in enumerate(sets):
        if not a:
            raise PosetError("the refutation search is defined for nonempty sets")
        tops = [x for x in iter_bits(a) if up[x] & a == 1 << x]
        if len(tops) > 1:
            pending.append((i, tops))
    for l in semilattices:
        if not pending:
            break
        sup = l.sup_table
        if None not in sup[1:]:
            continue
        for img in iter_monotone_maps(p, l.poset):
            hit = False
            for i, tops in pending:
                image = 0
                for x in tops:
                    image |= 1 << img[x]
                if sup[image] is None:
                    found[i] = WitnessCert(l, PosetMap(p, l.poset, img), sets[i], "NO_SUP", None)
                    hit = True
            if hit:
                pending = [entry for entry in pending if found[entry[0]] is None]
                if not pending:
                    break
    return found


def literal_canonical_form(p):
    """The canonical form by the unpruned search: the same colours, refinement,
    target cell and packed leaf as ``canonical_form``, but every element of
    every target cell is branched on, so an n-element antichain costs n!
    leaves.  No cache is read or written.  The reference for the twin pruning
    and the leaf packing of the production search."""
    n = p.n
    up, down = p.up_masks, p.down_masks

    def refine(colors):
        while True:
            sigs = []
            for i in range(n):
                below = sorted(colors[j] for j in iter_bits(down[i] & ~(1 << i)))
                above = sorted(colors[j] for j in iter_bits(up[i] & ~(1 << i)))
                sigs.append((colors[i], tuple(below), tuple(above)))
            ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
            new = tuple(ranking[s] for s in sigs)
            if new == colors:
                return new
            colors = new

    def leaf_bytes(colors):
        perm = sorted(range(n), key=lambda i: colors[i])
        inv = [0] * n
        for new, old in enumerate(perm):
            inv[old] = new
        acc = 0
        pos = 0
        for i in range(n):
            row = 0
            for j in iter_bits(up[perm[i]]):
                row |= 1 << inv[j]
            for j in range(n):
                if row >> j & 1:
                    acc |= 1 << pos
                pos += 1
        return bytes([n]) + acc.to_bytes((n * n + 7) // 8, "big")

    leaves = []

    def search(colors):
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            leaves.append(leaf_bytes(colors))
            return
        fresh = max(colors) + 1
        for v in target:
            branched = list(colors)
            branched[v] = fresh
            search(refine(tuple(branched)))

    initial = tuple((down[i].bit_count(), up[i].bit_count()) for i in range(n))
    ranking = {s: r for r, s in enumerate(sorted(set(initial)))}
    search(refine(tuple(ranking[s] for s in initial)))
    return min(leaves)


@lru_cache(maxsize=None)
def literal_canonical_forms(n):
    """The sorted canonical forms on ``n`` elements by the unfiltered
    generation loop: every canonical parent on n - 1 elements, extended by a
    new maximal element above each of its ideals, deduplicated by canonical
    form.  The reference for the filters of ``_canonical_forms``."""
    from powerlab import FinitePoset, canonical_form, unpack_canonical
    from powerlab.poset import _ideals

    if n == 1:
        return (canonical_form(FinitePoset.from_up_masks([1])),)
    seen = set()
    top = 1 << (n - 1)
    for prev in literal_canonical_forms(n - 1):
        p = unpack_canonical(prev)
        for ideal in _ideals(p):
            up = [row | top if ideal >> i & 1 else row for i, row in enumerate(p.up_masks)]
            up.append(top)
            seen.add(canonical_form(FinitePoset.from_up_masks(up)))
    return tuple(sorted(seen))
