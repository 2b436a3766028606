"""The finite collapse of directed sups, which the production closures rely on.

A finite directed set has a greatest element, so it contains its sup and the
directed-sup step of the literal Scott and F-Scott closures never adds an
element.  ``scott_closure``, ``closure_in_family`` and ``cl_f`` therefore omit
that step.  These tests keep the omission a checked fact: the literal
directed-subset search still runs here, and the closures are compared with
the old fixpoints that included it.  On instances past that search's reach
the closures are compared with the same fixpoints without the step.
"""

import random

from powerlab import (
    build_hc,
    closure_in_family,
    cl_f,
    enumerate_v_semilattices,
    gamma,
    is_scott_closed,
    scott_closure,
    sup,
)
from powerlab.hoare import gamma_c
from powerlab.poset import enumerate_directed_subsets

from conftest import literal_fixpoint, small_posets


def family_indices(family, members):
    out = 0
    for m in members:
        out |= 1 << family.index_of[m]
    return out


class TestDirectedSetsContainTheirSup:
    def check(self, p):
        for d in enumerate_directed_subsets(p.up_masks, p.full_mask):
            s = sup(p, d)
            assert s is not None and d >> s & 1

    def test_posets(self):
        for p in small_posets(5):
            self.check(p)

    def test_closed_set_families(self):
        for p in small_posets(4):
            self.check(gamma(p).poset)

    def test_powerdomains(self):
        for p in small_posets(4):
            self.check(build_hc(p).poset)


class TestClosuresMatchLiteralFixpoint:
    def test_scott_closure(self):
        for p in small_posets(4):
            for a in range(1 << p.n):
                assert scott_closure(p, a) == literal_fixpoint(p, a)

    def test_closure_in_family(self):
        for p in small_posets(4):
            fam = gamma(p)
            fp = fam.poset
            subfamilies = [gamma_c(p).members] + [[m] for m in fam.members]
            for sub in subfamilies:
                got = family_indices(fam, closure_in_family(fam, sub).members)
                assert got == literal_fixpoint(fp, family_indices(fam, sub))

    def test_cl_f(self):
        lattices = [l for n in range(1, 6) for l in enumerate_v_semilattices(n)]
        lattices += [build_hc(p).semilattice for p in small_posets(4)]
        for l in lattices:
            for a in range(1 << l.n):
                assert cl_f(l, a) == literal_fixpoint(l.poset, a, l.join)


class TestClosuresMatchRoundByRoundFixpoint:
    """The larger instances, against the literal fixpoint without its
    exhaustive directed-sup step (which the classes above keep on the small
    ones): ``cl_f``'s semi-naive worklist against re-joining every pair on
    every round, and ``closure_in_family``'s member-inclusion test against
    the down-set in the family's inclusion poset."""

    def test_cl_f_on_seeded_powerdomain_subsets(self):
        # every size of subset equally likely, so sparse starts that grow over
        # many rounds are drawn as often as dense ones
        rng = random.Random(0)
        for p in small_posets(6):
            l = build_hc(p).semilattice
            for _ in range(200):
                a = sum(1 << x for x in rng.sample(range(l.n), rng.randint(0, l.n)))
                assert cl_f(l, a) == literal_fixpoint(l.poset, a, l.join, directed_sups=False)

    def test_closure_in_family(self):
        for p in small_posets(5):
            fam = gamma(p)
            fp = fam.poset
            subfamilies = [gamma_c(p).members] + [[m] for m in fam.members]
            for sub in subfamilies:
                got = family_indices(fam, closure_in_family(fam, sub).members)
                assert got == literal_fixpoint(fp, family_indices(fam, sub), directed_sups=False)


def test_scott_closure_is_least_literally_closed_superset():
    for p in small_posets(4):
        closed = [b for b in range(1 << p.n) if is_scott_closed(p, b)]
        for a in range(1 << p.n):
            c = scott_closure(p, a)
            assert is_scott_closed(p, c) and a & ~c == 0
            assert all(c & ~b == 0 for b in closed if a & ~b == 0)
