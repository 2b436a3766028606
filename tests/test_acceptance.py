"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 8 exercises the three closure-step mutants.  Dropping
lower-closure or pair joins changes cl_f, and some statement check must notice;
dropping directed sups is an equivalent mutant on finite instances, so the test
computes that equivalence against the literal operator and then requires that
no statement check reports a failure (see the test's docstring).
"""

import time

import pytest

from powerlab import (
    Config,
    build_hc,
    bruteforce_poset_count,
    catalog,
    cl_f,
    enumerate_posets,
    run_statement,
)

from conftest import closure_mutant, literal_fixpoint, mutant_failures


def _sweep(statement, max_poset_n, max_semilattice_n=4):
    cfg = Config(
        max_poset_n=max_poset_n,
        max_semilattice_n=max_semilattice_n,
        suites=(statement.lower(),),
    )
    return run_statement(statement, cfg)


def _assert_clean(criterion, reports, expect_inconclusive_zero=False):
    failures = [f for r in reports for f in r.failures]
    inconclusive = [x for r in reports for x in r.inconclusive]
    line = f"[criterion {criterion}] "
    if failures or (expect_inconclusive_zero and inconclusive):
        print(line + f"FAIL ({len(failures)} failures, {len(inconclusive)} inconclusive)")
    else:
        print(line + f"PASS ({len(reports)} instances)")
    assert not failures, failures[:3]
    if expect_inconclusive_zero:
        assert not inconclusive, inconclusive[:3]


def test_criterion_1_thm_3_10_order_isomorphism():
    """Closed-set family vs F-Scott closure system of the powerdomain: order
    isomorphism and the exact +1 count, on every poset up to five elements."""
    t0 = time.time()
    assert len(enumerate_posets(5)) == 63
    reports = _sweep("Thm3.10", 5)
    assert len(reports) == 87  # 1 + 2 + 5 + 16 + 63
    _assert_clean(1, reports)
    elapsed = time.time() - t0
    print(f"[criterion 1] elapsed {elapsed:.1f}s (budget 120s)")
    assert elapsed < 120


def test_criterion_2_freeness():
    """Unique join-preserving extension of every monotone map, for all posets
    up to four elements and all semilattices up to four elements."""
    t0 = time.time()
    reports = _sweep("Lem2.3", 4) + _sweep("Freeness", 4)
    assert len(reports) == 48
    _assert_clean(2, reports)
    elapsed = time.time() - t0
    print(f"[criterion 2] elapsed {elapsed:.1f}s (budget 600s)")
    assert elapsed < 600


def test_criterion_3_thm_3_9_characterization():
    """Generic closure equals the consistent family, the canonical witness
    refutes every non-member, and members survive the bounded search; no
    instance may come back inconclusive."""
    reports = _sweep("Thm3.9", 5, max_semilattice_n=4)
    assert len(reports) == 87
    _assert_clean(3, reports, expect_inconclusive_zero=True)


def test_criterion_4_cor_3_11_uniqueness():
    """Powerdomains are isomorphic exactly when the posets are, over all pairs
    at the size-four cap, sobriety verified first."""
    reports = _sweep("Cor3.11", 4)
    assert reports[0].instance["pairs"] == 24 * 25 // 2
    _assert_clean(4, reports)


def test_criterion_5_propositions_and_lemmas():
    """Closure transport, homomorphism = F-Scott continuity, closure of a
    consistent set, closure-invariant refutability, principal closed sets,
    and embedding-refutability, each at its stated bound."""
    reports = []
    for statement in ("Prop3.2", "Prop3.4", "Lem3.6", "Lem3.7", "Lem3.8"):
        reports.extend(_sweep(statement, 5))
    _assert_clean(5, reports)


def test_criterion_6_relatively_consistent_agreement():
    """The relatively consistent closed families coincide with the
    powerdomain members on every poset up to five elements, with the
    way-below relation recomputed by brute force."""
    reports = _sweep("Thm2.2", 5)
    assert len(reports) == 87
    _assert_clean(6, reports)


def test_criterion_7_enumeration_self_test():
    """Per-size class counts match the independent brute-force oracle."""
    oracle = [bruteforce_poset_count(n) for n in range(1, 6)]
    emitted = [len(enumerate_posets(n)) for n in range(1, 6)]
    line = "PASS" if oracle == emitted else "FAIL"
    print(f"[criterion 7] {line} (oracle {oracle}, emitted {emitted})")
    assert emitted == oracle
    # the oracle-computed sequence, frozen after the first oracle run
    assert oracle == [1, 2, 5, 16, 63]
    reports = _sweep("Enum", 5)
    _assert_clean(7, reports)


def _subsets_changed_by(step):
    """Per trio poset, how many subsets of its powerdomain semilattice get a
    different closure from cl_f with ``step`` disabled than from the literal
    operator (lower, pair-join and exhaustive directed-sup steps)."""
    counts = []
    for p in catalog.standard_trio():
        l = build_hc(p).semilattice
        with closure_mutant(step):
            mutant = [cl_f(l, a) for a in range(1 << l.n)]
        counts.append(
            sum(c != literal_fixpoint(l.poset, a, l.join) for a, c in enumerate(mutant))
        )
    return counts


@pytest.mark.parametrize("step", ["lower", "pair_join", "directed_sup"])
def test_criterion_8_mutation_sensitivity(step):
    """No cl_f closure step can be dropped unnoticed on the two-antichain, the
    vee and the wedge.

    Each mutant is first compared with the literal F-Scott closure on every
    subset of each trio powerdomain.  Dropping lower-closure or pair joins
    changes the operator there, so some statement check must fail.  Dropping
    directed sups is an equivalent mutant on finite instances: every finite
    directed set has a greatest element (two distinct maximal elements cannot
    have an upper bound inside the set), so its sup already belongs to it and
    the step never adds an element.  That leg requires the computed
    equivalence, every subset agreeing with the literal operator, and then
    requires that no statement check reports a failure, since a check that
    fails on the real operator's twin is itself wrong.
    """
    changed = _subsets_changed_by(step)
    failures = mutant_failures(step)
    equivalent = step == "directed_sup"
    ok = any(changed) != equivalent and bool(failures) != equivalent
    line = "PASS" if ok else "FAIL"
    print(
        f"[criterion 8/{step}] {line} ({changed} subsets changed per trio poset, "
        f"{len(failures)} induced failures)"
    )
    if equivalent:
        assert not any(changed), f"mutant {step!r} changes cl_f on {changed} subsets"
        assert not failures, f"equivalent mutant {step!r} induced failures: {failures[:3]}"
    else:
        assert any(changed), f"mutant {step!r} leaves cl_f unchanged on the trio"
        assert failures, f"mutant {step!r} was not detected by any statement check"
