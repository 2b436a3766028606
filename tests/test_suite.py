"""The verification sweep: reports, determinism, replay, and closure mutants."""

import copy
import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from powerlab import (
    Config,
    PosetError,
    catalog,
    replay_failure,
    run_all,
    run_statement,
)
from powerlab.enumeration import canonical_form, enumerate_posets, monotone_map_images
from powerlab.families import gamma0
from powerlab.hoare import WitnessCert, build_hc, partial_join
from powerlab.poset import PosetMap, iter_bits, scott_closure
from powerlab.semilattice import (
    FClosureSystem,
    VSemilattice,
    _homomorphism_images,
    gamma_f,
    is_f_scott_continuous,
    sup_exists_transport_check,
)
from powerlab.suite import (
    STATEMENT_ORDER,
    _continuous_by_table,
    _f_closed_table,
    _fibres,
    _image_sups,
    _semilattices_upto,
    check_cor_3_11,
    check_def_2_1,
    check_enum,
    check_freeness,
    check_prop_3_2,
    check_prop_3_4,
    check_thm_3_9,
    check_thm_3_10,
    exit_code_for,
)

from conftest import closure_mutant, mutant_failures, small_posets, sweep_mutant


def strip_timing(summary_json):
    out = copy.deepcopy(summary_json)
    for group in out["statements"]:
        group.pop("wall_ms")
    return out


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.max_poset_n == 5 and cfg.max_semilattice_n == 4
        assert cfg.statements == STATEMENT_ORDER

    def test_suite_selection_and_aliases(self):
        cfg = Config(suites=("thm3.10", "freeness"))
        assert cfg.statements == ("Freeness", "Thm3.10")
        assert Config(suites=("THM3.9",)).statements == ("Thm3.9",)

    def test_unknown_suite_rejected(self):
        with pytest.raises(PosetError, match="unknown suite"):
            Config(suites=("thm9.99",))

    def test_caps_validated(self):
        with pytest.raises(PosetError, match="caps"):
            Config(max_poset_n=0)

    @pytest.mark.parametrize(
        "name, statement",
        [
            ("def2.1", "Def2.1"),
            ("thm2.2", "Thm2.2"),
            ("rgamma", "Thm2.2"),
            ("lemma2.3", "Lem2.3"),
            ("lem2.3", "Lem2.3"),
            ("freeness", "Freeness"),
            ("thm2.4", "Freeness"),
            ("prop3.2", "Prop3.2"),
            ("prop3.4", "Prop3.4"),
            ("lemma3.6", "Lem3.6"),
            ("lem3.6", "Lem3.6"),
            ("lemma3.7", "Lem3.7"),
            ("lem3.7", "Lem3.7"),
            ("lemma3.8", "Lem3.8"),
            ("lem3.8", "Lem3.8"),
            ("thm3.9", "Thm3.9"),
            ("thm3.10", "Thm3.10"),
            ("cor3.11", "Cor3.11"),
            ("sober", "Sober"),
            ("enum", "Enum"),
        ],
    )
    def test_every_suite_name_selects_its_statement(self, name, statement):
        assert Config(suites=(name,)).statements == (statement,)
        assert Config(suites=(name.upper(),)).statements == (statement,)


class TestChecks:
    def test_every_statement_passes_at_small_caps(self):
        cfg = Config(max_poset_n=3, max_semilattice_n=3)
        for statement in STATEMENT_ORDER:
            for report in run_statement(statement, cfg):
                assert report.verdict == "PASS", (statement, report.failures)

    def test_report_fields(self, vee):
        report = check_thm_3_10(vee)
        assert report.statement == "Thm3.10"
        assert report.verdict == "PASS"
        assert report.instance["n"] == 3
        assert report.wall_ms >= 0
        assert json.dumps(dataclasses.asdict(report))  # JSON serializable

    def test_thm_3_10_family_posets_share_a_canonical_form(self):
        # Thm3.10 checks eta as an order isomorphism; the canonical forms of
        # the two family posets must agree with that witness
        for n in range(1, 5):
            for p in enumerate_posets(n):
                closure_system = gamma_f(build_hc(p).semilattice)
                assert canonical_form(gamma0(p).poset) == canonical_form(
                    closure_system.family.poset
                )

    def test_def_2_1_join_table_matches_partial_join(self):
        # Def2.1 runs its laws over the member-index join table
        for n in range(1, 5):
            for p in enumerate_posets(n):
                h = build_hc(p)
                members = h.family.members
                for i, a in enumerate(members):
                    for k, b in enumerate(members):
                        v = h.semilattice.join[i][k]
                        assert partial_join(h, a, b) == (None if v == -1 else members[v])

    def test_def_2_1_reports_a_wrong_join_entry(self, monkeypatch, vee):
        # one cell says {a} v {b} is the whole vee; the table skips validation
        h = build_hc(vee)
        index = h.family.index_of
        a, b = index[vee.subset_from_labels(["a"])], index[vee.subset_from_labels(["b"])]
        join = [list(row) for row in h.semilattice.join]
        join[a][b] = index[vee.full_mask]
        bad = VSemilattice.__new__(VSemilattice)
        bad.poset, bad.join = h.poset, tuple(map(tuple, join))
        monkeypatch.setattr(
            "powerlab.suite.build_hc", lambda p: dataclasses.replace(h, semilattice=bad)
        )
        report = check_def_2_1(vee, 0)
        assert report.verdict == "FAIL"
        details = {f["detail"] for f in report.failures}
        assert {"join is not the union", "join not commutative"} <= details

    @pytest.mark.parametrize(
        "bound, verdict, detail",
        [
            (4, "FAIL", "canonical witness failed to refute a non-member"),
            (1, "INCONCLUSIVE", "non-member survived the bounded refutation search"),
        ],
    )
    def test_thm_3_9_non_member_left_to_the_search(self, monkeypatch, bound, verdict, detail):
        # the canonical witness never refutes, so the non-member {a, b} of the
        # antichain falls to the bounded search: a map onto a two-element
        # antichain refutes it at bound 4, and nothing can at bound 1
        monkeypatch.setattr(
            "powerlab.hoare.sup_of_image",
            lambda l, f, bits: WitnessCert(l, f, bits, "SUP_EXISTS", 0),
        )
        p = catalog.antichain(2)
        report = check_thm_3_9(p, bound)
        assert report.verdict == verdict
        findings = report.failures + report.inconclusive
        assert [(x["detail"], x["subset"]) for x in findings] == [(detail, p.subset_labels(3))]

    def test_thm_3_9_zero_inconclusive(self, wedge):
        report = check_thm_3_9(wedge, 3)
        assert report.verdict == "PASS"
        assert report.inconclusive == []

    def test_cor_3_11_counts_pairs(self):
        report = check_cor_3_11(3)
        assert report.verdict == "PASS"
        assert report.instance["pairs"] == 8 * 9 // 2

    def test_enum_reports_counts(self):
        report = check_enum(4)
        assert report.verdict == "PASS"
        assert report.instance["counts"] == {1: 1, 2: 2, 3: 5, 4: 16}


class TestRunAll:
    def test_summary_shape_and_exit(self):
        cfg = Config(max_poset_n=2, max_semilattice_n=2)
        summary = run_all(cfg)
        data = summary.to_json()
        assert data["all_pass"] is True
        assert summary.exit_code() == 0
        for group in data["statements"]:
            assert set(group) == {
                "statement",
                "bound",
                "instances",
                "failures",
                "inconclusive",
                "wall_ms",
            }

    def test_single_point_universe_trivially_passes(self):
        summary = run_all(Config(max_poset_n=1, max_semilattice_n=1))
        assert summary.to_json()["all_pass"] is True

    def test_deterministic_modulo_timing(self):
        cfg = Config(max_poset_n=2, max_semilattice_n=2, suites=("thm3.10", "thm3.9"))
        a = strip_timing(run_all(cfg).to_json())
        b = strip_timing(run_all(cfg).to_json())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_exit_code_mapping(self):
        assert exit_code_for(False, False, False) == 0
        assert exit_code_for(True, False, False) == 1
        assert exit_code_for(True, True, True) == 1
        assert exit_code_for(False, True, False) == 0
        assert exit_code_for(False, True, True) == 3


class TestMutation:
    def test_pair_join_mutant_fails_on_vee(self):
        failures = mutant_failures("pair_join")
        assert failures
        posets = {f["instance"]["poset"]["labels"][-1] for f in failures}
        assert "t" in posets  # the vee instance is among the failures

    def test_lower_mutant_fails(self):
        assert mutant_failures("lower")

    def test_unmutated_trio_passes(self):
        for p in catalog.standard_trio():
            assert check_thm_3_10(p).verdict == "PASS"

    def test_failure_payload_replays_to_fail(self):
        with closure_mutant("pair_join"):
            report = check_thm_3_10(catalog.vee())
            assert report.verdict == "FAIL"
            payload = json.loads(json.dumps(report.failures[0]))
            assert replay_failure(payload) == "FAIL"
        # with the mutation gone the same instance passes again
        assert replay_failure(payload) == "PASS"

    def test_replay_global_statement(self):
        report = check_cor_3_11(2)
        payload = {"statement": "Cor3.11", "bounds": {"max_poset_n": 2}}
        assert replay_failure(payload) == "PASS"

    @pytest.mark.parametrize("statement", STATEMENT_ORDER)
    def test_every_statement_replays(self, statement):
        # per-poset payloads carry a report's instance, global ones the group bound
        cfg = Config(max_poset_n=2, max_semilattice_n=2, suites=(statement,))
        (group,) = run_all(cfg).to_json()["statements"]
        report = run_statement(statement, cfg)[-1]
        payload = {"statement": statement, "bounds": group["bound"]}
        if "poset" in report.instance:
            payload["instance"] = report.instance
        assert replay_failure(json.loads(json.dumps(payload))) == "PASS"


def test_traced_spans_cover_the_catalog():
    # the benchmark's tracer names one span per statement id, and wraps library
    # functions and reads their lru_caches by name; a statement missing there
    # would run untimed, and a renamed function or cache would stop the tracer
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.STATEMENTS == STATEMENT_ORDER
    for modname, attr, _prefix, kinds in spans.FUNCTIONS:
        mod = importlib.import_module("powerlab." + modname)
        assert callable(getattr(mod, attr, None)), f"powerlab.{modname}.{attr}"
        for kind in kinds:
            if kind.startswith("misses:"):
                cache = kind.split(":", 1)[1]
                assert hasattr(getattr(mod, cache, None), "cache_info"), f"powerlab.{modname}.{cache}"


class TestFreenessDetail:
    def test_extension_counts_match(self, vee):
        # one powerdomain map restricts to each monotone map, bijectively
        report = check_freeness(vee, 3)
        assert report.verdict == "PASS"


class TestTabulatedVerdicts:
    """The map sweeps look verdicts up in tables; each lookup must agree with
    the library function that decides the same instance."""

    def test_prop_3_2_matches_transport_check(self):
        for n in range(1, 4):
            for p in enumerate_posets(n):
                closures = [scott_closure(p, a) for a in range(1 << n)]
                for l in _semilattices_upto(4):
                    for img in monotone_map_images(p, l.poset):
                        sups = _image_sups(l, img)
                        f = PosetMap(p, l.poset, img)
                        for a in range(1 << n):
                            assert (sups[a] == sups[closures[a]]) == (
                                sup_exists_transport_check(p, l, f, a)
                            )

    def test_prop_3_4_matches_f_scott_continuity(self):
        pool = _semilattices_upto(3)
        for l in pool:
            closed = _f_closed_table(l)
            for m in pool:
                closed_sets = [tuple(iter_bits(c)) for c in gamma_f(m).members]
                for img in monotone_map_images(l.poset, m.poset):
                    f = PosetMap(l.poset, m.poset, img)
                    assert _continuous_by_table(img, closed, m.n, closed_sets) == (
                        is_f_scott_continuous(f, l, m)
                    )

    def test_prop_3_4_irreducibles_match_f_scott_continuity(self):
        # Prop3.4 tests each map on the meet-irreducible closed sets only
        pool = _semilattices_upto(4)
        for l in pool:
            closed = _f_closed_table(l)
            for m in pool:
                irreducibles = [tuple(iter_bits(c)) for c in gamma_f(m).meet_irreducibles()]
                for img in monotone_map_images(l.poset, m.poset):
                    f = PosetMap(l.poset, m.poset, img)
                    assert _continuous_by_table(img, closed, m.n, irreducibles) == (
                        is_f_scott_continuous(f, l, m)
                    )

    def test_preimage_table_matches_preimage_bits(self):
        # a subset's preimage is the union of its elements' fibres
        pool = _semilattices_upto(3)
        for l in pool:
            for m in pool:
                for img in monotone_map_images(l.poset, m.poset):
                    f = PosetMap(l.poset, m.poset, img)
                    fibres = _fibres(img, m.n)
                    for c in range(1 << m.n):
                        pre = 0
                        for v in iter_bits(c):
                            pre |= fibres[v]
                        assert pre == f.preimage_bits(c)


class TestTableMutants:
    """A mutant of a table the map statements read must make one of them fail."""

    def test_prop_3_2_catches_invented_sups(self):
        # every subset whose image has no sup is given the first image's element
        def inventing(l, img):
            return [img[0] if s < 0 else s for s in _image_sups(l, img)]

        posets = small_posets(3)
        with sweep_mutant("_image_sups", inventing):
            reports = [check_prop_3_2(p, 3) for p in posets]
        details = {f["detail"] for r in reports for f in r.failures}
        assert details == {"the sup tables and the refutation search disagree on refutability"}
        assert [check_prop_3_2(p, 3).verdict for p in posets] == ["PASS"] * len(posets)

    def test_prop_3_4_needs_every_irreducible(self, monkeypatch):
        assert check_prop_3_4(3, 1).verdict == "PASS"
        irreducibles = FClosureSystem.meet_irreducibles
        monkeypatch.setattr(FClosureSystem, "meet_irreducibles", lambda fc: irreducibles(fc)[1:])
        report = check_prop_3_4(3, 1)
        assert report.verdict == "FAIL"
        assert report.failures[0]["detail"] == "homomorphism=False but continuity=True"


def _sup_oracle(f: PosetMap, l: VSemilattice) -> list:
    # the literal sup of each subset's image, -1 where there is none
    sups = [l.sup_of_bits(f.image_bits(a)) for a in range(1 << f.dom.n)]
    return [-1 if s is None else s for s in sups]


class TestImageSups:
    """``_image_sups`` joins along the padded join columns; every entry must
    be the literal sup of the subset's image."""

    def test_monotone_maps_match_sup_of_bits(self):
        for n in range(1, 5):
            for p in enumerate_posets(n):
                for l in _semilattices_upto(4):
                    for img in monotone_map_images(p, l.poset):
                        f = PosetMap(p, l.poset, img)
                        assert _image_sups(l, img) == _sup_oracle(f, l)

    def test_homomorphisms_match_sup_of_bits(self):
        # Lem3.6's domain side: homomorphisms between semilattices
        pool = _semilattices_upto(3)
        for l in pool:
            for m in pool:
                for g in _homomorphism_images(l, m):
                    f = PosetMap(l.poset, m.poset, g)
                    assert _image_sups(m, g) == _sup_oracle(f, m)
