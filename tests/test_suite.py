"""The verification sweep: reports, determinism, replay, and mutation hooks."""

import copy
import json

import pytest

from powerlab import (
    Config,
    PosetError,
    catalog,
    disable_closure_step,
    mutation_failures,
    replay_failure,
    run_all,
    run_statement,
)
from powerlab.enumeration import enumerate_posets, monotone_map_images
from powerlab.poset import PosetMap, scott_closure
from powerlab.semilattice import (
    gamma_f,
    is_f_scott_continuous,
    sup_exists_transport_check,
)
from powerlab.suite import (
    STATEMENT_ORDER,
    _continuous_by_table,
    _f_closed_table,
    _image_sups,
    _semilattices_upto,
    check_cor_3_11,
    check_enum,
    check_freeness,
    check_prop_3_2,
    check_thm_3_9,
    check_thm_3_10,
    exit_code_for,
)


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
        assert json.dumps(report.to_dict())  # JSON serializable

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

    def test_parallel_matches_serial(self):
        serial = run_all(Config(max_poset_n=3, suites=("thm3.10",), jobs=1))
        parallel = run_all(Config(max_poset_n=3, suites=("thm3.10",), jobs=2))
        assert strip_timing(serial.to_json())["statements"] == (
            strip_timing(parallel.to_json())["statements"]
        )

    def test_exit_code_mapping(self):
        assert exit_code_for(False, False, False) == 0
        assert exit_code_for(True, False, False) == 1
        assert exit_code_for(True, True, True) == 1
        assert exit_code_for(False, True, False) == 0
        assert exit_code_for(False, True, True) == 3


class TestMutation:
    def test_pair_join_mutant_fails_on_vee(self):
        failures = mutation_failures("pair_join")
        assert failures
        posets = {f["instance"]["poset"]["labels"][-1] for f in failures}
        assert "t" in posets  # the vee instance is among the failures

    def test_lower_mutant_fails(self):
        assert mutation_failures("lower")

    def test_unmutated_trio_passes(self):
        for p in catalog.standard_trio():
            assert check_thm_3_10(p).verdict == "PASS"

    def test_failure_payload_replays_to_fail(self):
        with disable_closure_step("pair_join"):
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

    def test_prop_3_2_rejects_a_non_monotone_map(self, monkeypatch):
        # c2's top goes below its bottom once the codomain has two elements
        monkeypatch.setattr(
            "powerlab.suite.monotone_map_images", lambda p, q: ((q.n - 1, 0),)
        )
        with pytest.raises(PosetError, match="monotone"):
            check_prop_3_2(catalog.chain(2), 2)

    def test_prop_3_4_matches_f_scott_continuity(self):
        pool = _semilattices_upto(3)
        for l in pool:
            closed = _f_closed_table(l)
            for m in pool:
                for img in monotone_map_images(l.poset, m.poset):
                    f = PosetMap(l.poset, m.poset, img)
                    assert _continuous_by_table(f, closed, gamma_f(m).members) == (
                        is_f_scott_continuous(f, l, m)
                    )
