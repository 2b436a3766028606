"""The verification sweep: reports, determinism, replay, and closure mutants."""

import copy
import importlib.util
import json
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from powerlab import (
    Config,
    InvariantError,
    PosetError,
    catalog,
    replay_failure,
    run_all,
    run_statement,
    suite,
)
from powerlab.cli import main
from powerlab.enumeration import canonical_form, enumerate_posets, monotone_map_images
from powerlab.families import gamma, gamma0
from powerlab.hoare import ConsistentHoare, WitnessCert, build_hc, partial_join
from powerlab.poset import PosetMap, scott_closure
from powerlab.semilattice import (
    NO_SUP,
    VSemilattice,
    _homomorphism_images,
    _monotone_columns,
    cl_f,
    gamma_f,
    is_f_scott_continuous,
    meet_irreducibles,
    sup_exists_transport_check,
)
from powerlab.suite import (
    STATEMENT_ORDER,
    _column_sups,
    _membership_table,
    _poset_instance,
    _semilattices_upto,
    _transport_breaks,
    check_cor_3_11,
    check_enum,
    check_freeness,
    check_lemma_3_7,
    check_prop_3_2,
    check_prop_3_4,
    check_sober,
    check_thm_2_2,
    check_thm_3_9,
    check_thm_3_10,
    exit_code_for,
)

from conftest import (
    closure_mutant,
    mutant_failures,
    order_violations,
    small_posets,
    sweep_mutant,
    without_pair,
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

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"max_poset_n": "5"}, "max_poset_n must be an integer"),
            ({"max_poset_n": 2.5}, "max_poset_n must be an integer"),
            ({"max_poset_n": True}, "max_poset_n must be an integer"),
            ({"suites": [1]}, "suites must be a list of names"),
            ({"suites": "sober"}, "suites must be a list of names"),
            ({"strict": "no"}, "strict must be true or false"),
            ({"strict": 1}, "strict must be true or false"),
            # no statement would run, and the report would claim all_pass
            ({"suites": ()}, "suites must name at least one statement"),
            # every name is resolved, not only those before "all"
            ({"suites": ("all", "bogus")}, "unknown suite name 'bogus'"),
        ],
        ids=[
            "str-cap",
            "float-cap",
            "bool-cap",
            "int-suite",
            "string-suites",
            "string-strict",
            "int-strict",
            "no-suites",
            "unknown-after-all",
        ],
    )
    def test_mistyped_settings_rejected(self, settings, message):
        with pytest.raises(PosetError, match=message):
            Config(**settings)

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
        fields = ("statement", "bounds", "instance", "failures", "inconclusive")
        assert json.dumps({name: getattr(report, name) for name in fields})  # JSON serializable

    def test_thm_3_10_family_posets_share_a_canonical_form(self):
        # Thm3.10 checks eta as an order isomorphism; the canonical forms of
        # the two family posets must agree with that witness
        for n in range(1, 5):
            for p in enumerate_posets(n):
                closure_system = gamma_f(build_hc(p).semilattice)
                assert canonical_form(gamma0(p).poset) == canonical_form(closure_system.poset)

    def test_def_2_1_join_table_matches_partial_join(self):
        # partial_join reads the member-index join table that Def2.1 validates
        for n in range(1, 5):
            for p in enumerate_posets(n):
                h = build_hc(p)
                members = h.family.members
                for i, a in enumerate(members):
                    for k, b in enumerate(members):
                        v = h.semilattice.join[i][k]
                        assert partial_join(h, a, b) == (None if v == -1 else members[v])

    def test_def_2_1_reports_a_wrong_join_entry(self, monkeypatch, vee):
        # the vee's powerdomain loses the union of its two minimal points, so
        # its join table leaves that consistent pair undefined; the run path
        # reports build_hc's validation error as Def2.1's failure on the vee
        monkeypatch.setattr("powerlab.hoare.closure_in_family", without_pair)
        monkeypatch.setattr("powerlab.suite.build_hc", build_hc.__wrapped__)
        reports = run_statement("def2.1", Config(max_poset_n=3))
        (report,) = [r for r in reports if r.verdict == "FAIL"]
        assert report.instance["canonical"] == canonical_form(vee).hex()
        assert ["not its consistent join" in f["detail"] for f in report.failures] == [True]

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
            "powerlab.hoare._image_cert",
            lambda l, f, bits: WitnessCert(l, f, bits, "SUP_EXISTS", 0),
        )
        p = catalog.antichain(2)
        report = check_thm_3_9(p, bound)
        assert report.verdict == verdict
        findings = report.failures + report.inconclusive
        assert [(x["detail"], x["subset"]) for x in findings] == [(detail, p.subset_labels(3))]

    def test_thm_3_9_member_refuted(self, monkeypatch, wedge):
        # the canonical witness refutes everything, so every member fails with
        # its witness, and each payload replays to FAIL only under the patch
        monkeypatch.setattr(
            "powerlab.hoare._image_cert",
            lambda l, f, bits: WitnessCert(l, f, bits, "NO_SUP", None),
        )
        h = build_hc(wedge)
        members = [wedge.subset_labels(a) for a in gamma(wedge).members if a in h.family]
        report = check_thm_3_9(wedge, 4)
        assert report.verdict == "FAIL" and len(members) == 3
        assert [(x["detail"], x["subset"]) for x in report.failures] == [
            ("powerdomain member refuted", m) for m in members
        ]
        payloads = json.loads(json.dumps(report.failures))
        for payload in payloads:
            assert payload["witness"]["verdict"] == "NO_SUP"
            assert payload["witness"]["subset"] == payload["subset"]
            assert replay_failure(payload) == "FAIL"
        monkeypatch.undo()
        assert [replay_failure(payload) for payload in payloads] == ["PASS"] * 3

    def test_thm_3_9_closure_added_members(self, monkeypatch, vee):
        def closure_added(p):
            h = build_hc(p)
            return ConsistentHoare(h.base, h.family, h.poset, h.semilattice, h.j, False)

        monkeypatch.setattr("powerlab.suite.build_hc", closure_added)
        report = check_thm_3_9(vee, 4)
        assert report.verdict == "FAIL"
        assert [x["detail"] for x in report.failures] == [
            "closure of the consistent family added members"
        ]

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

    def test_a_passing_run_builds_no_instance(self, monkeypatch):
        # a poset report builds its instance when it is first read, by a
        # failure payload or a caller: the 515 poset reports of a passing
        # default run build none, and a read report builds its own once
        built = []

        def counted(p):
            built.append(p)
            return _poset_instance(p)

        monkeypatch.setattr(suite, "_poset_instance", counted)
        assert run_all().to_json()["all_pass"] is True
        assert built == []
        (report,) = run_statement("Def2.1", Config(max_poset_n=1))
        assert built == []
        assert report.instance == report.instance
        assert len(built) == 1
        assert report.instance == _poset_instance(built[0])

    def test_exit_code_mapping(self):
        assert exit_code_for(False, False, False) == 0
        assert exit_code_for(True, False, False) == 1
        assert exit_code_for(True, True, True) == 1
        assert exit_code_for(False, True, False) == 0
        assert exit_code_for(False, True, True) == 3


# the two findings of Thm3.10's order test
THM_3_10_ORDER_DETAILS = {"map does not preserve inclusion", "image does not union back to the set"}


def _unclosed_at_odd_sizes(l, bits):
    # the embedded image itself, unclosed, when it has an odd number of
    # points: every image still unions back to its set, but a closed image
    # below an unclosed one breaks preservation
    return bits if bits.bit_count() % 2 else cl_f(l, bits)


def _everything(l, bits):
    # every image the full powerdomain: preserved, never reflected
    return l.poset.full_mask


# mutants of cl_f as check_thm_3_10 reads it, in powerlab.suite
ETA_MUTANTS = {"unclosed_at_odd_sizes": _unclosed_at_odd_sizes, "everything": _everything}


@contextmanager
def _order_mutant(name):
    """Run under the mutant of eta named, or under ``closure_mutant(name)``."""
    if name not in ETA_MUTANTS:
        with closure_mutant(name):
            yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("powerlab.suite.cl_f", ETA_MUTANTS[name])
        yield


_A12, _VEE = catalog.antichain(12).to_json(), catalog.vee().to_json()

UNTRUSTED_PAYLOADS = {
    "a bound past the cap": {
        "statement": "Lem2.3",
        "bounds": {"max_poset_n": 12, "max_semilattice_n": 4},
        "instance": {"poset": _A12},
    },
    "a poset past its bound": {
        "statement": "Lem2.3",
        "bounds": {"max_poset_n": 4, "max_semilattice_n": 4},
        "instance": {"poset": _A12},
    },
    "a string bound": {
        "statement": "Freeness",
        "bounds": {"max_poset_n": 3, "max_semilattice_n": "4"},
        "instance": {"poset": _VEE},
    },
    "a boolean bound": {"statement": "Cor3.11", "bounds": {"max_poset_n": True}},
    "a negative bound": {"statement": "Cor3.11", "bounds": {"max_poset_n": -1}},
    # a bound of 0 would replay as PASS over no instance at all
    "Enum over no size": {"statement": "Enum", "bounds": {"max_poset_n": 0}},
    "Cor3.11 over no poset": {"statement": "Cor3.11", "bounds": {"max_poset_n": 0}},
    "Lem3.6 over no pair": {"statement": "Lem3.6", "bounds": {"l_bound": 0, "m_bound": 0}},
    "Prop3.4 over no pair": {
        "statement": "Prop3.4", "bounds": {"pair_bound": 0, "consistent_bound": 0}
    },
    "Lem3.7 over no semilattice": {
        "statement": "Lem3.7", "bounds": {"semi_bound": 0, "hc_base_bound": 0}
    },
    "Lem2.3 over no semilattice": {
        "statement": "Lem2.3",
        "bounds": {"max_poset_n": 3, "max_semilattice_n": 0},
        "instance": {"poset": _VEE},
    },
    "Thm3.9 over no semilattice": {
        "statement": "Thm3.9",
        "bounds": {"max_poset_n": 3, "max_semilattice_n": 0},
        "instance": {"poset": _VEE},
    },
    "an unknown bound key": {"statement": "Cor3.11", "bounds": {"max_poset_n": 2, "jobs": 1}},
    "a global bound missing": {"statement": "Prop3.4", "bounds": {"pair_bound": 2}},
    "a per-poset bound missing": {
        "statement": "Sober", "bounds": {"max_semilattice_n": 2}, "instance": {"poset": _VEE}
    },
    "no statement": {"bounds": {"max_poset_n": 2}},
    "no bounds": {"statement": "Cor3.11"},
    "no instance": {"statement": "Sober", "bounds": {"max_poset_n": 3}},
    "no poset": {"statement": "Sober", "bounds": {"max_poset_n": 3}, "instance": {"n": 3}},
    "a poset as text": {"statement": "Sober", "bounds": {"max_poset_n": 3}, "instance": {"poset": "{"}},
    "no payload": ["Cor3.11", {"max_poset_n": 2}],
}


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

    def test_double_loop_finds_no_order_violation(self):
        for p in small_posets(5):
            assert order_violations(p) == []

    @pytest.mark.parametrize("mutant", ["lower", "pair_join", "directed_sup", *sorted(ETA_MUTANTS)])
    def test_every_double_loop_violation_is_an_order_finding(self, mutant):
        # preservation on covering pairs and the unions of the images stand
        # in for the test of every pair: wherever that test finds a pair,
        # the check must report an order finding.  The closure mutants leave
        # eta an order embedding, so the double loop finds no pair under
        # them; each mutant of eta itself breaks the order on some poset
        violated = 0
        with _order_mutant(mutant):
            for p in [*catalog.standard_trio(), *small_posets(4)]:
                if order_violations(p):
                    violated += 1
                    details = {f["detail"] for f in check_thm_3_10(p).failures}
                    assert details & THM_3_10_ORDER_DETAILS, p
        assert bool(violated) == (mutant in ETA_MUTANTS)

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

    @pytest.mark.parametrize("payload", list(UNTRUSTED_PAYLOADS.values()), ids=list(UNTRUSTED_PAYLOADS))
    def test_an_untrusted_payload_is_refused_before_any_check(self, monkeypatch, payload):
        # a payload is outside input: its bounds and poset are checked before
        # _run_check, which here raises, so a payload let through fails the
        # test at once; the Lem2.3 antichain on 12 would otherwise run until
        # memory runs out
        def no_check(*args):
            raise AssertionError("a check ran on an untrusted payload")

        monkeypatch.setattr(suite, "_run_check", no_check)
        with pytest.raises(PosetError):
            replay_failure(payload)



@contextmanager
def broken_vee_powerdomain():
    """Run with ``without_pair`` as ``powerlab.hoare.closure_in_family``, so
    that ``build_hc`` of every poset isomorphic to the vee raises its
    ``InvariantError``.  The ``build_hc`` and ``_map_sweep`` caches, which
    hold powerdomains and results read from them, are cleared on entry and
    on exit."""

    def clear():
        build_hc.cache_clear()
        suite._map_sweep.cache_clear()

    clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("powerlab.hoare.closure_in_family", without_pair)
            yield
    finally:
        clear()


class TestErrorPath:
    # the statements that read no powerdomain at posets <= 3
    NO_POWERDOMAIN = {"Prop3.2", "Prop3.4", "Lem3.6", "Sober", "Enum"}

    def test_broken_powerdomain_is_each_checks_failure(self, tmp_path):
        # build_hc's InvariantError inside a check is that check's FAIL: the
        # run goes on, writes its report and exits 1
        out = tmp_path / "R.json"
        with broken_vee_powerdomain():
            code = main(["verify", "--max-poset", "3", "--out", str(out)])
            groups = json.loads(out.read_text())["statements"]
            failed = {g["statement"] for g in groups if g["failures"]}
            details = {f["detail"] for g in groups for f in g["failures"]}
            payload = groups[STATEMENT_ORDER.index("Thm3.9")]["failures"][0]
            assert replay_failure(payload) == "FAIL"
        assert code == 1
        assert failed == set(STATEMENT_ORDER) - self.NO_POWERDOMAIN
        assert all("not its consistent join" in d for d in details)
        assert not any(g["inconclusive"] for g in groups)
        assert payload["instance"]["canonical"] == canonical_form(catalog.vee()).hex()
        assert replay_failure(payload) == "PASS"

    def test_global_checks_name_the_broken_poset(self):
        # Lem3.7 and Cor3.11 fail on the vee alone, and Cor3.11 still compares
        # the 7 * 8 / 2 pairs of the other seven posets of at most 3 elements
        vee = canonical_form(catalog.vee()).hex()
        with broken_vee_powerdomain():
            reports = [check_lemma_3_7(4, 3), check_cor_3_11(3)]
        for report in reports:
            assert [f["instance"]["canonical"] for f in report.failures] == [vee]
            assert "not its consistent join" in report.failures[0]["detail"]
        assert reports[1].instance["pairs"] == 28
        assert check_cor_3_11(3).instance["pairs"] == 36

    def test_a_short_poset_list_raises(self, monkeypatch):
        # a sweep over fewer posets than A000112 counts is refused, not passed
        def short(n):
            out = enumerate_posets(n)
            return out[:-1] if n == 3 else out

        monkeypatch.setattr(suite, "enumerate_posets", short)
        with pytest.raises(InvariantError, match="7 posets of 1 to 3 elements, A000112 has 8"):
            run_statement("sober", Config(max_poset_n=3))


def test_readme_catalog_has_one_row_per_statement():
    # the README's statement table lists each catalog id once, in run order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| id | checked claim | default bound |\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[1:]  # past the | --- | row
    assert tuple(row.split("|")[1].strip().strip("`") for row in rows) == STATEMENT_ORDER


def _bench_spans():
    """``bench/spans.py``, loaded from its file without importing the bench."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_spans_cover_the_catalog():
    # the benchmark's tracer names one span per statement id, and wraps library
    # functions and reads their lru_caches by name; a statement missing there
    # would run untimed, and a renamed function or cache would stop the tracer
    spans = _bench_spans()
    assert spans.STATEMENTS == STATEMENT_ORDER
    for modname, attr, _prefix, kinds in spans.FUNCTIONS:
        mod = importlib.import_module("powerlab." + modname)
        assert callable(getattr(mod, attr, None)), f"powerlab.{modname}.{attr}"
        for kind in kinds:
            if kind.startswith("misses:"):
                cache = kind.split(":", 1)[1]
                assert hasattr(getattr(mod, cache, None), "cache_info"), f"powerlab.{modname}.{cache}"


# tracer counters that read 0 on a default verify run because no statement
# reaches the function they wrap
DEAD_SPANS = {
    "poset.directed_sup_closure_step",
    "hoare.sup_of_image",
    "semilattice.is_f_scott_continuous",
    "enumeration.monotone_map_images",
}

TRACED_VERIFY = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import powerlab.cli
import spans
tracer = spans.Tracer()
caches = spans.install(tracer)
code = powerlab.cli.main(["verify", "--out", sys.argv[3]])
_, counts = spans.collect(tracer, caches)
print(json.dumps({"code": code, "counts": counts}))
"""


def test_traced_spans_carry_traffic(tmp_path):
    # the benchmark's own tracer, installed in a fresh interpreter, around a
    # default verify run: every wrapped function is called, apart from the
    # named dead ones, so no new counter reads 0 by construction
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_VERIFY,
         str(root / "src"), str(root / "bench"), str(tmp_path / "R.json")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["code"] == 0
    counts = result["counts"]
    dead = {prefix for _m, _a, prefix, _k in _bench_spans().FUNCTIONS if not counts.get(prefix + ".calls")}
    assert dead == DEAD_SPANS
    assert counts["hoare.refute_v_existing.calls"] == 851
    assert counts["hoare.refute_v_existing.not_found"] == 513


# the literal definitions, kept as oracles for the tests, and their helpers: a
# default run must reach none of them.  A method is named with its class.
# Thm2.2's brute-force way-below (``way_down_masks`` over
# ``enumerate_directed_subsets``) and Enum's ``bruteforce_canonical_forms``
# are what those statements check, so they are not listed.
ORACLES = (
    "is_scott_closed", "directed_sup_closure_step", "least_upper_bound",
    "is_f_scott_closed_literal", "is_homomorphism", "_check_map",
    "f_scott_continuity_violation", "is_f_scott_continuous",
    "sup_exists_transport_check", "partial_join", "monotone_map_images", "f_c",
    "is_relatively_consistent", "way_below", "is_irreducible_closed", "is_directed",
    "PosetMap.preimage_bits", "PosetMap.is_scott_continuous",
)

ORACLE_GUARDED_VERIFY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import powerlab
from powerlab import suite

def refusing(name):
    def oracle(*args, **kwargs):
        raise AssertionError("a default run called the oracle " + name)
    return oracle

modules = [m for name, m in sys.modules.items() if name == "powerlab" or name.startswith("powerlab.")]
rebound = {}
for name in sys.argv[2:]:
    owner, _, attr = name.rpartition(".")
    if owner:  # a method, replaced on its class
        cls = next(vars(m)[owner] for m in modules if owner in vars(m))
        setattr(cls, attr, refusing(name))
        rebound[name] = 1
        continue
    orig = next(vars(m)[name] for m in modules if name in vars(m))
    rebound[name] = 0
    for m in modules:
        for attr, value in list(vars(m).items()):
            if value is orig:
                setattr(m, attr, refusing(name))
                rebound[name] += 1
summary = suite.run_all(suite.Config())
print(json.dumps({"rebound": rebound, "verdicts": {
    g["statement"]: [len(g["failures"]), len(g["inconclusive"])] for g in summary.groups}}))
"""


def test_default_run_reaches_no_oracle():
    # every literal oracle, rebound in every powerlab namespace that holds it
    # to a function that raises, in a fresh interpreter: the default run
    # still passes every statement, so no hot path reaches an oracle
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-B", "-c", ORACLE_GUARDED_VERIFY, str(root / "src"), *ORACLES],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert all(result["rebound"][name] for name in ORACLES)
    assert result["verdicts"] == {statement: [0, 0] for statement in STATEMENT_ORDER}


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
                    maps = monotone_map_images(p, l.poset)
                    sups = _column_sups(l, _monotone_columns(p, l.poset))
                    for r, img in enumerate(maps):
                        f = PosetMap(p, l.poset, img)
                        for a in range(1 << n):
                            assert (sups[a][r] == sups[closures[a]][r]) == (
                                sup_exists_transport_check(p, l, f, a)
                            )

    def test_transport_breaks_walk_in_map_then_subset_order(self):
        # no break at the true closures; with every closure read as the full
        # set, each (map, subset) whose sup differs from the full set's, in order
        breaks = 0
        for p in enumerate_posets(3):
            subsets = range(1 << p.n)
            for l in _semilattices_upto(3):
                maps = monotone_map_images(p, l.poset)
                columns = _monotone_columns(p, l.poset)
                sups = _column_sups(l, columns)
                closures = [scott_closure(p, a) for a in subsets]
                assert list(_transport_breaks(closures, columns, sups)) == []
                expected = [
                    (img, a)
                    for r, img in enumerate(maps)
                    for a in subsets
                    if sups[a][r] != sups[p.full_mask][r]
                ]
                assert list(_transport_breaks([p.full_mask] * len(subsets), columns, sups)) == expected
                breaks += len(expected)
        assert breaks

    @pytest.mark.usefixtures("cached_literal_closedness")
    def test_prop_3_4_matches_f_scott_continuity(self):
        # every closed set of the codomain, as check_prop_3_4 reads the
        # meet-irreducible ones: the image string translated by its
        # membership table, looked up among the domain's closed strings
        pool = _semilattices_upto(4)
        for l in pool:
            closed = {bytes(range(l.n)).translate(_membership_table(a)) for a in gamma_f(l).members}
            for m in pool:
                tables = [_membership_table(c) for c in gamma_f(m).members]
                for img in monotone_map_images(l.poset, m.poset):
                    f = PosetMap(l.poset, m.poset, img)
                    translated = all(bytes(img).translate(t) in closed for t in tables)
                    assert translated == is_f_scott_continuous(f, l, m)

    @pytest.mark.usefixtures("cached_literal_closedness")
    def test_prop_3_4_irreducibles_match_f_scott_continuity(self):
        # Prop3.4 tests each map on the meet-irreducible closed sets only
        pool = _semilattices_upto(4)
        for l in pool:
            closed = {bytes(range(l.n)).translate(_membership_table(a)) for a in gamma_f(l).members}
            for m in pool:
                tables = [_membership_table(c) for c in meet_irreducibles(gamma_f(m))]
                for img in monotone_map_images(l.poset, m.poset):
                    f = PosetMap(l.poset, m.poset, img)
                    translated = all(bytes(img).translate(t) in closed for t in tables)
                    assert translated == is_f_scott_continuous(f, l, m)

    def test_membership_table_matches_the_generator_form(self):
        # one format call against the bit-by-bit generator, on every mask
        # below 2**8 and on masks with bits set past 255
        masks = [*range(1 << 8), -1, ~5, -(1 << 200), ~0b1011 << 3, (1 << 300) | 0b1011]
        for bits in masks:
            assert _membership_table(bits) == bytes(b"01"[bits >> v & 1] for v in range(256))

    def test_translated_preimage_matches_preimage_bits(self):
        # position i of the translated image string is 1 exactly when the
        # image of i lies in the set, which makes the string, read from its
        # end, the preimage's bitmask
        pool = _semilattices_upto(3)
        for l in pool:
            for m in pool:
                for img in monotone_map_images(l.poset, m.poset):
                    f = PosetMap(l.poset, m.poset, img)
                    for c in range(1 << m.n):
                        translated = bytes(img).translate(_membership_table(c))
                        assert int(translated[::-1], 2) == f.preimage_bits(c)


class TestTableMutants:
    """A mutant of a table the map statements read must make one of them fail."""

    def test_prop_3_2_catches_invented_sups(self):
        # every subset whose image has no sup is given the first image's element
        def inventing(l, columns):
            first = columns[0]
            return tuple(
                bytes(f if s == NO_SUP else s for s, f in zip(row, first))
                for row in _column_sups(l, columns)
            )

        posets = small_posets(3)
        with sweep_mutant(_column_sups=inventing):
            reports = [check_prop_3_2(p, 3) for p in posets]
        details = {f["detail"] for r in reports for f in r.failures}
        assert details == {"the sup tables and the refutation search disagree on refutability"}
        assert [check_prop_3_2(p, 3).verdict for p in posets] == ["PASS"] * len(posets)

    def test_prop_3_2_catches_dropped_sups(self):
        # on a poset with a top, every subset holding the top is bounded and
        # is said to have no sup; those subsets are unions of closure classes,
        # so closure transport holds and only the refutation search disagrees
        posets = [p for p in small_posets(3) if p.full_mask in p.down_masks]
        reports = []
        for p in posets:
            top = p.down_masks.index(p.full_mask)

            def dropping(l, columns, top=top):
                none = bytes([NO_SUP]) * len(columns[0])
                return tuple(
                    none if a >> top & 1 else row for a, row in enumerate(_column_sups(l, columns))
                )

            with sweep_mutant(_column_sups=dropping):
                reports.append(check_prop_3_2(p, 3))
        details = {f["detail"] for r in reports for f in r.failures}
        assert details == {"the sup tables and the refutation search disagree on refutability"}
        assert [r.verdict for r in reports] == ["FAIL"] * len(posets)
        assert [check_prop_3_2(p, 3).verdict for p in posets] == ["PASS"] * len(posets)

    def test_prop_3_2_catches_an_undefined_sup(self):
        # test_map_sweep's undefined_sup mutant takes every map's sup at
        # the full set away; on a poset with a non-maximal
        # element the set of maximal elements has the full set as closure
        # and keeps its sup under a constant map, so closure transport
        # breaks there
        from test_map_sweep import TABLE_MUTANTS

        name, mutant = TABLE_MUTANTS["undefined_sup"]
        posets = [p for p in small_posets(3) if any(row != 1 << i for i, row in enumerate(p.up_masks))]
        with sweep_mutant(**{name: mutant}):
            reports = [check_prop_3_2(p, 3) for p in posets]
        assert [r.verdict for r in reports] == ["FAIL"] * len(posets)
        for r in reports:
            assert "closure transport broke" in {f["detail"] for f in r.failures}
        assert [check_prop_3_2(p, 3).verdict for p in posets] == ["PASS"] * len(posets)

    def test_prop_3_4_needs_every_irreducible(self, monkeypatch):
        assert check_prop_3_4(3, 1).verdict == "PASS"
        monkeypatch.setattr(
            "powerlab.suite.meet_irreducibles", lambda family: meet_irreducibles(family)[1:]
        )
        report = check_prop_3_4(3, 1)
        assert report.verdict == "FAIL"
        assert report.failures[0]["detail"] == "homomorphism=False but continuity=True"


class TestStatementMutants:
    """A mutant of what a check reads makes it FAIL; unmutated it passes."""

    def test_thm_2_2_catches_an_empty_way_below(self, monkeypatch, vee):
        assert check_thm_2_2(vee, 0).verdict == "PASS"
        monkeypatch.setattr("powerlab.suite.way_down_masks", lambda p: (0,) * p.n)
        report = check_thm_2_2(vee, 0)
        assert report.verdict == "FAIL"
        assert [f["detail"] for f in report.failures] == [
            f"way-below of {x} differs from its down-set" for x in vee.labels
        ]

    def test_lemma_3_7_catches_a_non_principal_closed_set(self, monkeypatch):
        # each singleton above a minimal element has that element as its
        # join but is not a down-set
        def with_singletons(l):
            down = l.poset.down_masks
            extra = tuple(1 << x for x in range(l.n) if down[x] != 1 << x)
            return SimpleNamespace(members=gamma_f(l).members + extra)

        assert check_lemma_3_7(2, 1).verdict == "PASS"
        monkeypatch.setattr("powerlab.suite.gamma_f", with_singletons)
        report = check_lemma_3_7(2, 1)
        assert report.verdict == "FAIL"
        assert {f["detail"] for f in report.failures} == {
            "closed set with a join is not a principal down-set"
        }

    def test_sober_catches_a_false_verdict(self, monkeypatch, vee):
        assert check_sober(vee).verdict == "PASS"
        monkeypatch.setattr("powerlab.suite.is_sober", lambda p: False)
        report = check_sober(vee)
        assert report.verdict == "FAIL"
        assert [f["detail"] for f in report.failures] == ["poset is not sober"]


def _sup_oracle(f: PosetMap, l: VSemilattice) -> bytes:
    # the literal sup of each subset's image, NO_SUP where there is none
    sups = [l.sup_of_bits(f.image_bits(a)) for a in range(1 << f.dom.n)]
    return bytes(NO_SUP if s is None else s for s in sups)


class TestImageSups:
    """``_column_sups`` is the one evaluator of the sups of images, for many
    maps at once; byte ``r`` of every subset's string must be the literal
    sup of the subset's image under map ``r``."""

    def test_monotone_maps_match_sup_of_bits(self):
        # the map sweep's and Prop3.2's side: every (poset, semilattice)
        # pair's monotone maps in one table
        for n in range(1, 5):
            for p in enumerate_posets(n):
                for l in _semilattices_upto(4):
                    maps = monotone_map_images(p, l.poset)
                    sups = _column_sups(l, _monotone_columns(p, l.poset))
                    for r, img in enumerate(maps):
                        f = PosetMap(p, l.poset, img)
                        assert bytes(s[r] for s in sups) == _sup_oracle(f, l)

    def test_homomorphisms_match_sup_of_bits(self):
        # Lem3.6's side: every semilattice pair's homomorphisms in one
        # table, the 16 413 of Lem3.6's default bounds
        pool = _semilattices_upto(4)
        for l in pool:
            for m in pool:
                homs = _homomorphism_images(l, m)
                sups = _column_sups(m, homs)
                for r, g in enumerate(zip(*homs)):
                    f = PosetMap(l.poset, m.poset, g)
                    assert bytes(s[r] for s in sups) == _sup_oracle(f, m)
