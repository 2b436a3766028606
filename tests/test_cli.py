"""End-to-end command-line behavior and exit codes."""

import hashlib
import json

import pytest

from powerlab.cli import main


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "A2.json"
    path.write_text(json.dumps({"labels": ["a", "b"], "covers": []}))
    return str(path)


@pytest.fixture
def vee_file(tmp_path):
    path = tmp_path / "V.json"
    path.write_text(
        json.dumps({"labels": ["a", "b", "t"], "covers": [["a", "t"], ["b", "t"]]})
    )
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGamma:
    def test_a2_family(self, capsys, a2_file):
        code, out, _ = run_cli(capsys, "gamma", a2_file)
        assert code == 0
        data = json.loads(out)
        assert data["members"] == [["a"], ["b"], ["a", "b"]]

    def test_dot_format(self, capsys, vee_file):
        code, out, _ = run_cli(capsys, "gamma", vee_file, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_unsupported_format_rejected(self, capsys, vee_file):
        with pytest.raises(SystemExit) as exc:
            main(["gamma", vee_file, "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestHoare:
    def test_vee(self, capsys, vee_file):
        code, out, _ = run_cli(capsys, "hoare", vee_file)
        assert code == 0
        data = json.loads(out)
        assert len(data["members"]) == 4
        assert data["closure_added_nothing"] is True

    def test_dot(self, capsys, vee_file):
        code, out, _ = run_cli(capsys, "hoare", vee_file, "--format", "dot")
        assert code == 0
        assert '"{a}" -> "{a,b}";' in out

    def test_unsupported_format_rejected(self, capsys, vee_file):
        with pytest.raises(SystemExit) as exc:
            main(["hoare", vee_file, "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestGammaF:
    def test_vee_as_semilattice(self, capsys, vee_file):
        code, out, _ = run_cli(capsys, "gammaf", vee_file)
        assert code == 0
        data = json.loads(out)
        assert data["member_count"] == 4  # empty, {a}, {b}, everything

    def test_join_table_csv(self, capsys, vee_file):
        code, out, _ = run_cli(capsys, "gammaf", vee_file, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == ",a,b,t"

    def test_unsupported_format_rejected(self, capsys, vee_file):
        with pytest.raises(SystemExit) as exc:
            main(["gammaf", vee_file, "--format", "dot"])
        assert exc.value.code == 2
        assert "invalid choice: 'dot'" in capsys.readouterr().err

    def test_non_semilattice_rejected(self, capsys, tmp_path):
        path = tmp_path / "bowtie.json"
        path.write_text(
            json.dumps(
                {
                    "labels": ["a", "b", "s", "t"],
                    "covers": [["a", "s"], ["a", "t"], ["b", "s"], ["b", "t"]],
                }
            )
        )
        code, _, err = run_cli(capsys, "gammaf", str(path))
        assert code == 2
        assert "semilattice" in err


class TestVexist:
    def test_refutation(self, capsys, a2_file):
        code, out, _ = run_cli(capsys, "vexist", a2_file, "--set", "a,b", "--max-l", "3")
        assert code == 0
        assert json.loads(out)["verdict"] == "NO_SUP"

    def test_not_found(self, capsys, vee_file):
        code, out, _ = run_cli(capsys, "vexist", vee_file, "--set", "a,b", "--max-l", "3")
        assert code == 0
        data = json.loads(out)
        assert data == {"verdict": "NOT_FOUND", "searched_max_size": 3}

    def test_unknown_label(self, capsys, a2_file):
        code, _, err = run_cli(capsys, "vexist", a2_file, "--set", "a,z")
        assert code == 2
        assert "unknown label" in err

    def test_non_closed_set(self, capsys, vee_file):
        code, _, err = run_cli(capsys, "vexist", vee_file, "--set", "t")
        assert code == 2
        assert "Scott closed" in err

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one_rejected(self, capsys, vee_file, bound):
        # a search over no semilattice must not report NOT_FOUND as if exhausted
        code, out, err = run_cli(capsys, "vexist", vee_file, "--set", "a,b", "--max-l", bound)
        assert code == 2
        assert out == ""
        assert "bound of at least 1" in err

    @pytest.mark.parametrize("members", ["a,b", "a,b,t"])
    def test_bound_above_cap_rejected(self, capsys, monkeypatch, vee_file, members):
        # refused before any work, both for a set that the search would run
        # on up to size 7 and for one it would drop as never refutable
        def no_work(*args):
            raise AssertionError("work started under a refused bound")

        monkeypatch.setattr("powerlab.hoare.build_hc", no_work)
        monkeypatch.setattr("powerlab.hoare.enumerate_v_semilattices", no_work)
        code, out, err = run_cli(capsys, "vexist", vee_file, "--set", members, "--max-l", "7")
        assert code == 2
        assert out == ""
        assert "exceeds the enumeration cap 6" in err


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            assert set(json.loads(line)) == {"labels", "covers"}

    def test_semilattice_filter(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--semilattices")
        assert code == 0
        assert len(out.strip().splitlines()) == 15

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "9")
        assert code == 2
        assert "cap" in err

    def test_corrupt_cache_file_is_rewritten(self, capsys, tmp_path):
        # a file too short to hold a header is recomputed, not a crash (exit 1)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "posets_n3.bin").write_bytes(b"\x00\x03")
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--cache", str(cache))
        assert code == 0
        assert out == run_cli(capsys, "enumerate", "--n", "3")[1]
        assert len(out.splitlines()) == 5
        assert (cache / "posets_n3.bin").stat().st_size > 2

    def test_cache_path_that_is_a_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        code, out, err = run_cli(capsys, "enumerate", "--n", "3", "--cache", str(path))
        assert code == 2
        assert out == ""
        assert "cannot use cache directory" in err

    def test_output_is_byte_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "enumerate", "--n", "4")
        _, second, _ = run_cli(capsys, "enumerate", "--n", "4")
        assert first == second


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "/nonexistent/poset.json")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "gamma", str(path))
        assert code == 2
        assert "malformed JSON" in err

    def test_order_axiom_violation(self, capsys, tmp_path):
        path = tmp_path / "cyclic.json"
        path.write_text(
            json.dumps({"labels": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]})
        )
        code, _, err = run_cli(capsys, "gamma", str(path))
        assert code == 2
        assert "invalid poset" in err


class TestVerify:
    def test_small_run_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "thm3.10",
            "--max-poset",
            "3",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert "Thm3.10: PASS" in out
        report = json.loads(out_path.read_text())
        assert report["all_pass"] is True
        group = report["statements"][0]
        assert set(group) == {
            "statement",
            "bound",
            "instances",
            "failures",
            "inconclusive",
            "wall_ms",
        }
        assert group["instances"] == 8

    @staticmethod
    def _report_digest(capsys, tmp_path, *argv):
        # the report with its wall_ms fields stripped, digested as the
        # benchmark digests it: a change of any byte of it changes the digest
        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items() if k != "wall_ms"}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", *argv, "--out", str(out_path))
        assert code == 0
        report = strip(json.loads(out_path.read_text()))
        text = json.dumps(
            {k: report[k] for k in ("config", "statements", "all_pass")},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def test_default_report_is_pinned(self, capsys, tmp_path):
        assert self._report_digest(capsys, tmp_path) == (
            "94e9741f90a06135b009657e8af6ab9144d15d6eb5b3a4868ff5f13681a3fd39"
        )

    def test_max_poset_6_report_is_pinned(self, capsys, tmp_path):
        assert self._report_digest(capsys, tmp_path, "--max-poset", "6") == (
            "f4f1db8addbd5c0b9310a9f1213749785c88c2949b52c79ed4700df2fe33deb4"
        )

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        assert "unknown suite" in err

    def test_oversized_sweep_reports_cleanly(self, capsys):
        # n = 7 is past the poset enumeration cap; the CLI must say so before
        # any check runs, not crash
        code, _, err = run_cli(capsys, "verify", "--suite", "thm3.10", "--max-poset", "7")
        assert code == 2
        assert "exceeds the enumeration cap" in err

    @pytest.mark.parametrize("suite", [[], ["--suite", "thm3.10"]], ids=["all", "thm3.10"])
    def test_semilattice_bound_above_cap_rejected(self, capsys, monkeypatch, suite):
        # refused when the config is built, before any statement runs
        def no_work(*args):
            raise AssertionError("sweep started under a refused bound")

        monkeypatch.setattr("powerlab.cli.run_all", no_work)
        code, out, err = run_cli(capsys, "verify", "--max-semilattice", "7", *suite)
        assert code == 2
        assert out == ""
        assert "max_semilattice_n=7 exceeds the enumeration cap 6" in err

    def test_config_file_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_poset_n": 2, "suites": ["sober"]}))
        code, out, _ = run_cli(
            capsys, "verify", "--config", str(cfg), "--suite", "enum"
        )
        assert code == 0
        assert "Enum: PASS" in out
        assert "Sober" not in out

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_posets": 2}))
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize(
        "settings, message",
        [
            ([2, "sober"], "must be a JSON object"),
            ("sober", "must be a JSON object"),
            ({"max_poset_n": "5"}, "max_poset_n must be an integer"),
            ({"max_poset_n": 2.5}, "max_poset_n must be an integer"),
            ({"max_poset_n": True}, "max_poset_n must be an integer"),
            ({"suites": [1]}, "suites must be a list of names"),
        ],
        ids=["list", "string", "str-cap", "float-cap", "bool-cap", "int-suite"],
    )
    def test_malformed_config_values(self, capsys, tmp_path, settings, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert message in err

    def test_jobs_flag_rejected(self, capsys):
        # verification runs in one process; there is no worker count to set
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "sober", "--max-poset", "2", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "lem3.6", "--max-semilattice", "3"],
            ["--suite", "thm3.9", "--max-poset", "2", "--max-semilattice", "2"],
        ],
        ids=["pool", "refutation"],
    )
    def test_semilattice_search_reads_the_cache_flag(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        # the semilattice searches take no --cache flag and leave the
        # POWERLAB_CACHE dir untouched: verification reads no cache, writes none
        env = tmp_path / "env"
        monkeypatch.setenv("POWERLAB_CACHE", str(env))
        code, _, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert not env.exists() or not any(env.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv, "--cache", str(tmp_path / "flag")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()

    def test_environment_cache_is_not_read(self, capsys, tmp_path, monkeypatch):
        # a truncated cache file must not shorten the sweep below the 24
        # posets of 1..4 elements: verification reads no cache, writes none
        cache = tmp_path / "cache"
        assert run_cli(capsys, "enumerate", "--n", "4", "--cache", str(cache))[0] == 0
        path = cache / "posets_n4.bin"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        before = {f.name: f.read_bytes() for f in cache.iterdir()}

        def thm_3_9_report():
            out_path = tmp_path / "report.json"
            code, out, _ = run_cli(
                capsys, "verify", "--suite", "thm3.9", "--max-poset", "4",
                "--out", str(out_path),
            )
            assert code == 0
            assert "Thm3.9: PASS (24 instances" in out
            data = json.loads(out_path.read_text())
            for group in data["statements"]:
                group.pop("wall_ms")
            return data

        monkeypatch.setenv("POWERLAB_CACHE", str(cache))
        with_env = thm_3_9_report()
        monkeypatch.delenv("POWERLAB_CACHE")
        assert thm_3_9_report() == with_env
        assert {f.name: f.read_bytes() for f in cache.iterdir()} == before

    def test_cache_flag_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "sober", "--max-poset", "2", "--cache", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err

    def test_report_determinism_modulo_timing(self, capsys, tmp_path):
        paths = []
        for name in ("r1.json", "r2.json"):
            out_path = tmp_path / name
            run_cli(
                capsys,
                "verify",
                "--suite",
                "thm3.9",
                "--max-poset",
                "2",
                "--out",
                str(out_path),
            )
            paths.append(out_path)
        blobs = []
        for path in paths:
            data = json.loads(path.read_text())
            for group in data["statements"]:
                group.pop("wall_ms")
            blobs.append(json.dumps(data, sort_keys=True))
        assert blobs[0] == blobs[1]


class TestOutputFile:
    """An --out that cannot be written is an input error found before the work."""

    def test_verify_checks_out_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def sweep(config):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr("powerlab.cli.run_all", sweep)
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(
            capsys, "verify", "--suite", "sober", "--max-poset", "2", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert f"cannot write {target}" in err

    def test_hoare_checks_out_before_building(self, capsys, tmp_path, vee_file, monkeypatch):
        def build(p):
            raise AssertionError("the powerdomain was built before --out was checked")

        monkeypatch.setattr("powerlab.cli.build_hc", build)
        code, out, err = run_cli(capsys, "hoare", vee_file, "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert f"cannot write {tmp_path}" in err

    def test_written_output_matches_stdout(self, capsys, tmp_path, vee_file):
        target = tmp_path / "h.json"
        _, printed, _ = run_cli(capsys, "hoare", vee_file)
        code, out, _ = run_cli(capsys, "hoare", vee_file, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() + "\n" == printed


class TestUnexpectedError:
    def test_own_exit_code_and_traceback(self, capsys, monkeypatch):
        def sweep(config):
            raise RuntimeError("sweep broke")

        monkeypatch.setattr("powerlab.cli.run_all", sweep)
        code, out, err = run_cli(capsys, "verify", "--suite", "sober", "--max-poset", "2")
        assert code == 4
        assert out == ""
        assert "Traceback" in err and "RuntimeError: sweep broke" in err


class TestPosetShape:
    """Malformed poset JSON is an input error (exit 2) in every subcommand."""

    @pytest.mark.parametrize(
        "poset, message",
        [
            ({"labels": ["a"], "covers": [["a"]]}, "not a list of two labels"),
            ({"labels": ["a", "b", "c"], "covers": [["a", "b", "c"]]}, "not a list of two labels"),
            ({"labels": [["a"], "b"], "covers": []}, "must be a list of strings"),
            ({"labels": ["a", "b"], "covers": ["ab"]}, "not a list of two labels"),
            ({"labels": "ab", "covers": []}, "must be a list of strings"),
            ({"labels": ["a"], "covers": 5}, "must be a list of pairs"),
        ],
        ids=[
            "one-label-pair",
            "three-label-pair",
            "unhashable-label",
            "string-pair",
            "string-labels",
            "number-covers",
        ],
    )
    def test_malformed_shape_rejected(self, capsys, tmp_path, poset, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(poset))
        code, out, err = run_cli(capsys, "hoare", str(path))
        assert code == 2
        assert out == ""
        assert "invalid poset" in err and message in err

    def test_empty_poset_hoare(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"labels": [], "covers": []}))
        code, out, err = run_cli(capsys, "hoare", str(path))
        assert code == 2
        assert out == ""
        assert "needs a nonempty poset" in err


class TestConfigTypes:
    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"strict": "no"}, "strict must be true or false"),
            ({"strict": 1}, "strict must be true or false"),
        ],
        ids=["string-strict", "int-strict"],
    )
    def test_mistyped_value_rejected(self, capsys, tmp_path, settings, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**settings, "suites": ["sober"], "max_poset_n": 2}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert message in err

    def test_empty_suite_list_rejected(self, capsys, tmp_path):
        # no statement would run, and the report would claim all_pass
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": [], "max_poset_n": 2}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "suites must name at least one statement" in err

    def test_cache_dir_is_an_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        settings = {"cache_dir": str(tmp_path / "cache"), "suites": ["sober"], "max_poset_n": 2}
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown config keys: ['cache_dir']" in err

    def test_jobs_is_an_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2, "suites": ["sober"], "max_poset_n": 2}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown config keys: ['jobs']" in err

    def test_unknown_suite_after_all_rejected(self, capsys, tmp_path):
        # every name is resolved, not only those before "all"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["all", "bogus"]}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown suite name 'bogus'" in err
