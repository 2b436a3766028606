"""End-to-end command-line behavior and exit codes."""

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

    def test_enum_reads_the_cache_flag(self, capsys, tmp_path, monkeypatch):
        # a truncated cache file must reach the enumeration self-test through
        # --cache, so the class-count check catches it instead of passing
        monkeypatch.delenv("POWERLAB_CACHE", raising=False)
        cache = tmp_path / "cache"
        assert run_cli(capsys, "enumerate", "--n", "4", "--cache", str(cache))[0] == 0
        path = cache / "posets_n4.bin"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "enum", "--max-poset", "4",
            "--cache", str(cache), "--out", str(out_path),
        )
        assert code == 1
        assert "Enum: FAIL" in out
        failures = json.loads(out_path.read_text())["statements"][0]["failures"]
        assert [f["detail"] for f in failures] == ["emitted 8 classes, oracle found 16"]

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
