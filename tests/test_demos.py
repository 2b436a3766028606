"""Every demo script runs to completion against the source tree, and prints
the same output whatever the string hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo, **env):
    return subprocess.run(
        [sys.executable, str(demo)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    run = _run(demo)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_output_ignores_the_hash_seed(demo):
    runs = [_run(demo, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
