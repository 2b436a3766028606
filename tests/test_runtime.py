"""What importing and running powerlab leaves behind: only standard-library
modules, no declared runtime dependency, no reads of the environment, and no
reference cycles from the recursive enumerators."""

import ast
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powerlab
from powerlab.enumeration import enumerate_posets, enumerate_v_semilattices, monotone_map_images
from powerlab.poset import _ideals
from powerlab.poset import enumerate_directed_subsets
from powerlab.semilattice import _homomorphism_images

ROOT = Path(__file__).resolve().parents[1]

# the cached enumerators are called through __wrapped__, so every call runs the body
ENUMERATORS = {
    "_ideals": lambda p, l: _ideals(p, include_empty=True),
    "monotone_map_images": lambda p, l: monotone_map_images.__wrapped__(p, l.poset),
    "enumerate_directed_subsets": lambda p, l: enumerate_directed_subsets(p.up_masks, p.full_mask),
    "_homomorphism_images": lambda p, l: _homomorphism_images.__wrapped__(l, l),
}


@pytest.mark.parametrize("name", sorted(ENUMERATORS))
def test_enumerators_leave_no_reference_cycles(name):
    call = ENUMERATORS[name]
    posets = enumerate_posets(5)
    semilattices = enumerate_v_semilattices(3)
    gc.collect()
    gc.disable()
    try:
        for k, p in enumerate(posets):
            call(p, semilattices[k % len(semilattices)])
        assert gc.collect() == 0
    finally:
        gc.enable()


PROBE = """
import sys
before = set(sys.modules)
import powerlab.cli
for name in sorted(set(sys.modules) - before):
    if sys.modules[name] is not sys.modules["__main__"]:
        print(name)
"""


def _modules_loaded_by_cli_import() -> set:
    """The full names of the modules a fresh interpreter loads for ``import powerlab.cli``."""
    src = str(Path(powerlab.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_cli_import_loads_only_the_standard_library():
    loaded = {name.partition(".")[0] for name in _modules_loaded_by_cli_import()}
    assert "powerlab" in loaded
    assert loaded - {"powerlab"} <= set(sys.stdlib_module_names)


def test_cli_import_loads_no_process_pool():
    # verification runs in one process; the pool machinery is 32 modules
    # that every powerlab process would otherwise pay for at import
    loaded = _modules_loaded_by_cli_import()
    assert "powerlab.cli" in loaded
    assert not {"multiprocessing", "concurrent.futures.process"} & loaded


def test_no_runtime_dependency_declared():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # results must not depend on environment variables: no module may name
    # os.environ or os.getenv, nor import them from os
    found = []
    for path in sorted((ROOT / "src" / "powerlab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ENVIRONMENT_READERS
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = ENVIRONMENT_READERS & {alias.name for alias in node.names}
                found.extend(f"{path.name}:{node.lineno} from os import {n}" for n in names)
    assert found == []
