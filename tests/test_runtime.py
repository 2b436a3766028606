"""What importing and running powerlab leaves behind: only standard-library
modules, no declared runtime dependency, no reads of the environment, no
unused imports, no reference cycles from the enumerators, no nested
function that calls itself, no memo written into an instance's ``__dict__``
by hand, and each poset's lower sets and directed subsets built once."""

import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powerlab
from powerlab import FinitePoset
from powerlab.enumeration import enumerate_posets, enumerate_v_semilattices, monotone_map_images
from powerlab.poset import enumerate_directed_subsets
from powerlab.semilattice import (
    _gamma_f_cached,
    _homomorphism_images,
    _monotone_columns,
)

from test_reach import source_defs
from test_suite import ORACLES

ROOT = Path(__file__).resolve().parents[1]

# the cached enumerators are called through __wrapped__ or func, so every call runs the body
ENUMERATORS = {
    "FinitePoset.ideals": lambda p, l: FinitePoset.ideals.func(p),
    "monotone_map_images": lambda p, l: monotone_map_images.__wrapped__(p, l.poset),
    "enumerate_directed_subsets": lambda p, l: enumerate_directed_subsets(p.up_masks, p.full_mask),
    "_homomorphism_images": lambda p, l: _homomorphism_images.__wrapped__(l, l),
    "_monotone_columns": lambda p, l: _monotone_columns.__wrapped__(p, l.poset),
    "_gamma_f_cached": lambda p, l: _gamma_f_cached.__wrapped__(l),
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


TABLE_COUNT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from functools import cached_property
from powerlab import FinitePoset, run_all
built = {}
for name in ("ideals", "directed_subsets"):
    def counted(p, table=getattr(FinitePoset, name).func, keys=built.setdefault(name, [])):
        keys.append((p.labels, p.up_masks))
        return table(p)
    prop = cached_property(counted)
    prop.__set_name__(FinitePoset, name)
    setattr(FinitePoset, name, prop)
assert not run_all().any_fail
print(json.dumps({name: [len(keys), len(set(keys))] for name, keys in built.items()}))
"""


def test_a_default_run_builds_each_poset_table_once():
    # in a fresh interpreter, so every cache starts empty: the lower sets of
    # each of the 88 posets on 0..5 elements (the generation's parents and
    # the checked posets) and the directed subsets of each poset Thm2.2
    # reads are built once, on the one shared instance of its class
    run = subprocess.run(
        [sys.executable, "-B", "-c", TABLE_COUNT, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    built = json.loads(run.stdout)
    assert built["ideals"] == [88, 88]
    assert built["directed_subsets"] == [87, 87]


def test_no_module_reads_an_instance_dict():
    # a memo is a cached_property on the object its table is derived from,
    # or a module lru_cache; an entry written into __dict__ by hand, or read
    # through vars(), would be a third scheme
    found = []
    for path in sorted((ROOT / "src" / "powerlab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                found.append(f"{path.name}:{node.lineno} __dict__")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars":
                found.append(f"{path.name}:{node.lineno} vars()")
    assert found == []


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


def test_cli_import_loads_no_failure_path_modules():
    # each costs every cold start milliseconds: the records are plain
    # classes, not dataclasses (which pull in inspect), and csv and traceback
    # are imported by the one function that writes a CSV or prints a traceback
    loaded = _modules_loaded_by_cli_import()
    assert "powerlab.cli" in loaded
    assert not {"dataclasses", "inspect", "csv", "traceback"} & loaded


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


def test_no_function_imports_a_powerlab_module():
    # the layers import each other at module level, in one order (poset,
    # families, semilattice, enumeration, hoare, suite, cli); an import
    # inside a function body is how a cycle between them hides
    found = []
    for path in sorted((ROOT / "src" / "powerlab").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").partition(".")[0] == "powerlab"
                ):
                    found.append(f"{path.name}:{node.lineno} {func.name}")
                elif isinstance(node, ast.Import) and any(
                    alias.name.partition(".")[0] == "powerlab" for alias in node.names
                ):
                    found.append(f"{path.name}:{node.lineno} {func.name}")
    assert found == []


def test_every_module_import_is_used():
    # a deletion must take the imports only it used along with it; the
    # package __init__ imports to re-export, and __future__ imports are
    # compiler switches
    unused = []
    for path in sorted((ROOT / "src" / "powerlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_no_nested_function_refers_to_itself():
    # a nested function that names itself sits in a reference cycle with its
    # closure, left for the garbage collector; the enumerators loop instead
    found = set()
    for path in sorted((ROOT / "src" / "powerlab").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if (
                    inner is not outer
                    and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(
                        isinstance(node, ast.Name) and node.id == inner.name
                        for node in ast.walk(inner)
                    )
                ):
                    found.add(f"{path.name}:{inner.lineno} {inner.name}")
    assert found == set()


def _calls_least_upper_bound(node) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "least_upper_bound"
        or getattr(node.func, "attr", None) == "least_upper_bound"
    )


def test_least_upper_bound_is_called_only_by_the_directed_step():
    # the library's sup rule is the principal up-set lookup; the literal
    # scan is left only to directed_sup_closure_step, the tests' reference
    per_file, in_step = {}, 0
    for path in sorted((ROOT / "src" / "powerlab").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls = sum(map(_calls_least_upper_bound, ast.walk(tree)))
        if calls:
            per_file[path.name] = calls
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name == "directed_sup_closure_step":
                in_step += sum(map(_calls_least_upper_bound, ast.walk(func)))
    assert per_file == {"poset.py": 1}
    assert in_step == 1


def test_only_oracles_call_oracles():
    # the runtime guard in test_suite covers the default run; this covers
    # every path: no function outside ORACLES names an ORACLES function or
    # method, as a call or as a value; a method is named by its own name
    refused = {name.rpartition(".")[2] for name in ORACLES}
    found = []
    for path in sorted((ROOT / "src" / "powerlab").glob("*.py")):
        for qualname, _first, func in source_defs(path.read_text()):
            if qualname in ORACLES:
                continue
            for node in ast.walk(func):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name in refused:
                    found.append(f"{path.name}:{node.lineno} {qualname} -> {name}")
    assert found == []


# the functions that may name iter_monotone_maps: the one transpose of its
# rows into columns, the homomorphism stream, the refutation search and the
# cached row oracle; every other reader takes the maps as columns
MONOTONE_MAP_READERS = {
    ("semilattice.py", "_monotone_columns"),
    ("semilattice.py", "iter_homomorphisms"),
    ("hoare.py", "first_refutation"),
    ("enumeration.py", "monotone_map_images"),
}


def test_only_the_column_function_and_the_streams_name_monotone_maps():
    readers, importers = set(), set()
    for path in sorted((ROOT / "src" / "powerlab").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "iter_monotone_maps" for alias in node.names
            ):
                importers.add(path.name)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name == "iter_monotone_maps":
                    readers.add((path.name, func.name))
    assert readers == MONOTONE_MAP_READERS
    assert importers == {"semilattice.py", "hoare.py", "enumeration.py"}
