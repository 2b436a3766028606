"""The reach gate: every function in ``src/powerlab`` is called by a probe of
the whole program, or is a test oracle named in ``test_suite.ORACLES``, or
is listed in ``UNREACHED`` with the reason it stays.

The probe runs in a fresh interpreter with ``sys.setprofile`` installed
before ``import powerlab`` and records the file and first line of every call
into the package.  A decorated function's first line is its first
decorator's, as in its code object, and a generator is seen each time it
resumes.  The probe runs every CLI subcommand and output format,
``enumerate --cache`` written and then read, a usage error, a failing
``run_all`` whose sup tables fold through a shifted join, a replay of one of
its failures, and Thm2.2 on a 17-chain, past the directed-subset cap."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_suite import ORACLES

ROOT = Path(__file__).resolve().parents[1]

# functions that no probe path calls and that are no oracle, keyed
# ``module.qualname``, with the reason each one stays
UNREACHED = {
    "catalog.singleton": "catalog: the one-point poset of the tests",
    "catalog.antichain": "catalog: the antichains of the tests and demos",
    "catalog.wedge": "catalog: the wedge of the tests and demos",
    "catalog.standard_trio": "catalog: the fixed instance set of the mutation tests",
    "enumeration.are_isomorphic": "API: isomorphism by canonical forms, shown by demo 05",
    "families.SetFamily.__eq__": "value semantics of a family",
    "families.SetFamily.__hash__": "value semantics of a family",
    "families.SetFamily.__repr__": "value semantics of a family",
    "hoare.gamma_c": "API: the consistent closed sets, shown by demo 03",
    "hoare.sup_of_image": "API: the checked form of _image_cert; demo 03, and bench/spans.py wraps it",
    "poset.FinitePoset.__init__": "the matrix constructor, which bench/worker.py's enum_n7 calls",
    "poset.FinitePoset.le": "API: the order as a matrix, read by demos and test oracles",
    "poset.FinitePoset.__repr__": "value semantics of a poset",
    "semilattice.VSemilattice.__repr__": "names the semilattice in first_refutation's InvariantError",
    "semilattice.VSemilattice.__eq__": "value semantics of a semilattice",
    "semilattice.is_f_scott_closed": "API: cl_f's fixpoint test, shown by demo 04",
}

PROBE = r'''
import contextlib, io, json, os, sys
src, work = sys.argv[1], sys.argv[2]
package = os.path.join(src, "powerlab") + os.sep
reached = set()

def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        reached.add((os.path.basename(code.co_filename), code.co_firstlineno))

sys.setprofile(record)
sys.path.insert(0, src)
from powerlab import catalog, cli, semilattice, suite
from powerlab.semilattice import NO_SUP, VSemilattice

def poset_file(name, poset):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(poset.to_json(), fh)
    return path

bowtie, vee = poset_file("bowtie.json", catalog.bowtie()), poset_file("vee.json", catalog.vee())
cache = os.path.join(work, "cache")
runs = [
    ["gamma", bowtie], ["gamma", bowtie, "--format", "dot"],
    ["hoare", bowtie], ["hoare", bowtie, "--format", "dot"],
    ["gammaf", vee], ["gammaf", vee, "--format", "csv"], ["gammaf", bowtie],
    ["vexist", bowtie, "--set", "a,b,s,t"], ["vexist", vee, "--set", "a,b,t"],
    ["enumerate", "--n", "4"], ["enumerate", "--n", "4", "--semilattices"],
    ["enumerate", "--n", "4", "--cache", cache], ["enumerate", "--n", "4", "--cache", cache],
    ["verify", "--out", os.path.join(work, "report.json")],
    ["verify", "--suite", "thm3.9", "--max-poset", "3", "--strict"],
    ["gamma", os.path.join(work, "missing.json")],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]

# the sup tables folded through a join table in which each defined join of a
# sup and another element is moved one element on
column_join = VSemilattice.__dict__["column_join"]

def shifted(l):
    return bytes(
        z if z == NO_SUP or z in (e >> 4, e & 15) or e >> 4 >= l.n else (z + 1) % l.n
        for e, z in enumerate(column_join.func(l))
    )

column_sups = suite._column_sups

def shifted_sups(l, columns):
    VSemilattice.column_join = property(shifted)
    try:
        return column_sups(l, columns)
    finally:
        VSemilattice.column_join = column_join

for cached in (suite._map_sweep, semilattice._monotone_columns, semilattice._homomorphism_images):
    cached.cache_clear()
suite._column_sups = shifted_sups
failing = suite.run_all(suite.Config(max_poset_n=3, max_semilattice_n=3))
payload = next(f for g in failing.groups for f in g["failures"])
replayed = suite.replay_failure(payload)
doubt = suite.check_thm_2_2(catalog.chain(17), 0).verdict
sys.setprofile(None)
print(json.dumps({
    "reached": sorted(reached), "codes": codes, "replayed": replayed, "doubt": doubt,
    "failed": [g["statement"] for g in failing.groups if g["failures"]],
}))
'''


def source_defs(text: str):
    """``(qualname, first line, node)`` for every ``def`` in a module's
    source, methods and nested functions included, dotted like
    ``__qualname__`` without ``<locals>``.  The first line is the first
    decorator's, where there is one, as in the function's code object."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield prefix + node.name, first, node
                yield from walk(node.body, prefix + node.name + ".")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, prefix + node.name + ".")
            else:  # a def inside an if, try, with or loop block
                yield from walk(ast.iter_child_nodes(node), prefix)

    yield from walk(ast.parse(text).body, "")


def gate(sources: dict, reached: set, oracles, unreached: dict) -> tuple[list, list]:
    """``(missing, stale)`` over ``sources``, a {file name: text} map of one
    package.  A function is named ``module.qualname``.  It is missing when
    its (file name, first line) is not in ``reached``, its qualname is not
    in ``oracles`` and its name is not a key of ``unreached``; an
    ``unreached`` key is stale when its function is reached or not defined."""
    missing, stale, defined = [], [], set()
    for file_name, text in sorted(sources.items()):
        module = file_name.removesuffix(".py")
        for qualname, first, _node in source_defs(text):
            name = f"{module}.{qualname}"
            defined.add(name)
            if (file_name, first) in reached:
                if name in unreached:
                    stale.append(name)
            elif qualname not in oracles and name not in unreached:
                missing.append(name)
    stale += sorted(set(unreached) - defined)
    return missing, stale


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    run = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(ROOT / "src"), str(tmp_path_factory.mktemp("probe"))],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    result["reached"] = {tuple(x) for x in result["reached"]}
    return result


def test_the_probe_runs_its_paths(probe):
    # every CLI run returns its documented code (2 for the bowtie, which is
    # no semilattice, and for the missing file), the shifted sup tables fail
    # statements, a failure replays as FAIL, and the 17-chain is in doubt
    assert probe["codes"] == [0] * 6 + [2] + [0] * 8 + [2]
    assert probe["failed"] == ["Freeness", "Lem3.6"]
    assert probe["replayed"] == "FAIL"
    assert probe["doubt"] == "INCONCLUSIVE"


def test_every_function_is_reached_an_oracle_or_listed(probe):
    sources = {path.name: path.read_text() for path in (ROOT / "src" / "powerlab").glob("*.py")}
    missing, stale = gate(sources, probe["reached"], ORACLES, UNREACHED)
    assert missing == [], "no probe path reaches these; delete them, or name them in ORACLES or UNREACHED"
    assert stale == []
    assert len(UNREACHED) <= 17 and all(UNREACHED.values())


SYNTHETIC = """\
import functools


def used():
    pass


@functools.lru_cache(maxsize=None)
def cached():
    pass


class Box:
    def method(self):
        def inner():
            pass

        return inner


def oracle():
    pass


def listed():
    pass


def extra():
    pass
"""


def _synthetic_reached(*qualnames):
    lines = {name: first for name, first, _node in source_defs(SYNTHETIC)}
    return {("mod.py", lines[name]) for name in qualnames}


def test_the_gate_reports_an_unused_function():
    reached = _synthetic_reached("used", "cached", "Box.method", "Box.method.inner")
    listed = {"mod.listed": "kept"}
    assert gate({"mod.py": SYNTHETIC}, reached, ("oracle",), listed) == (["mod.extra"], [])
    # a decorated function is known by its decorator's line, as its code is
    namespace = {}
    exec(compile(SYNTHETIC, "mod.py", "exec"), namespace)
    first = {name: line for name, line, _node in source_defs(SYNTHETIC)}
    assert first["cached"] == namespace["cached"].__wrapped__.__code__.co_firstlineno == 8
    assert first["used"] == namespace["used"].__code__.co_firstlineno == 4


def test_the_gate_fails_a_stale_entry():
    reached = _synthetic_reached("used", "cached", "Box.method", "Box.method.inner", "listed", "extra")
    listed = {"mod.listed": "now reached", "mod.gone": "no longer defined"}
    assert gate({"mod.py": SYNTHETIC}, reached, ("oracle",), listed) == ([], ["mod.listed", "mod.gone"])
