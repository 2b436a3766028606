"""Command-line entry point.

Subcommands mirror the library surface: family and powerdomain dumps, the
F-Scott closure system, join-existence witnesses, isomorphism-free poset
enumeration, and the verification sweep.  Exit codes: 0 all pass, 1 any
failure, 2 usage or input error (every ``PosetError`` a subcommand raises, a
poset file that is not JSON, undecodable or nested too deeply included, and
an ``--out`` file that cannot be opened), 3 inconclusive results under
--strict, 4 an unexpected error, whose traceback goes to stderr, 141 (the
shell's status for a tool ended by SIGPIPE) a stdout closed by its reader.

``--out`` is opened before any work starts, as a shell redirection would be.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .enumeration import enumerate_posets
from .families import gamma
from .hoare import build_hc, refute_v_existing
from .poset import FinitePoset, PosetError
from .semilattice import VSemilattice, gamma_f
from .suite import Config, run_all, verdict_of

USAGE_ERROR = 2
UNEXPECTED_ERROR = 4
BROKEN_PIPE = 141


class CliError(Exception):
    pass


def _load_poset(path: str) -> FinitePoset:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        return FinitePoset.from_json(text)
    except PosetError as exc:
        raise CliError(f"invalid poset in {path}: {exc}")


def _open_out(path: str | None):
    """The ``--out`` file opened for writing, or a null context for stdout."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _emit(text: str, out):
    """Write ``text`` to ``--out`` or stdout alike, ending it with one newline."""
    (out or sys.stdout).write(text if text.endswith("\n") else text + "\n")


def cmd_gamma(args) -> int:
    p = _load_poset(args.poset)
    fam = gamma(p)
    if args.format == "dot":
        _emit(fam.to_dot(), args.out)
    else:
        _emit(json.dumps(fam.to_json(), indent=2), args.out)
    return 0


def cmd_hoare(args) -> int:
    p = _load_poset(args.poset)
    h = build_hc(p)
    if args.format == "dot":
        _emit(h.poset.to_dot(), args.out)
    else:
        data = h.family.to_json()
        data["closure_added_nothing"] = h.family_equals_gamma_c
        _emit(json.dumps(data, indent=2), args.out)
    return 0


def cmd_gammaf(args) -> int:
    p = _load_poset(args.poset)
    l = VSemilattice.from_poset(p)
    if l is None:
        raise CliError(
            f"input poset in {args.poset} is not a consistent-join semilattice "
            "(some bounded pair has no least upper bound)"
        )
    if args.format == "csv":
        _emit(l.join_table_csv(), args.out)
        return 0
    system = gamma_f(l)
    data = system.to_json()
    data["member_count"] = len(system)
    _emit(json.dumps(data, indent=2), args.out)
    return 0


def cmd_vexist(args) -> int:
    p = _load_poset(args.poset)
    bits = p.subset_from_labels([s for s in args.set.split(",") if s])
    result = refute_v_existing(p, bits, max_size=args.max_l)
    _emit(json.dumps(result.to_json(), indent=2), args.out)
    return 0


def cmd_enumerate(args) -> int:
    try:
        posets = enumerate_posets(args.n, cache_dir=args.cache)
    except OSError as exc:
        raise CliError(f"cannot use cache directory {args.cache}: {exc}")
    if args.semilattices:
        posets = [p for p in posets if VSemilattice.from_poset(p) is not None]
    _emit("\n".join(json.dumps(p.to_json()) for p in posets), args.out)
    return 0


def cmd_verify(args) -> int:
    # a PosetError here (bad settings, a sweep past the enumeration cap)
    # reaches main, which reports it as a usage error
    suites = [s for s in args.suite.split(",") if s]
    summary = run_all(Config(args.max_poset, args.max_semilattice, suites, args.strict))
    for group in summary.groups:
        print(
            f"{group['statement']}: {verdict_of(group['failures'], group['inconclusive'])} "
            f"({group['instances']} instances, bound {group['bound']})"
        )
    if args.out is not None:
        json.dump(summary.to_json(), args.out, indent=2)
    return summary.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerlab",
        description="Finite order-theory laboratory: powerdomains, closure systems, "
        "and exhaustive small-instance verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def poset_cmd(name, help_, formats):
        c = sub.add_parser(name, help=help_)
        c.add_argument("poset", help="path to a poset JSON file")
        c.add_argument("--format", choices=("json", *formats), default="json")
        c.add_argument("--out", help="write output to this file instead of stdout")
        return c

    poset_cmd("gamma", "nonempty Scott closed subsets as a family", ("dot",))
    poset_cmd("hoare", "the consistent Hoare powerdomain of the poset", ("dot",))
    poset_cmd(
        "gammaf", "the F-Scott closure system of the poset seen as a semilattice", ("csv",)
    )

    vexist = sub.add_parser("vexist", help="search for a join-existence refutation")
    vexist.add_argument("poset", help="path to a poset JSON file")
    vexist.add_argument("--set", required=True, help="comma-separated element labels")
    vexist.add_argument("--max-l", type=int, default=4, dest="max_l")
    vexist.add_argument("--out")

    enum = sub.add_parser("enumerate", help="all posets of one size up to isomorphism")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--semilattices", action="store_true")
    enum.add_argument("--cache", help="canonical-form cache directory")
    enum.add_argument("--out")

    verify = sub.add_parser("verify", help="run the statement verification sweep")
    verify.add_argument(
        "--suite",
        default=",".join(Config.suites),
        help="comma-separated statements: all, thm3.9, thm3.10, cor3.11, freeness, ...",
    )
    verify.add_argument("--max-poset", type=int, default=Config.max_poset_n)
    verify.add_argument("--max-semilattice", type=int, default=Config.max_semilattice_n)
    verify.add_argument("--strict", action="store_true", default=Config.strict)
    verify.add_argument("--out", help="write the report JSON here")
    return parser


COMMANDS = {
    "gamma": cmd_gamma,
    "hoare": cmd_hoare,
    "gammaf": cmd_gammaf,
    "vexist": cmd_vexist,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _open_out(args.out) as out:
            args.out = out  # the open file, or None for stdout
            code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (CliError, PosetError) as exc:
        print(f"powerlab: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # what stdout still buffers goes to the null device, not the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except Exception:
        import traceback  # here, not at module level: only this exit needs it

        traceback.print_exc()
        return UNEXPECTED_ERROR


if __name__ == "__main__":
    sys.exit(main())
