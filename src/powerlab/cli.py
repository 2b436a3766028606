"""Command-line entry point.

Subcommands mirror the library surface: family and powerdomain dumps, the
F-Scott closure system, join-existence witnesses, isomorphism-free poset
enumeration, and the verification sweep.  Exit codes: 0 all pass, 1 any
failure, 2 usage or input error, 3 inconclusive results under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .enumeration import enumerate_posets
from .families import gamma
from .hoare import NoWitnessFound, build_hc, refute_v_existing
from .poset import FinitePoset, PosetError
from .semilattice import VSemilattice, gamma_f
from .suite import Config, run_all

USAGE_ERROR = 2


class CliError(Exception):
    pass


def _load_poset(path: str) -> FinitePoset:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}")
    try:
        return FinitePoset.from_json(data)
    except PosetError as exc:
        raise CliError(f"invalid poset in {path}: {exc}")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        print(text)


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
    system = gamma_f(l)
    if args.format == "csv":
        _emit(l.join_table_csv(), args.out)
        return 0
    data = system.family.to_json()
    data["member_count"] = len(system.members)
    _emit(json.dumps(data, indent=2), args.out)
    return 0


def cmd_vexist(args) -> int:
    p = _load_poset(args.poset)
    try:
        bits = p.subset_from_labels([s for s in args.set.split(",") if s])
    except PosetError as exc:
        raise CliError(str(exc))
    try:
        result = refute_v_existing(p, bits, max_size=args.max_l)
    except PosetError as exc:
        raise CliError(str(exc))
    _emit(json.dumps(result.to_json(), indent=2), args.out)
    return 0


def cmd_enumerate(args) -> int:
    try:
        posets = enumerate_posets(args.n, cache_dir=args.cache)
    except PosetError as exc:
        raise CliError(str(exc))
    lines = []
    if args.semilattices:
        for p in posets:
            if VSemilattice.from_poset(p) is not None:
                lines.append(json.dumps(p.to_json()))
    else:
        lines = [json.dumps(p.to_json()) for p in posets]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    settings = {}
    if args.config:
        try:
            with open(args.config) as fh:
                settings = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"malformed JSON in config {args.config}: {exc}")
    # flags win over the config file; the cache env var fills a missing path
    if args.max_poset is not None:
        settings["max_poset_n"] = args.max_poset
    if args.max_semilattice is not None:
        settings["max_semilattice_n"] = args.max_semilattice
    if args.suite is not None:
        settings["suites"] = [args.suite]
    if args.jobs is not None:
        settings["jobs"] = args.jobs
    if args.strict:
        settings["strict"] = True
    if args.cache is not None:
        settings["cache_dir"] = args.cache
    settings.setdefault("cache_dir", os.environ.get("POWERLAB_CACHE"))
    known = {f for f in Config.__dataclass_fields__}
    unknown = set(settings) - known
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    try:
        config = Config(**settings)
    except PosetError as exc:
        raise CliError(str(exc))
    try:
        summary = run_all(config)
    except PosetError as exc:
        # e.g. a sweep past the poset enumeration cap
        raise CliError(str(exc))
    for group in summary.groups:
        status = "FAIL" if group["failures"] else (
            "INCONCLUSIVE" if group["inconclusive"] else "PASS"
        )
        print(
            f"{group['statement']}: {status} "
            f"({group['instances']} instances, bound {group['bound']})"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary.to_json(), fh, indent=2)
    return summary.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerlab",
        description="Finite order-theory laboratory: powerdomains, closure systems, "
        "and exhaustive small-instance verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def poset_cmd(name, help_):
        c = sub.add_parser(name, help=help_)
        c.add_argument("poset", help="path to a poset JSON file")
        c.add_argument("--format", choices=("json", "dot", "csv"), default="json")
        c.add_argument("--out", help="write output to this file instead of stdout")
        return c

    poset_cmd("gamma", "nonempty Scott closed subsets as a family")
    poset_cmd("hoare", "the consistent Hoare powerdomain of the poset")
    poset_cmd("gammaf", "the F-Scott closure system of the poset seen as a semilattice")

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
    verify.add_argument("--suite", default=None, help="all, thm3.9, thm3.10, cor3.11, freeness, ...")
    verify.add_argument("--max-poset", type=int, default=None)
    verify.add_argument("--max-semilattice", type=int, default=None)
    verify.add_argument("--jobs", type=int, default=None)
    verify.add_argument("--strict", action="store_true")
    verify.add_argument("--config", help="JSON config file; flags win")
    verify.add_argument("--cache", help="canonical-form cache directory")
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
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"powerlab: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
