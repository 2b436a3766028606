"""Per-layer spans and counters for a traced benchmark worker.

Tracing lives entirely in the benchmark: ``install`` rebinds the functions
that cross powerlab's module boundaries, in every powerlab module namespace
that holds them, to wrappers that record a span (self time and calls) or a
count.  The library itself is not edited.

A span's self time is its duration minus the time covered by traced
children, so shared cached work (``build_hc``, ``gamma_f``) is billed to the
layer that does it, not to whichever statement happens to run first.

Per-element helpers (``iter_bits``, ``sup_of_bits``, ``least_upper_bound``,
``partial_join``) are deliberately left unwrapped: their cost stays in the
caller's self time and tracing overhead stays small.
"""

from __future__ import annotations

import sys
import time

# Statement ids of the catalog, as the suite reports them.
STATEMENTS = (
    "Def2.1", "Thm2.2", "Lem2.3", "Freeness", "Prop3.2", "Prop3.4", "Lem3.6",
    "Lem3.7", "Lem3.8", "Thm3.9", "Thm3.10", "Cor3.11", "Sober", "Enum",
)

# (module, function, metric prefix, recorded values).  "span" records
# self_ms and calls; "count" only counts calls without opening a span;
# "misses" reads the cache_info() of the named lru_cache in the same module;
# "items" sums the length of results computed on a cache miss (or of every
# result, for an uncached function); "not_found" counts NoWitnessFound results.
FUNCTIONS = (
    ("poset", "directed_sup_closure_step", "poset.directed_sup_closure_step", ("span",)),
    ("poset", "enumerate_directed_subsets", "poset.enumerate_directed_subsets", ("count", "items")),
    ("poset", "scott_closure", "poset.scott_closure", ("span",)),
    ("poset", "way_down_masks", "poset.way_down_masks", ("span",)),
    ("poset", "is_sober", "poset.is_sober", ("span",)),
    ("families", "gamma", "families.gamma", ("span",)),
    ("families", "closure_in_family", "families.closure_in_family", ("span",)),
    ("hoare", "build_hc", "hoare.build_hc", ("span", "misses:build_hc")),
    ("hoare", "r_gamma_c", "hoare.r_gamma_c", ("span",)),
    ("hoare", "refute_v_existing", "hoare.refute_v_existing", ("span", "not_found")),
    ("hoare", "sup_of_image", "hoare.sup_of_image", ("count",)),
    ("semilattice", "gamma_f", "semilattice.gamma_f", ("span", "misses:_gamma_f_cached")),
    ("semilattice", "cl_f", "semilattice.cl_f", ("span",)),
    ("semilattice", "_homomorphism_images", "semilattice.homomorphism_images",
     ("span", "misses:_homomorphism_images", "items")),
    ("semilattice", "is_f_scott_continuous", "semilattice.is_f_scott_continuous", ("span",)),
    ("enumeration", "enumerate_posets", "enumeration.enumerate_posets", ("span",)),
    ("enumeration", "canonical_form", "enumeration.canonical_form", ("span",)),
    ("enumeration", "monotone_map_images", "enumeration.monotone_map_images",
     ("span", "misses:monotone_map_images", "items")),
    ("enumeration", "bruteforce_canonical_forms", "enumeration.bruteforce_canonical_forms", ("span",)),
    ("cli", "main", "cli.main", ("span",)),
)

# Constructors are timed by wrapping __init__, so isinstance checks and
# classmethods keep working.
CONSTRUCTORS = (
    ("poset", "FinitePoset", "poset.FinitePoset"),
    ("semilattice", "VSemilattice", "semilattice.VSemilattice"),
)


class Tracer:
    """Span stack with integer-nanosecond self times and exact counters."""

    def __init__(self):
        self.stack: list[list[int]] = []
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.root_ns = 0  # time covered by outermost spans

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def enter(self) -> list[int]:
        frame = [time.perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def leave(self, name: str, frame: list[int]) -> None:
        dur = time.perf_counter_ns() - frame[0]
        self.stack.pop()
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - frame[1]
        self.count(name + ".calls")
        if self.stack:
            self.stack[-1][1] += dur
        else:
            self.root_ns += dur

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(name, frame)

        return traced


def _rebind(orig, replacement) -> int:
    """Point every powerlab module global that names ``orig`` at ``replacement``."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if not (name == "powerlab" or name.startswith("powerlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                n += 1
    return n


def _wrap_function(tracer: Tracer, fn, prefix: str, kinds, cache):
    items = "items" in kinds
    not_found_cls = sys.modules["powerlab.hoare"].NoWitnessFound if "not_found" in kinds else None
    items_on_miss = items and cache is not None

    def call(*args, **kwargs):
        before = cache.cache_info().misses if items_on_miss else 0
        result = fn(*args, **kwargs)
        if items and (not items_on_miss or cache.cache_info().misses > before):
            tracer.count(prefix + ".items", len(result))
        if not_found_cls is not None and isinstance(result, not_found_cls):
            tracer.count(prefix + ".not_found")
        return result

    if "span" in kinds:
        return tracer.span(prefix, call)

    def counted(*args, **kwargs):
        tracer.count(prefix + ".calls")
        return call(*args, **kwargs)

    return counted


def install(tracer: Tracer) -> dict:
    """Wrap every traced boundary; returns {prefix: (lru_cache, misses at start)}."""
    caches = {}
    for modname, attr, prefix, kinds in FUNCTIONS:
        mod = sys.modules["powerlab." + modname]
        fn = getattr(mod, attr)
        cache = None
        for kind in kinds:
            if kind.startswith("misses:"):
                cache = getattr(mod, kind.split(":", 1)[1])
                caches[prefix] = (cache, cache.cache_info().misses)
        if _rebind(fn, _wrap_function(tracer, fn, prefix, kinds, cache)) == 0:
            raise RuntimeError(f"no powerlab namespace holds {modname}.{attr}")
    for modname, cls_name, prefix in CONSTRUCTORS:
        cls = getattr(sys.modules["powerlab." + modname], cls_name)
        cls.__init__ = tracer.span(prefix, cls.__init__)
    run_statement = sys.modules["powerlab.suite"].run_statement

    def traced_statement(statement, config):
        name = "suite." + statement.replace(".", "_")
        frame = tracer.enter()
        try:
            reports = run_statement(statement, config)
        finally:
            tracer.leave(name, frame)
        tracer.count("suite.instances", len(reports))
        return reports

    _rebind(run_statement, traced_statement)
    return caches


def collect(tracer: Tracer, caches: dict) -> tuple[dict, dict]:
    """(self times in ms, exact counts) for every per-layer metric name."""
    counts = dict(tracer.counts)
    for prefix, (cache, at_start) in caches.items():
        counts[prefix + ".misses"] = cache.cache_info().misses - at_start
    self_ms = {name: ns / 1e6 for name, ns in tracer.self_ns.items()}
    return self_ms, counts


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for _mod, _attr, prefix, kinds in FUNCTIONS:
        if "span" in kinds:
            out.append((prefix + ".self_ms", "ms"))
        if "span" in kinds or "count" in kinds:
            out.append((prefix + ".calls", "count"))
        for kind in kinds:
            if kind.startswith("misses:"):
                out.append((prefix + ".misses", "count"))
        if "items" in kinds:
            out.append((prefix + ".items", "count"))
        if "not_found" in kinds:
            out.append((prefix + ".not_found", "count"))
    for _mod, _cls, prefix in CONSTRUCTORS:
        out.append((prefix + ".self_ms", "ms"))
        out.append((prefix + ".calls", "count"))
    for statement in STATEMENTS:
        out.append(("suite." + statement.replace(".", "_") + ".self_ms", "ms"))
    out.append(("suite.instances", "count"))
    return out
