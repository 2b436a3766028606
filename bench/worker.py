"""One cold benchmark sample in a fresh interpreter.

Imports powerlab from this checkout's ``src/``, runs one workload once and
writes its measurements as JSON.  A fresh process per sample matters: the
module-level caches (the lru_caches on ``build_hc``, ``monotone_map_images``,
``_homomorphism_images``, ``_gamma_f_cached``, ``_canonical_forms``,
``_semilattices_upto`` and ``_SEMILATTICE_POOL``) would make later samples
warm, while every real ``powerlab verify`` pays the cold cost.

Spawned by ``run.py`` as ``worker.py '<spec json>'``; the spec holds
``workload``, ``seed``, ``trace``, ``setup_only``, ``spawned_at`` (the
CLOCK_MONOTONIC time of the spawn), ``workdir`` and ``result``.
"""

# Only what the spawn timing needs is imported up front, so setup_s covers
# the interpreter and powerlab's own import.
import json
import os
import sys
import time

IMPORT_FAILED = 3

# Published counts of posets on n unlabeled points, n = 1..7 (OEIS A000112;
# Brinkmann & McKay, "Posets on up to 16 points", Order 19, 2002).
CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}
ENUM_MAX_N = 7
RELABEL_SIZES = (6, 7)
PROBE_REPEATS = 8  # before the workload, and again after it


def probe_s() -> float:
    """Time of a fixed integer loop that calls no powerlab code.  It follows
    the speed the host gives this process, which on a shared machine changes
    by up to 2x from one minute to the next; run.py scales times by it."""
    t0 = time.perf_counter()
    x = acc = 0
    for i in range(100_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= x >> (i & 7)
    return time.perf_counter() - t0


def verify_default(powerlab, workdir: str) -> dict:
    report = os.path.join(workdir, "report.json")
    t0 = time.perf_counter()
    exit_code = powerlab.cli.main(["verify", "--out", report])
    wall_s = time.perf_counter() - t0
    return {"wall_s": wall_s, "exit_code": exit_code, "report": report}


def pack(p) -> bytes:
    """The packed relation of ``p`` (n byte, then row-major bits of le[i][j]),
    computed here independently of powerlab's canonical-form code."""
    n = p.n
    acc = 0
    for i, row in enumerate(p.up_masks):
        acc |= row << (i * n)
    return bytes([n]) + acc.to_bytes((n * n + 7) // 8, "big")


def relabel(cls, p, perm):
    """A copy of ``p`` with element i renamed perm[i]."""
    n = p.n
    le = [[False] * n for _ in range(n)]
    for i, row in enumerate(p.up_masks):
        for j in range(n):
            if row >> j & 1:
                le[perm[i]][perm[j]] = True
    return cls(le)


def enum_n7(powerlab, seed: int, workdir: str) -> dict:
    import hashlib
    import random

    rng = random.Random(seed)
    perms = {
        n: [rng.sample(range(n), n) for _ in range(CLASS_COUNTS[n])]
        for n in RELABEL_SIZES
    }
    cache_dir = os.path.join(workdir, "cache")
    # attribute lookups at call time, so a traced run sees the wrappers
    en = powerlab.enumeration
    emitted, relabeled = {}, {}
    t0 = time.perf_counter()
    for n in range(1, ENUM_MAX_N + 1):
        emitted[n] = en.enumerate_posets(n, max_n=ENUM_MAX_N, cache_dir=cache_dir)
        if n in perms:
            draws = perms[n]
            relabeled[n] = [
                en.canonical_form(relabel(powerlab.FinitePoset, p, draws[k % len(draws)]))
                for k, p in enumerate(emitted[n])
            ]
    wall_s = time.perf_counter() - t0

    forms = {n: [pack(p) for p in ps] for n, ps in emitted.items()}
    return {
        "wall_s": wall_s,
        "classes": {n: len(f) for n, f in forms.items()},
        "forms_sha256": {n: hashlib.sha256(b"".join(f)).hexdigest() for n, f in forms.items()},
        "forms_sorted": {n: all(a < b for a, b in zip(f, f[1:])) for n, f in forms.items()},
        "relabel_checked": sum(len(r) for r in relabeled.values()),
        "relabel_mismatches": sum(
            got != want for n in relabeled for got, want in zip(relabeled[n], forms[n])
        ),
    }


def run_workload(powerlab, spec: dict) -> dict:
    import statistics
    import traceback

    cpu0 = time.process_time()
    probes = [probe_s() for _ in range(PROBE_REPEATS)]
    probe_cpu_s = time.process_time() - cpu0
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        caches = spans.install(tracer)
    out = {}
    try:
        if spec["workload"] == "enum_n7":
            out.update(enum_n7(powerlab, spec["seed"], spec["workdir"]))
        else:
            out.update(verify_default(powerlab, spec["workdir"]))
    except Exception:  # a crash of the program under test is a measured failure
        out["error"] = traceback.format_exc()
    cpu0 = time.process_time()
    probes += [probe_s() for _ in range(PROBE_REPEATS)]
    out["probe_cpu_s"] = probe_cpu_s + time.process_time() - cpu0
    out["probe_s"] = statistics.median(probes)
    if tracer is not None:
        self_ms, counts = spans.collect(tracer, caches)
        out["trace"] = {"self_ms": self_ms, "counts": counts, "root_s": tracer.root_ns / 1e9}
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    try:
        import powerlab.cli
    except ImportError as exc:
        print(f"cannot import powerlab from {src}: {exc}", file=sys.stderr)
        return IMPORT_FAILED
    setup_s = time.monotonic() - spec["spawned_at"]
    if not os.path.abspath(powerlab.__file__).startswith(src + os.sep):
        print(f"powerlab was imported from {powerlab.__file__}, not {src}", file=sys.stderr)
        return IMPORT_FAILED
    result = {"setup_s": setup_s}
    if not spec["setup_only"]:
        result.update(run_workload(powerlab, spec))
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
