"""Cold-process benchmark for ``powerlab verify`` and poset enumeration.

    python3 bench/run.py --workload verify_default --seed 1 --seconds 30 --trace 0

Each sample is a fresh interpreter (``worker.py``) that imports powerlab from
this checkout's ``src/`` and runs the workload once, because powerlab's
module-level caches would make a second run in the same process warm.
Samples run one at a time until ``--seconds`` are used (at least two).

``--trace 0`` prints the end-to-end metrics (medians over samples):
``wall_s`` (workload time after import), ``setup_s`` (spawn to
``import powerlab.cli`` returning), ``cpu_s`` and ``peak_rss_mb`` (the
worker's rusage, children included).  The three times are scaled by the
sample's own machine-speed probe (``worker.probe_s``) to a machine on which
the probe takes ``PROBE_REF_S``; the unscaled medians are printed beside
them.  ``--trace 1`` alternates untraced and traced samples and prints the
per-layer metrics of ``spans.py`` plus ``trace.overhead_ratio``.

Every sample's output is checked: the ``verify --out`` report, stripped of
its ``wall_ms`` fields, must match the digests in ``reference.json``;
``enum_n7`` must give the published class counts, the recorded per-n digest
of the emitted forms, and the same canonical form for a seeded random
relabeling of every n = 6 and n = 7 class.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
machine-tagged results file is written under ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from worker import CLASS_COUNTS, ENUM_MAX_N, IMPORT_FAILED, RELABEL_SIZES  # noqa: E402

WORKLOADS = ("verify_default", "enum_n7")
MIN_SAMPLES = 2  # untraced; a traced run needs one untraced and two traced
RUN_DEADLINE_S = 165.0
# Wrapper calls and the float timer around the workload differ from the
# tracer's integer clock by microseconds; 1 ms is far above that.
ROOT_TOLERANCE_S = 1e-3
# The shared 2-core host this was built on runs the same sample up to 2x
# slower from one minute to the next, and the probe slows with it.  Scaling
# each sample's times by PROBE_REF_S / probe_s halves the spread of run
# medians there; the constant only sets the scale.
PROBE_REF_S = 0.03
REPORT_KEYS = ("config", "statements", "all_pass")


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


# -- machine -------------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read directly, so git
    never searches parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import PackageNotFoundError, version

        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
    }


# -- one worker ------------------------------------------------------------------


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("POWERLAB_CACHE", None)  # a stray cache file can change results
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run worker.py once in its own temp dir and return its result, with
    cpu_s and peak_rss_mb from wait4's rusage (children included)."""
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="sample-", dir=OUT)
    try:
        spec = dict(spec, workdir=workdir, result=os.path.join(workdir, "result.json"))
        opened = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.path.join(workdir, "stdout"), opened, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, os.path.join(workdir, "stderr"), opened, 0o644),
        ]
        argv = [sys.executable, str(BENCH / "worker.py")]
        spec["spawned_at"] = time.monotonic()
        pid = os.posix_spawn(
            sys.executable, argv + [json.dumps(spec)], _worker_env(), file_actions=actions
        )
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)

        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: leave no worker behind
            kill()
            os.wait4(pid, 0)
            raise
        finally:
            watchdog.cancel()
        if timed_out.is_set():
            raise BenchError(f"worker for {spec['workload']} ran past the run deadline")
        code = os.waitstatus_to_exitcode(status)
        stderr = Path(workdir, "stderr").read_text()[-2000:]
        if code == IMPORT_FAILED:
            raise BenchError(stderr.strip() or "worker could not import powerlab")
        if code != 0:
            result = {"error": f"worker exited with {code}: {stderr}"}
        else:
            result = json.loads(Path(spec["result"]).read_text())
        # the probes' own CPU time is the benchmark's, not powerlab's
        result["cpu_s"] = usage.ru_utime + usage.ru_stime - result.get("probe_cpu_s", 0.0)
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        if "report" in result:
            result["report"] = _stripped_report(Path(result["report"]))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- output checks ---------------------------------------------------------------


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _stripped_report(path: Path):
    try:
        return _strip_timing(json.loads(path.read_text()))
    except (OSError, json.JSONDecodeError):
        return None


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_digests(report) -> dict:
    """Digest of the report's result keys and of each statement group."""
    return {
        "report_sha256": digest({k: report.get(k) for k in REPORT_KEYS}),
        "groups": {g["statement"]: digest(g) for g in report.get("statements", [])},
    }


def sample_digest(workload: str, sample: dict) -> str | None:
    """One digest of a sample's checked output, to compare traced with untraced."""
    if "error" in sample:
        return None
    if workload == "enum_n7":
        return digest([sample["forms_sha256"], sample["relabel_mismatches"]])
    return report_digests(sample["report"])["report_sha256"] if sample["report"] else None


def check_verify(sample: dict, ref: dict) -> tuple[int, int]:
    """(attempted, failed); an operation is one statement group."""
    attempted = len(ref["groups"])
    report = sample.get("report")
    if "error" in sample or report is None:
        return attempted, attempted
    got = report_digests(report)
    failed = sum(got["groups"].get(s) != d for s, d in ref["groups"].items())
    whole_ok = (
        got["report_sha256"] == ref["report_sha256"]
        and report.get("all_pass") is True
        and sample["exit_code"] == 0
    )
    if failed == 0 and not whole_ok:
        failed = attempted  # wrong in a way no single group explains
    return attempted, failed


def check_enum(sample: dict, ref: dict) -> tuple[int, int]:
    """(attempted, failed); an operation is one n or one relabel check."""
    relabels = sum(CLASS_COUNTS[n] for n in RELABEL_SIZES)
    attempted = ENUM_MAX_N + relabels
    if "error" in sample:
        return attempted, attempted
    failed = 0
    for n in range(1, ENUM_MAX_N + 1):
        k = str(n)
        ok = (
            sample["classes"].get(k) == CLASS_COUNTS[n]
            and sample["forms_sha256"].get(k) == ref["forms_sha256"][k]
            and sample["forms_sorted"].get(k) is True
        )
        failed += not ok
    checked = min(sample["relabel_checked"], relabels)
    failed += sample["relabel_mismatches"] + (relabels - checked)
    return attempted, min(failed, attempted)


def check(workload: str, sample: dict, reference: dict) -> tuple[int, int]:
    ref = reference[workload]
    return (check_enum if workload == "enum_n7" else check_verify)(sample, ref)


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {REFERENCE}: {exc}")


# -- a run -------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else None


def collect_samples(workload: str, seed: int, seconds: int, trace: bool, start: float):
    """Workload samples, each carrying a 'traced' flag."""
    deadline = start + RUN_DEADLINE_S
    base = {"workload": workload, "seed": seed, "trace": False, "setup_only": True}
    spawn(base, deadline)  # unmeasured: compiles bytecode in a fresh checkout
    pattern = [False, True, True] if trace else [False] * MIN_SAMPLES
    kinds = itertools.cycle(pattern)
    samples, durations = [], []
    while True:
        elapsed = time.monotonic() - start
        if len(samples) >= len(pattern) and elapsed + _median(durations) > seconds:
            break
        traced = next(kinds)
        t0 = time.monotonic()
        sample = spawn(dict(base, trace=traced, setup_only=False), deadline)
        durations.append(time.monotonic() - t0)
        sample["traced"] = traced
        samples.append(sample)
    return samples


def _median_of(samples, key: str, unit: str, scale: bool) -> tuple:
    values = [s[key] * (PROBE_REF_S / s["probe_s"] if scale else 1.0) for s in samples]
    return _median(values), unit, len(values)


def end_to_end(samples, scale: bool = True) -> dict:
    ok = [s for s in samples if "wall_s" in s and "probe_s" in s]
    return {
        "wall_s": _median_of(ok, "wall_s", "s", scale),
        "setup_s": _median_of(ok, "setup_s", "s", scale),
        "cpu_s": _median_of(ok, "cpu_s", "s", scale),
        "peak_rss_mb": _median_of(ok, "peak_rss_mb", "MB", False),
    }


def root_covers_wall(workload: str, sample: dict) -> bool:
    """The tracer's outermost spans against the worker's own timer.  The
    verify sweep enters powerlab only through ``cli.main``, so its one root
    span must last as long as ``wall_s``; ``enum_n7`` calls several traced
    functions and also untraced code between them, so its roots may not
    exceed ``wall_s``.  Fails when the wrappers miss the calls the worker
    makes, or when nested spans are billed twice."""
    if "wall_s" not in sample:
        return False
    root, wall = sample["trace"]["root_s"], sample["wall_s"]
    if workload == "enum_n7":
        return 0 < root <= wall + ROOT_TOLERANCE_S
    return abs(root - wall) <= ROOT_TOLERANCE_S


def per_layer(workload: str, samples) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced samples, and any failed self-check."""
    traced = [s for s in samples if s["traced"] and "trace" in s]
    untraced = [s for s in samples if not s["traced"] and "wall_s" in s]
    problems = []
    if len(traced) < 2:
        problems.append("fewer than two traced samples completed")
    if not all(root_covers_wall(workload, s) for s in traced):
        problems.append("traced root spans do not match the workload's wall time")
    if any(s["trace"]["counts"] != traced[0]["trace"]["counts"] for s in traced):
        problems.append("traced samples gave different counts")
    metrics = {}
    for name, unit in spans.metric_names():
        if unit == "ms":
            value = _median([s["trace"]["self_ms"].get(name[: -len(".self_ms")], 0.0) for s in traced])
        else:
            value = traced[0]["trace"]["counts"].get(name, 0) if traced else None
        metrics[name] = (value, unit, len(traced))
    traced_wall = end_to_end(traced)["wall_s"][0]
    untraced_wall = end_to_end(untraced)["wall_s"][0]
    overhead = None if traced_wall is None or untraced_wall is None else traced_wall / untraced_wall
    metrics["trace.overhead_ratio"] = (overhead, "ratio", len(traced) + len(untraced))
    return metrics, problems


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "powerlab" / "__init__.py").is_file():
        raise BenchError(f"no powerlab sources under {ROOT / 'src'}")
    reference = load_reference()
    machine = machine_info()
    start = time.monotonic()
    samples = collect_samples(workload, seed, seconds, trace, start)
    attempted = failed = 0
    for s in samples:
        a, f = check(workload, s, reference)
        s["attempted"], s["failed"] = a, f
        attempted += a
        failed += f
    problems = [s["error"] for s in samples if "error" in s]
    if trace:
        metrics, trace_problems = per_layer(workload, samples)
        problems += trace_problems
        if len({sample_digest(workload, s) for s in samples}) != 1:
            problems.append("traced and untraced samples gave different outputs")
    else:
        metrics = end_to_end(samples)
    if any(v is None for v, _unit, _n in metrics.values()):
        problems.append("some metric has no completed sample")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if v is not None else 0.0, "unit": u} for k, (v, u, _n) in metrics.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine,
        "run_s": time.monotonic() - start,
        "fail_rate": failed / attempted,
        "problems": problems,
        "unscaled": {k: v for k, (v, _u, _n) in end_to_end(samples, scale=False).items()},
        "sample_counts": {k: n for k, (_v, _u, n) in metrics.items()},
        "samples": [
            {k: v for k, v in s.items() if k not in ("report", "trace")}
            | ({"root_s": s["trace"]["root_s"]} if "trace" in s else {})
            for s in samples
        ],
        "result": result,
    }
    return result, details


def print_table(details: dict) -> None:
    result = details["result"]
    print(f"# {details['workload']} seed={details['seed']} trace={int(details['trace'])} "
          f"samples={len(details['samples'])} run_s={details['run_s']:.1f} "
          f"machine={json.dumps(details['machine'])}")
    for name, m in result["metrics"].items():
        n = details["sample_counts"][name]
        how = "exact, repeated" if m["unit"] == "count" else "median"
        print(f"{details['workload']:<15} {name:<48} {m['value']:>14.6f} {m['unit']:<6} ({how} over {n})")
    for name, value in details["unscaled"].items():
        if value is not None and name != "peak_rss_mb":
            print(f"{details['workload']:<15} {'unscaled.' + name:<48} {value:>14.6f} {'s':<6} (median, not scaled by the probe)")
    print(f"{details['workload']:<15} {'fail_rate':<48} {details['fail_rate']:>14.6f} "
          f"{'ratio':<6} ({result['failed']}/{result['attempted']})")
    for problem in details["problems"]:
        print(f"problem: {problem.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="relabel seed of enum_n7; verify_default ignores it")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(details, indent=2))
    print_table(details)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
