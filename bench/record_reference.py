"""Record the output digests that run.py checks every sample against.

    python3 bench/record_reference.py

Runs each workload once, untraced, and writes ``bench/reference.json``.  Run
it only when a change is meant to alter a workload's output, and say so in
that change: a reference recorded from wrong output hides the fault.
"""

import json
import sys
import time

import run


def main() -> int:
    reference = {}
    for workload in run.WORKLOADS:
        sample = run.spawn(
            {"workload": workload, "seed": 0, "trace": False, "setup_only": False},
            time.monotonic() + run.RUN_DEADLINE_S,
        )
        if "error" in sample:
            print(sample["error"], file=sys.stderr)
            return 1
        if workload == "enum_n7":
            reference[workload] = {"forms_sha256": sample["forms_sha256"]}
        else:
            reference[workload] = run.report_digests(sample["report"])
    run.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
