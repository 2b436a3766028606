"""
Enumeration up to isomorphism and the verification sweep
========================================================

Posets are generated one maximal element at a time with canonical-form
rejection, cross-checked against a brute-force oracle, and every statement in
the catalog is then machine-checked over them.
"""

import json

from powerlab import (
    Config,
    are_isomorphic,
    canonical_form,
    catalog,
    enumerate_posets,
    enumerate_v_semilattices,
    run_all,
)
from powerlab.enumeration import bruteforce_canonical_forms

print("poset classes by size:", [len(enumerate_posets(n)) for n in range(1, 6)])
print("oracle agrees:        ", [len(bruteforce_canonical_forms(n)) for n in range(1, 6)])
print("semilattices by size: ", [len(enumerate_v_semilattices(n)) for n in range(1, 6)])
print()

# canonical forms decide isomorphism; the vee and the wedge are dual but not
# isomorphic
V, W = catalog.vee(), catalog.wedge()
print("V ~ W ?", are_isomorphic(V, W))
print("V ~ V relabeled?", are_isomorphic(V, catalog.vee()))
print("canonical bytes of V:", canonical_form(V).hex())
print()

# the whole statement catalog at small bounds; exit code 0 means all pass
summary = run_all(Config(max_poset_n=4, max_semilattice_n=3))
for group in summary.to_json()["statements"]:
    status = "FAIL" if group["failures"] else "PASS"
    print(f"  {group['statement']:<9} {status}  ({group['instances']} instances)")
print("exit code:", summary.exit_code())

# reports serialize to JSON for CI consumption; each statement's wall_ms is
# the one field that differs from run to run
report = summary.to_json()
for group in report["statements"]:
    del group["wall_ms"]
print("report size without timings:", len(json.dumps(report)), "bytes")
