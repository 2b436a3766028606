"""
The consistent Hoare powerdomain
================================

Members are the nonempty consistent Scott closed sets; consistent pairs join
by plain union; points embed as their down-sets.  Non-members are refuted by
a canonical witness: mapping the poset into its own powerdomain.
"""

import json

from powerlab import (
    NoWitnessFound,
    build_hc,
    catalog,
    gamma_c,
    refute_v_existing,
    sup_of_image,
)
from powerlab.hoare import partial_join

for poset in (catalog.antichain(2), catalog.vee(), catalog.wedge()):
    h = build_hc(poset)
    print(f"H_c over {poset.labels}: {len(h.family)} members ->", h.poset.labels)
print()

V = catalog.vee()
h = build_hc(V)

# consistent pairs join by union
a = V.subset_from_labels(["a"])
b = V.subset_from_labels(["b"])
print("{a} v {b} =", V.subset_labels(partial_join(h, a, b)))

# the embedding sends x to its down-set and reflects the order
print("j images:", [h.poset.labels[i] for i in h.j.img])
print()

# join-existence certificates: the two-antichain's pair has no bound anywhere
A2 = catalog.antichain(2)
h2 = build_hc(A2)
cert = sup_of_image(h2.semilattice, h2.j, A2.full_mask)
print("canonical certificate for {a,b} in A2:")
print(json.dumps(cert.to_json(), indent=2))

# a consistent member survives every semilattice up to the bound
result = refute_v_existing(V, V.subset_from_labels(["a", "b"]), max_size=4)
assert isinstance(result, NoWitnessFound)
print("\n{a,b} in V survives refutation:", result.to_json())

# the wedge's top set {m,a,b} is closed but inconsistent, so it is refuted
W = catalog.wedge()
print("wedge family:", gamma_c(W))
witness = refute_v_existing(W, W.full_mask, max_size=4)
print("{m,a,b} refuted with verdict:", witness.verdict)
