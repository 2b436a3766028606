"""
Finite posets, subsets as bitmasks, and Scott closed sets
=========================================================

Build a few small posets, poke at the elementary order predicates, and watch
the finite-case reductions in action.
"""

from powerlab import (
    FinitePoset,
    down_set,
    hasse,
    is_consistent,
    is_lower_set,
    scott_closure,
    sup,
    upper_bounds,
)
from powerlab.poset import is_directed, is_scott_closed, way_below

# the "vee": two incomparable points below a common top
V = FinitePoset.from_covers(("a", "b", "t"), (("a", "t"), ("b", "t")))
print("V =", V)
print("covering pairs:", [(V.labels[i], V.labels[j]) for i, j in hasse(V)])
print()

# subsets are ints; helpers translate to and from labels
pair = V.subset_from_labels(["a", "b"])
top = V.subset_from_labels(["t"])

print("down-set of {t}:", V.subset_labels(down_set(V, top)))
print("upper bounds of {a,b}:", V.subset_labels(upper_bounds(V, pair)))
print("is {a,b} consistent?", is_consistent(V, pair))
print("is {a,b} directed?", is_directed(V, pair), "(no bound inside the pair)")
print("sup of {a,b}:", V.labels[sup(V, pair)])
print()

# Scott closed versus lower: on finite posets the two notions coincide, and
# the library computes both independently so the coincidence is checkable
print("{a,b} lower?", is_lower_set(V, pair), " Scott closed?", is_scott_closed(V, pair))
print("{t} lower?", is_lower_set(V, top), "  closure:", V.subset_labels(scott_closure(V, top)))
print()

# way-below, decided by quantifying over every directed subset, collapses to
# the order itself on finite posets
for x in range(V.n):
    for y in range(V.n):
        assert way_below(V, x, y) == V.leq(x, y)
print("way-below equals the order relation on V (checked pairwise)")
print()

# DOT export for the Hasse diagram
print(V.to_dot())
