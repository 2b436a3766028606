"""
Partial joins and the F-Scott closure system
============================================

On a semilattice with joins for consistent pairs, the F-Scott closed sets are
the lower sets that also swallow joins of their consistent finite subsets.
The closure system is generated by closure steps, each closed set C giving
cl_f(max C ∪ {x}) for every x minimal outside it, and sending a closed set
of the base poset to the closure of its embedded image lands an order
isomorphism onto it.
"""

from powerlab import (
    VSemilattice,
    build_hc,
    catalog,
    cl_f,
    gamma,
    gamma0,
    gamma_f,
    is_f_scott_closed,
)

V = catalog.vee()
print("is V a consistent-join semilattice?", VSemilattice.from_poset(V) is not None)
print("is the bowtie?", VSemilattice.from_poset(catalog.bowtie()) is not None)
print()

lv = VSemilattice.from_poset(V)
print("join table of V:")
print(lv.join_table_csv())

# the powerdomain of V, seen as a semilattice
h = build_hc(V)
l = h.semilattice
labels = l.poset.labels
print("powerdomain elements:", labels)

# the pair of point closures is not F-Scott closed: its join is missing
pair = 0b0011
print("{ {a},{b} } F-Scott closed?", is_f_scott_closed(l, pair))
print("cl_f adds the join:", [labels[i] for i in range(l.n) if cl_f(l, pair) >> i & 1])
print()

# closure steps from the empty set reach the whole system; sizes line up
# with gamma0(V)
system = gamma_f(l)
print("F-Scott closure system of H_c(V):")
for m in system.members:
    print("  ", [labels[i] for i in range(l.n) if m >> i & 1])
print("|system| =", len(system.members), " |gamma(V)|+1 =", len(gamma(V)) + 1)
print()

# the order isomorphism: closed set of V  ->  closure of its embedded image
eta = {}
for a in gamma0(V).members:
    jbits = 0
    for x in range(V.n):
        if a >> x & 1:
            jbits |= 1 << h.j.img[x]
    eta[tuple(V.subset_labels(a))] = [labels[i] for i in range(l.n) if cl_f(l, jbits) >> i & 1]
for src, dst in eta.items():
    print(f"  {list(src)} -> {dst}")
