#!/usr/bin/env python3
"""The ground-truth oracle: exact maximum family sizes at desk scale, the
two odd-parity candidate constructions, and the closed-form bound table."""

from spernerlab.families import Params
from spernerlab.search import (
    Budget,
    bounds_table,
    construct,
    construction_size,
    g_function,
    max_family_size,
    size_B_closed_form,
)

print("=== even parity: search meets the k-layer formula exactly ===")
for (n, t, k) in [(4, 2, 1), (6, 2, 1), (6, 2, 2), (7, 1, 2), (7, 1, 3)]:
    p = Params(n=n, t=t, k=k)
    res = max_family_size(n, t, k, use_compression=True)
    print(f"  (n,t,k)=({n},{t},{k}): search {res.best_size}"
          f" == formula {construction_size(p, 'layers')}  [{res.nodes} nodes,"
          f" proven={res.proven_optimal}]")

print()
print("=== odd parity: two candidate extremal families ===")
p = Params(n=5, t=2, k=2)
print("A(2,2) on [5]:", construct(p, "A").to_sets())
print("B(2,2) on [5] has", len(construct(p, "B")), "sets; closed form gives",
      size_B_closed_form(p))
res = max_family_size(5, 2, 2, use_compression=True)
print(f"exact search: {res.best_size} -> candidate A wins at this size"
      f" ({construction_size(p, 'A')} vs {construction_size(p, 'B')})")

print()
print("=== but B overtakes A once n grows ===")
for (t, k) in [(2, 2), (1, 2), (3, 3)]:
    flip = None
    n = t + 1
    while n <= 1001:
        if (n + t) % 2 == 1:
            q = Params(n=n, t=t, k=k)
            if construction_size(q, "B") > construction_size(q, "A"):
                flip = n
                break
        n += 1
    print(f"  (t,k)=({t},{k}): first |B| > |A| at n = {flip}")

print()
print("=== the deficiency objective behind the odd-case conjecture ===")
res = g_function(Params(n=5, t=2, k=2))
print(f"g(5,2,2) = {res.value} attained by {res.witness.to_sets()}"
      f" (shade size {res.shade_size})")

print()
print("=== the closed-form bound table ===")
for name, e in sorted(bounds_table(Params(n=7, t=2, k=2)).items()):
    mark = f"n/a ({e.note})" if e.value is None else f"{e.value}"
    print(f"  {name:24s} {mark}")

print()
print("=== a budgeted run stays honest ===")
res = max_family_size(9, 2, 2, use_compression=True, budget=Budget(nodes=200, seconds=5))
print(f"tiny budget: best found {res.best_size}, proven: {res.proven_optimal}")
print("notes:", *res.notes, sep="\n  ")
