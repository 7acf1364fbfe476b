#!/usr/bin/env python3
"""The cycle on [n]: restricting a family to intervals, closing gaps,
filling chains, bar complements, the size-class profile, and the counting
inequalities behind the weight bound."""

import itertools
import random

from spernerlab.cycle import (
    CyclicPerm,
    Interval,
    IntervalFamily,
    arc_mask,
    averaging_identity,
    bar_complement,
    check_complement_closure,
    check_instance,
    fill_full,
    g_profile,
    interval_weight,
    is_full_consecutive,
    make_consecutive,
    restrict_to_cycle,
)
from spernerlab.families import Family, Params
from spernerlab.generators import random_full_consecutive

print("=== restriction to the cycle ===")
fam = Family.from_sets(4, itertools.combinations(range(1, 5), 2))
res = restrict_to_cycle(fam, CyclicPerm((1, 2, 3, 4)))
print("of the six 2-subsets of [4], the cyclically consecutive ones:",
      [(iv.start, iv.length) for iv in res])

print()
print("=== closing a gap in a chain ===")
p = Params(n=6, t=2, k=2)
G = IntervalFamily(6, [Interval(length=3, start=0), Interval(length=5, start=0)])
out = make_consecutive(G, p)
print("chain held lengths {3, 5}; the gap length 4 >= n/2 replaces the 5:",
      sorted(iv.length for iv in out.members))
print(f"weight rose from {interval_weight(G)} to {interval_weight(out)}")

print()
print("=== filling to a full family: k intervals on every chain ===")
p = Params(n=8, t=2, k=2)
G = IntervalFamily(8, [Interval(length=5, start=0)])
full = fill_full(G, p)
print(f"one interval grew to {len(full)} = k*n members;"
      f" full consecutive: {is_full_consecutive(full, 2)}")

print()
print("=== bar complements overlap their interval in exactly t spots ===")
iv = Interval(length=4, start=0)
bc = bar_complement(iv, 6, 2)
mask = arc_mask(6, bc.length, bc.start)
print("interval {1,2,3,4} on the 6-cycle; bar complement:",
      sorted(e + 1 for e in range(6) if mask >> e & 1), "(size n + t - |G|)")

print()
print("=== the counting inequalities on random full families ===")
rng = random.Random(7)
p = Params(n=20, t=2, k=3)
G = random_full_consecutive(rng, 20, 2, 3, m=2)
prof = g_profile(G, p)
print("size-class profile (classes -m..k+m-1):", prof.values, " total", prof.total())
rec = check_instance(G, p)
for r in rec["inequalities"]:
    print(f"  inequality ({r['name']}) at j={r['j']}: {r['lhs']} <= {r['rhs']}  -> {r['holds']}")
print("missing-interval side families disjoint:", rec["side_families_disjoint"])
print("bar-complement closure:", not check_complement_closure(G, p))
wb = rec["weight_bound"]
print(f"weight {wb['weight']} <= n * (sum of k middle binomials) = {wb['bound']}:"
      f" {wb['holds']}")

print()
print("=== the averaging identity that transfers the cycle bound ===")
fam = Family.from_sets(4, itertools.combinations(range(1, 5), 2))
chk = averaging_identity(fam)
print(f"sum over all 3! cyclic orders of restriction weights = {chk.lhs}"
      f" = 4! * {len(fam)} = {chk.rhs}: {chk.holds}")
