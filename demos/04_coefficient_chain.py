#!/usr/bin/env python3
"""The integer calculus that turns the counting inequalities into the
weight bound: two mass-preserving rebalancing stages, each raising the
binomial-weighted sum, ending in prefix-bounded coefficients."""

import random

from spernerlab.coefficients import (
    binom_swap,
    minimal_n0,
    rearrangement_dominance,
    to_gdoubleprime,
    to_gprime,
    verify_chain,
    weighted_sum,
)
from spernerlab.cycle import g_profile
from spernerlab.families import Params
from spernerlab.generators import random_dominance_triple, random_full_consecutive

print("=== the binomial swap inequality ===")
print("n=6, (a,b)=(0,2): C(6,3)+C(6,5) <= C(6,4)+C(6,4)?", binom_swap(6, 0, 2))
print("negative a holds for every n:", all(binom_swap(n, -1, 2) for n in range(1, 200)))
print("(0,3) first fails at n=4:", not binom_swap(4, 0, 3),
      "and is suffix-stable from", minimal_n0(0, 3, 10_000))

print()
print("=== rebalancing a harvested profile ===")
rng = random.Random(11)
p = Params(n=24, t=4, k=3)
G = random_full_consecutive(rng, 24, 4, 3, m=2)
g = g_profile(G, p)
print("profile g   (classes -m..k+m-1):", g.values, " mass", g.total())
gp = to_gprime(g)
print("stage g'   (top classes rehomed):", gp.values, " mass", gp.total())
gpp = to_gdoubleprime(gp)
print("stage g''  (window [0..k] only): ", gpp.values, " mass", gpp.total())
print("weighted sums never decreased:",
      weighted_sum(g), "<=", weighted_sum(gp), "<=", weighted_sum(gpp))

print()
print("=== the full checkpoint report ===")
rep = verify_chain(g)
for j, run, cap, tag in rep.prefix:
    print(f"  prefix through class {j}: {run} <= {cap}   [{tag}]")
print(f"final: {rep.weighted_gdoubleprime} <= n * (k middle binomials)"
      f" = {rep.final_bound}  -> {rep.final_ok}")
print("everything holds:", rep.ok)

print()
print("=== the rearrangement fact used between the stages ===")
chk = rearrangement_dominance([3, 1], [2, 2], [5, 1])
print("a=(3,1), b=(2,2), d=(5,1): sum(a*d) - sum(b*d) =", chk.difference,
      ">= 0:", chk.holds)
rng = random.Random(0)
ok = all(rearrangement_dominance(*random_dominance_triple(rng, 6)).holds
         for _ in range(2000))
print("2000 random valid triples all dominate:", ok)
