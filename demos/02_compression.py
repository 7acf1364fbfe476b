#!/usr/bin/env python3
"""Walkthrough of the size-band normalizer: lifting small sets through
their shades, then shadowing oversized sets back down.  Neither pass loses
members or either defining property."""

import random

from spernerlab.compression import down_shift, normalize, up_compress
from spernerlab.families import Family, Params, is_k_sperner, is_t_intersecting
from spernerlab.generators import random_valid_family

p = Params(n=6, t=2, k=1)
print(f"ground set [6], pairwise intersection >= {p.t}, chains <= {p.k}")
print("target band center ceil((n+t)/2) =", p.half_up)

print()
print("=== lifting: one small set becomes its shade ===")
fam = Family.from_sets(6, [[1, 2, 3]])
out, rep = up_compress(fam, p)
print(f"{fam.to_sets()} -> {out.to_sets()}")
print("trace:", rep.steps)

print()
print("=== down-shift: the full set falls to the middle layer ===")
fam = Family.from_sets(6, [[1, 2, 3, 4, 5, 6]])
out, rep = down_shift(fam, p)
print(f"one 6-set -> {len(out)} sets, all of size {out.min_size()}")
print("that is the whole middle layer: the even-parity record holder")

print()
print("=== a messier example, end to end ===")
p = Params(n=8, t=2, k=2)
fam = Family.from_sets(8, [
    [1, 2, 3], [1, 2, 4], [1, 2, 3, 4, 5, 6, 7], [1, 2, 5, 6, 7, 8],
])
out, rep = normalize(fam, p)
print("before:", fam.to_sets())
print("after: ", out.to_sets())
print(f"sizes landed in {rep.band}, band half-width m = {rep.m}, shift c = {rep.c}")
print("steps:", rep.steps)
print("size never dropped:", len(out) >= len(fam))

print()
print("=== randomized confidence pass ===")
rng = random.Random(2024)
worst = 0
for _ in range(300):
    n = rng.randint(4, 10)
    t = rng.randint(1, n - 1)
    k = rng.randint(1, 3)
    q = Params(n=n, t=t, k=k)
    f0 = random_valid_family(rng, n, t, k)
    f1, r = normalize(f0, q)
    assert len(f1) >= len(f0)
    assert is_t_intersecting(f1, t) and is_k_sperner(f1, k)
    assert r.m <= k - 1
    worst = max(worst, len(f1) - len(f0))
print("300 random valid families normalized; all invariants held;")
print("largest size gain seen:", worst)
