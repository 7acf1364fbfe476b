#!/usr/bin/env python3
"""Tour of the set-family core: masks, canonical families, predicates,
shadows and shades, weights, and the uniform shadow ratio check."""

import itertools

from spernerlab.families import (
    Family,
    binomial,
    complement_family,
    is_k_sperner,
    is_t_intersecting,
    longest_chain,
    shade,
    shadow,
    verify_katona_shadow,
    weight,
)

print("=== families over [n] as sorted bitmask tuples ===")
fam = Family.from_sets(5, [[1, 2, 3], [1, 2], [2, 3, 4], [1, 2]])
print("input had a duplicate; canonical form:", fam.to_sets())
print("layer profile:", fam.profile())

print()
print("=== the two defining predicates ===")
print("pairwise |A & B| >= 1?", is_t_intersecting(fam, 1))
print("pairwise |A & B| >= 2?", is_t_intersecting(fam, 2))
print("longest nested chain:", longest_chain(fam))
print("fits k = 2?", is_k_sperner(fam, 2), "   k = 1?", is_k_sperner(fam, 1))

print()
print("=== shadows and shades ===")
pairs = Family.from_sets(4, [[1, 2], [2, 3]])
print("level-1 shadow of {12, 23}:", shadow(pairs, 1).to_sets())
print("level-3 shade of {12} in [4]:", shade(Family.from_sets(4, [[1, 2]]), 3).to_sets())

layer3 = Family.from_sets(5, itertools.combinations(range(1, 6), 3))
print("size of the level-2 shadow of all 3-subsets of [5]:", len(shadow(layer3, 2)),
      "(= C(5,2) =", binomial(5, 2), ")")

print()
print("=== complements are an involution ===")
print("complement of {{1,2}} in [3]:", complement_family(Family.from_sets(3, [[1, 2]])).to_sets())

print()
print("=== weight: each member counts C(n, size) ===")
layer2 = Family.from_sets(4, itertools.combinations(range(1, 5), 2))
print("all 2-subsets of [4] weigh", weight(layer2), "(6 members x C(4,2) = 36)")

print()
print("=== uniform shadow ratio (exact rational comparison) ===")
star = Family.from_sets(5, [[1, x] for x in range(2, 6)])
chk = verify_katona_shadow(star, r=2, t=1, level=1)
print(f"star of four pairs: shadow has {chk.shadow_size} singletons,"
      f" required at least {chk.required} -> holds: {chk.holds}")

full = Family.from_sets(6, itertools.combinations(range(1, 7), 4))
chk = verify_katona_shadow(full, r=4, t=2, level=3)
print(f"full 4-layer of [6]: {chk.shadow_size} >= {chk.required} with equality"
      f" -> holds: {chk.holds}")
