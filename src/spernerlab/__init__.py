"""spernerlab: exact machinery for t-intersecting k-Sperner set families.

Five layers, mirroring how the mathematics is organized:

* families      core predicates and operators on bitmask set families
* compression   size-band normalization (shade lift + shadow down-shift)
* cycle         interval families on the n-cycle and their counting checks
* coefficients  the profile-rebalancing calculus behind the weight bound
* search        brute-force extremal oracle, constructions, bound table
"""
