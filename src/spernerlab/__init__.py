"""spernerlab: exact machinery for t-intersecting k-Sperner set families.

Five layers, mirroring how the mathematics is organized:

* families      core predicates and operators on bitmask set families
* compression   size-band normalization (shade lift + shadow down-shift)
* cycle         interval families on the n-cycle and their counting checks
* coefficients  the profile-rebalancing calculus behind the weight bound
* search        brute-force extremal oracle, constructions, bound table
"""

from .families import (
    Family,
    InvariantViolation,
    Params,
    PreconditionError,
    binomial,
    chain_heights,
    complement_family,
    is_k_sperner,
    is_t_intersecting,
    longest_chain,
    longest_chain_members,
    shade,
    shadow,
    verify_katona_shadow,
    weight,
)
from .compression import (
    NormalizationReport,
    antichain_shadow_holds,
    down_shift,
    normalize,
    shade_expansion_holds,
    up_compress,
)
from .cycle import (
    CyclicPerm,
    Interval,
    IntervalFamily,
    all_cyclic_perms,
    averaging_identity,
    bar_complement,
    chain_intervals,
    check_complement_closure,
    check_count_inequalities,
    check_weight_bound,
    fill_full,
    g_profile,
    identity_perm,
    interval_weight,
    is_full_consecutive,
    is_sigma_ks_ti,
    make_consecutive,
    restrict_to_cycle,
)
from .coefficients import (
    CoeffVector,
    binom_swap,
    minimal_n0,
    profile_vector,
    rearrangement_dominance,
    to_gdoubleprime,
    to_gprime,
    verify_chain,
    weighted_sum,
)
from .search import (
    BoundReport,
    Budget,
    SearchResult,
    bounds_table,
    construct_A,
    construct_B,
    construct_layers,
    g_function,
    max_family_size,
    size_A,
    size_B,
    size_B_closed_form,
    size_layers,
)
