import functools
import hashlib
import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from spernerlab import search
from spernerlab.cli import main
from spernerlab.cycle import cycle_bound_at_most
from spernerlab.families import (
    Family,
    InvariantViolation,
    Params,
    PreconditionError,
    binomial,
    is_k_sperner,
    is_t_intersecting,
    layer_masks,
    shade,
)
from spernerlab.search import (
    Budget,
    bounds_table,
    construct,
    construction_size,
    g_function,
    max_family_size,
    scd_anchor,
    size_B_closed_form,
)


@functools.cache
def _subfamily_records(n):
    """One record per subfamily S of 2^[n], n <= 4, as
    (least pairwise meet, longest chain) mapped to the largest S with that
    record.  The masks are in size order, and S is reached from S' = S
    minus its last mask m: every chain through m ends at m, so
    longest(S) = max(longest(S'), 1 + longest(S' below m))."""
    masks = sorted(range(1 << n), key=int.bit_count)
    below = [sum(1 << j for j in range(i) if masks[j] & m == masks[j] != m)
             for i, m in enumerate(masks)]
    # meets[i][c]: the earlier masks meeting masks[i] in exactly c elements
    meets = [[sum(1 << j for j in range(i) if (masks[j] & m).bit_count() == c)
              for c in range(n + 1)] for i, m in enumerate(masks)]
    size = [0] * (1 << len(masks))
    longest = [0] * (1 << len(masks))
    meet = [n + 1] * (1 << len(masks))  # n + 1: no pair yet
    records = {}
    for S in range(1, 1 << len(masks)):
        i = S.bit_length() - 1
        rest = S ^ 1 << i
        size[S] = size[rest] + 1
        longest[S] = max(longest[rest], 1 + longest[rest & below[i]])
        meet[S] = min(meet[rest], next((c for c in range(n + 1) if rest & meets[i][c]), n + 1))
        key = (meet[S], longest[S])
        if size[S] > records.get(key, (0, 0))[0]:
            records[key] = (size[S], [m for j, m in enumerate(masks) if S >> j & 1])
    return records


def exhaustive_max(n, t, k):
    """Ground-truth oracle: the largest t-intersecting k-Sperner subfamily of
    2^[n], over every subfamily, n <= 4.  The argmax is rechecked with the
    families predicates."""
    best, members = max((size, members)
                        for (meet, longest), (size, members) in _subfamily_records(n).items()
                        if meet >= t and longest <= k)
    fam = Family(n, members)
    assert len(fam) == best and is_t_intersecting(fam, t) and is_k_sperner(fam, k)
    return best


# the optima of the 63 cells with n <= 7, 1 <= t < n, k <= 3
OPTIMA_N7 = {
    (2, 1, 1): 1, (2, 1, 2): 2, (2, 1, 3): 2,
    (3, 1, 1): 3, (3, 1, 2): 4, (3, 1, 3): 4, (3, 2, 1): 1, (3, 2, 2): 2, (3, 2, 3): 2,
    (4, 1, 1): 4, (4, 1, 2): 7, (4, 1, 3): 8, (4, 2, 1): 4, (4, 2, 2): 5, (4, 2, 3): 5,
    (4, 3, 1): 1, (4, 3, 2): 2, (4, 3, 3): 2,
    (5, 1, 1): 10, (5, 1, 2): 15, (5, 1, 3): 16, (5, 2, 1): 5, (5, 2, 2): 9, (5, 2, 3): 10,
    (5, 3, 1): 5, (5, 3, 2): 6, (5, 3, 3): 6, (5, 4, 1): 1, (5, 4, 2): 2, (5, 4, 3): 2,
    (6, 1, 1): 15, (6, 1, 2): 26, (6, 1, 3): 31, (6, 2, 1): 15, (6, 2, 2): 21, (6, 2, 3): 22,
    (6, 3, 1): 6, (6, 3, 2): 11, (6, 3, 3): 12, (6, 4, 1): 6, (6, 4, 2): 7, (6, 4, 3): 7,
    (6, 5, 1): 1, (6, 5, 2): 2, (6, 5, 3): 2,
    (7, 1, 1): 35, (7, 1, 2): 56, (7, 1, 3): 63, (7, 2, 1): 21, (7, 2, 2): 36, (7, 2, 3): 43,
    (7, 3, 1): 21, (7, 3, 2): 28, (7, 3, 3): 29, (7, 4, 1): 7, (7, 4, 2): 13, (7, 4, 3): 14,
    (7, 5, 1): 7, (7, 5, 2): 8, (7, 5, 3): 8, (7, 6, 1): 1, (7, 6, 2): 2, (7, 6, 3): 2,
}


# g_function values at the odd cells with n <= 8, k <= 3 (see test_values_pinned)
G_PROVEN_N8 = {
    (2, 1, 1): 0, (2, 1, 2): 1, (2, 1, 3): 1, (3, 2, 1): 0, (3, 2, 2): 1, (3, 2, 3): 1,
    (4, 1, 1): 0, (4, 1, 2): 2, (4, 1, 3): 3, (4, 3, 1): 0, (4, 3, 2): 1, (4, 3, 3): 1,
    (5, 2, 1): 0, (5, 2, 2): 3, (5, 2, 3): 4, (5, 4, 1): 0, (5, 4, 2): 1, (5, 4, 3): 1,
    (6, 1, 1): 0, (6, 1, 2): 5, (6, 1, 3): 9, (6, 3, 1): 0, (6, 3, 2): 4, (6, 3, 3): 5,
    (6, 5, 1): 0, (6, 5, 2): 1, (6, 5, 3): 1, (7, 2, 1): 0, (7, 2, 2): 8, (7, 2, 3): 14,
    (7, 4, 1): 0, (7, 4, 2): 5, (7, 4, 3): 6, (7, 6, 1): 0, (7, 6, 2): 1, (7, 6, 3): 1,
    (8, 3, 2): 13, (8, 3, 3): 20, (8, 5, 1): 0, (8, 5, 2): 6, (8, 5, 3): 7,
    (8, 7, 1): 0, (8, 7, 2): 1, (8, 7, 3): 1,
}


def g_brute_force(n, t, k):
    """max |G| - |shade_{base+k}(G)| over every t-intersecting subfamily G
    of the base = (n+t-1)/2 layer, enumerated one by one with frozensets."""
    base = (n + t - 1) // 2
    layer = [frozenset(c) for c in itertools.combinations(range(n), base)]
    ups = [{a | frozenset(c) for c in itertools.combinations(set(range(n)) - a, k)}
           for a in layer]
    best = 0

    def extend(start, chosen, shade_union):
        nonlocal best
        best = max(best, len(chosen) - len(shade_union))
        for j in range(start, len(layer)):
            if all(len(layer[j] & layer[c]) >= t for c in chosen):
                extend(j + 1, chosen + [j], shade_union | ups[j])

    extend(0, [], frozenset())
    return best


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << n) - 1), max_size=3),
    st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True),
    st.integers(0, 11))))
def test_orbit_matches_brute_force(case):
    # chosen sets, a candidate list and a candidate i: the orbit of i under
    # the relabellings that fix every chosen set
    n, chosen, masks, i = case
    i %= len(masks)
    atoms = functools.reduce(search._refine, chosen, [(1 << n) - 1])

    def image(perm, m):
        return sum(1 << perm[x] for x in range(n) if m >> x & 1)

    group = [p for p in itertools.permutations(range(n))
             if all(image(p, c) == c for c in chosen)]
    # the group is the product of the symmetric groups on the atoms
    assert sum(atoms) == (1 << n) - 1
    assert len(group) == math.prod(math.factorial(a.bit_count()) for a in atoms)
    targets = {image(p, masks[i]) for p in group}
    expected = sum(1 << j for j, m in enumerate(masks) if m in targets)
    classes = search._count_classes(masks, search._holders(masks, n))
    assert search._orbit(classes, atoms, masks[i]) == expected


def pairwise_relations(masks, t):
    """tconf, sup and sub by the pair loop over the candidate list."""
    C = len(masks)
    tconf, sup, sub = [0] * C, [0] * C, [0] * C
    for i in range(C):
        mi = masks[i]
        for j in range(i + 1, C):
            mj = masks[j]
            inter = mi & mj
            if t and inter.bit_count() < t:
                tconf[i] |= 1 << j
                tconf[j] |= 1 << i
            elif inter == mi:
                sup[i] |= 1 << j
                sub[j] |= 1 << i
            elif inter == mj:
                sub[i] |= 1 << j
                sup[j] |= 1 << i
    return tconf, sup, sub


def test_relations_match_pairwise():
    # for every n <= 9, 0 <= t <= n and t <= a <= n, candidate lists as
    # the engines build them, subsampled and either kept in order or
    # shuffled: a root branch of the banded plan from s = min(a, mid_up),
    # of the unrestricted plan from s = a, or the layer a in g_function
    rng = random.Random(31)
    for n in range(1, 10):
        for t in range(n + 1):
            for plan, a in itertools.product(("banded", "unrestricted", "layer"),
                                             range(t, n + 1)):
                k = rng.randint(1, 3)
                if plan == "layer":
                    masks = list(layer_masks(n, a))
                else:
                    if plan == "banded":
                        mid_up = (n + t + 1) // 2
                        s = min(a, mid_up)
                        hi = min(n, 2 * mid_up - s + k - 1)
                    else:
                        s, hi = a, n
                    chosen0 = (1 << s) - 1
                    masks = [m for size in range(s, hi + 1) for m in layer_masks(n, size)
                             if m != chosen0 and (m & chosen0).bit_count() >= t]
                picked = rng.sample(range(len(masks)), rng.randint(min(len(masks), 1), len(masks)))
                if rng.random() < 0.5:
                    picked.sort()
                masks = [masks[j] for j in picked]
                got = search._relations(masks, search._holders(masks, n), t)
                assert list(got) == list(pairwise_relations(masks, t)), (n, t, plan)


def random_conflicts(C, density, rng):
    """A symmetric conflict relation on C candidates, as one bitmask per
    candidate, with no candidate in conflict with itself."""
    tconf = [0] * C
    for i, j in itertools.combinations(range(C), 2):
        if rng.random() < density:
            tconf[i] |= 1 << j
            tconf[j] |= 1 << i
    return tconf


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 40), st.floats(0, 1), st.integers(0, 2**32))
def test_bit_planes_track_the_conflict_counts(C, density, seed):
    # the engine's planes over a random removal sequence: every pool count
    # stays exact, the branch read picks the reference argmax, packed loses
    # the vectors of what leaves, and the caller's planes stay as they were
    rng = random.Random(seed)
    tconf = random_conflicts(C, density, rng)
    degree = [tc.bit_count() for tc in tconf]
    planes = [sum(1 << j for j in range(C) if degree[j] >> b & 1)
              for b in range(max(degree).bit_length())]
    vec = [rng.getrandbits(20) for _ in range(C)]
    pool, packed = (1 << C) - 1, sum(vec)
    while pool:
        members = [j for j in range(C) if pool >> j & 1]
        for j in members:
            count = sum((plane >> j & 1) << b for b, plane in enumerate(planes))
            assert count == (pool & tconf[j]).bit_count()
        expected = max(members, key=lambda j: ((pool & tconf[j]).bit_count(), -j))
        assert search._most_conflicted(pool, planes) == expected
        gone = sum(1 << j for j in rng.sample(members, rng.randint(1, len(members))))
        pool ^= gone
        before = list(planes)
        new_packed, planes_after = search._drop(packed, planes, vec, tconf, pool, gone)
        assert planes == before
        assert new_packed == packed - sum(vec[j] for j in members if gone >> j & 1)
        packed, planes = new_packed, planes_after


def compress_matching(pool, tconf):
    """The reference greedy matching: one pass over the pool in index
    order, each candidate still unmatched at its turn paired with its
    lowest unmatched conflict."""
    matched, avail = 0, pool
    for i in itertools.compress(range(len(tconf)), [pool >> j & 1 for j in range(len(tconf))]):
        bit = 1 << i
        if avail & bit:
            other = avail & tconf[i]
            if other:
                matched += 1
                avail ^= bit | other & -other
    return matched


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 2**32))
def test_greedy_matching_matches_the_pool_pass(C, density, seed):
    rng = random.Random(seed)
    tconf = random_conflicts(C, density, rng)
    pool = rng.getrandbits(C) if C else 0
    assert search._greedy_matching(pool, tconf) == compress_matching(pool, tconf)


class TestSCD:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_decomposition_structure(self, n):
        chains = {}
        for mask in range(1 << n):
            chains.setdefault(scd_anchor(mask, n), []).append(mask)
        assert len(chains) == binomial(n, n // 2)
        for anchor, members in chains.items():
            members.sort(key=lambda m: m.bit_count())
            sizes = [m.bit_count() for m in members]
            # saturated and symmetric around n/2
            assert sizes == list(range(sizes[0], sizes[-1] + 1))
            assert sizes[0] + sizes[-1] == n
            # nested
            for a, b in zip(members, members[1:]):
                assert (a & b) == a


class TestOracleSmall:
    def test_n4_against_exhaustive(self):
        # the unrestricted plan, and the banded one wherever t >= 1
        for t in range(5):
            for k in (1, 2, 3):
                expected = exhaustive_max(4, t, k)
                for use_compression in (False, True)[:1 + bool(t)]:
                    res = max_family_size(4, t, k, use_compression=use_compression)
                    assert res.proven_optimal
                    assert res.best_size == expected, (t, k, use_compression, res.best_size)

    def test_banded_matches_unrestricted(self):
        """The admissibility gate for the band and every prune.  OPTIMA_N7
        was generated by the search before orbital branching, where banded
        and unrestricted agreed and both were proven:

            {(n, t, k): max_family_size(n, t, k).best_size
             for n in range(2, 8) for t in range(1, n) for k in (1, 2, 3)}
        """
        for (n, t, k), expected in OPTIMA_N7.items():
            r1 = max_family_size(n, t, k)
            r2 = max_family_size(n, t, k, use_compression=True)
            assert r1.proven_optimal and r2.proven_optimal, (n, t, k)
            assert r1.best_size == r2.best_size == expected, (n, t, k)

    def test_unseeded_matches_table(self, monkeypatch):
        # without the construction seeds the incumbent no longer hides a
        # prune that cuts an optimum away; (7, 1, k) needs far more nodes
        # without a seed
        monkeypatch.setattr(search, "_construction_seeds", lambda n, t, k: [])
        for (n, t, k), expected in OPTIMA_N7.items():
            if (n, t) == (7, 1):
                continue
            for compress in (False, True):
                res = max_family_size(n, t, k, use_compression=compress)
                assert (res.best_size, res.proven_optimal) == (expected, True), (n, t, k)

    def test_unseeded_chain_tracker_exact(self):
        # a tracker that raised heights through the new member only missed
        # a chosen member between it and a candidate: 15 members, a 4-chain
        best, witness, proven, _, _ = search._max_family_engine(
            4, 0, 3, [(s, 4) for s in range(5)], Budget(), [])
        assert (best, proven) == (14, True)
        assert is_k_sperner(Family(4, witness), 3)

    @pytest.mark.parametrize("cell, optimum", [
        ((8, 1, 2), 98), ((8, 1, 3), 120), ((9, 1, 2), 210), ((9, 1, 3), 246)])
    def test_cycle_bound_proves_the_t1_frontier(self, cell, optimum):
        n, t, k = cell
        res = max_family_size(*cell, use_compression=True, budget=Budget(nodes=5000, seconds=1e9))
        assert (res.best_size, res.proven_optimal) == (optimum, True)
        # every root branch closes before its first node
        assert res.notes[1:] == tuple(
            f"root branch with member sizes [{lo}, {min(hi, n)}] closed by the cycle bound"
            for lo, hi in map(Params(*cell).band, range(k - 1, -1, -1)))

    def test_cycle_bound_admits_every_optimum(self):
        # over all member sizes, the bound never falls below a known optimum
        for (n, t, k), expected in OPTIMA_N7.items():
            if n >= 3:
                assert cycle_bound_at_most(n, t, k, 1, n, expected - 1)[0] is False, (n, t, k)

    def test_cycle_bound_admits_every_construction(self):
        # each construction is a t-intersecting k-Sperner family with member
        # sizes in [lo, hi], so the bound never falls below it; they equal
        # every proven optimum with n <= 9, the n = 8, 9 optima among them
        for n in range(3, 12):
            for t in range(1, n):
                for k in (1, 2, 3):
                    for which in search.CONSTRUCTIONS:
                        try:
                            fam = construct(Params(n, t, k), which)
                        except PreconditionError:  # the other parity
                            continue
                        sizes = [m.bit_count() for m in fam]
                        assert cycle_bound_at_most(n, t, k, min(sizes), max(sizes),
                                                   len(fam) - 1)[0] is False, (n, t, k, which)

    def test_frozen_values(self):
        assert max_family_size(4, 2, 1, use_compression=True).best_size == 4
        assert max_family_size(6, 2, 1, use_compression=True).best_size == 15
        assert max_family_size(5, 2, 2, use_compression=True).best_size == 9

    @pytest.mark.parametrize("t", [0, 5])
    def test_compression_refuses_t_outside_1_to_n(self, tmp_path, t):
        # the band needs 1 <= t <= n: at t = 5 > n = 3 the banded plan was
        # empty and reported 0 as proven, while one set is a valid family
        assert max_family_size(3, 5, 1).best_size == 1
        with pytest.raises(PreconditionError, match="need 1 <= t <= n"):
            max_family_size(3, t, 1, use_compression=True)
        out = tmp_path / "r.json"
        assert main(["search", "--n", "3", "--t", str(t), "--k", "1", "--use-compression",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_witness_is_valid_and_sized(self):
        for (n, t, k) in [(5, 1, 2), (6, 2, 2), (5, 3, 1)]:
            res = max_family_size(n, t, k, use_compression=True)
            assert len(res.witness) == res.best_size
            assert is_t_intersecting(res.witness, t)
            assert is_k_sperner(res.witness, k)

    def test_oracle_dominates_constructions(self):
        for (n, t, k) in [(6, 2, 2), (7, 1, 2), (7, 3, 2)]:
            p = Params(n=n, t=t, k=k)
            res = max_family_size(n, t, k, use_compression=True)
            if p.even_case:
                assert res.best_size >= len(construct(p, "layers"))
            else:
                assert res.best_size >= len(construct(p, "A"))
                assert res.best_size >= len(construct(p, "B"))

    def test_determinism(self):
        a = max_family_size(6, 2, 2, use_compression=True)
        b = max_family_size(6, 2, 2, use_compression=True)
        assert (a.best_size, a.nodes, a.witness) == (b.best_size, b.nodes, b.witness)

    def test_budget_exhaustion_labeled(self):
        res = max_family_size(7, 1, 3, use_compression=True, budget=Budget(nodes=50, seconds=60))
        assert not res.proven_optimal and res.nodes == 51
        assert res.notes[-1] == "budget exceeded: best found so far, optimality not proven"

    def test_time_budget_labeled(self):
        # the clock is read every 4,096 nodes, so a spent time budget stops
        # the search at node 4,096; (9,2,2) needs far more nodes than that
        res = max_family_size(9, 2, 2, use_compression=True, budget=Budget(seconds=1e-9))
        assert not res.proven_optimal and res.nodes == 4096
        assert res.notes[-2:] == (
            "budget exceeded: best found so far, optimality not proven",
            "the time budget ran out first: the result depends on machine speed")

    def test_witness_self_check(self, monkeypatch, tmp_path):
        # {1,2} and {3,4} share nothing: not 1-intersecting
        def bad_engine(n, t, k, branches, budget, seeds):
            return 2, (0b0011, 0b1100), True, 1, ()
        monkeypatch.setattr(search, "_max_family_engine", bad_engine)
        with pytest.raises(InvariantViolation):
            max_family_size(4, 1, 1)
        out = tmp_path / "r.json"
        rc = main(["search", "--n", "4", "--t", "1", "--k", "1", "--no-cache",
                   "--out", str(out)])
        assert rc == 1 and not out.exists()

    def test_bad_witness_is_caught(self, monkeypatch):
        # at (4, 1, 1): {1,2} inside {1,2,3} is a chain of two; {1,2} and
        # {3,4} share nothing; the empty set is below every size searched
        for witness in ((0b0011, 0b0111), (0b0011, 0b1100), (0,)):
            monkeypatch.setattr(search, "_max_family_engine",
                                lambda *args: (len(witness), witness, True, 1, ()))
            with pytest.raises(InvariantViolation):
                max_family_size(4, 1, 1)

    def test_matches_intersecting_k_sperner_theorem(self):
        # the t=1 maxima have known closed forms for both parities of n
        for (n, k) in [(5, 2), (6, 2), (6, 3), (5, 3)]:
            expected = bounds_table(Params(n=n, t=1, k=k))["frankl_intersecting"].value
            banded = max_family_size(n, 1, k, use_compression=True)
            assert banded.proven_optimal and banded.best_size == expected, (n, k)
            if n <= 5:
                unres = max_family_size(n, 1, k)
                assert unres.best_size == expected


class TestEngineNodeCounts:
    """Pinned (size, proven, nodes).  The search is deterministic, so these
    repeat exactly.  A change to the branching or to a prune moves them:
    such a change re-pins them and records the old and new counts."""

    @pytest.mark.parametrize("cell, nodes, expected", [
        ((6, 1, 2), 1_000_000, (26, True, 35)),
        ((6, 1, 2), 100, (26, True, 35)),
        ((8, 2, 3), 5000, (92, True, 71)),
        ((9, 3, 3), 5000, (129, True, 53)),
        ((9, 1, 2), 5000, (210, True, 18)),
        ((7, 1, 3), 1_000_000, (63, True, 73)),
        ((8, 3, 2), 5000, (49, True, 841)),
        ((9, 4, 2), 5000, (64, True, 980)),
        ((9, 1, 3), 5000, (246, True, 208)),
        ((9, 2, 3), 5000, (176, False, 5001)),
        # the budget runs out inside the first branch's arc search
        ((6, 1, 2), 30, (26, False, 31)),
        # large pools: 1,005 and 1,551 candidates in the first open branch
        ((11, 2, 2), 5000, (540, False, 5001)),
        ((12, 3, 2), 5000, (825, False, 5001)),
        # open frontier cells, whose first open branches hold 6,341 and 3,171
        # candidates
        ((14, 3, 2), 2000, (3289, False, 2001)),
        ((13, 4, 3), 2000, (1496, False, 2001)),
    ])
    def test_search(self, cell, nodes, expected):
        res = max_family_size(*cell, use_compression=True,
                              budget=Budget(nodes=nodes, seconds=1e9))
        assert (res.best_size, res.proven_optimal, res.nodes) == expected
        digest = hashlib.sha256(json.dumps(sorted(res.witness.members)).encode()).hexdigest()
        assert self.WITNESS_SHA256.get((cell, nodes), digest) == digest

    # sha256 of the JSON list of the sorted witness members: (9,1,3) is
    # proven by the cycle bound alone, so its witness is the seed, and the
    # deep unproven (9,2,3) holds the last incumbent found
    WITNESS_SHA256 = {
        ((9, 1, 3), 5000): "55a48282d56a76d046ac2a47e52222163588a88dc4dfdda4a4ee6bb40d8f480a",
        ((9, 2, 3), 5000): "24a6adfefaaa2b5e5544e7bf2ce29efb72ef589f5d550871b86005c6ded6d844",
        ((11, 2, 2), 5000): "43ce8d951f3b26bc0502060d168fd2450153cbe4fb681d49508cc4b18d9a0198",
        ((12, 3, 2), 5000): "fd055a84b8d9fa4789a74c18391633e08a27105750f5c1ccd2a7ad6462955c08",
        ((14, 3, 2), 2000): "e80da75c20f1bde4fa73500e9c0ddf6ef814a0aa6ad27323ffee65259cfedc99",
        ((13, 4, 3), 2000): "45f117150040fa29be18ebacdd68f6298273e97d3145343bdb4469ac4de1caea",
    }

    @pytest.mark.parametrize("cell, kwargs, expected", [
        ((6, 1, 2), {}, (26, True, 164)),
        ((6, 0, 2), {}, (35, True, 7)),
        # unseeded, the exact chain tracker decides what the family holds
        ((4, 0, 3), {"seeds": []}, (14, True, 125)),
        ((6, 1, 3), {"seeds": []}, (31, True, 14_545)),
        # unseeded, where the symmetric-chain cap does the most work; at
        # k = 1 the pinned member lies on no candidate's chain
        ((6, 1, 1), {"seeds": []}, (15, True, 306)),
        ((7, 2, 2), {"use_compression": True, "seeds": []}, (36, True, 13_932)),
        # unseeded and unrestricted: 1,576 nodes with the complement-pair
        # cap the engine once had
        ((7, 1, 1), {"seeds": []}, (35, True, 1_882)),
    ])
    def test_search_plans(self, monkeypatch, cell, kwargs, expected):
        # the unrestricted, banded and t = 0 branch plans; "seeds", when
        # given, replaces the construction seeds
        kwargs = dict(kwargs)
        if "seeds" in kwargs:
            seeds = kwargs.pop("seeds")
            monkeypatch.setattr(search, "_construction_seeds", lambda n, t, k: seeds)
        res = max_family_size(*cell, **kwargs)
        assert (res.best_size, res.proven_optimal, res.nodes) == expected

    @pytest.mark.parametrize("cell, expected", [
        ((8, 3, 2), (13, True, 57)),
        ((9, 4, 2), (19, True, 91)),
        ((8, 1, 3), (28, True, 3181)),
        ((9, 2, 3), (47, False, 5001)),
    ])
    def test_g_function(self, cell, expected):
        res = g_function(Params(*cell), Budget(nodes=5000, seconds=1e9))
        assert (res.value, res.proven_optimal, res.nodes) == expected
        digest = hashlib.sha256(json.dumps(sorted(res.witness.members)).encode()).hexdigest()
        assert self.G_WITNESS_SHA256.get(cell, digest) == digest

    # the same digest of g_function's witness at 5,000 nodes
    G_WITNESS_SHA256 = {
        (8, 1, 3): "1ba6977782b19102d437acbd559ebbc7898db38fccfa3de1428344606d7b438b",
        (9, 2, 3): "48c6c1960360b631553c1e112a3e3bf6387233c3d8d15c2aefe468df6f1178dd",
    }

    def test_g_function_deep(self):
        # (9,2,3) stays open at 200,000 nodes, with the incumbent it had at
        # 5,000; the matching cap is memoized by pool, and 199,993 calls see
        # 9,741 distinct pools
        res = g_function(Params(9, 2, 3), Budget(nodes=200_000, seconds=1e9))
        assert (res.value, res.proven_optimal, res.nodes) == (47, False, 200_001)
        digest = hashlib.sha256(json.dumps(sorted(res.witness.members)).encode()).hexdigest()
        assert digest == self.G_WITNESS_SHA256[(9, 2, 3)]

    def test_recursion_limit_untouched(self):
        # the engines keep their own stacks: deep searches need no deeper
        # interpreter stack, and the process-wide limit stays as it was
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            max_family_size(9, 1, 2, use_compression=True,
                            budget=Budget(nodes=2000, seconds=1e9))
            g_function(Params(9, 2, 3), Budget(nodes=2000, seconds=1e9))
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(before)


class TestLayerMasks:
    def test_matches_a_filter_over_all_masks(self):
        # a filter over every mask, sorted into itertools.combinations'
        # order: by the ascending tuple of the set's elements
        for n in range(7):
            order = sorted(range(1 << n), key=lambda m: [i for i in range(n) if m >> i & 1])
            for required, forbidden in itertools.product(range(1 << n), repeat=2):
                if required & forbidden:
                    continue
                fits = [m for m in order
                        if m & required == required and not m & forbidden]
                for size in range(n + 3):
                    assert list(layer_masks(n, size, required, forbidden)) == [
                        m for m in fits if m.bit_count() == size], (n, size, required, forbidden)


class TestConstructions:
    def test_layers_frozen(self):
        assert len(construct(Params(n=6, t=2, k=1), "layers")) == 15
        assert len(construct(Params(n=6, t=2, k=2), "layers")) == 21

    def test_layers_predicates(self):
        for (n, t, k) in [(6, 2, 2), (8, 2, 3), (7, 1, 2), (9, 3, 3)]:
            p = Params(n=n, t=t, k=k)
            fam = construct(p, "layers")
            assert len(fam) == construction_size(p, "layers")
            assert is_t_intersecting(fam, t)
            assert is_k_sperner(fam, k)

    def test_A_frozen(self):
        fam = construct(Params(n=5, t=2, k=2), "A")
        assert len(fam) == 9 == construction_size(Params(n=5, t=2, k=2), "A")

    def test_B_frozen(self):
        p = Params(n=5, t=2, k=2)
        fam = construct(p, "B")
        assert len(fam) == 8 == construction_size(p, "B")
        assert size_B_closed_form(p) == 3 + 5 + 1 - 1

    def test_A_B_predicates(self):
        rng = random.Random(50)
        for _ in range(40):
            n = rng.randint(3, 12)
            t = rng.randint(1, n - 1)
            if (n + t) % 2 == 0:
                continue
            k = rng.randint(1, 4)
            p = Params(n=n, t=t, k=k)
            for fam in (construct(p, "A"), construct(p, "B")):
                assert is_t_intersecting(fam, t)
                assert is_k_sperner(fam, k)
            assert len(construct(p, "A")) == construction_size(p, "A")
            assert len(construct(p, "B")) == construction_size(p, "B")

    def test_parity_enforced(self):
        with pytest.raises(PreconditionError):
            construct(Params(n=5, t=2, k=1), "layers")
        with pytest.raises(PreconditionError):
            construct(Params(n=6, t=2, k=1), "A")

    def test_bands_past_n(self):
        # the top layers of these bands lie above n and hold no set
        p = Params(n=8, t=2, k=5)
        fam = construct(p, "layers")
        assert len(fam) == construction_size(p, "layers") == 93
        assert is_t_intersecting(fam, 2) and is_k_sperner(fam, 5)
        p = Params(n=7, t=2, k=5)
        for fam, size in ((construct(p, "A"), construction_size(p, "A")),
                          (construct(p, "B"), construction_size(p, "B"))):
            assert len(fam) == size
            assert is_t_intersecting(fam, 2) and is_k_sperner(fam, 5)

    def test_closed_form_matches_piecewise(self):
        for n in range(3, 101):
            for t in range(1, min(n, 8)):
                if (n + t) % 2 == 0:
                    continue
                for k in range(1, 6):
                    p = Params(n=n, t=t, k=k)
                    assert construction_size(p, "B") == size_B_closed_form(p)

    def test_match_the_definitions(self):
        # the paper's families as filters over every subset F of [n], with
        # h = (n+t)/2 for n + t even and s = (n+t-1)/2 for n + t odd:
        #   layers: h <= |F| <= h + k - 1;
        #   A: |F| = s and n not in F, or s < |F| < s + k;
        #   B: |F| = s and {1..t} in F, or s < |F| < s + k,
        #      or |F| = s + k and {1..t} not in F
        for n in range(1, 9):
            for t in range(1, n + 1):
                h, s = (n + t) // 2, (n + t - 1) // 2
                core = set(range(1, t + 1))
                for k in range(1, 5):
                    p = Params(n=n, t=t, k=k)
                    defs = {
                        "layers": lambda F: h <= len(F) <= h + k - 1,
                        "A": lambda F: len(F) == s and n not in F or s < len(F) < s + k,
                        "B": lambda F: (len(F) == s and core <= F or s < len(F) < s + k
                                        or len(F) == s + k and not core <= F),
                    }
                    for which, member in defs.items():
                        if ((n + t) % 2 == 0) != (which == "layers"):
                            with pytest.raises(PreconditionError):
                                construct(p, which)
                            with pytest.raises(PreconditionError):
                                construction_size(p, which)
                            continue
                        want = [x for x in range(1 << n)
                                if member({i + 1 for i in range(n) if x >> i & 1})]
                        assert construct(p, which) == Family(n, want), (n, t, k, which)
                        assert construction_size(p, which) == len(want), (n, t, k, which)

    def test_sizes_pinned(self):
        # measured with size_layers, size_A and size_B, the per-construction
        # counters that construction_size replaced; a refusal is "refused"
        cells = [(n, t, k) for n in range(1, 401) for t in sorted({1, 2, 3, 7, n}) if t <= n
                 for k in (1, 2, 3, 5)]
        cells += [(10_000, 1, 1), (10_000, 3, 4), (9_999, 2, 3), (10_000, 10_000, 2),
                  (9_999, 9_998, 5)]
        lines = []
        for n, t, k in cells:
            for which in ("layers", "A", "B"):
                try:
                    value = construction_size(Params(n, t, k), which)
                except PreconditionError:
                    value = "refused"
                lines.append(f"{n} {t} {k} {which} {value}")
        assert len(lines) == 23859
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "c7adead33877d29121985fb7c0d063a6c4a2637f6a274c4b59fa4a71baf98525")

    def test_refusals(self):
        for which in ("C", "a", ""):
            with pytest.raises(PreconditionError, match="unknown construction"):
                construct(Params(5, 1, 2), which)
            with pytest.raises(PreconditionError, match="unknown construction"):
                construction_size(Params(5, 1, 2), which)
        for which in ("A", "B"):
            with pytest.raises(PreconditionError) as exc:
                construct(Params(6, 2, 1), which)
            assert str(exc.value) == f"construction {which} needs n + t odd"

    def test_refuses_n_above_enumeration_before_drawing_a_mask(self, monkeypatch):
        def no_masks(*args, **kwargs):
            raise AssertionError("a mask was drawn")
            yield
        monkeypatch.setattr(search, "layer_masks", no_masks)
        with pytest.raises(PreconditionError, match="needs n <= 24"):
            construct(Params(25, 2, 2), "A")
        assert main(["construct", "--which", "B", "--n", "26", "--t", "1", "--k", "2"]) == 2


class TestGFunction:
    def test_exhaustive_5_2_2(self):
        p = Params(n=5, t=2, k=2)
        layer = list(itertools.combinations(range(1, 6), 3))
        best = 0
        for r in range(len(layer) + 1):
            for sub in itertools.combinations(layer, r):
                fam = Family.from_sets(5, sub)
                if is_t_intersecting(fam, 2):
                    best = max(best, len(fam) - len(shade(fam, 5)))
        res = g_function(p)
        assert res.proven_optimal and res.value == best == 3

    def test_nonnegative(self):
        for (n, t, k) in [(4, 1, 1), (5, 2, 1), (6, 1, 2), (6, 3, 2)]:
            res = g_function(Params(n=n, t=t, k=k))
            assert res.value >= 0

    def test_core_lower_bound(self):
        # the supersets of {1..t} inside the base layer are feasible, so g
        # is at least their count minus their shade
        for (n, t, k) in [(5, 2, 2), (7, 2, 2), (6, 1, 2)]:
            p = Params(n=n, t=t, k=k)
            base = (n + t - 1) // 2
            core_sets = [set(range(1, t + 1)) | set(c)
                         for c in itertools.combinations(range(t + 1, n + 1), base - t)]
            fam = Family.from_sets(n, core_sets)
            lower = len(fam) - len(shade(fam, base + k))
            assert g_function(p).value >= lower

    def test_parity_enforced(self):
        with pytest.raises(PreconditionError):
            g_function(Params(n=6, t=2, k=1))

    def test_top_layer_above_n(self):
        # base layer 4, top layer 7 > n: no member has a shade
        res = g_function(Params(n=5, t=4, k=3))
        assert res.proven_optimal and res.shade_size == 0
        assert res.value == g_brute_force(5, 4, 3) == 1

    def test_small_layers_against_brute_force(self):
        # every odd cell with k <= 3 whose layer has at most 15 members
        cells = [(n, t, k) for n in range(2, 16) for t in range(1, n) if (n + t) % 2
                 for k in (1, 2, 3) if binomial(n, (n + t - 1) // 2) <= 15]
        for cell in cells:
            res = g_function(Params(*cell))
            assert res.proven_optimal and res.value == g_brute_force(*cell), cell

    def test_values_pinned(self):
        """G_PROVEN_N8 holds every cell that g_function proved before
        orbital branching, out of

            {(n, t, k): g_function(Params(n, t, k), Budget(nodes=200_000))
             for n in range(2, 9) for t in range(1, n) if (n + t) % 2
             for k in (1, 2, 3)}

        (8,1,1), (8,1,2), (8,1,3) and (8,3,1) ran out of nodes there."""
        for cell, value in G_PROVEN_N8.items():
            res = g_function(Params(*cell), Budget(nodes=200_000, seconds=1e9))
            assert (res.value, res.proven_optimal) == (value, True), cell

    def test_witness_self_check(self, monkeypatch):
        # an empty shade makes the recomputed objective disagree with the
        # incremental one
        monkeypatch.setattr(search, "shade", lambda fam, level: Family(fam.n))
        with pytest.raises(InvariantViolation):
            g_function(Params(n=5, t=2, k=2))


class TestBoundsTable:
    def test_sperner_n4(self):
        rep = bounds_table(Params(n=4, t=1, k=1))
        assert rep["sperner"].value == 6

    def test_milner_n5_t1(self):
        rep = bounds_table(Params(n=5, t=1, k=1))
        assert rep["milner"].value == binomial(5, 3) == 10

    def test_frankl_even_n6_k2(self):
        rep = bounds_table(Params(n=6, t=1, k=2))
        assert rep["frankl_intersecting"].value == (
            binomial(5, 2) + binomial(6, 4) + binomial(5, 5))

    def test_frankl_odd_n7_k2(self):
        rep = bounds_table(Params(n=7, t=1, k=2))
        assert rep["frankl_intersecting"].value == binomial(7, 4) + binomial(7, 5)

    def test_parity_flags(self):
        rep = bounds_table(Params(n=6, t=2, k=2))
        assert rep["even_case_k_layers"].value is not None
        assert rep["odd_B_size"].value is None
        rep = bounds_table(Params(n=5, t=2, k=2))
        assert rep["even_case_k_layers"].value is None
        assert rep["odd_A_size"].value == 9
        assert rep["odd_B_size"].value == 8

    def test_erdos_is_k_middle_layers(self):
        rep = bounds_table(Params(n=6, t=1, k=2))
        assert rep["erdos_k_layers"].value == binomial(6, 3) + binomial(6, 2)
