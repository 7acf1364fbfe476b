import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from spernerlab.families import (
    MAX_ENUM_N,
    Family,
    Params,
    PreconditionError,
    binomial,
    _chain_levels,
    _masks_of,
    chain_heights,
    complement_family,
    elements_of,
    include_in_chains,
    is_k_sperner,
    is_t_intersecting,
    layer_masks,
    longest_chain,
    longest_chain_members,
    mask_from,
    shade,
    shadow,
    verify_katona_shadow,
    weight,
)
from spernerlab.generators import (
    _sample_masks,
    random_inner_family,
    random_uniform_t_intersecting,
    random_valid_family,
)


def pascal_binomial(n, r):
    """Independent oracle: Pascal triangle accumulation."""
    if r < 0 or r > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[r]


def brute_longest_chain(fam):
    """Independent oracle: DFS over all nested sequences."""
    ms = list(fam.members)
    best = 0
    def grow(last, depth):
        nonlocal best
        best = max(best, depth)
        for m in ms:
            if m != last and (m & last) == last:
                grow(m, depth + 1)
    for m in ms:
        grow(m, 1)
    return best


class TestBinomial:
    def test_direct(self):
        assert binomial(6, 4) == 15

    def test_out_of_range_is_zero(self):
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_large_value_against_pascal(self):
        v = binomial(100, 50)
        assert v == pascal_binomial(100, 50)
        assert v.bit_length() == 97

    def test_negative_n_rejected(self):
        with pytest.raises(PreconditionError):
            binomial(-1, 0)


class TestFamilyCanonical:
    def test_round_trip_identity(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(1, 10)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 20))]
            fam = Family(n, masks)
            again = Family.from_json_dict(fam.to_json_dict())
            assert again == fam

    def test_sorted_by_size_then_value(self):
        fam = Family.from_sets(4, [[3], [1, 2, 3], [1], [2, 4]])
        assert fam.to_sets() == [[1], [3], [2, 4], [1, 2, 3]]

    def test_dedup(self):
        fam = Family.from_sets(4, [[1, 2], [2, 1], [1, 2]])
        assert len(fam) == 1

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(PreconditionError):
            Family(3, [1 << 3])

    def test_rejects_large_n(self):
        with pytest.raises(PreconditionError):
            Family(25, [])

    def test_layer_slices(self):
        fam = Family.from_sets(5, [[1], [2], [1, 2], [1, 2, 3]])
        assert len(fam.layer(1)) == 2
        assert fam.profile() == {1: 2, 2: 1, 3: 1}
        assert fam.layer(0) == () and fam.layer(4) == ()
        assert fam.layer(3) == (mask_from([1, 2, 3], 5),)
        assert Family(5).layer(2) == ()

    def test_mask_helpers(self):
        assert elements_of(mask_from([3, 1], 5)) == [1, 3]

    def test_elements_of_round_trips(self):
        for n in range(1, 11):
            for m in range(1 << n):
                assert mask_from(elements_of(m), n) == m
        rng = random.Random(24)
        for _ in range(500):
            m = rng.getrandbits(24) | 1 << 23
            elems = elements_of(m)
            assert elems == sorted(elems) and elems[-1] == 24
            assert mask_from(elems, 24) == m
        for bad in (1 << 24, -1):
            with pytest.raises(PreconditionError):
                elements_of(bad)

    def test_members_in_canonical_order(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 12)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 40))]
            masks += rng.choices(masks, k=len(masks) // 2)
            rng.shuffle(masks)
            assert Family(n, masks).members == tuple(
                sorted(set(masks), key=lambda m: (m.bit_count(), m)))

    @pytest.mark.parametrize("masks, bad", [
        ([1, 2, -4, 1 << 5, -1], -4),
        ([3, 1 << 6, -2, 1 << 5], 1 << 6),
        (iter([0, (1 << 5) - 1, 1 << 5, -1]), 1 << 5),
    ])
    def test_rejects_first_bad_mask(self, masks, bad):
        with pytest.raises(PreconditionError, match=rf"^mask {bad} has bits outside \[5\]$"):
            Family(5, masks)


class TestParams:
    def test_parity_recomputed(self):
        assert Params(n=6, t=2, k=1).even_case
        assert not Params(n=6, t=3, k=1).even_case

    def test_validation(self):
        with pytest.raises(PreconditionError):
            Params(n=5, t=6, k=1)
        with pytest.raises(PreconditionError):
            Params(n=5, t=0, k=1)
        with pytest.raises(PreconditionError):
            Params(n=5, t=1, k=0)

    def test_band(self):
        # [ceil((n+t)/2) - m, ceil((n+t)/2) + k - 1 + m]: k + 2m sizes
        for n in range(1, 12):
            for t in range(1, n + 1):
                for k in range(1, 5):
                    for m in range(k):
                        lo, hi = Params(n=n, t=t, k=k).band(m)
                        assert 2 * (lo + m) in (n + t, n + t + 1)
                        assert hi - lo + 1 == k + 2 * m
        assert Params(n=7, t=2, k=3).band(1) == (4, 8)


class TestIntersecting:
    def test_share_one(self):
        fam = Family.from_sets(3, [[1, 2], [1, 3]])
        assert is_t_intersecting(fam, 1)
        assert not is_t_intersecting(fam, 2)

    def test_forced_by_size(self):
        fam = Family.from_sets(6, itertools.combinations(range(1, 7), 4))
        assert is_t_intersecting(fam, 2)

    def test_small_families_vacuous(self):
        assert is_t_intersecting(Family(4), 3)
        assert is_t_intersecting(Family.from_sets(4, [[1]]), 3)


class TestLongestChain:
    def test_explicit_chain(self):
        fam = Family.from_sets(3, [[1], [1, 2], [1, 2, 3]])
        assert longest_chain(fam) == 3

    def test_single_layer(self):
        fam = Family.from_sets(4, itertools.combinations(range(1, 5), 2))
        assert longest_chain(fam) == 1

    def test_mixed(self):
        fam = Family.from_sets(3, [[1], [2], [1, 2], [1, 2, 3]])
        assert longest_chain(fam) == 3

    def test_against_brute_force(self):
        rng = random.Random(1)
        for _ in range(60):
            n = rng.randint(1, 6)
            fam = Family(n, [rng.randrange(1 << n) for _ in range(rng.randint(0, 12))])
            assert longest_chain(fam) == brute_longest_chain(fam)

    def test_k_sperner(self):
        fam = Family.from_sets(3, [[1], [1, 2]])
        assert is_k_sperner(fam, 2) and not is_k_sperner(fam, 1)

    def test_members_form_a_longest_chain(self):
        # Mirsky: the number of antichains peeled off equals the height
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 6)
            fam = random_inner_family(rng, n, density=rng.uniform(0.05, 0.6))
            chain = longest_chain_members(fam)
            assert set(chain) <= set(fam.members)
            for upper, lower in zip(chain, chain[1:]):
                assert upper != lower and upper & lower == lower
            assert len(chain) == len(pair_loop_peel(fam))

    def test_members_tie_breaks(self):
        # top: first member of maximal height; back: first predecessor
        fam = Family.from_sets(3, [[1], [2], [1, 2], [1, 3]])
        assert longest_chain_members(fam) == [mask_from([1, 2], 3), mask_from([1], 3)]
        assert longest_chain_members(Family(3)) == []

    def test_random_valid_family_pinned(self):
        # the chain tie-breaks decide which members get deleted (1, 13 and
        # 3 deletions for these draws)
        pinned = {
            (1, 6, 2, 2): [[2, 5], [2, 5, 6], [1, 2, 4, 5]],
            (28, 8, 1, 2): [[2, 3, 6, 7], [2, 3, 5, 8], [1, 2, 5, 6, 8], [1, 2, 4, 7, 8],
                            [2, 3, 4, 7, 8], [1, 2, 3, 4, 5, 7], [1, 2, 4, 5, 6, 7, 8]],
            (42, 9, 3, 1): [[1, 2, 4, 6, 8], [1, 2, 6, 7, 8], [1, 2, 5, 6, 9],
                            [1, 2, 4, 5, 6, 7], [1, 2, 3, 6, 7, 9]],
        }
        for (s, n, t, k), sets in pinned.items():
            assert random_valid_family(random.Random(s), n, t, k).to_sets() == sets

    def test_random_valid_family_draws_pinned(self):
        # 330 draws from scan's compression-invariants distribution; the
        # digest pins every rng draw and every member
        rng = random.Random(1729)
        out = []
        for _ in range(330):
            n = rng.randint(4, 9)
            t = rng.randint(1, max(1, n - 2))
            k = rng.randint(1, 3)
            out.append((n, t, k, random_valid_family(rng, n, t, k).members))
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "b6cc6b5440e8cd5c5090e34741193948db3b86c9a526fc2a198e34f9add760c3")

    def test_random_uniform_t_intersecting_pinned(self):
        # 300 draws from scan's (n, r, t) distribution; the digest pins
        # every rng draw and every member
        rng = random.Random(1729)
        out = []
        for _ in range(300):
            n = rng.randint(4, 10)
            r = rng.randint(2, n - 1)
            t = rng.randint(1, r)
            out.append((n, r, t, random_uniform_t_intersecting(rng, n, r, t).members))
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "68f4277a64ba0fa2dce18d297441b231c0fbc91fc730d8ee523fd4b2521c2a59")


@settings(derandomize=True, deadline=None)
@given(st.permutations(range(MAX_ENUM_N)).flatmap(lambda elems: st.tuples(
    st.one_of(st.integers(1, 21), st.integers(22, MAX_ENUM_N)).flatmap(lambda size: st.tuples(
        st.just(elems[:size]), st.integers(0, size))),
    st.integers(0, 2**32 - 1))))
def test_sample_masks_mirror_sample(case):
    # one stream against repeated Random.sample on a twin rng: the same mask
    # and the same rng state after each draw, over both of sample's paths
    # (above 21 elements with r <= 5 it keeps a set of drawn indices)
    (elems, r), seed = case
    bits = [1 << e for e in elems]
    mine, ref = random.Random(seed), random.Random(seed)
    draws = _sample_masks(mine, bits, r)
    for _ in range(3):
        assert next(draws) == sum(ref.sample(bits, r))
        assert mine.getstate() == ref.getstate()


def pair_loop_t_intersecting(fam, t):
    """Reference: every unordered pair of members, compared directly."""
    ms = fam.members
    return all((ms[i] & ms[j]).bit_count() >= t
               for i in range(len(ms)) for j in range(i + 1, len(ms)))


def pair_loop_chain_members(fam):
    """Reference: longest-path DP over the containment DAG with back
    pointers to the first improving predecessor."""
    ms = fam.members
    best = [1] * len(ms)
    back = [-1] * len(ms)
    top = 0
    for i, a in enumerate(ms):
        for j in range(i):
            b = ms[j]
            if b != a and (a & b) == b and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
                back[i] = j
        if best[i] > best[top]:
            top = i
    out = []
    i = top if ms else -1
    while i != -1:
        out.append(ms[i])
        i = back[i]
    return out


def pair_loop_peel(fam):
    """Reference: repeatedly remove the minimal sets."""
    remaining = list(fam.members)
    layers = []
    while remaining:
        minimal = []
        rest = []
        for m in remaining:
            if any(o != m and (m & o) == o for o in remaining):
                rest.append(m)
            else:
                minimal.append(m)
        layers.append(minimal)
        remaining = rest
    return layers


def test_lattice_matches_pair_loops():
    rng = random.Random(11)
    outcomes = set()
    for n in range(1, 25):
        full = (1 << n) - 1
        cases = [Family(n), Family(n, [rng.randrange(1 << n)])]
        for _ in range(8 if n < 16 else 1):
            size = rng.randint(2, 40 if n >= 16 else min(80, 1 << n))
            cases.append(Family(n, [rng.randrange(1 << n) for _ in range(size)]))
            core = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            cases.append(Family(n, [core | rng.getrandbits(n) & rng.getrandbits(n)
                                    for _ in range(size)]))
            cases.append(Family(n, [full ^ (1 << rng.randrange(n)) ^ (1 << rng.randrange(n))
                                    for _ in range(size)]))
        if n >= 3:
            # a member with fewer than t elements next to large ones
            cases.append(Family(n, [1, full, full ^ 2]))
        for fam in cases:
            chain = longest_chain_members(fam)
            assert chain == pair_loop_chain_members(fam)
            assert longest_chain(fam) == len(chain)
            # the height classes that compression's down-shift reads
            levels = _chain_levels(fam)
            classes = [_masks_of(level & ~above, n)
                       for level, above in zip(levels, levels[1:] + [0])]
            assert classes == [sorted(layer) for layer in pair_loop_peel(fam)]
            for t in range(6):
                got = is_t_intersecting(fam, t)
                assert got == pair_loop_t_intersecting(fam, t), (n, t, fam.members)
                if len(fam) >= 2 and t >= 1:
                    outcomes.add(got)
    assert outcomes == {True, False}


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=30))))
def test_chain_heights_definition(case):
    n, masks = case
    fam = Family(n, masks)
    height = dict(zip(fam.members, chain_heights(fam)))
    for a, h in height.items():
        below = [b for b in height if b != a and a & b == b]
        # every member of the family below a sits lower, and for h > 1 one
        # of them sits exactly one lower
        assert all(height[b] < h for b in below)
        assert h == 1 or any(height[b] == h - 1 for b in below)
        # each height class is an antichain
        assert not any(height[b] == h for b in below)


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 3), st.permutations(range(1 << n)))))
def test_include_in_chains_keeps_exact_heights(case):
    # the items are the subsets of [n], indexed by their masks, included in
    # random order unless they would close a chain of k + 1
    n, k, order = case
    full = (1 << n) - 1
    sup = [sum(1 << j for j in range(full + 1) if j != i and i & j == i) for i in range(full + 1)]
    sub = [sum(1 << j for j in range(full + 1) if j != i and i & j == j) for i in range(full + 1)]
    below = above = (0,) * k
    chosen = closes = 0
    for i in order:
        if closes >> i & 1:
            continue
        below, above, closes = include_in_chains(below, above, sup, sub, i, 1 << i, chosen, k)
        chosen |= 1 << i
        fam = Family(n, [c for c in range(full + 1) if chosen >> c & 1])
        # up[c]: the longest chain of chosen sets ending at c; down[c]: the
        # longest starting at c, read off the complements
        up = dict(zip(fam.members, chain_heights(fam)))
        dual = complement_family(fam)
        down = {full ^ c: h for c, h in zip(dual.members, chain_heights(dual))}
        assert max(up.values()) <= k
        for j in range(full + 1):
            inside = max((h for c, h in up.items() if c != j and c & j == c), default=0)
            around = max((h for c, h in down.items() if c != j and c & j == j), default=0)
            for d in range(k):
                assert (below[d] >> j & 1) == (inside >= d + 1), (n, k, j, d)
                assert (above[d] >> j & 1) == (around >= d + 1), (n, k, j, d)
            if not chosen >> j & 1:
                assert (closes >> j & 1) == (inside + around >= k), (n, k, j)


class TestShadowShade:
    def test_shadow_example(self):
        fam = Family.from_sets(3, [[1, 2], [2, 3]])
        assert shadow(fam, 1).to_sets() == [[1], [2], [3]]

    def test_shade_example(self):
        fam = Family.from_sets(4, [[1, 2]])
        assert shade(fam, 3).to_sets() == [[1, 2, 3], [1, 2, 4]]

    def test_shadow_of_full_layer(self):
        fam = Family.from_sets(5, itertools.combinations(range(1, 6), 3))
        assert len(shadow(fam, 2)) == 10

    def test_monotone(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 8)
            big = Family(n, [rng.randrange(1 << n) for _ in range(10)])
            small = Family(n, [m for m in big.members if rng.random() < 0.5])
            lvl = rng.randint(0, n)
            assert set(shadow(small, lvl).members) <= set(shadow(big, lvl).members)
            assert set(shade(small, lvl).members) <= set(shade(big, lvl).members)

    def test_uniform_identities(self):
        fam = Family.from_sets(5, itertools.combinations(range(1, 6), 3))
        assert shadow(fam, 3) == fam
        assert shade(fam, 5).to_sets() == [[1, 2, 3, 4, 5]]

    def test_match_a_filter_over_all_masks(self):
        # the level-sets below (shadow) or above (shade) some member
        rng = random.Random(6)
        for n in range(1, 7):
            for _ in range(20):
                fam = Family(n, rng.sample(range(1 << n), rng.randint(0, min(12, 1 << n))))
                for lvl in range(n + 1):
                    layer = [x for x in range(1 << n) if x.bit_count() == lvl]
                    assert shadow(fam, lvl) == Family(
                        n, [x for x in layer if any(x & m == x for m in fam)])
                    assert shade(fam, lvl) == Family(
                        n, [x for x in layer if any(x & m == m for m in fam)])


def combination_shadow(fam, level):
    """Reference: every level-subset of every member of size >= level, one
    combination of dropped elements at a time."""
    out = set()
    for m in fam.members:
        c = m.bit_count()
        if c < level:
            continue
        bits = [1 << i for i in range(fam.n) if m >> i & 1]
        for drop in itertools.combinations(bits, c - level):
            out.add(m - sum(drop))
    return Family(fam.n, out)


def combination_shade(fam, level):
    """Reference: every level-superset of every member of size <= level."""
    return Family(fam.n, {x for m in fam.members for x in layer_masks(fam.n, level, required=m)})


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=12), st.integers(0, n))))
def test_shadow_shade_match_a_filter_to_n_10(case):
    # mixed sizes, the empty family, and the end levels 0 and n
    n, masks, lvl = case
    for fam in (Family(n, masks), Family(n)):
        for level in (0, lvl, n):
            layer = [x for x in range(1 << n) if x.bit_count() == level]
            assert shadow(fam, level) == Family(
                n, [x for x in layer if any(x & m == x for m in fam)])
            assert shade(fam, level) == Family(
                n, [x for x in layer if any(x & m == m for m in fam)])


def test_shadow_shade_at_n_24_match_combinations():
    # a lattice bitset of 2^24 bits, mostly zero bytes, decoded to masks
    n = MAX_ENUM_N
    fam = Family.from_sets(n, [range(1, 14), range(12, 25), range(5, 21), range(3, 23, 2)])
    for level in (10, 13):
        assert shadow(fam, level) == combination_shadow(fam, level)
    for level in (14, 22):
        assert shade(fam, level) == combination_shade(fam, level)


class TestComplement:
    def test_example(self):
        fam = Family.from_sets(3, [[1, 2]])
        assert complement_family(fam).to_sets() == [[3]]

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 10)
            fam = Family(n, [rng.randrange(1 << n) for _ in range(rng.randint(0, 15))])
            assert complement_family(complement_family(fam)) == fam

    def test_duality_with_shadow(self):
        # complement of the level-l shadow is the level-(n-l) shade of the
        # complement family
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 12)
            fam = Family(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 10))])
            lvl = rng.randint(0, n)
            lhs = complement_family(shadow(fam, lvl))
            rhs = shade(complement_family(fam), n - lvl)
            assert lhs == rhs

    def test_uniform_intersecting_maps_to_intersecting(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(4, 10)
            r = rng.randint(2, n - 1)
            t = rng.randint(1, r)
            fam = random_uniform_t_intersecting(rng, n, r, t)
            assert is_t_intersecting(fam, t)
            comp = complement_family(fam)
            assert is_t_intersecting(comp, max(0, n + t - 2 * r))


class TestWeight:
    def test_empty(self):
        assert weight(Family(4)) == 0

    def test_one_layer(self):
        fam = Family.from_sets(4, itertools.combinations(range(1, 5), 2))
        assert weight(fam) == 36

    def test_one_per_size(self):
        fam = Family.from_sets(5, [list(range(1, i + 1)) for i in range(0, 6)])
        assert weight(fam) == 32


class TestKatonaShadow:
    def test_star(self):
        fam = Family.from_sets(5, [[1, x] for x in range(2, 6)])
        chk = verify_katona_shadow(fam, 2, 1, 1)
        assert chk.holds and chk.shadow_size == 5
        assert chk.required == 4

    def test_full_layer_equality(self):
        fam = Family.from_sets(6, itertools.combinations(range(1, 7), 4))
        chk = verify_katona_shadow(fam, 4, 2, 3)
        assert chk.holds and chk.shadow_size == 20 and chk.required == 20

    def test_single_set(self):
        fam = Family.from_sets(6, [[1, 2, 3, 4]])
        for lvl in range(2, 5):
            assert verify_katona_shadow(fam, 4, 2, lvl).holds

    def test_rejects_nonuniform(self):
        fam = Family.from_sets(4, [[1], [1, 2]])
        with pytest.raises(PreconditionError, match="uniform"):
            verify_katona_shadow(fam, 2, 1, 1)

    def test_rejects_non_intersecting(self):
        fam = Family.from_sets(4, [[1, 2], [3, 4]])
        with pytest.raises(PreconditionError, match="intersecting"):
            verify_katona_shadow(fam, 2, 1, 1)

    def test_rejects_bad_level(self):
        fam = Family.from_sets(4, [[1, 2]])
        with pytest.raises(PreconditionError, match="level"):
            verify_katona_shadow(fam, 2, 1, 0)

    def test_thousand_random_families(self):
        rng = random.Random(6)
        for _ in range(1000):
            n = rng.randint(3, 10)
            r = rng.randint(2, n - 1)
            t = rng.randint(1, r)
            size = rng.randint(1, 14)
            fam = random_uniform_t_intersecting(rng, n, r, t)
            # a prefix of an r-uniform t-intersecting family is one too
            fam = Family(n, fam.members[:size])
            lvl = rng.randint(max(0, r - t), r)
            assert verify_katona_shadow(fam, r, t, lvl).holds
