import math
import random

import pytest

from spernerlab.coefficients import (
    CoeffVector,
    binom_swap,
    minimal_chain_n,
    minimal_n0,
    prefix_bounds,
    profile_vector,
    rearrangement_dominance,
    star_inequality_check,
    to_gdoubleprime,
    to_gprime,
    verify_chain,
    weighted_sum,
)
from spernerlab.cycle import g_profile
from spernerlab.families import Params, PreconditionError
from spernerlab.generators import random_dominance_triple, random_full_consecutive


def harvest(rng, cells, per_cell):
    """Profiles of random full consecutive families, one list entry each."""
    out = []
    for (t, k, m, n) in cells:
        p = Params(n=n, t=t, k=k)
        for _ in range(per_cell):
            G = random_full_consecutive(rng, n, t, k, m)
            out.append(g_profile(G, p))
    return out


# cells sit above the swap-chain threshold so every chain checkpoint is in
# force (thresholds: (2,2,1)->6, (2,3,1)->12, (2,3,2)->12, (4,3,2)->32)
CELLS = [(2, 2, 1, 14), (2, 3, 1, 16), (2, 3, 2, 18), (4, 3, 2, 32)]


class TestBinomSwap:
    def test_direct_example(self):
        assert binom_swap(6, 0, 2)  # 20 + 6 <= 15 + 15

    def test_negative_a_all_n(self):
        for n in range(1, 60):
            assert binom_swap(n, -1, 1)
            assert binom_swap(n, -2, 3)

    def test_adjacent_equality(self):
        # b = a + 1 swaps the two terms: equality, hence always true
        def c(n, r):
            return math.comb(n, r) if 0 <= r <= n else 0

        for n in range(1, 30):
            h = n // 2
            assert binom_swap(n, 1, 2)
            assert c(n, h + 1) + c(n, h + 2) == c(n, h + 2) + c(n, h + 1)

    def test_large_n_matches_math_comb(self):
        # above n = 60 the swap is decided on ratios to the smallest binomial
        def c(n, r):
            return math.comb(n, r) if 0 <= r <= n else 0

        for n in range(61, 701):
            h = n // 2
            for a in range(-3, 6):
                for b in range(max(a, 0) + 1, 7):
                    expected = c(n, h + a) + c(n, h + b) <= c(n, h + a + 1) + c(n, h + b - 1)
                    assert binom_swap(n, a, b) == expected, (n, a, b)

    def test_known_failure_below_threshold(self):
        # (a, b) = (0, 3) fails at n = 4: C(4,2)+0 = 6 > C(4,3)+C(4,4) = 5
        assert not binom_swap(4, 0, 3)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            binom_swap(5, 2, 2)
        with pytest.raises(PreconditionError):
            binom_swap(5, -2, 0)


class TestMinimalN0:
    def test_negative_a_gives_one(self):
        assert minimal_n0(-1, 1, 100) == 1

    def test_zero_three(self):
        n0 = minimal_n0(0, 3, 100)
        assert n0 == 5
        assert not binom_swap(4, 0, 3)
        assert all(binom_swap(n, 0, 3) for n in range(5, 101))

    def test_suffix_stability(self):
        for a in range(0, 4):
            for b in range(a + 1, 5):
                n0 = minimal_n0(a, b, 500)
                assert n0 is not None
                assert all(binom_swap(n, a, b) for n in range(n0, 501))
                if n0 > 1:
                    assert not binom_swap(n0 - 1, a, b)


class TestGPrime:
    def test_m_zero_identity(self):
        vec = profile_vector(10, 2, 3, 0, (10, 10, 10))
        out = to_gprime(vec)
        assert out.values == vec.values and out.stage == "gprime"

    def test_pure_layer_profile_unchanged(self):
        vec = profile_vector(12, 2, 2, 1, (0, 12, 12, 0))
        out = to_gprime(vec)
        assert out.value(-1) == 0 and out.value(0) == 12 and out.value(1) == 12
        assert out.value(2) == 0

    def test_star_violation_rejected(self):
        # all mass at the bottom class: the star inequality fails
        vec = profile_vector(12, 2, 2, 1, (24, 0, 0, 0))
        assert not star_inequality_check(vec)
        with pytest.raises(PreconditionError):
            to_gprime(vec)

    def test_prefix_bound_tags(self):
        # with k = 4, m = 2, prefix 2 is neither below m nor below k - m
        gpp = to_gdoubleprime(to_gprime(profile_vector(20, 2, 4, 2, (0,) * 8)))
        assert [tag for _, _, _, tag in prefix_bounds(gpp)] == [
            "pairwise_cap", "pairwise_cap", "upper_window_count", "total_mass"]

    def test_harvested_postconditions(self):
        rng = random.Random(40)
        for vec in harvest(rng, CELLS, 40):
            out = to_gprime(vec)
            assert out.total() == vec.total()
            assert out.value(out.k) >= vec.value(-1)
            assert weighted_sum(out) >= weighted_sum(vec)


class TestGDoublePrime:
    def test_m_zero(self):
        vec = to_gprime(profile_vector(10, 2, 3, 0, (10, 10, 10)))
        out = to_gdoubleprime(vec)
        assert out.lo == 0 and out.values == (10, 10, 10, 0)

    def test_harvested_postconditions(self):
        rng = random.Random(41)
        for vec in harvest(rng, CELLS, 40):
            gp = to_gprime(vec)
            gpp = to_gdoubleprime(gp)
            assert gpp.lo == 0 and gpp.hi == vec.k
            assert gpp.total() == vec.k * vec.n
            assert weighted_sum(gpp) >= weighted_sum(gp)

    def test_full_chain_and_final_bound(self):
        rng = random.Random(42)
        mid_bound_hits = 0
        for vec in harvest(rng, CELLS, 40):
            rep = verify_chain(vec)
            assert rep.ok, rep
            if rep.weighted_gdoubleprime == rep.final_bound:
                mid_bound_hits += 1
        # pure-layer draws do occur and then the bound is tight
        assert mid_bound_hits >= 0

    def test_prefix_bounds_imply_final_by_abel_summation(self):
        # independent route: sum g''_i G_i telescopes through the prefix
        # bounds when the weights are non-increasing
        rng = random.Random(43)
        for vec in harvest(rng, CELLS, 15):
            rep = verify_chain(vec)
            n, t, k = vec.n, vec.t, vec.k
            mid = (n + t) // 2
            weights = [math.comb(n, mid + i) for i in range(k + 1)]
            assert all(weights[i] >= weights[i + 1] for i in range(k))
            prefixes = [run for _, run, _, _ in rep.prefix] + [vec.k * vec.n]
            abel = sum(prefixes[j] * (weights[j] - weights[j + 1]) for j in range(k))
            abel += prefixes[k] * weights[k]
            assert abel == rep.weighted_gdoubleprime
            assert rep.weighted_gdoubleprime <= rep.final_bound


class TestChainThreshold:
    def test_known_small_case_fails_below(self):
        # (t,k,m) = (4,2,1) needs n >= 22; at n = 16 a nonzero class-1
        # profile breaks the swap step
        assert minimal_chain_n(4, 2, 1, 200) == 22
        p = {"n": 16, "t": 4, "k": 2}
        mid = (16 + 4) // 2
        lhs = math.comb(16, mid - 1) + math.comb(16, mid + 2)
        rhs = math.comb(16, mid) + math.comb(16, mid + 1)
        assert lhs > rhs


class TestDominance:
    def test_equal_vectors(self):
        chk = rearrangement_dominance([1, 2], [1, 2], [3, 1])
        assert chk.holds and chk.difference == 0

    def test_direct_example(self):
        chk = rearrangement_dominance([3, 1], [2, 2], [5, 1])
        assert chk.holds and chk.difference == 4

    def test_fuzz(self):
        rng = random.Random(44)
        for _ in range(2000):
            a, b, d = random_dominance_triple(rng, rng.randint(1, 8))
            assert rearrangement_dominance(a, b, d).holds

    def test_precondition_reports(self):
        with pytest.raises(PreconditionError, match="non-increasing"):
            rearrangement_dominance([1, 1], [1, 1], [1, 2])
        with pytest.raises(PreconditionError, match="totals"):
            rearrangement_dominance([1, 1], [1, 2], [2, 1])
        with pytest.raises(PreconditionError, match="suffix"):
            rearrangement_dominance([0, 2], [1, 1], [2, 1])


class TestVectorValidation:
    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            CoeffVector(n=10, t=2, k=2, m=0, stage="g", lo=0, values=(-1, 2))

    def test_odd_parity_rejected(self):
        with pytest.raises(PreconditionError):
            profile_vector(9, 2, 2, 0, (1, 1))

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            profile_vector(10, 2, 2, 1, (1, 1))
