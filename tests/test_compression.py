import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from spernerlab.compression import (
    antichain_shadow_holds,
    down_shift,
    normalize,
    shade_expansion_holds,
    up_compress,
)
from spernerlab.families import (
    Family,
    Params,
    PreconditionError,
    is_k_sperner,
    is_t_intersecting,
)
from spernerlab.generators import random_antichain_above_middle, random_valid_family


def middle_band_family(n, t, k):
    mid = (n + t + 1) // 2
    sets = []
    for i in range(k):
        if mid + i <= n:
            sets.extend(itertools.combinations(range(1, n + 1), mid + i))
    return Family.from_sets(n, sets)


class TestShadeExpansion:
    def test_empty_layer(self):
        fam = Family(6)
        assert shade_expansion_holds(fam, Params(n=6, t=2, k=1), 2)

    def test_single_set(self):
        fam = Family.from_sets(6, [[1, 2, 3]])
        assert shade_expansion_holds(fam, Params(n=6, t=2, k=1), 3)

    def test_full_low_layer(self):
        n, t = 8, 2
        for i in range(1, (n + t) // 2):
            fam = Family.from_sets(n, itertools.combinations(range(1, n + 1), i))
            # a full layer is not t-intersecting for small i; use supersets
            # of a fixed core instead, which the hypothesis requires
            core = list(range(1, t + 1))
            fam = Family.from_sets(
                n, (core + list(c) for c in itertools.combinations(range(t + 1, n + 1), i - t))
            ) if i >= t else Family(n)
            assert shade_expansion_holds(fam, Params(n=n, t=t, k=1), i)

    def test_range_enforced(self):
        fam = Family(6)
        with pytest.raises(PreconditionError):
            shade_expansion_holds(fam, Params(n=6, t=2, k=1), 4)


class TestUpCompress:
    def test_already_high_unchanged(self):
        p = Params(n=6, t=2, k=2)
        fam = middle_band_family(6, 2, 2)
        out, rep = up_compress(fam, p)
        assert out == fam and rep.steps == ()

    def test_single_triangle_lift(self):
        p = Params(n=6, t=2, k=1)
        fam = Family.from_sets(6, [[1, 2, 3]])
        out, rep = up_compress(fam, p)
        assert out.to_sets() == [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6]]
        assert rep.band == (4, 4)

    def test_empty_family(self):
        p = Params(n=5, t=1, k=1)
        out, rep = up_compress(Family(5), p)
        assert len(out) == 0 and rep.band is None

    def test_postconditions_random(self):
        rng = random.Random(10)
        for _ in range(250):
            n = rng.randint(3, 10)
            t = rng.randint(1, n - 1)
            k = rng.randint(1, 3)
            p = Params(n=n, t=t, k=k)
            fam = random_valid_family(rng, n, t, k)
            out, rep = up_compress(fam, p)
            assert len(out) >= len(fam)
            assert is_t_intersecting(out, t)
            assert is_k_sperner(out, k)
            if len(out):
                assert out.min_size() >= p.half_up - (k - 1)

    def test_rejects_invalid_input(self):
        p = Params(n=4, t=2, k=1)
        bad = Family.from_sets(4, [[1, 2], [3, 4]])
        with pytest.raises(PreconditionError):
            up_compress(bad, p)


class TestAntichainShadow:
    def test_singleton(self):
        assert antichain_shadow_holds(Family.from_sets(5, [[1, 2, 3, 4]]), 3)

    def test_top_layer(self):
        fam = Family.from_sets(5, itertools.combinations(range(1, 6), 4))
        assert antichain_shadow_holds(fam, 2)

    def test_random_antichains(self):
        rng = random.Random(11)
        for _ in range(250):
            n = rng.randint(3, 10)
            fam = random_antichain_above_middle(rng, n)
            for j in range(n // 2, fam.min_size() + 1):
                assert antichain_shadow_holds(fam, j)

    def test_empty_family(self):
        assert antichain_shadow_holds(Family(6), 3)

    def test_draws_pinned(self):
        # 30 seeds per n; the digest pins each antichain and the next draw
        out = []
        for n in range(3, 13):
            for seed in range(30):
                rng = random.Random(seed)
                out.append((n, random_antichain_above_middle(rng, n).members, rng.random()))
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "eca85f4771291bdd3f882fa4a18a6555d4dd70a1607a2309c64ba320f0585942")

    def test_rejects_low_antichain(self):
        fam = Family.from_sets(6, [[1, 2]])
        with pytest.raises(PreconditionError):
            antichain_shadow_holds(fam, 2)

    def test_rejects_chain(self):
        fam = Family.from_sets(6, [[1, 2, 3, 4], [1, 2, 3, 4, 5]])
        with pytest.raises(PreconditionError):
            antichain_shadow_holds(fam, 3)


class TestDownShift:
    def test_in_band_unchanged(self):
        p = Params(n=6, t=2, k=2)
        fam = middle_band_family(6, 2, 2)
        out, rep = down_shift(fam, p)
        assert out == fam
        assert rep.steps == ()

    def test_full_set_family(self):
        # a single huge set falls to the middle layer, which only grows the
        # family
        p = Params(n=6, t=2, k=1)
        fam = Family.from_sets(6, [[1, 2, 3, 4, 5, 6]])
        out, rep = down_shift(fam, p)
        assert len(out) == 15
        assert out.min_size() == out.max_size() == 4
        assert rep.m == 0

    def test_postconditions_random(self):
        rng = random.Random(12)
        for _ in range(250):
            n = rng.randint(3, 10)
            t = rng.randint(1, n - 1)
            k = rng.randint(1, 3)
            p = Params(n=n, t=t, k=k)
            fam = random_valid_family(rng, n, t, k)
            out, rep = down_shift(fam, p)
            assert len(out) >= len(fam)
            assert is_t_intersecting(out, t)
            assert is_k_sperner(out, k)
            if len(fam) and fam.min_size() <= p.half_up:
                # below the middle the minimum size is preserved exactly
                assert out.min_size() == fam.min_size()
            if len(out):
                assert out.max_size() <= p.half_up + rep.c + k - 1


class TestNormalize:
    def test_band_layers_fixed_point(self):
        for (n, t, k) in [(6, 2, 2), (7, 1, 2), (8, 2, 3), (7, 3, 1)]:
            p = Params(n=n, t=t, k=k)
            fam = middle_band_family(n, t, k)
            out, rep = normalize(fam, p)
            assert out == fam and rep.m == 0

    def test_band_invariant_random(self):
        rng = random.Random(13)
        for _ in range(250):
            n = rng.randint(3, 10)
            t = rng.randint(1, n - 1)
            k = rng.randint(1, 3)
            p = Params(n=n, t=t, k=k)
            fam = random_valid_family(rng, n, t, k)
            out, rep = normalize(fam, p)
            assert len(out) >= len(fam)
            assert is_t_intersecting(out, t)
            assert is_k_sperner(out, k)
            if len(out):
                assert 0 <= rep.m <= k - 1
                assert out.min_size() == p.half_up - rep.m
                assert out.max_size() <= p.half_up + k - 1 + rep.m

    def test_size_never_drops(self):
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randint(4, 9)
            fam = random_valid_family(rng, n, 2 if n > 2 else 1, 2)
            p = Params(n=n, t=2, k=2)
            out, _ = normalize(fam, p)
            assert len(out) >= len(fam)

    def test_empty_family(self):
        out, rep = normalize(Family(6), Params(n=6, t=2, k=2))
        assert len(out) == 0
        assert (rep.band, rep.m, rep.steps) == (None, 0, ())

    @pytest.mark.parametrize("sets, message", [
        ([[1, 2], [3, 4]], "normalize: family is not 1-intersecting"),
        ([[1, 2], [1, 2, 3]], "normalize: family has a chain longer than k=1"),
    ], ids=["disjoint", "chain"])
    def test_refuses_under_its_own_name(self, sets, message):
        with pytest.raises(PreconditionError, match=message):
            normalize(Family.from_sets(4, sets), Params(n=4, t=1, k=1))


def test_pass_outputs_and_reports_pinned():
    # every pass's members and report on 300 seeded draws, as the sha256 of
    # their JSON
    rows = []
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        t = rng.randint(1, n)
        k = rng.randint(1, 3)
        fam = random_valid_family(rng, n, t, k)
        p = Params(n=n, t=t, k=k)
        for fn in (up_compress, down_shift, normalize):
            out, rep = fn(fam, p)
            rows.append([fn.__name__, list(out.members), rep.m, rep.c, rep.steps, rep.band])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "d744cc11fd9cb208e063913abd9b58212997bf46d0fef2aa9f9602d879e17800")


@settings(derandomize=True, deadline=None)
@given(st.integers(4, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n - 1), st.integers(1, 3), st.integers(0, 2**32 - 1))))
def test_normalize_keeps_members_and_properties(case):
    # the seeded harnesses' generator, on cells and seeds that hypothesis draws
    n, t, k, seed = case
    fam = random_valid_family(random.Random(seed), n, t, k)
    p = Params(n=n, t=t, k=k)
    out, rep = normalize(fam, p)
    assert len(out) >= len(fam)
    assert is_t_intersecting(out, t)
    assert is_k_sperner(out, k)
    if len(out):
        assert 0 <= rep.m <= k - 1
        assert out.min_size() == p.half_up - rep.m
        assert out.max_size() <= p.half_up + k - 1 + rep.m
