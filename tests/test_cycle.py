import hashlib
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from spernerlab import cycle
from spernerlab.coefficients import minimal_chain_n, profile_vector, verify_chain
from spernerlab.compression import down_shift, normalize, up_compress
from spernerlab.cycle import (
    AveragingCheck,
    CyclicPerm,
    Interval,
    IntervalFamily,
    all_cyclic_perms,
    arc_mask,
    averaging_identity,
    bar_complement,
    check_complement_closure,
    check_instance,
    fill_full,
    g_profile,
    interval_band,
    interval_weight,
    is_full_consecutive,
    is_sigma_ks_ti,
    make_consecutive,
    restrict_to_cycle,
)
from spernerlab.families import Family, Params, PreconditionError
from spernerlab.generators import (
    random_full_consecutive,
    random_inner_family,
    random_sigma_ksti,
    random_valid_family,
)
from spernerlab.search import CONSTRUCTIONS, construction_size


def overlap(n, a, b):
    """Shared positions of two arcs, as the checks read them: the popcount
    of the AND of their position masks."""
    return (arc_mask(n, a.length, a.start) & arc_mask(n, b.length, b.start)).bit_count()


def reference_overlap(n, a, b):
    """Shared positions of two arcs by segment arithmetic, independent of
    the position masks: b, taken relative to a's start, covers [d, d+len_b)
    and may wrap past n; a covers [0, len_a)."""
    d = (b.start - a.start) % n
    seg1 = max(0, min(a.length, min(d + b.length, n)) - d)
    seg2 = max(0, min(a.length, d + b.length - n))
    return seg1 + seg2


def layers_interval_family(n, t, k):
    """All intervals of the k lengths starting at (n+t)/2: full consecutive."""
    mid = (n + t) // 2
    return IntervalFamily(n, [Interval(length=mid + i, start=h)
                              for h in range(n) for i in range(k)])


def reference_chains(G):
    """Member lengths per chain, as the removed IntervalFamily.by_chain
    rebuilt them on every call."""
    chains = {}
    for iv in G.members:
        chains.setdefault(iv.start, []).append(iv.length)
    return chains


def reference_closure_failures(G, params):
    """check_complement_closure's failures as the removed offset walk along
    each bar complement found them, without the full-consecutive
    precondition; PreconditionError where the sizes do not fit the band."""
    n, t, k = G.n, params.t, params.k
    mid = (n + t) // 2
    lens = [iv.length for iv in G.members]
    m = mid - min(lens)
    if m < 0 or max(lens) > mid + k - 1 + m or mid - m < t + 1:
        raise PreconditionError("member sizes do not fit the band")
    chains = G.chains
    failures = []
    for iv in G.members:
        bc = bar_complement(iv, n, t)
        hits = []
        for off in range(bc.length):
            run = chains.get((bc.start + off) % n)
            if run and run[0] <= bc.length - max(off, 1):
                hits.append((run[0], off))
        if hits:
            ell, off = min(hits)
            sub = Interval(length=ell, start=(bc.start + off) % n)
            failures.append(
                f"proper subinterval {sub} of bar complement of {iv} is a member")
        if iv.length == mid - m and bc.length not in chains.get(bc.start, ()):
            failures.append(f"bar complement {bc} of bottom member {iv} is missing")
    return tuple(failures)


def reference_side_families(G, mid, j):
    """The removed _missing_side_families: the missing intervals of sizes
    mid..mid+j that contain no member, and those inside no member, by
    offset arithmetic against every chain's span."""
    n = G.n
    chains = G.chains
    spans = {h: (run[0], run[-1]) for h, run in chains.items()}
    h1, h2 = set(), set()
    for h in range(n):
        for ell in range(mid, mid + j + 1):
            if ell in chains.get(h, ()):
                continue
            iv = Interval(length=ell, start=h)
            contains = any((h2start - h) % n + lo <= ell for h2start, (lo, _) in spans.items())
            inside = any((h - h2start) % n + ell <= hi for h2start, (_, hi) in spans.items())
            if not contains:
                h1.add(iv)
            if not inside:
                h2.add(iv)
    return h1, h2


# (transform, invalid input, params, message): two families that are not
# t-intersecting or not k-Sperner, two interval families with k + 1 members
# on one chain or two chain minima sharing fewer than t positions
NOT_T_INTERSECTING = (Family.from_sets(4, [[1, 2], [3, 4]]), Params(n=4, t=2, k=1),
                      "not 2-intersecting")
CHAIN_TOO_LONG = (Family.from_sets(4, [[1, 2], [1, 2, 3]]), Params(n=4, t=1, k=1),
                  "chain longer than k=1")
CHAIN_OVER_K = (IntervalFamily(6, [Interval(length=3, start=0), Interval(length=4, start=0)]),
                Params(n=6, t=2, k=1), "not sigma-k-Sperner t-intersecting")
MINIMA_APART = (IntervalFamily(6, [Interval(length=3, start=0), Interval(length=3, start=3)]),
                Params(n=6, t=2, k=2), "not sigma-k-Sperner t-intersecting")
INVALID_INPUTS = [pytest.param(fn, *case, id=f"{fn.__name__}-{name}")
                  for fns, cases in (((up_compress, down_shift, normalize),
                                      (("not_t_intersecting", NOT_T_INTERSECTING),
                                       ("chain_too_long", CHAIN_TOO_LONG))),
                                     ((make_consecutive, fill_full),
                                      (("chain_over_k", CHAIN_OVER_K),
                                       ("minima_apart", MINIMA_APART))))
                  for fn in fns for name, case in cases]


@pytest.mark.parametrize("transform,bad,params,message", INVALID_INPUTS)
def test_transforms_reject_invalid_input(transform, bad, params, message):
    with pytest.raises(PreconditionError, match=message):
        transform(bad, params)


class TestPermsAndIntervals:
    def test_perm_validation(self):
        with pytest.raises(PreconditionError):
            CyclicPerm((1, 2, 2))

    def test_enumeration_count(self):
        assert sum(1 for _ in all_cyclic_perms(5)) == math.factorial(4)

    def test_arc_overlap_wraps(self):
        n = 6
        a = Interval(length=4, start=0)
        b = Interval(length=4, start=3)
        assert overlap(n, a, b) == 2

    def test_interval_is_ordered_by_length_then_start(self):
        # check_complement_closure's failure messages print this repr
        ivs = [Interval(length=3, start=5), Interval(length=2, start=7),
               Interval(length=3, start=1)]
        assert sorted(ivs) == [Interval(length=2, start=7), Interval(length=3, start=1),
                               Interval(length=3, start=5)]
        assert repr(ivs[0]) == "Interval(length=3, start=5)"
        assert Interval(4, 0) == Interval(length=4, start=0)

    def test_arc_mask_positions(self):
        assert arc_mask(6, 3, 4) == 0b110001
        assert arc_mask(6, 5, 0) == 0b011111
        assert arc_mask(40, 39, 39) == (1 << 40) - 1 - (1 << 38)

    def test_overlap_matches_reference_exhaustively(self):
        for n in range(3, 11):
            ivs = [Interval(length=ell, start=h) for ell in range(1, n) for h in range(n)]
            for a in ivs:
                for b in ivs:
                    assert overlap(n, a, b) == reference_overlap(n, a, b), (n, a, b)

    def test_arc_facts_behind_the_length_skips(self):
        # two arcs share at least a + b - n positions, and an arc of length
        # ell lies inside the arc (b, s) iff it starts at most b - ell after s
        for n in range(3, 13):
            ivs = [Interval(length=ell, start=h) for ell in range(1, n) for h in range(n)]
            for a in ivs:
                for b in ivs:
                    o = reference_overlap(n, a, b)
                    assert o >= a.length + b.length - n, (n, a, b)
                    inside = (a.start - b.start) % n <= b.length - a.length
                    assert (o == a.length) == inside, (n, a, b)

    @pytest.mark.parametrize("n", [32, 40])
    def test_overlap_matches_reference_at_large_n(self, n):
        rng = random.Random(n)
        for _ in range(3000):
            a = Interval(length=rng.randint(1, n - 1), start=rng.randrange(n))
            b = Interval(length=rng.randint(1, n - 1), start=rng.randrange(n))
            assert overlap(n, a, b) == reference_overlap(n, a, b), (n, a, b)


class TestRestrictAndChains:
    def test_adjacent_pairs(self):
        fam = Family.from_sets(4, itertools.combinations(range(1, 5), 2))
        assert len(restrict_to_cycle(fam, CyclicPerm((1, 2, 3, 4)))) == 4

    def test_non_consecutive_dropped(self):
        fam = Family.from_sets(4, [[1, 3]])
        assert len(restrict_to_cycle(fam, CyclicPerm((1, 2, 3, 4)))) == 0

    def test_full_set_never_an_interval(self):
        fam = Family.from_sets(4, [[1, 2, 3, 4], [1, 2]])
        res = restrict_to_cycle(fam, CyclicPerm((1, 2, 3, 4)))
        assert res.members == (Interval(length=2, start=0),)

    def test_interval_count_over_all_orders(self):
        # each member of size f is an interval of exactly f!(n-f)! cyclic
        # orders
        rng = random.Random(21)
        n = 5
        fam = random_inner_family(rng, n, 0.3)
        total = sum(len(restrict_to_cycle(fam, perm))
                    for perm in all_cyclic_perms(n))
        expected = sum(math.factorial(m.bit_count()) * math.factorial(n - m.bit_count())
                       for m in fam.members)
        assert total == expected

    def test_matches_position_set_reference_on_every_order(self):
        # every cyclic order for n = 3..7, on random families that hold the
        # empty set and the full set
        rng = random.Random(35)
        for n in range(3, 8):
            for density in (0.2, 0.6):
                fam = Family(n, random_inner_family(rng, n, density).members + (0, (1 << n) - 1))
                for perm in all_cyclic_perms(n):
                    assert restrict_to_cycle(fam, perm) == reference_restrict(fam, perm), (
                        n, perm.order)


def reference_restrict(fam, perm):
    """Reference: each member's positions as a set; an interval has exactly
    one position whose predecessor is not in the set."""
    n = perm.n
    pos = {e: p for p, e in enumerate(perm.order)}
    ivs = []
    for mask in fam.members:
        c = mask.bit_count()
        if c == 0 or c == n:
            continue
        ps = {pos[e + 1] for e in range(n) if mask >> e & 1}
        starts = [p for p in ps if (p - 1) % n not in ps]
        if len(starts) == 1:
            ivs.append(Interval(length=c, start=starts[0]))
    return IntervalFamily(n, ivs)


@pytest.mark.parametrize("n, bad, message", [
    (2, [], "interval families need n >= 3"),
    (6, [Interval(0, 2)], "interval length 0 outside [1, 5]"),
    (6, [Interval(6, 2)], "interval length 6 outside [1, 5]"),
    (6, [Interval(2, -1)], "interval start -1 outside [0, 6)"),
    (6, [Interval(2, 6)], "interval start 6 outside [0, 6)"),
])
def test_interval_family_refusals(n, bad, message):
    # each bad member among good ones, on either side of them in the
    # canonical order
    good = [Interval(3, 1), Interval(2, 2), Interval(5, 0)]
    with pytest.raises(PreconditionError, match=re.escape(message)):
        IntervalFamily(n, good + bad)


class TestChainsField:
    def test_matches_reference_in_any_member_order(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.choice([10, 12, 14])
            t = rng.choice([2, 4])
            k = rng.randint(1, 3)
            m = rng.randint(0, min(k - 1, (n - t) // 2 - k))
            G = rng.choice([random_sigma_ksti, random_full_consecutive])(rng, n, t, k, m)
            expected = {h: tuple(run) for h, run in reference_chains(G).items()}
            assert G.chains == expected and list(G.chains) == list(expected)
            shuffled = list(G.members)
            rng.shuffle(shuffled)
            H = IntervalFamily(n, shuffled)
            assert H == G and hash(H) == hash(G)
            assert H.chains == expected and list(H.chains) == list(expected)


class TestMaskGeometry:
    """The closure check decides arc nesting on position masks; the offset
    walk it replaced is the reference.  The side-family reference shows why
    `check_instance` may write the side families' disjointness as a
    constant."""

    def test_matches_offset_loops(self, monkeypatch):
        # the loose families are not full consecutive: let them past that
        # precondition so that closure failures of both kinds occur
        monkeypatch.setattr(cycle, "is_full_consecutive", lambda G, k: True)
        rng = random.Random(34)
        closures = set()
        for _ in range(200):
            n = rng.choice([10, 12, 14])
            t = rng.choice([2, 4])
            k = rng.randint(1, 3)
            m = rng.randint(0, min(k - 1, (n - t) // 2 - k))
            G = rng.choice([random_sigma_ksti, random_full_consecutive])(rng, n, t, k, m)
            p = Params(n=n, t=t, k=k)
            try:
                expected = reference_closure_failures(G, p)
            except PreconditionError:
                expected = None
            try:
                got = check_complement_closure(G, p)
            except PreconditionError:
                got = None
            assert got == expected, (n, t, k, G.members)
            closures.add("refused" if got is None else bool(got))
        assert closures == {"refused", True, False}

    def test_closure_failures_of_a_lowered_chain(self, monkeypatch):
        # chain 3 of the layers family lowered to lengths 5, 6: the new
        # bottom's bar complement (7 positions from 7) holds the member
        # (6, 7), and the bar complements of (6, 7) and (6, 8) hold the new
        # bottom; the bottoms are now the length-5 members alone
        monkeypatch.setattr(cycle, "is_full_consecutive", lambda G, k: True)
        p = Params(n=10, t=2, k=2)
        G = IntervalFamily(10, [iv for iv in layers_interval_family(10, 2, 2).members
                                if iv.start != 3]
                           + [Interval(length=5, start=3), Interval(length=6, start=3)])
        expected = (
            "proper subinterval Interval(length=6, start=7) of bar complement of "
            "Interval(length=5, start=3) is a member",
            "proper subinterval Interval(length=5, start=3) of bar complement of "
            "Interval(length=6, start=7) is a member",
            "proper subinterval Interval(length=5, start=3) of bar complement of "
            "Interval(length=6, start=8) is a member",
        )
        assert reference_closure_failures(G, p) == expected
        assert check_complement_closure(G, p) == expected

    def test_side_families_meet_at_an_empty_chain(self):
        # a full consecutive family keeps every missing interval of a chain
        # inside its own top member or around its own bottom one; only an
        # empty chain can hold an interval in both side families, and a
        # full consecutive family has none
        G = IntervalFamily(10, [Interval(length=6 + i, start=h)
                                for h in range(2, 8) for i in range(2)])
        h1, h2 = reference_side_families(G, 6, 1)
        # chains 2..7 hold lengths 6 and 7; (6, 8) lies inside (7, 7)
        assert h1 & h2 == {Interval(length=6, start=0), Interval(length=7, start=0),
                           Interval(length=6, start=1), Interval(length=6, start=9),
                           Interval(length=7, start=8), Interval(length=7, start=9)}
        full = layers_interval_family(10, 2, 2)
        assert not any(reference_side_families(full, 6, j)[0] & reference_side_families(
            full, 6, j)[1] for j in range(3))
        rng = random.Random(35)
        ms = set()
        for _ in range(120):
            n = rng.choice([10, 12, 14])
            t = rng.choice([2, 4])
            k = rng.randint(1, 3)
            m = rng.randint(0, min(k - 1, (n - t) // 2 - k))
            G = random_full_consecutive(rng, n, t, k, m)
            for j in range(k + m):
                h1, h2 = reference_side_families(G, (n + t) // 2, j)
                assert not h1 & h2, (n, t, k, m, j, G.members)
            assert check_instance(G, Params(n=n, t=t, k=k))["side_families_disjoint"] is True
            ms.add(m)
        assert ms == {0, 1, 2}


class TestSigmaPredicate:
    def test_one_length_layer(self):
        n, t = 8, 2
        G = layers_interval_family(n, t, 1)
        assert is_sigma_ks_ti(G, Params(n=n, t=t, k=1))

    def test_disjoint_short_intervals(self):
        G = IntervalFamily(6, [Interval(length=2, start=0), Interval(length=2, start=3)])
        assert not is_sigma_ks_ti(G, Params(n=6, t=1, k=2))

    def test_chain_budget(self):
        G = IntervalFamily(6, [Interval(length=3, start=0), Interval(length=4, start=0)])
        assert is_sigma_ks_ti(G, Params(n=6, t=2, k=2))
        assert not is_sigma_ks_ti(G, Params(n=6, t=2, k=1))

    def test_restriction_of_valid_family(self):
        rng = random.Random(22)
        for _ in range(120):
            n = rng.randint(4, 8)
            t = rng.randint(1, n - 1)
            k = rng.randint(1, 3)
            fam = random_valid_family(rng, n, t, k)
            perm = CyclicPerm(tuple(rng.sample(range(1, n + 1), n)))
            inner = restrict_to_cycle(fam, perm)
            assert is_sigma_ks_ti(inner, Params(n=n, t=t, k=k))

    def test_matches_pairwise_definition(self):
        def pairwise(G, t, k):
            per_chain = {}
            for iv in G.members:
                per_chain[iv.start] = per_chain.get(iv.start, 0) + 1
                if per_chain[iv.start] > k:
                    return False
            ms = G.members
            return all(reference_overlap(G.n, ms[i], ms[j]) >= t
                       for i in range(len(ms)) for j in range(i + 1, len(ms)))

        rng = random.Random(32)
        seen = set()
        for _ in range(3000):
            n = rng.randint(3, 12)
            t = rng.randint(1, n - 1)
            k = rng.randint(1, 3)
            members = []
            for _ in range(rng.randint(0, 6)):
                # reuse a chain often, so chains hold several members
                h = rng.choice(members).start if members and rng.random() < 0.4 else rng.randrange(n)
                members.append(Interval(length=rng.randint(max(1, t - 1), n - 1), start=h))
            G = IntervalFamily(n, members)
            expected = pairwise(G, t, k)
            assert is_sigma_ks_ti(G, Params(n=n, t=t, k=k)) == expected, (n, t, k, G.members)
            seen.add(expected)
        assert seen == {True, False}

        # full consecutive families up to n = 40 at m = k - 1, whose lows
        # reach below (n + t)/2, half of them with one chain lowered
        seen = set()
        for _ in range(60):
            t = rng.randint(1, 4)
            k = rng.randint(1, 3)
            n = rng.choice(range(t + 4 * k - 2, 41, 2))  # the band of m = k - 1 fits
            G = random_full_consecutive(rng, n, t, k, k - 1)
            if rng.random() < 0.5:
                h = rng.randrange(n)
                drop = rng.randint(1, G.chains[h][0] - 1)
                G = IntervalFamily(n, [iv for iv in G.members if iv.start != h]
                                   + [Interval(length=ell - drop, start=h) for ell in G.chains[h]])
            expected = pairwise(G, t, k)
            assert is_sigma_ks_ti(G, Params(n=n, t=t, k=k)) == expected, (n, t, k, G.members)
            seen.add(expected)
        assert seen == {True, False}


class TestMakeConsecutive:
    def test_already_consecutive(self):
        G = layers_interval_family(6, 2, 2)
        p = Params(n=6, t=2, k=2)
        assert make_consecutive(G, p) == G

    def test_single_gap_example(self):
        # one chain holding lengths 3 and 5: the gap 4 >= n/2 replaces the 5
        G = IntervalFamily(6, [Interval(length=3, start=0), Interval(length=5, start=0)])
        p = Params(n=6, t=2, k=2)
        out = make_consecutive(G, p)
        assert sorted(iv.length for iv in out.members) == [3, 4]
        assert interval_weight(out) - interval_weight(G) == 15 - 6

    def test_postconditions_random(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.choice([10, 12, 14])
            t = rng.choice([2, 4])
            k = rng.randint(1, 3)
            m = rng.randint(0, min(k - 1, (n - t) // 2 - k))
            p = Params(n=n, t=t, k=k)
            G = random_sigma_ksti(rng, n, t, k, m)
            out = make_consecutive(G, p)
            # every chain's lengths form one run without gaps
            assert all(run[-1] - run[0] == len(run) - 1 for run in out.chains.values())
            assert is_sigma_ks_ti(out, p)
            assert len(out) == len(G)
            assert interval_weight(out) >= interval_weight(G)

    # (seed, n, t, k, m) of random_sigma_ksti -> make_consecutive and fill_full
    # outputs: (length, start) members, and fill_full's bottom per chain
    PINNED = [
        ((1, 10, 2, 3, 1), [(5, 7), (5, 9), (6, 7)],
         [7, 7, 7, 7, 7, 7, 7, 5, 7, 5]),
        ((4, 12, 4, 3, 1), [(7, 4), (8, 0), (8, 7), (9, 0), (9, 5), (9, 8), (10, 8), (10, 11)],
         [8, 9, 9, 9, 7, 9, 9, 8, 9, 9, 9, 9]),
        ((15, 12, 2, 3, 2), [(5, 0), (5, 11), (6, 0), (6, 2), (6, 10), (6, 11), (11, 3)],
         [5, 9, 6, 9, 9, 9, 9, 9, 9, 9, 6, 5]),
    ]

    @pytest.mark.parametrize("cell,consecutive,bottoms", PINNED)
    def test_transforms_pinned(self, cell, consecutive, bottoms):
        seed, n, t, k, m = cell
        G = random_sigma_ksti(random.Random(seed), n, t, k, m)
        p = Params(n=n, t=t, k=k)
        out = make_consecutive(G, p)
        assert out != G
        assert [(iv.length, iv.start) for iv in out.members] == consecutive
        full = fill_full(G, p)
        assert full.members == tuple(sorted(Interval(length=b + i, start=h)
                                            for h, b in enumerate(bottoms) for i in range(k)))


class TestFillFull:
    def test_layers_already_full(self):
        G = layers_interval_family(8, 2, 2)
        p = Params(n=8, t=2, k=2)
        assert fill_full(G, p) == G

    def test_empty_chains_filled(self):
        p = Params(n=8, t=2, k=2)
        G = IntervalFamily(8, [Interval(length=5, start=0)])
        out = fill_full(G, p)
        assert is_full_consecutive(out, 2)
        assert len(out) == 16

    def test_postconditions_random(self):
        rng = random.Random(24)
        for _ in range(200):
            n = rng.choice([10, 12, 14])
            t = rng.choice([2, 4])
            k = rng.randint(1, 3)
            m = rng.randint(0, min(k - 1, (n - t) // 2 - k))
            p = Params(n=n, t=t, k=k)
            G = random_sigma_ksti(rng, n, t, k, m)
            out = fill_full(G, p)
            assert is_full_consecutive(out, k)
            assert len(out) == k * n
            assert interval_weight(out) >= interval_weight(G)


class TestBarComplement:
    def test_frozen_example(self):
        bc = bar_complement(Interval(length=4, start=0), 6, 2)
        assert bc == Interval(length=4, start=3)
        mask = arc_mask(6, bc.length, bc.start)
        assert sorted(e + 1 for e in range(6) if mask >> e & 1) == [1, 4, 5, 6]

    def test_cardinality_identity(self):
        for n in range(4, 13):
            for t in range(1, 4):
                for start in range(n):
                    for length in range(t + 1, n):
                        bc = bar_complement(Interval(length=length, start=start), n, t)
                        assert length + bc.length == n + t

    def test_overlap_exactly_t(self):
        for n in range(4, 13):
            for t in range(1, 4):
                for start in range(n):
                    for length in range(t + 1, n - t):
                        iv = Interval(length=length, start=start)
                        bc = bar_complement(iv, n, t)
                        assert overlap(n, iv, bc) == reference_overlap(n, iv, bc) == t

    def test_too_small_rejected(self):
        with pytest.raises(PreconditionError):
            bar_complement(Interval(length=2, start=0), 6, 2)


class TestFullConsecutiveGenerator:
    # one instance per acceptance cell (t, k, m, n) from random.Random(2026):
    # the per-chain bottom lengths, then the generator's next random() draw
    @pytest.mark.parametrize("cell, bottoms, draw", [
        ((2, 1, 0, 12), [7] * 12, 0.44965483256793637),
        ((2, 2, 1, 14), [8, 7, 9, 9, 7, 7, 9, 9, 9, 8, 9, 9, 9, 8], 0.751025958158618),
        ((2, 3, 1, 16), [9, 10, 10, 8, 8, 9, 10, 10, 10, 9, 10, 10, 10, 9, 10, 9],
         0.002534841106863861),
        ((2, 3, 2, 18), [10, 12, 12, 8, 10, 12, 12, 12, 11, 12, 12, 12, 12, 11, 10, 9, 12, 8],
         0.011488831153233958),
        ((3, 3, 2, 21), [12, 14, 14, 10, 11, 14, 14, 14, 13, 14, 14, 14, 14, 14, 13, 13, 14,
                         11, 10, 12, 11], 0.8051359010960496),
        ((4, 2, 1, 24), [14, 15, 15, 13, 13, 13, 15, 15, 15, 14] + [15] * 9 + [14] * 5,
         0.9996561240104579),
        ((4, 3, 2, 32), [20, 20, 20, 18, 18, 20, 20, 16, 19, 20, 20, 19, 20, 19, 18, 18, 20,
                         20, 18, 18, 20, 20, 20, 20, 19, 18, 19, 18, 18, 18, 19, 20],
         0.8181321997112609),
    ])
    def test_pinned_instances(self, cell, bottoms, draw):
        t, k, m, n = cell
        rng = random.Random(2026)
        G = random_full_consecutive(rng, n, t, k, m)
        assert sorted((iv.start, iv.length) for iv in G.members) == sorted(
            (h, b + i) for h, b in enumerate(bottoms) for i in range(k))
        assert rng.random() == draw

    def test_every_small_cell(self):
        # every cell with n <= 24, k <= 5 and a band inside [1, n - 1]: the
        # repair pass ends full consecutive with the pinned chain at the
        # band bottom
        for n in range(3, 25):
            for t in range(2 - n % 2, n + 1, 2):
                for k in range(1, 6):
                    p = Params(n=n, t=t, k=k)
                    for m in range(k):
                        lo, hi = p.band(m)
                        if lo < 1 or hi > n - 1:
                            continue
                        for seed in (0, 1):
                            G = random_full_consecutive(random.Random(seed), n, t, k, m)
                            assert is_full_consecutive(G, k) and is_sigma_ks_ti(G, p)
                            assert G.members[0].length == lo, (n, t, k, m, seed)


class TestGeneratorDraws:
    CELLS = ((12, 2, 1), (14, 2, 2), (16, 2, 3), (18, 2, 3), (21, 3, 3), (24, 4, 2),
             (32, 4, 3), (15, 1, 2), (21, 1, 3))

    def test_interval_generators_pinned(self):
        # ten (random_full_consecutive, random_sigma_ksti) draws per cell,
        # with cycle-audit's choice of m; the digest pins every rng draw
        out = []
        for n, t, k in self.CELLS:
            rng = random.Random(n * 100 + t * 10 + k)
            mmax = max(0, min(k - 1, (n - t) // 2 - k))
            for _ in range(10):
                m = rng.randint(0, mmax)
                for gen in (random_full_consecutive, random_sigma_ksti):
                    out.append([(iv.length, iv.start) for iv in gen(rng, n, t, k, m).members])
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "c4929837adb2fafaba8f464eb12f2b4e0b6e2dcc6be4af7455771fc844348b8f")


class TestComplementClosure:
    def test_pure_layers(self):
        p = Params(n=10, t=2, k=2)
        G = layers_interval_family(10, 2, 2)
        assert check_complement_closure(G, p) == ()

    def test_random_instances(self):
        rng = random.Random(25)
        for _ in range(150):
            t, k = rng.choice([(2, 2), (2, 3), (4, 3)])
            m = rng.randint(0, k - 1)
            n = rng.choice([14, 16, 18])
            G = random_full_consecutive(rng, n, t, k, m)
            assert check_complement_closure(G, Params(n=n, t=t, k=k)) == ()

    def test_corrupted_family_detected(self, monkeypatch):
        # the broken family is no longer full consecutive: let it past the
        # precondition to reach the bug trap
        monkeypatch.setattr(cycle, "is_full_consecutive", lambda G, k: True)
        p = Params(n=10, t=2, k=2)
        G = layers_interval_family(10, 2, 2)
        # remove the bar complement of a bottom member
        victim = bar_complement(G.members[0], 10, 2)
        assert victim in G.members
        broken = IntervalFamily(G.n, [iv for iv in G.members if iv != victim])
        assert check_complement_closure(broken, p)

    def test_member_inside_bar_complement_detected(self, monkeypatch):
        # a length-3 member at start 6 sits inside the bar complements of
        # seven layer members; each failure names the shortest member inside,
        # nearest the start of the bar complement
        monkeypatch.setattr(cycle, "is_full_consecutive", lambda G, k: True)
        p = Params(n=10, t=2, k=2)
        G = layers_interval_family(10, 2, 2)
        G = IntervalFamily(G.n, G.members + (Interval(length=3, start=6),))
        failures = check_complement_closure(G, p)
        inside = "proper subinterval Interval(length=3, start=6) of bar complement of"
        assert failures == (
            "proper subinterval Interval(length=6, start=8) of bar complement of "
            "Interval(length=3, start=6) is a member",
            "bar complement Interval(length=9, start=8) of bottom member "
            "Interval(length=3, start=6) is missing",
            f"{inside} Interval(length=6, start=0) is a member",
            f"{inside} Interval(length=6, start=1) is a member",
            f"{inside} Interval(length=6, start=8) is a member",
            f"{inside} Interval(length=6, start=9) is a member",
            f"{inside} Interval(length=7, start=0) is a member",
            f"{inside} Interval(length=7, start=8) is a member",
            f"{inside} Interval(length=7, start=9) is a member",
        )

    def test_t1_one_sided_overlap_breaks_the_claim(self):
        # Frozen finding: with t = 1 the bar complement extends into its
        # interval at one end only, so a proper subinterval keeping that
        # end still meets the interval in t elements and may legitimately
        # be a member.  Explicit instance: n = 15, k = 2, bottoms 7 at
        # chain 0, 9 at chain 7, 8 elsewhere.
        n, t, k = 15, 1, 2
        p = Params(n=n, t=t, k=k)
        members = []
        for h in range(n):
            bottom = 7 if h == 0 else (9 if h == 7 else 8)
            members.extend(Interval(length=bottom + i, start=h) for i in range(k))
        G = IntervalFamily(n, members)
        assert is_full_consecutive(G, k)
        assert is_sigma_ks_ti(G, p)
        low = Interval(length=7, start=0)
        bc = bar_complement(low, n, t)
        assert bc == Interval(length=9, start=7)
        inside = Interval(length=8, start=8)
        assert inside in G.members
        assert overlap(n, inside, low) == 1  # meets in exactly t elements
        with pytest.raises(PreconditionError, match="t >= 2"):
            check_complement_closure(G, p)


class TestGProfile:
    def test_pure_layers(self):
        p = Params(n=8, t=2, k=3)
        prof = g_profile(layers_interval_family(8, 2, 3), p)
        assert prof.m == 0 and prof.values == (8, 8, 8)

    def test_full_consecutive_total(self):
        rng = random.Random(26)
        for _ in range(60):
            t, k = rng.choice([(2, 2), (2, 3)])
            m = rng.randint(0, k - 1)
            G = random_full_consecutive(rng, 14, t, k, m)
            prof = g_profile(G, Params(n=14, t=t, k=k))
            assert prof.total() == k * 14
            assert prof.m == m

    def test_matches_recount(self):
        rng = random.Random(27)
        G = random_full_consecutive(rng, 12, 2, 2, 1)
        prof = g_profile(G, Params(n=12, t=2, k=2))
        mid = 7
        for i in range(-prof.m, prof.k + prof.m):
            assert prof.value(i) == sum(1 for iv in G.members if iv.length == mid + i)


class TestInequalities:
    def test_pure_layers_vacuous(self):
        p = Params(n=8, t=2, k=2)
        assert check_instance(layers_interval_family(8, 2, 2), p)["inequalities"] == []

    def test_random_instances(self):
        rng = random.Random(28)
        for _ in range(200):
            t, k = rng.choice([(2, 2), (2, 3), (4, 3)])
            m = rng.randint(0, k - 1)
            n = rng.choice([14, 16, 20])
            G = random_full_consecutive(rng, n, t, k, m)
            records = check_instance(G, Params(n=n, t=t, k=k))["inequalities"]
            assert all(r["holds"] for r in records), records

    def test_fabricated_violation_detected(self, monkeypatch):
        # n = 14 is below the chain threshold of 22 at (t, k, m) = (4, 2, 1),
        # so ok hangs on the inequalities and the closure alone
        assert minimal_chain_n(4, 2, 1, 100) == 22
        G = random_full_consecutive(random.Random(3), 14, 4, 2, 1)
        fake = profile_vector(14, 4, 2, 1, (1, 14, 0, 1))
        monkeypatch.setattr(cycle, "g_profile", lambda G, params: fake)
        rec = check_instance(G, Params(14, 4, 2))
        assert rec["inequalities"][0] == {"name": "one", "j": 0, "lhs": 15, "rhs": 14,
                                          "holds": False}
        assert rec["complement_closure"] and not rec["above_chain_threshold"]
        assert not rec["ok"]

    def test_star_violation_fails_the_record(self, monkeypatch):
        # mass k*n = 28, so "four" at j = 1 is the star inequality the chain
        # needs; it fails, and the record says so instead of raising
        G = random_full_consecutive(random.Random(3), 14, 4, 2, 1)
        fake = profile_vector(14, 4, 2, 1, (3, 14, 11, 0))
        monkeypatch.setattr(cycle, "g_profile", lambda G, params: fake)
        rec = check_instance(G, Params(14, 4, 2))
        assert rec["inequalities"][-1] == {"name": "four", "j": 1, "lhs": 28, "rhs": 25,
                                           "holds": False}
        assert rec["coefficient_chain"] is None and not rec["ok"]
        # 3 C(14,8) + 14 C(14,9) + 11 C(14,10) against 14 (C(14,9) + C(14,10))
        assert rec["weight_bound"] == {"holds": False, "weight": 48_048, "bound": 42_042,
                                       "margin": -6_006}


class TestWeightBound:
    def test_pure_layers_equality(self):
        p = Params(n=8, t=2, k=2)
        wb = check_instance(layers_interval_family(8, 2, 2), p)["weight_bound"]
        assert wb["holds"] and wb["margin"] == 0

    def test_random_restrictions(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(4, 8)
            t = rng.randint(1, n - 1)
            if (n + t) % 2:
                t = t + 1 if t + 1 <= n - 1 else t - 1
            if (n + t) % 2:
                continue
            k = rng.randint(1, 3)
            fam = random_valid_family(rng, n, t, k)
            G = restrict_to_cycle(fam, CyclicPerm(tuple(range(1, n + 1))))
            lo, hi = Params(n=n, t=t, k=k).band(0)
            assert interval_weight(G) <= n * sum(math.comb(n, s) for s in range(lo, hi + 1))


class TestWeightBoundSweep:
    def test_empirical_threshold_scan(self):
        # scan upward for the smallest n at which every generated instance
        # satisfies the weight bound; from the analytic swap threshold on,
        # no violation may appear
        t, k, m = 4, 2, 1
        analytic = minimal_chain_n(t, k, m, 100)
        rng = random.Random(31)
        first_clean = None
        start = max(t + 2 * (m + k), t + 2 * m + 2)
        start += (start + t) % 2
        for n in range(start, 33, 2):
            p = Params(n=n, t=t, k=k)
            clean = True
            for _ in range(40):
                G = random_full_consecutive(rng, n, t, k, m)
                if not check_instance(G, p)["weight_bound"]["holds"]:
                    clean = False
                    assert n < analytic, (
                        f"weight bound violated at n={n} >= threshold {analytic}")
            if clean and first_clean is None:
                first_clean = n
            if not clean:
                first_clean = None
        assert first_clean is not None and first_clean <= analytic


class TestAveraging:
    def test_frozen_example(self):
        fam = Family.from_sets(4, itertools.combinations(range(1, 5), 2))
        chk = averaging_identity(fam)
        assert chk == AveragingCheck(holds=True, lhs=144, rhs=144)

    def test_empty(self):
        chk = averaging_identity(Family(4))
        assert chk.holds and chk.lhs == 0

    def test_random_exact(self):
        rng = random.Random(30)
        for n in (5, 6):
            for _ in range(10):
                fam = random_inner_family(rng, n, rng.uniform(0.1, 0.5))
                assert averaging_identity(fam).holds

    def test_rejects_large_n(self):
        with pytest.raises(PreconditionError):
            averaging_identity(Family(8))


CHECKS_WITH_PARAMS = [fill_full, g_profile, check_complement_closure, check_instance]


@pytest.mark.parametrize("check", CHECKS_WITH_PARAMS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("params,message", [
    (Params(n=14, t=2, k=2), "cycle of length 12 but params.n=14"),
    (Params(n=12, t=3, k=2), "need n \\+ t even"),
], ids=["another_n", "odd_parity"])
def test_checks_refuse_params_on_another_n_or_odd_parity(check, params, message):
    # a valid family for Params(12, 2, 2); weighed at n = 14 it used to pass
    # check_instance with the weight bound at n = 12 and the chain
    # threshold at n = 14
    G = random_full_consecutive(random.Random(35), 12, 2, 2, 1)
    assert check_instance(G, Params(n=12, t=2, k=2))["ok"]
    with pytest.raises(PreconditionError, match=message):
        check(G, params)


# (params, m, a family that fill_full widens to half-width m or None,
# message).  fill_full reads m off the family's shortest and longest
# members, so it never asks for m = -1 nor, within m <= k - 1, for a band
# bottom below 1.
BAND_REFUSALS = [
    pytest.param(Params(13, 2, 2), 0, IntervalFamily(13, [Interval(7, 0)]),
                 "the cycle checks need n \\+ t even", id="odd_parity"),
    pytest.param(Params(12, 2, 2), -1, None, "half-width -1 outside \\[0, k-1=1\\]",
                 id="m_below_0"),
    pytest.param(Params(12, 2, 2), 2, IntervalFamily(12, [Interval(5, 0)]),
                 "half-width 2 outside \\[0, k-1=1\\]", id="m_equals_k"),
    pytest.param(Params(12, 2, 5), 1, IntervalFamily(12, [Interval(6, 0)]),
                 "band \\[6, 12\\] does not fit inside \\[1, 11\\]", id="top_above_n_minus_1"),
    pytest.param(Params(4, 2, 5), 3, None, "band \\[0, 10\\] does not fit inside \\[1, 3\\]",
                 id="bottom_below_1"),
]


@pytest.mark.parametrize("params,m,family,message", BAND_REFUSALS)
def test_interval_band_refusals(params, m, family, message):
    # one gate, one message, for both generators and fill_full; the
    # generators refuse before their first draw
    with pytest.raises(PreconditionError, match=message):
        interval_band(params, m)
    for gen in (random_full_consecutive, random_sigma_ksti):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(PreconditionError, match=message):
            gen(rng, params.n, params.t, params.k, m)
        assert rng.getstate() == state
    if family is not None:
        with pytest.raises(PreconditionError, match=message):
            fill_full(family, params)


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.data())
def test_check_instance_ok_on_full_consecutive(t, m, data):
    # any cell whose band fits inside [t + 1, n - 1]; below the chain
    # threshold a weight-bound miss is a finding and does not clear ok
    k = data.draw(st.integers(m + 1, 3))
    n = t + 2 * (m + k) + 2 * data.draw(st.integers(0, 8))
    seed = data.draw(st.integers(0, 2**32 - 1))
    G = random_full_consecutive(random.Random(seed), n, t, k, m)
    assert check_instance(G, Params(n=n, t=t, k=k))["ok"]


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.data())
def test_chain_weighs_like_the_cycle_layer(t, m, data):
    # the coefficient layer's weighted sum and final bound are the cycle
    # layer's interval weight and n times the k middle binomials, each
    # computed on its own
    k = data.draw(st.integers(m + 1, 3))
    n = t + 2 * (m + k) + 2 * data.draw(st.integers(0, 8))
    seed = data.draw(st.integers(0, 2**32 - 1))
    G = random_full_consecutive(random.Random(seed), n, t, k, m)
    p = Params(n=n, t=t, k=k)
    rep, (lo, hi) = verify_chain(g_profile(G, p)), p.band(0)
    assert rep.weighted_g == interval_weight(G)
    assert rep.final_bound == n * sum(math.comb(n, s) for s in range(lo, hi + 1))


def heaviest_arc_families(n, lo, hi):
    """By brute force over every arc subset that pairwise meets in at least
    one position: {(least pairwise overlap, longest chain): the heaviest
    weight}, where an arc of length l weighs C(n, l).  Arcs are frozensets
    of positions; arcs join in order of length, so a new arc never lies
    inside a chosen one and its height is one more than the highest chosen
    arc inside it."""
    arcs = [frozenset((h + j) % n for j in range(ell))
            for ell in range(lo, hi + 1) for h in range(n)]
    best = {}

    def extend(start, chosen, least, tallest, weight):
        key = (least, tallest)
        best[key] = max(best.get(key, 0), weight)
        for j in range(start, len(arcs)):
            a = arcs[j]
            meets = [len(a & c) for c, _ in chosen]
            if 0 in meets:
                continue
            height = 1 + max([ht for c, ht in chosen if c < a], default=0)
            if height <= 3:
                extend(j + 1, chosen + [(a, height)], min([least, *meets]),
                       max(tallest, height), weight + math.comb(n, len(a)))
    extend(0, [], n, 0, 0)
    return best


ARC_RANGES = [(n, lo, hi) for n in range(3, 7) for lo in range(1, n) for hi in range(lo, n)
              if n * (hi - lo + 1) <= 18]


class TestArcSearch:
    @pytest.mark.parametrize("n, lo, hi", ARC_RANGES)
    def test_decides_like_brute_force(self, n, lo, hi):
        best = heaviest_arc_families(n, lo, hi)
        for t in range(1, n):
            for k in (1, 2, 3):
                W = max(w for (least, tallest), w in best.items() if least >= t and tallest <= k)
                assert cycle.arc_weight_exceeds(n, t, k, lo, hi, W - 1)[0] is True, (t, k, W)
                assert cycle.arc_weight_exceeds(n, t, k, lo, hi, W)[0] is False, (t, k, W)

    def test_counts_nodes_into_the_budget(self):
        # with k = 3, (8,1,3)'s first branch needs 399 nodes to decide: with
        # 30 nodes already spent and a cap of 50 it stops at node 51
        assert cycle.arc_weight_exceeds(8, 1, 3, 3, 8, 8 * 121 - 1, 30, 50) == (None, 51)
        assert cycle.arc_weight_exceeds(8, 1, 3, 3, 8, 8 * 121 - 1, 30) == (False, 30 + 399)
        # the clock is read every 4,096 nodes: a deadline already past does
        # not stop a search that decides sooner
        assert cycle.arc_weight_exceeds(8, 1, 3, 3, 8, 0, 0, 10, -math.inf) == (True, 2)

    def test_full_set_may_join(self):
        # the four 3-sets of [4] and [4] itself: 5 members, 2-Sperner and
        # intersecting, while the 3-arcs weigh 16 = 4 * 4
        assert cycle.cycle_bound_at_most(4, 1, 2, 3, 3, 4) == (True, 1)
        assert cycle.cycle_bound_at_most(4, 1, 2, 3, 4, 4)[0] is False
        assert cycle.cycle_bound_at_most(4, 1, 2, 3, 4, 5)[0] is True
        # with k = 1, [n] is a member only alone
        assert cycle.cycle_bound_at_most(5, 1, 1, 5, 5, 0)[0] is False
        assert cycle.cycle_bound_at_most(5, 1, 1, 5, 5, 1)[0] is True

    def test_decisions_pinned(self):
        # (answer, nodes) on every band(m) range of the cells with
        # 3 <= n <= 12 and t, k <= 3, at the size of the cell's largest
        # construction: 180 decisions, 163 of them True, in 17,748 nodes
        rows = []
        for n, t, k in itertools.product(range(3, 13), range(1, 4), range(1, 4)):
            params = Params(n, t, k)
            size = max(construction_size(params, which) for which in CONSTRUCTIONS
                       if (which == "layers") == params.even_case)
            for m in range(k):
                lo, hi = params.band(m)
                rows.append([n, t, k, lo, hi, size,
                             *cycle.cycle_bound_at_most(n, t, k, lo, hi, size)])
        assert (len(rows), sum(r[-2] for r in rows), sum(r[-1] for r in rows)) == (180, 163, 17_748)
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "0601c6d5c5b54a7b2734a92ae4552a30982b06515d2b77ba60138eb67f8f3ce4")

    def test_window_decisions_pinned(self):
        # (answer, nodes) on every window [lo, hi] with 3 <= n <= 9 and
        # t, k <= 2 at floor 50n: windows below the middle, which no band
        # reaches, are where the arcs below a chosen arc move node counts
        rows = []
        for n, t, k in itertools.product(range(3, 10), range(1, 3), range(1, 3)):
            for lo, hi in itertools.combinations_with_replacement(range(1, n), 2):
                rows.append([n, t, k, lo, hi, *cycle.arc_weight_exceeds(n, t, k, lo, hi, 50 * n)])
        assert (len(rows), sum(r[-2] for r in rows), sum(r[-1] for r in rows)) == (476, 174, 2_227)
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "a441ab72e0ef2122d0762e2b06d926336b8041d4a6cca41388f8173c101a0095")
