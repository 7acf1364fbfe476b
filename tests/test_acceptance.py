"""Acceptance suite: one test per criterion, exact tolerances, one PASS or
FAIL line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is seeded; reruns are bit-identical.
"""

import random

import pytest

from spernerlab.coefficients import (
    binom_swap,
    minimal_n0,
    rearrangement_dominance,
    to_gdoubleprime,
    to_gprime,
    verify_chain,
)
from spernerlab.compression import normalize
from spernerlab.cycle import (
    averaging_identity,
    check_instance,
    fill_full,
    g_profile,
    interval_weight,
    make_consecutive,
)
from spernerlab.families import (
    Params,
    binomial,
    is_k_sperner,
    is_t_intersecting,
)
from spernerlab.generators import (
    random_dominance_triple,
    random_full_consecutive,
    random_inner_family,
    random_sigma_ksti,
    random_valid_family,
)
from spernerlab.search import (
    Budget,
    construct,
    construction_size,
    max_family_size,
    size_B_closed_form,
)


def report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


# Cycle-universal cells (t, k, m, n): n+t even, m < k, n <= 40, t >= 2 (the
# bar-complement closure claim needs both end overlaps), and n at or above
# the swap-chain threshold so criterion 7 runs on the same harvest.
CELLS = [
    (2, 1, 0, 12),
    (2, 2, 1, 14),
    (2, 3, 1, 16),
    (2, 3, 2, 18),
    (3, 3, 2, 21),
    (4, 2, 1, 24),
    (4, 3, 2, 32),
]
TRIALS_PER_CELL = 1000

_harvested_profiles = []


def test_criterion_1_even_case_oracle():
    """Exact search equals the k-middle-layer count at every even-parity
    (n, t, k) with n <= 7, t <= n-1, k <= 3."""
    checked = 0
    for n in range(2, 8):
        for t in range(1, n):
            if (n + t) % 2:
                continue
            for k in range(1, 4):
                p = Params(n=n, t=t, k=k)
                expected = construction_size(p, "layers")
                res = max_family_size(n, t, k, use_compression=True)
                assert res.proven_optimal, (n, t, k)
                assert res.best_size == expected, (n, t, k, res.best_size, expected)
                assert len(res.witness) == res.best_size
                assert is_t_intersecting(res.witness, t)
                assert is_k_sperner(res.witness, k)
                checked += 1
    spot = {(4, 2, 1): 4, (6, 2, 1): 15, (6, 2, 2): 21}
    for (n, t, k), v in spot.items():
        assert max_family_size(n, t, k, use_compression=True).best_size == v
    report(1, checked == 27, f"{checked} even-parity instances match the k-layer formula exactly")


def test_criterion_2_odd_small_case():
    """(5,2,2) evaluates to 9 = |A(2,2)| > |B(2,2)| = 8, and the stretch
    instance (7,2,2) is either solved or labeled budget-exceeded."""
    res = max_family_size(5, 2, 2, use_compression=True)
    pA, a_size = Params(n=5, t=2, k=2), construction_size(Params(n=5, t=2, k=2), "A")
    b_size = construction_size(pA, "B")
    ok = (res.proven_optimal and res.best_size == 9 == a_size and b_size == 8)
    # cross-check against the fully unrestricted oracle
    unres = max_family_size(5, 2, 2)
    ok = ok and unres.proven_optimal and unres.best_size == 9
    # stretch target: window limited, one-hour-scale budget trimmed to CI
    # scale; a budget-exceeded outcome must be labeled as such
    stretch = max_family_size(7, 2, 2, use_compression=True,
                              budget=Budget(nodes=2_000_000, seconds=300))
    a7 = construction_size(Params(n=7, t=2, k=2), "A")
    if stretch.proven_optimal:
        stretch_ok = stretch.best_size >= a7
        stretch_note = f"stretch (7,2,2) solved: {stretch.best_size}"
    else:
        stretch_ok = any("budget" in note for note in stretch.notes)
        stretch_note = "stretch (7,2,2) budget-exceeded and labeled"
    assert is_t_intersecting(stretch.witness, 2) and is_k_sperner(stretch.witness, 2)
    report(2, ok and stretch_ok,
           f"(5,2,2) -> 9 = |A| > |B| = 8 exactly; {stretch_note}")


def test_criterion_3_b_closed_form_and_crossover():
    """|B| equals its closed form for all odd-parity n <= 100, k <= 5; |B|
    exceeds |A| from a computed threshold up to n = 1000."""
    checked = 0
    for n in range(3, 101):
        for t in range(1, n):
            if (n + t) % 2 == 0:
                continue
            for k in range(1, 6):
                p = Params(n=n, t=t, k=k)
                assert construction_size(p, "B") == size_B_closed_form(p), (n, t, k)
                checked += 1
    # explicit families agree with the counts at enumeration scale
    for (n, t, k) in [(5, 2, 2), (7, 2, 2), (9, 2, 3), (8, 1, 2), (10, 3, 4)]:
        p = Params(n=n, t=t, k=k)
        assert len(construct(p, "B")) == construction_size(p, "B")
        assert len(construct(p, "A")) == construction_size(p, "A")
    crossovers = {}
    for (t, k) in [(2, 2), (1, 2), (3, 3)]:
        start = t + 1 + ((t + 1) + t) % 2  # smallest n > t with n+t odd
        ns = [n for n in range(start, 1001) if (n + t) % 2 == 1]
        wins = [construction_size(Params(n=n, t=t, k=k), "B")
                > construction_size(Params(n=n, t=t, k=k), "A") for n in ns]
        assert wins[-1], f"B never overtakes A for (t,k)=({t},{k})"
        last_loss = max((i for i, w in enumerate(wins) if not w), default=-1)
        threshold = ns[last_loss + 1]
        assert all(wins[last_loss + 1:])
        crossovers[(t, k)] = threshold
    report(3, checked > 0,
           f"{checked} closed-form identities exact; crossover thresholds {crossovers}")


def test_criterion_4_averaging_identity():
    """Sum over all cyclic orders of the restriction weight equals
    n! * |family|, exactly, for 100 seeded families per n in 4..6."""
    rng = random.Random(424242)
    checked = 0
    for n in (4, 5, 6):
        for _ in range(100):
            fam = random_inner_family(rng, n, rng.uniform(0.05, 0.6))
            chk = averaging_identity(fam)
            assert chk.holds, (n, fam.to_sets(), chk)
            checked += 1
    report(4, checked == 300, f"{checked} families satisfy the identity exactly")


def test_criterion_5_cycle_universals():
    """On >= 1000 seeded full consecutive instances per cell, each cell at
    or above the swap-chain threshold: the four counting inequalities, the
    bar-complement closure, the weight bound, the rebalancing chain, and
    weight non-decrease under both interval transforms, with zero
    violations."""
    rng = random.Random(51)
    _harvested_profiles.clear()
    violations = 0
    total = 0
    for (t, k, m, n) in CELLS:
        p = Params(n=n, t=t, k=k)
        for _ in range(TRIALS_PER_CELL):
            G = random_full_consecutive(rng, n, t, k, m)
            chk = check_instance(G, p)
            if not (chk["ok"] and chk["above_chain_threshold"]
                    and chk["complement_closure"] is True):
                violations += 1
            _harvested_profiles.append(g_profile(G, p))
            loose = random_sigma_ksti(rng, n, t, k, m)
            cons = make_consecutive(loose, p)
            weights = [interval_weight(F) for F in (loose, cons, fill_full(cons, p))]
            if weights != sorted(weights):
                violations += 1
            total += 1
    report(5, violations == 0 and total == len(CELLS) * TRIALS_PER_CELL,
           f"{total} instances across {len(CELLS)} cells, zero violations")


def test_criterion_6_compression_invariants():
    """On >= 1000 seeded valid families per n <= 10: both transforms
    preserve the two properties, never shrink, and normalize lands in the
    band with m <= k-1."""
    rng = random.Random(66)
    violations = 0
    total = 0
    for n in range(4, 11):
        for _ in range(1000):
            t = rng.randint(1, n - 1)
            k = rng.randint(1, 3)
            p = Params(n=n, t=t, k=k)
            fam = random_valid_family(rng, n, t, k)
            out, rep = normalize(fam, p)
            ok = (len(out) >= len(fam)
                  and is_t_intersecting(out, t)
                  and is_k_sperner(out, k)
                  and 0 <= rep.m <= k - 1)
            if len(out):
                ok = ok and out.min_size() == p.half_up - rep.m
                ok = ok and out.max_size() <= p.half_up + k - 1 + rep.m
            if not ok:
                violations += 1
            total += 1
    report(6, violations == 0 and total == 7000,
           f"{total} families normalized, zero violations")


def test_criterion_7_coefficient_chain():
    """On every profile harvested in criterion 5: mass conservation,
    monotone weighted sums along both rebalancing stages, prefix bounds,
    and the end-to-end weight bound, with zero violations."""
    if not _harvested_profiles:
        pytest.skip("criterion 5 must run first to provide the harvest")
    violations = 0
    for prof in _harvested_profiles:
        rep = verify_chain(prof)
        gp = to_gprime(prof)
        masses = (prof.total(), gp.total(), to_gdoubleprime(gp).total())
        if not (rep.ok and masses == (prof.k * prof.n,) * 3):
            violations += 1
    report(7, violations == 0,
           f"{len(_harvested_profiles)} harvested profiles pass the full chain")


def test_criterion_8_binomial_sweeps_and_dominance():
    """minimal_n0(a, b, 10^4) exists with a stable suffix for all
    0 <= a < b <= 6; rearrangement dominance holds on 10^4 seeded triples."""
    for a in range(0, 7):
        for b in range(a + 1, 7):
            n0 = minimal_n0(a, b, 10_000)
            assert n0 is not None, (a, b)
            assert binom_swap(n0, a, b)
            if n0 > 1:
                assert not binom_swap(n0 - 1, a, b), (a, b, n0)
    rng = random.Random(88)
    for _ in range(10_000):
        a, b, d = random_dominance_triple(rng, rng.randint(1, 10))
        chk = rearrangement_dominance(a, b, d)
        assert chk.holds
    report(8, True, "21 suffix-stable swap thresholds; 10000 dominance triples hold")


def test_criterion_9_classical_bound_oracles():
    """Exhaustive searches at n <= 6 never exceed the antichain, k-layer,
    or t-intersecting-antichain bounds, and attain them exactly."""
    for n in range(1, 7):
        res = max_family_size(n, 0, 1)
        assert res.proven_optimal and res.best_size == binomial(n, n // 2), ("sperner", n)
    for n in range(1, 7):
        for k in (2, 3):
            res = max_family_size(n, 0, k)
            expected = sum(sorted((binomial(n, i) for i in range(n + 1)), reverse=True)[:k])
            assert res.proven_optimal and res.best_size == expected, ("erdos", n, k)
    for n in range(2, 7):
        for t in range(1, n + 1):
            res = max_family_size(n, t, 1)
            bound = binomial(n, (n + t + 1) // 2)
            assert res.proven_optimal, ("milner", n, t)
            assert res.best_size <= bound, ("milner", n, t)
            assert res.best_size == bound, ("milner tightness", n, t)
    report(9, True, "Sperner, k-layer and t-intersecting-antichain bounds exact at n <= 6")
