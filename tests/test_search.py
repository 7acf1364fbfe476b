import itertools
import random
import sys

import pytest

from spernerlab import search
from spernerlab.cli import main
from spernerlab.families import (
    Family,
    InvariantViolation,
    Params,
    PreconditionError,
    binomial,
    is_k_sperner,
    is_t_intersecting,
    shade,
)
from spernerlab.search import (
    Budget,
    bounds_table,
    construct_A,
    construct_B,
    construct_layers,
    g_function,
    max_family_size,
    scd_anchor,
    size_A,
    size_B,
    size_B_closed_form,
    size_layers,
)


def exhaustive_max(n, t, k):
    """Ground-truth oracle: every subfamily of 2^[n], n <= 4."""
    masks = list(range(1 << n))
    best = 0
    for r in range(len(masks), 0, -1):
        if r <= best:
            break
        for sub in itertools.combinations(masks, r):
            fam = Family(n, sub)
            if is_t_intersecting(fam, t) and is_k_sperner(fam, k):
                best = max(best, r)
                break
    return best


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
        for t in (1, 2):
            for k in (1, 2):
                expected = exhaustive_max(4, t, k)
                got = max_family_size(4, t, k).best_size
                assert got == expected, (t, k, got, expected)

    def test_banded_matches_unrestricted(self):
        for (n, t, k) in [(4, 2, 1), (5, 2, 2), (5, 1, 2), (5, 3, 2), (6, 2, 2),
                          (6, 2, 3), (6, 4, 2), (5, 1, 3)]:
            r1 = max_family_size(n, t, k)
            r2 = max_family_size(n, t, k, use_compression=True)
            assert r1.proven_optimal and r2.proven_optimal
            assert r1.best_size == r2.best_size

    def test_frozen_values(self):
        assert max_family_size(4, 2, 1, use_compression=True).best_size == 4
        assert max_family_size(6, 2, 1, use_compression=True).best_size == 15
        assert max_family_size(5, 2, 2, use_compression=True).best_size == 9

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
                assert res.best_size >= len(construct_layers(p))
            else:
                assert res.best_size >= len(construct_A(p))
                assert res.best_size >= len(construct_B(p))

    def test_determinism(self):
        a = max_family_size(6, 2, 2, use_compression=True)
        b = max_family_size(6, 2, 2, use_compression=True)
        assert (a.best_size, a.nodes, a.witness) == (b.best_size, b.nodes, b.witness)

    def test_budget_exhaustion_labeled(self):
        res = max_family_size(7, 1, 3, use_compression=True, budget=Budget(nodes=50, seconds=60))
        assert not res.proven_optimal
        assert any("budget" in note for note in res.notes)

    def test_witness_self_check(self, monkeypatch, tmp_path):
        # {1,2} and {3,4} share nothing: not 1-intersecting
        def bad_engine(n, t, k, branches, budget, seeds):
            return 2, (0b0011, 0b1100), True, 1
        monkeypatch.setattr(search, "_max_family_engine", bad_engine)
        with pytest.raises(InvariantViolation):
            max_family_size(4, 1, 1)
        out = tmp_path / "r.json"
        rc = main(["search", "--n", "4", "--t", "1", "--k", "1", "--no-cache",
                   "--out", str(out)])
        assert rc == 1 and not out.exists()

    def test_window_restriction_flagged(self):
        res = max_family_size(5, 1, 1, layer_window=(3, 3))
        assert res.best_size == binomial(5, 3)
        assert any("window" in note for note in res.notes)

    def test_window_bounds_the_seeds(self):
        # the constructions hold sets of sizes 2 and 3 only: a window that
        # excludes them must not let them through as the incumbent
        res = max_family_size(4, 1, 1, layer_window=(4, 4))
        assert (res.best_size, res.proven_optimal) == (1, True)
        res = max_family_size(4, 1, 1, layer_window=(3, 3))
        assert (res.best_size, res.proven_optimal) == (4, True)
        assert all(m.bit_count() == 3 for m in res.witness)

    def test_witness_outside_window_is_caught(self, monkeypatch):
        def engine(n, t, k, branches, budget, seeds):
            return 1, (0b0011,), True, 1
        monkeypatch.setattr(search, "_max_family_engine", engine)
        with pytest.raises(InvariantViolation):
            max_family_size(4, 1, 1, layer_window=(3, 3))

    def test_matches_intersecting_k_sperner_theorem(self):
        # the t=1 maxima have known closed forms for both parities of n
        for (n, k) in [(5, 2), (6, 2), (6, 3), (5, 3)]:
            expected = bounds_table(Params(n=n, t=1, k=k)).entries[
                "frankl_intersecting"].value
            banded = max_family_size(n, 1, k, use_compression=True)
            assert banded.proven_optimal and banded.best_size == expected, (n, k)
            if n <= 5:
                unres = max_family_size(n, 1, k)
                assert unres.best_size == expected


class TestEngineNodeCounts:
    """Pinned (size, proven, nodes): the engine visits the same nodes in the
    same order whatever its internals, so these repeat exactly."""

    @pytest.mark.parametrize("cell, nodes, expected", [
        ((6, 1, 2), 1_000_000, (26, True, 49258)),
        ((6, 1, 2), 100, (26, False, 101)),
        ((8, 2, 3), 5000, (92, True, 3855)),
        ((9, 3, 3), 5000, (129, True, 1455)),
        ((9, 1, 2), 5000, (210, False, 5001)),
    ])
    def test_search(self, cell, nodes, expected):
        res = max_family_size(*cell, use_compression=True,
                              budget=Budget(nodes=nodes, seconds=1e9))
        assert (res.best_size, res.proven_optimal, res.nodes) == expected

    @pytest.mark.parametrize("cell, kwargs, expected", [
        ((6, 1, 2), {}, (26, True, 49372)),
        ((6, 1, 2), {"layer_window": (2, 5)}, (26, True, 49370)),
        ((6, 0, 2), {}, (35, True, 7)),
    ])
    def test_search_plans(self, cell, kwargs, expected):
        # the unrestricted, windowed and t = 0 branch plans
        res = max_family_size(*cell, **kwargs)
        assert (res.best_size, res.proven_optimal, res.nodes) == expected

    @pytest.mark.parametrize("cell, expected", [
        ((8, 3, 2), (13, True, 3525)),
        ((9, 4, 2), (19, False, 5001)),
    ])
    def test_g_function(self, cell, expected):
        res = g_function(Params(*cell), Budget(nodes=5000, seconds=1e9))
        assert (res.value, res.proven_optimal, res.nodes) == expected

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


class TestConstructions:
    def test_layers_frozen(self):
        assert len(construct_layers(Params(n=6, t=2, k=1))) == 15
        assert len(construct_layers(Params(n=6, t=2, k=2))) == 21

    def test_layers_predicates(self):
        for (n, t, k) in [(6, 2, 2), (8, 2, 3), (7, 1, 2), (9, 3, 3)]:
            p = Params(n=n, t=t, k=k)
            fam = construct_layers(p)
            assert len(fam) == size_layers(p)
            assert is_t_intersecting(fam, t)
            assert is_k_sperner(fam, k)

    def test_A_frozen(self):
        fam = construct_A(Params(n=5, t=2, k=2))
        assert len(fam) == 9 == size_A(Params(n=5, t=2, k=2))

    def test_B_frozen(self):
        p = Params(n=5, t=2, k=2)
        fam = construct_B(p)
        assert len(fam) == 8 == size_B(p)
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
            for fam in (construct_A(p), construct_B(p)):
                assert is_t_intersecting(fam, t)
                assert is_k_sperner(fam, k)
            assert len(construct_A(p)) == size_A(p)
            assert len(construct_B(p)) == size_B(p)

    def test_parity_enforced(self):
        with pytest.raises(PreconditionError):
            construct_layers(Params(n=5, t=2, k=1))
        with pytest.raises(PreconditionError):
            construct_A(Params(n=6, t=2, k=1))

    def test_closed_form_matches_piecewise(self):
        for n in range(3, 101):
            for t in range(1, min(n, 8)):
                if (n + t) % 2 == 0:
                    continue
                for k in range(1, 6):
                    p = Params(n=n, t=t, k=k)
                    assert size_B(p) == size_B_closed_form(p)


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

    def test_witness_self_check(self, monkeypatch):
        # an empty shade makes the recomputed objective disagree with the
        # incremental one
        monkeypatch.setattr(search, "shade", lambda fam, level: Family(fam.n))
        with pytest.raises(InvariantViolation):
            g_function(Params(n=5, t=2, k=2))


class TestBoundsTable:
    def test_sperner_n4(self):
        rep = bounds_table(Params(n=4, t=1, k=1))
        assert rep.entries["sperner"].value == 6

    def test_milner_n5_t1(self):
        rep = bounds_table(Params(n=5, t=1, k=1))
        assert rep.entries["milner"].value == binomial(5, 3) == 10

    def test_frankl_even_n6_k2(self):
        rep = bounds_table(Params(n=6, t=1, k=2))
        assert rep.entries["frankl_intersecting"].value == (
            binomial(5, 2) + binomial(6, 4) + binomial(5, 5))

    def test_frankl_odd_n7_k2(self):
        rep = bounds_table(Params(n=7, t=1, k=2))
        assert rep.entries["frankl_intersecting"].value == binomial(7, 4) + binomial(7, 5)

    def test_parity_flags(self):
        rep = bounds_table(Params(n=6, t=2, k=2))
        assert rep.entries["even_case_k_layers"].applicable
        assert not rep.entries["odd_B_size"].applicable
        rep = bounds_table(Params(n=5, t=2, k=2))
        assert not rep.entries["even_case_k_layers"].applicable
        assert rep.entries["odd_A_size"].value == 9
        assert rep.entries["odd_B_size"].value == 8

    def test_erdos_is_k_middle_layers(self):
        rep = bounds_table(Params(n=6, t=1, k=2))
        assert rep.entries["erdos_k_layers"].value == binomial(6, 3) + binomial(6, 2)
