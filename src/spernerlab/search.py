"""Exact maximum sizes of t-intersecting k-Sperner families by branch and
bound, plus the named constructions and closed-form bound table.

The oracle branches first on the size s of a minimum-size member, which can
be relabeled to {1..s}, then runs a depth-first include/exclude search over
the remaining candidate masks with three prunes:

* pairwise intersection conflicts filter the pool on every inclusion;
* an incremental longest-chain tracker rejects additions that would close a
  chain of k+1 nested members;
* upper bounds: remaining-count, a symmetric-chain-decomposition cap
  (at most k per chain, minus what the chosen sets already use), and a
  complement-pair cap (a set and its complement never share a family when
  t >= 1).

With `use_compression` the candidate sizes are confined to the band the
compression transforms land in; the justification is recorded in the
result notes per parity.  The unrestricted mode stays available as ground
truth.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass

from .families import (
    Family,
    InvariantViolation,
    Params,
    PreconditionError,
    binomial,
    is_t_intersecting,
    longest_chain,
    shade,
)

DEFAULT_NODE_BUDGET = 20_000_000
DEFAULT_TIME_BUDGET = 600.0


def scd_anchor(mask: int, n: int) -> int:
    """Canonical bottom element of the symmetric chain through mask
    (bracket matching: members close, non-members open; unmatched members
    are the part that varies along the chain)."""
    depth = 0
    anchor = mask
    for i in range(n):
        if mask >> i & 1:
            if depth:
                depth -= 1
            else:
                anchor &= ~(1 << i)
        else:
            depth += 1
    return anchor


@dataclass(frozen=True, slots=True)
class Budget:
    nodes: int = DEFAULT_NODE_BUDGET
    seconds: float = DEFAULT_TIME_BUDGET


@dataclass(frozen=True, slots=True)
class SearchResult:
    best_size: int
    witness: Family
    proven_optimal: bool
    nodes: int
    elapsed: float
    notes: tuple[str, ...]


class _BudgetExceeded(Exception):
    pass


class _Engine:
    """Branch-and-bound over one (n, t, k); shared incumbent across the
    per-minimum-size root branches."""

    def __init__(self, n: int, t: int, k: int, budget: Budget):
        if t < 0 or k < 1 or n < 1:
            raise PreconditionError("engine needs n >= 1, t >= 0, k >= 1")
        self.n, self.t, self.k = n, t, k
        self.best = 0
        self.witness: tuple[int, ...] = ()
        self.nodes = 0
        self.node_cap = budget.nodes
        self.deadline = time.monotonic() + budget.seconds

    def seed(self, masks):
        masks = tuple(masks)
        if len(masks) > self.best:
            self.best = len(masks)
            self.witness = masks

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise _BudgetExceeded("node budget exhausted")
        if not self.nodes % 4096 and time.monotonic() > self.deadline:
            raise _BudgetExceeded("time budget exhausted")

    def run_branch(self, s: int, hi: int):
        """Prove the branch where the minimum-size member is exactly
        {1..s} and every member size lies in [s, hi]."""
        n, t, k = self.n, self.t, self.k
        chosen0 = (1 << s) - 1
        masks = [m for size in range(s, hi + 1) for m in _layer_masks(n, size)
                 if m != chosen0 and (not t or (m & chosen0).bit_count() >= t)]
        masks.sort(key=lambda m: (-math.comb(n, m.bit_count()), m.bit_count(), m))
        # initial chain heights relative to the pinned minimum member
        keep, dn0 = [], []
        for m in masks:
            d = 2 if (m & chosen0) == chosen0 else 1
            if d <= k:
                keep.append(m)
                dn0.append(d)
        masks = keep
        C = len(masks)
        index = {m: i for i, m in enumerate(masks)}
        full = (1 << n) - 1
        partner = [index.get(full ^ m, -1) for m in masks]
        tconf = [0] * C
        sup = [0] * C
        sub = [0] * C
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
        anchors = {}
        cid = []
        for m in masks:
            a = scd_anchor(m, n)
            cid.append(anchors.setdefault(a, len(anchors)))
        nchains = len(anchors)
        used0 = [0] * nchains
        a0 = scd_anchor(chosen0, n)
        if a0 in anchors:
            used0[anchors[a0]] = 1
        dn = dn0[:]
        up = [1] * C
        chosen = [chosen0]
        self.seed(chosen)
        self._masks = masks
        # include/exclude chains can reach the candidate count
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * C + 1000))
        pool0 = (1 << C) - 1
        self._dfs(pool0, 1, chosen, used0, dn, up, tconf, sup, sub, partner, cid)

    def _dfs(self, pool, cc, chosen, used, dn, up, tconf, sup, sub, partner, cid):
        self._tick()
        k = self.k
        if cc + pool.bit_count() <= self.best:
            return
        idxs = []
        p = pool
        while p:
            lsb = p & -p
            idxs.append(lsb.bit_length() - 1)
            p ^= lsb
        cnt: dict[int, int] = {}
        for i in idxs:
            c = cid[i]
            cnt[c] = cnt.get(c, 0) + 1
        b1 = cc
        for c, ct in cnt.items():
            room = k - used[c]
            if room > 0:
                b1 += room if room < ct else ct
        if b1 <= self.best:
            return
        if self.t:
            pairs = 0
            for i in idxs:
                j = partner[i]
                if j > i and pool >> j & 1:
                    pairs += 1
            if cc + len(idxs) - pairs <= self.best:
                return
        # branch on the most conflicted candidate
        bi = idxs[0]
        if self.t:
            bconf = -1
            for i in idxs:
                cdeg = (pool & tconf[i]).bit_count()
                if cdeg > bconf:
                    bconf = cdeg
                    bi = i
        # include
        i = bi
        newpool = pool & ~tconf[i] & ~(1 << i)
        undo = []
        aff = newpool & (sup[i] | sub[i])
        a = aff
        while a:
            lsb = a & -a
            j = lsb.bit_length() - 1
            a ^= lsb
            od, ou = dn[j], up[j]
            nd, nu = od, ou
            if sup[i] >> j & 1 and dn[i] + 1 > nd:
                nd = dn[i] + 1
            if sub[i] >> j & 1 and up[i] + 1 > nu:
                nu = up[i] + 1
            if nd != od or nu != ou:
                undo.append((j, od, ou))
                dn[j], up[j] = nd, nu
            if nd + nu - 1 > k:
                newpool &= ~(1 << j)
        chosen.append(self._masks[i])
        used[cid[i]] += 1
        if cc + 1 > self.best:
            self.best = cc + 1
            self.witness = tuple(chosen)
        self._dfs(newpool, cc + 1, chosen, used, dn, up, tconf, sup, sub, partner, cid)
        used[cid[i]] -= 1
        chosen.pop()
        for j, od, ou in undo:
            dn[j], up[j] = od, ou
        # exclude
        self._dfs(pool & ~(1 << i), cc, chosen, used, dn, up, tconf, sup, sub, partner, cid)


def _max_family_engine(n: int, t: int, k: int, s_range, hi_for_s, budget: Budget,
                       seeds=()) -> tuple[int, tuple[int, ...], bool, int, float]:
    eng = _Engine(n, t, k, budget)
    for fam_masks in seeds:
        eng.seed(fam_masks)
    t0 = time.monotonic()
    proven = True
    try:
        for s in s_range:
            hi = hi_for_s(s)
            if hi < s:
                continue
            eng.run_branch(s, hi)
    except _BudgetExceeded:
        proven = False
    return eng.best, eng.witness, proven, eng.nodes, time.monotonic() - t0


def construct_layers(params: Params) -> Family:
    """Union of the k layers starting at (n+t)/2: the even-parity record
    holder."""
    if not params.even_case:
        raise PreconditionError("layer construction needs n + t even")
    n, k = params.n, params.k
    mid = (n + params.t) // 2
    return Family(n, (m for size in range(mid, min(mid + k, n + 1))
                      for m in _layer_masks(n, size)))


def size_layers(params: Params) -> int:
    if not params.even_case:
        raise PreconditionError("layer construction needs n + t even")
    mid = (params.n + params.t) // 2
    return sum(binomial(params.n, mid + i) for i in range(params.k))


def _layer_masks(n, size, required=0, forbidden=0):
    """The size-subsets of [n] that contain `required` and avoid
    `forbidden`, as masks in combination order."""
    req_bits = [i for i in range(n) if required >> i & 1]
    free = [i for i in range(n) if not (required >> i & 1) and not (forbidden >> i & 1)]
    base = 0
    for b in req_bits:
        base |= 1 << b
    want = size - len(req_bits)
    if want < 0 or want > len(free):
        return
    for comb in itertools.combinations(free, want):
        m = base
        for b in comb:
            m |= 1 << b
        yield m


def construct_A(params: Params) -> Family:
    """Odd-parity candidate A: the (n+t-1)/2 layer restricted to sets
    avoiding n, topped by the next k-1 full layers."""
    if params.even_case:
        raise PreconditionError("construction A needs n + t odd")
    n, t, k = params.n, params.t, params.k
    s = (n + t - 1) // 2
    masks = list(_layer_masks(n, s, forbidden=1 << (n - 1)))
    for i in range(1, k):
        if s + i <= n:
            masks.extend(_layer_masks(n, s + i))
    return Family(n, masks)


def size_A(params: Params) -> int:
    if params.even_case:
        raise PreconditionError("construction A needs n + t odd")
    n, t, k = params.n, params.t, params.k
    s = (n + t - 1) // 2
    return binomial(n - 1, s) + sum(binomial(n, s + i) for i in range(1, k))


def construct_B(params: Params) -> Family:
    """Odd-parity candidate B: bottom-layer sets containing {1..t}, k-1
    full middle layers, and the (s+k)-layer minus the sets containing
    {1..t}."""
    if params.even_case:
        raise PreconditionError("construction B needs n + t odd")
    n, t, k = params.n, params.t, params.k
    s = (n + t - 1) // 2
    prefix = (1 << t) - 1
    masks = list(_layer_masks(n, s, required=prefix))
    for i in range(1, k):
        if s + i <= n:
            masks.extend(_layer_masks(n, s + i))
    if s + k <= n:
        with_prefix = set(_layer_masks(n, s + k, required=prefix))
        for m in _layer_masks(n, s + k):
            if m not in with_prefix:
                masks.append(m)
    return Family(n, masks)


def size_B(params: Params) -> int:
    """Piecewise count of construction B (independent of the closed form):
    core + middle layers + top layer minus its prefix-containing part."""
    if params.even_case:
        raise PreconditionError("construction B needs n + t odd")
    n, t, k = params.n, params.t, params.k
    s = (n + t - 1) // 2
    core = binomial(n - t, s - t)
    middle = sum(binomial(n, s + i) for i in range(1, k))
    top = binomial(n, s + k) - binomial(n - t, s + k - t)
    return core + middle + top


def size_B_closed_form(params: Params) -> int:
    """Closed-form size of construction B (conjectured extremal for large n)."""
    if params.even_case:
        raise PreconditionError("closed form needs n + t odd")
    n, t, k = params.n, params.t, params.k
    half = (n - t - 1) // 2
    return (binomial(n - t, half)
            + sum(binomial(n, (n + t - 1) // 2 + i) for i in range(1, k + 1))
            - binomial(n - t, half + k))


def _construction_seeds(n, t, k):
    """Masks of every applicable construction, as incumbent seeds."""
    seeds = []
    if t >= 1:
        try:
            p = Params(n=n, t=t, k=k)
        except PreconditionError:
            return seeds
        if p.even_case:
            seeds.append(tuple(construct_layers(p).members))
        else:
            seeds.append(tuple(construct_A(p).members))
            seeds.append(tuple(construct_B(p).members))
    else:
        # no intersection constraint: the k largest layers
        sizes = sorted(range(n + 1), key=lambda i: (-math.comb(n, i), i))[:k]
        masks = []
        for size in sizes:
            masks.extend(_layer_masks(n, size))
        seeds.append(tuple(masks))
    return seeds


def max_family_size(n: int, t: int, k: int, *, layer_window=None,
                    use_compression=False, budget: Budget | None = None,
                    seeds=None) -> SearchResult:
    """Exact maximum size of a t-intersecting k-Sperner family over [n].

    t = 0 disables the intersection constraint (classical Sperner/Erdos
    territory).  `layer_window` restricts member sizes; `use_compression`
    confines the search to the band the normalization transforms land in,
    which preserves the true optimum.
    """
    if budget is None:
        budget = Budget()
    if n > 24:
        raise PreconditionError("exhaustive search enumerates subsets: needs n <= 24")
    notes = []
    mid_up = (n + t + 1) // 2
    if layer_window is not None:
        lo, hi = layer_window
        notes.append(f"window restricted to sizes [{lo}, {hi}]: optimum relative to the window")
    else:
        lo, hi = (0 if t == 0 else 1), n
    if use_compression:
        if t == 0:
            raise PreconditionError("compression banding applies to t >= 1 only")
        lo = max(lo, mid_up - (k - 1))
        s_hi = min(hi, mid_up)
        if (n + t) % 2 == 0:
            notes.append(
                "size band justified by the shade lift and shadow down-shift transforms (n+t even)")

            def hi_for_s(s):
                return min(hi, 2 * ((n + t) // 2) - s + k - 1)
        else:
            notes.append(
                "minimum-size floor licensed by the shade lift; odd-parity ceiling uses the "
                "ceil-variant down-shift (documented extension)")

            def hi_for_s(s):
                return min(hi, 2 * mid_up - s + k - 1)
        s_range = range(lo, s_hi + 1)
    else:
        def hi_for_s(s):
            return hi
        s_range = range(lo, hi + 1)
    if seeds is None:
        seeds = _construction_seeds(n, t, k)
    best, witness, proven, nodes, elapsed = _max_family_engine(
        n, t, k, s_range, hi_for_s, budget, seeds=seeds)
    if not proven:
        notes.append("budget exceeded: best found so far, optimality not proven")
    fam = Family(n, witness)
    if len(fam) != best or not is_t_intersecting(fam, t) or longest_chain(fam) > k:
        raise InvariantViolation(
            f"search ({n},{t},{k}) returned a witness that is not a {t}-intersecting "
            f"{k}-Sperner family of size {best}")
    return SearchResult(best_size=best, witness=fam,
                        proven_optimal=proven, nodes=nodes, elapsed=elapsed,
                        notes=tuple(notes))


@dataclass(frozen=True, slots=True)
class GFunctionResult:
    value: int
    witness: Family
    shade_size: int
    proven_optimal: bool
    nodes: int


def g_function(params: Params, budget: Budget | None = None) -> GFunctionResult:
    """max |G| - |shade_{(n+t-1)/2+k}(G)| over t-intersecting subfamilies
    of the (n+t-1)/2 layer, by branch and bound with an incremental shade
    union."""
    if params.even_case:
        raise PreconditionError("the g function is defined for n + t odd")
    if budget is None:
        budget = Budget()
    n, t, k = params.n, params.t, params.k
    if n > 24:
        raise PreconditionError("the g-function search enumerates a layer: needs n <= 24")
    base = (n + t - 1) // 2
    top = base + k
    layer = list(_layer_masks(n, base))
    layer.sort()
    if top > n:
        shades = [0] * len(layer)
        top_index = {}
    else:
        top_index = {m: i for i, m in enumerate(_layer_masks(n, top))}
        shades = []
        for m in layer:
            sh = 0
            for sm in _layer_masks(n, top, required=m):
                sh |= 1 << top_index[sm]
            shades.append(sh)
    tconf = [0] * len(layer)
    for i in range(len(layer)):
        for j in range(i + 1, len(layer)):
            if (layer[i] & layer[j]).bit_count() < t:
                tconf[i] |= 1 << j
                tconf[j] |= 1 << i
    state = {"best": 0, "witness": (), "shade": 0, "nodes": 0,
             "deadline": time.monotonic() + budget.seconds, "proven": True}

    def dfs(pool, chosen, shade_union, cc):
        state["nodes"] += 1
        if state["nodes"] > budget.nodes:
            raise _BudgetExceeded
        if not state["nodes"] % 4096 and time.monotonic() > state["deadline"]:
            raise _BudgetExceeded
        obj = cc - shade_union.bit_count()
        if obj > state["best"]:
            state["best"] = obj
            state["witness"] = tuple(chosen)
            state["shade"] = shade_union.bit_count()
        if not pool:
            return
        cap = pool.bit_count()
        if obj + cap <= state["best"]:
            return
        # a greedy matching of conflicting pool pairs: each matched pair
        # contributes at most one future member
        matched = 0
        avail = pool
        p = pool
        while p:
            lsb = p & -p
            i = lsb.bit_length() - 1
            p ^= lsb
            if not avail >> i & 1:
                continue
            other = avail & tconf[i] & ~lsb
            if other:
                matched += 1
                avail &= ~(other & -other) & ~lsb
        if obj + cap - matched <= state["best"]:
            return
        lsb = pool & -pool
        i = lsb.bit_length() - 1
        chosen.append(layer[i])
        dfs(pool & ~tconf[i] & ~lsb, chosen, shade_union | shades[i], cc + 1)
        chosen.pop()
        dfs(pool ^ lsb, chosen, shade_union, cc)

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * len(layer) + 1000))
    try:
        dfs((1 << len(layer)) - 1, [], 0, 0)
    except _BudgetExceeded:
        state["proven"] = False
    fam = Family(n, state["witness"])
    shade_size = len(shade(fam, top)) if top <= n else 0
    if (any(m.bit_count() != base for m in fam) or not is_t_intersecting(fam, t)
            or state["shade"] != shade_size or state["best"] != len(fam) - shade_size):
        raise InvariantViolation(
            f"g_function ({n},{t},{k}) returned a witness that does not attain "
            f"{state['best']} inside the {t}-intersecting families of layer {base}")
    return GFunctionResult(value=state["best"], witness=fam,
                           shade_size=state["shade"], proven_optimal=state["proven"],
                           nodes=state["nodes"])


@dataclass(frozen=True, slots=True)
class BoundEntry:
    value: int | None
    applicable: bool
    note: str


@dataclass(frozen=True, slots=True)
class BoundReport:
    n: int
    t: int
    k: int
    entries: dict[str, BoundEntry]


def bounds_table(params: Params) -> BoundReport:
    """Exact values of every named classical bound and construction size
    for (n, t, k), with parity applicability flags."""
    n, t, k = params.n, params.t, params.k
    e = {}
    e["sperner"] = BoundEntry(binomial(n, n // 2), True, "maximum antichain")
    largest = sorted((binomial(n, i) for i in range(n + 1)), reverse=True)[:k]
    e["erdos_k_layers"] = BoundEntry(sum(largest), True, "maximum k-Sperner family")
    e["milner"] = BoundEntry(binomial(n, (n + t + 1) // 2), True,
                             "maximum t-intersecting antichain")
    if t == 1:
        if n % 2:
            v = sum(binomial(n, i) for i in range((n + 1) // 2, (n + 1) // 2 + k))
            note = "intersecting k-Sperner, odd n"
        else:
            v = (binomial(n - 1, n // 2 - 1)
                 + sum(binomial(n, i) for i in range(n // 2 + 1, n // 2 + k))
                 + binomial(n - 1, n // 2 + k))
            note = "intersecting k-Sperner, even n"
        e["frankl_intersecting"] = BoundEntry(v, True, note)
    else:
        e["frankl_intersecting"] = BoundEntry(None, False, "requires t = 1")
    if params.even_case:
        e["even_case_k_layers"] = BoundEntry(size_layers(params), True,
                                             "k middle layers from (n+t)/2")
        e["odd_A_size"] = BoundEntry(None, False, "requires n + t odd")
        e["odd_B_size"] = BoundEntry(None, False, "requires n + t odd")
        e["odd_B_closed_form"] = BoundEntry(None, False, "requires n + t odd")
    else:
        e["even_case_k_layers"] = BoundEntry(None, False, "requires n + t even")
        e["odd_A_size"] = BoundEntry(size_A(params), True, "construction A")
        e["odd_B_size"] = BoundEntry(size_B(params), True, "construction B, piecewise")
        e["odd_B_closed_form"] = BoundEntry(size_B_closed_form(params), True,
                                            "construction B, closed form")
    return BoundReport(n=n, t=t, k=k, entries=e)
