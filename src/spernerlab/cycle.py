"""Interval families on the cycle of length n.

Positions run 0..n-1 clockwise; an interval is (length, start) with
1 <= length <= n-1 (the full set and the empty set are never intervals).
The h-th chain consists of the n-1 nested intervals starting at h.  An
interval family is keyed by n alone: every check works on positions, and a
cyclic order of [n] is needed only to map sets to intervals
(`restrict_to_cycle`).  An overlap is the popcount of the
AND of two n-bit position masks (`arc_mask`); no 2^n enumeration is
involved, so the machinery works for ground sets far beyond the subset
enumeration limit (the harnesses use n up to 40).

`cycle_bound_at_most` turns Katona's averaging over the cyclic orders into
an exact upper bound on t-intersecting k-Sperner families, by a search over
the arcs of one cycle (`arc_weight_exceeds`); the search oracle closes root
branches with it.

The checks that take an interval family and a Params refuse a Params on
another n, and any n + t odd: the band they weigh the family in is
`Params.band`, centred at (n+t)/2.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .coefficients import CoeffVector, minimal_chain_n, profile_vector, verify_chain
from .families import (
    Family,
    InvariantViolation,
    Params,
    PreconditionError,
    include_in_chains,
)


@dataclass(frozen=True, slots=True)
class CyclicPerm:
    """A cyclic order of [n]: order[p] is the element at position p."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if n < 3:
            raise PreconditionError("cyclic orders need n >= 3")
        if sorted(self.order) != list(range(1, n + 1)):
            raise PreconditionError("order must be a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.order)


def all_cyclic_perms(n: int):
    """One representative per cyclic order: element 1 pinned at position 0.

    Yields (n-1)! permutations; full enumeration is only sane for n <= 7.
    """
    for rest in itertools.permutations(range(2, n + 1)):
        yield CyclicPerm((1,) + rest)


class Interval(NamedTuple):
    """A run of consecutive positions: starts at `start`, covers `length`
    positions clockwise.  Ordered by (length, start)."""

    length: int
    start: int


def arc_mask(n: int, length: int, start: int) -> int:
    """Position mask of an arc: `length` ones rotated by `start` in n bits."""
    run = (1 << length) - 1
    return (run << start | run >> (n - start)) & ((1 << n) - 1)


@dataclass(frozen=True, slots=True)
class IntervalFamily:
    """Immutable, canonically ordered family of intervals on the cycle of
    length n.  chains maps each chain (= start position) that holds a member
    to its member lengths, ascending; it is built once, from the members."""

    n: int
    members: tuple[Interval, ...]
    chains: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if n < 3:
            raise PreconditionError("interval families need n >= 3")
        members = tuple(sorted(set(self.members)))
        for iv in members:
            if not 1 <= iv.length <= n - 1:
                raise PreconditionError(f"interval length {iv.length} outside [1, {n - 1}]")
            if not 0 <= iv.start < n:
                raise PreconditionError(f"interval start {iv.start} outside [0, {n})")
        object.__setattr__(self, "members", members)
        chains: dict[int, list[int]] = {}
        for iv in members:  # ordered by length first
            chains.setdefault(iv.start, []).append(iv.length)
        object.__setattr__(self, "chains", {h: tuple(run) for h, run in chains.items()})

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self):
        return f"IntervalFamily(n={self.n}, members={len(self.members)})"


def interval_weight(G: IntervalFamily) -> int:
    """Sum of C(n, length) over members."""
    n = G.n
    return sum(math.comb(n, iv.length) for iv in G.members)


def restrict_to_cycle(fam: Family, perm: CyclicPerm) -> IntervalFamily:
    """Members of fam whose elements are consecutive under perm, as
    intervals.  The empty set and the full set are never intervals."""
    n = perm.n
    if fam.n != n:
        raise PreconditionError("family and cyclic order disagree on n")
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


def is_sigma_ks_ti(G: IntervalFamily, params: Params) -> bool:
    """True iff G is pairwise t-intersecting and meets every chain in at
    most k intervals.

    Weaker than global k-Sperner-ness: nesting across different chains is
    deliberately ignored.  An arc only gains positions as it grows, so two
    members of one chain share the shorter one's length, and two chains
    share least in their shortest members.
    """
    n, t, k = G.n, params.t, params.k
    chains = G.chains
    if any(len(run) > k or (len(run) > 1 and run[0] < t) for run in chains.values()):
        return False
    # arcs of lengths a and b share at least a + b - n positions: in length
    # order a low needs masks only for the earlier lows below n + t - a
    lows = sorted((run[0], h) for h, run in chains.items())
    shorter = []  # (length, mask) of the lows passed
    for a, h in lows:
        floor = n + t - a
        if lows[0][0] >= floor:
            break
        x = arc_mask(n, a, h)
        for b, y in shorter:
            if b >= floor:
                break
            if (x & y).bit_count() < t:
                return False
        shorter.append((a, x))
    return True


def _close_gaps(run, n: int) -> list[int]:
    """One chain's lengths, sorted, with their gaps closed.

    While a length is missing strictly between the minimum and the maximum,
    the first gap replaces the maximum when it is at least n/2 and the
    minimum otherwise.  Every replacement strictly increases the weight.
    """
    run = sorted(run)
    if not run or run[-1] - run[0] == len(run) - 1:
        return run
    for _ in range(n * n):
        g = next((a + 1 for a, b in zip(run, run[1:]) if b > a + 1), None)
        if g is None:
            return run
        old = run.pop() if 2 * g >= n else run.pop(0)
        if math.comb(n, g) <= math.comb(n, old):
            raise InvariantViolation(
                f"gap fill did not increase weight: len {old} -> {g} at n={n}")
        bisect.insort(run, g)
    raise InvariantViolation("gap closing failed to terminate")


def make_consecutive(G: IntervalFamily, params: Params) -> IntervalFamily:
    """Close the length gaps inside every chain (see _close_gaps).  Per-chain
    counts and both defining properties are untouched.  Raises
    InvariantViolation rather than return a family of lower weight or
    another size."""
    if not is_sigma_ks_ti(G, params):
        raise PreconditionError("make_consecutive input is not sigma-k-Sperner t-intersecting")
    n = G.n
    out = IntervalFamily(n, [Interval(length=ell, start=h)
                             for h, run in sorted(G.chains.items())
                             for ell in _close_gaps(run, n)])
    if len(out) != len(G):
        raise InvariantViolation("make_consecutive changed the family size")
    return out


def is_full_consecutive(G: IntervalFamily, k: int) -> bool:
    chains = G.chains
    return len(chains) == G.n and all(
        len(run) == k and run[-1] - run[0] == k - 1 for run in chains.values())


def _band(G: IntervalFamily, params: Params) -> tuple[int, int, int]:
    """(m, lo, hi): the half-width m by which G's shortest member reaches
    below (n+t)/2 (0 if none does) and its band (lo, hi) = params.band(m).
    Refuses a params on another n and n + t odd."""
    if G.n != params.n:
        raise PreconditionError(
            f"interval family on a cycle of length {G.n} but params.n={params.n}")
    if (params.n + params.t) % 2:
        raise PreconditionError("the cycle checks need n + t even")
    m = max(0, params.half_up - G.members[0].length) if G.members else 0
    return (m, *params.band(m))


def interval_band(params: Params, m: int) -> tuple[int, int]:
    """params.band(m), the band an interval family of half-width m is built
    in.  Refuses n + t odd, m outside [0, k-1] and a band that does not fit
    inside [1, n-1], the lengths an interval can have."""
    if not params.even_case:
        raise PreconditionError("the cycle checks need n + t even")
    if not 0 <= m <= params.k - 1:
        raise PreconditionError(f"band half-width {m} outside [0, k-1={params.k - 1}]")
    lo, hi = params.band(m)
    if not 1 <= lo <= hi <= params.n - 1:
        raise PreconditionError(f"band [{lo}, {hi}] does not fit inside [1, {params.n - 1}]")
    return lo, hi


def fill_full(G: IntervalFamily, params: Params) -> IntervalFamily:
    """Extend to a full consecutive family (exactly k intervals per chain)
    without decreasing weight: raises InvariantViolation rather than return
    a lighter family.

    Chains grow one step above their current maximum; a chain whose run is
    pinned against the band top (or is empty) instead receives the interval
    of size mid+m, which meets every band member in at least t elements.
    The band is two-sided here: m also grows until it holds the longest
    member.  Chains never interact, so each one is filled on its own.
    """
    m, _, top = _band(G, params)
    n, k = G.n, params.k
    if not is_sigma_ks_ti(G, params):
        raise PreconditionError("fill_full input is not sigma-k-Sperner t-intersecting")
    if G.members and G.members[-1].length > top:
        m += G.members[-1].length - top
    top = interval_band(params, m)[1]
    patch = params.half_up + m
    chains = G.chains
    members = []
    for h in range(n):
        run = _close_gaps(chains.get(h, ()), n)
        while len(run) < k:
            if run and run[-1] + 1 <= top:
                run.append(run[-1] + 1)  # a consecutive run stays consecutive
            elif patch in run:
                raise InvariantViolation("fill_full patch interval already present")
            else:
                run = _close_gaps(run + [patch], n)
        members.extend(Interval(length=ell, start=h) for ell in run)
    cur = IntervalFamily(n, members)
    if not is_full_consecutive(cur, k):
        raise InvariantViolation("fill_full did not reach a full consecutive family")
    if not is_sigma_ks_ti(cur, params):
        raise InvariantViolation("fill_full broke the t-intersecting property")
    if interval_weight(cur) < interval_weight(G):
        raise InvariantViolation("fill_full decreased the weight")
    return cur


def bar_complement(iv: Interval, n: int, t: int) -> Interval:
    """The complement arc extended back into the interval by floor(t/2)
    positions at one end and ceil(t/2) at the other: size n + t - length,
    overlapping the input in exactly t positions."""
    if iv.length < t:
        raise PreconditionError(f"bar complement needs length >= t, got {iv.length} < {t}")
    out_len = n + t - iv.length
    if out_len > n - 1:
        raise PreconditionError(
            f"bar complement of a length-{iv.length} interval would cover the whole cycle")
    return Interval(length=out_len, start=(iv.start + iv.length - t // 2) % n)


def check_complement_closure(G: IntervalFamily, params: Params) -> tuple[str, ...]:
    """For a full consecutive family inside the band: no proper subinterval
    of any member's bar complement is a member, and the bar complement of
    every bottom-size member is itself a member.  Returns the failures, each
    a bug trap with its witness; empty when the closure holds.

    Requires t >= 2: with t = 1 the bar complement overlaps its interval at
    one end only, and a proper subinterval keeping that end still meets the
    interval in t elements, so the closure claim genuinely fails (see the
    frozen counterexample in the test suite).
    """
    m, lo, hi = _band(G, params)
    if params.t < 2:
        raise PreconditionError(
            "complement closure needs t >= 2: the t = 1 bar complement overlaps "
            "only at one end and the no-proper-subinterval claim fails")
    n, t, k = G.n, params.t, params.k
    if not is_full_consecutive(G, k):
        raise PreconditionError("complement closure check needs a full consecutive family")
    if G.members[0].length != lo or G.members[-1].length > hi:
        raise PreconditionError("member sizes do not fit the band")
    if lo < t + 1:
        raise PreconditionError("band bottom too small for bar complements")
    chains = G.chains
    # a chain holds a proper subinterval of an arc iff its shortest member
    # lies inside the arc and is not the arc itself; an arc of length ell
    # lies inside the arc (b, s) iff it starts at most b - ell after s
    starts: dict[int, int] = {}  # shortest length -> mask of the chains it starts
    for h, run in chains.items():
        starts[run[0]] = starts.get(run[0], 0) | 1 << h
    failures = []
    for iv in G.members:
        bc = bar_complement(iv, n, t)
        b, s = bc
        for ell, mask in starts.items():
            if ell < b and mask & arc_mask(n, b - ell + 1, s):
                ell, off = min((run[0], (h - s) % n) for h, run in chains.items()
                               if run[0] < b and (h - s) % n <= b - run[0])
                sub = Interval(length=ell, start=(s + off) % n)
                failures.append(
                    f"proper subinterval {sub} of bar complement of {iv} is a member")
                break
        if iv.length == lo and bc.length not in chains.get(bc.start, ()):
            failures.append(f"bar complement {bc} of bottom member {iv} is missing")
    return tuple(failures)


def g_profile(G: IntervalFamily, params: Params) -> CoeffVector:
    """Count members per size class centered at (n+t)/2, as the stage-g
    vector: value(i) intervals of size mid + i, for i = -m .. k+m-1."""
    m, lo, hi = _band(G, params)
    if G.members and G.members[-1].length > hi:
        raise PreconditionError("member sizes do not fit the band")
    counts = [0] * (hi - lo + 1)
    for iv in G.members:
        counts[iv.length - lo] += 1
    return profile_vector(G.n, params.t, params.k, m, counts)


def check_instance(G: IntervalFamily, params: Params) -> dict:
    """Every cycle-method check on one full consecutive family inside the
    band, as a JSON-ready record.

    The closure claim is out of force at t = 1 (one-sided overlap), so it
    reads None there.  The two missing-interval side families are disjoint
    by construction, so that field is a constant.  The weight bound and the
    rebalancing chain only promise to hold above a size threshold; below it
    a failure is a finding, not a bug, and does not clear `ok`.
    """
    n, t, k = params.n, params.t, params.k
    if not is_full_consecutive(G, k):
        raise PreconditionError("count inequalities need a full consecutive family")
    prof = g_profile(G, params)  # refuses another n and n + t odd
    m, g = prof.m, prof.value
    if m >= k:
        raise PreconditionError(f"count inequalities need m < k, got m={m}")
    records = []  # (name, j, lhs, rhs)
    for j in range(0, m):
        if j < k - m:
            records.append(("one", j, g(-j - 1) + g(j), n))
        else:
            lhs = sum(g(i) for i in range(-(j + 1), j + 1))
            rhs = (j + 1) * n - sum(g(-i) for i in range(k - j, m + 1))
            records.append(("two", j, lhs, rhs))
    for j in range(1, m + 1):
        if j < k - m:
            lhs = sum(g(i) for i in range(-m, k - j + 1))
            rhs = (k - j + 1) * n - sum(g(-i) for i in range(j, m + 1))
            records.append(("three", j, lhs, rhs))
    for j in range(1, m + 1):
        lhs = sum(g(i) for i in range(-m, k - 1 + j))
        rhs = k * n - sum(g(i) for i in range(-m, -j + 1))
        records.append(("four", j, lhs, rhs))
    inequalities = [{"name": name, "j": j, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}
                    for name, j, lhs, rhs in records]
    closure = not check_complement_closure(G, params) if t >= 2 else None
    # the chain report holds both sides of the weight bound
    chain = verify_chain(prof)
    weight, bound = chain.weighted_g, chain.final_bound
    threshold = minimal_chain_n(t, k, m, 4 * n + 100)
    above = threshold is not None and n >= threshold
    return {
        "inequalities": inequalities,
        # a full consecutive family holds k consecutive lengths on every
        # chain and arcs on one chain nest, so a missing arc lies inside its
        # chain's members or around them, never in both side families
        "side_families_disjoint": True,
        "complement_closure": closure,
        "weight_bound": {"holds": weight <= bound, "weight": weight,
                         "bound": bound, "margin": bound - weight},
        "coefficient_chain": chain.ok,
        "above_chain_threshold": above,
        "ok": (all(r["holds"] for r in inequalities) and closure is not False
               and (not above or (weight <= bound and chain.ok))),
    }


@dataclass(frozen=True, slots=True)
class AveragingCheck:
    holds: bool
    lhs: int
    rhs: int


def averaging_identity(fam: Family) -> AveragingCheck:
    """Sum of interval-restriction weights over all (n-1)! cyclic orders
    equals n! times the member count, exactly.

    Members of size 0 or n are never intervals and are excluded from both
    sides.  Full enumeration: n <= 7 only.
    """
    n = fam.n
    if n > 7:
        raise PreconditionError("averaging identity enumerates (n-1)! orders; need n <= 7")
    inner = [m for m in fam.members if 0 < m.bit_count() < n]
    inner_fam = Family(n, inner)
    lhs = sum(interval_weight(restrict_to_cycle(inner_fam, perm))
              for perm in all_cyclic_perms(n))
    rhs = math.factorial(n) * len(inner)
    return AveragingCheck(holds=lhs == rhs, lhs=lhs, rhs=rhs)


class _Heaviest(dict):
    """Memo from a set of length ranks (bit p: the p-th heaviest length) to
    the sum of the weights of its `most` heaviest lengths."""

    def __init__(self, weights, most):
        super().__init__()
        self.weights, self.most = weights, most

    def __missing__(self, ranks):
        self[ranks] = total = sum(
            [w for p, w in enumerate(self.weights) if ranks >> p & 1][:self.most])
        return total


def arc_weight_exceeds(n: int, t: int, k: int, lo: int, hi: int, floor: int,
                       nodes: int = 0, node_cap: float = math.inf,
                       deadline: float = math.inf) -> tuple[bool | None, int]:
    """Whether some family of arcs of the n-cycle with lengths in
    [lo, min(hi, n-1)], pairwise meeting in at least t positions and holding
    no k + 1 nested arcs, weighs more than floor; an arc of length l weighs
    C(n, l).

    A decision search, depth-first over include/exclude, that stops at the
    first family heavier than floor.  Arcs that share a start or an end
    nest, so a family holds at most k of each; the k heaviest arcs left per
    start, and likewise per end, cap the weight a node can still reach.
    Chain heights are exact, kept by `families.include_in_chains` as in the
    oracle.  At the root the exclude child drops the arc's whole rotation
    class: a family holding a rotation of the arc rotates into one that
    holds it, of the same weight.

    Returns (answer, nodes), nodes being the count passed in plus this
    search's nodes.  answer is None when the count passed node_cap, or the
    clock passed deadline (read every 4,096 nodes), before the search
    decided.
    """
    # with k = 0 only the empty family holds no chain of k + 1 = 1 arcs
    lengths = sorted(range(max(lo, 1), min(hi, n - 1) + 1) if k else (),
                     key=lambda ell: (-math.comb(n, ell), ell))
    weights = [math.comb(n, ell) for ell in lengths]
    m = len(lengths)
    C = n * m
    # Arc i = h*m + p, of length lengths[p] starting at h, is bit i of the
    # start half and bit C + e*m + p of the end half, e its last position.
    # Every arc set holds both bits of each of its arcs, so one start's and
    # one end's arcs are each one m-bit block, heaviest first.
    full = (1 << C) - 1

    def rotate(x, h):
        """x turned h positions clockwise: in each half, up by h blocks."""
        r = h * m
        starts, ends = x & full, x >> C
        return (starts << r | starts >> C - r) & full | ((ends << r | ends >> C - r) & full) << C

    every = [(arc_mask(n, ell, h), ell, 1 << h * m + p | 1 << C + (h + ell - 1) % n * m + p)
             for h in range(n) for p, ell in enumerate(lengths)]
    own = [b for _, _, b in every]
    # per arc a at start 0: its t-conflicts, the arcs above it and those
    # below it, read off one overlap o per other arc x (o == |a|: x holds
    # a; o == |x|: a holds x); every other arc's are a rotation of these
    conf0, sup0, sub0 = [], [], []
    for a, size, b in every[:m]:
        few = over = under = 0
        for x, ell, y in every:
            if y != b:
                o = (a & x).bit_count()
                if o < t:
                    few |= y
                if o == size:
                    over |= y
                if o == ell:
                    under |= y
        conf0.append(few)
        sup0.append(over)
        sub0.append(under)
    conf, sup, sub = ([rotate(y, h) for h in range(n) for y in rel] for rel in (conf0, sup0, sub0))
    rotation_class = [sum(own[p::m]) for p in range(m)]
    block = (1 << m) - 1
    starts, ends = range(0, C, m or 1), range(C, 2 * C, m or 1)
    heaviest = _Heaviest(weights, k)

    stack = []
    pool, chosen, weight = (1 << 2 * C) - 1, 0, 0
    # below[h - 1]: arcs with a chain of h chosen arcs strictly below them;
    # above[h - 1] likewise strictly above
    below = above = (0,) * k
    while True:
        nodes += 1
        if nodes > node_cap or not nodes % 4096 and time.monotonic() > deadline:
            return None, nodes
        if weight > floor:
            return True, nodes
        live = pool | chosen
        if (pool & full
                and sum(heaviest[live >> o & block] for o in starts) > floor
                and sum(heaviest[live >> o & block] for o in ends) > floor):
            # branch on the heaviest arc left, lowest start first
            x = next(x for x in map(pool.__and__, rotation_class) if x & full) & full
            i = (x & -x).bit_length() - 1
            b = own[i]
            stack.append((pool, chosen, weight, below, above, i))
            # drop every arc that would close a chain of k + 1; the start
            # half of chosen indexes the chosen arcs
            below, above, closes = include_in_chains(below, above, sup, sub, i, b, chosen & full, k)
            pool &= ~(conf[i] | b | closes)
            chosen |= b
            weight += weights[i % m]
            continue
        if not stack:
            return False, nodes
        pool, chosen, weight, below, above, i = stack.pop()
        pool &= ~(own[i] if chosen else rotation_class[i % m])


def cycle_bound_at_most(n: int, t: int, k: int, lo: int, hi: int, size: int,
                        nodes: int = 0, node_cap: float = math.inf,
                        deadline: float = math.inf) -> tuple[bool | None, int]:
    """Whether the cycle bound shows that every t-intersecting k-Sperner
    family over [n] (n >= 3) with member sizes in [lo, hi], lo >= 1, has at
    most `size` members.

    Katona's averaging (Katona, JCT B 1972; `averaging_identity`): a member
    of size l is an arc of l!(n-l)! of the (n-1)! cyclic orders, so the arcs
    of F weigh n!|F| summed over the orders, and some order's arcs weigh at
    least n|F|.  Those arcs are an arc family as in `arc_weight_exceeds`, so
    |F| <= W/n for W the heaviest one.  [n] is an arc of no order; when hi
    >= n it may be a member, and then the other members hold no k nested
    sets, so |F| <= max(W_k/n, W_(k-1)/n + 1).  Returns (answer, nodes) as
    `arc_weight_exceeds` does, over both searches.
    """
    heavier, nodes = arc_weight_exceeds(n, t, k, lo, hi, n * (size + 1) - 1,
                                        nodes, node_cap, deadline)
    if heavier is False and hi >= n:
        heavier, nodes = arc_weight_exceeds(n, t, k - 1, lo, hi, n * size - 1,
                                            nodes, node_cap, deadline)
    return (None if heavier is None else not heavier), nodes
