"""Seeded random instance generators for the property harnesses.

Every generator takes an explicit random.Random so a single seed pins the
whole harness.  The distributions aim at nontrivial cases, not uniformity:
valid set families grow around a random t-element core and are thinned
back to k-Sperner; full consecutive interval families pick per-chain
bottoms inside the band and repair pairwise intersections by raising
bottoms, in one pass that always succeeds.

The stream is a contract: a generator draws exactly the numbers it has
always drawn, so a seed names the same instances (and the same `scan` and
`cycle-audit` bytes) from release to release.  Subset draws go through
`_sample_masks`, which mirrors `Random.sample` call for call on
`getrandbits`; `tests/test_families.py::test_sample_masks_mirror_sample`,
not this docstring, is what guards that mirror on every supported Python
(`requires-python >= 3.10`).
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .cycle import (
    Interval,
    IntervalFamily,
    arc_mask,
    interval_band,
    is_full_consecutive,
    is_sigma_ks_ti,
)
from .families import (
    Family,
    InvariantViolation,
    Params,
    PreconditionError,
    longest_chain_members,
)


def _sample_masks(rng: random.Random, bits: list[int], r: int) -> Iterator[int]:
    """Endless sum(rng.sample(bits, r)) for distinct one-bit masks, at most
    MAX_ENUM_N of them, and 0 <= r <= len(bits): each next() makes the
    rng.getrandbits calls of one sample call, and nothing is drawn ahead.

    Like sample, each index below the i elements left is drawn by rejection
    on getrandbits(i.bit_length()), and the last element left moves into
    the drawn place.  Above 21 elements and for r <= 5 sample keeps a set of
    drawn indices instead; those draws are left to sample.
    """
    if len(bits) > 21 and r <= 5:
        while True:
            yield sum(rng.sample(bits, r))
    getrandbits = rng.getrandbits
    steps = [(i, i.bit_length()) for i in range(len(bits), len(bits) - r, -1)]
    while True:
        pool = bits[:]
        mask = 0
        for i, width in steps:
            j = getrandbits(width)
            while j >= i:
                j = getrandbits(width)
            mask |= pool[j]
            pool[j] = pool[i - 1]
        yield mask


def random_valid_family(rng: random.Random, n: int, t: int, k: int) -> Family:
    """A random t-intersecting k-Sperner family over [n].

    Supersets of a random t-element core are sampled inside a random size
    window, then members of over-long chains are deleted at random until no
    chain exceeds k.
    """
    if not 1 <= t <= n:
        raise PreconditionError("need 1 <= t <= n")
    bits = [1 << e for e in range(n)]
    core = next(_sample_masks(rng, bits, t))
    free = [b for b in bits if not b & core]
    lo = rng.randint(t, n)
    hi = rng.randint(lo, n)
    count = rng.randint(1, 24)
    members: set[int] = set()
    for _ in range(4 * count):
        if len(members) >= count:
            break
        members.add(core | next(_sample_masks(rng, free, rng.randint(lo, hi) - t)))
    pool = list(members)
    while True:
        chain = longest_chain_members(Family(n, pool))
        if len(chain) <= k:
            break
        pool.remove(rng.choice(chain))
    return Family(n, pool)


def random_uniform_t_intersecting(rng: random.Random, n: int, r: int, t: int) -> Family:
    """An r-uniform t-intersecting family of at most 12 members: a random
    core superset first, then random layer sets kept only when compatible
    with everything so far.

    All 360 attempts are drawn even once the family is maximal: stopping
    early would shift every later draw, and so every `scan` byte."""
    if not (0 < t <= r <= n):
        raise PreconditionError("need 0 < t <= r <= n")
    bits = [1 << e for e in range(n)]
    core = next(_sample_masks(rng, bits, t))
    members = [core | next(_sample_masks(rng, [b for b in bits if not b & core], r - t))]
    draws = _sample_masks(rng, bits, r)
    attempts = 360
    while len(members) < 12 and attempts:
        attempts -= 1
        cand = next(draws)
        for m in members:
            if (cand & m).bit_count() < t:
                break
        else:
            if cand not in members:
                members.append(cand)
    return Family(n, members)


def random_antichain_above_middle(rng: random.Random, n: int) -> Family:
    """A nonempty antichain whose minimum member size exceeds n/2."""
    lo = rng.randint(n // 2 + 1, n)
    bits = [1 << e for e in range(n)]
    members: list[int] = []  # the first candidate always joins
    for _ in range(rng.randint(1, 3 * n)):
        size = rng.randint(lo, n)
        cand = next(_sample_masks(rng, bits, size))
        if all(not ((cand & m) == m or (cand & m) == cand) for m in members):
            members.append(cand)
    return Family(n, members)


def random_inner_family(rng: random.Random, n: int, density: float) -> Family:
    """A random family avoiding the empty and the full set."""
    members = [m for m in range(1, (1 << n) - 1) if rng.random() < density]
    return Family(n, members)


def random_full_consecutive(rng: random.Random, n: int, t: int, k: int, m: int) -> IntervalFamily:
    """A full consecutive sigma-k-Sperner t-intersecting interval family
    with minimum size exactly (n+t)/2 - m and maximum within the band.

    Per-chain bottom lengths are sampled from [lo, hi-k+1] for the band
    (lo, hi) of half-width m, with one chain pinned at lo; bottoms are
    raised until all chain minima pairwise share at least t positions.  The
    runs [bottom, bottom+k-1] then form the family.
    """
    params = Params(n=n, t=t, k=k)
    lo, hi = interval_band(params, m)
    high = hi - (k - 1)  # the highest bottom whose run stays in the band
    pinned = rng.randrange(n)
    bottoms = [rng.randint(lo, high) for _ in range(n)]
    bottoms[pinned] = lo
    arcs = [arc_mask(n, b, h) for h, b in enumerate(bottoms)]
    # One pass always repairs: arcs of lengths a and b share at least
    # a + b - n positions, t + 2m for two bottoms at high and t for the
    # pinned lo against high, so every short pair has a raisable bottom.
    # Each raise lifts one bottom, which stops at high, so the pass ends.  A
    # raise only lengthens an arc, so every pair already passed stays good,
    # and so does a pair whose bottoms sum to n + t or more: it needs no mask.
    for h1 in range(n):
        floor = n + t - bottoms[h1]
        for h2 in [h for h in range(h1 + 1, n) if bottoms[h] < floor]:
            while (arcs[h1] & arcs[h2]).bit_count() < t:
                raisable = [h for h in (h1, h2) if h != pinned and bottoms[h] < high]
                if not raisable:
                    raise InvariantViolation(f"chains {h1} and {h2} have no raisable bottom")
                h = rng.choice(raisable)
                bottoms[h] += 1
                arcs[h] = arc_mask(n, bottoms[h], h)
    fam = IntervalFamily(n, [Interval(length=b + i, start=h)
                             for h, b in enumerate(bottoms) for i in range(k)])
    if not (is_full_consecutive(fam, k) and is_sigma_ks_ti(fam, params)):
        raise InvariantViolation(f"repair left an invalid family for n={n}, t={t}, k={k}")
    return fam


def random_sigma_ksti(rng: random.Random, n: int, t: int, k: int, m: int) -> IntervalFamily:
    """A (generally non-consecutive, non-full) sigma-k-Sperner
    t-intersecting family with member sizes inside the band."""
    lo, hi = interval_band(Params(n=n, t=t, k=k), m)
    target = rng.randint(1, k * n // 2)
    members: set[Interval] = set()
    arcs: list[tuple[int, int]] = []  # members' lengths and position masks
    per_chain = [0] * n
    attempts = 40 * target
    while len(members) < target and attempts:
        attempts -= 1
        h = rng.randrange(n)
        if per_chain[h] >= k:
            continue
        cand = Interval(length=rng.randint(lo, hi), start=h)
        if cand in members:
            continue
        floor = n + t - cand.length  # members at least this long meet cand in t
        arc = arc_mask(n, cand.length, h)
        for ell, other in arcs:
            if ell < floor and (arc & other).bit_count() < t:
                break
        else:
            members.add(cand)
            arcs.append((cand.length, arc))
            per_chain[h] += 1
    return IntervalFamily(n, members)


def random_dominance_triple(rng: random.Random, length: int):
    """(a, b, d) satisfying the rearrangement-dominance hypotheses: d
    non-increasing, equal totals, every proper suffix of a at most b's."""
    d = sorted((rng.randint(0, 30) for _ in range(length)), reverse=True)
    b = [rng.randint(0, 30) for _ in range(length)]
    a = list(b)
    for _ in range(rng.randint(0, 3 * length)):
        src = rng.randrange(1, length) if length > 1 else 0
        dst = rng.randrange(0, src) if src else 0
        if a[src] == 0 or src == dst:
            continue
        delta = rng.randint(1, a[src])
        a[src] -= delta
        a[dst] += delta
    return a, b, d
