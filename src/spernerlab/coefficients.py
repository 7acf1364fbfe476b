"""Integer coefficient calculus behind the cycle-method weight bound.

A profile (count of intervals per size class) is rebalanced in two stages:
first the classes above k-1 swap places with the negative classes, then
every remaining negative class folds into the window [0, k].  Each stage
preserves total mass, never decreases the binomial-weighted sum, and the
final vector satisfies prefix bounds that force the weight below
n * (sum of the k middle binomials).

All arithmetic is exact.  Stage transforms check the counting facts they
rely on and raise InvariantViolation when one fails (bug traps).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

from .families import InvariantViolation, Params, PreconditionError, binomial


@dataclass(frozen=True, slots=True)
class CoeffVector:
    """Integer counts per size class, indexed lo..lo+len(values)-1 relative
    to the middle layer (n+t)/2.  stage is one of 'g', 'gprime',
    'gdoubleprime'."""

    n: int
    t: int
    k: int
    m: int
    stage: str
    lo: int
    values: tuple[int, ...]

    def __post_init__(self):
        if (self.n + self.t) % 2:
            raise PreconditionError("coefficient vectors require n + t even")
        Params(self.n, self.t, self.k)  # refuses n, t or k out of range
        if self.m < 0:
            raise PreconditionError(f"need m >= 0, got m={self.m}")
        if self.stage not in ("g", "gprime", "gdoubleprime"):
            raise PreconditionError(f"unknown stage {self.stage!r}")
        if any(v < 0 for v in self.values):
            raise PreconditionError("coefficient vectors must be non-negative")

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def value(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.values[i - self.lo]
        return 0

    def total(self) -> int:
        return sum(self.values)


def profile_vector(n: int, t: int, k: int, m: int, counts) -> CoeffVector:
    """Wrap raw per-class counts (indexed -m..k+m-1) as a stage-g vector."""
    counts = tuple(counts)
    if len(counts) != k + 2 * m:
        raise PreconditionError(f"expected {k + 2 * m} classes, got {len(counts)}")
    return CoeffVector(n=n, t=t, k=k, m=m, stage="g", lo=-m, values=counts)


def weighted_sum(vec: CoeffVector) -> int:
    """Sum of count * C(n, (n+t)/2 + class index)."""
    mid = (vec.n + vec.t) // 2
    return sum(v * binomial(vec.n, mid + vec.lo + idx) for idx, v in enumerate(vec.values))


def binom_swap(n: int, a: int, b: int) -> bool:
    """Exact evaluation of
    C(n, fl(n/2)+a) + C(n, fl(n/2)+b) <= C(n, fl(n/2)+a+1) + C(n, fl(n/2)+b-1)
    at this n.

    Large n avoids materializing the binomials: dividing through by the
    smallest one leaves products of at most |b - a| + 1 small ratios, built
    as one running product and compared exactly over its last denominator,
    which every earlier one divides.
    """
    if not (a < b and b > 0):
        raise PreconditionError("binom_swap needs a < b and b > 0")
    if n < 0:
        raise PreconditionError("binom_swap needs n >= 0")
    h = n // 2
    offsets = (a, b, a + 1, b - 1)
    if n <= 60 or h + min(offsets) < 0 or h + max(offsets) > n:
        return (binomial(n, h + a) + binomial(n, h + b)
                <= binomial(n, h + a + 1) + binomial(n, h + b - 1))
    base = h + min(offsets)
    # ratios[j]: C(n, base+j) / C(n, base) as (numerator, denominator)
    ratios = [(1, 1)]
    for i in range(base, h + max(offsets)):
        num, den = ratios[-1]
        ratios.append((num * (n - i), den * (i + 1)))
    terms = [ratios[h + off - base] for off in offsets]
    common = ratios[-1][1]
    vals = [num * (common // den) for num, den in terms]
    return vals[0] + vals[1] <= vals[2] + vals[3]


def minimal_n0(a: int, b: int, n_max: int):
    """Smallest N <= n_max such that binom_swap(n, a, b) holds for every
    n in [N, n_max]; None if even n_max itself fails."""
    if not (a < b and b > 0):
        raise PreconditionError("minimal_n0 needs a < b and b > 0")
    return min(itertools.takewhile(lambda n: binom_swap(n, a, b), range(n_max, 0, -1)),
               default=None)


def star_inequality_check(g: CoeffVector) -> bool:
    """The rebalancing hypothesis: for every j = 1..m the mass in classes
    -m..-j is at most the mass in classes k-1+j..k-1+m."""
    for j in range(1, g.m + 1):
        low = sum(g.value(i) for i in range(-g.m, -j + 1))
        high = sum(g.value(i) for i in range(g.k - 1 + j, g.k + g.m))
        if low > high:
            return False
    return True


def to_gprime(g: CoeffVector) -> CoeffVector:
    """First rebalancing stage: classes k+1..k+m-1 take over the values of
    classes -2..-m, and class k absorbs the difference.

    Requires the star inequality; guarantees mass conservation, value(k)
    at least value(-1), and a non-decreasing weighted sum.
    """
    if g.stage != "g":
        raise PreconditionError("to_gprime expects a stage-g vector")
    if g.m == 0:
        return replace(g, stage="gprime")
    if not star_inequality_check(g):
        raise PreconditionError("input profile violates the star inequality")
    k, m = g.k, g.m
    vals = list(g.values)

    def put(i, v):
        vals[i - g.lo] = v

    for i in range(2, m + 1):
        put(k - 1 + i, g.value(-i))
    gk = sum(g.value(i) for i in range(k, k + m)) - sum(g.value(-i) for i in range(2, m + 1))
    if gk < 0:
        raise InvariantViolation("rebalanced class k went negative despite the star inequality")
    put(k, gk)
    out = CoeffVector(n=g.n, t=g.t, k=k, m=m, stage="gprime", lo=g.lo, values=tuple(vals))
    if out.total() != g.total():
        raise InvariantViolation("first rebalancing changed the total mass")
    if out.value(k) < g.value(-1):
        raise InvariantViolation("rebalanced class k fell below class -1")
    return out


def to_gdoubleprime(gp: CoeffVector) -> CoeffVector:
    """Second rebalancing stage: fold every negative class into the window
    [0, k].

    Class j < k gains the value of class -(j+1) when j <= m-1 and the value
    of class -(k-j) when j >= k-m; class k loses the value of class -1.
    Mass is conserved and class k stays non-negative.
    """
    if gp.stage != "gprime":
        raise PreconditionError("to_gdoubleprime expects a stage-gprime vector")
    k, m = gp.k, gp.m
    vals = []
    for j in range(0, k):
        v = gp.value(j)
        if j <= m - 1:
            v += gp.value(-(j + 1))
        if j >= k - m:
            v += gp.value(-(k - j))
        vals.append(v)
    vk = gp.value(k) - gp.value(-1)
    if vk < 0:
        raise InvariantViolation("folded class k went negative")
    vals.append(vk)
    out = CoeffVector(n=gp.n, t=gp.t, k=k, m=m, stage="gdoubleprime", lo=0, values=tuple(vals))
    if out.total() != gp.total():
        raise InvariantViolation("second rebalancing changed the total mass")
    return out


def prefix_bounds(gpp: CoeffVector) -> list[tuple[int, int, int, str]]:
    """(j, prefix sum, cap (j+1)n, justification tag) for j = 0..k-1."""
    if gpp.stage != "gdoubleprime":
        raise PreconditionError("prefix bounds apply to the folded vector")
    k, m, n = gpp.k, gpp.m, gpp.n
    out = []
    run = 0
    for j in range(0, k):
        run += gpp.value(j)
        if j < m and j < k - m:
            tag = "pairwise_cap"
        elif j < m:
            tag = "window_count"
        elif j < k - m:
            tag = "layer_cap"
        elif j == k - 1:
            tag = "total_mass"
        else:
            tag = "upper_window_count"
        out.append((j, run, (j + 1) * n, tag))
    return out


def _fold_step(n: int, t: int, k: int, j: int) -> tuple[int, int]:
    """Both sides of the combined swap inequality of fold step j:
    C(n, mid-j) + C(n, mid+k+j-1) <= C(n, mid+j-1) + C(n, mid+k-j),
    with mid = (n+t)/2."""
    mid = (n + t) // 2
    return (binomial(n, mid - j) + binomial(n, mid + k + j - 1),
            binomial(n, mid + j - 1) + binomial(n, mid + k - j))


@functools.cache
def minimal_chain_n(t: int, k: int, m: int, n_max: int):
    """Smallest n with n + t even such that, for every same-parity n' in
    [n, n_max] and every fold step j = 1..m, the fold-step inequality holds
    at n' (see _fold_step).  None when n_max itself fails.

    Harvest sizes for the rebalancing chain should not go below this.
    """
    start = n_max if (n_max + t) % 2 == 0 else n_max - 1

    def holds(n):
        return all(lhs <= rhs for lhs, rhs in (_fold_step(n, t, k, j) for j in range(1, m + 1)))
    return min(itertools.takewhile(holds, range(start, max(t, 2 * m), -2)), default=None)


@dataclass(frozen=True, slots=True)
class SwapStep:
    j: int
    lhs: int
    rhs: int
    active: bool  # False when the class is empty, making the step vacuous

    @property
    def holds(self) -> bool:
        return not self.active or self.lhs <= self.rhs


@dataclass(frozen=True, slots=True)
class ChainReport:
    """Every checkpoint of the g -> g' -> g'' rebalancing chain that can
    fail.  Mass is not one: both stages raise InvariantViolation when they
    change the total, so no report with unequal masses exists."""

    weighted_g: int
    weighted_gprime: int
    weighted_gdoubleprime: int
    final_bound: int
    swap_steps: tuple[SwapStep, ...]
    prefix: tuple[tuple[int, int, int, str], ...]

    @property
    def weighted_monotone(self) -> bool:
        return self.weighted_g <= self.weighted_gprime <= self.weighted_gdoubleprime

    @property
    def prefix_ok(self) -> bool:
        return all(run <= cap for _, run, cap, _ in self.prefix)

    @property
    def final_ok(self) -> bool:
        return self.weighted_gdoubleprime <= self.final_bound

    @property
    def ok(self) -> bool:
        return (self.weighted_monotone and self.prefix_ok and self.final_ok
                and all(s.holds for s in self.swap_steps))


def verify_chain(g: CoeffVector) -> ChainReport:
    """Run the full rebalancing chain on a stage-g vector and report every
    monotonicity, prefix and swap checkpoint."""
    gp = to_gprime(g)
    gpp = to_gdoubleprime(gp)
    n, t, k, m = g.n, g.t, g.k, g.m
    mid = (n + t) // 2
    steps = []
    for j in range(1, m + 1):
        lhs, rhs = _fold_step(n, t, k, j)
        steps.append(SwapStep(j=j, lhs=lhs, rhs=rhs, active=gp.value(j) > 0))
    final = n * sum(binomial(n, mid + i) for i in range(k))
    return ChainReport(
        weighted_g=weighted_sum(g),
        weighted_gprime=weighted_sum(gp),
        weighted_gdoubleprime=weighted_sum(gpp),
        final_bound=final,
        swap_steps=tuple(steps),
        prefix=tuple(prefix_bounds(gpp)),
    )


@dataclass(frozen=True, slots=True)
class DominanceCheck:
    holds: bool
    difference: int


def rearrangement_dominance(a, b, d) -> DominanceCheck:
    """Mass shifted toward the large weights wins: if every proper suffix
    of a carries at most the mass of b's suffix, totals agree, and d is
    non-increasing, then sum(a_i d_i) >= sum(b_i d_i).

    Returns the exact difference.  Violated preconditions are reported
    individually.
    """
    a, b, d = list(a), list(b), list(d)
    problems = []
    if not (len(a) == len(b) == len(d)):
        problems.append("length mismatch")
    if any(x < 0 for x in a + b + d):
        problems.append("negative entries")
    if any(d[i] < d[i + 1] for i in range(len(d) - 1)):
        problems.append("d is not non-increasing")
    if sum(a) != sum(b):
        problems.append("totals differ")
    for j in range(1, len(a)):
        if sum(a[j:]) > sum(b[j:]):
            problems.append(f"suffix {j} of a exceeds suffix of b")
            break
    if problems:
        raise PreconditionError("; ".join(problems))
    diff = sum(x * y for x, y in zip(a, d)) - sum(x * y for x, y in zip(b, d))
    return DominanceCheck(holds=diff >= 0, difference=diff)
