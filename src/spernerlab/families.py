"""Canonical bitmask representation of subset families over [n].

Subsets of [n] are n-bit integers (bit i-1 set means element i is in the
set).  A Family is an immutable, deduplicated, canonically sorted tuple of
such masks together with its ground-set size.  All counting is exact
(Python integers), all comparisons of rational bounds are done by
cross-multiplication.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

# Enumeration paths materialize subsets explicitly; formula-only operations
# (binomials, bound tables) accept much larger n.
MAX_ENUM_N = 24
MAX_FORMULA_N = 10_000


class PreconditionError(ValueError):
    """An operation was called outside its stated hypotheses."""


class InvariantViolation(RuntimeError):
    """A counting fact that must always hold failed: a bug trap, never a
    legitimate outcome."""


def binomial(n: int, r: int) -> int:
    """Exact C(n, r); 0 when r < 0 or r > n.  Total for n >= 0."""
    if n < 0:
        raise PreconditionError(f"binomial requires n >= 0, got n={n}")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def mask_from(elements, n: int) -> int:
    """Build a subset mask from an iterable of 1-based elements."""
    m = 0
    for e in elements:
        if type(e) is not int or not 1 <= e <= n:
            raise PreconditionError(f"element {e!r} outside ground set [{n}]")
        m |= 1 << (e - 1)
    return m


# _BYTE_ELEMENTS[b][v]: the 1-based elements of byte value v at byte b of a mask
_BYTE_ELEMENTS = tuple(tuple(tuple(8 * b + e + 1 for e in range(8) if v >> e & 1)
                             for v in range(256)) for b in range((MAX_ENUM_N + 7) // 8))


def elements_of(mask: int) -> list[int]:
    """1-based sorted element list of a subset mask over [n], n <= MAX_ENUM_N."""
    out, rest = [], mask
    for table in _BYTE_ELEMENTS:
        out += table[rest & 255]
        rest >>= 8
    if rest:
        raise PreconditionError(f"mask {mask} is not a subset of [{MAX_ENUM_N}]")
    return out


@dataclass(frozen=True, slots=True)
class Params:
    """The problem triple (n, t, k).

    n is the ground-set size, t the pairwise intersection floor, k the
    longest allowed chain.  Parity of n + t decides which formulas apply;
    `even_case` is always recomputed from n and t.
    """

    n: int
    t: int
    k: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_FORMULA_N:
            raise PreconditionError(f"need 1 <= n <= {MAX_FORMULA_N}, got {self.n}")
        if not 1 <= self.t <= self.n:
            raise PreconditionError(f"need 1 <= t <= n, got t={self.t}, n={self.n}")
        if not 1 <= self.k <= MAX_FORMULA_N + 1:  # no chain over [n] has more than n + 1 sets
            raise PreconditionError(f"need 1 <= k <= {MAX_FORMULA_N + 1}, got k={self.k}")

    @property
    def even_case(self) -> bool:
        return (self.n + self.t) % 2 == 0

    @property
    def half_up(self) -> int:
        """ceil((n+t)/2): the lowest middle layer; equals (n+t)/2 when n+t
        is even."""
        return (self.n + self.t + 1) // 2

    def half_width(self, shortest: int) -> int:
        """max(0, ceil((n+t)/2) - shortest): the half-width m of the
        smallest band that reaches down to a shortest member of that size."""
        return max(0, self.half_up - shortest)

    def band(self, m: int) -> tuple[int, int]:
        """The size band of half-width m, [ceil((n+t)/2) - m,
        ceil((n+t)/2) + k - 1 + m]: the k middle sizes widened by m on each
        side.  Compression lands a family in it for some 0 <= m <= k-1."""
        return self.half_up - m, self.half_up + self.k - 1 + m


@dataclass(frozen=True, slots=True, repr=False)
class Family:
    """Immutable family of subsets of [n] in canonical order.

    Canonical order is (cardinality, numeric value); members are
    deduplicated.  Layer extraction is therefore a contiguous slice.
    Built from any iterable of masks.
    """

    n: int
    members: tuple[int, ...] = ()

    def __post_init__(self):
        n = self.n
        if not 1 <= n <= MAX_ENUM_N:
            raise PreconditionError(f"family ground set needs 1 <= n <= {MAX_ENUM_N}, got {n}")
        full = (1 << n) - 1
        masks = list(self.members)  # kept in input order for the error message
        seen = set(masks)
        if seen and (min(seen) < 0 or max(seen) > full):
            bad = next(m for m in masks if not 0 <= m <= full)
            raise PreconditionError(f"mask {bad} has bits outside [{n}]")
        # stable sort by cardinality over the numeric order: (cardinality, value)
        object.__setattr__(self, "members", tuple(sorted(sorted(seen), key=int.bit_count)))

    @classmethod
    def from_sets(cls, n: int, sets) -> "Family":
        return cls(n, (mask_from(s, n) for s in sets))

    def to_sets(self) -> list[list[int]]:
        return [elements_of(m) for m in self.members]

    @classmethod
    def from_json_dict(cls, d) -> "Family":
        if (not isinstance(d, dict) or type(d.get("n")) is not int
                or not isinstance(d.get("sets"), list)
                or not all(isinstance(s, list) for s in d["sets"])):
            raise PreconditionError("family JSON needs an integer 'n' and a list of lists 'sets'")
        return cls.from_sets(d["n"], d["sets"])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "sets": self.to_sets()}

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self):
        return f"Family(n={self.n}, members={len(self.members)})"

    def layer(self, i: int) -> tuple[int, ...]:
        """All members of cardinality i (a contiguous slice of members)."""
        lo = bisect_left(self.members, i, key=int.bit_count)
        hi = bisect_right(self.members, i, key=int.bit_count)
        return self.members[lo:hi]

    def profile(self) -> dict[int, int]:
        """Map cardinality -> number of members of that cardinality."""
        prof: dict[int, int] = {}
        for m in self.members:
            c = m.bit_count()
            prof[c] = prof.get(c, 0) + 1
        return prof

    def min_size(self) -> int:
        if not self.members:
            raise PreconditionError("empty family has no minimum size")
        return self.members[0].bit_count()

    def max_size(self) -> int:
        if not self.members:
            raise PreconditionError("empty family has no maximum size")
        return self.members[-1].bit_count()


@functools.cache
def _bit_clear(n: int, i: int) -> int:
    """Lattice bitset (bit X set for mask X) of every mask over [n] with
    bit i clear: runs of 2^i ones with period 2^(i+1), built by doubling."""
    x = (1 << (1 << i)) - 1
    width = 2 << i
    while width < 1 << n:
        x |= x << width
        width <<= 1
    return x


def _lattice(masks, n: int) -> int:
    """The masks as one lattice bitset over [n]."""
    b = bytearray(((1 << n) + 7) >> 3)
    for m in masks:
        b[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(b, "little")


def _as_bytes(bits: int, n: int) -> bytes:
    """A lattice bitset as bytes: bit X is b[X >> 3] >> (X & 7) & 1.  Shifting
    the int instead would copy all 2^n bits on every lookup."""
    return bits.to_bytes(((1 << n) + 7) >> 3, "little")


def _masks_of(bits: int, n: int) -> list[int]:
    """The masks in a lattice bitset over [n], ascending.  The scan for
    nonzero bytes runs in C, so Python work follows the masks, not 2^n;
    each byte's masks come off the element table of byte 0."""
    b = _as_bytes(bits, n)
    return [8 * i + e - 1 for i in itertools.compress(range(len(b)), b)
            for e in _BYTE_ELEMENTS[0][b[i]]]


def _add_one(bits: int, n: int) -> int:
    """Every mask over [n] that is a mask in bits plus one element."""
    out = 0
    for i in range(n):
        out |= (bits & _bit_clear(n, i)) << (1 << i)
    return out


def _drop_one(bits: int, n: int) -> int:
    """Every mask that is a mask in bits minus one element."""
    out = 0
    for i in range(n):
        out |= (bits >> (1 << i)) & _bit_clear(n, i)
    return out


def _up_closure(bits: int, n: int) -> int:
    """Every mask over [n] that contains some mask in bits."""
    for i in range(n):
        bits |= (bits & _bit_clear(n, i)) << (1 << i)
    return bits


def is_t_intersecting(fam: Family, t: int) -> bool:
    """True iff every unordered pair of members meets in >= t elements.

    Vacuously true for families with at most one member.  Otherwise, once
    every member has at least t elements, a member A meets another member
    in fewer than t elements iff [n] minus A contains a member with at most
    t-1 of its elements deleted.  So: t-1 deletion passes and one
    up-closure on the lattice, then one lookup per member.
    """
    if t < 0:
        raise PreconditionError("t must be >= 0")
    ms = fam.members
    if t == 0 or len(ms) < 2:
        return True
    if ms[0].bit_count() < t:
        return False
    n = fam.n
    near = _lattice(ms, n)
    for _ in range(t - 1):
        near |= _drop_one(near, n)
    up = _as_bytes(_up_closure(near, n), n)
    full = (1 << n) - 1
    for a in ms:
        x = full ^ a
        if up[x >> 3] >> (x & 7) & 1:
            return False
    return True


def _chain_levels(fam: Family) -> list[int]:
    """Lattice bitsets of the members by chain height: entry h - 1 holds
    the members of height >= h, where a member's height is the number of
    sets in the longest chain of members that ends at it.

    Each round keeps those members of the last level that strictly contain
    one of them (the up-closure of the masks one element above them).  By
    Mirsky's theorem the height classes, level h minus level h + 1, are
    antichains, and the longest chain is the number of levels.
    """
    n = fam.n
    levels = []
    level = _lattice(fam.members, n)
    while level:
        levels.append(level)
        level &= _up_closure(_add_one(level, n), n)
    return levels


def chain_heights(fam: Family) -> list[int]:
    """For each member, in canonical order, the number of sets in the
    longest chain of members that ends at it."""
    n, ms = fam.n, fam.members
    heights = [0] * len(ms)
    for h, level in enumerate(_chain_levels(fam), start=1):
        b = _as_bytes(level, n)
        for i, m in enumerate(ms):
            if b[m >> 3] >> (m & 7) & 1:
                heights[i] = h
    return heights


def include_in_chains(below, above, sup, sub, i, bit, chosen, k):
    """(below, above, closes) once item i joins the chosen items: below[d]
    (above[d]) is the bitmask of the items with a chain of d + 1 chosen
    items strictly below (above) them, and closes that of the items that
    would close a chain of k + 1.  sup[j] and sub[j] are the items strictly
    above and below item j, bit is item i's own bits, and chosen the
    indices of the chosen items, i not among them."""
    new = []
    for levels, rel in ((below, sup), (above, sub)):
        h = 1
        while h <= k and levels[h - 1] & bit:
            h += 1
        # the items beyond i get chains of up to h through i, h - 1 being
        # i's own height, and of h + j through j chosen items beyond it
        reach = rel[i]
        levels = (*map(reach.__or__, levels[:h]), *levels[h:])
        while h < k and reach & chosen:
            step, reach = reach & chosen, 0
            while step:
                low = step & -step
                reach |= rel[low.bit_length() - 1]
                step ^= low
            levels = (*levels[:h], levels[h] | reach, *levels[h + 1:])
            h += 1
        new.append(levels)
    new_below, new_above = new
    closes = new_below[k - 1] | new_above[k - 1]
    for d in range(k - 1):
        closes |= new_below[d] & new_above[k - 2 - d]
    return new_below, new_above, closes


def longest_chain_members(fam: Family) -> list[int]:
    """One longest nested chain inside fam, from its top member down ([]
    if empty).

    The top is the first member of maximal height; each step back goes to
    the first earlier member, in canonical order, of one less height that
    is a proper subset.
    """
    ms = fam.members
    if not ms:
        return []
    heights = chain_heights(fam)
    h = max(heights)
    i = heights.index(h)
    out = [ms[i]]
    while h > 1:
        h -= 1
        a = ms[i]
        i = next(j for j in range(i) if heights[j] == h and ms[j] & a == ms[j])
        out.append(ms[i])
    return out


def longest_chain(fam: Family) -> int:
    """Number of sets in the longest nested chain inside fam (0 if empty)."""
    return len(_chain_levels(fam))


def is_k_sperner(fam: Family, k: int) -> bool:
    return longest_chain(fam) <= k


def layer_masks(n: int, size: int, required: int = 0, forbidden: int = 0):
    """The size-subsets of [n] that contain `required` and avoid
    `forbidden`, as masks in combination order; none when size is below
    |required| or above n."""
    free = [1 << i for i in range(n) if not (required | forbidden) >> i & 1]
    want = size - required.bit_count()
    if want >= 0:  # combinations() refuses a negative length
        for comb in itertools.combinations(free, want):
            yield required + sum(comb)


def _walk(layers, step, n: int) -> int:
    """OR lattice bitsets of consecutive sizes, one size at a time, and
    step (_drop_one or _add_one) the union once before each layer joins:
    the result holds the last layer and every set of its size that lies
    below (above) a mask of an earlier layer."""
    walk = 0
    for bits in layers:
        walk = step(walk, n) | bits
    return walk


def shadow(fam: Family, level: int) -> Family:
    """All level-subsets of members of size >= level.

    On a uniform family of size r this is the usual shadow; on mixed
    families every member at or above the level contributes.  The walk
    starts at the top layer and drops one element per size.
    """
    n = fam.n
    if not 0 <= level <= n:
        raise PreconditionError(f"shadow level must lie in [0, {n}]")
    top = fam.max_size() if fam.members else level
    layers = (_lattice(fam.layer(size), n) for size in range(top, level - 1, -1))
    return Family(n, _masks_of(_walk(layers, _drop_one, n), n))


def shade(fam: Family, level: int) -> Family:
    """All level-supersets (within [n]) of members of size <= level: the
    mirror walk of shadow, from the bottom layer up."""
    n = fam.n
    if not 0 <= level <= n:
        raise PreconditionError(f"shade level must lie in [0, {n}]")
    bottom = fam.min_size() if fam.members else level
    layers = (_lattice(fam.layer(size), n) for size in range(bottom, level + 1))
    return Family(n, _masks_of(_walk(layers, _add_one, n), n))


def complement_family(fam: Family) -> Family:
    """{[n] \\ F : F in fam}; an involution."""
    full = (1 << fam.n) - 1
    return Family(fam.n, (full ^ m for m in fam.members))


def weight(fam: Family) -> int:
    """Sum of C(n, |G|) over members G: the cycle method's currency."""
    n = fam.n
    return sum(math.comb(n, m.bit_count()) for m in fam.members)


@dataclass(frozen=True, slots=True)
class ShadowRatioCheck:
    """Outcome of the uniform shadow lower-bound check: the shadow size
    and the exact rational lower bound it must meet."""

    holds: bool
    shadow_size: int
    required: Fraction


def verify_katona_shadow(fam: Family, r: int, t: int, level: int) -> ShadowRatioCheck:
    """Check |Delta_level(fam)| >= C(2r-t, level)/C(2r-t, r) * |fam| for an
    r-uniform t-intersecting family, r - t <= level <= r.

    The comparison is exact (cross-multiplied integers), never floating
    point.  Inputs violating a hypothesis raise PreconditionError naming it.
    """
    if len(fam) and not all(m.bit_count() == r for m in fam.members):
        raise PreconditionError("family is not r-uniform")
    if not is_t_intersecting(fam, t):
        raise PreconditionError("family is not t-intersecting")
    if not r - t <= level <= r:
        raise PreconditionError(f"need r - t <= level <= r, got level={level}")
    sh = len(shadow(fam, level))
    num = binomial(2 * r - t, level)
    den = binomial(2 * r - t, r)
    if den == 0:
        raise PreconditionError("degenerate ratio: C(2r-t, r) = 0")
    holds = sh * den >= num * len(fam)
    return ShadowRatioCheck(holds=holds, shadow_size=sh, required=Fraction(num * len(fam), den))
