"""Checkers and closed forms written apart from spernerlab.

Nothing here imports the package under test.  Families are lists of
bitmasks over [n] (bit i-1 set means element i is a member).  The two
defining predicates work on the whole subset lattice at once, holding a
set of masks as one Python integer with bit X set when mask X is in it,
so a 5,005-member family over [15] is checked in milliseconds rather than
by the N^2 pair loop the program itself runs.

Run this file directly to self-test every checker on hand-made bad inputs.
"""

from __future__ import annotations

import functools
import itertools
import math


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def comb(n: int, r: int) -> int:
    return math.comb(n, r) if 0 <= r <= n else 0


# ------------------------------------------------------------ set families

@functools.lru_cache(maxsize=None)
def _without_bit(n: int, i: int) -> int:
    """Lattice bitset of every mask X over [n] with bit i clear."""
    block = (1 << (1 << i)) - 1          # 2^i ones: the masks below bit i
    period = 1 << (i + 1)
    out = 0
    for base in range(0, 1 << n, period):
        out |= block << base
    return out


def lattice(masks) -> int:
    out = 0
    for m in masks:
        out |= 1 << m
    return out


def up_closure(bits: int, n: int) -> int:
    """Every superset of some member, as a lattice bitset."""
    for i in range(n):
        bits |= (bits & _without_bit(n, i)) << (1 << i)
    return bits


def is_t_intersecting(masks, n: int, t: int) -> bool:
    """Every two distinct members share at least t elements.

    A member A meets some other member B in fewer than t elements iff B lies
    inside ([n] minus A) plus S for some S inside A with |S| <= t-1.
    """
    masks = list(masks)
    if t <= 0 or len(masks) < 2:
        return True
    if min(m.bit_count() for m in masks) < t:
        return False  # such a member meets every other in fewer than t
    up = up_closure(lattice(masks), n)
    full = (1 << n) - 1
    for a in masks:
        elems = [1 << i for i in range(n) if a >> i & 1]
        outside = full ^ a
        for r in range(t):
            for sub in itertools.combinations(elems, r):
                if up >> (outside | sum(sub)) & 1:
                    return False
    return True


def longest_chain(masks, n: int) -> int:
    """Length of the longest chain of nested members, by DP over the
    subset lattice: level j holds the members that top a chain of j."""
    fam = lattice(masks)
    level, length = fam, 0
    while level:
        length += 1
        above = 0  # masks that strictly contain a member of `level`
        for i in range(n):
            above |= (level & _without_bit(n, i)) << (1 << i)
        level = fam & up_closure(above, n)
    return length


def profile(masks) -> dict[int, int]:
    out: dict[int, int] = {}
    for m in masks:
        out[m.bit_count()] = out.get(m.bit_count(), 0) + 1
    return out


def weight(masks, n: int) -> int:
    return sum(comb(n, m.bit_count()) for m in masks)


def shade_size(masks, n: int, level: int) -> int:
    """|{X : |X| = level, X contains some member}|."""
    up = up_closure(lattice(masks), n)
    return sum(1 for x in range(1 << n) if up >> x & 1 and x.bit_count() == level)


def masks_of(doc, n_expected: int | None = None) -> tuple[int, list[int]]:
    """Masks of a canonical family JSON dict, checking its format."""
    n = doc["n"]
    require(n_expected is None or n == n_expected, f"family over [{n}], expected [{n_expected}]")
    masks = []
    for s in doc["sets"]:
        require(list(s) == sorted(set(s)) and all(1 <= e <= n for e in s),
                f"set {s} is not a sorted subset of [{n}]")
        masks.append(sum(1 << (e - 1) for e in s))
    require(len(set(masks)) == len(masks), "family lists a set twice")
    return n, masks


def sets_of(masks, n: int) -> list[list[int]]:
    return [[i + 1 for i in range(n) if m >> i & 1] for m in masks]


def relabel(masks, perm) -> list[int]:
    """Image of each mask under the element permutation i -> perm[i]."""
    out = []
    for m in masks:
        x = 0
        for i, p in enumerate(perm):
            if m >> i & 1:
                x |= 1 << p
        out.append(x)
    return out


def layer(n: int, size: int, required: int = 0) -> list[int]:
    free = [i for i in range(n) if not required >> i & 1]
    want = size - required.bit_count()
    if want < 0:
        return []
    return [required | sum(1 << i for i in c) for c in itertools.combinations(free, want)]


# ------------------------------------------------------------ closed forms

def k_largest_layers(n: int, k: int) -> int:
    """Erdos: the most members a k-Sperner family over [n] can have."""
    return sum(sorted((comb(n, i) for i in range(n + 1)), reverse=True)[:k])


def middle_layers(n: int, t: int, k: int) -> int:
    """The k layers from (n+t)/2, n+t even: the even-parity optimum."""
    return sum(comb(n, (n + t) // 2 + i) for i in range(k))


def milner(n: int, t: int) -> int:
    """Largest t-intersecting antichain over [n]."""
    return comb(n, (n + t + 1) // 2)


def frankl(n: int, k: int) -> int:
    """Largest intersecting k-Sperner family over [n]."""
    if n % 2:
        return middle_layers(n, 1, k)
    h = n // 2
    return (comb(n - 1, h - 1) + sum(comb(n, h + i) for i in range(1, k))
            + comb(n - 1, h + k))


def size_a(n: int, t: int, k: int) -> int:
    """Candidate A, n+t odd: the s-layer avoiding n, then layers s+1..s+k-1."""
    s = (n + t - 1) // 2
    return comb(n - 1, s) + sum(comb(n, s + i) for i in range(1, k))


def size_b(n: int, t: int, k: int) -> int:
    """Candidate B, n+t odd: s-sets holding {1..t}, layers s+1..s+k-1, and
    the (s+k)-sets not holding {1..t}."""
    s = (n + t - 1) // 2
    return (comb(n - t, s - t) + sum(comb(n, s + i) for i in range(1, k))
            + comb(n, s + k) - comb(n - t, s + k - t))


def cell_bounds(n: int, t: int, k: int) -> tuple[int, int, int | None]:
    """(lower, upper, exact) for the largest t-intersecting k-Sperner
    family over [n]; exact is None where no closed form applies."""
    upper = k_largest_layers(n, k)
    if (n + t) % 2 == 0:
        exact = middle_layers(n, t, k)
        return exact, upper, exact
    lower = max(size_a(n, t, k), size_b(n, t, k))
    exact = milner(n, t) if k == 1 else frankl(n, k) if t == 1 else None
    return lower, upper, exact


# ------------------------------------------------------- output verifiers

def check_family(masks, n: int, t: int, k: int, what: str):
    require(is_t_intersecting(masks, n, t), f"{what}: not {t}-intersecting")
    require(longest_chain(masks, n) <= k, f"{what}: holds a chain longer than {k}")


def verify_search(doc, n: int, t: int, k: int) -> bool:
    """Check one `search` output; returns whether the cell is proven."""
    require((doc["n"], doc["t"], doc["k"]) == (n, t, k), "search answered another cell")
    _, w = masks_of(doc["witness"], n)
    require(len(w) == doc["best_size"], "witness size differs from best_size")
    check_family(w, n, t, k, f"witness of {(n, t, k)}")
    lower, upper, exact = cell_bounds(n, t, k)
    best = doc["best_size"]
    require(lower <= best <= upper, f"{(n, t, k)}: best {best} outside [{lower}, {upper}]")
    if doc["proven_optimal"] and exact is not None:
        require(best == exact, f"{(n, t, k)}: proven {best} but the closed form is {exact}")
    return doc["proven_optimal"]


def verify_g(value: int, shade: int, witness_masks, n: int, t: int, k: int):
    """g = |W| - |shade_top(W)| for a t-intersecting W in the base layer."""
    base = (n + t - 1) // 2
    require(all(m.bit_count() == base for m in witness_masks), "g witness leaves its layer")
    require(is_t_intersecting(witness_masks, n, t), "g witness is not t-intersecting")
    sh = shade_size(witness_masks, n, base + k)
    require(shade == sh, f"g shade size {shade}, recomputed {sh}")
    require(value == len(witness_masks) - sh, f"g value {value} != |W| - |shade| = "
            f"{len(witness_masks) - sh}")


def verify_check(doc, masks, n: int, t: int, k: int):
    """Check a `check` report against the family it describes."""
    chain = longest_chain(masks, n)
    want = {"n": n, "t": t, "k": k, "size": len(masks),
            "t_intersecting": is_t_intersecting(masks, n, t),
            "longest_chain": chain, "k_sperner": chain <= k,
            "layer_profile": {str(s): c for s, c in sorted(profile(masks).items())},
            "weight": weight(masks, n)}
    for key, val in want.items():
        require(doc[key] == val, f"check reports {key}={doc[key]!r}, expected {val!r}")


def verify_compress(doc, masks_in, n: int, t: int, k: int) -> int:
    """Check a `compress` output; returns its size."""
    _, out = masks_of(doc["family"], n)
    require(len(out) >= len(masks_in), f"compress shrank {len(masks_in)} -> {len(out)}")
    check_family(out, n, t, k, "compress output")
    mid = (n + t + 1) // 2
    lo = min(m.bit_count() for m in out)
    hi = max(m.bit_count() for m in out)
    m = max(0, mid - lo, hi - (mid + k - 1))  # the narrowest band [mid-m, mid+k-1+m] holding them
    require(m <= k - 1, f"compress sizes [{lo}, {hi}] outside every band around {mid}")
    rep = doc["report"]
    require((rep["size_before"], rep["size_after"]) == (len(masks_in), len(out)),
            "compress report sizes disagree with the families")
    return len(out)


def verify_construct(doc, which: str, n: int, t: int, k: int) -> list[int]:
    """Check a `construct` output; returns its masks."""
    _, masks = masks_of(doc["family"], n)
    size = {"layers": middle_layers, "A": size_a, "B": size_b}[which](n, t, k)
    require(len(masks) == doc["size"] == doc["size_formula"] == size,
            f"construct {which} {(n, t, k)}: size {len(masks)}, closed form {size}")
    check_family(masks, n, t, k, f"construct {which}")
    return masks


# ---------------------------------------------------------------- self-test

def _pairwise_min(masks) -> int:
    return min((a & b).bit_count() for a, b in itertools.combinations(masks, 2))


def _chain_by_pairs(masks) -> int:
    ms = sorted(masks, key=int.bit_count)
    best = [1] * len(ms)
    for i, a in enumerate(ms):
        for j in range(i):
            if ms[j] != a and a & ms[j] == ms[j]:
                best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def self_test():
    """Each checker must reject a hand-made bad input and accept a good one."""
    n = 6
    good = layer(n, 4)                                 # 4-sets of [6]: 2-intersecting
    require(is_t_intersecting(good, n, 2) and not is_t_intersecting(good, n, 3),
            "self-test: t-intersecting on the 4-layer")
    require(not is_t_intersecting([0b000111, 0b111000, 0b011110], n, 1),
            "self-test: two disjoint members passed as intersecting")
    chain = [0b1, 0b11, 0b111, 0b1111, 0b110000]
    require(longest_chain(chain, n) == 4 == _chain_by_pairs(chain),
            "self-test: longest chain of a nested run of 4")
    for trial in range(40):
        masks = [(m * 2654435761 + trial * 40503) % 64 for m in range(trial % 9 + 2)]
        masks = list(dict.fromkeys(masks))
        require(longest_chain(masks, n) == _chain_by_pairs(masks),
                f"self-test: lattice chain DP disagrees with the pair DP, trial {trial}")
        if len(masks) > 1:
            pm = _pairwise_min(masks)
            require(is_t_intersecting(masks, n, pm) and not is_t_intersecting(masks, n, pm + 1),
                    f"self-test: lattice intersection check disagrees, trial {trial}")
    require(shade_size([0b111], n, 4) == 3, "self-test: shade of one 3-set in [6]")
    require(frankl(4, 2) == 7 and milner(5, 1) == 10 and middle_layers(6, 2, 2) == 21
            and k_largest_layers(4, 2) == 10 and size_a(5, 2, 2) == 9
            and size_b(5, 2, 2) == 8, "self-test: closed forms at hand-counted cells")

    bad_search = {"n": 4, "t": 1, "k": 1, "best_size": 2, "proven_optimal": True,
                  "witness": {"n": 4, "sets": [[1, 2], [3, 4]]}}
    big_search = {"n": 4, "t": 1, "k": 1, "best_size": 5, "proven_optimal": False,
                  "witness": {"n": 4, "sets": sets_of(layer(4, 3) + [0b1111], 4)}}
    wrong_optimum = {"n": 4, "t": 2, "k": 1, "best_size": 3, "proven_optimal": True,
                     "witness": {"n": 4, "sets": sets_of(layer(4, 3)[:3], 4)}}
    require(_rejects(verify_search, bad_search, 4, 1, 1), "self-test: disjoint witness")
    require(_rejects(verify_search, big_search, 4, 1, 1), "self-test: witness with a chain")
    require(_rejects(verify_search, wrong_optimum, 4, 2, 1), "self-test: wrong proven optimum")
    require(not _rejects(verify_search, dict(wrong_optimum, best_size=4, witness={
        "n": 4, "sets": sets_of(layer(4, 3), 4)}), 4, 2, 1), "self-test: a correct search")
    w = [0b0111]  # base layer 3 of (n,t,k) = (5,2,1); shade at 4 has 2 sets
    require(_rejects(verify_g, 0, 2, w, 5, 2, 1), "self-test: wrong g value")
    require(not _rejects(verify_g, -1, 2, w, 5, 2, 1), "self-test: a correct g value")
    fam = layer(5, 3)
    report = {"n": 5, "t": 1, "k": 1, "size": 10, "t_intersecting": True,
              "longest_chain": 2, "k_sperner": False, "layer_profile": {"3": 10},
              "weight": 100}
    require(_rejects(verify_check, report, fam, 5, 1, 1), "self-test: wrong check report")
    require(not _rejects(verify_check, dict(report, longest_chain=1, k_sperner=True),
                         fam, 5, 1, 1), "self-test: a correct check report")
    lost = {"family": {"n": 5, "sets": sets_of(fam[:9], 5)},
            "report": {"size_before": 10, "size_after": 9}}
    require(_rejects(verify_compress, lost, fam, 5, 1, 1), "self-test: compress lost a set")
    low = {"family": {"n": 5, "sets": [[1], [1, 2]]},
           "report": {"size_before": 2, "size_after": 2}}
    require(_rejects(verify_compress, low, [0b1, 0b11], 5, 1, 2),
            "self-test: compress output outside the band")
    above = {"family": {"n": 5, "sets": sets_of(layer(5, 4), 5)},
             "report": {"size_before": 5, "size_after": 5}}
    require(not _rejects(verify_compress, above, layer(5, 4), 5, 1, 2),
            "self-test: compress output wholly above the middle layer")
    wide = layer(7, 4) + [0b1111111]  # sizes 4 and 7 around mid 4: m = 1 admits them at k = 3
    wide_doc = {"family": {"n": 7, "sets": sets_of(wide, 7)},
                "report": {"size_before": 36, "size_after": 36}}
    require(not _rejects(verify_compress, wide_doc, wide, 7, 1, 3),
            "self-test: compress output that needs m = 1 for its top")
    require(_rejects(verify_compress, wide_doc, wide, 7, 1, 2),
            "self-test: compress output wider than every band")
    short = {"size": 9, "size_formula": 9, "family": {"n": 5, "sets": sets_of(fam[:9], 5)}}
    require(_rejects(verify_construct, short, "layers", 5, 1, 1),
            "self-test: construction one set short")
    require(_rejects(masks_of, {"n": 3, "sets": [[2, 1]]}), "self-test: unsorted set")


if __name__ == "__main__":
    self_test()
    print("checkers: self-test passed")
