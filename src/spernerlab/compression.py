"""Size-band normalization of t-intersecting k-Sperner families.

Two rewriting passes, each of which never shrinks the family and preserves
both defining properties:

* up_compress lifts the bottom layer through its shades until every member
  has size at least ceil((n+t)/2) - (k-1);
* down_shift peels the family into at most k antichains and replaces each
  antichain's oversized tail by its shadow at a per-antichain threshold.

normalize composes the two, landing all member sizes in the band
[ceil((n+t)/2) - m, ceil((n+t)/2) + k - 1 + m] for some 0 <= m <= k-1.
Counting facts that the underlying arguments guarantee are checked at run
time; a failure raises InvariantViolation (a bug trap, never a valid
outcome).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

from .families import (
    Family,
    InvariantViolation,
    Params,
    PreconditionError,
    _add_one,
    _chain_levels,
    _drop_one,
    _lattice,
    _masks_of,
    _walk,
    is_t_intersecting,
    longest_chain,
    shade,
    shadow,
)


@dataclass(frozen=True, slots=True)
class NormalizationReport:
    """What a normalization pass did.

    m is the attained band half-width (ceil((n+t)/2) minus the final
    minimum size, clamped at 0), c the down-shift parameter actually
    applied, steps a trace of (operation, size before, size after), and
    band the final (min size, max size) or None for an empty family.
    """

    m: int
    c: int
    steps: tuple[tuple[str, int, int], ...]
    band: tuple[int, int] | None


def _report(fam: Family, params: Params, c: int, steps) -> NormalizationReport:
    """The report of a pass that applied c and steps and produced fam."""
    band = (fam.min_size(), fam.max_size()) if len(fam) else None
    m = max(0, params.half_up - band[0]) if band else 0
    return NormalizationReport(m=m, c=c, steps=tuple(steps), band=band)


def _validate(fam: Family, params: Params, who: str) -> list[int]:
    """Refuse a family that is not a t-intersecting k-Sperner family over
    [n]; return its _chain_levels otherwise."""
    if fam.n != params.n:
        raise PreconditionError(f"{who}: family over [{fam.n}] but params.n={params.n}")
    if not is_t_intersecting(fam, params.t):
        raise PreconditionError(f"{who}: family is not {params.t}-intersecting")
    levels = _chain_levels(fam)
    if len(levels) > params.k:
        raise PreconditionError(f"{who}: family has a chain longer than k={params.k}")
    return levels


def shade_expansion_holds(fam: Family, params: Params, i: int) -> bool:
    """Check |shade_{i+1}(layer_i)| >= |layer_i| for a t-intersecting family.

    Guaranteed whenever i <= floor((n+t-1)/2); a False return would expose
    a bug, not a legitimate outcome.
    """
    if i > (params.n + params.t - 1) // 2:
        raise PreconditionError(f"shade expansion needs i <= floor((n+t-1)/2), got i={i}")
    if not is_t_intersecting(fam, params.t):
        raise PreconditionError("shade expansion requires a t-intersecting family")
    layer = Family(fam.n, fam.layer(i))
    return len(shade(layer, i + 1)) >= len(layer)


def up_compress(fam: Family, params: Params) -> tuple[Family, NormalizationReport]:
    """Lift all members to size >= ceil((n+t)/2) - (k-1) without losing
    cardinality or either defining property.

    One round replaces the bottom layer L_i by its (i+1)-shade and cascades
    the displaced copies upward (shade of the overlap with the next layer,
    and so on) until the overlap dies out, which happens within k levels.
    Rounds repeat until the floor is reached.
    """
    _validate(fam, params, "up_compress")
    return _up_compress(fam, params)


def _up_compress(fam: Family, params: Params) -> tuple[Family, NormalizationReport]:
    """up_compress on a family already known to be valid; fam itself when
    no round lifts."""
    n, k = params.n, params.k
    target = params.band(k - 1)[0]
    steps: list[tuple[str, int, int]] = []
    cur = fam
    rounds = 0
    while len(cur) and cur.min_size() < target:
        rounds += 1
        if rounds > n + 1:
            raise InvariantViolation("up_compress failed to terminate")
        i = cur.min_size()
        bottom = cur.layer(i)
        # cascade on lattice bitsets: H_i = bottom layer; H_{j+1} = shade(H_j)
        # meet layer j+1 of cur, which is members at that level: earlier
        # lifts lie at or below j.  The rest of cur is a suffix of its order.
        members = _lattice(cur.members[len(bottom):], n)
        h = _lattice(bottom, n)
        j = i
        while h:
            if j >= i + k:
                raise InvariantViolation(
                    "up_compress cascade ran past k levels: input had a chain longer than k")
            lifted = _add_one(h, n)
            h = lifted & members
            members |= lifted
            j += 1
        nxt = Family(n, _masks_of(members, n))
        if len(nxt) < len(cur):
            raise InvariantViolation(
                f"up_compress round at level {i} shrank the family "
                f"({len(cur)} -> {len(nxt)}): shade expansion failed")
        steps.append((f"lift_level_{i}", len(cur), len(nxt)))
        cur = nxt
    return cur, _report(cur, params, 0, steps)


def antichain_shadow_holds(fam: Family, j: int) -> bool:
    """Check |shadow_j(fam)| >= |fam| for an antichain living above the
    middle, floor(n/2) <= j <= min size.

    Double counting guarantees this; False is a bug trap.
    """
    if len(fam) == 0:
        return True
    if longest_chain(fam) > 1:
        raise PreconditionError("shadow expansion requires an antichain")
    mn = fam.min_size()
    if 2 * mn <= fam.n:
        raise PreconditionError("antichain must have minimum size > n/2")
    if not fam.n // 2 <= j <= mn:
        raise PreconditionError(f"need floor(n/2) <= j <= {mn}, got j={j}")
    return len(shadow(fam, j)) >= len(fam)


def down_shift(fam: Family, params: Params) -> tuple[Family, NormalizationReport]:
    """Pull oversized members down so the maximum size lands below
    ceil((n+t)/2) + c + k - 1, where c is the deficiency of the minimum
    size below ceil((n+t)/2) (clamped at 0 when the family already sits
    above the middle).

    Members are peeled into antichains; in the j-th antichain everything
    above the threshold ceil((n+t)/2) + c + j - 1 is replaced by its shadow
    at exactly that threshold.  Cardinality never drops and no set is
    created twice; either failure is a bug trap.
    """
    return _down_shift(fam, params, _validate(fam, params, "down_shift"))


def _down_shift(fam: Family, params: Params, levels) -> tuple[Family, NormalizationReport]:
    """down_shift on a family already known to be valid, levels being its
    _chain_levels; fam itself when no antichain reaches above its
    threshold."""
    n, ms = fam.n, fam.members
    mid = params.half_up
    # The literal parameter may be negative for families living entirely
    # above the middle; thresholds below the middle would not keep the
    # family t-intersecting, so clamp at 0 (see design notes).
    c = max(0, mid - fam.min_size()) if ms else 0
    if len(levels) > params.k:
        raise InvariantViolation(
            "peeling needed more than k antichains: input had a chain longer than k")
    # the j-th antichain holds the members of chain height j, which is what
    # repeatedly removing the minimal sets peels off
    merged = 0
    steps: list[tuple[str, int, int]] = []
    for idx, (level, above) in enumerate(zip(levels, levels[1:] + [0]), start=1):
        antichain = level & ~above
        threshold = mid + c + idx - 1
        # the members larger than the threshold are a suffix of the order
        high = antichain & _lattice(ms[bisect_right(ms, threshold, key=int.bit_count):], n)
        piece = antichain
        if high:
            layers = (high & _lattice(fam.layer(size), n)
                      for size in range(fam.max_size(), threshold, -1))
            piece = antichain ^ high | _drop_one(_walk(layers, _drop_one, n), n)
            before, after = antichain.bit_count(), piece.bit_count()
            if after < before:
                raise InvariantViolation(
                    f"down_shift antichain {idx} shrank ({before} -> {after})")
            steps.append((f"shift_antichain_{idx}_to_{threshold}", before, after))
        if merged & piece:
            raise InvariantViolation("down_shift produced a duplicate set across antichains")
        merged |= piece
    # with no step the antichains are the members as they were
    out = Family(n, _masks_of(merged, n)) if steps else fam
    if len(out) < len(fam):
        raise InvariantViolation(f"down_shift shrank the family ({len(fam)} -> {len(out)})")
    return out, _report(out, params, c, steps)


def normalize(fam: Family, params: Params) -> tuple[Family, NormalizationReport]:
    """up_compress then down_shift: land every member size in
    [ceil((n+t)/2) - m, ceil((n+t)/2) + k - 1 + m] with 0 <= m <= k-1,
    never losing cardinality.  The input is checked once, as up_compress
    checks it, and the up pass keeps both properties; its chain levels
    serve the down pass when no round lifted."""
    levels = _validate(fam, params, "normalize")
    lifted, up_rep = _up_compress(fam, params)
    shifted, rep = _down_shift(lifted, params,
                               levels if lifted is fam else _chain_levels(lifted))
    if rep.band:
        m = params.half_up - rep.band[0]
        if not 0 <= m <= params.k - 1:
            raise InvariantViolation(f"normalize landed outside the band: m={m}, k={params.k}")
        top = params.band(m)[1]
        if rep.band[1] > top:
            raise InvariantViolation(f"normalize max size {rep.band[1]} exceeds band top {top}")
        if len(shifted) < len(fam):
            raise InvariantViolation("normalize shrank the family")
    return shifted, replace(rep, steps=up_rep.steps + rep.steps)
