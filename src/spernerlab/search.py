"""Exact maximum sizes of t-intersecting k-Sperner families by branch and
bound, plus the named constructions and closed-form bound table.

The oracle branches first on the size s of a minimum-size member, which can
be relabeled to {1..s}.  The cycle bound may close a root branch before its
first node; the others run a depth-first include/exclude search over the
remaining candidate masks.  The root cap, the three prunes and the
symmetry cut:

* the cycle bound (Katona's averaging, JCT B 1972), once per root branch
  (s, hi) when t >= 1 and n >= 3: `cycle.cycle_bound_at_most` decides
  whether every t-intersecting k-Sperner family with member sizes in
  [s, hi] has at most the incumbent's size, and if so the branch closes.
  Averaged over the (n-1)! cyclic orders, the members of such a family
  that are arcs weigh n|F|, so |F| <= W/n for W the heaviest family of
  arcs with lengths in [s, min(hi, n-1)] that pairwise meet in t
  positions and hold no k + 1 nested arcs.  [n] is an arc of no order;
  when hi >= n it may be a member, the others then hold no k nested sets,
  and |F| <= max(W_k/n, W_(k-1)/n + 1).  The bound covers every family
  with sizes in [s, hi], the branch's among them, so `proven` stays exact.
  The arc search's nodes count into the search's nodes under the same
  budget: a budget spent inside it leaves the result unproven;
* pairwise intersection conflicts filter the pool on every inclusion;
* an exact incremental chain tracker, `families.include_in_chains`, drops
  candidates that would close a chain of k+1 nested members;
* upper bounds: remaining-count and a symmetric-chain-decomposition cap
  (at most k live members, chosen or in the pool, per chain);
* orbital branching (Ostrowski, Linderoth, Rossi, Smriglio, "Orbital
  branching", Math. Programming 2011), also in g_function.  At a node let
  G be the relabellings of [n] that fix every chosen set: {1..s} and the
  included members here, the included members alone in g_function.  G is
  the product of the symmetric groups on the Venn atoms of those sets, so
  two candidates share a G-orbit iff they meet every atom in the same
  number of elements.  The include child is unchanged; the exclude child
  drops the whole orbit of the branch candidate i from the pool, not only
  i.  G fixes every chosen set, so the conflicts, the band, the k = 1
  filter and the tracker's levels are G-invariant; each excluded orbit is
  a union of orbits of every descendant's smaller group; so the pool is
  G-invariant at every node.  A family below the node that holds some j
  in the orbit of i then maps, under a relabelling in G, to one of the
  same size and objective that holds i, and the include subtree, explored
  first, leaves an incumbent at least as good.

The chain cap is read from an incrementally maintained live vector: the
sum over the live members of one packed vector per member, a counter per
symmetric chain.  The branch candidate, the most conflicted one in the
pool, lowest index first, is read from bit planes, as in bit-parallel
maximum-clique search (San Segundo, Rodriguez-Losada, Jimenez,
Computers & OR 2011): plane b holds bit b of each pool candidate's count of
t-conflicts in the pool, and a walk down the planes keeps the candidates
whose bit is set wherever some are.  Both ride on the explicit stack next
to the pool; a child lowers the counts of the t-conflicts of the candidates
it removes with a borrow up the planes, and subtracts the vectors of all
but the include child's own candidate, which stays live.

The t-conflict, superset and subset relations are bit formulas over
has[x], the candidates that hold element x: the supersets of m are the AND
of has[x] over x in m, its subsets the candidates outside the OR of has[x]
over x not in m, and its t-conflicts the OR of t saturating count levels,
level c holding the candidates that meet the elements of m read so far in
exactly c of them.  The elements are read from the top down, so a candidate
starts from the states of the one before at their highest differing
element.  These equal the pair-by-pair relations, where a t-conflict is
never also counted as nested, because every candidate meets {1..s} in at
least t elements (in g_function, all have the same size, at least t): a
nested pair meets in at least t elements and is no t-conflict.

Two plans: with `use_compression` the candidate sizes are confined to the
band the compression transforms land in, the justification recorded in the
result notes per parity; without it every size is searched, as ground
truth.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

from .cycle import cycle_bound_at_most
from .families import (
    MAX_ENUM_N,
    MAX_FORMULA_N,
    Family,
    InvariantViolation,
    Params,
    PreconditionError,
    binomial,
    include_in_chains,
    is_t_intersecting,
    layer_masks,
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

    def __post_init__(self):
        # nan compares false, so it is refused instead of lifting the limit
        if not (self.nodes >= 1 and self.seconds > 0):
            raise PreconditionError(
                f"budget needs nodes >= 1 and seconds > 0, got {self.nodes} and {self.seconds}")


@dataclass(frozen=True, slots=True)
class SearchResult:
    best_size: int
    witness: Family
    proven_optimal: bool
    nodes: int
    notes: tuple[str, ...]


def _refine(atoms, mask):
    """The Venn atoms of the chosen sets once mask joins them: each atom
    split into its parts inside and outside mask, empty parts dropped."""
    return [p for a in atoms for p in (a & mask, a ^ a & mask) if p]


def _holders(masks, n):
    """has[x]: the bitmask of the indices j with element x in masks[j],
    read off column n - 1 - x of the masks' binary digits, last mask first."""
    if not masks:
        return [0] * n
    rows = [format(m, f"0{n}b") for m in reversed(masks)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def _fold_elements(masks, n, start, step):
    """Yield per mask m, in order, the state after step(state, x, m >> x & 1)
    is applied for x from n - 1 down to 0, starting from start.  The state
    after the elements >= x depends on those bits alone, so each mask
    starts from the last one's state at its highest differing element."""
    # states[x]: the state after the elements >= x of the last mask read
    states = [None] * n + [start]
    last = 1 << n
    for m in masks:
        for x in range(min((m ^ last).bit_length(), n) - 1, -1, -1):
            states[x] = step(states[x + 1], x, m >> x & 1)
        yield states[0]
        last = m


def _count_step(has):
    """The step for _fold_elements whose state is a list of count levels
    over the candidates (has is _holders of the candidate list): level c
    holds the candidates that hold exactly c of the elements read so far.
    The list keeps its length, so a candidate that reaches it leaves."""
    def step(levels, x, held):
        if not held:
            return levels
        h = has[x]
        return [levels[0] & ~h, *(hi & ~h | lo & h for lo, hi in zip(levels, levels[1:]))]
    return step


def _count_classes(masks, has):
    """A memoized map from an atom (a mask over [n]) to its count classes:
    entry c is the bitmask of the indices j with |masks[j] & atom| = c.
    It serves orbital branching only, so it holds the classes of the Venn
    atoms the searches reach."""
    n = len(has)
    start, step = [(1 << len(masks)) - 1, *[0] * n], _count_step(has)
    return functools.cache(lambda atom: next(_fold_elements((atom,), n, start, step)))


def _t_conflicts(masks, has, t):
    """Per candidate, the bitmask of the candidates that meet it in fewer
    than t elements, from t count levels; has is _holders(masks, n)."""
    if not t:
        return [0] * len(masks)
    start = [(1 << len(masks)) - 1, *[0] * (t - 1)]
    return list(map(sum, _fold_elements(masks, len(has), start, _count_step(has))))


def _relations(masks, has, t):
    """Per candidate i, bitmasks over the candidate indices: tconf[i], the
    candidates that meet masks[i] in fewer than t elements; sup[i] and
    sub[i], the other candidates that contain it and that it contains.
    The supersets of m hold every element of m, its subsets none outside
    it.  Every candidate has at least t elements, so no candidate is a
    t-conflict of itself.  has is _holders(masks, n)."""
    everyone = (1 << len(masks)) - 1

    def step(state, x, held):
        inside, outside = state
        return (inside & has[x], outside) if held else (inside, outside | has[x])
    sup, sub = [], []
    for i, (inside, outside) in enumerate(_fold_elements(masks, len(has), (everyone, 0), step)):
        sup.append(inside ^ 1 << i)
        sub.append(everyone ^ outside ^ 1 << i)
    return _t_conflicts(masks, has, t), sup, sub


def _orbit(classes, atoms, mask):
    """Bitmask of the candidate indices in the orbit of mask under the
    relabellings that fix every atom setwise: the candidates that meet each
    atom in as many elements as mask does.  classes is _count_classes of
    the candidate list."""
    orbit = -1
    for a in atoms:
        orbit &= classes(a)[(mask & a).bit_count()]
    return orbit


def _most_conflicted(pool, planes):
    """The index of the pool candidate with the most t-conflicts in the
    pool, lowest index first.  planes[b] holds bit b of each pool
    candidate's count; pool is not empty."""
    cand = pool
    for plane in reversed(planes):
        top = cand & plane
        if top:
            cand = top
    return (cand & -cand).bit_length() - 1


def _drop(packed, planes, vec, tconf, pool, gone):
    """Take the candidates in the bitmask gone, already out of pool, off the
    live vector and the conflict counts: packed minus vec[j] for each j in
    gone, and planes with the count of each candidate in pool & tconf[j]
    lowered by one.  Each such count still includes j, so no borrow runs
    past the top plane.  Returns (packed, planes), the caller's planes
    unchanged."""
    planes = planes.copy()
    while gone:
        low = gone & -gone
        j = low.bit_length() - 1
        packed -= vec[j]
        borrow = tconf[j] & pool
        b = 0
        while borrow:
            plane = planes[b] ^ borrow
            planes[b] = plane
            borrow &= plane
            b += 1
        gone ^= low
    return packed, planes


def _greedy_matching(pool, tconf):
    """The size of a greedy matching of t-conflicting pairs in pool: the
    lowest candidate left is matched with its lowest t-conflict left, if
    any, and both leave.  tconf is symmetric and what is left only shrinks,
    so a candidate without a partner at its turn never gets one later."""
    matched = 0
    while pool:
        low = pool & -pool
        pool ^= low
        other = pool & tconf[low.bit_length() - 1]
        if other:
            matched += 1
            pool ^= other & -other
    return matched


def _max_family_engine(n: int, t: int, k: int, branches, budget: Budget,
                       seeds) -> tuple[int, tuple[int, ...], bool, int, list]:
    """Branch and bound over the root branches (s, hi), in order: in each,
    the minimum-size member is exactly {1..s} and every member size lies in
    [s, hi].  One incumbent, the first largest seed to start with, is shared
    across the branches.  Returns (best, witness, proven, nodes, closed);
    proven is False when the node or time budget ran out first, and closed
    lists the branches the cycle bound closed before their first node."""
    node_cap, deadline = budget.nodes, time.monotonic() + budget.seconds
    witness = max(seeds, key=len, default=())
    best, nodes, closed = len(witness), 0, []
    bit_count = int.bit_count
    for s, hi in branches:
        if t and s and n >= 3:
            shut, nodes = cycle_bound_at_most(n, t, k, s, hi, best, nodes, node_cap, deadline)
            if shut is None:
                return best, witness, False, nodes, closed
            if shut:
                closed.append((s, hi))
                continue
        chosen0 = (1 << s) - 1
        # with k = 1 no member may contain the pinned minimum member
        masks = [m for size in range(s, hi + 1) for m in layer_masks(n, size)
                 if m != chosen0 and (not t or (m & chosen0).bit_count() >= t)
                 and (k >= 2 or (m & chosen0) != chosen0)]
        masks.sort(key=lambda m: (-math.comb(n, m.bit_count()), m.bit_count(), m))
        C = len(masks)
        has = _holders(masks, n)
        classes = _count_classes(masks, has)
        tconf, sup, sub = _relations(masks, has, t)
        # One packed vector per member, a w-bit counter per symmetric chain;
        # packed is their sum over the live ones, chosen or in the pool.  A
        # counter stays below n + 2 and its top bit is a guard that the test
        # below sets without carrying further.
        chain_of = {}
        w = max(n + 1, k).bit_length() + 1
        vec = [1 << w * chain_of.setdefault(scd_anchor(m, n), len(chain_of)) for m in masks]
        c0 = chain_of.setdefault(scd_anchor(chosen0, n), len(chain_of))
        # Bit-sliced conflict counts: planes[b] holds bit b of each pool
        # candidate's number of t-conflicts in the pool.
        degree = [tc.bit_count() for tc in tconf]
        planes = [sum(1 << j for j, d in enumerate(degree) if d >> b & 1)
                  for b in range(max(degree, default=0).bit_length())]
        unit = sum(1 << w * c for c in range(len(chain_of)))
        guard = unit << w - 1
        # counter + ge[j - 1] has its guard bit set iff the counter is >= j
        ge = [unit * ((1 << w - 1) - j) for j in range(1, k + 1)]
        # below[h - 1]: candidates with a chain of h chosen members strictly
        # below them; above[h - 1] likewise strictly above.  chosen holds the
        # included indices: the pinned member contains no candidate, so no
        # chain walk needs to pass through it.
        below = (sum(1 << i for i, m in enumerate(masks) if (m & chosen0) == chosen0),
                 *[0] * (k - 1))
        above = (0,) * k
        chosen = 0
        if not best:
            best, witness = 1, (chosen0,)
        # the Venn atoms of the chosen sets, for orbital branching
        atoms = _refine([(1 << n) - 1], chosen0)

        # Depth-first include/exclude search in preorder: a node, its include
        # child's subtree, then its exclude child.  The stack holds, per
        # include still open, what the exclude child needs; its included
        # indices are the chosen members after the pinned one.  A child
        # takes the candidates it removes off planes, and those that leave
        # the family for good off packed.
        stack = []
        pool, packed, cc = (1 << C) - 1, sum(vec) + (1 << w * c0), 1
        while True:
            nodes += 1
            if nodes > node_cap or not nodes % 4096 and time.monotonic() > deadline:
                return best, witness, False, nodes, closed
            size = pool.bit_count()
            if (cc + size > best
                    # at most k live members per symmetric chain
                    and sum(map(bit_count, map(guard.__and__, map(packed.__add__, ge)))) > best):
                i = _most_conflicted(pool, planes)
                bit = 1 << i
                stack.append((pool, packed, planes, cc, i, below, above, atoms, chosen))
                # drop every candidate that would close a chain of k + 1
                below, above, closes = include_in_chains(below, above, sup, sub, i, bit,
                                                         chosen, k)
                gone = pool & (tconf[i] | bit | closes)
                pool ^= gone
                # i leaves the pool but stays live
                packed, planes = _drop(packed, planes, vec, tconf, pool, gone ^ bit)
                chosen |= bit
                if len(atoms) < n:
                    atoms = _refine(atoms, masks[i])
                cc += 1
                if cc > best:
                    best = cc
                    witness = (chosen0, *(masks[f[4]] for f in stack))
                continue
            if not stack:
                break
            pool, packed, planes, cc, i, below, above, atoms, chosen = stack.pop()
            # once every atom is a singleton the orbit is {i}
            gone = pool & (_orbit(classes, atoms, masks[i]) if len(atoms) < n else 1 << i)
            pool ^= gone
            packed, planes = _drop(packed, planes, vec, tconf, pool, gone)
    return best, witness, True, nodes, closed


CONSTRUCTIONS = ("layers", "A", "B")


def _pieces(params: Params, which: str):
    """Construction `which` as layer pieces (size, required, forbidden, sign):
    the size-subsets of [n] that contain `required` and avoid `forbidden`,
    added (sign 1) or cut out of an earlier piece (sign -1)."""
    if which not in CONSTRUCTIONS:
        raise PreconditionError(f"unknown construction {which!r}: choose from {CONSTRUCTIONS}")
    if params.even_case != (which == "layers"):
        raise PreconditionError(
            f"construction {which} needs n + t {'even' if which == 'layers' else 'odd'}")
    lo, hi = params.band(0)
    if which == "layers":
        return [(size, 0, 0, 1) for size in range(lo, hi + 1)]
    middle = [(size, 0, 0, 1) for size in range(lo, hi)]
    prefix = (1 << params.t) - 1
    if which == "A":
        return [(lo - 1, 0, 1 << params.n - 1, 1), *middle]
    return [(lo - 1, prefix, 0, 1), *middle, (hi, 0, 0, 1), (hi, prefix, 0, -1)]


def construct(params: Params, which: str) -> Family:
    """The members of construction `which`: "layers", the k layers from
    (n+t)/2 for n + t even, or an odd-parity candidate "A" or "B"."""
    pieces = _pieces(params, which)
    n = params.n
    if n > MAX_ENUM_N:
        raise PreconditionError(f"a construction enumerates subsets: needs n <= {MAX_ENUM_N}")
    members = set()
    for size, required, forbidden, sign in pieces:
        masks = layer_masks(n, size, required, forbidden)
        if sign > 0:
            members.update(masks)
        else:
            members.difference_update(masks)
    return Family(n, members)


def construction_size(params: Params, which: str) -> int:
    """|construct(params, which)| by binomial counts alone, for any n the
    Params accept."""
    return sum(sign * binomial(params.n - (required | forbidden).bit_count(),
                               size - required.bit_count())
               for size, required, forbidden, sign in _pieces(params, which))


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
    if not t:
        # no intersection constraint: the k largest layers
        sizes = sorted(range(n + 1), key=lambda i: (-math.comb(n, i), i))[:k]
        return [tuple(m for size in sizes for m in layer_masks(n, size))]
    seeds = []
    for which in CONSTRUCTIONS:
        try:
            seeds.append(tuple(construct(Params(n=n, t=t, k=k), which).members))
        except PreconditionError:  # t > n, or the other parity
            pass
    return seeds


def max_family_size(n: int, t: int, k: int, *, use_compression=False,
                    budget: Budget | None = None) -> SearchResult:
    """Exact maximum size of a t-intersecting k-Sperner family over [n].

    t = 0 disables the intersection constraint (classical Sperner/Erdos
    territory).  `use_compression` confines the search to the band the
    normalization transforms land in, which preserves the true optimum;
    without it every member size is searched.
    """
    if budget is None:
        budget = Budget()
    if n > MAX_ENUM_N:
        raise PreconditionError(f"exhaustive search enumerates subsets: needs n <= {MAX_ENUM_N}")
    if n < 1 or t < 0 or not 1 <= k <= MAX_FORMULA_N + 1:
        raise PreconditionError(f"engine needs n >= 1, t >= 0, 1 <= k <= {MAX_FORMULA_N + 1}")
    notes = []
    lo = 0 if t == 0 else 1
    if use_compression:
        if (n + t) % 2 == 0:
            notes.append(
                "size band justified by the shade lift and shadow down-shift transforms (n+t even)")
        else:
            notes.append(
                "minimum-size floor licensed by the shade lift; odd-parity ceiling uses the "
                "ceil-variant down-shift (documented extension)")
        band = Params(n, t, k).band  # needs 1 <= t <= n: refuses t = 0 and t > n
        # one branch (s, band top) per band(m), m = k-1 .. 0; s <= its top
        branches = [(s, min(n, up)) for s, up in map(band, range(k - 1, -1, -1))
                    if lo <= s <= n]
    else:
        branches = [(s, n) for s in range(lo, n + 1)]
    best, witness, proven, nodes, closed = _max_family_engine(
        n, t, k, branches, budget, _construction_seeds(n, t, k))
    notes += [f"root branch with member sizes [{s}, {hi}] closed by the cycle bound"
              for s, hi in closed]
    if not proven:
        notes.append("budget exceeded: best found so far, optimality not proven")
        if nodes <= budget.nodes:
            notes.append("the time budget ran out first: the result depends on machine speed")
    fam = Family(n, witness)
    if (len(fam) != best or not is_t_intersecting(fam, t) or longest_chain(fam) > k
            or any(m.bit_count() < lo for m in fam)):
        raise InvariantViolation(
            f"search ({n},{t},{k}) returned a witness that is not a {t}-intersecting "
            f"{k}-Sperner family of size {best} with member sizes in {[lo, n]}")
    return SearchResult(best_size=best, witness=fam,
                        proven_optimal=proven, nodes=nodes, notes=tuple(notes))


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
    union.  The greedy matching cap is a function of the pool alone, as
    tconf is fixed for the call, so one memo per call maps each pool to it:
    the search reaches a pool again through other chosen sets, and every
    pruning decision stays the same."""
    if params.even_case:
        raise PreconditionError("the g function is defined for n + t odd")
    if budget is None:
        budget = Budget()
    n, t, k = params.n, params.t, params.k
    if n > MAX_ENUM_N:
        raise PreconditionError(
            f"the g-function search enumerates a layer: needs n <= {MAX_ENUM_N}")
    base = params.band(0)[0] - 1
    top = base + k
    layer = list(layer_masks(n, base))
    layer.sort()
    top_index = {m: i for i, m in enumerate(layer_masks(n, top))}
    shades = [sum(1 << top_index[sm] for sm in layer_masks(n, top, required=m)) for m in layer]
    has = _holders(layer, n)
    classes = _count_classes(layer, has)
    tconf = _t_conflicts(layer, has, t)
    matching = functools.cache(lambda pool: _greedy_matching(pool, tconf))
    best, witness = 0, ()
    nodes, proven = 0, True
    deadline = time.monotonic() + budget.seconds
    # preorder: a node, its include child's subtree, then its exclude child;
    # the stack holds, per include still open, what the exclude child needs,
    # and its included indices are the chosen members
    stack = []
    pool, shade_union, cc, atoms = (1 << len(layer)) - 1, 0, 0, [(1 << n) - 1]
    while True:
        nodes += 1
        if nodes > budget.nodes or not nodes % 4096 and time.monotonic() > deadline:
            proven = False
            break
        obj = cc - shade_union.bit_count()
        if obj > best:
            best = obj
            witness = tuple(layer[f[3]] for f in stack)
        cap = pool.bit_count()
        if obj + cap > best:
            # each pair of a matching of conflicting pool candidates
            # contributes at most one future member
            if obj + cap - matching(pool) > best:
                i = (pool & -pool).bit_length() - 1
                stack.append((pool, shade_union, cc, i, atoms))
                pool &= ~(tconf[i] | 1 << i)
                shade_union |= shades[i]
                cc += 1
                if len(atoms) < n:
                    atoms = _refine(atoms, layer[i])
                continue
        if not stack:
            break
        pool, shade_union, cc, i, atoms = stack.pop()
        pool &= ~(_orbit(classes, atoms, layer[i]) if len(atoms) < n else 1 << i)
    fam = Family(n, witness)
    shade_size = len(shade(fam, top)) if top <= n else 0
    if (any(m.bit_count() != base for m in fam) or not is_t_intersecting(fam, t)
            or best != len(fam) - shade_size):
        raise InvariantViolation(
            f"g_function ({n},{t},{k}) returned a witness that does not attain "
            f"{best} inside the {t}-intersecting families of layer {base}")
    return GFunctionResult(value=best, witness=fam, shade_size=shade_size,
                           proven_optimal=proven, nodes=nodes)


@dataclass(frozen=True, slots=True)
class BoundEntry:
    """A bound's value, None where it does not apply to (n, t, k)."""

    value: int | None
    note: str


def bounds_table(params: Params) -> dict[str, BoundEntry]:
    """Exact values of every named classical bound and construction size
    for (n, t, k), by name."""
    n, t, k = params.n, params.t, params.k
    e = {}
    e["sperner"] = BoundEntry(binomial(n, n // 2), "maximum antichain")
    largest = sorted((binomial(n, i) for i in range(n + 1)), reverse=True)[:k]
    e["erdos_k_layers"] = BoundEntry(sum(largest), "maximum k-Sperner family")
    e["milner"] = BoundEntry(binomial(n, (n + t + 1) // 2), "maximum t-intersecting antichain")
    if t == 1:
        if n % 2:
            v = sum(binomial(n, i) for i in range((n + 1) // 2, (n + 1) // 2 + k))
            note = "intersecting k-Sperner, odd n"
        else:
            v = (binomial(n - 1, n // 2 - 1)
                 + sum(binomial(n, i) for i in range(n // 2 + 1, n // 2 + k))
                 + binomial(n - 1, n // 2 + k))
            note = "intersecting k-Sperner, even n"
        e["frankl_intersecting"] = BoundEntry(v, note)
    else:
        e["frankl_intersecting"] = BoundEntry(None, "requires t = 1")
    if params.even_case:
        e["even_case_k_layers"] = BoundEntry(construction_size(params, "layers"),
                                             "k middle layers from (n+t)/2")
        e["odd_A_size"] = BoundEntry(None, "requires n + t odd")
        e["odd_B_size"] = BoundEntry(None, "requires n + t odd")
        e["odd_B_closed_form"] = BoundEntry(None, "requires n + t odd")
    else:
        e["even_case_k_layers"] = BoundEntry(None, "requires n + t even")
        e["odd_A_size"] = BoundEntry(construction_size(params, "A"), "construction A")
        e["odd_B_size"] = BoundEntry(construction_size(params, "B"), "construction B, piecewise")
        e["odd_B_closed_form"] = BoundEntry(size_B_closed_form(params),
                                            "construction B, closed form")
    return e
