"""The three workloads: their fixed inputs, operations and output checks.

Each operation runs the program the way a user does, through
`spernerlab.cli.main(argv)`, or through the public `search.g_function`
where the command line offers nothing.  Only that call is timed.  Its
output is then checked against `checks`, which shares no code with the
program.  The seed changes the order of the oracle's cells, the seeds
handed to `scan` and `cycle-audit`, and the labelling of the ground set
in every family the `families` workload feeds to the program; none of
these changes a fact, so `facts` and every record repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
from checks import require

NAMES = ("oracle", "audit", "families")

# oracle: n <= 7 proves in at most 111k nodes per cell; n in {8, 9} and
# g_function run to a frontier budget under which 8 search cells and 3 g
# cells stay unproven.  The time budget never trips, so outputs depend on
# node counts alone, never on machine speed.
FULL_BUDGET = 1_000_000
FRONTIER_BUDGET = 5_000
NO_TIME_LIMIT = "1e9"
G_CELLS = ((7, 2, 2), (8, 3, 2), (9, 4, 2), (8, 1, 3), (9, 2, 3))

# audit: the acceptance cells of the cycle checks plus two t = 1 cells
SCAN_TRIALS = 300
CYCLE_CELLS = ((12, 2, 1), (14, 2, 2), (16, 2, 3), (18, 2, 3), (21, 3, 3), (24, 4, 2),
               (32, 4, 3), (15, 1, 2), (21, 1, 3))
CYCLE_TRIALS = 40

# families: in-band constructions of 2,079 to 5,005 members, then two
# inputs that make each compression pass do work
CONSTRUCTIONS = (("layers", 14, 2, 2), ("layers", 13, 3, 3), ("A", 13, 2, 2),
                 ("B", 13, 2, 2))


@dataclass
class Op:
    """One timed call.  `verify` checks the call's result and returns the
    facts it certifies and a record that must repeat exactly."""

    name: str
    call: Callable[[], object]
    verify: Callable[[object], tuple[int, object]]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class Context:
    """Per-process state: the scratch directory and the output byte count."""

    def __init__(self, tmp: str, seed: int):
        self.tmp = tmp
        self.rng = random.Random(seed)
        self.bytes_out = 0

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def cli(self, argv) -> Callable[[], CliResult]:
        from spernerlab import cli

        argv = [str(a) for a in argv]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return CliResult(code, out.getvalue(), err.getvalue())
        return call

    def read(self, res: CliResult, out_name: str, expect: int = 0):
        """Check the exit code and the cache, count the bytes, and parse and
        remove the --out file, so that no later round can read it."""
        require("cache hit" not in res.stderr, "the on-disk cache answered")
        require(res.code == expect, f"exit code {res.code}, expected {expect}: "
                f"{res.stderr.strip()[-300:]}")
        path = self.path(out_name)
        self.bytes_out += len(res.stdout)
        if not os.path.exists(path):
            return None
        self.bytes_out += os.path.getsize(path)
        with open(path) as fh:
            doc = json.load(fh)
        os.remove(path)
        return doc

    def write_family(self, name: str, n: int, masks):
        with open(self.path(name), "w") as fh:
            json.dump({"n": n, "sets": checks.sets_of(
                sorted(masks, key=lambda m: (m.bit_count(), m)), n)}, fh)


# ------------------------------------------------------------------ oracle

def oracle(ctx: Context) -> list[Op]:
    cells = [(n, t, k) for n in range(2, 10) for t in range(1, n) for k in (1, 2, 3)]
    ops = [_search_op(ctx, *cell) for cell in cells]
    ops += [_g_op(*cell) for cell in G_CELLS]
    ctx.rng.shuffle(ops)
    return ops


def _search_op(ctx, n, t, k) -> Op:
    budget = FULL_BUDGET if n <= 7 else FRONTIER_BUDGET
    out = f"search-{n}-{t}-{k}.json"
    call = ctx.cli(["search", "--n", n, "--t", t, "--k", k, "--use-compression", "--no-cache",
                    "--budget-nodes", budget, "--budget-secs", NO_TIME_LIMIT,
                    "--out", ctx.path(out)])

    def verify(res):
        doc = ctx.read(res, out)
        proven = checks.verify_search(doc, n, t, k)
        return int(proven), [doc["best_size"], proven, doc["nodes"]]
    return Op(f"search {n} {t} {k}", call, verify)


def _g_op(n, t, k) -> Op:
    from spernerlab import search
    from spernerlab.families import Params

    def call():
        return search.g_function(Params(n=n, t=t, k=k),
                                 search.Budget(nodes=FRONTIER_BUDGET, seconds=float(NO_TIME_LIMIT)))

    def verify(res):
        _, w = checks.masks_of(res.witness.to_json_dict(), n)
        checks.verify_g(res.value, res.shade_size, w, n, t, k)
        return int(res.proven_optimal), [res.value, res.proven_optimal, res.nodes]
    return Op(f"g_function {n} {t} {k}", call, verify)


# ------------------------------------------------------------------- audit

def scan_record_count(trials: int, n_max: int) -> int:
    """How many records `scan` writes: one per check instance it runs."""
    even_cells = sum(3 for n in range(2, n_max + 1) for t in range(1, n) if (n + t) % 2 == 0)
    classical = sum(2 + n for n in range(2, min(n_max, 5) + 1))
    per10 = max(1, trials // 10)
    return (even_cells + 1 + 1          # even-case oracle, odd small case, B closed form
            + 2 * trials                # compression invariants, uniform shadow ratio
            + 5 * per10                 # cycle universals on five cells
            + 2 * max(1, trials // 6)   # averaging identity at n = 4 and 5
            + classical + 2             # classical bounds, intersecting k-Sperner at n = 4, 5
            + 2 * per10                 # shade expansion, antichain shadow
            + 10 + 1)                   # binomial swap pairs, rearrangement dominance


def audit(ctx: Context) -> list[Op]:
    ops = [_scan_op(ctx, "scan", ctx.rng.randrange(1, 10**6), SCAN_TRIALS, 6, inject=False),
           _scan_op(ctx, "scan-negative-control", ctx.rng.randrange(1, 10**6), 1, 2,
                    inject=True)]
    ops += [_cycle_op(ctx, n, t, k, ctx.rng.randrange(1, 10**6)) for n, t, k in CYCLE_CELLS]
    return ops


def _scan_op(ctx, name, seed, trials, n_max, inject) -> Op:
    out = f"{name}.json"
    argv = ["scan", "--seed", seed, "--trials", trials, "--n-max", n_max, "--no-cache",
            "--out", ctx.path(out)] + (["--inject-violation"] if inject else [])

    def verify(res):
        doc = ctx.read(res, out, expect=1 if inject else 0)
        recs = doc["records"]
        require(doc["seed"] == seed, "scan reports another seed")
        require(len(recs) == scan_record_count(trials, n_max) + inject,
                f"scan wrote {len(recs)} records, expected "
                f"{scan_record_count(trials, n_max) + inject}")
        bad = [r for r in recs if r["verdict"] != "holds"]
        if inject:
            require(len(bad) == 1 and bad[0]["check"] == "injected_negative_control"
                    and bad[0]["verdict"] == "violated" and bad[0]["witness_path"]
                    and os.path.exists(bad[0]["witness_path"]),
                    "the injected violation was not reported with its witness")
            os.remove(bad[0]["witness_path"])
            return 0, len(recs)
        require(not bad, f"scan verdict {bad[0]['verdict']} on {bad[0]['check']} "
                f"{bad[0]['params']}" if bad else "")
        for r in recs:
            if r["check"] in ("even_case_oracle", "classical_milner", "classical_sperner",
                              "classical_k_layers", "classical_intersecting_k_sperner"):
                require(r["margin"] == 0, f"scan {r['check']} {r['params']} margin "
                        f"{r['margin']}")
        counts: dict[str, int] = {}
        for r in recs:
            counts[r["check"]] = counts.get(r["check"], 0) + 1
        return len(recs), counts
    return Op(name, ctx.cli(argv), verify)


def _cycle_op(ctx, n, t, k, seed) -> Op:
    out = f"cycle-{n}-{t}-{k}.json"
    call = ctx.cli(["cycle-audit", "--n", n, "--t", t, "--k", k, "--trials", CYCLE_TRIALS,
                    "--seed", seed, "--out", ctx.path(out)])

    def verify(res):
        doc = ctx.read(res, out)
        trials = doc["trials"]
        require(len(trials) == CYCLE_TRIALS and doc["violations"] == 0,
                f"cycle-audit {(n, t, k)}: {doc['violations']} violations")
        for tr in trials:
            require(tr["ok"] and all(r["holds"] for r in tr["inequalities"])
                    and tr["side_families_disjoint"] and tr["weight_monotone"],
                    f"cycle-audit {(n, t, k)} trial {tr['trial']} fails")
            require(tr["complement_closure"] is (None if t == 1 else True),
                    f"cycle-audit {(n, t, k)} trial {tr['trial']}: complement closure "
                    f"{tr['complement_closure']}")
            require(0 <= tr["m"] <= k - 1, f"cycle-audit {(n, t, k)}: m={tr['m']}")
        return len(trials), len(trials)
    return Op(f"cycle-audit {n} {t} {k}", call, verify)


# ---------------------------------------------------------------- families

def families(ctx: Context) -> list[Op]:
    perms = {}
    for n in (13, 14):
        perm = list(range(n))
        ctx.rng.shuffle(perm)
        perms[n] = perm
    ops = []
    for which, n, t, k in CONSTRUCTIONS:
        ops += _construction_ops(ctx, which, n, t, k, perms[n])
    n, t, k = 14, 2, 2
    fixed = {
        "star": checks.layer(n, 5, 0b11) + checks.layer(n, 6, 0b11),  # below the band
        "top-heavy": checks.layer(n, 10) + checks.layer(n, 11),       # above it
        "chain": [(1 << s) - 1 for s in (8, 9, 10)],                  # k+1 nested sets
        "disjoint": [0b1111111, 0b1111111 << 7],                      # not t-intersecting
    }
    for tag, masks in fixed.items():
        fixed[tag] = checks.relabel(masks, perms[n])
        ctx.write_family(f"{tag}.json", n, fixed[tag])
    ops.append(_compress_op(ctx, "star", n, t, k, fixed["star"]))
    ops.append(_compress_op(ctx, "top-heavy", n, t, k, fixed["top-heavy"]))
    # negative controls: the program must refuse these two
    ops.append(_check_op(ctx, "chain", n, t, k, fixed["chain"], refusal=True))
    out = "compress-disjoint.json"

    def refused(res):
        require(ctx.read(res, out, expect=2) is None, "compress wrote an output for a "
                "family that is not t-intersecting")
        return 0, res.code
    ops.append(Op("compress disjoint", ctx.cli(["compress", ctx.path("disjoint.json"), "--t", t,
                                                 "--k", k, "--out", ctx.path(out)]), refused))
    return ops


def _construction_ops(ctx, which, n, t, k, perm) -> list[Op]:
    """construct, then check and compress its relabelled output."""
    tag = f"{which}-{n}-{t}-{k}"
    out = f"construct-{tag}.json"
    made: list[int] = []  # filled, and written as the next input, once construct is checked

    def verify(res):
        masks = checks.verify_construct(ctx.read(res, out), which, n, t, k)
        made[:] = checks.relabel(masks, perm)
        ctx.write_family(f"{tag}.json", n, made)
        return 1, len(masks)
    construct = Op(f"construct {tag}", ctx.cli(["construct", "--which", which, "--n", n,
                                               "--t", t, "--k", k, "--out", ctx.path(out)]),
                   verify)
    return [construct, _check_op(ctx, tag, n, t, k, made), _compress_op(ctx, tag, n, t, k, made)]


def _check_op(ctx, tag, n, t, k, masks, refusal=False) -> Op:
    """check on the family in <tag>.json, whose masks are `masks`."""
    out = f"check-{tag}.json"

    def verify(res):
        doc = ctx.read(res, out)
        checks.verify_check(doc, masks, n, t, k)
        require(doc["k_sperner"] != refusal, f"check {tag}: k_sperner={doc['k_sperner']}")
        return int(not refusal), [doc["size"], doc["longest_chain"]]
    return Op(f"check {tag}", ctx.cli(["check", ctx.path(f"{tag}.json"), "--t", t, "--k", k,
                                       "--out", ctx.path(out)]), verify)


def _compress_op(ctx, tag, n, t, k, masks) -> Op:
    """compress on the family in <tag>.json, whose masks are `masks`."""
    out = f"compress-{tag}.json"

    def verify(res):
        return 1, checks.verify_compress(ctx.read(res, out), masks, n, t, k)
    return Op(f"compress {tag}", ctx.cli(["compress", ctx.path(f"{tag}.json"), "--t", t,
                                          "--k", k, "--out", ctx.path(out)]), verify)


BUILDERS = {"oracle": oracle, "audit": audit, "families": families}
