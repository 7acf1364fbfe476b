"""Command-line surface: every counting check as a runnable command.

Subcommands: check, compress, cycle-audit, coeff-audit, search, construct,
bounds, scan.  Exit codes: 0 all facts hold; 1 a checked fact was
violated or a bug trap (InvariantViolation) fired; 2 a usage error or
malformed input; any other exception propagates with its traceback.  All
file I/O uses the canonical family JSON format {"n": N, "sets": [[...], ...]}
with 1-based sorted elements; `check` and `compress` also read it under the
"family" key of what `construct` and `compress` write.

Output bytes are a pure function of (command, arguments, seed): no
timestamps or timings go into files (wall-clock summaries go to stderr).
Every JSON document written is `json.dumps(doc, sort_keys=True, indent=2)`
plus a newline, byte for byte; `_dump` is the one writer, and a hypothesis
test in tests/test_cli.py pins it to that expression.  A Family inside a
document is written as its `to_json_dict()`, but from the masks themselves:
no list of element lists is built on the way out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .families import (
    _BYTE_ELEMENTS,
    MAX_ENUM_N,
    Family,
    InvariantViolation,
    Params,
    PreconditionError,
    is_t_intersecting,
    longest_chain,
    verify_katona_shadow,
    weight,
)
from .compression import antichain_shadow_holds, normalize, shade_expansion_holds
from .coefficients import minimal_n0, profile_vector, rearrangement_dominance, verify_chain
from .cycle import averaging_identity, check_instance, fill_full, make_consecutive
from .generators import (
    random_antichain_above_middle,
    random_dominance_triple,
    random_full_consecutive,
    random_inner_family,
    random_sigma_ksti,
    random_uniform_t_intersecting,
    random_valid_family,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    Budget,
    CONSTRUCTIONS,
    bounds_table,
    construct,
    construction_size,
    max_family_size,
    size_B_closed_form,
)


def _dump(obj) -> str:
    """The one writer of output documents: `json.dumps(obj, sort_keys=True,
    indent=2) + "\\n"` byte for byte, with each Family in obj read as its
    to_json_dict() but written from its masks."""
    return _render(obj, "\n") + "\n"


def _render(x, nl: str) -> str:
    """x as indented json renders it at the depth whose line break plus
    indent is nl: its depth-0 rendering with every "\\n" replaced by nl,
    as json escapes the newlines inside strings."""
    if type(x) is str:
        return _quote(x)
    if type(x) is int:
        return str(x)
    if x is None or type(x) is bool:
        return "null" if x is None else "true" if x else "false"
    if type(x) is Family:
        return _render_family(x, nl)
    if not isinstance(x, (dict, list, tuple)):
        return json.dumps(x)
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    ind = nl + "  "
    sep = "," + ind
    if isinstance(x, dict):
        body = sep.join(_quote(k) + ": " + _render(v, ind) for k, v in sorted(x.items()))
        return "{" + ind + body + nl + "}"
    return "[" + ind + sep.join(_render(v, ind) for v in x) + nl + "]"


@cache
def _element_text(sep: str) -> tuple[tuple[str, ...], ...]:
    """_element_text(sep)[b][v]: sep before each element of byte value v at
    byte b of a mask, the elements read off families._BYTE_ELEMENTS."""
    return tuple(tuple("".join(sep + str(e) for e in elements) for elements in table)
                 for table in _BYTE_ELEMENTS)


def _render_family(fam: Family, nl: str) -> str:
    """_render of fam.to_json_dict(), each row read off the element text of
    its mask's bytes."""
    ind = nl + "  "
    head = "{" + ind + '"n": ' + str(fam.n) + "," + ind + '"sets": '
    if not fam.members:
        return head + "[]" + nl + "}"
    row_nl = ind + "  "
    lo, mid, hi = _element_text("," + row_nl + "  ")
    close = row_nl + "]"
    # a row's element text starts with a comma, which its bracket replaces
    rows = ["[" + (lo[m & 255] + mid[m >> 8 & 255] + hi[m >> 16])[1:] + close if m else "[]"
            for m in fam.members]
    return head + "[" + row_nl + ("," + row_nl).join(rows) + ind + "]" + nl + "}"


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path):
    """The JSON document in the file at path; too deep a nesting is malformed."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise PreconditionError(f"{path}: JSON nested too deeply to read") from None


def _load_family(path) -> Family:
    """A bare family document, or one holding it under "family" as the
    construct and compress outputs do."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "sets" not in doc:
        doc = doc.get("family", doc)
    return Family.from_json_dict(doc)


def _arcs(G) -> list[list[int]]:
    """An interval family as its [start, length] pairs: the witness format."""
    return [[iv.start, iv.length] for iv in G]


# ---------------------------------------------------------------- check

def cmd_check(args) -> int:
    fam = _load_family(args.family)
    p = Params(n=fam.n, t=args.t, k=args.k)
    chain = longest_chain(fam)
    m = max(0, p.half_up - fam.min_size()) if len(fam) else 0
    lo, hi = p.band(m)
    report = {
        "n": fam.n, "t": p.t, "k": p.k, "size": len(fam),
        "t_intersecting": is_t_intersecting(fam, p.t),
        "longest_chain": chain,
        "k_sperner": chain <= p.k,
        "layer_profile": {str(s): c for s, c in sorted(fam.profile().items())},
        "weight": weight(fam),
        "band": {"m": m, "lo": lo, "hi": hi,
                 "within": not len(fam) or fam.max_size() <= hi},
    }
    _emit(_dump(report), args.out)
    return 0


# ------------------------------------------------------------- compress

def cmd_compress(args) -> int:
    fam = _load_family(args.family)
    p = Params(n=fam.n, t=args.t, k=args.k)
    out, rep = normalize(fam, p)
    doc = {
        "family": out,
        "report": {"m": rep.m, "c": rep.c, "band": list(rep.band) if rep.band else None,
                   "steps": [list(s) for s in rep.steps],
                   "size_before": len(fam), "size_after": len(out)},
    }
    _emit(_dump(doc), args.out)
    return 0


# ----------------------------------------------------------- cycle-audit

def cmd_cycle_audit(args) -> int:
    p = Params(n=args.n, t=args.t, k=args.k)
    rng = random.Random(args.seed)
    # the largest half-width whose band top stays below n
    mmax = min(p.k - 1, args.n - 1 - p.band(0)[1])
    trials = []
    violations = 0
    for trial in range(args.trials):
        m = rng.randint(0, max(0, mmax))
        G = random_full_consecutive(rng, args.n, args.t, args.k, m)
        # both transforms raise InvariantViolation (exit 1) rather than lower
        # the weight of the loose instance, so weight_monotone always holds
        fill_full(make_consecutive(random_sigma_ksti(rng, args.n, args.t, args.k, m), p), p)
        record = {"trial": trial, "m": m, **check_instance(G, p), "weight_monotone": True}
        if not record["ok"]:
            violations += 1
            record["witness"] = {"members": _arcs(G)}
        trials.append(record)
    doc = {"n": args.n, "t": args.t, "k": args.k, "seed": args.seed,
           "trials": trials, "violations": violations}
    _emit(_dump(doc), args.out)
    return 1 if violations else 0


# ----------------------------------------------------------- coeff-audit

def cmd_coeff_audit(args) -> int:
    profiles = _read_json(args.profiles)
    if not isinstance(profiles, list):
        raise PreconditionError("profiles JSON must be a list")
    verdicts = []
    violated = 0
    for idx, prof in enumerate(profiles):
        if (not isinstance(prof, dict) or any(type(prof.get(key)) is not int for key in "ntkm")
                or not isinstance(prof.get("counts"), list)
                or any(type(c) is not int for c in prof["counts"])):
            raise PreconditionError(
                f"profile {idx} needs integers 'n', 't', 'k', 'm' and a list of integer 'counts'")
        entry = {"index": idx}
        try:
            vec = profile_vector(prof["n"], prof["t"], prof["k"], prof["m"], prof["counts"])
            rep = verify_chain(vec)
            entry.update({
                "verdict": "holds" if rep.ok else "violated",
                "mass_conserved": True,  # both stages raise on a mass change: see below
                "weighted_monotone": rep.weighted_monotone,
                "prefix_ok": rep.prefix_ok,
                "final_ok": rep.final_ok,
                "weighted": [rep.weighted_g, rep.weighted_gprime, rep.weighted_gdoubleprime],
                "final_bound": rep.final_bound,
            })
            if not rep.ok:
                violated += 1
        except PreconditionError as exc:
            entry.update({"verdict": "skipped-precondition", "reason": str(exc)})
        except InvariantViolation as exc:
            entry.update({"verdict": "violated", "reason": str(exc)})
            violated += 1
        verdicts.append(entry)
    _emit(_dump({"profiles": verdicts, "violations": violated}), args.out)
    return 1 if violated else 0


# ---------------------------------------------------------------- search

def _layer_window(text):
    """Parse the --layers argument "lo:hi" into a pair of ints;
    max_family_size checks that 0 <= lo <= hi."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None


def _positive_int(text):
    """Parse a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a count of at least 1, got {text!r}")
    return value


def cmd_search(args) -> int:
    t0 = time.monotonic()
    res = max_family_size(args.n, args.t, args.k, layer_window=args.layers,
                          use_compression=args.use_compression,
                          budget=Budget(nodes=args.budget_nodes, seconds=args.budget_secs))
    doc = {
        "n": args.n, "t": args.t, "k": args.k,
        "layers": list(args.layers) if args.layers else None,
        "use_compression": args.use_compression,
        "best_size": res.best_size,
        "proven_optimal": res.proven_optimal,
        "nodes": res.nodes,
        "notes": list(res.notes),
        "witness": res.witness,
    }
    _emit(_dump(doc), args.out)
    print(f"search finished in {time.monotonic() - t0:.2f}s, {res.nodes} nodes",
          file=sys.stderr)
    return 0


# -------------------------------------------------------------- construct

def cmd_construct(args) -> int:
    p = Params(n=args.n, t=args.t, k=args.k)
    fam, expected = construct(p, args.which), construction_size(p, args.which)
    doc = {"which": args.which, "n": p.n, "t": p.t, "k": p.k,
           "size": len(fam), "size_formula": expected,
           "family": fam}
    if args.which == "B":
        doc["size_closed_form"] = size_B_closed_form(p)
    _emit(_dump(doc), args.out)
    return 0


# ----------------------------------------------------------------- bounds

def cmd_bounds(args) -> int:
    p = Params(n=args.n, t=args.t, k=args.k)
    doc = {"n": p.n, "t": p.t, "k": p.k, "bounds": {
        name: {"value": e.value, "applicable": e.value is not None, "note": e.note}
        for name, e in sorted(bounds_table(p).items())}}
    _emit(_dump(doc), args.out)
    return 0


# ------------------------------------------------------------------- scan

# scan's oracle rows run under a node count alone, so that no verdict hangs
# on the machine's speed; with the cycle bound closing root branches, every
# even cell with n <= 13 proves in at most 1,585 nodes, (13,1,3) the most
SCAN_ORACLE_BUDGET = Budget(nodes=100_000, seconds=float("inf"))


def _scan_records(args):
    """The desk-scale regression matrix, one record per check instance."""
    if not 2 <= args.n_max <= MAX_ENUM_N:
        raise PreconditionError(
            f"scan searches each n in [2, --n-max]: needs --n-max in [2, {MAX_ENUM_N}]")
    rng = random.Random(args.seed)
    records = []
    witness_base = (args.out or "scan") + ".witness"

    def rec(check, params, verdict, margin=None, note="", witness=None):
        # a Family witness is serialized only when the record is violated
        path = None
        if verdict == "violated" and witness is not None:
            path = f"{witness_base}.{len(records)}.json"
            with open(path, "w") as fh:
                fh.write(_dump(witness))
        records.append({"check": check, "params": params, "verdict": verdict,
                        "margin": margin, "witness_path": path, "note": note})

    def oracle_rec(check, params_doc, expected, n, t, k, use_compression=False):
        res = max_family_size(n, t, k, use_compression=use_compression,
                              budget=SCAN_ORACLE_BUDGET)
        if not res.proven_optimal:
            rec(check, params_doc, "budget-exceeded")
        else:
            rec(check, params_doc, "holds" if res.best_size == expected else "violated",
                margin=res.best_size - expected)

    # even-case oracle equality
    for n in range(2, args.n_max + 1):
        for t in range(1, n):
            if (n + t) % 2:
                continue
            for k in range(1, 4):
                oracle_rec("even_case_oracle", {"n": n, "t": t, "k": k},
                           construction_size(Params(n=n, t=t, k=k), "layers"),
                           n, t, k, use_compression=True)
    # odd small case
    oracle_rec("odd_small_case", {"n": 5, "t": 2, "k": 2},
               construction_size(Params(5, 2, 2), "A"), 5, 2, 2, use_compression=True)
    # B closed form
    ok = all(construction_size(Params(n, t, k), "B") == size_B_closed_form(Params(n, t, k))
             for n in range(4, 40) for t in (1, 2, 3) if (n + t) % 2 and t < n
             for k in range(1, 5))
    rec("b_closed_form", {"n_max": 39, "k_max": 4}, "holds" if ok else "violated")
    # compression invariants
    for trial in range(args.trials):
        n = rng.randint(4, 9)
        t = rng.randint(1, max(1, n - 2))
        k = rng.randint(1, 3)
        fam = random_valid_family(rng, n, t, k)
        p = Params(n=n, t=t, k=k)
        try:
            out, _ = normalize(fam, p)  # raises on a shrink and on m > k - 1
            ok = is_t_intersecting(out, t) and longest_chain(out) <= k
            rec("compression_invariants", {"n": n, "t": t, "k": k, "trial": trial},
                "holds" if ok else "violated", margin=len(out) - len(fam), witness=fam)
        except InvariantViolation as exc:
            rec("compression_invariants", {"n": n, "t": t, "k": k, "trial": trial},
                "violated", note=str(exc), witness=fam)
    # uniform shadow ratio
    for trial in range(args.trials):
        n = rng.randint(4, 10)
        r = rng.randint(2, n - 1)
        t = rng.randint(1, r)
        fam = random_uniform_t_intersecting(rng, n, r, t)
        level = rng.randint(max(0, r - t), r)
        chk = verify_katona_shadow(fam, r, t, level)
        rec("uniform_shadow_ratio", {"n": n, "r": r, "t": t, "level": level, "trial": trial},
            "holds" if chk.holds else "violated", witness=fam)
    # cycle universals + coefficient chain on a small cell grid; per-cell n
    # sits above the swap-chain threshold so the full chain is in force
    cells = [(2, 2, 1, 14), (2, 3, 1, 16), (2, 3, 2, 18), (4, 2, 1, 24), (4, 3, 2, 32)]
    per_cell = max(1, args.trials // 10)
    for (t, k, m, n) in cells:
        p = Params(n=n, t=t, k=k)
        for trial in range(per_cell):
            G = random_full_consecutive(rng, n, t, k, m)
            chk = check_instance(G, p)
            ok = chk["ok"]
            rec("cycle_universals", {"n": n, "t": t, "k": k, "m": m, "trial": trial},
                "holds" if ok else "violated",
                margin=chk["weight_bound"]["margin"],
                witness=None if ok else {"intervals": _arcs(G)})
    # averaging identity
    for n in (4, 5):
        for trial in range(max(1, args.trials // 6)):
            fam = random_inner_family(rng, n, density=rng.uniform(0.1, 0.6))
            chk = averaging_identity(fam)
            rec("averaging_identity", {"n": n, "trial": trial},
                "holds" if chk.holds else "violated", margin=chk.lhs - chk.rhs, witness=fam)
    # classical bound oracles against the bounds table: antichain, k largest
    # layers, t-intersecting antichain, and the intersecting k-Sperner closed
    # form; the first two entries do not depend on t, so the t = 0 checks
    # read them at t = 1
    for n in range(2, min(args.n_max, 5) + 1):
        oracle_rec("classical_sperner", {"n": n},
                   bounds_table(Params(n=n, t=1, k=1))["sperner"].value, n, 0, 1)
        oracle_rec("classical_k_layers", {"n": n, "k": 2},
                   bounds_table(Params(n=n, t=1, k=2))["erdos_k_layers"].value, n, 0, 2)
        for t in range(1, n + 1):
            oracle_rec("classical_milner", {"n": n, "t": t},
                       bounds_table(Params(n=n, t=t, k=1))["milner"].value, n, t, 1)
    for n in (4, 5):
        oracle_rec("classical_intersecting_k_sperner", {"n": n, "k": 2},
                   bounds_table(Params(n=n, t=1, k=2))["frankl_intersecting"].value,
                   n, 1, 2, use_compression=True)
    # the two shadow/shade expansion facts the compression passes lean on
    for trial in range(max(1, args.trials // 10)):
        n = rng.randint(5, 10)
        t = rng.randint(1, n - 2)
        fam = random_valid_family(rng, n, t, 2)
        i = min(fam.min_size() if len(fam) else 0, (n + t - 1) // 2)
        ok = shade_expansion_holds(fam, Params(n=n, t=t, k=2), i)
        rec("shade_expansion", {"n": n, "t": t, "i": i, "trial": trial},
            "holds" if ok else "violated", witness=fam)
        anti = random_antichain_above_middle(rng, n)
        j = rng.randint(n // 2, anti.min_size())
        rec("antichain_shadow", {"n": n, "j": j, "trial": trial},
            "holds" if antichain_shadow_holds(anti, j) else "violated", witness=anti)
    # binomial swap sweeps (the acceptance suite pushes n_max to 10^4)
    for a in range(0, 4):
        for b in range(a + 1, 5):
            n0 = minimal_n0(a, b, 500)
            rec("binomial_swap_suffix", {"a": a, "b": b, "n_max": 500},
                "holds" if n0 is not None else "violated",
                margin=n0)
    # rearrangement dominance fuzz
    bad = 0
    for trial in range(max(10, args.trials * 4)):
        a, b, d = random_dominance_triple(rng, rng.randint(1, 8))
        if not rearrangement_dominance(a, b, d).holds:
            bad += 1
    rec("rearrangement_dominance", {"trials": max(10, args.trials * 4)},
        "holds" if bad == 0 else "violated", margin=-bad)
    if getattr(args, "inject_violation", False):
        rec("injected_negative_control", {}, "violated", note="test fixture",
            witness={"injected": True})
    records.sort(key=lambda r: (r["check"], json.dumps(r["params"], sort_keys=True)))
    return records


CSV_COLUMNS = ["check", "params", "verdict", "margin", "witness_path", "note"]


def cmd_scan(args) -> int:
    records = _scan_records(args)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for r in records:
            row = dict(r)
            row["params"] = json.dumps(r["params"], sort_keys=True)
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = _dump({"seed": args.seed, "records": records})
    _emit(text, args.out)
    violated = any(r["verdict"] == "violated" for r in records)
    return 1 if violated else 0


# ------------------------------------------------------------------ main

NO_CACHE_HELP = "no-op: nothing is cached; kept so existing command lines still parse"


@cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spernerlab",
        description="exact checks and searches for t-intersecting k-Sperner families")
    sub = ap.add_subparsers(dest="command", required=True)

    def shared(*flags):
        """The required integer flags, then --out, for parents=."""
        parent = argparse.ArgumentParser(add_help=False)
        for flag in flags:
            parent.add_argument(flag, type=int, required=True)
        parent.add_argument("--out")
        return parent

    out, tk, ntk = shared(), shared("--t", "--k"), shared("--n", "--t", "--k")

    c = sub.add_parser("check", parents=[tk], help="predicate report for a family JSON file")
    c.add_argument("family")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("compress", parents=[tk], help="normalize a family into the size band")
    c.add_argument("family")
    c.set_defaults(fn=cmd_compress)

    c = sub.add_parser("cycle-audit", parents=[ntk],
                       help="randomized audit of the interval-family checks")
    c.add_argument("--trials", type=_positive_int, default=100)
    c.add_argument("--seed", type=int, default=1729)
    c.set_defaults(fn=cmd_cycle_audit)

    c = sub.add_parser("coeff-audit", parents=[out], help="verdicts for a JSON array of profiles")
    c.add_argument("profiles")
    c.set_defaults(fn=cmd_coeff_audit)

    c = sub.add_parser("search", parents=[ntk], help="exact maximum family search")
    c.add_argument("--layers", type=_layer_window, help="lo:hi member-size window")
    c.add_argument("--use-compression", action="store_true")
    c.add_argument("--budget-nodes", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    c.add_argument("--budget-secs", type=float, default=DEFAULT_TIME_BUDGET)
    c.add_argument("--no-cache", action="store_true", help=NO_CACHE_HELP)
    c.set_defaults(fn=cmd_search)

    c = sub.add_parser("construct", parents=[ntk], help="emit a named construction")
    c.add_argument("--which", choices=CONSTRUCTIONS, required=True)
    c.set_defaults(fn=cmd_construct)

    c = sub.add_parser("bounds", parents=[ntk], help="closed-form bound table for (n, t, k)")
    c.set_defaults(fn=cmd_bounds)

    c = sub.add_parser("scan", parents=[out],
                       help="full regression matrix; exit 1 on any violation")
    c.add_argument("--seed", type=int, default=1729)
    c.add_argument("--n-max", type=int, default=6)
    c.add_argument("--trials", type=_positive_int, default=60)
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.add_argument("--no-cache", action="store_true", help=NO_CACHE_HELP)
    c.add_argument("--inject-violation", action="store_true", help=argparse.SUPPRESS)
    c.set_defaults(fn=cmd_scan)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (PreconditionError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
