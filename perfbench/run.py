"""The spernerlab benchmark: certified facts per CPU-second on three workloads.

    python3 perfbench/run.py [--workload oracle|audit|families|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ./src.  The
workloads run one after another.  Each round of a workload runs in a fresh
single-threaded worker process (worker.py), and rounds follow one another
for about --seconds seconds.  With --trace 0 the last line printed is one
JSON object with `correct`, `attempted`, `failed` and the end-to-end
metrics; with --trace 1 one worker runs a traced round between two
untraced ones, and the line carries the per-layer metrics instead.
--workload all (the default) prints one such line per workload.

Every worker gets a fresh scratch directory under ./.perfbench that is
also its working directory, its HOME and its SPERNERLAB_CACHE_DIR, and
every output file goes there; the directory is removed when the workload
ends.  A file left in the cache directory makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import per_layer_names  # noqa: E402
from workloads import NAMES  # noqa: E402

STATE = ".perfbench"
DEADLINE_S = 170.0    # per workload, start to result


class BenchError(Exception):
    pass


def spawn(name, args, tmp, env, deadline):
    """Start one worker; return its start time and its parsed result."""
    work = tempfile.mkdtemp(dir=tmp)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--src", os.path.abspath("src"), "--tmp", work]
    if args.trace:
        spans = f"spans-{name}-seed{args.seed}.json"
        cmd += ["--spans", os.path.abspath(os.path.join(STATE, spans))]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode:
        raise BenchError(f"{name}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def run_workload(name, args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(STATE, exist_ok=True)
    tmp = os.path.abspath(tempfile.mkdtemp(prefix=f"run-{name}-", dir=STATE))
    cache = os.path.join(tmp, "cache")
    env = dict(os.environ, SPERNERLAB_CACHE_DIR=cache, HOME=os.path.join(tmp, "home"))
    env.pop("PYTHONPATH", None)
    try:
        # one worker per round, while another as long as the mean so far fits
        setups, rounds, rss, begin = [], [], [], time.monotonic()
        while True:
            start, res = spawn(name, args, tmp, env, deadline)
            setups.append(res["ready"] - start)
            rounds += res["rounds"]
            rss.append(res["peak_rss_kib"])
            elapsed = time.monotonic() - begin
            if args.trace or elapsed + elapsed / len(setups) > args.seconds:
                break
        cache_files = [os.path.join(d, f) for d, _, fs in os.walk(cache) for f in fs]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [w for r in rounds for w in r["wrong"]]
    if cache_files:
        problems.append(f"{name}: the run left cache files: {cache_files[:3]}")
    if len({r["facts"] for r in rounds}) != 1:
        problems.append(f"{name}: facts differ between rounds")
    if not problems and len({canonical(r["records"]) for r in rounds}) != 1:
        problems.append(f"{name}: outputs differ between rounds")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    if args.trace:
        metrics = {m: {"value": res["trace"][m], "unit": unit} for m, unit in per_layer_names()}
    else:
        # a typical round: each operation's speed-scaled time (worker.probe),
        # its median over the rounds, summed
        wall = sum(map(statistics.median, zip(*(r["walls"] for r in rounds))))
        cpu = sum(map(statistics.median, zip(*(r["cpus"] for r in rounds))))
        facts = rounds[0]["facts"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "facts": {"value": facts, "unit": "count"},
            "facts_per_cpu_s": {"value": facts / cpu, "unit": "facts/s"},
            "peak_rss_mib": {"value": max(rss) / 1024, "unit": "MiB"},
        }
        print(f"perfbench: {name}: {len(rounds)} rounds; unscaled wall time of a round, "
              f"median {statistics.median(r['raw_wall'] for r in rounds):.3f} s",
              file=sys.stderr)
    return {"correct": not problems, "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "spernerlab", "cli.py")):
        print("perfbench: no ./src/spernerlab here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    checks.self_test()
    for name in NAMES if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(name, args)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            print(f"# {name}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
