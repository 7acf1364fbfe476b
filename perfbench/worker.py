"""One round of one workload in one single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --src DIR --tmp DIR [--spans FILE]

Imports spernerlab from --src, builds the workload's fixed inputs, notes
the CLOCK_MONOTONIC time at which the first operation could start, and
runs one round of the workload's operations, each timed alone and scaled to
a fixed machine speed (Stopwatch); with --trace 1 it runs a traced round
between two untraced ones instead.  It prints one JSON line with that
time, the per-round times, facts and per-operation records, the trace
metrics and the process's peak memory.  run.py is the entry point: it
starts one worker per round and turns their reports into the benchmark's
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from checks import CheckFailed

# The host's speed drifts by up to half over seconds to minutes, for the
# same work, and it does not slow all kinds of work alike.  A fixed probe,
# pure-Python arithmetic plus big-integer bit operations (the program's
# two kinds of work) in about equal time, is timed just before and just
# after each operation, and every PROBE_EVERY_S inside it on a timer signal.
# The operation's wall and CPU times, less the probes run inside it, are
# scaled by PROBE_REF_S over the mean probe time: they read as on a machine
# on which the probe takes PROBE_REF_S.
PROBE_REF_S = 0.0015
PROBE_EVERY_S = 0.1


def probe() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    x = (1 << 3000) - 12345
    for i in range(2_500):
        x = (x ^ (x >> 3)) | (1 << i)
    return time.perf_counter() - t0


class Stopwatch:
    """Times one call at a time, scaled by the probes around and inside it."""

    def __init__(self):
        self.probes: list[float] = []
        self.inside_cpu = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        c0 = time.process_time()
        self.probes.append(probe())
        self.inside_cpu += time.process_time() - c0

    def start(self):
        self.probes = [probe()]
        self.inside_cpu = 0.0
        self.c0, self.w0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> tuple[float, float, float]:
        """The scaled wall and CPU times of the call, and its unscaled wall time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self.w0 - sum(self.probes[1:])
        cpu = time.process_time() - self.c0 - self.inside_cpu
        self.probes.append(probe())
        speed = PROBE_REF_S / statistics.fmean(self.probes)
        return wall * speed, cpu * speed, wall


def run_round(ops, watch: Stopwatch) -> dict:
    """Run every operation once; time each call alone, then check it."""
    walls, cpus, raw_wall = [], [], 0.0
    facts = failed = 0
    wrong: list[str] = []
    records = {}
    for op in ops:
        watch.start()
        try:
            res = op.call()
        except Exception:  # the program crashed: a failed operation
            res = None
            wrong.append(f"{op.name}: raised\n{traceback.format_exc()}")
        finally:
            wall, cpu, raw = watch.stop()
        walls.append(wall)
        cpus.append(cpu)
        raw_wall += raw
        if res is None:
            failed += 1
            continue
        try:
            got, records[op.name] = op.verify(res)
            facts += got
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            failed += 1
            wrong.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return {"walls": walls, "cpus": cpus, "raw_wall": raw_wall, "facts": facts,
            "attempted": len(ops), "failed": failed, "wrong": wrong, "records": records}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", help="with --trace 1: where to write the spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import spernerlab.cli  # noqa: F401  (the whole package, as the command loads it)
    import workloads

    src_pkg = os.path.join(os.path.realpath(args.src), "spernerlab")
    if os.path.dirname(os.path.realpath(spernerlab.__file__)) != src_pkg:
        sys.exit(f"spernerlab imported from {spernerlab.__file__}, not from {src_pkg}")
    ctx = workloads.Context(args.tmp, args.seed)
    ops = workloads.BUILDERS[args.workload](ctx)
    ready = time.monotonic()
    for _ in range(20):  # let the interpreter specialise the probe's loop
        probe()
    watch = Stopwatch()

    rounds = [run_round(ops, watch)]
    trace = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        ctx.bytes_out = 0
        try:
            traced = run_round(ops, watch)
        finally:
            tracer.uninstall()
        tracer.counts["cli.bytes_out"] = ctx.bytes_out
        rounds += [traced, run_round(ops, watch)]
        trace = tracer.metrics()
        # untraced rounds on both sides cancel a steady drift in machine speed
        untraced = (sum(rounds[0]["walls"]) + sum(rounds[2]["walls"])) / 2
        trace["trace.overhead_s"] = sum(traced["walls"]) - untraced
        tracer.write(args.spans)
    print(json.dumps({"ready": ready, "rounds": rounds, "trace": trace,
                      "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


if __name__ == "__main__":
    main()
