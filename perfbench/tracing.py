"""Spans around the public functions of each spernerlab module.

`Tracer.install` wraps every public function a layer module defines and
rebinds the wrapper under each name that refers to the original in any
spernerlab.* namespace, so a call from cli into compression into families
nests as three spans.  Spans stay in memory until `write`.

Left unwrapped: helpers called millions of times, whose spans would
measure the wrapper rather than the helper, and generator functions,
whose work runs after the call that a span would cover returns.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("cli", "search", "families", "compression", "cycle", "coefficients", "generators")
HOT_HELPERS = {"arc_overlap", "binomial", "interval_mask", "mask_from", "elements_of",
               "scd_anchor"}

# functions reported by name, as "<layer>.<function>_s"
FUNCTION_METRICS = {
    "families": ("is_t_intersecting", "longest_chain", "shadow", "shade"),
    "compression": ("normalize", "up_compress", "down_shift"),
    "cycle": ("fill_full", "make_consecutive", "check_complement_closure",
              "check_count_inequalities", "is_sigma_ks_ti", "averaging_identity"),
    "generators": ("random_full_consecutive", "random_uniform_t_intersecting",
                   "random_valid_family"),
    "coefficients": ("verify_chain", "minimal_chain_n", "minimal_n0"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
        out += [(f"{layer}.{fn}_s", "s") for fn in FUNCTION_METRICS.get(layer, ())]
    out += [("search.nodes", "count"), ("search.g_nodes", "count"),
            ("search.proofs", "count"), ("search.nodes_per_s", "1/s"),
            ("search.nodes_per_proof", "count"), ("families.members_checked", "count"),
            ("compression.members_out", "count"), ("cli.bytes_out", "B"),
            ("trace.overhead_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []   # (layer, function) per function id
        self.spans: list[tuple[int, int, int, int]] = []  # (function id, parent, start, end)
        self.counts = {"search.nodes": 0, "search.g_nodes": 0, "search.proofs": 0,
                       "families.members_checked": 0, "compression.members_out": 0,
                       "cli.bytes_out": 0}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _observe(self, layer, name, args, result):
        c = self.counts
        if name == "max_family_size":
            c["search.nodes"] += result.nodes
            c["search.proofs"] += result.proven_optimal
        elif name == "g_function":
            c["search.g_nodes"] += result.nodes
            c["search.proofs"] += result.proven_optimal
        elif name in ("is_t_intersecting", "longest_chain"):
            c["families.members_checked"] += len(args[0])
        elif name == "normalize":
            c["compression.members_out"] += len(result[0])

    def _wrap(self, layer, name, fn):
        fid = len(self.names)
        self.names.append((layer, name))
        spans, stack, clock, observe = self.spans, self._stack, time.perf_counter_ns, self._observe

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, stack[-1] if stack else -1, start, end)
            observe(layer, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        packages = {name: mod for name, mod in sys.modules.items()
                    if name == "spernerlab" or name.startswith("spernerlab.")}
        for layer in LAYERS:
            mod = packages[f"spernerlab.{layer}"]
            for name, fn in vars(mod).copy().items():
                if (name.startswith("_") or name in HOT_HELPERS or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for ns in packages.values():
                    for attr, val in vars(ns).copy().items():
                        if val is fn:
                            self._undo.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, fn in reversed(self._undo):
            setattr(ns, attr, fn)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Layer self times, call counts, named function times and counts.

        A function's time is its inclusive time over its outermost spans; a
        layer's self time is its spans' time minus the time of their child
        spans.
        """
        child = [0] * len(self.spans)
        for fid, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("self_s", "calls")}
        out.update({f"{layer}.{fn}_s": 0 for layer, fns in FUNCTION_METRICS.items()
                    for fn in fns})
        for idx, (fid, parent, start, end) in enumerate(self.spans):
            layer, name = self.names[fid]
            out[f"{layer}.self_s"] += end - start - child[idx]
            out[f"{layer}.calls"] += 1
            key = f"{layer}.{name}_s"
            if key in out and not self._inside_same(parent, fid):
                out[key] += end - start
        for key in out:
            if key.endswith("_s"):
                out[key] /= 1e9
        out.update(self.counts)
        search_s = out["search.self_s"]
        nodes = out["search.nodes"] + out["search.g_nodes"]
        out["search.nodes_per_s"] = nodes / search_s if search_s else 0.0
        out["search.nodes_per_proof"] = (nodes / out["search.proofs"]
                                         if out["search.proofs"] else 0.0)
        return out

    def _inside_same(self, parent, fid) -> bool:
        """Whether a span of function `fid` encloses span `parent`."""
        while parent >= 0:
            if self.spans[parent][0] == fid:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"functions": [f"{layer}.{name}" for layer, name in self.names],
                       "span_fields": ["function", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
