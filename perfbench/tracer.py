"""Layer tracing for the traced benchmark run.

The tracer rebinds the package's public names in its own process: every
module attribute of the `inbl` package that is one of the traced functions
is replaced by a wrapper, so calls through a module (`inbl.search.evaluate`)
and through a name copied by `from ... import` (`inbl.cli.full_string_search`)
are both seen. Methods are rebound on their classes. Nothing under `src/` is
edited, and `uninstall` restores every original binding.

Timed boundaries record a span (name, start, end, parent) and accumulate
self time, which is the span's duration minus the time its child spans cover.
Hot boundaries (`wire_value`, `SwitchState.ground`, `Dyadic` arithmetic) are
only counted. A boundary the package no longer has is listed as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

# (module, attribute, layer name); a dotted attribute names a method
TIMED = [
    ("inbl.expr", "evaluate", "expr.evaluate"),
    ("inbl.search", "wait_for_live_clock", "search.wait_for_live_clock"),
    ("inbl.search", "full_string_search", "search.full_string_search"),
    ("inbl.search", "fragment_search", "search.fragment_search"),
    ("inbl.phonebook", "lookup", "phonebook.lookup"),
    ("inbl.phonebook", "inverse_lookup", "phonebook.inverse_lookup"),
    ("inbl.experiments", "eval_array", "experiments.eval_array"),
    ("inbl.experiments", "run_zero_stats", "experiments.run_zero_stats"),
    ("inbl.experiments", "run_crosscorr", "experiments.run_crosscorr"),
    ("inbl.oracle", "expand", "oracle.expand"),
    ("inbl.dsl", "parse_program", "dsl.parse_program"),
    ("inbl.dsl", "format_dsl", "dsl.format_dsl"),
    ("inbl.cli", "main", "cli.main"),
    ("inbl.reference", "ReferenceSystem.sign_array", "reference.sign_array"),
]

COUNTED = [
    ("inbl.reference", "ReferenceSystem.wire_value", "reference.wire_value"),
    ("inbl.switchboard", "SwitchState.ground", "switchboard.ground"),
    ("inbl.dyadic", "Dyadic.__add__", "dyadic.arith"),
    ("inbl.dyadic", "Dyadic.__sub__", "dyadic.arith"),
    ("inbl.dyadic", "Dyadic.__neg__", "dyadic.arith"),
    ("inbl.dyadic", "Dyadic.__mul__", "dyadic.arith"),
    ("inbl.dyadic", "Dyadic.__rmul__", "dyadic.arith"),
]

# spans kept for the written trace; aggregates always cover every span
SPAN_LIMIT = 200_000


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        # (ancestor layer, layer) -> calls of layer made inside ancestor
        self.nested: Counter = Counter()
        self.monomials = 0  # entries of the expansions oracle.expand returned
        self.missing: List[str] = []
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[Tuple[int, int, int, int]] = []
        self.dropped_spans = 0
        # open frames: [layer, start, child seconds, span index]
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # --- recording ---

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        index = len(self.spans)
        if index < SPAN_LIMIT:
            self.spans.append((self._name_id(name), 0, 0, parent))
        else:
            index = -1
        frame = [name, time.perf_counter(), 0.0, index]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            for ancestor in {f[0] for f in stack}:
                self.nested[(ancestor, name)] += 1
            if index >= 0:
                self.spans[index] = (
                    self.spans[index][0],
                    int((frame[1] - self._t0) * 1e9),
                    int((end - self._t0) * 1e9),
                    parent,
                )
            else:
                self.dropped_spans += 1
        if name == "oracle.expand":
            self.monomials += len(result)
        return result

    # --- rebinding ---

    def install(self) -> None:
        for module_name, attr, layer in TIMED:
            self._rebind(module_name, attr, layer, self._timed_wrapper)
        for module_name, attr, layer in COUNTED:
            self._rebind(module_name, attr, layer, self._counted_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _timed_wrapper(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(layer, fn, *args, **kwargs)

        return wrapper

    def _counted_wrapper(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, module_name, attr, layer, make) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{attr}")
            return
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            original = None if cls is None else cls.__dict__.get(meth)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                return
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(layer, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(layer, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "inbl" or name.startswith("inbl.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # --- output ---

    def write(self, path: str) -> None:
        """Write the kept spans as JSON: names, then [name, start_ns, end_ns, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "dropped_spans": self.dropped_spans,
                    "missing": self.missing,
                },
                fh,
            )


def per_layer_metrics(
    tracer: Tracer,
    ops: int,
    lookups: int,
    fragment_ops: int,
    bounded_misses: int,
    clocks_waited: int,
    clocks_observed: int,
    overhead_ratio: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced phase, normalised per traced op."""
    per_op = 1.0 / max(ops, 1)

    def ms(layer: str) -> float:
        return tracer.self_s[layer] * 1e3 * per_op

    waits = tracer.calls["search.wait_for_live_clock"]
    wait_evals = tracer.nested[("search.wait_for_live_clock", "expr.evaluate")]
    lookup_evals = (
        tracer.nested[("phonebook.lookup", "expr.evaluate")]
        + tracer.nested[("phonebook.inverse_lookup", "expr.evaluate")]
    )
    return {
        "expr.evaluate.calls_per_op": (tracer.calls["expr.evaluate"] * per_op, "count"),
        "expr.evaluate.self_ms_per_op": (ms("expr.evaluate"), "ms"),
        "dyadic.arith_per_op": (tracer.counts["dyadic.arith"] * per_op, "count"),
        "reference.wire_value.calls_per_op": (
            tracer.counts["reference.wire_value"] * per_op, "count"),
        "search.wait_for_live_clock.self_ms_per_op": (
            ms("search.wait_for_live_clock"), "ms"),
        "search.clocks_waited_per_op": (clocks_waited * per_op, "count"),
        "search.live_clock_ratio": (waits / wait_evals if wait_evals else 0.0, "ratio"),
        "search.full_string_search.self_ms_per_op": (ms("search.full_string_search"), "ms"),
        "search.fragment_search.self_ms_per_op": (ms("search.fragment_search"), "ms"),
        "search.clocks_observed_per_op": (clocks_observed * per_op, "count"),
        "search.bounded_miss_ratio": (
            bounded_misses / fragment_ops if fragment_ops else 0.0, "ratio"),
        "switchboard.grounds_per_op": (tracer.counts["switchboard.ground"] * per_op, "count"),
        "phonebook.lookup.self_ms_per_op": (ms("phonebook.lookup"), "ms"),
        "phonebook.inverse_lookup.self_ms_per_op": (ms("phonebook.inverse_lookup"), "ms"),
        "phonebook.evaluations_per_lookup": (
            lookup_evals / lookups if lookups else 0.0, "count"),
        "reference.sign_array.calls_per_op": (
            tracer.calls["reference.sign_array"] * per_op, "count"),
        "reference.sign_array.self_ms_per_op": (ms("reference.sign_array"), "ms"),
        "experiments.eval_array.self_ms_per_op": (ms("experiments.eval_array"), "ms"),
        "experiments.run_zero_stats.self_ms_per_op": (ms("experiments.run_zero_stats"), "ms"),
        "experiments.run_crosscorr.self_ms_per_op": (ms("experiments.run_crosscorr"), "ms"),
        "oracle.expand.self_ms_per_op": (ms("oracle.expand"), "ms"),
        "oracle.monomials_per_op": (tracer.monomials * per_op, "count"),
        "dsl.parse_program.self_ms_per_op": (ms("dsl.parse_program"), "ms"),
        "dsl.format_dsl.self_ms_per_op": (ms("dsl.format_dsl"), "ms"),
        "cli.main.self_ms_per_op": (ms("cli.main"), "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
