"""Span tracer that times the cvqss layers from outside the library.

While active, every public function of the six layer modules is replaced by
a timing wrapper in *every* namespace that holds it: the defining module,
each module that imported it by name (``from .estimation import f``), the
package namespace, and module-level dicts such as ``cli._COMMANDS``. Patching
only the defining module would miss every call made through an imported
name. Leaving the context restores the original bindings.

A span is ``(name, parent, start_ns, end_ns)``, with ``parent`` the index of
the enclosing span in the same op or -1. Spans stay in memory; the caller
archives one op's spans with :meth:`Tracer.finish_op` and writes them all out
with :meth:`Tracer.write`, as rows ``(name id, parent, start_ns, end_ns)`` of
the ``spans`` array, op ``i`` owning rows ``op_offsets[i]:op_offsets[i+1]``.
"""

import functools
import importlib
import inspect
import sys
import types
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("gaussian", "states", "estimation", "keyrate", "simulation", "cli")


def _scheme_structures(bound, result):
    scheme = bound.arguments["scheme"]
    return {"keyrate.structures": len(scheme.access_structures)
            + len(scheme.adversarial_structures)}


def _rows_sampled(bound, result):
    return {"simulation.rows_sampled": result.rounds}


def _sifted_rounds(bound, result):
    return {"simulation.sifted_rounds": result.sifted_counts[result.key_pattern]
            + result.sifted_counts[result.check_pattern]}


#: Counts read at a layer boundary from a traced call's arguments and result.
COUNTERS = {
    "keyrate.keyrate_qss": _scheme_structures,
    "simulation.sample_outcomes": _rows_sampled,
    "simulation.run_protocol": _sifted_rounds,
}


class Tracer:
    """Rebinds the layers' public functions to span-recording wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.ops = []
        self._names = {}
        self._stack = []
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cvqss.{layer}")
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not name.startswith("_")):
                    span_name = f"{layer}.{name}"
                    wrappers[value] = self._wrap(span_name, value, COUNTERS.get(span_name))
        self._bindings = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "cvqss" and not module_name.startswith("cvqss."):
                continue
            namespace = vars(module)
            containers = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
            for container in containers:
                for key, value in container.items():
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        self._bindings.append((container, key, value, wrappers[value]))

    def _wrap(self, name, func, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(func) if counter else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, perf_counter_ns(), 0]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter_ns()
            if counter:
                for key, value in counter(signature.bind(*args, **kwargs), result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        for container, key, _, wrapper in self._bindings:
            container[key] = wrapper
        try:
            yield self
        finally:
            for container, key, original, _ in self._bindings:
                container[key] = original

    def finish_op(self, label):
        """Archive the current op's spans and counts; return them.

        The archive keeps each op as int arrays (24 bytes a span) so that a
        long traced run stays small in memory.
        """
        spans, counts = list(self.spans), dict(self.counts)
        ids = [self._names.setdefault(span[0], len(self._names)) for span in spans]
        columns = np.array([[i, p, s, e] for i, (_, p, s, e) in zip(ids, spans)],
                           dtype=np.int64).reshape(-1, 4)
        self.ops.append((label, columns))
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def write(self, path):
        """Write every archived span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(list(self._names)),
            op_labels=np.array([label for label, _ in self.ops]),
            op_offsets=np.cumsum([0] + [len(columns) for _, columns in self.ops]),
            spans=np.concatenate([columns for _, columns in self.ops]
                                 or [np.zeros((0, 4), dtype=np.int64)]),
        )


def self_times(spans):
    """Per-span duration minus the durations of its direct children (ns)."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    inside = [False] * len(spans)
    chosen = []
    for i, (name, parent, _, _) in enumerate(spans):
        hit = name in names
        covered = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[i] = covered
        if hit and not covered:
            chosen.append(i)
    return chosen


#: The state-construction transforms whose time and calls are reported.
TRANSFORMS = frozenset({"gaussian.tensor", "gaussian.apply_cz",
                        "gaussian.apply_beamsplitter", "gaussian.partial_trace"})
SCHUR = frozenset({"estimation.conditional_variance_coords"})
REDUNDANT_RATES = frozenset({"keyrate.keyrate_eavesdropping", "keyrate.keyrate_dishonest"})


def op_layer_metrics(spans, counts):
    """Per-layer metrics of one traced op from its spans and counts.

    Times are seconds. ``<layer>.self_s`` sums the self time of the layer's
    spans; ``*_s`` of named functions sums their outermost spans.
    """
    own = self_times(spans)
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    calls = {}
    for (name, _, _, _), ns in zip(spans, own):
        metrics[name.split(".", 1)[0] + ".self_s"] += ns / 1e9
        calls[name] = calls.get(name, 0) + 1

    def inclusive(names):
        return sum(spans[i][3] - spans[i][2] for i in outermost(spans, names)) / 1e9

    def called(names):
        return sum(calls.get(name, 0) for name in names)

    schur_calls = called(SCHUR)
    structures = counts.get("keyrate.structures", 0)
    rows = counts.get("simulation.rows_sampled", 0)
    protocol = {"simulation.run_protocol"}
    metrics.update({
        "states.build_s": inclusive({"states.build_kn_state"}),
        "states.loss_s": inclusive({"states.pure_loss"}),
        "gaussian.transform_s": inclusive(TRANSFORMS),
        "gaussian.transform_calls": called(TRANSFORMS),
        "estimation.schur_calls": schur_calls,
        "estimation.schur_s": inclusive(SCHUR),
        "estimation.schur_us_per_call": (inclusive(SCHUR) / schur_calls * 1e6
                                         if schur_calls else 0.0),
        "estimation.schur_calls_per_structure": (schur_calls / structures
                                                 if structures else 0.0),
        "keyrate.structures": structures,
        "keyrate.redundant_calls": called(REDUNDANT_RATES),
        "simulation.sample_s": inclusive({"simulation.sample_outcomes"}),
        "simulation.rows_sampled": rows,
        "simulation.sifted_share": (counts.get("simulation.sifted_rounds", 0) / rows
                                    if rows else 0.0),
        "simulation.regress_s": inclusive({"simulation.empirical_conditional_variance"}),
        "simulation.regress_calls": called({"simulation.empirical_conditional_variance"}),
        "simulation.protocol_self_s": sum(
            own[i] for i, span in enumerate(spans) if span[0] in protocol) / 1e9,
    })
    return metrics
