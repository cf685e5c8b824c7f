"""Span tracing for the traced benchmark run, applied from outside bell3q.

``LayerPatch`` swaps each layer's public functions, under the module
attribute names their callers look up, for wrappers that record a span:
layer, function, start, end, enclosing span and instance id.  Spans stay in
memory until the run ends; ``layer_metrics`` turns them into the per-layer
numbers.  Only here does the oracle wrapper forward ``record_trace=True``, so
that per-row convergence can be read.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

LAYERS = ("cli", "states", "pauli", "smallmat", "mermin", "svetlichny", "oracle")
ROOT = "instance"   # the benchmark's own span around one timed instance
GRID_FUNCTIONS = ("optimal_unbiased_angles", "optimal_unbiased_angles_svetlichny")
DECOMPOSE_FUNCTIONS = ("decompose", "decomposition_from_t")
BEST_RESTART_RTOL = 1e-9


class Span(NamedTuple):
    layer: str
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    instance: int
    extra: Optional[dict] = None


class Tracer:
    """Records spans of nested calls made by one thread."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.instance = -1

    def call(self, layer, name, fn, args=(), kwargs=None, extra=None):
        """``fn(*args, **kwargs)`` inside a span; ``extra(result)`` is stored
        with the span after its end time is taken."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(layer, name, start, end, parent, self.instance)
        if extra is not None:
            self.spans[index] = self.spans[index]._replace(extra=extra(result))
        return result


def _plain_wrapper(tracer, layer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs)
    return traced


def _grid_wrapper(tracer, layer, name, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        points = int(bound.arguments["resolution"]) ** 3
        return tracer.call(layer, name, fn, args, kwargs, lambda _: {"points": points})
    return traced


def _oracle_wrapper(tracer, layer, name, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        config = dataclasses.replace(bound.arguments["config"], record_trace=True)
        bound.arguments["config"] = config
        return tracer.call(layer, name, fn, bound.args, bound.kwargs,
                           lambda result: {"sweeps": result.sweeps,
                                           "capped": result.hit_max_sweeps,
                                           "trace": result.trace,
                                           "tol": config.convergence_tol})
    return traced


def _targets():
    """(module, attribute, layer, wrapper factory) for every swapped name."""
    from bell3q import cli, mermin, oracle, pauli, smallmat, svetlichny
    targets = [(cli, "main", "cli", _plain_wrapper)]
    targets += [(cli, n, "states", _plain_wrapper)
                for n in ("parse_state_spec", "build", "is_tstate")]
    targets += [(cli, n, "pauli", _plain_wrapper)
                for n in ("decompose", "decomposition_from_t", "reconstruct")]
    targets += [(pauli, "decomposition_from_t", "pauli", _plain_wrapper)]
    # cli._svals imports smallmat's name at call time; mermin (and svetlichny
    # through mermin._t_svals) use mermin's module-level import
    targets += [(smallmat, "singular_values_3x9", "smallmat", _plain_wrapper),
                (mermin, "singular_values_3x9", "smallmat", _plain_wrapper)]
    for module in (mermin, svetlichny):
        layer = module.__name__.rsplit(".", 1)[1]
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                factory = _grid_wrapper if name in GRID_FUNCTIONS else _plain_wrapper
                targets.append((module, name, layer, factory))
    targets += [(cli, "see_saw_maximize", "oracle", _oracle_wrapper),
                (cli, "bias_optimize", "oracle", _oracle_wrapper),
                (oracle, "see_saw_maximize", "oracle", _oracle_wrapper)]
    return targets


class LayerPatch:
    """Context manager that swaps the layer functions for span recorders."""

    def __init__(self, tracer: Tracer):
        self._swaps = [(module, attr, getattr(module, attr),
                        factory(tracer, layer, attr, getattr(module, attr)))
                       for module, attr, layer, factory in _targets()]

    def __enter__(self):
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)
        return False


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so direct children never overlap and their
    durations add up to the part of the parent they cover.
    """
    selfs = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            selfs[s.parent] -= s.end - s.start
    return selfs


def _has_ancestor(spans, index, layer) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False


def _oracle_rows(extra):
    """(rows, row-sweeps, useful row-sweeps, rows at the best value) of one call."""
    trace = extra["trace"]                  # (sweeps + 1, rows) objective values
    rows = trace.shape[1]
    useful = int(np.count_nonzero(np.diff(trace, axis=0) >= extra["tol"]))
    final = trace[-1]
    best = float(np.max(final))
    at_best = int(np.count_nonzero(final >= best - BEST_RESTART_RTOL * max(1.0, abs(best))))
    return rows, rows * extra["sweeps"], useful, at_best


def layer_metrics(spans, plain_seconds: float) -> dict:
    """Per-layer numbers, per traced instance unless the name says otherwise.

    ``plain_seconds`` is the untraced time of the same instances; the excess
    of the traced root spans over it is the tracing overhead.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.layer == ROOT]
    n = max(len(roots), 1)
    traced_seconds = sum(spans[i].end - spans[i].start for i in roots)
    total = traced_seconds or 1.0
    by_layer = {layer: [i for i, s in enumerate(spans) if s.layer == layer]
                for layer in LAYERS}

    out = {}
    for layer, idx in by_layer.items():
        busy = sum(selfs[i] for i in idx)
        out[f"{layer}.calls"] = len(idx) / n
        out[f"{layer}.self_ms"] = 1e3 * busy / n
        out[f"{layer}.share"] = busy / total

    small = by_layer["smallmat"]
    out["cli.svals_calls"] = sum(_has_ancestor(spans, i, "cli") for i in small) / n
    out["smallmat.us_per_call"] = (1e6 * sum(selfs[i] for i in small) / len(small)
                                   if small else 0.0)
    decomp = [i for i in by_layer["pauli"] if spans[i].name in DECOMPOSE_FUNCTIONS]
    out["pauli.decompose_us"] = (1e6 * sum(selfs[i] for i in decomp) / len(decomp)
                                 if decomp else 0.0)

    points = 0
    for layer in ("mermin", "svetlichny"):
        grid = [i for i in by_layer[layer] if spans[i].name in GRID_FUNCTIONS]
        out[f"{layer}.angle_grid_ms"] = 1e3 * sum(spans[i].end - spans[i].start
                                                  for i in grid) / n
        points += sum(spans[i].extra["points"] for i in grid if spans[i].extra)
    out["angle_grid.points"] = points / n

    calls = [spans[i].extra for i in by_layer["oracle"] if spans[i].extra]
    counts = np.array([_oracle_rows(e) for e in calls], dtype=float).reshape(-1, 4)
    rows, row_sweeps, useful, at_best = counts.sum(axis=0)
    sweeps = [e["sweeps"] for e in calls]
    oracle_busy = sum(selfs[i] for i in by_layer["oracle"])
    out["oracle.rows"] = rows / n
    out["oracle.sweeps_mean"] = float(np.mean(sweeps)) if sweeps else 0.0
    out["oracle.sweeps_max"] = float(max(sweeps, default=0))
    out["oracle.row_sweeps"] = row_sweeps / n
    out["oracle.us_per_row_sweep"] = 1e6 * oracle_busy / row_sweeps if row_sweeps else 0.0
    out["oracle.capped_frac"] = (sum(e["capped"] for e in calls) / len(calls)
                                 if calls else 0.0)
    out["oracle.useful_row_sweep_frac"] = useful / row_sweeps if row_sweeps else 0.0
    out["oracle.best_restart_frac"] = at_best / rows if rows else 0.0

    out["trace.overhead_frac"] = (traced_seconds / plain_seconds - 1.0
                                  if plain_seconds > 0 else 0.0)
    out["trace.unattributed_frac"] = sum(selfs[i] for i in roots) / total
    return {k: float(v) for k, v in out.items()}
