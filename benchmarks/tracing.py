"""Spans around calls into bohrlab's public functions, recorded from outside.

The package binds its imports by name (``cli`` holds its own reference to
``random_schur``, ``corpus`` to ``cauchy_product``, and so on), so a wrapper
is installed on every module attribute that refers to a traced function
and removed again afterwards.  Nothing under ``src/`` is edited.

Each call becomes a span (layer, start, end, parent).  Spans live in
in-memory arrays until ``write_spans``.  A layer's self time is the sum of
its spans' durations minus the time covered by their direct child spans.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

# (module, function) pairs that get a span.  ``cli.main`` is the root of
# every command; its self time is argument parsing and report rendering.
LAYERS = (
    ("cli", "main"),
    ("corpus", "derive_seed"),
    ("corpus", "random_schur"),
    ("corpus", "multiply_by_z"),
    ("corpus", "taylor_coeffs"),
    ("series", "cauchy_product"),
    ("series", "binomial_coeffs"),
    ("operators", "majorant_value"),
    ("operators", "bohr_majorant"),
    ("operators", "adaptive_simpson"),
    ("radii", "solve_radius"),
    ("radii", "radius_equation"),
    ("sharpness", "violation_search"),
    ("sharpness", "decomposition_cesaro"),
    ("sharpness", "decomposition_bernardi"),
    ("sharpness", "extremal_majorant"),
)

_MODULES = ("cli", "corpus", "series", "operators", "radii", "sharpness")

# Work counters read from arguments and results at the layer boundary.
COEFFS = "corpus.taylor_coeffs.coeffs"
ITERATIONS = "radii.solve_radius.iterations"
ATTEMPTS = "sharpness.violation_search.attempts"
INTEGRAND_EVALS = "operators.adaptive_simpson.integrand_evals"

# Per-layer metrics reported by the benchmark: (name, unit).
CALLS = ("corpus.random_schur", "corpus.multiply_by_z", "corpus.taylor_coeffs",
         "series.cauchy_product", "series.binomial_coeffs", "operators.majorant_value",
         "operators.bohr_majorant", "operators.adaptive_simpson", "radii.radius_equation",
         "radii.solve_radius")
SELF_TIMES = ("cli.main", "corpus.derive_seed", "corpus.random_schur", "corpus.multiply_by_z",
              "corpus.taylor_coeffs", "series.cauchy_product", "operators.majorant_value",
              "operators.bohr_majorant", "operators.adaptive_simpson", "radii.radius_equation",
              "sharpness.decomposition_cesaro", "sharpness.decomposition_bernardi",
              "sharpness.extremal_majorant")
EVALS_PER_SOLVE = "radii.evals_per_solve"
OVERHEAD = "trace.overhead_s"
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in CALLS]
    + [(f"{layer}.self_s", "s") for layer in SELF_TIMES]
    + [(COEFFS, "count"), (ITERATIONS, "count"), (ATTEMPTS, "count"),
       (INTEGRAND_EVALS, "count"), (EVALS_PER_SOLVE, "evals/solve"), (OVERHEAD, "s")]
)
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit == "count")

# Layers whose result carries a work count: layer -> (counter, measure).
_RESULT_COUNTERS = {
    "corpus.taylor_coeffs": (COEFFS, len),
    "radii.solve_radius": (ITERATIONS, lambda result: result.iterations),
    "sharpness.violation_search": (ATTEMPTS, lambda result: result.attempts),
}


class Tracer:
    """Span recorder for one traced pass; create a fresh one per pass."""

    def __init__(self) -> None:
        self.layers = [f"{module}.{name}" for module, name in LAYERS]
        self.layer = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open = [-1]
        self.counters = {COEFFS: 0, ITERATIONS: 0, ATTEMPTS: 0, INTEGRAND_EVALS: 0}

    def _wrap(self, layer: int, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        spans_layer, start, end, parent, open_ = (
            self.layer, self.start, self.end, self.parent, self._open)
        counters = self.counters
        name = self.layers[layer]
        counter, measure = _RESULT_COUNTERS.get(name, (None, None))
        counts_integrand = name == "operators.adaptive_simpson"

        def counted(integrand: Callable) -> Callable:
            def evaluate(t):
                counters[INTEGRAND_EVALS] += 1
                return integrand(t)

            return evaluate

        def traced(*args, **kwargs):
            if counts_integrand:
                args = (counted(args[0]),) + args[1:]
            index = len(start)
            spans_layer.append(layer)
            parent.append(open_[-1])
            end.append(0)
            open_.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_.pop()
            if counter is not None:
                counters[counter] += measure(result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every binding of every traced function, restore on exit."""
        modules = [importlib.import_module("bohrlab")] + [
            importlib.import_module(f"bohrlab.{m}") for m in _MODULES]
        patched = []
        for layer, (module, name) in enumerate(LAYERS):
            original = getattr(importlib.import_module(f"bohrlab.{module}"), name)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)

    def summary(self) -> dict:
        """Per-layer calls, self seconds and counters of this pass."""
        n_layers = len(self.layers)
        calls = [0] * n_layers
        total = [0] * n_layers
        child = [0] * len(self.start)
        for layer, s, e, p in zip(self.layer, self.start, self.end, self.parent):
            calls[layer] += 1
            if p >= 0:
                child[p] += e - s
        for i, (layer, s, e) in enumerate(zip(self.layer, self.start, self.end)):
            total[layer] += e - s - child[i]
        solve = self.layers.index("radii.solve_radius")
        equation = self.layers.index("radii.radius_equation")
        evals_in_solves = sum(
            1 for layer, p in zip(self.layer, self.parent)
            if layer == equation and p >= 0 and self.layer[p] == solve)
        out = dict(self.counters)
        for layer, name in enumerate(self.layers):
            out[f"{name}.calls"] = calls[layer]
            out[f"{name}.self_s"] = total[layer] / 1e9
        out[EVALS_PER_SOLVE] = evals_in_solves / calls[solve] if calls[solve] else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tlayer\tstart_ns\tend_ns\tparent\n")
            for i, (layer, s, e, p) in enumerate(zip(self.layer, self.start, self.end, self.parent)):
                fh.write(f"{i}\t{self.layers[layer]}\t{s}\t{e}\t{p}\n")


def per_layer_metrics(summaries: list, overhead_s: float) -> dict:
    """Counts from the first traced pass, self times as medians over passes."""
    first = summaries[0]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == OVERHEAD:
            value = overhead_s
        elif unit == "s":
            value = statistics.median(s[name] for s in summaries)
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics
