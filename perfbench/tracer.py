"""Span tracing around pqc_lens public functions, installed from outside.

The package is not modified. Modules import functions by name
(``from .simulator import simulate``), so each traced function is replaced
by a timing wrapper under every name that binds it in every pqc_lens module
namespace, the package ``__init__`` re-exports included. Spans are
aggregated in memory per (function, parent span); a span's self time is
its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# Traced functions by defining module. Every function of the svg module
# reports under the single span name "svg".
TRACED = {
    "circuit": ("bind",),
    "simulator": ("simulate", "expectation", "subsystem_purity",
                  "reduced_density_matrix", "sample"),
    "baselines": ("sample_haar_state", "mp_reference_spectrum", "histogram"),
    "trainer": ("gradient", "evaluate_cost", "train", "ensemble_train"),
    "projection": ("tsne", "pca"),
    "analyzers": ("expressibility", "entanglement_capability",
                  "entanglement_spectrum", "loss_landscape", "training_path",
                  "barren_plateau_scan"),
    "svg": ("line_plot", "histogram_plot", "heatmap", "path_plot"),
    "cli": ("run",),
}
MODULES = ("analyzers", "baselines", "circuit", "cli", "library",
           "projection", "simulator", "svg", "trainer")

_BYTES_PER_AMPLITUDE = 16  # complex128


def _count_simulate(counters, args, kwargs) -> None:
    bound = args[0] if args else kwargs["bound"]
    gates = len(bound.gates)
    counters["simulate.gates"] += gates
    # computed traffic: every gate reads and writes the whole state once
    counters["simulate.bytes"] += gates * 2**bound.n_qubits * _BYTES_PER_AMPLITUDE * 2


def _count_expectation(counters, args, kwargs) -> None:
    obs = args[1] if len(args) > 1 else kwargs["obs"]
    counters["expectation.terms"] += len(obs.terms)


COUNTERS = {
    "simulator.simulate": _count_simulate,
    "simulator.expectation": _count_expectation,
}


def span_name(layer: str, function: str) -> str:
    return "svg" if layer == "svg" else f"{layer}.{function}"


class Tracer:
    """Wraps the TRACED functions while installed and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = importlib.import_module("pqc_lens")
        modules = [package] + [importlib.import_module(f"pqc_lens.{m}") for m in MODULES]
        for layer, functions in TRACED.items():
            home = importlib.import_module(f"pqc_lens.{layer}")
            for function in functions:
                original = getattr(home, function)
                name = span_name(layer, function)
                wrapper = self._wrap(name, original, COUNTERS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, count):
        stack, spans, counters = self._stack, self.spans, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                record = spans.get((name, parent))
                if record is None:
                    record = spans[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if count is not None:
                    count(counters, args, kwargs)

        return traced

    def by_function(self) -> dict[str, list]:
        """[calls, total_s, self_s] per span name, summed over parents."""
        flat: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _), (calls, total, self_s) in self.spans.items():
            entry = flat[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        return flat

    def table(self) -> list[str]:
        lines = []
        for (name, parent), (calls, total, self_s) in sorted(
                self.spans.items(), key=lambda item: -item[1][2]):
            lines.append(f"span {name:<40} parent {str(parent):<40} "
                         f"calls {calls:>8d} total_s {total:10.4f} self_s {self_s:10.4f}")
        return lines


def layer_metrics(tracer: Tracer, rounds: int, traced_seconds: float) -> dict[str, float]:
    """Per-round layer figures from one traced measured phase."""
    flat = tracer.by_function()
    metrics: dict[str, float] = {}
    for layer, functions in TRACED.items():
        for function in functions:
            name = span_name(layer, function)
            calls, _, self_s = flat.get(name, (0, 0.0, 0.0))
            metrics[f"{name}.calls"] = calls / rounds
            metrics[f"{name}.self_s"] = self_s / rounds
    simulate_self = flat.get("simulator.simulate", (0, 0.0, 0.0))[2]
    gigabytes = tracer.counters["simulate.bytes"] / 1e9
    metrics["simulator.simulate.gates"] = tracer.counters["simulate.gates"] / rounds
    metrics["simulator.simulate.gb_computed"] = gigabytes / rounds
    metrics["simulator.simulate.gb_per_s"] = gigabytes / simulate_self if simulate_self else 0.0
    metrics["simulator.expectation.terms"] = tracer.counters["expectation.terms"] / rounds
    gradients = flat.get("trainer.gradient", (0, 0.0, 0.0))[0]
    sims_in_gradient = tracer.spans.get(("simulator.simulate", "trainer.gradient"), (0,))[0]
    metrics["trainer.sims_per_gradient"] = sims_in_gradient / gradients if gradients else 0.0
    attributed = sum(entry[2] for entry in flat.values())
    metrics["bench.self_s"] = (traced_seconds - attributed) / rounds
    metrics["trace.attributed_frac"] = attributed / traced_seconds
    return metrics
