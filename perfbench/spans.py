"""In-memory span tracing of rainbow_greedy's public functions.

The tracer wraps every public function of the traced modules and rebinds
each module attribute that refers to the same function object, so calls
made through `from ... import` names inside the package are traced too.
A span is (name, start, end, parent); a few functions also get a probe
that reads counts off their arguments or result after the span has
closed, so the probe's own cost never lands inside a span.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("colored_graph", "greedy_engines", "ode_theory", "asymptotics",
          "rng", "experiment_harness")
PACKAGE = "rainbow_greedy"

BRACKETS = ("asymptotics.tau0_near_half", "asymptotics.tau0_large_kappa",
            "asymptotics.tau0_small_kappa_bounds")


def _edges(bound, result):
    return {"edges": bound.arguments["m"]}


def _steps(bound, result):
    return {"steps": result.steps_total, "mu": result.mu}


def _verified(bound, result):
    return {"failed": 0 if result.ok else 1}


def _rk4(bound, result):
    return {"rk4_steps": len(result.taus)}


def _missed(bound, result):
    return {"missed": sum(1 for row in result if not row["contained"])}


PROBES = {
    "colored_graph.generate": _edges,
    "greedy_engines.run_greedy": _steps,
    "greedy_engines.run_modified_greedy": _steps,
    "greedy_engines.verify_result": _verified,
    "ode_theory.integrate_greedy": _rk4,
    "ode_theory.integrate_modified": _rk4,
    "experiment_harness.asymptotics_report": _missed,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "error")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict | None = None
        self.error: str | None = None

    def as_row(self) -> list:
        return [self.name, self.start, self.end, self.parent]


class Tracer:
    """Collects spans while installed; spans stay in memory until written."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, object]] = []
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or isinstance(fn, type)
                        or not callable(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                self._wrapped.append((fn, self._wrap(f"{layer}.{attr}", fn)))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                raise
            else:
                span.end = clock()
            finally:
                stack.pop()
            if probe is not None:
                span.counts = probe(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _rebind(self, table: dict[int, object]) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                new = table.get(id(value))
                if new is not None:
                    setattr(module, attr, new)

    def install(self) -> None:
        self._rebind({id(fn): traced for fn, traced in self._wrapped})

    def uninstall(self) -> None:
        self._rebind({id(traced): fn for fn, traced in self._wrapped})


def self_times(spans: list[Span], lo: int, hi: int) -> list[float]:
    """Self time of spans[lo:hi]: duration minus the time covered by children.

    Children of one span never overlap, because the traced code runs on
    one thread, so subtracting their durations gives the covered time.
    """
    own = [s.end - s.start for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i].parent
        if parent >= lo:
            own[parent - lo] -= spans[i].end - spans[i].start
    return own


def layer_metrics(spans: list[Span], lo: int, hi: int) -> dict[str, float]:
    """Per-layer counts and times for the spans of one traced pass."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    failed: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    for span, own in zip(spans[lo:hi], self_times(spans, lo, hi)):
        calls[span.name] += 1
        busy[span.name] += span.end - span.start
        self_by_name[span.name] += own
        if span.error is not None:
            failed[span.name] += 1
        for key, value in (span.counts or {}).items():
            counts[f"{span.name}.{key}"] += value

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m: dict[str, float] = {}
    name = "colored_graph.generate"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.busy_s"] = busy[name]
    m[f"{name}.edges_per_s"] = rate(counts[f"{name}.edges"], busy[name])
    for name in ("greedy_engines.run_greedy", "greedy_engines.run_modified_greedy"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.steps_per_s"] = rate(counts[f"{name}.steps"], busy[name])
    name = "greedy_engines.run_modified_greedy"
    m[f"{name}.match_ratio"] = rate(counts[f"{name}.mu"], counts[f"{name}.steps"])
    name = "greedy_engines.verify_result"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.busy_s"] = busy[name]
    m[f"{name}.failed"] = counts[f"{name}.failed"]
    for name in ("ode_theory.integrate_greedy", "ode_theory.integrate_modified"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.rk4_steps"] = counts[f"{name}.rk4_steps"]
        m[f"{name}.failed"] = failed[name]
    name = "ode_theory.tau0_general"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.busy_s"] = busy[name]
    m["asymptotics.brackets.calls"] = sum(calls[b] for b in BRACKETS)
    m["asymptotics.brackets.busy_s"] = sum(busy[b] for b in BRACKETS)
    m["asymptotics.brackets.missed"] = counts["experiment_harness.asymptotics_report.missed"]
    m["experiment_harness.run_monte_carlo.self_s"] = \
        self_by_name["experiment_harness.run_monte_carlo"]
    name = "experiment_harness.theory_mu_over_n"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.busy_s"] = busy[name]
    m["rng.mix.calls"] = calls["rng.mix"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items()
                                   if k.startswith(layer + "."))
    return m
