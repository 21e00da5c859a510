"""In-memory span tracing of pdneg's public functions, from outside the package.

The package's modules import each other's functions by name (``cli`` and
``analysis`` bind ``apply_transformation``, ``evaluate``, ``entropy``, ...),
so a function is wrapped on every pdneg module whose namespace holds it, and
every binding is put back by :meth:`Tracer.uninstall`.

A span is ``(request, span_id, parent_id, name, start, end, attrs)``; span ids
are positions in the tracer's buffer and ``parent_id`` is -1 for a root.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("pdneg", "pdneg.core", "pdneg.negators", "pdneg.analysis", "pdneg.cli")

#: Family of each descriptor class, for the per-family apply metrics.
FAMILIES = {
    "Uniform": "linear",
    "Yager": "linear",
    "Linear": "linear",
    "Tsallis": "tsallis",
    "RootSum": "rootsum",
    "Mixture": "mixture",
    "Generator": "generator",
    "Identity": "identity",
}
APPLY_FAMILIES = ("linear", "tsallis", "rootsum", "mixture", "generator")
ANALYSIS_FUNCTIONS = (
    "fixed_point_check",
    "functional_equation_check",
    "boundary_range_check",
    "linearity_test",
    "independence_probe",
    "check_negation_pair",
    "iterate_negation",
)
SCALING_SIZES = (1000, 2000)


def _apply_attrs(args, kwargs):
    descriptor = args[0] if args else kwargs["descriptor"]
    dist = args[1] if len(args) > 1 else kwargs["dist"]
    return (FAMILIES.get(type(descriptor).__name__, "other"), len(dist))


def _pair_attrs(args, kwargs):
    return ("pair", len(args[0] if args else kwargs["p_dist"]))


#: Traced functions by span name, "<pdneg module>.<function>", each with the
#: function (or None) that reads the span's attributes from the call's arguments.
TRACED = {
    "cli.main": None,
    "core.validate_distribution": None,
    "core.entropy": None,
    "negators.parse_descriptor": None,
    "negators.apply_transformation": _apply_attrs,
    "negators.evaluate": None,
    **{f"analysis.{name}": _pair_attrs if name == "check_negation_pair" else None for name in ANALYSIS_FUNCTIONS},
}


class Tracer:
    """Wraps pdneg's public functions and records one span per call."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs_fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn is not None else None
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (self.request, span_id, parent, name, start, end, attrs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [sys.modules[name] for name in MODULES]
        for name, attrs_fn in TRACED.items():
            home, _, attribute = name.partition(".")
            original = getattr(sys.modules[f"pdneg.{home}"], attribute)
            wrapper = self._wrap(name, original, attrs_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def drain(self) -> list:
        """Return the finished spans and empty the buffer (span ids restart at 0)."""
        if self._stack:
            raise RuntimeError("cannot drain while a span is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


class LayerStats:
    """Per-layer totals folded from drained span batches."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # Apply span time by descriptor family.
        self.family_s: dict[str, float] = defaultdict(float)
        # Durations of apply (by family) and check_negation_pair ("pair") calls
        # at each of SCALING_SIZES, in call order.
        self.sized: dict[tuple[str, int], list[float]] = defaultdict(list)
        self.components_applied = 0
        self.evaluate_in_apply = 0

    def add(self, spans) -> None:
        child_s = [0.0] * len(spans)
        names = [None] * len(spans)
        for _, span_id, parent, name, start, end, _ in spans:
            names[span_id] = name
            if parent >= 0:
                child_s[parent] += end - start
        for _, span_id, parent, name, start, end, attrs in spans:
            duration = end - start
            self.self_s[name] += duration - child_s[span_id]
            self.calls[name] += 1
            if attrs is not None:
                family, n = attrs
                if n in SCALING_SIZES:
                    self.sized[attrs].append(duration)
                if name == "negators.apply_transformation":
                    self.family_s[family] += duration
                    self.components_applied += n
            if name == "negators.evaluate" and parent >= 0 and names[parent] == "negators.apply_transformation":
                self.evaluate_in_apply += 1

    def _scaling(self, family: str) -> float:
        """Median over call pairs of time at n = 2000 over time at n = 1000.

        The workloads issue the two sizes of a pair back to back, so each
        ratio compares calls made under the same load on the machine.
        """
        small, large = (self.sized[(family, n)] for n in SCALING_SIZES)
        ratios = [b / a for a, b in zip(small, large)]
        return statistics.median(ratios) if ratios else 0.0

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass over the request cycle, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
        ratio = self.evaluate_in_apply / self.components_applied if self.components_applied else 0.0
        out["negators.evaluate.per_component"] = (ratio, "ratio")
        for family in APPLY_FAMILIES:
            out[f"negators.apply.{family}.total_s"] = (self.family_s[family] / passes, "s")
            out[f"negators.apply.{family}.scaling"] = (self._scaling(family), "ratio")
        out["analysis.check_negation_pair.scaling"] = (self._scaling("pair"), "ratio")
        return out
