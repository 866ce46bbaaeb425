"""Spans around the calls into each layer, installed from outside.

The traced run turns on the library's own ``repro.telemetry`` spans
(``executor.run_functional``, ``executor.layer``, ``serve.request``)
and adds spans of its own around three public entry points, by
replacing them on their classes for the duration of the traced pass:

* ``CompiledPlan.compile``             -> ``bench.plan.compile``
* ``CompiledPlan.execute``             -> ``bench.plan.execute``
* ``CompiledPlan.steps[i].run``        -> ``bench.plan.step``
* ``FusedLayerKernel.mvm_batch``       -> ``bench.kernels.mvm_batch``

Every compile gets a span; of the others only objects the benchmark
labelled do, so plans the serving runtime builds internally run
unwrapped.  Spans stay in the telemetry
session's memory until the run ends.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro import telemetry
from repro.nn.layers import Conv2D, Dense
from repro.perf.kernels import FusedLayerKernel
from repro.perf.plan import CompiledPlan

#: Span name -> the layer of the stack it times.  A span's self time
#: excludes the time of descendants that belong to another layer.
SPAN_LAYER = {
    "bench.run_functional": "caller",
    "executor.run_functional": "core.executor",
    "bench.plan.execute": "perf.plan",
    "bench.plan.step": "perf.plan.step",
    "executor.layer": "perf.plan.step",
    "bench.kernels.mvm_batch": "perf.kernels",
}


def is_weight(layer) -> bool:
    return isinstance(layer, (Dense, Conv2D))


class LayerTracer:
    """Labels plans, steps and kernels, and wraps their entry points.

    Spans carry the label of the object called plus :attr:`case`, the
    case the caller is measuring.  ``capture`` names cases whose weight
    steps keep a copy of their input and output, for the per-layer
    error against float.
    """

    def __init__(self) -> None:
        self._labels: dict[int, dict] = {}
        self._pinned: list = []
        self._patched: list = []
        self.case = ""
        self.capture: set[str] = set()
        self.captured: dict[str, list] = defaultdict(list)

    def _label(self, obj, **attrs) -> None:
        self._labels[id(obj)] = attrs
        self._pinned.append(obj)

    def label_plan(self, plan: CompiledPlan) -> None:
        """Label ``plan``, each of its steps, and its weight kernels."""
        self._label(plan)
        weight = 0
        for step in plan.steps:
            if is_weight(step.layer):
                self._label(step, layer=weight, kind="weight")
                self._label(step.kernel, layer=weight)
                weight += 1
            else:
                self._label(step, kind=type(step.layer).__name__)

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        step_classes = {
            type(step)
            for obj in self._pinned
            if isinstance(obj, CompiledPlan)
            for step in obj.steps
        }
        original = CompiledPlan.__dict__["compile"]
        compile_ = CompiledPlan.compile

        def compile_spanned(cls, *args, **kwargs):
            with telemetry.span("bench.plan.compile"):
                return compile_(*args, **kwargs)

        CompiledPlan.compile = classmethod(compile_spanned)
        self._patched.append((CompiledPlan, "compile", original))
        self._wrap(CompiledPlan, "execute", "bench.plan.execute")
        for cls in sorted(step_classes, key=lambda c: c.__name__):
            self._wrap(cls, "run", "bench.plan.step", self._capture)
        self._wrap(FusedLayerKernel, "mvm_batch", "bench.kernels.mvm_batch")

    def remove(self) -> None:
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, cls, name: str, span_name: str, after=None) -> None:
        original = cls.__dict__[name]
        labels = self._labels

        def wrapper(obj, *args, **kwargs):
            label = labels.get(id(obj))
            if label is None or not telemetry.enabled():
                return original(obj, *args, **kwargs)
            attrs = {"case": self.case, **label}
            with telemetry.span(span_name, **attrs):
                out = original(obj, *args, **kwargs)
            if after is not None:
                after(obj, attrs, args, out)
            return out

        setattr(cls, name, wrapper)
        self._patched.append((cls, name, original))

    def _capture(self, step, attrs, args, out) -> None:
        if attrs["case"] in self.capture and attrs.get("kind") == "weight":
            self.captured[attrs["case"]].append(
                (attrs["layer"], step.layer, np.array(args[0]), np.array(out))
            )


# -- reading the spans back -----------------------------------------------


class SpanIndex:
    """The telemetry session's spans, with children and self times."""

    def __init__(self, spans) -> None:
        self.spans = list(spans)
        self.by_index = {s.index: s for s in self.spans}
        self.children: dict[int, list] = defaultdict(list)
        for s in self.spans:
            if s.parent_index is not None and s.track is None:
                self.children[s.parent_index].append(s)

    def named(self, name: str, **attrs) -> list:
        return [
            s
            for s in self.spans
            if s.name == name
            and s.end_ns is not None
            and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def self_ns(self, span) -> int:
        """Duration minus the descendants that belong to other layers."""
        layer = SPAN_LAYER.get(span.name, span.name)
        total = span.duration_ns
        stack = list(self.children[span.index])
        while stack:
            child = stack.pop()
            if SPAN_LAYER.get(child.name, child.name) == layer:
                stack.extend(self.children[child.index])
            else:
                total -= child.duration_ns
        return total

    def ancestor(self, span, name: str):
        while span.parent_index is not None:
            span = self.by_index[span.parent_index]
            if span.name == name:
                return span
        return None


def layer_rel_err(captured) -> dict[int, float]:
    """Relative RMS distance of each crossbar layer output from the
    float layer applied to the same input, pooled over every call."""
    num: dict[int, float] = defaultdict(float)
    den: dict[int, float] = defaultdict(float)
    for index, layer, x, out in captured:
        ref = layer.forward(x)
        num[index] += float(np.sum((out - ref) ** 2))
        den[index] += float(np.sum(ref**2))
    return {i: (num[i] / den[i]) ** 0.5 for i in sorted(num)}
