"""Spans around the benchmark's calls into the library, and the layer figures.

A span is recorded around every public call the benchmark makes into a
layer: name, start, end, the span (operation) that caused it, and a few
attributes such as the size of the input.  Spans stay in memory and are
written out once, when the run ends.  Untraced runs use
:class:`NullTracer`, which only forwards the call.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class NullTracer:
    def call(self, name, fn, *args, **attrs):
        return fn(*args)

    def note(self, **attrs) -> None:
        pass

    def op(self, name):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._parent: int | None = None

    def _open(self, name: str, attrs: dict) -> dict:
        span = {"id": len(self.spans), "parent": self._parent, "name": name,
                "start_ns": perf_counter_ns(), "end_ns": None, "attrs": attrs}
        self.spans.append(span)
        return span

    @contextmanager
    def _scope(self, span: dict):
        outer, self._parent = self._parent, span["id"]
        try:
            yield
        finally:
            self._parent = outer
            span["end_ns"] = perf_counter_ns()

    def call(self, name, fn, *args, **attrs):
        with self._scope(self._open(name, attrs)):
            return fn(*args)

    def note(self, **attrs) -> None:
        """Attach attributes to the most recent span."""
        self.spans[-1]["attrs"].update(attrs)

    def op(self, name):
        return self._scope(self._open(name, {}))

    def durations(self, name: str) -> list[tuple[float, dict]]:
        return [((s["end_ns"] - s["start_ns"]) * 1e-9, s["attrs"]) for s in self.spans if s["name"] == name]

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)


#: Per-layer figures: (metric, span, unit, statistic).  The statistic is
#: the median over spans of seconds times a scale, optionally divided by
#: a span attribute, or the median of an attribute itself.
LAYER_METRICS = (
    ("klotz.likelihood_argmax.ms", "klotz.likelihood_argmax", "ms", ("time", 1e3, None)),
    ("klotz.log_likelihood_many.ns_per_point", "klotz.log_likelihood_many", "ns/point", ("time", 1e9, "points")),
    ("worstcase.conservative_confidence.nofail.ms", "worstcase.conservative_confidence.nofail", "ms", ("time", 1e3, None)),
    ("worstcase.conservative_confidence.r0.ms", "worstcase.conservative_confidence.r0", "ms", ("time", 1e3, None)),
    ("worstcase.conservative_confidence.rpos.ms", "worstcase.conservative_confidence.rpos", "ms", ("time", 1e3, None)),
    ("worstcase.conservative_confidence.belief.ms", "worstcase.conservative_confidence.belief", "ms", ("time", 1e3, None)),
    ("worstcase.engine_worst_prior.ms", "worstcase.engine_worst_prior", "ms", ("time", 1e3, None)),
    ("priors.posterior_confidence.us", "priors.posterior_confidence", "us", ("time", 1e6, None)),
    ("oracle.grid_candidates.s", "oracle.grid_candidates", "s", ("time", 1.0, None)),
    ("oracle.grid_candidates.count", "oracle.grid_candidates", "count", ("attr", "count")),
    ("oracle.infimum.s", "oracle.infimum", "s", ("time", 1.0, None)),
    ("analysis.confidence_bound.klotz_fail.ms", "analysis.confidence_bound.klotz_fail", "ms", ("time", 1e3, None)),
    ("analysis.confidence_bound.klotz_nofail.ms", "analysis.confidence_bound.klotz_nofail", "ms", ("time", 1e3, None)),
    ("analysis.confidence_bound.univariate.ms", "analysis.confidence_bound.univariate", "ms", ("time", 1e3, None)),
    ("analysis.confidence_bound.beta_bi.ms", "analysis.confidence_bound.beta_bi", "ms", ("time", 1e3, None)),
    ("analysis.curve.ms_per_row", "analysis.curve", "ms/row", ("time", 1e3, "rows")),
    ("analysis.regularized_incomplete_beta.us", "analysis.regularized_incomplete_beta", "us", ("time", 1e6, None)),
    ("simulate.simulate.s_per_mexec", "simulate.simulate", "s/Mexec", ("time", 1e6, "n")),
    ("simulate.summarize.s_per_mexec", "simulate.summarize", "s/Mexec", ("time", 1e6, "n")),
    ("cli.simulate.s_per_mexec", "cli.simulate", "s/Mexec", ("time", 1e6, "n")),
    ("cli.summarize.s_per_mexec", "cli.summarize", "s/Mexec", ("time", 1e6, "n")),
    ("cli.campaign_file.bytes", "cli.simulate", "bytes", ("attr", "bytes")),
)


def layer_figures(tracer: Tracer) -> dict:
    """{metric: {"value", "unit"}} for every layer metric the spans cover."""
    out = {}
    for metric, span, unit, stat in LAYER_METRICS:
        samples = tracer.durations(span)
        if not samples:
            continue
        if stat[0] == "attr":
            values = [attrs[stat[1]] for _, attrs in samples]
        else:
            _, scale, per = stat
            values = [sec * scale / (attrs[per] if per else 1.0) for sec, attrs in samples]
        out[metric] = {"value": statistics.median(values), "unit": unit}
    return out
