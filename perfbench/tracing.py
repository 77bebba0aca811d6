"""Spans around calls into the package's public functions, recorded from outside.

A traced pass swaps each function in TARGETS for a timing wrapper in every
tensorlimits module that refers to it, so calls the package makes internally
(convergence_report calling mixed_moments, say) are timed too.  The package's
source is not touched, and the swap is undone when the pass ends.  Only
coarse functions, called a few times per pass, are wrapped, so the wrappers
add little; hot inner helpers such as to_dominant_shifted are timed as part
of their caller.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# (module, attribute, metric); the layer is the metric name up to its first dot
TARGETS = (
    ("rootsys", "build_root_system", "rootsys.build_s"),
    ("repchar", "tensor_power_table", "repchar.table_s"),
    ("repchar", "racah_decompose", "repchar.racah_s"),
    ("repchar", "save_multiplicity_map", "cli.cache_write_s"),
    ("repchar", "load_multiplicity_map", "cli.cache_read_s"),
    ("measures", "xi_measure", "measures.xi_s"),
    ("measures", "mixed_moments", "measures.moments_s"),
    ("measures", "eta_measure", "measures.eta_s"),
    ("measures", "eta_extended_measure", "measures.eta_ext_s"),
    ("measures", "pushforward_dominant_shifted", "measures.pushforward_s"),
    ("convergence", "_sup_char_error_measure", "convergence.charfn_s"),
    ("convergence", "histogram_tv", "convergence.tv_s"),
    ("convergence", "convergence_report", "convergence.report_s"),
    ("densities", "make_density_model", "densities.model_s"),
    ("densities", "normalization_quadrature", "densities.quadrature_s"),
    ("cli", "main", "cli.main_s"),
)
LAYERS = ("rootsys", "repchar", "measures", "convergence", "densities", "cli", "bench")
ROOT = "bench.segment"


def _table_sizes(tracer, maps) -> None:
    for m in maps:
        tracer.peak("repchar.table_weights", len(m.entries))
        tracer.peak("repchar.table_bits", max((c.bit_length() for c in m.entries.values()), default=0))


def _eta_ext_atoms(tracer, measure) -> None:
    tracer.add("measures.eta_ext_atoms", len(measure.atoms))
    tracer.add("measures.wall_atoms", sum(1 for _, p in measure.atoms if p == 0))


# counts taken from a traced function's result
RESULT_COUNTS = {
    "repchar.table_s": lambda tr, table: _table_sizes(tr, table.values()),
    "cli.cache_read_s": lambda tr, m: _table_sizes(tr, [m]),
    "repchar.racah_s": lambda tr, dec: tr.add("repchar.components", len(dec.components)),
    "measures.eta_ext_s": _eta_ext_atoms,
}


class Tracer:
    """Spans of one segment (a set-up or a pass) plus counts, kept in memory."""

    def __init__(self, segment: str):
        self.segment = segment
        self.spans = []  # dicts: id, parent, name, start, end
        self.counts: dict = {}
        self._stack = []

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": idx, "parent": parent, "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        on_result = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def summary(self, scale: float) -> dict:
        """Inclusive seconds per traced name, self seconds and calls per layer, counts.

        The segment's root span belongs to the bench layer; its self time is
        the pass's own glue, so the layers' self times sum to trace.pass_s.
        Every time is multiplied by `scale`.
        """
        out = {name: 0.0 for _, _, name in TARGETS}
        out["trace.pass_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        for s, inner in zip(self.spans, child):
            duration = (s["end"] - s["start"]) * scale
            inner *= scale
            layer = s["name"].split(".", 1)[0]
            if s["name"] == ROOT:
                out["trace.pass_s"] += duration
            elif s["name"] in out:
                out[s["name"]] += duration
            out[f"{layer}.self_s"] += duration - inner
            if s["name"] != ROOT:
                out[f"{layer}.calls"] += 1
        out.update(self.counts)
        return out


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "tensorlimits" or name.startswith("tensorlimits.")]


def _count_points(tracer, evaluate):
    def counted(model, points):
        values = evaluate(model, points)
        if tracer.innermost() == "densities.quadrature_s":
            tracer.add("densities.quadrature_points", values.size)
        return values

    return counted


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore the originals on exit."""
    swaps = []
    try:
        for module, attr, metric in TARGETS:
            fn = getattr(importlib.import_module(f"tensorlimits.{module}"), attr, None)
            if fn is None:
                print(f"warning: trace target tensorlimits.{module}.{attr} is gone; {metric} reads 0", file=sys.stderr)
                continue
            wrapped = tracer.wrap(metric, fn)
            for mod in _package_modules():
                if getattr(mod, attr, None) is fn:
                    swaps.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
        densities = importlib.import_module("tensorlimits.densities")
        evaluate = densities.DensityModel.evaluate
        swaps.append((densities.DensityModel, "evaluate", evaluate))
        densities.DensityModel.evaluate = _count_points(tracer, evaluate)
        yield tracer
    finally:
        for owner, attr, original in reversed(swaps):
            setattr(owner, attr, original)
