"""Identity-based span tracer for darcat's layers.

:func:`install` finds each traced function object once, then replaces it
at *every* binding that holds that very object inside darcat's modules:
module globals (so ``from .x import f`` re-bindings are covered), dicts
held in module globals (such as a dispatch table of fitters) and class
attributes (``CatSeries.__post_init__``).  Spans are kept in memory and
written out only when the run ends; :meth:`Tracer.restore` puts every
original binding back.  A layer whose name no longer resolves is reported
as absent instead of failing the run.

The untraced benchmark run never imports this module.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from functools import partial, wraps
from time import perf_counter
from typing import Callable


def _n(v) -> int:
    return 0 if v is None else int(v)


def _observed_pairs(series) -> int:
    import numpy as np

    return max(int(np.count_nonzero(np.asarray(series.obs) != -1)) - 1, 0)


def _cells(result) -> dict[str, int]:
    return {
        "m1": sum(_n(getattr(c, "m1", 0)) for c in result),
        "m2": sum(_n(getattr(c, "m2", 0)) for c in result),
        "replicates": sum(_n(getattr(c, "m", 0)) for c in result),
    }


@dataclass(frozen=True)
class Layer:
    """One traced function: ``module`` and ``attr`` inside the darcat package.

    ``counts(args, result)`` returns the work counts of one successful
    call; it runs after the span's end time is taken, and its cost is kept
    out of the parent span's self time.
    """

    name: str
    module: str
    attr: str
    stats: tuple[str, ...]
    counts: Callable | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("cli.main", "cli", "main", ("calls", "self_s")),
    Layer("montecarlo.run_grid", "montecarlo", "run_grid", ("self_s", "m1_ratio", "m2_ratio"), lambda a, r: _cells(r)),
    Layer("dar.simulate", "dar", "simulate", ("calls", "self_s", "obs"), lambda a, r: {"obs": len(r.obs)}),
    Layer("core.CatSeries", "core", "CatSeries.__post_init__", ("calls", "self_s")),
    Layer("core.parse_series", "core", "parse_series", ("calls", "self_s", "rows"), lambda a, r: {"rows": len(r.obs)}),
    Layer(
        "core.serialize_series",
        "core",
        "serialize_series",
        ("calls", "self_s", "rows"),
        lambda a, r: {"rows": len(a[0].obs)},
    ),
    Layer("core.transition_counts", "core", "transition_counts", ("self_s",)),
    Layer("core.empirical_transition_matrix", "core", "empirical_transition_matrix", ("self_s",)),
    Layer("estimate.estimate_pi", "estimate", "estimate_pi", ("self_s",)),
    Layer(
        "estimate.estimate_alpha_mle",
        "estimate",
        "estimate_alpha_mle",
        ("calls", "self_s", "iterations", "admissible_ratio"),
        lambda a, r: {"iterations": _n(getattr(r, "iterations", 0)), "admissible": int(bool(r.converged))},
    ),
    Layer(
        "estimate.estimate_alpha_ls",
        "estimate",
        "estimate_alpha_ls",
        ("calls", "self_s", "admissible_ratio"),
        lambda a, r: {"admissible": int(bool(r.converged))},
    ),
    Layer(
        "estimate.estimate_alpha_mle_gapped",
        "estimate",
        "estimate_alpha_mle_gapped",
        ("calls", "self_s", "pairs", "iterations"),
        lambda a, r: {"pairs": _observed_pairs(a[0]), "iterations": _n(getattr(r, "iterations", 0))},
    ),
    Layer(
        "independence.runs_summary",
        "independence",
        "runs_summary",
        ("calls", "self_s", "obs_scanned"),
        lambda a, r: {"obs_scanned": _n(getattr(r, "n_scanned", 0))},
    ),
    Layer("independence.chi_square_test", "independence", "chi_square_test", ("self_s",)),
    Layer("independence.runs_count_test", "independence", "runs_count_test", ("self_s",)),
    Layer("independence.longest_run_test", "independence", "longest_run_test", ("self_s",)),
    Layer("glm.build_design", "glm", "build_design", ("calls", "self_s", "rows"), lambda a, r: {"rows": r.n_used}),
    Layer("glm.fit_multinomial", "glm", "fit_multinomial", ("calls", "self_s", "failed_ratio")),
    Layer("glm.fit_proportional_odds", "glm", "fit_proportional_odds", ("calls", "self_s", "failed_ratio")),
    Layer("glm.aic_table", "glm", "aic_table", ("self_s",)),
)

# ratio stat -> (numerator count, denominator count); a ratio of 0/0 reads 0
_RATIOS = {
    "m1_ratio": ("m1", "replicates"),
    "m2_ratio": ("m2", "replicates"),
    "admissible_ratio": ("admissible", "calls"),
    "failed_ratio": ("failed", "calls"),
}
UNITS = {"calls": "count", "self_s": "s", **{r: "ratio" for r in _RATIOS}}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in table order."""
    out = [(f"{layer.name}.{stat}", UNITS.get(stat, "count")) for layer in LAYERS for stat in layer.stats]
    return out + [("trace.overhead_s", "s")]


class Tracer:
    """Spans of one traced run: ``(layer, start, end, out, parent, op, failed, counts)``.

    ``out`` is the time the wrapper returned, after counting; a parent's
    self time subtracts each child's whole ``start..out`` interval.
    """

    def __init__(self, layers: tuple[Layer, ...] = LAYERS, package: str = "darcat", clock=perf_counter) -> None:
        self.layers = layers
        self.package = package
        self.clock = clock
        self.spans: list = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- binding ---------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every layer at every binding that holds it; a layer not found is recorded as absent."""
        modules = [m for name, m in sorted(sys.modules.items()) if m is not None and name.split(".")[0] == self.package]
        for lid, layer in enumerate(self.layers):
            original, owner, attr = self._resolve(layer)
            if original is None:
                if layer.name not in self.absent:  # install() may run once per traced pass
                    self.absent.append(layer.name)
                continue
            wrapper = self._wrap(lid, layer, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._restore.append(partial(setattr, owner, attr, original))
            for mod in modules:
                namespace = vars(mod)
                self._rebind(namespace, original, wrapper, partial(setattr, mod))
                for value in list(namespace.values()):
                    if type(value) is dict:
                        self._rebind(value, original, wrapper, value.__setitem__)
        return self

    def _resolve(self, layer: Layer):
        """``(function, owner, attribute)`` of a layer, or Nones when it no longer exists."""
        owner = sys.modules.get(f"{self.package}.{layer.module}")
        *path, attr = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        return (original, owner, attr) if callable(original) else (None, None, None)

    def _rebind(self, mapping: dict, original, wrapper, setter) -> None:
        for key in [k for k, v in mapping.items() if v is original]:
            setter(key, wrapper)
            self._restore.append(partial(setter, key, original))

    def restore(self) -> None:
        """Put back every binding :meth:`install` replaced, newest first."""
        while self._restore:
            self._restore.pop()()

    def _wrap(self, lid: int, layer: Layer, fn):
        spans, stack, counts, clock = self.spans, self._stack, layer.counts, self.clock

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (lid, start, end, end, parent, self.op, 1, None)
                raise
            end = clock()
            stack.pop()
            c = counts(args, result) if counts is not None else None
            spans[idx] = (lid, start, end, clock(), parent, self.op, 0, c)
            return result

        return traced

    # -- results -----------------------------------------------------------
    def per_pass(self, op_pass: dict[int, int]) -> dict[int, dict[str, dict[str, float]]]:
        """Totals per pass and layer: calls, failed, self_s and every count."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[1]
        out: dict[int, dict[str, dict[str, float]]] = {}
        for i, span in enumerate(self.spans):
            lid, start, end, _out, _parent, op, failed, counts = span
            acc = out.setdefault(op_pass.get(op, -1), {}).setdefault(self.layers[lid].name, {})
            acc["calls"] = acc.get("calls", 0) + 1
            acc["failed"] = acc.get("failed", 0) + failed
            acc["self_s"] = acc.get("self_s", 0.0) + (end - start) - child_time[i]
            for key, value in (counts or {}).items():
                acc[key] = acc.get(key, 0) + value
        return out

    def metrics(self, op_pass: dict[int, int], passes: list[int]) -> dict[str, float]:
        """Per-layer metrics per pass: median self time, mean counts, pooled ratios."""
        totals = self.per_pass(op_pass)
        out: dict[str, float] = {}
        for layer in self.layers:
            rows = [totals.get(p, {}).get(layer.name, {}) for p in passes]
            for stat in layer.stats:
                if stat == "self_s":
                    value = statistics.median(r.get("self_s", 0.0) for r in rows)
                elif stat in _RATIOS:
                    num, den = _RATIOS[stat]
                    d = sum(r.get(den, 0) for r in rows)
                    value = sum(r.get(num, 0) for r in rows) / d if d else 0.0
                else:
                    value = sum(r.get(stat, 0) for r in rows) / len(rows)
                out[f"{layer.name}.{stat}"] = value
        return out

    def dump(self, path, op_pass: dict[int, int]) -> None:
        """Write the spans as JSON rows under a column header, with layer names and absent layers."""
        doc = {
            "layers": [layer.name for layer in self.layers],
            "absent": self.absent,
            "op_pass": {str(k): v for k, v in op_pass.items()},
            "columns": ["layer", "start", "end", "out", "parent", "op", "failed", "counts"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
