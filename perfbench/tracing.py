"""Spans around the package's public entry points, for the traced pass.

Nothing inside ``src/`` is instrumented.  :func:`install` replaces each entry
point, including every module's imported copy of it, with a wrapper that
records a span (name, start, end, parent, points handled) in memory, and
returns a function that puts the originals back.  :meth:`Recorder.layers`
turns the spans into the per-layer metrics; a layer's self time is its
spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import time

import numpy as np

from expsamp import harness, kernels, operators, orlicz, quadrature

# span flag: the call ended in an exception
RAISED = 1

NAMES = (
    "quadrature.integrate_log",
    "quadrature.integrand",
    "quadrature.durrmeyer_coefficient",
    "operators.coefficients",
    "operators.eval_grid",
    "operators.eval_point",
    "kernels.eval_log",
    "harness.signal",
    "orlicz.modular",
    "orlicz.luxemburg_norm",
    "orlicz.gauge",
)
_ID = {name: i for i, name in enumerate(NAMES)}


class Recorder:
    """Spans kept in parallel lists, one entry per span."""

    def __init__(self) -> None:
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.size: list[int] = []
        self.cells: list[int] = []
        self.flag: list[int] = []
        self._stack = [-1]

    def open(self, name: str, size: int = 0, cells: int = 0) -> int:
        i = len(self.name)
        self.name.append(_ID[name])
        self.parent.append(self._stack[-1])
        self.size.append(size)
        self.cells.append(cells)
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, flag: int = 0) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self.flag[i] = flag

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "size": np.asarray(self.size, dtype=np.int64),
            "cells": np.asarray(self.cells, dtype=np.int64),
            "flag": np.asarray(self.flag, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(NAMES), **self.arrays())

    def layers(self) -> dict[str, float]:
        """Per-layer counts and times of the recorded spans.

        A coefficient vector was filled (a cache miss) when its span has
        children, and a coefficient was answered without an integral when its
        span has none; the points of a coefficient are those of the integrand
        spans under its ``integrate_log`` children.
        """
        s = self.arrays()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        parents = s["parent"][has_parent]
        children = np.bincount(parents, minlength=dur.size)
        own = dur - np.bincount(parents, weights=dur[has_parent], minlength=dur.size)

        def sel(name):
            return s["name"] == _ID[name]

        def ratio(num, den):
            return float(num) / den if den else 0.0

        il, itg = sel("quadrature.integrate_log"), sel("quadrature.integrand")
        dc, co = sel("quadrature.durrmeyer_coefficient"), sel("operators.coefficients")
        grid, point = sel("operators.eval_grid"), sel("operators.eval_point")
        md = sel("orlicz.modular")
        fill = co & (children > 0)
        skips = int(np.count_nonzero(dc & (children == 0)))
        grandparent = s["parent"][s["parent"][itg]]
        under_dc = s["name"][np.maximum(grandparent, 0)] == _ID["quadrature.durrmeyer_coefficient"]
        dc_points = s["size"][itg][(grandparent >= 0) & under_dc].sum()
        fills, calls = int(fill.sum()), int(co.sum())
        out = {
            "quadrature.integrate_log.calls": int(il.sum()),
            "quadrature.integrate_log.integrand_calls": int(itg.sum()),
            "quadrature.integrate_log.points": int(s["size"][itg].sum()),
            "quadrature.integrate_log.self_s": float(own[il].sum()),
            "quadrature.integrate_log.max_batch_points": int(s["size"][itg].max(initial=0)),
            "quadrature.durrmeyer_coefficient.calls": int(dc.sum()),
            "quadrature.durrmeyer_coefficient.zero_skips": skips,
            "quadrature.durrmeyer_coefficient.points_per_coefficient":
                ratio(dc_points, int(dc.sum()) - skips),
            "operators.coefficients.fills": fills,
            "operators.coefficients.hit_ratio": ratio(calls - fills, calls),
            "operators.coefficients.fill_s": float(dur[fill].sum()),
            "operators.eval_grid.calls": int(grid.sum()),
            "operators.eval_grid.points": int(s["size"][grid].sum()),
            "operators.eval_grid.cells": int(s["cells"][grid].sum()),
            "operators.eval_grid.self_s": float(own[grid].sum()),
            "operators.eval_grid.total_s": float(dur[grid].sum()),
            "operators.eval_grid.max_cells": int(s["cells"][grid].max(initial=0)),
            "operators.eval_point.calls": int(point.sum()),
            "operators.eval_point.self_s": float(own[point].sum()),
        }
        for layer in ("kernels.eval_log", "harness.signal", "orlicz.gauge"):
            m = sel(layer)
            out[f"{layer}.calls"] = int(m.sum())
            out[f"{layer}.points"] = int(s["size"][m].sum())
            out[f"{layer}.self_s"] = float(own[m].sum())
        out.update({
            "orlicz.modular.calls": int(md.sum()),
            "orlicz.modular.self_s": float(own[md].sum()),
            "orlicz.modular.total_s": float(dur[md].sum()),
            "orlicz.modular.overflows": int(np.count_nonzero(md & (s["flag"] & RAISED != 0))),
            "orlicz.luxemburg_norm.modular_calls_per_norm":
                ratio(int(md.sum()), int(sel("orlicz.luxemburg_norm").sum())),
        })
        return out


def install(rec: Recorder):
    """Wrap the entry points; returns a function that restores the originals."""
    saved = []

    def patch(owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def spanned(name, size=None, cells=None):
        def factory(fn):
            def traced(*args, **kwargs):
                i = rec.open(name, size(*args) if size else 0, cells(*args) if cells else 0)
                flag = RAISED
                try:
                    out = fn(*args, **kwargs)
                    flag = 0
                    return out
                finally:
                    rec.close(i, flag)
            return traced
        return factory

    def integrate_log_factory(fn):
        span = spanned("quadrature.integrate_log")(fn)

        def traced(g, *args, **kwargs):
            return span(spanned("quadrature.integrand", size=np.size)(g), *args, **kwargs)
        return traced

    traced_integrate = integrate_log_factory(quadrature.integrate_log)
    for module in (quadrature, orlicz, kernels):
        saved.append((module, "integrate_log", module.integrate_log))
        module.integrate_log = traced_integrate
    patch(operators, "durrmeyer_coefficient", spanned("quadrature.durrmeyer_coefficient"))
    patch(operators.DurrmeyerEvaluator, "coefficients", spanned("operators.coefficients"))
    patch(operators.DurrmeyerEvaluator, "eval_grid", spanned(
        "operators.eval_grid",
        size=lambda self, kind, h, ws: np.size(ws),
        cells=lambda self, kind, h, ws: np.size(ws) * self.ks.size))
    patch(operators.DurrmeyerEvaluator, "max_product", spanned("operators.eval_point"))
    patch(operators.DurrmeyerEvaluator, "max_min", spanned("operators.eval_point"))
    patch(kernels.KernelDescriptor, "eval_log", spanned(
        "kernels.eval_log", size=lambda self, x: np.size(x)))
    patch(harness.FunctionHandle, "__call__", spanned(
        "harness.signal", size=lambda self, w: np.size(w)))
    patch(orlicz.PhiFunction, "__call__", spanned(
        "orlicz.gauge", size=lambda self, v: np.size(v)))
    patch(orlicz, "modular", spanned("orlicz.modular"))
    patch(orlicz, "luxemburg_norm", spanned("orlicz.luxemburg_norm"))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
