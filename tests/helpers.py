"""Shared builders for randomized operator-algebra cases.

The algebra suites draw small piecewise-constant or smooth handles on a short
interval with low orders, so that one case costs a handful of coefficient
quadratures.  The same generators back the quick module tests and the full
500-case acceptance runs.
"""

import math

import numpy as np

from expsamp import FunctionHandle, OperatorConfig, QuadratureSpec, bspline_kernel


def step_handle(edges, values, breakpoints, name="steps"):
    """``values[i]`` on ``[edges[i], edges[i+1])``, declaring ``breakpoints``."""
    edges, values = np.asarray(edges, dtype=float), np.asarray(values, dtype=float)

    def evaluate(w):
        w = np.asarray(w, dtype=float)
        idx = np.clip(np.searchsorted(edges, w, side="right") - 1, 0, values.size - 1)
        out = values[idx]
        return float(out) if out.ndim == 0 else out

    return FunctionHandle(
        name=name, domain=(float(edges[0]), float(edges[-1])), evaluator=evaluate,
        declared_range=(float(values.min()), float(values.max())),
        breakpoints=tuple(float(c) for c in breakpoints),
    )


def piecewise_constant_handle(rng, a, b, lo=0.0, hi=1.0, max_pieces=4, name="pc"):
    npieces = int(rng.integers(1, max_pieces + 1))
    cuts = np.sort(rng.uniform(a, b, npieces - 1)) if npieces > 1 else np.array([])
    values = rng.uniform(lo, hi, npieces)
    return step_handle(np.concatenate([[a], cuts, [b]]), values, cuts, name)


def smooth_handle(rng, a, b, name="smooth"):
    c0 = rng.uniform(0.2, 0.8)
    c1 = rng.uniform(-0.15, 0.15)
    c2 = rng.uniform(-0.15, 0.15)
    freq = rng.uniform(0.5, 3.0)
    phase = rng.uniform(0.0, 2 * math.pi)

    def evaluate(w):
        x = np.log(np.asarray(w, dtype=float))
        out = c0 + c1 * np.sin(freq * x + phase) + c2 * x / (1.0 + abs(math.log(b)))
        out = np.clip(out, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    return FunctionHandle(name=name, domain=(a, b), evaluator=evaluate)


def combine(f, g, op, name):
    def evaluate(w):
        return op(np.asarray(f(w), dtype=float), np.asarray(g(w), dtype=float))

    bps = tuple(sorted(set(getattr(f, "breakpoints", ()) or ()) |
                       set(getattr(g, "breakpoints", ()) or ())))
    return FunctionHandle(name=name, domain=f.domain, evaluator=evaluate, breakpoints=bps)


def scaled(f, lam, name="scaled"):
    def evaluate(w):
        return lam * np.asarray(f(w), dtype=float)

    return FunctionHandle(name=name, domain=f.domain, evaluator=evaluate,
                          breakpoints=getattr(f, "breakpoints", ()))


def random_algebra_config(rng, abs_tol=1e-11):
    n = int(rng.integers(1, 4))
    return OperatorConfig(
        phi=bspline_kernel(2), psi=bspline_kernel(2), n=n,
        a=1.0, b=math.exp(1.5),
        quad=QuadratureSpec(abs_tol=abs_tol),
    )


def random_point(rng, cfg):
    return float(np.exp(rng.uniform(math.log(cfg.a) + 0.05, math.log(cfg.b) - 0.05)))
