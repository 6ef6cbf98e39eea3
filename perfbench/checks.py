"""Correctness checks for the benchmark's three workloads.

Each check takes the program's outputs and returns the set of operations that
failed it, so a run can count failures against the operations it attempted.
The checks share no numerical code with the package: trend flags, the
Luxemburg closed form and the dense modular rule are written out here.
"""

from __future__ import annotations

import math

import numpy as np

# Max-product cells must agree with the published value within this share.
VALUE_REL_TOL = 0.01
# The produced error may exceed the previous n's by this much and still count
# as non-increasing (the slack of acceptance criterion 7).
TREND_SLACK = 1e-12
# Table 5, max-product, n = 17, w = 2.5 is 65 % off its published value (see
# ``expsamp.refdata``); it is reported, not gated.
KNOWN_OFF = {("table5", "max_product", 17, 2.5)}
# A Luxemburg norm is bisected to width 1e-9; the closed form may differ by
# ten times that.
NORM_ABS_TOL = 1e-8
# The modular integral is run at abs_tol 1e-9.  Its integrand has kinks where
# the maximising index changes, so the dense rule converges only slowly: at
# 8192 panels it was within 5e-9 of the adaptive value on every (operator, n)
# of the modular workload.
MODULAR_ABS_TOL = 2e-8


def rising_steps(reference: dict[tuple[int, float], float]) -> set[tuple[float, int, int]]:
    """Steps (w, n0, n1) at which the reference table itself rises."""
    ns = sorted({n for n, _ in reference})
    points = sorted({w for _, w in reference})
    return {
        (w, n0, n1)
        for w in points
        for n0, n1 in zip(ns, ns[1:])
        if reference[(n1, w)] > reference[(n0, w)]
    }


def check_table(table_id: str, operator: str,
                produced: dict[tuple[int, float], float],
                reference: dict[tuple[int, float], float]) -> tuple[set, list[str]]:
    """Failed cells (n, w) of one produced table, and report lines.

    A cell fails when it ends a step on which the error rises although the
    reference does not, or when it is a max-product cell more than
    ``VALUE_REL_TOL`` off its published value.
    """
    if set(produced) != set(reference):
        raise ValueError(f"{table_id}/{operator}: cell layout differs from the reference")
    failed, notes = set(), []
    ns = sorted({n for n, _ in reference})
    flagged = rising_steps(reference)
    for (n, w), ref in reference.items():
        for n0, n1 in zip(ns, ns[1:]):
            if n1 == n and (w, n0, n1) not in flagged:
                if not produced[(n, w)] <= produced[(n0, w)] + TREND_SLACK:
                    failed.add((n, w))
        if operator != "max_product":
            continue
        rel = abs(produced[(n, w)] - ref) / ref
        if (table_id, operator, n, w) in KNOWN_OFF:
            notes.append(f"{table_id}/{operator} n={n} w={w:g}: {produced[(n, w)]:.5f} "
                         f"vs published {ref:.5f} ({rel:.0%} off, reported, not gated)")
        elif not rel <= VALUE_REL_TOL:
            failed.add((n, w))
    return failed, notes


def check_modular_series(values: list[float]) -> set[int]:
    """Positions in the n-list whose modular value breaks convergence.

    The series must decrease strictly, and the last value must be at most a
    quarter of the first (acceptance criterion 9).
    """
    failed = {i for i in range(1, len(values)) if not values[i] < values[i - 1]}
    if not values[-1] <= values[0] / 4.0:
        failed.add(len(values) - 1)
    return failed


def dense_modular(integrand, lo: float, hi: float, panels: int = 8192, nodes: int = 8) -> float:
    """``int_lo^hi integrand(u) du`` by a fixed composite Gauss-Legendre rule.

    The integrand is called on 1024 panels at a time to bound its memory.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for start in range(0, panels, 1024):
        e = edges[start:start + 1025]
        half = 0.5 * np.diff(e)
        u = (0.5 * (e[:-1] + e[1:]))[:, None] + half[:, None] * x[None, :]
        vals = np.asarray(integrand(u.ravel()), dtype=float).reshape(u.shape)
        total += float(np.sum((vals @ w) * half))
    return total


def modular_matches(got: float, dense: float) -> bool:
    return abs(got - dense) <= MODULAR_ABS_TOL


def gauge_value(family: str, params: tuple[float, ...], v: float) -> float:
    """The gauge zeta(v) in plain floating point, independent of ``orlicz``."""
    if family == "power":
        return v ** params[0]
    if family == "power_log":
        return v ** params[0] * math.log1p(v) ** params[1]
    if family == "exp_power":
        try:
            return math.expm1(v ** params[0])
        except OverflowError:
            return math.inf
    raise ValueError(f"unknown gauge family {family!r}")


def closed_form_norm(family: str, params: tuple[float, ...],
                     edges: list[float], values: list[float]) -> float:
    """Luxemburg norm of a piecewise-constant signal, by scalar bisection.

    The signal takes ``values[i]`` on ``[edges[i], edges[i+1])``, so its
    modular at scaling ``1/l`` is ``sum zeta(|c_i|/l) log(t_{i+1}/t_i)``; the
    norm is the ``l`` at which that sum, decreasing in ``l``, equals 1.
    """
    lengths = [math.log(t1 / t0) for t0, t1 in zip(edges, edges[1:])]

    def above_one(ell: float) -> bool:
        return sum(gauge_value(family, params, abs(c) / ell) * d
                   for c, d in zip(values, lengths)) > 1.0

    lo, hi = 1e-12, 1.0
    while above_one(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if above_one(mid):
            lo = mid
        else:
            hi = mid
    return hi


def norm_matches(got: float, want: float) -> bool:
    return abs(got - want) <= NORM_ABS_TOL
