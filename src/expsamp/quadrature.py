"""Numerical integration against the Haar measure dv/v on the positive reals.

Every integral in this package is of the form ``int_a^b f(v) dv/v`` with
``0 < a < b``.  After the substitution ``u = log v`` this becomes the plain
Lebesgue integral ``int_{log a}^{log b} f(e^u) du``, which is what the
adaptive engine below actually computes.

The engine is a globally adaptive bisection scheme.  Each panel carries an
8-node Gauss-Legendre value, the value from halving the panel once, and an
endpoint-including Clenshaw-Curtis companion of doubled order (17 nodes);
the error estimate combines both differences so that features hiding in
the edge shadow of the Gauss nodes are sensed.  A start panel costs 8
coarse nodes, 33 for its halves and companion and 66 for its verification
split, 107 in all.  The order is low because the integrands here are
piecewise smooth between declared cuts, where 8-node halves already reach
the rounding floor; wide oscillatory integrands pay for it in more panels.
The panels live in one list, a table with a row per panel.  Refinement
runs in rounds, as in Shampine's vectorized adaptive quadrature (J. Comput.
Appl. Math. 211, 2008): a round sorts the panels that may still be split
by estimate and splits the worst ones, until their estimates cover the
excess of the summed estimate over the target, in one integrand call.
Rounds repeat until the summed estimate meets the target; results are only
accepted once every panel's estimate has survived one forced cross-check
split.  Global (rather than width-proportional) error targeting is what
lets integrands with jump discontinuities converge: the panel straddling a
jump keeps shrinking until its O(width) error is negligible against the
whole-interval budget.

Known jumps need not be localized at all.  ``integrate_log``'s ``cuts`` are
interior points of the range that split it into segments.  Each segment
starts with its own panels, as many as its share of the range's eight
(rounded up, at least one), so no start panel is wider than an uncut
range's.  Bisection keeps every panel inside its segment, but all panels
share the one table, round loop, verification sweep and target.  Every
node of a panel is read clamped ``_SEGMENT_NUDGE`` (at most a quarter of
the segment's width) inside its segment, so a Clenshaw-Curtis endpoint on
a cut reads its own segment's side of the jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "IntegralResult",
    "integrate_log",
    "mellin_integrate",
    "durrmeyer_coefficient",
]

# Bisection depth limit per panel, and Gauss-Legendre nodes per panel half
# (the batched coefficient fill keeps its own node count,
# operators._LATTICE_NODES).
_MAX_DEPTH = 48
_PANEL_NODES = 8

# Hard cap on live panels, independent of _MAX_DEPTH.  A jump integrand costs
# roughly _MAX_DEPTH panels per discontinuity, oscillatory ones up to a few
# thousand at 8 nodes per panel half (cos(1000 u) on [0, 1] takes about 1,100).
# Segment starts are rounded up, so each cut adds at most one start panel,
# and each cut raises the cap by the 2 panels that panel and its first sweep
# need, so declared jumps alone never exhaust it.
_MAX_PANELS = 40_000

# Distance (in log w) inside a segment between cuts at which the integrand is
# read, so that a node on a cut sees its own segment's side only.
_SEGMENT_NUDGE = 1e-12

# Columns of integrate_log's panel list: the panel [a, b] at its bisection
# depth, its refined value and error estimate, the half-panel values,
# whether a verification sweep produced it, and the range [lo, hi] at which
# its segment is read.
_A, _B, _DEPTH, _FINE, _ERR, _LEFT, _RIGHT, _VERIFIED, _LO, _HI = range(10)


class QuadratureConvergenceError(RuntimeError):
    """Tolerance not met within the depth/panel budget.

    Carries the best available estimate and its error bound so callers can
    decide whether to accept a degraded result.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy budget for the adaptive engine: ``abs_tol``, the target
    absolute error for the whole integral."""

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError("abs_tol must be a positive finite number")


@dataclass(frozen=True)
class IntegralResult:
    """An accepted integral: ``value``, the acceptance target ``error_bound``
    (``abs_tol/4``) and ``error_estimate``, the summed panel estimate at
    acceptance, at or below ``error_bound``.

    ``rule()`` returns the rule the engine accepted, as arrays ``(nodes,
    weights)`` with ``sum(weights * g(nodes))`` equal to ``value`` up to
    rounding: the two Gauss halves of every final panel, each node clamped
    to its segment's read range as ``g`` was read.  It is built only on
    request, is None on a result not made by :func:`integrate_log`, and
    takes no part in equality or repr.
    """

    value: float
    error_bound: float
    error_estimate: float
    rule: Callable[[], tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, compare=False, repr=False)


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], bit for bit those of
    ``np.polynomial.legendre.leggauss(n)`` (the same steps in the same
    order), without importing ``numpy.polynomial``: the eigenvalues of the
    symmetric companion matrix of L_n, one Newton step, weights from
    L_{n-1} and L_n', symmetrized and scaled to sum to 2."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    c = np.zeros(n + 1)
    c[-1] = 1.0
    if n == 1:
        m = np.array([[-c[0] / c[1]]])
    else:
        m = np.zeros((n, n))
        scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
        top = m.reshape(-1)[1::n + 1]
        top[...] = np.arange(1, n) * scl[:n - 1] * scl[1:n]
        m.reshape(-1)[n::n + 1] = top
    x = np.linalg.eigvalsh(m)
    dy = _legval(x, c)
    df = _legval(x, _legder(c))
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series sum_i c[i] P_i(x), by Clenshaw's recurrence."""
    if len(c) == 1:
        c0, c1 = c[0], 0.0
    else:
        nd, c0, c1 = len(c), c[-2], c[-1]
        for i in range(3, len(c) + 1):
            tmp = c0
            nd = nd - 1
            c0 = c[-i] - c1 * ((nd - 1) / nd)
            c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _legder(c: np.ndarray) -> np.ndarray:
    """The Legendre coefficients of the derivative of the series ``c``."""
    c = c.copy()
    n = len(c) - 1
    der = np.empty(n)
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * c[j]
        c[j - 2] += c[j]
    if n > 1:
        der[1] = 3 * c[2]
    der[0] = c[1]
    return der


@lru_cache(maxsize=4)
def _null_rules(n: int) -> np.ndarray:
    """P_m(x_i), m = n - 4, ..., n - 1, at the n Gauss nodes x_i; times the
    Gauss weights each row is a null rule, zero on every polynomial of
    degree below m (Berntsen & Espelid, ACM TOMS 17(2), 1991)."""
    x = _leggauss(n)[0]
    return np.array([_legval(x, np.eye(n)[m]) for m in range(n - 4, n)])


@lru_cache(maxsize=32)
def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes/weights on [-1, 1] with n+1 points (n even).

    Unlike Gauss nodes these include the panel endpoints, which lets the
    error estimator sense features hiding in the edge shadow of a panel.
    """
    k = np.arange(n + 1)
    x = np.cos(k * math.pi / n)
    w = np.empty(n + 1)
    for i in k:
        s = 0.0
        for j in range(1, n // 2 + 1):
            b = 1.0 if j == n // 2 else 2.0
            s += b / (4.0 * j * j - 1.0) * math.cos(2.0 * j * i * math.pi / n)
        c = 1.0 if i in (0, n) else 2.0
        w[i] = c / n * (1.0 - s)
    return x, w


def integrate_log(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec = QuadratureSpec(),
    *,
    cuts: Sequence[float] = (),
) -> IntegralResult:
    """Adaptively integrate a vectorized ``g`` over ``[lo, hi]``.

    ``cuts`` are strictly increasing points strictly inside ``(lo, hi)``,
    typically known jumps of ``g``: no panel straddles one, and ``g`` is
    read strictly inside each segment between them (see the module
    docstring).  Returns the integral estimate, the acceptance target
    ``error_bound <= spec.abs_tol`` and the summed panel estimate
    ``error_estimate <= error_bound`` it reached, and on request the
    accepted rule (:attr:`IntegralResult.rule`); the budget covers the
    whole range, not each segment.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid integration bounds [{lo}, {hi}]")
    bounds = np.array([lo, *cuts, hi], dtype=float)
    if not (np.all(np.isfinite(bounds)) and np.all(np.diff(bounds) > 0)):
        raise ValueError(
            f"cuts must be finite, strictly increasing and inside ({lo}, {hi}), got {cuts!r}")
    # |coarse - fine| can deceptively underestimate the fine value's error
    # (e.g. a jump placed where the two rules happen to agree).  Three
    # countermeasures: an initial depth-3 split, an internal safety factor
    # on the acceptance target, and a verification pass that force-splits
    # every panel once and resumes refinement if the refreshed estimates
    # disagree.  The returned error_bound is the acceptance level
    # abs_tol/safety itself (the internal estimate at acceptance is at or
    # below it), which is what makes the reported bound behave monotonically
    # under tolerance refinement.
    safety = 4.0
    target = spec.abs_tol / safety
    init_depth = 3

    m = _PANEL_NODES
    xg, wg = _leggauss(m)
    xc, wc = _clenshaw_curtis(2 * m)

    def read(pts: np.ndarray, ulo: np.ndarray, uhi: np.ndarray) -> np.ndarray:
        """``g`` at the nodes ``pts``, a row per panel, each row clamped to
        its segment's read range ``[ulo, uhi]``."""
        np.maximum(pts, ulo[:, None], out=pts)
        np.minimum(pts, uhi[:, None], out=pts)
        vals = np.asarray(g(pts.ravel()), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"integrand returned non-finite values on [{lo}, {hi}]")
        return vals.reshape(pts.shape)

    def panels(a, b, depth, coarse, verified: bool, ulo, uhi) -> np.ndarray:
        """Rows of the panel list for the panels [a, b], from one g call.

        Each row carries the two half-panel Gauss values (the refined
        estimate) plus an endpoint-including Clenshaw-Curtis companion of
        doubled order: Gauss nodes never reach a panel's edges and bisection
        keeps edge positions fixed across depths, so a feature hugging an
        edge can be invisible to the Gauss pair alike; the companion's edge
        nodes sense it, and its doubled order keeps its smooth-panel error at
        the Gauss pair's own scale so detection does not slow convergence.
        """
        mid = 0.5 * (a + b)
        pts = np.empty((a.size, 2 * m + xc.size))
        _gauss_halves(a, b, xg, pts)
        pts[:, 2 * m:] = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * xc
        V = read(pts, ulo, uhi)
        left = (V[:, :m] @ wg) * (0.5 * (mid - a))
        right = (V[:, m:2 * m] @ wg) * (0.5 * (b - mid))
        cc = (V[:, 2 * m:] @ wc) * (0.5 * (b - a))
        fine = left + right
        err = np.abs(fine - coarse) + np.abs(cc - coarse)
        return np.array([a, b, depth, fine, err, left, right,
                         np.full(a.size, float(verified)), ulo, uhi]).T

    def split(rows: np.ndarray, verified: bool) -> np.ndarray:
        """The two halves of each row's panel, left then right, in row order."""
        a, b = rows[:, _A], rows[:, _B]
        mid = 0.5 * (a + b)
        return panels(np.array([a, mid]).T.ravel(), np.array([mid, b]).T.ravel(),
                      np.repeat(rows[:, _DEPTH] + 1, 2),
                      rows[:, [_LEFT, _RIGHT]].ravel(), verified,
                      np.repeat(rows[:, _LO], 2), np.repeat(rows[:, _HI], 2))

    def fail(why: str):
        total, bound = float(P[:, _FINE].sum()), float(P[:, _ERR].sum())
        raise QuadratureConvergenceError(
            f"abs_tol={spec.abs_tol:g} not met {why} "
            f"(estimate {total:.17g}, bound {bound:.3g})",
            estimate=total, error_bound=bound,
        )

    # The panel list: one row per live panel, kept in creation order so that
    # the stable sort below splits equal estimates oldest first.  A segment
    # of width s starts with ceil(2**init_depth s / (hi - lo)) equal panels,
    # at least one, so no start panel is wider than an uncut range's, and an
    # uncut range starts as linspace(lo, hi, 2**init_depth + 1) would cut
    # it.  An uncut range is read unclamped (a nudge of -inf).
    s0, s1 = bounds[:-1], bounds[1:]
    per = np.maximum(np.ceil(2**init_depth * (s1 - s0) / (hi - lo)), 1.0).astype(int)
    seg = np.repeat(np.arange(per.size), per)
    i = np.arange(seg.size) - np.repeat(np.cumsum(per) - per, per)
    step = ((s1 - s0) / per)[seg]
    a0 = i * step + s0[seg]
    b0 = np.where(i + 1 == per[seg], s1[seg], (i + 1) * step + s0[seg])
    nudge = np.minimum(_SEGMENT_NUDGE, 0.25 * (s1 - s0)) if len(cuts) else -np.inf
    ulo, uhi = (s0 + nudge)[seg], (s1 - nudge)[seg]
    max_panels = _MAX_PANELS + 2 * len(cuts)
    # the coarse Gauss values of the initial panels, from one integrand call
    half = 0.5 * (b0 - a0)
    rows = read(0.5 * (a0 + b0)[:, None] + half[:, None] * xg, ulo, uhi)
    coarse = half * (rows @ wg)
    P = panels(a0, b0, np.full(a0.size, float(init_depth)), coarse, False, ulo, uhi)
    while True:
        # refinement phase: each round sorts the splittable panels by
        # estimate, splits the worst ones until their estimates cover the
        # excess of the summed estimate over the target, all in one integrand
        # call, and repeats until the sum meets the target.  A panel at
        # _MAX_DEPTH is retired.  Splitting a panel whose estimate sits at the
        # rounding floor of its own magnitude is unproductive: it is floored,
        # to be force-split once by the next sweep, and retired once a sweep
        # has cross-checked it.
        while P[:, _ERR].sum() > target:
            err, verified = P[:, _ERR], P[:, _VERIFIED] > 0
            deep = P[:, _DEPTH] >= _MAX_DEPTH
            floor = err <= 8 * 2.3e-16 * (np.abs(P[:, _LEFT]) + np.abs(P[:, _RIGHT]))
            if err[deep | (floor & verified)].sum() > target:
                fail(f"at max_depth={_MAX_DEPTH}")
            splittable = np.flatnonzero(~deep & ~floor)
            if not splittable.size:
                break  # only floored panels can still move: sweep them
            order = splittable[np.argsort(-err[splittable], kind="stable")]
            excess = err.sum() - target
            worst = order[:np.searchsorted(np.cumsum(err[order]), excess) + 1]
            if len(P) + worst.size > max_panels:
                fail("within panel budget")
            P = np.concatenate([np.delete(P, worst, axis=0), split(P[worst], False)])

        # verification phase: force-split every panel not yet cross-checked
        # (floored ones included, so a deceptive near-zero estimate cannot
        # dodge the check); verified and _MAX_DEPTH panels are kept.  The
        # result is returned only from an all-verified state.
        sweep = (P[:, _VERIFIED] == 0) & (P[:, _DEPTH] < _MAX_DEPTH)
        if len(P) + np.count_nonzero(sweep) > max_panels:
            fail("within panel budget")
        if sweep.any():
            P = np.concatenate([P[~sweep], split(P[sweep], True)])
        estimate = float(P[:, _ERR].sum())
        if estimate <= target:
            return IntegralResult(
                value=float(P[:, _FINE].sum()), error_bound=target, error_estimate=estimate,
                rule=partial(_accepted_rule, P[:, [_A, _B, _LO, _HI]], xg, wg))


def _gauss_halves(a: np.ndarray, b: np.ndarray, xg: np.ndarray, out: np.ndarray) -> None:
    """Write the Gauss nodes ``xg`` of the two halves of each panel
    ``[a, b]``, left then right, to the first ``2 * xg.size`` columns of
    ``out``, a row per panel."""
    mid = 0.5 * (a + b)
    m = xg.size
    out[:, :m] = 0.5 * (a + mid)[:, None] + 0.5 * (mid - a)[:, None] * xg
    out[:, m:2 * m] = 0.5 * (mid + b)[:, None] + 0.5 * (b - mid)[:, None] * xg


def _accepted_rule(panels: np.ndarray, xg: np.ndarray,
                   wg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the half-panel Gauss rules ``(xg, wg)`` of the
    panels ``[a, b]`` read in ``[lo, hi]``, given as rows ``(a, b, lo,
    hi)``, the nodes placed and clamped exactly as ``integrate_log`` read
    them.  A result keeps only these four columns of the engine's panel
    list, not the whole list."""
    a, b, lo, hi = panels.T
    mid = 0.5 * (a + b)
    nodes = np.empty((a.size, 2 * xg.size))
    _gauss_halves(a, b, xg, nodes)
    np.maximum(nodes, lo[:, None], out=nodes)
    np.minimum(nodes, hi[:, None], out=nodes)
    weights = np.concatenate([0.5 * (mid - a)[:, None] * wg, 0.5 * (b - mid)[:, None] * wg],
                             axis=1)
    return nodes.ravel(), weights.ravel()


def mellin_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Compute ``int_a^b f(v) dv/v`` for ``0 < a < b``."""
    if not (a > 0 and b > a and math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"need 0 < a < b < inf, got a={a}, b={b}")

    def g(u: np.ndarray) -> np.ndarray:
        return np.asarray(f(np.exp(u)), dtype=float)

    return integrate_log(g, math.log(a), math.log(b), spec).value


def durrmeyer_coefficient(
    psi,
    k: int,
    n: int,
    a: float,
    b: float,
    h="one",
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Inner coefficient ``n * int_a^b psi(e^{-k} v^n) h(v) dv/v``.

    ``h`` may be a vectorized callable on the positive reals or the sentinel
    ``"one"`` (equivalently None) for the constant 1, which avoids building a
    throwaway handle in the denominator path.

    When ``psi`` has bounded support the integration range is clipped, in log
    coordinates, to the preimage of the support; an empty preimage yields an
    exact 0.0 without running any quadrature.  If ``h`` declares breakpoints
    (known discontinuities), the range is additionally cut there and the
    integrand is read strictly inside each segment; see
    ``_integrate_segments``.

    This is the per-k reference engine.  ``DurrmeyerEvaluator.coefficients``
    fills whole coefficient vectors from one lattice-aligned Gauss-Legendre
    rule and falls back to this function, k by k, only when that rule fails
    its null-rule check up to q = 128; the tests compare the two.
    """
    if not (a > 0 and b > a):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    lo, hi = math.log(a), math.log(b)
    if psi.support is not None:
        slo, shi = psi.log_support
        lo = max(lo, (k + slo) / n)
        hi = min(hi, (k + shi) / n)
        if lo >= hi:
            return 0.0

    one = h is None or (isinstance(h, str) and h == "one")

    def f(u: np.ndarray, hu: np.ndarray | None) -> np.ndarray:
        vals = psi.eval_log(n * u - k)
        return vals if hu is None else vals * hu

    # The n prefactor is applied after integration; the inner budget is
    # spec.abs_tol / (2n) so the delivered coefficient error stays below
    # abs_tol/2 (linear combinations of coefficients then stay within the
    # documented 2*abs_tol).
    return n * _integrate_segments(f, None if one else h, lo, hi, spec, divisor=2 * n).value


def _integrate_segments(f, h, lo: float, hi: float, spec: QuadratureSpec,
                        divisor: int = 1) -> IntegralResult:
    """``int_lo^hi f(u, h(e^u)) du`` as an :class:`IntegralResult`, cut at
    ``h``'s declared breakpoints.

    The logarithms of the breakpoints strictly inside ``(lo, hi)`` become
    the ``cuts`` of one ``integrate_log`` call to ``spec.abs_tol / divisor``:
    the segments share one panel list and one budget, ``h`` is read strictly
    inside each segment, and the engine is never charged for localizing a
    known jump.  ``h=None`` stands for no signal: ``f`` receives None and the
    range is not cut.
    """
    cuts = sorted({
        math.log(bp) for bp in getattr(h, "breakpoints", ()) or ()
        if lo < math.log(bp) < hi
    })

    def g(u: np.ndarray) -> np.ndarray:
        return f(u, None if h is None else np.asarray(h(np.exp(u)), dtype=float))

    return integrate_log(g, lo, hi, QuadratureSpec(spec.abs_tol / divisor), cuts=cuts)
