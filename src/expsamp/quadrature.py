"""Numerical integration against the Haar measure dv/v on the positive reals.

Every integral in this package is of the form ``int_a^b f(v) dv/v`` with
``0 < a < b``.  After the substitution ``u = log v`` this becomes the plain
Lebesgue integral ``int_{log a}^{log b} f(e^u) du``, which is what the
adaptive engine below actually computes.

The engine is a globally adaptive bisection scheme.  Each panel carries a
fixed-order Gauss-Legendre value, the value from halving the panel once, and
an endpoint-including Clenshaw-Curtis companion of doubled order; the error
estimate combines both differences so that features hiding in the edge
shadow of the Gauss nodes are sensed.  Panels sit in a max-heap by estimate
and the worst one is split until the summed estimate meets the target;
results are only accepted once every panel's estimate has survived one
forced cross-check split.  Global (rather than width-proportional) error
targeting is what lets integrands with jump discontinuities converge: the
panel straddling a jump keeps shrinking until its O(width) error is
negligible against the whole-interval budget.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "IntegralResult",
    "integrate_log",
    "mellin_integrate",
    "durrmeyer_coefficient",
]

# Hard cap on live panels, independent of max_depth.  A jump integrand costs
# roughly max_depth panels per discontinuity, oscillatory ones a few hundred.
_MAX_PANELS = 40_000

# Distance (in log w) inside a pre-split segment at which a coefficient
# integrand reads h, so that a node on a declared jump sees one branch only.
_SEGMENT_NUDGE = 1e-12


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
    """Accuracy budget for the adaptive engine.

    abs_tol      target absolute error for the whole integral
    max_depth    bisection depth limit per panel
    panel_nodes  Gauss-Legendre nodes per panel
    """

    abs_tol: float = 1e-10
    max_depth: int = 48
    panel_nodes: int = 16

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError("abs_tol must be a positive finite number")
        if self.max_depth < 4:
            raise ValueError("max_depth must be at least 4")
        if self.panel_nodes < 8:
            raise ValueError("panel_nodes must be at least 8")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_bound: float


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


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


def _panel(g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, nodes: int) -> float:
    x, w = _leggauss(nodes)
    half = 0.5 * (hi - lo)
    vals = np.asarray(g(0.5 * (hi + lo) + half * x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"integrand returned non-finite values on [{lo}, {hi}]")
    return half * float(np.dot(w, vals))


def integrate_log(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> IntegralResult:
    """Adaptively integrate a vectorized ``g`` over ``[lo, hi]``.

    Returns the integral estimate and an error bound with
    ``error_bound <= spec.abs_tol`` on success.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid integration bounds [{lo}, {hi}]")
    nodes = spec.panel_nodes
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

    xg, wg = _leggauss(nodes)
    xc, wc = _clenshaw_curtis(2 * nodes)
    m = nodes
    mc = xc.size
    block = 2 * m + mc

    counter = 0

    def make_entries(tasks, verified: bool):
        """Build heap entries for (a, b, depth, coarse) tasks with one g call.

        Each entry carries the two half-panel Gauss values (the refined
        estimate) plus an endpoint-including Clenshaw-Curtis companion of
        doubled order: Gauss nodes never reach a panel's edges and bisection
        keeps edge positions fixed across depths, so a feature hugging an
        edge can be invisible to the Gauss pair alike; the companion's edge
        nodes sense it, and its doubled order keeps its smooth-panel error at
        the Gauss pair's own scale so detection does not slow convergence.
        """
        nonlocal counter
        T = len(tasks)
        a_arr = np.array([t[0] for t in tasks])
        b_arr = np.array([t[1] for t in tasks])
        coarse_arr = np.array([t[3] for t in tasks])
        mid = 0.5 * (a_arr + b_arr)
        pts = np.empty((T, block))
        pts[:, :m] = 0.5 * (a_arr + mid)[:, None] + 0.5 * (mid - a_arr)[:, None] * xg
        pts[:, m:2 * m] = 0.5 * (mid + b_arr)[:, None] + 0.5 * (b_arr - mid)[:, None] * xg
        pts[:, 2 * m:] = 0.5 * (a_arr + b_arr)[:, None] + 0.5 * (b_arr - a_arr)[:, None] * xc
        vals = np.asarray(g(pts.ravel()), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned non-finite values")
        V = vals.reshape(T, block)
        left = (V[:, :m] @ wg) * (0.5 * (mid - a_arr))
        right = (V[:, m:2 * m] @ wg) * (0.5 * (b_arr - mid))
        cc = (V[:, 2 * m:] @ wc) * (0.5 * (b_arr - a_arr))
        fine = left + right
        err = np.abs(fine - coarse_arr) + np.abs(cc - coarse_arr)
        out = []
        for i, (a, b, depth, _) in enumerate(tasks):
            out.append((-float(err[i]), counter, a, b, depth, float(fine[i]),
                        float(err[i]), float(left[i]), float(right[i]), verified))
            counter += 1
        return out

    def fail(total: float, bound: float, why: str):
        raise QuadratureConvergenceError(
            f"abs_tol={spec.abs_tol:g} not met {why} "
            f"(estimate {total:.17g}, bound {bound:.3g})",
            estimate=total, error_bound=bound,
        )

    floored = []  # estimate at its own rounding floor; awaiting a sweep
    capped = []   # at max_depth or cross-checked floor, never split again
    edges = np.linspace(lo, hi, 2**init_depth + 1)
    coarse0 = [_panel(g, a0, b0, nodes) for a0, b0 in zip(edges[:-1], edges[1:])]
    heap = make_entries([
        (a0, b0, init_depth, c0)
        for (a0, b0, c0) in zip(edges[:-1], edges[1:], coarse0)
    ], verified=False)
    heapq.heapify(heap)

    def totals():
        value = sum(e[5] for e in heap + floored + capped)
        bound = sum(e[6] for e in heap + floored + capped)
        return value, bound

    while True:
        # refinement phase: split the worst panel until the summed internal
        # estimate meets the target
        total, total_err = totals()
        capped_err = sum(e[6] for e in capped)
        while total_err > target:
            if capped_err > target:
                fail(total, total_err, f"at max_depth={spec.max_depth}")
            if not heap:
                if floored:
                    break  # hand the floored panels to the verification sweep
                fail(total, total_err,
                     f"at max_depth={spec.max_depth} / estimator floor")
            item = heapq.heappop(heap)
            _, _, a, b, depth, fine, err, lc, rc, verified = item
            if depth >= spec.max_depth:
                capped.append(item)
                capped_err += err
                continue
            # splitting a panel whose estimate sits at the rounding floor of
            # its own magnitude is unproductive; park it for the next sweep
            # (or retire it if a sweep has already cross-checked it)
            if err <= 8 * 2.3e-16 * (abs(lc) + abs(rc)):
                if verified:
                    capped.append(item)
                    capped_err += err
                else:
                    floored.append(item)
                continue
            if len(heap) + len(floored) + len(capped) + 2 > _MAX_PANELS:
                fail(total, total_err, "within panel budget")
            mid = 0.5 * (a + b)
            e1, e2 = make_entries(
                [(a, mid, depth + 1, lc), (mid, b, depth + 1, rc)], verified=False)
            total += (e1[5] + e2[5]) - fine
            total_err += (e1[6] + e2[6]) - err
            heapq.heappush(heap, e1)
            heapq.heappush(heap, e2)

        # verification phase: force-split every panel not yet cross-checked
        # (parked floored ones included, so a deceptive near-zero estimate
        # cannot dodge the check); already-verified panels are kept.  The
        # result is returned only from an all-verified state.
        keep, tasks = [], []
        for item in heap + floored:
            _, _, a, b, depth, fine, err, lc, rc, verified = item
            if verified:
                keep.append(item)
            elif depth >= spec.max_depth:
                capped.append(item)
            else:
                mid = 0.5 * (a + b)
                tasks.append((a, mid, depth + 1, lc))
                tasks.append((mid, b, depth + 1, rc))
        floored = []
        if (len(keep) + len(tasks) + len(capped)) > _MAX_PANELS:
            fail(*totals(), "within panel budget")
        heap = keep + (make_entries(tasks, verified=True) if tasks else [])
        heapq.heapify(heap)
        value, bound = totals()
        if bound <= target:
            return IntegralResult(value=value, error_bound=target)
        if not heap:
            fail(value, bound, f"at max_depth={spec.max_depth}")


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
    (known discontinuities), the range is additionally pre-split there, and on
    each segment ``h`` (not ``psi``) is evaluated at points clamped
    ``_SEGMENT_NUDGE`` inside the segment, so the endpoint nodes of the
    Clenshaw-Curtis companion read the segment's own branch and the adaptive
    engine is never charged for localizing a known jump.

    This is the per-k reference engine.  ``DurrmeyerEvaluator.coefficients``
    fills whole coefficient vectors from one lattice-aligned Gauss-Legendre
    rule and falls back to this function, k by k, only when that rule's
    halved-panel check fails; the tests compare the two.
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
    cuts = [lo, hi] if one else sorted({lo, hi, *(
        math.log(bp) for bp in getattr(h, "breakpoints", ()) or ()
        if lo < math.log(bp) < hi
    )})

    # The n prefactor is applied after integration; the inner budget is
    # spec.abs_tol / (2n) so the delivered coefficient error stays below
    # abs_tol/2 (linear combinations of coefficients then stay within the
    # documented 2*abs_tol), shared across the pre-split segments.
    nseg = len(cuts) - 1
    inner = QuadratureSpec(spec.abs_tol / (2 * n * nseg), spec.max_depth, spec.panel_nodes)
    acc = 0.0
    for s0, s1 in zip(cuts, cuts[1:]):
        # h jumps at the inner cuts: read it strictly inside the segment so
        # the engine's endpoint nodes see this segment's branch only
        nudge = min(_SEGMENT_NUDGE, 0.25 * (s1 - s0))
        ulo, uhi = (s0 + nudge, s1 - nudge) if nseg > 1 else (-math.inf, math.inf)

        def g(u: np.ndarray, ulo=ulo, uhi=uhi) -> np.ndarray:
            vals = psi.eval_log(n * u - k)
            return vals if one else vals * np.asarray(h(np.exp(np.clip(u, ulo, uhi))), dtype=float)

        acc += integrate_log(g, s0, s1, inner).value
    return n * acc
