"""Convex gauge functions, Haar-measure modulars and Luxemburg norms.

The size of a function h on an interval of positive reals is measured by the
modular ``I[h] = int_a^b zeta(|h(w)|) dw/w`` for a convex gauge zeta, and by
the induced Luxemburg norm ``inf { l > 0 : I[h / l] <= 1 }``.

Three gauge families are provided:

* ``power(p)``         zeta(v) = v^p, p > 1; doubling constant 2^p.
* ``exp_power(alpha)`` zeta(v) = exp(v^alpha) - 1; fails the doubling
  condition (the ratio zeta(2v)/zeta(v) grows without bound).
* ``power_log(alpha, beta)`` zeta(v) = v^alpha log^beta(v + 1);
  doubling constant 2^(alpha+beta).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .harness import FunctionHandle, _orders
from .operators import OperatorConfig, PropertyReport, get_evaluator
# no function here calls integrate_log, but perfbench's tracer wraps
# orlicz.integrate_log, so it stays imported
from .quadrature import (
    QuadratureConvergenceError, QuadratureSpec, _integrate_segments, integrate_log,
)

__all__ = [
    "PhiFunction",
    "PhiSpecError",
    "OrliczOverflowError",
    "UnboundedNormError",
    "ModularReport",
    "parse_phi_spec",
    "modular",
    "luxemburg_norm",
    "modular_convergence_series",
    "jensen_max_checks",
]

_EXP_GUARD = 700.0


class PhiSpecError(ValueError):
    """Malformed gauge specification string."""


class OrliczOverflowError(OverflowError):
    """The exponential gauge blew past the float range; names the scaling."""


class UnboundedNormError(RuntimeError):
    """Luxemburg bracket growth exceeded 2**64."""


@dataclass(frozen=True)
class PhiFunction:
    """A convex gauge: zero at zero, positive, non-decreasing, convex, divergent."""

    family: str  # "power" | "exp_power" | "power_log"
    params: tuple[float, ...]

    @property
    def delta2(self) -> str:
        return "fails" if self.family == "exp_power" else "holds"

    @property
    def delta2_constant(self) -> float | None:
        if self.family == "power":
            return 2.0 ** self.params[0]
        if self.family == "power_log":
            return 2.0 ** (self.params[0] + self.params[1])
        return None

    @property
    def name(self) -> str:
        if self.family == "power":
            return f"power:{self.params[0]:g}"
        if self.family == "exp_power":
            return f"exppower:{self.params[0]:g}"
        return f"powerlog:{self.params[0]:g}:{self.params[1]:g}"

    def __call__(self, v) -> np.ndarray | float:
        arr = np.asarray(v, dtype=float)
        scalar = arr.ndim == 0
        if np.any(arr < 0):
            raise ValueError("gauge argument must be nonnegative")
        if self.family == "power":
            # overflow to inf is deliberate here; ``modular`` reports it
            # as an OrliczOverflowError
            with np.errstate(over="ignore"):
                out = arr ** self.params[0]
        elif self.family == "exp_power":
            expo = arr ** self.params[0]
            if np.any(expo > _EXP_GUARD):
                raise OrliczOverflowError(
                    f"exp_power gauge overflow: exponent {float(np.max(expo)):.3g} > {_EXP_GUARD:g}"
                )
            out = np.expm1(expo)
        elif self.family == "power_log":
            alpha, beta = self.params
            out = arr ** alpha * np.log1p(arr) ** beta
        else:  # pragma: no cover
            raise ValueError(f"unknown gauge family {self.family!r}")
        return float(out) if scalar else out


def power_gauge(p: float) -> PhiFunction:
    if not p > 1:
        raise PhiSpecError(f"power gauge needs p > 1, got {p}")
    return PhiFunction("power", (float(p),))


def exp_power_gauge(alpha: float) -> PhiFunction:
    if not alpha > 0:
        raise PhiSpecError(f"exp_power gauge needs alpha > 0, got {alpha}")
    return PhiFunction("exp_power", (float(alpha),))


def power_log_gauge(alpha: float, beta: float) -> PhiFunction:
    if not (alpha >= 1 and beta > 0):
        raise PhiSpecError(f"power_log gauge needs alpha >= 1, beta > 0, got {alpha}, {beta}")
    return PhiFunction("power_log", (float(alpha), float(beta)))


def parse_phi_spec(text: str) -> PhiFunction:
    """Parse ``power:2``, ``exppower:1`` or ``powerlog:1:1`` (case-insensitive)."""
    parts = [p.strip() for p in str(text).strip().lower().split(":")]
    family = parts[0]
    try:
        nums = [float(p) for p in parts[1:]]
    except ValueError:
        raise PhiSpecError(f"invalid numeric parameter in gauge spec {text!r}") from None
    if family == "power" and len(nums) == 1:
        return power_gauge(nums[0])
    if family == "exppower" and len(nums) == 1:
        return exp_power_gauge(nums[0])
    if family == "powerlog" and len(nums) == 2:
        return power_log_gauge(nums[0], nums[1])
    raise PhiSpecError(f"unknown gauge spec {text!r}")


@dataclass
class ModularReport:
    """A modular ``modular_value`` at scaling ``lam`` over ``interval``.

    ``error_bound`` is the quadrature's acceptance target and
    ``error_estimate`` the summed panel estimate it reached, at or below
    ``error_bound`` (see :class:`~expsamp.quadrature.IntegralResult`); NaN
    on a report not made by :func:`modular`.  ``skipped_nodes`` counts the
    nodes a modular series read with a degenerate denominator.  ``rule`` is
    the integral's accepted rule in ``u = log w``
    (:attr:`~expsamp.quadrature.IntegralResult.rule`), None on a report not
    made by :func:`modular` or kept by :func:`modular_convergence_series`;
    it takes no part in equality or repr.
    """

    modular_value: float
    lam: float
    interval: tuple[float, float]
    skipped_nodes: int = 0
    error_estimate: float = math.nan
    error_bound: float = math.nan
    rule: Callable[[], tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, compare=False, repr=False)


def modular(
    phi: PhiFunction,
    h,
    a: float,
    b: float,
    lam: float = 1.0,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ModularReport:
    """``int_a^b zeta(lam |h(w)|) dw/w``.

    The range is cut at ``h``'s declared breakpoints and integrated in one
    panel list to the one budget ``spec.abs_tol``, with ``h`` read strictly
    inside each segment; the report carries the integral's error estimate
    and acceptance target.  A non-finite value of ``h`` raises ValueError
    naming the handle; a gauge value that overflows (to inf, or past the
    exponential gauge's guard) raises OrliczOverflowError naming ``lam``.
    """
    if not (a > 0 and b > a):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    if not lam > 0:
        raise ValueError("lam must be positive")

    def f(u: np.ndarray, hu: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(hu)):
            name = getattr(h, "name", None) or getattr(h, "__name__", repr(h))
            raise ValueError(f"signal {name} returned non-finite values")
        out = np.asarray(phi(lam * np.abs(hu)))
        if not np.all(np.isfinite(out)):
            raise OrliczOverflowError(f"{phi.name} gauge overflowed to inf")
        return out

    try:
        result = _integrate_segments(f, h, math.log(a), math.log(b), spec)
    except OrliczOverflowError as exc:
        raise OrliczOverflowError(f"modular overflow at lambda={lam:g}: {exc}") from exc
    return ModularReport(modular_value=result.value, lam=lam, interval=(a, b),
                         error_estimate=result.error_estimate, error_bound=result.error_bound,
                         rule=result.rule)


def luxemburg_norm(phi: PhiFunction, h, a: float, b: float, tol: float = 1e-9) -> float:
    """Luxemburg norm ``inf { l > 0 : I[h / l] <= 1 }``.

    The root of ``f(l) = I[h / l] - 1``, which is convex and non-increasing
    in ``l`` for a convex gauge, is bracketed to width ``tol`` by
    :func:`_bracket_root`: geometric growth from ``l = 1``, then
    safeguarded Illinois regula falsi.  A gauge overflow counts as
    ``f = +inf``, and a modular whose quadrature fails to converge with its
    estimate more than its error bound above 1 counts as that estimate.

    Only the gauge scaling changes from one trial to the next, so the first
    modular, at ``l = 1``, is run adaptively and its accepted rule kept:
    ``h`` is read once at the rule's nodes, and the whole search runs on
    the frozen modular ``sum_j w_j zeta(|h_j| / l)``, without further
    integrals.  Two adaptive modulars then confirm the proposed bracket,
    ``f(hi) <= 0 < f(lo)``, at each end other than ``lo = 0`` and
    ``hi = inf``.  Where a side fails, one search on adaptive modulars
    continues from the failed end, widening outward by steps of ``tol``
    that double until the signs straddle, and closes that bracket the same
    way.  Without a rule (the first modular overflowed, or its quadrature
    failed far above 1) that search starts at ``l = 1`` with step 1.
    Either way the returned upper end, a zero norm and an
    UnboundedNormError all rest on adaptive modulars: the norm lies in
    ``(hi - tol, hi]`` up to the modular's quadrature error.

    ``h`` is read only by the modulars and at the rule's nodes.  A handle
    whose modular stays at most 1 down to scalings of ``2**-64`` (the zero
    handle among them) has norm 0; bracket growth past ``2**64`` raises
    UnboundedNormError.  A handle with non-finite values raises ValueError.
    """
    if not (0 < a < b < math.inf):
        raise ValueError(f"need 0 < a < b < inf, got a={a}, b={b}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")
    spec = QuadratureSpec(abs_tol=min(1e-10, tol * 1e-3))

    def adaptive(ell: float):
        """``f(ell)`` from an adaptive modular, and that modular's rule."""
        try:
            report = modular(phi, h, a, b, lam=1.0 / ell, spec=spec)
        except OrliczOverflowError:
            return math.inf, None
        except QuadratureConvergenceError as exc:
            # the absolute budget can lie below the rounding floor of a
            # modular far above 1, where only the side of 1 matters; the
            # exception carries the whole modular's estimate and bound
            if exc.estimate - exc.error_bound > 1.0:
                return exc.estimate - 1.0, None
            raise
        return report.modular_value - 1.0, report.rule

    def excess(ell: float) -> float:
        return adaptive(ell)[0]

    f_one, rule = adaptive(1.0)
    start = 1.0, f_one, 1.0
    if rule is not None:
        nodes, weights = rule()
        hv = np.abs(np.asarray(h(np.exp(nodes)), dtype=float))

        def frozen(ell: float) -> float:
            try:
                with np.errstate(over="ignore"):
                    value = float(weights @ phi((1.0 / ell) * hv))
            except OrliczOverflowError:
                return math.inf
            return value - 1.0 if math.isfinite(value) else math.inf

        lo, hi = _bracket_root(frozen, 1.0, f_one, 1.0, tol)
        if hi < math.inf and (f_hi := excess(hi)) > 0:
            start = hi, f_hi, tol
        elif lo > 0 and (f_lo := excess(lo)) <= 0:
            start = lo, f_lo, tol
        else:
            return _norm(lo, hi)
    return _norm(*_bracket_root(excess, *start, tol))


def _norm(lo: float, hi: float) -> float:
    """The norm bracketed by :func:`_bracket_root`'s ``(lo, hi)``."""
    if hi == math.inf:
        raise UnboundedNormError("Luxemburg bracket exceeded 2**64")
    return 0.0 if lo == 0.0 else hi


def _bracket_root(excess: Callable[[float], float], x: float, f_x: float, step: float,
                  tol: float) -> tuple[float, float]:
    """A bracket ``(lo, hi)`` of the root of the non-increasing ``excess``,
    with ``excess(lo) > 0 >= excess(hi)`` and ``hi - lo <= tol``, or ``lo``
    and ``hi`` adjacent floats where ``tol`` is below their spacing.

    The search starts at ``x``, where the excess is ``f_x``, and widens
    outward: up when ``f_x > 0``, else down, by ``step``, which doubles
    after each move, a downward move going at most half way to 0 (from
    ``x = step = 1`` these are the doublings and halvings of ``l``).  It
    stops with ``hi = inf`` once the bracket would pass ``2**64``, and with
    ``lo = 0`` once it would pass below ``2**-64`` (the excess is at most 0
    at every ``l > 0``).  A straddling bracket is then closed by Illinois
    regula falsi with two safeguards (Dowell & Jarratt, BIT 11, 1971): each
    trial point lies at least ``tol/2`` inside the bracket, and when the
    last three steps together failed to halve the bracket the next step
    bisects, as does any step while the excess is infinite at the lower end.
    """
    if f_x > 0:
        lo, f_lo = x, f_x
        while True:
            hi = lo + step
            if hi > 2.0**64:
                return lo, math.inf
            f_hi = excess(hi)
            if f_hi <= 0:
                break
            lo, f_lo, step = hi, f_hi, 2.0 * step
    else:
        hi, f_hi = x, f_x
        while True:
            lo = hi - min(step, 0.5 * hi)
            if lo < 2.0**-64:
                return 0.0, hi
            f_lo = excess(lo)
            if f_lo > 0:
                break
            hi, f_hi, step = lo, f_lo, 2.0 * step

    # f_lo > 0 >= f_hi from here on
    kept = 0  # +1 / -1 when hi / lo was kept by the last step
    widths = deque([math.inf] * 3, maxlen=3)  # before each of the last 3 steps
    # below the float spacing at the root the width cannot reach tol; the
    # search then ends when no float lies strictly between lo and hi
    while hi - lo > tol and math.nextafter(lo, hi) < hi:
        width = hi - lo
        if math.isinf(f_lo) or width > 0.5 * widths[0]:
            x = 0.5 * (lo + hi)
        else:
            x = hi - f_hi * width / (f_hi - f_lo)
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        widths.append(width)
        f_x = excess(x)
        if f_x > 0:
            lo, f_lo = x, f_x
            if kept > 0:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, f_x
            if kept < 0:
                f_lo *= 0.5
            kept = -1
    return lo, hi


def modular_convergence_series(
    phi: PhiFunction,
    operator: str,
    h,
    cfg_template: OperatorConfig,
    n_list,
    lam: float = 1.0,
) -> list[ModularReport]:
    """Modular distance ``I[lam (D_n h - h)]`` along an increasing list of n.

    Each value is the :func:`modular`, to ``cfg.quad``, of the error
    ``D_n h - h`` read through ``eval_grid``.  The error declares ``h``'s
    breakpoints and the operator's pieces
    (:meth:`~expsamp.operators.DurrmeyerEvaluator.pieces`), so the integral
    is cut there: ``D_n h`` is continuous for every shipped phi, the error
    jumps only where ``h`` does, and for a B-spline phi it is smooth between
    the pieces' ends, where a maximum changes its maximising k or phi has a
    knot.  Phi without bounded support adds no cuts.  Nodes with a
    degenerate denominator count as error 0 and are counted in the per-n
    report.  The reports carry no quadrature rule (``rule`` is None).  An n
    list that is empty, not integral or not strictly increasing is a
    ``ValueError``.
    """
    n_list = _orders(n_list)
    if any(n2 <= n1 for n1, n2 in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    out = []
    for n in n_list:
        cfg = replace(cfg_template, n=n)
        ev = get_evaluator(cfg)
        skipped_count = 0

        def error(ws):
            nonlocal skipped_count
            vals, skipped = ev.eval_grid(operator, h, ws)
            skipped_count += int(skipped.sum())
            return np.where(skipped, 0.0, vals - np.asarray(h(ws), dtype=float))

        breakpoints = (*(getattr(h, "breakpoints", ()) or ()), *ev.pieces(operator, h))
        err = FunctionHandle(name=f"D_{n} h - h", domain=(cfg.a, cfg.b), evaluator=error,
                             breakpoints=breakpoints)
        report = modular(phi, err, cfg.a, cfg.b, lam, cfg.quad)
        report.skipped_nodes = skipped_count
        report.rule = None  # a kept series would pin every integral's panels
        out.append(report)
    return out


def jensen_max_checks(phi: PhiFunction, seed: int, cases: int):
    """Randomized check of the gauge/maximum exchange facts.

    For finite nonnegative sequences A: ``zeta(max A) <= max zeta(2A)`` and,
    because zeta is non-decreasing, the exact identity
    ``zeta(max A) == max zeta(A)``.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    rng = np.random.default_rng(seed)
    report = PropertyReport(name=f"jensen-max[{phi.name}]", cases=cases)
    for i in range(cases):
        m = int(rng.integers(1, 24))
        A = rng.uniform(0.0, 4.0, m)
        zmax = float(phi(float(np.max(A))))
        zA = np.asarray(phi(A), dtype=float)
        z2A = np.asarray(phi(2.0 * A), dtype=float)
        if zmax > float(np.max(z2A)):
            report.violations.append(("doubled-bound", i, A.copy()))
        if zmax != float(np.max(zA)):
            report.violations.append(("max-identity", i, A.copy()))
    return report

