"""Max-product and max-min Durrmeyer-type exponential sampling operators.

Both operators reconstruct a function h on an interval [a, b] of positive
reals from the kernel-weighted coefficients

    C_k(h) = n * int_a^b psi(e^{-k} v^n) h(v) dv/v,

with k running over the index set J_n = {ceil(n log a), ..., floor(n log b)}.
Writing Phi_k(w) = phi(e^{-k} w^n):

    max-product:  max_k Phi_k(w) C_k(h)  /  max_k Phi_k(w) C_k(1)
    max-min:      max_k [ C_k(h) /\\ Phi_k(w) / D(w) ],
                  D(w) = max_k Phi_k(w) C_k(1)

The coefficients do not depend on w, so a :class:`DurrmeyerEvaluator` caches
them per (config, h) pair; the denominator coefficients C_k(1) are shared by
every evaluation.  Cache fills are idempotent: concurrent readers racing on
the same key can only install identical arrays, never torn ones.

A fill computes the whole vector at once.  In u = log v every integrand
psi(e^{-k} v^n) = psi.eval_log(n u - k) is one function shifted by k/n, so a
composite Gauss-Legendre rule on the lattice of step 1/(2n) in u, which holds
the knots of every B-spline psi, serves all k with shared psi values
(:func:`_lattice_rule`).  The rule is exact for B-spline psi against
piecewise-polynomial h with declared breakpoints and converges fast for the
analytic sinc-type kernels.  It is run on the lattice and on halved panels;
when the two disagree by more than abs_tol/(2n) the fill falls back to the
per-k adaptive :func:`~expsamp.quadrature.durrmeyer_coefficient`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernels import KernelDescriptor, compute_metrics
from .quadrature import QuadratureSpec, _leggauss, durrmeyer_coefficient

__all__ = [
    "OperatorConfig",
    "OperatorEvaluation",
    "PreconditionError",
    "PropertyReport",
    "DurrmeyerEvaluator",
    "index_set",
    "get_evaluator",
    "max_product_eval",
    "max_min_eval",
    "maxmin_algebra_checks",
    "denominator_lower_bound_check",
]

# Denominator magnitudes below this are reported as degenerate rather than
# divided through; reachable only at interval edges with compactly supported
# phi, and not at all for the shipped families.
_DENOMINATOR_FLOOR = 1e-300

# Grid points per block in DurrmeyerEvaluator.eval_grid; each block's
# temporaries take _GRID_BLOCK x |J_n| x 8 bytes (4.3 MB at |J_n| = 132).
_GRID_BLOCK = 4096

# Kernel values per psi.eval_log call in a batched coefficient fill; the
# kernels' temporaries then stay a few hundred KB however large n is.
_PSI_BLOCK = 4096

# fp grace at domain edges: exp(log(b)) may overshoot b by one ulp
_EDGE_GRACE = 1e-9

# Integer-snap slack for the index-set bounds: n*log(a) is computed in
# floating point and must not drop/add an index when a is an exact power
# of e (e.g. log(e) == 1.0 but 17*log(0.8**...) may land 1 ulp off).
_SNAP = 1e-9


class PreconditionError(ValueError):
    """A stated precondition of a check failed; distinct from a property violation."""


def _snap(x: float) -> float:
    r = round(x)
    return float(r) if abs(x - r) <= _SNAP * max(1.0, abs(x)) else x


def index_set(n: int, a: float, b: float) -> list[int]:
    """Consecutive integers from ceil(n log a) to floor(n log b); may be empty."""
    if not (a > 0 and a < b):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    lo = math.ceil(_snap(n * math.log(a)))
    hi = math.floor(_snap(n * math.log(b)))
    return list(range(lo, hi + 1))


@dataclass(frozen=True)
class OperatorConfig:
    """Kernel pair, order and interval defining one operator instance."""

    phi: KernelDescriptor
    psi: KernelDescriptor
    n: int
    a: float
    b: float
    quad: QuadratureSpec = QuadratureSpec()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (self.a > 0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"need 0 < a < b < inf, got a={self.a}, b={self.b}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if not math.log(self.b / self.a) > 1.0 / self.n:
            raise ValueError(
                f"interval too short: need b/a > e^(1/n), got b/a = {self.b / self.a!r} "
                f"with n = {self.n}"
            )

    def indices(self) -> list[int]:
        return index_set(self.n, self.a, self.b)


@dataclass
class OperatorEvaluation:
    """Diagnostic decomposition of one operator evaluation.

    ``value = numerator / denominator`` whenever not skipped.  For the
    max-product operator ``active_index`` is the (smallest) k achieving the
    denominator maximum; for max-min it is the k achieving the outer maximum.
    """

    value: float
    numerator: float
    denominator: float
    active_index: int | None
    skipped: bool = False
    skip_reason: str | None = None
    warning: str | None = None


def _skipped(reason: str) -> OperatorEvaluation:
    return OperatorEvaluation(
        value=math.nan, numerator=math.nan, denominator=0.0,
        active_index=None, skipped=True, skip_reason=reason,
    )


def _is_one(h) -> bool:
    return h is None or (isinstance(h, str) and h == "one")


def _finite(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    return vals


def _lattice_rule(cfg: OperatorConfig, ks: np.ndarray, h, q: int) -> np.ndarray:
    """C_k(h) for every k in ``ks`` from one composite Gauss-Legendre rule.

    The panels are the cells of the lattice of step 1/(q n) in u = log v,
    clipped to [log a, log b] and cut at h's declared breakpoints.  On a full
    cell j, node i sits at u = (j + t_i)/(q n), where psi(e^{-k} v^n) reads
    ``T_i[j - q k] = psi.eval_log((j - q k + t_i)/q)``: one column T_i serves
    every k, and each coefficient is a sum over i of correlations of T_i with
    the weighted h values, strided by q.  The other pieces, at the two ends
    and in the cells cut by breakpoints, are summed directly.  ``h`` is read
    once, at Gauss nodes only, so never on a panel edge.
    """
    n, psi = cfg.n, cfg.psi
    x, wg = _leggauss(cfg.quad.panel_nodes)
    t, wt = 0.5 * (1.0 + x), 0.5 * wg
    step = 1.0 / (q * n)
    # interval ends, breakpoints and panel edges in lattice units s = u / step
    lo, hi = math.log(cfg.a) / step, math.log(cfg.b) / step
    one = _is_one(h)
    bps = () if one else getattr(h, "breakpoints", ()) or ()
    cuts = [s for s in (math.log(bp) / step for bp in bps) if lo < s < hi]
    j0, j1 = math.ceil(lo), math.floor(hi)
    edges = np.array(sorted({lo, hi, *range(j0, j1 + 1), *cuts}), dtype=float)
    p0, width = edges[:-1], np.diff(edges)
    # only a whole lattice cell is a piece of width 1: a knot lies strictly
    # between any other two edges that far apart
    is_full = width == 1.0
    full, p0, width = p0[is_full].astype(int), p0[~is_full], width[~is_full]

    # one read of h over every node of the rule, full cells first
    u_full = (full[:, None] + t[None, :]) * step
    u_irr = (p0[:, None] + width[:, None] * t[None, :]) * step
    u = np.concatenate([u_full.ravel(), u_irr.ravel()])
    hv = np.ones(u.size) if one else _finite(np.broadcast_to(h(np.exp(u)), u.shape))
    hv_full = hv[:u_full.size].reshape(u_full.shape)
    hv_irr = hv[u_full.size:].reshape(u_irr.shape)

    # V[j - j0, i]: weighted h on full cell j, zero on the cut cells
    V = np.zeros((max(j1 - j0, 0), t.size))
    V[full - j0] = step * wt[None, :] * hv_full
    W = (width[:, None] * step * wt[None, :]) * hv_irr
    kmin, kmax = int(ks[0]), int(ks[-1])
    d = np.arange(j0 - q * kmax, j1 - q * kmin)
    acc = np.zeros(ks.size)
    # psi is read a few nodes at a time, about _PSI_BLOCK values per call
    per = max(1, _PSI_BLOCK // max(d.size, ks.size * p0.size, 1))
    for c in range(0, t.size, per):
        nodes = slice(c, c + per)
        if full.size:
            T = _finite(psi.eval_log((d[:, None] + t[None, nodes]) / q))
            for T_i, V_i in zip(T.T, V[:, nodes].T):
                # correlate(T_i, V_i)[q (kmax - k)] = sum_j T_i[j - q k - d[0]] V_i[j - j0]
                acc += np.correlate(T_i, V_i, "valid")[::q][::-1]
        if p0.size:
            P = _finite(psi.eval_log(n * u_irr[None, :, nodes] - ks[:, None, None]))
            acc += P.reshape(ks.size, -1) @ W[:, nodes].ravel()
    return n * acc


class DurrmeyerEvaluator:
    """Coefficient cache plus vectorized evaluation for one config.

    ``engines`` records, per cached handle, which engine filled its
    coefficients: ``"batched"`` or ``"adaptive: <reason>"``.
    """

    def __init__(self, cfg: OperatorConfig):
        self.cfg = cfg
        ks = cfg.indices()
        if not ks:
            raise ValueError("empty index set")
        self.ks = np.asarray(ks, dtype=float)
        self._coeffs: dict[object, np.ndarray] = {}
        self._range_flags: dict[object, str | None] = {}
        self.engines: dict[object, str] = {}

    def coefficients(self, h) -> np.ndarray:
        """C_k(h) for every k in the index set; memoized per handle.

        A miss runs :func:`_lattice_rule` on the lattice of step 1/(2n) and on
        halved panels and keeps the finer vector when the two differ by at
        most abs_tol/(2n) everywhere.  Otherwise every coefficient is
        recomputed by the per-k adaptive ``durrmeyer_coefficient`` and the
        reason is logged at INFO on the ``expsamp`` logger.  A handle whose
        ``domain`` does not cover [a, b] is rejected with ``ValueError``
        before it is read.
        """
        key = "one" if _is_one(h) else h
        cached = self._coeffs.get(key)
        if cached is None:
            cfg = self.cfg
            domain = None if key == "one" else getattr(h, "domain", None)
            if domain is not None and not (
                    domain[0] - _EDGE_GRACE <= cfg.a and cfg.b <= domain[1] + _EDGE_GRACE):
                raise ValueError(
                    f"{getattr(h, 'name', 'handle')} is defined on [{domain[0]:g}, "
                    f"{domain[1]:g}], which does not cover [{cfg.a:g}, {cfg.b:g}]")
            coarse = _lattice_rule(cfg, self.ks, h, 2)
            cached = _lattice_rule(cfg, self.ks, h, 4)
            delta = float(np.max(np.abs(cached - coarse)))
            limit = cfg.quad.abs_tol / (2 * cfg.n)
            engine = "batched"
            if not delta <= limit:
                engine = f"adaptive: halved-panel difference {delta:.3g} > {limit:.3g}"
                # imported here: a run without fallbacks never loads logging
                import logging

                logging.getLogger("expsamp").info(
                    "coefficients of %s for psi=%s, n=%d on [%g, %g]: %s",
                    getattr(h, "name", h), cfg.psi.name, cfg.n, cfg.a, cfg.b, engine)
                cached = np.array([
                    durrmeyer_coefficient(cfg.psi, int(k), cfg.n, cfg.a, cfg.b, h, cfg.quad)
                    for k in self.ks
                ])
            self.engines[key] = engine
            self._coeffs[key] = cached
        return cached

    def phi_weights(self, w: float) -> np.ndarray:
        cfg = self.cfg
        return np.asarray(cfg.phi.eval_log(cfg.n * math.log(w) - self.ks))

    def _check_unit_range(self, h) -> str | None:
        """Flag handles leaving [0, 1]; the max-min guarantees assume that range."""
        key = h
        if key in self._range_flags:
            return self._range_flags[key]
        declared = getattr(h, "declared_range", None)
        if declared is not None:
            lo, hi = declared
        else:
            probe = np.exp(np.linspace(math.log(self.cfg.a), math.log(self.cfg.b), 257))
            vals = np.asarray(h(probe), dtype=float)
            lo, hi = float(vals.min()), float(vals.max())
        flag = None
        if lo < -1e-9 or hi > 1.0 + 1e-9:
            flag = f"outside guarantee range [0,1]: observed [{lo:.6g}, {hi:.6g}]"
        self._range_flags[key] = flag
        return flag

    def max_product(self, h, w: float) -> OperatorEvaluation:
        phiw = self.phi_weights(w)
        den_terms = phiw * self.coefficients("one")
        j = int(np.argmax(den_terms))
        den = float(den_terms[j])
        if den < _DENOMINATOR_FLOOR:
            return _skipped("degenerate denominator")
        num = float(np.max(phiw * self.coefficients(h)))
        return OperatorEvaluation(
            value=num / den, numerator=num, denominator=den,
            active_index=int(self.ks[j]),
        )

    def max_min(self, h, w: float) -> OperatorEvaluation:
        phiw = self.phi_weights(w)
        den_terms = phiw * self.coefficients("one")
        den = float(np.max(den_terms))
        if den < _DENOMINATOR_FLOOR:
            return _skipped("degenerate denominator")
        terms = np.minimum(self.coefficients(h), phiw / den)
        j = int(np.argmax(terms))
        value = float(terms[j])
        return OperatorEvaluation(
            value=value, numerator=value * den, denominator=den,
            active_index=int(self.ks[j]),
            warning=self._check_unit_range(h),
        )

    def eval_grid(self, kind: str, h, ws) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation over a 1-D grid; returns (values, skipped_mask).

        The grid is processed in blocks of ``_GRID_BLOCK`` points, so the
        points x |J_n| temporaries stay a few MB however long the grid is;
        every point's value is computed exactly as in a single pass.
        """
        if kind not in ("max_product", "max_min"):
            raise ValueError(f"unknown operator kind {kind!r}")
        ws = np.asarray(ws, dtype=float)
        c_one, c_h = self.coefficients("one"), self.coefficients(h)
        values = np.empty(ws.shape)
        skipped = np.empty(ws.shape, dtype=bool)
        for start in range(0, ws.size, _GRID_BLOCK):
            block = slice(start, start + _GRID_BLOCK)
            phim = np.asarray(self.cfg.phi.eval_log(
                self.cfg.n * np.log(ws[block])[:, None] - self.ks[None, :]))
            den = (phim * c_one[None, :]).max(axis=1)
            skipped[block] = den < _DENOMINATOR_FLOOR
            den[skipped[block]] = 1.0
            if kind == "max_product":
                values[block] = (phim * c_h[None, :]).max(axis=1) / den
            else:
                values[block] = np.minimum(c_h[None, :], phim / den[:, None]).max(axis=1)
        values[skipped] = np.nan
        return values, skipped


@lru_cache(maxsize=32)
def get_evaluator(cfg: OperatorConfig) -> DurrmeyerEvaluator:
    """The shared evaluator, and so the coefficient cache, of ``cfg``.

    The 32 most recently used configs keep their evaluators; the eight
    published tables use eight.
    """
    return DurrmeyerEvaluator(cfg)


def _check_point(cfg: OperatorConfig, w: float) -> None:
    # one-ulp grace: grids built as exp(linspace(log a, log b, .)) may land
    # a rounding error outside the interval
    grace = 1e-12
    if not (cfg.a * (1 - grace) <= w <= cfg.b * (1 + grace)):
        raise ValueError(f"evaluation point {w} outside [{cfg.a}, {cfg.b}]")


def max_product_eval(h, cfg: OperatorConfig, w: float) -> OperatorEvaluation:
    """Evaluate the max-product operator for ``h`` at ``w`` in [a, b]."""
    _check_point(cfg, w)
    return get_evaluator(cfg).max_product(h, w)


def max_min_eval(h, cfg: OperatorConfig, w: float) -> OperatorEvaluation:
    """Evaluate the max-min operator for ``h`` at ``w`` in [a, b].

    The convergence guarantees assume h maps into [0, 1]; handles observed
    outside that range are evaluated anyway and flagged via ``warning``.
    """
    _check_point(cfg, w)
    return get_evaluator(cfg).max_min(h, w)


# ---------------------------------------------------------------------------
# Lattice algebra checks
# ---------------------------------------------------------------------------

@dataclass
class PropertyReport:
    name: str
    cases: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def maxmin_algebra_checks(seed: int, cases: int) -> PropertyReport:
    """Randomized check of the four max/min lattice facts the operators rely on.

    1. max(d) - max(e) <= max|d - e| for finite sequences;
    2. |u /\\ v - u /\\ s| <= u /\\ |v - s| on [0, 1];
    3. u /\\ v + s /\\ v >= (u + s) /\\ v for nonnegative u, s, v;
    4. lam * max(d /\\ e) == max(lam d /\\ lam e) exactly, for [0,1] sequences.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    rng = np.random.default_rng(seed)
    report = PropertyReport(name="maxmin-algebra", cases=cases)

    for i in range(cases):
        m = int(rng.integers(1, 24))
        d = rng.normal(0.0, 10.0, m)
        e = rng.normal(0.0, 10.0, m)
        if d.max() - e.max() > np.abs(d - e).max():
            report.violations.append(("max-difference", i, d.copy(), e.copy()))

        mu, nu, s = rng.uniform(0.0, 1.0, 3)
        if abs(min(mu, nu) - min(mu, s)) > min(mu, abs(nu - s)):
            report.violations.append(("min-difference", i, (mu, nu, s)))

        mu2, s2, nu2 = np.abs(rng.normal(0.0, 5.0, 3))
        if min(mu2, nu2) + min(s2, nu2) < min(mu2 + s2, nu2):
            report.violations.append(("min-superadditivity", i, (mu2, s2, nu2)))

        m2 = int(rng.integers(1, 24))
        d2 = rng.uniform(0.0, 1.0, m2)
        e2 = rng.uniform(0.0, 1.0, m2)
        lam = float(rng.uniform(0.05, 20.0))
        lhs = lam * np.maximum.reduce(np.minimum(d2, e2))
        rhs = np.maximum.reduce(np.minimum(lam * d2, lam * e2))
        if lhs != rhs:
            report.violations.append(("scaling-identity", i, (lam, d2.copy(), e2.copy())))

    return report


def denominator_lower_bound_check(cfg: OperatorConfig, w_grid) -> PropertyReport:
    """Verify D(w) >= K * theta - 1e-8 on a grid of evaluation points.

    Preconditions (raised as :class:`PreconditionError`, not reported as
    violations): phi must have a strictly positive infimum over [1, e] and
    the interval must satisfy b/a > e^(1/n).
    """
    theta = compute_metrics(cfg.phi).theta
    if not theta > 0:
        raise PreconditionError(
            f"phi kernel {cfg.phi.name} has theta = {theta}; the bound requires theta > 0"
        )
    # OperatorConfig already enforces b/a > e^(1/n); re-check to keep this
    # entry point meaningful for duck-typed configs.
    if not math.log(cfg.b / cfg.a) > 1.0 / cfg.n:
        raise PreconditionError("need b/a > e^(1/n)")
    K = compute_metrics(cfg.psi).K
    bound = K * theta - 1e-8

    ev = get_evaluator(cfg)
    w_list = [float(w) for w in w_grid]
    report = PropertyReport(name="denominator-lower-bound", cases=len(w_list))
    for w in w_list:
        _check_point(cfg, w)
        den = float(np.max(ev.phi_weights(w) * ev.coefficients("one")))
        if den < bound:
            report.violations.append((float(w), den, bound))
    return report
