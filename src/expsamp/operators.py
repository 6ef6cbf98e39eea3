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
composite Gauss-Legendre rule on the lattice of step 1/(2n) in u, the
coarsest that holds the knots of every B-spline psi (n u - k in Z/2 covers
odd orders), serves all k with shared psi values
(:func:`_lattice_rule`).  The rule is exact for B-spline psi against
piecewise-polynomial h with declared breakpoints and converges fast for the
analytic sinc-type kernels.  The vector is the sum of its Gauss nodes'
shares, and Gauss null rules on the shares estimate its error (Berntsen &
Espelid, ACM TOMS 17(2), 1991); above abs_tol/(2n) the step is halved, up
to 1/(128 n), and only then does the fill fall back to the per-k adaptive
:func:`~expsamp.quadrature.durrmeyer_coefficient`.  The psi values of the
full lattice cells depend on neither h nor k, so one fill serves C_k(1) and
C_k(h) together when both are missing, as on a config's first evaluation,
and builds that psi table once for them both.

A phi of bounded log support [slo, shi] is nonzero on at most
ceil(shi - slo) + 1 of the Phi_k(w), so point and grid evaluations read phi
on that band of k only and account for the zero terms outside it exactly.
The band's terms are held as one row per band position and one column per
point, so every maximum over k is a reduction across a few contiguous rows.

For a B-spline phi both operators are piecewise rational in x = n log w
(Bede, Coroianu & Gal, *Approximation by Max-Product Type Operators*, 2016):
on each knot cell every term is a polynomial, and the operator is smooth
between the points where a maximum changes its maximising k.
:meth:`DurrmeyerEvaluator.pieces` computes those points as polynomial roots.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernels import KernelDescriptor, _real_roots, compute_metrics
from .quadrature import (
    QuadratureSpec, _as_signal, _leggauss, _null_rules, durrmeyer_coefficient,
)

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
# temporaries take _GRID_BLOCK x (band or |J_n|) x 8 bytes (4.3 MB at
# |J_n| = 132).
_GRID_BLOCK = 4096

# Gauss-Legendre nodes per lattice cell in a batched coefficient fill, and
# the first and the largest q of a lattice step 1/(q n) before the per-k
# fallback.
_LATTICE_NODES = 16
_LATTICE_START_Q = 2
_LATTICE_MAX_Q = 128

# Kernel values per psi table block in a batched coefficient fill (a
# signal's cut cells read about pieces/(2q) times as many); the kernels'
# temporaries then stay a few hundred KB however large n is.
_PSI_BLOCK = 4096

# Located pieces closer than this in x = n log w, to each other or to the
# interval's ends, are one cut.
_PIECE_MERGE = 1e-9

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
        if not (isinstance(self.n, numbers.Real) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
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


def _finite(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    return vals


def _first_max(terms: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The smallest row index i with ``terms[i] == top`` in each column, where
    ``top`` is the column maximum: the largest of the reversed ranks
    m - i over the matching rows, from one axis-0 reduction."""
    m = terms.shape[0]
    rank = np.arange(m, 0, -1)[:, None]
    return m - (np.equal(terms, top) * rank).max(axis=0)


def _handle_panels(h, lo: float, hi: float, step: float, t: np.ndarray, wt: np.ndarray):
    """One handle's share of a lattice rule in lattice units s = u / step:
    ``V[i, j - j0]``, weighted h at node i of full cell j (zero on cut cells),
    a row per node so every correlation reads a contiguous row, and the
    nodes ``u_irr`` and weighted values ``W`` of the other pieces.  ``h`` is
    read once, full cells first; its node and value arrays are freed here, so
    a joint fill holds only each handle's V, W and ``u_irr`` in its psi loop."""
    bps = getattr(h, "breakpoints", ()) or ()
    cuts = [s for s in (math.log(bp) / step for bp in bps) if lo < s < hi]
    j0, j1 = math.ceil(lo), math.floor(hi)
    edges = np.array(sorted({lo, hi, *range(j0, j1 + 1), *cuts}), dtype=float)
    p0, width = edges[:-1], np.diff(edges)
    # only a whole lattice cell is a piece of width 1: a knot lies strictly
    # between any other two edges that far apart
    is_full = width == 1.0
    full, p0, width = p0[is_full].astype(int), p0[~is_full], width[~is_full]
    u_irr = (p0[:, None] + width[:, None] * t[None, :]) * step
    u = np.concatenate([((full[:, None] + t[None, :]) * step).ravel(), u_irr.ravel()])
    hv = _finite(np.broadcast_to(h(np.exp(u)), u.shape))
    del u
    V = np.zeros((t.size, max(j1 - j0, 0)))
    V[:, full - j0] = hv[:full.size * t.size].reshape(full.size, t.size).T
    V *= (step * wt)[:, None]
    W = width[:, None] * step * wt[None, :]
    W *= hv[full.size * t.size:].reshape(W.shape)
    return full.size > 0, V, u_irr, W


def _lattice_rule(cfg: OperatorConfig, ks: np.ndarray, hs, q: int) -> list[tuple[np.ndarray, float]]:
    """C_k(h) for every k in ``ks`` and every signal h in ``hs`` from one
    composite Gauss-Legendre rule per signal, each with its error estimate.

    The panels are the cells of the lattice of step 1/(q n) in u = log v,
    clipped to [log a, log b] and cut at h's declared breakpoints.  On a full
    cell j, node i sits at u = (j + t_i)/(q n), where psi(e^{-k} v^n) reads
    ``T_i[j - q k] = psi.eval_log((j - q k + t_i)/q)``: one sequence T_i serves
    every k and every signal.  Node i's share S_i of a vector is the
    correlation of T_i with the weighted h values, strided by q, plus its
    terms on the signal's own pieces at the two ends and in the cells cut by
    its breakpoints; the vector is n sum_i S_i.  psi is read in blocks of
    nodes that depend on cfg and q only, the table once for all signals, so
    a vector does not depend on the other signals of the call.  ``h`` is
    read once, at Gauss nodes only, so never on a panel edge.  The error
    estimate is 4 n max_k max_m |sum_i P_m(x_i) S_i[k]| over the null rules
    of ``quadrature._null_rules`` (degrees 12 to 15); 4 is the safety factor
    of ``integrate_log``.
    """
    n, psi = cfg.n, cfg.psi
    x, wg = _leggauss(_LATTICE_NODES)
    t, wt = 0.5 * (1.0 + x), 0.5 * wg
    step = 1.0 / (q * n)
    # interval ends in lattice units s = u / step
    lo, hi = math.log(cfg.a) / step, math.log(cfg.b) / step
    j0, j1 = math.ceil(lo), math.floor(hi)
    kmin, kmax = int(ks[0]), int(ks[-1])
    d = np.arange(j0 - q * kmax, j1 - q * kmin)
    shares = [np.zeros((t.size, ks.size)) for _ in hs]
    rules = [_handle_panels(h, lo, hi, step, t, wt) for h in hs]
    tabled = any(has_full for has_full, _, _, _ in rules)
    per = max(1, _PSI_BLOCK // max(d.size, 1))
    for c in range(0, t.size, per):
        block = slice(c, c + per)
        if tabled:
            T = _finite(psi.eval_log((t[block, None] + d[None, :]) / q))
        for (has_full, V, u_irr, W), S in zip(rules, shares):
            if has_full:
                for i, T_i in enumerate(T, c):
                    # correlate(T_i, V_i)[q (kmax - k)] = sum_j T_i[j - q k - d[0]] V_i[j - j0]
                    S[i] = np.correlate(T_i, V[i], "valid")[::q][::-1]
            if u_irr.shape[0]:
                P = _finite(psi.eval_log(n * u_irr[None, :, block] - ks[:, None, None]))
                S[block] += (P * W[:, block]).sum(axis=1).T
    L = _null_rules(_LATTICE_NODES)[:, :, None]
    return [(n * S.sum(axis=0), 4.0 * n * float(np.abs((L * S).sum(axis=1)).max()))
            for S in shares]


@lru_cache(maxsize=8)
def _bspline_pieces(order: int) -> np.ndarray:
    """B[j, p], the coefficient of t**p in the cardinal B-spline N(j + t) on
    its pieces j = 0, ..., order - 1, 0 <= t <= 1; the centered B-spline phi
    of ``order`` is phi(y) = N(y + order/2).  From the truncated-power sum
    N(s) = sum_i (-1)^i C(order, i) (s - i)_+^(order-1) / (order-1)!,
    expanded in integers and divided once."""
    r = order
    B = [[sum((-1) ** i * math.comb(r, i) * math.comb(r - 1, p) * (j - i) ** (r - 1 - p)
              for i in range(j + 1)) / math.factorial(r - 1) for p in range(r)]
         for j in range(r)]
    return np.array(B)


class DurrmeyerEvaluator:
    """Coefficient cache plus vectorized evaluation for one config.

    ``engines`` records, per cached handle, which engine filled its
    coefficients: ``"batched"`` (the q = 2 lattice), ``"batched (q=N)"``
    after escalation, or ``"adaptive: <reason>"``.
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

    def coefficients(self, h, *more):
        """C_k(h) for every k in the index set; memoized per handle.

        One handle gives one vector; ``coefficients("one", h)`` gives the
        tuple of both, in order; ``"one"`` (or None) is the constant signal
        ``quadrature._constant_one``.  The handles not yet cached are filled
        together by one :func:`_lattice_rule` pass on the lattice of step
        1/(2n), which reads psi once for all of them and checks each vector
        by Gauss null rules.  A handle whose estimate exceeds abs_tol/(2n)
        is refilled alone at q = 4, 8, ..., 128 until the estimate, or the
        difference from the previous q, meets that limit; failing that, its
        coefficients are recomputed by the per-k adaptive
        ``durrmeyer_coefficient`` and the reason is logged at INFO on the
        ``expsamp`` logger, while the others stay batched.  Every vector is
        the one a call for its handle alone gives.  A handle whose
        ``domain`` does not cover [a, b] is rejected with ``ValueError``
        before any handle is read.
        """
        keys = ["one" if g is None else g for g in (h, *more)]
        missing = [k for k in dict.fromkeys(keys) if k not in self._coeffs]
        signals = [_as_signal(k) for k in missing]
        cfg = self.cfg
        for key in missing:
            domain = getattr(key, "domain", None)
            if domain is not None and not (
                    domain[0] - _EDGE_GRACE <= cfg.a and cfg.b <= domain[1] + _EDGE_GRACE):
                raise ValueError(
                    f"{getattr(key, 'name', 'handle')} is defined on [{domain[0]:g}, "
                    f"{domain[1]:g}], which does not cover [{cfg.a:g}, {cfg.b:g}]")
        if missing:
            limit = cfg.quad.abs_tol / (2 * cfg.n)
            first = _lattice_rule(cfg, self.ks, signals, _LATTICE_START_Q)
            for key, g, (c, est) in zip(missing, signals, first):
                q, engine, err = _LATTICE_START_Q, "batched", est
                while not err <= limit and q < _LATTICE_MAX_Q:
                    q *= 2
                    finer, est = _lattice_rule(cfg, self.ks, [g], q)[0]
                    err = min(est, float(np.max(np.abs(finer - c))))
                    c, engine = finer, f"batched (q={q})"
                if not err <= limit:
                    engine = f"adaptive: null-rule estimate {est:.3g} > {limit:.3g} at q={q}"
                    # imported here: a run without fallbacks never loads logging
                    import logging

                    logging.getLogger("expsamp").info(
                        "coefficients of %s for psi=%s, n=%d on [%g, %g]: %s",
                        getattr(key, "name", key), cfg.psi.name, cfg.n, cfg.a, cfg.b, engine)
                    c = np.array([
                        durrmeyer_coefficient(cfg.psi, int(k), cfg.n, cfg.a, cfg.b, key, cfg.quad)
                        for k in self.ks
                    ])
                self.engines[key] = engine
                self._coeffs[key] = c
        if not more:
            return self._coeffs[keys[0]]
        return tuple(self._coeffs[k] for k in keys)

    def range_warning(self, h) -> str | None:
        """The max-min warning for ``h`` leaving [0, 1], or None; memoized, from
        ``h.declared_range`` or else a 257-point probe of [a, b]."""
        if h in self._range_flags:
            return self._range_flags[h]
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
        self._range_flags[h] = flag
        return flag

    def _check_points(self, ws: np.ndarray) -> None:
        # one-ulp grace: grids built as exp(linspace(log a, log b, .)) may
        # land a rounding error outside the interval
        cfg, grace = self.cfg, 1e-12
        inside = (ws >= cfg.a * (1 - grace)) & (ws <= cfg.b * (1 + grace))
        if not inside.all():
            raise ValueError(f"evaluation point {ws[~inside][0]:g} is outside the interval "
                             f"[{cfg.a:g}, {cfg.b:g}]; points must be positive and lie in it")

    def _assemble(self, kind: str, h, x: np.ndarray):
        """The operator at the points x = n log w, read on phi's band of k.

        Returns (value, numerator, denominator, active), ``active`` indexing
        ``ks``: the smallest k achieving the denominator maximum (max-product)
        or the outer maximum (max-min).  A point whose denominator falls below
        ``_DENOMINATOR_FLOOR`` gets NaN value and numerator and denominator 0.

        For phi of bounded log support [slo, shi] a point reads only the band
        of m = ceil(shi - slo) + 1 indices from ceil(x - shi), shifted into
        J_n: every k outside it has phi(x - k) = 0.  Those k still enter the
        maxima over J_n, as 0 in the max-product numerator and as
        min(C_k(h), 0) in max-min, so each band maximum gets one more
        candidate: 0, and max_k min(C_k(h), 0) at the first k achieving it.
        No max-min term of the band falls below that candidate, as phi >= 0,
        and one equal to it is min(C_k(h), 0) at a k achieving it, so the
        candidate's k wins ties.  The denominator needs none: a band maximum
        below 0 is skipped as a 0 would be, one above 0 is not reached
        outside the band.  Phi without bounded support, or with m >= |J_n|,
        reads all of J_n.

        The band terms are laid out band-major, a row of the m band positions
        by a column per point, so each maximum is a contiguous reduction over
        the m rows, and the smallest maximising index comes from a second one
        (:func:`_first_max`).  The max-min value is the term at that index.
        """
        c_one, c_h = self.coefficients("one", h)
        phi, size = self.cfg.phi, self.ks.size
        support = phi.log_support
        m = size if support is None else min(size, math.ceil(support[1] - support[0]) + 1)
        banded = m < size
        if banded:
            first = np.clip(np.ceil(x - support[1]) - self.ks[0], 0, size - m).astype(int)
            band = first + np.arange(m)[:, None]
        else:
            first = np.zeros(x.size, dtype=int)
            band = np.arange(m)[:, None]
        phim = np.asarray(phi.eval_log(x - self.ks[band]))
        den_terms = phim * c_one[band]
        top = den_terms.max(axis=0)
        skipped = top < _DENOMINATOR_FLOOR
        den = np.where(skipped, 1.0, top)
        if kind == "max_product":
            j = _first_max(den_terms, top)
            num = (phim * c_h[band]).max(axis=0)
            if banded:
                num = np.maximum(num, 0.0)
            value = num / den
        else:
            terms = np.minimum(c_h[band], phim / den)
            j = _first_max(terms, terms.max(axis=0))
            value = terms[j, np.arange(x.size)]
            if banded:
                outer = np.minimum(c_h, 0.0)
                k0 = int(outer.argmax())
                j = np.where(value <= outer[k0], k0 - first, j)
                value = np.maximum(value, outer[k0])
            num = value * den
        value[skipped] = num[skipped] = np.nan
        den[skipped] = 0.0
        return value, num, den, first + j

    def pieces(self, kind: str, h) -> tuple[float, ...]:
        """The points w in (a, b), increasing, where the operator value
        ``D_n h`` may fail to be smooth; ``()`` unless phi is a B-spline.

        For a B-spline phi of order r the knot cells of x = n log w are
        [M - r/2, M + 1 - r/2]; on each, the r band terms phi(x - k) for
        k = M - j, j < r, are the pieces N(j + t) of the cardinal B-spline
        in t = x - M + r/2 (:func:`_bspline_pieces`), so every maximum is a
        maximum of polynomials.  The candidates are the knots and the roots
        in each cell of: the differences of two denominator terms
        C_k(1) phi(x - k); for max-product, of two numerator terms
        C_k(h) phi(x - k); for max-min, of phi(x - k) - phi(x - j) and of
        phi(x - k) - C_j(h) C_i(1) phi(x - i), which is phi(x - k) -
        C_j(h) D(x) where the denominator's maximiser is i.  A root is kept
        only where the maximisers (and, for max-min, the side of the
        winning min) differ at the midpoints of the candidate intervals on
        its two sides.  Cuts within ``_PIECE_MERGE`` of each other or of the
        interval's ends are merged.  The zero terms outside the band never
        win a maximum inside a cell, so they add no candidates.
        """
        if kind not in ("max_product", "max_min"):
            raise ValueError(f"unknown operator kind {kind!r}")
        phi, cfg = self.cfg.phi, self.cfg
        if phi.family != "bspline":
            return ()
        r = int(phi.params[0])
        B = _bspline_pieces(r)
        xlo, xhi = cfg.n * math.log(cfg.a), cfg.n * math.log(cfg.b)
        M = np.arange(math.floor(xlo + r / 2), math.ceil(xhi + r / 2))
        left = M - r / 2
        t0, t1 = np.clip(xlo - left, 0.0, 1.0), np.clip(xhi - left, 0.0, 1.0)
        # the band of each cell, term j holding k = M - j; k outside J_n absent
        k = M[:, None] - np.arange(r)
        inside = (k >= self.ks[0]) & (k <= self.ks[-1])
        at = np.clip(k - int(self.ks[0]), 0, self.ks.size - 1)
        c1, ch = (c[at] for c in self.coefficients("one", h))

        # candidate polynomials, a row per (cell, pair), and their roots
        J, I = np.triu_indices(r, 1)
        both = inside[:, J] & inside[:, I]
        polys = [((c1[:, J, None] * B[J] - c1[:, I, None] * B[I]), both)]
        if kind == "max_product":
            polys.append((ch[:, J, None] * B[J] - ch[:, I, None] * B[I], both))
        else:
            polys.append((np.broadcast_to(B[J] - B[I], both.shape + (r,)), both))
            K, J3, I3 = (a.ravel() for a in np.indices((r, r, r)))
            cd = (ch[:, J3] * c1[:, I3])[..., None]
            polys.append((B[K] - cd * B[I3], inside[:, K] & inside[:, J3] & inside[:, I3]))
        coef = np.concatenate([p[valid] for p, valid in polys])
        cell = np.concatenate([np.nonzero(valid)[0] for _, valid in polys])
        row, t = _real_roots(coef, t0[cell], t1[cell])
        cand = cell[row]

        # the maximisers at the midpoints between sorted candidates and cell ends
        cells = np.arange(M.size)
        pos = np.concatenate([cand, cells, cells])
        tt = np.concatenate([t, t0, t1])
        order = np.lexsort((tt, pos))
        pos, tt = pos[order], tt[order]
        c, tm = pos[:-1], 0.5 * (tt[:-1] + tt[1:])
        vals = (tm[:, None] ** np.arange(r)) @ B.T
        den = np.where(inside[c], c1[c] * vals, -np.inf)
        jd = den.argmax(axis=1)
        if kind == "max_product":
            state = jd * r + np.where(inside[c], ch[c] * vals, -np.inf).argmax(axis=1)
        else:
            side = vals / den[np.arange(c.size), jd][:, None]
            terms = np.where(inside[c], np.minimum(ch[c], side), -np.inf)
            jm = terms.argmax(axis=1)
            limited = ch[c, jm] < side[np.arange(c.size), jm]
            state = (jd * r + jm) * 2 + limited
        p = np.flatnonzero(order[1:-1] < cand.size) + 1
        switch = state[p - 1] != state[p]
        roots = left[pos[p][switch]] + tt[p][switch]

        x = np.sort(np.concatenate([left[(left > xlo) & (left < xhi)], roots]))
        x = x[(x > xlo + _PIECE_MERGE) & (x < xhi - _PIECE_MERGE)]
        x = x[np.concatenate([[True], np.diff(x) > _PIECE_MERGE])]
        return tuple(np.exp(x / cfg.n).tolist())

    def _point(self, kind: str, h, w: float) -> OperatorEvaluation:
        self._check_points(np.array([w], dtype=float))
        value, num, den, active = self._assemble(kind, h, np.array([self.cfg.n * math.log(w)]))
        skipped = bool(den[0] == 0.0)
        return OperatorEvaluation(
            value=float(value[0]), numerator=float(num[0]), denominator=float(den[0]),
            active_index=None if skipped else int(self.ks[active[0]]), skipped=skipped,
            skip_reason="degenerate denominator" if skipped else None,
            warning=self.range_warning(h) if kind == "max_min" and not skipped else None,
        )

    def max_product(self, h, w: float) -> OperatorEvaluation:
        """The max-product operator for ``h`` at ``w`` in [a, b]."""
        return self._point("max_product", h, w)

    def max_min(self, h, w: float) -> OperatorEvaluation:
        """The max-min operator for ``h`` at ``w`` in [a, b]; see :func:`max_min_eval`."""
        return self._point("max_min", h, w)

    def eval_grid(self, kind: str, h, ws) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation over a 1-D grid; returns (values, skipped_mask).

        Each value is the one :meth:`max_product` or :meth:`max_min` gives,
        from the same band (see :meth:`_assemble`), with x = n log w taken by
        ``np.log``.  Blocks of ``_GRID_BLOCK`` points keep the temporaries a
        few MB however long the grid is.  A point that is not positive, or
        lies outside [a, b] by more than a rounding error, raises ValueError.
        """
        if kind not in ("max_product", "max_min"):
            raise ValueError(f"unknown operator kind {kind!r}")
        ws = np.asarray(ws, dtype=float)
        self._check_points(ws)
        values = np.empty(ws.shape)
        skipped = np.empty(ws.shape, dtype=bool)
        for start in range(0, ws.size, _GRID_BLOCK):
            block = slice(start, start + _GRID_BLOCK)
            values[block], _, den, _ = self._assemble(kind, h, self.cfg.n * np.log(ws[block]))
            skipped[block] = den == 0.0
        return values, skipped


@lru_cache(maxsize=32)
def get_evaluator(cfg: OperatorConfig) -> DurrmeyerEvaluator:
    """The shared evaluator, and so the coefficient cache, of ``cfg``.

    The 32 most recently used configs keep their evaluators; the eight
    published tables use eight.
    """
    return DurrmeyerEvaluator(cfg)


def max_product_eval(h, cfg: OperatorConfig, w: float) -> OperatorEvaluation:
    """Evaluate the max-product operator for ``h`` at ``w`` in [a, b]."""
    return get_evaluator(cfg).max_product(h, w)


def max_min_eval(h, cfg: OperatorConfig, w: float) -> OperatorEvaluation:
    """Evaluate the max-min operator for ``h`` at ``w`` in [a, b].

    The convergence guarantees assume h maps into [0, 1]; handles observed
    outside that range are evaluated anyway and flagged via ``warning``.
    """
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

    Precondition (raised as :class:`PreconditionError`, not reported as a
    violation): phi must have a strictly positive infimum over [1, e].  The
    other, b/a > e^(1/n), holds for every :class:`OperatorConfig`.
    """
    theta = compute_metrics(cfg.phi).theta
    if not theta > 0:
        raise PreconditionError(
            f"phi kernel {cfg.phi.name} has theta = {theta}; the bound requires theta > 0"
        )
    K = compute_metrics(cfg.psi).K
    bound = K * theta - 1e-8

    ev = get_evaluator(cfg)
    ws = np.asarray(w_grid, dtype=float).ravel()
    ev._check_points(ws)
    den = ev._assemble("max_product", "one", cfg.n * np.log(ws))[2]
    return PropertyReport(name="denominator-lower-bound", cases=ws.size, violations=[
        (float(w), float(d), bound) for w, d in zip(ws, den) if d < bound])
