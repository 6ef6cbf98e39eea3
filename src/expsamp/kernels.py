"""Mellin-type kernels and their characteristic constants.

Three kernel families are shipped, all evaluated most naturally in the log
variable ``x = log w``:

* ``bspline(order)`` -- the Mellin B-spline, i.e. the classical centered
  B-spline of the given order read off at ``log w``.  Orders 2 to 4 use the
  explicit piecewise polynomials; higher orders fall back to the alternating
  binomial sum.  Support is exactly ``[e^{-order/2}, e^{order/2}]``.
* ``fejer(beta, t)`` -- ``(beta / (2 pi)) w^{-t} sinc(beta log w / (2 pi))^2``
  with ``sinc(x) = sin(pi x)/(pi x)``.  For ``beta = pi, t = 0`` this is
  ``(1/2) sinc(log w / 2)^2``.
* ``jackson(gamma, beta)`` -- ``d * sinc^{2 beta}(log w / (2 gamma beta pi))``
  where the normalization constant ``d`` makes the kernel integrate to one
  against dw/w; ``d`` is computed once at construction and cached on the
  descriptor.

The characteristic constants gathered in :class:`KernelMetrics` are the mass
over ``[1, e]`` (K), the infimum over ``[1, e]`` (theta), discrete absolute
moments of orders 0..2 and continuous absolute moments of orders 0..2, plus
the L1 norm against dw/w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .quadrature import QuadratureSpec, QuadratureConvergenceError, integrate_log, _leggauss

__all__ = [
    "KernelDescriptor",
    "KernelMetrics",
    "KernelDomainError",
    "KernelSpecError",
    "bspline_kernel",
    "fejer_kernel",
    "jackson_kernel",
    "parse_kernel_spec",
    "compute_jackson_norm_constant",
    "compute_metrics",
    "kernel_line_mass",
]

# Truncation radius (in log w) used when reporting the intrinsically
# truncation-dependent continuous moments of the unbounded kernels.
_UNBOUNDED_MOMENT_CUTOFF = 512.0
# Window (in integer shifts) scanned when taking discrete-moment suprema for
# unbounded kernels; wide enough to contain several sinc side-lobe maxima.
_UNBOUNDED_SHIFT_WINDOW = 50


class KernelDomainError(ValueError):
    """Kernel evaluated outside the positive reals (or at a non-finite point)."""


class KernelSpecError(ValueError):
    """Malformed kernel specification string."""


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _bspline_closed(order: int, x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    if order == 2:
        val = 1.0 - ax
    elif order == 3:
        val = np.where(ax <= 0.5, 0.75 - x * x, 0.5 * (1.5 - ax) ** 2)
    elif order == 4:
        val = np.where(ax <= 1.0, 0.5 * ax**3 - x * x + 2.0 / 3.0, (2.0 - ax) ** 3 / 6.0)
    else:  # pragma: no cover - callers dispatch on order
        raise ValueError(order)
    return np.where(ax >= order / 2.0, 0.0, np.maximum(val, 0.0))


def _bspline_generic(order: int, x: np.ndarray) -> np.ndarray:
    half = order / 2.0
    acc = np.zeros_like(x)
    for k in range(order + 1):
        t = np.maximum(half + x - k, 0.0)
        acc += ((-1) ** k * comb(order, k)) * t ** (order - 1)
    val = acc / factorial(order - 1)
    # the alternating sum leaves cancellation dust; the kernel is known
    # nonnegative and exactly zero outside |x| >= order/2
    return np.where(np.abs(x) >= half, 0.0, np.maximum(val, 0.0))


@dataclass(frozen=True)
class KernelDescriptor:
    """A named, evaluable Mellin kernel.

    Immutable after construction; evaluation is pure and safe to call from
    any number of threads.  Construction of a Jackson descriptor runs the
    normalization quadrature once, single-threaded.
    """

    name: str
    family: str  # "bspline" | "fejer" | "jackson"
    params: tuple[float, ...]
    support: tuple[float, float] | None
    norm_constant: float = 1.0

    @property
    def log_support(self) -> tuple[float, float] | None:
        if self.support is None:
            return None
        if self.family == "bspline":
            half = self.params[0] / 2.0
            return (-half, half)
        return (math.log(self.support[0]), math.log(self.support[1]))

    def eval_log(self, x) -> np.ndarray | float:
        """Evaluate the kernel at ``w = e^x``; accepts scalars or arrays."""
        arr, scalar = _as_float_array(x)
        if self.family == "bspline":
            order = int(self.params[0])
            vals = _bspline_closed(order, arr) if order <= 4 else _bspline_generic(order, arr)
        elif self.family == "fejer":
            beta, t = self.params
            s = np.sinc(beta * arr / (2.0 * math.pi))
            vals = beta / (2.0 * math.pi)
            if t != 0:  # at t = 0 the factor is exactly 1, so it is skipped
                vals = vals * np.exp(-t * arr)
            vals = vals * s * s
        elif self.family == "jackson":
            gamma, beta = self.params
            s = np.sinc(arr / (2.0 * gamma * beta * math.pi))
            vals = self.norm_constant * s ** (2 * int(beta))
        else:  # pragma: no cover
            raise ValueError(f"unknown kernel family {self.family!r}")
        return float(vals) if scalar else vals

    def __call__(self, w) -> np.ndarray | float:
        arr, scalar = _as_float_array(w)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise KernelDomainError(f"kernel argument must be finite and positive, got {w!r}")
        out = self.eval_log(np.log(arr))
        return float(out) if scalar else out


def bspline_kernel(order: int) -> KernelDescriptor:
    if order < 2:
        raise KernelSpecError(f"bspline order must be >= 2, got {order}")
    half = order / 2.0
    return KernelDescriptor(
        name=f"bspline:{order}",
        family="bspline",
        params=(float(order),),
        support=(math.exp(-half), math.exp(half)),
    )


def fejer_kernel(beta: float, t: float = 0.0) -> KernelDescriptor:
    if not beta >= 1.0:
        raise KernelSpecError(f"fejer beta must be >= 1, got {beta}")
    beta_txt = "pi" if beta == math.pi else f"{beta:g}"
    return KernelDescriptor(
        name=f"fejer:{beta_txt}:{t:g}",
        family="fejer",
        params=(float(beta), float(t)),
        support=None,
    )


def jackson_kernel(gamma: float, beta: int, tol: float = 1e-9) -> KernelDescriptor:
    if not gamma >= 1.0:
        raise KernelSpecError(f"jackson gamma must be >= 1, got {gamma}")
    if beta < 1:
        raise KernelSpecError(f"jackson beta must be a natural number >= 1, got {beta}")
    d = compute_jackson_norm_constant(gamma, beta, tol)
    return KernelDescriptor(
        name=f"jackson:{gamma:g}:{beta}",
        family="jackson",
        params=(float(gamma), float(beta)),
        support=None,
        norm_constant=d,
    )


def parse_kernel_spec(text: str) -> KernelDescriptor:
    """Parse ``bspline:2``, ``fejer:pi:0`` or ``jackson:1.05:1`` (case-insensitive)."""
    parts = [p.strip() for p in str(text).strip().lower().split(":")]
    family = parts[0]

    def number(tok: str, position: int) -> float:
        if tok == "pi":
            return math.pi
        try:
            return float(tok)
        except ValueError:
            raise KernelSpecError(
                f"invalid number {tok!r} at position {position} of kernel spec {text!r}"
            ) from None

    if family == "bspline":
        if len(parts) != 2:
            raise KernelSpecError(f"bspline spec needs one parameter: {text!r}")
        order = number(parts[1], 1)
        if order != int(order):
            raise KernelSpecError(f"bspline order must be an integer: {text!r}")
        return bspline_kernel(int(order))
    if family == "fejer":
        if len(parts) != 3:
            raise KernelSpecError(f"fejer spec needs two parameters: {text!r}")
        return fejer_kernel(number(parts[1], 1), number(parts[2], 2))
    if family == "jackson":
        if len(parts) != 3:
            raise KernelSpecError(f"jackson spec needs two parameters: {text!r}")
        beta = number(parts[2], 2)
        if beta != int(beta):
            raise KernelSpecError(f"jackson beta must be an integer: {text!r}")
        return jackson_kernel(number(parts[1], 1), int(beta))
    raise KernelSpecError(f"unknown kernel family {family!r} at position 0 of {text!r}")


# ---------------------------------------------------------------------------
# Full-line integrals of sinc powers
# ---------------------------------------------------------------------------

def _sinc_power_mass(m: int, rel_tol: float) -> float:
    """``int_R sinc^{2m}(x) dx`` by symmetric truncation plus averaged tail.

    The body is a composite fixed-order rule over unit panels of [-X, X].
    Beyond X the integrand equals ``sin^{2m}(pi x)/(pi x)^{2m}``; replacing
    ``sin^{2m}`` by its mean ``a0 = C(2m, m)/4^m`` gives an analytic tail
    term, and with X an integer the oscillatory remainder is bounded by
    ``2 m / (pi^{2m+2}) * X^{-(2m+1)}``, which fixes the truncation radius.
    """
    a0 = comb(2 * m, m) / 4.0**m
    budget = rel_tol / 2.0
    X = 64
    while True:
        residual = 2.0 * m / (math.pi ** (2 * m + 2)) * X ** (-(2 * m + 1))
        if residual <= budget:
            break
        if X >= 2**20:
            raise QuadratureConvergenceError(
                f"sinc^{2*m} line integral cannot reach rel_tol={rel_tol:g} "
                f"within the truncation budget",
                estimate=math.nan,
                error_bound=residual,
            )
        X *= 2
    gx, gw = _leggauss(16)
    edges = np.arange(0, X, dtype=float)
    pts = edges[:, None] + 0.5 + 0.5 * gx[None, :]
    body = float(np.sum(gw[None, :] * np.sinc(pts) ** (2 * m))) * 0.5
    tail = a0 / math.pi ** (2 * m) * X ** (1 - 2 * m) / (2 * m - 1)
    return 2.0 * (body + tail)


def compute_jackson_norm_constant(gamma: float, beta: int, tol: float = 1e-9) -> float:
    """Normalization constant d with ``d * int_0^infty sinc^{2 beta}(log v / (2 gamma beta pi)) dv/v = 1``.

    The integral is computed after the log substitution as
    ``c * int_R sinc^{2 beta}(x) dx`` with ``c = 2 gamma beta pi``; the
    truncation radius is grown until the tail residual drops below ``tol``.
    Raises :class:`QuadratureConvergenceError` when the budget is exhausted.
    """
    if not (gamma >= 1.0 and beta >= 1):
        raise ValueError("need gamma >= 1 and beta >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    c = 2.0 * gamma * beta * math.pi
    mass = c * _sinc_power_mass(int(beta), tol)
    return 1.0 / mass


def kernel_line_mass(kernel: KernelDescriptor, tol: float = 1e-9) -> float:
    """``int_0^infty kernel(w) dw/w`` over the full half-line."""
    if kernel.family == "bspline":
        lo, hi = kernel.log_support
        spec = QuadratureSpec(abs_tol=min(tol, 1e-10))
        return integrate_log(lambda x: kernel.eval_log(x), lo, hi, spec).value
    if kernel.family == "fejer":
        beta, t = kernel.params
        if t != 0.0:
            raise ValueError("fejer line mass is only defined for t = 0")
        # (beta/(2 pi)) * int sinc^2(beta x/(2 pi)) dx = S_1 = int sinc^2
        return _sinc_power_mass(1, tol)
    if kernel.family == "jackson":
        gamma, beta = kernel.params
        c = 2.0 * gamma * beta * math.pi
        return kernel.norm_constant * c * _sinc_power_mass(int(beta), tol)
    raise ValueError(f"unknown kernel family {kernel.family!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Kernel metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelMetrics:
    """Characteristic constants of a kernel.

    ``K`` is the dw/w mass over [1, e]; ``theta`` the infimum over [1, e];
    ``discrete_moment[r]`` the supremum over w of the max over integer shifts
    k of ``kernel(e^{-k} w) |k - log w|^r``; ``continuous_moment[r]`` the
    integral of ``kernel(w) |log w|^r dw/w`` over the support (truncated at
    |log w| <= 512 for the unbounded families, where orders r >= 1 diverge);
    ``l1_norm`` the full-line dw/w mass.
    """

    K: float
    theta: float
    discrete_moment: dict[int, float]
    continuous_moment: dict[int, float]
    l1_norm: float


def _golden_min(f, lo: float, hi: float, iters: int = 80) -> float:
    """Plain golden-section minimum of a scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(fc, fd, f(0.5 * (a + b)))


def compute_metrics(kernel: KernelDescriptor, grid_density: int = 10_000) -> KernelMetrics:
    """Compute :class:`KernelMetrics` for ``kernel``.

    theta is located by a dense grid on ``log w in [0, 1]`` refined with a
    golden-section pass around the best grid point.  Discrete moments use the
    reduction of the supremum over all w > 0 to ``log w in [0, 1]``, which is
    exact because the shift set ``{k - log w : k in Z}`` is 1-periodic in
    ``log w``.  The line mass comes first, so a kernel it refuses (a Fejer
    kernel with ``t != 0``) raises its ValueError before any integral runs.
    """
    if grid_density < 100:
        raise ValueError("grid_density must be at least 100")

    l1 = kernel_line_mass(kernel)
    spec = QuadratureSpec(abs_tol=1e-11)
    K = integrate_log(lambda x: kernel.eval_log(x), 0.0, 1.0, spec).value

    u = np.linspace(0.0, 1.0, grid_density)
    vals = np.asarray(kernel.eval_log(u))
    i = int(np.argmin(vals))
    lo = u[max(i - 1, 0)]
    hi = u[min(i + 1, len(u) - 1)]
    theta = min(float(vals[i]), _golden_min(lambda t: float(kernel.eval_log(t)), lo, hi))
    theta = max(theta, 0.0)

    if kernel.log_support is not None:
        slo, shi = kernel.log_support
        k_lo = math.floor(slo) - 1
        k_hi = math.ceil(shi) + 1
    else:
        k_lo, k_hi = -_UNBOUNDED_SHIFT_WINDOW, _UNBOUNDED_SHIFT_WINDOW
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    X = u[:, None] - ks[None, :]          # = log w - k
    V = np.asarray(kernel.eval_log(X))
    discrete = {r: float(np.max(V * np.abs(X) ** r)) for r in (0, 1, 2)}

    if kernel.log_support is not None:
        mlo, mhi = kernel.log_support
    else:
        mlo, mhi = -_UNBOUNDED_MOMENT_CUTOFF, _UNBOUNDED_MOMENT_CUTOFF
    continuous = {}
    for r in (0, 1, 2):
        continuous[r] = integrate_log(
            lambda x, r=r: kernel.eval_log(x) * np.abs(x) ** r, mlo, mhi,
            QuadratureSpec(abs_tol=1e-9),
        ).value

    return KernelMetrics(K=K, theta=theta, discrete_moment=discrete,
                         continuous_moment=continuous, l1_norm=l1)


def _real_roots(coef: np.ndarray, t0: np.ndarray, t1: np.ndarray):
    """The real roots strictly inside (t0[i], t1[i]) of the polynomials
    sum_p coef[i, p] t**p, as (row i, root) arrays.

    Coefficients below 1e-13 of a row's largest are dropped from its top, so
    a near-cancelled leading term lowers the degree instead of sending the
    other roots astray.  Degrees 1 and 2 are solved in closed form (the
    quadratic without cancellation), higher degrees by the eigenvalues of
    stacked companion matrices; a complex pair within 1e-7 of the axis, as
    at a tangency, counts as real.
    """
    scale = np.abs(coef).max(axis=1)
    big = np.abs(coef) > 1e-13 * scale[:, None]
    deg = coef.shape[1] - 1 - np.argmax(big[:, ::-1], axis=1)
    rows, roots = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in range(1, coef.shape[1]):
            at = np.flatnonzero((deg == d) & (scale > 0))
            c = coef[at, :d + 1]
            if d == 1:
                z = (-c[:, 0] / c[:, 1])[:, None]
            elif d == 2:
                disc = c[:, 1] ** 2 - 4.0 * c[:, 2] * c[:, 0]
                q = -0.5 * (c[:, 1] + np.copysign(np.sqrt(disc), c[:, 1]))
                z = np.stack([q / c[:, 2], c[:, 0] / q], axis=1)
            else:
                comp = np.zeros((at.size, d, d))
                comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
                comp[:, :, -1] = -c[:, :d] / c[:, d:]
                eig = np.linalg.eigvals(comp)
                z = np.where(np.abs(eig.imag) <= 1e-7 * (1.0 + np.abs(eig.real)),
                             eig.real, np.nan)
            keep = (z > t0[at, None]) & (z < t1[at, None])
            rows.append(np.broadcast_to(at[:, None], z.shape)[keep])
            roots.append(z[keep])
    return np.concatenate(rows), np.concatenate(roots)
