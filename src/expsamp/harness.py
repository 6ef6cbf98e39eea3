"""Test signals, error tables, convergence sweeps and the brute-force oracle.

Two reference signals are bundled: a smooth oscillatory one (``h1``, a
logistic-type composition mapping into (0, 1)) and a piecewise-defined one
(``h2``) with jump discontinuities.  The paper uses both on [0, 3].  h2 is
defined there only; h1's closed form holds for every positive w, and its
handle declares [0, 100], where the rounding error of its phase 2 pi w
stays about 1e-13.  Error tables record
``|D_n(h)(w) - h(w)|`` over a grid of orders n and evaluation points;
convergence sweeps record sup-errors over a log-spaced grid.

The default reconstruction interval is [0.25, 3.0]: it contains every
tabulated evaluation point, keeps the left endpoint positive and reaches the
right edge of h2's domain.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelDescriptor, parse_kernel_spec
from .operators import _EDGE_GRACE, OperatorConfig, get_evaluator, index_set
from .quadrature import QuadratureSpec

__all__ = [
    "FunctionHandle",
    "FunctionDomainError",
    "ErrorTable",
    "SweepReport",
    "TableRow",
    "SchemaMismatchError",
    "VerifyReport",
    "DEFAULT_INTERVAL",
    "make_h1",
    "make_h2",
    "get_test_function",
    "build_error_table",
    "convergence_sweep",
    "brute_force_oracle",
    "write_table_csv",
    "write_sweep_csv",
    "write_json_mirror",
    "read_table_csv",
    "flagged_cells",
    "flagged_steps",
    "compare_tables",
]

DEFAULT_INTERVAL = (0.25, 3.0)


class FunctionDomainError(ValueError):
    """Signal evaluated outside its declared domain."""


@dataclass(frozen=True)
class FunctionHandle:
    """A named real-valued signal on an interval of positive reals.

    ``breakpoints`` lists interior discontinuities or branch knots, where
    a branch knot may be a kink (a point where the signal is continuous but
    not smooth, such as a change of the maximising k in an operator's
    maximum); integrals cut there integrate smooth pieces.  The brute-force
    oracle splits its trapezoid grid there so jump errors do not
    pollute the reference values; the batched coefficient rule cuts its
    panels there, and the per-k coefficient integrals and the Orlicz
    modulars are split there and read the signal strictly inside each
    segment; each must be a positive finite number.  ``declared_range`` is
    the signal's range: the max-min operator reads it, in place of a probe
    grid, to warn about signals leaving [0, 1], and the test suite checks it
    by a probe grid.
    """

    name: str
    domain: tuple[float, float]
    evaluator: object
    declared_range: tuple[float, float] | None = None
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for bp in self.breakpoints:
            if not (math.isfinite(bp) and bp > 0):
                raise ValueError(
                    f"signal {self.name}: breakpoints must be positive and finite, got {bp!r}")

    def __call__(self, w):
        return self.evaluator(w)


def _h1_raw(w):
    w = np.asarray(w, dtype=float)
    z = 0.8 * w * np.cos(2.0 * math.pi * w)
    # log(1 + e^z) as the two branches of np.logaddexp(0, z), overflow-safe
    t = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    out = t / (1.0 + t)
    return float(out) if out.ndim == 0 else out


# h2's knots, and its branch on each piece in g = 1 + 5x/3
_H2_KNOTS = np.array([0.6, 1.2, 1.8, 2.4])
_H2_PIECES = (
    lambda g: g**3 / 8.0,
    lambda g: 3.0 - g,
    lambda g: 0.4,
    lambda g: 0.8,
    lambda g: ((g - 6.0) ** 3 + 1.0) / 3.0,
)


def _h2_raw(w):
    arr = np.asarray(w, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < -_EDGE_GRACE) or np.any(arr > 3.0 + _EDGE_GRACE):
        bad = arr[(arr < -_EDGE_GRACE) | (arr > 3.0 + _EDGE_GRACE)][0]
        raise FunctionDomainError(f"h2 is defined on [0, 3], got {bad!r}")
    x = np.clip(arr, 0.0, 3.0)
    g = 1.0 + (5.0 / 3.0) * x
    # each point reads only its own branch; NaN sorts past the last knot
    branch = np.searchsorted(_H2_KNOTS, x, side="right")
    out = np.empty_like(g)
    for i, piece in enumerate(_H2_PIECES):
        at = branch == i
        out[at] = piece(g[at])
    return float(out[0]) if scalar else out


def make_h1() -> FunctionHandle:
    return FunctionHandle(
        name="h1", domain=(0.0, 100.0), evaluator=_h1_raw, declared_range=(0.0, 1.0),
    )


def make_h2() -> FunctionHandle:
    return FunctionHandle(
        name="h2", domain=(0.0, 3.0), evaluator=_h2_raw,
        declared_range=(0.0, 1.0), breakpoints=(0.6, 1.2, 1.8, 2.4),
    )


_TEST_FUNCTIONS = {"h1": make_h1, "h2": make_h2}


def get_test_function(which) -> FunctionHandle:
    if isinstance(which, FunctionHandle):
        return which
    try:
        return _TEST_FUNCTIONS[which]()
    except KeyError:
        raise ValueError(f"unknown test function {which!r}; expected h1 or h2") from None


def _resolve_kernel(spec) -> KernelDescriptor:
    return spec if isinstance(spec, KernelDescriptor) else parse_kernel_spec(spec)


def _orders(n_values) -> list[int]:
    """The orders ``n_values`` as ints; ``ValueError`` unless they are a
    nonempty list of integral numbers.  Each driver checks its own order rule
    on the result."""
    orders = list(n_values)
    if not orders:
        raise ValueError("the list of orders n is empty")
    for n in orders:
        if not (isinstance(n, numbers.Real) and float(n).is_integer()):
            raise ValueError(f"every order n must be an integer, got {n!r}")
    return [int(n) for n in orders]


# ---------------------------------------------------------------------------
# Error tables
# ---------------------------------------------------------------------------

@dataclass
class ErrorTable:
    operator_kind: str
    kernel_pair: tuple[str, str]
    which: str
    n_values: list[int]
    points: list[float]
    entries: np.ndarray  # shape (len(n_values), len(points)); nan where skipped
    skipped: list[tuple[int, float]] = field(default_factory=list)
    interval: tuple[float, float] = DEFAULT_INTERVAL
    warnings: list[str] = field(default_factory=list)  # distinct operator warnings

    def rows(self) -> list["TableRow"]:
        return [TableRow(n=n, point=p, abs_error=float(e), skipped=(n, p) in self.skipped)
                for n, row in zip(self.n_values, self.entries) for p, e in zip(self.points, row)]


@dataclass(frozen=True)
class TableRow:
    n: int
    point: float
    abs_error: float
    skipped: bool = False


def _grid_errors(operator_kind, phi_spec, psi_spec, which, n_values, ws, interval, quad):
    """The kernel names, ``h``'s name, ``|D_n(h)(w) - h(w)|`` with its skip
    mask (a row per n, from one ``eval_grid`` call each; a column per w in
    ``ws``), and the warnings: ``h``'s ``range_warning`` for max-min unless
    every point was skipped."""
    phi, psi = _resolve_kernel(phi_spec), _resolve_kernel(psi_spec)
    h = get_test_function(which)
    href = np.asarray(h(ws), dtype=float)
    a, b = interval
    errors = np.empty((len(n_values), ws.size))
    skipped = np.empty(errors.shape, dtype=bool)
    for i, n in enumerate(n_values):
        ev = get_evaluator(OperatorConfig(phi=phi, psi=psi, n=n, a=a, b=b, quad=quad))
        vals, skipped[i] = ev.eval_grid(operator_kind, h, ws)
        errors[i] = np.abs(vals - href)
    warning = ev.range_warning(h) if operator_kind == "max_min" and not skipped.all() else None
    return ((phi.name, psi.name), h.name, errors, skipped,
            [] if warning is None else [warning])


def build_error_table(
    operator_kind: str,
    phi_spec,
    psi_spec,
    n_values,
    points,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
    quad: QuadratureSpec = QuadratureSpec(abs_tol=1e-9),
    which="h1",
) -> ErrorTable:
    """Absolute errors ``|D_n(h)(w) - h(w)|`` over n_values x points.

    One ``eval_grid`` call per n, in the loop :func:`convergence_sweep`
    shares; skipped cells hold NaN, and a max-min table keeps ``h``'s
    ``range_warning``.  An empty or non-integral n list, or a repeated n or
    point, is a ``ValueError``.
    """
    if operator_kind not in ("max_product", "max_min"):
        raise ValueError(f"unknown operator kind {operator_kind!r}")
    n_values = _orders(n_values)
    points = [float(p) for p in points]
    if len(set(n_values)) < len(n_values) or len(set(points)) < len(points):
        raise ValueError("n_values and points must be distinct: one cell per (n, point)")
    a, b = interval
    if any(not (a < p < b) for p in points):
        raise ValueError(f"every point must lie strictly inside ({a}, {b})")
    pair, name, entries, skip, warnings = _grid_errors(
        operator_kind, phi_spec, psi_spec, which, n_values, np.array(points), interval, quad)
    return ErrorTable(
        operator_kind=operator_kind, kernel_pair=pair, which=name, n_values=n_values,
        points=points, entries=entries, interval=interval, warnings=warnings,
        skipped=[(n, p) for n, row in zip(n_values, skip) for p, s in zip(points, row) if s],
    )


@dataclass
class SweepReport:
    operator_kind: str
    kernel_pair: tuple[str, str]
    which: str
    n_values: list[int]
    grid: np.ndarray
    sup_errors: list[float]
    per_point: np.ndarray  # shape (len(n_values), len(grid))
    skipped_counts: list[int]
    interval: tuple[float, float]
    warnings: list[str] = field(default_factory=list)  # distinct operator warnings


def convergence_sweep(
    operator_kind: str,
    phi_spec,
    psi_spec,
    which,
    n_values,
    grid_density: int = 400,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
    quad: QuadratureSpec = QuadratureSpec(abs_tol=1e-9),
) -> SweepReport:
    """Sup-error of D_n over a log-spaced interior grid, for each n.

    The grid covers [max(a, 0.3), min(b, 2.9)] to keep clear of edge-skip
    noise; an interval that leaves that window empty, a ``grid_density``
    that is not a positive integer, or an n list that is empty, not
    integral or not strictly increasing is a ``ValueError``.  Skipped points
    are excluded from the supremum and counted.  A max-min sweep keeps
    ``h``'s ``range_warning``, as a table does.
    """
    n_values = _orders(n_values)
    if any(n2 <= n1 for n1, n2 in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    if not (isinstance(grid_density, numbers.Integral) and grid_density >= 1):
        raise ValueError(f"grid_density must be a positive integer, got {grid_density!r}")
    a, b = interval
    lo, hi = max(a, 0.3), min(b, 2.9)
    if not lo < hi:
        raise ValueError(f"the sweep window [max(a, 0.3), min(b, 2.9)] = [{lo:g}, {hi:g}] "
                         f"of the interval [{a:g}, {b:g}] is empty")
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), grid_density))
    pair, name, per_point, skipped, warnings = _grid_errors(
        operator_kind, phi_spec, psi_spec, which, n_values, grid, interval, quad)
    return SweepReport(
        operator_kind=operator_kind, kernel_pair=pair, which=name, n_values=n_values,
        grid=grid, per_point=per_point, interval=interval, warnings=warnings,
        sup_errors=[float(np.nanmax(err[~skip])) if not skip.all() else math.nan
                    for err, skip in zip(per_point, skipped)],
        skipped_counts=[int(skip.sum()) for skip in skipped],
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_oracle(h, cfg: OperatorConfig, w: float, operator: str = "max_product",
                       nodes: int = 1_000_000) -> float:
    """Independent re-implementation with naive loops and dense trapezoids.

    Every coefficient is integrated with a ~``nodes``-point trapezoid over
    the full interval in log coordinates (no support clipping, no caching,
    no adaptivity), splitting the grid at the handle's declared breakpoints
    so the trapezoid rule is not charged for the jumps themselves.
    Deliberately slow; guarded to n <= 8.
    """
    if cfg.n > 8:
        raise ValueError("brute-force oracle is restricted to n <= 8")
    if operator not in ("max_product", "max_min"):
        raise ValueError(f"unknown operator kind {operator!r}")
    lo, hi = math.log(cfg.a), math.log(cfg.b)
    cuts = [lo, hi]
    for bp in getattr(h, "breakpoints", ()) or ():
        if cfg.a < bp < cfg.b:
            cuts.append(math.log(bp))
    cuts = sorted(set(cuts))
    segments = []
    for s0, s1 in zip(cuts, cuts[1:]):
        seg_nodes = max(64, int(round(nodes * (s1 - s0) / (hi - lo))))
        x = np.linspace(s0, s1, seg_nodes)
        # segment endpoints sit exactly on jump cuts of h; nudge them inward
        # so each one-sided trapezoid sees its own branch value
        eps = 1e-9 * (s1 - s0) / seg_nodes
        x[0] += eps
        x[-1] -= eps
        segments.append(x)

    ks = index_set(cfg.n, cfg.a, cfg.b)
    c_h, c_one = [], []
    for k in ks:
        acc_h = 0.0
        acc_one = 0.0
        for x in segments:
            psi_vals = np.asarray(cfg.psi.eval_log(cfg.n * x - k))
            acc_one += float(np.trapezoid(psi_vals, x))
            acc_h += float(np.trapezoid(psi_vals * np.asarray(h(np.exp(x)), dtype=float), x))
        c_h.append(cfg.n * acc_h)
        c_one.append(cfg.n * acc_one)

    phiw = [float(cfg.phi.eval_log(cfg.n * math.log(w) - k)) for k in ks]
    den = max(p * c for p, c in zip(phiw, c_one))
    if operator == "max_product":
        num = max(p * c for p, c in zip(phiw, c_h))
        return num / den
    return max(min(ch, p / den) for ch, p in zip(c_h, phiw))


# ---------------------------------------------------------------------------
# CSV / JSON emission and golden-table comparison
# ---------------------------------------------------------------------------

class SchemaMismatchError(ValueError):
    """Table files do not share the expected schema or cell layout."""


def write_table_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "point", "abs_error", "skipped"])
        for r in rows:
            writer.writerow([r.n, f"{r.point:g}", f"{r.abs_error:.6g}", int(r.skipped)])


def write_sweep_csv(report: SweepReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "sup_error"])
        for n, e in zip(report.n_values, report.sup_errors):
            writer.writerow([n, f"{e:.6g}"])


def write_json_mirror(path, config_echo: dict, rows: list[dict], **extra) -> None:
    """Write ``{"config": config_echo, "rows": rows, **extra}`` as JSON."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"config": config_echo, "rows": rows, **extra}, f, indent=2, sort_keys=True)
        f.write("\n")


def read_table_csv(path) -> list[TableRow]:
    """The rows of a table CSV.  A wrong header, a malformed row or an
    unskipped row whose ``abs_error`` is not finite (a NaN passes every
    comparison) is a :class:`SchemaMismatchError`."""
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["n", "point", "abs_error", "skipped"]:
            raise SchemaMismatchError(f"unexpected header {header!r} in {path}")
        for line in reader:
            if not line:
                continue
            if len(line) != 4:
                raise SchemaMismatchError(f"malformed row {line!r} in {path}")
            try:
                row = TableRow(
                    n=int(line[0]), point=float(line[1]),
                    abs_error=float(line[2]), skipped=bool(int(line[3])),
                )
            except ValueError as exc:
                raise SchemaMismatchError(f"malformed row {line!r} in {path}: {exc}") from None
            if not (row.skipped or math.isfinite(row.abs_error)):
                raise SchemaMismatchError(f"unskipped row {line!r} in {path} has a "
                                          f"non-finite abs_error")
            rows.append(row)
    if not rows:
        raise SchemaMismatchError(f"no data rows in {path}")
    return rows


def _cells(rows) -> dict[tuple[int, float], TableRow]:
    out = {}
    for r in rows:
        key = (r.n, r.point)
        if key in out:
            raise SchemaMismatchError(f"duplicate cell {key}")
        out[key] = r
    return out


def flagged_steps(reference_rows) -> set[tuple[float, int, int]]:
    """Steps (point, n_from, n_to) where the reference itself increases."""
    cells = _cells(reference_rows)
    ns = sorted({n for n, _ in cells})
    points = sorted({p for _, p in cells})
    flags = set()
    for p in points:
        for n0, n1 in zip(ns, ns[1:]):
            if cells[(n1, p)].abs_error > cells[(n0, p)].abs_error:
                flags.add((p, n0, n1))
    return flags


def flagged_cells(reference_rows) -> set[tuple[int, float]]:
    """Cells (n, point) sitting at the top of a reference increase."""
    return {(n1, p) for p, _n0, n1 in flagged_steps(reference_rows)}


@dataclass
class VerifyReport:
    passed: bool
    value_violations: list
    trend_violations: list
    flagged: set
    deviations: list  # (n, point, produced, reference, rel_deviation)


def compare_tables(produced_rows, reference_rows, rel_tol: float) -> VerifyReport:
    """Golden-file comparison with trend assertions.

    Passes iff every cell outside the reference's own non-monotone positions
    agrees within ``rel_tol`` relative deviation, and the produced errors are
    non-increasing in n at every point outside those same positions.
    ``rel_tol`` must be a number >= 0 (NaN is not): ``ValueError`` otherwise.
    """
    if not rel_tol >= 0:
        raise ValueError(f"rel_tol must be a number >= 0, got {rel_tol!r}")
    prod = _cells(produced_rows)
    ref = _cells(reference_rows)
    if set(prod) != set(ref):
        raise SchemaMismatchError(
            f"cell layout mismatch: produced {len(prod)} cells, reference {len(ref)}"
        )
    flags_steps = flagged_steps(reference_rows)
    flags = flagged_cells(reference_rows)

    deviations, value_violations = [], []
    for key in sorted(ref):
        r, p = ref[key], prod[key]
        if p.skipped:
            value_violations.append((key, "skipped in produced table"))
            continue
        denom = abs(r.abs_error) if r.abs_error != 0 else 1.0
        rel = abs(p.abs_error - r.abs_error) / denom
        deviations.append((key[0], key[1], p.abs_error, r.abs_error, rel))
        if key not in flags and rel > rel_tol:
            value_violations.append((key, rel))

    ns = sorted({n for n, _ in prod})
    points = sorted({p for _, p in prod})
    trend_violations = []
    for p in points:
        for n0, n1 in zip(ns, ns[1:]):
            if (p, n0, n1) in flags_steps:
                continue
            e0, e1 = prod[(n0, p)].abs_error, prod[(n1, p)].abs_error
            if e1 > e0 + 1e-12:
                trend_violations.append((p, n0, n1, e0, e1))

    return VerifyReport(
        passed=not value_violations and not trend_violations,
        value_violations=value_violations,
        trend_violations=trend_violations,
        flagged=flags,
        deviations=deviations,
    )
