import json
import math

import numpy as np
import pytest

from expsamp import (
    FunctionDomainError,
    OperatorConfig,
    QuadratureSpec,
    SchemaMismatchError,
    TableRow,
    brute_force_oracle,
    build_error_table,
    compare_tables,
    convergence_sweep,
    flagged_cells,
    flagged_steps,
    get_test_function,
    max_min_eval,
    max_product_eval,
    parse_kernel_spec,
    read_table_csv,
    refdata,
    write_table_csv,
)
from expsamp.harness import FunctionHandle, write_json_mirror
from helpers import piecewise_constant_handle


def _const_handle(c, a=0.25, b=3.0):
    def f(w):
        return np.full_like(np.asarray(w, dtype=float), c)
    return FunctionHandle(name=f"const{c}", domain=(a, b), evaluator=f)


# ---------------------------------------------------------------------------
# test signals
# ---------------------------------------------------------------------------

def test_h2_branch_values():
    assert get_test_function("h2")(1.5) == 0.4
    assert get_test_function("h2")(2.0) == 0.8
    assert get_test_function("h2")(0.6) == pytest.approx(1.0, abs=1e-15)
    assert get_test_function("h2")(3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert get_test_function("h2")(0.0) == pytest.approx(1.0 / 8.0, abs=1e-15)


def test_h2_left_closed_branches():
    # boundaries belong to the right-hand branch, as printed
    assert get_test_function("h2")(1.2) == 0.4
    assert get_test_function("h2")(1.8) == 0.8
    assert get_test_function("h2")(2.4) == pytest.approx(0.0, abs=1e-15)


def test_h2_continuity_at_first_knot():
    left = (1.0 + (5.0 / 3.0) * 0.6) ** 3 / 8.0
    right = 3.0 - (1.0 + (5.0 / 3.0) * 0.6)
    assert abs(left - right) <= 1e-12
    assert get_test_function("h2")(0.6) == pytest.approx(left, abs=1e-12)


def test_h2_jumps_exist():
    for knot in (1.2, 1.8, 2.4):
        below = get_test_function("h2")(knot - 1e-9)
        at = get_test_function("h2")(knot)
        assert abs(below - at) > 0.1


def test_h2_domain_error():
    for w in (-0.5, 3.5):
        with pytest.raises(FunctionDomainError):
            get_test_function("h2")(w)
    # one-ulp grace at the edges
    assert get_test_function("h2")(3.0 + 1e-12) == pytest.approx(1.0 / 3.0, abs=1e-9)


def _h2_select(w):
    """h2 by the np.select formula it was first written with: every branch
    at every point."""
    arr = np.atleast_1d(np.asarray(w, dtype=float))
    x = np.clip(arr, 0.0, 3.0)
    g = 1.0 + (5.0 / 3.0) * x
    return np.select(
        [x < 0.6, x < 1.2, x < 1.8, x < 2.4],
        [g**3 / 8.0, 3.0 - g, 0.4, 0.8],
        default=((g - 6.0) ** 3 + 1.0) / 3.0,
    )


def test_h2_by_branch_equals_select_formula():
    h2 = get_test_function("h2")
    knots = np.array([0.6, 1.2, 1.8, 2.4])
    near = np.concatenate([np.nextafter(knots, -np.inf), knots, np.nextafter(knots, np.inf)])
    ends = np.array([0.0, 3.0, 5e-324, np.nextafter(3.0, 0.0)])
    grace = np.array([-1e-9, -5e-10, -0.0, 3.0 + 5e-10, 3.0 + 1e-9])
    grid = np.concatenate([np.linspace(0.0, 3.0, 30_001), near, ends, grace,
                           np.random.default_rng(0).uniform(0.0, 3.0, 5_000)])
    got, want = h2(grid), _h2_select(grid)
    assert got.tobytes() == want.tobytes()
    assert h2(grid.reshape(2, -1)).tobytes() == want.tobytes()
    for w in (0.0, 0.3, 0.6, 1.2, 1.5, 2.4, 2.9, 3.0, 3.0 + 1e-9, -1e-9):
        value = h2(w)
        assert isinstance(value, float)
        assert np.float64(value).tobytes() == _h2_select(w)[0].tobytes()
    for bad in (-2e-9, 3.0 + 2e-9, np.array([1.0, 3.5])):
        with pytest.raises(FunctionDomainError):
            h2(bad)


def test_h1_value():
    z = 0.8 * math.cos(2 * math.pi)
    t = math.log1p(math.exp(z))
    assert get_test_function("h1")(1.0) == pytest.approx(t / (1 + t), abs=1e-12)
    assert get_test_function("h1")(1.0) == pytest.approx(0.53942, abs=2e-5)


def test_h1_softplus_matches_logaddexp():
    # log(1 + e^z) from the two branches of np.logaddexp(0, z)
    h1 = get_test_function("h1")
    w = np.linspace(0.0, 100.0, 400_001)
    z = 0.8 * w * np.cos(2.0 * math.pi * w)
    t = np.logaddexp(0.0, z)
    ref = t / (1.0 + t)
    assert np.all(np.abs(h1(w) - ref) <= 2 * np.spacing(ref))
    # finite where log1p(exp(z)) alone overflows to a NaN value
    far = np.linspace(1e3, 1e4, 90_001)
    z = 0.8 * far * np.cos(2.0 * math.pi * far)
    with np.errstate(over="ignore", invalid="ignore"):
        naive = np.log1p(np.exp(z))
        assert np.isnan(naive / (1.0 + naive)).any()
    assert np.all(np.isfinite(h1(far)))
    assert h1(1e4) == pytest.approx(8000.0 / 8001.0, rel=1e-12)


@pytest.mark.parametrize("which", ["h1", "h2"])
def test_declared_range_probe(which):
    h = get_test_function(which)
    lo, hi = h.declared_range
    grid = np.linspace(h.domain[0], h.domain[1], 1000)
    vals = np.asarray(h(grid), dtype=float)
    assert np.all(vals >= lo - 1e-9)
    assert np.all(vals <= hi + 1e-9)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("bad", [0.0, -1.5, math.nan, math.inf])
def test_bad_breakpoints_rejected(bad):
    # a non-positive breakpoint has no logarithm and a NaN one would be
    # dropped silently by every range check, so both fail at construction
    with pytest.raises(ValueError, match="signal stairs: breakpoints"):
        FunctionHandle(name="stairs", domain=(0.5, 3.0), evaluator=np.sign,
                       breakpoints=(1.0, bad))


def test_unknown_test_function():
    with pytest.raises(ValueError):
        get_test_function("h3")


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_constant(b2):
    cfg = OperatorConfig(phi=b2, psi=b2, n=3, a=1.0, b=math.e**2)
    got = brute_force_oracle(_const_handle(0.55, 1.0, math.e**2), cfg, 2.0, "max_product")
    assert got == pytest.approx(0.55, abs=1e-9)


def test_oracle_guards(b2):
    cfg = OperatorConfig(phi=b2, psi=b2, n=9, a=1.0, b=math.e**2)
    with pytest.raises(ValueError):
        brute_force_oracle(_const_handle(0.5, 1.0, math.e**2), cfg, 2.0)
    cfg4 = OperatorConfig(phi=b2, psi=b2, n=4, a=1.0, b=math.e**2)
    with pytest.raises(ValueError):
        brute_force_oracle(_const_handle(0.5, 1.0, math.e**2), cfg4, 2.0, "median")


# ---------------------------------------------------------------------------
# error tables and sweeps
# ---------------------------------------------------------------------------

def test_table_constant_entries_zero(b2):
    tab = build_error_table("max_product", b2, b2, [3, 4], [1.5, 2.0],
                            interval=(1.0, math.e**2),
                            which=_const_handle(0.3, 1.0, math.e**2))
    assert tab.entries.shape == (2, 2)
    assert np.max(np.abs(tab.entries)) <= 1e-12
    assert tab.skipped == []


def test_table_validation(b2):
    with pytest.raises(ValueError):
        build_error_table("max_product", b2, b2, [], [1.5], which="h1")
    with pytest.raises(ValueError):
        build_error_table("max_product", b2, b2, [3], [9.0], which="h1")
    with pytest.raises(ValueError):
        build_error_table("median", b2, b2, [3], [1.5], which="h1")


def test_table_rows_and_csv_roundtrip(tmp_path, b2):
    tab = build_error_table("max_product", b2, b2, [3, 4], [1.5, 2.0],
                            interval=(1.0, math.e**2), which="h1")
    rows = tab.rows()
    assert len(rows) == 4
    path = tmp_path / "t.csv"
    write_table_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == "n,point,abs_error,skipped"
    back = read_table_csv(path)
    assert [(r.n, r.point) for r in back] == [(r.n, r.point) for r in rows]


def test_table_cells_equal_one_point_errors():
    # one eval_grid call per n gives, cell for cell, the one-point error
    phi, psi = parse_kernel_spec("bspline:2"), parse_kernel_spec("jackson:1.05:1")
    interval, quad = (0.1, 3.0), QuadratureSpec(abs_tol=1e-9)
    n_values, points = [17, 26, 35, 53], [0.8, 1.5, 2.0, 2.5]
    h1 = get_test_function("h1")
    # no declared range, values in [0, 1.5]: the max-min range warning fires
    loud = FunctionHandle(name="1.5 h1", domain=h1.domain,
                          evaluator=lambda w: 1.5 * np.asarray(h1(w), dtype=float))
    for h in (h1, get_test_function("h2"), loud):
        for kind, evaluate in (("max_product", max_product_eval), ("max_min", max_min_eval)):
            tab = build_error_table(kind, phi, psi, n_values, points, interval=interval,
                                    quad=quad, which=h)
            warnings = set()
            for i, n in enumerate(n_values):
                cfg = OperatorConfig(phi=phi, psi=psi, n=n, a=interval[0], b=interval[1],
                                     quad=quad)
                for j, w in enumerate(points):
                    res = evaluate(h, cfg, w)
                    assert not res.skipped
                    assert tab.entries[i, j] == abs(res.value - float(h(w))), (kind, n, w)
                    warnings.add(res.warning)
            assert tab.skipped == []
            assert tab.warnings == sorted(warnings - {None})
            assert bool(tab.warnings) == (kind == "max_min" and h is loud)


def test_read_table_schema_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,header\n1,2\n")
    with pytest.raises(SchemaMismatchError):
        read_table_csv(bad)
    corrupt = tmp_path / "corrupt.csv"
    corrupt.write_text("n,point,abs_error,skipped\n17,0.8,zero,0\n")
    with pytest.raises(SchemaMismatchError):
        read_table_csv(corrupt)


def test_json_mirror(tmp_path):
    path = tmp_path / "m.json"
    write_json_mirror(path, {"operator": "max_product"}, [{"n": 17, "abs_error": 0.1}])
    data = json.loads(path.read_text())
    assert data["config"]["operator"] == "max_product"
    assert data["rows"][0]["n"] == 17


def test_sweep_constants_zero(b2):
    rep = convergence_sweep("max_product", b2, b2,
                            _const_handle(0.4, 1.0, math.e**2), [2, 3],
                            grid_density=50, interval=(1.0, math.e**2))
    assert max(rep.sup_errors) <= 1e-12
    assert rep.skipped_counts == [0, 0]
    assert len(rep.grid) == 50


def test_sweep_validation(b2):
    with pytest.raises(ValueError):
        convergence_sweep("max_product", b2, b2, "h1", [5, 3], grid_density=10)


def _recorded(reads):
    return FunctionHandle(name="recorded", domain=(0.01, 10.0),
                          evaluator=lambda w: reads.append(w) or np.ones_like(w))


@pytest.mark.parametrize("grid_density", [0, 2.5, -5])
def test_sweep_refuses_a_bad_grid_density(b2, grid_density):
    reads = []
    with pytest.raises(ValueError, match="grid_density must be a positive integer"):
        convergence_sweep("max_product", b2, b2, _recorded(reads), [3],
                          grid_density=grid_density)
    assert reads == []


# an empty list built an empty table or sweep; 2.5 ran as n = 2
BAD_N_LISTS = pytest.mark.parametrize("n_values, message", [
    ([], "is empty"), ([2.5], "an integer, got 2.5"), ([3, 4.5], "an integer, got 4.5"),
], ids=["empty", "fraction", "second-fraction"])


@BAD_N_LISTS
@pytest.mark.parametrize("driver", ["table", "sweep"])
def test_table_and_sweep_refuse_bad_n_lists(b2, driver, n_values, message):
    reads = []
    with pytest.raises(ValueError, match=message):
        if driver == "table":
            build_error_table("max_product", b2, b2, n_values, [1.5], which=_recorded(reads))
        else:
            convergence_sweep("max_product", b2, b2, _recorded(reads), n_values,
                              grid_density=10)
    assert reads == []


@pytest.mark.parametrize("interval", [(3.0, 5.0), (0.1, 0.25)])
def test_sweep_rejects_an_empty_window(b2, interval):
    reads = []
    with pytest.raises(ValueError, match=r"sweep window .* is empty"):
        convergence_sweep("max_product", b2, b2, _recorded(reads), [3], grid_density=10,
                          interval=interval)
    assert reads == []


@pytest.mark.parametrize("kind", ["max_product", "max_min"])
def test_table_and_sweep_share_their_errors(b3, fejer, kind):
    # a table on the sweep's own grid holds the sweep's per-point errors
    rep = convergence_sweep(kind, b3, fejer, "h2", [5, 17], grid_density=40)
    table = build_error_table(kind, b3, fejer, [5, 17], rep.grid.tolist(), which="h2")
    assert table.entries.tobytes() == rep.per_point.tobytes()
    assert table.warnings == rep.warnings
    assert len(table.skipped) == sum(rep.skipped_counts)


def test_sweep_sup_error_decreases(b3, fejer):
    rep = convergence_sweep("max_product", b3, fejer, "h1", [17, 35],
                            grid_density=100)
    assert rep.sup_errors[1] < rep.sup_errors[0]
    assert np.all(rep.per_point >= 0)


def test_sweep_h2_non_increasing(b2, jackson):
    # near the jumps the decay plateaus; the series must still not increase
    rep = convergence_sweep("max_product", b2, jackson, "h2", [17, 35],
                            grid_density=100)
    assert rep.sup_errors[1] <= rep.sup_errors[0]


# ---------------------------------------------------------------------------
# reference data and golden comparison
# ---------------------------------------------------------------------------

def test_reference_tables_load():
    for table_id in refdata.TABLE_IDS:
        for oper in ("max_product", "max_min"):
            rows = refdata.load_reference(table_id, oper)
            assert len(rows) == 16
            assert {r.n for r in rows} == set(refdata.REFERENCE_N_VALUES)
            assert {r.point for r in rows} == set(refdata.REFERENCE_POINTS)


def test_reference_spot_values():
    t2 = {(r.n, r.point): r.abs_error for r in refdata.load_reference("table2", "max_product")}
    assert t2[(17, 0.8)] == 0.00916
    t4 = {(r.n, r.point): r.abs_error for r in refdata.load_reference("table4", "max_product")}
    assert t4[(53, 0.8)] == 0.00223
    t5 = {(r.n, r.point): r.abs_error for r in refdata.load_reference("table5", "max_min")}
    assert t5[(53, 0.8)] == 0.00032


def test_flagged_positions_are_exactly_three():
    flags = {}
    for table_id in refdata.TABLE_IDS:
        for oper in ("max_product", "max_min"):
            steps = flagged_steps(refdata.load_reference(table_id, oper))
            if steps:
                flags[(table_id, oper)] = steps
    # four steps despite the test id: the table-3 max-product cell (26, 0.8)
    # carries the corrected 0.00826 (published: 0.00626, see refdata), so
    # that column itself rises from n = 17 to 26
    assert flags == {
        ("table3", "max_product"): {(0.8, 17, 26)},
        ("table3", "max_min"): {(1.5, 35, 53)},
        ("table5", "max_product"): {(2.5, 35, 53)},
        ("table5", "max_min"): {(2.5, 35, 53)},
    }
    assert flagged_cells(refdata.load_reference("table5", "max_product")) == {(53, 2.5)}


def test_table3_erratum_cell_high_precision():
    """Pin the table-3 max-product column at w = 0.8 in 30-digit arithmetic.

    Recomputes ``|D_n(h2)(0.8) - h2(0.8)|`` for bspline:2 + jackson:1.05:1 on
    the reference interval with mpmath alone: the Jackson kernel with its
    closed-form constant ``d = 1/(2.1 pi)``, the two k where the hat phi is
    nonzero, and every coefficient integral split at h2's knots and at the
    zeros of the kernel.  The published n = 26 cell, 0.00626, fails this
    check; the corrected 0.00826 passes along with the other three cells.
    """
    mpmath = pytest.importorskip("mpmath")
    mp, mpf = mpmath.mp, mpmath.mpf
    rows = {(r.n, r.point): r.abs_error
            for r in refdata.load_reference("table3", "max_product")}
    a, b = refdata.REFERENCE_INTERVAL
    info = refdata.TABLE_INFO["table3"]
    phi, psi_kernel = parse_kernel_spec(info["phi"]), parse_kernel_spec(info["psi"])
    h = get_test_function(info["function"])

    with mp.workdps(30):
        lo_v, hi_v, w = mpf(a), mpf(b), mpf("0.8")
        width = mpf("2.1") * mp.pi  # jackson:1.05:1 is d sinc^2(x / (2.1 pi))
        knots = [mpf(t) for t in ("0.6", "1.2", "1.8", "2.4")]

        def psi(x):
            return mp.sincpi(x / width) ** 2 / width

        def h2(v):
            g = 1 + mpf(5) / 3 * v
            if v < knots[0]:
                return g**3 / 8
            if v < knots[1]:
                return 3 - g
            if v < knots[2]:
                return mpf("0.4")
            if v < knots[3]:
                return mpf("0.8")
            return ((g - 6) ** 3 + 1) / 3

        def coefficient(n, k, f):
            # C_k(f) = int psi(x) f(e^{(x + k)/n}) dx over [n log a - k, n log b - k]
            lo, hi = n * mp.log(lo_v) - k, n * mp.log(hi_v) - k
            cuts = {lo, hi} | {n * mp.log(v) - k for v in knots}
            cuts |= {m * width for m in range(int(mp.floor(lo / width)),
                                              int(mp.ceil(hi / width)) + 1)}
            pts = sorted(c for c in cuts if lo <= c <= hi)
            return mp.quad(lambda x: psi(x) * f(mp.exp((x + k) / n)), pts)

        for n in refdata.REFERENCE_N_VALUES:
            s = n * mp.log(w)
            ks = (int(mp.floor(s)), int(mp.ceil(s)))
            hats = [1 - abs(s - k) for k in ks]
            num = max(p * coefficient(n, k, h2) for p, k in zip(hats, ks))
            den = max(p * coefficient(n, k, lambda v: 1) for p, k in zip(hats, ks))
            want = float(abs(num / den - h2(w)))

            assert rows[(n, 0.8)] == pytest.approx(want, abs=1e-5), n
            cfg = OperatorConfig(phi=phi, psi=psi_kernel, n=n, a=a, b=b,
                                 quad=QuadratureSpec(abs_tol=1e-9))
            got = abs(max_product_eval(h, cfg, 0.8).value - float(h(0.8)))
            assert got == pytest.approx(want, abs=1e-8), n


def test_compare_tables_self_identity():
    rows = refdata.load_reference("table4", "max_product")
    report = compare_tables(rows, rows, rel_tol=0.0)
    assert report.passed
    assert not report.value_violations and not report.trend_violations


def test_compare_tables_flag_exclusion():
    # the reference's own non-monotone step must not fail against itself
    rows = refdata.load_reference("table5", "max_product")
    report = compare_tables(rows, rows, rel_tol=0.0)
    assert report.passed
    assert (53, 2.5) in report.flagged


def test_compare_tables_detects_value_violation():
    ref = refdata.load_reference("table4", "max_product")
    prod = [TableRow(n=r.n, point=r.point, abs_error=r.abs_error * 2.0) for r in ref]
    report = compare_tables(prod, ref, rel_tol=0.25)
    assert not report.passed
    assert report.value_violations


def test_compare_tables_detects_trend_violation():
    ref = refdata.load_reference("table4", "max_product")
    cells = {(r.n, r.point): r.abs_error for r in ref}
    prod = []
    for r in ref:
        # lift every n=53 entry above its n=35 neighbor to break the trend
        e = cells[(35, r.point)] * 1.01 if r.n == 53 else r.abs_error
        prod.append(TableRow(n=r.n, point=r.point, abs_error=e))
    report = compare_tables(prod, ref, rel_tol=10.0)
    assert report.trend_violations
    assert not report.passed


@pytest.mark.parametrize("rel_tol", [math.nan, -0.25, -math.inf])
def test_compare_tables_rejects_a_bad_tolerance(rel_tol):
    # rel > nan is always false, so a NaN tolerance would pass any table
    ref = refdata.load_reference("table5", "max_min")
    with pytest.raises(ValueError, match="rel_tol"):
        compare_tables(ref, ref, rel_tol)


def test_compare_tables_schema_mismatch():
    ref = refdata.load_reference("table4", "max_product")
    with pytest.raises(SchemaMismatchError):
        compare_tables(ref[:-1], ref, rel_tol=0.25)


def test_oracle_matches_piecewise(b2):
    rng = np.random.default_rng(77)
    cfg = OperatorConfig(phi=b2, psi=b2, n=3, a=1.0, b=math.e**2,
                         quad=QuadratureSpec(abs_tol=1e-10))
    h = piecewise_constant_handle(rng, cfg.a, cfg.b)
    from expsamp import max_min_eval, max_product_eval
    w = 2.5
    assert max_product_eval(h, cfg, w).value == pytest.approx(
        brute_force_oracle(h, cfg, w, "max_product"), abs=1e-6)
    assert max_min_eval(h, cfg, w).value == pytest.approx(
        brute_force_oracle(h, cfg, w, "max_min"), abs=1e-6)
