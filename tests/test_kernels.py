import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expsamp import (
    KernelDomainError,
    KernelSpecError,
    QuadratureConvergenceError,
    bspline_kernel,
    compute_jackson_norm_constant,
    compute_metrics,
    fejer_kernel,
    jackson_kernel,
    kernel_line_mass,
    mellin_integrate,
    parse_kernel_spec,
)
from expsamp.kernels import _argmax_columns, _bspline_generic, _real_roots


# closed-form branch polynomials, written out independently; u = log w
_BRANCHES = {
    2: [((-1.0, 0.0), lambda u: 1.0 + u), ((0.0, 1.0), lambda u: 1.0 - u)],
    3: [
        ((-1.5, -0.5), lambda u: 0.5 * (u + 1.5) ** 2),
        ((-0.5, 0.5), lambda u: 0.75 - u * u),
        ((0.5, 1.5), lambda u: 0.5 * (1.5 - u) ** 2),
    ],
    4: [
        ((-2.0, -1.0), lambda u: (u + 2.0) ** 3 / 6.0),
        ((-1.0, 0.0), lambda u: -u**3 / 2.0 - u * u + 2.0 / 3.0),
        ((0.0, 1.0), lambda u: u**3 / 2.0 - u * u + 2.0 / 3.0),
        ((1.0, 2.0), lambda u: (2.0 - u) ** 3 / 6.0),
    ],
}


def test_bspline_point_values(b2, b3, b4):
    assert b2(1.0) == 1.0
    assert b3(1.0) == 0.75
    assert b4(1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert b2(math.e**2) == 0.0


def test_fejer_and_jackson_point_values(fejer, jackson):
    assert fejer(1.0) == 0.5
    assert jackson(1.0) == jackson.norm_constant


def test_bspline_branches_match_generic_formula():
    for order in (2, 3, 4):
        k = bspline_kernel(order)
        u = np.linspace(-order / 2 - 0.25, order / 2 + 0.25, 4001)
        got = np.asarray(k.eval_log(u))
        want = _bspline_generic(order, u)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_bspline_branch_continuity_at_knots():
    # both adjoining branch polynomials agree at each knot, and the kernel
    # evaluation equals that common value
    for order, branches in _BRANCHES.items():
        k = bspline_kernel(order)
        for (seg_a, seg_b) in zip(branches, branches[1:]):
            knot = seg_a[0][1]
            assert seg_b[0][0] == knot
            va, vb = seg_a[1](knot), seg_b[1](knot)
            assert abs(va - vb) <= 1e-12
            assert abs(float(k.eval_log(knot)) - va) <= 1e-12


def test_bspline_branch_values_match_table_forms():
    for order, branches in _BRANCHES.items():
        k = bspline_kernel(order)
        for (lo, hi), poly in branches:
            u = np.linspace(lo, hi, 301)
            got = np.asarray(k.eval_log(u))
            want = np.array([poly(x) for x in u])
            assert np.max(np.abs(got - want)) <= 1e-12


def test_compact_support_exactness():
    for order in (2, 3, 4, 9):
        k = bspline_kernel(order)
        half = order / 2
        for x in (half, -half, half + 1e-9, -half - 1e-9, half + 5.0):
            assert float(k.eval_log(x)) == 0.0


@given(x=st.floats(-3.0, 3.0), order=st.sampled_from([2, 3, 4]))
@settings(max_examples=200, deadline=None)
def test_bspline_symmetry(x, order):
    k = bspline_kernel(order)
    w = math.exp(x)
    assert abs(k(w) - k(1.0 / w)) <= 1e-12


@given(x=st.floats(-30.0, 30.0))
@settings(max_examples=150, deadline=None)
def test_nonnegative_everywhere(x, b3, fejer, jackson):
    for k in (b3, fejer, jackson):
        assert float(k.eval_log(x)) >= 0.0


def test_domain_errors(b2):
    for w in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(KernelDomainError):
            b2(w)


def test_normalizations(b2, b3, b4, fejer, jackson, quad):
    for k in (b2, b3, b4):
        lo, hi = k.support
        assert mellin_integrate(k, lo, hi, quad) == pytest.approx(1.0, abs=1e-8)
    assert kernel_line_mass(fejer, tol=1e-8) == pytest.approx(1.0, abs=1e-6)
    assert kernel_line_mass(jackson, tol=1e-8) == pytest.approx(1.0, abs=1e-6)
    assert mellin_integrate(bspline_kernel(9), math.exp(-4.5), math.exp(4.5),
                            quad) == pytest.approx(1.0, abs=1e-6)


def test_jackson_norm_constant_closed_forms():
    # int_R sinc^2(u/c) du = c exactly, so d = 1/(2 gamma pi) for beta = 1;
    # for beta = 2, int_R sinc^4 = 2/3 gives d = 1/(2.8 pi) at gamma = 1.05
    assert compute_jackson_norm_constant(1.05, 1, 1e-8) == pytest.approx(
        1.0 / (2.1 * math.pi), abs=1e-6)
    assert compute_jackson_norm_constant(1.0, 1, 1e-8) == pytest.approx(
        1.0 / (2.0 * math.pi), abs=1e-6)
    d22 = compute_jackson_norm_constant(1.05, 2, 1e-6)
    assert d22 == pytest.approx(1.0 / (2.8 * math.pi), abs=1e-6)
    assert d22 > 0


def test_jackson_norm_matches_trapezoid_oracle():
    # cross-check the numeric body on a shared truncation window
    from expsamp.kernels import _sinc_power_mass

    X = 256.0
    x = np.arange(0.0, X, 0.001)
    body_oracle = 2 * float(np.trapezoid(np.sinc(x) ** 2, x))
    tail = 2 * 0.5 / math.pi**2 / X
    assert _sinc_power_mass(1, 1e-10) == pytest.approx(body_oracle + tail, abs=1e-7)


def test_jackson_norm_unattainable_tolerance():
    with pytest.raises(QuadratureConvergenceError):
        compute_jackson_norm_constant(1.05, 1, 1e-30)


def test_parse_kernel_spec():
    assert parse_kernel_spec("bspline:2").family == "bspline"
    assert parse_kernel_spec("BSPLINE:3").params == (3.0,)
    f = parse_kernel_spec("fejer:pi:0")
    assert f.params == (math.pi, 0.0)
    j = parse_kernel_spec("jackson:1.05:1")
    assert j.params == (1.05, 1.0)
    assert j.norm_constant == pytest.approx(1.0 / (2.1 * math.pi), abs=1e-8)
    for bad in ("gauss:1", "bspline", "bspline:x", "fejer:pi", "jackson:1.05:1.5"):
        with pytest.raises(KernelSpecError):
            parse_kernel_spec(bad)


def test_generic_bspline_order_nine():
    k = parse_kernel_spec("bspline:9")
    assert k.log_support == (-4.5, 4.5)
    assert k(1.0) > 0.0


def test_metrics_bspline2(b2):
    m = compute_metrics(b2)
    assert m.theta == pytest.approx(0.0, abs=1e-12)
    assert m.discrete_moment[0] == pytest.approx(1.0, abs=1e-12)
    assert m.K == pytest.approx(0.5, abs=1e-9)
    assert m.l1_norm == pytest.approx(1.0, abs=1e-8)
    assert m.continuous_moment[0] == pytest.approx(1.0, abs=1e-8)


def test_metrics_theta_closed_forms(b3, fejer, jackson):
    # each kernel decreases on log w in [0, 1], so the infimum sits at w = e
    assert compute_metrics(b3).theta == pytest.approx(0.125, abs=1e-9)
    assert compute_metrics(fejer).theta == pytest.approx(2.0 / math.pi**2, abs=1e-9)
    want = jackson.norm_constant * float(np.sinc(1.0 / (2.1 * math.pi))) ** 2
    assert compute_metrics(jackson).theta == pytest.approx(want, abs=1e-9)


def test_metrics_fejer_K(fejer):
    m = compute_metrics(fejer)
    assert m.K > 0.19
    u = np.linspace(0.0, 1.0, 2_000_001)
    oracle = float(np.trapezoid(0.5 * np.sinc(u / 2) ** 2, u))
    assert m.K == pytest.approx(oracle, abs=1e-8)


def test_metrics_K_positive_all_families(b2, b3, fejer, jackson):
    for k in (b2, b3, fejer, jackson):
        assert compute_metrics(k).K > 0


def test_discrete_moment_dominates_single_terms(b3, jackson):
    rng = np.random.default_rng(5)
    for k in (b3, jackson):
        m0 = compute_metrics(k).discrete_moment[0]
        for _ in range(50):
            w = float(np.exp(rng.uniform(-3, 3)))
            shift = int(rng.integers(-10, 11))
            assert m0 + 1e-12 >= k(math.exp(-shift) * w)


def test_moment_finiteness_on_compact_support(b2, b3, b4):
    for k in (b2, b3, b4):
        m = compute_metrics(k)
        for r in (0, 1, 2):
            assert math.isfinite(m.continuous_moment[r])
            assert math.isfinite(m.discrete_moment[r])


def test_metrics_grid_density_validation(b2):
    with pytest.raises(ValueError):
        compute_metrics(b2, grid_density=50)


def test_fejer_nonzero_t_line_mass_rejected():
    k = fejer_kernel(math.pi, 0.5)
    with pytest.raises(ValueError):
        kernel_line_mass(k)
    # refused before the moment integrals, where e^{512 t} exhausts the panels
    with pytest.raises(ValueError, match="t = 0"):
        compute_metrics(k)


def test_jackson_descriptor_caches_norm_constant():
    j = jackson_kernel(1.05, 1)
    assert j.norm_constant == pytest.approx(1.0 / (2.1 * math.pi), abs=1e-8)
    # evaluation picks up the cached constant
    assert j(1.0) == j.norm_constant


def _planted(rng, degree, t0, t1):
    """A polynomial of ``degree`` (coefficients low to high, padded to 5)
    with roots planted in (t0, t1), the rest outside [0, 1] or complex."""
    inside = int(rng.integers(1, degree + 1))
    roots = list(rng.uniform(t0 + 0.05, t1 - 0.05, inside))
    while len(roots) < degree:
        if degree - len(roots) >= 2 and rng.random() < 0.5:
            z = complex(rng.uniform(-1, 2), rng.uniform(0.2, 1))
            roots += [z, z.conjugate()]
        else:
            roots.append(rng.choice([-1, 1]) * rng.uniform(1.5, 3))
    coef = np.real(np.poly(roots))[::-1] * rng.uniform(0.5, 2) * rng.choice([-1, 1])
    return np.pad(coef, (0, 4 - degree)), sorted(r.real for r in roots
                                                if np.isreal(r) and t0 < r.real < t1)


def test_real_roots_match_numpy_roots():
    rng = np.random.default_rng(5)
    rows, expect, t0, t1 = [], [], [], []
    for degree in (1, 2, 3, 4) * 25:
        lo = rng.uniform(0, 0.3)
        hi = rng.uniform(0.7, 1)
        coef, inside = _planted(rng, degree, lo, hi)
        rows.append(coef)
        expect.append(inside)
        t0.append(lo)
        t1.append(hi)
    # a leading coefficient of 1e-15 of its row lowers the degree: the cubic
    # 1e-15 t^3 + (t - 0.3)(t - 0.6) has one more root near -1e15
    rows.append(np.array([0.18, -0.9, 1.0, 1e-15, 0.0]))
    expect.append([0.3, 0.6])
    # double roots, as at a tangency of two band terms; the companion
    # matrices give the last two as complex pairs about 2.5e-8 off the axis
    rows.append(np.array([0.16, -0.8, 1.0, 0.0, 0.0]))
    expect.append([0.4, 0.4])
    rows.append(np.pad(np.real(np.poly([0.5, 0.5, 1.7]))[::-1], (0, 1)))
    expect.append([0.5, 0.5])
    rows.append(np.real(np.poly([0.6, 0.6, 2.0, -1.5]))[::-1])
    expect.append([0.6, 0.6])
    t0 += [0.0] * 4
    t1 += [1.0] * 4
    row, root = _real_roots(np.array(rows), np.array(t0), np.array(t1))
    for i, c in enumerate(rows):
        got = np.sort(root[row == i])
        # numpy's roots of the row with the same negligible top dropped
        c = np.trim_zeros(np.where(np.abs(c) > 1e-13 * np.abs(c).max(), c, 0.0), "b")
        ref = np.roots(c[::-1])
        ref = np.sort(ref[(np.abs(ref.imag) < 1e-6) & (ref.real > t0[i]) & (ref.real < t1[i])].real)
        assert got.size == ref.size == len(expect[i]), (i, got, ref)
        assert np.allclose(got, ref, atol=1e-7) and np.allclose(got, expect[i], atol=1e-7)


def test_argmax_columns_matches_argmax():
    rng = np.random.default_rng(3)
    terms = rng.integers(0, 4, (500, 5)).astype(float)
    terms[rng.random(terms.shape) < 0.2] = -np.inf
    at, top = _argmax_columns(terms)
    assert np.array_equal(at, terms.argmax(axis=1))
    assert np.array_equal(top, terms.max(axis=1))
