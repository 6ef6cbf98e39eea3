import logging
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expsamp import (
    DurrmeyerEvaluator,
    FunctionHandle,
    KernelDescriptor,
    OperatorConfig,
    PreconditionError,
    QuadratureSpec,
    bspline_kernel,
    brute_force_oracle,
    denominator_lower_bound_check,
    get_evaluator,
    get_test_function,
    index_set,
    max_min_eval,
    max_product_eval,
    maxmin_algebra_checks,
    parse_kernel_spec,
)
from expsamp import operators, quadrature, refdata
from helpers import (
    combine,
    piecewise_constant_handle,
    random_algebra_config,
    random_point,
    scaled,
    smooth_handle,
)


def _const(c):
    def f(w):
        return np.full_like(np.asarray(w, dtype=float), c)
    return f


def test_index_set_examples():
    assert index_set(1, 1.0, math.e) == [0, 1]
    assert index_set(2, 1.0, math.e) == [0, 1, 2]
    assert index_set(17, 0.5, 3.0) == list(range(-11, 19))


def test_index_set_empty_allowed():
    assert index_set(1, math.exp(0.1), math.exp(0.9)) == []


def test_config_validation(b2):
    with pytest.raises(ValueError):
        OperatorConfig(phi=b2, psi=b2, n=1, a=1.0, b=math.e)  # b/a = e^(1/n) exactly
    with pytest.raises(ValueError):
        OperatorConfig(phi=b2, psi=b2, n=2, a=-1.0, b=2.0)
    with pytest.raises(ValueError):
        OperatorConfig(phi=b2, psi=b2, n=0, a=1.0, b=3.0)
    cfg = OperatorConfig(phi=b2, psi=b2, n=2, a=1.0, b=math.e)
    assert cfg.indices() == [0, 1, 2]


def test_point_outside_interval_rejected(b2):
    cfg = OperatorConfig(phi=b2, psi=b2, n=2, a=1.0, b=math.e**2)
    with pytest.raises(ValueError):
        max_product_eval(_const(1.0), cfg, 0.5)


def test_constant_reproduction(b2, jackson):
    for psi in (b2, jackson):
        cfg = OperatorConfig(phi=b2, psi=psi, n=3, a=1.0, b=math.e**2)
        for w in (1.3, 2.0, 5.0):
            res = max_product_eval(_const(0.7), cfg, w)
            assert not res.skipped
            assert res.value == pytest.approx(0.7, abs=1e-12)


def test_max_min_zero_is_exact(b2):
    cfg = OperatorConfig(phi=b2, psi=b2, n=3, a=1.0, b=math.e**2)
    for w in (1.5, 3.0, 6.0):
        assert max_min_eval(_const(0.0), cfg, w).value == 0.0


def test_max_min_range_bound(b2):
    rng = np.random.default_rng(9)
    for _ in range(25):
        cfg = random_algebra_config(rng)
        h = piecewise_constant_handle(rng, cfg.a, cfg.b)
        w = random_point(rng, cfg)
        res = max_min_eval(h, cfg, w)
        assert -1e-12 <= res.value <= 1.0 + 1e-12
        assert res.warning is None


def test_max_min_out_of_range_flagged(b2):
    cfg = OperatorConfig(phi=b2, psi=b2, n=3, a=1.0, b=math.e**2)
    res = max_min_eval(_const(1.7), cfg, 2.0)
    assert res.warning is not None
    assert "guarantee range" in res.warning


def test_evaluation_decomposition(b2, h1):
    cfg = OperatorConfig(phi=b2, psi=b2, n=3, a=1.0, b=math.e**2)
    res = max_product_eval(h1, cfg, 2.0)
    assert res.denominator > 0
    assert res.value == pytest.approx(res.numerator / res.denominator, rel=1e-15)
    assert res.active_index in cfg.indices()


class _ZeroKernel(KernelDescriptor):
    pass


def test_degenerate_denominator_skip(b2):
    # a phi that vanishes identically starves the denominator
    dead = KernelDescriptor(name="dead", family="bspline", params=(2.0,),
                            support=(math.exp(-1.0), math.e))
    object.__setattr__(dead, "eval_log", lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    cfg = OperatorConfig.__new__(OperatorConfig)
    object.__setattr__(cfg, "phi", dead)
    object.__setattr__(cfg, "psi", b2)
    object.__setattr__(cfg, "n", 2)
    object.__setattr__(cfg, "a", 1.0)
    object.__setattr__(cfg, "b", math.e**2)
    object.__setattr__(cfg, "quad", QuadratureSpec())
    ev = get_evaluator(cfg)
    res = ev.max_product(_const(0.5), 2.0)
    assert res.skipped and res.skip_reason == "degenerate denominator"
    res2 = ev.max_min(_const(0.5), 2.0)
    assert res2.skipped


def test_eval_grid_blocks_match_per_block_calls(b2, h2, monkeypatch):
    # phi cut to |x| < 1/4 leaves some points with no weight at all, so the
    # skip masks are mixed
    gapped = KernelDescriptor(name="gapped", family="bspline", params=(2.0,),
                              support=(math.exp(-1.0), math.e))
    object.__setattr__(gapped, "eval_log", lambda x: np.where(
        np.abs(x) < 0.25, b2.eval_log(np.asarray(x, dtype=float)), 0.0))
    ev = DurrmeyerEvaluator(OperatorConfig(phi=gapped, psi=b2, n=3, a=0.25, b=3.0))
    ws = np.exp(np.linspace(math.log(0.25), math.log(3.0), 100))
    kinds = ("max_product", "max_min")
    per_block = {kind: [ev.eval_grid(kind, h2, ws[i:i + 37]) for i in range(0, ws.size, 37)]
                 for kind in kinds}
    monkeypatch.setattr(operators, "_GRID_BLOCK", 37)
    for kind in kinds:
        parts = per_block[kind]
        values, skipped = ev.eval_grid(kind, h2, ws)
        assert 0 < skipped.sum() < ws.size
        assert np.array_equal(values, np.concatenate([p[0] for p in parts]), equal_nan=True)
        assert np.array_equal(skipped, np.concatenate([p[1] for p in parts]))


def _dense_grid(ev, kind, h, x):
    """The operator's maxima over every k in J_n at x = n log w, the band's reference.

    Returns values, numerators, denominators, the smallest maximising k and
    the skip mask, as ``_assemble`` does but with NaN for the k of a skipped
    point.
    """
    phim = np.asarray(ev.cfg.phi.eval_log(x[:, None] - ev.ks[None, :]))
    c_one, c_h = ev.coefficients("one"), ev.coefficients(h)
    rows = np.arange(x.size)
    den_terms = phim * c_one[None, :]
    j = den_terms.argmax(axis=1)
    den = den_terms[rows, j]
    skipped = den < operators._DENOMINATOR_FLOOR
    den[skipped] = 1.0
    if kind == "max_product":
        num = (phim * c_h[None, :]).max(axis=1)
        values = num / den
    else:
        terms = np.minimum(c_h[None, :], phim / den[:, None])
        j = terms.argmax(axis=1)
        values = terms[rows, j]
        num = values * den
    active = ev.ks[j]
    values[skipped] = num[skipped] = active[skipped] = np.nan
    den[skipped] = 0.0
    return values, num, den, active, skipped


def _b2_support_kernel(name, evaluate):
    # a custom phi declaring B2's log support [-1, 1]
    phi = KernelDescriptor(name=name, family="bspline", params=(2.0,),
                           support=(math.exp(-1.0), math.e))
    object.__setattr__(phi, "eval_log", lambda x: evaluate(np.asarray(x, dtype=float)))
    return phi


_CUSTOM_PHI = {
    # B2 cut to |x| < 1/4: points between the cut supports get no weight
    "gapped": lambda x: np.where(np.abs(x) < 0.25, 1.0 - np.abs(x), 0.0),
    # 1 on the closed support: at x - 1 an integer all three band columns
    # carry weight, so no band term is a zero
    "box": lambda x: np.where(np.abs(x) <= 1.0, 1.0, 0.0),
}

# a signal of both signs: where it is negative, all max-product band terms
# of the box phi are negative and the k outside the band give 0; a
# negative one, whose max-min value is max_k C_k(h), mostly from outside
# the band; and zero, where every max-min term ties at 0 and the first k of
# J_n must win, inside the band or not
_SIGNED = FunctionHandle(name="signed", domain=(0.01, 10.0),
                         evaluator=lambda w: np.sin(4.0 * np.log(np.asarray(w, dtype=float))))
_NEGATIVE = FunctionHandle(name="negative", domain=(0.01, 10.0),
                           evaluator=lambda w: np.asarray(_SIGNED(w)) - 1.5)
_ZERO = FunctionHandle(name="zero", domain=(0.01, 10.0),
                       evaluator=lambda w: np.zeros(np.shape(w)))


def _point_results(ev, kind, h, ws):
    """``ev.max_product`` or ``ev.max_min`` at each point, as arrays."""
    results = [getattr(ev, kind)(h, float(w)) for w in ws]
    return (np.array([r.value for r in results]), np.array([r.numerator for r in results]),
            np.array([r.denominator for r in results]),
            np.array([np.nan if r.skipped else r.active_index for r in results]),
            np.array([r.skipped for r in results]))


@pytest.mark.parametrize("phi_spec", ["bspline:2", "bspline:3", "bspline:4", "bspline:5",
                                      "gapped", "box", "fejer:pi:0"])
def test_banded_eval_grid_equals_dense(phi_spec, b2, h2):
    phi = (_b2_support_kernel(phi_spec, _CUSTOM_PHI[phi_spec]) if phi_spec in _CUSTOM_PHI
           else parse_kernel_spec(phi_spec))
    a, b = 0.25, 3.0
    support = phi.log_support
    banded = set()
    for n in (1, 2, 17):
        ev = DurrmeyerEvaluator(OperatorConfig(phi=phi, psi=b2, n=n, a=a, b=b))
        # points a and b, a dense grid, and points whose x - shi is an integer
        ws = [a, b, *np.exp(np.linspace(math.log(a), math.log(b), 1001))]
        if support:
            banded.add(math.ceil(support[1] - support[0]) + 1 < ev.ks.size)
            shi = support[1]
            for j in range(math.ceil(n * math.log(a) - shi), math.floor(n * math.log(b) - shi) + 1):
                lo = hi = math.exp((j + shi) / n)
                ws.append(lo)
                for _ in range(2):
                    lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
                    ws += [lo, hi]
        # one-point calls take x = n log w one point at a time; they read
        # every 10th point of the grid and all the others
        points = np.array([w for i, w in enumerate(ws)
                           if a <= w <= b and (not 2 <= i < 1003 or i % 10 == 2)])
        ws = np.array([w for w in ws if a <= w <= b])
        if support:
            assert np.any(np.mod(n * np.log(ws) - support[1], 1.0) == 0.0)
        x_points = np.array([n * math.log(w) for w in points])
        for h in (h2, _SIGNED, _NEGATIVE, _ZERO):
            for kind in ("max_product", "max_min"):
                values, skipped = ev.eval_grid(kind, h, ws)
                ref = _dense_grid(ev, kind, h, n * np.log(ws))
                assert np.array_equal(skipped, ref[4])
                assert np.array_equal(values, ref[0], equal_nan=True), (kind, h.name, n)
                got, ref = _point_results(ev, kind, h, points), _dense_grid(ev, kind, h, x_points)
                for field, a_got, a_ref in zip(("value", "numerator", "denominator",
                                                "active_index", "skipped"), got, ref):
                    assert np.array_equal(a_got, a_ref, equal_nan=True), (kind, h.name, n, field)
    # n = 1 reads all of J_n even with a band, n = 17 only the band
    assert banded == (set() if support is None else {False, True})
    for bad in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            ev.eval_grid("max_product", h2, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="positive"):
            ev.max_min(h2, bad)
    # outside [a, b] beyond the one-ulp grace both paths raise; inside it
    # both evaluate
    for bad in (a * (1 - 1e-9), b * (1 + 1e-9), 10.0):
        with pytest.raises(ValueError, match="outside"):
            ev.eval_grid("max_min", h2, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="outside"):
            ev.max_product(h2, bad)
    for edge in (a * (1 - 1e-13), b * (1 + 1e-13)):
        skipped = ev.eval_grid("max_product", h2, np.array([edge]))[1]
        assert ev.max_product(h2, edge).skipped == skipped[0]


# ---------------------------------------------------------------------------
# operator algebra (quick versions; the 500-case runs live in the acceptance
# suite)
# ---------------------------------------------------------------------------

def test_monotonicity_quick():
    rng = np.random.default_rng(31)
    for _ in range(30):
        cfg = random_algebra_config(rng)
        h = piecewise_constant_handle(rng, cfg.a, cfg.b, name="h")
        bump = piecewise_constant_handle(rng, cfg.a, cfg.b, lo=0.0, hi=0.5, name="bump")
        g = combine(h, bump, np.add, "g")
        w = random_point(rng, cfg)
        assert max_product_eval(h, cfg, w).value <= max_product_eval(g, cfg, w).value + 1e-10
        assert max_min_eval(h, cfg, w).value <= max_min_eval(g, cfg, w).value + 1e-10


def test_subadditivity_quick():
    rng = np.random.default_rng(32)
    for _ in range(30):
        cfg = random_algebra_config(rng)
        h = piecewise_constant_handle(rng, cfg.a, cfg.b, name="h")
        g = piecewise_constant_handle(rng, cfg.a, cfg.b, name="g")
        s = combine(h, g, np.add, "h+g")
        w = random_point(rng, cfg)
        assert (max_product_eval(s, cfg, w).value
                <= max_product_eval(h, cfg, w).value + max_product_eval(g, cfg, w).value + 1e-10)
        assert (max_min_eval(s, cfg, w).value
                <= max_min_eval(h, cfg, w).value + max_min_eval(g, cfg, w).value + 1e-10)


def test_homogeneity_quick():
    rng = np.random.default_rng(33)
    for _ in range(15):
        cfg = random_algebra_config(rng, abs_tol=2e-14)
        h = smooth_handle(rng, cfg.a, cfg.b)
        w = random_point(rng, cfg)
        base = max_product_eval(h, cfg, w).value
        for lam in (0.25, 1.0, 3.0):
            got = max_product_eval(scaled(h, lam, f"s{lam}"), cfg, w).value
            assert got == pytest.approx(lam * base, abs=1e-12)


def test_difference_domination_quick():
    rng = np.random.default_rng(34)
    for _ in range(30):
        cfg = random_algebra_config(rng)
        h = piecewise_constant_handle(rng, cfg.a, cfg.b, name="h")
        g = piecewise_constant_handle(rng, cfg.a, cfg.b, name="g")
        d = combine(h, g, lambda x, y: np.abs(x - y), "|h-g|")
        w = random_point(rng, cfg)
        assert (abs(max_product_eval(h, cfg, w).value - max_product_eval(g, cfg, w).value)
                <= max_product_eval(d, cfg, w).value + 1e-10)
        assert (abs(max_min_eval(h, cfg, w).value - max_min_eval(g, cfg, w).value)
                <= max_min_eval(d, cfg, w).value + 1e-10)


def test_oracle_equivalence_quick():
    rng = np.random.default_rng(35)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        cfg = OperatorConfig(phi=bspline_kernel(2), psi=bspline_kernel(2), n=n,
                             a=1.0, b=math.e**2, quad=QuadratureSpec(abs_tol=1e-10))
        h = piecewise_constant_handle(rng, cfg.a, cfg.b)
        w = random_point(rng, cfg)
        assert max_product_eval(h, cfg, w).value == pytest.approx(
            brute_force_oracle(h, cfg, w, "max_product"), abs=1e-6)
        assert max_min_eval(h, cfg, w).value == pytest.approx(
            brute_force_oracle(h, cfg, w, "max_min"), abs=1e-6)


# ---------------------------------------------------------------------------
# lattice algebra and the denominator bound
# ---------------------------------------------------------------------------

def test_maxmin_algebra_checks_seeded():
    report = maxmin_algebra_checks(seed=42, cases=10_000)
    assert report.passed, report.violations[:3]


def test_maxmin_algebra_checks_validation():
    with pytest.raises(ValueError):
        maxmin_algebra_checks(seed=1, cases=0)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20),
       st.lists(st.floats(-50, 50), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_max_difference_lemma_hypothesis(d, e):
    m = min(len(d), len(e))
    d, e = np.array(d[:m]), np.array(e[:m])
    assert d.max() - e.max() <= np.abs(d - e).max()


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_min_difference_lemma_hypothesis(mu, nu, s):
    assert abs(min(mu, nu) - min(mu, s)) <= min(mu, abs(nu - s))


def test_denominator_lower_bound(fejer, b2):
    cfg = OperatorConfig(phi=fejer, psi=b2, n=5, a=1.0, b=math.e**2)
    grid = np.exp(np.linspace(0.0, 2.0, 100))
    report = denominator_lower_bound_check(cfg, grid)
    assert report.passed, report.violations[:3]
    assert report.cases == 100


def test_denominator_lower_bound_jackson_phi(jackson, b2):
    cfg = OperatorConfig(phi=jackson, psi=b2, n=5, a=1.0, b=math.e**2)
    report = denominator_lower_bound_check(cfg, np.exp(np.linspace(0.0, 2.0, 20)))
    assert report.passed, report.violations[:3]


def test_denominator_lower_bound_guards(b2, fejer):
    cfg = OperatorConfig(phi=b2, psi=fejer, n=5, a=1.0, b=math.e**2)
    with pytest.raises(PreconditionError):
        denominator_lower_bound_check(cfg, [1.5])  # theta(B2) = 0
    with pytest.raises(ValueError):
        # b/a = e exactly fails the strict inequality at n = 1
        OperatorConfig(phi=fejer, psi=b2, n=1, a=1.0, b=math.e)


def test_tie_break_smallest_index(b2):
    # symmetric configuration: weights tie at two indices, first must win
    cfg = OperatorConfig(phi=b2, psi=b2, n=2, a=1.0, b=math.e)
    ev = get_evaluator(cfg)
    w = math.exp(0.5)  # n log w = 1.0, equidistant from k=0 and k=2 for phi
    res = ev.max_product(_const(1.0), w)
    den_terms = ev.cfg.phi.eval_log(ev.cfg.n * math.log(w) - ev.ks) * ev.coefficients("one")
    ties = np.flatnonzero(den_terms == den_terms.max())
    assert res.active_index == int(ev.ks[ties[0]])


def test_pointwise_convergence_smooth(b3, fejer, h1):
    # coarse surrogate at a single interior point; the full grid version is
    # acceptance criterion 7
    errs = []
    for n in (17, 35):
        cfg = OperatorConfig(phi=b3, psi=fejer, n=n, a=0.25, b=3.0,
                             quad=QuadratureSpec(abs_tol=1e-9))
        errs.append(abs(max_product_eval(h1, cfg, 1.5).value - float(h1(1.5))))
    assert errs[1] < errs[0]


# ---------------------------------------------------------------------------
# the batched coefficient engine against the per-k reference
# ---------------------------------------------------------------------------

def _steps(edges, values, name="steps", domain=(0.01, 10.0)):
    """Piecewise-constant handle: ``values[i]`` on [edges[i], edges[i + 1])."""
    cuts = np.asarray(edges, dtype=float)

    def evaluate(w):
        idx = np.searchsorted(cuts, np.asarray(w, dtype=float), side="right")
        return np.asarray(values, dtype=float)[idx]

    return FunctionHandle(name=name, domain=domain, evaluator=evaluate,
                          breakpoints=tuple(float(c) for c in edges))


def _bspline_cdf(order, x):
    # int_{-inf}^x M_order = sum_{j >= 0} M_{order+1}(x - 1/2 - j), by
    # telescoping M_{order+1}' (x) = M_order(x + 1/2) - M_order(x - 1/2)
    x = np.clip(np.asarray(x, dtype=float), -order / 2, order / 2)
    nxt = bspline_kernel(order + 1)
    return sum(nxt.eval_log(x - 0.5 - j) for j in range(order + 1))


def _exact_bspline_coefficients(cfg, ks, handle):
    """C_k of a piecewise-constant handle against B-spline psi, in closed form."""
    order = int(cfg.psi.params[0])
    inner = [bp for bp in getattr(handle, "breakpoints", ()) if cfg.a < bp < cfg.b]
    edges = np.log([cfg.a, *inner, cfg.b])
    mids = np.exp(0.5 * (edges[:-1] + edges[1:]))
    values = np.ones(mids.size) if handle == "one" else np.asarray(handle(mids), dtype=float)
    out = np.zeros(len(ks))
    for u0, u1, v in zip(edges[:-1], edges[1:], values):
        out += v * (_bspline_cdf(order, cfg.n * u1 - ks) - _bspline_cdf(order, cfg.n * u0 - ks))
    return out


_STEPS = _steps((0.37, 1.1, 2.2), (0.3, 0.2, 0.9, 0.4, 0.6))


@pytest.mark.parametrize("which", ["one", "h1", "h2", "steps"])
@pytest.mark.parametrize("psi_spec", [
    "bspline:2", "bspline:3", "bspline:5", "fejer:pi:0", "jackson:1.05:1"])
def test_batched_coefficients_match_per_k(psi_spec, which):
    # log(0.1) and log(3) lie off the lattice of step 1/(2n) = 1/106
    psi = parse_kernel_spec(psi_spec)
    cfg = OperatorConfig(phi=bspline_kernel(2), psi=psi, n=53, a=0.1, b=3.0,
                         quad=QuadratureSpec(abs_tol=1e-9))
    h = {"one": "one", "steps": _STEPS}.get(which) or get_test_function(which)
    ev = DurrmeyerEvaluator(cfg)
    got = ev.coefficients(h)
    assert ev.engines[h] == "batched"
    sub = slice(None, None, 10)
    ref = [operators.durrmeyer_coefficient(psi, int(k), cfg.n, cfg.a, cfg.b, h, cfg.quad)
           for k in ev.ks[sub]]
    np.testing.assert_allclose(got[sub], ref, rtol=0, atol=cfg.quad.abs_tol)
    if psi.family == "bspline" and which in ("one", "steps"):
        # the rule is exact on every panel there
        np.testing.assert_allclose(
            got, _exact_bspline_coefficients(cfg, ev.ks, h), rtol=0, atol=1e-12)


@pytest.mark.parametrize("handle", [
    # exp(10/34) is a knot of the lattice of step 1/68 at n = 17
    _steps((math.exp(10 / 34), 1.9), (0.2, 0.7, 0.5), name="on-knot"),
    # only the middle value is ever read on [0.25, 3]
    _steps((0.05, 1.3, 5.0), (9.0, 0.4, 0.8, 9.0), name="outside"),
], ids=["breakpoint-on-knot", "breakpoints-outside"])
def test_batched_breakpoint_placement(b3, handle):
    cfg = OperatorConfig(phi=b3, psi=b3, n=17, a=0.25, b=3.0)
    ev = DurrmeyerEvaluator(cfg)
    got = ev.coefficients(handle)
    assert ev.engines[handle] == "batched"
    np.testing.assert_allclose(
        got, _exact_bspline_coefficients(cfg, ev.ks, handle), rtol=0, atol=1e-12)


def test_batched_without_full_panels(b3):
    # a breakpoint in every cell of the lattice (step 1/4) leaves the rule
    # no full panel
    cuts = tuple(math.exp(0.1 + 0.25 * i) for i in range(5))
    handle = _steps(cuts, (0.1, 0.9, 0.3, 0.8, 0.2, 0.6), name="all-cut")
    cfg = OperatorConfig(phi=b3, psi=b3, n=1, a=1.0, b=math.exp(1.2))
    ev = DurrmeyerEvaluator(cfg)
    got = ev.coefficients(handle)
    assert ev.engines[handle] == "batched"
    np.testing.assert_allclose(
        got, _exact_bspline_coefficients(cfg, ev.ks, handle), rtol=0, atol=1e-12)
    # an interval inside one lattice cell (OperatorConfig itself requires
    # b/a > e^(1/n), so the rule is called directly)
    short = types.SimpleNamespace(psi=b3, n=1, a=math.exp(0.05), b=math.exp(0.45),
                                  quad=QuadratureSpec())
    ks = np.array([-1.0, 0.0, 1.0])
    for q in (2, 4):
        np.testing.assert_allclose(operators._lattice_rule(short, ks, [handle], q)[0][0],
                                   _exact_bspline_coefficients(short, ks, handle),
                                   rtol=0, atol=1e-12)


def test_batched_fill_does_not_depend_on_psi_block(jackson, h2, monkeypatch):
    cfg = OperatorConfig(phi=jackson, psi=jackson, n=17, a=0.1, b=3.0,
                         quad=QuadratureSpec(abs_tol=1e-9))
    fills = []
    for block in (operators._PSI_BLOCK, 1):
        monkeypatch.setattr(operators, "_PSI_BLOCK", block)
        ev = DurrmeyerEvaluator(cfg)
        fills.append(ev.coefficients(h2))
        assert ev.engines[h2] == "batched"
    np.testing.assert_allclose(fills[1], fills[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("nodes", [4, 16])
@pytest.mark.parametrize("phi_spec, psi_spec", [
    ("bspline:3", "fejer:pi:0"),
    ("bspline:2", "jackson:1.05:1"),
])
def test_batched_fill_ignores_engine_panel_order(phi_spec, psi_spec, nodes, h1, h2, monkeypatch):
    # the lattice rule keeps its own node count, so the adaptive engine's
    # panel order reaches no batched fill
    cfg = OperatorConfig(phi=parse_kernel_spec(phi_spec), psi=parse_kernel_spec(psi_spec),
                         n=17, a=0.1, b=3.0, quad=QuadratureSpec(abs_tol=1e-9))
    handles = ("one", h1, h2)
    ev = DurrmeyerEvaluator(cfg)
    want = [ev.coefficients(h) for h in handles]
    monkeypatch.setattr(quadrature, "_PANEL_NODES", nodes)
    ev = DurrmeyerEvaluator(cfg)
    for h, w in zip(handles, want):
        assert np.array_equal(ev.coefficients(h), w)
        assert ev.engines[h] == "batched"


def test_undeclared_jump_falls_back(jackson, h2, caplog):
    blind = FunctionHandle(name="h2-undeclared", domain=h2.domain, evaluator=h2.evaluator)
    cfg = OperatorConfig(phi=jackson, psi=jackson, n=17, a=0.1, b=3.0,
                         quad=QuadratureSpec(abs_tol=1e-9))
    ev = DurrmeyerEvaluator(cfg)
    with caplog.at_level(logging.INFO, logger="expsamp"):
        got = ev.coefficients(blind)
    # escalated to the finest lattice before falling back
    assert ev.engines[blind].startswith("adaptive: null-rule estimate")
    assert ev.engines[blind].endswith(f"at q={operators._LATTICE_MAX_Q}")
    assert any(ev.engines[blind] in r.getMessage() for r in caplog.records)
    sub = slice(None, None, 10)
    ref = [operators.durrmeyer_coefficient(jackson, int(k), cfg.n, cfg.a, cfg.b, h2, cfg.quad)
           for k in ev.ks[sub]]
    np.testing.assert_allclose(got[sub], ref, rtol=0, atol=cfg.quad.abs_tol)


def test_joint_fill_with_a_fallback_keeps_the_other_batched(jackson, h2):
    # the undeclared jump of test_undeclared_jump_falls_back, filled next to "one"
    blind = FunctionHandle(name="h2-undeclared", domain=h2.domain, evaluator=h2.evaluator)
    cfg = OperatorConfig(phi=jackson, psi=jackson, n=17, a=0.1, b=3.0,
                         quad=QuadratureSpec(abs_tol=1e-9))
    ev = DurrmeyerEvaluator(cfg)
    c_one, c_blind = ev.coefficients("one", blind)
    assert ev.engines == {"one": "batched", blind: ev.engines[blind]}
    assert ev.engines[blind].startswith("adaptive: null-rule estimate")
    alone = DurrmeyerEvaluator(cfg)
    assert np.array_equal(c_one, alone.coefficients("one"))
    assert np.array_equal(c_blind, alone.coefficients(blind))


@pytest.mark.parametrize("n", [17, 53])
@pytest.mark.parametrize("psi_spec", ["jackson:1.05:1", "fejer:pi:0"])
def test_joint_fill_equals_separate_fills(psi_spec, n, h1, h2, monkeypatch):
    cfg = OperatorConfig(phi=bspline_kernel(3), psi=parse_kernel_spec(psi_spec), n=n,
                         a=0.1, b=3.0, quad=QuadratureSpec(abs_tol=1e-9))
    points = []
    eval_log = KernelDescriptor.eval_log
    monkeypatch.setattr(KernelDescriptor, "eval_log",
                        lambda self, x: points.append(np.size(x)) or eval_log(self, x))
    for h in (h1, h2):
        points.clear()
        alone = DurrmeyerEvaluator(cfg)
        want = alone.coefficients("one"), alone.coefficients(h)
        separate = sum(points)
        points.clear()
        ev = DurrmeyerEvaluator(cfg)
        got = ev.coefficients("one", h)
        assert isinstance(got, tuple) and len(got) == 2
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert ev.engines == {"one": "batched", h: "batched"}
        # the psi table of the full cells is built once for both handles
        assert sum(points) < separate
        # a cached pair is answered without a fill, in the order asked
        points.clear()
        again = ev.coefficients(h, "one", h)
        assert points == [] and again[0] is got[1] and again[1] is got[0]


def test_null_rules_vanish_below_their_degree():
    x, w = quadrature._leggauss(operators._LATTICE_NODES)
    legendre = quadrature._null_rules(operators._LATTICE_NODES)
    for m, p_m in zip(range(12, 16), legendre):
        null = w * p_m
        for p in range(m):
            assert abs(null @ x ** p) <= 1e-15, (m, p)
        # P_m itself integrates to 2/(2m + 1) against P_m
        assert null @ p_m == pytest.approx(2 / (2 * m + 1), rel=1e-12)


@pytest.mark.parametrize("abs_tol", [1e-10, 2e-14])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_escalated_fill_meets_its_limit(b2, h1, n, abs_tol):
    # h1 oscillates on [1, e^2]: against bspline:2 psi the q = 4 lattice
    # misses abs_tol/(2n) here, so the fill escalates in q or falls back
    cfg = OperatorConfig(phi=b2, psi=b2, n=n, a=1.0, b=math.exp(2.0),
                         quad=QuadratureSpec(abs_tol=abs_tol))
    ev = DurrmeyerEvaluator(cfg)
    got = ev.coefficients(h1)
    engine = ev.engines[h1]
    ref = [operators.durrmeyer_coefficient(b2, int(k), n, cfg.a, cfg.b, h1, cfg.quad)
           for k in ev.ks]
    np.testing.assert_allclose(got, ref, rtol=0, atol=abs_tol)
    if engine.startswith("adaptive: null-rule estimate"):
        return
    q = int(re.fullmatch(r"batched \(q=(\d+)\)", engine).group(1))
    assert 8 <= q <= operators._LATTICE_MAX_Q
    finest = operators._lattice_rule(cfg, ev.ks, [h1], operators._LATTICE_MAX_Q)[0][0]
    assert np.max(np.abs(got - finest)) <= abs_tol / (2 * n)


@pytest.mark.parametrize("table_id", refdata.TABLE_IDS)
def test_table_configs_fill_in_one_lattice_pass(table_id, monkeypatch):
    info = refdata.TABLE_INFO[table_id]
    h = get_test_function(info["function"])
    qs = []
    rule = operators._lattice_rule
    monkeypatch.setattr(operators, "_lattice_rule",
                        lambda *args: qs.append(args[3]) or rule(*args))
    a, b = refdata.REFERENCE_INTERVAL
    for n in refdata.REFERENCE_N_VALUES:
        cfg = OperatorConfig(phi=parse_kernel_spec(info["phi"]), psi=parse_kernel_spec(info["psi"]),
                             n=n, a=a, b=b, quad=QuadratureSpec(abs_tol=1e-9))
        ev = DurrmeyerEvaluator(cfg)
        qs.clear()
        ev.coefficients("one", h)
        assert qs == [4]
        assert ev.engines == {"one": "batched", h: "batched"}


def test_joint_fill_checks_every_domain_before_reading(b3):
    reads = []
    narrow = FunctionHandle(name="narrow", domain=(0.5, 2.0), evaluator=lambda w: reads.append(1) or w)
    wide = FunctionHandle(name="wide", domain=(0.0, 9.0), evaluator=lambda w: reads.append(1) or w)
    ev = DurrmeyerEvaluator(OperatorConfig(phi=b3, psi=b3, n=5, a=0.25, b=3.0))
    with pytest.raises(ValueError, match="does not cover"):
        ev.coefficients(wide, narrow)
    assert reads == [] and ev.engines == {}


def test_nan_from_h_raises(b3, monkeypatch):
    cfg = OperatorConfig(phi=b3, psi=b3, n=5, a=0.25, b=3.0)
    holey = FunctionHandle(name="holey", domain=(0.1, 5.0), evaluator=lambda w: np.where(
        np.asarray(w) > 1.5, np.nan, 0.5))

    def no_fallback(*args):
        raise AssertionError("a non-finite h must not reach the per-k engine")

    monkeypatch.setattr(operators, "durrmeyer_coefficient", no_fallback)
    with pytest.raises(ValueError, match="non-finite"):
        DurrmeyerEvaluator(cfg).coefficients(holey)


def test_handle_domain_must_cover_interval(b3, h2):
    reads = []

    def record(w):
        reads.append(w)
        return h2(w)

    cfg = OperatorConfig(phi=b3, psi=b3, n=5, a=0.25, b=4.0)
    short = FunctionHandle(name="h2-recorded", domain=h2.domain, evaluator=record,
                           breakpoints=h2.breakpoints)
    with pytest.raises(ValueError, match="does not cover"):
        DurrmeyerEvaluator(cfg).coefficients(short)
    assert reads == []


def _scanned_switches(ev, kind, h, x):
    """Grid intervals [x[i], x[i+1]] over which the maximisers change, by a
    dense scan of every k in J_n with phi read by its own kernel code."""
    c_one, c_h = ev.coefficients("one"), ev.coefficients(h)
    rows = np.arange(x.size)
    phim = ev.cfg.phi.eval_log(x[:, None] - ev.ks)
    den = phim * c_one
    jd = den.argmax(axis=1)
    if kind == "max_product":
        state = jd * ev.ks.size + (phim * c_h).argmax(axis=1)
    else:
        side = phim / den[rows, jd][:, None]
        jm = np.minimum(c_h, side).argmax(axis=1)
        state = (jd * ev.ks.size + jm) * 2 + (c_h[jm] < side[rows, jm])
    return np.flatnonzero(state[1:] != state[:-1])


@pytest.mark.parametrize("which", ["h1", "h2"])
@pytest.mark.parametrize("kind", ["max_product", "max_min"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_pieces_cover_scanned_switches(order, kind, which, fejer):
    cfg = OperatorConfig(phi=bspline_kernel(order), psi=fejer, n=6, a=0.25, b=3.0,
                         quad=QuadratureSpec(abs_tol=1e-9))
    ev, h = DurrmeyerEvaluator(cfg), get_test_function(which)
    cuts = np.log(ev.pieces(kind, h)) * cfg.n
    xlo, xhi = cfg.n * math.log(cfg.a), cfg.n * math.log(cfg.b)
    assert np.all(np.diff(cuts) > 0) and xlo < cuts[0] and cuts[-1] < xhi
    knots = np.arange(math.ceil(xlo + order / 2), math.floor(xhi + order / 2) + 1) - order / 2
    knots = knots[(knots > xlo) & (knots < xhi)]
    # every knot is a cut, up to the rounding of exp and log
    assert np.abs(cuts[np.searchsorted(cuts, knots - 1e-9)] - knots).max() < 1e-9

    x = np.linspace(xlo, xhi, 200_001)
    step = x[1] - x[0]
    switches = _scanned_switches(ev, kind, h, x)
    assert switches.size > 10
    i = np.clip(np.searchsorted(cuts, x[switches]), 1, cuts.size - 1)
    lo, hi = x[switches] - step, x[switches + 1] + step
    found = ((cuts[i - 1] >= lo) & (cuts[i - 1] <= hi)) | ((cuts[i] >= lo) & (cuts[i] <= hi))
    assert found.all(), x[switches][~found]
    # only actual switches are kept: no more roots than the scan sees
    assert cuts.size - knots.size <= switches.size


@pytest.mark.parametrize("phi_spec", ["fejer:pi:0", "jackson:1.05:1"])
def test_pieces_need_bounded_support(phi_spec, b2, h2):
    cfg = OperatorConfig(phi=parse_kernel_spec(phi_spec), psi=b2, n=6, a=0.25, b=3.0)
    ev = DurrmeyerEvaluator(cfg)
    assert ev.pieces("max_product", h2) == () and ev.pieces("max_min", h2) == ()
