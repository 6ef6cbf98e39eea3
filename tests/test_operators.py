import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expsamp import (
    DurrmeyerEvaluator,
    KernelDescriptor,
    OperatorConfig,
    PreconditionError,
    QuadratureSpec,
    bspline_kernel,
    brute_force_oracle,
    denominator_lower_bound_check,
    get_evaluator,
    index_set,
    max_min_eval,
    max_product_eval,
    maxmin_algebra_checks,
)
from expsamp import operators
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
    den_terms = ev.phi_weights(w) * ev.coefficients("one")
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
