import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expsamp import (
    OperatorConfig,
    OrliczOverflowError,
    PhiSpecError,
    QuadratureSpec,
    delta2_probe,
    jensen_max_checks,
    luxemburg_norm,
    modular,
    modular_convergence_series,
    modular_domination_ratio,
    parse_phi_spec,
)
from helpers import piecewise_constant_handle


def _const(c):
    def f(w):
        return np.full_like(np.asarray(w, dtype=float), c)
    return f


GRID = np.geomspace(1e-3, 1e3, 121)


def test_parse_phi_spec():
    p = parse_phi_spec("power:2")
    assert p.family == "power" and p.delta2 == "holds" and p.delta2_constant == 4.0
    e = parse_phi_spec("EXPPOWER:1")
    assert e.family == "exp_power" and e.delta2 == "fails" and e.delta2_constant is None
    pl = parse_phi_spec("powerlog:1:1")
    assert pl.delta2_constant == 4.0
    for bad in ("power:1", "power", "exppower:0", "powerlog:0.5:1", "weird:1"):
        with pytest.raises(PhiSpecError):
            parse_phi_spec(bad)


def test_gauge_shape_properties():
    # zero at zero, positive for positive input, non-decreasing, midpoint
    # convex, divergent at infinity
    v = np.geomspace(1e-6, 50.0, 400)
    for spec_text in ("power:2", "exppower:1", "powerlog:1:1"):
        gauge = parse_phi_spec(spec_text)
        try:
            vals = np.asarray(gauge(v))
        except Exception:
            v_clip = v[v < 20]
            vals = np.asarray(gauge(v_clip))
            v = v_clip
        assert gauge(0.0) == 0.0
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) >= 0)
        mids = np.asarray(gauge((v[:-1] + v[1:]) / 2.0))
        assert np.all(mids <= 0.5 * (vals[:-1] + vals[1:]) + 1e-12)
        assert vals[-1] > 100.0


def test_gauge_values():
    p = parse_phi_spec("power:3")
    assert p(2.0) == 8.0
    e = parse_phi_spec("exppower:1")
    assert e(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
    pl = parse_phi_spec("powerlog:2:1")
    assert pl(1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert p(0.0) == 0.0 and e(0.0) == 0.0 and pl(0.0) == 0.0


def test_modular_constant_examples():
    p2 = parse_phi_spec("power:2")
    assert modular(p2, _const(1.0), 1.0, math.e).modular_value == pytest.approx(1.0, abs=1e-10)
    for p, c, a, b in [(2.5, 0.7, 1.0, 4.0), (1.5, 1.3, 0.5, 2.0)]:
        rep = modular(parse_phi_spec(f"power:{p}"), _const(c), a, b)
        assert rep.modular_value == pytest.approx(c**p * math.log(b / a), rel=1e-10)
    e1 = parse_phi_spec("exppower:1")
    for c in (0.5, 1.0, 2.0):
        rep = modular(e1, _const(c), 1.0, math.e)
        assert rep.modular_value == pytest.approx(math.exp(c) - 1.0, rel=1e-10)


def test_modular_overflow_names_lambda():
    e1 = parse_phi_spec("exppower:1")
    with pytest.raises(OrliczOverflowError, match="lambda=1000"):
        modular(e1, _const(1.0), 1.0, math.e, lam=1000.0)


def test_luxemburg_unit_constant():
    for p in (1.5, 2.0, 3.0):
        got = luxemburg_norm(parse_phi_spec(f"power:{p}"), _const(1.0), 1.0, math.e, tol=1e-9)
        assert got == pytest.approx(1.0, abs=1e-8)


def test_luxemburg_zero_handle():
    assert luxemburg_norm(parse_phi_spec("power:2"), _const(0.0), 1.0, math.e) == 0.0


def test_luxemburg_unbounded_bracket():
    from expsamp import UnboundedNormError

    with pytest.raises(UnboundedNormError):
        luxemburg_norm(parse_phi_spec("power:2"), _const(1e300), 1.0, math.e)


def test_luxemburg_scaled_interval():
    got = luxemburg_norm(parse_phi_spec("power:2"), _const(3.0), 1.0, math.e**4, tol=1e-9)
    assert got == pytest.approx(6.0, abs=1e-7)


def test_luxemburg_matches_lp_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(8):
        p = float(rng.uniform(1.2, 3.5))
        gauge = parse_phi_spec(f"power:{p}")
        h = piecewise_constant_handle(rng, 1.0, math.e**2, lo=0.1, hi=2.0)
        got = luxemburg_norm(gauge, h, 1.0, math.e**2, tol=1e-9)
        want = modular(gauge, h, 1.0, math.e**2).modular_value ** (1.0 / p)
        assert got == pytest.approx(want, abs=1e-6)


def test_luxemburg_modular_consistency():
    rng = np.random.default_rng(18)
    for spec_text in ("power:2", "powerlog:1:1", "exppower:1"):
        gauge = parse_phi_spec(spec_text)
        h = piecewise_constant_handle(rng, 1.0, math.e, lo=0.2, hi=3.0)
        ell = luxemburg_norm(gauge, h, 1.0, math.e, tol=1e-9)
        val = modular(gauge, lambda w: np.asarray(h(w)) / ell, 1.0, math.e).modular_value
        assert val <= 1.0 + 1e-6


def test_delta2_power_exact():
    rep = delta2_probe(parse_phi_spec("power:2"), GRID)
    assert rep.sup_ratio == pytest.approx(4.0, rel=1e-12)
    assert rep.within_declared


def test_delta2_power_log_bounded():
    rep = delta2_probe(parse_phi_spec("powerlog:1:1"), GRID)
    assert rep.sup_ratio <= 4.0 + 1e-12
    assert rep.within_declared


def test_delta2_exp_power_diverges():
    grid = np.geomspace(1e-3, 1e3, 61)
    rep = delta2_probe(parse_phi_spec("exppower:1"), grid)
    assert rep.diverges
    ratio_at_20 = (math.expm1(40.0)) / (math.expm1(20.0))
    assert ratio_at_20 > 1e6
    assert rep.sup_ratio > 1e6


def test_delta2_grid_validation():
    with pytest.raises(ValueError):
        delta2_probe(parse_phi_spec("power:2"), np.geomspace(0.1, 10.0, 11))


def test_jensen_max_checks_all_gauges():
    for spec_text in ("power:2", "exppower:1", "powerlog:1:1"):
        rep = jensen_max_checks(parse_phi_spec(spec_text), seed=42, cases=10_000)
        assert rep.passed, rep.violations[:3]


@given(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=16))
@settings(max_examples=200, deadline=None)
def test_jensen_max_hypothesis(values):
    gauge = parse_phi_spec("powerlog:1:1")
    arr = np.array(values)
    zmax = float(gauge(float(arr.max())))
    assert zmax <= float(np.max(np.asarray(gauge(2.0 * arr)))) + 0.0
    assert zmax == float(np.max(np.asarray(gauge(arr))))


def test_modular_convexity():
    rng = np.random.default_rng(19)
    gauge = parse_phi_spec("power:2")
    spec = QuadratureSpec(abs_tol=1e-10)
    for _ in range(10):
        f = piecewise_constant_handle(rng, 1.0, math.e, lo=0.0, hi=2.0, name="f")
        g = piecewise_constant_handle(rng, 1.0, math.e, lo=0.0, hi=2.0, name="g")

        def avg(w):
            return 0.5 * (np.asarray(f(w)) + np.asarray(g(w)))

        lhs = modular(gauge, avg, 1.0, math.e, spec=spec).modular_value
        rhs = 0.5 * (modular(gauge, f, 1.0, math.e, spec=spec).modular_value
                     + modular(gauge, g, 1.0, math.e, spec=spec).modular_value)
        assert lhs <= rhs + 2 * spec.abs_tol


def test_scaling_monotonicity():
    rng = np.random.default_rng(20)
    gauge = parse_phi_spec("powerlog:1:1")
    spec = QuadratureSpec(abs_tol=1e-10)
    h = piecewise_constant_handle(rng, 1.0, math.e, lo=0.0, hi=2.0)
    lams = [0.3, 0.7, 1.0, 2.0, 5.0]
    vals = [modular(gauge, h, 1.0, math.e, lam=l, spec=spec).modular_value for l in lams]
    for v0, v1 in zip(vals, vals[1:]):
        assert v0 <= v1 + 2 * spec.abs_tol


def test_modular_series_constant_is_zero(b2):
    cfg = OperatorConfig(phi=b2, psi=b2, n=2, a=1.0, b=math.e**2,
                         quad=QuadratureSpec(abs_tol=1e-9))
    series = modular_convergence_series(parse_phi_spec("power:2"), "max_product",
                                        _const(0.4), cfg, [2, 3, 5])
    for rep in series:
        assert rep.modular_value <= 1e-10
        assert rep.skipped_nodes == 0


def test_modular_series_requires_increasing_n(b2):
    cfg = OperatorConfig(phi=b2, psi=b2, n=2, a=1.0, b=math.e**2)
    with pytest.raises(ValueError):
        modular_convergence_series(parse_phi_spec("power:2"), "max_product",
                                   _const(0.4), cfg, [5, 3])


def test_modular_series_h2_non_increasing(b2, jackson, h2):
    # subset of the published n grid; the full series is exercised by the
    # acceptance suite and `expsamp reproduce modular`
    cfg = OperatorConfig(phi=b2, psi=jackson, n=17, a=0.25, b=3.0,
                         quad=QuadratureSpec(abs_tol=1e-6))
    series = modular_convergence_series(parse_phi_spec("power:2"), "max_product",
                                        h2, cfg, [17, 35])
    assert series[1].modular_value <= series[0].modular_value


def test_domination_ratio_diagnostic(b3, fejer):
    cfg = OperatorConfig(phi=b3, psi=fejer, n=5, a=0.25, b=3.0)
    ratio = modular_domination_ratio(cfg)
    assert math.isfinite(ratio) and ratio > 0
