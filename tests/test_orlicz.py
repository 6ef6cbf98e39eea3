import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expsamp import (
    DurrmeyerEvaluator,
    FunctionHandle,
    KernelDescriptor,
    OperatorConfig,
    OrliczOverflowError,
    PhiSpecError,
    QuadratureConvergenceError,
    QuadratureSpec,
    get_evaluator,
    get_test_function,
    jensen_max_checks,
    luxemburg_norm,
    modular,
    modular_convergence_series,
    parse_phi_spec,
    quadrature,
)
from expsamp import operators, orlicz
from helpers import piecewise_constant_handle, step_handle


def _const(c):
    def f(w):
        return np.full_like(np.asarray(w, dtype=float), c)
    return f


GRID = np.geomspace(1e-3, 1e3, 121)
GAUGES = ("power:2.5", "powerlog:1:1", "exppower:1")


def _closed_form_modular(gauge, edges, values, a, b, lam=1.0):
    """``sum zeta(|c_i| lam) log(t_{i+1}/t_i)`` over the pieces clipped to [a, b]."""
    return math.fsum(
        float(gauge(abs(c) * lam)) * math.log(min(t1, b) / max(t0, a))
        for t0, t1, c in zip(edges, edges[1:], values) if min(t1, b) > max(t0, a))


def _closed_form_norm(gauge, edges, values):
    """Luxemburg norm of a step signal by scalar bisection to the last bit."""
    def above_one(ell):
        try:
            return _closed_form_modular(gauge, edges, values, edges[0], edges[-1], 1.0 / ell) > 1.0
        except OrliczOverflowError:
            return True

    lo, hi = 1e-12, 1.0
    while above_one(hi):
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above_one(mid) else (lo, mid)
    return hi


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


@pytest.mark.parametrize("spec_text", GAUGES)
@pytest.mark.parametrize("edges,values,breakpoints", [
    pytest.param([0.5, 1.3, 2.2, 4.0], [2.0, 0.4, 1.7], (1.3, 2.2), id="inside"),
    pytest.param([0.4, 0.5, 1.0, 2.2, 3.0, 3.7, 4.0], [0.3, 2.0, 0.4, 1.7, 1.1, 0.8],
                 (0.5, 1.0, 2.2, 3.0, 3.7), id="at-ends-and-outside"),
    pytest.param([0.5, 1.3, 2.2, 4.0], [2.0, 0.4, 1.7], (2.2, 1.3, 2.2, 1.3, 2.2),
                 id="duplicates"),
    pytest.param([0.5, 1.3, 1.3 * (1 + 5e-13), 2.2, 4.0], [2.0, 0.4, 1.7, 0.9],
                 (1.3, 1.3 * (1 + 5e-13), 2.2), id="closer-than-1e-12"),
])
def test_split_modular_matches_closed_form(spec_text, edges, values, breakpoints, monkeypatch):
    gauge = parse_phi_spec(spec_text)
    a, b = 1.0, 3.0
    h = step_handle(edges, values, breakpoints)
    # the engine runs once over the whole range, cut at the distinct interior
    # breakpoints, with the whole default budget
    calls = []
    engine = quadrature.integrate_log

    def recorded(g, lo, hi, spec, *, cuts=()):
        calls.append((lo, hi, tuple(cuts), spec.abs_tol))
        return engine(g, lo, hi, spec, cuts=cuts)

    monkeypatch.setattr(quadrature, "integrate_log", recorded)
    for lam in (0.5, 1.0, 2.0):
        calls.clear()
        got = modular(gauge, h, a, b, lam=lam).modular_value
        assert got == pytest.approx(_closed_form_modular(gauge, edges, values, a, b, lam),
                                    rel=0, abs=1e-12)
        cuts = tuple(sorted({math.log(t) for t in edges[1:-1] if a < t < b}))
        assert calls == [(math.log(a), math.log(b), cuts, QuadratureSpec().abs_tol)]


def test_split_modular_agrees_with_undeclared_jumps():
    rng = np.random.default_rng(21)
    spec = QuadratureSpec(abs_tol=1e-10)
    for spec_text in GAUGES:
        gauge = parse_phi_spec(spec_text)
        for _ in range(3):
            h = piecewise_constant_handle(rng, 1.0, math.e, lo=0.1, hi=2.0)
            split = modular(gauge, h, 1.0, math.e, spec=spec).modular_value
            whole = modular(gauge, lambda w: h(w), 1.0, math.e, spec=spec).modular_value
            assert split == pytest.approx(whole, rel=0, abs=spec.abs_tol)


def test_modular_non_finite_signal_and_gauge_overflow():
    holey = step_handle([1.0, 2.0, math.e], [0.5, math.nan], (2.0,), name="holey")
    with pytest.raises(ValueError, match="holey"):
        modular(parse_phi_spec("power:2"), holey, 1.0, math.e)
    # a finite signal whose gauge value overflows is an Orlicz overflow
    with pytest.raises(OrliczOverflowError, match="lambda=1"):
        modular(parse_phi_spec("power:2"), _const(1e300), 1.0, math.e)


def test_luxemburg_unit_constant():
    for p in (1.5, 2.0, 3.0):
        got = luxemburg_norm(parse_phi_spec(f"power:{p}"), _const(1.0), 1.0, math.e, tol=1e-9)
        assert got == pytest.approx(1.0, abs=1e-8)




def test_luxemburg_unbounded_bracket():
    from expsamp import UnboundedNormError

    with pytest.raises(UnboundedNormError):
        luxemburg_norm(parse_phi_spec("power:2"), _const(1e300), 1.0, math.e)


def test_luxemburg_modular_far_above_one():
    # the norm's modulars run at abs_tol 1e-12, below the rounding floor of
    # the modular 9e4 at l = 1; such a trial is above one all the same
    gauge, h = parse_phi_spec("power:2"), _const(300.0)
    with pytest.raises(QuadratureConvergenceError):
        modular(gauge, h, 1.0, math.e, spec=QuadratureSpec(abs_tol=1e-12))
    tol = 1e-9
    ell = luxemburg_norm(gauge, h, 1.0, math.e, tol=tol)
    assert ell - tol < 300.0 <= ell


def test_luxemburg_reraises_modular_not_clear_of_one(monkeypatch):
    def unresolved(phi, h, a, b, lam, spec):
        raise QuadratureConvergenceError("not met", estimate=1.2, error_bound=0.3)

    monkeypatch.setattr(orlicz, "modular", unresolved)
    with pytest.raises(QuadratureConvergenceError):
        luxemburg_norm(parse_phi_spec("power:2"), _const(1.0), 1.0, math.e)


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


@pytest.fixture
def modular_calls(monkeypatch):
    """The scaling ``lam`` of every modular run through ``orlicz.modular``."""
    calls = []
    engine = orlicz.modular

    def counted(*args, **kw):
        calls.append(kw["lam"])
        return engine(*args, **kw)

    monkeypatch.setattr(orlicz, "modular", counted)
    return calls


def test_luxemburg_zero_handle(modular_calls):
    # the frozen search walks down to its lower exit, lo = 0, and one
    # adaptive modular confirms its upper end
    for spec_text in ("power:2", "exppower:1", "powerlog:1:1"):
        modular_calls.clear()
        assert luxemburg_norm(parse_phi_spec(spec_text), _const(0.0), 1.0, math.e) == 0.0
        assert len(modular_calls) == 2, spec_text


def test_luxemburg_narrow_step():
    # a step of height 5 on a thousandth of [1, e] in log w, strictly
    # between two points of an equispaced 1001-point grid in log w
    grid = np.exp(np.linspace(0.0, 1.0, 1001))
    edges = [1.0, grid[500] * (1 + 1e-5), grid[501] * (1 - 1e-5), math.e]
    values = [0.0, 5.0, 0.0]
    h = step_handle(edges, values, edges[1:3])
    gauge, tol = parse_phi_spec("power:2"), 1e-9
    ell = luxemburg_norm(gauge, h, 1.0, math.e, tol=tol)
    want = _closed_form_norm(gauge, edges, values)
    assert want == pytest.approx(0.1565247584, abs=1e-10)
    assert ell - tol < want <= ell


def test_luxemburg_non_finite_signal_raises(modular_calls):
    holey = FunctionHandle(name="holey", domain=(1.0, math.e), evaluator=lambda w: np.where(
        np.asarray(w) > 2.0, np.nan, 0.5))
    with pytest.raises(ValueError, match="holey"):
        luxemburg_norm(parse_phi_spec("power:2"), holey, 1.0, math.e)
    assert len(modular_calls) == 1


@pytest.mark.parametrize("spec_text", ["power:p", "powerlog:1:1", "exppower:1"])
def test_luxemburg_brackets_closed_form(spec_text, modular_calls):
    rng = np.random.default_rng(22)
    tol = 1e-9
    counts = []
    for _ in range(6):
        a = float(np.exp(rng.uniform(-1.0, 0.0)))
        b = float(np.exp(rng.uniform(0.5, 2.0)))
        p = float(rng.uniform(1.2, 3.5))
        gauge = parse_phi_spec(f"power:{p!r}" if spec_text == "power:p" else spec_text)
        h = piecewise_constant_handle(rng, a, b, lo=0.1, hi=3.0, max_pieces=5)
        edges = [a, *h.breakpoints, b]
        values = [float(h(0.5 * (t0 + t1))) for t0, t1 in zip(edges, edges[1:])]
        modular_calls.clear()
        ell = luxemburg_norm(gauge, h, a, b, tol=tol)
        want = _closed_form_norm(gauge, edges, values)
        assert ell - tol < want <= ell
        counts.append(len(modular_calls))
    # one modular for the rule and two to confirm the frozen search's bracket
    assert counts == [3] * len(counts), counts


def test_luxemburg_bisects_when_regula_falsi_stalls(monkeypatch):
    # a modular that leaps across 1 at l = 0.7 keeps every regula falsi
    # point tol/2 below the upper end; only the forced bisections close the
    # bracket, at most four steps to each halving
    def leap(phi, h, a, b, lam, spec):
        return orlicz.ModularReport(1e300 if 1.0 / lam < 0.7 else 0.5, lam, (a, b))

    calls = []
    monkeypatch.setattr(orlicz, "modular", lambda *args, **kw: calls.append(1) or leap(*args, **kw))
    tol = 1e-9
    ell = luxemburg_norm(parse_phi_spec("power:2"), _const(1.0), 1.0, math.e, tol=tol)
    assert ell - tol < 0.7 <= ell
    assert len(calls) <= 2 + 4 * math.ceil(math.log2(0.5 / tol))


def test_bracket_root_ends_below_the_float_spacing():
    # near 1e8 the float spacing is 1.5e-8, above tol = 1e-9, so the width
    # can never reach tol; the search must stop at adjacent floats
    root, calls = 1e8 + 0.37, []

    def excess(ell):
        calls.append(ell)
        assert len(calls) <= 200, "more than 200 evaluations"
        return (root / ell) ** 2 - 1.0

    lo, hi = orlicz._bracket_root(excess, 1.0, excess(1.0), 1.0, 1e-9)
    assert excess(lo) > 0 >= excess(hi)
    assert hi == math.nextafter(lo, math.inf)
    assert lo < root <= hi + 1e-8


def test_luxemburg_norm_of_a_constant_far_above_one():
    h = FunctionHandle(name="c1e8", domain=(0.0, 9.0), evaluator=_const(1e8))
    assert luxemburg_norm(parse_phi_spec("power:2"), h, 1.0, math.e) == 1e8


@pytest.fixture
def root_searches(monkeypatch):
    """The trial points of every ``orlicz._bracket_root`` search, each list
    headed by the search's start point."""
    searches = []
    root = orlicz._bracket_root

    def recorded(excess, x, f_x, *args):
        trials = [x]
        searches.append(trials)
        return root(lambda ell: trials.append(ell) or excess(ell), x, f_x, *args)

    monkeypatch.setattr(orlicz, "_bracket_root", recorded)
    return searches


def test_luxemburg_overflowing_lower_end_bisects(modular_calls, root_searches, monkeypatch):
    # exppower:1 cannot overflow at the lower bracket end: its zeta(v) is
    # about zeta(v/2)^2, so an overflow at l/2 means I[h/l] >= e^350 times
    # the measure of the overflowing set.  A steep exponential gauge can:
    # here the lower end l = 0.5 overflows while the upper end l = 1 has
    # I[h] <= 1, so the first step bisects, in the frozen search on the
    # first modular's rule and, without a rule, on adaptive modulars.
    gauge = parse_phi_spec("exppower:20")
    edges, values = [1.0, 1.6, math.e], [0.76, 0.6]
    h = step_handle(edges, values, (1.6,))
    with pytest.raises(OrliczOverflowError):
        modular(gauge, h, 1.0, math.e, lam=2.0)
    want = _closed_form_norm(gauge, edges, values)
    tol = 1e-9
    counted = orlicz.modular
    for with_rule in (True, False):
        if not with_rule:
            monkeypatch.setattr(orlicz, "modular",
                                lambda *args, **kw: replace(counted(*args, **kw), rule=None))
        modular_calls.clear()
        root_searches.clear()
        ell = luxemburg_norm(gauge, h, 1.0, math.e, tol=tol)
        assert len(root_searches) == 1
        assert root_searches[0][:3] == pytest.approx([1.0, 0.5, 0.75], rel=1e-15)
        # a trial is recorded as 1 / lam, which can differ from l by an ulp
        trials = [1.0 / lam for lam in modular_calls]
        if with_rule:
            # the rule's modular at l = 1, then the two ends of the bracket
            assert len(trials) == 3 and trials[0] == 1.0
            assert trials[1] == pytest.approx(ell, rel=1e-15)
            assert 0 < trials[1] - trials[2] <= tol * (1 + 1e-6)
        else:
            assert trials == pytest.approx(root_searches[0], rel=1e-15)
        assert ell - tol < want <= ell
        assert len(modular_calls) <= 22


@pytest.mark.parametrize("skew", [1 + 1e-6, 1 - 1e-6])
@pytest.mark.parametrize("spec_text", GAUGES)
def test_luxemburg_continues_past_a_wrong_proposal(skew, spec_text, modular_calls, monkeypatch):
    # rule weights off by a relative 1e-6 move the frozen root by about a
    # thousand tol, so one end of the proposed bracket fails its adaptive
    # check and the search widens outward from there on adaptive modulars
    counted = orlicz.modular

    def skewed(*args, **kw):
        report = counted(*args, **kw)
        rule = report.rule
        return replace(report, rule=lambda: (rule()[0], skew * rule()[1]))

    monkeypatch.setattr(orlicz, "modular", skewed)
    gauge = parse_phi_spec(spec_text)
    edges, values = [1.0, 1.6, math.e], [0.76, 1.6]
    h = step_handle(edges, values, (1.6,))
    tol = 1e-9
    ell = luxemburg_norm(gauge, h, 1.0, math.e, tol=tol)
    want = _closed_form_norm(gauge, edges, values)
    assert ell - tol < want <= ell
    assert 3 < len(modular_calls) <= 22
    # the last two adaptive modulars are the ends of the returned bracket
    # (recorded as 1 / lam, which can differ from l by an ulp)
    lo, hi = sorted(1.0 / lam for lam in modular_calls[-2:])
    assert hi == pytest.approx(ell, rel=1e-15) and 0 < hi - lo <= tol * (1 + 1e-6)


@pytest.mark.parametrize("a, b, tol, match", [
    pytest.param(0.0, math.e, 1e-9, "need 0 < a < b", id="a-zero"),
    pytest.param(1.0, math.inf, 1e-9, "need 0 < a < b", id="b-inf"),
    pytest.param(1.0, math.e, math.inf, "tol must be a positive finite number", id="tol-inf"),
])
def test_luxemburg_rejects_bad_arguments(a, b, tol, match):
    # checked before any modular reads h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            luxemburg_norm(parse_phi_spec("power:2"), _const(2.0), a, b, tol=tol)


def _doubling_ratios(phi, grid):
    return np.array([float(phi(2.0 * v)) / float(phi(v)) for v in grid])


def test_delta2_power_exact():
    phi = parse_phi_spec("power:2")
    ratios = _doubling_ratios(phi, GRID)
    assert ratios.max() == pytest.approx(4.0, rel=1e-12)
    assert ratios.max() <= phi.delta2_constant * (1.0 + 1e-12)


def test_delta2_power_log_bounded():
    phi = parse_phi_spec("powerlog:1:1")
    assert phi.delta2_constant == 4.0
    assert _doubling_ratios(phi, GRID).max() <= phi.delta2_constant * (1.0 + 1e-12)


def test_delta2_exp_power_diverges():
    phi = parse_phi_spec("exppower:1")
    assert phi.delta2 == "fails" and phi.delta2_constant is None
    assert float(phi(40.0)) / float(phi(20.0)) > 1e6


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


@pytest.mark.parametrize("n_list, message", [
    ([], "is empty"), ([2.5], "an integer, got 2.5"), ([3, 4.5], "an integer, got 4.5"),
], ids=["empty", "fraction", "second-fraction"])
def test_modular_series_refuses_bad_n_lists(b2, n_list, message):
    # an empty list gave an empty series; 2.5 ran as n = 2
    cfg = OperatorConfig(phi=b2, psi=b2, n=2, a=1.0, b=math.e**2)
    reads = []
    with pytest.raises(ValueError, match=message):
        modular_convergence_series(parse_phi_spec("power:2"), "max_product",
                                   lambda w: reads.append(w) or _const(0.4)(w), cfg, n_list)
    assert reads == []


def test_modular_series_h2_non_increasing(b2, jackson, h2):
    # subset of the published n grid; the full series is exercised by the
    # acceptance suite and `expsamp reproduce modular`
    cfg = OperatorConfig(phi=b2, psi=jackson, n=17, a=0.25, b=3.0,
                         quad=QuadratureSpec(abs_tol=1e-6))
    series = modular_convergence_series(parse_phi_spec("power:2"), "max_product",
                                        h2, cfg, [17, 35])
    assert series[1].modular_value <= series[0].modular_value


@pytest.mark.parametrize("which,cuts", [
    ("h1", ()),
    ("h2", tuple(math.log(t) for t in (0.6, 1.2, 1.8, 2.4))),
])
def test_modular_series_is_one_modular_per_n(b2, jackson, which, cuts, monkeypatch):
    # each value is one modular of the error signal, cut at h's breakpoints
    # and, for the B-spline phi, at the operator's pieces
    calls = _recorded_modular_calls(b2, jackson, which, monkeypatch)
    assert len(calls) == 2
    for lo, hi, got, abs_tol in calls:
        assert (lo, hi, abs_tol) == (math.log(0.25), math.log(3.0), 1e-6)
        assert set(cuts) <= set(got) and len(got) > len(cuts) + 40


@pytest.mark.parametrize("which,cuts", [
    ("h1", ()),
    ("h2", tuple(math.log(t) for t in (0.6, 1.2, 1.8, 2.4))),
])
def test_modular_series_unbounded_phi_cuts_at_h_only(jackson, which, cuts, monkeypatch):
    # a phi without bounded support declares no pieces
    calls = _recorded_modular_calls(jackson, jackson, which, monkeypatch)
    assert calls == [(math.log(0.25), math.log(3.0), cuts, 1e-6)] * 2


def _recorded_modular_calls(phi, psi, which, monkeypatch):
    """(lo, hi, cuts, abs_tol) of each ``integrate_log`` call of a two-value
    max-product series."""
    calls = []
    engine = quadrature.integrate_log

    def recorded(g, lo, hi, spec, *, cuts=()):
        calls.append((lo, hi, tuple(cuts), spec.abs_tol))
        return engine(g, lo, hi, spec, cuts=cuts)

    monkeypatch.setattr(quadrature, "integrate_log", recorded)
    cfg = OperatorConfig(phi=phi, psi=psi, n=17, a=0.25, b=3.0,
                         quad=QuadratureSpec(abs_tol=1e-6))
    series = modular_convergence_series(parse_phi_spec("power:2"), "max_product",
                                        get_test_function(which), cfg, [17, 35])
    assert len(series) == 2
    return calls


@pytest.mark.parametrize("which", ["h1", "h2"])
@pytest.mark.parametrize("kind", ["max_product", "max_min"])
def test_modular_series_matches_uncut(b3, fejer, kind, which):
    # the pieces move where the error is integrated, not its value
    tol = 1e-8
    cfg = OperatorConfig(phi=b3, psi=fejer, n=9, a=0.25, b=3.0, quad=QuadratureSpec(abs_tol=tol))
    h, gauge = get_test_function(which), parse_phi_spec("power:2")
    series = modular_convergence_series(gauge, kind, h, cfg, [9, 17])
    for rep, n in zip(series, [9, 17]):
        ev = get_evaluator(replace(cfg, n=n))

        def error(ws, ev=ev):
            vals, skipped = ev.eval_grid(kind, h, ws)
            return np.where(skipped, 0.0, vals - h(ws))

        err = FunctionHandle(name="error", domain=(cfg.a, cfg.b), evaluator=error,
                             breakpoints=h.breakpoints)
        uncut = modular(gauge, err, cfg.a, cfg.b, spec=cfg.quad).modular_value
        assert rep.modular_value == pytest.approx(uncut, rel=0, abs=tol)


def test_modular_series_reads_the_error_in_blocks(b2, h2, monkeypatch):
    # phi cut to |x| < 1/4 leaves nodes with no weight, so some are skipped;
    # eval_grid reads at most a block of nodes a call, and the series is the
    # same, bit for bit and skip for skip, with blocks of 37
    gapped = KernelDescriptor(name="gapped-series", family="bspline", params=(2.0,),
                              support=(math.exp(-1.0), math.e))
    object.__setattr__(gapped, "eval_log", lambda x: np.where(
        np.abs(x) < 0.25, b2.eval_log(np.asarray(x, dtype=float)), 0.0))
    cfg = OperatorConfig(phi=gapped, psi=b2, n=3, a=0.25, b=3.0,
                         quad=QuadratureSpec(abs_tol=1e-6))
    reads = []
    eval_grid = DurrmeyerEvaluator.eval_grid
    monkeypatch.setattr(DurrmeyerEvaluator, "eval_grid",
                        lambda self, kind, h, ws: reads.append(np.size(ws)) or eval_grid(
                            self, kind, h, ws))
    gauge, blocks = parse_phi_spec("power:2"), (operators._GRID_BLOCK, 37)
    for kind in ("max_product", "max_min"):
        series, calls = [], []
        for block in blocks:
            monkeypatch.setattr(operators, "_GRID_BLOCK", block)
            reads.clear()
            series.append(modular_convergence_series(gauge, kind, h2, cfg, [3, 4]))
            assert max(reads) <= block
            calls.append(len(reads))
        assert calls[0] < calls[1]
        for w, g in zip(*series):
            assert g.modular_value.hex() == w.modular_value.hex()
            assert g.skipped_nodes == w.skipped_nodes > 0


def test_modular_report_states_its_error(b3, fejer):
    # a modular carries its quadrature's achieved estimate and target, as
    # does every value of a modular series
    spec = QuadratureSpec(abs_tol=1e-9)
    edges = [1.0, 1.4, 2.0, math.e]
    h = step_handle(edges, [0.5, 1.5, 0.8], edges[1:-1])
    reports = [modular(parse_phi_spec(g), h, 1.0, math.e, spec=spec) for g in GAUGES]
    reports.append(modular(parse_phi_spec("power:2"), lambda w: np.sin(np.log(w) * 7.0),
                           1.0, math.e, spec=spec))
    cfg = OperatorConfig(phi=b3, psi=fejer, n=9, a=0.25, b=3.0, quad=spec)
    for kind in ("max_product", "max_min"):
        reports += modular_convergence_series(parse_phi_spec("power:2"), kind,
                                              get_test_function("h2"), cfg, [9, 17])
    for rep in reports:
        assert rep.error_bound == spec.abs_tol / 4
        assert 0.0 <= rep.error_estimate <= rep.error_bound
    # a modular keeps its quadrature rule; the series drops it, so a kept
    # series pins none of its integrals' panels
    assert all(rep.rule is not None for rep in reports[:4])
    assert all(rep.rule is None for rep in reports[4:])


def test_modular_series_overflow_names_lambda(b2):
    cfg = OperatorConfig(phi=b2, psi=b2, n=2, a=1.0, b=math.e**2,
                         quad=QuadratureSpec(abs_tol=1e-8))
    with pytest.raises(OrliczOverflowError, match=r"lambda=1e\+200"):
        modular_convergence_series(parse_phi_spec("power:2"), "max_product",
                                   get_test_function("h1"), cfg, [2, 3], lam=1e200)

