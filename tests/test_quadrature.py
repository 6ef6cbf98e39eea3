import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import expsamp
from expsamp import (
    FunctionHandle,
    QuadratureConvergenceError,
    QuadratureSpec,
    bspline_kernel,
    durrmeyer_coefficient,
    integrate_log,
    mellin_integrate,
    modular,
    parse_phi_spec,
    quadrature,
)
from helpers import step_handle


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)


def test_constant_unit_mass(quad):
    assert mellin_integrate(lambda v: np.ones_like(v), 1.0, math.e, quad) == pytest.approx(1.0, abs=1e-12)


def test_log_weight(quad):
    assert mellin_integrate(np.log, 1.0, math.e, quad) == pytest.approx(0.5, abs=1e-12)


def test_bspline_mass_vs_trapezoid_oracle(b2, quad):
    val = mellin_integrate(b2, math.exp(-1), math.e, quad)
    x = np.linspace(-1.0, 1.0, 1_000_001)
    oracle = float(np.trapezoid(1.0 - np.abs(x), x))
    assert val == pytest.approx(1.0, abs=1e-8)
    assert val == pytest.approx(oracle, abs=1e-8)


def test_leggauss_matches_numpy_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    for n in range(1, 65):
        x, w = quadrature._leggauss(n)
        want_x, want_w = leggauss(n)
        assert x.tobytes() == want_x.tobytes(), n
        assert w.tobytes() == want_w.tobytes(), n


def test_luxemburg_norm_does_not_import_numpy_polynomial():
    script = (
        "import math, sys\n"
        "import numpy as np\n"
        "import expsamp\n"
        "h = expsamp.FunctionHandle(name='c', domain=(0.0, 9.0),\n"
        "                           evaluator=lambda w: np.full(np.shape(w), 2.0))\n"
        "norm = expsamp.luxemburg_norm(expsamp.parse_phi_spec('power:2'), h, 1.0, math.e)\n"
        "assert abs(norm - 2.0) <= 1e-9, norm\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    src = str(Path(expsamp.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def test_invalid_bounds(quad):
    with pytest.raises(ValueError):
        mellin_integrate(np.log, -1.0, 2.0, quad)
    with pytest.raises(ValueError):
        mellin_integrate(np.log, 2.0, 1.0, quad)


def test_nonfinite_integrand_rejected(quad):
    with pytest.raises(ValueError):
        mellin_integrate(lambda v: np.where(v > 1.5, np.nan, 1.0), 1.0, math.e, quad)


def test_convergence_error_carries_estimate(monkeypatch):
    # integrable endpoint singularity: u^(-1/2) on (0, 1]; a shallow depth
    # budget cannot meet the tolerance
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 4)
    spec = QuadratureSpec(abs_tol=1e-12)
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_log(lambda u: 1.0 / np.sqrt(np.abs(u) + 1e-300), 1e-12, 1.0, spec)
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound > 1e-12


@given(
    loga=st.floats(-2.0, 1.0),
    width=st.floats(0.3, 2.0),
    s=st.floats(-2.0, 3.0).filter(lambda s: abs(s) > 1e-3),
)
@settings(max_examples=40, deadline=None)
def test_power_closed_form(loga, width, s):
    a, b = math.exp(loga), math.exp(loga + width)
    got = mellin_integrate(lambda v: v**s, a, b, QuadratureSpec(abs_tol=1e-11))
    want = (b**s - a**s) / s
    assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_refinement_batches_splits():
    # an oscillation that takes about a thousand 8-node panels plus an
    # undeclared jump: a round of splits per integrand call takes 34 calls
    # (35,836 points); splitting one panel per call took 84 calls even with
    # 16-node panels, which need about 350
    calls = []

    def g(u):
        calls.append(u.size)
        return np.cos(1000.0 * u) + (u > 0.3)

    res = integrate_log(g, 0.0, 1.0, QuadratureSpec(abs_tol=1e-10))
    assert res.value == pytest.approx(math.sin(1000.0) / 1000.0 + 0.7, abs=1e-10)
    assert len(calls) <= 40


@pytest.mark.parametrize("jumps", [40, 3000])
def test_cuts_remove_jump_localization(jumps):
    # every jump declared: each segment's panels converge at once, in the
    # fixed three integrand calls, to the exact value; 3000 segments start
    # with one panel each, within the cap that each cut raises by two
    calls = []

    def g(u):
        calls.append(u.size)
        return np.floor(jumps * u) % 2.0

    cuts = [i / jumps for i in range(1, jumps)]
    res = integrate_log(g, 0.0, 1.0, QuadratureSpec(abs_tol=1e-10), cuts=cuts)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert len(calls) == 3


def test_start_panels_no_wider_than_an_eighth():
    # a segment of width s starts with ceil(8 s / (hi - lo)) equal panels
    calls = []

    def g(u):
        calls.append(u.copy())
        return np.cos(u)

    lo, hi = -0.3, 2.1
    cuts = [-0.29, -0.2, 0.25, 0.26, 1.9, 2.0999]
    res = integrate_log(g, lo, hi, QuadratureSpec(abs_tol=1e-12), cuts=cuts)
    assert res.value == pytest.approx(math.sin(hi) - math.sin(lo), rel=0, abs=1e-12)
    xg = quadrature._leggauss(quadrature._PANEL_NODES)[0]
    rows = calls[0].reshape(-1, xg.size)
    widths = (rows[:, -1] - rows[:, 0]) / (xg[-1] - xg[0])
    assert widths.max() <= (hi - lo) / 8 * (1 + 1e-9)
    bounds = np.array([lo, *cuts, hi])
    per = np.maximum(np.ceil(8 * np.diff(bounds) / (hi - lo)), 1)
    assert rows.shape[0] == per.sum()
    assert np.array_equal(np.searchsorted(bounds, rows[:, 0]) - 1,
                          np.repeat(np.arange(per.size), per.astype(int)))


def _quietest_jump():
    """The panel-relative place c in (0, 1) of a unit step whose panel error
    the engine's estimate understates most, the estimate per unit width
    there, and its ratio to the half-panel pair's actual error (about a
    fifth)."""
    m = quadrature._PANEL_NODES
    xg, wg = quadrature._leggauss(m)
    xc, wc = quadrature._clenshaw_curtis(2 * m)
    nodes = np.sort(np.concatenate([0.5 + 0.5 * xg, 0.25 + 0.25 * xg, 0.75 + 0.25 * xg,
                                    0.5 + 0.5 * xc]))
    c = np.linspace(nodes[:-1], nodes[1:], 41)[1:-1].ravel()
    step = lambda t: (t[None, :] > c[:, None]).astype(float)
    coarse = 0.5 * step(0.5 + 0.5 * xg) @ wg
    fine = 0.25 * (step(0.25 + 0.25 * xg) @ wg + step(0.75 + 0.25 * xg) @ wg)
    cc = 0.5 * step(0.5 + 0.5 * xc) @ wc
    estimate = np.abs(fine - coarse) + np.abs(cc - coarse)
    i = np.argmin(estimate / np.abs(fine - (1.0 - c)))
    return float(c[i]), float(estimate[i]), float(estimate[i] / abs(fine[i] - (1.0 - c[i])))


def test_wide_segment_catches_quiet_jump():
    # an undeclared jump where the two rules nearly agree, in a start panel
    # of a wide segment that sits next to a hundred narrow ones.  Its height
    # puts the start panel's estimate just under the acceptance target, and
    # its actual error above abs_tol, so only the verification sweep can
    # catch it.
    tol = 1e-10
    c, estimate, ratio = _quietest_jump()
    assert ratio < 0.25
    jump = 0.125 * (1 + c)  # in the second of the wide segment's four panels
    height = 0.9 * (tol / 4) / (0.125 * estimate)
    assert height * 0.125 * estimate / ratio > tol
    cuts = [0.5 + 0.005 * i for i in range(100)]

    def g(u):
        return np.cos(3.0 * u) + height * (u > jump)

    res = integrate_log(g, 0.0, 1.0, QuadratureSpec(abs_tol=tol), cuts=cuts)
    assert res.value == pytest.approx(math.sin(3.0) / 3.0 + height * (1.0 - jump), rel=0, abs=tol)


def test_error_estimate_within_bound():
    # the achieved estimate is reported next to the acceptance target
    rng = np.random.default_rng(5)
    for cuts in ((), (0.25, 0.5), tuple(np.sort(rng.uniform(0.0, 1.0, 30)))):
        for tol in (1e-6, 1e-10):
            res = integrate_log(lambda u: np.cos(40.0 * u) + (u > 0.7), 0.0, 1.0,
                                QuadratureSpec(abs_tol=tol), cuts=cuts)
            assert res.error_bound == tol / 4
            assert 0.0 <= res.error_estimate <= res.error_bound
            assert res.value == pytest.approx(math.sin(40.0) / 40.0 + 0.3, rel=0, abs=tol)


@pytest.mark.parametrize("cuts", [
    pytest.param((0.3, math.nan), id="nan"),
    pytest.param((0.3, math.inf), id="inf"),
    pytest.param((0.6, 0.3), id="decreasing"),
    pytest.param((0.3, 0.3), id="repeated"),
    pytest.param((0.0, 0.5), id="at-lo"),
    pytest.param((0.5, 1.0), id="at-hi"),
    pytest.param((-0.2,), id="below"),
    pytest.param((1.5,), id="above"),
])
def test_bad_cuts_rejected(cuts):
    with pytest.raises(ValueError, match="cuts"):
        integrate_log(lambda u: u, 0.0, 1.0, cuts=cuts)


def test_panel_budget_exhausted(monkeypatch):
    # forty undeclared jumps need far more than 64 live panels
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    with pytest.raises(QuadratureConvergenceError, match="within panel budget") as err:
        integrate_log(lambda u: np.floor(40.0 * u) % 2.0, 0.0, 1.0, QuadratureSpec(abs_tol=1e-10))
    assert err.value.estimate == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# durrmeyer_coefficient
# ---------------------------------------------------------------------------

def test_coefficient_empty_preimage_is_exact_zero(b2, quad):
    # support preimage of B2 at k = 40 lies far right of [1, e^2]
    assert durrmeyer_coefficient(b2, 40, 3, 1.0, math.e**2, "one", quad) == 0.0


def test_coefficient_full_support_unit(b2, quad):
    n, k = 3, 2
    a = math.exp((k - 1) / n)
    b = math.exp((k + 1) / n)
    val = durrmeyer_coefficient(b2, k, n, a, b, "one", quad)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_coefficient_fejer_regression(fejer, quad):
    # k=0, n=1 on [1, e]: equals the dw/w mass of the kernel over [1, e]
    val = durrmeyer_coefficient(fejer, 0, 1, 1.0, math.e, "one", quad)
    u = np.linspace(0.0, 1.0, 2_000_001)
    oracle = float(np.trapezoid(0.5 * np.sinc(u / 2) ** 2, u))
    assert 0.0 < val < 1.0
    assert val == pytest.approx(oracle, abs=1e-9)


def test_coefficient_one_sentinel_matches_callable(b2, quad):
    v1 = durrmeyer_coefficient(b2, 1, 2, 1.0, math.e**2, "one", quad)
    v2 = durrmeyer_coefficient(b2, 1, 2, 1.0, math.e**2, lambda w: np.ones_like(w), quad)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_coefficient_reads_h_off_its_breakpoints(jackson, h2):
    # an endpoint node on a declared jump would read the next branch and
    # send the engine refining towards a jump it was told about
    seen = []

    def record(w):
        seen.append(np.log(np.ravel(w)))
        return h2(w)

    h = FunctionHandle(name="h2-recorded", domain=h2.domain, evaluator=record,
                       breakpoints=h2.breakpoints)
    val = durrmeyer_coefficient(jackson, 5, 17, 0.1, 3.0, h, QuadratureSpec(abs_tol=1e-9))
    ref = durrmeyer_coefficient(jackson, 5, 17, 0.1, 3.0, h2, QuadratureSpec(abs_tol=1e-12))
    assert val == pytest.approx(ref, abs=1e-9)
    u = np.concatenate(seen)
    gaps = np.abs(u[:, None] - np.log(h2.breakpoints)[None, :])
    assert gaps.min() > 1e-14


def _recording(handle):
    """``handle`` with every array its evaluator receives kept in a list."""
    reads = []

    def evaluate(w):
        reads.append(np.array(w, dtype=float))
        return handle.evaluator(w)

    return replace(handle, evaluator=evaluate), reads


def _check_segment_reads(reads, breakpoints):
    """No read on a breakpoint, and every panel's reads in one segment.

    ``integrate_log`` reads its first call as one row of ``nodes =
    quadrature._PANEL_NODES`` Gauss nodes per panel and every later call as
    one row of ``4 nodes + 1`` (two half-panel Gauss rules and the
    Clenshaw-Curtis companion); a row's Gauss nodes lie inside its panel, so
    its panel's segment is the one every read of the row must fall in.
    """
    bps = np.sort(np.asarray(breakpoints))
    nodes = quadrature._PANEL_NODES
    for i, w in enumerate(reads):
        assert not np.isin(w, bps).any()
        rows = w.reshape(-1, nodes if i == 0 else 4 * nodes + 1)
        segment = np.searchsorted(bps, rows)
        assert (segment == segment[:, :1]).all()


def test_segment_reads_and_batching():
    spec = QuadratureSpec()
    edges = [1.0, math.exp(0.2), math.exp(0.5), math.exp(0.8), math.exp(1.5)]
    h, reads = _recording(step_handle(edges, [0.3, 1.7, 0.9, 1.2], edges[1:-1]))

    value = modular(parse_phi_spec("power:2"), h, 1.0, math.exp(1.5), spec=spec).modular_value
    assert value == pytest.approx(0.3**2 * 0.2 + 1.7**2 * 0.3 + 0.9**2 * 0.3 + 1.2**2 * 0.7,
                                  rel=0, abs=1e-12)
    # three cuts, one panel list: the initial coarse rule, the initial
    # panels and one verification sweep
    assert len(reads) == 3
    _check_segment_reads(reads, h.breakpoints)

    # B2 at n = 1, k = 0 covers [0, 1] in u = log w, across all three cuts
    reads.clear()
    durrmeyer_coefficient(bspline_kernel(2), 0, 1, 1.0, math.exp(1.5), h, spec)
    assert reads
    _check_segment_reads(reads, h.breakpoints)


@pytest.mark.parametrize("nodes", [4, 8, 16])
@pytest.mark.parametrize("cuts", [9, 40])
def test_constant_pieces_cost_one_start_panel_each(cuts, nodes, monkeypatch):
    # every segment is narrower than an eighth of the range, so each starts
    # with one panel: `nodes` coarse Gauss nodes, two half-panel rules and a
    # Clenshaw-Curtis companion (4 nodes + 1), and one sweep split of both
    # halves (8 nodes + 2)
    monkeypatch.setattr(quadrature, "_PANEL_NODES", nodes)
    edges = np.exp(np.linspace(0.0, 1.0, cuts + 2))
    values = 0.2 + 0.7 * (np.arange(cuts + 1) % 3) / 2
    h, reads = _recording(step_handle(edges, values, edges[1:-1]))
    rep = modular(parse_phi_spec("power:2"), h, 1.0, math.e)
    assert rep.modular_value == pytest.approx(float(np.sum(values**2)) / (cuts + 1),
                                              rel=0, abs=1e-12)
    assert len(reads) == 3
    assert sum(r.size for r in reads) == (cuts + 1) * (13 * nodes + 3)
    _check_segment_reads(reads, h.breakpoints)


@pytest.mark.parametrize("g, cuts, exact, refined", [
    pytest.param(lambda u: np.cos(3.0 * u) + u * u, (),
                 math.sin(3.0) / 3.0 + 1.0 / 3.0, False, id="uncut"),
    pytest.param(lambda u: np.floor(4.0 * u) % 2.0 + np.cos(u), (0.25, 0.5, 0.75),
                 0.5 + math.sin(1.0), False, id="cut"),
    pytest.param(lambda u: np.cos(40.0 * u) + (u > 0.7), (),
                 math.sin(40.0) / 40.0 + 0.3, True, id="undeclared-jump"),
])
def test_accepted_rule_reproduces_value(g, cuts, exact, refined):
    reads = []

    def recorded(u):
        reads.append(u.copy())
        return g(u)

    res = integrate_log(recorded, 0.0, 1.0, QuadratureSpec(abs_tol=1e-10), cuts=cuts)
    assert res.value == pytest.approx(exact, rel=0, abs=1e-10)
    nodes, weights = res.rule()
    assert math.fsum(weights * g(nodes)) == pytest.approx(res.value, rel=1e-14, abs=1e-15)
    assert math.fsum(weights) == pytest.approx(1.0, rel=1e-14)
    # the rule's nodes are nodes the engine read, two Gauss halves a panel
    assert np.isin(nodes, np.concatenate(reads)).all()
    rows = nodes.reshape(-1, 2 * quadrature._PANEL_NODES)
    # beyond the coarse rule, the start panels and one sweep, rounds of
    # splits localised the jump
    assert (len(reads) > 3) == refined
    assert ((rows >= 0.0) & (rows <= 1.0)).all()
    assert not np.isin(nodes, cuts).any()
    segment = np.searchsorted(cuts, rows)
    assert (segment == segment[:, :1]).all()
    # built on request only, outside equality and repr
    assert res == replace(res, rule=None) and "rule" not in repr(res)


def _random_piecewise_poly(rng, a, b):
    cuts = np.sort(rng.uniform(math.log(a), math.log(b), 2))
    coef = rng.uniform(-1.0, 1.0, (3, 3))

    def f(w):
        x = np.log(np.asarray(w, dtype=float))
        idx = np.clip(np.searchsorted(cuts, x), 0, 2)
        c = coef[idx]
        return c[..., 0] + c[..., 1] * x + c[..., 2] * x * x

    return f


def test_coefficient_linearity():
    rng = np.random.default_rng(7)
    spec = QuadratureSpec(abs_tol=1e-11)
    a, b = 1.0, math.e**2
    psi = bspline_kernel(2)
    for _ in range(10):
        f = _random_piecewise_poly(rng, a, b)
        g = _random_piecewise_poly(rng, a, b)
        k = int(rng.integers(0, 5))
        n = int(rng.integers(1, 4))
        cf = durrmeyer_coefficient(psi, k, n, a, b, f, spec)
        cg = durrmeyer_coefficient(psi, k, n, a, b, g, spec)
        cfg_sum = durrmeyer_coefficient(psi, k, n, a, b, lambda w: f(w) + g(w), spec)
        assert cfg_sum == pytest.approx(cf + cg, abs=2 * spec.abs_tol)


def test_coefficient_positivity():
    rng = np.random.default_rng(11)
    spec = QuadratureSpec(abs_tol=1e-11)
    psi = bspline_kernel(3)
    for _ in range(10):
        f = _random_piecewise_poly(rng, 1.0, math.e**2)
        k = int(rng.integers(0, 6))
        val = durrmeyer_coefficient(psi, k, 2, 1.0, math.e**2, lambda w: np.abs(f(w)), spec)
        assert val >= 0.0


def test_coefficient_substitution_identity(b2):
    # with h = 1 the coefficient equals the kernel mass over the window
    # [e^{-k} a^n, e^{-k} b^n], computed here by a direct independent route
    spec = QuadratureSpec(abs_tol=1e-11)
    for (k, n, a, b) in [(1, 2, 1.0, math.e**2), (0, 1, 0.5, 3.0), (3, 3, 1.0, math.e**2)]:
        val = durrmeyer_coefficient(b2, k, n, a, b, "one", spec)
        lo = max(-1.0, n * math.log(a) - k)
        hi = min(1.0, n * math.log(b) - k)
        if lo >= hi:
            want = 0.0
        else:
            x = np.linspace(lo, hi, 1_000_001)
            want = float(np.trapezoid(1.0 - np.abs(x), x))
        assert val == pytest.approx(want, abs=2 * spec.abs_tol + 1e-9)


def test_refinement_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(8):
        f = _random_piecewise_poly(rng, 1.0, math.e)
        bounds = []
        for tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
            res = integrate_log(lambda u: np.asarray(f(np.exp(u))), 0.0, 1.0,
                                QuadratureSpec(abs_tol=tol))
            assert res.error_bound <= tol
            bounds.append(res.error_bound)
        for b0, b1 in zip(bounds, bounds[1:]):
            assert b1 <= b0


def test_realized_accuracy_meets_bound():
    # discontinuous integrands are where plain |coarse - fine| estimators can
    # be deceived; the realized error must stay below the reported bound
    rng = np.random.default_rng(21)
    spec = QuadratureSpec(abs_tol=1e-11)
    psi = bspline_kernel(2)
    for _ in range(15):
        f = _random_piecewise_poly(rng, 1.0, math.e**2)
        k = int(rng.integers(0, 5))
        n = int(rng.integers(1, 4))
        got = durrmeyer_coefficient(psi, k, n, 1.0, math.e**2, f, spec)
        ref = durrmeyer_coefficient(psi, k, n, 1.0, math.e**2, f,
                                    QuadratureSpec(abs_tol=1e-13))
        assert abs(got - ref) <= spec.abs_tol
