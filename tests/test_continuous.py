import bisect
import dataclasses
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special, stats

from burstkin import continuous
from burstkin.continuous import (
    GridDensity,
    Potential,
    _grid_density,
    _kernel_log_factors,
    _law_ends,
    _log_simpson_weights,
    _prefix_scan,
    _suffix_scan,
    count_modes_continuous,
    default_grid,
    density_from_fixed_point,
    ergodicity_scan,
    geometric_grid,
    kernel_fixed_point,
    kernel_grid,
    kernel_matrix,
    mean_identity_residual,
    phi_from_density_analytic,
    phi_from_density_grid,
    simulate_pdmp,
    stationary_density,
)
from burstkin.errors import (
    DomainError,
    GridTooNarrow,
    ModelError,
    NotIntegrable,
    NumericalBlowup,
    RangeError,
    ToleranceNotMet,
    WindowTooSmall,
)
from burstkin import numerics
from burstkin.numerics import make_rng, trapezoid
from burstkin.models import (
    ConstantRate,
    ContinuousBurstModel,
    ExponentialBurstKernel,
    FiniteSupportNu,
    GaussianExpNu,
    HillRate,
    LinearDecay,
    LinearRate,
    PowerTailNu,
    QuadraticRate,
    SeparableBurstKernel,
)


def gamma_model(lam=2.0, b=1.0):
    """Constant rate, unit decay, exponential bursts: u* = gamma density."""
    return ContinuousBurstModel(ConstantRate(lam), LinearDecay(1.0),
                                ExponentialBurstKernel(b))


def hill_flat_model(kernel):
    """All-ones Hill rate: the rate is identically 1, Q(x) = -ln x."""
    return ContinuousBurstModel(HillRate(1.0, 1.0, 1.0, 1.0, 1.0),
                                LinearDecay(1.0), kernel)


# ---------------------------------------------------------------------------
# grids and containers
# ---------------------------------------------------------------------------

def test_geometric_grid_shape_and_validation():
    g = geometric_grid(0.1, 10.0, 5)
    assert g[0] == pytest.approx(0.1) and g[-1] == pytest.approx(10.0)
    assert np.allclose(np.diff(np.log(g)), np.log(g[1] / g[0]))
    with pytest.raises(ModelError):
        geometric_grid(-1.0, 1.0, 5)
    with pytest.raises(ModelError):
        geometric_grid(0.1, 1.0, 2)


def test_grid_density_container():
    g = np.array([1.0, 2.0, 3.0])
    d = GridDensity(g, np.array([0.0, 1.0, 0.0]))
    assert d.mass() == pytest.approx(1.0)
    assert math.isnan(d.ln_normalization)
    with pytest.raises(ModelError):
        GridDensity(g[::-1].copy(), np.ones(3))
    with pytest.raises(ModelError):
        GridDensity(g, np.ones(4))
    with pytest.raises(GridTooNarrow, match="holds none of the law"):
        _grid_density(g, np.full(3, -np.inf))


def test_kernel_grid_pushes_out_the_leak():
    m = gamma_model()
    g = kernel_grid(m, 64)
    hi = g[-1]
    assert 2.0 * 1.0 / hi < 2e-5  # rate * mean burst / (decay rate * hi)
    assert 2.0 * 1.0 / (0.5 * hi) >= 2e-5     # the doubling stops at the first such top


def test_kernel_grid_respects_finite_support():
    m = hill_flat_model(SeparableBurstKernel(FiniteSupportNu(2.0, 1.0)))
    g = kernel_grid(m, 64)
    assert g[-1] < 2.0
    assert g[-1] == pytest.approx(2.0, rel=1e-9)


def test_default_grid_ends_exactly_at_a_finite_cap():
    # exp(log(cap)) rounds above some caps; the last knot is pinned instead
    rng = np.random.default_rng(17)
    for cap in rng.uniform(0.1, 50.0, 300):
        m = hill_flat_model(SeparableBurstKernel(FiniteSupportNu(float(cap), 2.0)))
        assert default_grid(m, 64)[-1] <= cap
    m = hill_flat_model(SeparableBurstKernel(FiniteSupportNu(11.435163917315647, 2.0)))
    assert default_grid(m)[-1] == 11.435163917315647
    u = stationary_density(m)
    assert u.grid[-1] == 11.435163917315647


def test_default_grid_scale_stays_inside_the_support():
    # mean burst times rate once put the grid's scale far past the cap; the
    # law here is 6 Beta(8, 1.4), and the grid starts at its 1e-12 quantile
    m = ContinuousBurstModel(ConstantRate(8.0), LinearDecay(1.0),
                             SeparableBurstKernel(FiniteSupportNu(6.0, 0.4)))
    g = default_grid(m)
    assert g[-1] == 6.0
    assert special.betainc(8.0, 1.4, g[0] / 6.0) == pytest.approx(1e-12, rel=0.05)
    u = stationary_density(m, g)
    ref = grid_normalized(lambda x: (6.0 - x) ** 0.4 * x ** 7, g)
    assert np.max(np.abs(u.values - ref)) < 1e-12 * np.max(ref)
    assert u.mass_outside == pytest.approx(special.betainc(8.0, 1.4, g[0] / 6.0), rel=1e-9)


def test_kernel_grid_gaussian_tail():
    # the leak estimate needs the mean burst far in the tail, where
    # nu itself underflows
    m = ContinuousBurstModel(ConstantRate(2.0), LinearDecay(1.0),
                             SeparableBurstKernel(GaussianExpNu(1.0, 0.5)))
    g = kernel_grid(m, 256)
    assert 2.0 * m.burst_size.mean_burst(g[-1]) / g[-1] < 2e-5
    k = kernel_matrix(m, g)
    u = density_from_fixed_point(m, kernel_fixed_point(k, tol=1e-10))
    ref = g * np.exp(-g - 0.5 * g * g)
    ref /= float(np.dot(k.weights, ref))
    assert float(np.dot(k.weights, np.abs(u.values - ref))) < 1e-2


# ---------------------------------------------------------------------------
# the hazard potential
# ---------------------------------------------------------------------------

RATE_LAWS = [
    ConstantRate(1.7),
    LinearRate(0.8, 0.4),
    QuadraticRate(0.5, 0.2, 0.1),
    HillRate(2.0, 0.5, 1.0, 0.25, 3.0),
]


def potential_by_quadrature(pot, x, tol=1e-12):
    """Q(x) by direct quadrature of burst_rate/decay: the closed forms' oracle."""
    lo, hi = (x, pot.x_ref) if x <= pot.x_ref else (pot.x_ref, x)
    val = integrate.quad(lambda y: pot.rate.value(y) / (pot.gamma * y), lo, hi,
                         epsabs=tol, epsrel=tol)[0]
    return val if x <= pot.x_ref else -val


@pytest.mark.parametrize("rate", RATE_LAWS, ids=lambda r: type(r).__name__)
def test_potential_closed_form_matches_quadrature(rate):
    m = ContinuousBurstModel(rate, LinearDecay(1.3), ExponentialBurstKernel(0.5))
    pot = Potential(m, x_ref=1.0)
    assert pot.value(1.0) == 0.0
    for x in (0.05, 0.4, 1.0, 2.5, 9.0):
        assert pot.value(x) == pytest.approx(potential_by_quadrature(pot, x), abs=1e-10)
    xs = np.array([0.05, 0.4, 1.0, 2.5, 9.0])
    assert np.all(np.diff(pot.value(xs)) < 0)  # strictly decreasing


def test_potential_anchor_drops_out_of_differences():
    m = gamma_model()
    a = Potential(m, x_ref=1.0)
    b = Potential(m, x_ref=3.7)
    for x, y in ((0.2, 5.0), (1.0, 2.0)):
        assert a.value(x) - a.value(y) == pytest.approx(b.value(x) - b.value(y),
                                                        abs=1e-12)


def test_potential_saturating_rate_has_finite_floor():
    # numerator coefficient 0: the rate shuts off at large x, so the
    # potential levels out instead of running to -inf
    m = ContinuousBurstModel(HillRate(1.0, 0.0, 1.0, 1.0, 1.0), LinearDecay(1.0),
                             ExponentialBurstKernel(0.5))
    pot = Potential(m, x_ref=1.0)
    assert pot.value(0.5) == pytest.approx(math.log(1.5), abs=1e-14)
    assert pot._q_inf == pytest.approx(-math.log(2.0), abs=1e-14)
    assert pot.value(1e12) == pytest.approx(pot._q_inf, abs=1e-9)
    with pytest.raises(RangeError):
        pot.inverse(pot._q_inf - 0.1)
    assert pot.inverse(pot._q_inf) == math.inf


def test_potential_inverse_round_trips():
    m = hill_flat_model(ExponentialBurstKernel(0.5))
    pot = Potential(m, x_ref=1.0)  # Q(x) = -ln x exactly
    assert pot._q_inf == -math.inf
    for target in (3.0, 0.3, 0.0, -2.0, -40.0):
        x = pot.inverse(target)
        assert x == pytest.approx(math.exp(-target), rel=1e-12)
        assert pot.value(x) == pytest.approx(target, abs=1e-10)
    # the flow from any state moves ln x by -eps exactly where Q = -ln x
    x, d = pot.flow(0.06, 3.0)
    assert d == -3.0 and x == pytest.approx(0.06 * math.exp(-3.0), rel=1e-15)


def test_potential_inverse_constant_rate_closed_form():
    m = gamma_model(lam=2.0)
    pot = Potential(m, x_ref=1.0)
    assert pot.inverse(4.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert pot.inverse(0.0) == 1.0


def test_potential_domain_and_wrappers():
    m = gamma_model()
    with pytest.raises(DomainError):
        Potential(m).value(-0.5)
    with pytest.raises(ModelError):
        Potential(m, x_ref=0.0)
    assert Potential(m).value(1.0) == 0.0
    assert Potential(m, x_ref=1.0).value(0.25) == pytest.approx(2.0 * math.log(4.0))


@st.composite
def potentials(draw):
    """A Potential of each continuous rate family, anchored at 1, 3.7 or 20;
    Hill exponents reach 300, where x^ne overflows for x beyond 11."""
    unit = st.floats(0.0, 1.0)
    family = draw(st.sampled_from(("constant", "linear", "quadratic", "hill")))
    level = 0.2 + 4.8 * draw(unit)
    if family == "constant":
        rate = ConstantRate(level)
    elif family == "linear":
        rate = LinearRate(level, 3.0 * draw(unit))
    elif family == "quadratic":
        rate = QuadraticRate(level, 3.0 * draw(unit), draw(unit))
    else:
        # numer_coeff 0 shuts the rate off: Q has a finite infimum
        numer = draw(st.sampled_from((0.0, 3.0 * draw(unit))))
        rate = HillRate(level, numer, 0.5 + 1.5 * draw(unit), 0.3 + 1.7 * draw(unit),
                        draw(st.one_of(st.floats(0.5, 4.0), st.floats(4.0, 300.0))))
    model = ContinuousBurstModel(rate, LinearDecay(0.5 + 1.5 * draw(unit)),
                                 ExponentialBurstKernel(1.0))
    return Potential(model, x_ref=draw(st.sampled_from((1.0, 3.7, 20.0))))


@settings(max_examples=300)
@given(pot=potentials(), log_x=st.one_of(st.floats(-12.0, 12.0), st.floats(-700.0, 700.0)))
def test_potential_float_path_and_newton_inverse(pot, log_x):
    x = math.exp(log_x)
    q = pot.value(x)
    assert type(q) is float
    # past x = 1e154 a quadratic law's Q and slope are -inf on every path
    q_array = pot.value(np.array([x]))[0]
    assert q == q_array or abs(q - q_array) <= 1e-14 * (1.0 + abs(q))
    # the scalar rate/decay = -x dQ/dx that starts the flow's Newton, against
    # the rate law
    slope = -pot._ratio(x) / x
    assert type(slope) is float
    with np.errstate(over="ignore"):
        exact = -pot.rate.value(x) / (pot.gamma * x)
    assert slope == exact or abs(slope - exact) <= 1e-14 * abs(exact)
    # ln rate as the kernel forms it: the log of the rate law where that is
    # a normal float, and finite below it, where a Hill rate shuts off
    with np.errstate(over="ignore"):
        got, rate = float(pot.ln_rate(np.array([x]))[0]), float(pot.rate.value(x))
    if sys.float_info.min <= rate < math.inf:
        # the Hill form sums terms of size exponent * |ln x|
        scale = 1.0 + getattr(pot.rate, "exponent", 1.0) * abs(log_x)
        assert abs(got - math.log(rate)) <= 1e-14 * scale
    elif rate < sys.float_info.min:
        assert -math.inf < got < math.log(sys.float_info.min)
    assert pot.value(0.0) == math.inf
    for bad in (-x, math.nan):
        with pytest.raises(DomainError):
            pot.value(bad)
    # x on either side of x_ref gives targets on either side of 0
    if q <= pot._q_inf:
        # x so large that Q rounds onto or below a finite infimum
        if q == pot._q_inf:
            # Q(x_ref) = 0 exactly, even where the infimum rounds to 0
            assert pot.inverse(q) == (pot.x_ref if q == 0.0 else math.inf)
        else:
            with pytest.raises(RangeError):
                pot.inverse(q)
        return
    root = pot.inverse(q)
    assert abs(pot.value(root) - q) <= 1e-13 * max(1.0, abs(q))


def ratio_mp(rate, gamma, u):
    """rate(e^u)/gamma in mpmath, from the rate law's coefficients."""
    z = mpmath.exp(u)
    if isinstance(rate, ConstantRate):
        r = mpmath.mpf(rate.level)
    elif isinstance(rate, HillRate):
        zn = mpmath.exp(rate.exponent * u)
        r = rate.scale * (1 + rate.numer_coeff * zn) / (rate.denom_const + rate.denom_coeff * zn)
    else:
        r = rate.base + rate.slope * z + getattr(rate, "quad", 0.0) * z * z
    return r / gamma


def flow_integral(pot, x, y):
    """The integral of rate(z)/(decay z) from x up to y at 30 digits, in
    u = ln z, split where the integrand turns: around a Hill knee, and at
    unit, then doubling, distances below the top for a growing law."""
    with mpmath.workdps(30):
        a, b = mpmath.log(mpmath.mpf(x)), mpmath.log(mpmath.mpf(y))
        cuts = set()
        rate = pot.rate
        if isinstance(rate, HillRate):
            knee = mpmath.log(mpmath.mpf(rate.denom_const) / rate.denom_coeff) / rate.exponent
            cuts.update(knee + mpmath.mpf(j) / rate.exponent
                        for j in (-64, -16, -4, -1, 0, 1, 4, 16, 64))
        elif not isinstance(rate, ConstantRate):
            cuts.update(b - 2 ** k for k in range(12))
        points = [a] + sorted(c for c in cuts if a < c < b) + [b]
        return float(mpmath.quad(lambda u: ratio_mp(rate, pot.gamma, u), points))


@settings(max_examples=150, deadline=None)
@given(pot=potentials(), log_y=st.floats(-700.0, 700.0), eps=st.floats(1e-12, 60.0))
def test_flow_solves_the_potential_difference(pot, log_y, eps):
    # flow's x satisfies Q(x) - Q(y) = eps to its stop tolerance, plus the
    # slope rate(x)/decay times the rounding of ln x: the half ulp that d
    # carries, and x's own rounding, coarse for a subnormal x
    y = math.exp(log_y)
    try:
        x, d = pot.flow(y, eps)
    except RangeError:
        # the root lies below e^-744: the flow down to there falls short of eps
        floor = math.exp(-744.0)
        slack = float(ratio_mp(pot.rate, pot.gamma, -744.0)) * (744.0 + log_y) * 2.0 ** -51
        assert flow_integral(pot, floor, y) < eps * (1.0 + 1e-13) + slack
        return
    assert math.exp(-744.0) < x <= y and d <= 0.0
    # past 700 e-folds x is e^(ln y + d), good to the rounding of that sum
    rounding = 2.0 * math.ulp(x) / x
    assert abs(math.log(x) - log_y - d) <= 4.0 * math.ulp(abs(log_y) + abs(d) + 1.0) + rounding
    with np.errstate(over="ignore"):
        slope = float(pot.rate.value(x)) / pot.gamma
    allowance = 1e-13 * max(1.0, eps) + slope * (math.ulp(d) + rounding)
    assert abs(flow_integral(pot, x, y) - eps) <= allowance


def test_flow_hands_a_stalled_newton_to_find_root(monkeypatch):
    # far above the knee of a Hill rate that shuts off, rate(y)/decay
    # underflows to 0, so Newton has no first step
    pot = Potential(ContinuousBurstModel(HillRate(1.0, 0.0, 1.0, 1.0, 300.0), LinearDecay(1.0),
                                         ExponentialBurstKernel(1.0)))
    y = math.exp(5.0)
    assert pot._ratio(y) == 0.0
    handed = []
    bracketed = Potential._bracketed
    monkeypatch.setattr(Potential, "_bracketed",
                        lambda self, *args: handed.append(args) or bracketed(self, *args))
    x, d = pot.flow(y, 2.0)
    assert len(handed) == 1 and pot.inverse_evals >= 1
    # rate/decay is 1 below the knee at x = 1 and 0 above it, to e^-300
    assert d == pytest.approx(-7.0, abs=1e-13) and x == pytest.approx(math.exp(-2.0), rel=1e-13)
    assert flow_integral(pot, x, y) == pytest.approx(2.0, abs=2e-13)


def shut_off_hill_root(rate, gamma, log_y, eps, d):
    """The d of Q(y e^d) - Q(y) = eps for a Hill rate with numer_coeff 0, at
    30 digits: Q(x) - Q(y) = lead [ln(y/x) - ln((d0 + d1 y^ne)/(d0 + d1 x^ne))/ne],
    lead = scale/(decay d0), solved by Newton in u = ln x from y e^d."""
    with mpmath.workdps(30):
        lam, d0, d1, ne = (mpmath.mpf(v) for v in (rate.scale, rate.denom_const,
                                                   rate.denom_coeff, rate.exponent))
        ly = mpmath.mpf(log_y)

        def ln_denom(u):
            return mpmath.log(d0 + d1 * mpmath.exp(ne * u))

        def gap(u):
            return lam / (gamma * d0) * ((ly - u) - (ln_denom(ly) - ln_denom(u)) / ne) - eps

        u = ly + d
        for _ in range(50):     # the slope of gap in u is rate/decay
            u += gap(u) / (lam / (gamma * (d0 + d1 * mpmath.exp(ne * u))))
        assert abs(gap(u)) < mpmath.mpf(10) ** -25 * max(1, abs(eps))
        return float(u - ly)


@pytest.mark.parametrize("log_y, eps", [(math.log(6.2e62), 1e-8), (10.0, 1e-12), (400.0, 1e-12)])
def test_flow_settles_d_where_the_rate_has_shut_off(log_y, eps):
    # far above the knee of a Hill rate that shuts off, rate/decay at the
    # root is tiny, so |D - eps| <= 1e-13 alone left d off by up to
    # tol / (rate/decay): 1.3e-5 relative at y = e^400.  At (10, 1e-12)
    # Newton converges without a fallback; the others go to _bracketed
    rate = HillRate(2.0, 0.0, 1.0, 1.0, 2.0)
    pot = Potential(ContinuousBurstModel(rate, LinearDecay(1.0), ExponentialBurstKernel(1.0)))
    x, d = pot.flow(math.exp(log_y), eps)
    ref = shut_off_hill_root(rate, 1.0, log_y, eps, d)
    assert abs(d - ref) <= 1e-12 * max(1.0, abs(ref))


def test_bracketed_flow_from_a_rate_that_underflowed():
    # rate/decay underflows to 0 at y = e^5 above the knee, where false
    # position on D - eps over rate/decay once started from a value near
    # -1e308 and halved in from the float range's end: 9 evaluations
    rate = HillRate(1.0, 0.0, 1.0, 1.0, 300.0)
    pot = Potential(ContinuousBurstModel(rate, LinearDecay(1.0), ExponentialBurstKernel(1.0)))
    x, d = pot.flow(math.exp(5.0), 2.0)
    assert pot.inverse_evals <= 6
    assert abs(d - shut_off_hill_root(rate, 1.0, 5.0, 2.0, d)) <= 1e-12 * max(1.0, abs(d))


def test_bracketed_flow_resumes_from_newton():
    # test_flow_hands_a_stalled_newton_to_find_root's model, from above its
    # knee, where every one of these 60 flows falls back: 1437 evaluations
    # when _bracketed restarted from [0, the float range's end] on D - eps
    pot = Potential(ContinuousBurstModel(HillRate(1.0, 0.0, 1.0, 1.0, 300.0), LinearDecay(1.0),
                                         ExponentialBurstKernel(1.0)))
    for log_y in np.linspace(0.05, 6.0, 12).tolist():
        for eps in (1e-6, 0.01, 0.5, 2.0, 6.0):
            x, _ = pot.flow(math.exp(log_y), eps)
            assert abs(pot.value(x) - pot.value(math.exp(log_y)) - eps) <= 1e-12 * max(1.0, eps)
    assert pot.inverse_evals <= 1200


def test_potential_inverse_counts_its_evaluations():
    constant = Potential(gamma_model())
    constant.inverse(1.5)
    assert constant.inverse_evals == 0
    pot = Potential(ContinuousBurstModel(LinearRate(1.5, 0.3), LinearDecay(1.0),
                                         ExponentialBurstKernel(1.0)))
    pot.inverse(1.5)
    assert 1 <= pot.inverse_evals <= 8
    before = pot.inverse_evals
    with pytest.raises(RangeError):   # the root lies below the smallest float
        pot.inverse(1e4)
    assert pot.inverse_evals > before


def test_constant_rate_inverse_stays_in_the_float_range():
    model = ContinuousBurstModel(ConstantRate(0.01), LinearDecay(1.0),
                                 ExponentialBurstKernel(1.0))
    pot = Potential(model)
    assert pot.value(pot.inverse(7.0)) == pytest.approx(7.0, rel=1e-13)   # x = e^-700
    for target in (8.0, -8.0):        # x = e^-800 underflows, e^800 overflows
        with pytest.raises(RangeError):
            pot.inverse(target)
    # one wait in about 1700 flows the state below the smallest float
    with pytest.raises(RangeError):
        simulate_pdmp(model, 1.0, 20000, seed=0)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

PDMP_FAMILIES = {
    "constant": ContinuousBurstModel(ConstantRate(2.2), LinearDecay(1.05),
                                     ExponentialBurstKernel(0.9)),
    "linear": ContinuousBurstModel(LinearRate(2.4, 0.3), LinearDecay(0.95),
                                   ExponentialBurstKernel(1.1)),
    "hill": ContinuousBurstModel(HillRate(2.3, 2.2, 1.0, 1.2, 2.3), LinearDecay(1.0),
                                 ExponentialBurstKernel(1.0)),
    "quadratic": ContinuousBurstModel(QuadraticRate(2.1, 0.12, 0.25), LinearDecay(1.1),
                                      SeparableBurstKernel(GaussianExpNu(1.0, 0.4))),
}


def bracketed_pdmp(model, y0, n_jumps, seed):
    """simulate_pdmp's jump skeleton from independent parts: scalar draws
    from the generator, and an inverse that brackets the root by halving or
    doubling x from the anchor (or the hint), then bisects the bracket down
    to adjacent floats.  Returns (times, y_pre)."""
    pot = Potential(model, 1.0)
    rng = make_rng(seed, 0)

    def inverse(target, hint):
        if isinstance(model.burst_rate, ConstantRate):
            return math.exp(-target * model.decay.rate / model.burst_rate.level)
        if target > 0.0:
            hi = 1.0
            if 0.0 < hint < hi and pot.value(hint) <= target:
                hi = hint
            lo = 0.5 * hi
            while pot.value(lo) < target:
                hi, lo = lo, 0.5 * lo
        else:
            lo = 1.0
            if hint > lo and pot.value(hint) >= target:
                lo = hint
            hi = 2.0 * lo
            while pot.value(hi) > target:
                lo, hi = hi, 2.0 * hi
        while True:     # Q falls: the root stays in [lo, hi]
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return mid
            if pot.value(mid) > target:
                lo = mid
            else:
                hi = mid

    times, y_pre = [0.0], []
    y = y0
    for _ in range(n_jumps):
        y_end = inverse(pot.value(y) - math.log1p(-rng.random()), y)
        times.append(times[-1] + math.log(y / y_end) / model.decay.rate)
        y_pre.append(y_end)
        y = y_end + model.burst_size.nu.draw_overshoot(-math.log1p(-rng.random()), y_end)
    return np.array(times), np.array(y_pre)


def scalar_pdmp(model, y0, n_jumps, seed, *, hist_edges=None, n_bins=64):
    """simulate_pdmp as it ran before the two-pass split: one loop that
    draws each uniform by its own rng.random() call, flows, bins the
    flow segment by bisection on the log edges and writes every output
    per jump.  Returns (times, y_pre, y_post, waits, bursts, exposure,
    below, above, total_time, inverse_evals)."""
    pot = Potential(model, 1.0)
    gamma = model.decay.rate
    if hist_edges is None:
        lo, hi = _law_ends(model)
        hist_edges = np.geomspace(min(lo, y0), max(hi, y0), n_bins + 1)
    edges = np.asarray(hist_edges, dtype=float)
    log_edges = np.log(edges).tolist()
    nbins = len(edges) - 1
    exposure = [0.0] * nbins
    below = above = 0.0
    times = np.zeros(n_jumps + 1)
    y_pre, y_post, waits, bursts = (np.zeros(n_jumps) for _ in range(4))
    rng = make_rng(seed, 0)
    y = float(y0)
    t = 0.0
    for k in range(n_jumps):
        eps = -math.log1p(-rng.random())
        y_end, d = pot.flow(y, eps)
        t += -d / gamma
        lb = math.log(y)
        la = lb + d
        for i in range(max(bisect.bisect_right(log_edges, la) - 1, 0),
                       min(bisect.bisect_left(log_edges, lb), nbins)):
            exposure[i] += max(min(log_edges[i + 1], lb) - max(log_edges[i], la), 0.0) / gamma
        if la < log_edges[0]:
            below += (min(lb, log_edges[0]) - la) / gamma
        if lb > log_edges[-1]:
            above += (lb - max(la, log_edges[-1])) / gamma
        e = model.burst_size.nu.draw_overshoot(-math.log1p(-rng.random()), y_end)
        times[k + 1] = t
        y_pre[k] = y_end
        y_post[k] = y_end + e
        waits[k] = eps
        bursts[k] = e
        y = y_end + e
    return (times, y_pre, y_post, waits, bursts, np.array(exposure),
            below, above, t, pot.inverse_evals)


@settings(max_examples=30)
@given(family=st.sampled_from(sorted(PDMP_FAMILIES)),
       n_jumps=st.sampled_from((1, 4095, 4096, 4097, 3 * 4096 + 7)),
       edges=st.sampled_from(("default", "inside", "two-bin")),
       seed=st.integers(0, 2**32 - 1))
def test_simulate_pdmp_is_bit_identical_to_the_scalar_loop(family, n_jumps, edges, seed):
    model = PDMP_FAMILIES[family]
    # "inside" leaves mass below and above the binned range
    hist_edges = {"default": None, "inside": np.geomspace(0.4, 4.0, 17),
                  "two-bin": np.array([0.2, 1.0, 5.0])}[edges]
    ref = scalar_pdmp(model, 1.0, n_jumps, seed, hist_edges=hist_edges)
    tr = simulate_pdmp(model, 1.0, n_jumps, seed, hist_edges=hist_edges)
    h = tr.histogram
    arrays = (tr.times, tr.y_pre, tr.y_post, tr.wait_draws, tr.burst_draws, h.exposure)
    for mine, theirs in zip(arrays, ref[:6]):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
    assert (h.below, h.above, h.total_time, tr.inverse_evals) == ref[6:]
    if edges == "inside" and n_jumps > 1:
        assert h.below > 0.0 and h.above > 0.0


def test_simulate_pdmp_does_not_depend_on_its_block_size(monkeypatch):
    # the draws' blocks and the post-pass's chunks share PATH_CHUNK
    for family in ("hill", "quadratic"):
        runs = []
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(numerics, "PATH_CHUNK", chunk)
            monkeypatch.setattr(continuous, "PATH_CHUNK", chunk)
            tr = simulate_pdmp(PDMP_FAMILIES[family], 1.0, 3000, seed=11, stream=1)
            d = tr.histogram.density()
            runs.append((tr.times, tr.y_pre, tr.y_post, tr.histogram.exposure, d.grid,
                         d.values, np.array(tr.inverse_evals)))
        for run in runs[1:]:
            for mine, theirs in zip(run, runs[0]):
                assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("family", sorted(PDMP_FAMILIES))
def test_simulate_pdmp_never_needs_the_bracketed_flow(family, monkeypatch):
    # Newton is the flow's whole path on these models: the false-position
    # fallback is for a stalled Newton, not a cost every run pays
    def refuse(self, *args):
        raise AssertionError(f"flow fell back to _bracketed{args}")
    monkeypatch.setattr(Potential, "_bracketed", refuse)
    tr = simulate_pdmp(PDMP_FAMILIES[family], 1.0, 20000, seed=23)
    assert len(tr.y_pre) == 20000


def test_bracketed_flow_refuses_a_root_past_the_float_range():
    # a Hill rate that shuts off: rate/decay is 1 below x = 1 and 0 above it,
    # so from y = e^5 the flow reaches at most 744 by x = e^-744
    pot = Potential(ContinuousBurstModel(HillRate(1.0, 0.0, 1.0, 1.0, 300.0), LinearDecay(1.0),
                                         ExponentialBurstKernel(1.0)))
    y = math.exp(5.0)
    x, d = pot.flow(y, 743.0)
    assert d == pytest.approx(-748.0, abs=1e-10)
    before = pot.inverse_evals
    with pytest.raises(RangeError):
        pot.flow(y, 745.0)
    assert pot.inverse_evals == before + 1     # the end value alone


@pytest.mark.parametrize("family", sorted(PDMP_FAMILIES))
def test_simulate_pdmp_matches_the_bracketed_inverse(family):
    # Newton stops within 1e-13 max(1, |target|) of the root and bisection
    # at adjacent floats, so the two skeletons agree to round-off, not bit
    # for bit
    model = PDMP_FAMILIES[family]
    tr = simulate_pdmp(model, 1.0, 2000, seed=17)
    times, y_pre = bracketed_pdmp(model, 1.0, 2000, seed=17)
    assert np.max(np.abs(tr.y_pre - y_pre) / y_pre) <= 1e-10
    assert np.max(np.abs(tr.times[1:] - times[1:]) / times[1:]) <= 1e-10


@pytest.mark.parametrize("family", sorted(PDMP_FAMILIES))
def test_simulate_pdmp_does_not_depend_on_the_anchor(family):
    # the flow solves Q(x) - Q(y) = eps in closed-form differences, so x_ref
    # never enters the path
    runs = [simulate_pdmp(PDMP_FAMILIES[family], 1.0, 2000, seed=5, x_ref=x_ref)
            for x_ref in (1.0, 3.7, 20.0)]
    for tr in runs[1:]:
        for mine, theirs in ((tr.times, runs[0].times), (tr.y_pre, runs[0].y_pre),
                             (tr.y_post, runs[0].y_post),
                             (tr.histogram.exposure, runs[0].histogram.exposure)):
            assert mine.tobytes() == theirs.tobytes()
        assert tr.inverse_evals == runs[0].inverse_evals


def test_simulate_pdmp_is_reproducible():
    m = gamma_model()
    a = simulate_pdmp(m, 1.0, 300, seed=11)
    b = simulate_pdmp(m, 1.0, 300, seed=11)
    c = simulate_pdmp(m, 1.0, 300, seed=11, stream=1)
    assert np.array_equal(a.y_pre, b.y_pre)
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.y_pre, c.y_pre)


def test_simulate_pdmp_trajectory_algebra():
    m = gamma_model()
    tr = simulate_pdmp(m, 1.0, 400, seed=3)
    pot = Potential(m, 1.0)
    y_prev = np.concatenate(([1.0], tr.y_post[:-1]))
    # each flow segment burns exactly the drawn exponential of hazard
    eps = pot.value(tr.y_pre) - pot.value(y_prev)
    assert np.max(np.abs(eps - tr.wait_draws)) < 1e-12
    # holding times follow from the decay flow
    assert np.max(np.abs(np.diff(tr.times) - np.log(y_prev / tr.y_pre))) < 1e-10
    assert np.max(np.abs(tr.y_post - tr.y_pre - tr.burst_draws)) < 1e-13
    assert np.all(tr.y_pre < y_prev)


def test_simulate_pdmp_exposure_accounting():
    m = gamma_model()
    tr = simulate_pdmp(m, 1.0, 2000, seed=5)
    h = tr.histogram
    total = float(np.sum(h.exposure)) + h.below + h.above
    assert total == pytest.approx(h.total_time, abs=1e-8)
    assert h.total_time == pytest.approx(float(tr.times[-1]))
    masses = h.bin_masses()
    assert np.all(masses >= 0.0)


def test_simulate_pdmp_occupancy_matches_stationary_density():
    m = gamma_model()
    tr = simulate_pdmp(m, 1.0, 20000, seed=7)
    err = tr.histogram.l1_against(lambda x: x * np.exp(-x))
    assert err < 0.05


def test_simulate_pdmp_histogram_density_survives_a_tiny_start():
    # the default edges follow y0 down to 1e-302, where a*b underflowed and
    # the bin centres collapsed to a run of zeros
    h = simulate_pdmp(gamma_model(), 1e-300, 500, seed=1).histogram
    d = h.density()
    assert np.all(np.isfinite(d.values)) and np.all(np.diff(d.grid) > 0.0)
    assert np.all((h.edges[:-1] < d.grid) & (d.grid < h.edges[1:]))
    # where a*b is a normal float the scaled centres are its plain root
    h = simulate_pdmp(gamma_model(), 1.0, 500, seed=1).histogram
    assert np.array_equal(h.density().grid, np.sqrt(h.edges[:-1] * h.edges[1:]))


def test_simulate_pdmp_validation():
    m = gamma_model()
    for y0 in (0.0, 5e-324, 1e-320, math.nan):   # subnormal starts included
        with pytest.raises(ModelError):
            simulate_pdmp(m, y0, 10, seed=0)
    with pytest.raises(ModelError, match="wide"):   # a subnormal first bin
        simulate_pdmp(m, 1e-307, 10, seed=0, n_bins=100_000)
    with pytest.raises(ModelError):
        simulate_pdmp(m, 1.0, 0, seed=0)
    with pytest.raises(ModelError):
        simulate_pdmp(m, 1.0, 10, seed=0, hist_edges=np.array([1.0, 0.5]))
    mf = hill_flat_model(SeparableBurstKernel(FiniteSupportNu(2.0, 1.0)))
    with pytest.raises(ModelError):
        simulate_pdmp(mf, 2.5, 10, seed=0)  # start outside the support


@pytest.mark.parametrize("edges", [[math.nan, 1.0, 2.0], [0.0, 1.0, 2.0], [-1.0, 1.0, 2.0],
                                   [1.0, 2.0, math.inf], [1.0, math.nan, 2.0]])
def test_simulate_pdmp_refuses_edges_that_are_not_finite_and_positive(edges):
    # nan once came back as exposure [nan, ...]; 0 and negatives warned in np.log
    with pytest.raises(ModelError, match="finite and positive"):
        simulate_pdmp(gamma_model(), 1.0, 10, seed=0, hist_edges=np.array(edges))


def test_simulate_pdmp_memory_is_its_output_arrays():
    # the post-pass works in chunks, so the path costs its arrays and little else
    n_jumps = 300_000
    tracemalloc.start()
    try:
        tr = simulate_pdmp(gamma_model(), 1.0, n_jumps, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (tr.times, tr.y_pre, tr.y_post, tr.wait_draws,
                                     tr.burst_draws))
    assert outputs == 40 * n_jumps + 8
    assert peak <= outputs + 4 * 2**20


def test_simulate_pdmp_overflowing_bursts_are_a_numeric_error():
    # a power tail this light draws bursts past the float range within a
    # few jumps; that is a NumericError, not a raw OverflowError
    m = ContinuousBurstModel(ConstantRate(1.0), LinearDecay(1.0),
                             SeparableBurstKernel(PowerTailNu(1.0, 0.02)))
    with pytest.raises(NumericalBlowup):
        simulate_pdmp(m, 1.0, 200, seed=0)


# ---------------------------------------------------------------------------
# analytic stationary densities
# ---------------------------------------------------------------------------

def grid_normalized(fn, grid):
    """Reference law rescaled exactly like the library output: unit
    trapezoid mass on the evaluation grid."""
    vals = fn(grid)
    return vals / trapezoid(vals, grid)


def test_density_exponential_gamma_law():
    u = stationary_density(gamma_model(2.0, 1.0))
    ref = grid_normalized(lambda x: x * np.exp(-x), u.grid)
    assert np.max(np.abs(u.values - ref)) < 1e-12
    assert u.mass() == pytest.approx(1.0, abs=1e-12)
    assert u.ln_normalization == pytest.approx(0.0, abs=1e-9)


def test_density_exponential_linear_rate():
    m = ContinuousBurstModel(LinearRate(1.5, 0.3), LinearDecay(1.0),
                             ExponentialBurstKernel(0.5))
    u = stationary_density(m)
    ref = grid_normalized(lambda x: stats.gamma.pdf(x, a=1.5, scale=1.0 / 1.7),
                          u.grid)
    assert np.max(np.abs(u.values - ref)) < 1e-10


def test_density_separable_finite_support():
    m = hill_flat_model(SeparableBurstKernel(FiniteSupportNu(2.0, 1.0)))
    u = stationary_density(m)
    ref = grid_normalized(lambda x: (2.0 - x) / 2.0, u.grid)
    assert np.max(np.abs(u.values - ref)) < 1e-12
    assert u.ln_normalization == pytest.approx(math.log(2.0), abs=1e-10)
    m3 = hill_flat_model(SeparableBurstKernel(FiniteSupportNu(2.0, 3.0)))
    u3 = stationary_density(m3)
    ref3 = grid_normalized(lambda x: (2.0 - x) ** 3 / 4.0, u3.grid)
    assert np.max(np.abs(u3.values - ref3)) < 1e-12
    assert u3.ln_normalization == pytest.approx(math.log(4.0), abs=1e-10)


def test_density_separable_power_tail():
    m = ContinuousBurstModel(ConstantRate(2.0), LinearDecay(1.0),
                             SeparableBurstKernel(PowerTailNu(1.0, 4.0)))
    u = stationary_density(m)
    ref = grid_normalized(lambda x: 6.0 * x * (1.0 + x) ** (-4.0), u.grid)
    assert np.max(np.abs(u.values - ref)) < 1e-12
    assert u.ln_normalization == pytest.approx(math.log(1.0 / 6.0), abs=1e-8)


def test_density_separable_gaussian_tail():
    m = ContinuousBurstModel(ConstantRate(2.0), LinearDecay(1.0),
                             SeparableBurstKernel(GaussianExpNu(1.0, 0.5)))
    u = stationary_density(m)
    ref = grid_normalized(lambda x: x * np.exp(-x - 0.5 * x * x), u.grid)
    assert np.max(np.abs(u.values - ref)) < 1e-12


def low_grid(hi):
    """Knots from 1e-250, which keeps the mass below the first knot, about
    x0^a0, under 1e-4 down to a0 = 0.02, and 256 of them from 1e-3 hi to hi."""
    return np.concatenate([geometric_grid(1e-250, 1e-3 * hi, 32)[:-1],
                           geometric_grid(1e-3 * hi, hi, 256)])


@pytest.mark.parametrize("a0", [0.02, 0.3, 2.0, 50.0])
def test_normalization_matches_the_gamma_law(a0):
    # constant rate a0 decay with exponential bursts of mean b: u is the
    # gamma law, and c = Gamma(a0) b^a0 / (decay x_ref^a0)
    gamma, b, x_ref = 1.3, 0.7, 2.5
    m = ContinuousBurstModel(ConstantRate(a0 * gamma), LinearDecay(gamma),
                             ExponentialBurstKernel(b))
    ln_c = math.lgamma(a0) + a0 * math.log(b / x_ref) - math.log(gamma)
    # the default grid, the law window, leaves at most 1e-12 of each tail
    # out, but for the 2.5e-6 of the a0 = 0.02 law below its 1e-280 floor
    u = stationary_density(m, x_ref=x_ref)
    assert u.ln_normalization == pytest.approx(ln_c, rel=1e-13, abs=1e-13)
    below, above = special.gammainc(a0, u.grid[0] / b), special.gammaincc(a0, u.grid[-1] / b)
    assert u.mass_outside == pytest.approx(below + above, rel=1e-9, abs=1e-16)
    assert above <= 1e-12 and below <= (3e-6 if a0 == 0.02 else 1e-12)
    # a grid from 1e-250, past the law's own 1e-12 tail
    grid = low_grid(b * special.gammainccinv(a0, 1e-12))
    u = stationary_density(m, grid, x_ref=x_ref)
    assert u.ln_normalization == pytest.approx(ln_c, rel=1e-13, abs=1e-13)
    outside = special.gammainc(a0, grid[0] / b) + special.gammaincc(a0, grid[-1] / b)
    assert u.mass_outside == pytest.approx(outside, rel=1e-9, abs=1e-16)


@pytest.mark.parametrize("a0", [0.02, 2.0])
def test_normalization_matches_the_finite_support_beta_law(a0):
    # nu = (cap - x)^e under a constant rate: c = cap^(a0+e) B(a0, e+1) /
    # (decay x_ref^a0), and the law is cap times a Beta(a0, e + 1) variable
    gamma, cap, e, x_ref = 1.3, 8.0, 2.5, 2.5
    m = ContinuousBurstModel(ConstantRate(a0 * gamma), LinearDecay(gamma),
                             SeparableBurstKernel(FiniteSupportNu(cap, e)))
    grid = low_grid(cap)
    u = stationary_density(m, grid, x_ref=x_ref)
    ln_c = (e * math.log(cap) + a0 * math.log(cap / x_ref) - math.log(gamma)
            + math.lgamma(a0) + math.lgamma(e + 1.0) - math.lgamma(a0 + e + 1.0))
    assert u.ln_normalization == pytest.approx(ln_c, rel=1e-13, abs=1e-13)
    assert u.mass_outside == pytest.approx(special.betainc(a0, e + 1.0, grid[0] / cap),
                                           rel=1e-9)


def test_boundary_mode_refuses_a_grid_that_cuts_off_the_origin():
    # a0 = 0.3: below a first knot at 1e-6, where the default grids once
    # started, lies about (x0/b)^a0 / Gamma(a0 + 1) = 0.018 of the gamma
    # law.  Both the analytic and the kernel route once renormalized it away
    m = gamma_model(0.3, 1.0)
    with pytest.raises(GridTooNarrow, match="0.0177 of the law lies below the first knot"):
        stationary_density(m, geometric_grid(1e-6, 40.0, 1024))
    top = kernel_grid(m, 1024)[-1]
    v = kernel_fixed_point(kernel_matrix(m, geometric_grid(1e-6, top, 1024)))
    with pytest.raises(GridTooNarrow, match="of the law lies below the first knot"):
        density_from_fixed_point(m, v)
    # the law window starts near 7e-41, under all but 1e-12 of the law
    u = stationary_density(m)
    assert trapezoid(u.grid * u.values, u.grid) == pytest.approx(0.3, rel=1e-6)


@pytest.mark.parametrize("slope, top, above", [(0.95, 41.647, "0.125"),
                                               (0.8, 38.4434, "0.000458")],
                         ids=["0.95-0.125", "0.8-0.000458"])
def test_density_refuses_a_law_past_its_grid_top(slope, top, above):
    # linear rate 1 + s x with exponential bursts b = 1: the law's tail
    # falls like e^(-(1 - s) x), while the default top once followed the
    # burst tail, to ``top``.  At s = 0.95 the density once returned with
    # 12.5% of the law above it and mean 14.07 for 1/(1 - s) = 20
    m = ContinuousBurstModel(LinearRate(1.0, slope), LinearDecay(1.0),
                             ExponentialBurstKernel(1.0))
    with pytest.raises(GridTooNarrow, match=f"{above} of the law lies above the last knot"):
        stationary_density(m, geometric_grid(1e-6, top, 1024))
    # the law window holds the law's own tail, and the model returns its mean
    u = stationary_density(m)
    mean = trapezoid(u.grid * u.values, u.grid)
    assert u.mass_outside < 2e-12 and mean == pytest.approx(1.0 / (1.0 - slope), rel=1e-6)


@st.composite
def exponential_burst_laws(draw):
    """Constant or linear rates with exponential bursts of mean b, with the
    closed-form mean of their law: a0 b under a constant rate a0 decay,
    the gamma law, and base b / (decay - slope b) under a linear one, by
    the mean identity, with the slope up to 0.999 of decay/b."""
    a0 = 10.0 ** draw(st.floats(math.log10(0.05), 4.0))
    b = 10.0 ** draw(st.floats(-3.0, 3.0))
    gamma = 10.0 ** draw(st.floats(-1.0, 1.0))
    frac = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999)))
    rate = LinearRate(a0 * gamma, frac * gamma / b) if frac > 0.0 else ConstantRate(a0 * gamma)
    model = ContinuousBurstModel(rate, LinearDecay(gamma), ExponentialBurstKernel(b))
    return model, a0 * b / (1.0 - frac)


@settings(max_examples=150)
@given(case=exponential_burst_laws())
# ln c is about 2.2e4, where two sums of log_quad once had to agree closer
# than one ulp of their log: ToleranceNotMet
@example(case=(ContinuousBurstModel(LinearRate(2000.0, 9.99), LinearDecay(1.0),
                                    ExponentialBurstKernel(0.1)), 2e5))
def test_density_route_returns_the_closed_form_mean(case):
    # on the law window, which grids that followed the burst tail from a
    # hand-set scale once cut below a0 = 0.67, past a0 = 50 and at slopes
    # near the margin
    model, mean = case
    u = stationary_density(model)
    assert trapezoid(u.grid * u.values, u.grid) == pytest.approx(mean, rel=1e-6)
    if isinstance(model.burst_rate, ConstantRate):
        gamma, b = model.decay.rate, 1.0 / model.burst_size.nu.lin
        a0 = model.burst_rate.level / gamma
        ln_c = math.lgamma(a0) + a0 * math.log(b) - math.log(gamma)
        assert u.ln_normalization == pytest.approx(ln_c, rel=1e-13, abs=1e-13)


def finite_support_model(a0, e, cap, gamma=1.3):
    """Constant rate a0 decay with bursts nu = (cap - x)^e: the law is cap
    times a Beta(a0, e + 1) variable, with mean cap a0 / (a0 + e + 1), and
    at x_ref = 1 its constant is c = B(a0, e + 1) cap^(a0 + e) / decay."""
    return ContinuousBurstModel(ConstantRate(a0 * gamma), LinearDecay(gamma),
                                SeparableBurstKernel(FiniteSupportNu(cap, e)))


@settings(max_examples=60)
@given(a0=st.floats(math.log10(0.05), 3.0), e=st.floats(math.log10(0.3), math.log10(50.0)),
       cap=st.floats(-2.0, 3.0), gamma=st.floats(-1.0, 1.0))
def test_finite_support_law_has_the_beta_normalization(a0, e, cap, gamma):
    a0, e, cap, gamma = 10.0 ** a0, 10.0 ** e, 10.0 ** cap, 10.0 ** gamma
    u = stationary_density(finite_support_model(a0, e, cap, gamma))
    ln_c = (math.lgamma(a0) + math.lgamma(e + 1.0) - math.lgamma(a0 + e + 1.0)
            + (a0 + e) * math.log(cap) - math.log(gamma))
    assert u.ln_normalization == pytest.approx(ln_c, rel=1e-13, abs=1e-13)


def _item5(reason):
    """A case ROADMAP item 5 still has to cure; the cure deletes the marker."""
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 5: {reason}")


@pytest.mark.parametrize("route, model, mean", [
    *(pytest.param(route, gamma_model(a0, 1.0), a0, id=f"{route}-a0-{a0:g}")
      for route in ("density", "kernel") for a0 in (0.3, 0.6, 200.0, 3000.0)),
    pytest.param("density", gamma_model(0.02, 1.0), 0.02, id="density-a0-0.02",
                 marks=_item5("2.5e-6 of the law lies below the 1e-280 floor; "
                              "the mean is 3.9e-6 off")),
    pytest.param("kernel", ContinuousBurstModel(ConstantRate(2.0), LinearDecay(1.0),
                                                SeparableBurstKernel(PowerTailNu(1.0, 6.0))),
                 2.0 / 3.0, id="kernel-power-tail",
                 marks=_item5("the top columns keep 0.75 of their mass; refused")),
    pytest.param("kernel", ContinuousBurstModel(LinearRate(1.0, 0.99), LinearDecay(1.0),
                                                ExponentialBurstKernel(1.0)),
                 100.0, id="kernel-linear-0.99",
                 marks=_item5("residual 4e-15, yet the mean is 55% high: the grid "
                              "runs to its 1e12 stop")),
])
def test_continuous_routes_return_the_closed_form_mean(route, model, mean):
    # the density route to 1e-6; the kernel route, whose discretization
    # error at 4096 knots is 4e-5 to 2e-3 here, to 5e-3.  The power-tail
    # mean is 2 / (decay (6 - 1) - 2) by the mean identity
    if route == "density":
        u, rel = stationary_density(model), 1e-6
    else:
        kernel = kernel_matrix(model, kernel_grid(model, 4096))
        u, rel = density_from_fixed_point(model, kernel_fixed_point(kernel)), 5e-3
    assert trapezoid(u.grid * u.values, u.grid) == pytest.approx(mean, rel=rel)


# the trapezoid mean's relative error on the default grid, the same at every cap
_EDGE_MISSES = {(0.05, 0.3): 0.158, (0.05, 3.0): 1.9e-3, (1.0, 0.3): 4.6e-3,
                (20.0, 0.3): 2.0e-4, (1000.0, 0.3): 4.1e-6}


@pytest.mark.parametrize("a0, e, cap", [
    pytest.param(a0, e, cap, id=f"a0-{a0:g}-e-{e:g}-cap-{cap:g}",
                 marks=[_item5(f"the log-uniform knots step over the (cap - x)^e edge; "
                               f"the mean is {_EDGE_MISSES[a0, e]:.2g} off")]
                 if (a0, e) in _EDGE_MISSES else [])
    for a0 in (0.05, 1.0, 20.0, 1000.0) for e in (0.3, 3.0, 50.0) for cap in (0.01, 1.0, 100.0)
])
def test_finite_support_law_returns_the_beta_mean(a0, e, cap):
    u = stationary_density(finite_support_model(a0, e, cap))
    assert trapezoid(u.grid * u.values, u.grid) == pytest.approx(cap * a0 / (a0 + e + 1.0),
                                                                 rel=1e-6)


def test_a_grid_far_below_the_law_is_not_taken_for_growth():
    # the middle knot lies near 1e-149, where u, like x^(a0 - 1), still
    # rises for six decades and more: the rule alone decides integrability
    u = stationary_density(gamma_model(2.0, 1.0), geometric_grid(1e-300, 30.0, 256))
    assert u.mass_outside == pytest.approx(31.0 * math.exp(-30.0), rel=1e-9)


def test_a_density_that_grows_at_infinity_is_still_refused(monkeypatch):
    # with the model screen off, a rate slope past the burst tail's 1/b
    # leaves u growing like e^x, and the rule refuses it
    monkeypatch.setattr(continuous, "_screen", lambda model, nu: None)
    m = ContinuousBurstModel(LinearRate(1.0, 3.0), LinearDecay(1.0),
                             ExponentialBurstKernel(0.5))
    with pytest.raises(NotIntegrable, match="has not decayed"):
        stationary_density(m, geometric_grid(1e-6, 30.0, 256))


def linear_scale_density(model, grid, x_ref):
    """Reference in linear scale: exp(ln nu - Q)/(decay x) at each knot over
    its trapezoid mass, and that mass; either may be inf, NaN or 0 where
    the float range is left."""
    nu = model.burst_size.nu
    with np.errstate(all="ignore"):
        raw = (np.exp(nu.log_value(grid) - Potential(model, x_ref).value(grid))
               / (model.decay.rate * grid))
        mass = trapezoid(raw, grid)
        return raw / mass, mass


@st.composite
def pdmp_models(draw):
    """The simulate workload's four PDMP families, with decay, burst scale,
    a0 and the slopes spread a decade past the workload's range, kept
    admissible, and an anchor x_ref anywhere in 1e-2 .. 1e2."""
    log_u = st.floats(-1.0, 1.0)
    gamma = 10.0 ** draw(log_u)
    level = gamma * draw(st.floats(1.0, 30.0))
    family = draw(st.sampled_from(["constant", "linear", "hill", "quadratic"]))
    b = 10.0 ** draw(log_u)
    if family == "quadratic":
        quad = 0.4 * 10.0 ** draw(log_u)
        kern = SeparableBurstKernel(GaussianExpNu(b, quad))
        rate = QuadraticRate(level, gamma * 0.1 * 10.0 ** draw(log_u),
                             2.0 * gamma * quad * draw(st.floats(0.2, 0.6)))
    else:
        kern = ExponentialBurstKernel(b)
        if family == "constant":
            rate = ConstantRate(level)
        elif family == "linear":
            rate = LinearRate(level, gamma / b * draw(st.floats(0.1, 0.5)))
        else:
            rate = HillRate(level, draw(st.floats(1.5, 3.0)), 1.0,
                            10.0 ** draw(log_u), draw(st.floats(1.5, 3.0)))
    x_ref = 10.0 ** draw(st.floats(-2.0, 2.0))
    return ContinuousBurstModel(rate, LinearDecay(gamma), kern), x_ref


@settings(max_examples=200)
@given(case=pdmp_models())
def test_log_domain_density_matches_the_linear_formula_wherever_it_was_finite(case):
    # the simulate benchmark certifies each PDMP run against stationary_density
    # on its histogram's range, 16 subcells a bin, outside any try.  Wherever
    # the linear-scale formula gave finite values of positive mass there, the
    # log-domain path must return the same law.  Its one refusal is a law
    # with more than 1e-4 of its mass above the range, by scipy's quadrature
    # of the linear-scale formula
    model, x_ref = case
    lo, hi = _law_ends(model)
    grid = geometric_grid(min(lo, 1.0), max(hi, 1.0), 16 * 64 + 1)
    ref, mass = linear_scale_density(model, grid, x_ref)
    if not (np.all(np.isfinite(ref)) and 0.0 < mass < math.inf):
        return
    try:
        u = stationary_density(model, grid, x_ref=x_ref)
    except GridTooNarrow as err:
        assert "above the last knot" in str(err)
        pot, nu = Potential(model, x_ref), model.burst_size.nu
        above = integrate.quad(lambda x: math.exp(float(nu.log_value(x)) - pot.value(x))
                               / (model.decay.rate * x), grid[-1], math.inf)[0]
        assert above > 0.5e-4 * (mass + above)
        return
    assert np.max(np.abs(u.values - ref)) <= 1e-13 * np.max(ref)


# ---------------------------------------------------------------------------
# integrability screens
# ---------------------------------------------------------------------------

def test_screen_exponential_rejects_fast_rates():
    quad = ContinuousBurstModel(QuadraticRate(1.0, 0.0, 0.5), LinearDecay(1.0),
                                ExponentialBurstKernel(0.5))
    with pytest.raises(NotIntegrable):
        stationary_density(quad)
    # slope/decay = 2.0 meets 1/b = 2.0: the marginal case diverges too
    lin = ContinuousBurstModel(LinearRate(1.0, 2.0), LinearDecay(1.0),
                               ExponentialBurstKernel(0.5))
    with pytest.raises(NotIntegrable):
        stationary_density(lin)
    # strictly below the margin is fine
    ok = ContinuousBurstModel(LinearRate(1.0, 1.5), LinearDecay(1.0),
                              ExponentialBurstKernel(0.5))
    # the law window holds the law's tail e^(-x/2), which a top at 17.8
    # cut at 1.4e-4
    assert stationary_density(ok).mass_outside < 2e-12


def test_screen_power_tail_needs_heavy_exponent():
    m = ContinuousBurstModel(ConstantRate(2.0), LinearDecay(1.0),
                             SeparableBurstKernel(PowerTailNu(1.0, 2.5)))
    with pytest.raises(NotIntegrable):
        stationary_density(m)


def test_screen_gaussian_tail_vs_growing_rates():
    m = ContinuousBurstModel(QuadraticRate(1.0, 0.0, 2.0), LinearDecay(1.0),
                             SeparableBurstKernel(GaussianExpNu(1.0, 0.5)))
    with pytest.raises(NotIntegrable):
        stationary_density(m)
    m2 = ContinuousBurstModel(LinearRate(1.0, 1.2), LinearDecay(1.0),
                              SeparableBurstKernel(GaussianExpNu(1.0, 0.0)))
    with pytest.raises(NotIntegrable):
        stationary_density(m2)


# ---------------------------------------------------------------------------
# the discretized jump kernel
# ---------------------------------------------------------------------------

def test_kernel_matrix_columns_are_stochastic():
    m = gamma_model()
    k = kernel_matrix(m, kernel_grid(m, 1024))
    col = k.weights @ k.matrix
    assert np.max(np.abs(col - 1.0)) < 1e-12
    # the raw quadrature sums sit close to one before the closure; the
    # residual excess is the x-kink error in the near-empty top columns
    assert 0.99 < float(np.min(k.raw_column_sums))
    assert float(np.max(k.raw_column_sums)) < 1.05


def test_kernel_apply_preserves_mass():
    m = gamma_model()
    k = kernel_matrix(m, kernel_grid(m, 256))
    rng = np.random.default_rng(1)
    for _ in range(4):
        v = rng.random(len(k.grid))
        before = float(np.dot(k.weights, v))
        after = float(np.dot(k.weights, k.apply(v)))
        assert after == pytest.approx(before, rel=1e-13)


def test_kernel_fixed_point_matches_analytic_law():
    m = gamma_model()
    g = kernel_grid(m, 1024)
    k = kernel_matrix(m, g)
    v = kernel_fixed_point(k, tol=1e-10)
    assert k.residual(v) <= 1e-10
    w = k.weights
    v_ref = g * g * np.exp(-g)
    v_ref /= float(np.dot(w, v_ref))
    v_hat = v.values / float(np.dot(w, v.values))
    assert float(np.dot(w, np.abs(v_hat - v_ref))) < 2e-3
    u = density_from_fixed_point(m, v)
    assert float(np.dot(w, np.abs(u.values - g * np.exp(-g)))) < 2e-3


def power_iteration(model, kernel, v0=None, tol=1e-10, max_iter=5000):
    """The solver the closed form replaced, kept as its oracle and to build
    start-dependent vectors: power iteration from ``v0``, or from a start
    decaying past the model's natural scale, averaged over the last 8
    iterates and stopped on the averaged iterate's weighted L1 residual."""
    w = kernel.weights
    if v0 is None:
        gamma = model.decay.rate     # a typical state: mean burst from 1 times rate(1)/decay
        scale = (float(model.burst_size.mean_burst(1.0))
                 * max(float(model.burst_rate.value(1.0)), gamma) / gamma)
        v = np.exp(-(kernel.grid - kernel.grid[0]) / scale)
    else:
        v = np.asarray(v0, dtype=float).copy()
    v /= float(np.dot(w, v))
    window = []
    for it in range(1, max_iter + 1):
        v = kernel.apply(v)
        v /= float(np.dot(w, v))
        window = window[-7:] + [v]
        if it % 4 == 0:
            avg = np.mean(window, axis=0)
            avg /= float(np.dot(w, avg))
            if float(np.dot(w, np.abs(kernel.apply(avg) - avg))) <= tol:
                return GridDensity(kernel.grid, avg / trapezoid(avg, kernel.grid))
    raise AssertionError(f"power iteration did not reach {tol} in {max_iter} steps")


def test_kernel_fixed_point_start_independent():
    m = gamma_model()
    k = kernel_matrix(m, kernel_grid(m, 512))
    a = kernel_fixed_point(k, tol=1e-10)
    b = power_iteration(m, k, v0=np.exp(-k.grid))
    w = k.weights
    aa = a.values / float(np.dot(w, a.values))
    bb = b.values / float(np.dot(w, b.values))
    assert float(np.dot(w, np.abs(aa - bb))) < 1e-8


def test_kernel_fixed_point_certifies_its_residual():
    m = gamma_model()
    k = kernel_matrix(m, kernel_grid(m, 256))
    assert k.residual(kernel_fixed_point(k, tol=1e-13)) <= 1e-13
    tilted = dataclasses.replace(k, ln_balance=k.ln_balance + 0.1 * np.log(k.grid))
    with pytest.raises(ToleranceNotMet):
        kernel_fixed_point(tilted)
    broken = k.ln_balance.copy()
    broken[7] = np.nan
    with pytest.raises(NumericalBlowup):
        kernel_fixed_point(dataclasses.replace(k, ln_balance=broken))


def test_kernel_finite_support_fixed_point():
    m = hill_flat_model(SeparableBurstKernel(FiniteSupportNu(2.0, 1.0)))
    g = kernel_grid(m, 1024)
    k = kernel_matrix(m, g)
    assert float(np.max(k.raw_column_sums)) < 1.25
    u = density_from_fixed_point(m, kernel_fixed_point(k, tol=1e-10))
    assert float(np.dot(k.weights, np.abs(u.values - (2.0 - g) / 2.0))) < 5e-3


def test_kernel_narrow_grid_is_refused():
    # power-tail kernels spill mass past any affordable grid end
    m = ContinuousBurstModel(ConstantRate(2.0), LinearDecay(1.0),
                             SeparableBurstKernel(PowerTailNu(1.0, 4.0)))
    with pytest.raises(GridTooNarrow):
        kernel_matrix(m, default_grid(m, 256))


@pytest.mark.parametrize("model", [
    # slope/decay 1.5 reaches 1/b: the mean burst gain outruns the decay
    ContinuousBurstModel(LinearRate(2.0, 1.5), LinearDecay(1.0), ExponentialBurstKernel(1.0)),
    # rate/decay 52830 beats the tail exponent: u grows like x^(a0 - 8132)
    ContinuousBurstModel(ConstantRate(25.2), LinearDecay(4.77e-4),
                         SeparableBurstKernel(PowerTailNu(0.0209, 8132.0))),
], ids=["linear-exponential", "constant-power-tail"])
def test_kernel_route_refuses_what_the_density_route_refuses(model):
    with pytest.raises(NotIntegrable):
        stationary_density(model)
    with pytest.raises(NotIntegrable):
        kernel_matrix(model, kernel_grid(model, 512))


def test_kernel_matrix_refuses_non_finite_columns():
    # the grid runs to its 1e12 stop, where ln nu reaches -1e23 and the
    # log factors lose every digit: the diagonal overflows
    m = ContinuousBurstModel(QuadraticRate(1.2, 0.3, 0.05), LinearDecay(0.9),
                             SeparableBurstKernel(GaussianExpNu(1.0, 0.5)))
    with np.errstate(all="ignore"), pytest.raises(GridTooNarrow):
        kernel_matrix(m, kernel_grid(m, 256))


def _loop_suffix_scan(log_fac, terms):
    y = np.array(terms, dtype=float)
    for i in range(len(y) - 2, -1, -1):
        y[i] = y[i] + math.exp(log_fac[i]) * y[i + 1]
    return y


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200, 1000])
def test_scans_match_a_plain_loop(n):
    rng = np.random.default_rng(n)
    log_fac = rng.normal(0.0, 3.0, n - 1)
    log_fac[::7] = -800.0                     # factors that underflow to 0
    terms = rng.random(n)
    ref = _loop_suffix_scan(log_fac, terms)
    assert np.allclose(_suffix_scan(log_fac, terms), ref, rtol=1e-12, atol=0.0)
    ref_up = _loop_suffix_scan(log_fac[::-1], terms[::-1])[::-1]
    assert np.allclose(_prefix_scan(log_fac, terms), ref_up, rtol=1e-12, atol=0.0)
    # trailing columns are scanned side by side
    both = _suffix_scan(log_fac, np.stack([terms, 2.0 * terms], axis=1))
    assert np.allclose(both[:, 0], ref, rtol=1e-12, atol=0.0)
    assert np.allclose(both[:, 1], 2.0 * ref, rtol=1e-12, atol=0.0)


def _dense_kernel(model, grid):
    """Dense reference for the O(n) operator: the n x n array
    exp(ln A_i + Q_j + ln S_min(i,j)) and its raw column sums."""
    ln_a, q, ln_s = _kernel_log_factors(model, grid, 1.0)
    raw = np.exp(ln_a[:, None] + q[None, :] + np.minimum(ln_s[:, None], ln_s[None, :]))
    return raw, _log_simpson_weights(grid) @ raw


@st.composite
def gated_models(draw, family=None):
    """Every rate x burst family whose kernel passes the column gate, with
    parameters in the benchmark's narrow ranges, or only the pairs of one
    burst ``family``.  Linear rates with exponential bursts put the grid
    at its 1e12 stop."""
    unit = st.floats(0.0, 1.0)
    rate, burst = draw(st.sampled_from([pair for pair in [
        ("constant", "exponential"), ("linear", "exponential"), ("hill", "exponential"),
        ("constant", "gaussian-exp"), ("linear", "gaussian-exp"), ("hill", "gaussian-exp"),
        ("constant", "finite-support"), ("linear", "finite-support"),
        ("quadratic", "finite-support"), ("hill", "finite-support"),
    ] if family in (None, pair[1])]))
    gamma = 0.8 + 0.45 * draw(unit)
    level = gamma * (1.5 + 1.5 * draw(unit))
    b = 0.6 + 0.8 * draw(unit)
    if rate == "constant":
        r = ConstantRate(level)
    elif rate == "linear":
        top = 1.0 / b if burst == "exponential" else 1.0
        r = LinearRate(level, gamma * top * (0.1 + 0.4 * draw(unit)))
    elif rate == "quadratic":
        r = QuadraticRate(level, gamma * (0.05 + 0.15 * draw(unit)),
                          0.2 * gamma * (0.2 + 0.4 * draw(unit)))
    else:
        r = HillRate(level, 1.5 + 1.5 * draw(unit), 1.0, 0.8 + 0.7 * draw(unit),
                     1.5 + 1.5 * draw(unit))
    if burst == "exponential":
        kern = ExponentialBurstKernel(b)
    elif burst == "gaussian-exp":
        kern = SeparableBurstKernel(GaussianExpNu(b, 0.2 + 0.4 * draw(unit)))
    else:
        cap = 6.0 + 6.0 * draw(unit)
        r1 = max(float(r.value(1.0)) / gamma, 1.0)
        kern = SeparableBurstKernel(FiniteSupportNu(
            cap, r1 * (cap - 1.0) / (0.6 * cap) - 0.8 + 0.8 * draw(unit)))
    return ContinuousBurstModel(r, LinearDecay(gamma), kern)


_WIDE = ContinuousBurstModel(LinearRate(2.0, 0.3), LinearDecay(1.0),
                             ExponentialBurstKernel(1.0))


@settings(max_examples=40)
@given(model=gated_models(), n_knots=st.integers(192, 512))
@example(model=_WIDE, n_knots=512)
@example(model=gamma_model(), n_knots=512)
def test_kernel_operator_matches_the_dense_assembly(model, n_knots):
    grid = kernel_grid(model, n_knots)
    raw, raw_sums = _dense_kernel(model, grid)
    try:
        k = kernel_matrix(model, grid)
    except GridTooNarrow:
        # too few knots for this draw; the dense assembly says so too
        assert np.min(raw_sums) < 1.0 - 1e-4
        return
    dense = k.matrix
    ref = raw / raw_sums
    assert np.max(np.abs(dense - ref)) <= 1e-12 * np.max(ref)
    assert np.max(np.abs(k.weights @ dense - 1.0)) < 1e-12
    v = np.random.default_rng(n_knots).random(n_knots)
    assert float(np.dot(k.weights, k.apply(v))) == pytest.approx(
        float(np.dot(k.weights, v)), rel=1e-13)


@settings(max_examples=40)
@given(model=gated_models(), n_knots=st.integers(192, 512))
@example(model=_WIDE, n_knots=512)
@example(model=gamma_model(), n_knots=512)
def test_kernel_fixed_point_is_the_detailed_balance_vector(model, n_knots):
    grid = kernel_grid(model, n_knots)
    try:
        k = kernel_matrix(model, grid)
    except GridTooNarrow:
        return      # too few knots for this draw; the dense test covers the refusal
    v = kernel_fixed_point(k, tol=1e-13)
    w = k.weights
    assert k.residual(v) <= 1e-13
    # the closed chain P_ij = w_i k_ij / R_j moves the mass m_j = w_j v_j
    # as much from j to i as from i to j
    raw, raw_sums = _dense_kernel(model, grid)
    flow = w[:, None] * raw / raw_sums * (w * v.values)
    assert np.max(np.abs(flow - flow.T)) <= 1e-12 * np.max(flow)
    # stopped at 1e-10 the oracle's own error reaches 7e-9 on some draws
    ref = power_iteration(model, k, tol=1e-12)
    a = v.values / float(np.dot(w, v.values))
    b = ref.values / float(np.dot(w, ref.values))
    assert float(np.dot(w, np.abs(a - b))) <= 1e-8


def test_kernel_fixed_point_on_a_wide_grid():
    # the leak estimate tends to slope * b / decay, so the grid runs to its
    # 1e12 stop, where the discretized chain barely mixes; power iteration
    # from a start spread over the grid stranded mass up there and still
    # certified, while the closed form needs no start
    m = _WIDE
    grid = kernel_grid(m, 2048)
    assert grid[-1] > 1e12
    k = kernel_matrix(m, grid)
    u = density_from_fixed_point(m, kernel_fixed_point(k, tol=1e-10))
    mean = trapezoid(grid * u.values, grid) / trapezoid(u.values, grid)
    exact = 1.0 * 2.0 / (1.0 - 1.0 * 0.3)  # b base / (decay - b slope)
    assert mean == pytest.approx(exact, rel=5e-3)
    assert mean_identity_residual(m, u) < 1e-3


def test_mean_identity_flags_a_stranded_fixed_point():
    m = _WIDE
    k = kernel_matrix(m, kernel_grid(m, 512))
    good = density_from_fixed_point(m, kernel_fixed_point(k, tol=1e-10))
    stranded = density_from_fixed_point(m, power_iteration(m, k, v0=np.ones(len(k.grid))))
    assert mean_identity_residual(m, good) < 1e-2
    assert mean_identity_residual(m, stranded) > 0.5
    # the exact law: a gamma density, shape base/decay, rate 1/b - slope/decay
    g = geometric_grid(1e-6, 200.0, 4000)
    exact = GridDensity(g, g * np.exp(-0.7 * g))
    assert mean_identity_residual(m, exact) < 1e-6


def test_kernel_memory_stays_linear():
    m = gamma_model()
    grid = kernel_grid(m, 4096)
    tracemalloc.start()
    try:
        kernel_fixed_point(kernel_matrix(m, grid), tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20  # a dense n x n assembly peaks at 178 MiB


def test_finite_support_assembly_memory_stays_linear():
    # each panel has its own substep count, up to 1024 for the panel next
    # to the cap, and the substep arrays are built a block of panels at a
    # time; all panels at once, at 90 substeps each, peak at 17 MiB
    m = ContinuousBurstModel(HillRate(2.0, 2.0, 1.0, 1.0, 2.0), LinearDecay(1.0),
                             SeparableBurstKernel(FiniteSupportNu(8.0, 4.0)))
    grid = kernel_grid(m, 4096)
    tracemalloc.start()
    try:
        kern = kernel_matrix(m, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    assert kern.residual(kernel_fixed_point(kern)) < 1e-9


# the seed-1 finite-support kernel-fixed-point cells of the solvers benchmark
_CAPPED_CONSTANT = ContinuousBurstModel(
    ConstantRate(2.1131026051819304), LinearDecay(0.9236649903218197),
    SeparableBurstKernel(FiniteSupportNu(9.148548942258383, 3.014272518908126)))
_CAPPED_HILL = ContinuousBurstModel(
    HillRate(2.4229529284874585, 2.3091325563976937, 1.0, 1.127223382349083,
             2.0986000039528676),
    LinearDecay(1.0245870405452713),
    SeparableBurstKernel(FiniteSupportNu(9.705716655024796, 5.050120451082261)))


@settings(max_examples=20)
@given(model=gated_models("finite-support"), n_knots=st.integers(512, 4096))
@example(model=_CAPPED_CONSTANT, n_knots=3072)
@example(model=_CAPPED_HILL, n_knots=4096)
def test_finite_support_s_integral_matches_a_finer_substepping(model, n_knots):
    # the substep counts near the cap against counts 8x denser under a 32x
    # higher ceiling, a reference that moves by 2e-7 when refined 4x more;
    # the top panel alone sits at the ceiling, so its knot gets the looser bound
    grid = kernel_grid(model, n_knots)
    ln_s = _kernel_log_factors(model, grid, 1.0)[2]
    with pytest.MonkeyPatch.context() as mp, np.errstate(divide="ignore"):
        # the finest substeps next to the cap are a few ulps wide, some zero
        mp.setattr(continuous, "_CAP_SUBSTEP_SCALE", 8 * continuous._CAP_SUBSTEP_SCALE)
        mp.setattr(continuous, "_MAX_SUBSTEPS", 32 * continuous._MAX_SUBSTEPS)
        ref = _kernel_log_factors(model, grid, 1.0)[2]
    err = np.abs(ln_s - ref)
    assert np.max(err[:-1]) <= 1e-5
    assert err[-1] <= 1e-3


# the other seed-1 kernel-fixed-point cells of the solvers benchmark
_SOLVERS_SEED1 = {
    "constant-finite-support": _CAPPED_CONSTANT,
    "hill-finite-support": _CAPPED_HILL,
    "constant-power-tail": ContinuousBurstModel(
        ConstantRate(2.4863451711223163), LinearDecay(1.1154836614371513),
        SeparableBurstKernel(PowerTailNu(1.2294807808584522, 7.065018451305294))),
    "linear-exponential": ContinuousBurstModel(
        LinearRate(2.3379548223142117, 0.33159662869062106), LinearDecay(0.9950579301978791),
        ExponentialBurstKernel(0.9366175691789558)),
    "constant-gaussian-exp": ContinuousBurstModel(
        ConstantRate(1.9714841057144572), LinearDecay(0.9436512534313872),
        SeparableBurstKernel(GaussianExpNu(1.032584703327279, 0.37277505601646777))),
    "hill-exponential": ContinuousBurstModel(
        HillRate(2.351823583051601, 2.3786261012812084, 1.0, 1.1506276724093771,
                 2.0871200903562483),
        LinearDecay(1.113268868197295), ExponentialBurstKernel(1.0866543114399423)),
    "constant-exponential": ContinuousBurstModel(
        ConstantRate(2.607678481296971), LinearDecay(1.0840571514077522),
        ExponentialBurstKernel(1.042012871696995)),
}


def scipy_ln_s0(model, x0):
    """ln of the S integral from the origin to x0 by scipy, in t = ln z,
    scaled by its value at x0; below ln x0 - 600 it is out of reach."""
    pot = Potential(model)
    nu = model.burst_size.nu

    def ln_integrand(t):
        z = math.exp(t)
        return (t - float(nu.log_value(z)) + math.log(float(model.burst_rate.value(z)))
                - math.log(model.decay.rate * z) - pot.value(z))

    top = ln_integrand(math.log(x0))
    val = integrate.quad(lambda t: math.exp(ln_integrand(t) - top), math.log(x0) - 600.0,
                         math.log(x0), epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return top + math.log(val)


@pytest.mark.parametrize("model", list(_SOLVERS_SEED1.values()), ids=list(_SOLVERS_SEED1))
def test_kernel_s_integral_from_the_origin_matches_scipy(model):
    # S(x0) is about 1e-12 to 1e-18 here: an absolute tolerance of 1e-14
    # once let ln S(x0) off by up to 1.7e-7
    grid = kernel_grid(model, 64)
    ln_s0 = _kernel_log_factors(model, grid, 1.0)[2][0]
    ref = scipy_ln_s0(model, float(grid[0]))
    assert abs(ln_s0 - ref) <= 1e-13 * abs(ref)


def test_kernel_route_at_a_large_burst_frequency():
    # a0 = 80: S at the first knot is about e^-755, which once underflowed
    # to 0 and emptied the bottom columns; the density there underflows too
    m = gamma_model(80.0, 1.0)
    k = kernel_matrix(m, kernel_grid(m, 2048))
    u = density_from_fixed_point(m, kernel_fixed_point(k))
    assert u.values[0] == 0.0
    assert trapezoid(u.grid * u.values, u.grid) == pytest.approx(80.0, rel=5e-3)


@settings(max_examples=20)
@given(model=gated_models("finite-support"))
def test_default_grid_of_a_finite_support_law_ends_at_the_cap(model):
    # the grid once stopped where the burst law from the natural scale
    # ended, 1.25 times that scale, and left out up to a quarter of the law
    grid = default_grid(model, 256)
    assert grid[-1] == model.burst_size.support_cap
    assert stationary_density(model, grid).mass_outside < 1e-6


def test_density_from_fixed_point_exact_input():
    # feed the closed-form jump density; only quadrature error remains
    m = gamma_model()
    g = geometric_grid(1e-6, 40.0, 2000)
    v = GridDensity(g, g * g * np.exp(-g))
    u = density_from_fixed_point(m, v)
    assert np.max(np.abs(u.values - g * np.exp(-g))) < 1e-4


# ---------------------------------------------------------------------------
# rate recovery
# ---------------------------------------------------------------------------

def test_phi_recovery_analytic_is_exact():
    m = gamma_model(2.0, 1.0)

    def u(x):
        return x * np.exp(-x)

    def du(x):
        return (1.0 - x) * np.exp(-x)

    x = np.linspace(0.1, 8.0, 40)
    phi = phi_from_density_analytic(m.decay, m.burst_size, u, du, x)
    assert np.max(np.abs(phi - 2.0)) < 1e-12


def test_phi_recovery_separable_kernel():
    m = hill_flat_model(SeparableBurstKernel(FiniteSupportNu(2.0, 1.0)))

    def u(x):
        return (2.0 - x) / 2.0

    def du(x):
        return np.full(np.shape(x), -0.5)

    x = np.linspace(0.2, 1.8, 20)
    phi = phi_from_density_analytic(m.decay, m.burst_size, u, du, x)
    assert np.max(np.abs(phi - 1.0)) < 1e-12


def test_phi_recovery_from_grid():
    m = gamma_model(2.0, 1.0)
    u = stationary_density(m, n_knots=1024)
    x, phi = phi_from_density_grid(m.decay, m.burst_size, u)
    assert np.max(np.abs(phi - 2.0) / 2.0) < 1e-3
    assert len(x) == len(phi)


def test_phi_recovery_on_a_thin_window_is_a_grid_refusal():
    # a finite density with two knots above floor * max leaves no room for
    # the three-point difference: the grid is too coarse, nothing overflowed
    m = gamma_model(2.0, 1.0)
    grid = geometric_grid(0.1, 10.0, 8)
    values = np.array([1e-20, 1e-15, 1.0, 0.5, 1e-13, 1e-16, 1e-18, 1e-20])
    with pytest.raises(GridTooNarrow, match="too thin"):
        phi_from_density_grid(m.decay, m.burst_size, GridDensity(grid, values))


@pytest.mark.parametrize("cap,exponent", [(10.0, 2.0), (4.0, 0.5), (6.0, 0.4), (3.0, 3.0)])
@pytest.mark.parametrize("rate", [ConstantRate(3.0), ConstantRate(1.2), LinearRate(1.0, 0.5)],
                         ids=["constant3", "constant1.2", "linear"])
def test_phi_recovery_from_grid_up_to_a_finite_cap(rate, cap, exponent):
    # ln u and ln nu both plunge at the cap; their difference does not
    m = ContinuousBurstModel(rate, LinearDecay(1.0),
                             SeparableBurstKernel(FiniteSupportNu(cap, exponent)))
    u = stationary_density(m, n_knots=1024)
    x, phi = phi_from_density_grid(m.decay, m.burst_size, u)
    assert np.max(np.abs(phi / rate.value(x) - 1.0)) < 1e-3


# ---------------------------------------------------------------------------
# mode census
# ---------------------------------------------------------------------------

def test_modes_gamma_law_single_maximum():
    rep = count_modes_continuous(gamma_model(2.0, 1.0))
    assert len(rep.roots) == 1
    assert rep.roots[0] == pytest.approx(1.0, abs=1e-8)
    assert rep.kinds == ("max",)
    assert not rep.boundary_mode


def test_modes_monotone_law_boundary_only():
    rep = count_modes_continuous(gamma_model(0.5, 1.0))
    assert rep.roots == ()
    assert rep.boundary_mode


def test_modes_bistable_rate():
    m = ContinuousBurstModel(HillRate(2.0, 2.0, 1.0, 0.0625, 4.0),
                             LinearDecay(1.0), ExponentialBurstKernel(0.2))
    rep = count_modes_continuous(m)
    assert rep.kinds == ("max", "min", "max")
    assert not rep.boundary_mode
    ref = (0.2012717101, 1.037589992, 12.59211374)
    for got, want in zip(rep.roots, ref):
        assert got == pytest.approx(want, rel=1e-6)


def test_modes_window_too_small():
    m = ContinuousBurstModel(HillRate(2.0, 2.0, 1.0, 0.0625, 4.0),
                             LinearDecay(1.0), ExponentialBurstKernel(0.2))
    with pytest.raises(WindowTooSmall):
        count_modes_continuous(m, window=(0.001, 2.0))
    with pytest.raises(ModelError):
        count_modes_continuous(m, window=(2.0, 1.0))
    with pytest.raises(ModelError):     # one point brackets nothing
        count_modes_continuous(m, n_scan=1)


# ---------------------------------------------------------------------------
# ergodicity margin
# ---------------------------------------------------------------------------

def test_ergodicity_margin_closed_form_case():
    # flat-rate model: the margin integral collapses to 0.5 - y/2... times
    # an exact weight, giving m1/2 - y/2 at probe y
    m = hill_flat_model(ExponentialBurstKernel(0.5))
    assert ergodicity_scan(m, [100.0])[0][0] == pytest.approx(-49.5, abs=1e-6)
    assert ergodicity_scan(m, [1.0])[0][0] == pytest.approx(0.0, abs=1e-10)
    for bad in ([0.0], [1.0, -2.0], [math.nan]):
        with pytest.raises(DomainError):
            ergodicity_scan(m, bad)


def direct_margin(model, y):
    """The margin at y by one scipy quadrature from 0, as a reference for
    the scan.  In t = ln z the integrand near the origin, z^a0 times a
    regular part, decays like e^(a0 t); below t = -700 it is negligible."""
    pot = Potential(model)
    q_y = pot.value(y)

    def integrand(t):
        z = math.exp(t)
        m1 = float(model.burst_size.mean_burst(z))
        drift = m1 * float(model.burst_rate.value(z)) / (model.decay.rate * z) - 1.0
        return z * drift * math.exp(min(q_y - pot.value(z), 0.0))

    return integrate.quad(integrand, -700.0, math.log(y), epsabs=1e-13, epsrel=1e-13,
                          limit=400)[0]


@pytest.mark.parametrize("model", [
    ContinuousBurstModel(HillRate(2.3, 2.2, 1.0, 1.2, 2.3), LinearDecay(1.0),
                         ExponentialBurstKernel(1.0)),
    ContinuousBurstModel(LinearRate(1.2, 0.3), LinearDecay(0.9),
                         SeparableBurstKernel(GaussianExpNu(1.0, 0.4))),
    ContinuousBurstModel(QuadraticRate(1.1, 0.2, 0.1), LinearDecay(1.2),
                         SeparableBurstKernel(FiniteSupportNu(6.0, 0.4))),
    ContinuousBurstModel(ConstantRate(1.5), LinearDecay(1.0),
                         SeparableBurstKernel(PowerTailNu(1.0, 4.0))),
    # rate(0)/decay = 0.3 and 0.6: the density's boundary mode, where the
    # margin's first piece has an x^(a0-1) singularity at the origin
    ContinuousBurstModel(ConstantRate(0.3), LinearDecay(1.0), ExponentialBurstKernel(1.0)),
    ContinuousBurstModel(HillRate(0.66, 2.2, 1.0, 1.2, 2.3), LinearDecay(1.1),
                         SeparableBurstKernel(GaussianExpNu(1.0, 0.4))),
], ids=["hill-exponential", "linear-gaussian", "quadratic-finite", "constant-power",
        "boundary-0.3", "boundary-0.6"])
def test_ergodicity_scan_carries_the_margin_forward(model):
    # unsorted probes with repeats: the one-pass scan reports the sorted
    # probes' margins, each equal to its own quadrature from 0
    probes = [3.0, 0.05, 1.0, 3.0, 0.4, 5.5, 0.05]
    margins, running = ergodicity_scan(model, probes)
    want = [direct_margin(model, y) for y in sorted(probes)]
    assert margins == pytest.approx(want, abs=1e-9, rel=0.0)
    assert np.array_equal(running, np.maximum.accumulate(margins))


def test_ergodicity_scan_orders_probes():
    m = hill_flat_model(ExponentialBurstKernel(0.5))
    margins, running = ergodicity_scan(m, [10.0, 1.0, 100.0])
    assert margins[0] == pytest.approx(0.0, abs=1e-10)
    assert margins[1] == pytest.approx(-4.5, abs=1e-8)
    assert margins[2] == pytest.approx(-49.5, abs=1e-6)
    assert np.all(np.diff(running) >= 0.0)
    assert np.max(running) < 1e-9
