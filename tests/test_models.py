import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from burstkin.errors import ModelError
from burstkin.models import (
    ConstantRate,
    ContinuousBurstModel,
    DiscreteBurstModel,
    ExponentialBurstKernel,
    FiniteSupportNu,
    GaussianExpNu,
    GeometricBurst,
    HillRate,
    LinearDecay,
    LinearRate,
    PowerTailNu,
    QuadraticRate,
    SeparableBurstKernel,
    TabulatedBurst,
    TabulatedDecay,
    TabulatedRate,
    TruncatedLinearRate,
)
from burstkin.numerics import make_rng


def _fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# rate laws
# ---------------------------------------------------------------------------

def test_rate_values():
    x = np.array([0.0, 0.5, 2.0, 7.0])
    cases = [
        (ConstantRate(1.3), lambda t: 1.3 + 0.0 * t),
        (LinearRate(0.4, 0.2), lambda t: 0.4 + 0.2 * t),
        (QuadraticRate(0.4, 0.2, 0.1), lambda t: 0.4 + 0.2 * t + 0.1 * t * t),
        (HillRate(2.0, 0.5, 1.0, 0.25, 2.0),
         lambda t: 2.0 * (1.0 + 0.5 * t ** 2) / (1.0 + 0.25 * t ** 2)),
    ]
    for rate, ref in cases:
        assert np.allclose(rate.value(x), ref(x), rtol=1e-14)


def test_hill_rate_past_the_overflow_of_x_to_the_exponent():
    # x^40 overflows at x = 1e8: the value is the limit scale * numer / denom_coeff
    r = HillRate(1.5, 3.0, 1.0, 1.0, 40.0)
    assert r.value(1e8) == 4.5
    x = np.array([0.0, 0.5, 1.0, 2.0, 1e8, 1e300])
    expected = [1.5, 1.5 * (1.0 + 3.0 * 0.5 ** 40) / (1.0 + 0.5 ** 40), 3.0,
                1.5 * (2.0 ** -40 + 3.0) / (2.0 ** -40 + 1.0), 4.5, 4.5]
    assert np.allclose(r.value(x), expected, rtol=1e-15)


def test_rate_scalar_in_scalar_out():
    r = HillRate(1.0, 1.0, 1.0, 1.0, 1.0)
    assert isinstance(r.value(2.0), float)
    assert r.value(2.0) == pytest.approx(1.0)  # numerator equals denominator


def test_truncated_linear_rate():
    r = TruncatedLinearRate(5.0, -1.0, 4.0)
    assert r.value(0) == 5.0
    assert r.value(4) == 1.0
    assert r.value(9) == 0.0  # shut off past the cutoff
    # without an explicit cutoff the zero crossing supplies one
    auto = TruncatedLinearRate(6.0, -2.0)
    assert auto.cutoff == pytest.approx(3.0)
    with pytest.raises(ModelError):
        TruncatedLinearRate(5.0, 1.0)  # growing rate needs a cutoff


def test_tabulated_rate_and_decay():
    r = TabulatedRate((2.0, 1.0, 0.5))
    assert r.value(2) == 0.5
    assert list(r.value(np.array([0, 1]))) == [2.0, 1.0]
    with pytest.raises(ModelError):
        r.value(0.5)
    d = TabulatedDecay((0.0, 1.0, 2.5))
    assert d.value(2) == 2.5
    with pytest.raises(ModelError):
        TabulatedDecay((0.5, 1.0))  # state 0 must be absorbing-free


def test_rate_validation():
    with pytest.raises(ModelError):
        ConstantRate(-1.0)
    with pytest.raises(ModelError):
        HillRate(1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ModelError):
        LinearRate(1.0, math.nan)


def test_linear_decay():
    d = LinearDecay(2.0)
    assert d.value(3.0) == 6.0
    assert d.derivative(10.0) == 2.0
    assert d.value(0) == 0.0
    with pytest.raises(ModelError):
        LinearDecay(0.0)


# ---------------------------------------------------------------------------
# discrete burst laws
# ---------------------------------------------------------------------------

def test_geometric_burst_law():
    g = GeometricBurst(0.25)
    ks = np.arange(1, 60)
    pmf = g.pmf(ks)
    assert np.all(pmf > 0)
    assert math.fsum(pmf.tolist()) == pytest.approx(1.0, abs=1e-12)
    # h_k = (1-b) b^{k-1}
    assert pmf[0] == pytest.approx(0.75)
    assert pmf[2] == pytest.approx(0.75 * 0.25 ** 2)
    assert g.mean() == pytest.approx(1.0 / 0.75)
    # tail(l) = P(K > l) = b^l
    assert g.tail(0) == pytest.approx(1.0)
    assert g.tail(3) == pytest.approx(0.25 ** 3)
    with pytest.raises(ModelError):
        GeometricBurst(1.5)
    with pytest.raises(ModelError):
        GeometricBurst(0.0)


def test_geometric_burst_sampling():
    g = GeometricBurst(0.6)
    rng = make_rng(11, 0)
    draws = np.array([g.size_at(rng.random()) for _ in range(20000)])
    assert draws.min() >= 1
    assert abs(draws.mean() - g.mean()) < 0.05


def test_tabulated_burst():
    t = TabulatedBurst((0.5, 0.25, 0.25))
    assert t.pmf(1) == 0.5
    assert t.pmf(4) == 0.0
    assert t.tail(1) == pytest.approx(0.5)
    assert t.mean() == pytest.approx(0.5 + 2 * 0.25 + 3 * 0.25)
    rng = make_rng(3, 0)
    assert all(1 <= t.size_at(rng.random()) <= 3 for _ in range(200))
    with pytest.raises(ModelError):
        TabulatedBurst((0.5, 0.1))


def test_tabulated_burst_draws_match_the_numpy_inverse_cdf():
    # the prebuilt running sums pick the same size as np.cumsum +
    # searchsorted(side="right"), clipped to the table, bit for bit,
    # including uniforms in [0, 1) that sit exactly on a cumulative weight,
    # whether drawn one at a time or as an array
    rng = np.random.default_rng(2)
    for _ in range(300):
        t = TabulatedBurst(tuple(rng.dirichlet(np.ones(rng.integers(1, 12)))))
        cum = np.cumsum(t.weights)
        assert t.cumulative == tuple(cum.tolist())
        u = np.array(rng.random(20).tolist() + [c for c in cum.tolist() if c < 1.0] + [0.0])
        expected = np.minimum(np.searchsorted(cum, u, side="right") + 1, len(cum))
        assert [t.size_at(v) for v in u.tolist()] == expected.tolist()
        assert np.array_equal(t.size_at(u), expected)


def test_tabulated_burst_never_draws_a_size_of_weight_zero():
    # ten weights of 0.1 sum to 0.9999999999999999, which the largest
    # uniform below 1 reaches
    t = TabulatedBurst((0.1,) * 10)
    assert t.cumulative[-1] == 1.0 - 2.0**-53
    assert t.size_at(1.0 - 2.0**-53) == 10
    # a trailing zero weight is never drawn either
    t = TabulatedBurst((0.1,) * 10 + (0.0,))
    assert np.array_equal(t.size_at(np.array([0.0, 0.95, 1.0 - 2.0**-53])), [1, 10, 10])


def test_geometric_size_at_inverts_the_cdf():
    # size k for u in [F(k-1), F(k)), F(k) = 1 - b^k the burst-size CDF
    g = GeometricBurst(0.45)
    u = make_rng(8, 0).random(500)
    for v, k in zip(u.tolist(), g.size_at(u).tolist()):
        assert 1.0 - g.b ** (k - 1) <= v < 1.0 - g.b ** k
        assert g.size_at(v) == k
    assert g.size_at(0.0) == 1


def test_burst_helpers():
    g = GeometricBurst(0.5)
    assert g.mean() == pytest.approx(2.0)
    assert g.tail(np.array([0, 1, 2]))[1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# continuous kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [
    PowerTailNu(1.5, 3.0),
    GaussianExpNu(1.0, 0.5),
    GaussianExpNu(2.0, 0.0),
    FiniteSupportNu(2.0, 1.5),
])
def test_nu_internal_consistency(nu):
    cap = nu.support_cap
    xs = np.linspace(0.05, min(cap, 6.0) * 0.9, 7)
    for x in xs:
        # log_slope = -nu'/nu, nu' by a central difference
        assert nu.log_slope(x) == pytest.approx(-_fd(nu.value, x) / nu.value(x), rel=1e-5)
        # log_value = ln(nu)
        assert nu.log_value(x) == pytest.approx(math.log(nu.value(x)), rel=1e-12)
        # log_tail is the ratio nu(y + x)/nu(y)
        assert nu.log_tail(x, 0.05) == pytest.approx(
            math.log(nu.value(0.05 + x) / nu.value(0.05)), rel=1e-12, abs=1e-14)
        # the overshoot drawn for the unit exponential t leaves tail e^{-t}
        y = 0.3 * x
        t = 0.7
        assert nu.log_tail(nu.draw_overshoot(t, y), y) == pytest.approx(-t, rel=1e-12)
    # the mean overshoot is the integral of nu past y over nu(y)
    a = 0.3
    hi = cap if math.isfinite(cap) else math.inf
    ref = integrate.quad(nu.value, a, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0] / nu.value(a)
    assert nu.mean_overshoot(a) == pytest.approx(ref, rel=1e-9)


@st.composite
def nu_and_state(draw):
    """A tail shape of each family and a state y in [1e-6, 1e12] inside its support."""
    y = draw(st.floats(1e-6, 1e12))
    family = draw(st.sampled_from(["power-tail", "exponential", "gaussian", "finite-support"]))
    if family == "power-tail":
        nu = PowerTailNu(draw(st.floats(1e-3, 1e3)), draw(st.floats(1.5, 50.0)))
    elif family == "exponential":
        nu = GaussianExpNu(draw(st.floats(1e-3, 1e3)), 0.0)
    elif family == "gaussian":
        nu = GaussianExpNu(draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-6, 1e3)))
    else:
        nu = FiniteSupportNu(y * draw(st.floats(1.0 + 1e-6, 1e3)), draw(st.floats(0.05, 50.0)))
    return nu, y


def _tail_integral(kern, y, scale):
    # integral over x >= 0 of the burst tail, with x = scale (e^v - 1) so
    # the quadrature sees a unit-scale integrand whatever the state; past
    # v = 700 even the heaviest tail drawn here (x^-1/2) leaves < e^-350
    def f(v):
        return kern.tail(scale * math.expm1(v), y) * scale * math.exp(v)

    cap = kern.support_cap
    hi = math.log1p((cap - y) / scale) if math.isfinite(cap) else 700.0
    val, _ = integrate.quad(f, 0.0, hi, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


@settings(max_examples=300)
@given(case=nu_and_state(), seed=st.integers(0, 2**32 - 1))
def test_nu_layer_is_finite_and_matches_its_oracle(case, seed):
    nu, y = case
    kern = SeparableBurstKernel(nu)
    mean = kern.mean_burst(y)
    assert math.isfinite(mean) and mean >= 0.0
    for x in (0.0, 0.5 * mean, mean, 10.0 * mean, 1e150):
        t = kern.tail(x, y)
        assert math.isfinite(t) and 0.0 <= t <= 1.0
    draw = nu.draw_overshoot(-math.log1p(-make_rng(seed, 0).random()), y)
    assert math.isfinite(draw) and draw >= 0.0
    if isinstance(nu, GaussianExpNu) and nu.quad > 0.0:
        q = nu.quad
        ref = math.sqrt(math.pi / (4.0 * q)) * special.erfcx(
            (nu.lin + 2.0 * q * y) / (2.0 * math.sqrt(q)))
    else:
        ref = _tail_integral(kern, y, mean)
    assert mean == pytest.approx(ref, rel=1e-12)


def test_power_tail_draw_past_the_float_range():
    # t/exponent = 1000 is past expm1's range: the burst is +inf, which the
    # simulator reports as a blow-up
    assert PowerTailNu(1.0, 0.01).draw_overshoot(10.0, 1.0) == math.inf


def test_nu_validation():
    with pytest.raises(ModelError):
        PowerTailNu(0.0, 2.0)
    with pytest.raises(ModelError):
        GaussianExpNu(-1.0, 0.0)
    with pytest.raises(ModelError):
        FiniteSupportNu(2.0, 0.0)


def test_exponential_kernel():
    k = ExponentialBurstKernel(0.5)
    assert k.b == 0.5
    assert k.nu == GaussianExpNu(2.0, 0.0)
    assert isinstance(k, SeparableBurstKernel)
    with pytest.raises(ModelError):
        ExponentialBurstKernel(0.0)
    assert k.mean_burst(3.0) == pytest.approx(0.5)
    xs = np.array([0.1, 1.0])
    assert np.allclose(k.density(xs, 2.0), np.exp(-xs / 0.5) / 0.5)
    assert k.tail(1.0, 2.0) == pytest.approx(math.exp(-2.0))
    assert not math.isfinite(k.support_cap)
    rng = make_rng(4, 0)
    draws = np.array([k.nu.draw_overshoot(-math.log1p(-rng.random()), 1.0)
                      for _ in range(20000)])
    assert abs(draws.mean() - 0.5) < 0.02


def test_separable_kernel_density_normalizes():
    # h(x, y) = -nu'(x+y)/nu(y) integrates to 1 over x whenever the tail
    # function vanishes at the end of its support
    for nu in (PowerTailNu(1.0, 3.0), FiniteSupportNu(2.0, 1.0)):
        kern = SeparableBurstKernel(nu)
        y = 0.7
        hi = nu.support_cap - y if math.isfinite(nu.support_cap) else math.inf
        total = integrate.quad(lambda x: kern.density(x, y), 0.0, hi, epsabs=1e-12)[0]
        assert total == pytest.approx(1.0, abs=1e-10)


def test_separable_kernel_sampling_stays_in_support():
    kern = SeparableBurstKernel(FiniteSupportNu(2.0, 1.0))
    rng = make_rng(8, 0)
    y = 0.5
    draws = np.array([kern.nu.draw_overshoot(-math.log1p(-rng.random()), y)
                      for _ in range(5000)])
    assert draws.min() > 0
    assert draws.max() < 2.0 - y
    # mean burst from y matches the kernel moment
    ref = integrate.quad(lambda x: x * kern.density(x, y), 0.0, 2.0 - y, epsabs=1e-12)[0]
    assert abs(draws.mean() - ref) < 0.02
    assert kern.mean_burst(y) == pytest.approx(ref, rel=1e-9)


def test_separable_kernel_rejects_states_outside_support():
    kern = SeparableBurstKernel(FiniteSupportNu(2.0, 1.0))
    rng = make_rng(8, 0)
    with pytest.raises(ModelError):
        kern.nu.draw_overshoot(-math.log1p(-rng.random()), 2.5)


# ---------------------------------------------------------------------------
# assembled models
# ---------------------------------------------------------------------------

def test_discrete_model_requires_positive_rate_at_zero():
    with pytest.raises(ModelError):
        DiscreteBurstModel(LinearRate(0.0, 1.0), LinearDecay(1.0), GeometricBurst(0.5))
    m = DiscreteBurstModel(ConstantRate(1.0), LinearDecay(1.0), GeometricBurst(0.5))
    assert m.burst_rate.value(0) == 1.0


def test_continuous_model_requires_positive_rate_at_origin():
    with pytest.raises(ModelError):
        ContinuousBurstModel(LinearRate(0.0, 2.0), LinearDecay(1.0),
                             ExponentialBurstKernel(1.0))
    m = ContinuousBurstModel(HillRate(1.0, 1.0, 1.0, 1.0, 1.0), LinearDecay(1.0),
                             ExponentialBurstKernel(1.0))
    assert m.burst_rate.value(0.0) == pytest.approx(1.0)
