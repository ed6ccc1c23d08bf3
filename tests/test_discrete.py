import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import gammaln

from burstkin.discrete import (
    HypergeometricFamily,
    Pmf,
    _DROP,
    _LANES,
    _MIXED,
    _jump_epoch_law,
    _mixing_bound,
    _propagator,
    count_modes_discrete,
    evolve_master,
    master_rhs_truncated,
    mean_identity_residual,
    named_family_params,
    simulate_jump_chain,
    stationary_pmf_general,
    stationary_pmf_geometric,
)
from burstkin.errors import (
    ModelError,
    NotNormalizable,
    NumericError,
    TailNotConverged,
)
from burstkin.models import (
    ConstantRate,
    DiscreteBurstModel,
    GeometricBurst,
    HillRate,
    LinearDecay,
    LinearRate,
    TabulatedBurst,
    TabulatedDecay,
    TabulatedRate,
    TruncatedLinearRate,
)
from burstkin import discrete, numerics
from burstkin.numerics import PATH_CHUNK, expm, make_rng, tv_distance


def nb_model(lam0=1.0, lam1=0.0, gamma=1.0, b=0.5):
    rate = ConstantRate(lam0) if lam1 == 0.0 else LinearRate(lam0, lam1)
    return DiscreteBurstModel(rate, LinearDecay(gamma), GeometricBurst(b))


def nb_log_oracle(lam0, lam1, gamma, b, n_max):
    """Log of the negative binomial through log-gamma only; shares no code
    with the recurrence or the family classes."""
    p = (lam1 + b * gamma) / gamma
    a = lam0 / (b * gamma + lam1)
    n = np.arange(n_max + 1)
    return (gammaln(a + n) - gammaln(a) - gammaln(n + 1)
            + n * math.log(p) + a * math.log1p(-p))


def nb_oracle(lam0, lam1, gamma, b, n_max):
    return np.exp(nb_log_oracle(lam0, lam1, gamma, b, n_max))


def tail_sum_loop(model, n_max):
    """The stationary recurrence as an O(n^2) loop: each s_n is a fresh dot
    product of rate * p with the reversed burst tail.  The reference for
    stationary_pmf_general."""
    n = np.arange(n_max + 1)
    lam = np.asarray(model.burst_rate.value(n), dtype=float)
    gam = np.asarray(model.decay.value(n), dtype=float)
    tail = np.asarray(model.burst_size.tail(np.arange(n_max + 1)), dtype=float)
    w = np.zeros(n_max + 1)
    w[0] = 1.0
    lw = np.zeros(n_max + 1)   # rate(k) * w(k), kept in the same scale as w
    lw[0] = lam[0]
    for n in range(n_max):
        s = float(np.dot(lw[: n + 1], tail[n::-1]))
        w[n + 1] = s / gam[n + 1]
        lw[n + 1] = lam[n + 1] * w[n + 1]
        peak = w[n + 1]
        if peak > 1e280:   # rescale against the running maximum
            w[: n + 2] /= peak
            lw[: n + 2] /= peak
    return w / math.fsum(w.tolist())


# ---------------------------------------------------------------------------
# stationary recurrences
# ---------------------------------------------------------------------------

def test_stationary_matches_gammaln_oracle():
    m = nb_model(1.0, 0.0, 1.0, 0.5)
    pmf = stationary_pmf_general(m, 300)
    assert np.max(np.abs(pmf.values - nb_oracle(1.0, 0.0, 1.0, 0.5, 300))) < 1e-13


def test_stationary_linear_rate_oracle():
    m = nb_model(0.8, 0.2, 1.3, 0.4)
    pmf = stationary_pmf_general(m, 250)
    assert np.max(np.abs(pmf.values - nb_oracle(0.8, 0.2, 1.3, 0.4, 250))) < 1e-13


def test_two_routes_agree():
    rng = np.random.default_rng(42)
    for _ in range(12):
        gamma = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.1, 0.85)
        lam0 = rng.uniform(0.2, 4.0)
        lam1 = rng.uniform(0.0, 0.9) * gamma * (1.0 - b)
        m = nb_model(lam0, lam1, gamma, b)
        a = stationary_pmf_general(m, 250, tail_tol=None)
        c = stationary_pmf_geometric(m, 250, tail_tol=None)
        assert np.max(np.abs(a.values - c.values)) < 1e-12


def test_both_routes_read_a_decay_table_only_up_to_n_max():
    decay = TabulatedDecay((0.0,) + tuple(0.5 * n for n in range(1, 31)))
    m = DiscreteBurstModel(ConstantRate(1.0), decay, GeometricBurst(0.3))
    a = stationary_pmf_general(m, 30, tail_tol=None)
    c = stationary_pmf_geometric(m, 30, tail_tol=None)
    assert np.max(np.abs(a.values - c.values)) < 1e-12


def test_stationary_is_a_master_equation_fixed_point():
    for m in (nb_model(2.0, 0.0, 1.0, 0.5),
              DiscreteBurstModel(TruncatedLinearRate(3.0, -0.2, 12.0), LinearDecay(1.0),
                                 TabulatedBurst((0.5, 0.3, 0.2)))):
        pmf = stationary_pmf_general(m, 200)
        rhs = master_rhs_truncated(m, pmf)
        # zero flux across every cut: the truncated law is G's null vector,
        # the cap included
        assert np.max(np.abs(rhs)) < 1e-12


def test_divergent_linear_rate_rejected():
    with pytest.raises(NotNormalizable):
        stationary_pmf_general(nb_model(1.0, 0.5, 1.0, 0.5), 100)
    with pytest.raises(NotNormalizable):
        stationary_pmf_geometric(nb_model(1.0, 0.7, 1.0, 0.5), 100)
    # just under the margin is fine (heavy tail, so skip the truncation check)
    stationary_pmf_general(nb_model(1.0, 0.49, 1.0, 0.5), 400, tail_tol=None)


def test_divergent_linear_rate_rejected_under_any_burst_law(monkeypatch):
    # slope E[K] >= decay outruns decay whatever the size law: here
    # 2 * 1.5 >= 1 with sizes 1 and 2, refused at once, not after a
    # truncated recurrence that piles its mass at the cap
    steep = DiscreteBurstModel(LinearRate(1.0, 2.0), LinearDecay(1.0), TabulatedBurst((0.5, 0.5)))
    with pytest.raises(NotNormalizable):
        stationary_pmf_general(steep, 100)
    # so the chain runs no recurrence at all, not one per doubled cap
    runs = []

    def counted(model, caps, tail_tol):
        runs.append(caps)
        return tail_sum_law(model, caps, tail_tol)
    tail_sum_law = discrete._tail_sum_law
    monkeypatch.setattr(discrete, "_tail_sum_law", counted)
    assert simulate_jump_chain(steep, 0, 2000, seed=1).start == "n0" and runs == []
    # below the margin, 0.6 * 1.5 < 1: a law exists and the lanes start from
    # it, after one recurrence
    mild = DiscreteBurstModel(LinearRate(1.0, 0.6), LinearDecay(1.0), TabulatedBurst((0.5, 0.5)))
    assert stationary_pmf_general(mild, 400, tail_tol=None).mass() == pytest.approx(1.0)
    runs.clear()
    assert simulate_jump_chain(mild, 0, 2000, seed=1).start == "stationary" and len(runs) == 1


def test_tail_check_and_escape_hatch():
    m = nb_model(1.0, 0.0, 1.0, 0.5)
    with pytest.raises(TailNotConverged):
        stationary_pmf_general(m, 5)
    pmf = stationary_pmf_general(m, 5, tail_tol=None)
    assert pmf.mass() == pytest.approx(1.0, abs=1e-12)


def test_log_values_cover_underflowed_tail():
    # steep decay pushes the tail far below the linear floating range
    m = nb_model(0.5, 0.0, 5.0, 0.05)
    pmf = stationary_pmf_geometric(m, 600, tail_tol=None)
    assert pmf.log_values is not None
    log_ref = nb_log_oracle(0.5, 0.0, 5.0, 0.05, 600)
    assert np.all(np.abs(pmf.log_values - log_ref) <= 1e-14 * np.maximum(1.0, np.abs(log_ref)))
    # linear and log values agree where both live
    live = pmf.values > 1e-250
    assert np.allclose(np.log(pmf.values[live]), pmf.log_values[live], atol=1e-10)


@settings(max_examples=60)
@given(level=st.floats(0.0, 300.0).map(lambda u: 10.0 ** u),
       gamma=st.floats(-1.0, 1.0).map(lambda u: 10.0 ** u), b=st.floats(0.05, 0.95))
@example(level=1e16, gamma=1.0, b=0.5)
@example(level=1e300, gamma=0.1, b=0.5)
def test_large_rates_agree_on_both_routes(level, gamma, b):
    # from a rate of about 1e16 on, rate * w overflows unless the
    # recurrence rescales before forming it
    m = DiscreteBurstModel(ConstantRate(level), LinearDecay(gamma), GeometricBurst(b))
    a = stationary_pmf_general(m, 200, tail_tol=None)
    c = stationary_pmf_geometric(m, 200, tail_tol=None)
    assert np.all(np.isfinite(a.values))
    assert np.max(np.abs(a.values - c.values)) <= 1e-12


def test_pmf_container():
    p = Pmf(np.array([0.25, 0.5, 0.25]))
    assert p.n_max == 2
    assert p.log_values is None
    assert p.mass() == pytest.approx(1.0)
    q = Pmf(np.array([1.0, 1.0])).normalized()
    assert q.values[0] == pytest.approx(0.5)
    with pytest.raises(NotNormalizable):
        Pmf(np.zeros(3)).normalized()


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def test_named_family_negative_binomial_parameters():
    fam = named_family_params(nb_model(1.0, 0.0, 1.0, 0.5))
    assert isinstance(fam, HypergeometricFamily) and fam.label == "1F0"
    assert fam.s == pytest.approx(0.5)
    assert fam.upper == pytest.approx((2.0,)) and fam.lower == ()
    assert np.max(np.abs(fam.pmf(300) - nb_oracle(1.0, 0.0, 1.0, 0.5, 300))) < 1e-13
    with pytest.raises(NotNormalizable):
        named_family_params(nb_model(1.0, 0.6, 1.0, 0.5))


def test_named_family_hill_real_roots():
    m = DiscreteBurstModel(HillRate(1.0, 1.0, 1.0, 1.0, 1.0), LinearDecay(1.0),
                           GeometricBurst(0.5))
    fam = named_family_params(m)
    assert isinstance(fam, HypergeometricFamily) and fam.label == "2F1"
    assert sorted(fam.upper) == pytest.approx([1.0, 2.0])
    assert (*fam.lower, fam.s) == pytest.approx((1.0, 0.5))
    pmf = stationary_pmf_general(m, 300, tail_tol=None)
    assert np.max(np.abs(pmf.values - fam.pmf(300))) < 1e-12


def test_named_family_hill_complex_pair():
    m = DiscreteBurstModel(HillRate(1.0, 0.1, 1.0, 1.0, 1.0), LinearDecay(1.0),
                           GeometricBurst(0.5))
    fam = named_family_params(m)
    assert isinstance(fam, HypergeometricFamily) and fam.label == "2F1"
    assert fam.upper[0].imag != 0.0
    assert fam.upper[0] == fam.upper[1].conjugate()
    pmf = stationary_pmf_general(m, 300, tail_tol=None)
    assert np.max(np.abs(pmf.values - fam.pmf(300))) < 1e-12


def test_named_family_hill_second_order():
    m = DiscreteBurstModel(HillRate(1.5, 0.5, 2.0, 0.5, 2.0), LinearDecay(1.0),
                           GeometricBurst(0.3))
    fam = named_family_params(m)
    assert isinstance(fam, HypergeometricFamily) and fam.label == "3F2"
    assert len(fam.upper) == 3 and len(fam.lower) == 2
    pmf = stationary_pmf_general(m, 200, tail_tol=None)
    assert np.max(np.abs(pmf.values - fam.pmf(200))) < 1e-11


def test_named_family_hill_fourth_order_is_finite():
    # a linear-scale complex product of the parameters overflows to NaN here
    m = DiscreteBurstModel(HillRate(30.0, 5.0, 1.0, 0.01, 4.0), LinearDecay(1.0),
                           GeometricBurst(0.8))
    fam = named_family_params(m)
    assert fam.label == "5F4"
    p = fam.pmf(4000)
    assert np.all(np.isfinite(p))
    assert np.max(np.abs(p - stationary_pmf_general(m, 4000, tail_tol=None).values)) <= 1e-12


@pytest.mark.parametrize("exponent, scale", [(50, 2.0), (50, 20.0), (20, 2.0), (20, 20.0)])
def test_named_family_declines_roots_that_miss_their_polynomial(exponent, scale):
    # a switch from scale to 3 scale at n = 20: the roots of a degree-51
    # balance polynomial are off by O(1), at degree 21 by enough to move
    # the pmf past 1e-12, while the pmf itself is fine
    m = DiscreteBurstModel(HillRate(scale, 3.0 * 20.0 ** -exponent, 1.0, 20.0 ** -exponent,
                                    exponent), LinearDecay(1.0), GeometricBurst(0.6))
    fam = named_family_params(m)
    if fam is not None:
        ref = stationary_pmf_general(m, 2000, tail_tol=None).values
        assert np.max(np.abs(fam.pmf(2000) - ref)) <= 1e-12
    if exponent == 50:
        assert fam is None


def test_named_family_declines_a_coefficient_past_the_float_range():
    # rate 1e200 at every n, but scale * numer_coeff = 1e400 in P: np.roots
    # would raise on the inf; the recurrence itself runs
    m = DiscreteBurstModel(HillRate(1e200, 1e200, 1.0, 1e200, 2.0), LinearDecay(1.0),
                           GeometricBurst(0.5))
    assert named_family_params(m) is None
    assert np.all(np.isfinite(stationary_pmf_general(m, 200, tail_tol=None).values))


def _refuse_roots(*args, **kwargs):
    raise AssertionError("np.roots called")


def test_named_family_declines_a_high_hill_degree_without_roots(monkeypatch):
    # the companion eigenproblem of degree N costs O(N^3): N = 1500 took
    # seconds, and N = 1e5 would ask for about 80 GB
    at_bound = DiscreteBurstModel(HillRate(2.0, 1.0, 1.0, 1.0, 64.0), LinearDecay(1.0),
                                  GeometricBurst(0.5))
    assert named_family_params(at_bound) is not None
    monkeypatch.setattr(np, "roots", _refuse_roots)
    for exponent in (65.0, 1500.0, 1e5):
        m = DiscreteBurstModel(HillRate(2.0, 1.0, 1.0, 1.0, exponent), LinearDecay(1.0),
                               GeometricBurst(0.5))
        assert named_family_params(m) is None


def _decades(draw, lo=-3.0, hi=3.0):
    return 10.0 ** draw(st.floats(lo, hi))


@st.composite
def family_models(draw):
    """Constant, linear and integer-exponent Hill rates x geometric bursts,
    coefficients log-uniform over about +-3 decades, rates up to 1e3."""
    gamma = _decades(draw, -1.0, 1.0)
    b = draw(st.floats(0.01, 0.99))
    family = draw(st.sampled_from(("constant", "linear", "hill")))
    if family == "constant":
        rate = ConstantRate(_decades(draw))
    elif family == "linear":
        # inside the normalizability margin slope < decay * (1 - b)
        rate = LinearRate(_decades(draw), 0.999 * gamma * (1.0 - b) * _decades(draw, -3.0, 0.0))
    else:
        # rate(0) = scale / d0 and rate(inf) = scale * theta / d1, each up to 1e3
        d0, d1 = _decades(draw), _decades(draw)
        scale = _decades(draw) * d0
        rate = HillRate(scale, _decades(draw) * d1 / scale, d0, d1, draw(st.integers(1, 4)))
    return DiscreteBurstModel(rate, LinearDecay(gamma), GeometricBurst(b))


@settings(max_examples=80)
@given(model=family_models(), n_max=st.integers(1, 3000))
def test_named_family_is_finite_and_matches_the_recurrence_or_declines(model, n_max):
    fam = named_family_params(model)
    if fam is None:
        return
    p = fam.pmf(n_max)
    assert np.all(np.isfinite(p))
    ref = stationary_pmf_general(model, n_max, tail_tol=None).values
    assert np.max(np.abs(p - ref)) <= 1e-12


def test_named_family_none_for_other_shapes():
    m = DiscreteBurstModel(ConstantRate(1.0), LinearDecay(1.0),
                           TabulatedBurst((0.5, 0.5)))
    assert named_family_params(m) is None


# ---------------------------------------------------------------------------
# balance checks
# ---------------------------------------------------------------------------

def test_mean_identity_sharp_on_stationary_law():
    for m in (nb_model(1.0, 0.0, 1.0, 0.5),
              nb_model(0.6, 0.3, 1.2, 0.4),
              DiscreteBurstModel(HillRate(1.0, 1.0, 1.0, 1.0, 1.0),
                                 LinearDecay(1.0), GeometricBurst(0.5))):
        pmf = stationary_pmf_general(m, 400)
        assert mean_identity_residual(m, pmf) < 1e-12


def test_mean_identity_flags_wrong_law():
    m = nb_model(1.0, 0.0, 1.0, 0.5)
    wrong = Pmf(nb_oracle(2.0, 0.0, 1.0, 0.5, 400))
    assert mean_identity_residual(m, wrong) > 1e-3


# ---------------------------------------------------------------------------
# master equation
# ---------------------------------------------------------------------------

def test_master_rhs_conserves_mass_exactly():
    m = nb_model(1.5, 0.0, 1.0, 0.6)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.random(80)
        v /= v.sum()
        assert abs(math.fsum(master_rhs_truncated(m, v).tolist())) < 1e-13


def test_evolve_master_decays_toward_stationarity():
    m = nb_model(1.0, 0.0, 1.0, 0.5)
    v0 = np.zeros(101)
    v0[0] = 1.0
    trace = evolve_master(m, v0, 20.0, n_snapshots=10)
    assert trace.l1_to_stationary[-1] < 1e-6
    assert trace.l1_to_stationary[0] > trace.l1_to_stationary[-1]
    for p in trace.pmfs:
        assert abs(p.mass() - 1.0) < 1e-9


def test_evolve_master_snapshot_times_are_exact():
    m = nb_model(1.0, 0.0, 1.0, 0.5)
    v0 = np.zeros(61)
    v0[3] = 1.0
    trace = evolve_master(m, v0, 5.0, n_snapshots=4)
    assert list(trace.times) == [1.25, 2.5, 3.75, 5.0]


def transient_pmf(lam, b, gamma, n0, t, n):
    """P(N(t) = k), k <= n, for constant rate lam, geometric bursts b and
    decay gamma k, started at n0: the generating function

        G(z, t) = (1 + (z - 1) s)^n0 [(1 - b - b (z - 1) s) / (1 - b z)]^(lam / (gamma b)),

    s = e^(-gamma t), solved by characteristics, inverted by one FFT on
    2^14 roots of unity.  Both bracketed factors keep a positive real part
    on the unit circle, so the principal power is the analytic one."""
    size = 1 << 14
    z = np.exp(2j * np.pi * np.arange(size) / size)
    s = math.exp(-gamma * t)
    g = (1.0 + (z - 1.0) * s) ** n0 * ((1.0 - b - b * (z - 1.0) * s) / (1.0 - b * z)) ** (
        lam / (gamma * b))
    return np.fft.fft(g).real[:n + 1] / size


@settings(max_examples=25, deadline=None)
@given(mean=st.floats(0.5, 60.0), b=st.floats(0.05, 0.8), gamma=st.floats(0.2, 5.0),
       n0=st.integers(0, 150), t=st.floats(0.01, 5.0), slack=st.floats(0.0, 1.0))
def test_evolve_master_matches_the_exact_transient(mean, b, gamma, n0, t, slack):
    # the transient of a negative-binomial model in closed form: the
    # truncated master equation, with under 1e-14 of mass at its cap, is
    # the untruncated law to 1e-12 in L1
    lam = mean * gamma * (1.0 - b)
    times = (0.5 * t, t)
    exact = [transient_pmf(lam, b, gamma, n0, u, 400) for u in times]
    tails = [np.cumsum(p[::-1])[::-1] for p in exact]
    need = max(int(np.argmax(tail < 1e-16)) for tail in tails)
    assume(0 < need and n0 < need <= 400)
    cap = need + int(slack * (400 - need))
    v0 = np.zeros(cap + 1)
    v0[n0] = 1.0
    model = DiscreteBurstModel(ConstantRate(lam), LinearDecay(gamma), GeometricBurst(b))
    trace = evolve_master(model, v0, t, n_snapshots=2)
    assume(max(float(p.values[-1]) for p in trace.pmfs) < 1e-14)
    for pmf, want in zip(trace.pmfs, exact):
        assert np.sum(np.abs(pmf.values - want[:cap + 1])) <= 1e-12


def test_evolve_master_validates_inputs():
    m = nb_model()
    with pytest.raises(ModelError):
        evolve_master(m, np.array([1.0, 0.0]), 1.0)      # too few states
    with pytest.raises(ModelError):
        evolve_master(m, np.zeros(10), 0.0)              # no horizon
    with pytest.raises(ModelError, match="2048"):
        evolve_master(m, np.zeros(2050), 1.0)            # dense G too large
    with pytest.raises(ModelError, match="n_snapshots"):
        evolve_master(m, np.zeros(10), 1.0, n_snapshots=0)


def convolution_rhs(model, values):
    """The master-equation RHS as the convolution of the burst pmf with
    lam * p; the reference for master_rhs_truncated."""
    cap = len(values) - 1
    n = np.arange(cap + 1)
    lam = np.asarray(model.burst_rate.value(n), dtype=float)
    gam = np.asarray(model.decay.value(n), dtype=float)
    h_vec = np.asarray(model.burst_size.pmf(n), dtype=float)
    h_vec[0] = 0.0
    tail_vec = np.asarray(model.burst_size.tail(np.arange(cap)), dtype=float)
    lp = lam * values
    rhs = -gam * values
    rhs[:-1] += gam[1:] * values[1:]
    rhs[:cap] -= lp[:cap]
    conv = np.convolve(h_vec, lp)[: cap + 1]
    rhs[1:cap] += conv[1:cap]
    rhs[cap] += float(np.dot(lp[:cap], tail_vec[::-1]))
    return rhs


RATE_FAMILIES = ("constant", "linear", "hill", "truncated-linear")


@st.composite
def discrete_models(draw):
    """Normalizable models of every discrete rate family, geometric bursts."""
    unit = st.floats(0.0, 1.0)
    family = draw(st.sampled_from(RATE_FAMILIES))
    gamma = 0.8 + 0.45 * draw(unit)
    b = 0.3 + 0.4 * draw(unit)
    level = gamma * (1.5 + 2.5 * draw(unit))
    if family == "constant":
        rate = ConstantRate(level)
    elif family == "linear":
        rate = LinearRate(level, gamma * (1.0 - b) * (0.2 + 0.4 * draw(unit)))
    elif family == "hill":
        rate = HillRate(level, 1.5 + 1.5 * draw(unit), 1.0, 0.3 + 0.7 * draw(unit),
                        1.5 + 1.5 * draw(unit))
    else:
        rate = TruncatedLinearRate(level, -gamma * (0.1 + 0.2 * draw(unit)),
                                   10.0 + 30.0 * draw(unit))
    return DiscreteBurstModel(rate, LinearDecay(gamma), GeometricBurst(b))


@st.composite
def tabulated_models(draw):
    """discrete_models() with the geometric law swapped for a table of 1-6 sizes."""
    model = draw(discrete_models())
    weights = [0.05 + draw(st.floats(0.0, 1.0)) for _ in range(draw(st.integers(1, 6)))]
    burst = TabulatedBurst(tuple(w / math.fsum(weights) for w in weights))
    return DiscreteBurstModel(model.burst_rate, model.decay, burst)


@settings(max_examples=80)
@given(model=st.one_of(discrete_models(), tabulated_models()), n_max=st.integers(1, 2000))
def test_stationary_recurrence_matches_the_quadratic_loop(model, n_max):
    got = stationary_pmf_general(model, n_max, tail_tol=None).values
    ref = tail_sum_loop(model, n_max)
    live = ref > 1e-300
    assert np.all(np.abs(got[live] - ref[live]) <= 1e-13 * ref[live])


def test_master_rhs_matches_the_convolution_formula():
    rng = np.random.default_rng(3)
    models = [nb_model(1.5, 0.0, 1.0, 0.6), nb_model(2.0, 0.3, 1.0, 0.5),
              DiscreteBurstModel(HillRate(2.0, 2.0, 1.0, 0.5, 2.0), LinearDecay(1.2),
                                 GeometricBurst(0.4)),
              DiscreteBurstModel(TruncatedLinearRate(3.0, -0.2, 12.0), LinearDecay(1.0),
                                 TabulatedBurst((0.5, 0.3, 0.2))),
              DiscreteBurstModel(ConstantRate(1.0),
                                 TabulatedDecay(tuple(float(i * i) for i in range(40))),
                                 GeometricBurst(0.5))]
    for m in models:
        for cap in (2, 3, 17, 39):
            v = rng.random(cap + 1)
            ref = convolution_rhs(m, v)
            got = master_rhs_truncated(m, v)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            # a matrix is taken column by column
            cols = rng.random((cap + 1, 2))
            ref = np.column_stack([convolution_rhs(m, c) for c in cols.T])
            got = master_rhs_truncated(m, cols)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            gen = master_rhs_truncated(m, np.eye(cap + 1))
            assert np.max(np.abs(gen.sum(axis=0))) <= 1e-13


@settings(max_examples=60)
@given(model=discrete_models(), cap=st.integers(3, 400),
       t_end=st.floats(1e-3, 1e3), n_snapshots=st.integers(1, 30),
       start=st.floats(0.0, 1.0))
# the benchmark's cap-400 linear-rate cell
@example(model=nb_model(2.0, 0.3, 1.0, 0.5), cap=400, t_end=30.0, n_snapshots=25, start=0.0)
def test_evolve_master_matches_the_scipy_propagator(model, cap, t_end, n_snapshots, start):
    v0 = np.zeros(cap + 1)
    v0[int(start * cap)] = 1.0
    trace = evolve_master(model, v0, t_end, n_snapshots=n_snapshots)
    gen = master_rhs_truncated(model, np.eye(cap + 1))
    step = scipy.linalg.expm((t_end / n_snapshots) * gen)
    # the exact propagator is column stochastic; scipy's squarings drift
    # from unit column mass by up to 2.5e-12 over this range of horizons
    step /= step.sum(axis=0)
    ref = v0
    for pmf in trace.pmfs:
        ref = step @ ref
        assert np.sum(np.abs(pmf.values - ref)) <= 1e-12
        assert abs(pmf.mass() - 1.0) <= 1e-12
    assert list(trace.times) == [t_end * (i + 1) / n_snapshots for i in range(n_snapshots)]


def test_evolve_master_step_counts_compose():
    # sixteen steps of 0.25 reach the law that one step of 4 does
    m = nb_model(2.0, 0.3, 1.0, 0.5)
    v0 = np.zeros(81)
    v0[5] = 1.0
    once = evolve_master(m, v0, 4.0, n_snapshots=1)
    even = evolve_master(m, v0, 4.0, n_snapshots=16)
    assert np.sum(np.abs(once.pmfs[-1].values - even.pmfs[-1].values)) < 1e-12
    gen = master_rhs_truncated(m, np.eye(81))
    ref = scipy.linalg.expm(1.75 * gen) @ v0
    assert np.sum(np.abs(evolve_master(m, v0, 1.75, n_snapshots=1).pmfs[0].values - ref)) < 1e-12


def test_evolve_master_reuses_an_equal_gap_propagator():
    m = nb_model(2.0, 0.3, 1.0, 0.5)
    v0 = np.zeros(81)
    v0[5] = 1.0
    even = evolve_master(m, v0, 4.0, n_snapshots=4)
    step, once = _propagator(master_rhs_truncated(m, np.eye(81)), 1.0)
    assert even.squarings == once
    v = v0
    for pmf in even.pmfs:
        v = step @ v
        assert np.array_equal(pmf.values, v)


def test_propagator_scales_the_generator_in_place():
    gen = master_rhs_truncated(nb_model(2.0, 0.3, 1.0, 0.5), np.eye(41))
    kept = gen.copy()
    p, count = _propagator(gen, 3.0)
    # G holds dt G / 2^h, the argument expm was given, with h >= count
    halvings = math.frexp(float(np.linalg.norm(3.0 * kept, 1)))[1]
    assert np.array_equal(gen, np.ldexp(3.0 * kept, -halvings))
    assert 0.5 <= np.linalg.norm(gen, 1) < 1.0 and 0 < count <= halvings
    q, count_again = _propagator(kept.copy(), 3.0)
    assert np.array_equal(p, q) and count == count_again


def undropped_propagator(gen, dt):
    """_propagator's scaling, renormalized squaring and stop once mixed,
    keeping every entry."""
    a = dt * gen
    halvings = max(0, math.frexp(float(np.linalg.norm(a, 1)))[1])
    p = expm(np.ldexp(a, -halvings))
    for _ in range(halvings):
        p = p @ p
        p /= p.sum(axis=0)
        if _mixing_bound(p) < _MIXED:
            break
    return p


@settings(max_examples=40)
@given(model=discrete_models(), cap=st.integers(3, 400),
       t_end=st.floats(1e-3, 1e3), n_snapshots=st.integers(1, 30),
       start=st.floats(0.0, 1.0))
# a benchmark-sized cell: 2-14% of the entries of its first nine squares lie below _DROP
@example(model=nb_model(2.0, 0.3, 1.0, 0.5), cap=400, t_end=30.0, n_snapshots=25, start=0.0)
def test_propagator_drop_is_invisible_in_the_snapshots(model, cap, t_end, n_snapshots, start):
    gen = master_rhs_truncated(model, np.eye(cap + 1))
    dt = t_end / n_snapshots
    step, _ = _propagator(gen.copy(), dt)     # consumes its generator
    assert np.all(np.abs(step[step != 0.0]) >= _DROP)
    ref_step = undropped_propagator(gen, dt)
    v = np.zeros(cap + 1)
    v[int(start * cap)] = 1.0
    ref = v
    for _ in range(n_snapshots):
        v, ref = step @ v, ref_step @ ref
        assert np.sum(np.abs(v - ref)) <= 1e-100


@settings(max_examples=60)
@given(model=discrete_models(), cap=st.integers(3, 30), dt=st.floats(1e-3, 1e3))
def test_mixing_bound_is_at_least_the_pairwise_dobrushin_coefficient(model, cap, dt):
    gen = master_rhs_truncated(model, np.eye(cap + 1))
    p, _ = _propagator(gen, dt)
    # tau(P) = 1/2 max_{j,k} |P e_j - P e_k|_1, over every pair of columns
    tau = 0.5 * float(np.max(np.sum(np.abs(p[:, :, None] - p[:, None, :]), axis=0)))
    # the columns carry unit mass to rounding, which is all the bound assumes
    assert _mixing_bound(p) >= tau - 1e-14
    assert _mixing_bound(p) <= 1.0


@pytest.mark.parametrize("cap", (40, 200, 400))
@pytest.mark.parametrize("rate", (LinearRate(2.0, 0.3), ConstantRate(2.0),
                                  HillRate(2.0, 2.0, 1.0, 0.5, 2.0)))
def test_long_horizons_stop_squaring_once_mixed(cap, rate):
    m = DiscreteBurstModel(rate, LinearDecay(1.0), GeometricBurst(0.5))
    v0 = np.zeros(cap + 1)
    v0[0] = 1.0
    far = evolve_master(m, v0, 1e300)
    # 2^-h (1e300 / 25) |G|_1 < 1 takes about 1000 halvings
    assert 0 < far.squarings <= 25
    assert far.l1_to_stationary[-1] <= 1e-10


def test_evolve_master_memory_at_cap_400():
    m = nb_model(2.0, 0.3, 1.0, 0.5)
    v0 = np.zeros(401)
    v0[0] = 1.0
    tracemalloc.start()
    try:
        evolve_master(m, v0, 30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 401 x 401 array is 1.23 MiB, and at most four are live, with
    # expm's buffer of 101 rows: G scaled in place to dt G, and expm's
    # a^2, a^3 and sum; that is 5.22 MiB
    assert peak <= 5.75 * 2 ** 20


def test_evolve_master_never_enters_lapack(monkeypatch):
    # the Taylor step needs no solve; a LAPACK call alone grows a fresh
    # process's RSS by several MiB
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK entered")
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    rng = np.random.default_rng(4)
    off = rng.random((30, 30))
    np.fill_diagonal(off, 0.0)
    gen = off - np.diag(off.sum(axis=0))
    for norm in (0.5, 1.0 - 1e-12):
        a = gen * (norm / np.linalg.norm(gen, 1))
        assert np.linalg.norm(expm(a) - scipy.linalg.expm(a), 1) <= 1e-13
    m = nb_model(2.0, 0.3, 1.0, 0.5)
    v0 = np.zeros(61)
    v0[0] = 1.0
    even = evolve_master(m, v0, 4.0, n_snapshots=8)
    once = evolve_master(m, v0, 4.0, n_snapshots=1)
    assert np.sum(np.abs(even.pmfs[-1].values - once.pmfs[-1].values)) < 1e-12


def projected_within_the_sink(model, cap, n0, t_end, n_snapshots=25):
    """evolve_master from n0 against the full-cap propagator, snapshot by
    snapshot: the coupling bound |p - ref|_1 <= sink mass, plus rounding.
    Returns the trace and the references."""
    v0 = np.zeros(cap + 1)
    v0[n0] = 1.0
    trace = evolve_master(model, v0, t_end, n_snapshots=n_snapshots)
    step, _ = _propagator(master_rhs_truncated(model, np.eye(cap + 1)), t_end / n_snapshots)
    refs = [v0]
    for pmf in trace.pmfs:
        refs.append(step @ refs[-1])
        assert np.sum(np.abs(pmf.values - refs[-1])) <= trace.max_cap_mass + 1e-14
    assert 3 <= trace.solved_states <= cap + 1
    if trace.solved_states <= cap:
        assert trace.max_cap_mass <= discrete._FSP_TOL
    return trace, refs[1:]


@settings(max_examples=60, deadline=None)
@given(model=discrete_models(), cap=st.integers(3, 400), start=st.floats(0.0, 1.0),
       t_end=st.floats(1e-3, 1e3))
def test_projection_lies_within_its_sink_of_the_full_cap(model, cap, start, t_end):
    projected_within_the_sink(model, cap, int(start * cap), t_end)


# the benchmark's three master-equation cells, seed 1
BENCH_CELLS = {
    "linear-400": (DiscreteBurstModel(LinearRate(2.6703567311513194, 0.17563895170332428),
                                      LinearDecay(0.950826147254911),
                                      GeometricBurst(0.5257182181137077)),
                   400, 31.551509270765955),
    "hill-300": (DiscreteBurstModel(HillRate(3.106932728010263, 2.4520271609574094, 1.0,
                                             0.5994318423030599, 2.3837123685134634),
                                    LinearDecay(1.1247097531049608),
                                    GeometricBurst(0.486710282526116)),
                 300, 26.673548368527683),
    "constant-200": (DiscreteBurstModel(ConstantRate(2.482329843861655),
                                        LinearDecay(0.9422476522134748),
                                        GeometricBurst(0.5004397716236079)),
                     200, 31.838763333106428),
}


@pytest.mark.parametrize("cell", sorted(BENCH_CELLS))
def test_projection_solves_the_benchmark_cells_on_under_half_the_cap(cell):
    model, cap, t_end = BENCH_CELLS[cell]
    trace, _ = projected_within_the_sink(model, cap, 0, t_end)
    assert trace.solved_states <= cap / 2


def test_projection_doubles_past_a_start_above_the_bulk():
    # the first sink sits just above n0 = 160, and the first bursts fill it
    model, cap, t_end = BENCH_CELLS["linear-400"]
    trace, _ = projected_within_the_sink(model, cap, 160, t_end)
    assert 2 * 161 <= trace.solved_states - 1 < cap


@pytest.mark.parametrize("n0, t_end", [(200, 31.838763333106428), (0, 1e300)])
def test_projection_falls_back_to_the_cap_bit_for_bit(n0, t_end):
    # a start at the cap leaves no room for a sink, and over 1e300 the
    # stationary flux into every state below the cap exceeds the tolerance:
    # both solve the cap itself
    model, cap, _ = BENCH_CELLS["constant-200"]
    trace, refs = projected_within_the_sink(model, cap, n0, t_end)
    assert trace.solved_states == cap + 1
    assert trace.max_cap_mass == max(float(ref[-1]) for ref in refs)
    for pmf, ref in zip(trace.pmfs, refs):
        assert np.array_equal(pmf.values, ref)


# ---------------------------------------------------------------------------
# jump-chain simulation
# ---------------------------------------------------------------------------

def test_simulation_is_reproducible_and_stream_split():
    m = nb_model()
    a = simulate_jump_chain(m, 0, 2000, seed=5)
    b = simulate_jump_chain(m, 0, 2000, seed=5)
    c = simulate_jump_chain(m, 0, 2000, seed=5, stream=1)
    assert np.array_equal(a.occupancy.values, b.occupancy.values)
    assert a.total_time == b.total_time
    assert np.array_equal(a.wait_draws, b.wait_draws)
    assert not np.array_equal(a.wait_draws, c.wait_draws)
    assert a.total_time != c.total_time


def test_simulation_bookkeeping():
    m = nb_model()
    res = simulate_jump_chain(m, 0, 500, seed=1)
    assert res.start == "stationary"
    assert len(res.wait_draws) == 500
    assert np.all(res.wait_draws > 0)
    # a rate that outruns decay has no stationary law, so every lane starts
    # at n0 = 0.  State 0 has no decay channel, so a lane's first event must
    # be a burst: lane 0's second holding time is spent above 0
    divergent = DiscreteBurstModel(LinearRate(1.0, 1.0), LinearDecay(1.0), GeometricBurst(0.5))
    two = simulate_jump_chain(divergent, 0, _LANES + 1, seed=1)
    assert two.start == "n0"
    assert two.occupancy.n_max >= 1 and two.occupancy.values[0] > 0.0
    # occupancy is a normalized time-weighted histogram
    assert res.occupancy.mass() == pytest.approx(1.0, abs=1e-12)
    ref = scalar_jump_chain(m, 0, 500, 1)
    assert res.total_time == ref[2]


def test_simulation_occupancy_tracks_stationary_law():
    m = nb_model()
    res = simulate_jump_chain(m, 0, 60000, seed=9)
    ref = nb_oracle(1.0, 0.0, 1.0, 0.5, res.occupancy.n_max)
    tv = 0.5 * np.sum(np.abs(res.occupancy.values - ref)) + 0.5 * (1.0 - ref.sum())
    assert tv < 0.05


def test_simulation_inside_a_short_decay_table():
    # bursts fire only below n = 4 and add at most 2, so the chain never
    # leaves the 40-state table; the stationary solver handles the same model
    decay = TabulatedDecay((0.0,) + tuple(0.5 * n for n in range(1, 40)))
    m = DiscreteBurstModel(TruncatedLinearRate(2.0, -0.5), decay, TabulatedBurst((0.5, 0.5)))
    pmf = stationary_pmf_general(m, 30)
    res = simulate_jump_chain(m, 0, 20000, seed=4)
    assert res.occupancy.n_max <= 5
    n = res.occupancy.n_max
    tv = 0.5 * float(np.sum(np.abs(res.occupancy.values - pmf.values[: n + 1])))
    assert tv < 0.05
    # a start past the table is still refused
    with pytest.raises(ModelError):
        simulate_jump_chain(m, 45, 10, seed=4)


def test_simulation_rejects_bad_start():
    with pytest.raises(ModelError):
        simulate_jump_chain(nb_model(), -1, 10, seed=0)
    for n_jumps in (0, -1):
        with pytest.raises(ModelError):
            simulate_jump_chain(nb_model(), 0, n_jumps, seed=0)


def scalar_start_states(model, n0, lanes, seed, stream):
    """Each lane's first state: pi_J(n) proportional to pi(n) (rate(n) +
    decay(n)), pi on the first cap from 64 up, doubling and never past a
    decay table or 2^16, whose top 5% holds under 1e-12, read through its
    running sums by one uniform of make_rng(seed, stream)'s first spawned
    stream per lane; n0 for every lane where the solver refuses."""
    top = 1 << 16
    if isinstance(model.decay, TabulatedDecay):
        top = min(top, len(model.decay.table) - 1)
    cap = min(64, top)
    while True:
        try:
            pi = stationary_pmf_general(model, cap, tail_tol=1e-12)
            break
        except TailNotConverged:
            if cap == top:
                return [n0] * lanes
            cap = min(2 * cap, top)
        except NumericError:
            return [n0] * lanes
    w = [p * float(model.burst_rate.value(n) + model.decay.value(n))
         for n, p in enumerate(pi.values.tolist())]
    last = max(n for n, x in enumerate(w) if x > 0.0)
    cdf = list(itertools.accumulate(w[: last + 1]))
    starts = []
    rng = make_rng(seed, stream).spawn(1)[0]
    for _ in range(lanes):
        v = rng.random() * cdf[-1]
        starts.append(min(sum(1 for c in cdf if c <= v), last))
    return starts


def scalar_jump_chain(model, n0, n_jumps, seed, stream=0):
    """The jump chain as a per-jump loop over min(_LANES, n_jumps) lanes:
    jump k moves lane k mod R and draws three uniforms, the wait, the
    decision and the size, reading them through the same numpy
    expressions one float at a time; numpy rate arrays grown by
    concatenation past every state entered, the burst laws' inverse CDFs
    written out, and every output written per jump.  Returns (waits,
    occupancy, total_time)."""
    rng = make_rng(seed, stream)
    lam_arr, gam_arr = np.empty(0), np.empty(0)

    def ensure(n):
        nonlocal lam_arr, gam_arr
        if n < len(lam_arr):
            return
        hi = max(n + 1, len(lam_arr) + 256)
        if isinstance(model.decay, TabulatedDecay):
            hi = max(n + 1, min(hi, len(model.decay.table)))
        idx = np.arange(len(lam_arr), hi)
        lam_arr = np.concatenate([lam_arr, np.asarray(model.burst_rate.value(idx), float)])
        gam_arr = np.concatenate([gam_arr, np.asarray(model.decay.value(idx), float)])

    def burst_size(v):
        law = model.burst_size
        if isinstance(law, GeometricBurst):
            return max(1, math.ceil(np.log1p(-v) / math.log(law.b)))
        k = int(np.searchsorted(np.cumsum(law.weights), v, side="right"))
        return min(k, len(law.weights) - 1) + 1

    ensure(n0)
    lanes = min(_LANES, n_jumps)
    states = scalar_start_states(model, n0, lanes, seed, stream)
    ensure(max(states))
    waits = np.zeros(n_jumps)
    occupancy = np.zeros(max(16, max(states) + 1))
    t = 0.0
    for k in range(n_jumps):
        n = states[k % lanes]
        lam, gam = lam_arr[n], gam_arr[n]
        total = lam + gam
        wait, decision, size = rng.random(3)
        eps = -np.log1p(-wait)
        dt = eps / total
        if n >= len(occupancy):
            occupancy = np.concatenate([occupancy, np.zeros(len(occupancy) + n)])
        occupancy[n] += dt
        t += dt
        if decision < gam / total:
            n -= 1
        else:
            n += burst_size(size)
            ensure(n)
        states[k % lanes] = n
        waits[k] = eps
    hi = int(np.max(np.nonzero(occupancy)[0]))
    return waits, occupancy[: hi + 1] / t, t


@st.composite
def chain_models(draw):
    """Every discrete rate family x geometric/tabulated bursts x linear/short
    tabulated decay; fast-growing rates run off a short table."""
    unit = st.floats(0.0, 1.0)
    family = draw(st.sampled_from(RATE_FAMILIES + ("tabulated",)))
    gamma = 0.8 + 0.45 * draw(unit)
    level = gamma * (0.3 + 3.7 * draw(unit))
    if family == "constant":
        rate = ConstantRate(level)
    elif family == "linear":
        rate = LinearRate(level, gamma * 0.5 * draw(unit))
    elif family == "hill":
        rate = HillRate(level, 1.5 * draw(unit), 1.0, 0.3 + 0.7 * draw(unit),
                        0.5 + 2.5 * draw(unit))
    elif family == "truncated-linear":
        rate = TruncatedLinearRate(level, -gamma * (0.1 + 0.2 * draw(unit)),
                                   10.0 + 30.0 * draw(unit))
    else:
        rate = TabulatedRate(tuple(level * (0.1 + draw(unit))
                                   for _ in range(draw(st.integers(1, 30)))))
    if draw(st.booleans()):
        burst = GeometricBurst(0.2 + 0.6 * draw(unit))
    else:
        weights = [0.05 + draw(unit) for _ in range(draw(st.integers(1, 6)))]
        burst = TabulatedBurst(tuple(w / math.fsum(weights) for w in weights))
    if draw(st.booleans()):
        decay = LinearDecay(gamma)
    else:
        decay = TabulatedDecay((0.0,) + tuple(gamma * (n + 3.0 * draw(unit))
                                              for n in range(1, draw(st.integers(2, 40)))))
    return DiscreteBurstModel(rate, decay, burst)


@settings(max_examples=80)
@given(model=chain_models(),
       n_jumps=st.sampled_from((PATH_CHUNK - 1, PATH_CHUNK, PATH_CHUNK + 1,
                                2 * PATH_CHUNK + 7)),
       n0=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), stream=st.integers(0, 3))
# the post-pass's chunk edges
@example(model=DiscreteBurstModel(ConstantRate(2.0), LinearDecay(1.0), GeometricBurst(0.5)),
         n_jumps=PATH_CHUNK - 1, n0=0, seed=7, stream=0)
@example(model=DiscreteBurstModel(LinearRate(1.0, 0.3), LinearDecay(1.0), GeometricBurst(0.6)),
         n_jumps=PATH_CHUNK, n0=12, seed=2, stream=2)
@example(model=DiscreteBurstModel(TabulatedRate((1.5, 0.5, 3.0)), LinearDecay(0.9),
                                  TabulatedBurst((0.5, 0.3, 0.2))),
         n_jumps=PATH_CHUNK + 1, n0=3, seed=4, stream=3)
@example(model=DiscreteBurstModel(HillRate(2.0, 2.0, 1.0, 0.5, 2.0), LinearDecay(1.0),
                                  TabulatedBurst((0.5, 0.3, 0.2))),
         n_jumps=2 * PATH_CHUNK + 7, n0=5, seed=1, stream=1)
# its tail is unsettled at the table's end, so the lanes start at n0; one
# enters state 16, past its 16-state decay table, at jump 7801, inside the
# second chunk
@example(model=DiscreteBurstModel(ConstantRate(1.0),
                                  TabulatedDecay((0.0,) + tuple(map(float, range(1, 16)))),
                                  GeometricBurst(0.5)),
         n_jumps=2 * PATH_CHUNK + 7, n0=0, seed=1, stream=0)
# fewer jumps than lanes: one step, each lane one jump
@example(model=DiscreteBurstModel(HillRate(2.0, 2.0, 1.0, 0.5, 2.0), LinearDecay(1.0),
                                  GeometricBurst(0.5)),
         n_jumps=_LANES // 3, n0=0, seed=5, stream=0)
# a last step of all lanes but one, started from a law inside a short table
@example(model=DiscreteBurstModel(TruncatedLinearRate(2.0, -0.5),
                                  TabulatedDecay((0.0,) + tuple(0.5 * n for n in range(1, 40))),
                                  TabulatedBurst((0.5, 0.5))),
         n_jumps=3 * _LANES - 1, n0=0, seed=6, stream=1)
# a last step of one lane, started at n0: the rate outruns decay
@example(model=DiscreteBurstModel(LinearRate(1.0, 1.0), LinearDecay(1.0), GeometricBurst(0.5)),
         n_jumps=3 * _LANES + 1, n0=4, seed=8, stream=2)
def test_jump_chain_is_bit_identical_to_the_scalar_loop(model, n_jumps, n0, seed, stream):
    try:
        ref = scalar_jump_chain(model, n0, n_jumps, seed, stream)
    except ModelError:
        # the path ran past a decay table: the chain must refuse it too
        with pytest.raises(ModelError):
            simulate_jump_chain(model, n0, n_jumps, seed, stream=stream)
        return
    got = simulate_jump_chain(model, n0, n_jumps, seed, stream=stream)
    for mine, theirs in zip((got.wait_draws, got.occupancy.values), ref[:2]):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()
    assert got.total_time == ref[2]


def test_jump_chain_does_not_depend_on_its_block_size(monkeypatch):
    models = (DiscreteBurstModel(HillRate(2.0, 2.0, 1.0, 0.5, 2.0), LinearDecay(1.0),
                                 GeometricBurst(0.5)),
              DiscreteBurstModel(ConstantRate(3.0), LinearDecay(1.0),
                                 TabulatedBurst((0.2, 0.5, 0.3))))
    for m in models:
        runs = []
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(numerics, "PATH_CHUNK", chunk)
            res = simulate_jump_chain(m, 2, 3000, seed=11, stream=1)
            runs.append((res.occupancy.values, res.wait_draws, np.array(res.total_time)))
        for run in runs[1:]:
            for mine, theirs in zip(run, runs[0]):
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()


def test_jump_chain_waits_are_every_third_uniform():
    m = DiscreteBurstModel(HillRate(2.0, 2.0, 1.0, 0.5, 2.0), LinearDecay(1.0),
                           GeometricBurst(0.5))
    n = 2 * PATH_CHUNK + 5
    res = simulate_jump_chain(m, 0, n, seed=8, stream=2)
    expected = -np.log1p(-make_rng(8, 2).random((n, 3))[:, 0])
    assert res.wait_draws.tobytes() == expected.tobytes()


@st.composite
def start_law_models(draw):
    """Constant, linear, Hill and truncated-linear rates x geometric and
    tabulated bursts, each with a stationary law; a truncated-linear rate
    with tabulated bursts may run on a decay table its law fits inside."""
    unit = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        burst = GeometricBurst(0.2 + 0.6 * draw(unit))
    else:
        weights = [0.05 + draw(unit) for _ in range(draw(st.integers(1, 6)))]
        burst = TabulatedBurst(tuple(w / math.fsum(weights) for w in weights))
    family = draw(st.sampled_from(("constant", "linear", "hill", "truncated-linear")))
    gamma = 0.8 + 0.45 * draw(unit)
    level = gamma * (0.3 + 3.7 * draw(unit))
    decay = LinearDecay(gamma)
    if family == "constant":
        rate = ConstantRate(level)
    elif family == "linear":    # slope * mean burst < decay: normalizable
        rate = LinearRate(level, gamma / burst.mean() * 0.6 * draw(unit))
    elif family == "hill":
        rate = HillRate(level, 1.5 * draw(unit), 1.0, 0.3 + 0.7 * draw(unit),
                        0.5 + 2.5 * draw(unit))
    else:
        cutoff = 2.0 + 8.0 * draw(unit)
        rate = TruncatedLinearRate(level, -level / (cutoff + 1.0), cutoff)
        if isinstance(burst, TabulatedBurst) and draw(st.booleans()):
            # bursts fire below the cutoff and add at most six
            decay = TabulatedDecay((0.0,) + tuple(
                gamma * (n + 3.0 * draw(unit))
                for n in range(1, draw(st.integers(int(cutoff) + 8, 40)))))
    return DiscreteBurstModel(rate, decay, burst)


@settings(max_examples=60)
@given(model=start_law_models())
@example(model=DiscreteBurstModel(TruncatedLinearRate(2.0, -0.5),
                                  TabulatedDecay((0.0,) + tuple(0.5 * n for n in range(1, 40))),
                                  TabulatedBurst((0.5, 0.5))))
def test_the_lanes_start_from_the_jump_chains_own_stationary_law(model):
    # the embedded chain steps down with probability decay/(rate+decay) and
    # up by k with rate/(rate+decay) P(K = k); pi_J must be its fixed point.
    # Only the cap row, which misses the decay from the state above, is left
    # out: no other state can be entered from beyond the cap
    law = _jump_epoch_law(model)
    assert law is not None
    pj = law / math.fsum(law.tolist())
    n = np.arange(len(pj))
    lam = np.asarray(model.burst_rate.value(n), float)
    gam = np.asarray(model.decay.value(n), float)
    P = np.zeros((len(pj), len(pj)))
    P[n[1:], n[1:] - 1] = gam[1:] / (lam[1:] + gam[1:])
    for k in range(1, len(pj)):
        P[n[:-k], n[k:]] = lam[:-k] / (lam[:-k] + gam[:-k]) * model.burst_size.pmf(k)
    assert float(np.sum(np.abs(pj @ P - pj)[:-1])) <= 1e-12


@pytest.mark.parametrize("model", [
    # pi ends near state 28438: caps 64 to 32768, ten in all
    DiscreteBurstModel(ConstantRate(2.0), LinearDecay(2e-4), GeometricBurst(0.5)),
    # a linear rate, whose largest rate grows with the cap
    DiscreteBurstModel(LinearRate(2.0, 1e-4), LinearDecay(1e-3), GeometricBurst(0.5)),
    DiscreteBurstModel(ConstantRate(3.0), LinearDecay(0.01), TabulatedBurst((0.2, 0.5, 0.3))),
], ids=["constant", "linear", "tabulated"])
def test_start_law_is_one_recurrence_equal_to_a_fresh_solve_at_its_final_cap(model, monkeypatch):
    runs = []

    def counted(model, caps, tail_tol):
        runs.append(caps)
        return tail_sum_law(model, caps, tail_tol)
    tail_sum_law = discrete._tail_sum_law
    monkeypatch.setattr(discrete, "_tail_sum_law", counted)
    law = _jump_epoch_law(model)
    assert len(runs) == 1
    cap = 64
    while True:     # the first doubled cap whose top 5% holds under 1e-12
        try:
            pi = stationary_pmf_general(model, cap, tail_tol=1e-12)
            break
        except TailNotConverged:
            cap *= 2
    n = np.arange(cap + 1)
    ref = pi.values * (np.asarray(model.burst_rate.value(n), float)
                       + np.asarray(model.decay.value(n), float))
    ref = ref[: np.flatnonzero(ref)[-1] + 1]
    assert law.dtype == ref.dtype and law.tobytes() == ref.tobytes()


@pytest.mark.parametrize("model, seed", [
    (DiscreteBurstModel(HillRate(2.0, 2.0, 1.0, 0.5, 2.0), LinearDecay(1.0),
                        GeometricBurst(0.5)), 2201),
    (DiscreteBurstModel(ConstantRate(3.0), LinearDecay(1.0),
                        TabulatedBurst((0.2, 0.5, 0.3))), 2202),
    (DiscreteBurstModel(TruncatedLinearRate(4.0, -0.25), LinearDecay(1.0),
                        GeometricBurst(0.4)), 2203),
])
def test_jump_chain_occupancy_tracks_the_general_recurrence(model, seed):
    res = simulate_jump_chain(model, 0, 60_000, seed=seed)
    occ = res.occupancy.values
    target = stationary_pmf_general(model, len(occ) + 50, tail_tol=None)
    assert tv_distance(np.pad(occ, (0, 51)), target.values) <= 0.05


def test_jump_chain_past_a_decay_table_still_raises():
    decay = TabulatedDecay((0.0,) + tuple(0.5 * n for n in range(1, 8)))
    m = DiscreteBurstModel(ConstantRate(5.0), decay, GeometricBurst(0.6))
    with pytest.raises(ModelError):
        scalar_jump_chain(m, 0, 200, 1)
    with pytest.raises(ModelError):
        simulate_jump_chain(m, 0, 200, seed=1)


def test_jump_chain_memory_does_not_grow_with_its_length():
    # each block of draws is folded as it is drawn and the path is not kept,
    # so the peak is two reused buffers and one block's fold
    m = DiscreteBurstModel(HillRate(2.0, 2.0, 1.0, 0.5, 2.0), LinearDecay(1.0),
                           GeometricBurst(0.5))

    def peak(n_jumps):
        tracemalloc.start()
        try:
            simulate_jump_chain(m, 0, n_jumps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)    # lazy imports out of the count
    short, long = peak(30_000), peak(300_000)
    assert long <= 2**20
    assert long <= short + 2**16


def test_jump_chain_memory_is_its_output_arrays():
    # the loop keeps one block of Python objects, not the whole path: the
    # peak stays within 4 MiB of the 32 B a jump the path would take
    m = DiscreteBurstModel(HillRate(2.0, 2.0, 1.0, 0.5, 2.0), LinearDecay(1.0),
                           GeometricBurst(0.5))
    n_jumps = 300_000
    tracemalloc.start()
    try:
        res = simulate_jump_chain(m, 0, n_jumps, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_jumps == n_jumps
    assert peak <= 32 * n_jumps + 16 + 4 * 2**20


# ---------------------------------------------------------------------------
# mode census
# ---------------------------------------------------------------------------

def test_modes_single_interior_maximum():
    m = nb_model(3.0, 0.0, 1.0, 0.5)
    report = count_modes_discrete(m, 50)
    assert report.maxima == (5,)
    assert not report.boundary_mode
    # ratio oracle: the reported index attains the pmf maximum (these
    # parameters put p_4 == p_5 exactly, a two-point plateau)
    pmf = stationary_pmf_general(m, 50)
    assert pmf.values[5] == pytest.approx(float(np.max(pmf.values)), rel=1e-14)


def test_modes_monotone_law_has_boundary_mode_only():
    m = nb_model(0.5, 0.0, 1.0, 0.3)
    report = count_modes_discrete(m, 50)
    assert report.maxima == ()
    assert report.boundary_mode
    pmf = stationary_pmf_general(m, 50)
    assert int(np.argmax(pmf.values)) == 0


def test_modes_boundary_plus_interior():
    # low basal rate, strong saturating activation: mass at zero and a
    # second bump where the activated rate balances decay
    m = DiscreteBurstModel(HillRate(0.4, 5.0, 1.0, 0.25, 2.0),
                           LinearDecay(1.0), GeometricBurst(0.5))
    report = count_modes_discrete(m, 120)
    assert report.boundary_mode
    assert len(report.maxima) == 1
    pmf = stationary_pmf_general(m, 120, tail_tol=None)
    n_star = report.maxima[0]
    window = pmf.values[max(n_star - 3, 1):n_star + 4]
    assert pmf.values[n_star] == pytest.approx(float(np.max(window)))


def test_modes_requires_geometric_bursts():
    m = DiscreteBurstModel(ConstantRate(1.0), LinearDecay(1.0),
                           TabulatedBurst((1.0,)))
    with pytest.raises(ModelError):
        count_modes_discrete(m, 10)
