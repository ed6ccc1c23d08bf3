import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from burstkin.discrete import (
    GeneralizedHypergeometricFamily,
    HypergeometricFamily,
    NegativeBinomialFamily,
    Pmf,
    _generator,
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
    TruncatedLinearRate,
)


def nb_model(lam0=1.0, lam1=0.0, gamma=1.0, b=0.5):
    rate = ConstantRate(lam0) if lam1 == 0.0 else LinearRate(lam0, lam1)
    return DiscreteBurstModel(rate, LinearDecay(gamma), GeometricBurst(b))


def nb_oracle(lam0, lam1, gamma, b, n_max):
    """Negative binomial through log-gamma only; shares no code with the
    recurrence or the family classes."""
    p = (lam1 + b * gamma) / gamma
    a = lam0 / (b * gamma + lam1)
    n = np.arange(n_max + 1)
    log_pmf = (gammaln(a + n) - gammaln(a) - gammaln(n + 1)
               + n * math.log(p) + a * math.log1p(-p))
    return np.exp(log_pmf)


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


def test_stationary_is_a_master_equation_fixed_point():
    m = nb_model(2.0, 0.0, 1.0, 0.5)
    pmf = stationary_pmf_general(m, 200)
    rhs = master_rhs_truncated(m, pmf)
    # interior components vanish; the clipped top state carries the
    # truncation defect, which the tail check already bounds
    assert np.max(np.abs(rhs[:-1])) < 1e-12


def test_divergent_linear_rate_rejected():
    with pytest.raises(NotNormalizable):
        stationary_pmf_general(nb_model(1.0, 0.5, 1.0, 0.5), 100)
    with pytest.raises(NotNormalizable):
        stationary_pmf_geometric(nb_model(1.0, 0.7, 1.0, 0.5), 100)
    # just under the margin is fine (heavy tail, so skip the truncation check)
    stationary_pmf_general(nb_model(1.0, 0.49, 1.0, 0.5), 400, tail_tol=None)


def test_tail_check_and_escape_hatch():
    m = nb_model(1.0, 0.0, 1.0, 0.5)
    with pytest.raises(TailNotConverged):
        stationary_pmf_general(m, 5)
    pmf = stationary_pmf_general(m, 5, tail_tol=None)
    assert pmf.mass() == pytest.approx(1.0, abs=1e-12)


def test_log_values_cover_underflowed_tail():
    # steep decay pushes the tail far below the linear floating range
    m = nb_model(0.5, 0.0, 5.0, 0.05)
    pmf = stationary_pmf_general(m, 600, tail_tol=None)
    assert pmf.log_scale
    assert np.all(np.isfinite(pmf.log_values[:50]))
    # linear and log values agree where both live
    live = pmf.values > 1e-250
    assert np.allclose(np.log(pmf.values[live]), pmf.log_values[live], atol=1e-10)


def test_pmf_container():
    p = Pmf(np.array([0.25, 0.5, 0.25]))
    assert p.n_max == 2
    assert not p.log_scale
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
    assert isinstance(fam, NegativeBinomialFamily)
    assert fam.success == pytest.approx(0.5)
    assert fam.shape == pytest.approx(2.0)
    with pytest.raises(NotNormalizable):
        named_family_params(nb_model(1.0, 0.6, 1.0, 0.5))


def test_named_family_hill_real_roots():
    m = DiscreteBurstModel(HillRate(1.0, 1.0, 1.0, 1.0, 1.0), LinearDecay(1.0),
                           GeometricBurst(0.5))
    fam = named_family_params(m)
    assert isinstance(fam, HypergeometricFamily)
    assert (fam.a1, fam.a2, fam.b1, fam.s) == pytest.approx((1.0, 2.0, 1.0, 0.5))
    pmf = stationary_pmf_general(m, 300, tail_tol=None)
    assert np.max(np.abs(pmf.values - fam.pmf(300))) < 1e-12


def test_named_family_hill_complex_pair():
    m = DiscreteBurstModel(HillRate(1.0, 0.1, 1.0, 1.0, 1.0), LinearDecay(1.0),
                           GeometricBurst(0.5))
    fam = named_family_params(m)
    assert isinstance(fam, GeneralizedHypergeometricFamily)
    assert fam.upper[0].imag != 0.0
    assert fam.upper[0] == fam.upper[1].conjugate()
    pmf = stationary_pmf_general(m, 300, tail_tol=None)
    assert np.max(np.abs(pmf.values - fam.pmf(300))) < 1e-12


def test_named_family_hill_second_order():
    m = DiscreteBurstModel(HillRate(1.5, 0.5, 2.0, 0.5, 2.0), LinearDecay(1.0),
                           GeometricBurst(0.3))
    fam = named_family_params(m)
    assert isinstance(fam, GeneralizedHypergeometricFamily)
    assert len(fam.upper) == 3 and len(fam.lower) == 2
    pmf = stationary_pmf_general(m, 200, tail_tol=None)
    assert np.max(np.abs(pmf.values - fam.pmf(200))) < 1e-11


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
    trace = evolve_master(m, v0, 5.0, snapshot_times=[1.25, 2.5, 5.0])
    assert list(trace.times) == [1.25, 2.5, 5.0]


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
    lam * p; the reference for the dense generator."""
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
            assert np.max(np.abs(_generator(m, cap).sum(axis=0))) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(model=discrete_models(), cap=st.integers(3, 300),
       t_end=st.floats(1e-3, 1e3), n_snapshots=st.integers(1, 30),
       start=st.floats(0.0, 1.0))
def test_evolve_master_matches_the_scipy_propagator(model, cap, t_end, n_snapshots, start):
    v0 = np.zeros(cap + 1)
    v0[int(start * cap)] = 1.0
    trace = evolve_master(model, v0, t_end, n_snapshots=n_snapshots)
    step = scipy.linalg.expm((t_end / n_snapshots) * _generator(model, cap))
    # the exact propagator is column stochastic; scipy's squarings drift
    # from unit column mass by up to 2.5e-12 over this range of horizons
    step /= step.sum(axis=0)
    ref = v0
    for pmf in trace.pmfs:
        ref = step @ ref
        assert np.sum(np.abs(pmf.values - ref)) <= 1e-12
        assert abs(pmf.mass() - 1.0) <= 1e-12
    assert list(trace.times) == [t_end * (i + 1) / n_snapshots for i in range(n_snapshots)]


def test_evolve_master_uneven_snapshots_compose():
    m = nb_model(2.0, 0.3, 1.0, 0.5)
    v0 = np.zeros(81)
    v0[5] = 1.0
    uneven = evolve_master(m, v0, 4.0, snapshot_times=[0.5, 1.75, 4.0])
    even = evolve_master(m, v0, 4.0, n_snapshots=16)
    assert np.sum(np.abs(uneven.pmfs[-1].values - even.pmfs[-1].values)) < 1e-12
    gen = _generator(m, 80)
    ref = scipy.linalg.expm(1.75 * gen) @ v0
    assert np.sum(np.abs(uneven.pmfs[1].values - ref)) < 1e-12


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
    assert peak <= 16 * 2 ** 20   # one 401 x 401 array is 1.2 MiB


# ---------------------------------------------------------------------------
# jump-chain simulation
# ---------------------------------------------------------------------------

def test_simulation_is_reproducible_and_stream_split():
    m = nb_model()
    a = simulate_jump_chain(m, 0, 2000, seed=5)
    b = simulate_jump_chain(m, 0, 2000, seed=5)
    c = simulate_jump_chain(m, 0, 2000, seed=5, stream=1)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.states, c.states)


def test_simulation_bookkeeping():
    m = nb_model()
    res = simulate_jump_chain(m, 0, 500, seed=1)
    assert len(res.states) == 501
    assert np.all(np.diff(res.times) > 0)
    assert np.all(res.wait_draws > 0)
    # state 0 has no decay channel, so the first event must be a burst
    assert res.states[1] == res.burst_sizes[0] >= 1
    # occupancy is a normalized time-weighted histogram
    assert res.occupancy.mass() == pytest.approx(1.0, abs=1e-12)
    assert res.total_time == pytest.approx(float(res.times[-1]))


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
    assert int(np.max(res.states)) <= 5
    n = res.occupancy.n_max
    tv = 0.5 * float(np.sum(np.abs(res.occupancy.values - pmf.values[: n + 1])))
    assert tv < 0.05
    # a start past the table is still refused
    with pytest.raises(ModelError):
        simulate_jump_chain(m, 45, 10, seed=4)


def test_simulation_rejects_bad_start():
    with pytest.raises(ModelError):
        simulate_jump_chain(nb_model(), -1, 10, seed=0)


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
