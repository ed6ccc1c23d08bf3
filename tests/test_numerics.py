import math

import numpy as np
import pytest
import scipy.linalg

from burstkin.models import GeometricBurst
from burstkin.errors import (
    DomainError,
    GridMismatch,
    NoConvergence,
    NumericalBlowup,
    RangeError,
    StiffnessBudgetExceeded,
    ToleranceNotMet,
)
from burstkin.numerics import (
    DRAW_BLOCK,
    StepperConfig,
    UniformStream,
    draw_unit_exponential,
    expm,
    find_root,
    integrate_adaptive,
    l1_distance,
    make_rng,
    quad_adaptive,
    trapezoid,
    tv_distance,
)


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

def test_rng_golden_sequence():
    # frozen once; a change here means every seeded result in the
    # project silently shifted
    r = make_rng(123, 0)
    got = [r.random() for _ in range(4)]
    assert got == [0.19365083425294516, 0.7541389670292019,
                   0.2762903411491048, 0.15585817969572446]


def test_rng_streams_are_distinct_and_stable():
    a = make_rng(7, 0).random()
    b = make_rng(7, 1).random()
    assert a != b
    assert make_rng(7, 1).random() == b


def test_unit_exponential_golden_and_positive():
    r = make_rng(123, 0)
    got = [draw_unit_exponential(r) for _ in range(3)]
    assert got == [0.21523842216015965, 1.4029888092924088, 0.3233649907145321]
    r = make_rng(5, 0)
    assert all(draw_unit_exponential(r) > 0 for _ in range(1000))


def test_geometric_draws_support_and_mean():
    r = make_rng(123, 0)
    half = GeometricBurst(0.5)
    assert [half.size_at(r.random()) for _ in range(8)] == [1, 3, 1, 1, 1, 3, 1, 1]
    r = make_rng(9, 0)
    draws = np.array([GeometricBurst(0.7).size_at(r.random()) for _ in range(20000)])
    assert draws.min() >= 1
    assert abs(draws.mean() - 1.0 / 0.3) < 0.1


def test_uniform_stream_is_the_scalar_sequence():
    # the blocks, read one value at a time, are the scalar draws exactly,
    # across every refill
    n = 3 * DRAW_BLOCK + 7
    scalar = make_rng(42, 3)
    stream = UniformStream(make_rng(42, 3))
    assert [stream.random() for _ in range(n)] == [scalar.random() for _ in range(n)]
    # and the draw helpers take the stream in place of the generator
    scalar = make_rng(5, 0)
    stream = UniformStream(make_rng(5, 0))
    burst = GeometricBurst(0.7)
    for _ in range(DRAW_BLOCK + 1):
        assert draw_unit_exponential(stream) == draw_unit_exponential(scalar)
        assert burst.size_at(stream.random()) == burst.size_at(scalar.random())


# ---------------------------------------------------------------------------
# ODE stepper
# ---------------------------------------------------------------------------

def test_stepper_exponential_decay():
    snaps = integrate_adaptive(lambda t, y: -y, np.array([1.0]), 3.0)
    t_end, y_end = snaps[-1]
    assert t_end == 3.0
    assert abs(y_end[0] - math.exp(-3.0)) < 1e-7


def test_stepper_hits_snapshots_exactly():
    times = [0.3, 1.0, 2.5]
    snaps = integrate_adaptive(lambda t, y: -0.5 * y, np.array([2.0]), 2.5,
                               snapshot_times=times)
    assert [t for t, _ in snaps] == times
    for t, y in snaps:
        assert abs(y[0] - 2.0 * math.exp(-0.5 * t)) < 1e-7


def test_stepper_linear_system_against_closed_form():
    # rotation plus damping; solution via the real 2x2 exponential
    a = np.array([[-0.1, 1.0], [-1.0, -0.1]])
    snaps = integrate_adaptive(lambda t, y: a @ y, np.array([1.0, 0.0]), 4.0,
                               StepperConfig(rel_tol=1e-10, abs_tol=1e-13))
    _, y = snaps[-1]
    decay = math.exp(-0.1 * 4.0)
    expected = np.array([decay * math.cos(4.0), -decay * math.sin(4.0)])
    assert np.max(np.abs(y - expected)) < 1e-8


def test_stepper_budget_error():
    cfg = StepperConfig(max_steps=5)
    with pytest.raises(StiffnessBudgetExceeded):
        integrate_adaptive(lambda t, y: -1000.0 * y, np.array([1.0]), 10.0, cfg)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def _expm_cases(rng):
    """Matrices with 1-norms from 1e-3 up to theta_13 = 5.3719.

    Generators (exp is stochastic) and skew-symmetric matrices (exp is
    orthogonal) span the whole range on which one Pade-13 step is
    accurate.  Plain Gaussian matrices join up to a norm of 3: past it
    scipy's own result for them drifts from a 40-digit mpmath reference
    by more than the tolerance (1.6e-13 at norm 4.2, where expm is off
    by 2.3e-15).
    """
    for n in (2, 7, 40):
        for norm in np.geomspace(1e-3, 5.37, 15):
            off = rng.random((n, n))
            np.fill_diagonal(off, 0.0)
            gen = off - np.diag(off.sum(axis=0))
            skew = rng.standard_normal((n, n))
            skew -= skew.T
            cases = [gen, skew] + ([rng.standard_normal((n, n))] if norm <= 3.0 else [])
            for a in cases:
                yield a * (norm / np.linalg.norm(a, 1))


def test_expm_matches_scipy():
    for a in _expm_cases(np.random.default_rng(0)):
        ref = scipy.linalg.expm(a)
        norm = np.linalg.norm(a, 1)
        # the exponential's condition number grows like the norm of a
        tol = 50.0 * np.finfo(float).eps * max(1.0, norm)
        assert np.linalg.norm(expm(a) - ref, 1) <= tol * np.linalg.norm(ref, 1)
    # above theta_13 the caller scales and squares (discrete._propagator)
    with pytest.raises(DomainError):
        expm(np.array([[-700.0]]))


def test_expm_small_and_degenerate_inputs():
    assert expm(np.array([[2.0]]))[0, 0] == pytest.approx(math.exp(2.0), rel=1e-15)
    assert expm(np.array([[-5.0]]))[0, 0] == pytest.approx(math.exp(-5.0), rel=1e-14)
    eps = np.finfo(float).eps
    assert np.max(np.abs(expm(np.zeros((5, 5))) - np.eye(5))) <= 2.0 * eps
    a = np.array([[0.0, 1.0], [0.0, 0.0]])     # nilpotent: exp(a) = I + a
    assert np.max(np.abs(expm(a) - np.array([[1.0, 1.0], [0.0, 1.0]]))) <= 4.0 * eps
    # the Pade step writes into a private copy, never into its argument
    b = a * 5.0
    before = b.copy()
    expm(b)
    assert np.array_equal(b, before)


def test_expm_rejects_a_non_finite_norm():
    with pytest.raises(NumericalBlowup):
        expm(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(NumericalBlowup):
        expm(np.full((3, 3), np.nan))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quad_basic_and_halfline():
    assert abs(quad_adaptive(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) < 1e-13
    assert abs(quad_adaptive(lambda x: np.exp(-x), 0.0, math.inf) - 1.0) < 1e-11
    assert abs(quad_adaptive(lambda x: np.exp(-x * x), 0.0, math.inf)
               - math.sqrt(math.pi) / 2.0) < 1e-11


def test_quad_integrable_endpoint_singularity():
    # bisection toward a sqrt singularity gains slowly, so ask for a
    # tolerance the panel budget can actually deliver
    assert abs(quad_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-7) - 2.0) < 1e-6


def test_quad_panel_budget():
    with pytest.raises(ToleranceNotMet):
        quad_adaptive(lambda x: np.exp(-x * x), 0.0, math.inf, 1e-13, max_panels=2)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_root_cube():
    # no derivative: the secant through the bracket ends
    x = find_root(lambda x: 2.0 - x ** 3, 1.0, 1e-15, lo=0.0, hi=2.0)
    assert abs(x - 2.0 ** (1.0 / 3.0)) < 1e-12


def test_root_with_derivative():
    # Newton from an open bracket
    x = find_root(lambda x: 5.0 - math.exp(x), 0.0, 1e-14, fprime=lambda x: -math.exp(x))
    assert abs(x - math.log(5.0)) < 1e-12


def test_root_width_is_relative_to_the_root():
    # tol = 0 runs until no float lies between the bracket ends, a width
    # relative to the root: an absolute width of 1e-12 would leave 4e-10 here
    r = 2.4e-3
    x = find_root(lambda x: r ** 3 - x ** 3, 0.5, 0.0, lo=0.0, hi=1.0)
    assert abs(x - r) <= 1e-12 * r
    x = find_root(lambda x: math.log(r / x), 0.5, 0.0, fprime=lambda x: -1.0 / x,
                  lo=1e-9, hi=1.0)
    assert abs(x - r) <= 1e-12 * r


def test_root_zero_slope_falls_back_to_the_bracket():
    # the slope vanishes at the start: an outward step, not a division by zero
    x = find_root(lambda x: 1.0 - x ** 3, 0.0, 1e-15, fprime=lambda x: -3.0 * x * x)
    assert abs(x - 1.0) < 1e-15


def test_root_unconverged_raises():
    # a jump at 1/3 never meets |f| <= tol; bisecting a bracket of width
    # 2e300 down to adjacent floats takes about 1000 steps
    with pytest.raises(NoConvergence):
        find_root(lambda x: 1.0 if x < 1.0 / 3.0 else -1.0, 0.0, 0.0, lo=-1e300, hi=1e300)


def test_root_open_side_that_cannot_close():
    # f stays positive up to the domain's end: the upper side never closes
    with pytest.raises(RangeError):
        find_root(lambda x: 10.0 - x, 0.5, 1e-12, fprime=lambda x: -1.0, domain=(0.0, 1.0))


# ---------------------------------------------------------------------------
# grids and distances
# ---------------------------------------------------------------------------

def test_trapezoid_matches_hand_value():
    grid = np.array([0.0, 1.0, 3.0])
    vals = np.array([0.0, 2.0, 2.0])
    assert trapezoid(vals, grid) == pytest.approx(1.0 + 4.0)


def test_l1_and_tv_on_arrays():
    u = np.array([0.5, 0.5, 0.0])
    v = np.array([0.0, 0.5, 0.5])
    assert l1_distance(u, v) == pytest.approx(1.0)
    assert tv_distance(u, v) == pytest.approx(0.5)


def test_l1_grid_mismatch():
    class Holder:
        def __init__(self, grid, values):
            self.grid = np.asarray(grid, dtype=float)
            self.values = np.asarray(values, dtype=float)

    a = Holder([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    b = Holder([1.0, 2.0, 4.0], [0.1, 0.2, 0.3])
    with pytest.raises(GridMismatch):
        l1_distance(a, b)


def test_l1_weighs_by_cell_width_on_grids():
    class Holder:
        def __init__(self, grid, values):
            self.grid = np.asarray(grid, dtype=float)
            self.values = np.asarray(values, dtype=float)

    grid = np.linspace(0.0, 1.0, 101)
    a = Holder(grid, np.ones(101))
    b = Holder(grid, np.zeros(101))
    assert l1_distance(a, b) == pytest.approx(1.0)
