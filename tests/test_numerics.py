import math

import numpy as np
import pytest
import scipy.linalg

from burstkin.models import GeometricBurst
from burstkin.errors import (
    DomainError,
    GridMismatch,
    ModelError,
    NoConvergence,
    NotIntegrable,
    NumericalBlowup,
    RangeError,
    ToleranceNotMet,
)
from burstkin.numerics import (
    PATH_CHUNK,
    expm,
    find_root,
    l1_distance,
    log_quad,
    make_rng,
    trapezoid,
    tv_distance,
    uniform_blocks,
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
    # the simulators' waits, -log1p(-u) in math, of the pinned uniforms
    (block,) = uniform_blocks(123, 0, 3, 1)
    got = [-math.log1p(-u) for u in block[:, 0].tolist()]
    assert got == [0.21523842216015965, 1.4029888092924088, 0.3233649907145321]
    (block,) = uniform_blocks(5, 0, 1000, 1)
    assert all(-math.log1p(-u) > 0 for u in block[:, 0].tolist())


def test_rng_refuses_a_negative_seed_or_stream():
    # SeedSequence's own ValueError would escape the CLI as a traceback
    for seed, stream in ((-1, 0), (0, -2), (-3, -1)):
        with pytest.raises(ModelError, match="must be >= 0"):
            make_rng(seed, stream)
        with pytest.raises(ModelError):
            uniform_blocks(seed, stream, 10, 2)


def test_geometric_draws_support_and_mean():
    r = make_rng(123, 0)
    half = GeometricBurst(0.5)
    assert [half.size_at(r.random()) for _ in range(8)] == [1, 3, 1, 1, 1, 3, 1, 1]
    r = make_rng(9, 0)
    draws = np.array([GeometricBurst(0.7).size_at(r.random()) for _ in range(20000)])
    assert draws.min() >= 1
    assert abs(draws.mean() - 1.0 / 0.3) < 0.1


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("n", [PATH_CHUNK - 1, PATH_CHUNK + 1, 2 * PATH_CHUNK + 7])
def test_uniform_blocks_are_the_scalar_sequence(n, width):
    # the rows, read in order, are the scalar draws exactly, across every
    # block edge; a block holds at most PATH_CHUNK rows
    blocks = list(uniform_blocks(42, 3, n, width))
    assert all(b.shape == (min(PATH_CHUNK, n - PATH_CHUNK * i), width)
               for i, b in enumerate(blocks))
    scalar = make_rng(42, 3)
    assert np.concatenate(blocks).ravel().tolist() == [scalar.random()
                                                       for _ in range(n * width)]


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def _expm_cases(rng):
    """Matrices with 1-norms from 1e-3 up to theta_13 = 5.3719.

    Generators (exp is stochastic) and skew-symmetric matrices (exp is
    orthogonal) span the whole range expm accepts: the degree-18 Taylor
    step, after at most three halvings and squarings.  Plain Gaussian matrices join up to a norm of 3: past it
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


@pytest.mark.parametrize("n", (*range(1, 10), 401))
def test_expm_row_blocks_at_every_remainder(n):
    # Horner's products go ceil(n/4) rows at a time: a last block that is
    # short, and fewer rows than blocks for n < 4
    rng = np.random.default_rng(n)
    for norm in (0.5, 4.0):
        off = rng.random((n, n))
        np.fill_diagonal(off, 0.0)
        gen = off - np.diag(off.sum(axis=0))
        for a in (gen, rng.standard_normal((n, n))):
            a = a * (norm / max(np.linalg.norm(a, 1), 1e-300))
            before = a.copy()
            ref = scipy.linalg.expm(a)
            tol = 50.0 * np.finfo(float).eps * max(1.0, norm)
            assert np.linalg.norm(expm(a) - ref, 1) <= tol * np.linalg.norm(ref, 1)
            assert np.array_equal(a, before)


def test_expm_small_and_degenerate_inputs():
    assert expm(np.array([[2.0]]))[0, 0] == pytest.approx(math.exp(2.0), rel=1e-15)
    assert expm(np.array([[-5.0]]))[0, 0] == pytest.approx(math.exp(-5.0), rel=1e-14)
    eps = np.finfo(float).eps
    assert np.max(np.abs(expm(np.zeros((5, 5))) - np.eye(5))) <= 2.0 * eps
    a = np.array([[0.0, 1.0], [0.0, 0.0]])     # nilpotent: exp(a) = I + a
    assert np.max(np.abs(expm(a) - np.array([[1.0, 1.0], [0.0, 1.0]]))) <= 4.0 * eps
    # scaling writes into a private copy, never into the argument
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
# the trapezoid rule in a log variable
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.02, 0.3, 2.0, 50.0])
def test_log_quad_matches_gamma_and_beta_integrals(p):
    # x^(p-1) e^-x over (0, inf) is Gamma(p); below p ~ 0.06 the origin's
    # power law is still within e^40 of the peak at x = 1e-150, where the
    # rule continues it
    got = log_quad(lambda x: (p - 1.0) * np.log(x) - x, 0.0, math.inf, 1e-12)
    assert got == pytest.approx(math.lgamma(p), rel=1e-14, abs=1e-14)
    # x^(p-1) (3 - x)^0.4 over (0, 3) is 3^(p+0.4) B(p, 1.4)
    ref = (p + 0.4) * math.log(3.0) + math.lgamma(p) + math.lgamma(1.4) - math.lgamma(p + 1.4)
    got = log_quad(lambda x: (p - 1.0) * np.log(x) + 0.4 * np.log(3.0 - x), 0.0, 3.0, 1e-12)
    assert got == pytest.approx(ref, rel=1e-14, abs=1e-14)


def test_log_quad_between_two_points_and_on_an_empty_interval():
    got = log_quad(lambda x: -x, 1.0, 3.0, 1e-12)
    assert got == pytest.approx(math.log(math.exp(-1.0) - math.exp(-3.0)), rel=1e-15)
    assert log_quad(lambda x: -x, 2.0, 2.0, 1e-12) == -math.inf


def test_log_quad_tolerance_not_met():
    # a step at x = 1 is a kink-free jump in t = ln x: the trapezoid sums
    # then close in only like h, and stop at the point budget
    with pytest.raises(ToleranceNotMet):
        log_quad(lambda x: np.where(x < 1.0, 0.0, -np.inf), 0.0, math.inf, 1e-12)


@pytest.mark.parametrize("ln_f, end", [
    (lambda x: np.zeros_like(x), math.inf),         # still 1 at x = 1e150
    (lambda x: -2.0 * np.log(x), 1.0),              # x^-2 at the origin
    (lambda x: np.full_like(x, math.nan), 1.0),
    (lambda x: np.full_like(x, -math.inf), 1.0),    # zero: no scale to work on
], ids=["flat", "non-integrable-origin", "nan", "zero"])
def test_log_quad_refuses_divergent_integrands(ln_f, end):
    with pytest.raises(NotIntegrable):
        log_quad(ln_f, 0.0, end, 1e-12)


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
