import math

import numpy as np
import pytest
import scipy.linalg

from burstkin.models import GeometricBurst
from burstkin.errors import (
    DomainError,
    GridMismatch,
    ModelError,
    NotIntegrable,
    NumericalBlowup,
    ToleranceNotMet,
)
from burstkin.numerics import (
    PATH_CHUNK,
    _false_position,
    _sign_changes,
    expm,
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
# bracketed roots
# ---------------------------------------------------------------------------

def recorded(f):
    """f, and a list that gets the points of each call to it."""
    calls = []

    def g(x):
        calls.append(x.tolist())
        return f(x)
    return g, calls


def test_false_position_solves_its_brackets_together():
    # sin's roots pi, 2 pi and 3 pi, with sin falling or rising across the
    # bracket; every step is elementwise, so each root is the one its
    # bracket gives alone, and f runs once per step of the slowest bracket
    lo, hi = np.array([3.0, 6.0, 9.0]), np.array([3.5, 6.5, 10.0])
    f, calls = recorded(np.sin)
    roots = _false_position(f, lo, hi, np.sin(lo), np.sin(hi), 1e-14)
    alone = []
    for a, b in zip(lo, hi):
        g, steps = recorded(np.sin)
        alone.append((_false_position(g, a, b, math.sin(a), math.sin(b), 1e-14)[0], len(steps)))
    sizes = [len(c) for c in calls]
    assert roots.tolist() == [r for r, _ in alone]
    assert len(sizes) == max(n for _, n in alone) and sum(sizes) == sum(n for _, n in alone)
    assert sizes[0] == 3 and sizes == sorted(sizes, reverse=True)
    assert np.all(np.abs(roots - math.pi * np.arange(1, 4)) <= 1e-14)
    g, calls = recorded(np.sin)
    assert _false_position(g, [], [], [], [], 0.0).size == 0 and calls == []


def test_false_position_width_is_relative_to_the_root():
    # tol = 0 runs until no float lies between the bracket ends, a width
    # relative to the root: an absolute width of 1e-12 would leave 4e-10 here
    r = 2.4e-3
    x = _false_position(lambda x: r ** 3 - x ** 3, 0.0, 1.0, r ** 3, r ** 3 - 1.0, 0.0)[0]
    assert abs(x - r) <= 1e-12 * r
    x = _false_position(lambda x: np.log(r / x), 1e-300, 1.0, math.log(r / 1e-300),
                        math.log(r), 0.0)[0]
    assert abs(x - r) <= 1e-12 * r


def test_false_position_across_a_jump_stops_at_adjacent_floats():
    # a jump at 1/3 never meets |f| <= tol: the bracket of width 2e300
    # shrinks to adjacent floats.  Halving at least once in any three steps
    # bounds that by 3 * 1100 evaluations; the Illinois rule's halved end
    # values walk the secant points in on the jump in under 100, where
    # plain false position and the midpoint take about 1050
    f, calls = recorded(lambda x: np.where(x < 1.0 / 3.0, 1.0, -1.0))
    x = _false_position(f, -1e300, 1e300, 1.0, -1.0, 0.0)[0]
    assert abs(x - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)
    assert len(calls) <= 100


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x ** 20 - 1e-6, 0.0, 2.0),
    (lambda x: np.expm1(30.0 * x) - 1.0, 0.0, 1.0),
    (lambda x: 2.4e-3 ** 3 - x ** 3, 0.0, 1.0),
], ids=["x^20", "expm1", "cube"])
def test_false_position_halves_the_bracket_once_in_three_steps(f, lo, hi):
    # on a convex f the secant points creep in from one side; the midpoint
    # steps in whenever two steps failed to halve the bracket
    g, calls = recorded(f)
    _false_position(g, lo, hi, f(lo), f(hi), 0.0)
    f_lo, widths = f(lo), [hi - lo]
    for (x,) in calls:
        if (f(x) > 0.0) == (f_lo > 0.0):
            lo = x
        else:
            hi = x
        widths.append(hi - lo)
    assert all(w <= 0.5 * before for w, before in zip(widths[3:], widths))


@pytest.mark.filterwarnings("error")
def test_false_position_takes_the_midpoint_beside_an_infinite_end():
    # the secant through an infinite end value is nan, formed without a
    # RuntimeWarning: the first point is the midpoint, and the root is
    # still found
    for lo, hi, f_lo, f_hi in ((-1.0, 7.0, math.inf, -6.0), (-3.0, 7.0, 4.0, -math.inf)):
        f, calls = recorded(lambda x: 1.0 - x)
        x = _false_position(f, lo, hi, f_lo, f_hi, 1e-15)[0]
        assert calls[0] == [0.5 * lo + 0.5 * hi] and abs(x - 1.0) <= 1e-15


def sign_changes_loop(values):
    """The census's scan as a plain loop: the reference for _sign_changes."""
    pairs, last = [], None
    for i, v in enumerate(values.tolist()):
        if not (v > 0.0 or v < 0.0):
            continue        # zero or nan: wait for a strict sign
        if last is not None and (v > 0.0) != (values[last] > 0.0):
            pairs.append((last, i))
        last = i
    return pairs


def test_sign_changes_skip_zeros_and_nan():
    # (before, after) around each strict change; zeros and nan wait for a
    # strict sign, so a flat top is counted once
    v = np.array([1.0, 0.0, -2.0, math.nan, -1.0, 0.0, 0.0, 3.0, 4.0, -5.0, 0.0])
    before, after = _sign_changes(v)
    assert before.tolist() == [0, 4, 8] and after.tolist() == [2, 7, 9]
    assert [a.size for a in _sign_changes(np.zeros(4))] == [0, 0]
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 50, 50, 50, 400):
        v = rng.choice([-2.0, -1.0, 0.0, 1.0, 3.0, math.nan], size=n)
        before, after = _sign_changes(v)
        assert list(zip(before.tolist(), after.tolist())) == sign_changes_loop(v)


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
