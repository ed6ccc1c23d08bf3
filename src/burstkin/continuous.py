"""Continuous bursty kinetics: flow, jumps, stationary densities, operators.

Between jumps the concentration decays along x' = -decay(x); jumps
arrive at rate burst_rate(x) and push the state up by a kernel draw.
Everything here is organized around the hazard potential

    Q(x) = integral from x to x_ref of burst_rate(y)/decay(y) dy,

a strictly decreasing function whose exponential weights e^{+-Q} turn
the jump chain into a plain renewal recurrence.  Q is anchored at an
arbitrary reference point; every reported quantity is invariant to that
choice because only differences of Q enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridTooNarrow,
    ModelError,
    NotIntegrable,
    NumericalBlowup,
    RangeError,
    ToleranceNotMet,
    WindowTooSmall,
)
from .models import (
    ConstantRate,
    ContinuousBurstModel,
    GaussianExpNu,
    HillRate,
    LinearDecay,
    LinearRate,
    PowerTailNu,
    QuadraticRate,
)
from .numerics import (
    PATH_CHUNK,
    _false_position,
    _sign_changes,
    log_quad,
    trapezoid,
    uniform_blocks,
)

__all__ = [
    "GridDensity",
    "geometric_grid",
    "default_grid",
    "kernel_grid",
    "Potential",
    "PdmpTrajectory",
    "ExposureHistogram",
    "simulate_pdmp",
    "stationary_density",
    "KernelGrid",
    "kernel_matrix",
    "kernel_fixed_point",
    "density_from_fixed_point",
    "mean_identity_residual",
    "phi_from_density_grid",
    "phi_from_density_analytic",
    "ModeReportContinuous",
    "count_modes_continuous",
    "ergodicity_scan",
]


# ---------------------------------------------------------------------------
# grids and densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridDensity:
    """Density values on a strictly increasing positive grid.

    ``ln_normalization`` records the log of the constant the unnormalized
    form integrated to, and ``mass_outside`` the law's mass off [grid[0],
    grid[-1]], when the producing operation knows them; NaN otherwise.
    """

    grid: np.ndarray
    values: np.ndarray
    ln_normalization: float = math.nan
    mass_outside: float = math.nan

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0):
            raise ModelError("GridDensity: grid must be strictly increasing")
        if v.shape != g.shape:
            raise ModelError("GridDensity: values and grid sizes differ")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def mass(self) -> float:
        return trapezoid(self.values, self.grid)


def _grid_density(grid: np.ndarray, ln_u: np.ndarray, *, ln_c: float | None = None,
                  below: float = math.nan, above: float = math.nan) -> GridDensity:
    """The density e^{ln_u} at unit trapezoid mass; every grid density is formed here.

    One shift (the largest ln_u), one exp, the trapezoid mass divided out,
    and only then the finiteness check.  With ``ln_c``, ln_u is the law's
    log density already and ln_c is recorded; else ln_u's log trapezoid
    mass.  GridTooNarrow when the grid holds none of the law: ln_u is -inf
    throughout or, with ln_c, less than the smallest normal float of it.
    """
    top = float(np.max(ln_u))
    if not top < math.inf:
        raise NumericalBlowup("the log density is NaN or +inf on the grid")
    values = np.exp(ln_u - top) if top > -math.inf else np.zeros(len(grid))
    mass = trapezoid(values, grid)
    ln_mass = top + math.log(mass) if mass > 0.0 else -math.inf
    if not ln_mass > (-math.inf if ln_c is None else math.log(_TINY)):
        off = "" if math.isnan(below) else f"{below:.3g} of it lies below, {above:.3g} above, "
        raise GridTooNarrow(f"the grid holds none of the law: {off}knots up to a ratio "
                            f"{float(np.max(grid[1:] / grid[:-1])):.6g} apart")
    values /= mass
    if not np.all(np.isfinite(values)):
        raise NumericalBlowup("the density overflowed when normalized on the grid")
    return GridDensity(grid, values, ln_mass if ln_c is None else ln_c, below + above)


def geometric_grid(x_min: float, x_max: float, n_knots: int) -> np.ndarray:
    """Log-spaced knots from x_min to x_max inclusive, both ends exact."""
    if not (0.0 < x_min < x_max):
        raise ModelError("geometric_grid: need 0 < x_min < x_max")
    if n_knots < 3:
        raise ModelError("geometric_grid: need at least 3 knots")
    grid = np.exp(np.linspace(math.log(x_min), math.log(x_max), n_knots))
    grid[0], grid[-1] = x_min, x_max  # exp(log(x)) may round off x
    return grid


# the law window leaves out _LAW_TAIL of each tail of the law, and starts
# at or above _LAW_FLOOR: log_quad cannot settle the mass below a first
# knot under about 1e-283.  Its masses are summed on _LAW_POINTS knots
_LAW_TAIL, _LAW_FLOOR, _LAW_SPAN, _LAW_POINTS = 1e-12, 1e-280, 60.0, 4096


def _law_ends(model: ContinuousBurstModel, below: float = _LAW_TAIL) -> tuple[float, float]:
    """(lo, hi): at most ``below`` of the stationary law lies under lo, _LAW_TAIL over hi.

    In t = ln x the law's density is x u = nu e^{-Q}/(c decay).  A unit-step
    scan in t from _LAW_FLOOR to the support cap finds where ln(x u) is
    within _LAW_SPAN of its peak; the trapezoid mass in t there, a step
    wider each side, gives both tails (the rule converges geometrically on
    such integrands: Trefethen & Weideman, SIAM Review 56, 2014).  A finite
    cap is hi itself.  NotIntegrable where _screen finds no law.
    """
    nu = model.burst_size.nu
    _screen(model, nu)
    cap = nu.support_cap
    pot = Potential(model)

    def ln_xu(t):       # nan or +inf where one term leaves the float range first
        with np.errstate(all="ignore"):
            v = nu.log_value(np.exp(t)) - pot.value(np.exp(t))
        return np.where(np.isfinite(v), v, -math.inf)

    top = math.log(cap) if math.isfinite(cap) else _LOG_X_MAX
    t = np.append(np.arange(math.log(_LAW_FLOOR), top, 1.0), top)
    v = ln_xu(t)
    near = np.flatnonzero(v >= np.max(v) - _LAW_SPAN)
    t = np.linspace(t[max(near[0] - 1, 0)], t[min(near[-1] + 1, len(t) - 1)], _LAW_POINTS)
    v = ln_xu(t)
    w = np.exp(v - np.max(v))
    mass = np.concatenate(([0.0], np.cumsum(np.diff(t) * (w[1:] + w[:-1]))))
    lo = math.exp(t[np.searchsorted(mass, below * mass[-1], "right") - 1])
    hi = math.exp(t[np.searchsorted(mass, mass[-1] - _LAW_TAIL * mass[-1])])
    return max(lo, _LAW_FLOOR), (cap if math.isfinite(cap) else hi)


def default_grid(model: ContinuousBurstModel, n_knots: int = 1024) -> np.ndarray:
    """Log grid over the law window (_law_ends), n_knots knots."""
    return geometric_grid(*_law_ends(model), n_knots)


# the most burst mass the kernel's end columns may leak past the grid
_KERNEL_LEAK = 2e-5


def kernel_grid(model: ContinuousBurstModel, n_knots: int = 4096) -> np.ndarray:
    """Grid sized for the discretized transition operator.

    The knots go to the bulk the route resolves: the low end leaves out
    _KERNEL_LEAK of the law, not _LAW_TAIL.  The flow from the first knot
    x0 falls by about x0/(1 + a0), a0 = rate(0)/decay, and a burst shorter
    than that leaks from the column: x0 h/(1 + a0) to first order, h the
    burst hazard at 0, so the grid starts no higher than where that is half
    of _KERNEL_LEAK.  The top columns leak the burst mass past the last
    knot, about mean_burst * rate / decay there, so the top doubles from the
    law's high end until that drops below _KERNEL_LEAK.  A finite-support
    grid ends just under the cap.
    """
    lo, hi = _law_ends(model, below=_KERNEL_LEAK)
    gamma = model.decay.rate
    a0 = float(model.burst_rate.value(0.0)) / gamma
    lo = min(lo, 0.5 * _KERNEL_LEAK * (1.0 + a0) / float(model.burst_size.nu.log_slope(0.0)))
    cap = model.burst_size.support_cap
    if math.isfinite(cap):
        return geometric_grid(lo, cap * (1.0 - 1e-12), n_knots)
    # past 1e12 the tail is hopeless; kernel_matrix will flag the columns
    while hi <= 1e12 and (float(model.burst_rate.value(hi) * model.burst_size.mean_burst(hi))
                          / (gamma * hi) >= _KERNEL_LEAK):
        hi *= 2.0
    return geometric_grid(lo, hi, n_knots)


def _log_simpson_weights(grid: np.ndarray) -> np.ndarray:
    """Quadrature weights matching the log-spaced grid.

    Composite Simpson in t = ln x (with the Jacobian folded in) when the
    spacing is uniform in log, trapezoid otherwise.  An odd interval at
    the end is patched with a trapezoid panel.
    """
    t = np.log(grid)
    dt = np.diff(t)
    n_int = len(dt)
    w_t = np.zeros(len(grid))
    if n_int >= 2 and np.allclose(dt, dt[0], rtol=1e-8, atol=0.0):
        h = dt[0]
        m = n_int if n_int % 2 == 0 else n_int - 1
        coeff = np.zeros(len(grid))
        coeff[0:m + 1:2] += 2.0
        coeff[1:m:2] += 4.0
        coeff[0] -= 1.0
        coeff[m] -= 1.0
        w_t = coeff * (h / 3.0)
        if m < n_int:  # trailing trapezoid panel
            w_t[-2] += 0.5 * dt[-1]
            w_t[-1] += 0.5 * dt[-1]
    else:
        w_t[:-1] += 0.5 * dt
        w_t[1:] += 0.5 * dt
    return w_t * grid


# ---------------------------------------------------------------------------
# the hazard potential
# ---------------------------------------------------------------------------

# Newton in ln x stays where exp(ln x) is a positive finite float; the flow's
# roots must lie strictly between these
_LOG_X_MIN = -744.0
_LOG_X_MAX = 709.0
_X_MIN = math.exp(_LOG_X_MIN)
_X_MAX = math.exp(_LOG_X_MAX)


def _rate_law(rate, g: float, ref: float):
    """The closed forms of a rate law under first-order decay at rate g.

    Returns (q, ratio, rise, q_inf, ratio_inf, ln_rate):

    - q(x): Q(x) anchored at ref, over numpy ufuncs.  No form raises or
      turns NaN for x > 0; a quadratic law's Q is -inf past x ~ 1e154, as
      it should be;
    - ratio(x) = rate(x)/g = -x Q'(x), in math, for a float;
    - rise(y, ly, d): the pair (D(d), ratio(y e^d)) in math, with
      D(d) = Q(y e^d) - Q(y) written in d itself and ly = ln y, so
      neither the anchor nor Q(y) enters; None for a constant rate, whose
      D is -ratio d;
    - q_inf and ratio_inf: the limits of Q and of rate/g at +inf;
    - ln_rate(x): ln rate(x) over numpy, finite where a Hill rate that
      shuts off underflows to 0.
    """
    log_ref = math.log(ref)

    def ln_rate(x):
        return np.log(rate.value(x))

    if isinstance(rate, ConstantRate):
        a = rate.level / g
        return (lambda x: a * (log_ref - np.log(x))), (lambda x: a), None, -math.inf, a, ln_rate
    if isinstance(rate, (LinearRate, QuadraticRate)):
        a, s = rate.base / g, rate.slope / g
        c = getattr(rate, "quad", 0.0) / (2.0 * g)
        ratio_inf = a if s == c == 0.0 else math.inf
        expm1, exp = math.expm1, math.exp

        def rise(y, ly, d):
            # D = -a d - s (x - y) - c (x^2 - y^2), with x - y = y expm1(d)
            dx = y * expm1(d) if d < 700.0 else exp(ly + d) - y
            x = y + dx
            return -a * d - dx * (s + c * (x + y)), a + x * (s + 2.0 * c * x)

        if c == 0.0:    # no x * x term, which would make 0 * inf past 1e154
            return ((lambda x: a * (log_ref - np.log(x)) + s * (ref - x)),
                    (lambda x: a + s * x), rise, -math.inf, ratio_inf, ln_rate)
        return ((lambda x: a * (log_ref - np.log(x)) + s * (ref - x) + c * (ref * ref - x * x)),
                (lambda x: a + x * (s + 2.0 * c * x)), rise, -math.inf, ratio_inf, ln_rate)
    if isinstance(rate, HillRate):
        lam, th = rate.scale, rate.numer_coeff
        d0, d1, ne = rate.denom_const, rate.denom_coeff, rate.exponent
        lead = lam / (g * d0)                      # rate(0)/g
        kappa = lam * th / d1 / g                  # rate(inf)/g
        curv = lam * (d1 / d0 - th) / (ne * d1 * g)
        knee = (math.log(d0) - math.log(d1)) / ne  # ln x where d1 x^ne = d0
        exp, log1p = math.exp, math.log1p

        def s(d):
            # Q up to a constant, in d = ln x - knee: slope -lead below the
            # knee and -kappa above it, plus curv times what is left of
            # ln(d0 + d1 x^ne), the softplus remainder ln(1 + e^{-ne |d|})
            return (-lead * d + (lead - kappa) * np.maximum(d, 0.0)
                    + curv * np.log1p(np.exp(-ne * np.abs(d))))

        s_ref = s(log_ref - knee)

        def ratio(x):
            if x > 1.0:     # rate in powers of x^-ne, which cannot overflow
                w = x ** -ne
                return lam * (w + th) / (g * (d0 * w + d1))
            z = x ** ne
            return lam * (1.0 + th * z) / (g * (d0 + d1 * z))

        # (ln y, softplus remainder at y) of the latest flow call, formed
        # once per call; one tuple, so a reader never sees a mixed pair
        last = (math.nan, 0.0)

        def rise(y, ly, d):
            # s differenced piece by piece from t = ln y - knee to e = t + d:
            # the parts of the step below and above the knee, each exact
            # where the step stays on one side, and the softplus remainders.
            # With w = e^{-ne |e|}, ratio is (lead + kappa w)/(1 + w) below
            # the knee and (lead w + kappa)/(1 + w) above it
            nonlocal last
            t = ly - knee
            e = t + d
            if t >= 0.0:
                below, above = (e if e < 0.0 else 0.0), (d if d > -t else -t)
            else:
                below, above = (d if d < -t else -t), (e if e > 0.0 else 0.0)
            if e > 0.0:
                w = exp(-ne * e)
                r = (lead * w + kappa) / (1.0 + w)
            else:
                w = exp(ne * e)
                r = (lead + kappa * w) / (1.0 + w)
            at_y = last
            if at_y[0] != ly:
                at_y = last = (ly, log1p(exp(-ne * t if t > 0.0 else ne * t)))
            return -lead * below - kappa * above + curv * (log1p(w) - at_y[1]), r

        def softplus(y):    # ln(1 + e^y)
            return np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))

        def ln_hill(x):
            # ln(lam/d0) + ln(1 + th x^ne) - ln(1 + (d1/d0) x^ne), in ne ln x
            u = ne * np.log(x)
            gain = softplus(u + math.log(th)) if th > 0.0 else 0.0
            return math.log(lam / d0) + gain - softplus(u - ne * knee)

        # a rate that shuts off leaves Q the finite infimum -s_ref: past the
        # knee s is then exactly 0 plus a nonnegative term, so no rounded
        # Q(x) falls below it
        q_inf = -float(s_ref) if th == 0.0 else -math.inf
        return (lambda x: s(np.log(x) - knee) - s_ref), ratio, rise, q_inf, kappa, ln_hill
    raise ModelError(f"Potential: no closed form for {type(rate).__name__}")


class Potential:
    """Q(x) = integral of burst_rate/decay from x up to the anchor x_ref.

    Strictly decreasing, +inf at the origin for every admissible model.
    Closed forms cover all shipped rate laws with first-order decay, each
    written once (_rate_law): Q over numpy for ``value`` (a float or an
    array), ln rate(x) of an array for ``ln_rate``, and the difference
    D(d) = Q(y e^d) - Q(y) in math for ``flow``, which moves a state
    along the decay and so drives the PDMP.  ``inverse_evals`` counts the
    evaluations of D that ``flow`` has made.
    """

    def __init__(self, model: ContinuousBurstModel, x_ref: float = 1.0):
        if not (x_ref > 0.0) or not math.isfinite(x_ref):
            raise ModelError(f"Potential: x_ref must be positive and finite, got {x_ref}")
        self.model = model
        self.x_ref = float(x_ref)
        self.rate = model.burst_rate
        self.gamma = model.decay.rate
        self._q, self._ratio, self._rise, self._q_inf, _, self.ln_rate = _rate_law(
            self.rate, self.gamma, self.x_ref)
        self.inverse_evals = 0

    # -- evaluation ----------------------------------------------------

    def value(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < 0.0) or np.any(np.isnan(x_arr)):
            raise DomainError("Potential: defined for x > 0 only")
        with np.errstate(divide="ignore", over="ignore"):  # Q = +inf at 0, -inf past the range
            out = self._q(x_arr)
        return float(out) if np.ndim(x) == 0 else out

    # the tracer in perfbench patches value and __call__ on the class
    __call__ = value

    # -- the flow and the generalized inverse --------------------------

    def flow(self, y: float, eps: float) -> tuple[float, float]:
        """(x, d): the x with Q(x) - Q(y) = eps, and d = ln(x/y).

        A positive eps moves y down the decay flow.  D(d) = Q(y e^d) - Q(y)
        is in closed form (_rate_law); for a constant rate it is linear,
        so d = -eps decay/rate exactly.  Otherwise Newton in d, with slope
        -r, r = rate(x)/decay, takes the step from d = 0 first, which needs
        no evaluation, and stops once a step no longer moves d or once
        |D(d) - eps| <= tol min(1, r), tol = 1e-13 max(1, |eps|): a next
        step would move d by at most tol, however flat D is.  A step that
        fails to shrink |D - eps|, or takes ln x out of (_LOG_X_MIN,
        _LOG_X_MAX), hands Newton's last d to _bracketed.  RangeError for
        a root x outside (e^-744, e^709).
        """
        r = self._ratio(y)
        rise = self._rise
        if rise is None:
            d = -eps / r
        else:
            ly = math.log(y)
            lo, hi = _LOG_X_MIN - ly, _LOG_X_MAX - ly
            tol = 1e-13 * max(1.0, abs(eps))
            d, f, n = 0.0, -eps, 0
            while abs(f) > tol * min(1.0, r):
                new = d + f / r if r > 0.0 else math.nan
                if new == d:
                    break       # the step is below the rounding of d
                if lo < new < hi:
                    dq, r_new = rise(y, ly, new)
                    n += 1
                    if abs(dq - eps) < abs(f):
                        d, f, r = new, dq - eps, r_new
                        continue
                self.inverse_evals += n      # counted before _bracketed may raise
                n = 0
                d = self._bracketed(y, ly, eps, tol, d, f, r)
                break
            self.inverse_evals += n
        if -700.0 < d < 700.0:
            x = y * math.exp(d)
        else:           # e^d alone may leave the float range
            u = math.log(y) + d
            x = math.exp(u) if _LOG_X_MIN < u < _LOG_X_MAX else 0.0
        if not _X_MIN < x < _X_MAX:
            raise RangeError(f"flow from {y!r} by {eps!r}: the root lies outside the float range")
        return x, d

    def _bracketed(self, y, ly, eps, tol, d, f, r):
        """flow's root where Newton stalled at d, with F = D - eps = f and
        r = rate/decay there: Newton kept in a bracket (Press et al.,
        Numerical Recipes, 3rd ed., 2007, 9.4, rtsafe).

        F falls in d with slope -r; the bracket runs from d to the end of
        (_LOG_X_MIN, _LOG_X_MAX) - ly on the root's side: RangeError when F
        has not changed sign there.  A step that would leave the bracket or
        go more than half the step before last bisects it instead.  It stops
        where Newton does, |F| <= tol min(1, r), or at adjacent floats.
        """
        rise = self._rise
        end = (_LOG_X_MIN if f < 0.0 else _LOG_X_MAX) - ly
        self.inverse_evals += 1
        if not (rise(y, ly, end)[0] - eps) * f < 0.0:
            raise RangeError(f"flow from {y!r} by {eps!r}: the root lies outside the float range")
        lo, hi = sorted((end, d))       # F(lo) > 0 > F(hi)
        step = last = hi - lo
        while lo < 0.5 * lo + 0.5 * hi < hi:
            new = d + f / r if r > 0.0 else math.nan
            if not (lo < new < hi) or abs(new - d) > 0.5 * last:
                new = 0.5 * lo + 0.5 * hi
            last, step = step, abs(new - d)
            dq, r = rise(y, ly, new)
            self.inverse_evals += 1
            d, f = new, dq - eps
            if abs(f) <= tol * min(1.0, r):
                break
            lo, hi = (d, hi) if f > 0.0 else (lo, d)
        return d

    def inverse(self, target: float) -> float:
        """The x with Q(x) = target: the flow from x_ref by target, since Q(x_ref) = 0.

        RangeError below the infimum of Q or for a root outside the float
        range; exactly at a finite infimum the inverse is +inf.
        """
        q_inf = self._q_inf
        if target < q_inf:
            raise RangeError(f"target {target} below the infimum {q_inf} of the potential")
        if target == q_inf:
            return math.inf
        return self.flow(self.x_ref, target)[0]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExposureHistogram:
    """Time-in-state exposure accumulated analytically along the decay flow."""

    edges: np.ndarray
    exposure: np.ndarray
    below: float
    above: float
    total_time: float

    def bin_masses(self) -> np.ndarray:
        return self.exposure / self.total_time

    def density(self) -> GridDensity:
        # geometric centres sqrt(a*b), with each bin scaled by 2^k so that
        # a*b cannot underflow (edges below ~1e-160) or overflow; the
        # scaling is exact, so the bits are those of sqrt(a*b) wherever
        # a*b is a normal float
        a, b = self.edges[:-1], self.edges[1:]
        k = -np.frexp(a)[1]
        centers = np.ldexp(np.sqrt(np.ldexp(a, k) * np.ldexp(b, k)), -k)
        widths = np.diff(self.edges)
        return GridDensity(centers, self.exposure / (self.total_time * widths))

    def l1_against(self, density: Callable[[np.ndarray], np.ndarray]) -> float:
        """L1 between the empirical bin masses and a reference density.

        Reference bin masses come from a three-point Simpson rule per
        bin; exposure and reference mass outside the binned range count
        fully against the distance, so the result is an upper bound.
        """
        a = self.edges[:-1]
        b = self.edges[1:]
        mid = 0.5 * (a + b)
        ref = (b - a) / 6.0 * (density(a) + 4.0 * density(mid) + density(b))
        out = float(np.sum(np.abs(self.bin_masses() - ref)))
        out += (self.below + self.above) / self.total_time
        out += abs(1.0 - float(np.sum(ref)))
        return out


@dataclass(frozen=True, eq=False)
class PdmpTrajectory:
    """Jump skeleton of the piecewise deterministic path."""

    times: np.ndarray        # jump epochs, entry 0 is t = 0
    y_pre: np.ndarray        # state just before each jump (end of the flow)
    y_post: np.ndarray       # state just after each jump
    wait_draws: np.ndarray   # unit exponentials driving the jump clocks
    burst_draws: np.ndarray  # jump sizes
    histogram: ExposureHistogram
    inverse_evals: int       # evaluations of Q differences made by Potential.flow
    bins_crossed: int        # histogram bins met by the flow segments, summed


# the smallest normal float.  A subnormal start has lost precision, and the
# flow below it underflows to 0 within a few e-folds.  A bin's density is at
# most 1/width, so bins at least this wide keep it finite
_TINY = float(np.finfo(float).tiny)


def simulate_pdmp(
    model: ContinuousBurstModel,
    y0: float,
    n_jumps: int,
    seed: int,
    *,
    stream: int = 0,
    x_ref: float = 1.0,
    hist_edges: np.ndarray | None = None,
    n_bins: int = 64,
) -> PdmpTrajectory:
    """Drive the jump recurrence y -> Qinv(Q(y) + eps) + burst.

    The flow between jumps is first-order decay, so the holding time is
    ln(y_prev/y_pre)/gamma and the exposure of bin [a, b) is ln(b/a)/gamma
    per full traversal.  The histogram is therefore exact given the jump
    skeleton; no time discretization enters.

    The loop only fixes the path: on Python floats, with one
    Potential.flow per jump, it writes the wait draws, flow ends, flow
    steps d = ln(y_pre/y_prev) (into times[1:]) and burst sizes into the
    output arrays.  Jump k reads row k of uniform_blocks(seed, stream,
    n_jumps, 2): the wait, -log1p(-u) in math, and the burst, nu's
    overshoot past the flow end of a unit exponential formed the same way.
    Post-jump states, holding times -d/gamma and the histogram then
    follow in chunks of PATH_CHUNK jumps, with the same float operations
    in the same order as a per-jump loop: ln y_prev through math.log,
    ln y_pre = ln y_prev + d, the crossed bins of each flow segment from
    searchsorted on the log edges, and every running sum sequential.
    The flow never reads Q's anchor, so the path does not depend on x_ref.
    Without ``hist_edges``, n_bins log-uniform bins span _law_ends and y0.
    """
    if not y0 >= _TINY:
        raise ModelError(f"simulate_pdmp: y0 must be at least {_TINY:.4g}, "
                         "the smallest normal float")
    if n_jumps < 1:
        raise ModelError("simulate_pdmp: need at least one jump")
    cap = model.burst_size.support_cap
    if y0 >= cap:
        raise ModelError(f"simulate_pdmp: y0 must sit inside the kernel support (0, {cap})")
    if hist_edges is None and n_bins < 2:
        raise ModelError(f"simulate_pdmp: n_bins must be >= 2, got {n_bins}")
    pot = Potential(model, x_ref)
    gamma = model.decay.rate

    times = np.zeros(n_jumps + 1)
    y_pre = np.zeros(n_jumps)
    y_post = np.zeros(n_jumps)
    waits = np.zeros(n_jumps)
    bursts = np.zeros(n_jumps)

    # the loop writes Python floats through memoryviews, no numpy call; the
    # flow's d = ln(y_pre/y_prev) goes into times[1:] for the post-pass
    pre_w, steps_w, waits_w, bursts_w = map(memoryview, (y_pre, times[1:], waits, bursts))
    flow = pot.flow
    overshoot = model.burst_size.nu.draw_overshoot
    log1p, isfinite = math.log1p, math.isfinite
    rows = chain.from_iterable(u.tolist() for u in uniform_blocks(seed, stream, n_jumps, 2))
    y = float(y0)
    for k, (wait, size) in enumerate(rows):
        eps = -log1p(-wait)
        y_end, d = flow(y, eps)
        e = overshoot(-log1p(-size), y_end)
        pre_w[k] = y_end
        steps_w[k] = d
        waits_w[k] = eps
        bursts_w[k] = e
        y = y_end + e
        if not isfinite(y) or y <= 0.0:
            raise NumericalBlowup(f"state left (0, inf) at jump {k}")

    if hist_edges is None:      # after the path: one that blows up says so first
        lo, hi = _law_ends(model)
        hist_edges = np.geomspace(min(lo, y0), max(hi, y0), n_bins + 1)
    edges = np.asarray(hist_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 3:
        raise ModelError("simulate_pdmp: need at least two increasing histogram bins")
    # checked before any arithmetic on them: np.log of 0, a negative or
    # nan edge warns, and a nan edge passes the order test below
    if not np.all(np.isfinite(edges) & (edges > 0.0)):
        raise ModelError("simulate_pdmp: histogram edges must be finite and positive")
    if np.any(np.diff(edges) < _TINY):
        raise ModelError("simulate_pdmp: need at least two increasing histogram bins, "
                         f"each at least {_TINY:.4g} wide")
    np.add(y_pre, bursts, out=y_post)
    hist, crossed = _path_exposure(float(y0), y_post, gamma, edges, times[1:])
    return PdmpTrajectory(times, y_pre, y_post, waits, bursts, hist,
                          pot.inverse_evals, crossed)


def _path_exposure(y0: float, y_post: np.ndarray, gamma: float, edges: np.ndarray,
                   epochs: np.ndarray) -> tuple[ExposureHistogram, int]:
    """Jump epochs and the exposure histogram of a PDMP path, chunk by chunk.

    Segment k flows from y_prev = y_post[k-1] (y0 for k = 0) down by
    d = ln(y_pre[k]/y_prev), which ``epochs`` (times[1:]) holds on entry.
    With lb the math.log of y_prev and la = lb + d, its holding time
    -d/gamma replaces d, and a sequential cumsum then turns those into
    jump epochs.  The segment adds max(min(E[i+1], lb) - max(E[i], la), 0)/gamma
    to each bin i from bisect_right(E, la) - 1 to bisect_left(E, lb) on
    the log edges E, and bincount adds those in jump order.  Returns the
    histogram and the number of (segment, bin) crossings.
    """
    log = math.log
    log_edges = np.log(edges)
    lo_edge, hi_edge = float(log_edges[0]), float(log_edges[-1])
    nbins = len(edges) - 1
    bin_ids = np.arange(nbins)
    exposure = np.zeros(nbins)
    below = above = 0.0
    crossed = 0
    n_jumps = len(y_post)
    for c0 in range(0, n_jumps, PATH_CHUNK):
        c1 = min(c0 + PATH_CHUNK, n_jumps)
        prev = y_post[c0 - 1:c1 - 1] if c0 else np.concatenate(([y0], y_post[:c1 - 1]))
        m = c1 - c0

        dt = epochs[c0:c1]
        lb = np.fromiter(map(log, prev.tolist()), float, m)
        la = lb + dt
        dt /= -gamma
        start = np.maximum(np.searchsorted(log_edges, la, side="right") - 1, 0)
        stop = np.minimum(np.searchsorted(log_edges, lb, side="left"), nbins)
        count = np.maximum(stop - start, 0)
        ends = np.cumsum(count)
        n_cross = int(ends[-1])
        crossed += n_cross
        bins = np.repeat(start - (ends - count), count) + np.arange(n_cross)
        overlap = np.maximum(np.minimum(log_edges[bins + 1], np.repeat(lb, count))
                             - np.maximum(log_edges[bins], np.repeat(la, count)), 0.0)
        overlap /= gamma
        # the running totals go in as the first weights: bincount adds each
        # bin's weights in order from 0.0, and 0.0 + x is x
        exposure = np.bincount(np.concatenate((bin_ids, bins)),
                               weights=np.concatenate((exposure, overlap)),
                               minlength=nbins)

        # cumsum adds in order; np.sum is pairwise, and sum() compensates
        # from Python 3.12 on
        low = la < lo_edge
        part = (np.minimum(lb[low], lo_edge) - la[low]) / gamma
        below = float(np.cumsum(np.concatenate(([below], part)))[-1])
        high = lb > hi_edge
        part = (lb[high] - np.maximum(la[high], hi_edge)) / gamma
        above = float(np.cumsum(np.concatenate(([above], part)))[-1])

    np.cumsum(epochs, out=epochs)
    return ExposureHistogram(edges, exposure, below, above, float(epochs[-1])), crossed


# ---------------------------------------------------------------------------
# stationary densities, analytic route
# ---------------------------------------------------------------------------

def _screen(model: ContinuousBurstModel, nu) -> None:
    """Reject kernel/rate pairings that provably fail the tail balance.

    For a power tail the requirement is the strict mean-drift version
    (tail exponent above asymptotic-rate/decay plus one), which is what
    guarantees both integrals behind the stationary formula.
    """
    r = model.burst_rate
    gamma = model.decay.rate
    if isinstance(nu, PowerTailNu):
        ratio_inf = _rate_law(r, gamma, 1.0)[4]
        need = ratio_inf + 1.0
        if not nu.exponent > need:
            raise NotIntegrable(
                f"power-tail exponent {nu.exponent} too small: the tail balance "
                f"needs > rate_at_infinity/decay + 1 = {need:.6g}")
    elif isinstance(nu, GaussianExpNu):
        quad = getattr(r, "quad", 0.0)
        if quad > 0.0 and (nu.quad == 0.0 or quad / (2.0 * gamma) > nu.quad):
            raise NotIntegrable("quadratic rate growth beats the burst tail")
        if nu.quad == 0.0:
            slope = getattr(r, "slope", 0.0)
            if slope > 0.0 and slope / gamma >= nu.lin:
                raise NotIntegrable(f"rate slope {slope} outruns the burst tail: "
                                    f"needs slope/decay < {nu.lin:.6g}")
    # finite-support kernels are always fine: the state space is bounded


def stationary_density(
    model: ContinuousBurstModel,
    grid: np.ndarray | None = None,
    *,
    x_ref: float = 1.0,
    n_knots: int = 1024,
) -> GridDensity:
    """Stationary density u(x) = nu(x) e^{-Q(x)} / (c decay(x)), c the normalization.

    ln(c u) = ln nu - Q - ln(decay x) stays in log scale: ln c and the
    law's mass off the grid, ``mass_outside``, come from numerics.log_quad
    and the values from _grid_density.  GridTooNarrow when more than
    _MASS_LEAK of the law lies below the first knot or above the last, or
    none on the grid.
    """
    nu = model.burst_size.nu
    _screen(model, nu)
    gamma = model.decay.rate
    pot = Potential(model, x_ref)

    def ln_cu(x):
        return nu.log_value(x) - pot.value(x) - np.log(gamma * x)

    if grid is None:
        grid = default_grid(model, n_knots)
    cap = nu.support_cap
    if grid[-1] > cap:
        raise ModelError(f"grid exceeds the kernel support cap {cap}")
    ln_c = log_quad(ln_cu, 0.0, cap, 1e-12)
    below = math.exp(log_quad(ln_cu, 0.0, float(grid[0]), 1e-12) - ln_c)
    if below > _MASS_LEAK:
        raise GridTooNarrow(f"{below:.3g} of the law lies below the first knot {grid[0]:.6g}")
    above = math.exp(log_quad(ln_cu, float(grid[-1]), cap, 1e-12) - ln_c)
    if above > _MASS_LEAK:
        raise GridTooNarrow(f"{above:.3g} of the law lies above the last knot {grid[-1]:.6g}")
    with np.errstate(divide="ignore", invalid="ignore"):  # nu = 0 at a cap; NaN is refused
        return _grid_density(grid, ln_cu(grid) - ln_c, ln_c=ln_c, below=below, above=above)


# ---------------------------------------------------------------------------
# the jump-chain transition operator on a grid
# ---------------------------------------------------------------------------

_SCAN_BLOCK = 64

# the most mass a grid may leave out: below a density's first knot, or
# out of a kernel column
_MASS_LEAK = 1e-4

# substeps per panel of the S integral in _kernel_log_factors: the base
# count, the count per unit log gap ratio below a finite cap, and the most
# any panel gets
_SUBSTEPS = 8
_CAP_SUBSTEP_SCALE = 256.0
_MAX_SUBSTEPS = 1024


def _suffix_scan(log_fac: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """y_i = terms_i + e^{log_fac_i} y_{i+1} from the top knot down.

    ``log_fac`` holds one log factor per neighbour pair and ``terms`` one
    row per knot, with optional trailing columns scanned side by side.
    Blocks of _SCAN_BLOCK knots run the recurrence in step, each from its
    own top knot as if nothing lay above it.  A loop over the blocks then
    carries each block's full value at its first knot down into the block
    below, through factor products taken as exponentials of local
    cumulative sums of ``log_fac``.  Nonnegative terms are only ever
    multiplied and added, so nothing cancels, however large the factors'
    logs.
    """
    n = terms.shape[0]
    tail = terms.shape[1:]
    nb = -(-n // _SCAN_BLOCK)
    pad = nb * _SCAN_BLOCK - n
    g = np.concatenate([log_fac, np.zeros(pad + 1)]).reshape(
        (nb, _SCAN_BLOCK) + (1,) * len(tail))
    t = np.concatenate([terms, np.zeros((pad,) + tail)]).reshape((nb, _SCAN_BLOCK) + tail)
    fac = np.exp(g)
    y = np.empty_like(t)
    y[:, -1] = t[:, -1]
    for p in range(_SCAN_BLOCK - 2, -1, -1):
        y[:, p] = t[:, p] + fac[:, p] * y[:, p + 1]
    # reach[k, p]: the factor product from knot p of block k up to the
    # first knot of block k + 1
    reach = np.exp(np.cumsum(g[:, ::-1], axis=1)[:, ::-1])
    carry = np.zeros((nb,) + tail)      # full y at the first knot of block k + 1
    for k in range(nb - 2, -1, -1):
        carry[k] = y[k + 1, 0] + reach[k + 1, 0] * carry[k + 1]
    y += reach * carry[:, None]
    return y.reshape((nb * _SCAN_BLOCK,) + tail)[:n]


def _prefix_scan(log_fac: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """y_i = terms_i + e^{log_fac_{i-1}} y_{i-1} from the bottom knot up."""
    return _suffix_scan(log_fac[::-1], terms[::-1])[::-1]


def _column(vec: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``vec`` shaped to scale the rows of ``like``."""
    return vec.reshape((-1,) + (1,) * (like.ndim - 1))


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Discretized jump-to-jump transition kernel, column-stochastic, in O(n).

    The raw kernel ln k(x_i, y_j) = ln A_i + Q_j + ln S_min(i,j) is
    semiseparable, so three vectors hold it: the diagonal ``diag``
    (ln A_i + Q_i + ln S_i) and the neighbour increments ``dq``
    (Q_{m+1} - Q_m, never positive) and ``dl`` (ln S_{m+1} - ln S_m).
    Against its diagonal, row i reaches column j >= i through the factors
    e^{dq} and column j < i through e^{-dq-dl}, one recurrence each, so
    ``apply`` costs O(n) time and memory.  Column j integrates to one
    exactly under ``weights`` once divided by ``raw_column_sums``, the
    raw quadrature sums R_j.  ``ln_balance`` is ln A_j + ln R_j - Q_j,
    the log of the operator's fixed point up to a constant (see
    kernel_fixed_point).  ``matrix`` materializes the dense n x n array,
    k(x_i, y_j) at [i, j]: an O(n^2) diagnostic.
    """

    grid: np.ndarray
    weights: np.ndarray
    diag: np.ndarray
    dq: np.ndarray
    dl: np.ndarray
    raw_column_sums: np.ndarray
    ln_balance: np.ndarray

    def _raw(self, z: np.ndarray) -> np.ndarray:
        """The raw kernel times z, rows of z on the knots."""
        climb = -self.dq - self.dl
        below = np.zeros_like(z)
        below[1:] = _column(np.exp(climb), z) * _prefix_scan(climb, z)[:-1]
        return _column(np.exp(self.diag), z) * (_suffix_scan(self.dq, z) + below)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Push a density (values on the grid) through one jump."""
        return self._raw(self.weights * values / self.raw_column_sums)

    @property
    def matrix(self) -> np.ndarray:
        """The closed operator as a dense n x n array (O(n^2); diagnostics only)."""
        return self._raw(np.eye(len(self.grid))) / self.raw_column_sums

    def residual(self, density: GridDensity) -> float:
        v = density.values / float(np.dot(self.weights, density.values))
        return float(np.dot(self.weights, np.abs(self.apply(v) - v)))


def _kernel_log_factors(
    model: ContinuousBurstModel, grid: np.ndarray, x_ref: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ln A, Q and ln S of k(x, y) = A(x) e^{Q(y)} S(min(x, y)) on the grid."""
    nu = model.burst_size.nu
    gamma = model.decay.rate
    pot = Potential(model, x_ref)
    q = pot.value(grid)
    cap = nu.support_cap
    if math.isfinite(cap) and grid[-1] >= cap:
        raise ModelError(f"kernel_matrix: grid must stay below the support cap {cap}")
    ln_a = nu.log_value(grid) + np.log(nu.log_slope(grid))

    def ln_w(z):
        # ln of rate(z) / (decay(z) * nu(z))
        return -nu.log_value(z) + pot.ln_rate(z) - np.log(gamma * z)

    # ln S_abs[j] = ln of the integral of w(z) e^{-Q(z)} over (0, x_j],
    # accumulated with exponential-fitted panels on geometric substeps,
    # _SUBSTEPS of them per panel unless a finite cap asks for more
    counts = np.full(len(grid) - 1, _SUBSTEPS)
    if math.isfinite(cap):
        # the integrand has a power singularity at the cap, so substep
        # nodes go geometrically in the remaining gap cap - z.  Each panel
        # gets a count that scales with its own gap ratio, to keep each
        # substep's log swing small, rounded up to a power of two so that
        # the counts form a few groups: only the panels next to the cap
        # need more than the base count (Davis & Rabinowitz, Methods of
        # Numerical Integration, on grading toward an endpoint singularity)
        gap_lo = cap - grid[:-1]
        ln_ratio = np.log1p(-np.diff(grid) / gap_lo)     # ln(gap_hi/gap_lo)
        need = np.maximum(np.ceil(-_CAP_SUBSTEP_SCALE * ln_ratio), _SUBSTEPS)
        counts = np.minimum(2.0 ** np.ceil(np.log2(need)), _MAX_SUBSTEPS).astype(int)
    ln_panel = np.empty(len(grid) - 1)
    for m in sorted(set(counts.tolist())):
        frac = np.arange(m + 1)[None, :] / m
        panels = np.flatnonzero(counts == m)
        # the (panels, m + 1) substep arrays are built a block of at most
        # 256 * (_SUBSTEPS + 1) nodes at a time; panels are independent,
        # so neither the grouping nor the blocking changes a bit of ln_panel
        block = max(256 * (_SUBSTEPS + 1) // (m + 1), 1)
        for lo in range(0, len(panels), block):
            rows = panels[lo:lo + block]
            if math.isfinite(cap):
                # cap - gap_lo (gap_hi/gap_lo)^frac, taken from the lower knot: cap
                # less a gap keeps no digits of a knot far below the cap
                z = grid[rows, None] - gap_lo[rows, None] * np.expm1(ln_ratio[rows, None] * frac)
            else:
                ratio = (grid[1:][rows] / grid[:-1][rows])[:, None] ** frac
                z = grid[:-1][rows, None] * ratio         # substep knots
            theta = ln_w(z) - pot.value(z)                # log integrand
            th_lo, th_hi = theta[:, :-1], theta[:, 1:]
            d = np.abs(th_hi - th_lo)
            with np.errstate(divide="ignore", invalid="ignore"):
                shape_fac = np.where(d > 1e-6, -np.expm1(-d) / np.where(d > 0.0, d, 1.0),
                                     1.0 - 0.5 * d + d * d / 6.0)
            ln_sub = np.log(np.diff(z, axis=1)) + np.maximum(th_lo, th_hi) + np.log(shape_fac)
            ln_panel[rows] = np.logaddexp.reduce(ln_sub, axis=1)

    ln_s0 = log_quad(lambda z: ln_w(z) - pot.value(z), 0.0, float(grid[0]), 1e-14)
    ln_s_abs = np.logaddexp.accumulate(np.concatenate([[ln_s0], ln_panel]))
    return ln_a, q, ln_s_abs


def kernel_matrix(
    model: ContinuousBurstModel,
    grid: np.ndarray,
    *,
    x_ref: float = 1.0,
) -> KernelGrid:
    """Assemble the jump-chain kernel on a log grid, in O(n) time and memory.

    The post-jump transition density factorizes as
    k(x, y) = A(x) e^{Q(y)} S(min(x, y)) with S a cumulative integral,
    so the whole assembly runs in log scale,

        ln k(x_i, y_j) = ln A_i + Q_j + ln S_{min(i,j)},

    which survives grids wide enough for the column-mass requirement
    (the linear-scale factors overflow there).  The operator keeps only
    the diagonal and the neighbour increments of Q and ln S (see
    KernelGrid); no n x n array is formed.  S's panel integrals use an
    exponential-fitted rule, exact for log-linear integrands, so they
    stay accurate even where the integrand swings by many orders of
    magnitude across one log panel.  Columns are validated (GridTooNarrow
    below 1 - _MASS_LEAK of their mass) then closed to exactly stochastic, so
    ``apply`` conserves mass to rounding.  A pairing that _screen refuses
    has no stationary law, so it raises NotIntegrable here as it does in
    stationary_density.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 8 or np.any(np.diff(grid) <= 0):
        raise ModelError("kernel_matrix: need an increasing grid with >= 8 knots")
    if grid[0] <= 0.0:
        raise ModelError("kernel_matrix: grid must be strictly positive")
    _screen(model, model.burst_size.nu)
    ln_a, q, ln_s_abs = _kernel_log_factors(model, grid, x_ref)
    diag = ln_a + q + ln_s_abs
    dq = np.diff(q)
    dl = np.diff(ln_s_abs)
    weights = _log_simpson_weights(grid)
    # apply's transposed recurrences on the same vectors, so the closure holds to
    # rounding; a diagonal past the float range makes sums the gate refuses
    climb = -dq - dl
    with np.errstate(over="ignore", invalid="ignore"):
        t = weights * np.exp(diag)
        raw_sums = _prefix_scan(dq, t)
        raw_sums[:-1] += np.exp(climb) * _suffix_scan(climb, t)[1:]
    if not np.all((raw_sums >= 1.0 - _MASS_LEAK) & (raw_sums < math.inf)):
        raise GridTooNarrow(f"kernel column mass down to {float(np.min(raw_sums)):.6f}; "
                            "widen or refine the grid")
    return KernelGrid(grid, weights, diag, dq, dl, raw_sums, ln_a + np.log(raw_sums) - q)


def kernel_fixed_point(kernel: KernelGrid, tol: float = 1e-10) -> GridDensity:
    """Stationary density of the discretized jump kernel, in closed form.

    With alpha_i = w_i A_i the closed operator P_ij = w_i k_ij / R_j
    carries mass m_j = w_j v_j, v_j = A_j R_j e^{-Q_j}, to
    m_j P_ij = alpha_i alpha_j S_min(i,j), which is symmetric in i and
    j: the chain is reversible, and detailed balance makes v its fixed
    point exactly (Kelly, Reversibility and Stochastic Networks, 1979).
    v is formed from ln_balance by _grid_density, so no factor overflows.
    ``tol`` is a certificate: one ``apply`` measures the weighted L1
    residual, and a residual above it raises ToleranceNotMet.
    """
    v_star = _grid_density(kernel.grid, kernel.ln_balance)
    residual = kernel.residual(v_star)
    if not residual <= tol:
        raise ToleranceNotMet(f"kernel fixed point residual {residual:.3e} above {tol:.3e}")
    return v_star


def density_from_fixed_point(
    model: ContinuousBurstModel,
    v_star: GridDensity,
    *,
    x_ref: float = 1.0,
) -> GridDensity:
    """Turn the jump-chain fixed point into the stationary density:

        u(x) = (1/(c decay(x))) * integral_x^inf e^{Q(y) - Q(x)} v(y) dy.

    The tail integral accumulates top-down through Q differences only, so
    no weight overflows, and _grid_density takes its log less ln(decay x).
    GridTooNarrow when the mass below the first knot, u(x0) x0 over the
    slope of ln(u x) in ln x there (u x ~ x^slope near 0), exceeds _MASS_LEAK.
    """
    grid, v = v_star.grid, v_star.values
    dq = np.diff(Potential(model, x_ref).value(grid))
    terms = np.zeros(len(grid))
    terms[:-1] = 0.5 * np.diff(grid) * (v[:-1] + np.exp(dq) * v[1:])  # e^{dq} <= 1
    with np.errstate(divide="ignore"):  # a tail that underflowed to 0
        ln_u = np.log(_suffix_scan(dq, terms)) - np.log(model.decay.rate * grid)
    u = _grid_density(grid, ln_u)
    m0, step = grid[0] * u.values[0], math.log(grid[1] / grid[0])
    rise = float(ln_u[1]) - float(ln_u[0]) + step     # of ln(u x) over the first gap
    below = m0 * step / rise if rise > 0.0 else math.inf
    if m0 > 0.0 and below > _MASS_LEAK:             # none below where u(x0) underflowed
        raise GridTooNarrow(f"{below:.3g} of the law lies below the first knot {grid[0]:.6g}")
    return u


def mean_identity_residual(model: ContinuousBurstModel, density: GridDensity) -> float:
    """|E[decay(x)] - E[rate(x) mean_burst(x)]| / E[decay(x)] under the density.

    Stationarity balances the mean loss to decay against the mean gain
    from bursts, so this vanishes up to the grid quadrature error for a
    true stationary density; mass stranded at the top of a grid breaks
    it.  The continuous twin of the discrete certificate.
    """
    x = density.grid
    u = density.values
    loss = trapezoid(model.decay.value(x) * u, x)
    gain = trapezoid(model.burst_rate.value(x) * model.burst_size.mean_burst(x) * u, x)
    return abs(loss - gain) / loss


# ---------------------------------------------------------------------------
# rate recovery from a stationary density
# ---------------------------------------------------------------------------

def phi_from_density_grid(
    decay: LinearDecay,
    burst,
    density: GridDensity,
    *,
    floor: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the burst rate from a gridded stationary density.

    Inverts the density balance

        rate(x) = decay.rate d/dt [ln(decay(x) u(x)) - ln nu(x)],  t = ln x,

    the hazard -d/dx ln nu folded into the difference: ln(decay u / nu)
    = -Q - ln c stays smooth up to a finite support cap, where ln u and
    ln nu are not.  The derivative is the two-point difference in t over
    each gap of the (possibly nonuniform) grid, second order at its
    midpoint in t: half a three-point stencil, so a rate that switches
    within a gap spoils fewer estimates, and no product of gaps underflows
    near 1e-300.  The window is trimmed to u > floor * max(u); fewer than
    3 knots left is a GridTooNarrow.  Returns the gaps' geometric
    midpoints and the rate estimate there.
    """
    grid = density.grid
    u = density.values
    keep = u > max(floor * float(np.max(u)), 1e-300)
    if int(np.sum(keep)) < 3:
        raise GridTooNarrow("density window too thin for finite differences: fewer "
                            f"than 3 knots above {floor:.3g} of the peak")
    x = grid[keep]
    g = np.log(decay.value(x) * u[keep]) - burst.nu.log_value(x)
    t = np.log(x)
    return np.exp(0.5 * (t[1:] + t[:-1])), decay.rate * np.diff(g) / np.diff(t)


def phi_from_density_analytic(
    decay: LinearDecay,
    burst,
    u: Callable[[np.ndarray], np.ndarray],
    u_prime: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Rate recovery with exact density derivatives:

        rate(x) = hazard(x) decay(x) + decay'(x) + decay(x) u'(x)/u(x).
    """
    x = np.asarray(x, dtype=float)
    ux = np.asarray(u(x), dtype=float)
    if np.any(ux <= 0.0):
        raise NumericalBlowup("density must be positive on the evaluation points")
    dux = np.asarray(u_prime(x), dtype=float)
    return (burst.nu.log_slope(x) * decay.value(x)
            + decay.derivative(x) + decay.value(x) * dux / ux)


# ---------------------------------------------------------------------------
# mode census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeReportContinuous:
    """Roots of the density-slope balance and their classification."""

    roots: tuple[float, ...]
    kinds: tuple[str, ...]      # "max" or "min", by the sign-change direction
    boundary_mode: bool         # density rising toward the origin


def count_modes_continuous(
    model: ContinuousBurstModel,
    *,
    window: tuple[float, float] | None = None,
    n_scan: int = 2048,
) -> ModeReportContinuous:
    """Count stationary-density extrema without building the density.

    The log-density slope has the sign of

        f(x) = rate(x) - hazard(x) decay(x) - decay'(x),

    so interior maxima are + to - crossings of f and minima the reverse.
    ``n_scan`` log-spaced points (at least 2) bracket the crossings, exact
    zeros skipped, and numerics._false_position refines all the brackets
    at once, from the end values of the scan.  Without an explicit window
    the scan covers the law window (_law_ends), reaching down to 1e-6 of
    its high end and kept under a finite cap; a window that ends while f
    is still positive raises WindowTooSmall, since a crossing may sit
    beyond it.
    """
    if n_scan < 2:
        raise ModelError(f"count_modes_continuous: n_scan must be >= 2, got {n_scan}")
    hazard = model.burst_size.nu.log_slope

    def f(x):
        x = np.asarray(x, dtype=float)
        return (model.burst_rate.value(x)
                - hazard(x) * model.decay.value(x)
                - model.decay.derivative(x))

    if window is None:
        lo, hi = _law_ends(model)       # modes may lie below the bulk, and f is -inf at a cap
        lo, hi = min(lo, 1e-6 * hi), min(hi, model.burst_size.support_cap * (1.0 - 1e-9))
    else:
        lo, hi = window
        if not (0.0 < lo < hi):
            raise ModelError("count_modes_continuous: bad window")
    if float(f(hi)) > 0.0:
        raise WindowTooSmall(f"density slope still positive at window end {hi:.3g}")

    xs = np.exp(np.linspace(math.log(lo), math.log(hi), n_scan))
    fs = f(xs)
    # a bracket's root is settled at |f| <= 1e-13 of its larger end value,
    # about 1e-13 of its width from the root
    before, after = _sign_changes(fs)
    f_lo, f_hi = fs[before], fs[after]
    roots = _false_position(f, xs[before], xs[after], f_lo, f_hi,
                            1e-13 * np.maximum(np.abs(f_lo), np.abs(f_hi)))
    kinds = tuple("max" if up else "min" for up in (f_lo > 0.0).tolist())
    boundary = float(f(lo)) < 0.0
    return ModeReportContinuous(tuple(roots.tolist()), kinds, boundary)


# ---------------------------------------------------------------------------
# mean-ergodicity margin
# ---------------------------------------------------------------------------

def ergodicity_scan(
    model: ContinuousBurstModel,
    probes: Sequence[float],
    *,
    quad_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Drift margins at the sorted probes, plus their running supremum.

    The margin at y is M(y) = integral_0^y (m1 rate/decay - 1) e^{Q(y)-Q(z)} dz,
    m1 the mean burst size from state z.  A margin that stays negative
    as y grows certifies a mean-ergodic jump chain (and with it a unique
    stationary law); persistent positive values say the drift condition
    fails.  Only potential differences enter, so the anchor point drops
    out.  One pass over the sorted probes carries the margin forward,

        M(y+) = e^{Q(y+)-Q(y)} M(y) + integral_y^{y+} (...) e^{Q(y+)-Q(z)} dz,

    so each stretch of the axis is integrated once, as the gain
    m1 rate/(decay z) e^{Q(y+)-Q(z)} minus the loss e^{Q(y+)-Q(z)}, each
    by numerics.log_quad to ``quad_tol`` relative.  DomainError for a
    probe that is not > 0.
    """
    ps = sorted(float(p) for p in probes)
    if not all(p > 0.0 for p in ps):
        raise DomainError("ergodicity margin: probes must be > 0")
    pot = Potential(model, x_ref=1.0)
    gamma = model.decay.rate
    burst = model.burst_size
    margins = []
    y, q_y, margin = 0.0, math.inf, 0.0
    for p in ps:
        q_p = pot.value(p)

        def ln_loss(z):
            return q_p - pot.value(z)

        def ln_gain(z):
            return np.log(burst.mean_burst(z)) + pot.ln_rate(z) - np.log(gamma * z) + ln_loss(z)

        gain = math.exp(log_quad(ln_gain, y, p, quad_tol))
        loss = math.exp(log_quad(ln_loss, y, p, quad_tol))
        margin = math.exp(q_p - q_y) * margin + (gain - loss)
        margins.append(margin)
        y, q_y = p, q_p
    margins = np.array(margins)
    return margins, np.maximum.accumulate(margins)
