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
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridTooNarrow,
    ModelError,
    NoConvergence,
    NotIntegrable,
    NumericalBlowup,
    RangeError,
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
    draw_unit_exponential,
    find_root_monotone,
    make_rng,
    quad_adaptive,
    trapezoid,
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
    "ergodicity_margin",
    "ergodicity_margin_raw",
    "ergodicity_scan",
]


# ---------------------------------------------------------------------------
# grids and densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridDensity:
    """Density values on a strictly increasing positive grid.

    ``normalization`` records the constant the raw (unnormalized) form
    integrated to when the producing operation knows it; NaN otherwise.
    """

    grid: np.ndarray
    values: np.ndarray
    normalization: float = math.nan

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

    def normalized(self) -> "GridDensity":
        m = self.mass()
        if not (m > 0.0) or not math.isfinite(m):
            raise NotIntegrable(f"density mass {m!r} is not a positive finite number")
        return GridDensity(self.grid, self.values / m, self.normalization)


def geometric_grid(x_min: float, x_max: float, n_knots: int) -> np.ndarray:
    """Log-spaced knots from x_min to x_max inclusive, both ends exact."""
    if not (0.0 < x_min < x_max):
        raise ModelError("geometric_grid: need 0 < x_min < x_max")
    if n_knots < 3:
        raise ModelError("geometric_grid: need at least 3 knots")
    grid = np.exp(np.linspace(math.log(x_min), math.log(x_max), n_knots))
    grid[0], grid[-1] = x_min, x_max  # exp(log(x)) may round off x
    return grid


def _natural_scale(model: ContinuousBurstModel) -> float:
    """A typical state: the mean burst from 1 times rate(1)/decay, kept in the support."""
    burst = model.burst_size
    gamma = model.decay.rate
    rate_scale = float(model.burst_rate.value(1.0))
    m1 = float(burst.mean_burst(1.0))
    if not math.isfinite(m1):
        m1 = 1.0
    return min(max(m1 * max(rate_scale, gamma) / gamma, 1e-3), burst.support_cap)


def default_grid(
    model: ContinuousBurstModel,
    n_knots: int = 1024,
    *,
    x_min: float | None = None,
    x_max: float | None = None,
) -> np.ndarray:
    """Model-aware log grid.

    The lower end sits at 1e-6 of the natural scale, a typical state
    kept within the kernel support; the upper end is pushed out until the
    burst tail from that state drops below 1e-12, then capped at the
    kernel support when that is finite.
    """
    burst = model.burst_size
    cap = burst.support_cap
    scale = _natural_scale(model)
    lo = x_min if x_min is not None else 1e-6 * scale
    if x_max is not None:
        hi = x_max
    else:
        hi = scale
        for _ in range(200):
            if float(burst.tail(hi, scale)) < 1e-12:
                break
            hi *= 1.5
        hi *= 1.25
    hi = min(hi, cap)
    if not lo < hi:
        lo = hi * 1e-9
    return geometric_grid(lo, hi, n_knots)


def kernel_grid(
    model: ContinuousBurstModel,
    n_knots: int = 4096,
    *,
    leak_tol: float = 2e-5,
) -> np.ndarray:
    """Grid sized for the discretized transition operator.

    The top columns of the operator leak whatever burst mass overshoots
    the last knot, roughly mean_burst * rate / decay evaluated there, so
    the upper end is pushed out until that estimate drops below
    ``leak_tol``.  Finite-support kernels need no headroom at all: the
    grid runs to just under the support cap.
    """
    burst = model.burst_size
    cap = burst.support_cap
    if math.isfinite(cap):
        return default_grid(model, n_knots, x_max=cap * (1.0 - 1e-12))
    gamma = model.decay.rate
    hi = default_grid(model, 8)[-1]
    for _ in range(200):
        m1 = float(burst.mean_burst(hi))
        leak = float(model.burst_rate.value(hi)) * m1 / (gamma * hi)
        if leak < leak_tol:
            break
        hi *= 2.0
        if hi > 1e12:
            break  # hopeless tail; kernel_matrix will flag the columns
    return default_grid(model, n_knots, x_max=hi)


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

class Potential:
    """Q(x) = integral of burst_rate/decay from x up to the anchor x_ref.

    Strictly decreasing, +inf at the origin for every admissible model.
    Closed forms cover all shipped rate laws with first-order decay; the
    quadrature path stays available as a cross-check.
    """

    def __init__(self, model: ContinuousBurstModel, x_ref: float = 1.0):
        if not (x_ref > 0.0) or not math.isfinite(x_ref):
            raise ModelError(f"Potential: x_ref must be positive and finite, got {x_ref}")
        self.model = model
        self.x_ref = float(x_ref)
        self.rate = model.burst_rate
        self.gamma = model.decay.rate

    # -- evaluation ----------------------------------------------------

    def value(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < 0.0) or np.any(np.isnan(x_arr)):
            raise DomainError("Potential: defined for x > 0 only")
        with np.errstate(divide="ignore"):
            out = self._closed_form(x_arr)
        return float(out) if np.ndim(x) == 0 else out

    __call__ = value

    def _closed_form(self, x: np.ndarray) -> np.ndarray:
        g = self.gamma
        ref = self.x_ref
        r = self.rate
        log_ref_over_x = math.log(ref) - np.log(x)
        if isinstance(r, ConstantRate):
            return (r.level / g) * log_ref_over_x
        if isinstance(r, LinearRate):
            return (r.base / g) * log_ref_over_x + (r.slope / g) * (ref - x)
        if isinstance(r, QuadraticRate):
            return ((r.base / g) * log_ref_over_x + (r.slope / g) * (ref - x)
                    + (r.quad / (2.0 * g)) * (ref * ref - x * x))
        if isinstance(r, HillRate):
            lam, th = r.scale, r.numer_coeff
            d0, d1, ne = r.denom_const, r.denom_coeff, r.exponent
            lead = lam / (g * d0)
            curv = lam * (d1 / d0 - th) / (ne * d1 * g)
            return (lead * log_ref_over_x
                    + curv * (np.log(d0 + d1 * x ** ne) - math.log(d0 + d1 * ref ** ne)))
        raise ModelError(f"Potential: no closed form for {type(r).__name__}")

    def value_quadrature(self, x: float, tol: float = 1e-12) -> float:
        """Direct quadrature of burst_rate/decay; cross-check for the closed form."""
        x = float(x)
        if x <= 0.0:
            raise DomainError("Potential: defined for x > 0 only")
        lo, hi = (x, self.x_ref) if x <= self.x_ref else (self.x_ref, x)
        val = quad_adaptive(lambda y: self.rate.value(y) / (self.gamma * y), lo, hi, tol)
        return val if x <= self.x_ref else -val

    def slope(self, x):
        """dQ/dx = -burst_rate(x)/decay(x)."""
        x_arr = np.asarray(x, dtype=float)
        out = -self.rate.value(x_arr) / (self.gamma * x_arr)
        return float(out) if np.ndim(x) == 0 else out

    def at_infinity(self) -> float:
        """Limit of Q at +inf; finite only for a rate that shuts off out there."""
        r = self.rate
        if isinstance(r, HillRate) and r.numer_coeff == 0.0:
            g = self.gamma
            return (r.scale / (g * r.denom_const)) * math.log(self.x_ref) + \
                (r.scale / (r.exponent * r.denom_const * g)) * \
                math.log(r.denom_coeff / (r.denom_const + r.denom_coeff * self.x_ref ** r.exponent))
        return -math.inf

    # -- generalized inverse -------------------------------------------

    def inverse(self, target: float, *, hint: float | None = None) -> float:
        """The x with Q(x) = target.

        ``hint`` (a nearby state) tightens the initial bracket, which
        matters inside simulation loops.  RangeError below the infimum
        of Q; exactly at a finite infimum the inverse is +inf.
        """
        if target == 0.0:
            return self.x_ref
        q_inf = self.at_infinity()
        if target < q_inf:
            raise RangeError(f"target {target} below the infimum {q_inf} of the potential")
        if target == q_inf:
            return math.inf
        r = self.rate
        if isinstance(r, ConstantRate):
            return self.x_ref * math.exp(-target * self.gamma / r.level)

        if target > 0.0:
            # the root sits in (0, x_ref]; descend geometrically
            hi = self.x_ref
            if hint is not None and 0.0 < hint < hi and self.value(hint) <= target:
                hi = hint
            lo = 0.5 * hi
            for _ in range(1200):
                if self.value(lo) >= target:
                    break
                hi = lo
                lo *= 0.5
            else:
                raise RangeError("potential inverse: no bracket toward the origin")
        else:
            # the root sits in [x_ref, inf); ascend geometrically
            lo = self.x_ref
            if hint is not None and hint > lo and self.value(hint) >= target:
                lo = hint
            hi = 2.0 * lo
            for _ in range(600):
                if self.value(hi) <= target:
                    break
                lo = hi
                hi *= 2.0
            else:
                raise RangeError("potential inverse: no bracket toward infinity")

        return float(find_root_monotone(
            lambda x: self.value(x) - target, lo, hi,
            tol=1e-13 * max(1.0, abs(target)), fprime=self.slope))


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
        centers = np.sqrt(self.edges[:-1] * self.edges[1:])
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
    """
    if y0 <= 0.0:
        raise ModelError("simulate_pdmp: y0 must be > 0")
    if n_jumps < 1:
        raise ModelError("simulate_pdmp: need at least one jump")
    cap = model.burst_size.support_cap
    if y0 >= cap:
        raise ModelError(f"simulate_pdmp: y0 must sit inside the kernel support (0, {cap})")
    pot = Potential(model, x_ref)
    gamma = model.decay.rate
    rng = make_rng(seed, stream)

    if hist_edges is None:
        hi = default_grid(model, 8)[-1]
        if math.isfinite(cap):
            hi = cap
        lo = min(y0, 1e-6 * hi)
        hist_edges = np.exp(np.linspace(math.log(lo * 1e-2), math.log(hi), n_bins + 1))
    edges = np.asarray(hist_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 3 or np.any(np.diff(edges) <= 0):
        raise ModelError("simulate_pdmp: need at least two increasing histogram bins")
    log_edges = np.log(edges)
    nbins = len(edges) - 1
    exposure = np.zeros(nbins)
    below = 0.0
    above = 0.0

    times = np.zeros(n_jumps + 1)
    y_pre = np.zeros(n_jumps)
    y_post = np.zeros(n_jumps)
    waits = np.zeros(n_jumps)
    bursts = np.zeros(n_jumps)

    y = float(y0)
    t = 0.0
    for k in range(n_jumps):
        eps = draw_unit_exponential(rng)
        y_end = pot.inverse(pot.value(y) + eps, hint=y)
        t += math.log(y / y_end) / gamma

        # analytic exposure of every bin the flow segment crosses
        la, lb = math.log(y_end), math.log(y)
        i0 = max(int(np.searchsorted(log_edges, la, side="right")) - 1, 0)
        i1 = min(int(np.searchsorted(log_edges, lb, side="left")), nbins)
        if i1 > i0:
            lo_clip = np.maximum(log_edges[i0:i1], la)
            hi_clip = np.minimum(log_edges[i0 + 1:i1 + 1], lb)
            exposure[i0:i1] += np.maximum(hi_clip - lo_clip, 0.0) / gamma
        if la < log_edges[0]:
            below += (min(lb, log_edges[0]) - la) / gamma
        if lb > log_edges[-1]:
            above += (lb - max(la, log_edges[-1])) / gamma

        e = model.burst_size.sample(rng, y_end)
        times[k + 1] = t
        y_pre[k] = y_end
        y_post[k] = y_end + e
        waits[k] = eps
        bursts[k] = e
        y = y_end + e
        if not math.isfinite(y) or y <= 0.0:
            raise NumericalBlowup(f"state left (0, inf) at jump {k}")

    hist = ExposureHistogram(edges, exposure, below, above, t)
    return PdmpTrajectory(times, y_pre, y_post, waits, bursts, hist)


# ---------------------------------------------------------------------------
# stationary densities, analytic route
# ---------------------------------------------------------------------------

def _rate_at_infinity(rate) -> float:
    """Limit of the burst rate at large x; inf when it grows without bound."""
    if isinstance(rate, ConstantRate):
        return rate.level
    if isinstance(rate, LinearRate):
        return math.inf if rate.slope > 0 else rate.base
    if isinstance(rate, QuadraticRate):
        return math.inf if (rate.quad > 0 or rate.slope > 0) else rate.base
    if isinstance(rate, HillRate):
        if rate.numer_coeff > 0:
            return rate.scale * rate.numer_coeff / rate.denom_coeff
        return 0.0
    raise ModelError(f"unsupported rate form {type(rate).__name__}")


def _screen(model: ContinuousBurstModel, nu) -> None:
    """Reject kernel/rate pairings that provably fail the tail balance.

    For a power tail the requirement is the strict mean-drift version
    (tail exponent above asymptotic-rate/decay plus one), which is what
    guarantees both integrals behind the stationary formula.
    """
    r = model.burst_rate
    gamma = model.decay.rate
    if isinstance(nu, PowerTailNu):
        need = _rate_at_infinity(r) / gamma + 1.0
        if not nu.exponent > need:
            raise NotIntegrable(
                f"power-tail exponent {nu.exponent} too small: the tail balance "
                f"needs > rate_at_infinity/decay + 1 = {need:.6g}")
    elif isinstance(nu, GaussianExpNu):
        if isinstance(r, QuadraticRate) and r.quad > 0.0:
            if nu.quad == 0.0 or r.quad / (2.0 * gamma) > nu.quad:
                raise NotIntegrable("quadratic rate growth beats the burst tail")
        if nu.quad == 0.0:
            slope = getattr(r, "slope", 0.0)
            if slope > 0.0 and slope / gamma >= nu.lin:
                raise NotIntegrable(f"rate slope {slope} outruns the burst tail: "
                                    f"needs slope/decay < {nu.lin:.6g}")
    # finite-support kernels are always fine: the state space is bounded


def _check_integrable(f: Callable[[np.ndarray], np.ndarray], probe: float) -> float:
    """Integrate f over (0, inf), making divergence loud rather than silent."""
    far = np.array([1e3 * probe, 1e6 * probe])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(f(far), dtype=float)
    if not np.all(np.isfinite(vals)) or (vals[1] > vals[0] and vals[1] > 1e-290):
        raise NotIntegrable("density integrand grows at infinity")
    try:
        total = quad_adaptive(f, 0.0, math.inf, 1e-12)
    except Exception as exc:
        raise NotIntegrable(f"normalization integral did not converge: {exc}") from exc
    if not math.isfinite(total) or total <= 0.0:
        raise NotIntegrable(f"normalization integral evaluated to {total!r}")
    return total


def stationary_density(
    model: ContinuousBurstModel,
    grid: np.ndarray | None = None,
    *,
    x_ref: float = 1.0,
    n_knots: int = 1024,
) -> GridDensity:
    """Stationary density u(x) = nu(x) e^{-Q(x)} / (c decay(x)), c the normalization.

    The exponential weight is formed as exp(ln nu(x) - Q(x)), so neither
    factor overflows or underflows on its own.
    """
    nu = model.burst_size.nu
    _screen(model, nu)
    gamma = model.decay.rate
    pot = Potential(model, x_ref)

    def raw(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.exp(nu.log_value(x) - pot.value(x)) / (gamma * x)

    if grid is None:
        grid = default_grid(model, n_knots)
    cap = nu.support_cap
    if math.isfinite(cap):
        if grid[-1] > cap:
            raise ModelError(f"grid exceeds the kernel support cap {cap}")
        c = quad_adaptive(raw, 0.0, cap, 1e-12)
        if not math.isfinite(c) or c <= 0.0:
            raise NotIntegrable(f"normalization integral evaluated to {c!r}")
    else:
        probe = float(grid[len(grid) // 2])
        c = _check_integrable(raw, probe)
    values = raw(grid)
    if not np.all(np.isfinite(values)):
        raise NumericalBlowup("density overflowed on the grid; shrink the span")
    mass = trapezoid(values, grid)
    return GridDensity(grid, values / mass, c)


# ---------------------------------------------------------------------------
# the jump-chain transition operator on a grid
# ---------------------------------------------------------------------------

_SCAN_BLOCK = 64


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
    raw quadrature sums.  ``scale`` is the model's natural state scale,
    where power iteration starts by default.  ``matrix`` materializes the
    dense n x n array, k(x_i, y_j) at [i, j]: an O(n^2) diagnostic.
    """

    grid: np.ndarray
    weights: np.ndarray
    diag: np.ndarray
    dq: np.ndarray
    dl: np.ndarray
    raw_column_sums: np.ndarray
    scale: float

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
    model: ContinuousBurstModel, grid: np.ndarray, x_ref: float, substeps: int,
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
        return -nu.log_value(z) + np.log(model.burst_rate.value(z)) - np.log(gamma * z)

    # ln S_abs[j] = ln of the integral of w(z) e^{-Q(z)} over (0, x_j],
    # accumulated with exponential-fitted panels on geometric substeps
    m = max(int(substeps), 1)
    if math.isfinite(cap):
        # the integrand has a power singularity at the cap, so substep
        # nodes go geometrically in the remaining gap cap - z; the count
        # scales with the worst panel's gap ratio to keep each substep's
        # log swing small
        gap_lo = cap - grid[:-1]
        gap_hi = cap - grid[1:]
        span = float(np.max(gap_lo / gap_hi))
        m = int(min(max(m, math.ceil(4.0 * math.log(span))), 1024))
    frac = np.arange(m + 1)[None, :] / m
    ln_panel = np.empty(len(grid) - 1)
    # the (panels, m + 1) substep arrays are built 256 panels at a time;
    # panels are independent, so the blocking changes no bit of ln_panel
    for lo in range(0, len(ln_panel), 256):
        rows = slice(lo, lo + 256)
        if math.isfinite(cap):
            z = cap - gap_lo[rows, None] * (gap_hi[rows] / gap_lo[rows])[:, None] ** frac
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

    s0 = quad_adaptive(lambda t: np.exp(ln_w(t) - pot.value(t)),
                       0.0, float(grid[0]), 1e-14)
    ln_s0 = math.log(s0) if s0 > 0.0 else -math.inf
    ln_s_abs = np.logaddexp.accumulate(np.concatenate([[ln_s0], ln_panel]))
    return ln_a, q, ln_s_abs


def kernel_matrix(
    model: ContinuousBurstModel,
    grid: np.ndarray,
    *,
    x_ref: float = 1.0,
    _substeps: int = 8,
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
    below 1 - 1e-4 of their mass) then closed to exactly stochastic, so
    downstream iteration conserves mass to rounding.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 8 or np.any(np.diff(grid) <= 0):
        raise ModelError("kernel_matrix: need an increasing grid with >= 8 knots")
    if grid[0] <= 0.0:
        raise ModelError("kernel_matrix: grid must be strictly positive")
    ln_a, q, ln_s_abs = _kernel_log_factors(model, grid, x_ref, _substeps)
    diag = ln_a + q + ln_s_abs
    dq = np.diff(q)
    dl = np.diff(ln_s_abs)
    weights = _log_simpson_weights(grid)
    # the transposed recurrences of KernelGrid.apply, on the same vectors,
    # so the closure below holds to rounding for the operator apply uses
    t = weights * np.exp(diag)
    climb = -dq - dl
    raw_sums = _prefix_scan(dq, t)
    raw_sums[:-1] += np.exp(climb) * _suffix_scan(climb, t)[1:]
    if not np.all(raw_sums >= 1.0 - 1e-4):  # NaN sums fail too
        worst = float(np.min(raw_sums))
        raise GridTooNarrow(
            f"kernel column mass down to {worst:.6f}; widen or refine the grid")
    return KernelGrid(grid, weights, diag, dq, dl, raw_sums, _natural_scale(model))


def kernel_fixed_point(
    kernel: KernelGrid,
    tol: float = 1e-10,
    max_iter: int = 5000,
    v0: np.ndarray | None = None,
) -> GridDensity:
    """Stationary density of the discretized jump kernel by power iteration.

    Iterates are averaged over a short trailing window (a truncated
    running mean) to damp rotating modes; the stop test is the weighted
    L1 residual of the averaged iterate.
    """
    w = kernel.weights
    if v0 is None:
        # decaying past the natural scale keeps the start's mass off the
        # top of a wide grid, where the discretized chain barely mixes
        v = np.exp(-(kernel.grid - kernel.grid[0]) / kernel.scale)
    else:
        v = np.asarray(v0, dtype=float).copy()
        if v.shape != kernel.grid.shape or np.any(v < 0) or not np.any(v > 0):
            raise ModelError("kernel_fixed_point: start must be nonnegative on the grid")
    v /= float(np.dot(w, v))

    window: list[np.ndarray] = []
    residual = math.inf
    for it in range(1, max_iter + 1):
        v = kernel.apply(v)
        v /= float(np.dot(w, v))
        window.append(v)
        if len(window) > 8:
            window.pop(0)
        if it % 4 == 0 or it == max_iter:
            avg = np.mean(window, axis=0)
            avg /= float(np.dot(w, avg))
            residual = float(np.dot(w, np.abs(kernel.apply(avg) - avg)))
            if residual <= tol:
                return GridDensity(kernel.grid, avg / trapezoid(avg, kernel.grid))
    raise NoConvergence(f"power iteration stalled at residual {residual:.3e} "
                        f"after {max_iter} iterations")


def density_from_fixed_point(
    model: ContinuousBurstModel,
    v_star: GridDensity,
    *,
    x_ref: float = 1.0,
) -> GridDensity:
    """Turn the jump-chain fixed point into the stationary density:

        u(x) = (1/(c decay(x))) * integral_x^inf e^{Q(y) - Q(x)} v(y) dy.

    The tail integral accumulates top-down through Q differences only,
    so its exponential weights never overflow.
    """
    grid = v_star.grid
    v = v_star.values
    pot = Potential(model, x_ref)
    q = pot.value(grid)
    gamma = model.decay.rate

    dq = np.diff(q)
    terms = np.zeros(len(grid))
    terms[:-1] = 0.5 * np.diff(grid) * (v[:-1] + np.exp(dq) * v[1:])  # e^{dq} <= 1
    w_tail = _suffix_scan(dq, terms)

    raw = w_tail / (gamma * grid)
    c = trapezoid(raw, grid)
    if not math.isfinite(c) or c <= 0.0:
        raise NotIntegrable(f"fixed-point density integrated to {c!r}")
    return GridDensity(grid, raw / c, c)


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

        rate(x) = hazard(x) decay(x) + decay(x) d/dx ln(decay(x) u(x)),

    with the log derivative taken as a second-order finite difference on
    the (possibly nonuniform) grid.  The window is trimmed to
    u > floor * max(u); endpoints drop out.  Returns the evaluation
    points and the rate estimate there.
    """
    grid = density.grid
    u = density.values
    keep = u > max(floor * float(np.max(u)), 1e-300)
    if int(np.sum(keep)) < 3:
        raise NumericalBlowup("density window too thin for finite differences")
    x = grid[keep]
    g = np.log(decay.value(x) * u[keep])

    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    num = h1 * h1 * g[2:] - h2 * h2 * g[:-2] - (h1 * h1 - h2 * h2) * g[1:-1]
    dg = num / (h1 * h2 * (h1 + h2))
    xc = x[1:-1]
    rate = decay.value(xc) * (burst.nu.log_slope(xc) + dg)
    return xc, rate


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
    Without an explicit window the scan expands upward until f is
    decisively negative; a window that ends while f is still positive
    raises WindowTooSmall, since a crossing may sit beyond it.
    """
    hazard = model.burst_size.nu.log_slope

    def f(x):
        x = np.asarray(x, dtype=float)
        return (model.burst_rate.value(x)
                - hazard(x) * model.decay.value(x)
                - model.decay.derivative(x))

    cap = model.burst_size.support_cap
    if window is None:
        lo = 1e-8
        if math.isfinite(cap):
            hi = cap * (1.0 - 1e-9)
        else:
            hi = 10.0 * default_grid(model, 8)[-1]
            for _ in range(60):
                if float(f(hi)) < 0.0:
                    break
                hi *= 4.0
            else:
                raise WindowTooSmall("rate still beats decay at the window end")
    else:
        lo, hi = window
        if not (0.0 < lo < hi):
            raise ModelError("count_modes_continuous: bad window")
    if float(f(hi)) > 0.0:
        raise WindowTooSmall(f"density slope still positive at window end {hi:.3g}")

    xs = np.exp(np.linspace(math.log(lo), math.log(hi), n_scan))
    fs = f(xs)

    roots: list[float] = []
    kinds: list[str] = []
    prev_sign = 0
    prev_x = None
    for x_cur, val in zip(xs.tolist(), fs.tolist()):
        cur = (val > 0) - (val < 0)
        if cur == 0:
            continue  # exact zero: wait for a strict sign before deciding
        if prev_sign != 0 and cur != prev_sign:
            root = find_root_monotone(lambda t: float(f(t)), prev_x, x_cur, tol=1e-12)
            roots.append(float(root))
            kinds.append("max" if prev_sign > 0 else "min")
        prev_sign = cur
        prev_x = x_cur

    boundary = float(f(lo)) < 0.0
    return ModeReportContinuous(tuple(roots), tuple(kinds), boundary)


# ---------------------------------------------------------------------------
# mean-ergodicity margin
# ---------------------------------------------------------------------------

def ergodicity_margin(
    model: ContinuousBurstModel,
    y_probe: float,
    *,
    quad_tol: float = 1e-10,
) -> float:
    """Drift margin integral_0^y (m1 rate/decay - 1) e^{Q(y)-Q(z)} dz.

    m1 is the mean burst size from state z.  A margin that stays
    negative as y grows certifies a mean-ergodic jump chain (and with it
    a unique stationary law); persistent positive values say the drift
    condition fails.  Only potential differences enter, so the anchor
    point drops out.
    """
    if y_probe <= 0.0:
        raise DomainError("ergodicity margin: y_probe must be > 0")
    pot = Potential(model, x_ref=1.0)
    gamma = model.decay.rate
    burst = model.burst_size
    q_y = pot.value(y_probe)

    def integrand(z):
        z = np.asarray(z, dtype=float)
        m1 = np.asarray(burst.mean_burst(z), dtype=float)
        drift = m1 * model.burst_rate.value(z) / (gamma * z) - 1.0
        return drift * np.exp(np.minimum(q_y - pot.value(z), 0.0))

    return quad_adaptive(integrand, 0.0, y_probe, quad_tol)


def ergodicity_margin_raw(
    rate_fn: Callable[[np.ndarray], np.ndarray],
    decay_fn: Callable[[np.ndarray], np.ndarray],
    mean_burst_fn: Callable[[np.ndarray], np.ndarray],
    y_probe: float,
    *,
    quad_tol: float = 1e-10,
) -> float:
    """The same margin from raw callables, hazard integrals by quadrature.

    Useful for what-if scans over rate shapes that the model classes
    refuse, for instance a rate proportional to the decay itself.
    """
    if y_probe <= 0.0:
        raise DomainError("ergodicity margin: y_probe must be > 0")

    def q_diff(z: float) -> float:
        # integral from z to y_probe of rate/decay
        return quad_adaptive(lambda t: np.asarray(rate_fn(t), dtype=float)
                             / np.asarray(decay_fn(t), dtype=float),
                             z, y_probe, quad_tol)

    def integrand(z):
        z = np.asarray(z, dtype=float)
        drift = (np.asarray(mean_burst_fn(z), dtype=float)
                 * np.asarray(rate_fn(z), dtype=float)
                 / np.asarray(decay_fn(z), dtype=float) - 1.0)
        weight = np.array([math.exp(-q_diff(float(t))) for t in np.atleast_1d(z)])
        return drift * weight.reshape(np.shape(drift))

    return quad_adaptive(integrand, 0.0, y_probe, quad_tol)


def ergodicity_scan(
    model: ContinuousBurstModel,
    probes: Sequence[float],
    *,
    quad_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Margins at increasing probe points plus their running supremum."""
    ps = sorted(float(p) for p in probes)
    margins = np.array([ergodicity_margin(model, p, quad_tol=quad_tol) for p in ps])
    return margins, np.maximum.accumulate(margins)
