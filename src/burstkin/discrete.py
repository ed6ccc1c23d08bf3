"""Discrete bursty birth-death kinetics on copy numbers.

The state n = 0, 1, 2, ... jumps up by a whole burst of size k >= 1 at
rate burst_rate(n) * P(K = k) and down by one unit at rate decay(n).
The stationary law solves a one-sided recurrence driven by the burst
tail sums; with geometric bursts the recurrence collapses to a pure
ratio form, which is what makes the named closed-form families drop
out.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import (
    ModelError,
    NotNormalizable,
    TailNotConverged,
)
from .models import (
    DiscreteBurstModel,
    GeometricBurst,
    HillRate,
    ConstantRate,
    LinearRate,
    LinearDecay,
    TabulatedDecay,
)
from .numerics import expm, l1_distance, uniform_blocks

# perfbench/baseline.py saves, patches and restores this attribute around
# evolve_master; nothing in burstkin reads it
integrate_adaptive = None

__all__ = [
    "Pmf",
    "stationary_pmf_general",
    "stationary_pmf_geometric",
    "NegativeBinomialFamily",
    "HypergeometricFamily",
    "GeneralizedHypergeometricFamily",
    "named_family_params",
    "mean_identity_residual",
    "master_rhs_truncated",
    "MasterTrace",
    "evolve_master",
    "JumpChainResult",
    "simulate_jump_chain",
    "ModeReportDiscrete",
    "count_modes_discrete",
]


# ---------------------------------------------------------------------------
# pmf container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass vector on 0..n_max.

    ``log_values`` is carried along by the geometric ratio route, which
    runs in log scale; entries that underflow to zero in linear scale
    stay usable there.
    """

    values: np.ndarray
    log_values: np.ndarray | None = None

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    @property
    def log_scale(self) -> bool:
        return self.log_values is not None

    def mass(self) -> float:
        return float(math.fsum(np.asarray(self.values, dtype=float).tolist()))

    def normalized(self) -> "Pmf":
        total = self.mass()
        if total <= 0:
            raise NotNormalizable("pmf has no positive mass")
        logs = None if self.log_values is None else self.log_values - math.log(total)
        return Pmf(self.values / total, logs)


def _rate_arrays(model: DiscreteBurstModel, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    n = np.arange(n_max + 1)
    lam = np.asarray(model.burst_rate.value(n), dtype=float)
    gam = np.asarray(model.decay.value(n), dtype=float)
    return lam, gam


def _check_tail(values: np.ndarray, tail_tol: float | None) -> None:
    if tail_tol is None:
        return
    n = len(values)
    start = max(int(math.ceil(0.95 * n)), n - max(1, n // 20))
    start = min(start, n - 1)
    tail_mass = float(np.sum(values[start:]))
    if tail_mass > tail_tol:
        raise TailNotConverged(
            f"mass {tail_mass:.3e} in the top indices (from {start}) exceeds "
            f"tail_tol={tail_tol:.1e}; raise n_max")


def _reject_divergent_linear(model: DiscreteBurstModel) -> None:
    """Fast analytic screen: a linear rate that outruns decay has no stationary law."""
    if (isinstance(model.burst_rate, LinearRate)
            and isinstance(model.decay, LinearDecay)
            and isinstance(model.burst_size, GeometricBurst)):
        gap = model.decay.rate * (1.0 - model.burst_size.b)
        if model.burst_rate.slope >= gap:
            raise NotNormalizable(
                f"rate slope {model.burst_rate.slope} >= decay margin {gap}; "
                "the stationary recurrence diverges")


# ---------------------------------------------------------------------------
# stationary laws
# ---------------------------------------------------------------------------

def _tail_recurrence(law) -> tuple[float, list]:
    """The burst tail sums s_n = sum_{k<=n} P(K > n-k) x_k as (carry, band),
    s_n = carry * s_(n-1) + sum_m band[m] x_(n-m): a geometric tail b^m is
    one running state, (b, [1]), and a table of K sizes a band of K.
    """
    if isinstance(law, GeometricBurst):
        return law.b, [1.0]
    return 0.0, law.tail(np.arange(len(law.weights))).tolist()


def stationary_pmf_general(
    model: DiscreteBurstModel,
    n_max: int,
    *,
    tail_tol: float | None = 1e-8,
) -> Pmf:
    """Stationary pmf via the tail-sum recurrence, any burst-size law.

    The net probability flux down across every cut n | n+1 vanishes,
        decay(n+1) p(n+1) = sum_{k<=n} tail(n-k) * rate(k) * p(k),
    which is solved forward from p(0) = 1 in O(n_max K) through the tail
    recurrence and normalized at the end.  Interim values are rescaled
    against the running maximum so dynamic ranges beyond float range
    survive.

    Set ``tail_tol=None`` to skip the truncation-quality check (used
    deliberately when studying truncation error itself).
    """
    if n_max < 1:
        raise ModelError("stationary_pmf_general: n_max must be >= 1")
    _reject_divergent_linear(model)
    lam, gam = (a.tolist() for a in _rate_arrays(model, n_max))
    carry, band = _tail_recurrence(model.burst_size)
    w = [1.0]
    lw = [lam[0]]   # rate(k) * w(k), kept in the same scale as w
    s = 0.0
    for n in range(n_max):
        s = carry * s + sum(map(operator.mul, band, lw[:-len(band) - 1:-1]))
        w.append(s / gam[n + 1])
        lw.append(lam[n + 1] * w[-1])
        if w[-1] > 1e280:   # rescale against the running maximum
            peak = w[-1]
            w = [v / peak for v in w]
            lw = [v / peak for v in lw]
            s /= peak

    total = math.fsum(w)
    if not (total > 0.0) or not math.isfinite(total):
        raise NotNormalizable("stationary recurrence produced no usable mass")
    values = np.array(w) / total
    _check_tail(values, tail_tol)
    return Pmf(values)


def stationary_pmf_geometric(
    model: DiscreteBurstModel,
    n_max: int,
    *,
    tail_tol: float | None = 1e-8,
) -> Pmf:
    """Stationary pmf via the geometric-burst ratio form.

    For geometric bursts the tail-sum recurrence telescopes to

        p(n+1) / p(n) = (rate(n) + b * decay(n)) / decay(n+1),

    so the law is a running product, accumulated here in log scale with
    compensated summation.
    """
    if not isinstance(model.burst_size, GeometricBurst):
        raise ModelError("stationary_pmf_geometric needs a geometric burst-size law")
    if n_max < 1:
        raise ModelError("stationary_pmf_geometric: n_max must be >= 1")
    _reject_divergent_linear(model)
    b = model.burst_size.b
    lam, gam = _rate_arrays(model, n_max)
    log_ratio = np.log(lam[:-1] + b * gam[:-1]) - np.log(gam[1:])

    # compensated running sum keeps the products honest over long ranges
    log_w = np.zeros(n_max + 1)
    acc = 0.0
    comp = 0.0
    for i, term in enumerate(log_ratio.tolist()):
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        log_w[i + 1] = acc

    peak = float(np.max(log_w))
    w = np.exp(log_w - peak)
    total = float(math.fsum(w.tolist()))
    values = w / total
    log_values = log_w - peak - math.log(total)
    _check_tail(values, tail_tol)
    return Pmf(values, log_values)


# ---------------------------------------------------------------------------
# named stationary families (geometric bursts, first-order decay)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NegativeBinomialFamily:
    """p(n) = (shape)_n / n! * success^n * (1-success)^shape."""

    success: float
    shape: float

    def pmf(self, n_max: int) -> np.ndarray:
        out = np.empty(n_max + 1)
        out[0] = (1.0 - self.success) ** self.shape
        for n in range(n_max):
            out[n + 1] = out[n] * self.success * (self.shape + n) / (n + 1)
        return out


@dataclass(frozen=True)
class HypergeometricFamily:
    """p(n) proportional to (a1)_n (a2)_n / (b1)_n * s^n / n!."""

    a1: float
    a2: float
    b1: float
    s: float

    def pmf(self, n_max: int) -> np.ndarray:
        out = np.empty(n_max + 1)
        out[0] = 1.0
        for n in range(n_max):
            out[n + 1] = out[n] * self.s * (self.a1 + n) * (self.a2 + n) / ((self.b1 + n) * (n + 1))
        return out / math.fsum(out.tolist())


@dataclass(frozen=True)
class GeneralizedHypergeometricFamily:
    """p(n) proportional to prod (a_i)_n / prod (b_j)_n * s^n / n!.

    Parameters may come in complex-conjugate pairs; the resulting mass
    function is real and positive, so the imaginary residue is dropped
    after the product.
    """

    upper: tuple[complex, ...]
    lower: tuple[complex, ...]
    s: float

    def pmf(self, n_max: int) -> np.ndarray:
        out = np.empty(n_max + 1, dtype=complex)
        out[0] = 1.0
        for n in range(n_max):
            num = np.prod([a + n for a in self.upper])
            den = np.prod([b + n for b in self.lower]) * (n + 1)
            out[n + 1] = out[n] * self.s * num / den
        real = out.real
        return real / math.fsum(real.tolist())


NamedFamily = Union[NegativeBinomialFamily, HypergeometricFamily,
                    GeneralizedHypergeometricFamily]


def named_family_params(model: DiscreteBurstModel) -> NamedFamily | None:
    """Recognize the closed-form stationary family of a geometric-burst model.

    Returns None when the model is outside the catalogued families.
    Raises NotNormalizable when the family exists formally but has no
    finite normalization (linear rate too steep).
    """
    if not isinstance(model.burst_size, GeometricBurst):
        return None
    if not isinstance(model.decay, LinearDecay):
        return None
    b = model.burst_size.b
    gamma = model.decay.rate
    rate = model.burst_rate

    if isinstance(rate, (ConstantRate, LinearRate)):
        lam0 = rate.level if isinstance(rate, ConstantRate) else rate.base
        lam1 = 0.0 if isinstance(rate, ConstantRate) else rate.slope
        success = (lam1 + b * gamma) / gamma
        if success >= 1.0:
            raise NotNormalizable(
                f"success parameter {success} >= 1: no negative-binomial normalization")
        return NegativeBinomialFamily(success=success, shape=lam0 / (b * gamma + lam1))

    if isinstance(rate, HillRate):
        n_exp = rate.exponent
        if abs(n_exp - round(n_exp)) > 1e-12:
            return None
        n_exp = int(round(n_exp))
        lam = rate.scale
        theta = rate.numer_coeff
        den0 = rate.denom_const
        den1 = rate.denom_coeff
        if n_exp == 1:
            b1 = den0 / den1
            alpha = den0 / den1 + lam * theta / (b * gamma * den1)
            disc = alpha * alpha - 4.0 * lam / (b * gamma * den1)
            if disc >= 0.0:
                root = math.sqrt(disc)
                return HypergeometricFamily(a1=0.5 * (alpha - root),
                                            a2=0.5 * (alpha + root),
                                            b1=b1, s=b)
            root = complex(0.0, math.sqrt(-disc))
            return GeneralizedHypergeometricFamily(
                upper=(0.5 * (alpha - root), 0.5 * (alpha + root)),
                lower=(complex(b1),), s=b)
        # higher integer exponents: factor the jump/decay balance polynomial
        #   b*gamma*den1 n^(N+1) + lam*theta n^N + b*gamma*den0 n + lam
        coeffs = np.zeros(n_exp + 2)
        coeffs[0] = b * gamma * den1
        coeffs[1] = lam * theta
        coeffs[-2] = b * gamma * den0
        coeffs[-1] = lam
        upper = tuple(-r for r in np.roots(coeffs))
        lower_poly = np.zeros(n_exp + 1)
        lower_poly[0] = 1.0
        lower_poly[-1] = den0 / den1
        lower = tuple(-r for r in np.roots(lower_poly))
        return GeneralizedHypergeometricFamily(upper=upper, lower=lower, s=b)

    return None


# ---------------------------------------------------------------------------
# balance checks
# ---------------------------------------------------------------------------

def mean_identity_residual(model: DiscreteBurstModel, pmf: Pmf) -> float:
    """|sum decay(n) p(n) - mean_burst * sum rate(n) p(n)|.

    Vanishes for an exact stationary law; grows with deliberate
    truncation, which makes it a useful convergence certificate.
    """
    values = np.asarray(pmf.values, dtype=float)
    lam, gam = _rate_arrays(model, len(values) - 1)
    lhs = math.fsum((gam * values).tolist())
    rhs = model.burst_size.mean() * math.fsum((lam * values).tolist())
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# truncated master equation
# ---------------------------------------------------------------------------

# dense generators above this many states cost seconds and hundreds of MiB
_MAX_MASTER_CAP = 2048


def master_rhs_truncated(model: DiscreteBurstModel, p: np.ndarray | Pmf) -> np.ndarray:
    """Right-hand side G p of the master equation truncated at the top index.

    p'_n = J_n - J_(n-1), with J_(-1) = J_cap = 0 and J_n the net flux
    down across the cut n | n+1,
        J_n = decay(n+1) p(n+1) - sum_{k<=n} tail(n-k) rate(k) p(k).
    So bursts past the cap land on it, a burst fired at the cap goes
    nowhere, and the telescoping sum conserves probability.  O(n K) for
    a vector; a matrix is taken column by column, so G = G I.
    """
    values = np.asarray(getattr(p, "values", p), dtype=float)
    cap = len(values) - 1
    if cap < 2:
        raise ModelError("master_rhs_truncated: need at least 3 states")
    lam, gam = _rate_arrays(model, cap)
    if values.ndim == 2:
        lam, gam = lam[:, None], gam[:, None]
    rhs = np.multiply(gam, values)
    flux = np.multiply(lam, values)     # rate * p, then its tail sums, then J
    carry, band = _tail_recurrence(model.burst_size)
    for n in range(cap, 0, -1):         # top down: rows below n still hold rate * p
        for m in range(1, min(len(band), n + 1)):
            flux[n] += band[m] * flux[n - m]
    if carry:
        for n in range(1, cap + 1):
            flux[n] += carry * flux[n - 1]
    np.subtract(rhs[1:], flux[:-1], out=flux[:-1])
    flux[-1] = 0.0
    rhs[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=rhs[1:])
    return rhs


# entries below sqrt(tiny) are dropped from the squared propagator: the
# product of two kept entries is a normal float, so no matmul runs on
# subnormals, which BLAS multiplies several times slower
_DROP = math.sqrt(np.finfo(float).tiny)

# the squarings stop once _mixing_bound falls below this
_MIXED = 1e-15


def _mixing_bound(p: np.ndarray) -> float:
    """1 - sum_i min_j p_ij, an upper bound on the Dobrushin coefficient
    tau(p) = 1/2 max_{j,k} |p e_j - p e_k|_1 of a column-stochastic p
    (Seneta, Non-negative Matrices and Markov Chains, ch. 3)."""
    return 1.0 - float(p.min(axis=1).sum())


def _propagator(gen: np.ndarray, dt: float) -> tuple[np.ndarray, int]:
    """exp(dt G) for a generator with zero column sums, and the number of
    squarings it took.

    expm runs on dt G / 2^h, whose 1-norm is below one, so it neither
    copies nor scales it, and the result is squared up to h times here
    with its columns renormalized to unit mass after each squaring.
    With G, at most six n x n arrays are live: G, dt G, and expm's a^2,
    a^3, sum and spare.  Squaring a stochastic matrix doubles any
    rounding error in its unit eigenvalue; over the ~1000 squarings of a
    horizon like 1e300 that error would under- or overflow, while the
    renormalized squares settle on the stationary law.

    The squarings stop once _mixing_bound(P) < _MIXED.  Every later
    square is P times a stochastic matrix, so each of its columns is a
    mix of P's columns, which lie within 2 _MIXED of each other in L1:
    the squarings left out move no column by more than that, and a long
    horizon costs a dozen or two squarings, not a thousand.

    Entries with |p| < _DROP (about 1.5e-154) are set to zero in the
    expm result and after each renormalized squaring.  Each drop takes
    less than (n + 1) _DROP of mass from a column of n + 1 states, and a
    column-stochastic squaring at most doubles an L1 perturbation, so
    after h squarings the columns differ from the undropped ones by at
    most 2^(h + 1) (n + 1) _DROP, about 1e-138 of the 2^h n eps that
    rounding already allows.
    """
    with np.errstate(over="ignore"):       # an infinite norm raises in expm
        a = dt * gen
        halvings = max(0, math.frexp(float(np.linalg.norm(a, 1)))[1])
        p = expm(np.ldexp(a, -halvings, out=a))
    # each mask is read off the buffer that is dead until the next swap
    spare = np.empty_like(p)
    p[np.abs(p, out=spare) < _DROP] = 0.0
    for squarings in range(1, halvings + 1):
        np.matmul(p, p, out=spare)
        spare /= spare.sum(axis=0)
        spare[np.abs(spare, out=p) < _DROP] = 0.0
        p, spare = spare, p
        if _mixing_bound(p) < _MIXED:
            return p, squarings
    return p, halvings


@dataclass(frozen=True, eq=False)
class MasterTrace:
    """Snapshots of the truncated master equation plus distance to stationarity."""

    times: np.ndarray
    pmfs: list
    l1_to_stationary: np.ndarray
    stationary: Pmf
    squarings: int      # renormalized squarings over all propagators formed


def evolve_master(
    model: DiscreteBurstModel,
    v0: np.ndarray | Pmf,
    t_end: float,
    *,
    snapshot_times: Sequence[float] | None = None,
    n_snapshots: int = 25,
) -> MasterTrace:
    """Propagate the truncated master equation exactly and trace L1 decay.

    The truncated generator G is constant, so p(t + dt) = exp(dt G) p(t).
    Evenly spaced snapshots t_end (i + 1) / n_snapshots form one
    propagator exp((t_end / n_snapshots) G) and apply it n_snapshots
    times; explicit ``snapshot_times`` (t_end is always added) form one
    per gap.  G is dense, so the cap is limited to 2048 states.  The
    stationary reference is G's null vector: the law on the same
    truncated support with zero flux across every cut (tail check off).
    """
    values = np.asarray(getattr(v0, "values", v0), dtype=float)
    cap = len(values) - 1
    if cap < 2:
        raise ModelError("evolve_master: need at least 3 states")
    if cap > _MAX_MASTER_CAP:
        raise ModelError(f"evolve_master: n_max {cap} exceeds {_MAX_MASTER_CAP}; "
                         "the dense generator would not fit")
    if t_end <= 0:
        raise ModelError("evolve_master: t_end must be > 0")
    gen = master_rhs_truncated(model, np.eye(cap + 1))

    if snapshot_times is None:
        if n_snapshots < 1:
            raise ModelError("evolve_master: n_snapshots must be >= 1")
        times = [t_end * (i + 1) / n_snapshots for i in range(n_snapshots)]
        dts = [t_end / n_snapshots]
    else:
        times = sorted({float(s) for s in snapshot_times if 0.0 < s <= t_end})
        if not times or times[-1] < t_end:
            times.append(float(t_end))
        dts = np.diff(times, prepend=0.0)

    pmfs, squarings = [], 0
    for i in range(len(times)):
        if i < len(dts):        # even snapshots reuse their one propagator
            step, count = _propagator(gen, dts[i])
            squarings += count
        values = step @ values
        pmfs.append(Pmf(values))

    stationary = stationary_pmf_general(model, cap, tail_tol=None)
    dists = np.array([l1_distance(p.values, stationary.values) for p in pmfs])
    return MasterTrace(np.array(times), pmfs, dists, stationary, squarings)


# ---------------------------------------------------------------------------
# jump-chain simulation
# ---------------------------------------------------------------------------

_RATE_BLOCK = 256   # states the jump chain's rate lists grow by at a time


def _grow_rates(model: DiscreteBurstModel, n: int, pdec: list, total: list) -> None:
    """Extend the per-state lists pdec = decay/(rate+decay) and total =
    rate+decay past state n, in one vectorized block of Python floats."""
    lo = len(total)
    hi = max(n + 1, lo + _RATE_BLOCK)
    if isinstance(model.decay, TabulatedDecay):
        # prefetch no further than the table; reaching past it still raises
        hi = max(n + 1, min(hi, len(model.decay.table)))
    idx = np.arange(lo, hi)
    lam = np.asarray(model.burst_rate.value(idx), float)
    gam = np.asarray(model.decay.value(idx), float)
    rate = lam + gam
    total.extend(rate.tolist())
    pdec.extend((gam / rate).tolist())


def _unit_waits(u: np.ndarray) -> np.ndarray:
    """The unit exponentials of a block's holding times."""
    return -np.log1p(-u[:, 0])


@dataclass(frozen=True, eq=False)
class JumpChainResult:
    """Time-weighted occupancy of a jump chain.

    A run keeps the occupancy, the clock, n0, the jump count, and the
    seed and stream that fix its draws; the path itself is not kept.
    """

    occupancy: Pmf             # holding-time-weighted state frequencies
    total_time: float
    n0: int
    n_jumps: int
    seed: int
    stream: int

    # perfbench/tracing.py counts the chain's jumps as len(wait_draws)
    @cached_property
    def wait_draws(self) -> np.ndarray:
        """Unit exponentials driving the holding times."""
        waits = np.empty(self.n_jumps)
        c0 = 0
        for u in uniform_blocks(self.seed, self.stream, self.n_jumps, 3):
            waits[c0:c0 + len(u)] = _unit_waits(u)
            c0 += len(u)
        return waits


def simulate_jump_chain(
    model: DiscreteBurstModel,
    n0: int,
    n_jumps: int,
    seed: int,
    *,
    stream: int = 0,
) -> JumpChainResult:
    """Simulate the embedded jump chain for n_jumps events.

    At state n the next event fires after eps/(rate+decay) with eps a
    unit exponential; it is a degradation with probability
    decay/(rate+decay), otherwise the state gains a sampled burst.  The
    occupancy estimate weights each visited state by its realized
    holding time.  Every state has a positive total rate (rate(0) > 0
    and decay(n) > 0 for n >= 1), so the chain always takes n_jumps.

    Jump k reads row k of uniform_blocks(seed, stream, n_jumps, 3): the
    wait, the decision and the burst size, whether or not it bursts.  So
    a block's waits and sizes are formed in numpy, and the Python loop
    does only what depends on the state: at state n, a decision below
    decay/(rate+decay) of n is a degradation, any other a burst.  The
    per-state rate lists grow on a burst past their end, the only way n
    rises, so a path that enters a state past a decay table raises
    there.  Each block is folded into the occupancy and the clock as
    soon as it is drawn, so memory stays a few hundred KiB however long
    the chain.
    """
    if n0 < 0:
        raise ModelError("simulate_jump_chain: n0 must be >= 0")
    if n_jumps < 1:
        raise ModelError("simulate_jump_chain: need at least one jump")
    size_at = model.burst_size.size_at
    pdec: list = []     # decay/(rate+decay) per state
    total: list = []    # rate+decay per state
    _grow_rates(model, n0, pdec, total)
    n_cached = len(pdec)
    n = int(n0)

    # holding times summed per state and along the path in the order the
    # jumps were taken.  The running totals go first: bincount adds each
    # state's weights in order from 0.0, and 0.0 + x is x; cumsum adds in
    # order, so the clock carried in front of a block continues its sum
    occupancy = rates = np.zeros(0)
    t = 0.0
    for u in uniform_blocks(seed, stream, n_jumps, 3):
        leaving: list = []      # the state each jump leaves
        append = leaving.append
        for d, size in zip(u[:, 1].tolist(), size_at(u[:, 2]).tolist()):
            append(n)
            if d < pdec[n]:
                n -= 1
            else:
                n += size
                if n >= n_cached:
                    _grow_rates(model, n, pdec, total)
                    n_cached = len(pdec)
        if len(rates) < len(total):
            rates = np.array(total)
        left = np.array(leaving, dtype=np.int64)
        clock = np.empty(len(u) + 1)
        clock[0] = t
        dts = clock[1:]
        # eps/(rate+decay) of each state left; mode="clip" stops take from
        # buffering a copy of its output
        np.take(rates, left, out=dts, mode="clip")
        np.divide(_unit_waits(u), dts, out=dts)
        occupancy = np.bincount(np.concatenate((np.arange(len(occupancy)), left)),
                                weights=np.concatenate((occupancy, dts)))
        np.cumsum(clock, out=clock)
        t = float(clock[-1])

    hi = int(np.max(np.nonzero(occupancy)[0])) if np.any(occupancy > 0) else 0
    occ = occupancy[: hi + 1]
    occ_pmf = Pmf(occ / t if t > 0 else occ)
    return JumpChainResult(occ_pmf, t, int(n0), int(n_jumps), seed, stream)


# ---------------------------------------------------------------------------
# mode census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeReportDiscrete:
    """Sign pattern of the stationary ratio drift rate(n) + b*decay(n) - decay(n+1)."""

    sign_changes: tuple[int, ...]
    maxima: tuple[int, ...]
    boundary_mode: bool


def count_modes_discrete(model: DiscreteBurstModel, n_max: int) -> ModeReportDiscrete:
    """Locate stationary-pmf modes without computing the pmf.

    With geometric bursts the pmf ratio p(n+1)/p(n) crosses 1 exactly
    where s(n) = rate(n) + b*decay(n) - decay(n+1) crosses 0, so each
    strict + to - change of s marks an interior maximum.  Exact zeros
    (plateaus) are skipped until a strict sign settles the direction,
    which counts a flat top once, at its last index.  A mode sits at the
    boundary iff rate(0) < decay(1).
    """
    if not isinstance(model.burst_size, GeometricBurst):
        raise ModelError("count_modes_discrete needs a geometric burst-size law")
    if n_max < 1:
        raise ModelError("count_modes_discrete: n_max must be >= 1")
    b = model.burst_size.b
    lam, gam = _rate_arrays(model, n_max)
    s = lam[:-1] + b * gam[:-1] - gam[1:]

    sign_changes: list[int] = []
    maxima: list[int] = []
    prev = 0
    for n, v in enumerate(s.tolist()):
        cur = (v > 0) - (v < 0)
        if cur == 0:
            continue
        if prev != 0 and cur != prev:
            sign_changes.append(n)
            if prev > 0:
                maxima.append(n)
        prev = cur

    boundary = float(lam[0]) < float(gam[1])
    return ModeReportDiscrete(tuple(sign_changes), tuple(maxima), boundary)
