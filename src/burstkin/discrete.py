"""Discrete bursty birth-death kinetics on copy numbers.

The state n = 0, 1, 2, ... jumps up by a whole burst of size k >= 1 at
rate burst_rate(n) * P(K = k) and down by one unit at rate decay(n).
The stationary law solves a one-sided recurrence driven by the burst
tail sums; with geometric bursts the recurrence collapses to a pure
ratio form, which is what makes the named closed-form family drop out.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ModelError,
    NotNormalizable,
    NumericError,
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
from . import numerics
from .numerics import _sign_changes, expm, l1_distance, make_rng, uniform_blocks

# perfbench/baseline.py saves, patches and restores this attribute around
# evolve_master; nothing in burstkin reads it
integrate_adaptive = None

__all__ = [
    "Pmf",
    "stationary_pmf_general",
    "stationary_pmf_geometric",
    "HypergeometricFamily",
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
    """Fast analytic screen: a linear rate that outruns decay has no
    stationary law.  Far up, the drift per unit of n is slope E[K] - decay,
    under any burst-size law."""
    if isinstance(model.burst_rate, LinearRate) and isinstance(model.decay, LinearDecay):
        gap = model.decay.rate / model.burst_size.mean()
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


def _tail_sum_law(model: DiscreteBurstModel, caps, tail_tol: float | None) -> np.ndarray:
    """pi(0..cap) at the first of the increasing ``caps`` whose top 5% holds
    under ``tail_tol``, TailNotConverged past the last.  One run of the
    tail-sum recurrence, decay(n+1) p(n+1) = sum_{k<=n} tail(n-k) rate(k)
    p(k), the vanishing net flux down across each cut n | n+1, from p(0) = 1
    in O(cap K), resumed from cap to cap.  Once w passes 2^930 over the
    largest rate up to its index, the state is shifted down by a power of
    two before rate * w can overflow, and earlier w at each cap: exactly,
    so no bit moves unless an entry leaves the normal range, and pi at a
    cap is what a run to that cap alone gives.
    """
    carry, band = _tail_recurrence(model.burst_size)
    w, lw, s = [1.0], [], 0.0       # lw: rate(k) * w(k), in the same scale as w
    drop = [0]                      # the shift made at each index
    for cap in caps:
        lam, gam = _rate_arrays(model, cap)
        # every rate up to index n is below 2^tops[n]
        tops = np.frexp(np.maximum.accumulate(np.maximum(lam, 1.0)))[1].tolist()
        lam, gam = lam.tolist(), gam.tolist()
        if not lw:
            lw.append(lam[0])
        for n in range(len(w) - 1, cap):
            s = carry * s + sum(map(operator.mul, band, lw[:-len(band) - 1:-1]))
            w.append(s / gam[n + 1])
            lw.append(lam[n + 1] * w[-1])
            drop.append(0)
            if w[-1] > math.ldexp(1.0, 930 - tops[n + 1]):  # to w < 2^-top: each rate * w < 1
                e = drop[-1] = math.frexp(w[-1])[1] + tops[n + 1]
                w[-1], s = math.ldexp(w[-1], -e), math.ldexp(s, -e)
                lw[-len(band):] = ([math.ldexp(v, -e) for v in lw[-len(band):-1]]
                                   + [lam[n + 1] * w[-1]])
        shifts = np.cumsum(drop)
        scaled = np.ldexp(w, shifts - shifts[-1])
        total = math.fsum(scaled.tolist())
        if not (total > 0.0) or not math.isfinite(total):
            raise NotNormalizable("stationary recurrence produced no usable mass")
        try:
            _check_tail(scaled / total, tail_tol)
            return scaled / total
        except TailNotConverged:
            if cap == caps[-1]:
                raise


def stationary_pmf_general(
    model: DiscreteBurstModel,
    n_max: int,
    *,
    tail_tol: float | None = 1e-8,
) -> Pmf:
    """Stationary pmf via the tail-sum recurrence (_tail_sum_law), any burst-size law.

    Set ``tail_tol=None`` to skip the truncation-quality check (used
    deliberately when studying truncation error itself).
    """
    if n_max < 1:
        raise ModelError("stationary_pmf_general: n_max must be >= 1")
    _reject_divergent_linear(model)
    return Pmf(_tail_sum_law(model, [n_max], tail_tol))


def _ratio_terms(model: DiscreteBurstModel, n_max: int, caller: str):
    """rate(n) + b decay(n) over decay(n+1), n < n_max: the geometric-burst p(n+1) / p(n)."""
    if not isinstance(model.burst_size, GeometricBurst):
        raise ModelError(f"{caller} needs a geometric burst-size law")
    if n_max < 1:
        raise ModelError(f"{caller}: n_max must be >= 1")
    lam, gam = _rate_arrays(model, n_max)
    return lam[:-1] + model.burst_size.b * gam[:-1], gam[1:]


def _law_from_log_ratio(log_ratio: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(n) proportional to exp(sum_{k<n} log_ratio[k]), as (values,
    log_values).  The running sum is compensated, which keeps the products
    honest over long ranges, and no term leaves log scale unscaled."""
    log_w = np.zeros(len(log_ratio) + 1)
    acc = comp = 0.0
    for i, term in enumerate(log_ratio.tolist()):
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        log_w[i + 1] = acc
    peak = float(np.max(log_w))
    w = np.exp(log_w - peak)
    total = float(math.fsum(w.tolist()))
    return w / total, log_w - peak - math.log(total)


def stationary_pmf_geometric(
    model: DiscreteBurstModel,
    n_max: int,
    *,
    tail_tol: float | None = 1e-8,
) -> Pmf:
    """Stationary pmf via the geometric-burst ratio form.

    For geometric bursts the tail-sum recurrence telescopes to

        p(n+1) / p(n) = (rate(n) + b * decay(n)) / decay(n+1),

    so the law is a running product, accumulated in log scale.
    """
    up, down = _ratio_terms(model, n_max, "stationary_pmf_geometric")
    _reject_divergent_linear(model)
    values, log_values = _law_from_log_ratio(np.log(up) - np.log(down))
    _check_tail(values, tail_tol)
    return Pmf(values, log_values)


# ---------------------------------------------------------------------------
# the named stationary family (geometric bursts, first-order decay)
# ---------------------------------------------------------------------------

def _log_factors(params: tuple, k: np.ndarray) -> np.ndarray:
    """sum_i ln|a_i + k|, in real arithmetic for complex-conjugate pairs too."""
    return sum((np.log(np.hypot(k + a.real, a.imag)) for a in params), np.zeros(len(k)))


@dataclass(frozen=True)
class HypergeometricFamily:
    """p(n) proportional to prod (a_i)_n / prod (b_j)_n * s^n / n!, the pFq law
    with the a_i in ``upper`` and the b_j in ``lower``, complex ones in
    conjugate pairs.  The negative binomial is ((shape,), (), success)."""

    upper: tuple
    lower: tuple
    s: float

    @property
    def label(self) -> str:
        return f"{len(self.upper)}F{len(self.lower)}"

    def pmf(self, n_max: int) -> np.ndarray:
        """The law on 0..n_max, normalized there."""
        k = np.arange(n_max, dtype=float)
        return _law_from_log_ratio(math.log(self.s) + _log_factors(self.upper, k)
                                   - _log_factors(self.lower, k) - np.log1p(k))[0]


def _negated_roots(poly: np.ndarray) -> tuple | None:
    """The a_i with poly(n) = poly[0] prod_i (n + a_i), or None where they
    miss poly, evaluated directly, by more than 1e-12 in ln at 0 or at the
    integers next to a root, where a root error moves its factor most."""
    if not np.all(np.isfinite(poly)):
        return None
    params = tuple((-np.roots(poly)).tolist())
    near = np.array([-a.real for a in params if a.real < 0.0])
    k = np.concatenate(([0.0], np.floor(near), np.ceil(near)))
    with np.errstate(all="ignore"):     # an overflow or a zero lead fails the test
        residual = np.log(poly[0]) + _log_factors(params, k) - np.log(np.polyval(poly, k))
    return params if np.max(np.abs(residual)) <= 1e-12 else None


# the highest Hill exponent handed to np.roots: its companion eigenproblem
# costs O(N^3), 4.5 ms at N = 64 (about the general recurrence at n_max
# 2000) against 61 ms at 128 and 5.8 s at 1000
_MAX_FAMILY_DEGREE = 64


def named_family_params(model: DiscreteBurstModel) -> HypergeometricFamily | None:
    """Recognize the closed-form stationary family of a geometric-burst model.

    With decay gamma n, a rate R(n) / D(n) (constant, linear, or Hill with
    an integer exponent) makes p(n+1) / p(n) = P(n) / (gamma (n+1) D(n)),
    P(n) = R(n) + b gamma n D(n): the pFq law with upper = -roots(P),
    lower = -roots(D) and s = lead(P) / (gamma lead(D)).  Returns None for
    other models and where the roots miss P or D.  A linear rate too steep
    (s >= 1) raises NotNormalizable, by the stationary routes' own screen.
    A Hill exponent above _MAX_FAMILY_DEGREE is declined before any root
    is sought.
    """
    if not (isinstance(model.burst_size, GeometricBurst)
            and isinstance(model.decay, LinearDecay)):
        return None
    _reject_divergent_linear(model)
    rate, gamma = model.burst_rate, model.decay.rate
    if isinstance(rate, ConstantRate):     # coefficients from the highest power down
        num, den = np.array([rate.level]), np.ones(1)
    elif isinstance(rate, LinearRate):
        num, den = np.array([rate.slope, rate.base]), np.ones(1)
    elif (isinstance(rate, HillRate) and float(rate.exponent).is_integer()
          and rate.exponent <= _MAX_FAMILY_DEGREE):
        num, den = np.zeros((2, int(rate.exponent) + 1))
        num[[0, -1]] = rate.scale * rate.numer_coeff, rate.scale
        den[[0, -1]] = rate.denom_coeff, rate.denom_const
    else:
        return None
    poly = np.append(model.burst_size.b * gamma * den, 0.0)
    poly[-len(num):] += num
    upper, lower = _negated_roots(poly), _negated_roots(den)
    if upper is None or lower is None:
        return None
    return HypergeometricFamily(upper, lower, float(poly[0] / (gamma * den[0])))


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
    squarings it took.  G itself is scaled in place to dt G / 2^h.

    expm runs on dt G / 2^h, whose 1-norm is below one, and the result is
    squared up to h times here with its columns renormalized to unit mass
    after each squaring.  At most four n x n arrays are live: dt G / 2^h,
    and expm's a^2, a^3 and sum, plus its buffer of ceil(n/4) rows.
    Squaring a stochastic matrix doubles any rounding error in its unit
    eigenvalue; over the ~1000 squarings of a horizon like 1e300 that
    error would under- or overflow, while the renormalized squares
    settle on the stationary law.

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
        a = np.multiply(gen, dt, out=gen)
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
    squarings: int      # renormalized squarings of the accepted propagator
    solved_states: int  # k + 1 on a projection with its sink at k, else cap + 1
    # an upper bound on the cap-truncated chain's mass at its cap over the
    # snapshots: the sink's final mass, or the largest cap entry if solved there
    max_cap_mass: float


# a projection is kept once its sink holds at most this mass at t_end
_FSP_TOL = 1e-14


def _first_sink(values: np.ndarray, stationary: np.ndarray, decay: np.ndarray,
                t_end: float) -> int:
    """The first sink index k above v0's support at which the stationary
    law's mass from k up, and its flux up into k over the horizon,
    t_end decay(k) pi(k), both fall below _FSP_TOL / 4; the cap if none.
    Zero net flux across every cut makes the flux up the decay flux down."""
    with np.errstate(over="ignore", invalid="ignore"):  # t_end near the float limit
        flux = decay * stationary * t_end
    quiet = (flux < _FSP_TOL / 4) & (np.cumsum(stationary[::-1])[::-1] < _FSP_TOL / 4)
    quiet[:max(2, len(np.trim_zeros(values, "b")))] = False   # G needs 3 states
    return int(np.argmax(quiet)) if quiet.any() else len(values) - 1


def _snapshot_values(model: DiscreteBurstModel, values: np.ndarray, dt: float,
                     n_snapshots: int, sink: bool) -> tuple[list, int]:
    """v0 stepped n_snapshots times by exp(dt G) on len(values) states, the
    top one absorbing if ``sink``, and the propagator's squarings."""
    gen = master_rhs_truncated(model, np.eye(len(values)))
    if sink:
        gen[:, -1] = 0.0
    step, squarings = _propagator(gen, dt)
    snaps = []
    for _ in range(n_snapshots):
        values = step @ values
        snaps.append(values)
    return snaps, squarings


def evolve_master(
    model: DiscreteBurstModel,
    v0: np.ndarray | Pmf,
    t_end: float,
    *,
    n_snapshots: int = 25,
) -> MasterTrace:
    """Propagate the truncated master equation exactly and trace L1 decay.

    The truncated generator G is constant, so the snapshots at
    t_end (i + 1) / n_snapshots take one propagator
    exp((t_end / n_snapshots) G), applied n_snapshots times; it scales G
    in place.  G is dense, so the cap is limited to 2048 states.  The
    stationary reference is G's null vector: the law on the same
    truncated support with zero flux across every cut (tail check off).

    The solve runs on a finite-state projection (Munsky & Khammash,
    J. Chem. Phys. 124, 044104, 2006): states 0..k-1 and a sink k that
    absorbs every burst landing at or above it, k from _first_sink.  The
    cap-truncated chain and the projected one agree until the chain first
    reaches k, so each snapshot, padded with zeros to the cap, lies
    within the sink's mass of the cap's, in L1.  The sink only fills: a
    projection is kept when it holds at most _FSP_TOL at t_end, otherwise
    k doubles, and from k >= cap the cap itself is solved, without a sink.
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
    if n_snapshots < 1:
        raise ModelError("evolve_master: n_snapshots must be >= 1")
    stationary = stationary_pmf_general(model, cap, tail_tol=None).values
    dt = t_end / n_snapshots
    k = _first_sink(values, stationary, _rate_arrays(model, cap)[1], t_end)
    while k < cap:
        snaps, squarings = _snapshot_values(model, values[:k + 1], dt, n_snapshots, True)
        cap_mass = float(snaps[-1][-1])     # the sink's, a bound on the cap's
        if cap_mass <= _FSP_TOL:
            pmfs = [Pmf(np.concatenate((v[:k], np.zeros(cap + 1 - k)))) for v in snaps]
            break
        k *= 2
    else:
        k = cap
        snaps, squarings = _snapshot_values(model, values, dt, n_snapshots, False)
        pmfs = [Pmf(v) for v in snaps]
        cap_mass = max(float(v[-1]) for v in snaps)
    dists = np.array([l1_distance(p.values, stationary) for p in pmfs])
    times = np.array([t_end * (i + 1) / n_snapshots for i in range(n_snapshots)])
    return MasterTrace(times, pmfs, dists, squarings, k + 1, cap_mass)


# ---------------------------------------------------------------------------
# jump-chain simulation
# ---------------------------------------------------------------------------

_LANES = 1024       # replicas of the jump chain advanced together
_RATE_BLOCK = 256   # states the jump chain's rate arrays grow by at a time
# the start law's first cap, its bound on pi's top 5%, and its last cap
_START_CAP, _START_TAIL, _START_CAP_MAX = 64, 1e-12, 1 << 16


def _grow_rates(model: DiscreteBurstModel, n: int, pdec: np.ndarray,
                total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-state arrays pdec = decay/(rate+decay) and total =
    rate+decay, extended past state n by at least _RATE_BLOCK states."""
    lo = len(total)
    hi = max(n + 1, lo + _RATE_BLOCK)
    if isinstance(model.decay, TabulatedDecay):
        # prefetch no further than the table; reaching past it still raises
        hi = max(n + 1, min(hi, len(model.decay.table)))
    idx = np.arange(lo, hi)
    lam = np.asarray(model.burst_rate.value(idx), float)
    gam = np.asarray(model.decay.value(idx), float)
    rate = lam + gam
    return np.concatenate((pdec, gam / rate)), np.concatenate((total, rate))


def _jump_epoch_law(model: DiscreteBurstModel) -> np.ndarray | None:
    """The stationary law at jump epochs, pi(n) (rate(n) + decay(n)) up
    to its last positive state, unnormalized; None where
    stationary_pmf_general refuses the model.

    pi's cap doubles from _START_CAP until its top 5% holds under
    _START_TAIL, up to _START_CAP_MAX and never past a decay table, in
    one recurrence (_tail_sum_law) resumed from cap to cap.
    """
    top = _START_CAP_MAX
    if isinstance(model.decay, TabulatedDecay):
        top = min(top, len(model.decay.table) - 1)
    caps = sorted({min(_START_CAP << k, top) for k in range(top.bit_length())})
    try:
        _reject_divergent_linear(model)
        pi = _tail_sum_law(model, caps, _START_TAIL)
    except NumericError:
        return None
    lam, gam = _rate_arrays(model, len(pi) - 1)
    law = pi * (lam + gam)
    return law[: np.flatnonzero(law)[-1] + 1]


def _unit_waits(u: np.ndarray) -> np.ndarray:
    """The unit exponentials of a block's holding times."""
    return -np.log1p(-u[:, 0])


@dataclass(frozen=True, eq=False)
class JumpChainResult:
    """Time-weighted occupancy of a jump chain, over all its lanes.

    A run keeps the occupancy, the clock, n0, how the lanes started
    (``start``: "stationary" or "n0"), the jump count, and the seed and
    stream that fix its draws; the paths themselves are not kept.
    """

    occupancy: Pmf             # holding-time-weighted state frequencies
    total_time: float          # the holding times summed over every lane
    n0: int
    start: str
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
    """Simulate the embedded jump chain for n_jumps events on
    R = min(_LANES, n_jumps) lanes, replicas advanced in lock step.

    At state n the next event fires after eps/(rate+decay), eps a unit
    exponential: a degradation with probability decay/(rate+decay),
    otherwise a sampled burst.  Each state a lane leaves is weighted by
    its holding time, summed over the lanes, and so is the clock.

    The lanes start from the stationary law at jump epochs, pi_J(n)
    proportional to pi(n) (rate(n) + decay(n)) (_jump_epoch_law): the
    embedded chain keeps pi_J, not pi, so no lane holds an initial
    transient.  Each lane reads one uniform of make_rng(seed,
    stream).spawn(1)[0], a stream apart from the jumps', through pi_J's
    inverse CDF.  Where stationary_pmf_general refuses the model every
    lane starts at n0, which is validated either way.

    Jump k = s R + r, step s of lane r, reads row k of
    uniform_blocks(seed, stream, n_jumps, 3): the wait, the decision and
    the burst size; the last step runs only the lanes it needs.  A step
    is a few numpy calls over the lanes.  The rate arrays grow past the
    highest state entered, so a lane that enters a state past a decay
    table raises there.  Blocks of whole steps are folded into the
    occupancy and the clock in jump order as they are drawn, so memory
    stays a few hundred KiB however long the chain.
    """
    if n0 < 0:
        raise ModelError("simulate_jump_chain: n0 must be >= 0")
    if n_jumps < 1:
        raise ModelError("simulate_jump_chain: need at least one jump")
    model.decay.value(n0)       # n0 must lie inside a decay table
    rng = make_rng(seed, stream)
    lanes = min(_LANES, n_jumps)
    law = _jump_epoch_law(model)
    if law is None:
        n = np.full(lanes, n0, dtype=np.int64)
    else:
        cdf = np.cumsum(law)
        u = rng.spawn(1)[0].random(lanes) * cdf[-1]
        n = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    pdec, total = _grow_rates(model, int(np.max(n)), np.zeros(0), np.zeros(0))
    size_at = model.burst_size.size_at

    # holding times summed per state and over the jumps in order k.  The
    # running totals go first: bincount adds each state's weights in order
    # from 0.0, and 0.0 + x is x; cumsum adds in order, so the clock
    # carried in front of a block continues its sum
    occupancy = np.zeros(0)
    t = 0.0
    block = lanes * max(1, numerics.PATH_CHUNK // lanes)
    for c0 in range(0, n_jumps, block):
        u = rng.random((min(block, n_jumps - c0), 3))
        left = np.empty(len(u), dtype=np.int64)     # the state each jump leaves
        steps = size_at(u[:, 2])                    # each jump's move
        for s0 in range(0, len(u), lanes):
            at = n[:len(u) - s0]                    # the lanes this step runs
            step = steps[s0:s0 + len(at)]
            left[s0:s0 + len(at)] = at
            step[u[s0:s0 + len(at), 1] < pdec[at]] = -1
            at += step
            top = int(at.max())
            if top >= len(pdec):
                pdec, total = _grow_rates(model, top, pdec, total)
        clock = np.empty(len(u) + 1)
        clock[0] = t
        dts = clock[1:]
        # eps/(rate+decay) of each state left; mode="clip" stops take from
        # buffering a copy of its output
        np.take(total, left, out=dts, mode="clip")
        np.divide(_unit_waits(u), dts, out=dts)
        occupancy = np.bincount(np.concatenate((np.arange(len(occupancy)), left)),
                                weights=np.concatenate((occupancy, dts)))
        np.cumsum(clock, out=clock)
        t = float(clock[-1])

    hi = int(np.max(np.nonzero(occupancy)[0])) if np.any(occupancy > 0) else 0
    occ = occupancy[: hi + 1]
    occ_pmf = Pmf(occ / t if t > 0 else occ)
    start = "n0" if law is None else "stationary"
    return JumpChainResult(occ_pmf, t, int(n0), start, int(n_jumps), seed, stream)


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
    up, down = _ratio_terms(model, n_max, "count_modes_discrete")
    s = up - down
    changes = _sign_changes(s)[1]
    maxima = changes[s[changes] < 0]
    return ModeReportDiscrete(tuple(changes.tolist()), tuple(maxima.tolist()),
                              float(up[0]) < float(down[0]))
