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
from dataclasses import dataclass
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
from .numerics import (
    StepperConfig,
    draw_unit_exponential,
    integrate_adaptive,
    l1_distance,
    make_rng,
)

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

    ``log_values`` is carried along when the computation ran in log
    scale; entries that underflow to zero in linear scale stay usable
    there.
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

def stationary_pmf_general(
    model: DiscreteBurstModel,
    n_max: int,
    *,
    tail_tol: float | None = 1e-8,
) -> Pmf:
    """Stationary pmf via the tail-sum recurrence, any burst-size law.

    Seeds p(0) = 1, builds
        p(n+1) = (1/decay(n+1)) * sum_k tail(n-k) * rate(k) * p(k)
    and normalizes at the end.  Interim values are rescaled against the
    running maximum so dynamic ranges beyond float range survive; the
    log-scale companion vector is kept on the result.

    Set ``tail_tol=None`` to skip the truncation-quality check (used
    deliberately when studying truncation error itself).
    """
    if n_max < 1:
        raise ModelError("stationary_pmf_general: n_max must be >= 1")
    _reject_divergent_linear(model)
    lam, gam = _rate_arrays(model, n_max + 1)
    tail = np.asarray(model.burst_size.tail(np.arange(n_max + 1)), dtype=float)

    w = np.zeros(n_max + 1)
    w[0] = 1.0
    lw = np.zeros(n_max + 1)   # rate(k) * w(k), kept in the same scale as w
    lw[0] = lam[0]
    log_shift = 0.0
    for n in range(n_max):
        s = float(np.dot(lw[: n + 1], tail[n::-1]))
        w[n + 1] = s / gam[n + 1]
        lw[n + 1] = lam[n + 1] * w[n + 1]
        peak = w[n + 1]
        if peak > 1e280:   # rescale against the running maximum
            w[: n + 2] /= peak
            lw[: n + 2] /= peak
            log_shift += math.log(peak)

    total = float(math.fsum(w.tolist()))
    if not (total > 0.0) or not math.isfinite(total):
        raise NotNormalizable("stationary recurrence produced no usable mass")
    values = w / total
    with np.errstate(divide="ignore"):
        log_values = np.where(w > 0, np.log(np.maximum(w, 1e-320)) - math.log(total), -np.inf)
    _check_tail(values, tail_tol)
    return Pmf(values, log_values)


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

def _truncated_arrays(model: DiscreteBurstModel, cap: int):
    lam, gam = _rate_arrays(model, cap)
    k = np.arange(cap + 1)
    h_vec = np.asarray(model.burst_size.pmf(k), dtype=float)
    h_vec[0] = 0.0
    tail_vec = np.asarray(model.burst_size.tail(np.arange(cap)), dtype=float)
    return lam, gam, h_vec, tail_vec


def master_rhs_truncated(model: DiscreteBurstModel, p: np.ndarray | Pmf) -> np.ndarray:
    """Right-hand side of the master equation truncated at the top index.

    Bursts that would overshoot the cap deposit their mass at the cap,
    so the truncated generator conserves probability exactly; a burst
    fired at the cap itself goes nowhere and is dropped from the loss
    term accordingly.
    """
    values = np.asarray(getattr(p, "values", p), dtype=float)
    cap = len(values) - 1
    if cap < 2:
        raise ModelError("master_rhs_truncated: need at least 3 states")
    lam, gam, h_vec, tail_vec = _truncated_arrays(model, cap)
    return _master_rhs(values, lam, gam, h_vec, tail_vec)


def _master_rhs(values, lam, gam, h_vec, tail_vec):
    cap = len(values) - 1
    lp = lam * values
    rhs = -gam * values
    rhs[:-1] += gam[1:] * values[1:]
    rhs[:cap] -= lp[:cap]
    conv = np.convolve(h_vec, lp)[: cap + 1]
    rhs[1:cap] += conv[1:cap]
    rhs[cap] += float(np.dot(lp[:cap], tail_vec[::-1]))
    return rhs


@dataclass(frozen=True, eq=False)
class MasterTrace:
    """Snapshots of the truncated master equation plus distance to stationarity."""

    times: np.ndarray
    pmfs: list
    l1_to_stationary: np.ndarray
    stationary: Pmf


def evolve_master(
    model: DiscreteBurstModel,
    v0: np.ndarray | Pmf,
    t_end: float,
    cfg: StepperConfig | None = None,
    *,
    snapshot_times: Sequence[float] | None = None,
    n_snapshots: int = 25,
    stationary: Pmf | None = None,
) -> MasterTrace:
    """Integrate the truncated master equation and trace L1 decay.

    The stationary reference is recomputed on the same truncated support
    (tail check off) unless one is supplied.
    """
    values = np.asarray(getattr(v0, "values", v0), dtype=float)
    cap = len(values) - 1
    if cap < 2:
        raise ModelError("evolve_master: need at least 3 states")
    if t_end <= 0:
        raise ModelError("evolve_master: t_end must be > 0")
    lam, gam, h_vec, tail_vec = _truncated_arrays(model, cap)

    def rhs(_t, y):
        return _master_rhs(y, lam, gam, h_vec, tail_vec)

    if snapshot_times is None:
        snapshot_times = [t_end * (i + 1) / n_snapshots for i in range(n_snapshots)]
    snaps = integrate_adaptive(rhs, values, t_end, cfg, snapshot_times=snapshot_times)

    if stationary is None:
        stationary = stationary_pmf_general(model, cap, tail_tol=None)
    times = np.array([t for t, _ in snaps])
    pmfs = [Pmf(y) for _, y in snaps]
    dists = np.array([l1_distance(p.values, stationary.values) for p in pmfs])
    return MasterTrace(times, pmfs, dists, stationary)


# ---------------------------------------------------------------------------
# jump-chain simulation
# ---------------------------------------------------------------------------

class _RateCache:
    """Vectorized block evaluation of the two rate laws, grown on demand."""

    def __init__(self, model: DiscreteBurstModel, block: int = 256):
        self.model = model
        self.block = block
        self.lam = np.empty(0)
        self.gam = np.empty(0)

    def ensure(self, n: int) -> None:
        if n < len(self.lam):
            return
        hi = max(n + 1, len(self.lam) + self.block)
        if isinstance(self.model.decay, TabulatedDecay):
            # prefetch no further than the table; reaching past it still raises
            hi = max(n + 1, min(hi, len(self.model.decay.table)))
        idx = np.arange(len(self.lam), hi)
        self.lam = np.concatenate([self.lam, np.asarray(self.model.burst_rate.value(idx), float)])
        self.gam = np.concatenate([self.gam, np.asarray(self.model.decay.value(idx), float)])


@dataclass(frozen=True, eq=False)
class JumpChainResult:
    """Embedded-chain sample path plus its time-weighted occupancy estimate."""

    times: np.ndarray          # t_0 = 0 and the jump epochs
    states: np.ndarray         # post-jump states, states[0] = n0
    wait_draws: np.ndarray     # unit exponentials driving the holding times
    burst_sizes: np.ndarray    # 0 marks a degradation step
    occupancy: Pmf             # holding-time-weighted state frequencies
    total_time: float


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
    """
    if n0 < 0:
        raise ModelError("simulate_jump_chain: n0 must be >= 0")
    rng = make_rng(seed, stream)
    cache = _RateCache(model)
    cache.ensure(n0 + 1)

    times = np.zeros(n_jumps + 1)
    states = np.zeros(n_jumps + 1, dtype=np.int64)
    waits = np.zeros(n_jumps)
    bursts = np.zeros(n_jumps, dtype=np.int64)
    occupancy = np.zeros(max(16, n0 + 1))

    n = int(n0)
    states[0] = n
    t = 0.0
    for k in range(n_jumps):
        cache.ensure(n)
        lam = cache.lam[n]
        gam = cache.gam[n]
        total = lam + gam
        eps = draw_unit_exponential(rng)
        dt = eps / total
        if n >= len(occupancy):
            occupancy = np.concatenate([occupancy, np.zeros(len(occupancy) + n)])
        occupancy[n] += dt
        t += dt
        if rng.random() < gam / total:
            n -= 1
        else:
            n += model.burst_size.sample(rng)
            bursts[k] = n - states[k]
        times[k + 1] = t
        states[k + 1] = n
        waits[k] = eps

    hi = int(np.max(np.nonzero(occupancy)[0])) if np.any(occupancy > 0) else 0
    occ = occupancy[: hi + 1]
    occ_pmf = Pmf(occ / t if t > 0 else occ)
    return JumpChainResult(times, states, waits, bursts, occ_pmf, t)


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
