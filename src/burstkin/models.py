"""Model building blocks for bursty production-degradation kinetics.

A model couples three ingredients: a burst-arrival rate law (how often
production events fire as a function of the current copy number or
concentration), a degradation law, and a burst-size law.  The discrete
model lives on counts n = 0, 1, 2, ...; the continuous model lives on
concentrations x > 0 and degrades along the deterministic flow between
jumps.

Every form is a small frozen dataclass that validates its parameters on
construction and evaluates vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Union

import numpy as np

from .errors import ModelError
from .numerics import draw_unit_exponential

__all__ = [
    "ConstantRate", "LinearRate", "QuadraticRate", "HillRate",
    "TruncatedLinearRate", "TabulatedRate",
    "LinearDecay", "TabulatedDecay",
    "GeometricBurst", "TabulatedBurst",
    "PowerTailNu", "GaussianExpNu", "FiniteSupportNu",
    "ExponentialBurstKernel", "SeparableBurstKernel",
    "DiscreteBurstModel", "ContinuousBurstModel",
]


def _ret(x, out):
    """Return a float for scalar input, an ndarray otherwise."""
    if np.ndim(x) == 0:
        return float(out)
    return out


def _check_finite(name: str, *vals: float) -> None:
    for v in vals:
        if not math.isfinite(v):
            raise ModelError(f"{name}: parameters must be finite, got {v!r}")


# ---------------------------------------------------------------------------
# burst-arrival rate laws (shared by the discrete and continuous models)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantRate:
    """Rate law that ignores the state entirely."""

    level: float

    def __post_init__(self):
        _check_finite("ConstantRate", self.level)
        if self.level < 0:
            raise ModelError(f"ConstantRate: level must be >= 0, got {self.level}")

    def value(self, x):
        out = np.full(np.shape(x), float(self.level))
        return _ret(x, out)


@dataclass(frozen=True)
class LinearRate:
    """base + slope * x with nonnegative coefficients."""

    base: float
    slope: float

    def __post_init__(self):
        _check_finite("LinearRate", self.base, self.slope)
        if self.base < 0 or self.slope < 0:
            raise ModelError("LinearRate: base and slope must be >= 0 "
                             "(use TruncatedLinearRate for a decreasing law)")

    def value(self, x):
        return _ret(x, self.base + self.slope * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class QuadraticRate:
    """base + slope * x + quad * x**2 (continuous model only)."""

    base: float
    slope: float
    quad: float

    def __post_init__(self):
        _check_finite("QuadraticRate", self.base, self.slope, self.quad)
        if self.base < 0 or self.slope < 0 or self.quad < 0:
            raise ModelError("QuadraticRate: coefficients must be >= 0")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return _ret(x, self.base + self.slope * x + self.quad * x * x)


@dataclass(frozen=True)
class HillRate:
    """Saturating feedback law scale * (1 + numer_coeff x^e) / (denom_const + denom_coeff x^e).

    Increasing (positive feedback) when numer_coeff * denom_const >
    denom_coeff, decreasing otherwise, constant at the balance point.
    """

    scale: float
    numer_coeff: float
    denom_const: float
    denom_coeff: float
    exponent: float

    def __post_init__(self):
        _check_finite("HillRate", self.scale, self.numer_coeff, self.denom_const,
                      self.denom_coeff, self.exponent)
        if self.scale <= 0:
            raise ModelError("HillRate: scale must be > 0")
        if self.numer_coeff < 0:
            raise ModelError("HillRate: numer_coeff must be >= 0")
        if self.denom_const <= 0 or self.denom_coeff <= 0:
            raise ModelError("HillRate: denominator coefficients must be > 0")
        if self.exponent <= 0:
            raise ModelError("HillRate: exponent must be > 0")

    def value(self, x):
        # in powers of x^-e above x = 1, so z stays in [0, 1] and never overflows
        x_arr = np.asarray(x, dtype=float)
        big = x_arr > 1.0
        z = x_arr ** np.where(big, -self.exponent, self.exponent)
        th, d0, d1 = self.numer_coeff, self.denom_const, self.denom_coeff
        out = self.scale * np.where(big, (z + th) / (d0 * z + d1), (1.0 + th * z) / (d0 + d1 * z))
        return _ret(x, out)


@dataclass(frozen=True)
class TruncatedLinearRate:
    """base + slope * n clamped at zero from the cutoff index onward."""

    base: float
    slope: float
    cutoff: float | None = None

    def __post_init__(self):
        _check_finite("TruncatedLinearRate", self.base, self.slope)
        if self.base <= 0:
            raise ModelError("TruncatedLinearRate: base must be > 0")
        if self.cutoff is None:
            if self.slope >= 0:
                raise ModelError("TruncatedLinearRate: slope must be < 0 "
                                 "when no explicit cutoff is given")
            object.__setattr__(self, "cutoff", -self.base / self.slope)
        elif self.cutoff < 0:
            raise ModelError("TruncatedLinearRate: cutoff must be >= 0")

    def value(self, x):
        x_arr = np.asarray(x, dtype=float)
        raw = self.base + self.slope * x_arr
        out = np.where(x_arr <= self.cutoff, np.maximum(raw, 0.0), 0.0)
        return _ret(x, out)


@dataclass(frozen=True)
class TabulatedRate:
    """Explicit rate table for n = 0 .. len-1; zero beyond the table."""

    table: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.table)
        if len(vals) == 0:
            raise ModelError("TabulatedRate: empty table")
        for v in vals:
            if not math.isfinite(v) or v < 0:
                raise ModelError(f"TabulatedRate: entries must be finite and >= 0, got {v}")
        object.__setattr__(self, "table", vals)

    def value(self, n):
        n_arr = np.asarray(n)
        idx = np.rint(n_arr).astype(int)
        if not np.all(np.abs(n_arr - idx) < 1e-9):
            raise ModelError("TabulatedRate: defined on integer states only")
        padded = np.asarray(self.table + (0.0,), dtype=float)
        out = padded[np.clip(idx, 0, len(self.table))]
        return _ret(n, out)


RateSeq = Union[ConstantRate, LinearRate, HillRate, TruncatedLinearRate, TabulatedRate]
RateFn = Union[ConstantRate, LinearRate, QuadraticRate, HillRate]


# ---------------------------------------------------------------------------
# degradation laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearDecay:
    """First-order decay: rate * state.  Vanishes at zero automatically."""

    rate: float

    def __post_init__(self):
        _check_finite("LinearDecay", self.rate)
        if self.rate <= 0:
            raise ModelError(f"LinearDecay: rate must be > 0, got {self.rate}")

    def value(self, x):
        return _ret(x, self.rate * np.asarray(x, dtype=float))

    def derivative(self, x):
        return _ret(x, np.full(np.shape(x), float(self.rate)))


@dataclass(frozen=True)
class TabulatedDecay:
    """Explicit per-state decay table; entry 0 must vanish, the rest be positive."""

    table: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.table)
        if len(vals) < 2:
            raise ModelError("TabulatedDecay: need at least states 0 and 1")
        if vals[0] != 0.0:
            raise ModelError("TabulatedDecay: decay out of state 0 must be 0")
        for v in vals[1:]:
            if not math.isfinite(v) or v <= 0:
                raise ModelError("TabulatedDecay: entries beyond 0 must be finite and > 0")
        object.__setattr__(self, "table", vals)

    def value(self, n):
        n_arr = np.asarray(n)
        idx = np.rint(n_arr).astype(int)
        if not np.all(np.abs(n_arr - idx) < 1e-9):
            raise ModelError("TabulatedDecay: defined on integer states only")
        if np.any(idx >= len(self.table)) or np.any(idx < 0):
            raise ModelError(f"TabulatedDecay: state outside table of length {len(self.table)}")
        out = np.asarray(self.table, dtype=float)[idx]
        return _ret(n, out)


DegradationSeq = Union[LinearDecay, TabulatedDecay]


# ---------------------------------------------------------------------------
# burst-size laws, discrete
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricBurst:
    """P(k) = (1-b) b^(k-1) on k = 1, 2, ...; mean 1/(1-b)."""

    b: float
    log_b: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_finite("GeometricBurst", self.b)
        if not (0.0 < self.b < 1.0):
            raise ModelError(f"GeometricBurst: b must lie in (0, 1), got {self.b}")
        object.__setattr__(self, "log_b", math.log(self.b))

    def pmf(self, k):
        k_arr = np.asarray(k, dtype=float)
        out = np.where(k_arr >= 1, (1.0 - self.b) * self.b ** (k_arr - 1.0), 0.0)
        return _ret(k, out)

    def tail(self, ell):
        """P(K > ell) = b**ell for ell >= 0."""
        ell_arr = np.asarray(ell, dtype=float)
        out = np.where(ell_arr >= 0, self.b ** np.maximum(ell_arr, 0.0), 1.0)
        return _ret(ell, out)

    def mean(self) -> float:
        return 1.0 / (1.0 - self.b)

    def size_at(self, u: np.ndarray) -> np.ndarray:
        """The burst sizes drawn by uniforms u in [0, 1), by the inverse CDF.

        ceil(ln(1 - u) / ln b), at least 1: u = 0 gives ceil(-0.0) = 0.
        """
        return np.maximum(np.ceil(np.log1p(-u) / self.log_b), 1.0).astype(np.int64)


@dataclass(frozen=True)
class TabulatedBurst:
    """Burst-size table h_1 .. h_K; must sum to 1 within 1e-9 (then renormalized)."""

    weights: tuple[float, ...]
    # running sums of the weights, the inverse-CDF table of size_at(), and
    # the largest size of positive weight
    cumulative: tuple[float, ...] = field(init=False, repr=False, compare=False)
    largest: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0:
            raise ModelError("TabulatedBurst: empty table")
        if np.any(~np.isfinite(w)) or np.any(w < 0):
            raise ModelError("TabulatedBurst: weights must be finite and >= 0")
        s = float(math.fsum(w.tolist()))
        if abs(s - 1.0) > 1e-9:
            raise ModelError(f"TabulatedBurst: weights sum to {s!r}, outside 1 +/- 1e-9")
        weights = tuple(float(v) / s for v in w)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cumulative", tuple(accumulate(weights)))
        object.__setattr__(self, "largest", max(k for k, v in enumerate(weights, 1) if v > 0.0))

    def pmf(self, k):
        k_arr = np.asarray(k)
        idx = np.rint(k_arr).astype(int)
        padded = np.asarray((0.0,) + self.weights + (0.0,), dtype=float)
        out = padded[np.clip(idx, 0, len(self.weights) + 1)]
        return _ret(k, out)

    def tail(self, ell):
        """P(K > ell); exact suffix sums."""
        w = self.weights
        suffix = [0.0] * (len(w) + 1)
        for i in range(len(w) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + w[i]
        ell_arr = np.asarray(ell, dtype=int)
        out = np.asarray(suffix + [0.0], dtype=float)[np.clip(ell_arr, 0, len(w))]
        out = np.where(ell_arr < 0, 1.0, out)
        return _ret(ell, out)

    def mean(self) -> float:
        return float(math.fsum((k + 1) * w for k, w in enumerate(self.weights)))

    def size_at(self, u: np.ndarray) -> np.ndarray:
        """The burst sizes drawn by uniforms u in [0, 1), by the inverse CDF.

        The running sums may round below 1, so a u past the last one still
        draws the largest size of positive weight.
        """
        return np.minimum(np.searchsorted(self.cumulative, u, side="right") + 1, self.largest)


BurstPmf = Union[GeometricBurst, TabulatedBurst]


# ---------------------------------------------------------------------------
# burst-size laws, continuous
# ---------------------------------------------------------------------------

def _erfcx(z: float) -> float:
    """Scaled complementary error function e^{z^2} erfc(z) for z >= 0.

    The direct product below z = 4; above, 24 levels of the Laplace
    continued fraction 1/(sqrt(pi) (z + (1/2)/(z + 1/(z + (3/2)/(z + ...))))),
    evaluated bottom-up, which never overflows.  Against
    scipy.special.erfcx on [0, 1e20] both branches agree to 2e-15 relative.
    """
    if z < 4.0:
        return math.exp(z * z) * math.erfc(z)
    frac = z
    for k in range(24, 0, -1):
        frac = z + 0.5 * k / frac
    return 1.0 / (math.sqrt(math.pi) * frac)


_erfcx_ufunc = np.frompyfunc(_erfcx, 1, 1)


# Each tail shape nu carries the burst law from a state y in closed form:
# the overshoot x past y has tail nu(y + x)/nu(y), so log_tail, the mean
# (the integral of that tail) and an inverse-CDF draw from the unit
# exponential t = -ln U are all ratios of nu, never a bare nu(y) that
# could underflow far out in the tail.

@dataclass(frozen=True)
class PowerTailNu:
    """nu(x) = (offset + x)**(-exponent); heavy polynomial burst tails."""

    offset: float
    exponent: float

    def __post_init__(self):
        _check_finite("PowerTailNu", self.offset, self.exponent)
        if self.offset <= 0 or self.exponent <= 0:
            raise ModelError("PowerTailNu: offset and exponent must be > 0")

    def value(self, x):
        return _ret(x, (self.offset + np.asarray(x, dtype=float)) ** (-self.exponent))

    def log_slope(self, x):
        """-nu'/nu, the conditional hazard of the burst overshoot."""
        return _ret(x, self.exponent / (self.offset + np.asarray(x, dtype=float)))

    def log_value(self, x):
        """ln nu(x), safe far into the tail."""
        return _ret(x, -self.exponent * np.log(self.offset + np.asarray(x, dtype=float)))

    def log_tail(self, x, y):
        """ln nu(y + x) - ln nu(y)."""
        x_arr = np.asarray(x, dtype=float)
        return _ret(x, -self.exponent * np.log1p(x_arr / (self.offset + y)))

    def mean_overshoot(self, y):
        """(offset + y)/(exponent - 1); infinite for exponent <= 1."""
        y_arr = np.asarray(y, dtype=float)
        if self.exponent <= 1.0:
            return _ret(y, np.full(np.shape(y), np.inf))
        return _ret(y, (self.offset + y_arr) / (self.exponent - 1.0))

    def draw_overshoot(self, t: float, y: float) -> float:
        r = t / self.exponent
        return (self.offset + y) * math.expm1(r) if r < 709.0 else math.inf

    @property
    def support_cap(self) -> float:
        return math.inf


@dataclass(frozen=True)
class GaussianExpNu:
    """nu(x) = exp(-(lin x + quad x^2)); exponential or Gaussian burst tails."""

    lin: float
    quad: float

    def __post_init__(self):
        _check_finite("GaussianExpNu", self.lin, self.quad)
        if self.lin <= 0 or self.quad < 0:
            raise ModelError("GaussianExpNu: lin must be > 0 and quad >= 0")

    def value(self, x):
        x_arr = np.asarray(x, dtype=float)
        return _ret(x, np.exp(-(self.lin * x_arr + self.quad * x_arr * x_arr)))

    def log_slope(self, x):
        return _ret(x, self.lin + 2.0 * self.quad * np.asarray(x, dtype=float))

    def log_value(self, x):
        x_arr = np.asarray(x, dtype=float)
        return _ret(x, -(self.lin * x_arr + self.quad * x_arr * x_arr))

    def log_tail(self, x, y):
        x_arr = np.asarray(x, dtype=float)
        return _ret(x, -x_arr * (self.lin + self.quad * (2.0 * y + x_arr)))

    def mean_overshoot(self, y):
        """sqrt(pi/4q) erfcx((lin + 2qy)/(2 sqrt q)); 1/lin when q = 0."""
        y_arr = np.asarray(y, dtype=float)
        if self.quad == 0.0:
            return _ret(y, np.full(np.shape(y), 1.0 / self.lin))
        root = math.sqrt(self.quad)
        z = (self.lin + 2.0 * self.quad * y_arr) / (2.0 * root)
        return _ret(y, 0.5 * math.sqrt(math.pi) / root
                    * np.asarray(_erfcx_ufunc(z), dtype=float))

    def draw_overshoot(self, t: float, y: float) -> float:
        # the positive root of quad x^2 + (lin + 2 quad y) x = t, in the
        # form without cancellation
        if self.quad == 0.0:
            return t / self.lin
        slope = self.lin + 2.0 * self.quad * y
        return 2.0 * t / (slope + math.hypot(slope, 2.0 * math.sqrt(self.quad * t)))

    @property
    def support_cap(self) -> float:
        return math.inf


@dataclass(frozen=True)
class FiniteSupportNu:
    """nu(x) = (cap - x)**exponent on [0, cap); states never exceed cap."""

    cap: float
    exponent: float

    def __post_init__(self):
        _check_finite("FiniteSupportNu", self.cap, self.exponent)
        if self.cap <= 0 or self.exponent <= 0:
            raise ModelError("FiniteSupportNu: cap and exponent must be > 0")

    def value(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.where(x_arr < self.cap,
                       np.maximum(self.cap - x_arr, 0.0) ** self.exponent, 0.0)
        return _ret(x, out)

    def log_slope(self, x):
        return _ret(x, self.exponent / (self.cap - np.asarray(x, dtype=float)))

    def log_value(self, x):
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x_arr < self.cap,
                           self.exponent * np.log(np.maximum(self.cap - x_arr, 0.0)),
                           -np.inf)
        return _ret(x, out)

    def log_tail(self, x, y):
        """exponent ln(1 - x/(cap - y)); -inf once y + x reaches the cap."""
        x_arr = np.asarray(x, dtype=float)
        gap = self.cap - y
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x_arr < gap, self.exponent * np.log1p(-x_arr / gap), -np.inf)
        return _ret(x, out)

    def mean_overshoot(self, y):
        """(cap - y)/(exponent + 1), zero at and past the cap."""
        y_arr = np.asarray(y, dtype=float)
        return _ret(y, np.maximum(self.cap - y_arr, 0.0) / (self.exponent + 1.0))

    def draw_overshoot(self, t: float, y: float) -> float:
        gap = self.cap - y
        if not gap > 0.0:
            raise ModelError(f"FiniteSupportNu: no burst law at state {y!r} past the cap")
        return -gap * math.expm1(-t / self.exponent)

    @property
    def support_cap(self) -> float:
        return self.cap


NuFn = Union[PowerTailNu, GaussianExpNu, FiniteSupportNu]


@dataclass(frozen=True)
class SeparableBurstKernel:
    """State-dependent bursts h(x, y) = -nu'(x + y) / nu(y).

    The post-jump state y + burst has the law of nu's hazard restarted
    at y, so the conditional tail is nu(x + y)/nu(y).
    """

    nu: NuFn

    def density(self, x, y):
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.nu.log_slope(x_arr + y) * np.exp(self.nu.log_tail(x_arr, y))
        return _ret(x, np.where(x_arr >= 0, out, 0.0))

    def tail(self, x, y):
        x_arr = np.asarray(x, dtype=float)
        return _ret(x, np.where(x_arr >= 0, np.exp(self.nu.log_tail(x_arr, y)), 1.0))

    def mean_burst(self, y):
        return self.nu.mean_overshoot(y)

    def sample(self, rng, y: float) -> float:
        return self.nu.draw_overshoot(draw_unit_exponential(rng), y)

    @property
    def support_cap(self) -> float:
        return self.nu.support_cap


@dataclass(frozen=True)
class ExponentialBurstKernel(SeparableBurstKernel):
    """Memoryless bursts of mean b: the separable kernel with nu(x) = exp(-x/b)."""

    nu: NuFn = field(init=False, repr=False)
    b: float

    def __post_init__(self):
        _check_finite("ExponentialBurstKernel", self.b)
        if self.b <= 0:
            raise ModelError(f"ExponentialBurstKernel: b must be > 0, got {self.b}")
        object.__setattr__(self, "nu", GaussianExpNu(1.0 / self.b, 0.0))


# ---------------------------------------------------------------------------
# assembled models
# ---------------------------------------------------------------------------

_DISCRETE_RATE_FORMS = (ConstantRate, LinearRate, HillRate, TruncatedLinearRate, TabulatedRate)
_CONTINUOUS_RATE_FORMS = (ConstantRate, LinearRate, QuadraticRate, HillRate)


@dataclass(frozen=True)
class DiscreteBurstModel:
    """Copy-number model: bursts of size >= 1 arrive at rate burst_rate(n),
    single units degrade at rate decay(n)."""

    burst_rate: RateSeq
    decay: DegradationSeq
    burst_size: BurstPmf

    def __post_init__(self):
        if not isinstance(self.burst_rate, _DISCRETE_RATE_FORMS):
            raise ModelError(f"DiscreteBurstModel: unsupported rate form "
                             f"{type(self.burst_rate).__name__}")
        if not isinstance(self.decay, (LinearDecay, TabulatedDecay)):
            raise ModelError("DiscreteBurstModel: unsupported decay form")
        if not isinstance(self.burst_size, (GeometricBurst, TabulatedBurst)):
            raise ModelError("DiscreteBurstModel: unsupported burst-size form")
        lam0 = float(self.burst_rate.value(0))
        if lam0 <= 0:
            raise ModelError("DiscreteBurstModel: burst rate at n=0 must be > 0, "
                             "otherwise 0 is absorbing")


@dataclass(frozen=True)
class ContinuousBurstModel:
    """Concentration model: deterministic decay along the flow of -decay(x),
    interrupted by upward jumps with kernel burst_size."""

    burst_rate: RateFn
    decay: LinearDecay
    burst_size: SeparableBurstKernel

    def __post_init__(self):
        if not isinstance(self.burst_rate, _CONTINUOUS_RATE_FORMS):
            raise ModelError(f"ContinuousBurstModel: unsupported rate form "
                             f"{type(self.burst_rate).__name__}")
        if not isinstance(self.decay, LinearDecay):
            raise ModelError("ContinuousBurstModel: decay must be LinearDecay")
        if not isinstance(self.burst_size, SeparableBurstKernel):
            raise ModelError("ContinuousBurstModel: unsupported burst kernel")
        # The origin must be inaccessible: burst_rate(x)/decay(x) has to be
        # non-integrable at 0+, which for first-order decay means a strictly
        # positive rate at x = 0.
        if float(self.burst_rate.value(0.0)) <= 0.0:
            raise ModelError("ContinuousBurstModel: burst rate at x=0 must be > 0 "
                             "so the origin stays inaccessible")
