"""Shared numeric substrate.

Everything downstream leans on the primitives collected here: a seeded
random generator with documented stream splitting, inverse-CDF draws,
an embedded-pair adaptive ODE stepper, the matrix exponential, adaptive
Gauss-Kronrod quadrature, and a safeguarded Newton root finder.  Keeping
them in one place makes the reproducibility story auditable: a run is a
pure function of (seed, stream, config).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridMismatch,
    NoConvergence,
    NumericalBlowup,
    RangeError,
    StiffnessBudgetExceeded,
    ToleranceNotMet,
)

__all__ = [
    "make_rng",
    "UniformStream",
    "draw_unit_exponential",
    "StepperConfig",
    "integrate_adaptive",
    "expm",
    "quad_adaptive",
    "trapezoid",
    "l1_distance",
    "tv_distance",
]


def trapezoid(values: np.ndarray, grid: np.ndarray) -> float:
    """Trapezoid rule on an arbitrary increasing grid."""
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    return float(np.dot(np.diff(grid), 0.5 * (values[1:] + values[:-1])))


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the pinned generator for (seed, stream).

    PCG64 seeded through SeedSequence with ``spawn_key=(stream,)``.  The
    same pair always yields the same draw sequence; distinct streams are
    statistically independent replicas of the same seed.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


# uniforms drawn per refill of a UniformStream
DRAW_BLOCK = 256


class UniformStream:
    """The uniforms of a generator, drawn DRAW_BLOCK at a time.

    ``random()`` hands out rng.random(DRAW_BLOCK) as Python floats, one
    at a time, and refills when the block runs out.  A block is the next
    DRAW_BLOCK values of the scalar sequence, so the draws consumed are
    exactly those of repeated ``rng.random()`` calls, at the cost of a
    list index instead of a generator call.  Anything written against
    ``rng.random()`` accepts the stream in place of the generator.
    """

    __slots__ = ("rng", "_block", "_pos")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._block: list = []
        self._pos = 0

    def random(self) -> float:
        pos = self._pos
        if pos == len(self._block):
            self._block = self.rng.random(DRAW_BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return self._block[pos]


def draw_unit_exponential(rng: np.random.Generator) -> float:
    """Unit-mean exponential via the inverse CDF, -ln U with U in (0, 1].

    The inverse CDF keeps the draw a monotone function of the underlying
    uniform, which is what makes coupled comparisons across parameter
    values meaningful.
    """
    return -math.log1p(-rng.random())


# ---------------------------------------------------------------------------
# adaptive ODE stepping (Dormand-Prince 5(4) embedded pair)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepperConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-11
    max_steps: int = 1_000_000
    initial_step: float | None = None


# Butcher tableau for the Dormand-Prince 5(4) pair.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def integrate_adaptive(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_end: float,
    cfg: StepperConfig | None = None,
    *,
    t0: float = 0.0,
    snapshot_times: Sequence[float] | None = None,
) -> list[tuple[float, np.ndarray]]:
    """Integrate y' = rhs(t, y) from t0 to t_end with error control.

    Returns ``[(t, y), ...]`` at the requested snapshot times (t_end is
    always included).  Snapshots are hit exactly by clipping the step,
    so no interpolation error enters the record.

    Raises
    ------
    StiffnessBudgetExceeded
        when the step budget runs out before t_end.
    """
    cfg = cfg or StepperConfig()
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    if snapshot_times is None:
        targets = [float(t_end)]
    else:
        targets = sorted({float(s) for s in snapshot_times if t0 < s <= t_end})
        if not targets or targets[-1] < t_end:
            targets.append(float(t_end))

    out: list[tuple[float, np.ndarray]] = []
    if t_end == t0:
        return [(t, y.copy())]

    h = cfg.initial_step if cfg.initial_step is not None else (t_end - t0) / 1000.0
    h = min(h, t_end - t0)
    k1 = np.asarray(rhs(t, y), dtype=float)

    n_steps = 0
    target_idx = 0
    while target_idx < len(targets):
        target = targets[target_idx]
        clipped = False
        if t + h >= target:
            h = target - t
            clipped = True

        # one attempted Dormand-Prince step
        ks = [k1]
        for i in range(1, 7):
            yi = y
            acc = np.zeros_like(y)
            for a, k in zip(_DP_A[i], ks):
                acc = acc + a * k
            yi = y + h * acc
            ks.append(np.asarray(rhs(t + _DP_C[i] * h, yi), dtype=float))

        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks))
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = np.sqrt(np.mean(((y5 - y4) / scale) ** 2))

        n_steps += 1
        if n_steps > cfg.max_steps:
            raise StiffnessBudgetExceeded(
                f"step budget {cfg.max_steps} exhausted at t={t:.6g} of {t_end:.6g}"
            )

        if err <= 1.0:
            t = target if clipped else t + h
            y = y5
            k1 = ks[6]  # FSAL: last stage of an accepted step is next k1
            if clipped and t == target:
                out.append((t, y.copy()))
                target_idx += 1
        # step-size controller (order 5: exponent 1/5)
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
        if target_idx < len(targets):
            h = min(h, targets[-1] - t) if targets[-1] > t else h
        if h <= 0 or not math.isfinite(h):
            raise StiffnessBudgetExceeded(f"step size collapsed at t={t:.6g}")

    return out


# ---------------------------------------------------------------------------
# matrix exponential (Pade 13)
# ---------------------------------------------------------------------------

# Coefficients of the [13/13] Pade approximant and the 1-norm up to which
# it is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl.
# 26(4), 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def _pade_poly(out: np.ndarray, terms) -> np.ndarray:
    """out = sum of c * m over (c, m) pairs, one temporary at a time."""
    (c0, m0), *rest = terms
    np.multiply(m0, c0, out=out)
    for c, m in rest:
        out += c * m
    return out


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix of 1-norm at most theta_13, by one Pade-13 step.

    The [13/13] Pade approximant r = (V - U)^-1 (V + U) is formed from
    a^2, a^4 and a^6 (Higham 2005); it is exact to double precision up to
    that norm.  Callers with larger matrices scale by 2^-s and square the
    result s times themselves (see discrete._propagator).  Buffers are
    reused so that at most eight n x n arrays are live.

    Raises
    ------
    DomainError
        when the 1-norm of a exceeds theta_13.
    NumericalBlowup
        when the 1-norm of a is not finite.
    """
    a = np.array(a, dtype=float)             # private copy: the step writes into it
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise NumericalBlowup(f"expm: matrix 1-norm is {norm}")
    if norm > _PADE13_THETA:
        raise DomainError(f"expm: matrix 1-norm {norm:.6g} above theta_13 = {_PADE13_THETA}")
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    diag = slice(None, None, n + 1)
    w = _pade_poly(np.empty_like(a), ((b[13], a6), (b[11], a4), (b[9], a2)))
    z = a6 @ w
    _pade_poly(w, ((b[7], a6), (b[5], a4), (b[3], a2)))
    z += w
    z.flat[diag] += b[1]
    u = np.matmul(a, z, out=w)
    _pade_poly(z, ((b[12], a6), (b[10], a4), (b[8], a2)))
    v = np.matmul(a6, z, out=a)
    _pade_poly(z, ((b[6], a6), (b[4], a4), (b[2], a2)))
    v += z
    v.flat[diag] += b[0]
    del a2, a4, a6
    return np.linalg.solve(np.subtract(v, u, out=z), np.add(v, u, out=v))


# ---------------------------------------------------------------------------
# adaptive quadrature (Gauss-Kronrod 7/15 panels)
# ---------------------------------------------------------------------------

# Kronrod-15 abscissae (positive half) and weights; Gauss-7 weights.
_GK_NODES = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_GK_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_X15 = np.concatenate([-_GK_NODES[:7], _GK_NODES[::-1]])          # 15 sorted nodes
_W15 = np.concatenate([_GK_WK[:7], _GK_WK[::-1]])                 # Kronrod weights
_W7 = np.zeros(15)
_W7[1:14:2] = np.concatenate([_GK_WG[:3], _GK_WG[::-1]])          # Gauss weights sit on odd slots


def _panel(f, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _X15
    fx = np.asarray(f(x), dtype=float)
    k15 = half * float(np.dot(_W15, fx))
    g7 = half * float(np.dot(_W7, fx))
    return k15, abs(k15 - g7)


def quad_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-12,
    *,
    max_panels: int = 4096,
) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` over (a, b), b may be inf.

    ``f`` must accept a vector of abscissae.  The error target is
    absolute (with a small relative floor so that large integrals do not
    chase pure roundoff).  An infinite upper limit is folded onto (0, 1)
    through x = a + t/(1-t).

    Raises
    ------
    ToleranceNotMet
        if the panel budget is exhausted before the target is reached.
    """
    if math.isinf(b):
        base = float(a)

        def g(t):
            t = np.asarray(t, dtype=float)
            x = base + t / (1.0 - t)
            return f(x) / (1.0 - t) ** 2

        return quad_adaptive(g, 0.0, 1.0, tol, max_panels=max_panels)

    if not (b > a):
        return 0.0

    val, err = _panel(f, a, b)
    # heap of (-error, a, b, value); worst panel split first
    heap = [(-err, a, b, val)]
    total_val = val
    total_err = err
    n_panels = 1
    width_floor = 64.0 * np.finfo(float).eps

    while total_err > max(tol, 1e-14 * abs(total_val)):
        if n_panels >= max_panels or not heap:
            raise ToleranceNotMet(
                f"quadrature stalled at error {total_err:.3e} "
                f"(value {total_val:.12e}, {n_panels} panels)"
            )
        neg_err, pa, pb, pval = heapq.heappop(heap)
        if (pb - pa) <= width_floor * max(1.0, abs(pa), abs(pb)):
            # cannot split further; treat its error as floor noise
            continue
        pm = 0.5 * (pa + pb)
        v1, e1 = _panel(f, pa, pm)
        v2, e2 = _panel(f, pm, pb)
        total_val += (v1 + v2) - pval
        total_err += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, pa, pm, v1))
        heapq.heappush(heap, (-e2, pm, pb, v2))
        n_panels += 1
        if not math.isfinite(total_val):
            raise ToleranceNotMet(f"integrand not finite on ({pa:.6g}, {pb:.6g})")

    return total_val


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

# evaluations find_root makes before it gives up
_ROOT_STEPS = 100


def find_root(
    f: Callable[[float], float],
    x: float,
    tol: float,
    *,
    fprime: Callable[[float], float] | None = None,
    lo: float = -math.inf,
    hi: float = math.inf,
    domain: tuple[float, float] = (-math.inf, math.inf),
) -> float:
    """Root of an f that falls through zero, by safeguarded Newton (rtsafe).

    Newton runs from ``x`` with slope ``fprime``, or without one along
    the secant through the bracket ends.  Every evaluation tightens the
    bracket [lo, hi], f(lo) > 0 > f(hi), which may start open on either
    side.  A step that leaves the bracket, follows a zero slope, or fails
    to halve the step before last (Numerical Recipes' rtsafe), becomes a
    bisection, or an outward step of doubling length while one side is
    still open.  Steps are clipped to ``domain``.  Returns the first x
    with |f(x)| <= tol,
    or the bracket end it sits on once no float lies between the ends.
    RangeError when an open side cannot close inside ``domain``,
    NoConvergence after _ROOT_STEPS evaluations.
    """
    f_lo = f_hi = math.nan              # bracket values, for the secant
    reach = 1.0                         # outward step while a side is open
    last = before = math.inf            # lengths of the last two steps
    for _ in range(_ROOT_STEPS):
        fx = f(x)
        if abs(fx) <= tol:
            return x
        if fx > 0.0:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
        if fprime is not None:
            slope = fprime(x)
            step = x - fx / slope if slope != 0.0 else math.nan
        else:
            step = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not (lo < step < hi and abs(step - x) <= 0.5 * before):
            if hi == math.inf:
                step = lo + reach
            elif lo == -math.inf:
                step = hi - reach
            else:
                step = 0.5 * (lo + hi)
            reach *= 2.0
        step = min(max(step, domain[0]), domain[1])
        if step == x:
            if lo == -math.inf or hi == math.inf:
                raise RangeError(f"root finder: f keeps its sign up to the end of {domain}")
            return x    # no float left between the bracket ends
        before, last = last, abs(step - x)
        x = step
    raise NoConvergence(f"root finder: bracket [{lo:.17g}, {hi:.17g}] still open "
                        f"after {_ROOT_STEPS} steps")


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _values_pair(u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Extract aligned value vectors; third slot is the common grid if any."""
    u_grid = getattr(u, "grid", None)
    v_grid = getattr(v, "grid", None)
    if (u_grid is None) != (v_grid is None):
        raise GridMismatch("cannot mix gridded densities with plain vectors")
    if u_grid is not None:
        if u_grid.shape != v_grid.shape or not np.allclose(u_grid, v_grid, rtol=1e-12, atol=0.0):
            raise GridMismatch("densities live on different grids")
        return np.asarray(u.values, float), np.asarray(v.values, float), np.asarray(u_grid, float)
    uv = np.asarray(getattr(u, "values", u), dtype=float)
    vv = np.asarray(getattr(v, "values", v), dtype=float)
    if uv.shape != vv.shape:
        raise GridMismatch(f"support sizes differ: {uv.shape} vs {vv.shape}")
    return uv, vv, None


def l1_distance(u, v) -> float:
    """L1 distance between two pmfs (sum) or two grid densities (trapezoid)."""
    uv, vv, grid = _values_pair(u, v)
    diff = np.abs(uv - vv)
    if grid is None:
        return float(np.sum(diff))
    return trapezoid(diff, grid)


def tv_distance(u, v) -> float:
    """Total-variation distance: half the L1 distance."""
    return 0.5 * l1_distance(u, v)
