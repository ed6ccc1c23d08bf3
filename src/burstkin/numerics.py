"""Shared numeric substrate.

Everything downstream leans on the primitives collected here: a seeded
random generator with documented stream splitting, inverse-CDF draws,
the matrix exponential, adaptive Gauss-Kronrod quadrature, and a
safeguarded Newton root finder.  Keeping them in one place makes the
reproducibility story auditable: a run is a pure function of (seed,
stream, config).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    GridMismatch,
    NoConvergence,
    NumericalBlowup,
    RangeError,
    ToleranceNotMet,
)

__all__ = [
    "make_rng",
    "UniformStream",
    "draw_unit_exponential",
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
# matrix exponential (Taylor 18)
# ---------------------------------------------------------------------------

# 1/k! for k = 0..18: the degree-18 Taylor polynomial is exact to double
# precision up to 1-norm one, where its remainder is below 1/19! = 8e-18
_TAYLOR18 = tuple(1.0 / math.factorial(k) for k in range(19))
# the largest 1-norm accepted, theta_13 of Higham's Pade-13 step (SIAM J.
# Matrix Anal. Appl. 26(4), 2005): callers keep that contract, and it
# takes at most three squarings
_EXPM_THETA = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix of 1-norm at most theta_13 = 5.37.

    The degree-18 Taylor polynomial in Paterson-Stockmeyer form, in blocks
    of three in a^3 (Bader, Blanes & Casas 2019):
        T = B0 + a3 (B1 + a3 (B2 + a3 (B3 + a3 (B4 + a3 (B5 + c18 a3))))),
    with Bj = c(3j) I + c(3j+1) a + c(3j+2) a^2: a^2, a^3 and five Horner
    products, 7 matmuls and no linear solve.  An input of 1-norm above
    one is scaled by 2^-s (s <= 3) and the result squared s times; at
    most one, the input is only read.  Every product and axpy writes
    into a reused buffer: besides the argument, four n x n arrays are
    live at most, five when it is scaled.

    Raises
    ------
    DomainError
        when the 1-norm of a exceeds theta_13.
    NumericalBlowup
        when the 1-norm of a is not finite.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise NumericalBlowup(f"expm: matrix 1-norm is {norm}")
    if norm > _EXPM_THETA:
        raise DomainError(f"expm: matrix 1-norm {norm:.6g} above theta_13 = {_EXPM_THETA}")
    mant, exp2 = math.frexp(norm)
    squarings = max(0, exp2 - (mant == 0.5))      # the least s with norm 2^-s <= 1
    if squarings:
        a = np.ldexp(a, -squarings)               # a private copy; the argument stays
    c = _TAYLOR18
    diag = slice(None, None, n + 1)
    a2 = a @ a
    a3 = a2 @ a
    t = np.multiply(a3, c[18])
    spare = np.empty_like(a)
    for j in range(5, -1, -1):                    # t = Bj + a3 t, Horner in a3
        if j < 5:
            t, spare = np.matmul(a3, t, out=spare), t
        t += np.multiply(a2, c[3 * j + 2], out=spare)
        t += np.multiply(a, c[3 * j + 1], out=spare)
        t.flat[diag] += c[3 * j]
    del a2, a3
    for _ in range(squarings):
        t, spare = np.matmul(t, t, out=spare), t
    return t


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
