"""Shared numeric substrate.

Everything downstream leans on the primitives collected here: a seeded
random generator with documented stream splitting, its uniforms drawn
in blocks, the matrix exponential, the trapezoid rule in a log variable for
integrals from the origin, and, private, false position on closed
brackets, many solved at once, with the sign-change scan that finds
them.  Keeping them in one place makes the reproducibility story
auditable: a run is a pure function of (seed, stream, config).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    GridMismatch,
    ModelError,
    NotIntegrable,
    NumericalBlowup,
    ToleranceNotMet,
)

__all__ = [
    "make_rng",
    "uniform_blocks",
    "expm",
    "log_quad",
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
    statistically independent replicas of the same seed.  ModelError
    for a negative seed or stream, which SeedSequence refuses.
    """
    if seed < 0 or stream < 0:
        raise ModelError(f"seed and stream must be >= 0, got seed {seed}, stream {stream}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


# rows per block of uniform_blocks, and jumps per chunk of the PDMP's
# post-pass: the working arrays stay a few hundred KiB however long the path
PATH_CHUNK = 4096


def uniform_blocks(seed: int, stream: int, n: int, width: int):
    """The first n * width uniforms of make_rng(seed, stream), as
    rng.random((rows, width)) blocks of up to PATH_CHUNK rows.

    Row k holds uniforms width*k to width*k + width - 1: a block is the
    next rows * width values of the scalar sequence, so the draws are
    those of repeated ``rng.random()`` calls, whatever PATH_CHUNK is.
    make_rng runs at the call, so a bad seed raises there, not at the
    first block.
    """
    rng = make_rng(seed, stream)
    return (rng.random((min(PATH_CHUNK, n - c0), width)) for c0 in range(0, n, PATH_CHUNK))


# ---------------------------------------------------------------------------
# matrix exponential (Taylor 18)
# ---------------------------------------------------------------------------

# 1/k! for k = 0..18: the degree-18 Taylor polynomial is exact to double
# precision up to 1-norm one, where its remainder is below 1/19! = 8e-18
_TAYLOR18 = tuple(1.0 / math.factorial(k) for k in range(19))


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix of 1-norm at most one.

    The degree-18 Taylor polynomial in Paterson-Stockmeyer form (SIAM J.
    Comput. 2, 1973), in blocks of three in a^3:
        T = B0 + (B1 + (B2 + (B3 + (B4 + (B5 + c18 a3) a3) a3) a3) a3) a3,
    with Bj = c(3j) I + c(3j+1) a + c(3j+2) a^2: a^2, a^3 and five Horner
    products, 7 matmuls and no linear solve.  T is a polynomial in a, so
    T a3 = a3 T, and rows I of T a3 read only rows I of T: each Horner
    step overwrites T a block of rows at a time, its product and axpys
    passing through one buffer of ceil(n/4) rows.  Four n x n arrays are
    live, the argument, which is only read, a^2, a^3 and T, plus the
    buffer.  A larger norm is the caller's to bring below one, as
    discrete._propagator does.

    Raises
    ------
    DomainError
        when the 1-norm of a exceeds one.
    NumericalBlowup
        when the 1-norm of a is not finite.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise NumericalBlowup(f"expm: matrix 1-norm is {norm}")
    if norm > 1.0:
        raise DomainError(f"expm: matrix 1-norm {norm:.6g} above one")
    c = _TAYLOR18
    a2 = a @ a
    a3 = a2 @ a
    t = np.multiply(a3, c[18])
    rows = -(-n // 4)
    buf = np.empty((rows, n))
    for j in range(5, -1, -1):                    # t = Bj + t a3, Horner in a3
        for lo in range(0, n, rows):
            block = t[lo:lo + rows]
            out = buf[:len(block)]
            if j < 5:
                block[...] = np.matmul(block, a3, out=out)
            block += np.multiply(a2[lo:lo + rows], c[3 * j + 2], out=out)
            block += np.multiply(a[lo:lo + rows], c[3 * j + 1], out=out)
        t.flat[::n + 1] += c[3 * j]
    return t


# ---------------------------------------------------------------------------
# integrals from the origin: the trapezoid rule in a log variable
# ---------------------------------------------------------------------------

# The scan runs at unit step in t: from -_T_SPAN on (0, b), up to _T_SPAN
# on (a, inf), as e^344 ~ 1e149 still has a finite square, which a
# quadratic rate's Q takes.  Once x has rounded to an end, g moves away
# from its peak by one per step, so the scan stops 2 _LOG_WINDOW past
# there.  x - a stays above e^_LN_GAP_MIN ~ 1e-300, a normal float, unless
# that would stop the scan short of the logistic map's e^t tail
_T_SPAN = 344.0
_LN_GAP_MIN = -690.0
# terms more than e^-_LOG_WINDOW below the largest are left out
_LOG_WINDOW = 40.0
# the most points one integral evaluates before it gives up
_MAX_POINTS = 1 << 16


def log_quad(ln_f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
             tol: float) -> float:
    """ln of the integral of e^{ln_f(x)} over (a, b), 0 <= a < b <= inf.

    The trapezoid rule in t, with x = a + e^t for b = inf, else
    x = a + (b - a)/(1 + e^-t): an integrand analytic in x, with power
    laws at the ends, decays exponentially at both ends of t, where the
    rule converges geometrically (Trefethen & Weideman, SIAM Review 56,
    2014).  A unit-step scan finds where g = ln_f + ln dx/dt lies within
    _LOG_WINDOW of its peak.  Below a window that starts at the scan's
    first point, g goes on linearly, as for a power of x - a, and its
    trapezoid terms are summed in closed form.  The step then halves,
    reusing every point, until two sums agree to ``tol`` relative.
    ``ln_f`` maps an array and may return -inf; b <= a gives -inf.
    ToleranceNotMet when no two sums agree within _MAX_POINTS points;
    NotIntegrable when g is nan, +inf or -inf throughout, rises toward
    a, or has not decayed at the end of the scan.
    """
    if not b > a:
        return -math.inf
    finite = math.isfinite(b)
    ln_width = math.log(b - a) if finite else 0.0

    def g(t):
        ln_dx = ln_width - np.logaddexp(0.0, -t) if finite else t     # ln(x - a)
        ln_jac = ln_dx - np.logaddexp(0.0, t) if finite else t        # ln dx/dt
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return ln_f(np.minimum(a + np.exp(ln_dx), b)) + ln_jac   # e^(ln b) may round past b

    lo = -_T_SPAN if a == 0.0 else min(math.log(a) - ln_width, 0.0) - 2.0 * _LOG_WINDOW
    t = np.arange(max(lo, -_T_SPAN, min(_LN_GAP_MIN - ln_width, -_LOG_WINDOW)),
                  (2.0 * _LOG_WINDOW if finite else _T_SPAN) + 1.0)
    vals = g(t)
    top = float(np.max(vals))
    if not -math.inf < top < math.inf:
        raise NotIntegrable(f"integrand is {top} on ({a:.6g}, {b:.6g})")
    inside = np.flatnonzero(vals >= top - _LOG_WINDOW)
    first, last = int(inside[0]), int(inside[-1]) + 1
    if last == len(t):
        raise NotIntegrable(f"integrand has not decayed at x = {a + math.exp(_T_SPAN):.3g}")
    continued = first == 0     # g goes on below t[0] with its first slope
    slope = float(vals[1] - vals[0])
    if continued and not slope > 0.0:
        raise NotIntegrable(f"integrand does not decay toward x = {a:.6g}")
    first = max(first - 1, 0)
    t0, vals, h = float(t[first]), vals[first:last + 1], 1.0
    previous = math.nan
    while True:
        top = float(np.max(vals))
        w = np.exp(vals - top)
        low = -1.0 / math.expm1(slope * h) if continued else 0.5
        total = h * (float(np.sum(w)) - low * float(w[0]) - 0.5 * float(w[-1]))
        ln_total = top + math.log(total)
        if abs(ln_total - previous) <= tol:
            return ln_total
        if 2 * len(vals) > _MAX_POINTS:
            raise ToleranceNotMet(f"sums differ by {ln_total - previous:.3e} at {len(vals)} points")
        previous = ln_total
        mids = g(t0 + h * (np.arange(len(vals) - 1) + 0.5))
        vals, h = np.insert(vals, np.arange(1, len(vals)), mids), 0.5 * h


# ---------------------------------------------------------------------------
# bracketed roots
# ---------------------------------------------------------------------------

def _sign_changes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(before, after): the index pairs around each change of strict sign
    in ``values``.  Exact zeros and nan are skipped until a strict sign
    settles the direction, so ``after`` is the first index of each new
    sign and ``before`` the last index of the old one."""
    sign = (values > 0) * 1 - (values < 0)      # nan counts as zero
    strict = np.flatnonzero(sign)
    flip = np.flatnonzero(sign[strict[1:]] != sign[strict[:-1]])
    return strict[flip], strict[flip + 1]


def _false_position(f: Callable[[np.ndarray], np.ndarray], lo, hi, f_lo, f_hi,
                    tol) -> np.ndarray:
    """The roots of f on the brackets [lo, hi], all solved at once.

    ``f`` maps an array of points to their values; ``f_lo`` and ``f_hi``
    are its values at the ends, of strictly opposite signs, and may be
    infinite.  False position with the Illinois rule (Dowell & Jarratt,
    BIT 11, 1971): when the same end moves twice running, the value kept
    at the other end is halved.  The midpoint replaces the secant point
    when that leaves the open bracket, as an infinite end value makes it
    do, or when the last two steps together failed to halve the bracket,
    so the bracket halves at least once in any three steps.  Each bracket
    stops at the first point with |f| <= tol, or at the end it moved last
    once no float lies between its ends.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi, f_lo, f_hi))
    tol = np.broadcast_to(np.asarray(tol, dtype=float), lo.shape)
    root = np.empty_like(lo)
    at = np.arange(lo.size)                     # where each open bracket's root goes
    moved = np.zeros(lo.shape, dtype=int)       # the end moved last: -1 lo, +1 hi
    slow = np.zeros(lo.shape, dtype=bool)       # bisect next
    span = np.full(lo.shape, math.inf)          # the width before the last step
    while at.size:
        with np.errstate(all="ignore"):         # an infinite end value makes x nan
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = np.where((lo < x) & (x < hi) & ~slow, x, 0.5 * lo + 0.5 * hi)
        fx = np.asarray(f(x), dtype=float)
        to_lo = (fx > 0.0) == (f_lo > 0.0)
        side = np.where(to_lo, -1, 1)
        scale = np.where(moved == side, 0.5, 1.0)   # for the value at the end that stays
        width = hi - lo
        lo, hi = np.where(to_lo, x, lo), np.where(to_lo, hi, x)
        f_lo, f_hi = np.where(to_lo, fx, scale * f_lo), np.where(to_lo, scale * f_hi, fx)
        moved, slow, span = side, hi - lo > 0.5 * span, width
        mid = 0.5 * lo + 0.5 * hi
        done = (np.abs(fx) <= tol) | (mid <= lo) | (mid >= hi)    # or adjacent floats
        if done.any():
            root[at[done]] = x[done]
            go = ~done
            at, lo, hi, f_lo, f_hi, tol, moved, slow, span = (
                v[go] for v in (at, lo, hi, f_lo, f_hi, tol, moved, slow, span))
    return root


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
