"""Shared numeric substrate.

Everything downstream leans on the primitives collected here: a seeded
random generator with documented stream splitting, inverse-CDF draws,
an embedded-pair adaptive ODE stepper, the matrix exponential, adaptive
Gauss-Kronrod quadrature, and a guarded monotone root finder.  Keeping
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
    GridMismatch,
    NoBracket,
    NumericalBlowup,
    StiffnessBudgetExceeded,
    ToleranceNotMet,
)

__all__ = [
    "make_rng",
    "draw_unit_exponential",
    "draw_geometric",
    "StepperConfig",
    "integrate_adaptive",
    "expm",
    "quad_adaptive",
    "find_root_monotone",
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


def draw_unit_exponential(rng: np.random.Generator) -> float:
    """Unit-mean exponential via the inverse CDF, -ln U with U in (0, 1].

    The inverse CDF keeps the draw a monotone function of the underlying
    uniform, which is what makes coupled comparisons across parameter
    values meaningful.
    """
    return -math.log1p(-rng.random())


def draw_geometric(rng: np.random.Generator, b: float) -> int:
    """Geometric burst size on {1, 2, ...} with P(k) = (1-b) b^(k-1).

    Uses ceil(ln U / ln b); the measure-zero endpoint U = 1 maps to 1.
    """
    u = 1.0 - rng.random()  # in (0, 1]
    if u >= 1.0:
        return 1
    return max(1, math.ceil(math.log(u) / math.log(b)))


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
# matrix exponential (Pade 13 with scaling and squaring)
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
    """exp(a) of a square matrix by Pade-13 scaling and squaring.

    a is scaled by 2^-s until its 1-norm is at most theta_13, the [13/13]
    Pade approximant r = (V - U)^-1 (V + U) is formed from a^2, a^4 and
    a^6, and r is squared s times (Higham 2005).  Buffers are reused so
    that at most eight n x n arrays are live.

    Raises
    ------
    NumericalBlowup
        when the 1-norm of a is not finite.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise NumericalBlowup(f"expm: matrix 1-norm is {norm}")
    s = max(0, math.frexp(norm / _PADE13_THETA)[1]) if norm > _PADE13_THETA else 0
    a = np.ldexp(a, -s)                      # private copy, scaled exactly
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
    r = np.linalg.solve(np.subtract(v, u, out=z), np.add(v, u, out=v))
    del u, v, z
    if s:
        spare = np.empty_like(r)
        for _ in range(s):
            np.matmul(r, r, out=spare)
            r, spare = spare, r
    return r


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

def find_root_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    *,
    fprime: Callable[[float], float] | None = None,
    max_iter: int = 200,
) -> float:
    """Root of a monotone f on [lo, hi] by bisection with secant/Newton refinement.

    Stops when |f(x)| <= tol or the bracket width drops below
    tol * max(1, |x|).  Raises NoBracket when f(lo) and f(hi) share a
    strict sign.
    """
    flo = float(f(lo))
    fhi = float(f(hi))
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if flo * fhi > 0.0:
        raise NoBracket(f"no sign change on [{lo:.6g}, {hi:.6g}]")

    a, fa = float(lo), flo
    b, fb = float(hi), fhi
    x, fx = a, fa
    for _ in range(max_iter):
        # candidate from Newton (if derivative given) else secant, else midpoint
        cand = None
        if fprime is not None:
            d = float(fprime(x))
            if d != 0.0 and math.isfinite(d):
                step = x - fx / d
                if a < step < b:
                    cand = step
        if cand is None and fb != fa:
            step = b - fb * (b - a) / (fb - fa)
            if a < step < b:
                cand = step
        if cand is None:
            cand = 0.5 * (a + b)
        # guard: never let the candidate hug a bracket edge too closely
        width = b - a
        cand = min(max(cand, a + 0.01 * width), b - 0.01 * width)

        x = cand
        fx = float(f(x))
        if fx == 0.0 or abs(fx) <= tol:
            return x
        if fa * fx < 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        if (b - a) <= tol * max(1.0, abs(x)):
            return 0.5 * (a + b)
    return 0.5 * (a + b)


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
