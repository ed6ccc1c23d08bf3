"""The per-layer baseline table of ROADMAP.md, measured on this machine.

Each row times one library call on a fixed model, with no tracer
installed, by ``perf_counter`` (the stationary pmf as the median of three
calls).  Counts come from counting shims around the callable handed to
the solver or the method under test; a shim adds one Python call per
count, well under 1% of the counted work.  Peak memory of the 4096-knot
kernel assembly comes from ``tracemalloc`` in a separate, untimed call.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

__all__ = ["measure", "METRICS"]

# name -> unit, in report order
METRICS = {
    "baseline.pmf_general_n16000_s": "s",
    "baseline.evolve_master_cap200_s": "s",
    "baseline.evolve_master_cap200_rhs_evals": "count",
    "baseline.jump_chain_us_per_jump": "us",
    "baseline.pdmp_us_per_jump.constant": "us",
    "baseline.pdmp_us_per_jump.linear": "us",
    "baseline.pdmp_us_per_jump.hill": "us",
    "baseline.kernel_4096_matrix_s": "s",
    "baseline.kernel_4096_fixed_point_s": "s",
    "baseline.kernel_4096_applies": "count",
    "baseline.kernel_4096_peak_mib": "MiB",
}


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def measure(tiny: bool = False) -> dict:
    """Run the table; ``tiny`` shrinks every size for the self-test."""
    import numpy as np
    from burstkin import continuous as cont
    from burstkin import discrete as disc
    from burstkin.models import (ConstantRate, ContinuousBurstModel, DiscreteBurstModel,
                                 ExponentialBurstKernel, GeometricBurst, HillRate,
                                 LinearDecay, LinearRate, PowerTailNu,
                                 SeparableBurstKernel)

    n_max, cap, chain, knots = (400, 20, 2000, 256) if tiny else (16000, 200, 200_000, 4096)
    pdmp_jumps = {"constant": 200, "linear": 50, "hill": 50} if tiny \
        else {"constant": 5000, "linear": 1000, "hill": 1000}
    out = {}

    nb = DiscreteBurstModel(ConstantRate(1.0), LinearDecay(1.0), GeometricBurst(0.5))
    out["baseline.pmf_general_n16000_s"] = statistics.median(
        _timed(disc.stationary_pmf_general, nb, n_max)[0] for _ in range(3))

    evals = 0
    original = disc.integrate_adaptive

    def counting(rhs, *args, **kwargs):
        def counted(t, y):
            nonlocal evals
            evals += 1
            return rhs(t, y)
        return original(counted, *args, **kwargs)

    v0 = np.zeros(cap + 1)
    v0[0] = 1.0
    disc.integrate_adaptive = counting
    try:
        out["baseline.evolve_master_cap200_s"] = _timed(disc.evolve_master, nb, v0, 30.0)[0]
    finally:
        disc.integrate_adaptive = original
    out["baseline.evolve_master_cap200_rhs_evals"] = evals

    dt, _ = _timed(disc.simulate_jump_chain, nb, 0, chain, 1)
    out["baseline.jump_chain_us_per_jump"] = dt / chain * 1e6

    gamma_law = ContinuousBurstModel(ConstantRate(2.0), LinearDecay(1.0),
                                     ExponentialBurstKernel(1.0))
    models = {
        "constant": gamma_law,
        "linear": ContinuousBurstModel(LinearRate(1.5, 0.3), LinearDecay(1.0),
                                       ExponentialBurstKernel(1.0)),
        "hill": ContinuousBurstModel(HillRate(1.5, 3.0, 1.0, 1.0, 2.0), LinearDecay(1.0),
                                     SeparableBurstKernel(PowerTailNu(1.0, 12.0))),
    }
    for family, model in models.items():
        jumps = pdmp_jumps[family]
        dt, _ = _timed(cont.simulate_pdmp, model, 1.0, jumps, 1)
        out[f"baseline.pdmp_us_per_jump.{family}"] = dt / jumps * 1e6

    t0 = time.perf_counter()
    kern = cont.kernel_matrix(gamma_law, cont.kernel_grid(gamma_law, knots))
    out["baseline.kernel_4096_matrix_s"] = time.perf_counter() - t0
    applies = 0
    apply = cont.KernelGrid.apply

    def counting_apply(self, values):
        nonlocal applies
        applies += 1
        return apply(self, values)

    cont.KernelGrid.apply = counting_apply
    try:
        out["baseline.kernel_4096_fixed_point_s"] = _timed(cont.kernel_fixed_point, kern)[0]
    finally:
        cont.KernelGrid.apply = apply
    out["baseline.kernel_4096_applies"] = applies
    del kern

    tracemalloc.start()
    try:
        cont.kernel_matrix(gamma_law, cont.kernel_grid(gamma_law, knots))
        out["baseline.kernel_4096_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return {name: (float(out[name]), unit) for name, unit in METRICS.items()}
