"""Release gate: twelve end-to-end checks, one line of verdict each.

Each check prints ``acceptance NN PASS/FAIL`` with the measured number
next to its bound, then asserts.  Oracles here are deliberately
independent of the library internals: log-gamma closed forms, direct
power series, and hand-derived densities.
"""

import math
import sys
import time

import numpy as np
from scipy.special import gammaln

from burstkin.cli import main, parse_config, run_experiment
from burstkin.continuous import (
    GridDensity,
    Potential,
    count_modes_continuous,
    density_from_fixed_point,
    kernel_fixed_point,
    kernel_grid,
    kernel_matrix,
    phi_from_density_analytic,
    phi_from_density_grid,
    simulate_pdmp,
    stationary_density,
)
from burstkin.discrete import (
    count_modes_discrete,
    evolve_master,
    mean_identity_residual,
    simulate_jump_chain,
    stationary_pmf_general,
    stationary_pmf_geometric,
)
from burstkin.models import (
    ConstantRate,
    ContinuousBurstModel,
    DiscreteBurstModel,
    ExponentialBurstKernel,
    GeometricBurst,
    HillRate,
    LinearDecay,
    LinearRate,
    TruncatedLinearRate,
)


VERDICTS: list = []


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    VERDICTS.append(line)  # echoed by the terminal-summary hook in conftest
    print(line, flush=True)
    assert ok, line


def nb_pmf(lam0: float, lam1: float, gamma: float, b: float, n_max: int) -> np.ndarray:
    """Negative binomial p_n via log-gamma; shares nothing with the library."""
    p = (lam1 + b * gamma) / gamma
    a = lam0 / (b * gamma + lam1)
    n = np.arange(n_max + 1)
    return np.exp(gammaln(a + n) - gammaln(a) - gammaln(n + 1)
                  + n * math.log(p) + a * math.log1p(-p))


def discrete_nb_model(lam0=1.0, lam1=0.0, gamma=1.0, b=0.5) -> DiscreteBurstModel:
    rate = ConstantRate(lam0) if lam1 == 0.0 else LinearRate(lam0, lam1)
    return DiscreteBurstModel(rate, LinearDecay(gamma), GeometricBurst(b))


def gamma_law_model() -> ContinuousBurstModel:
    """Constant rate 2, unit decay, unit exponential bursts: u* = x e^{-x}."""
    return ContinuousBurstModel(ConstantRate(2.0), LinearDecay(1.0),
                                ExponentialBurstKernel(1.0))


def tv_padded(occupancy: np.ndarray, reference: np.ndarray) -> float:
    """Total variation with the reference tail beyond the data counted in."""
    n = len(occupancy)
    return 0.5 * float(np.sum(np.abs(occupancy - reference[:n]))) \
        + 0.5 * float(abs(1.0 - np.sum(reference[:n])))


def test_acceptance_01_negative_binomial_closed_form():
    started = time.perf_counter()
    pmf = stationary_pmf_general(discrete_nb_model(1.0, 0.0, 1.0, 0.5), 500)
    elapsed = time.perf_counter() - started
    err = float(np.max(np.abs(pmf.values - nb_pmf(1.0, 0.0, 1.0, 0.5, 500))))
    _verdict(1, err <= 1e-12 and elapsed < 1.0,
             f"negative binomial sup error {err:.2e} (<= 1e-12), {elapsed:.2f}s (< 1s)")


def test_acceptance_02_recurrence_routes_agree():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        gamma = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.05, 0.9)
        lam0 = rng.uniform(0.1, 5.0)
        # every second model gets a linear term, kept inside the
        # normalizability margin slope < decay * (1 - b)
        lam1 = rng.uniform(0.0, 0.9) * gamma * (1.0 - b) if i % 2 else 0.0
        m = discrete_nb_model(lam0, lam1, gamma, b)
        a = stationary_pmf_general(m, 300, tail_tol=None)
        g = stationary_pmf_geometric(m, 300, tail_tol=None)
        worst = max(worst, float(np.max(np.abs(a.values - g.values))))
    _verdict(2, worst <= 1e-12,
             f"two-route sup disagreement {worst:.2e} over 50 models (<= 1e-12)")


def test_acceptance_03_generating_function_vs_series():
    m = DiscreteBurstModel(HillRate(1.0, 1.0, 1.0, 1.0, 1.0), LinearDecay(1.0),
                           GeometricBurst(0.5))
    pmf = stationary_pmf_general(m, 400, tail_tol=None)
    s = 0.5
    pgf = float(np.sum(pmf.values * s ** np.arange(401)))

    def gauss_series(a1, a2, b1, z):
        total, term = 0.0, 1.0
        for n in range(0, 400):
            total += term
            term *= (a1 + n) * (a2 + n) / ((b1 + n) * (n + 1)) * z
            if abs(term) < 1e-18:
                break
        return total

    oracle = gauss_series(1.0, 2.0, 1.0, 0.25) / gauss_series(1.0, 2.0, 1.0, 0.5)
    err = abs(pgf - oracle)
    _verdict(3, err <= 1e-10,
             f"generating function at s=0.5 off by {err:.2e} (<= 1e-10)")


def test_acceptance_04_master_equation_relaxes():
    m = discrete_nb_model(1.0, 0.0, 1.0, 0.5)
    v0 = np.zeros(201)
    v0[0] = 1.0
    started = time.perf_counter()
    trace = evolve_master(m, v0, 30.0)
    elapsed = time.perf_counter() - started
    final_l1 = float(trace.l1_to_stationary[-1])
    drift = max(abs(p.mass() - 1.0) for p in trace.pmfs)
    _verdict(4, final_l1 <= 1e-4 and drift <= 1e-9 and elapsed < 10.0,
             f"L1 to stationarity {final_l1:.2e} at t=30 (<= 1e-4), "
             f"mass drift {drift:.2e} (<= 1e-9), {elapsed:.1f}s (< 10s)")


def test_acceptance_05_mean_identity_on_catalog():
    catalog = [
        discrete_nb_model(1.0, 0.0, 1.0, 0.5),
        discrete_nb_model(0.6, 0.3, 1.2, 0.4),
        discrete_nb_model(4.0, 0.0, 1.0, 0.2),
        DiscreteBurstModel(HillRate(1.0, 1.0, 1.0, 1.0, 1.0), LinearDecay(1.0),
                           GeometricBurst(0.5)),
        DiscreteBurstModel(HillRate(1.5, 0.5, 2.0, 0.5, 2.0), LinearDecay(1.0),
                           GeometricBurst(0.3)),
        DiscreteBurstModel(TruncatedLinearRate(6.0, -2.0, None), LinearDecay(1.0),
                           GeometricBurst(0.5)),
    ]
    worst = max(mean_identity_residual(m, stationary_pmf_general(m, 400, tail_tol=None))
                for m in catalog)
    _verdict(5, worst <= 1e-10,
             f"worst mean-identity residual {worst:.2e} over "
             f"{len(catalog)} models (<= 1e-10)")


def test_acceptance_06_discrete_simulator_occupancy():
    m = discrete_nb_model(1.0, 0.0, 1.0, 0.5)
    started = time.perf_counter()
    res = simulate_jump_chain(m, 0, 1_000_000, seed=77)
    elapsed = time.perf_counter() - started
    ref = nb_pmf(1.0, 0.0, 1.0, 0.5, res.occupancy.n_max)
    tv = tv_padded(res.occupancy.values, ref)
    _verdict(6, tv <= 0.02 and elapsed < 30.0,
             f"occupancy TV {tv:.4f} after 1e6 jumps (<= 0.02), "
             f"{elapsed:.1f}s (< 30s)")


def test_acceptance_07_pdmp_occupancy_vs_gamma_law():
    m = gamma_law_model()
    started = time.perf_counter()
    traj = simulate_pdmp(m, 1.0, 100_000, seed=99)
    elapsed = time.perf_counter() - started
    err = traj.histogram.l1_against(lambda x: x * np.exp(-x))
    _verdict(7, err <= 0.05 and elapsed < 30.0,
             f"exposure histogram L1 {err:.4f} after 1e5 jumps (<= 0.05), "
             f"{elapsed:.1f}s (< 30s)")


def test_acceptance_08_kernel_fixed_point_recovers_both_laws():
    m = gamma_law_model()
    grid = kernel_grid(m, 4096)
    kern = kernel_matrix(m, grid)
    v = kernel_fixed_point(kern, tol=1e-10)
    w = kern.weights
    v_ref = grid * grid * np.exp(-grid)          # e^{-x/b - Q(x)} here
    v_ref /= float(np.dot(w, v_ref))
    v_hat = v.values / float(np.dot(w, v.values))
    v_err = float(np.dot(w, np.abs(v_hat - v_ref)))
    u = density_from_fixed_point(m, v)
    u_err = float(np.dot(w, np.abs(u.values - grid * np.exp(-grid))))
    _verdict(8, v_err <= 5e-3 and u_err <= 1e-2,
             f"fixed point L1 {v_err:.2e} (<= 5e-3), "
             f"reconstructed density L1 {u_err:.2e} (<= 1e-2) on 4096 knots")


def test_acceptance_09_rate_recovery_from_gamma_density():
    m = gamma_law_model()
    xs = np.exp(np.linspace(math.log(1e-4), math.log(25.0), 200))
    xs = xs[xs * np.exp(-xs) > 1e-12]
    phi = phi_from_density_analytic(m.decay, m.burst_size,
                                    lambda x: x * np.exp(-x),
                                    lambda x: (1.0 - x) * np.exp(-x), xs)
    analytic_err = float(np.max(np.abs(phi / 2.0 - 1.0)))

    grid = np.exp(np.linspace(math.log(1e-4), math.log(25.0), 2048))
    density = GridDensity(grid, grid * np.exp(-grid))
    xg, phig = phi_from_density_grid(m.decay, m.burst_size, density)
    keep = xg * np.exp(-xg) > 1e-12
    fd_err = float(np.max(np.abs(phig[keep] / 2.0 - 1.0)))
    _verdict(9, analytic_err <= 1e-6 and fd_err <= 1e-3,
             f"recovered rate off by {analytic_err:.2e} analytic (<= 1e-6), "
             f"{fd_err:.2e} finite differences (<= 1e-3)")


def test_acceptance_10_mode_census_both_flavours():
    rep = count_modes_continuous(gamma_law_model())
    cont_ok = (len(rep.roots) == 1 and rep.kinds == ("max",)
               and abs(rep.roots[0] - 1.0) <= 1e-8)

    m = discrete_nb_model(3.0, 0.0, 1.0, 0.5)
    report = count_modes_discrete(m, 60)
    # ratio-scan oracle on the closed form: p_5 tops the law (p_4 ties it,
    # the scan convention reports the upper edge of the plateau)
    ref = nb_pmf(3.0, 0.0, 1.0, 0.5, 60)
    disc_ok = (report.maxima == (5,)
               and abs(ref[5] - np.max(ref)) <= 1e-15 * np.max(ref)
               and ref[6] < ref[5])
    _verdict(10, cont_ok and disc_ok,
             f"continuous root {rep.roots[0]:.10f} (1 +/- 1e-8), "
             f"discrete maxima {report.maxima} (expected (5,))")


def test_acceptance_11_reference_point_invariance():
    m = gamma_law_model()
    grid = kernel_grid(m, 512)

    u_a = stationary_density(m, grid, x_ref=1.0)
    u_b = stationary_density(m, grid, x_ref=3.7)
    d_density = float(np.max(np.abs(u_a.values - u_b.values)))

    k_a = kernel_matrix(m, grid, x_ref=1.0)
    k_b = kernel_matrix(m, grid, x_ref=3.7)
    d_kernel = float(np.max(np.abs(k_a.matrix - k_b.matrix)))

    v = GridDensity(grid, grid * grid * np.exp(-grid))
    r_a = density_from_fixed_point(m, v, x_ref=1.0)
    r_b = density_from_fixed_point(m, v, x_ref=3.7)
    d_recon = float(np.max(np.abs(r_a.values - r_b.values)))

    t_a = simulate_pdmp(m, 1.0, 2000, seed=5, x_ref=1.0)
    t_b = simulate_pdmp(m, 1.0, 2000, seed=5, x_ref=3.7)
    d_traj = max(float(np.max(np.abs(t_a.y_pre - t_b.y_pre))),
                 float(np.max(np.abs(t_a.times - t_b.times))))

    worst = max(d_density, d_kernel, d_recon, d_traj)
    _verdict(11, worst <= 1e-10,
             f"x_ref 1.0 vs 3.7: density {d_density:.1e}, kernel {d_kernel:.1e}, "
             f"reconstruction {d_recon:.1e}, trajectory {d_traj:.1e} (all <= 1e-10)")


def test_acceptance_12_reruns_are_byte_identical(tmp_path):
    configs = {
        "simulate-pdmp": """\
run.mode = simulate-pdmp
model.kind = continuous
model.rate = constant
model.rate_level = 2.0
model.decay = 1.0
model.burst = exponential
model.burst_b = 1.0
numeric.y0 = 1.0
numeric.n_jumps = 2000
numeric.seed = 42
""",
        "simulate-discrete": """\
run.mode = simulate-discrete
model.kind = discrete
model.rate = constant
model.rate_level = 1.0
model.decay = 1.0
model.burst = geometric
model.burst_b = 0.5
numeric.n0 = 0
numeric.n_jumps = 5000
numeric.seed = 3
""",
        "stationary-discrete": """\
run.mode = stationary-discrete
model.kind = discrete
model.rate = constant
model.rate_level = 1.0
model.decay = 1.0
model.burst = geometric
model.burst_b = 0.5
numeric.n_max = 150
""",
    }
    mismatches = []
    for mode, text in configs.items():
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{mode}-{tag}"
            summary = run_experiment(
                parse_config(text, overrides={("output", "dir"): str(out)}))
            runs.append((out, summary.artifacts))
        (out_a, artifacts), (out_b, _) = runs
        for name in artifacts:
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                mismatches.append(f"{mode}/{name}")
    # the command-line wrapper must behave the same way
    cfg_path = tmp_path / "cli.cfg"
    cfg_path.write_text(configs["simulate-pdmp"], encoding="utf-8")
    for tag in ("c", "d"):
        assert main(["simulate-pdmp", "--config", str(cfg_path),
                     "--out", str(tmp_path / f"cli-{tag}")]) == 0
    if (tmp_path / "cli-c" / "trajectory.csv").read_bytes() != \
            (tmp_path / "cli-d" / "trajectory.csv").read_bytes():
        mismatches.append("cli/trajectory.csv")
    _verdict(12, not mismatches,
             "rerun artifacts byte-identical" if not mismatches
             else f"mismatched: {', '.join(mismatches)}")
