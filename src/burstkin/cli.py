"""Batch front end: parse a config, run one experiment, emit artifacts.

Config files are line oriented, UTF-8, one ``section.key = value`` per
line; blank lines and lines starting with ``#`` are skipped.  Sections:

    run.mode      one of the nine experiment modes (the CLI positional
                  argument wins if the two disagree)
    model.*       kind, rate/burst families and their coefficients
    numeric.*     per-mode knobs (budgets, tolerances, seed, stream)
    output.dir    artifact directory

Model keys:

    model.kind  = discrete | continuous
    model.decay = <float>                     first-order decay coefficient
    model.rate  = constant | linear | quadratic | hill | truncated-linear
        constant:         rate_level
        linear:           rate_base rate_slope
        quadratic:        rate_base rate_slope rate_quad
        hill:             rate_scale rate_numer rate_denom_const
                          rate_denom_coeff rate_exponent
        truncated-linear: rate_base rate_slope rate_cutoff   (discrete only)
    model.burst = geometric | exponential | power-tail | gaussian-exp
                  | finite-support
        geometric:      burst_b          (discrete)
        exponential:    burst_b          (continuous)
        power-tail:     burst_offset burst_exponent
        gaussian-exp:   burst_lin burst_quad
        finite-support: burst_cap burst_exponent

Parsing resolves every optional numeric key to its default, so a parsed
config is fully explicit; render_config writes that canonical form and
parse(render(parse(text))) == parse(text).

Exit codes: 0 success, 1 config problem (parse or validation), 2
numeric failure (non-normalizable model, no convergence, and kin).
Runs are reproducible: rerunning the same config and seed rewrites
byte-identical CSV artifacts.  ``--sweep section.key=start:stop:count``
runs one scalar across a range, point after point, each on the generator
stream of its index, with one artifact directory and one summary row per
point; points that fail are classified in their row rather than aborting
the sweep.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import continuous as cont
from . import discrete as disc
from .errors import (
    ConfigError,
    NumericalBlowup,
    NumericError,
    ParseError,
    ValidationError,
)
from .models import (
    ConstantRate,
    ContinuousBurstModel,
    DiscreteBurstModel,
    ExponentialBurstKernel,
    FiniteSupportNu,
    GaussianExpNu,
    GeometricBurst,
    HillRate,
    LinearDecay,
    LinearRate,
    ModelError,
    PowerTailNu,
    QuadraticRate,
    SeparableBurstKernel,
    TruncatedLinearRate,
)
from .numerics import tv_distance
from .serialize import (
    format_float,
    write_density_csv,
    write_modes_csv,
    write_pairs_csv,
    write_pmf_csv,
    write_trace_csv,
    write_trajectory_csv,
)

__all__ = [
    "ExperimentConfig",
    "RunSummary",
    "parse_config",
    "render_config",
    "run_experiment",
    "run_sweep",
    "main",
]

# mode -> (model kind it runs on, None for either; numeric schema
# key -> (type, required, default), listed in canonical render order).
# Every mode also takes the _COMMON_NUMERIC keys, rendered after its own.
_MODES = {
    "stationary-discrete": ("discrete", {
        "n_max": (int, True, None),
        "tail_tol": (float, False, 1e-8),   # <= 0 disables the tail check
    }),
    "stationary-continuous": ("continuous", {
        "n_knots": (int, False, 1024),
        "x_ref": (float, False, 1.0),
    }),
    "evolve-master": ("discrete", {
        "n_max": (int, True, None),
        "t_end": (float, True, None),
        "n0": (int, False, 0),
        "n_snapshots": (int, False, 25),
    }),
    "simulate-discrete": ("discrete", {
        "n0": (int, True, None),
        "n_jumps": (int, True, None),
    }),
    "simulate-pdmp": ("continuous", {
        "y0": (float, True, None),
        "n_jumps": (int, True, None),
        "n_bins": (int, False, 64),
        "x_ref": (float, False, 1.0),
    }),
    "kernel-fixed-point": ("continuous", {
        "n_knots": (int, False, 4096),
        "x_ref": (float, False, 1.0),
        "tol": (float, False, 1e-10),
    }),
    "invert-phi": ("continuous", {
        "n_knots": (int, False, 1024),
        "x_ref": (float, False, 1.0),
        "floor": (float, False, 1e-12),
    }),
    "modes": (None, {
        "n_max": (int, False, 512),          # discrete scan span
        "n_scan": (int, False, 2048),
        "window_lo": (float, False, 0.0),    # 0 means auto (continuous)
        "window_hi": (float, False, 0.0),
    }),
    "ergodicity": ("continuous", {
        "n_probes": (int, False, 8),
        "y_probe": (float, True, None),
        "quad_tol": (float, False, 1e-10),
    }),
}
MODES = tuple(_MODES)

_COMMON_NUMERIC = {
    "seed": (int, False, 0),
    "stream": (int, False, 0),
}


def _separable(nu):
    return lambda *coeffs: SeparableBurstKernel(nu(*coeffs))


# family -> (constructor, model keys in argument order)
_RATES = {
    "constant": (ConstantRate, ("rate_level",)),
    "linear": (LinearRate, ("rate_base", "rate_slope")),
    "quadratic": (QuadraticRate, ("rate_base", "rate_slope", "rate_quad")),
    "hill": (HillRate, ("rate_scale", "rate_numer", "rate_denom_const",
                        "rate_denom_coeff", "rate_exponent")),
    "truncated-linear": (TruncatedLinearRate, ("rate_base", "rate_slope", "rate_cutoff")),
}

# family -> (model kind, constructor, model keys in argument order)
_BURSTS = {
    "geometric": ("discrete", GeometricBurst, ("burst_b",)),
    "exponential": ("continuous", ExponentialBurstKernel, ("burst_b",)),
    "power-tail": ("continuous", _separable(PowerTailNu), ("burst_offset", "burst_exponent")),
    "gaussian-exp": ("continuous", _separable(GaussianExpNu), ("burst_lin", "burst_quad")),
    "finite-support": ("continuous", _separable(FiniteSupportNu),
                       ("burst_cap", "burst_exponent")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment: mode, model block, numeric block."""

    mode: str
    model: dict = field(default_factory=dict)
    numeric: dict = field(default_factory=dict)
    out_dir: str = "out"

    def build_model(self):
        m = self.model
        rate, rate_keys = _RATES[m["rate"]]
        _, burst, burst_keys = _BURSTS[m["burst"]]
        model = DiscreteBurstModel if m["kind"] == "discrete" else ContinuousBurstModel
        return model(rate(*(m[k] for k in rate_keys)), LinearDecay(m["decay"]),
                     burst(*(m[k] for k in burst_keys)))


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def _split_lines(text: str) -> dict:
    """First pass: raw (section, key) -> (value string, line number)."""
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'section.key = value'")
        left, _, value = line.partition("=")
        left = left.strip()
        value = value.strip()
        if "." not in left:
            raise ParseError(f"line {lineno}: key must look like 'section.key'")
        section, _, key = left.partition(".")
        section = section.strip()
        key = key.strip()
        if not section or not key or not value:
            raise ParseError(f"line {lineno}: empty section, key, or value")
        if (section, key) in entries:
            raise ParseError(f"line {lineno}: duplicate key {section}.{key}")
        entries[(section, key)] = (value, lineno)
    return entries


def _where(lineno) -> str:
    return f"line {lineno}: " if lineno is not None else ""


def _as_float(value: str, name: str, lineno) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ValidationError(f"{_where(lineno)}{name} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValidationError(f"{_where(lineno)}{name} must be finite, got {value!r}")
    return out


def _as_int(value: str, name: str, lineno) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ValidationError(f"{_where(lineno)}{name} must be an integer, got {value!r}") from None


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config, resolving every default.

    ``overrides`` maps (section, key) to replacement value strings; the
    command line uses it for the positional mode and the --seed/--out
    flags, so the rendered canonical config reflects what actually ran.
    """
    entries = _split_lines(text)
    if overrides:
        for sk, value in overrides.items():
            entries[sk] = (str(value), None)

    known_sections = {"run", "model", "numeric", "output"}
    for (section, key), (_, lineno) in entries.items():
        if section not in known_sections:
            raise ValidationError(f"{_where(lineno)}unknown section {section!r}")

    def take(section, key):
        return entries.pop((section, key), (None, None))

    # run.mode
    mode, lineno = take("run", "mode")
    if mode is None:
        raise ValidationError("missing run.mode")
    if mode not in MODES:
        raise ValidationError(f"{_where(lineno)}unknown mode {mode!r}; "
                              f"expected one of {', '.join(MODES)}")

    # model block
    model: dict = {}
    kind, lineno = take("model", "kind")
    if kind is None:
        raise ValidationError("missing model.kind")
    if kind not in ("discrete", "continuous"):
        raise ValidationError(f"{_where(lineno)}model.kind must be discrete or continuous")
    model["kind"] = kind
    want_kind, mode_schema = _MODES[mode]
    if want_kind is not None and kind != want_kind:
        raise ValidationError(f"mode {mode} needs a {want_kind} model, got {kind}")

    rate, lineno = take("model", "rate")
    if rate is None:
        raise ValidationError("missing model.rate")
    if rate not in _RATES:
        raise ValidationError(f"{_where(lineno)}unknown rate family {rate!r}")
    if rate == "truncated-linear" and kind != "discrete":
        raise ValidationError(f"{_where(lineno)}truncated-linear rates are discrete only")
    model["rate"] = rate

    burst, lineno = take("model", "burst")
    if burst is None:
        raise ValidationError("missing model.burst")
    if burst not in _BURSTS or _BURSTS[burst][0] != kind:
        allowed = sorted(f for f, (k, _, _) in _BURSTS.items() if k == kind)
        raise ValidationError(f"{_where(lineno)}burst family {burst!r} not available "
                              f"for {kind} models ({', '.join(allowed)})")
    model["burst"] = burst

    value, lineno = take("model", "decay")
    if value is None:
        raise ValidationError("missing model.decay")
    model["decay"] = _as_float(value, "model.decay", lineno)

    for key in _RATES[rate][1] + _BURSTS[burst][2]:
        value, lineno = take("model", key)
        if value is None:
            raise ValidationError(f"rate/burst family needs model.{key}")
        model[key] = _as_float(value, f"model.{key}", lineno)

    # numeric block
    numeric: dict = {}
    for key, (typ, required, default) in {**_COMMON_NUMERIC, **mode_schema}.items():
        value, lineno = take("numeric", key)
        if value is None:
            if required:
                raise ValidationError(f"mode {mode} needs numeric.{key}")
            numeric[key] = default
        elif typ is int:
            numeric[key] = _as_int(value, f"numeric.{key}", lineno)
        else:
            numeric[key] = _as_float(value, f"numeric.{key}", lineno)

    out_dir, _ = take("output", "dir")
    if out_dir is None:
        out_dir = "out"

    # anything still unclaimed is unknown or inapplicable
    if entries:
        (section, key), (_, lineno) = next(iter(entries.items()))
        raise ValidationError(f"{_where(lineno)}{section}.{key} is not a recognized "
                              f"key for mode {mode}")

    cfg = ExperimentConfig(mode=mode, model=model, numeric=numeric, out_dir=out_dir)
    try:
        cfg.build_model()
    except ModelError as exc:
        raise ValidationError(str(exc)) from exc
    return cfg


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical, fully explicit text form; parse() of it reproduces cfg."""
    lines = [f"run.mode = {cfg.mode}", ""]
    m = cfg.model
    lines.append(f"model.kind = {m['kind']}")
    lines.append(f"model.rate = {m['rate']}")
    for key in _RATES[m["rate"]][1]:
        lines.append(f"model.{key} = {_render_value(m[key])}")
    lines.append(f"model.decay = {_render_value(m['decay'])}")
    lines.append(f"model.burst = {m['burst']}")
    for key in _BURSTS[m["burst"]][2]:
        lines.append(f"model.{key} = {_render_value(m[key])}")
    lines.append("")
    for key in (*_MODES[cfg.mode][1], *_COMMON_NUMERIC):
        lines.append(f"numeric.{key} = {_render_value(cfg.numeric[key])}")
    lines.append("")
    lines.append(f"output.dir = {cfg.out_dir}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSummary:
    """What a run produced, with enough context to reproduce it exactly."""

    mode: str
    seed: int
    stream: int
    wall_time_s: float
    scalars: dict
    artifacts: list
    config_text: str

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "stream": self.stream,
            "wall_time_s": self.wall_time_s,
            "scalars": self.scalars,
            "artifacts": self.artifacts,
            "config": self.config_text,
        }


def _run_stationary_discrete(cfg, model, out: Path):
    num = cfg.numeric
    tail_tol = num["tail_tol"] if num["tail_tol"] > 0 else None
    pmf = disc.stationary_pmf_general(model, num["n_max"], tail_tol=tail_tol)
    write_pmf_csv(out / "pmf.csv", pmf.values)
    scalars = {"mean_identity_residual": disc.mean_identity_residual(model, pmf)}
    family = disc.named_family_params(model)
    if family is not None:
        scalars["family"] = family.label
        scalars["family_residual"] = float(np.max(np.abs(pmf.values - family.pmf(pmf.n_max))))
    return scalars, ["pmf.csv"]


def _run_stationary_continuous(cfg, model, out: Path):
    num = cfg.numeric
    d = cont.stationary_density(model, n_knots=num["n_knots"], x_ref=num["x_ref"])
    write_density_csv(out / "density.csv", d.grid, d.values)
    scalars = {"ln_normalization": d.ln_normalization, "mass_outside_grid": d.mass_outside}
    return scalars, ["density.csv"]


def _run_evolve_master(cfg, model, out: Path):
    num = cfg.numeric
    if not 0 <= num["n0"] <= num["n_max"]:
        raise ValidationError(f"numeric.n0 must lie in [0, n_max], got {num['n0']}")
    if num["n_snapshots"] < 1:
        raise ValidationError("numeric.n_snapshots must be >= 1")
    v0 = np.zeros(num["n_max"] + 1)
    v0[num["n0"]] = 1.0
    trace = disc.evolve_master(model, v0, num["t_end"], n_snapshots=num["n_snapshots"])
    write_trace_csv(out / "trace.csv", trace.times, trace.l1_to_stationary)
    write_pmf_csv(out / "final_pmf.csv", trace.pmfs[-1].values)
    scalars = {
        "final_l1": float(trace.l1_to_stationary[-1]),
        "max_mass_drift": max(abs(p.mass() - 1.0) for p in trace.pmfs),
        # finite-state-projection certificate: a bound on the mass parked at the cap
        "max_cap_mass": trace.max_cap_mass,
        "squarings": trace.squarings,
        "solved_states": trace.solved_states,
    }
    return scalars, ["trace.csv", "final_pmf.csv"]


def _run_simulate_discrete(cfg, model, out: Path):
    num = cfg.numeric
    res = disc.simulate_jump_chain(model, num["n0"], num["n_jumps"],
                                   num["seed"], stream=num["stream"])
    occ = res.occupancy.values
    write_pmf_csv(out / "occupancy.csv", occ)
    scalars = {
        "total_time": res.total_time,
        "jumps_taken": res.n_jumps,
        "start": res.start,
    }
    try:
        # the solver needs two states; lanes that only left 0 occupy one
        target = disc.stationary_pmf_general(model, max(len(occ) - 1, 1), tail_tol=None)
        occ = np.pad(occ, (0, len(target.values) - len(occ)))
        scalars["tv_to_stationary"] = tv_distance(occ, target.values)
    except NumericError:
        pass  # non-normalizable models still simulate fine
    return scalars, ["occupancy.csv"]


def _run_simulate_pdmp(cfg, model, out: Path):
    num = cfg.numeric
    traj = cont.simulate_pdmp(model, num["y0"], num["n_jumps"], num["seed"],
                              stream=num["stream"], x_ref=num["x_ref"],
                              n_bins=num["n_bins"])
    write_trajectory_csv(out / "trajectory.csv", traj.times, traj.y_pre, traj.y_post)
    d = traj.histogram.density()
    write_density_csv(out / "histogram.csv", d.grid, d.values)
    hist = traj.histogram
    scalars = {
        "total_time": hist.total_time,
        "outside_fraction": (hist.below + hist.above) / hist.total_time,
        "potential_evals_per_jump": traj.inverse_evals / num["n_jumps"],
        "bins_crossed_per_jump": traj.bins_crossed / num["n_jumps"],
    }
    return scalars, ["trajectory.csv", "histogram.csv"]


def _run_kernel_fixed_point(cfg, model, out: Path):
    num = cfg.numeric
    grid = cont.kernel_grid(model, num["n_knots"])
    kern = cont.kernel_matrix(model, grid, x_ref=num["x_ref"])
    v_star = cont.kernel_fixed_point(kern, tol=num["tol"])
    u_star = cont.density_from_fixed_point(model, v_star, x_ref=num["x_ref"])
    write_density_csv(out / "vstar.csv", v_star.grid, v_star.values)
    write_density_csv(out / "density.csv", u_star.grid, u_star.values)
    scalars = {
        "fixed_point_residual": kern.residual(v_star),
        "mean_identity_residual": cont.mean_identity_residual(model, u_star),
        "min_column_sum": float(np.min(kern.raw_column_sums)),
        "ln_normalization": u_star.ln_normalization,
    }
    return scalars, ["vstar.csv", "density.csv"]


def _run_invert_phi(cfg, model, out: Path):
    num = cfg.numeric
    density = cont.stationary_density(model, n_knots=num["n_knots"], x_ref=num["x_ref"])
    xs, phi = cont.phi_from_density_grid(model.decay, model.burst_size, density,
                                         floor=num["floor"])
    write_pairs_csv(out / "phi.csv", "x,phi", xs, phi)
    truth = np.asarray(model.burst_rate.value(xs), dtype=float)
    # the error is relative only where the true rate is a normal double:
    # past an underflow to 0 it is undefined, and on a subnormal rate the
    # ratio can overflow
    live = truth >= np.finfo(float).tiny
    scalars = {
        "max_relative_error": float(np.max(np.abs(phi[live] / truth[live] - 1.0),
                                           initial=0.0)),
        # on the rate's own scale: where the rate is tiny but normal, a
        # good absolute recovery can still read as a huge relative error
        "max_error_vs_peak_rate": float(np.max(np.abs(phi - truth)) / np.max(truth)),
        "rate_underflow_points": int(np.count_nonzero(~live)),
    }
    return scalars, ["phi.csv"]


def _run_modes(cfg, model, out: Path):
    num = cfg.numeric
    if isinstance(model, DiscreteBurstModel):
        report = disc.count_modes_discrete(model, num["n_max"])
        write_modes_csv(out / "modes.csv",
                        [float(n) for n in report.maxima],
                        ["max"] * len(report.maxima))
        scalars = {
            "n_maxima": len(report.maxima),
            "boundary_mode": report.boundary_mode,
        }
    else:
        window = (num["window_lo"], num["window_hi"])
        if window == (0.0, 0.0):
            window = None               # the automatic scan
        elif not (window[0] > 0 and window[1] > 0):
            raise ValidationError("numeric.window_lo and numeric.window_hi must both be 0 "
                                  f"(automatic) or both > 0, got {window}")
        report = cont.count_modes_continuous(model, window=window, n_scan=num["n_scan"])
        write_modes_csv(out / "modes.csv", report.roots, report.kinds)
        scalars = {
            "n_maxima": sum(1 for k in report.kinds if k == "max"),
            "n_roots": len(report.roots),
            "boundary_mode": report.boundary_mode,
        }
    return scalars, ["modes.csv"]


def _run_ergodicity(cfg, model, out: Path):
    num = cfg.numeric
    if num["n_probes"] < 1:
        raise ValidationError("numeric.n_probes must be >= 1")
    if num["y_probe"] <= 0.0:
        raise ValidationError(f"numeric.y_probe must be > 0, got {num['y_probe']}")
    if num["quad_tol"] <= 0.0:
        raise ValidationError(f"numeric.quad_tol must be > 0, got {num['quad_tol']}")
    probes = np.geomspace(num["y_probe"] * 1e-2, num["y_probe"], num["n_probes"])
    margins, running = cont.ergodicity_scan(model, probes, quad_tol=num["quad_tol"])
    write_pairs_csv(out / "margins.csv", "y,margin", probes, margins)
    scalars = {
        "max_margin": float(running[-1]),
        "drift_negative": bool(running[-1] < 0.0),
    }
    return scalars, ["margins.csv"]


_RUNNERS = {
    "stationary-discrete": _run_stationary_discrete,
    "stationary-continuous": _run_stationary_continuous,
    "evolve-master": _run_evolve_master,
    "simulate-discrete": _run_simulate_discrete,
    "simulate-pdmp": _run_simulate_pdmp,
    "kernel-fixed-point": _run_kernel_fixed_point,
    "invert-phi": _run_invert_phi,
    "modes": _run_modes,
    "ergodicity": _run_ergodicity,
}


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Dispatch one experiment, write its artifacts plus summary.json."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = cfg.build_model()
    started = time.perf_counter()
    scalars, artifacts = _RUNNERS[cfg.mode](cfg, model, out)
    bad = [k for k, v in sorted(scalars.items()) if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise NumericalBlowup(f"{cfg.mode} produced a non-finite {', '.join(bad)}; "
                              "summary.json not written")
    summary = RunSummary(
        mode=cfg.mode,
        seed=cfg.numeric["seed"],
        stream=cfg.numeric["stream"],
        wall_time_s=time.perf_counter() - started,
        scalars=scalars,
        artifacts=artifacts,
        config_text=render_config(cfg),
    )
    text = json.dumps(summary.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return summary


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def _parse_sweep(spec: str, cfg: ExperimentConfig):
    """'section.key=start:stop:count' -> ((section, key), values)."""
    head, eq, rng = spec.partition("=")
    if not eq:
        raise ParseError("sweep spec must look like section.key=start:stop:count")
    section, dot, key = head.strip().partition(".")
    if not dot or section not in ("model", "numeric"):
        raise ValidationError(f"can only sweep model.* or numeric.* keys, got {head!r}")
    if (section, key) == ("numeric", "stream"):
        raise ValidationError("numeric.stream cannot be swept: each sweep point "
                              "runs on the stream of its own index")
    block = cfg.model if section == "model" else cfg.numeric
    if key not in block or not isinstance(block[key], (int, float)) \
            or isinstance(block[key], bool):
        raise ValidationError(f"{head.strip()!r} is not a sweepable scalar of this config")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ParseError("sweep range must be start:stop:count")
    start = _as_float(parts[0], "sweep start", None)
    stop = _as_float(parts[1], "sweep stop", None)
    count = _as_int(parts[2], "sweep count", None)
    if count < 1:
        raise ValidationError(f"sweep count must be >= 1, got {count}")
    return (section, key), np.linspace(start, stop, count)


def _sweep_point(cfg: ExperimentConfig, section: str, key: str,
                 value: float, index: int) -> ExperimentConfig:
    model = dict(cfg.model)
    numeric = dict(cfg.numeric)
    block = model if section == "model" else numeric
    applied = int(round(value)) if isinstance(block[key], int) else float(value)
    block[key] = applied
    numeric["stream"] = index  # independent generator split per point
    out_dir = str(Path(cfg.out_dir) / f"sweep_{index:04d}")
    return ExperimentConfig(cfg.mode, model, numeric, out_dir)


def run_sweep(cfg: ExperimentConfig, spec: str) -> int:
    """Run one experiment per sweep value; classify failures per row.

    The sweep exits 0 whenever the sweep itself ran: per-point outcomes
    (including non-normalizable parameter regions) are data, recorded in
    sweep_summary.csv, not reasons to abort the scan.
    """
    (section, key), values = _parse_sweep(spec, cfg)
    points = [_sweep_point(cfg, section, key, float(v), i)
              for i, v in enumerate(values)]

    def one(point: ExperimentConfig):
        try:
            summary = run_experiment(point)
        except ConfigError as exc:
            return {"status": "config-error", "detail": str(exc)}
        except NumericError as exc:
            return {"status": f"numeric-error:{type(exc).__name__}", "detail": str(exc)}
        except Exception as exc:  # a defect, but the scan and its summary go on
            traceback.print_exc()
            return {"status": f"internal-error:{type(exc).__name__}", "detail": str(exc)}
        row = {"status": "ok", "detail": ""}
        row.update(summary.scalars)
        return row

    rows = [one(p) for p in points]
    scalar_keys = sorted({k for row in rows for k in row} - {"status", "detail"})
    base = Path(cfg.out_dir)
    base.mkdir(parents=True, exist_ok=True)
    with open(base / "sweep_summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", f"{section}.{key}", "status", "detail"] + scalar_keys)
        for i, (value, row) in enumerate(zip(values, rows)):
            writer.writerow([str(i), format_float(value),
                             row["status"], row["detail"]]
                            + [_render_value(row[k]) if k in row else ""
                               for k in scalar_keys])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="burstkin",
        description="Bursty birth-death kinetics: stationary laws, master-equation "
                    "evolution, event-driven simulation, kernel fixed points, rate "
                    "inversion, and mode censuses.")
    parser.add_argument("mode", choices=MODES, help="experiment to run")
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--seed", type=int, help="override numeric.seed")
    parser.add_argument("--out", help="override output.dir")
    parser.add_argument("--sweep", metavar="SECTION.KEY=START:STOP:COUNT",
                        help="vary one scalar across a range, one run per value")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    overrides = {("run", "mode"): args.mode}
    if args.seed is not None:
        overrides[("numeric", "seed")] = str(args.seed)
    if args.out is not None:
        overrides[("output", "dir")] = args.out

    try:
        cfg = parse_config(text, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.sweep is not None:
            return run_sweep(cfg, args.sweep)
        summary = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    print(f"{summary.mode}: {', '.join(summary.artifacts)} -> {cfg.out_dir} "
          f"({summary.wall_time_s:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
