"""Outcome classes, accuracy certificates and artifact digests of benchmark runs.

Every run ends in one of three outcome classes:

    ok              the run returned a result
    error:<Type>    it raised a BurstkinError subtype (the error contract)
    raw:<Type>      it raised any other exception (a contract breach)

A run that returned is checked against the certificates its mode can
give, each with a stated bound.  Where a certificate measures what an
acceptance test measures, the bound is the test's bound (test number in
the comment).  The two Monte Carlo certificates shrink with the square
root of the sample size, so their bound is the acceptance bound at the
acceptance test's jump count, scaled by sqrt(test jumps / run jumps).
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

__all__ = ["classify", "sweep_outcome", "certificates", "accurate", "digest"]

MEAN_IDENTITY_BOUND = 1e-10     # acceptance 05
FAMILY_BOUND = 1e-12            # acceptance 01
MASS_DRIFT_BOUND = 1e-9         # acceptance 04
FINAL_L1_BOUND = 1e-4           # acceptance 04
PHI_BOUND = 1e-3                # acceptance 09, finite-difference route
TV_BOUND, TV_JUMPS = 0.02, 1_000_000        # acceptance 06
PDMP_BOUND, PDMP_JUMPS = 0.05, 100_000      # acceptance 07
_SUBCELLS = 16                  # reference quadrature points per histogram bin


def classify(exc: BaseException) -> str:
    """Outcome class of a run that raised ``exc``."""
    from burstkin.errors import BurstkinError
    kind = "error" if isinstance(exc, BurstkinError) else "raw"
    return f"{kind}:{type(exc).__name__}"


def sweep_outcome(out: Path) -> str:
    """A sweep that returned is ok only if every point's row says ok."""
    text = (out / "sweep_summary.csv").read_text(encoding="utf-8")
    bad = [r["status"] for r in csv.DictReader(text.splitlines()) if r["status"] != "ok"]
    return f"error:sweep-{bad[0]}" if bad else "ok"


def tv_bound(n_jumps: int) -> float:
    return TV_BOUND * math.sqrt(TV_JUMPS / n_jumps)


def pdmp_bound(n_jumps: int) -> float:
    return PDMP_BOUND * math.sqrt(PDMP_JUMPS / n_jumps)


def _pdmp_l1(cfg, out: Path, outside_fraction: float) -> float:
    """Histogram L1 against the analytic stationary density on the same bins.

    The simulator's bins are log-uniform and histogram.csv lists their
    geometric centres, so the edges are recovered exactly from the first
    and last centre.  Reference bin masses integrate stationary_density
    over 16 log-spaced subcells per bin; exposure outside the binned range
    counts fully against the distance.
    """
    from burstkin.continuous import stationary_density
    x, u = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1, unpack=True)
    logc = np.log(x)
    h = (logc[-1] - logc[0]) / (len(x) - 1)
    edges = np.exp(np.concatenate([logc - 0.5 * h, [logc[-1] + 0.5 * h]]))
    masses = u * np.diff(edges)
    fine = np.exp(np.linspace(math.log(edges[0]), math.log(edges[-1]),
                              _SUBCELLS * len(x) + 1))
    ref = stationary_density(cfg.build_model(), fine, x_ref=cfg.numeric["x_ref"])
    cells = 0.5 * (ref.values[1:] + ref.values[:-1]) * np.diff(fine)
    ref_masses = cells.reshape(len(x), _SUBCELLS).sum(axis=1)
    return float(np.sum(np.abs(masses - ref_masses))) + outside_fraction


def certificates(cfg, scalars: dict, out: Path, *, sweep: bool = False) -> list:
    """[(name, value, bound)] for a run that returned; empty when the mode has none."""
    mode = cfg.mode
    num = cfg.numeric
    if sweep:
        text = (out / "sweep_summary.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(text.splitlines()))
        return [(f"point{r['index']}.tv_to_stationary",
                 float(r["tv_to_stationary"] or "inf"), tv_bound(num["n_jumps"]))
                for r in rows]
    if mode == "stationary-discrete":
        certs = [("mean_identity_residual", scalars["mean_identity_residual"],
                  MEAN_IDENTITY_BOUND)]
        if "family_residual" in scalars:
            certs.append(("family_residual", scalars["family_residual"], FAMILY_BOUND))
        return certs
    if mode == "evolve-master":
        return [("max_mass_drift", scalars["max_mass_drift"], MASS_DRIFT_BOUND),
                ("final_l1", scalars["final_l1"], FINAL_L1_BOUND)]
    if mode == "kernel-fixed-point":
        return [("fixed_point_residual", scalars["fixed_point_residual"], num["tol"])]
    if mode == "simulate-discrete":
        return [("tv_to_stationary", scalars.get("tv_to_stationary", math.inf),
                 tv_bound(num["n_jumps"]))]
    if mode == "simulate-pdmp":
        return [("histogram_l1", _pdmp_l1(cfg, out, scalars["outside_fraction"]),
                 pdmp_bound(num["n_jumps"]))]
    if mode == "invert-phi":
        return [("max_relative_error", scalars["max_relative_error"], PHI_BOUND)]
    return []


def accurate(certs: list) -> bool:
    return all(math.isfinite(v) and v <= bound for _, v, bound in certs)


def digest(out: Path) -> str:
    """SHA-256 over every CSV artifact under ``out``, by relative path."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
