import json
import math
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burstkin.cli import (
    ExperimentConfig,
    _parse_sweep,
    main,
    parse_config,
    render_config,
    run_experiment,
    run_sweep,
)
from burstkin.continuous import GridDensity, mean_identity_residual
from burstkin.errors import (
    BurstkinError,
    ModelError,
    NumericalBlowup,
    ParseError,
    ValidationError,
)


DISCRETE_CFG = """\
# minimal stationary run
run.mode = stationary-discrete

model.kind = discrete
model.rate = constant
model.rate_level = 1.0
model.decay = 1.0
model.burst = geometric
model.burst_b = 0.5

numeric.n_max = 200
"""

PDMP_CFG = """\
run.mode = simulate-pdmp
model.kind = continuous
model.rate = constant
model.rate_level = 2.0
model.decay = 1.0
model.burst = exponential
model.burst_b = 1.0
numeric.y0 = 1.0
numeric.n_jumps = 500
"""


EVOLVE_CFG = """\
run.mode = evolve-master
model.kind = discrete
model.rate = linear
model.rate_base = 2.0
model.rate_slope = 0.3
model.decay = 1.0
model.burst = geometric
model.burst_b = 0.5
numeric.n_max = 40
numeric.t_end = 6.0
"""

KERNEL_CFG = """\
run.mode = kernel-fixed-point
model.kind = continuous
model.rate = hill
model.rate_scale = 2.0
model.rate_numer = 2.0
model.rate_denom_const = 1.0
model.rate_denom_coeff = 1.0
model.rate_exponent = 2.0
model.decay = 1.0
model.burst = exponential
model.burst_b = 1.0
numeric.n_knots = 1024
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_resolves_all_defaults():
    cfg = parse_config(DISCRETE_CFG)
    assert cfg.mode == "stationary-discrete"
    assert cfg.numeric == {"seed": 0, "stream": 0, "n_max": 200, "tail_tol": 1e-8}
    assert cfg.model["rate_level"] == 1.0
    assert cfg.out_dir == "out"


def test_render_parse_round_trip():
    cfg = parse_config(DISCRETE_CFG)
    text = render_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert render_config(again) == text


# the order in which a canonical config lists the numeric keys of any mode
CANONICAL_NUMERIC_ORDER = (
    "n_max", "t_end", "n0", "y0", "n_jumps", "n_snapshots", "n_knots",
    "n_bins", "n_scan", "n_probes", "x_ref", "y_probe",
    "window_lo", "window_hi", "tail_tol", "tol", "quad_tol",
    "floor", "seed", "stream",
)

MINIMAL_NUMERIC = {
    "stationary-discrete": "numeric.n_max = 50\n",
    "stationary-continuous": "",
    "evolve-master": "numeric.n_max = 50\nnumeric.t_end = 2.0\n",
    "simulate-discrete": "numeric.n0 = 0\nnumeric.n_jumps = 10\n",
    "simulate-pdmp": "numeric.y0 = 1.0\nnumeric.n_jumps = 10\n",
    "kernel-fixed-point": "",
    "invert-phi": "",
    "modes": "",
    "ergodicity": "numeric.y_probe = 5.0\n",
}


@pytest.mark.parametrize("mode", sorted(MINIMAL_NUMERIC))
def test_render_lists_numeric_keys_in_canonical_order(mode):
    discrete = mode in ("stationary-discrete", "evolve-master", "simulate-discrete", "modes")
    model = SIM_MODELS["simulate-discrete" if discrete else "simulate-pdmp"]
    cfg = parse_config(f"run.mode = {mode}\n{model}{MINIMAL_NUMERIC[mode]}")
    text = render_config(cfg)
    keys = [line.split(" = ")[0].removeprefix("numeric.")
            for line in text.splitlines() if line.startswith("numeric.")]
    assert keys == [k for k in CANONICAL_NUMERIC_ORDER if k in cfg.numeric]
    assert sorted(keys) == sorted(cfg.numeric)
    assert parse_config(text) == cfg
    assert render_config(parse_config(text)) == text


def test_parse_rejects_duplicates_with_line_number():
    bad = DISCRETE_CFG + "model.decay = 2.0\n"
    with pytest.raises(ParseError, match="line 12.*duplicate"):
        parse_config(bad)


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError, match="section.key = value"):
        parse_config("just some words\n")
    with pytest.raises(ParseError, match="section.key"):
        parse_config("mode = stationary-discrete\n")


def test_parse_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="not a recognized key"):
        parse_config(DISCRETE_CFG + "numeric.t_end = 4.0\n")
    for key in ("rel_tol", "abs_tol"):    # the exact propagator has no tolerances
        with pytest.raises(ValidationError, match="not a recognized key"):
            parse_config(EVOLVE_CFG + f"numeric.{key} = 1e-8\n")
    # the closed-form kernel fixed point has no iteration cap, and its grid's
    # leak tolerance is a constant
    for key in ("max_iter = 5000", "leak_tol = 2e-5"):
        with pytest.raises(ValidationError, match="not a recognized key"):
            parse_config(KERNEL_CFG + f"numeric.{key}\n")
    with pytest.raises(ValidationError, match="unknown section"):
        parse_config(DISCRETE_CFG + "extra.thing = 1\n")


def test_parse_rejects_missing_required():
    text = DISCRETE_CFG.replace("numeric.n_max = 200\n", "")
    with pytest.raises(ValidationError, match="numeric.n_max"):
        parse_config(text)
    with pytest.raises(ValidationError, match="model.burst_b"):
        parse_config(DISCRETE_CFG.replace("model.burst_b = 0.5\n", ""))


def test_parse_runs_model_validation():
    with pytest.raises(ValidationError, match=r"\(0, 1\)"):
        parse_config(DISCRETE_CFG.replace("burst_b = 0.5", "burst_b = 1.5"))


def test_parse_checks_mode_model_pairing():
    text = DISCRETE_CFG.replace("stationary-discrete", "simulate-pdmp")
    with pytest.raises(ValidationError, match="continuous"):
        parse_config(text)
    with pytest.raises(ValidationError, match="not available"):
        parse_config(DISCRETE_CFG.replace("model.burst = geometric",
                                          "model.burst = exponential"))


def test_parse_applies_overrides():
    cfg = parse_config(DISCRETE_CFG, overrides={("numeric", "seed"): "7"})
    assert cfg.numeric["seed"] == 7
    # overrides participate in validation like any other entry
    with pytest.raises(ValidationError):
        parse_config(DISCRETE_CFG, overrides={("numeric", "seed"): "not-an-int"})


def test_parse_type_errors_name_the_key():
    with pytest.raises(ValidationError, match="numeric.n_max must be an integer"):
        parse_config(DISCRETE_CFG.replace("n_max = 200", "n_max = 2.5"))
    with pytest.raises(ValidationError, match="model.decay must be a number"):
        parse_config(DISCRETE_CFG.replace("decay = 1.0", "decay = fast"))


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------

def test_run_stationary_discrete_artifacts(tmp_path):
    cfg = parse_config(DISCRETE_CFG, overrides={("output", "dir"): str(tmp_path / "o")})
    summary = run_experiment(cfg)
    assert summary.artifacts == ["pmf.csv"]
    assert summary.scalars["family"] == "1F0"
    assert summary.scalars["family_residual"] <= 1e-12
    assert summary.scalars["mean_identity_residual"] <= 1e-10

    lines = (tmp_path / "o" / "pmf.csv").read_text().splitlines()
    assert lines[0] == "n,p"
    assert len(lines) == 202  # header + states 0..200

    with open(tmp_path / "o" / "summary.json", encoding="utf-8") as fh:
        blob = json.load(fh)
    assert blob["mode"] == "stationary-discrete"
    assert "numeric.n_max = 200" in blob["config"]


@pytest.mark.parametrize("rate, label", [
    # a linear-scale complex product of the parameters overflows here (exit 2)
    ("model.rate = hill\nmodel.rate_scale = 800\nmodel.rate_numer = 1\n"
     "model.rate_denom_const = 1\nmodel.rate_denom_coeff = 1\nmodel.rate_exponent = 1",
     "2F1"),
    # (1 - s)^shape = 0.5^4000 underflows: a linear-scale pmf is all zeros
    ("model.rate = constant\nmodel.rate_level = 2000", "1F0"),
], ids=["hill-800", "constant-2000"])
def test_stationary_discrete_family_holds_at_large_burst_frequencies(tmp_path, rate, label):
    text = (DISCRETE_CFG.replace("model.rate = constant\nmodel.rate_level = 1.0", rate)
            .replace("n_max = 200", "n_max = 12000"))
    rc = main(["stationary-discrete", "--config", str(write_cfg(tmp_path, text)),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    scalars = json.loads((tmp_path / "o" / "summary.json").read_text())["scalars"]
    assert scalars["family"] == label
    assert scalars["family_residual"] <= 1e-12


def test_stationary_discrete_high_hill_degree_runs_without_a_family(tmp_path, monkeypatch):
    # degree 1e5 would ask np.roots for about 80 GB: the recognizer must
    # decline before any root is sought
    def refuse(*args, **kwargs):
        raise AssertionError("np.roots called")
    monkeypatch.setattr(np, "roots", refuse)
    text = DISCRETE_CFG.replace(
        "model.rate = constant\nmodel.rate_level = 1.0",
        "model.rate = hill\nmodel.rate_scale = 2\nmodel.rate_numer = 1\n"
        "model.rate_denom_const = 1\nmodel.rate_denom_coeff = 1\nmodel.rate_exponent = 1e5")
    rc = main(["stationary-discrete", "--config", str(write_cfg(tmp_path, text)),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    scalars = json.loads((tmp_path / "o" / "summary.json").read_text())["scalars"]
    assert "family" not in scalars and "family_residual" not in scalars


def test_sweep_writes_the_family_label(tmp_path):
    cfg = parse_config(DISCRETE_CFG, overrides={("output", "dir"): str(tmp_path / "s")})
    assert run_sweep(cfg, "model.rate_level=0.5:1.5:2") == 0
    lines = (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()
    column = lines[0].split(",").index("family")
    assert [line.split(",")[column] for line in lines[1:]] == ["1F0", "1F0"]


def test_rerun_rewrites_identical_artifacts(tmp_path):
    cfg = parse_config(DISCRETE_CFG, overrides={("output", "dir"): str(tmp_path / "o")})
    run_experiment(cfg)
    first = (tmp_path / "o" / "pmf.csv").read_bytes()
    run_experiment(cfg)
    assert (tmp_path / "o" / "pmf.csv").read_bytes() == first


def test_cli_end_to_end_discrete(tmp_path, capsys):
    p = write_cfg(tmp_path, DISCRETE_CFG)
    rc = main(["stationary-discrete", "--config", str(p),
               "--out", str(tmp_path / "art")])
    assert rc == 0
    assert (tmp_path / "art" / "pmf.csv").exists()
    out = capsys.readouterr().out
    assert "pmf.csv" in out


def test_cli_seed_override_lands_in_summary(tmp_path):
    p = write_cfg(tmp_path, PDMP_CFG)
    rc = main(["simulate-pdmp", "--config", str(p), "--seed", "42",
               "--out", str(tmp_path / "a")])
    assert rc == 0
    blob = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert blob["seed"] == 42
    assert "numeric.seed = 42" in blob["config"]


def test_cli_same_seed_same_bytes(tmp_path):
    p = write_cfg(tmp_path, PDMP_CFG)
    assert main(["simulate-pdmp", "--config", str(p), "--seed", "42",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate-pdmp", "--config", str(p), "--seed", "42",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b
    c_head = a.decode().splitlines()[0]
    assert c_head == "k,t,y_pre,y_post"


def test_cli_exit_code_for_bad_config(tmp_path, capsys):
    p = write_cfg(tmp_path, DISCRETE_CFG.replace("burst_b = 0.5", "burst_b = 1.5"))
    rc = main(["stationary-discrete", "--config", str(p)])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert main(["stationary-discrete", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_exit_code_for_numeric_failure(tmp_path, capsys):
    # linear rate slope at 0.6 beats the geometric-tail margin 0.5
    text = DISCRETE_CFG.replace(
        "model.rate = constant\nmodel.rate_level = 1.0",
        "model.rate = linear\nmodel.rate_base = 1.0\nmodel.rate_slope = 0.6")
    p = write_cfg(tmp_path, text)
    rc = main(["stationary-discrete", "--config", str(p),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "NotNormalizable" in capsys.readouterr().err


def test_kernel_fixed_point_refuses_a_model_without_a_law(tmp_path, capsys):
    # slope/decay 1.5 reaches 1/b = 1: stationary-continuous refuses this
    # pairing, and the kernel route must not certify a density for it
    p = write_cfg(tmp_path, "run.mode = kernel-fixed-point\nmodel.kind = continuous\n"
                  "model.rate = linear\nmodel.rate_base = 2.0\nmodel.rate_slope = 1.5\n"
                  "model.decay = 1.0\nmodel.burst = exponential\nmodel.burst_b = 1.0\n"
                  "numeric.n_knots = 512\n")
    assert main(["kernel-fixed-point", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
    assert "NotIntegrable" in capsys.readouterr().err
    assert not list((tmp_path / "x").glob("*.csv"))


def test_non_finite_scalar_is_a_numeric_error(tmp_path, monkeypatch, capsys):
    # summary.json is strict JSON: a NaN or inf scalar is a numeric failure
    # that names its key, never a raw ValueError or a half-written file
    import burstkin.cli as cli

    def non_finite(cfg, model, out):
        level = cfg.model["rate_level"]
        return {"fine": 1.0, "residual": math.nan if level < 1.0 else math.inf}, []

    monkeypatch.setitem(cli._RUNNERS, "stationary-discrete", non_finite)
    for level in ("0.5", "1.5"):
        out = tmp_path / f"o{level}"
        cfg = parse_config(DISCRETE_CFG, overrides={("model", "rate_level"): level,
                                                    ("output", "dir"): str(out)})
        with pytest.raises(NumericalBlowup, match="residual"):
            run_experiment(cfg)
        assert not (out / "summary.json").exists()
    p = write_cfg(tmp_path, DISCRETE_CFG)
    assert main(["stationary-discrete", "--config", str(p),
                 "--out", str(tmp_path / "cli")]) == 2
    err = capsys.readouterr().err
    assert "NumericalBlowup" in err and "residual" in err
    cfg = parse_config(DISCRETE_CFG, overrides={("output", "dir"): str(tmp_path / "s")})
    assert run_sweep(cfg, "model.rate_level=0.5:1.5:2") == 0
    rows = (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["numeric-error:NumericalBlowup"] * 2


SIM_MODELS = {
    "simulate-discrete": "model.kind = discrete\nmodel.rate = constant\n"
                         "model.rate_level = 1.0\nmodel.decay = 1.0\n"
                         "model.burst = geometric\nmodel.burst_b = 0.5\n",
    "simulate-pdmp": "model.kind = continuous\nmodel.rate = constant\n"
                     "model.rate_level = 2.0\nmodel.decay = 1.0\n"
                     "model.burst = exponential\nmodel.burst_b = 1.0\n",
}


@pytest.mark.parametrize("mode, numeric", [
    ("simulate-discrete", "numeric.n0 = 0\nnumeric.n_jumps = -1\n"),
    ("simulate-discrete", "numeric.n0 = 0\nnumeric.n_jumps = 0\n"),
    ("simulate-pdmp", "numeric.y0 = 1.0\nnumeric.n_jumps = 50\nnumeric.n_bins = -5\n"),
    ("simulate-pdmp", "numeric.y0 = 1.0\nnumeric.n_jumps = 50\nnumeric.n_bins = 1\n"),
])
def test_simulators_refuse_empty_runs_before_writing(tmp_path, capsys, mode, numeric):
    # n_jumps < 1 and n_bins < 2 are config errors: exit 1, no artifact
    text = f"run.mode = {mode}\n{SIM_MODELS[mode]}{numeric}"
    cfg = parse_config(text, overrides={("output", "dir"): str(tmp_path / "run")})
    with pytest.raises(ModelError):
        run_experiment(cfg)
    assert not list((tmp_path / "run").glob("*.csv"))
    p = write_cfg(tmp_path, text)
    assert main([mode, "--config", str(p), "--out", str(tmp_path / "cli")]) == 1
    assert "error" in capsys.readouterr().err
    assert not list((tmp_path / "cli").glob("*"))


SIM_STARTS = {"simulate-discrete": "numeric.n0 = 0\n", "simulate-pdmp": "numeric.y0 = 1.0\n"}


@pytest.mark.parametrize("mode", sorted(SIM_MODELS))
@pytest.mark.parametrize("numeric, flags", [
    ("numeric.seed = -1\n", []),
    ("numeric.stream = -2\n", []),
    ("", ["--seed", "-1"]),
], ids=["config-seed", "config-stream", "flag-seed"])
def test_simulators_refuse_a_negative_seed_or_stream(tmp_path, capsys, mode, numeric, flags):
    # numpy's SeedSequence refuses them with a bare ValueError; to the CLI
    # they are a config error: exit 1, a one-line message, no artifact
    text = (f"run.mode = {mode}\n{SIM_MODELS[mode]}{SIM_STARTS[mode]}"
            f"numeric.n_jumps = 50\n{numeric}")
    p = write_cfg(tmp_path, text)
    assert main([mode, "--config", str(p), "--out", str(tmp_path / "cli")] + flags) == 1
    err = capsys.readouterr().err
    assert "must be >= 0" in err and "Traceback" not in err
    assert not list((tmp_path / "cli").glob("*"))


@pytest.mark.parametrize("mode", sorted(SIM_MODELS))
def test_a_seed_sweep_reports_negative_seeds_as_config_errors(tmp_path, capsys, mode):
    text = f"run.mode = {mode}\n{SIM_MODELS[mode]}{SIM_STARTS[mode]}numeric.n_jumps = 50\n"
    p = write_cfg(tmp_path, text)
    assert main([mode, "--config", str(p), "--out", str(tmp_path / "s"),
                 "--sweep", "numeric.seed=-2:1:4"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["config-error"] * 2 + ["ok"] * 2
    assert not list((tmp_path / "s" / "sweep_0000").glob("*.csv"))


def test_pdmp_reports_potential_evals_per_jump(tmp_path):
    linear = PDMP_CFG.replace("model.rate = constant\nmodel.rate_level = 2.0",
                              "model.rate = linear\nmodel.rate_base = 1.5\n"
                              "model.rate_slope = 0.3")
    counts = {}
    for name, text in (("constant", PDMP_CFG), ("linear", linear)):
        cfg = parse_config(text, overrides={("output", "dir"): str(tmp_path / name)})
        scalars = run_experiment(cfg).scalars
        counts[name] = scalars["potential_evals_per_jump"]
        blob = json.loads((tmp_path / name / "summary.json").read_text(),
                          parse_constant=_no_bare_constants)
        for key in ("potential_evals_per_jump", "bins_crossed_per_jump"):
            assert blob["scalars"][key] == scalars[key]
        # no mass leaves the bins here, so each segment meets the bin it ends in
        assert 1.0 <= scalars["bins_crossed_per_jump"] <= 64.0
    # the constant rate flows in closed form; Newton needs a handful
    assert counts["constant"] == 0.0
    assert 1.0 <= counts["linear"] <= 8.0


@pytest.mark.parametrize("y0", ["5e-324", "1e-320", "1e-307"])
def test_pdmp_near_the_float_floor_runs_finite_or_is_a_config_error(tmp_path, capsys, y0):
    # a subnormal y0 once ended in a bare ValueError from math.log, or in
    # inf in the first histogram bin, whose width was subnormal
    text = PDMP_CFG.replace("numeric.y0 = 1.0", f"numeric.y0 = {y0}")
    out = tmp_path / "out"
    rc = main(["simulate-pdmp", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if rc == 1:
        assert "simulate_pdmp" in err and not list(out.glob("*"))
        return
    assert rc == 0
    json.loads((out / "summary.json").read_text(), parse_constant=_no_bare_constants)
    for csv in out.glob("*.csv"):
        body = csv.read_text()
        assert "inf" not in body and "nan" not in body, csv.name


def test_cli_modes_continuous(tmp_path):
    text = """\
run.mode = modes
model.kind = continuous
model.rate = constant
model.rate_level = 2.0
model.decay = 1.0
model.burst = exponential
model.burst_b = 1.0
"""
    p = write_cfg(tmp_path, text)
    rc = main(["modes", "--config", str(p), "--out", str(tmp_path / "m")])
    assert rc == 0
    lines = (tmp_path / "m" / "modes.csv").read_text().splitlines()
    assert lines[0] == "x_root,kind"
    root, kind = lines[1].split(",")
    assert kind == "max"
    assert float(root) == pytest.approx(1.0, abs=1e-8)


HILL_EXP_MODEL = """\
model.kind = continuous
model.rate = hill
model.rate_scale = 2.0
model.rate_numer = 2.0
model.rate_denom_const = 1.0
model.rate_denom_coeff = 0.0625
model.rate_exponent = 4.0
model.decay = 1.0
model.burst = exponential
model.burst_b = 0.2
"""


# a switch-like Hill law: x^250 overflows for every x above 17
STEEP_HILL_MODEL = HILL_EXP_MODEL.replace(
    "model.rate_denom_coeff = 0.0625\nmodel.rate_exponent = 4.0",
    "model.rate_denom_coeff = 1.0\nmodel.rate_exponent = 250.0").replace(
    "model.burst_b = 0.2", "model.burst_b = 1.0")


@pytest.mark.parametrize("mode, numeric", [
    ("stationary-continuous", ""),
    ("stationary-continuous", "numeric.x_ref = 20.0\n"),   # anchor past the overflow
    ("kernel-fixed-point", ""),
    ("modes", ""),
    ("invert-phi", ""),
])
def test_steep_hill_modes_return_results(tmp_path, mode, numeric):
    p = write_cfg(tmp_path, f"run.mode = {mode}\n{STEEP_HILL_MODEL}{numeric}")
    assert main([mode, "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    blob = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert blob["artifacts"]
    assert all(math.isfinite(v) for v in blob["scalars"].values())


def _no_bare_constants(token):
    raise AssertionError(f"summary.json holds the bare token {token}")


# the repressible twin of the steep law: its rate is subnormal past
# x = 17 and 0.0 past x = 20
VANISHING_HILL_MODEL = STEEP_HILL_MODEL.replace("model.rate_numer = 2.0",
                                                "model.rate_numer = 0.0")


def test_invert_phi_skips_points_where_the_rate_underflows(tmp_path):
    p = write_cfg(tmp_path, f"run.mode = invert-phi\n{VANISHING_HILL_MODEL}")
    assert main(["invert-phi", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "summary.json").read_text()
    scalars = json.loads(text, parse_constant=_no_bare_constants)["scalars"]
    assert 0 < scalars["rate_underflow_points"] < len(
        (tmp_path / "out" / "phi.csv").read_text().splitlines()) - 1
    assert math.isfinite(scalars["max_relative_error"])


def test_invert_phi_error_on_the_peak_rate_scale(tmp_path):
    # max_relative_error reads ~1e292 here, from recoveries off by 1e-15
    # where the true rate is near 1e-300.  On the peak rate's scale the
    # error sits at the switch x = 1, where the rate falls from 2 to 0
    # within less than one knot gap, so it shrinks like the gap does.
    errors = []
    for n_knots in (1024, 4096):
        out = tmp_path / f"out{n_knots}"
        p = write_cfg(tmp_path, f"run.mode = invert-phi\n{VANISHING_HILL_MODEL}"
                                f"numeric.n_knots = {n_knots}\n")
        assert main(["invert-phi", "--config", str(p), "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        scalars = json.loads(text, parse_constant=_no_bare_constants)["scalars"]
        errors.append(scalars["max_error_vs_peak_rate"])
    assert 0.0 < errors[0] <= 0.1
    assert errors[1] <= errors[0] / 3.0


def test_kernel_fixed_point_where_the_rate_underflows(tmp_path):
    # the kernel weights are formed from ln rate, which stays finite
    # where the rate itself is 0.0
    p = write_cfg(tmp_path, f"run.mode = kernel-fixed-point\n{VANISHING_HILL_MODEL}")
    assert main(["kernel-fixed-point", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "summary.json").read_text()
    scalars = json.loads(text, parse_constant=_no_bare_constants)["scalars"]
    assert scalars["fixed_point_residual"] < 1e-12
    assert scalars["mean_identity_residual"] < 1e-4


def _constant_rate_law(a0, x_ref):
    """Constant rate a0 x exponential bursts of mean 1 at unit decay: u is Gamma(a0, 1)."""
    return ("run.mode = stationary-continuous\nmodel.kind = continuous\n"
            f"model.rate = constant\nmodel.rate_level = {a0!r}\nmodel.decay = 1.0\n"
            "model.burst = exponential\nmodel.burst_b = 1.0\n"
            f"numeric.x_ref = {x_ref!r}\n")


def _read_density(out):
    x, u = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1, unpack=True)
    assert np.all(np.isfinite(u)) and np.all(u >= 0.0)
    return x, u


def test_stationary_continuous_far_from_the_anchor_is_finite(tmp_path):
    # e^{-Q} at x_ref = 1000 underflowed at every knot, and the grid values
    # were 0/0: exit 0 with 1024 nan rows.  Formed in log scale, the law is
    # Gamma(1000, 1), and c = Gamma(1000) / 1000^1000
    p = write_cfg(tmp_path, _constant_rate_law(1000.0, 1000.0))
    assert main(["stationary-continuous", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    x, u = _read_density(tmp_path / "out")
    mean = float(np.dot(np.diff(x), 0.5 * (x[1:] * u[1:] + x[:-1] * u[:-1])))
    assert mean == pytest.approx(1000.0, rel=1e-9)
    text = (tmp_path / "out" / "summary.json").read_text()
    scalars = json.loads(text, parse_constant=_no_bare_constants)["scalars"]
    assert "normalization" not in scalars
    assert scalars["ln_normalization"] == pytest.approx(
        math.lgamma(1000.0) - 1000.0 * math.log(1000.0), rel=1e-12)


def test_stationary_continuous_returns_a_law_far_above_the_burst_scale(tmp_path):
    # ln c is 6188.7, so e^{ln c} overflowed (a raw OverflowError).  The law
    # is a bump near x = 837, far above the burst tail, where grids that
    # followed that tail held none of it (GridTooNarrow); the law window
    # holds all of it but 1e-12 of each tail
    text = ("run.mode = stationary-continuous\nmodel.kind = continuous\n"
            "model.rate = linear\nmodel.rate_base = 0.00164\nmodel.rate_slope = 1.1404\n"
            "model.decay = 0.07283\nmodel.burst = gaussian-exp\n"
            "model.burst_lin = 0.8287\nmodel.burst_quad = 0.00886\n")
    p = write_cfg(tmp_path, text)
    assert main(["stationary-continuous", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    x, u = _read_density(tmp_path / "out")
    assert 700.0 < x[0] < x[np.argmax(u)] < x[-1] < 1000.0
    scalars = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=_no_bare_constants)["scalars"]
    assert scalars["ln_normalization"] == pytest.approx(6188.72, abs=0.01)
    assert scalars["mass_outside_grid"] < 2e-12
    model = parse_config(text).build_model()
    assert mean_identity_residual(model, GridDensity(x, u)) < 1e-12


@pytest.mark.parametrize("a0", [1000.0, 3000.0])
def test_stationary_continuous_anchor_invariance_at_large_burst_frequencies(tmp_path, a0):
    # at x_ref = 1, e^{-Q} reaches x^a0 and overflowed; acceptance 11's bound
    values = []
    for x_ref in (1.0, a0):
        out = tmp_path / f"out{x_ref}"
        p = write_cfg(tmp_path, _constant_rate_law(a0, x_ref))
        assert main(["stationary-continuous", "--config", str(p), "--out", str(out)]) == 0
        values.append(_read_density(out)[1])
    assert float(np.max(np.abs(values[0] - values[1]))) <= 1e-10


# base coefficients of every continuous rate and burst family the CLI
# offers; the contract property scales each by 10^U(-4, 4).  Hill
# exponents are drawn apart, unscaled
_RATE_BASE = {
    "constant": {"rate_level": 2.0},
    "linear": {"rate_base": 2.0, "rate_slope": 0.3},
    "quadratic": {"rate_base": 2.0, "rate_slope": 0.1, "rate_quad": 0.05},
    "hill": {"rate_scale": 2.0, "rate_numer": 2.0, "rate_denom_const": 1.0,
             "rate_denom_coeff": 1.0},
}
_BURST_BASE = {
    "exponential": {"burst_b": 1.0},
    "power-tail": {"burst_offset": 1.0, "burst_exponent": 6.0},
    "gaussian-exp": {"burst_lin": 1.0, "burst_quad": 0.4},
    "finite-support": {"burst_cap": 8.0, "burst_exponent": 3.0},
}


# the same for the discrete rate families; a scaled linear slope often
# outruns decay, where no stationary law exists and the chain starts at n0
_DISCRETE_RATE_BASE = {
    "constant": {"rate_level": 2.0},
    "linear": {"rate_base": 2.0, "rate_slope": 0.3},
    "hill": _RATE_BASE["hill"],
    "truncated-linear": {"rate_base": 2.0, "rate_slope": -0.2, "rate_cutoff": 10.0},
}


@st.composite
def density_mode_configs(draw):
    mode = draw(st.sampled_from(["stationary-continuous", "invert-phi", "kernel-fixed-point",
                                 "simulate-pdmp", "simulate-discrete", "evolve-master", "modes",
                                 "stationary-discrete", "ergodicity"]))
    kind = ("discrete" if mode in ("simulate-discrete", "evolve-master", "stationary-discrete")
            else "continuous")
    if mode == "modes":
        kind = draw(st.sampled_from(["discrete", "continuous"]))

    def scaled(base):
        return base * 10.0 ** draw(st.floats(-4.0, 4.0))

    if kind == "discrete":
        rate = draw(st.sampled_from(sorted(_DISCRETE_RATE_BASE)))
        lines = [f"run.mode = {mode}", "model.kind = discrete", f"model.rate = {rate}",
                 f"model.decay = {scaled(1.0)!r}", "model.burst = geometric",
                 f"model.burst_b = {draw(st.floats(0.05, 0.95))!r}"]
        lines += [f"model.{k} = {scaled(v)!r}" for k, v in _DISCRETE_RATE_BASE[rate].items()]
        if rate == "hill":
            lines.append(f"model.rate_exponent = {draw(st.floats(0.5, 4.0))!r}")
        if mode == "simulate-discrete":
            lines += [f"numeric.n0 = {draw(st.integers(0, 12))}", "numeric.n_jumps = 200"]
        if mode == "evolve-master":
            n_max = draw(st.integers(3, 200))
            lines += [f"numeric.n_max = {n_max}", f"numeric.n0 = {draw(st.integers(0, n_max))}",
                      f"numeric.t_end = {10.0 ** draw(st.floats(-3.0, 300.0))!r}"]
        if mode == "stationary-discrete":
            lines.append(f"numeric.n_max = {draw(st.integers(1, 2000))}")
        return "\n".join(lines) + "\n"
    rate = draw(st.sampled_from(sorted(_RATE_BASE)))
    burst = draw(st.sampled_from(sorted(_BURST_BASE)))
    lines = [f"run.mode = {mode}", "model.kind = continuous", f"model.rate = {rate}",
             f"model.decay = {scaled(1.0)!r}", f"model.burst = {burst}"]
    lines += [f"model.{k} = {scaled(v)!r}" for k, v in _RATE_BASE[rate].items()]
    if rate == "hill":
        lines.append(f"model.rate_exponent = {draw(st.floats(0.5, 4.0))!r}")
    lines += [f"model.{k} = {scaled(v)!r}" for k, v in _BURST_BASE[burst].items()]
    if mode == "simulate-pdmp":
        lines += ["numeric.y0 = 1.0", "numeric.n_jumps = 200"]
    if mode == "ergodicity":
        lines.append(f"numeric.y_probe = {scaled(5.0)!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=900)
@given(text=density_mode_configs(), rerun=st.integers(0, 9))
def test_density_and_pdmp_modes_return_finite_artifacts_or_a_burstkin_error(text, rerun):
    # the contract of all nine modes: the three built on a grid density,
    # the PDMP and the ergodicity margin, over every continuous rate x burst
    # pair, the stationary law, the jump chain and the master equation's
    # projected or full-cap propagator, from t_end = 1e-3 to 1e300, over
    # every discrete rate family, and the mode census on both: each run
    # returns finite CSVs and a summary.json that parses strictly, or
    # raises a BurstkinError.  No warning and no other exception may escape.
    # One draw in ten runs again and must write the same CSV bytes
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = parse_config(text, overrides={("output", "dir"): tmp})
            summary = run_experiment(cfg)
        except BurstkinError:
            return
        json.loads((Path(tmp) / "summary.json").read_text(),
                   parse_constant=_no_bare_constants)
        blobs = {name: (Path(tmp) / name).read_bytes() for name in summary.artifacts}
        for name in summary.artifacts:
            if name == "modes.csv":     # x_root,kind, and maybe no row at all
                rows = (Path(tmp) / name).read_text().splitlines()[1:]
                assert all(math.isfinite(float(row.split(",")[0])) for row in rows), name
                continue
            table = np.loadtxt(Path(tmp) / name, delimiter=",", skiprows=1, ndmin=2)
            assert np.all(np.isfinite(table)), name
        if rerun == 0:
            assert run_experiment(cfg).artifacts == summary.artifacts
            for name, blob in blobs.items():
                assert (Path(tmp) / name).read_bytes() == blob, name


@pytest.mark.parametrize("rate", [
    "model.rate = constant\nmodel.rate_level = 0.01",
    "model.rate = linear\nmodel.rate_base = 0.01\nmodel.rate_slope = 0.1",
])
def test_pdmp_root_below_the_float_range_exits_2(tmp_path, capsys, rate):
    # at rate 0.01 one wait in about 1700 flows the state below e^-744
    text = PDMP_CFG.replace("model.rate = constant\nmodel.rate_level = 2.0", rate).replace(
        "numeric.n_jumps = 500", "numeric.n_jumps = 20000")
    p = write_cfg(tmp_path, text)
    assert main(["simulate-pdmp", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "RangeError" in capsys.readouterr().err


@pytest.mark.parametrize("mode, numeric", [
    ("ergodicity", "numeric.y_probe = 0.0\n"),
    ("ergodicity", "numeric.y_probe = 5.0\nnumeric.quad_tol = 0.0\n"),  # no sums agree to it
    ("ergodicity", "numeric.y_probe = 5.0\nnumeric.quad_tol = -1e-10\n"),
    ("modes", "numeric.n_scan = -1\n"),
    ("modes", "numeric.n_scan = 0\n"),
    ("modes", "numeric.n_scan = 1\n"),    # would report no roots for a three-root model
])
def test_scan_sizes_out_of_range_are_config_errors(tmp_path, capsys, mode, numeric):
    p = write_cfg(tmp_path, f"run.mode = {mode}\n{HILL_EXP_MODEL}{numeric}")
    assert main([mode, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    assert "error" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("numeric", [
    "numeric.window_hi = 0.5\n",
    "numeric.window_lo = 0.5\n",
    "numeric.window_lo = -1.0\nnumeric.window_hi = 0.5\n",
    "numeric.window_lo = 0.5\nnumeric.window_hi = -1.0\n",
])
def test_modes_rejects_a_half_set_window(tmp_path, capsys, numeric):
    # the scan once fell back to the automatic window without a word
    p = write_cfg(tmp_path, f"run.mode = modes\n{HILL_EXP_MODEL}{numeric}")
    assert main(["modes", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "numeric.window_lo" in err and "numeric.window_hi" in err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_all_runner_modes_produce_artifacts(tmp_path):
    base_cont = """\
model.kind = continuous
model.rate = constant
model.rate_level = 2.0
model.decay = 1.0
model.burst = exponential
model.burst_b = 1.0
"""
    cases = [
        ("stationary-continuous", base_cont, "numeric.n_knots = 256\n",
         ["density.csv"]),
        ("kernel-fixed-point", base_cont, "numeric.n_knots = 256\n",
         ["vstar.csv", "density.csv"]),
        ("invert-phi", base_cont, "numeric.n_knots = 512\n", ["phi.csv"]),
        ("ergodicity", base_cont,
         "numeric.y_probe = 10.0\nnumeric.n_probes = 4\nnumeric.quad_tol = 1e-8\n",
         ["margins.csv"]),
        ("evolve-master", """\
model.kind = discrete
model.rate = constant
model.rate_level = 1.0
model.decay = 1.0
model.burst = geometric
model.burst_b = 0.5
""", "numeric.n_max = 60\nnumeric.t_end = 5.0\n", ["trace.csv", "final_pmf.csv"]),
        ("simulate-discrete", """\
model.kind = discrete
model.rate = constant
model.rate_level = 1.0
model.decay = 1.0
model.burst = geometric
model.burst_b = 0.5
""", "numeric.n0 = 0\nnumeric.n_jumps = 2000\n", ["occupancy.csv"]),
    ]
    for i, (mode, model_block, numeric_block, artifacts) in enumerate(cases):
        out = tmp_path / f"case{i}"
        text = f"run.mode = {mode}\n{model_block}{numeric_block}"
        cfg = parse_config(text, overrides={("output", "dir"): str(out)})
        summary = run_experiment(cfg)
        assert summary.artifacts == artifacts, mode
        for name in artifacts:
            assert (out / name).exists(), (mode, name)
        if mode == "kernel-fixed-point":
            assert summary.scalars["mean_identity_residual"] < 1e-2
        if mode == "stationary-continuous":
            # the law's mass off the grid, not the grid density's own mass
            assert 0.0 < summary.scalars["mass_outside_grid"] < 1e-9


def test_run_ergodicity_scalars(tmp_path):
    text = """\
run.mode = ergodicity
model.kind = continuous
model.rate = hill
model.rate_scale = 1.0
model.rate_numer = 1.0
model.rate_denom_const = 1.0
model.rate_denom_coeff = 1.0
model.rate_exponent = 1.0
model.decay = 1.0
model.burst = exponential
model.burst_b = 0.5
numeric.y_probe = 100.0
numeric.n_probes = 4
numeric.quad_tol = 1e-8
"""
    cfg = parse_config(text, overrides={("output", "dir"): str(tmp_path / "e")})
    summary = run_experiment(cfg)
    assert summary.scalars["drift_negative"] is True
    assert summary.scalars["max_margin"] < 0.0


def test_evolve_master_reruns_are_byte_identical(tmp_path):
    cfg = parse_config(EVOLVE_CFG, overrides={("output", "dir"): str(tmp_path / "a")})
    first = run_experiment(cfg)
    blobs = {name: (tmp_path / "a" / name).read_bytes() for name in first.artifacts}
    again = run_experiment(cfg)
    assert first.artifacts == again.artifacts == ["trace.csv", "final_pmf.csv"]
    for name, blob in blobs.items():
        assert (tmp_path / "a" / name).read_bytes() == blob
    scalars = json.loads((tmp_path / "a" / "summary.json").read_text())["scalars"]
    assert scalars["max_cap_mass"] == first.scalars["max_cap_mass"]
    # the stationary law leaves about 1e-5 at state 40; a wider cap far less
    assert 1e-7 < scalars["max_cap_mass"] < 1e-3
    assert scalars["max_mass_drift"] <= 1e-12


def test_kernel_fixed_point_reruns_are_byte_identical(tmp_path):
    cfg = parse_config(KERNEL_CFG, overrides={("output", "dir"): str(tmp_path / "a")})
    first = run_experiment(cfg)
    assert first.artifacts == ["vstar.csv", "density.csv"]
    blobs = {name: (tmp_path / "a" / name).read_bytes() for name in first.artifacts}
    residual = json.loads((tmp_path / "a" / "summary.json").read_text())["scalars"][
        "fixed_point_residual"]
    again = run_experiment(cfg)
    assert again.artifacts == first.artifacts
    for name, blob in blobs.items():
        assert (tmp_path / "a" / name).read_bytes() == blob
    scalars = json.loads((tmp_path / "a" / "summary.json").read_text())["scalars"]
    assert scalars["fixed_point_residual"] == residual
    assert residual <= 1e-13


def test_evolve_master_rejects_empty_snapshot_counts(tmp_path):
    for count in (0, -3):
        cfg = parse_config(EVOLVE_CFG + f"numeric.n_snapshots = {count}\n",
                           overrides={("output", "dir"): str(tmp_path / "z")})
        with pytest.raises(ValidationError, match="n_snapshots"):
            run_experiment(cfg)


def test_evolve_master_extreme_horizons(tmp_path, capsys):
    text = EVOLVE_CFG.replace("numeric.t_end = 6.0", "numeric.t_end = 1e300")
    cfg = parse_config(text, overrides={("output", "dir"): str(tmp_path / "far")})
    started = time.perf_counter()
    summary = run_experiment(cfg)
    assert time.perf_counter() - started < 1.0
    assert summary.scalars["final_l1"] <= 1e-10
    assert summary.scalars["max_mass_drift"] <= 1e-12
    p = write_cfg(tmp_path, EVOLVE_CFG.replace("numeric.t_end = 6.0", "numeric.t_end = 1e308"))
    # t_end / n_snapshots * |G| overflows
    assert main(["evolve-master", "--config", str(p), "--out", str(tmp_path / "inf")]) == 2
    assert "NumericalBlowup" in capsys.readouterr().err


SIM_DISCRETE_CFG = """\
run.mode = simulate-discrete
model.kind = discrete
model.rate = constant
model.rate_level = 1.0
model.decay = 1.0
model.burst = geometric
model.burst_b = 0.5
numeric.n0 = 0
numeric.n_jumps = 2000
numeric.seed = 11
"""


def test_evolve_master_reports_its_squarings(tmp_path):
    counts = {}
    for t_end in ("6.0", "1e300"):
        cfg = parse_config(EVOLVE_CFG, overrides={("numeric", "t_end"): t_end,
                                                  ("output", "dir"): str(tmp_path / t_end)})
        counts[t_end] = run_experiment(cfg).scalars["squarings"]
    # 6/25 |G|_1 is a few units: a handful of halvings, every one squared;
    # 1e300/25 needs about 1000, and the squarings stop once mixed
    assert 0 < counts["6.0"] < 10
    assert 0 < counts["1e300"] <= 25


def test_simulate_discrete_memory_does_not_grow_with_the_chain(tmp_path):
    # the CLI reads the occupancy, the clock and the jump count, never the path
    def peak(n_jumps):
        cfg = parse_config(SIM_DISCRETE_CFG, overrides={
            ("numeric", "n_jumps"): str(n_jumps), ("output", "dir"): str(tmp_path / str(n_jumps))})
        tracemalloc.start()
        try:
            assert run_experiment(cfg).scalars["jumps_taken"] == n_jumps
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000)      # lazy imports out of the count
    short, long = peak(30_000), peak(300_000)
    assert long <= 2**20
    assert long <= short + 2**16


def test_simulate_discrete_scores_an_occupancy_of_one_state(tmp_path):
    # at seed 18 the one lane starts at 0 and leaves it, so the occupancy
    # holds state 0 alone; the stationary solver needs two states, and its
    # ModelError once failed the run
    cfg = parse_config(SIM_DISCRETE_CFG, overrides={
        ("numeric", "n_jumps"): "1", ("numeric", "seed"): "18", ("output", "dir"): str(tmp_path)})
    scalars = run_experiment(cfg).scalars
    assert (tmp_path / "occupancy.csv").read_text() == "n,p\n0,1\n"
    assert scalars["start"] == "stationary"
    # the law is solved on {0, 1}, where p(1)/p(0) = rate(0)/decay(1) = 1
    assert scalars["tv_to_stationary"] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_spec_parsing():
    cfg = parse_config(DISCRETE_CFG)
    (section, key), values = _parse_sweep("model.rate_level=0.5:1.5:3", cfg)
    assert (section, key) == ("model", "rate_level")
    assert np.allclose(values, [0.5, 1.0, 1.5])
    with pytest.raises(ParseError):
        _parse_sweep("model.rate_level 0.5:1.5:3", cfg)
    with pytest.raises(ParseError):
        _parse_sweep("model.rate_level=0.5:1.5", cfg)
    with pytest.raises(ValidationError):
        _parse_sweep("run.mode=0:1:2", cfg)
    with pytest.raises(ValidationError):
        _parse_sweep("model.missing=0:1:2", cfg)
    with pytest.raises(ValidationError):
        _parse_sweep("model.rate_level=0:1:0", cfg)
    # the sweep sets each point's stream to its index, so a swept stream
    # would be listed in sweep_summary.csv but never used
    with pytest.raises(ValidationError, match="numeric.stream"):
        _parse_sweep("numeric.stream=7:9:3", cfg)


def test_sweep_writes_one_row_per_point(tmp_path):
    cfg = parse_config(DISCRETE_CFG, overrides={("output", "dir"): str(tmp_path / "s")})
    rc = run_sweep(cfg, "model.rate_level=0.5:1.5:3")
    assert rc == 0
    lines = (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[:4] == ["index", "model.rate_level", "status", "detail"]
    for i, line in enumerate(lines[1:]):
        row = line.split(",")
        assert row[0] == str(i)
        assert row[2] == "ok"
        assert (tmp_path / "s" / f"sweep_{i:04d}" / "pmf.csv").exists()
    # each point runs on its own generator stream
    blob = json.loads((tmp_path / "s" / "sweep_0002" / "summary.json").read_text())
    assert blob["stream"] == 2


def test_sweep_classifies_bad_regions_without_aborting(tmp_path):
    cfg = parse_config(DISCRETE_CFG, overrides={("output", "dir"): str(tmp_path / "s")})
    rc = run_sweep(cfg, "model.burst_b=0.8:1.2:3")
    assert rc == 0
    rows = (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()[1:]
    statuses = [line.split(",")[2] for line in rows]
    assert statuses[0] == "ok"
    assert all(s == "config-error" for s in statuses[1:])  # b = 1.0, 1.2


def test_sweep_numeric_error_rows(tmp_path):
    text = DISCRETE_CFG.replace(
        "model.rate = constant\nmodel.rate_level = 1.0",
        "model.rate = linear\nmodel.rate_base = 1.0\nmodel.rate_slope = 0.1")
    cfg = parse_config(text, overrides={("output", "dir"): str(tmp_path / "s")})
    rc = run_sweep(cfg, "model.rate_slope=0.1:0.9:3")
    assert rc == 0
    rows = (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()[1:]
    statuses = [line.split(",")[2] for line in rows]
    assert statuses[0] == "ok"
    assert statuses[1] == "numeric-error:NotNormalizable"  # slope 0.5 at the margin
    assert statuses[2] == "numeric-error:NotNormalizable"


def test_sweep_records_internal_errors(tmp_path, monkeypatch):
    # a raw exception in one point is a defect, but the scan still writes
    # its summary and classifies the point
    import burstkin.cli as cli

    def broken(cfg, model, out):
        if cfg.model["rate_level"] > 1.0:
            raise ZeroDivisionError("float division by zero")
        return {}, []

    monkeypatch.setitem(cli._RUNNERS, "stationary-discrete", broken)
    cfg = parse_config(DISCRETE_CFG, overrides={("output", "dir"): str(tmp_path / "s")})
    assert run_sweep(cfg, "model.rate_level=0.5:1.5:3") == 0
    rows = (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()[1:]
    statuses = [line.split(",")[2] for line in rows]
    assert statuses == ["ok", "ok", "internal-error:ZeroDivisionError"]
    assert rows[2].split(",")[3] == "float division by zero"


def test_sweep_integer_keys_round(tmp_path):
    cfg = parse_config(DISCRETE_CFG, overrides={("output", "dir"): str(tmp_path / "s")})
    assert run_sweep(cfg, "numeric.n_max=100:200:3") == 0
    for i, expected in enumerate((100, 150, 200)):
        lines = (tmp_path / "s" / f"sweep_{i:04d}" / "pmf.csv").read_text().splitlines()
        assert len(lines) == expected + 2


def test_sweep_points_match_standalone_runs(tmp_path):
    # point i of a sweep is the standalone run of its config with stream = i
    cfg = parse_config(SIM_DISCRETE_CFG, overrides={("output", "dir"): str(tmp_path / "s")})
    assert run_sweep(cfg, "model.rate_level=0.5:1.5:3") == 0
    swept = []
    for i, level in enumerate(("0.5", "1.0", "1.5")):
        solo = parse_config(SIM_DISCRETE_CFG, overrides={
            ("model", "rate_level"): level, ("numeric", "stream"): str(i),
            ("output", "dir"): str(tmp_path / f"solo{i}")})
        run_experiment(solo)
        blob = (tmp_path / "s" / f"sweep_{i:04d}" / "occupancy.csv").read_bytes()
        assert blob == (tmp_path / f"solo{i}" / "occupancy.csv").read_bytes()
        swept.append(blob)
    assert len(set(swept)) == 3


def test_cli_sweep_end_to_end(tmp_path):
    p = write_cfg(tmp_path, DISCRETE_CFG)
    rc = main(["stationary-discrete", "--config", str(p),
               "--out", str(tmp_path / "sw"),
               "--sweep", "model.rate_level=0.5:1.5:3"])
    assert rc == 0
    assert (tmp_path / "sw" / "sweep_summary.csv").exists()
