import csv
import io
import json
import math

import numpy as np
import pytest

from spde_drift.cli import _write_trajectory_csv, main
from spde_drift.theory import asymptotic_constants

LINEAR_CONFIG = """
[model]
theta_true = 0.1
gamma = 0.5
nonlinearity = none
initial_modes = 0.0
n_sim = 8

[scheme]
dt = 0.01
t_final = 0.5
seed = 2024
backend = ou_exact

[estimators]
alpha = 0.5
n_list = 2, 4, 8
variants = full, partial, linear

[study]
n_trials = 6
histogram_n = 8
"""

ALLEN_CAHN_CONFIG = """
[model]
theta_true = 0.05
gamma = 0.6
nonlinearity = polynomial
poly_coeffs = 0, 1, 0, -1
initial_modes = 0.70710678118654752
n_sim = 8

[scheme]
dt = 0.005
t_final = 0.2
seed = 7

[estimators]
alpha = 0.6
n_list = 4, 8
"""


@pytest.fixture
def linear_cfg(tmp_path):
    path = tmp_path / "linear.cfg"
    path.write_text(LINEAR_CONFIG)
    return path


@pytest.fixture
def cubic_cfg(tmp_path):
    path = tmp_path / "cubic.cfg"
    path.write_text(ALLEN_CAHN_CONFIG)
    return path


def test_simulate_writes_artifacts(cubic_cfg, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", str(cubic_cfg), "--out", str(out)]) == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,k,x"
    est = (out / "estimates.csv").read_text().splitlines()
    assert est[0] == "trial,variant,N,alpha,theta_hat,z"
    assert len(est) > 1


def test_estimate_prints_csv(cubic_cfg, capsys):
    assert main(["estimate", str(cubic_cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trial,variant,N,alpha,theta_hat,z"
    # full + partial + linear at two truncation levels
    assert len(lines) == 1 + 6


def test_invalid_theta_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(ALLEN_CAHN_CONFIG.replace("theta_true = 0.05", "theta_true = -1"))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "theta" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 3


def test_unknown_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(ALLEN_CAHN_CONFIG + "\nwhatever = 3\n")
    assert main(["estimate", str(bad)]) == 1
    assert "whatever" in capsys.readouterr().err


def test_mc_writes_all_artifacts(linear_cfg, tmp_path, capsys):
    out = tmp_path / "study"
    assert main(["mc", str(linear_cfg), "--out-dir", str(out), "--threads", "1"]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"estimates.csv", "summary.json", "median_band.svg", "mse.svg",
            "histogram.svg"} <= names
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "theta_true", "beta", "variance", "n_trials", "n_failed", "rows",
        "ks", "mse_slope", "histogram", "failures",
    }
    row_keys = set(summary["rows"][0])
    assert {"variant", "N", "median", "p2_5", "p97_5", "mse"} <= row_keys
    svg = (out / "median_band.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_mc_thread_count_does_not_change_output(linear_cfg, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["mc", str(linear_cfg), "--out-dir", str(out1), "--threads", "1"]) == 0
    assert main(["mc", str(linear_cfg), "--out-dir", str(out2), "--threads", "2"]) == 0
    assert (out1 / "estimates.csv").read_bytes() == (out2 / "estimates.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_mc_rerun_identical(linear_cfg, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    main(["mc", str(linear_cfg), "--out-dir", str(out1)])
    main(["mc", str(linear_cfg), "--out-dir", str(out2)])
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_rerun_is_identical(cubic_cfg, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["simulate", str(cubic_cfg), "--out", str(out1)]) == 0
    assert main(["simulate", str(cubic_cfg), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "estimates.csv").read_bytes() == (out2 / "estimates.csv").read_bytes()


def test_advise_burgers_normal(capsys):
    assert main(["advise", "--example", "burgers", "--gamma", "0.8",
                 "--alpha", "0.8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["estimators"]["full"]["status"] == "asymptotically_normal"
    assert out["estimators"]["full"]["rate"] == 1.5
    assert out["estimators"]["partial"]["status"] == "consistent_with_rate"
    assert out["estimators"]["partial"]["rate"] == 1.0


def test_advise_reaction_diffusion_all_normal(capsys):
    code = main([
        "advise", "--example", "reaction-diffusion", "--n", "1", "--mf", "3",
        "--gamma", "1.3", "--alpha", "1.3", "--odd", "--neg-leading",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    for variant in ("full", "partial", "linear"):
        assert out["estimators"][variant]["status"] == "asymptotically_normal"


def test_advise_low_gamma_reports_failed_hypothesis(capsys):
    assert main(["advise", "--example", "burgers", "--gamma", "0.3",
                 "--alpha", "0.3"]) == 0
    out = json.loads(capsys.readouterr().out)
    failed = [h["name"] for h in out["hypotheses"] if not h["satisfied"]]
    assert any("gamma > 1/2" in name for name in failed)
    assert out["estimators"]["full"]["status"] == "not_covered"


def test_advise_inconsistent_query_rejected(capsys):
    assert main(["advise", "--example", "burgers", "--n", "2", "--gamma", "0.8",
                 "--alpha", "0.8"]) == 1
    assert "one-dimensional" in capsys.readouterr().err


def test_theory_outputs_constants(capsys):
    assert main(["theory", "--theta", "0.02", "--T", "1", "--Lambda",
                 str(math.pi**2), "--beta", "2", "--gamma", "0.4",
                 "--alpha", "0.4"]) == 0
    out = json.loads(capsys.readouterr().out)
    c = asymptotic_constants(0.02, 1.0, math.pi**2, 2.0, 0.4, 0.4)
    assert out["V"] == pytest.approx(c.variance, rel=1e-15)
    assert out["c_mean"] == pytest.approx(c.c_mean, rel=1e-15)
    assert out["rate_exponent"] == 1.5


def test_theory_inadmissible_alpha(capsys):
    assert main(["theory", "--theta", "0.1", "--T", "1", "--Lambda", "9.87",
                 "--beta", "2", "--gamma", "0.5", "--alpha", "0.3"]) == 1
    assert "alpha > gamma - (1+1/beta)/8" in capsys.readouterr().err


def test_bad_subcommand_is_validation_error(capsys):
    assert main(["frobnicate"]) == 1


def test_trajectory_csv_matches_csv_writer_bytes(tmp_path):
    times = np.array([0.0, 1e-300, 0.1, 2.0])
    trajectory = np.array([
        [0.0, -0.0, 1e-300],
        [1e300, 5e-324, 3.0],
        [-2.5e-310, 1.0 / 3.0, -7.0],
        [np.inf, -1e300, 123456789.0],
    ])
    path = tmp_path / "trajectory.csv"
    _write_trajectory_csv(path, times, trajectory)
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(("t", "k", "x"))
    for t, row in zip(times, trajectory):
        for k, x in enumerate(row, start=1):
            writer.writerow((repr(float(t)), k, repr(float(x))))
    assert path.read_bytes() == ref.getvalue().encode()


@pytest.mark.parametrize("command", ["mc", "simulate"])
def test_estimates_z_fields_are_plain_floats(command, linear_cfg, cubic_cfg, tmp_path):
    out = tmp_path / command
    if command == "mc":
        argv = ["mc", str(linear_cfg), "--out-dir", str(out)]
    else:
        argv = ["simulate", str(cubic_cfg), "--out", str(out)]
    assert main(argv) == 0
    with open(out / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert math.isfinite(float(row["z"]))
