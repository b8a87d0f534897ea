import configparser
import csv
import errno
import io
import json
import math
import os
import re
import signal
import tracemalloc

from dataclasses import replace

import numpy as np
import pytest
from conftest import KERNEL_MODULES

from spde_drift import _reprcsv, cli, mc
from spde_drift.cli import _write_trajectory_csv, main
from spde_drift.config import load_config
from spde_drift.errors import AdmissibilityWarning
from spde_drift.simulate import simulate_model
from spde_drift.svgplot import render_band_plot, render_mse_plot
from spde_drift.theory import AdvisorQuery, advise, asymptotic_constants

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


def test_estimate_out_writes_the_bytes_it_prints(cubic_cfg, tmp_path, capsys):
    assert main(["estimate", str(cubic_cfg)]) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "estimates.csv"
    assert main(["estimate", str(cubic_cfg), "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_bytes() == printed.encode()


def test_simulate_writes_the_recovery_trajectory_of_a_coupled_model(tmp_path, capsys):
    cfg = tmp_path / "fhn.cfg"
    cfg.write_text(FHN_CONFIG)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 0
    run = load_config(cfg)
    # 10 steps, so the command keeps every one
    sim = simulate_model(run.model, replace(run.scheme, snapshot_stride=1), run.est_req)
    _write_trajectory_csv(tmp_path / "w.csv", sim.times, sim.w_trajectory)
    assert (out / "trajectory_w.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()
    assert capsys.readouterr().out == (
        f"wrote {out / 'trajectory.csv'}, {out / 'trajectory_w.csv'} and "
        f"{out / 'estimates.csv'}\n"
    )


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


INADMISSIBLE_MC = """
import os, sys
from spde_drift import mc
from spde_drift.cli import main
os.dup2(1, 2)  # every process's warnings come back as output
mc._usable_cpus = lambda: 3  # two real workers beside the parent on any host
sys.exit(main(sys.argv[1:]))
"""


def test_mc_warns_once_per_study(tmp_path, fresh_python):
    """The parent warns after the request check; no chunk warns, so three
    processes print one warning."""
    cfg = tmp_path / "inadmissible.cfg"
    cfg.write_text(with_value(LINEAR_CONFIG, "estimators", "alpha", "0.1"))
    out = fresh_python(INADMISSIBLE_MC, "mc", cfg, "--out-dir", tmp_path / "out",
                       "--threads", 3)
    assert out.count("AdmissibilityWarning") == 1, out


def test_mc_with_inadmissible_alpha_writes_unstandardized_artifacts(tmp_path):
    # alpha = 0.1 is not above gamma - (1 + 1/beta)/8 = 0.3125: no variance
    cfg = tmp_path / "inadmissible.cfg"
    cfg.write_text(with_value(LINEAR_CONFIG, "estimators", "alpha", "0.1"))
    out = tmp_path / "study"
    with pytest.warns(AdmissibilityWarning):
        assert main(["mc", str(cfg), "--out-dir", str(out), "--threads", "1"]) == 0
    with open(out / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 3 * 3 and all(row["z"] == "" for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["variance"] is None and summary["ks"] == {}
    assert summary["histogram"]["counts"] == {}
    assert not (out / "histogram.svg").exists()
    # the rate reference is anchored at the first variant's MSE at the first N
    n_values, beta = [2, 4, 8], summary["beta"]
    mse = {v: [r["mse"] for r in summary["rows"] if r["variant"] == v]
           for v in ("full", "partial", "linear")}
    reference = [mse["full"][0] * (n / 2) ** (-(beta + 1.0)) for n in n_values]
    assert (out / "mse.svg").read_text() == render_mse_plot(n_values, mse, reference)


def test_mc_with_one_truncation_level_writes_every_artifact(tmp_path):
    # the N axis of the band and MSE plots has one point
    cfg = tmp_path / "one_n.cfg"
    cfg.write_text(with_value(LINEAR_CONFIG, "estimators", "n_list", "8"))
    out = tmp_path / "study"
    assert main(["mc", str(cfg), "--out-dir", str(out), "--threads", "1"]) == 0
    assert {p.name for p in out.iterdir()} == {
        "estimates.csv", "summary.json", "median_band.svg", "mse.svg", "histogram.svg"
    }
    for name in ("median_band.svg", "mse.svg"):
        svg = (out / name).read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        assert "nan" not in svg and "inf" not in svg


def test_mc_whose_statistics_overflow_writes_every_artifact(tmp_path):
    # noise-free paths from 1e-140 give estimates near 1e279, whose squared
    # errors leave the float range: each MSE is written as null and the
    # plots draw the finite values only
    text = ALLEN_CAHN_CONFIG + "\n[study]\nn_trials = 3\n"
    for section, key, value in [("model", "initial_modes", "1e-140"), ("scheme", "dt", "1e-3"),
                                ("scheme", "t_final", "0.01"), ("scheme", "noise_scale", "0")]:
        text = with_value(text, section, key, value)
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text)
    out = tmp_path / "study"
    assert main(["mc", str(cfg), "--out-dir", str(out), "--threads", "1"]) == 0
    assert {p.name for p in out.iterdir()} == {
        "estimates.csv", "summary.json", "median_band.svg", "mse.svg", "histogram.svg"
    }
    for name in ("median_band.svg", "mse.svg", "histogram.svg"):
        svg = (out / name).read_text()
        assert "nan" not in svg and "inf" not in svg

    def reject(constant):
        raise ValueError(f"summary.json holds {constant}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert all(row["mse"] is None for row in summary["rows"])
    assert set(summary["mse_slope"].values()) == {None}


@pytest.mark.parametrize("scale, label", [(1e-6, ">1e-06<"), (1e6, ">1e+06<")])
def test_log_axis_ticks_far_from_one_are_labelled_in_exponent_form(scale, label):
    mse = {"full": [4.0 * scale, 2.0 * scale, scale]}
    svg = render_mse_plot([2, 4, 8], mse, [8.0 * scale, 1.0 * scale, 0.125 * scale])
    assert label in svg


@pytest.mark.parametrize("hi", [1e20, np.nextafter(1e20, 2e20)])
def test_an_axis_span_below_the_float_spacing_still_gets_its_ticks(hi):
    """A span no tick step can advance over, here a band whose percentiles
    and true parameter agree to within one ulp of 1e20, is widened."""
    a = np.array([1e20, hi])
    svg = render_band_plot([4, 8], {"full": {"median": a, "p2_5": a, "p97_5": a}}, 1e20)
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")


@pytest.mark.parametrize("mse, reference", [
    ([1e308, 1e308], [1.0, 1.0]),  # a log span outside the float range
    ([1.0, 0.5], [0.0, 0.0]),  # points a log axis cannot place
], ids=["non-finite-span", "zero-reference"])
def test_an_mse_plot_the_axes_cannot_hold_as_given_is_still_drawn(mse, reference):
    svg = render_mse_plot([4, 8], {"full": mse}, reference)
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert "nan" not in svg and "inf" not in svg


def test_mc_without_a_study_section_is_validation_error(cubic_cfg, tmp_path, capsys):
    out = tmp_path / "study"
    assert main(["mc", str(cubic_cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: the mc subcommand needs a [study] section\n"
    assert not out.exists()


def test_mc_thread_count_does_not_change_output(linear_cfg, tmp_path, monkeypatch):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)  # one real worker on any host
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


@pytest.mark.parametrize("flags, query", [
    ([], AdvisorQuery("burgers", 0.8, 0.9)),
    (["--n", "2", "--mf", "3", "--odd", "--neg-leading", "--theta", "0.5",
      "--t-final", "2", "--lambda", "3"],
     AdvisorQuery("reaction_diffusion", 0.8, 0.9, n=2, m_f=3, leading_coeff_negative=True,
                  m_f_odd=True, theta=0.5, t_final=2.0, lambda_scale=3.0)),
], ids=["required-only", "every-flag"])
def test_advise_prints_the_advice_of_its_query(capsys, flags, query):
    # a flag left out takes the AdvisorQuery field's default
    example = query.example.replace("_", "-")
    assert main(["advise", "--example", example, "--gamma", "0.8", "--alpha", "0.9"]
                + flags) == 0
    expected = json.dumps(advise(query).to_json_dict(), indent=2, sort_keys=True)
    assert capsys.readouterr().out == expected + "\n"


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


BASE_ARGS = {
    "theory": ["theory", "--theta", "0.1", "--T", "1", "--Lambda", "9.87",
               "--beta", "2", "--gamma", "0.5", "--alpha", "0.5"],
    "advise": ["advise", "--example", "burgers", "--gamma", "0.8", "--alpha", "0.8"],
}
NON_FINITE_ARGS = [
    ("theory", "--theta", "inf", "theta"),
    ("theory", "--T", "nan", "t_final"),
    ("theory", "--Lambda", "inf", "lambda_scale"),
    ("theory", "--alpha", "nan", "alpha"),
    ("advise", "--theta", "inf", "theta"),
    ("advise", "--gamma", "nan", "gamma"),
    ("advise", "--alpha", "inf", "alpha"),
    # finite arguments whose constants are not finite floats
    ("theory", "--theta", "1e300", "c_var"),
    ("theory", "--theta", "1e-300", "c_var"),
    ("theory", "--alpha", "1e6", "c_mean"),
    ("theory", "--T", "1e-320", "variance"),
    ("advise", "--t-final", "1e-320", "variance"),
    ("advise", "--alpha", "1e300", "c_mean"),
]


@pytest.mark.parametrize(
    "command, flag, value, name", NON_FINITE_ARGS,
    ids=[f"{c}{f}={v}" for c, f, v, _ in NON_FINITE_ARGS],
)
def test_non_finite_theory_and_advise_arguments_are_validation_errors(
    command, flag, value, name, capsys
):
    argv = list(BASE_ARGS[command])
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert re.search(rf"^error: .*\b{name}\b", captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("command, base, theta", [
    ("mc", "linear", "1e-300"), ("estimate", "cubic", "1e300"),
])
def test_runs_without_a_finite_variance_write_blank_z(command, base, theta, tmp_path,
                                                      capsys):
    """A theta_true whose asymptotic constants leave the float range still
    runs: its estimates are written unstandardized."""
    cfg = tmp_path / "run.cfg"
    text = {"linear": LINEAR_CONFIG, "cubic": ALLEN_CAHN_CONFIG}[base]
    cfg.write_text(with_value(text, "model", "theta_true", theta))
    out = tmp_path / "out"
    argv = [command, str(cfg)]
    argv += ["--out-dir", str(out), "--threads", "1"] if command == "mc" else ["--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    with open(out / "estimates.csv" if command == "mc" else out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["z"] == "" for row in rows)


def test_bad_subcommand_is_validation_error(capsys):
    assert main(["frobnicate"]) == 1


def spread(rng, *shape):
    """Normals over 20 decades, so values take every layout of ``repr``."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-10, 10, size=shape)


def test_trajectory_csv_matches_csv_writer_bytes(tmp_path, monkeypatch):
    """The file is what ``csv.writer`` writes of ``repr`` floats: for special
    values, for one value, and for a trajectory whose snapshots fill several
    blocks and part of another."""
    rng = np.random.default_rng(5)
    multi = spread(rng, 4001, 3)
    multi[:3680:80, 1] = [np.nan, np.inf, -np.inf, 0.0, -0.0] * 9 + [1e16]
    cases = [
        (np.array([0.0, 1e-300, 0.1, 2.0]), np.array([
            [0.0, -0.0, 1e-300],
            [1e300, 5e-324, 3.0],
            [-2.5e-310, 1.0 / 3.0, -7.0],
            [np.inf, -1e300, 123456789.0],
        ])),
        (np.array([0.25]), np.array([[-1e-5]])),
        (np.arange(4001) * 1e-4, multi),
    ]
    blocks = []

    def recorded(values):
        blocks.append(values.size)
        return slots(values)

    slots = _reprcsv._slots
    monkeypatch.setattr(_reprcsv, "_slots", recorded)
    for times, trajectory in cases:
        path = tmp_path / "trajectory.csv"
        _write_trajectory_csv(path, times, trajectory)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(("t", "k", "x"))
        for t, row in zip(times, trajectory):
            for k, x in enumerate(row, start=1):
                writer.writerow((repr(float(t)), k, repr(float(x))))
        assert path.read_bytes() == ref.getvalue().encode()
    rows = blocks[4::2]  # the snapshots of each block of the last case
    assert len(rows) >= 3 and sum(rows) == 4001 and rows[-1] < rows[0]


def test_trajectory_csv_peak_memory_does_not_grow_with_snapshots(tmp_path):
    """Past one block, the writer's peak allocation is the same for 4 times
    the snapshots: it holds one block of lines at a time."""
    rng = np.random.default_rng(6)
    peaks = []
    for n_rows in (6000, 24000):
        times, trajectory = np.arange(n_rows) * 1e-3, spread(rng, n_rows, 3)
        tracemalloc.start()
        _write_trajectory_csv(tmp_path / "trajectory.csv", times, trajectory)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


def repr_cases():
    """The doubles of the kernel's property test: specials, the edges of
    the exponent and mantissa ranges, integers, decimal powers and random
    bit patterns, each with its negative and its two neighbours, and the
    subnormals of the smallest mantissas, which are their own neighbours."""
    rng = np.random.default_rng(7)
    u = np.uint64
    exponents = np.arange(2047, dtype=u) << u(52)
    cases = [
        rng.integers(0, 2**64, size=10_000, dtype=u),  # any bit pattern
        np.array([0, 0x7FF0000000000000, 0x7FF8000000000000], dtype=u),  # 0, inf, nan
        exponents, exponents | u(1), exponents | u((1 << 52) - 1),  # every binary exponent
        np.array([float(2**n) - d for n in range(63) for d in (0, 1)]).view(u),
        rng.integers(-(2**62), 2**62, size=2_000).astype(np.float64).view(u),
        np.array([float(f"{d}e{k}") for d in range(1, 10) for k in range(-324, 309)]).view(u),
        np.array([1e-5, 1e-4, 1e15, 1e16]).view(u),
    ]
    x = np.concatenate(cases).view(np.float64)
    x = np.concatenate([x, -x])
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    return np.concatenate([x, np.arange((1 << 16) + 1, dtype=u).view(np.float64)])


def test_kernel_writes_what_repr_writes():
    """Each value's slot, NULs dropped, is its ``repr``, within the byte
    columns that ``_slots`` names for the block."""
    x = repr_cases()
    slots, spans = _reprcsv._slots(x)
    newline = np.full((len(x), 1), ord("\n"), dtype=np.uint8)
    text = np.concatenate([slots[:, a:b] for a, b in spans] + [newline], axis=1)
    got = text.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    want = [repr(v) for v in x.tolist()]
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:5]


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


# the cubic u^3 from a large start blows up at step 6 in every trial
BLOW_UP_CONFIG = """
[model]
theta_true = 0.01
gamma = 1.0
nonlinearity = polynomial
poly_coeffs = 0, 0, 0, 1
initial_modes = 10
n_sim = 4

[scheme]
dt = 0.1
t_final = 10
seed = 1
noise_scale = 0

[estimators]
alpha = 1.0
n_list = 4
variants = full, linear

[study]
n_trials = 3
"""


@pytest.fixture
def blow_up_cfg(tmp_path):
    path = tmp_path / "blow_up.cfg"
    path.write_text(BLOW_UP_CONFIG)
    return path


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_blow_up_exits_with_runtime_code(command, blow_up_cfg, tmp_path, capsys):
    assert main([command, str(blow_up_cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: trajectory blew up at step 6, mode 1\n"
    assert captured.out == ""


def test_mc_blow_up_exits_with_runtime_code_and_flushes_report(
    blow_up_cfg, tmp_path, capsys
):
    out = tmp_path / "study"
    with pytest.warns(UserWarning, match="omitted"):
        code = main(["mc", str(blow_up_cfg), "--out-dir", str(out), "--threads", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: 3 of 3 trials failed\n"
    assert captured.out == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_failed"] == 3
    assert [f["trial"] for f in summary["failures"]] == [0, 1, 2]
    assert all(
        f["reason"] == "BlowUpError: trajectory blew up at step 6, mode 1"
        for f in summary["failures"]
    )
    assert (out / "estimates.csv").read_bytes() == b"trial,variant,N,alpha,theta_hat,z\r\n"


TEST_PID = os.getpid()
RUN_CHUNK = mc._run_chunk


def _killed_chunk(spec, trials, setup=None):
    """The real chunk in the study's parent; a worker process is ended by
    SIGKILL, as by the OOM killer."""
    if os.getpid() == TEST_PID:
        return RUN_CHUNK(spec, trials, setup)
    os.kill(os.getpid(), signal.SIGKILL)


def test_mc_lost_worker_exits_with_runtime_code(linear_cfg, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mc, "_run_chunk", _killed_chunk)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)  # one real worker on any host
    out = tmp_path / "study"
    assert main(["mc", str(linear_cfg), "--out-dir", str(out), "--threads", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: a worker process died (killed by a signal or out of memory); "
        "trials 3-5 were not run\n"
    )
    assert captured.out == ""
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # the dead worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_fork_that_fails_is_runtime_error(linear_cfg, tmp_path, capsys, monkeypatch):
    pipes, pipe = [], os.pipe

    def recorded_pipe():
        fds = pipe()
        pipes.extend(fds)
        return fds

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    out = tmp_path / "study"
    assert main(["mc", str(linear_cfg), "--out-dir", str(out), "--threads", "2"]) == 2
    captured = capsys.readouterr()
    cause = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    assert captured.err == (
        f"error: could not start a worker process ({cause}); run with fewer --threads\n"
    )
    assert captured.out == "" and not out.exists()
    assert len(pipes) == 2
    for fd in pipes:  # both ends of the worker's pipe were closed
        with pytest.raises(OSError):
            os.fstat(fd)


def _failing_chunk(spec, trials, setup=None):
    """The real chunk in the study's parent; a worker process raises."""
    if os.getpid() == TEST_PID:
        return RUN_CHUNK(spec, trials, setup)
    raise MemoryError


def test_mc_worker_error_is_raised_by_the_parent(linear_cfg, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mc, "_run_chunk", _failing_chunk)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)  # one real worker on any host
    out = tmp_path / "study"
    assert main(["mc", str(linear_cfg), "--out-dir", str(out), "--threads", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # no worker is left
        os.waitpid(-1, os.WNOHANG)


FHN_CONFIG = """
[model]
theta_true = 0.02
gamma = 0.8
nonlinearity = fhn
a = 0.5
b = 1.0
epsilon = 0.1
initial_modes = 0.5
initial_w_modes = 0.1
n_sim = 4

[scheme]
dt = 0.01
t_final = 0.1
seed = 3

[estimators]
alpha = 0.8
n_list = 4
"""


def with_value(text, section, key, value):
    """The config ``text`` with ``key`` in ``section`` set to ``value``."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    parser[section][key] = value
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


@pytest.mark.parametrize("base, section, key, value", [
    ("linear", "study", "histogram_bin_width", "nan"),
    ("linear", "study", "histogram_range", "0, inf"),
    ("linear", "scheme", "dt", "1e-320"),
    ("linear", "scheme", "dt", "1e-300"),  # t_final / dt above 2**53
    ("linear", "scheme", "noise_scale", "nan"),
    ("linear", "scheme", "noise_scale", "inf"),
    ("linear", "estimators", "alpha", "nan"),
    ("linear", "estimators", "alpha", "inf"),
    ("linear", "model", "theta_true", "inf"),
    ("linear", "model", "gamma", "inf"),
    ("linear", "model", "domain_length", "1e-300"),  # (pi / L)**2 overflows
    ("linear", "model", "domain_length", "1e200"),  # (pi / L)**2 underflows to 0
    ("fhn", "model", "initial_w_modes", "0.1, nan"),
    ("fhn", "model", "b", "nan"),
    ("fhn", "model", "epsilon", "inf"),
    ("fhn", "model", "sigma", "nan"),
    ("fhn", "model", "sigma_w", "inf"),
    ("fhn", "model", "gamma_w", "nan"),
])
def test_non_finite_numbers_are_validation_errors(
    base, section, key, value, tmp_path, capsys
):
    text = {"linear": LINEAR_CONFIG, "fhn": FHN_CONFIG}[base]
    bad = tmp_path / "bad.cfg"
    bad.write_text(with_value(text, section, key, value))
    assert main(["estimate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert re.search(rf"^error: .*\b{key}\b", captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("command, flag", [("simulate", "--out"), ("mc", "--out-dir")])
def test_output_path_under_a_regular_file_is_io_error(
    command, flag, linear_cfg, tmp_path, capsys
):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = [command, str(linear_cfg), flag, str(blocker / "out")]
    assert main(argv + (["--threads", "1"] if command == "mc" else [])) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_bad_thread_count_in_environment_is_validation_error(
    linear_cfg, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("SPDE_DRIFT_THREADS", "two")
    assert main(["mc", str(linear_cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: SPDE_DRIFT_THREADS must be an integer, got 'two'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, env, message", [
    ("0", None, "threads must be an integer >= 1, got 0"),
    ("-3", None, "threads must be an integer >= 1, got -3"),
    (None, "-4", "SPDE_DRIFT_THREADS must be an integer >= 1, got -4"),
    (None, "0", "SPDE_DRIFT_THREADS must be an integer >= 1, got 0"),
], ids=["flag-0", "flag-negative", "env-negative", "env-0"])
def test_thread_count_below_one_is_validation_error_naming_its_source(
    flag, env, message, linear_cfg, tmp_path, monkeypatch, capsys
):
    if env is None:
        monkeypatch.delenv("SPDE_DRIFT_THREADS", raising=False)
    else:
        monkeypatch.setenv("SPDE_DRIFT_THREADS", env)
    argv = ["mc", str(linear_cfg), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ([] if flag is None else ["--threads", flag])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_degenerate_trajectory_is_runtime_error(tmp_path, capsys):
    # no initial condition and no noise: the path is zero and so is every D_N
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(with_value(LINEAR_CONFIG, "scheme", "noise_scale", "0"))
    assert main(["estimate", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(
        r"error: denominator D_2 = 0\.0 is numerically zero \(degenerate trajectory\)\n",
        captured.err,
    )
    assert captured.out == ""


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 8.00 GiB"), "error: Unable to allocate 8.00 GiB\n"),
])
def test_out_of_memory_is_runtime_error(exc, message, cubic_cfg, monkeypatch, capsys):
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(cli, "simulate_model", exhausted)
    assert main(["estimate", str(cubic_cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_histogram_n_defaults_to_the_largest_truncation_level(tmp_path):
    # a histogram_n outside n_list would leave the histogram empty
    cfg = tmp_path / "study.cfg"
    cfg.write_text(LINEAR_CONFIG.replace("histogram_n = 8\n", ""))
    out = tmp_path / "study"
    assert main(["mc", str(cfg), "--out-dir", str(out), "--threads", "1"]) == 0
    histogram = json.loads((out / "summary.json").read_text())["histogram"]
    assert histogram["N"] == 8
    assert set(histogram["counts"]) == {"full", "partial", "linear"}
    assert (out / "histogram.svg").exists()


@pytest.mark.parametrize("width, lo_hi", [("0.3", "-0.5, 0.5"), ("20", "-5, 5"),
                                          ("0.4", "-5, 4.9")],
                         ids=["partial_last_bin", "wider_than_range", "short_range"])
def test_bin_width_that_does_not_divide_the_range_is_validation_error(
    width, lo_hi, linear_cfg, tmp_path, capsys
):
    # bins that stop short of the range would drop the clipped outliers
    bad = tmp_path / "bad.cfg"
    text = with_value(LINEAR_CONFIG, "study", "histogram_bin_width", width)
    bad.write_text(with_value(text, "study", "histogram_range", lo_hi))
    out = tmp_path / "study"
    assert main(["mc", str(bad), "--out-dir", str(out), "--threads", "1"]) == 1
    captured = capsys.readouterr()
    assert re.search(r"^error: .*\bhistogram_bin_width\b", captured.err)
    assert captured.out == ""
    assert not out.exists()


def test_more_bins_than_the_value_budget_is_one_validation_error_line(tmp_path, capsys):
    # 1e301 bins: the edges are never built
    bad = tmp_path / "bad.cfg"
    bad.write_text(with_value(LINEAR_CONFIG, "study", "histogram_bin_width", "1e-300"))
    out = tmp_path / "study"
    assert main(["mc", str(bad), "--out-dir", str(out), "--threads", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: histogram_bin_width gives 1e+301 bins over histogram_range, more than 65536\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_bin_width_that_divides_the_range_keeps_every_outlier(tmp_path):
    # the last edge, -0.3 + 3 * 0.3, rounds to just below 0.6, so a z score
    # clipped to the range itself would miss every bin
    cfg = tmp_path / "narrow.cfg"
    text = with_value(LINEAR_CONFIG, "study", "histogram_bin_width", "0.3")
    cfg.write_text(with_value(text, "study", "histogram_range", "-0.3, 0.6"))
    out = tmp_path / "study"
    assert main(["mc", str(cfg), "--out-dir", str(out), "--threads", "1"]) == 0
    with open(out / "estimates.csv", newline="") as fh:
        z = [float(row["z"]) for row in csv.DictReader(fh) if row["N"] == "8"]
    assert max(z) > 0.6  # some scores are clipped to the top of the range
    hist = json.loads((out / "summary.json").read_text())["histogram"]
    assert len(hist["bin_edges"]) == 4
    for counts in hist["counts"].values():
        assert sum(counts) == 6


MALFORMED_INI = {
    "line without '='": (b"[model]\ntheta_true 0.1\n", 2),
    "no section header": (b"theta_true = 0.1\n[model]\n", 1),
    "repeated section": (b"[model]\ngamma = 1\n[scheme]\ndt = 1\n[model]\n", 5),
    "repeated key": (b"[model]\ngamma = 1\ngamma = 2\n", 3),
    "non-UTF-8 bytes": (b"[model]\ngamma = 1\nkind = \xff\xfe\n", 3),
}


@pytest.mark.parametrize("name", list(MALFORMED_INI))
def test_malformed_ini_is_validation_error_naming_the_line(name, tmp_path, capsys):
    content, line = MALFORMED_INI[name]
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(content)
    assert main(["estimate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(rf"error: {re.escape(str(bad))}, line {line}: .+\n", captured.err)
    assert captured.out == ""


def test_percent_sign_in_a_value_is_read_literally(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(LINEAR_CONFIG.replace("theta_true = 0.1", "theta_true = 10%"))
    assert main(["estimate", str(bad)]) == 1
    assert capsys.readouterr().err == "error: [model] theta_true: not a number: '10%'\n"


@pytest.mark.parametrize("base, section, key, value, reader", [
    ("linear", "model", "poly_coeffs", "0, 1, 0, -1", "nonlinearity = polynomial"),
    ("cubic", "model", "epsilon", "0.3", "nonlinearity = fhn"),
    ("cubic", "model", "initial_w_modes", "0.2", "nonlinearity = fhn"),
    ("cubic", "estimators", "bias_poly_coeffs", "0, 2", "bias_model = polynomial"),
], ids=["poly_coeffs", "epsilon", "initial_w_modes", "bias_poly_coeffs"])
def test_keys_the_model_does_not_read_are_validation_errors(
    base, section, key, value, reader, tmp_path, capsys
):
    text = {"linear": LINEAR_CONFIG, "cubic": ALLEN_CAHN_CONFIG}[base]
    bad = tmp_path / "bad.cfg"
    bad.write_text(with_value(text, section, key, value))
    assert main(["estimate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [{section}] {key}: only read when {reader}\n"
    assert captured.out == ""


def test_byte_order_mark_is_ignored(linear_cfg, tmp_path, capsys):
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + linear_cfg.read_bytes())
    assert load_config(bom) == load_config(linear_cfg)
    for name in ("repeated key", "non-UTF-8 bytes"):  # bad line 3, in the parser and the decoder
        content, line = MALFORMED_INI[name]
        bom.write_bytes(b"\xef\xbb\xbf" + content)
        assert main(["estimate", str(bom)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(bom))}, line 3: .+\n", err), err


SCIPY_OF_A_CALL = """
import json, sys
import spde_drift
from spde_drift import simulate
from spde_drift.cli import main

def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

at_import = scipy_modules()
FILTER, filtered = simulate._linear_filter, []

def linear_filter(*args):  # the drift-free filter, counted
    filtered.append(1)
    return FILTER(*args)

simulate._linear_filter = linear_filter
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(json.dumps([at_import, code, scipy_modules(), bool(filtered)]))
"""


@pytest.mark.parametrize("config, loaded", [("cubic_cfg", "False"), ("linear_cfg", "True")])
def test_only_drift_free_runs_load_scipy_signal(config, loaded, request, tmp_path,
                                                fresh_python):
    """Only a drift-free run calls the filter of ``scipy.signal.lfilter``,
    which ``import spde_drift`` binds: the run itself loads no scipy module."""
    cfg = request.getfixturevalue(config)
    out = fresh_python(SCIPY_OF_A_CALL, "simulate", cfg, "--out", tmp_path / "run")
    at_import, code, at_end, filtered = json.loads(out.splitlines()[-1])
    assert code == 0
    assert at_end == at_import
    assert filtered == (loaded == "True")
    assert (tmp_path / "run" / "estimates.csv").is_file()


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (BASE_ARGS["advise"], 0),
    (BASE_ARGS["theory"], 0),
    (["estimate", "{bad}"], 1),
    (["simulate", "{cfg}", "--out", "{out}"], 0),
], ids=["help", "advise", "theory", "validation-error", "simulate"])
def test_scipy_loads_only_with_the_kernels_that_use_it(argv, code, cubic_cfg, tmp_path,
                                                       fresh_python):
    """``import spde_drift`` loads at most scipy's three compiled kernels,
    and no scipy package ``__init__``; help, advice, theory, a failed
    validation and a run of a model with a drift load nothing more."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(with_value(ALLEN_CAHN_CONFIG, "model", "theta_true", "-1"))
    argv = [a.format(bad=bad, cfg=cubic_cfg, out=tmp_path / "run") for a in argv]
    out = fresh_python(SCIPY_OF_A_CALL, *argv)
    at_import, exit_code, at_end, filtered = json.loads(out.splitlines()[-1])
    assert set(at_import) <= KERNEL_MODULES
    assert exit_code == code
    assert at_end == at_import
    assert not filtered


def test_import_loads_no_process_pool(fresh_python):
    """A study forks its workers itself, so a cold start never pays for
    ``concurrent.futures`` or ``multiprocessing``."""
    out = fresh_python("import sys, spde_drift, spde_drift.cli\n"
                       "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
                       "('concurrent', 'multiprocessing')))")
    assert out.strip() == "[]"
