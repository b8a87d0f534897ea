"""Acceptance suite.

Each test checks one acceptance criterion end to end at desk scale and
prints a single pass line on success (run with ``pytest -s`` to see them;
a hard assert marks the criterion failed).  The expensive Monte Carlo
studies are session-scoped fixtures shared between criteria.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from spde_drift.cli import main
from spde_drift.estimate import EstimatorRequest, decompose
from spde_drift.fields import (
    ALLEN_CAHN,
    FHNParams,
    GridSpec,
    NonlinearitySpec,
    burgers_modes,
    grid_to_modes,
    modes_to_grid,
    nemytskii_modes,
)
from spde_drift.mc import StudySpec, run_study
from spde_drift.simulate import ModelSpec, SchemeSpec, simulate_model, simulate_trials
from spde_drift.spectrum import OperatorSpec
from spde_drift.theory import AdvisorQuery, advise, asymptotic_constants, ou_moment_oracle

PI = math.pi
OP = OperatorSpec()
THREADS = 2

SIN_PI_X = (1.0 / math.sqrt(2.0),)  # sin(pi x) in the orthonormal sine basis


def report(criterion: int, message: str):
    print(f"\n[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="session")
def allen_cahn_study():
    """Criteria 1-2: theta=0.02, gamma=0.4, alpha=gamma, X0=sin(pi x), T=1,
    100 simulated modes, h=1e-4, M=100 trials."""
    model = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.4, nonlinearity=ALLEN_CAHN,
        initial_modes=SIN_PI_X, n_sim=100,
    )
    spec = StudySpec(
        model=model,
        scheme=SchemeSpec(dt=1e-4, t_final=1.0, seed=20260810),
        est_req=EstimatorRequest(alpha=0.4, n_list=(4, 8, 16, 20, 32),
                                 variants=("full",)),
        n_trials=100,
        histogram_n=20,
    )
    return run_study(spec, threads=THREADS)


@pytest.fixture(scope="session")
def smooth_noise_study():
    """Criterion 7: same equation under smoother noise (gamma=0.8); the full
    estimator keeps the cubic bias correction, the linear one drops it."""
    model = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.8, nonlinearity=ALLEN_CAHN,
        initial_modes=SIN_PI_X, n_sim=100,
    )
    spec = StudySpec(
        model=model,
        scheme=SchemeSpec(dt=1e-4, t_final=1.0, seed=77_007),
        est_req=EstimatorRequest(alpha=0.8, n_list=(5, 20),
                                 variants=("full", "linear")),
        n_trials=100,
        histogram_n=20,
    )
    return run_study(spec, threads=THREADS)


@pytest.fixture(scope="session")
def ou_normality_study():
    """Criterion 3: drift-free model via exact transition sampling."""
    model = ModelSpec(
        operator=OP, theta_true=0.1, gamma=0.5,
        nonlinearity=NonlinearitySpec("none"), initial_modes=(0.0,), n_sim=64,
    )
    spec = StudySpec(
        model=model,
        scheme=SchemeSpec(dt=1e-4, t_final=1.0, seed=31_415, backend="ou_exact"),
        est_req=EstimatorRequest(alpha=0.5, n_list=(64,), variants=("linear",)),
        n_trials=1000,
        histogram_n=64,
    )
    return run_study(spec, threads=THREADS)


def test_criterion_1_figure_consistency_band(allen_cahn_study):
    row = allen_cahn_study.row("full", 20)
    assert 0.015 <= row["median"] <= 0.025, row
    assert row["p2_5"] <= 0.02 <= row["p97_5"], row
    report(1, f"median(theta_full, N=20) = {row['median']:.5f} in [0.015, 0.025]; "
              f"band [{row['p2_5']:.5f}, {row['p97_5']:.5f}] covers 0.02")


def test_criterion_2_mse_rate(allen_cahn_study):
    n_fit = (4, 8, 16, 32)
    log_n = np.log(n_fit)
    log_mse = np.log([allen_cahn_study.row("full", n)["mse"] for n in n_fit])
    slope = float(np.polyfit(log_n, log_mse, 1)[0])
    assert -3.6 <= slope <= -2.4, slope
    report(2, f"log-log MSE slope over N in {n_fit} is {slope:.3f} in [-3.6, -2.4]")


def test_criterion_3_asymptotic_normality(ou_normality_study):
    row = ou_normality_study.row("linear", 64)
    ks = ou_normality_study.ks["linear"]
    assert abs(row["z_mean"]) <= 0.12, row
    assert 0.75 <= row["z_var"] <= 1.25, row
    assert ks < 0.06, ks
    report(3, f"mean(z) = {row['z_mean']:.4f}, var(z) = {row['z_var']:.4f}, "
              f"KS = {ks:.4f} over M=1000 exact paths at N=64")


def test_criterion_4_ou_moment_oracle():
    theta, gamma, h, t_final, m_trials = 0.1, 0.5, 1e-4, 1.0, 2000
    model = ModelSpec(
        operator=OP, theta_true=theta, gamma=gamma,
        nonlinearity=NonlinearitySpec("none"), initial_modes=(0.0,), n_sim=20,
    )
    req = EstimatorRequest(alpha=gamma, n_list=(20,), variants=("linear",))
    mean_q = np.zeros(20)
    scheme = SchemeSpec(dt=h, t_final=t_final, seed=40_000, backend="ou_exact")
    seeds = [40_000 + i for i in range(m_trials)]
    for j in range(0, m_trials, 16):  # a batch gives each trial its lone bits
        batch = simulate_trials(model, scheme, req, seeds[j : j + 16])
        if j == 0:
            lone = simulate_model(model, scheme, req)
            assert batch[0].accumulators.q.tobytes() == lone.accumulators.q.tobytes()
        for out in batch:
            mean_q += out.accumulators.q
    mean_q /= m_trials
    rel_errors = {}
    for k in (1, 5, 20):
        lam_k = OP.lambda_scale * k**2
        oracle = ou_moment_oracle(theta, gamma, lam_k, t_final)
        rel = abs(mean_q[k - 1] - oracle.mean_integral) / oracle.mean_integral
        rel_errors[k] = rel
        assert rel < 0.05, (k, rel)
    report(4, "empirical mean of int x_k^2 dt within 5% of the closed form: "
              + ", ".join(f"k={k}: {e:.2%}" for k, e in rel_errors.items()))


def test_criterion_5_decomposition_identities():
    rng = np.random.default_rng(55_555)
    n_list = (2, 4, 8, 16)
    checked = 0
    for run in range(50):
        theta = float(rng.uniform(0.01, 0.1))
        gamma = float(rng.uniform(0.3, 1.0))
        model = ModelSpec(
            operator=OP, theta_true=theta, gamma=gamma, nonlinearity=ALLEN_CAHN,
            initial_modes=tuple(rng.uniform(-0.8, 0.8, size=3)), n_sim=16,
        )
        scheme = SchemeSpec(dt=2e-3, t_final=0.2, seed=int(rng.integers(2**63)))
        req = EstimatorRequest(alpha=gamma, n_list=n_list)
        acc = simulate_model(model, scheme, req).accumulators
        for n in n_list:
            dec = decompose(acc, req, n)
            assert dec.theta_full == dec.theta_linear + dec.bias_full
            assert dec.theta_partial == dec.theta_linear + dec.bias_partial
            assert dec.theta_full - dec.theta_linear == pytest.approx(
                dec.bias_full, rel=1e-12, abs=1e-300
            )
            checked += 1
    report(5, f"theta_full == theta_linear + bias and theta_partial == "
              f"theta_linear + partial bias bit-exact on {checked} (run, N) pairs")


def _dense_sine_projection(x, f, n_out, l_domain=1.0, n_points=10_001):
    xs = np.linspace(0.0, l_domain, n_points)
    k = np.arange(1, len(x) + 1)
    u = math.sqrt(2.0 / l_domain) * np.sin(PI * np.outer(xs, k) / l_domain) @ np.asarray(x)
    w = f(u)
    return np.array([
        simpson(w * math.sqrt(2.0 / l_domain) * np.sin(kk * PI * xs / l_domain), x=xs)
        for kk in range(1, n_out + 1)
    ])


def test_criterion_6_pseudospectral_oracle_equivalence():
    rng = np.random.default_rng(66)
    grid = GridSpec(n_grid=127, n_modes_keep=24)
    cubic = NonlinearitySpec("polynomial", poly_coeffs=(0.0, -0.5, 1.5, -1.0))

    def f(u):
        return -0.5 * u + 1.5 * u**2 - u**3

    worst_nem = worst_bur = worst_rt = 0.0
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(1, 9))) * 0.8
        nem = nemytskii_modes(x, cubic, grid, OP, 24)
        worst_nem = max(worst_nem, float(np.max(np.abs(
            nem - _dense_sine_projection(x, f, 24)
        ))))
        bur = burgers_modes(x, grid, OP, 24)
        k = np.arange(1, len(x) + 1)

        def f_bur(u, x=x, k=k):
            xs = np.linspace(0.0, 1.0, 10_001)
            du = math.sqrt(2.0) * (np.cos(PI * np.outer(xs, k)) * (k * PI)) @ x
            return -u * du

        worst_bur = max(worst_bur, float(np.max(np.abs(
            bur - _dense_sine_projection(x, f_bur, 24)
        ))))
        back = grid_to_modes(modes_to_grid(x, grid, OP), grid, OP)
        worst_rt = max(worst_rt, float(np.max(np.abs(back[: len(x)] - x))))
    assert worst_nem < 1e-8, worst_nem
    assert worst_bur < 1e-8, worst_bur
    assert worst_rt < 1e-12, worst_rt
    report(6, f"max |pseudospectral - quadrature| = {worst_nem:.2e} (cubic), "
              f"{worst_bur:.2e} (transport); round-trip error {worst_rt:.2e}")


def test_criterion_7_robustness_of_bias_correction(smooth_noise_study):
    theta = 0.02

    def mean_abs_error(variant, n):
        vals = [
            abs(r.theta_hat - theta)
            for r in smooth_noise_study.estimates
            if r.variant == variant and r.N == n
        ]
        assert vals
        return float(np.mean(vals))

    full_5, full_20 = mean_abs_error("full", 5), mean_abs_error("full", 20)
    lin_5, lin_20 = mean_abs_error("linear", 5), mean_abs_error("linear", 20)
    assert full_20 < lin_20, (full_20, lin_20)
    assert full_20 < full_5, (full_20, full_5)
    assert lin_20 < lin_5, (lin_20, lin_5)
    report(7, f"gamma=0.8: mean|theta_full - theta| {full_5:.4f} -> {full_20:.4f}, "
              f"mean|theta_linear - theta| {lin_5:.4f} -> {lin_20:.4f} (N=5 -> 20)")


def test_criterion_8_coupled_system():
    p = FHNParams(a=0.5, b=1.0, epsilon=0.1, sigma=1.0, sigma_w=0.05, gamma_w=1.0)
    model = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.8,
        nonlinearity=NonlinearitySpec("fhn", fhn_params=p),
        initial_modes=SIN_PI_X, n_sim=32,
    )
    spec = StudySpec(
        model=model,
        scheme=SchemeSpec(dt=1e-3, t_final=1.0, seed=88_008),
        est_req=EstimatorRequest(
            alpha=0.8, n_list=(4, 16),
            variants=("full", "partial1", "partial2", "linear"),
        ),
        n_trials=50,
        histogram_n=16,
    )
    study = run_study(spec, threads=THREADS)

    ok_trials = set(range(50)) - {t for t, _ in study.failures}
    finite = {
        t for t in ok_trials
        if all(
            math.isfinite(r.theta_hat)
            for r in study.estimates
            if r.trial == t
        )
    }
    assert len(finite) >= 0.95 * 50, len(finite)
    errs_4 = [abs(r.theta_hat - 0.02) for r in study.estimates
              if r.variant == "full" and r.N == 4 and r.trial in finite]
    errs_16 = [abs(r.theta_hat - 0.02) for r in study.estimates
               if r.variant == "full" and r.N == 16 and r.trial in finite]
    assert np.mean(errs_16) < np.mean(errs_4), (np.mean(errs_16), np.mean(errs_4))
    report(8, f"{len(finite)}/50 trials finite for all four estimators; "
              f"mean|theta_full - theta|: N=4 {np.mean(errs_4):.4f} -> "
              f"N=16 {np.mean(errs_16):.4f}")


def test_criterion_9_advisor_golden(capsys):
    # burgers, gamma=alpha=0.8: full normal at rate 3/2, others rate < 1
    assert main(["advise", "--example", "burgers", "--gamma", "0.8",
                 "--alpha", "0.8"]) == 0
    burgers = json.loads(capsys.readouterr().out)
    assert burgers["estimators"]["full"]["status"] == "asymptotically_normal"
    assert burgers["estimators"]["full"]["rate"] == 1.5
    assert burgers["estimators"]["partial"] == {
        "status": "consistent_with_rate", "rate": 1.0, "V": None,
    }
    assert burgers["estimators"]["linear"]["rate"] == 1.0

    # 1-D cubic reaction-diffusion in the well-behaved regime: all normal
    assert main(["advise", "--example", "reaction-diffusion", "--n", "1",
                 "--mf", "3", "--gamma", "1.3", "--alpha", "1.3", "--odd",
                 "--neg-leading"]) == 0
    rd1 = json.loads(capsys.readouterr().out)
    for variant in ("full", "partial", "linear"):
        assert rd1["estimators"][variant]["status"] == "asymptotically_normal"
        assert rd1["estimators"][variant]["rate"] == 1.5

    # 2-D cubic: full normal at rate 1, others consistent with the optimal rate
    assert main(["advise", "--example", "reaction-diffusion", "--n", "2",
                 "--mf", "3", "--gamma", "1.6", "--alpha", "1.6", "--odd",
                 "--neg-leading"]) == 0
    rd2 = json.loads(capsys.readouterr().out)
    assert rd2["estimators"]["full"]["status"] == "asymptotically_normal"
    assert rd2["estimators"]["full"]["rate"] == 1.0
    for variant in ("partial", "linear"):
        assert rd2["estimators"][variant]["status"] == "consistent_with_rate"
        assert rd2["estimators"][variant]["rate"] == 1.0

    # variance formulas agree with the closed-form constants
    rng = np.random.default_rng(99)
    for _ in range(20):
        theta = float(rng.uniform(0.01, 1.0))
        gamma = float(rng.uniform(0.6, 1.5))
        alpha = gamma + float(rng.uniform(-0.1, 0.5))
        t_final = float(rng.uniform(0.5, 2.0))
        adv = advise(AdvisorQuery("burgers", gamma=gamma, alpha=alpha,
                                  theta=theta, t_final=t_final))
        if adv.estimators["full"].variance is None:
            continue
        c = asymptotic_constants(theta, t_final, PI**2, 2.0, gamma, alpha)
        assert abs(adv.estimators["full"].variance - c.variance) <= 1e-12 * c.variance
    report(9, "advisor statuses/rates match the example-class results; "
              "variances agree with the closed-form constants to 1e-12")
