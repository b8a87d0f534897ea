import math

import numpy as np
import pytest

from spde_drift.errors import (
    AdmissibilityWarning,
    BlowUpError,
    ConfigurationError,
    DegenerateTrajectoryError,
    DomainError,
)
from spde_drift.estimate import (
    EstimateResult,
    EstimatorAccumulator,
    EstimatorRequest,
    coupled_estimates,
    decompose,
    estimate_theta,
    robust_numerator,
    standardize,
    warn_if_inadmissible,
)
from spde_drift.fields import ALLEN_CAHN, FHNParams, NonlinearitySpec
from spde_drift.simulate import ModelSpec, SchemeSpec, simulate_model, simulate_trials
from spde_drift.spectrum import OperatorSpec, eigenvalues

PI = math.pi
OP = OperatorSpec()
NONE_NL = NonlinearitySpec("none")


def test_robust_numerator_degenerate_zero():
    assert robust_numerator([1.0], [1.0], 0.0, alpha=0.3, gamma=0.5, n=1, spec=OP) == 0.0


def test_robust_numerator_ito_correction_only():
    # x0 = xT = 0: only the quadratic-variation correction survives
    alpha = gamma = 0.7
    val = robust_numerator([0.0], [0.0], 1.0, alpha, gamma, 1, OP)
    lam1 = PI**2
    expected = -0.5 * lam1 ** (1 + 2 * alpha) * lam1 ** (-2 * gamma)
    assert val == pytest.approx(expected, rel=1e-14)
    assert val == pytest.approx(-(PI**2) / 2, rel=1e-14)


def test_robust_numerator_direct_evaluation():
    val = robust_numerator([1.0], [2.0], 1.0, alpha=0.0, gamma=0.5, n=1, spec=OP)
    expected = 0.5 * PI**2 * (4.0 - 1.0 - PI**-2)
    assert val == pytest.approx(expected, rel=1e-14)


def test_robust_numerator_requires_enough_modes():
    with pytest.raises(ConfigurationError):
        robust_numerator([1.0], [1.0], 1.0, 0.0, 0.5, n=2, spec=OP)
    for x0, xT, name in [(1.0, [1.0], "x0"), ([1.0], 1.0, "xT"), (1.0, 1.0, "x0")]:
        with pytest.raises(ConfigurationError, match=f"^{name} must hold modes"):
            robust_numerator(x0, xT, 1.0, 0.5, 0.5, 1, OP)


def linear_run(seed=0, n_sim=16, h=1e-3, t_final=0.5, theta=0.1, gamma=0.5):
    model = ModelSpec(
        operator=OP, theta_true=theta, gamma=gamma, nonlinearity=NONE_NL,
        initial_modes=(0.0,), n_sim=n_sim,
    )
    req = EstimatorRequest(alpha=gamma, n_list=(2, 4, 8, 16))
    out = simulate_model(model, SchemeSpec(dt=h, t_final=t_final, seed=seed), req)
    return out.accumulators, req


def test_variants_coincide_without_nonlinearity():
    acc, req = linear_run(seed=5)
    for n in req.n_list:
        dec = decompose(acc, req, n)
        assert dec.theta_full == dec.theta_linear
        assert dec.theta_partial == dec.theta_linear
        assert dec.bias_full == 0.0
        assert dec.bias_partial == 0.0
        r_full = estimate_theta(acc, req, "full", n)
        r_lin = estimate_theta(acc, req, "linear", n)
        assert r_full.theta_hat == r_lin.theta_hat


def test_denominator_nondecreasing_in_n():
    acc, req = linear_run(seed=6)
    values = [acc.denominator(n, req.alpha) for n in range(1, 17)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] >= 0.0


def test_deterministic_decay_recovers_theta_via_ito_sum():
    # pure exponential decay sampled on a fine grid: the discrete stochastic
    # integral identity recovers theta with O(h) error
    theta, lam1, h, t_final = 0.1, PI**2, 1e-5, 1.0
    n_steps = round(t_final / h)
    t = np.arange(n_steps + 1) * h
    path = np.exp(-theta * lam1 * t)[:, None]
    for alpha in (0.0, 0.7):
        req = EstimatorRequest(
            alpha=alpha, n_list=(1,), variants=("linear",), numerator_mode="ito_sum"
        )
        acc = EstimatorAccumulator(1, eigenvalues(OP, 1), t_final, 0.5, req)
        acc.add_path(path[:, None])
        acc.finalize(h, path[:1], path[-1:])
        res = estimate_theta(acc.split()[0], req, "linear", 1)
        assert abs(res.theta_hat - theta) / theta < 1e-3


@pytest.mark.parametrize("n_trials, n_modes", [(1, 1), (3, 5)])
def test_add_path_adds_in_step_order(n_trials, n_modes):
    # terms spread over six decades, so any other order of additions would
    # round differently; a plain sum over one mode goes pairwise
    rng = np.random.default_rng(23)
    n = 100
    path = rng.standard_normal((n + 1, n_trials, n_modes))
    path *= 10.0 ** rng.uniform(-3, 3, size=path.shape)
    q, ito = np.zeros((2, n_trials, n_modes))
    for j in range(n):
        q += path[j] * path[j]
        ito += path[j] * (path[j + 1] - path[j])
    req = EstimatorRequest(alpha=0.5, n_list=(n_modes,), numerator_mode="ito_sum")
    for block in (1, 3, 7, n):
        acc = EstimatorAccumulator(n_trials, eigenvalues(OP, n_modes), 1.0, 0.5, req)
        for j0 in range(0, n, block):
            acc.add_path(path[j0 : min(j0 + block, n) + 1])
        assert acc.q.tobytes() == q.tobytes(), block
        assert acc.ito.tobytes() == ito.tobytes(), block


@pytest.mark.parametrize("n_trials, n_modes", [(1, 4), (3, 8)])
def test_add_bias_adds_in_step_order(n_trials, n_modes):
    # the products of each step, added in step order as one += per step
    # would, whatever the block; truncation n_list[i] fills only the first
    # n_list[i] columns of its row
    rng = np.random.default_rng(29)
    n, n_list = 60, (2, n_modes)

    def spread(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=shape)

    left = spread(n, n_trials, 2, n_modes)
    rows = [spread(n, n_trials, k) for k in (n_modes,) + n_list]
    full, w = np.zeros((2, n_trials, n_modes))
    part = np.zeros((n_trials, len(n_list), n_modes))
    for j in range(n):
        v = left[j, :, 0]
        full += v * rows[0][j]
        for i, k in enumerate(n_list):
            part[:, i, :k] += v[:, :k] * rows[1 + i][j]
        w += v * left[j, :, 1]
    req = EstimatorRequest(alpha=0.5, n_list=n_list, variants=("full", "partial1", "linear"))
    for block in (1, 3, 7, n):
        acc = EstimatorAccumulator(n_trials, eigenvalues(OP, n_modes), 1.0, 0.5, req, True)
        for j0 in range(0, n, block):
            acc.add_bias(left[j0 : j0 + block], [r[j0 : j0 + block] for r in rows])
        for got, want in [(acc.bias_full, full), (acc.bias_part, part), (acc.bias_w, w)]:
            assert got.tobytes() == want.tobytes(), block


def test_exact_ou_sample_mean_consistent():
    # mean of theta_linear over exact transition paths within 3 stderr
    theta, gamma = 0.1, 0.5
    model = ModelSpec(
        operator=OP, theta_true=theta, gamma=gamma, nonlinearity=NONE_NL,
        initial_modes=(0.0,), n_sim=64,
    )
    req = EstimatorRequest(alpha=gamma, n_list=(64,), variants=("linear",))
    estimates = np.empty(500)
    scheme = SchemeSpec(dt=1e-4, t_final=1.0, seed=50_000, backend="ou_exact")
    seeds = [50_000 + i for i in range(500)]
    for j in range(0, 500, 16):  # a batch gives each trial its lone bits
        batch = simulate_trials(model, scheme, req, seeds[j : j + 16])
        for i, out in enumerate(batch, j):
            estimates[i] = estimate_theta(out.accumulators, req, "linear", 64).theta_hat
    lone = simulate_model(model, scheme, req)
    assert estimate_theta(lone.accumulators, req, "linear", 64).theta_hat == estimates[0]
    stderr = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - theta) < 3 * stderr


def _numerator_gap_prediction(theta, gamma, alpha, h, t_final, n_modes):
    # exact finite-h mean of (robust - ito_sum): the discrete quadratic
    # variation of a mode process started at zero undershoots T lam^{-2 gamma}
    n = round(t_final / h)
    lam = eigenvalues(OP, n_modes)
    s = lam ** (-(2 * gamma + 1)) / (2 * theta)
    d = np.exp(-theta * lam * h)
    qv = s * ((1 - d) ** 2 * (n - (1 - d ** (2 * n)) / (1 - d**2)) + n * (1 - d**2))
    return 0.5 * float(
        np.sum(lam ** (1 + 2 * alpha) * (qv - t_final * lam ** (-2 * gamma)))
    )


def _numerator_gaps(theta, gamma, h, n_modes, n_paths, seed0):
    model = ModelSpec(
        operator=OP, theta_true=theta, gamma=gamma, nonlinearity=NONE_NL,
        initial_modes=(0.0,), n_sim=n_modes,
    )
    req = EstimatorRequest(
        alpha=gamma, n_list=(n_modes,), variants=("linear",), numerator_mode="ito_sum"
    )
    diffs = np.empty(n_paths)
    for i in range(n_paths):
        scheme = SchemeSpec(dt=h, t_final=1.0, seed=seed0 + i, backend="ou_exact")
        acc = simulate_model(model, scheme, req).accumulators
        diffs[i] = acc.numerator(n_modes, gamma, "robust") - acc.numerator(
            n_modes, gamma, "ito_sum"
        )
    return diffs


def test_numerator_modes_agree_on_exact_paths():
    # the two numerator representations differ only by the step-h quadratic
    # variation deficit: the sample mean matches the exact finite-h moment
    # prediction within 4 stderr, and the deficit vanishes with h
    theta, gamma = 0.1, 0.5
    diffs = _numerator_gaps(theta, gamma, h=1e-4, n_modes=16, n_paths=500, seed0=80_000)
    stderr = diffs.std(ddof=1) / math.sqrt(len(diffs))
    pred = _numerator_gap_prediction(theta, gamma, gamma, 1e-4, 1.0, 16)
    assert abs(diffs.mean() - pred) < 4 * stderr


def test_numerator_modes_gap_vanishes_at_small_h():
    # at h=1e-5 and N=4 the deficit is below the Monte Carlo resolution,
    # so the mean gap is statistically indistinguishable from zero
    theta, gamma = 0.1, 0.5
    diffs = _numerator_gaps(theta, gamma, h=1e-5, n_modes=4, n_paths=200, seed0=90_000)
    stderr = diffs.std(ddof=1) / math.sqrt(len(diffs))
    assert abs(diffs.mean()) < 4 * stderr


def allen_cahn_run(seed, n_sim=16, h=1e-3, t_final=0.3, theta=0.05, gamma=0.6,
                   bias_model=None):
    model = ModelSpec(
        operator=OP, theta_true=theta, gamma=gamma, nonlinearity=ALLEN_CAHN,
        initial_modes=(1 / math.sqrt(2),), n_sim=n_sim,
    )
    req = EstimatorRequest(alpha=gamma, n_list=(4, 8, 16), bias_model=bias_model)
    out = simulate_model(model, SchemeSpec(dt=h, t_final=t_final, seed=seed), req)
    return out.accumulators, req


def test_decomposition_identities_bitwise():
    for seed in range(5):
        acc, req = allen_cahn_run(seed)
        for n in req.n_list:
            dec = decompose(acc, req, n)
            assert dec.theta_full == dec.theta_linear + dec.bias_full
            assert dec.theta_partial == dec.theta_linear + dec.bias_partial
            assert dec.bias_full != 0.0
            # the same values come out of estimate_theta
            assert estimate_theta(acc, req, "full", n).theta_hat == dec.theta_full
            assert estimate_theta(acc, req, "partial", n).theta_hat == dec.theta_partial
            assert estimate_theta(acc, req, "linear", n).theta_hat == dec.theta_linear


def test_misspecified_bias_none_collapses_to_linear():
    acc, req = allen_cahn_run(seed=9, bias_model=NONE_NL)
    for n in req.n_list:
        dec = decompose(acc, req, n)
        assert dec.bias_full == 0.0
        assert dec.bias_partial == 0.0
        assert dec.theta_full == dec.theta_linear
        assert dec.theta_partial == dec.theta_linear


def test_partial_requires_accumulated_rows():
    model = ModelSpec(
        operator=OP, theta_true=0.05, gamma=0.6, nonlinearity=ALLEN_CAHN,
        initial_modes=(0.5,), n_sim=8,
    )
    req = EstimatorRequest(alpha=0.6, n_list=(4, 8), variants=("full", "linear"))
    out = simulate_model(model, SchemeSpec(dt=1e-2, t_final=0.1, seed=0), req)
    with pytest.raises(ConfigurationError):
        out.accumulators.bias_numerator("partial", 4, 0.6)
    # partial only exists at requested truncation levels
    acc, req_full = allen_cahn_run(seed=1)
    with pytest.raises(ConfigurationError):
        acc.bias_numerator("partial", 5, req_full.alpha)


def test_degenerate_trajectory_raises():
    model = ModelSpec(
        operator=OP, theta_true=0.1, gamma=0.5, nonlinearity=NONE_NL,
        initial_modes=(0.0,), n_sim=4,
    )
    scheme = SchemeSpec(dt=0.1, t_final=1.0, seed=0, noise_scale=0.0)
    req = EstimatorRequest(alpha=0.5, n_list=(4,), variants=("linear",))
    out = simulate_model(model, scheme, req)
    with pytest.raises(DegenerateTrajectoryError):
        estimate_theta(out.accumulators, req, "linear", 4)


def fhn_run(epsilon, sigma_w, w0=None, seed=3, n_sim=8):
    p = FHNParams(a=0.5, b=1.0, epsilon=epsilon, sigma=1.0, sigma_w=sigma_w)
    model = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.8,
        nonlinearity=NonlinearitySpec("fhn", fhn_params=p),
        initial_modes=(0.5, 0.1), n_sim=n_sim, initial_w_modes=w0,
    )
    req = EstimatorRequest(
        alpha=0.8, n_list=(2, 4, 8),
        variants=("full", "partial1", "partial2", "linear"),
    )
    out = simulate_model(model, SchemeSpec(dt=1e-3, t_final=0.3, seed=seed), req)
    return out.accumulators, req


def test_coupled_partials_coincide_when_recovery_vanishes():
    acc, req = fhn_run(epsilon=0.0, sigma_w=0.0)
    for n in req.n_list:
        res = coupled_estimates(acc, req, n)
        assert res["partial1"].theta_hat == res["partial2"].theta_hat


def test_coupled_full_equals_partial1_at_full_resolution():
    acc, req = fhn_run(epsilon=0.1, sigma_w=0.05)
    res = coupled_estimates(acc, req, 8)
    assert res["full"].theta_hat == res["partial1"].theta_hat
    # but not below full resolution
    res4 = coupled_estimates(acc, req, 4)
    assert res4["full"].theta_hat != res4["partial1"].theta_hat


def test_coupled_estimates_all_finite():
    acc, req = fhn_run(epsilon=0.1, sigma_w=0.05)
    for n in req.n_list:
        for variant, res in coupled_estimates(acc, req, n).items():
            assert math.isfinite(res.theta_hat), variant


def test_coupled_variant_mismatch_rejected():
    acc, req = fhn_run(epsilon=0.1, sigma_w=0.05)
    with pytest.raises(ConfigurationError):
        acc.bias_numerator("partial", 4, req.alpha)
    acc_s, req_s = allen_cahn_run(seed=2)
    with pytest.raises(ConfigurationError):
        coupled_estimates(acc_s, req_s, 4)


def test_standardize_values():
    res = EstimateResult("full", 1, 0.4, theta_hat=0.02, numerator=0.0,
                         denominator=1.0, bias=0.0)
    assert standardize(res, 0.02, variance=0.5, beta=2.0) == 0.0
    v = 0.012159
    res2 = EstimateResult("full", 1, 0.4, theta_hat=0.02 + math.sqrt(v),
                          numerator=0.0, denominator=1.0, bias=0.0)
    assert standardize(res2, 0.02, v, beta=2.0) == pytest.approx(1.0, rel=1e-12)
    res3 = EstimateResult("full", 20, 0.4, theta_hat=0.021, numerator=0.0,
                          denominator=1.0, bias=0.0)
    z = standardize(res3, 0.02, v, beta=2.0)
    assert z == pytest.approx(20**1.5 * 0.001 / math.sqrt(v), rel=1e-12)
    assert z == pytest.approx(0.8112, abs=2e-4)


def test_standardize_rejects_nonpositive_variance():
    res = EstimateResult("full", 1, 0.4, 0.02, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        standardize(res, 0.02, 0.0, 2.0)


@pytest.mark.parametrize("variance", [math.nan, math.inf])
def test_standardize_rejects_a_non_finite_variance(variance):
    res = EstimateResult("full", 1, 0.4, 0.02, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError, match="variance must be finite"):
        standardize(res, 0.02, variance, 2.0)


def test_queries_take_an_integral_n_and_reject_any_other_by_name():
    acc, req = allen_cahn_run(seed=1)
    for variant in req.variants:
        res = estimate_theta(acc, req, variant, 4.0)
        assert res == estimate_theta(acc, req, variant, 4) and type(res.N) is int
    assert decompose(acc, req, 8.0) == decompose(acc, req, 8)
    endpoints = ([0.3, -0.1], [0.2, 0.4], 1.0, 0.5, 0.5)
    assert robust_numerator(*endpoints, 2.0, OP) == robust_numerator(*endpoints, 2, OP)
    for n, message in [(True, "N must be a number, got True"),
                       (2.5, "N must be an integer >= 1, got 2.5"),
                       (0, "N must be an integer >= 1, got 0")]:
        with pytest.raises(ConfigurationError, match=message):
            estimate_theta(acc, req, "full", n)
        with pytest.raises(ConfigurationError, match=message):
            robust_numerator(*endpoints, n, OP)


def never_finalized():
    req = EstimatorRequest(alpha=0.5, n_list=(2,))
    return EstimatorAccumulator(1, eigenvalues(OP, 2), 1.0, 0.5, req), req


def blown_up():
    acc, req = allen_cahn_run(seed=1)
    acc.q = np.full_like(acc.q, np.inf)
    return acc, req


@pytest.mark.parametrize("run, query, error, message", [
    (never_finalized, lambda acc, req: estimate_theta(acc, req, "full", 2),
     ConfigurationError, "accumulator has not been finalized"),
    (lambda: allen_cahn_run(seed=1), lambda acc, req: estimate_theta(acc, req, "full", 17),
     ConfigurationError, r"N=17 outside simulated mode range 1\.\.16"),
    (lambda: fhn_run(epsilon=0.1, sigma_w=0.05), lambda acc, req: decompose(acc, req, 4),
     ConfigurationError, "decompose applies to scalar runs"),
    (blown_up, lambda acc, req: estimate_theta(acc, req, "linear", 4),
     BlowUpError, "non-finite denominator"),
    (lambda: allen_cahn_run(seed=1), lambda acc, req: estimate_theta(acc, req, "bogus", 4),
     ConfigurationError, "'bogus' is not one of the scalar variants full/partial/linear"),
    (lambda: fhn_run(epsilon=0.1, sigma_w=0.05),
     lambda acc, req: estimate_theta(acc, req, "partial", 4), ConfigurationError,
     "'partial' is not one of the coupled variants full/partial1/partial2/linear"),
    (lambda: allen_cahn_run(seed=1), lambda acc, req: coupled_estimates(acc, req, 4),
     ConfigurationError, "'partial1' is not one of the scalar variants"),
    (never_finalized,
     lambda acc, req: EstimatorAccumulator(1, eigenvalues(OP, 1), 1.0, 0.5, req),
     ConfigurationError, "truncation level 2 exceeds simulated mode count 1"),
    (lambda: allen_cahn_run(seed=1), lambda acc, req: acc.numerator(4, req.alpha, "bogus"),
     ConfigurationError, "unknown numerator mode 'bogus'"),
], ids=["never-finalized", "N-above-n_modes", "decompose-coupled", "blown-up",
        "unknown-variant", "scalar-variant-on-coupled", "coupled-estimates-on-scalar",
        "accumulator-above-mode-count", "unknown-numerator-mode"])
def test_estimator_query_errors_name_their_cause(run, query, error, message):
    acc, req = run()
    with pytest.raises(error, match=message):
        query(acc, req)


def test_admissibility_warning():
    with pytest.warns(AdmissibilityWarning):
        warn_if_inadmissible(alpha=0.2, gamma=0.5, beta=2.0)  # 0.2 <= 0.5 - 0.1875
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warn_if_inadmissible(alpha=0.5, gamma=0.5, beta=2.0)


def test_simulate_warns_on_inadmissible_alpha():
    model = ModelSpec(
        operator=OP, theta_true=0.1, gamma=0.5, nonlinearity=NONE_NL,
        initial_modes=(0.0,), n_sim=2,
    )
    req = EstimatorRequest(alpha=0.3, n_list=(2,), variants=("linear",))
    with pytest.warns(AdmissibilityWarning):
        simulate_model(model, SchemeSpec(dt=0.1, t_final=1.0, seed=0), req)


def test_request_validation():
    with pytest.raises(ConfigurationError):
        EstimatorRequest(alpha=0.5, n_list=())
    with pytest.raises(ConfigurationError):
        EstimatorRequest(alpha=0.5, n_list=(4, 2))
    with pytest.raises(ConfigurationError):
        EstimatorRequest(alpha=0.5, n_list=(2,), variants=("bogus",))
    with pytest.raises(ConfigurationError):
        EstimatorRequest(alpha=0.5, n_list=(2,), numerator_mode="midpoint")
    with pytest.raises(ConfigurationError):
        EstimatorRequest(alpha=0.5, n_list=(2,), variants=("partial", "partial1"))
    with pytest.raises(ConfigurationError, match="variants"):
        EstimatorRequest(alpha=0.5, n_list=(2,), variants=("full", "full", "linear"))
