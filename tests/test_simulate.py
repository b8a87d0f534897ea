import math

import numpy as np
import pytest
from scipy.special import ndtr

from spde_drift.errors import BlowUpError, ConfigurationError
from spde_drift.estimate import EstimatorRequest
from spde_drift.fields import ALLEN_CAHN, FHNParams, NonlinearitySpec
from spde_drift.simulate import (
    ModelSpec,
    SchemeSpec,
    _standard_normals,
    simulate_fhn,
    simulate_model,
    simulate_ou_exact,
    simulate_semilinear,
)
from spde_drift.spectrum import OperatorSpec, eigenvalues

PI = math.pi
OP = OperatorSpec()
NONE_NL = NonlinearitySpec("none")


def linear_model(theta=1.0, gamma=1.0, x0=(1.0,), n_sim=1):
    return ModelSpec(
        operator=OP, theta_true=theta, gamma=gamma,
        nonlinearity=NONE_NL, initial_modes=x0, n_sim=n_sim,
    )


REQ1 = EstimatorRequest(alpha=1.0, n_list=(1,), variants=("linear",))


def ks_distance(sample, cdf):
    z = np.sort(np.asarray(sample))
    n = len(z)
    f = cdf(z)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return max(np.max(grid_hi - f), np.max(f - grid_lo))


def test_zero_noise_decay_matches_scalar_recursion():
    h = 1e-3
    model = linear_model(theta=1.0, gamma=1.0)
    scheme = SchemeSpec(dt=h, t_final=1.0, seed=0, noise_scale=0.0)
    out = simulate_semilinear(model, scheme, REQ1)
    lam1 = PI**2
    # independent oracle: the scalar recursion x <- x / (1 + h theta lam)
    x = 1.0
    for _ in range(1000):
        x = x / (1.0 + h * lam1)
    assert out.xT[0] == pytest.approx(x, rel=1e-10)
    assert out.xT[0] == pytest.approx((1.0 + h * lam1) ** (-1000), rel=1e-10)
    assert out.xT[0] == pytest.approx(5.4287e-5, rel=1e-4)


def test_euler_endpoint_matches_ou_law_ks():
    # 2000 independent drift-free paths at h=1e-4: the endpoint distribution
    # must match the exact Gaussian law of the mode process
    theta, gamma, h, t_final = 1.0, 0.5, 1e-4, 1.0
    model = linear_model(theta=theta, gamma=gamma, x0=(0.0,))
    endpoints = np.empty(2000)
    for i in range(2000):
        scheme = SchemeSpec(dt=h, t_final=t_final, seed=i)
        endpoints[i] = simulate_semilinear(model, scheme, REQ1).xT[0]
    lam = PI**2
    var = lam ** (-2 * gamma) * -np.expm1(-2 * theta * lam * t_final) / (2 * theta * lam)
    d = ks_distance(endpoints, lambda v: ndtr(v / math.sqrt(var)))
    assert d < 0.05


def test_ou_exact_stationary_variance():
    # k=1, theta=0.1, gamma=0.5: stationary variance pi^-4 / 0.2
    theta, gamma = 0.1, 0.5
    lam1 = PI**2
    spacing = 8.0 / (theta * lam1)
    times = spacing * np.arange(1, 501)
    draws = []
    for seed in range(200):
        path = simulate_ou_exact(theta, gamma, OP, 1, times, seed)
        draws.append(path[:, 0])
    draws = np.concatenate(draws)
    stationary = lam1 ** (-(2 * gamma + 1)) / (2 * theta)
    assert stationary == pytest.approx(0.051326, abs=2e-5)
    emp = float(np.var(draws))
    stderr = stationary * math.sqrt(2.0 / draws.size)
    assert abs(emp - stationary) < 3 * stderr


def test_ou_exact_transition_variance_long_step_limit():
    # a single huge step samples the stationary law directly
    theta, gamma = 0.1, 0.5
    vals = np.array(
        [simulate_ou_exact(theta, gamma, OP, 1, [1000.0], seed)[0, 0]
         for seed in range(4000)]
    )
    stationary = PI ** (-4) / (2 * theta)
    emp = float(np.var(vals))
    stderr = stationary * math.sqrt(2.0 / vals.size)
    assert abs(emp - stationary) < 3 * stderr


def test_ou_exact_zero_elapsed_time():
    path = simulate_ou_exact(0.5, 0.5, OP, 3, [0.3, 0.3], seed=5)
    assert np.array_equal(path[0], path[1])


def test_ou_exact_time_grid_validation():
    with pytest.raises(ConfigurationError):
        simulate_ou_exact(0.5, 0.5, OP, 2, [0.2, 0.1], seed=0)
    with pytest.raises(ConfigurationError):
        simulate_ou_exact(0.5, 0.5, OP, 2, [-0.1, 0.2], seed=0)


def test_ou_exact_starts_at_zero_at_time_zero():
    path = simulate_ou_exact(0.5, 0.5, OP, 2, [0.0, 0.5], seed=9)
    assert np.array_equal(path[0], np.zeros(2))
    assert np.all(path[1] != 0)


def test_determinism_bitwise():
    model = ModelSpec(
        operator=OP, theta_true=0.05, gamma=0.4, nonlinearity=ALLEN_CAHN,
        initial_modes=(0.7, -0.2), n_sim=16,
    )
    req = EstimatorRequest(alpha=0.4, n_list=(4, 16))
    scheme = SchemeSpec(dt=1e-3, t_final=0.2, seed=987, snapshot_stride=50)
    a = simulate_semilinear(model, scheme, req)
    b = simulate_semilinear(model, scheme, req)
    assert np.array_equal(a.xT, b.xT)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert np.array_equal(a.accumulators.q, b.accumulators.q)
    assert np.array_equal(a.accumulators.ito, b.accumulators.ito)
    assert np.array_equal(a.accumulators.bias_full, b.accumulators.bias_full)
    assert np.array_equal(a.accumulators.bias_part, b.accumulators.bias_part)


def test_noise_streams_are_uncorrelated_across_modes():
    n = 100_000
    draws = _standard_normals(seed=3, channel=0, n_modes=4, n_draws=n)
    corr = np.corrcoef(draws.T)
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off_diag)) < 4.0 / math.sqrt(n)


def test_linear_weak_accuracy_of_time_integrals():
    # empirical mean of int (x^k)^2 dt within 5% of the exact value for
    # k in {1, 5, 20}
    theta, gamma, h, t_final = 0.1, 0.5, 1e-4, 1.0
    model = linear_model(theta=theta, gamma=gamma, x0=(0.0,), n_sim=20)
    req = EstimatorRequest(alpha=gamma, n_list=(20,), variants=("linear",))
    m_trials = 2000
    acc_q = np.zeros(20)
    for i in range(m_trials):
        scheme = SchemeSpec(dt=h, t_final=t_final, seed=10_000 + i)
        out = simulate_semilinear(model, scheme, req)
        acc_q += out.accumulators.q
    acc_q /= m_trials
    lam = eigenvalues(OP, 20)
    for k in (1, 5, 20):
        lam_k = lam[k - 1]
        stationary = lam_k ** (-(2 * gamma + 1)) / (2 * theta)
        exact = stationary * (
            t_final - (-np.expm1(-2 * theta * lam_k * t_final)) / (2 * theta * lam_k)
        )
        assert abs(acc_q[k - 1] - exact) / exact < 0.05


def test_unconditional_stability_contraction():
    # with noise disabled the implicit linear step is a contraction for any h
    rng = np.random.default_rng(1)
    model = linear_model(theta=0.3, gamma=1.0, x0=tuple(rng.standard_normal(4)), n_sim=4)
    for h in (0.5, 2.0, 10.0):
        scheme = SchemeSpec(
            dt=h, t_final=10 * h, seed=0, noise_scale=0.0, snapshot_stride=1
        )
        out = simulate_semilinear(
            model, scheme, EstimatorRequest(alpha=1.0, n_list=(4,), variants=("linear",))
        )
        traj = out.trajectory
        assert np.all(np.abs(traj[1:]) <= np.abs(traj[:-1]) + 1e-300)


def test_allen_cahn_reference_setup_runs():
    # theta=0.02, gamma=0.4, f(u) = u - u^3, X0 = sin(pi x), 100 modes
    model = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.4, nonlinearity=ALLEN_CAHN,
        initial_modes=(1 / math.sqrt(2),), n_sim=100,
    )
    req = EstimatorRequest(alpha=0.4, n_list=(20,), variants=("full", "linear"))
    scheme = SchemeSpec(dt=1e-3, t_final=1.0, seed=42)
    out = simulate_semilinear(model, scheme, req)
    assert np.all(np.isfinite(out.xT))
    assert np.all(np.isfinite(out.accumulators.q))
    assert out.accumulators.q[0] > 0


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_burgers_drift_runs_and_is_deterministic():
    model = ModelSpec(
        operator=OP, theta_true=0.1, gamma=0.8,
        nonlinearity=NonlinearitySpec("burgers"),
        initial_modes=(0.5, 0.2), n_sim=32,
    )
    req = EstimatorRequest(alpha=0.8, n_list=(8, 32))
    scheme = SchemeSpec(dt=1e-3, t_final=0.5, seed=606)
    a = simulate_semilinear(model, scheme, req)
    b = simulate_semilinear(model, scheme, req)
    assert np.all(np.isfinite(a.xT))
    assert np.array_equal(a.xT, b.xT)
    assert np.array_equal(a.accumulators.bias_full, b.accumulators.bias_full)
    assert np.any(a.accumulators.bias_full != 0.0)


def test_blow_up_raises_with_step_and_mode():
    growth = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.0, 0.0, 1.0))
    model = ModelSpec(
        operator=OP, theta_true=0.01, gamma=1.0, nonlinearity=growth,
        initial_modes=(10.0,), n_sim=4,
    )
    scheme = SchemeSpec(dt=0.1, t_final=10.0, seed=1, noise_scale=0.0)
    with pytest.raises(BlowUpError) as exc:
        simulate_semilinear(model, scheme, EstimatorRequest(alpha=1.0, n_list=(4,)))
    assert (exc.value.step, exc.value.mode) == (6, 1)


def test_coupled_blow_up_in_recovery_names_its_mode():
    # v stays finite at step 1 while eps * b * w overflows in w's third mode
    p = FHNParams(a=0.5, b=100, epsilon=10, sigma=0, sigma_w=0)
    model = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.8,
        nonlinearity=NonlinearitySpec("fhn", fhn_params=p),
        initial_modes=(0.0,), n_sim=4, initial_w_modes=(0, 0, 1e307),
    )
    scheme = SchemeSpec(dt=0.1, t_final=100, seed=1)
    req = EstimatorRequest(alpha=0.8, n_list=(4,), variants=("full", "linear"))
    with pytest.raises(BlowUpError) as exc:
        simulate_fhn(model, scheme, req)
    assert (exc.value.step, exc.value.mode) == (1, 3)


def test_snapshot_times_and_shape():
    model = linear_model(x0=(1.0, 0.5), n_sim=2)
    scheme = SchemeSpec(dt=0.1, t_final=1.0, seed=4, snapshot_stride=3)
    out = simulate_semilinear(model, scheme, REQ1)
    assert out.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert out.trajectory.shape == (5, 2)
    assert np.array_equal(out.trajectory[0], out.x0)
    assert np.array_equal(out.trajectory[-1], out.xT)

    coupled = simulate_fhn(
        fhn_model(w0=(0.2, -0.1)), scheme,
        EstimatorRequest(alpha=0.8, n_list=(2,), variants=("full", "linear")),
    )
    assert coupled.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert coupled.trajectory.shape == coupled.w_trajectory.shape == (5, 8)
    assert np.array_equal(coupled.trajectory[0], coupled.x0)
    assert np.array_equal(coupled.trajectory[-1], coupled.xT)
    assert np.array_equal(coupled.w_trajectory[0], coupled.w0)
    assert np.array_equal(coupled.w_trajectory[-1], coupled.wT)
    assert np.array_equal(coupled.w0[:2], [0.2, -0.1])


def test_ou_backend_requires_drift_free_model():
    model = ModelSpec(
        operator=OP, theta_true=0.1, gamma=0.5, nonlinearity=ALLEN_CAHN,
        initial_modes=(0.1,), n_sim=8,
    )
    scheme = SchemeSpec(dt=1e-2, t_final=1.0, seed=0, backend="ou_exact")
    with pytest.raises(ConfigurationError):
        simulate_semilinear(model, scheme, EstimatorRequest(alpha=0.5, n_list=(8,)))


def test_ou_backend_deterministic_and_finite():
    model = linear_model(theta=0.1, gamma=0.5, x0=(0.0,), n_sim=8)
    scheme = SchemeSpec(dt=1e-3, t_final=1.0, seed=77, backend="ou_exact")
    req = EstimatorRequest(alpha=0.5, n_list=(8,))
    a = simulate_semilinear(model, scheme, req)
    b = simulate_semilinear(model, scheme, req)
    assert np.array_equal(a.xT, b.xT)
    assert np.array_equal(a.accumulators.q, b.accumulators.q)
    assert np.all(np.isfinite(a.xT))


def fhn_model(sigma_w=0.05, epsilon=0.1, b=1.0, sigma=1.0, n_sim=8, w0=None):
    p = FHNParams(a=0.5, b=b, epsilon=epsilon, sigma=sigma, sigma_w=sigma_w, gamma_w=1.0)
    return ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.8,
        nonlinearity=NonlinearitySpec("fhn", fhn_params=p),
        initial_modes=(0.5, 0.1), n_sim=n_sim, initial_w_modes=w0,
    )


def test_fhn_decoupled_limit_matches_scalar_bitwise():
    # sigma_w=0, epsilon=0, w0=0: the activator equation is exactly the cubic
    # scalar model, bit for bit under the same seed
    p = FHNParams(a=0.5, b=1.0, epsilon=0.0, sigma=1.0, sigma_w=0.0, gamma_w=1.0)
    coupled = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.8,
        nonlinearity=NonlinearitySpec("fhn", fhn_params=p),
        initial_modes=(0.5, 0.1), n_sim=8,
    )
    scalar = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.8,
        nonlinearity=NonlinearitySpec("polynomial", poly_coeffs=p.cubic_coeffs()),
        initial_modes=(0.5, 0.1), n_sim=8,
    )
    scheme = SchemeSpec(dt=1e-3, t_final=0.3, seed=314)
    req_c = EstimatorRequest(
        alpha=0.8, n_list=(4, 8), variants=("full", "partial1", "partial2", "linear")
    )
    req_s = EstimatorRequest(alpha=0.8, n_list=(4, 8))
    out_c = simulate_fhn(coupled, scheme, req_c)
    out_s = simulate_semilinear(scalar, scheme, req_s)
    assert np.array_equal(out_c.xT, out_s.xT)
    assert np.array_equal(out_c.accumulators.q, out_s.accumulators.q)
    assert np.array_equal(out_c.accumulators.bias_full, out_s.accumulators.bias_full)
    assert np.array_equal(out_c.accumulators.bias_part, out_s.accumulators.bias_part)
    assert np.array_equal(out_c.wT, np.zeros(8))


def test_fhn_zero_initial_zero_noise_stays_zero():
    p = FHNParams(a=0.5, b=1.0, epsilon=0.1, sigma=0.0, sigma_w=0.0)
    model = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.8,
        nonlinearity=NonlinearitySpec("fhn", fhn_params=p),
        initial_modes=(0.0,), n_sim=4,
    )
    scheme = SchemeSpec(dt=1e-2, t_final=0.5, seed=0)
    out = simulate_fhn(
        model, scheme,
        EstimatorRequest(alpha=0.8, n_list=(4,), variants=("linear",)),
    )
    assert np.array_equal(out.xT, np.zeros(4))
    assert np.array_equal(out.wT, np.zeros(4))


def test_fhn_desk_run_bounded():
    model = ModelSpec(
        operator=OP, theta_true=0.02, gamma=0.8,
        nonlinearity=NonlinearitySpec(
            "fhn", fhn_params=FHNParams(a=0.5, b=1.0, epsilon=0.1, sigma=1.0)
        ),
        initial_modes=(0.5,), n_sim=32,
    )
    scheme = SchemeSpec(dt=1e-3, t_final=1.0, seed=11, snapshot_stride=100)
    req = EstimatorRequest(
        alpha=0.8, n_list=(4, 16), variants=("full", "partial1", "partial2", "linear")
    )
    out = simulate_fhn(model, scheme, req)
    assert np.all(np.isfinite(out.trajectory))
    assert np.max(np.abs(out.trajectory)) < 50.0
    assert np.all(np.isfinite(out.w_trajectory))


def test_simulate_model_dispatch():
    out = simulate_model(
        fhn_model(), SchemeSpec(dt=1e-2, t_final=0.1, seed=0),
        EstimatorRequest(alpha=0.8, n_list=(4,), variants=("full", "linear")),
    )
    assert out.wT is not None
    out2 = simulate_model(
        linear_model(), SchemeSpec(dt=1e-2, t_final=0.1, seed=0), REQ1
    )
    assert out2.wT is None


def test_scheme_validation():
    with pytest.raises(ConfigurationError):
        SchemeSpec(dt=0.3, t_final=1.0, seed=0)  # not an integer step count
    with pytest.raises(ConfigurationError):
        SchemeSpec(dt=-0.1, t_final=1.0, seed=0)
    with pytest.raises(ConfigurationError):
        SchemeSpec(dt=0.1, t_final=1.0, seed=-1)
    with pytest.raises(ConfigurationError):
        SchemeSpec(dt=0.1, t_final=1.0, seed=0, backend="magic")


def test_model_validation():
    with pytest.raises(ConfigurationError):
        ModelSpec(operator=OP, theta_true=-1.0, gamma=0.5,
                  nonlinearity=NONE_NL, initial_modes=(0.0,), n_sim=4)
    with pytest.raises(ConfigurationError):
        ModelSpec(operator=OP, theta_true=1.0, gamma=0.0,
                  nonlinearity=NONE_NL, initial_modes=(0.0,), n_sim=4)
    with pytest.raises(ConfigurationError):
        ModelSpec(operator=OP, theta_true=1.0, gamma=0.5,
                  nonlinearity=NONE_NL, initial_modes=(0.0,) * 5, n_sim=4)


def test_request_exceeding_mode_count_rejected():
    with pytest.raises(ConfigurationError):
        simulate_semilinear(
            linear_model(), SchemeSpec(dt=0.1, t_final=1.0, seed=0),
            EstimatorRequest(alpha=1.0, n_list=(2,), variants=("linear",)),
        )
