import math
from dataclasses import fields, replace
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from conftest import FHN, QUADRATIC, RUN_KINDS, SKEWED_CUBIC, observed, run_seeds, traced
from scipy.signal import lfilter
from scipy.special import ndtr

from spde_drift.errors import BlowUpError, ConfigurationError, DomainError
from spde_drift.estimate import (
    NUMERATOR_MODES,
    EstimatorAccumulator,
    EstimatorRequest,
    estimate_theta,
)
from spde_drift.fields import (
    ALLEN_CAHN,
    FHNParams,
    GridSpec,
    NemytskiiPlan,
    NonlinearitySpec,
    _BLOCK_VALUES,
    _plans_grid,
    nemytskii_modes,
)
from spde_drift.mc import StudySpec
from spde_drift import simulate
from spde_drift.simulate import (
    ModelSpec,
    SchemeSpec,
    _mode_stream,
    _NoiseBlocks,
    simulate_model,
    simulate_ou_exact,
    simulate_trials,
)
from spde_drift.spectrum import OperatorSpec, eigenvalues
from spde_drift.theory import AdvisorQuery, asymptotic_constants, ou_moment_oracle

PI = math.pi
OP = OperatorSpec()
NONE_NL = NonlinearitySpec("none")


def linear_model(theta=1.0, gamma=1.0, x0=(1.0,), n_sim=1):
    return ModelSpec(
        operator=OP, theta_true=theta, gamma=gamma,
        nonlinearity=NONE_NL, initial_modes=x0, n_sim=n_sim,
    )


REQ1 = EstimatorRequest(alpha=1.0, n_list=(1,), variants=("linear",))


def whole_run_normals(seed, channel, n_modes, n_draws):
    """(n_draws, n_modes) N(0, 1) draws, each mode's stream drawn whole at once."""
    return np.stack(
        [_mode_stream(seed, channel, k + 1).standard_normal(n_draws) for k in range(n_modes)],
        axis=1,
    )


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
    out = simulate_model(model, scheme, REQ1)
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
        endpoints[i] = simulate_model(model, scheme, REQ1).xT[0]
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


def whole_run_ou_path(theta, gamma, n_modes, times, seed):
    """simulate_ou_exact from every draw at once: one lfilter call per mode
    on a uniform grid, else the per-interval recursion."""
    lam = eigenvalues(OP, n_modes)
    full = np.concatenate([[0.0], times]) if times[0] > 0 else np.asarray(times)
    diffs = np.diff(full)
    draws = whole_run_normals(seed, 0, n_modes, len(diffs))
    path = np.zeros((len(full), n_modes))

    def transition(d):
        return np.exp(-theta * lam * d), lam ** (-gamma) * np.sqrt(
            -np.expm1(-2.0 * theta * lam * d) / (2.0 * theta * lam))

    if np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0) and diffs[0] > 0:
        decay, amp = transition(diffs[0])
        for k in range(n_modes):
            path[1:, k] = lfilter([amp[k]], [1.0, -decay[k]], draws[:, k])
    else:
        for i, d in enumerate(diffs):
            path[i + 1] = path[i]
            if d > 0:
                decay, amp = transition(d)
                path[i + 1] = decay * path[i] + amp * draws[i]
    return path[1:] if times[0] > 0 else path


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 1.0, 3001),
    np.cumsum(np.tile([1e-3, 2e-3, 0.0], 1000)) + 0.3,
], ids=["uniform", "non-uniform"])
def test_ou_exact_draws_blockwise_the_bits_of_the_whole_run(times):
    # 64 modes x 3000 intervals span three value-budget blocks
    for seed in (0, 7):
        path = simulate_ou_exact(0.1, 0.5, OP, 64, times, seed)
        expected = whole_run_ou_path(0.1, 0.5, 64, times, seed)
        assert path.tobytes() == expected.tobytes()


def test_ou_exact_memory_is_the_path_and_one_noise_block():
    times = np.linspace(0.0, 1.0, 16385)
    simulate_ou_exact(0.1, 0.5, OP, 64, times[:3], 1)
    path, peak, _ = traced(simulate_ou_exact, 0.1, 0.5, OP, 64, times, 1)
    # a whole-run draw array would add another 8 * 64 * 16384 = 8.4 MB
    assert peak - path.nbytes < 2_000_000


def test_ou_exact_time_grid_validation():
    with pytest.raises(ConfigurationError):
        simulate_ou_exact(0.5, 0.5, OP, 2, [0.2, 0.1], seed=0)
    with pytest.raises(ConfigurationError):
        simulate_ou_exact(0.5, 0.5, OP, 2, [-0.1, 0.2], seed=0)


#: every spec, and every function, whose numeric fields or arguments are
#: checked against a domain; a field is numeric by its annotation
DOMAIN_SWEEP = (
    ModelSpec, SchemeSpec, StudySpec, EstimatorRequest, FHNParams, NonlinearitySpec,
    GridSpec, OperatorSpec, AdvisorQuery, simulate_ou_exact, asymptotic_constants,
    ou_moment_oracle,
)
#: fields whose domain (or whose entries' domain) holds -1
SIGNED = {
    "ModelSpec.initial_modes", "ModelSpec.initial_w_modes", "StudySpec.histogram_range",
    "EstimatorRequest.alpha", "NonlinearitySpec.poly_coeffs", "AdvisorQuery.gamma",
    "AdvisorQuery.alpha", "asymptotic_constants.gamma", "asymptotic_constants.alpha",
}


def numeric_type(hint):
    """int, float, or (tuple, int or float) of a numeric annotation, else None."""
    if get_origin(hint) in (Union, UnionType):
        (hint,) = [a for a in get_args(hint) if a is not type(None)]
    if hint in (int, float):
        return hint
    if get_origin(hint) is tuple and get_args(hint)[0] in (int, float):
        return tuple, get_args(hint)[0]
    return None


def out_of_domain(argument, kind):
    """Values of a field of ``kind`` that no domain of that kind holds."""
    if isinstance(kind, tuple):  # the bare values, and each entry's as the only entry
        return [True, math.nan, math.inf, -1, "1"] + [
            (v,) for v in out_of_domain(argument, kind[1])
        ]
    signed = argument in SIGNED
    return [2.5] * (kind is int) + [True, math.nan, math.inf, "1"] + [-1] * (not signed)


def domain_cases():
    """(argument, value) of every out-of-domain case; an argument of
    ``simulate_ou_exact`` goes unqualified, any other is "Owner.field"."""
    cases = [
        ("times", [0.1, math.nan, 0.3]), ("times", [0.1, math.inf]), ("theta", 0.0),
        ("gamma", -0.5), ("noise_scale", -1.0), ("seed", 1.5), ("SchemeSpec.seed", 1.7),
        ("EstimatorRequest.n_list", (2.7,)), ("GridSpec.n_grid", 7.5), ("FHNParams.a", "0.5"),
        ("StudySpec.histogram_n", 5), ("simulate_trials.seeds", [1.5]),
        ("simulate_trials.seeds", [True]), ("simulate_trials.seeds", ["1"]),
    ]
    for target in DOMAIN_SWEEP:
        owner = "" if target is simulate_ou_exact else target.__name__ + "."
        for name, hint in get_type_hints(target).items():
            kind = numeric_type(hint)
            if kind is not None:
                cases += [(owner + name, v) for v in out_of_domain(owner + name, kind)]
    return cases + [("times", [[0.1, 0.2]])]  # "times must be a 1-D nonempty sequence"


def domain_sweep_base(owner):
    """The callable named ``owner`` and valid keyword arguments of it."""
    model, scheme, req = RUN_KINDS["allen_cahn"]
    bases = {
        "simulate_ou_exact": (simulate_ou_exact, dict(
            theta=0.5, gamma=0.5, spec=OP, n_modes=2, times=[0.1, 0.2], seed=0)),
        "simulate_trials": (simulate_trials, dict(
            model=model, scheme=scheme, est_req=req, seeds=[1])),
        "asymptotic_constants": (asymptotic_constants, dict(
            theta=1.0, t_final=1.0, lambda_scale=PI**2, beta=2.0, gamma=0.5, alpha=0.5)),
        "ou_moment_oracle": (ou_moment_oracle, dict(
            theta=0.1, gamma=0.5, lam=PI**2, t_final=1.0)),
        "AdvisorQuery": (AdvisorQuery, dict(
            example="reaction_diffusion", gamma=1.0, alpha=1.0, m_f=3)),
    }
    for spec in (model, scheme, req, StudySpec(model, scheme, req, n_trials=2),
                 FHN.fhn_params, ALLEN_CAHN, GridSpec(7, 3), OP):
        kwargs = {f.name: getattr(spec, f.name) for f in fields(spec)}
        bases[type(spec).__name__] = type(spec), kwargs
    return bases[owner]


@pytest.mark.parametrize("argument, value", domain_cases())
def test_ou_exact_rejects_bad_arguments_by_name(argument, value):
    # every numeric spec field and checked function argument rejects a bool,
    # a string, a non-finite or out-of-range number, and a non-integral one
    # where an integer is due, by name
    owner, _, name = argument.rpartition(".")
    target, args = domain_sweep_base(owner or "simulate_ou_exact")
    args[name] = value
    with pytest.raises((ConfigurationError, DomainError), match=f"^{name} must be"):
        target(**args)


def test_ou_exact_starts_at_zero_at_time_zero():
    path = simulate_ou_exact(0.5, 0.5, OP, 2, [0.0, 0.5], seed=9)
    assert np.array_equal(path[0], np.zeros(2))
    assert np.all(path[1] != 0)


def test_determinism_bitwise():
    model = ModelSpec(
        operator=OP, theta_true=0.05, gamma=0.4, nonlinearity=ALLEN_CAHN,
        initial_modes=(0.7, -0.2), n_sim=16,
    )
    req = EstimatorRequest(alpha=0.4, n_list=(4, 16), numerator_mode="ito_sum")
    scheme = SchemeSpec(dt=1e-3, t_final=0.2, seed=987, snapshot_stride=50)
    a = simulate_model(model, scheme, req)
    b = simulate_model(model, scheme, req)
    assert np.array_equal(a.xT, b.xT)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert np.array_equal(a.accumulators.q, b.accumulators.q)
    assert np.array_equal(a.accumulators.ito, b.accumulators.ito)
    assert np.array_equal(a.accumulators.bias_full, b.accumulators.bias_full)
    assert np.array_equal(a.accumulators.bias_part, b.accumulators.bias_part)


def test_noise_streams_are_uncorrelated_across_modes():
    n = 100_000
    draws = whole_run_normals(seed=3, channel=0, n_modes=4, n_draws=n)
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
    scheme = SchemeSpec(dt=h, t_final=t_final, seed=10_000)
    seeds = [10_000 + i for i in range(m_trials)]
    qs = run_seeds(lambda out: out.accumulators.q, model, scheme, req, seeds)
    assert qs[0].tobytes() == simulate_model(model, scheme, req).accumulators.q.tobytes()
    acc_q = np.zeros(20)
    for q in qs:  # in seed order
        acc_q += q
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
        out = simulate_model(
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
    out = simulate_model(model, scheme, req)
    assert np.all(np.isfinite(out.xT))
    assert np.all(np.isfinite(out.accumulators.q))
    assert out.accumulators.q[0] > 0


def test_burgers_drift_runs_and_is_deterministic():
    model = ModelSpec(
        operator=OP, theta_true=0.1, gamma=0.8,
        nonlinearity=NonlinearitySpec("burgers"),
        initial_modes=(0.5, 0.2), n_sim=32,
    )
    req = EstimatorRequest(alpha=0.8, n_list=(8, 32))
    scheme = SchemeSpec(dt=1e-3, t_final=0.5, seed=606)
    a = simulate_model(model, scheme, req)
    b = simulate_model(model, scheme, req)
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
        simulate_model(model, scheme, EstimatorRequest(alpha=1.0, n_list=(4,)))
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
        simulate_model(model, scheme, req)
    assert (exc.value.step, exc.value.mode) == (1, 3)


@pytest.mark.parametrize("n_steps, stride", [(12, 3), (12, 5), (12, 20)])
def test_snapshot_indices_take_every_stride_and_the_last_step(n_steps, stride):
    listed = list(range(0, n_steps + 1, stride))
    if listed[-1] != n_steps:
        listed.append(n_steps)
    assert simulate._snapshot_indices(n_steps, stride).tolist() == listed
    assert simulate._snapshot_indices(n_steps, None) is None


def test_snapshot_indices_of_a_million_steps_stay_small():
    # one int64 array: 8 MB, where a list of Python ints took 48 MB
    idx, peak, _ = traced(simulate._snapshot_indices, 10**6, 1)
    assert len(idx) == 10**6 + 1 and idx[-1] == 10**6
    assert peak < 10_000_000


def test_snapshot_times_and_shape():
    model = linear_model(x0=(1.0, 0.5), n_sim=2)
    scheme = SchemeSpec(dt=0.1, t_final=1.0, seed=4, snapshot_stride=3)
    out = simulate_model(model, scheme, REQ1)
    assert out.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert out.trajectory.shape == (5, 2)
    assert np.array_equal(out.trajectory[0], out.x0)
    assert np.array_equal(out.trajectory[-1], out.xT)

    coupled = simulate_model(
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
        simulate_model(model, scheme, EstimatorRequest(alpha=0.5, n_list=(8,)))


def test_ou_backend_deterministic_and_finite():
    model = linear_model(theta=0.1, gamma=0.5, x0=(0.0,), n_sim=8)
    scheme = SchemeSpec(dt=1e-3, t_final=1.0, seed=77, backend="ou_exact")
    req = EstimatorRequest(alpha=0.5, n_list=(8,))
    a = simulate_model(model, scheme, req)
    b = simulate_model(model, scheme, req)
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
    out_c = simulate_model(coupled, scheme, req_c)
    out_s = simulate_model(scalar, scheme, req_s)
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
    out = simulate_model(
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
    out = simulate_model(model, scheme, req)
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
    with pytest.raises(ConfigurationError, match="dt must not exceed t_final"):
        SchemeSpec(dt=2.0, t_final=1.0, seed=0)
    # above 2**53 every float is an integer: the multiple check would test nothing
    with pytest.raises(ConfigurationError, match=r"t_final / dt must be at most 2\*\*53"):
        SchemeSpec(dt=1e-300, t_final=1.0, seed=0)
    assert SchemeSpec(dt=2.0**-53, t_final=1.0, seed=0).n_steps == 2**53


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
        simulate_model(
            linear_model(), SchemeSpec(dt=0.1, t_final=1.0, seed=0),
            EstimatorRequest(alpha=1.0, n_list=(2,), variants=("linear",)),
        )


def output_arrays(out):
    """Every array of a SimOutput and its accumulator, by name."""
    acc = out.accumulators
    arrays = {f"acc.{k}": getattr(acc, k)
              for k in ("q", "ito", "bias_full", "bias_part", "bias_w", "x0", "xT")}
    arrays.update({k: getattr(out, k) for k in
                   ("x0", "xT", "times", "trajectory", "w0", "wT", "w_trajectory")})
    return {k: None if v is None else np.ascontiguousarray(v) for k, v in arrays.items()}


def assert_same_bits(a, b):
    arrays_a, arrays_b = output_arrays(a), output_arrays(b)
    for name, x in arrays_a.items():
        y = arrays_b[name]
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("name", RUN_KINDS)
def test_trial_batches_are_bit_identical_to_lone_runs(name):
    model, scheme, req = RUN_KINDS[name]
    seeds = list(range(11, 27))
    whole = simulate_trials(model, scheme, req, seeds)
    split = simulate_trials(model, scheme, req, seeds[:5]) + simulate_trials(
        model, scheme, req, seeds[5:]
    )
    assert len(whole) == len(split) == len(seeds)
    for seed, a, b in zip(seeds, whole, split):
        assert_same_bits(a, b)
        lone = simulate_model(model, replace(scheme, seed=seed), req)
        assert_same_bits(a, lone)
        assert np.all(np.isfinite(a.xT))
        assert np.any(a.accumulators.bias_full != 0.0) == observed(model, req)
    assert whole[0].xT.tobytes() != whole[1].xT.tobytes()


def test_run_kinds_cover_both_stages_with_and_without_tables():
    # each stage applies its maps as tables in some kind and as transforms
    # in another, so every guarantee over the kinds holds for all four
    pairs = set()
    for model, _, req in RUN_KINDS.values():
        nl = model.nonlinearity
        if nl.variant == "fhn":  # the step evaluates the activator's cubic
            nl = NonlinearitySpec("polynomial", poly_coeffs=nl.fhn_params.cubic_coeffs())
        for f in (nl, req.bias_model):
            if f is not None and f.variant != "none":
                n = model.n_sim
                plan = NemytskiiPlan(f, _plans_grid(f, n), OP, 1, n, n)
                pairs.add((plan.stage, plan.tables))
    assert pairs == {("odd", True), ("odd", False), ("fft", True), ("fft", False)}


@pytest.mark.parametrize("name", RUN_KINDS)
def test_paths_do_not_depend_on_the_bias_model(name):
    # the bias model only observes the path: the model alone picks the kernel
    # and the grid of its drift, so a misspecified estimator sees the data of
    # the correct one.  A kind's twin is observed by a quadratic, or by
    # nothing when the kind has a bias model of its own
    model, scheme, req = RUN_KINDS[name]
    twin = replace(req, bias_model=QUADRATIC if req.bias_model is None else NONE_NL)
    seeds = [3, 4, 5]
    if model.nonlinearity.variant == "fhn":  # its bias model is the activator's cubic
        with pytest.raises(ConfigurationError, match="bias_model overrides"):
            simulate_trials(model, scheme, twin, seeds)
        return
    for a, b in zip(simulate_trials(model, scheme, req, seeds),
                    simulate_trials(model, scheme, twin, seeds)):
        for x, y in [(a.x0, b.x0), (a.xT, b.xT), (a.trajectory, b.trajectory),
                     (a.accumulators.q, b.accumulators.q),
                     (a.accumulators.ito, b.accumulators.ito)]:
            assert (x is None and y is None) or x.tobytes() == y.tobytes()
        assert np.any(b.accumulators.bias_full != 0.0) == observed(model, twin)
        for variant in ("linear", "full"):
            theta = estimate_theta(b.accumulators, twin, variant, req.n_list[-1])
            assert math.isfinite(theta.theta_hat)


@pytest.mark.parametrize("name", RUN_KINDS)
def test_drift_outputs_do_not_depend_on_partial_variants(name):
    # the step evaluates the drift's own row alone and the partial rows are
    # evaluated apart from it, so the full field's drift has the same bits
    # with or without them (the fft stage projects each batch of its stack
    # in one product, and the drift's batch is its row alone)
    model, scheme, req = RUN_KINDS[name]
    lean = replace(req, variants=tuple(v for v in req.variants if not v.startswith("partial")))
    seeds = [3, 4, 5]
    with_rows = simulate_trials(model, scheme, req, seeds)
    without = simulate_trials(model, scheme, lean, seeds)
    for a, b in zip(with_rows, without):
        for field in ("x0", "xT", "trajectory", "wT"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None), field
            assert x is None or x.tobytes() == y.tobytes(), field
        for variant in lean.variants:
            for n in req.n_list:
                assert (estimate_theta(a.accumulators, req, variant, n).theta_hat.hex()
                        == estimate_theta(b.accumulators, lean, variant, n).theta_hat.hex())


@pytest.mark.parametrize("model_nl, bias, n_sim, n_list, stages", [
    (ALLEN_CAHN, None, 100, (4, 8, 16, 20, 32), {("odd", True)}),
    (SKEWED_CUBIC, None, 32, (4, 8, 16, 32), {("fft", True)}),
    (SKEWED_CUBIC, None, 100, (8, 40, 100), {("fft", True), ("fft", False)}),
    (NONE_NL, SKEWED_CUBIC, 48, (8, 40), {("fft", True), ("fft", False)}),
], ids=["odd", "tables", "fft", "drift_free-fft"])
def test_partial_rows_on_their_own_grid_match_the_shared_grid(
    model_nl, bias, n_sim, n_list, stages
):
    # each truncation N is evaluated on its own grid, exact for N modes in
    # and out; the run's grid, exact for every truncation of its n_sim modes,
    # gives the same first N coefficients up to round-off, and the columns
    # from N on, which no estimator reads, stay zero
    model = ModelSpec(OP, 0.05, 0.6, model_nl, (0.7071, -0.2), n_sim)
    scheme = SchemeSpec(dt=1e-3, t_final=0.03, seed=0, snapshot_stride=1)
    req = EstimatorRequest(alpha=0.6, n_list=n_list, variants=("full", "partial", "linear"),
                           bias_model=bias)
    bias_nl = bias or model_nl
    plans = [NemytskiiPlan(bias_nl, _plans_grid(bias_nl, n), OP, 1, n, n) for n in n_list]
    assert {(plan.stage, plan.tables) for plan in plans} == stages
    shared = _plans_grid(bias_nl, n_sim)
    for out in simulate_trials(model, scheme, req, [3, 4]):
        left = out.trajectory[:-1]
        acc = out.accumulators
        full = scheme.dt * np.sum(left * nemytskii_modes(left, bias_nl, shared, OP, n_sim), axis=0)
        assert np.max(np.abs(acc.bias_full - full)) <= 1e-12 * np.max(np.abs(full))
        for i, n in enumerate(n_list):
            cut = left.copy()
            cut[:, n:] = 0.0
            f = nemytskii_modes(cut, bias_nl, shared, OP, n_sim)
            ref = scheme.dt * np.sum(left[:, :n] * f[:, :n], axis=0)
            assert np.max(np.abs(acc.bias_part[i, :n] - ref)) <= 1e-12 * np.max(np.abs(ref)), n
            assert np.all(acc.bias_part[i, n:] == 0.0), n


def observer_traced_peak(variants):
    model = ModelSpec(OP, 0.05, 0.6, ALLEN_CAHN, (0.7071,), 100)
    scheme = SchemeSpec(dt=1e-4, t_final=0.01, seed=3)
    req = EstimatorRequest(alpha=0.6, n_list=(4, 8, 16, 20, 32), variants=variants)
    return traced(simulate_trials, model, scheme, req, list(range(16)))[1]


def test_partial_rows_stay_within_the_block_value_budget():
    # the observer's partial plans, the left states they read and the rows'
    # products hold at most _BLOCK_VALUES values (plans counted at the
    # values their buffers hold per row): 0.38 MB, where one plan call per
    # 40-step block took 4.2 MB
    lean, rows = ("full", "linear"), ("full", "partial", "linear")
    observer_traced_peak(rows)  # fill the caches outside the compared runs
    extra = observer_traced_peak(rows) - observer_traced_peak(lean)
    assert 0 < extra <= 8 * _BLOCK_VALUES


@pytest.mark.parametrize("bias", [QUADRATIC, NonlinearitySpec("burgers")],
                         ids=["quadratic", "burgers"])
@pytest.mark.parametrize("n_trials", [2, 16])
def test_fft_stage_observer_holds_at_most_the_block_value_budget(bias, n_trials):
    # a 100-mode full row on the fft stage holds 2762 values per plan row
    # (2505 for Burgers); counted at 1636, its sub-blocks held 1.4 budgets
    req = EstimatorRequest(alpha=0.6, n_list=(4, 8), variants=("full", "linear"),
                           bias_model=bias)
    acc = EstimatorAccumulator(n_trials, eigenvalues(OP, 100), 1.0, 0.6, req, False)
    simulate._observer(bias, OP, req, acc, 40)  # fill the caches
    assert traced(simulate._observer, bias, OP, req, acc, 40)[2] <= 8 * _BLOCK_VALUES


@pytest.mark.parametrize("name", ["drift_free_euler", "drift_free_ou_exact", "allen_cahn",
                                  "fhn"])
def test_accumulator_holds_only_the_integrals_its_request_reads(name):
    model, scheme, req = RUN_KINDS[name]
    scheme = replace(scheme, t_final=0.01)
    lean = tuple(v for v in req.variants if not v.startswith("partial"))
    robust = {}
    for mode in NUMERATOR_MODES:
        for variants in (req.variants, lean):
            run_req = replace(req, variants=variants, numerator_mode=mode)
            acc = simulate_model(model, scheme, run_req).accumulators
            assert (acc.ito is None) == (mode == "robust")
            assert (acc.bias_part is None) == (variants == lean)
            assert (acc.bias_w is None) == (name != "fhn")
            # what the accumulator holds does not move what it reads
            thetas = [estimate_theta(acc, replace(run_req, numerator_mode="robust"), v, n)
                      .theta_hat.hex() for v in variants for n in req.n_list]
            assert robust.setdefault(variants, thetas) == thetas
            if mode == "robust":
                with pytest.raises(ConfigurationError, match="Itô sum.*numerator_mode"):
                    estimate_theta(acc, replace(run_req, numerator_mode="ito_sum"),
                                   "linear", req.n_list[0])


@pytest.mark.parametrize("name, variants, query, missing", [
    ("allen_cahn", ("linear",), "full", "bias_full"),
    ("quadratic_bias", ("linear",), "full", "bias_full"),
    ("drift_free_bias", ("linear",), "full", "bias_full"),
    ("fhn", ("linear",), "full", "bias_full"),
    ("fhn", ("partial2", "linear"), "partial1", "bias_w"),
], ids=["allen_cahn", "quadratic_bias", "drift_free_bias", "fhn", "fhn-partial2"])
def test_an_integral_no_requested_variant_reads_is_not_held(name, variants, query, missing):
    # nor observed: a linear-only run builds no observer, and its linear
    # rows keep the bits of a run of every variant
    model, scheme, req = RUN_KINDS[name]
    scheme, lean, seeds = replace(scheme, t_final=0.01), replace(req, variants=variants), [3, 4]
    assert (simulate._setup(model, scheme, lean, seeds)[-1] is None) == (variants == ("linear",))
    for a, b in zip(simulate_trials(model, scheme, lean, seeds),
                    simulate_trials(model, scheme, req, seeds)):
        assert a.accumulators.bias_full is None and a.accumulators.bias_w is None
        assert (a.accumulators.bias_part is None) == (variants == ("linear",))
        for n in req.n_list:
            assert (estimate_theta(a.accumulators, lean, "linear", n).theta_hat.hex()
                    == estimate_theta(b.accumulators, req, "linear", n).theta_hat.hex())
        with pytest.raises(ConfigurationError, match=f"^{missing} was not accumulated"):
            estimate_theta(a.accumulators, req, query, 4)


FHN_IN_A_FRESH_INTERPRETER = """
import os, sys
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = sys.argv[1]
from conftest import RUN_KINDS
from spde_drift.estimate import estimate_theta
from spde_drift.simulate import simulate_model
model, scheme, req = RUN_KINDS["fhn"]
out = simulate_model(model, scheme, req)
print(out.xT.tobytes().hex(), out.wT.tobytes().hex())
for variant in req.variants:
    for n in req.n_list:
        print(variant, n, estimate_theta(out.accumulators, req, variant, n).theta_hat.hex())
"""


def test_fhn_outputs_do_not_depend_on_blas_threads(fresh_python):
    # BLAS is loaded with the thread count of its environment, so each count
    # needs a fresh interpreter
    one, two = (fresh_python(FHN_IN_A_FRESH_INTERPRETER, n) for n in (1, 2))
    assert len(one.splitlines()) == 1 + 4 * 2
    assert one == two


def test_trial_batches_reject_bad_seed_lists():
    model, scheme, req = RUN_KINDS["allen_cahn"]
    for seeds in ([], [1, -1], [2**64]):
        with pytest.raises(ConfigurationError, match="seeds"):
            simulate_trials(model, scheme, req, seeds)


def test_scalar_run_rejects_coupled_variants():
    model, scheme, _ = RUN_KINDS["allen_cahn"]
    req = EstimatorRequest(alpha=0.6, n_list=(4,), variants=("full", "partial1"))
    with pytest.raises(ConfigurationError, match="scalar runs use variants full/partial/linear"):
        simulate_model(model, scheme, req)


def rejected_case(name):
    """(model, scheme, request) of a run that breaks one validation rule."""
    fhn_model, scheme, fhn_req = RUN_KINDS["fhn"]
    model, _, req = RUN_KINDS["allen_cahn"]
    ou = replace(scheme, backend="ou_exact")
    return {
        "coupled_bias_override": (fhn_model, scheme, replace(fhn_req, bias_model=NONE_NL)),
        "coupled_partial": (fhn_model, scheme, replace(req, n_list=(4,))),
        "coupled_ou_exact": (fhn_model, ou, fhn_req),
        "scalar_fhn_bias": (model, scheme, replace(req, bias_model=FHN)),
        "ou_exact_with_drift": (model, ou, req),
        "scalar_partial1": (model, scheme, replace(fhn_req, n_list=(4,))),
        "n_list_above_n_sim": (model, scheme, replace(req, n_list=(4, 33))),
    }[name]


@pytest.mark.parametrize("name, message", [
    ("coupled_bias_override", "bias_model overrides are not supported"),
    ("coupled_partial", "coupled runs use variants full/partial1/partial2/linear"),
    ("coupled_ou_exact", "the coupled system only supports the euler backend"),
    ("scalar_fhn_bias", "fhn is not a valid bias model for scalar runs"),
    ("ou_exact_with_drift", "backend 'ou_exact' requires a drift-free model"),
    ("scalar_partial1", "scalar runs use variants full/partial/linear"),
    ("n_list_above_n_sim", "requested truncation 33 exceeds n_sim=32"),
])
def test_invalid_runs_are_rejected_before_stepping(name, message, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an invalid run reached the stepping code")

    for attr in ("_run_blocks", "NemytskiiPlan"):
        monkeypatch.setattr(simulate, attr, unreachable)
    model, scheme, req = rejected_case(name)
    with pytest.raises(ConfigurationError, match=message):
        simulate_trials(model, scheme, req, [1, 2])


def test_blow_up_in_a_batch_is_the_lone_runs_error():
    growth = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.0, 0.0, 1.0))
    model = ModelSpec(OP, 0.05, 1.0, growth, (0.5,), 4)
    scheme = SchemeSpec(dt=0.01, t_final=2.0, seed=0)
    req = EstimatorRequest(alpha=1.0, n_list=(4,), variants=("full", "linear"))
    seeds = [101, 102, 103, 104]
    batch = simulate_trials(model, scheme, req, seeds)
    failed = 0
    for seed, out in zip(seeds, batch):
        lone_scheme = replace(scheme, seed=seed)
        if isinstance(out, BlowUpError):
            failed += 1
            with pytest.raises(BlowUpError) as exc:
                simulate_model(model, lone_scheme, req)
            assert (out.step, out.mode, str(out)) == (
                exc.value.step, exc.value.mode, str(exc.value)
            )
        else:
            assert_same_bits(out, simulate_model(model, lone_scheme, req))
    assert 0 < failed < len(seeds)


@pytest.mark.parametrize("name", RUN_KINDS)
def test_stepped_outputs_are_bit_identical_for_any_block_length(name, monkeypatch):
    model, scheme, req = RUN_KINDS[name]
    # 302 steps: no block length below divides them, nor does the default 256
    scheme = replace(scheme, t_final=0.302)
    seeds = [31, 32, 33]
    default = simulate_trials(model, scheme, req, seeds)
    for seed, out in zip(seeds, default):
        assert_same_bits(out, simulate_model(model, replace(scheme, seed=seed), req))
    for length in (1, 3, 7):
        # every noise tile and observer sub-block takes that many steps
        monkeypatch.setattr(simulate, "_block_length",
                            lambda limit, per_item, n=length: min(limit, n))
        for a, b in zip(default, simulate_trials(model, scheme, req, seeds)):
            assert_same_bits(a, b)


@pytest.mark.parametrize("backend", ["euler", "ou_exact"])
def test_drift_free_blow_up_names_its_first_non_finite_step_and_mode(backend):
    # increments of amplitude 1e308 overflow at the first draw above ~1.8
    model = linear_model(theta=1e-3, gamma=1e-9, x0=(0.0,), n_sim=2)
    scheme = SchemeSpec(dt=1.0, t_final=100.0, seed=0, noise_scale=1e308, backend=backend)
    req = EstimatorRequest(alpha=1.0, n_list=(2,), variants=("linear",))
    seeds = [7, 8, 9]
    expected = [(7, 1), (1, 2), (1, 1)]
    batch = simulate_trials(model, scheme, req, seeds)
    assert [(err.step, err.mode) for err in batch] == expected
    for seed, (step, mode) in zip(seeds, expected):
        with pytest.raises(BlowUpError) as exc:
            simulate_model(model, replace(scheme, seed=seed), req)
        assert (exc.value.step, exc.value.mode) == (step, mode)


def test_noise_blocks_continue_the_whole_run_streams():
    seeds, h, n_steps = [5, 6, 7], 1e-3, 700
    amps = np.array([[1.0, 0.5, 0.25], [0.1, 0.2, 0.3]])
    noise = _NoiseBlocks(seeds, amps, n_steps, h)
    assert noise.length < n_steps
    blocks = [noise.block(min(noise.length, n_steps - j)).copy()
              for j in range(0, n_steps, noise.length)]
    drawn = np.concatenate(blocks, axis=-1)
    for b, seed in enumerate(seeds):
        for c in range(len(amps)):
            whole = whole_run_normals(seed, c, amps.shape[1], n_steps)
            whole *= math.sqrt(h)
            whole *= amps[c]
            assert drawn[b, c].T.tobytes() == whole.tobytes()


def traced_peak(n_steps):
    model = ModelSpec(OP, 0.05, 0.6, ALLEN_CAHN, (0.7071,), 4)
    scheme = SchemeSpec(dt=1e-4, t_final=n_steps * 1e-4, seed=3)
    req = EstimatorRequest(alpha=0.6, n_list=(4,), variants=("full", "linear"))
    return traced(simulate_model, model, scheme, req)[1]


def test_stepping_memory_does_not_grow_with_n_steps():
    traced_peak(10)  # fill the caches outside the compared runs
    short, long = traced_peak(500), traced_peak(4000)
    # a whole-run noise array would add 8 * 4 * 3500 = 112 kB
    assert long - short < 24_000


def drift_free_traced_peak(backend, n_steps):
    model = linear_model(theta=0.1, gamma=0.5, x0=(0.5,), n_sim=64)
    scheme = SchemeSpec(dt=1e-4, t_final=n_steps * 1e-4, seed=3, backend=backend)
    req = EstimatorRequest(alpha=0.5, n_list=(8, 64))
    return traced(simulate_model, model, scheme, req)[1]


@pytest.mark.parametrize("backend", ["euler", "ou_exact"])
def test_drift_free_memory_does_not_grow_with_n_steps(backend):
    drift_free_traced_peak(backend, 10)
    short = drift_free_traced_peak(backend, 2048)
    long = drift_free_traced_peak(backend, 16384)
    # a whole-run path or draw array would add 8 * 64 * 14336 = 7.3 MB each
    assert long - short < 1_000_000


def reference_linear_output(model, scheme):
    """The drift-free run as a whole path: every draw at once, one lfilter
    call per mode over the whole run, and axis-0 sums over the path."""
    n0, h, n_steps = model.n_sim, scheme.dt, scheme.n_steps
    theta, gamma = model.theta_true, model.gamma
    lam = eigenvalues(model.operator, n0)
    x0 = model.initial_state()
    draws = whole_run_normals(scheme.seed, 0, n0, n_steps)
    amp_noise = scheme.noise_scale * lam ** (-gamma)
    if scheme.backend == "ou_exact":
        decay = np.exp(-theta * lam * h)
        amp = amp_noise * np.sqrt(-np.expm1(-2.0 * theta * lam * h) / (2.0 * theta * lam))
    else:
        decay = amp = 1.0 / (1.0 + h * theta * lam)
        draws *= math.sqrt(h)
        draws *= amp_noise
    path = np.empty((n_steps + 1, n0))
    path[0] = x0
    for k in range(n0):
        path[1:, k] = lfilter([amp[k]], [1.0, -decay[k]], draws[:, k])
    if np.any(x0 != 0.0):
        path[1:] += x0 * decay[None, :] ** np.arange(1, n_steps + 1)[:, None]
    left = path[:-1]
    steps = left * (path[1:] - left)
    ref = {
        "q": h * np.sum(left * left, axis=0), "ito": np.sum(steps, axis=0),
        "x0": path[0], "xT": path[-1], "times": None, "trajectory": None,
        "ito_scale": np.sum(np.abs(steps), axis=0),
    }
    if scheme.snapshot_stride is not None:
        idx = list(range(0, n_steps + 1, scheme.snapshot_stride))
        idx += [] if idx[-1] == n_steps else [n_steps]
        ref["times"], ref["trajectory"] = np.asarray(idx) * h, path[idx]
    return ref


DRIFT_FREE_CASES = [
    # (n_sim, x0, noise_scale, stride, n_steps, block values)
    (2, (0.0,), 1.0, None, 1000, 2 * 64),
    (5, (0.4, -0.1), 1.0, 7, 3001, 5 * 256),
    (5, (0.4,), 0.0, 7, 1000, 5 * 3),
    (20, (0.0,), 1.0, 7, 2500, None),
    (20, (0.3,), 1.0, None, 7000, None),
    (64, (0.7, 0.2), 1.0, 7, 2500, None),
    (64, (0.0,), 0.0, None, 300, 64),
]


@pytest.mark.parametrize("backend", ["euler", "ou_exact"])
@pytest.mark.parametrize(
    "case", DRIFT_FREE_CASES, ids=[f"n{c[0]}-{c[4]}steps" for c in DRIFT_FREE_CASES]
)
def test_drift_free_blocks_reproduce_the_whole_path(backend, case, monkeypatch):
    n_sim, x0, noise_scale, stride, n_steps, block_values = case
    if block_values is not None:  # blocks of block_values // n_sim steps
        monkeypatch.setattr("spde_drift.fields._BLOCK_VALUES", block_values)
    model = linear_model(theta=0.1, gamma=0.5, x0=x0, n_sim=n_sim)
    scheme = SchemeSpec(
        dt=1e-4, t_final=n_steps * 1e-4, seed=40 + n_sim, snapshot_stride=stride,
        backend=backend, noise_scale=noise_scale,
    )
    req = EstimatorRequest(alpha=0.5, n_list=(1, n_sim), numerator_mode="ito_sum")
    out = simulate_model(model, scheme, req)
    ref = reference_linear_output(model, scheme)
    acc = out.accumulators
    got = {"q": acc.q, "ito": acc.ito, "x0": out.x0, "xT": out.xT, "times": out.times,
           "trajectory": out.trajectory}
    for name, x in got.items():
        assert (x is None) == (ref[name] is None), name
        if x is not None:
            assert x.shape == ref[name].shape and x.tobytes() == ref[name].tobytes(), name
    assert acc.x0.tobytes() == out.x0.tobytes() and acc.xT.tobytes() == out.xT.tobytes()
    assert not acc.bias_full.any() and acc.bias_part.shape == (2, n_sim)
    assert not acc.bias_part.any()


@pytest.mark.parametrize("backend", ["euler", "ou_exact"])
@pytest.mark.parametrize("x0", [(0.0,), (0.7,)])
def test_single_mode_drift_free_sums_match_the_whole_path(backend, x0):
    # with one mode the whole-path sum over an (n_steps, 1) array is pairwise,
    # the running total sequential; they agree to round-off of the terms
    model = linear_model(theta=0.1, gamma=0.5, x0=x0, n_sim=1)
    scheme = SchemeSpec(dt=1e-4, t_final=0.03, seed=8, backend=backend, snapshot_stride=7)
    out = simulate_model(model, scheme, replace(REQ1, numerator_mode="ito_sum"))
    ref = reference_linear_output(model, scheme)
    assert abs(out.accumulators.q[0] - ref["q"][0]) <= 1e-15 * ref["q"][0]
    assert abs(out.accumulators.ito[0] - ref["ito"][0]) <= 1e-15 * ref["ito_scale"][0]
    for name in ("x0", "xT", "trajectory"):
        assert getattr(out, name).tobytes() == ref[name].tobytes(), name
