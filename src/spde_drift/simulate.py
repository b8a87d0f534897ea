"""Time integration in mode space.

The semilinear equation dX = (theta A X + F(X)) dt + (-A)^{-gamma} dW is
stepped with a linear-implicit Euler scheme: implicit in the stiff linear
part, explicit in the nonlinearity and the noise increment,

    x_{j+1}^k = (x_j^k + h F^k(X_j) + lambda_k^{-gamma} dW_j^k) / (1 + h theta lambda_k).

Noise increments are drawn from counter-based Philox streams keyed by
(seed, channel, mode), so trajectories are bit-reproducible regardless of
host parallelism.  The drift-free case admits two vectorized backends: the
implicit-Euler recursion itself and exact Gaussian transition sampling.

Estimator integrals are accumulated online with left-endpoint Riemann sums at
full step resolution; trajectories are only stored when snapshots are
requested.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import BlowUpError, ConfigurationError
from .estimate import EstimatorAccumulator, EstimatorRequest, warn_if_inadmissible
from .fields import (
    GridSpec,
    NemytskiiPlan,
    NonlinearitySpec,
    burgers_modes,
    default_grid,
)
from .spectrum import OperatorSpec, eigenvalues

BACKENDS = ("euler", "ou_exact")

_MAX_SEED = 2**64


@dataclass(frozen=True)
class ModelSpec:
    """The equation to simulate: operator, diffusivity, noise smoothing,
    nonlinearity, initial condition, and the simulated mode count."""

    operator: OperatorSpec
    theta_true: float
    gamma: float
    nonlinearity: NonlinearitySpec
    initial_modes: tuple[float, ...]
    n_sim: int
    initial_w_modes: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (self.theta_true > 0):
            raise ConfigurationError("theta_true must be positive")
        if not (self.gamma > 0):
            raise ConfigurationError("gamma must be positive")
        if self.n_sim < 1:
            raise ConfigurationError("n_sim must be >= 1")
        init = tuple(float(c) for c in self.initial_modes)
        if len(init) > self.n_sim:
            raise ConfigurationError("initial_modes has more entries than n_sim")
        if not all(math.isfinite(c) for c in init):
            raise ConfigurationError("initial_modes must be finite")
        object.__setattr__(self, "initial_modes", init)
        if self.initial_w_modes is not None:
            w = tuple(float(c) for c in self.initial_w_modes)
            if len(w) > self.n_sim:
                raise ConfigurationError("initial_w_modes has more entries than n_sim")
            object.__setattr__(self, "initial_w_modes", w)

    def initial_state(self) -> np.ndarray:
        x = np.zeros(self.n_sim)
        x[: len(self.initial_modes)] = self.initial_modes
        return x

    def initial_w_state(self) -> np.ndarray:
        w = np.zeros(self.n_sim)
        if self.initial_w_modes is not None:
            w[: len(self.initial_w_modes)] = self.initial_w_modes
        return w


@dataclass(frozen=True)
class SchemeSpec:
    """Time discretization: step size, horizon, seed, optional trajectory
    thinning.  ``noise_scale`` is a test hook (0 disables the noise)."""

    dt: float
    t_final: float
    seed: int
    snapshot_stride: int | None = None
    backend: str = "euler"
    noise_scale: float = 1.0

    def __post_init__(self):
        if not (self.dt > 0):
            raise ConfigurationError("dt must be positive")
        if not (self.t_final > 0):
            raise ConfigurationError("t_final must be positive")
        if self.dt > self.t_final:
            raise ConfigurationError("dt must not exceed t_final")
        n = round(self.t_final / self.dt)
        if n < 1 or abs(n - self.t_final / self.dt) > 1e-9 * max(1.0, n):
            raise ConfigurationError("t_final must be an integer multiple of dt")
        if not (0 <= int(self.seed) < _MAX_SEED):
            raise ConfigurationError("seed must fit in 64 bits")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")
        if self.backend not in BACKENDS:
            raise ConfigurationError(f"backend must be one of {BACKENDS}")
        if self.noise_scale < 0:
            raise ConfigurationError("noise_scale must be nonnegative")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)


@dataclass
class SimOutput:
    """Endpoints, estimator accumulators, and an optional thinned trajectory."""

    x0: np.ndarray
    xT: np.ndarray
    accumulators: EstimatorAccumulator
    times: np.ndarray | None = None
    trajectory: np.ndarray | None = None
    w0: np.ndarray | None = None
    wT: np.ndarray | None = None
    w_trajectory: np.ndarray | None = None


def _mode_stream(seed: int, channel: int, mode: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, channel, mode)."""
    key = (int(seed) << 64) | (int(channel) << 32) | int(mode)
    return np.random.Generator(np.random.Philox(key=key))


def _standard_normals(seed, channel, n_modes, n_draws) -> np.ndarray:
    """(n_draws, n_modes) independent N(0,1) draws, one stream per mode."""
    out = np.empty((n_draws, n_modes))
    for k in range(n_modes):
        out[:, k] = _mode_stream(seed, channel, k + 1).standard_normal(n_draws)
    return out


def _scaled_noise(seed, channel, n_modes, n_steps, h, amp) -> np.ndarray:
    """Increment matrix amp_k * dW_j^k with dW ~ N(0, h)."""
    noise = _standard_normals(seed, channel, n_modes, n_steps)
    noise *= math.sqrt(h)
    noise *= amp
    return noise


def _base_noise_amp(scheme: SchemeSpec, lam: np.ndarray, gamma: float) -> np.ndarray:
    return scheme.noise_scale * lam ** (-gamma)


def _snapshot_indices(n_steps: int, stride: int | None) -> np.ndarray | None:
    if stride is None:
        return None
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.asarray(idx)


def _check_finite(x: np.ndarray, step: int):
    if not np.all(np.isfinite(x)):
        mode = int(np.flatnonzero(~np.isfinite(x))[0]) + 1
        raise BlowUpError(step=step, mode=mode)


def _validate_request(model: ModelSpec, req: EstimatorRequest):
    if max(req.n_list) > model.n_sim:
        raise ConfigurationError(
            f"requested truncation {max(req.n_list)} exceeds n_sim={model.n_sim}"
        )


def _resolve_grid(model: ModelSpec, bias_nl: NonlinearitySpec, grid: GridSpec | None):
    degree = max(model.nonlinearity.degree, bias_nl.degree)
    if grid is None:
        return default_grid(model.n_sim, degree)
    return grid


def _row_masks(n_list, n_modes) -> np.ndarray:
    """Row 0 keeps the full state, row i the first n_list[i-1] modes."""
    masks = np.zeros((1 + len(n_list), n_modes))
    masks[0] = 1.0
    for i, n in enumerate(n_list, start=1):
        masks[i, :n] = 1.0
    return masks


def _drift_evaluator(nl: NonlinearitySpec, grid, spec, n_rows: int, n_modes: int):
    """Per-trajectory callable mapping an (n_rows, n_modes) batch to the
    drift's mode coefficients; the result is valid until the next call."""
    if nl.variant == "polynomial":
        return NemytskiiPlan(nl, grid, spec, n_rows, n_modes, n_modes)
    if nl.variant == "burgers":
        return functools.partial(burgers_modes, grid=grid, spec=spec, n_out=n_modes)
    raise ConfigurationError(f"cannot evaluate nonlinearity {nl.variant!r}")


def simulate_semilinear(
    model: ModelSpec,
    scheme: SchemeSpec,
    est_req: EstimatorRequest,
    grid: GridSpec | None = None,
) -> SimOutput:
    """Simulate one trajectory and collect all requested estimator integrals.

    Dispatches to exact transition sampling when ``scheme.backend`` is
    ``"ou_exact"`` (drift-free models only) and to a vectorized implicit-Euler
    recursion when the nonlinearity is ``none``; otherwise steps the
    semi-implicit scheme with pseudospectral drift evaluation.
    """
    if model.nonlinearity.variant == "fhn":
        raise ConfigurationError("use simulate_fhn for the coupled system")
    _validate_request(model, est_req)
    warn_if_inadmissible(est_req.alpha, model.gamma, model.operator.beta)

    bias_nl = model.nonlinearity if est_req.bias_model is None else est_req.bias_model
    if bias_nl.variant == "fhn":
        raise ConfigurationError("fhn is not a valid bias model for scalar runs")

    if scheme.backend == "ou_exact":
        if model.nonlinearity.variant != "none" or bias_nl.variant != "none":
            raise ConfigurationError(
                "backend 'ou_exact' requires a drift-free model (nonlinearity none)"
            )
        return _linear_output(model, scheme, est_req, exact=True)

    if model.nonlinearity.variant == "none" and bias_nl.variant == "none":
        return _linear_output(model, scheme, est_req, exact=False)

    return _semilinear_loop(model, scheme, est_req, bias_nl, grid)


def _linear_output(model, scheme, req, exact: bool) -> SimOutput:
    """Drift-free trajectory via a per-mode linear recursion (vectorized)."""
    n0 = model.n_sim
    h = scheme.dt
    n_steps = scheme.n_steps
    lam = eigenvalues(model.operator, n0)
    theta = model.theta_true
    x0 = model.initial_state()

    path = np.empty((n_steps + 1, n0))
    path[0] = x0
    if exact:
        decay = np.exp(-theta * lam * h)
        amp = _base_noise_amp(scheme, lam, model.gamma) * np.sqrt(
            -np.expm1(-2.0 * theta * lam * h) / (2.0 * theta * lam)
        )
        draws = _standard_normals(scheme.seed, 0, n0, n_steps)
    else:
        decay = 1.0 / (1.0 + h * theta * lam)
        amp = decay  # noise enters the implicit step divided by (1 + h theta lam)
        draws = _scaled_noise(
            scheme.seed, 0, n0, n_steps, h, _base_noise_amp(scheme, lam, model.gamma)
        )
    for k in range(n0):
        path[1:, k] = lfilter([amp[k]], [1.0, -decay[k]], draws[:, k])
    if np.any(x0 != 0.0):
        j = np.arange(1, n_steps + 1)[:, None]
        path[1:] += x0 * decay[None, :] ** j

    _check_finite(path[-1], n_steps)
    acc = EstimatorAccumulator.from_linear_path(
        path, h, lam, scheme.t_final, model.gamma, req.n_list
    )
    idx = _snapshot_indices(n_steps, scheme.snapshot_stride)
    times = trajectory = None
    if idx is not None:
        times = idx * h
        trajectory = path[idx].copy()
    return SimOutput(
        x0=path[0].copy(), xT=path[-1].copy(), accumulators=acc,
        times=times, trajectory=trajectory,
    )


def _semilinear_loop(model, scheme, req, bias_nl, grid) -> SimOutput:
    n0 = model.n_sim
    h = scheme.dt
    n_steps = scheme.n_steps
    op = model.operator
    lam = eigenvalues(op, n0)
    theta = model.theta_true
    grid = _resolve_grid(model, bias_nl, grid)

    denom = 1.0 + h * theta * lam
    noise = _scaled_noise(
        scheme.seed, 0, n0, n_steps, h, _base_noise_amp(scheme, lam, model.gamma)
    )

    dyn_nl = model.nonlinearity
    same_bias = req.bias_model is None
    has_bias = bias_nl.variant != "none"
    has_dyn = dyn_nl.variant != "none"
    need_rows = has_bias and req.wants_partial
    masks = _row_masks(req.n_list if need_rows else (), n0)
    batch = np.empty_like(masks)
    bias_eval = _drift_evaluator(bias_nl, grid, op, len(masks), n0) if has_bias else None
    dyn_eval = (
        _drift_evaluator(dyn_nl, grid, op, 1, n0) if has_dyn and not same_bias else None
    )

    acc = EstimatorAccumulator(
        lam, scheme.t_final, model.gamma, req.n_list,
        track_partial=(need_rows or not has_bias),
    )
    idx = _snapshot_indices(n_steps, scheme.snapshot_stride)
    snaps = [] if idx is not None else None

    x0 = model.initial_state()
    x = x0.copy()
    # a blow-up surfaces as BlowUpError from _check_finite, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            if snaps is not None and j % scheme.snapshot_stride == 0:
                snaps.append(x.copy())

            f_full = f_rows = None
            if has_bias:
                np.multiply(x, masks, out=batch)
                out = bias_eval(batch)
                f_full = out[0]
                if need_rows:
                    f_rows = out[1:]
            if same_bias:
                f_dyn = f_full
            else:
                f_dyn = dyn_eval(x[None, :])[0] if has_dyn else None

            acc.add_state(x, f_full=f_full, f_part_rows=f_rows)
            if f_dyn is not None:
                x_next = (x + h * f_dyn + noise[j]) / denom
            else:
                x_next = (x + noise[j]) / denom
            _check_finite(x_next, j + 1)
            acc.add_increment(x, x_next)
            x = x_next

    if snaps is not None:
        snaps.append(x.copy())
    acc.finalize(h, x0, x)
    times = trajectory = None
    if idx is not None:
        times = idx * h
        trajectory = np.asarray(snaps)
    return SimOutput(
        x0=x0, xT=x, accumulators=acc, times=times, trajectory=trajectory
    )


def simulate_fhn(
    model: ModelSpec,
    scheme: SchemeSpec,
    est_req: EstimatorRequest,
    grid: GridSpec | None = None,
) -> SimOutput:
    """Coupled activator/recovery system.

    The activator v is stepped linear-implicitly like the scalar equation;
    the recovery component w is stepped explicitly,
    w_{j+1} = w_j + h eps (v_j - b w_j) + sigma_w lambda^{-gamma_w} dW^{(2)}.
    Accumulates the integrals for all four coupled-system estimators.
    """
    nl = model.nonlinearity
    if nl.variant != "fhn":
        raise ConfigurationError("simulate_fhn requires an fhn nonlinearity")
    if est_req.bias_model is not None:
        raise ConfigurationError(
            "bias_model overrides are not supported for the coupled system"
        )
    if any(v == "partial" for v in est_req.variants):
        raise ConfigurationError(
            "coupled runs use variants full/partial1/partial2/linear"
        )
    if scheme.backend != "euler":
        raise ConfigurationError("the coupled system only supports the euler backend")
    _validate_request(model, est_req)
    warn_if_inadmissible(est_req.alpha, model.gamma, model.operator.beta)

    p = nl.fhn_params
    n0 = model.n_sim
    h = scheme.dt
    n_steps = scheme.n_steps
    op = model.operator
    lam = eigenvalues(op, n0)
    cubic = NonlinearitySpec("polynomial", poly_coeffs=p.cubic_coeffs())
    grid = _resolve_grid(model, cubic, grid)

    denom = 1.0 + h * model.theta_true * lam
    amp_v = p.sigma * _base_noise_amp(scheme, lam, model.gamma)
    amp_w = p.sigma_w * _base_noise_amp(scheme, lam, p.gamma_w)
    noise_v = _scaled_noise(scheme.seed, 0, n0, n_steps, h, amp_v)
    noise_w = _scaled_noise(scheme.seed, 1, n0, n_steps, h, amp_w)

    need_rows = est_req.wants_partial
    masks = _row_masks(est_req.n_list if need_rows else (), n0)
    batch = np.empty_like(masks)
    cubic_eval = NemytskiiPlan(cubic, grid, op, len(masks), n0, n0)
    acc = EstimatorAccumulator(
        lam, scheme.t_final, model.gamma, est_req.n_list,
        coupled=True, track_partial=need_rows,
    )
    idx = _snapshot_indices(n_steps, scheme.snapshot_stride)
    snaps_v = [] if idx is not None else None
    snaps_w = [] if idx is not None else None

    v0 = model.initial_state()
    w0 = model.initial_w_state()
    v = v0.copy()
    w = w0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            if snaps_v is not None and j % scheme.snapshot_stride == 0:
                snaps_v.append(v.copy())
                snaps_w.append(w.copy())

            np.multiply(v, masks, out=batch)
            out = cubic_eval(batch)
            f_rows = out[1:] if need_rows else None
            acc.add_state(v, f_full=out[0], f_part_rows=f_rows, w=w)

            f_dyn = out[0] - w
            v_next = (v + h * f_dyn + noise_v[j]) / denom
            w_next = w + h * (p.epsilon * (v - p.b * w)) + noise_w[j]
            _check_finite(v_next, j + 1)
            _check_finite(w_next, j + 1)
            acc.add_increment(v, v_next)
            v = v_next
            w = w_next

    if snaps_v is not None:
        snaps_v.append(v.copy())
        snaps_w.append(w.copy())
    acc.finalize(h, v0, v)
    times = traj_v = traj_w = None
    if idx is not None:
        times = idx * h
        traj_v = np.asarray(snaps_v)
        traj_w = np.asarray(snaps_w)
    return SimOutput(
        x0=v0, xT=v, accumulators=acc, times=times, trajectory=traj_v,
        w0=w0, wT=w, w_trajectory=traj_w,
    )


def simulate_model(
    model: ModelSpec,
    scheme: SchemeSpec,
    est_req: EstimatorRequest,
    grid: GridSpec | None = None,
) -> SimOutput:
    """Dispatch to the scalar or coupled simulator based on the model."""
    if model.nonlinearity.variant == "fhn":
        return simulate_fhn(model, scheme, est_req, grid)
    return simulate_semilinear(model, scheme, est_req, grid)


def simulate_ou_exact(
    theta: float,
    gamma: float,
    spec: OperatorSpec,
    n_modes: int,
    times,
    seed: int,
    noise_scale: float = 1.0,
) -> np.ndarray:
    """Exact transition sampling of the drift-free mode processes.

    Starting from zero at time zero, each mode follows the Gaussian
    transition x_{t+d} = e^{-theta lam d} x_t
    + lam^{-gamma} sqrt((1 - e^{-2 theta lam d}) / (2 theta lam)) xi.
    Returns an array of shape (len(times), n_modes).
    """
    if not (theta > 0 and gamma > 0):
        raise ConfigurationError("theta and gamma must be positive")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 1:
        raise ConfigurationError("times must be a 1-D nonempty sequence")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ConfigurationError("times must be nondecreasing and start at >= 0")

    lam = eigenvalues(spec, n_modes)
    prepend = times[0] > 0
    full = np.concatenate([[0.0], times]) if prepend else times
    diffs = np.diff(full)
    n_int = len(diffs)

    path = np.zeros((len(full), n_modes))
    if n_int > 0:
        uniform = diffs[0] > 0 and np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0)
        if uniform:
            d = np.exp(-theta * lam * diffs[0])
            amp = noise_scale * lam ** (-gamma) * np.sqrt(
                -np.expm1(-2.0 * theta * lam * diffs[0]) / (2.0 * theta * lam)
            )
            draws = _standard_normals(seed, 0, n_modes, n_int)
            for k in range(n_modes):
                path[1:, k] = lfilter([amp[k]], [1.0, -d[k]], draws[:, k])
        else:
            draws = _standard_normals(seed, 0, n_modes, n_int)
            x = np.zeros(n_modes)
            for i, dt in enumerate(diffs):
                if dt > 0:
                    d = np.exp(-theta * lam * dt)
                    amp = noise_scale * lam ** (-gamma) * np.sqrt(
                        -np.expm1(-2.0 * theta * lam * dt) / (2.0 * theta * lam)
                    )
                    x = d * x + amp * draws[i]
                path[i + 1] = x
    return path[1:] if prepend else path
