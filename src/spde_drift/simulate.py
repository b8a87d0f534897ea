"""Time integration in mode space.

Every model is a semilinear equation dX = (theta A X + F(X)) dt + noise on a
``(components, n_modes)`` state: one component for a scalar equation, two
(activator v, recovery w) for the FitzHugh-Nagumo system.  One
linear-implicit Euler core steps them all,

    x_{j+1} = (x_j + h F(x_j) + noise_j) / denom,

implicit in theta A through denom^k = 1 + h theta lambda_k and explicit in
the recovery component, whose denom is 1.  A model supplies denom, its noise
amplitudes and a drift closure that also feeds the estimator accumulator.

Noise increments are drawn from counter-based Philox streams keyed by
(seed, channel, mode), so trajectories are bit-reproducible regardless of
host parallelism.  The drift-free case bypasses the core with a vectorized
per-mode recursion: implicit Euler or exact Ornstein-Uhlenbeck transitions.

Estimator integrals are accumulated online with left-endpoint Riemann sums at
full step resolution; trajectories are only stored when snapshots are
requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import BlowUpError, ConfigurationError
from .estimate import EstimatorAccumulator, EstimatorRequest, warn_if_inadmissible
from .fields import GridSpec, NemytskiiPlan, NonlinearitySpec, default_grid
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


def _standard_normals(seed, channel, n_modes, n_draws, out=None) -> np.ndarray:
    """(n_draws, n_modes) independent N(0,1) draws, one stream per mode."""
    if out is None:
        out = np.empty((n_draws, n_modes))
    for k in range(n_modes):
        out[:, k] = _mode_stream(seed, channel, k + 1).standard_normal(n_draws)
    return out


def _scaled_noise(seed, amps: np.ndarray, n_steps: int, h: float) -> np.ndarray:
    """(n_steps, channels, n_modes) increments amps[c, k] * dW_j with
    dW ~ N(0, h); channel c draws from the streams keyed (seed, c, mode)."""
    noise = np.empty((n_steps,) + amps.shape)
    for c in range(len(amps)):
        _standard_normals(seed, c, amps.shape[1], n_steps, out=noise[:, c])
    noise *= math.sqrt(h)
    noise *= amps
    return noise


def _noise_amp(noise_scale: float, lam: np.ndarray, gamma: float) -> np.ndarray:
    return noise_scale * lam ** (-gamma)


def _ou_transition(theta, lam, d, gamma, noise_scale):
    """Exact transition over time d: x_{t+d} = decay x_t + amp xi, xi ~ N(0, 1)."""
    decay = np.exp(-theta * lam * d)
    amp = _noise_amp(noise_scale, lam, gamma) * np.sqrt(
        -np.expm1(-2.0 * theta * lam * d) / (2.0 * theta * lam)
    )
    return decay, amp


def _ar1_filter(decay, amp, draws, out):
    """Per mode k, out[j] = decay_k out[j-1] + amp_k draws[j] from a zero start."""
    for k in range(len(decay)):
        out[:, k] = lfilter([amp[k]], [1.0, -decay[k]], draws[:, k])


def _snapshot_indices(n_steps: int, stride: int | None) -> np.ndarray | None:
    if stride is None:
        return None
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.asarray(idx)


def _check_finite(x: np.ndarray, step: int):
    """Raise BlowUpError naming the first non-finite mode; components are
    scanned in order, so a coupled state reports v before w."""
    if not np.all(np.isfinite(x)):
        flat = int(np.flatnonzero(~np.isfinite(x))[0])
        raise BlowUpError(step=step, mode=flat % x.shape[-1] + 1)


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

    if exact:
        decay, amp = _ou_transition(theta, lam, h, model.gamma, scheme.noise_scale)
        draws = _standard_normals(scheme.seed, 0, n0, n_steps)
    else:
        decay = 1.0 / (1.0 + h * theta * lam)
        amp = decay  # noise enters the implicit step divided by (1 + h theta lam)
        base = _noise_amp(scheme.noise_scale, lam, model.gamma)
        draws = _scaled_noise(scheme.seed, base[None], n_steps, h)[:, 0]
    path = np.empty((n_steps + 1, n0))
    path[0] = x0
    _ar1_filter(decay, amp, draws, path[1:])
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


def _euler_loop(scheme, denom, noise, x0, drift, acc) -> SimOutput:
    """Step the (components, n_modes) state x_{j+1} = (x_j + h F(x_j) +
    noise[j]) / denom.

    ``drift(x)`` hands the left endpoint to ``acc`` and returns F, or None
    for F = 0.  Component 0 is the observed field; a second component is
    reported as the recovery field w.
    """
    h = scheme.dt
    n_steps = scheme.n_steps
    stride = scheme.snapshot_stride
    snaps = [] if stride is not None else None
    x = x0.copy()
    # a blow-up surfaces as BlowUpError from _check_finite, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            if snaps is not None and j % stride == 0:
                snaps.append(x.copy())
            f = drift(x)
            x_next = x + noise[j] if f is None else x + h * f + noise[j]
            x_next /= denom
            _check_finite(x_next, j + 1)
            acc.add_increment(x[0], x_next[0])
            x = x_next

    acc.finalize(h, x0[0], x[0])
    times = traj = None
    if snaps is not None:
        snaps.append(x.copy())
        times = _snapshot_indices(n_steps, stride) * h
        traj = np.asarray(snaps)
    out = SimOutput(
        x0=x0[0], xT=x[0], accumulators=acc, times=times,
        trajectory=None if traj is None else traj[:, 0],
    )
    if len(x) == 2:
        out.w0, out.wT = x0[1], x[1]
        out.w_trajectory = None if traj is None else traj[:, 1]
    return out


def _semilinear_loop(model, scheme, req, bias_nl, grid) -> SimOutput:
    n0 = model.n_sim
    h = scheme.dt
    op = model.operator
    lam = eigenvalues(op, n0)
    grid = _resolve_grid(model, bias_nl, grid)

    denom = (1.0 + h * model.theta_true * lam)[None]
    amp = _noise_amp(scheme.noise_scale, lam, model.gamma)
    noise = _scaled_noise(scheme.seed, amp[None], scheme.n_steps, h)

    dyn_nl = model.nonlinearity
    same_bias = req.bias_model is None
    has_bias = bias_nl.variant != "none"
    has_dyn = dyn_nl.variant != "none"
    need_rows = has_bias and req.wants_partial
    masks = _row_masks(req.n_list if need_rows else (), n0)
    batch = np.empty_like(masks)
    bias_eval = NemytskiiPlan(bias_nl, grid, op, len(masks), n0, n0) if has_bias else None
    dyn_eval = (
        NemytskiiPlan(dyn_nl, grid, op, 1, n0, n0) if has_dyn and not same_bias else None
    )

    acc = EstimatorAccumulator(
        lam, scheme.t_final, model.gamma, req.n_list,
        track_partial=(need_rows or not has_bias),
    )

    def drift(x):
        f_full = f_rows = None
        if has_bias:
            np.multiply(x[0], masks, out=batch)
            out = bias_eval(batch)
            f_full = out[0]
            if need_rows:
                f_rows = out[1:]
        acc.add_state(x[0], f_full=f_full, f_part_rows=f_rows)
        if same_bias:
            return f_full
        return dyn_eval(x) if has_dyn else None

    return _euler_loop(scheme, denom, noise, model.initial_state()[None], drift, acc)


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
    op = model.operator
    lam = eigenvalues(op, n0)
    cubic = NonlinearitySpec("polynomial", poly_coeffs=p.cubic_coeffs())
    grid = _resolve_grid(model, cubic, grid)

    denom = np.ones((2, n0))  # w is stepped explicitly
    denom[0] = 1.0 + h * model.theta_true * lam
    amps = np.stack([
        p.sigma * _noise_amp(scheme.noise_scale, lam, model.gamma),
        p.sigma_w * _noise_amp(scheme.noise_scale, lam, p.gamma_w),
    ])
    noise = _scaled_noise(scheme.seed, amps, scheme.n_steps, h)

    need_rows = est_req.wants_partial
    masks = _row_masks(est_req.n_list if need_rows else (), n0)
    batch = np.empty_like(masks)
    cubic_eval = NemytskiiPlan(cubic, grid, op, len(masks), n0, n0)
    acc = EstimatorAccumulator(
        lam, scheme.t_final, model.gamma, est_req.n_list,
        coupled=True, track_partial=need_rows,
    )
    f = np.empty((2, n0))

    def drift(x):
        v, w = x
        np.multiply(v, masks, out=batch)
        out = cubic_eval(batch)
        acc.add_state(v, f_full=out[0], f_part_rows=out[1:] if need_rows else None, w=w)
        return p.coupled_drift(out[0], v, w, f)

    x0 = np.stack([model.initial_state(), model.initial_w_state()])
    return _euler_loop(scheme, denom, noise, x0, drift, acc)


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
        draws = _standard_normals(seed, 0, n_modes, n_int)
        uniform = diffs[0] > 0 and np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0)
        if uniform:
            decay, amp = _ou_transition(theta, lam, diffs[0], gamma, noise_scale)
            _ar1_filter(decay, amp, draws, path[1:])
        else:
            x = np.zeros(n_modes)
            for i, dt in enumerate(diffs):
                if dt > 0:
                    decay, amp = _ou_transition(theta, lam, dt, gamma, noise_scale)
                    x = decay * x + amp * draws[i]
                path[i + 1] = x
    return path[1:] if prepend else path
