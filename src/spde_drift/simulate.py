"""Time integration in mode space.

Every model is a semilinear equation dX = (theta A X + F(X)) dt + noise on a
``(components, n_modes)`` state: one component for a scalar equation, two
(activator v, recovery w) for the FitzHugh-Nagumo system.  A model with a
drift is stepped by the linear-implicit Euler scheme

    x_{j+1} = (x_j + h F(x_j) + noise_j) / denom,

implicit in theta A through denom^k = 1 + h theta lambda_k and explicit in
the recovery component, whose denom is 1; a drift-free model is the same
per-mode linear recursion, or its exact Ornstein-Uhlenbeck transitions.

One builder, ``simulate_trials``, checks every request up front and sets
every model up: denom, noise amplitudes, the kernel, the accumulator and the
observer of the bias model, which only observes the path.  An Euler step
evaluates only the drift's own f on the full state; when the bias model is
the drift, the step keeps that row for the observer.  The coupled system is
the scalar setup for the activator v, with its cubic as the bias
nonlinearity, plus an explicit recovery row w.

Every trajectory runs through one block loop, ``_run_blocks``, on a batch
of trials, one per seed, as one ``(trials, components, n_modes)`` state; a
single trajectory is a batch of one.  Noise increments are drawn a block of
steps at a time from counter-based Philox streams keyed by (seed, channel,
mode) that live for the whole run, so trajectories are bit-reproducible
regardless of host parallelism and memory does not grow with the step count.
A per-model kernel fills the block's path: the stepped kernel one step at a
time, the drift-free kernel with one linear filter call per mode for every
trial of a block.
Drift-free trials run one at a time, in blocks bounded by the value budget
alone, unless a bias model observes them.

Once per block, and the same way for every model, the loop runs the bias
observer on the block's path, adds the path's left-endpoint Riemann sums to
the estimator integrals, takes the requested snapshots and checks for
blow-ups.  The observer evaluates the rows the request reads (the bias
model's full row unless the step kept it, and each partial truncation N on
its own grid, exact for N modes) and folds them in step order.  Each
operation acts on every trial alone (each drift row is its own matrix
product), so a trial's output is the same bits in any batch and for any
block length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigurationError, check_fields, checked, spec_field
from .estimate import (
    COUPLED_VARIANTS,
    SCALAR_VARIANTS,
    EstimatorAccumulator,
    EstimatorRequest,
    warn_if_inadmissible,
)
from .fields import NemytskiiPlan, NonlinearitySpec, _plans_grid
from .spectrum import OperatorSpec, eigenvalues

BACKENDS = ("euler", "ou_exact")


@dataclass(frozen=True)
class ModelSpec:
    """The equation to simulate: operator, diffusivity, noise smoothing,
    nonlinearity, initial condition, and the simulated mode count."""

    operator: OperatorSpec
    theta_true: float = spec_field("positive")
    gamma: float = spec_field("positive")
    nonlinearity: NonlinearitySpec
    initial_modes: tuple[float, ...] = spec_field(("finite",))
    n_sim: int = spec_field("count")
    initial_w_modes: tuple[float, ...] | None = spec_field(("finite",), None)

    def __post_init__(self):
        check_fields(self)
        for name in ("initial_modes", "initial_w_modes"):
            if len(getattr(self, name) or ()) > self.n_sim:
                raise ConfigurationError(f"{name} has more entries than n_sim")

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

    dt: float = spec_field("positive")
    t_final: float = spec_field("positive")
    seed: int = spec_field("seed")
    snapshot_stride: int | None = spec_field("count", None)
    backend: str = "euler"
    noise_scale: float = spec_field("nonnegative", 1.0)

    def __post_init__(self):
        check_fields(self)
        if self.dt > self.t_final:
            raise ConfigurationError("dt must not exceed t_final")
        if not math.isfinite(self.t_final / self.dt):
            raise ConfigurationError("dt is too small: t_final / dt overflows")
        n = round(self.t_final / self.dt)
        if n < 1 or abs(n - self.t_final / self.dt) > 1e-9 * max(1.0, n):
            raise ConfigurationError("t_final must be an integer multiple of dt")
        if self.backend not in BACKENDS:
            raise ConfigurationError(f"backend must be one of {BACKENDS}")

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


#: a noise block holds at most this many values, so memory does not grow
#: with n_steps; the stepped kernel, which reads one step at a time, also
#: caps its blocks at this many steps
_NOISE_BLOCK_VALUES = 1 << 16
_NOISE_BLOCK_STEPS = 256


class _NoiseBlocks:
    """Increments amps[c, k] * dW_j, dW ~ N(0, h), of B trials, drawn a block
    of at most ``max_steps`` steps at a time; trial b, channel c and mode k
    read the stream keyed (seeds[b], c, k + 1) from first step to last, so
    every block length gives the draws of one whole-run call."""

    def __init__(self, seeds, amps: np.ndarray, n_steps: int, h: float,
                 max_steps: int = _NOISE_BLOCK_STEPS):
        self._streams = [
            [[_mode_stream(seed, c, k + 1) for k in range(amps.shape[1])]
             for c in range(len(amps))]
            for seed in seeds
        ]
        n_values = len(seeds) * amps.size
        length = max(1, min(n_steps, max_steps, _NOISE_BLOCK_VALUES // n_values))
        self.length = length
        self._buf = np.empty((len(seeds),) + amps.shape + (length,))
        self._amps = amps[..., None]
        self._scale = math.sqrt(h)

    def block(self, n: int) -> np.ndarray:
        """The next n <= block length steps, shaped (B, channels, n_modes, n)."""
        buf = self._buf[..., :n]
        for b, channels in enumerate(self._streams):
            for c, streams in enumerate(channels):
                for k, gen in enumerate(streams):
                    gen.standard_normal(n, out=buf[b, c, k])
        buf *= self._scale
        buf *= self._amps
        return buf


def _noise_amp(noise_scale: float, lam: np.ndarray, gamma: float) -> np.ndarray:
    return noise_scale * lam ** (-gamma)


def _ou_transition(theta, lam, d, gamma, noise_scale):
    """Exact transition over time d: x_{t+d} = decay x_t + amp xi, xi ~ N(0, 1)."""
    decay = np.exp(-theta * lam * d)
    amp = _noise_amp(noise_scale, lam, gamma) * np.sqrt(
        -np.expm1(-2.0 * theta * lam * d) / (2.0 * theta * lam)
    )
    return decay, amp


def _ar1_filter(decay, amp, draws, out, zi):
    """Per mode k, out[j, ..., k] = decay_k out[j-1, ..., k] + amp_k draws[k, ..., j]
    from state zi[k], one call per mode for every row of draws[k]: draws is
    (modes, steps) or (modes, trials, steps), out (steps, [trials,] modes)."""
    # imported here: scipy.signal is most of the package's import time, and
    # only drift-free runs use it
    from scipy.signal import lfilter

    # zi[k] is updated in place, so the next block continues the recursion
    for k in range(len(decay)):
        path, zi[k] = lfilter([amp[k]], [1.0, -decay[k]], draws[k], axis=-1, zi=zi[k])
        out[..., k] = path.T  # np.moveaxis would add about 5 us a call


def _snapshot_indices(n_steps: int, stride: int | None) -> np.ndarray | None:
    if stride is None:
        return None
    idx = np.arange(0, n_steps + 1, stride)
    if idx[-1] != n_steps:
        idx = np.append(idx, n_steps)
    return idx


def _euler_kernel(h: float, denom: np.ndarray, drift):
    """Stepped kernel: x_{j+1} = (x_j + h F(x_j) + noise_j) / denom, one step
    at a time, where ``drift(x, i)`` returns F of the block's left state i."""

    def advance(seg, dw, j0):
        for i in range(dw.shape[-1]):
            x, nxt = seg[i], seg[i + 1]
            np.multiply(drift(x, i), h, out=nxt)  # the bits of x + h f + noise
            nxt += x
            nxt += dw[..., i]
            nxt /= denom

    return advance


def _ar1_kernel(decay: np.ndarray, gain: np.ndarray, x0: np.ndarray, n_trials: int):
    """Drift-free kernel from x0: x_{j+1} = decay x_j + gain noise_j, a whole
    block of every trial per ``lfilter`` call and mode."""
    zi = np.zeros((len(decay), n_trials, 1))

    def advance(seg, dw, j0):
        n = dw.shape[-1]
        path = seg[1 : n + 1, :, 0]  # x_{j0+1} .. x_{j0+n} of every trial
        _ar1_filter(decay, gain, dw[:, 0].swapaxes(0, 1), path, zi)
        if np.any(x0 != 0.0):
            path += x0 * decay ** np.arange(j0 + 1, j0 + n + 1)[:, None, None]

    return advance


def _run_blocks(scheme, noise: _NoiseBlocks, start, advance, acc, observe=None) -> list:
    """Run every trial of ``noise`` from the (components, n_modes) ``start``,
    a block of steps at a time: ``advance(seg, dw, j0)`` fills rows 1..n of
    the (n + 1, trials, components, n_modes) path ``seg`` from its row 0,
    x_{j0}, and the block's increments dw.

    Per block ``observe`` sees the block's path once, the observed field
    (component 0) goes to the batched ``acc``, snapshots are taken and
    blow-ups recorded; a component 1 is the recovery field w.
    Entry b of the result is trial b's SimOutput, or the BlowUpError of its
    lone run.
    """
    h = scheme.dt
    n_steps = scheme.n_steps
    idx = _snapshot_indices(n_steps, scheme.snapshot_stride)
    seg = np.empty((noise.length + 1, len(acc.q)) + start.shape)
    seg[0] = start
    x0 = seg[0].copy()
    snaps = [x0[None]]
    failed = [None] * len(x0)
    # a blow-up surfaces as BlowUpError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, n_steps, noise.length):
            n = min(noise.length, n_steps - j0)
            path = seg[: n + 1]  # x_{j0} .. x_{j0 + n}
            advance(path, noise.block(n), j0)
            if observe is not None:
                observe(path)
            acc.add_path(path[:, :, 0])
            if idx is not None:
                snaps.append(path[idx[(idx > j0) & (idx <= j0 + n)] - j0])
            _retire(path, j0, failed)
            if all(err is not None for err in failed):
                break
            seg[0] = path[-1]

    xT = seg[0].copy()
    acc.finalize(h, x0[:, 0], xT[:, 0])
    times = None if idx is None else idx * h
    traj = None if idx is None else np.concatenate(snaps)
    outs = []
    for b, (err, trial_acc) in enumerate(zip(failed, acc.split())):
        if err is not None:
            outs.append(err)
            continue
        out = SimOutput(
            x0=x0[b, 0], xT=xT[b, 0], accumulators=trial_acc, times=times,
            trajectory=None if traj is None else traj[:, b, 0],
        )
        if x0.shape[1] == 2:
            out.w0, out.wT = x0[b, 1], xT[b, 1]
            out.w_trajectory = None if traj is None else traj[:, b, 1]
        outs.append(out)
    return outs


def _retire(path, j0: int, failed: list):
    """Zero the last state of each trial of ``path`` (rows x_{j0} ..) that is
    not finite, recording the BlowUpError of its first non-finite step and
    mode unless it failed before; components are scanned in order, so a
    coupled state reports v before w.  A non-finite entry stays non-finite
    under every update, so only the last row needs a test."""
    last = path[-1]
    flat = path.reshape(len(path), len(last), -1)
    for b in np.flatnonzero(~np.isfinite(flat[-1]).all(axis=1)):
        if failed[b] is None:
            bad = ~np.isfinite(flat[1:, b])
            i = int(np.flatnonzero(bad.any(axis=1))[0])
            mode = int(np.flatnonzero(bad[i])[0]) % last.shape[-1] + 1
            failed[b] = BlowUpError(step=j0 + i + 1, mode=mode)
        last[b] = 0.0


def simulate_model(
    model: ModelSpec,
    scheme: SchemeSpec,
    est_req: EstimatorRequest,
) -> SimOutput:
    """One trajectory of any model: the batch of ``simulate_trials`` whose
    only seed is ``scheme.seed``; a blow-up is raised."""
    (out,) = simulate_trials(model, scheme, est_req, (scheme.seed,))
    if isinstance(out, BlowUpError):
        raise out
    return out


def _drifts(model: ModelSpec) -> bool:
    """Whether the model steps a drift.  A drift-free model is the per-mode
    linear filter, whatever bias model it is estimated with."""
    return model.nonlinearity.variant != "none"


def _check_request(model, scheme, req, seeds):
    """Raise the ConfigurationError of the first rule that the run breaks."""
    coupled = model.nonlinearity.variant == "fhn"
    bias = req.bias_model
    variants = COUPLED_VARIANTS if coupled else SCALAR_VARIANTS
    for broken, message in [
        (not checked("seeds", seeds, ("seed",)),
         "seeds must be a nonempty list of 64-bit seeds"),
        (coupled and bias is not None,
         "bias_model overrides are not supported for the coupled system"),
        (not set(req.variants) <= set(variants),
         f"{'coupled' if coupled else 'scalar'} runs use variants {'/'.join(variants)}"),
        (coupled and scheme.backend != "euler",
         "the coupled system only supports the euler backend"),
        (max(req.n_list) > model.n_sim,
         f"requested truncation {max(req.n_list)} exceeds n_sim={model.n_sim}"),
        (not coupled and bias is not None and bias.variant == "fhn",
         "fhn is not a valid bias model for scalar runs"),
        (scheme.backend == "ou_exact" and _drifts(model),
         "backend 'ou_exact' requires a drift-free model (nonlinearity none)"),
    ]:
        if broken:
            raise ConfigurationError(message)


def _observer(bias_nl: NonlinearitySpec, op: OperatorSpec, req, acc, block: int,
              f_full=None):
    """A closure that adds to ``acc`` the bias terms of the left states of a
    (n + 1, trials, components, n_modes) block path, n <= ``block``, in step
    order.  Row 0 is ``bias_nl`` on the full field: the drift step's own,
    (block, trials, 1, n_modes) ``f_full``, when the bias model is the drift,
    else evaluated here on its ``_plans_grid``.  Each partial truncation N is
    evaluated on its own grid, exact for N modes in and out, since only the
    first N coefficients are read.

    The left states go through the plans in sub-blocks of s steps, each plan
    with lead (s, trials, 1), so every row is its own product.  Per left
    state the observer holds the field and at most two full rows of
    products (row 0, and v w of a coupled state), and per plan row the plan
    (at most three buffers of its samples and one of its coefficients) and
    the row's products: s states of them fit in ``_NOISE_BLOCK_VALUES``
    values."""
    n_trials, n0 = acc.q.shape
    cuts = (() if f_full is not None else (n0,)) + (req.n_list if req.wants_partial else ())
    grids = [_plans_grid(bias_nl, n) for n in cuts]
    samples = [g.n_grid if bias_nl.is_odd_polynomial else 2 * (g.n_grid + 1) for g in grids]
    per_step = n_trials * (3 * n0 + sum(3 * m + 2 * n for m, n in zip(samples, cuts)))
    s = min(block, max(1, _NOISE_BLOCK_VALUES // per_step))
    left = np.zeros((s, n_trials, 1, n0)) if cuts else None  # stale past a short sub-block
    plans = [(n, NemytskiiPlan(bias_nl, g, op, left.shape[:-1], n, n))
             for n, g in zip(cuts, grids)]

    def observe(path):
        for j in range(0, len(path) - 1, s):
            r = min(s, len(path) - 1 - j)
            if plans:
                left[:r] = path[j : j + r, :, :1]
            rows = [] if f_full is None else [f_full[j : j + r, :, 0]]
            rows += [plan(left[..., :n])[:r, :, 0] for n, plan in plans]
            acc.add_bias(path[j : j + r], rows)

    return observe


def simulate_trials(
    model: ModelSpec,
    scheme: SchemeSpec,
    est_req: EstimatorRequest,
    seeds,
) -> list:
    """One trajectory per seed (``scheme.seed`` is not used), stepped together
    as one batch.  Entry b is what ``simulate_model`` returns for seed b, bit
    for bit, or the ``BlowUpError`` that it raises.

    The model alone picks the kernel, and the bias model only observes: an
    Euler step evaluates only the drift, and the observer evaluates the bias
    rows once per block.  A coupled model is the scalar setup plus a
    recovery row w: its bias nonlinearity is the activator's cubic, w has
    denom 1 and amplitude sigma_w lambda^{-gamma_w}, and
    ``FHNParams.coupled_drift`` completes F.
    Drift-free trials run one at a time unless a bias model observes them.
    """
    _check_request(model, scheme, est_req, seeds)
    warn_if_inadmissible(est_req.alpha, model.gamma, model.operator.beta)
    nl = model.nonlinearity
    coupled = nl.variant == "fhn"
    if coupled:
        p = nl.fhn_params
        bias_nl = NonlinearitySpec("polynomial", poly_coeffs=p.cubic_coeffs())
    else:
        bias_nl = nl if est_req.bias_model is None else est_req.bias_model
    observed = bias_nl.variant != "none"
    n0 = model.n_sim
    h = scheme.dt
    n_steps = scheme.n_steps
    op = model.operator
    lam = eigenvalues(op, n0)
    x0 = np.stack([model.initial_state(), model.initial_w_state()][: 1 + coupled])
    acc_args = (lam, scheme.t_final, model.gamma, est_req, coupled)

    if not _drifts(model):
        if scheme.backend == "ou_exact":  # gain scales plain N(0, 1) draws
            decay, gain = _ou_transition(
                model.theta_true, lam, h, model.gamma, scheme.noise_scale
            )
            amps, step = np.ones(n0), 1.0
        else:  # noise enters the implicit step divided by (1 + h theta lam)
            decay = gain = 1.0 / (1.0 + h * model.theta_true * lam)
            amps, step = _noise_amp(scheme.noise_scale, lam, model.gamma), h
        outs = []
        # blocks bounded by values alone, each one lfilter call per mode for
        # the whole group; a batch shrinks them, but saves plan calls when
        # observed
        for group in [seeds] if observed else [[seed] for seed in seeds]:
            noise = _NoiseBlocks(group, amps[None], n_steps, step, max_steps=n_steps)
            acc = EstimatorAccumulator(len(group), *acc_args)
            observe = _observer(bias_nl, op, est_req, acc, noise.length) if observed else None
            kernel = _ar1_kernel(decay, gain, x0[0], len(group))
            outs += _run_blocks(scheme, noise, x0, kernel, acc, observe)
        return outs

    n_trials = len(seeds)
    denom = np.ones((1 + coupled, n0))  # w is stepped explicitly
    denom[0] = 1.0 + h * model.theta_true * lam
    amps = _noise_amp(scheme.noise_scale, lam, model.gamma)[None]
    if coupled:
        amps = np.stack([
            p.sigma * amps[0], p.sigma_w * _noise_amp(scheme.noise_scale, lam, p.gamma_w)
        ])
    acc = EstimatorAccumulator(n_trials, *acc_args)
    noise = _NoiseBlocks(seeds, amps, n_steps, h)
    step_nl = bias_nl if coupled else nl  # the activator's cubic steps v
    plan = NemytskiiPlan(step_nl, _plans_grid(step_nl, n0), op, (n_trials, 1), n0, n0)
    # the default bias model is the drift: the step keeps its row for the observer
    f_full = None if est_req.bias_model is not None else np.empty(
        (noise.length, n_trials, 1, n0)
    )
    observe = _observer(bias_nl, op, est_req, acc, noise.length, f_full) if observed else None
    f = np.empty((n_trials,) + denom.shape)
    f_parts = f.swapaxes(0, 1)  # (F_v, F_w) of every coupled trial

    def drift(x, i):
        out = plan(x[:, :1])
        if f_full is not None:
            f_full[i] = out
        if not coupled:
            return out
        p.coupled_drift(out[:, 0], x[:, 0], x[:, 1], f_parts)
        return f

    return _run_blocks(scheme, noise, x0, _euler_kernel(h, denom, drift), acc, observe)


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
    Returns an array of shape (len(times), n_modes); the draws are taken a
    noise block at a time, so nothing else grows with len(times).
    """
    checked("theta", theta, "positive")
    checked("gamma", gamma, "positive")
    checked("noise_scale", noise_scale, "nonnegative")
    n_modes = checked("n_modes", n_modes, "count")
    checked("seed", seed, "seed")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 1:
        raise ConfigurationError("times must be a 1-D nonempty sequence")
    if not (np.all(np.isfinite(times)) and times[0] >= 0 and np.all(np.diff(times) >= 0)):
        raise ConfigurationError("times must be finite, nondecreasing and start at >= 0")

    lam = eigenvalues(spec, n_modes)
    prepend = times[0] > 0
    full = np.concatenate([[0.0], times]) if prepend else times
    diffs = np.diff(full)
    n_int = len(diffs)

    path = np.zeros((len(full), n_modes))
    uniform = n_int > 0 and diffs[0] > 0 and np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0)
    if uniform:
        decay, amp = _ou_transition(theta, lam, diffs[0], gamma, noise_scale)
        zi = np.zeros((n_modes, 1))
    x = np.zeros(n_modes)
    # xi of interval i and mode k is draw i of the stream keyed (seed, 0, k + 1)
    noise = _NoiseBlocks([seed], np.ones((1, n_modes)), n_int, 1.0, max_steps=n_int)
    for j0 in range(0, n_int, noise.length):
        n = min(noise.length, n_int - j0)
        draws = noise.block(n)[0, 0]  # (n_modes, n)
        if uniform:
            _ar1_filter(decay, amp, draws, path[j0 + 1 : j0 + n + 1], zi)
        else:
            for i, dt in enumerate(diffs[j0 : j0 + n]):
                if dt > 0:
                    decay, amp = _ou_transition(theta, lam, dt, gamma, noise_scale)
                    x = decay * x + amp * draws[:, i]
                path[j0 + i + 1] = x
    return path[1:] if prepend else path
