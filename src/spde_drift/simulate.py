"""Time integration in mode space.

Every model is a semilinear equation dX = (theta A X + F(X)) dt + noise on a
``(components, n_modes)`` state: one component for a scalar equation, two
(activator v, recovery w) for the FitzHugh-Nagumo system.  A model with a
drift is stepped by the linear-implicit Euler scheme

    x_{j+1} = (x_j + h F(x_j) + noise_j) / denom,

implicit in theta A through denom^k = 1 + h theta lambda_k and explicit in
the recovery component, whose denom is 1; a drift-free model is the same
per-mode linear recursion, or its exact Ornstein-Uhlenbeck transitions.

One builder, ``_setup``, checks every request up front and sets every model
up: denom, noise amplitudes, the kernel, the accumulator and the observer of
the bias model, which only observes the path.  A study's parent runs it for
chunk 0 before it forks.  An Euler step evaluates only the drift's own f on
the full state; when the bias model is the drift, the step keeps that row
for the observer.  The coupled system is the scalar setup for the activator
v, with its cubic as the bias nonlinearity, plus an explicit recovery row w.

Every trajectory runs through one block loop, ``_run_blocks``, on a batch
of trials, one per seed, as one ``(trials, components, n_modes)`` state; a
single trajectory is a batch of one.  The loop's block is a tile of steps
and modes of every trial.  A tile, and the observer's sub-block of it, take
as many steps as fit in the package's one value budget
(``fields._BLOCK_VALUES``, 2^16 values), at least one, and
``fields._block_length`` sizes both.  Noise increments are drawn a tile at a
time from counter-based Philox streams keyed by (seed, channel, mode) that
live for the whole run, so trajectories are bit-reproducible regardless of
host parallelism and memory does not grow with the step count.  A per-model
kernel fills the tile's path: the stepped kernel one step at a time, the
drift-free kernel with one linear filter call per mode for every trial.
That one drift-free kernel fills every drift-free path, the uniform grid
of ``simulate_ou_exact`` included, and is the package's only filter.
When the modes are coupled (a drift, or a bias model that observes the
whole field) a tile holds every mode.  An unobserved drift-free model is
one independent recursion per mode, so its tile is one mode of every trial
over as many steps as the value budget holds: a trial of up to that many
steps takes one filter call per mode, and its draws, filter and sums run
over long contiguous pieces instead of short strided columns.

Once per tile, and the same way for every model, the loop runs the bias
observer on the tile's path, adds the path's left-endpoint Riemann sums to
the estimator integrals, takes the requested snapshots and checks for
blow-ups, keeping each trial's earliest (step, mode).  The observer
evaluates the rows the request reads (the bias model's full row unless the
step kept it, and each partial truncation N on its own grid, exact for N
modes) and folds them in step order.  Each
operation acts on every trial alone (each drift row is its own matrix
product), so a trial's output is the same bits in any batch and for any
block length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BlowUpError, ConfigurationError, check_fields, checked, checked_result,
                     spec_field)
from .estimate import (
    COUPLED_VARIANTS,
    SCALAR_VARIANTS,
    EstimatorAccumulator,
    EstimatorRequest,
    warn_if_inadmissible,
)
from .fields import (NemytskiiPlan, NonlinearitySpec, _block_length, _linear_filter, _plan_stage,
                     _plans_grid)
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
        steps = checked_result("t_final / dt", lambda: self.t_final / self.dt, "finite",
                               ConfigurationError)
        if steps > 2**53:  # every float above is an integer
            raise ConfigurationError(f"t_final / dt must be at most 2**53, got {steps:g}")
        n = round(steps)
        if n < 1 or abs(n - steps) > 1e-9 * max(1.0, n):
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


#: the stepped kernel, which reads one step at a time, caps its noise tiles
#: at this many steps even where the value budget holds more
_NOISE_BLOCK_STEPS = 256


class _NoiseBlocks:
    """Increments amps[c, k] * dW_j, dW ~ N(0, h), of B trials, drawn a tile
    of at most ``max_steps`` steps and ``width`` modes at a time; trial b,
    channel c and mode k read the stream keyed (seeds[b], c, k + 1) from
    first step to last, so every tiling gives the draws of one whole-run
    call."""

    def __init__(self, seeds, amps: np.ndarray, n_steps: int, h: float,
                 max_steps: int = _NOISE_BLOCK_STEPS, width: int | None = None):
        self._streams = [
            [[_mode_stream(seed, c, k + 1) for k in range(amps.shape[1])]
             for c in range(len(amps))]
            for seed in seeds
        ]
        self.n_steps = n_steps
        self.n_modes = amps.shape[1]
        self.width = self.n_modes if width is None else width
        length = _block_length(min(n_steps, max_steps), len(seeds) * len(amps) * self.width)
        self.length = length
        self._buf = np.empty((len(seeds), len(amps), self.width, length))
        self._scale = math.sqrt(h)
        # unit factors are skipped: multiplying by 1.0 would keep every bit
        unit = self._scale == 1.0 and np.all(amps == 1.0)
        self._amps = None if unit else amps[..., None]

    def block(self, n: int, modes: slice = slice(None)) -> np.ndarray:
        """The next n <= length steps of ``modes``, at most ``width`` of them,
        shaped (B, channels, modes, n)."""
        buf = self._buf[:, :, : len(range(self.n_modes)[modes]), :n]
        for b, channels in enumerate(self._streams):
            for c, streams in enumerate(channels):
                for i, gen in enumerate(streams[modes]):
                    gen.standard_normal(n, out=buf[b, c, i])
        if self._amps is not None:
            buf *= self._scale
            buf *= self._amps[:, modes]
        return buf

    def tiles(self):
        """(j0, modes, increments) of every tile in run order: the step
        blocks in turn, each as its mode slices of ``width`` modes in turn."""
        for j0 in range(0, self.n_steps, self.length):
            n = min(self.length, self.n_steps - j0)
            for k in range(0, self.n_modes, self.width):
                modes = slice(k, k + self.width)
                yield j0, modes, self.block(n, modes)


def _noise_amp(noise_scale: float, lam: np.ndarray, gamma: float) -> np.ndarray:
    return noise_scale * lam ** (-gamma)


def _ou_transition(theta, lam, d, gamma, noise_scale):
    """Exact transition over time d: x_{t+d} = decay x_t + amp xi, xi ~ N(0, 1)."""
    decay = np.exp(-theta * lam * d)
    amp = _noise_amp(noise_scale, lam, gamma) * np.sqrt(
        -np.expm1(-2.0 * theta * lam * d) / (2.0 * theta * lam)
    )
    return decay, amp


def _snapshot_indices(n_steps: int, stride: int | None) -> np.ndarray | None:
    if stride is None:
        return None
    idx = np.arange(0, n_steps + 1, stride)
    if idx[-1] != n_steps:
        idx = np.append(idx, n_steps)
    return idx


def _euler_kernel(h: float, denom: np.ndarray, drift):
    """Stepped kernel: x_{j+1} = (x_j + h F(x_j) + noise_j) / denom, one step
    at a time, where ``drift(x, i)`` returns F of the block's left state i;
    its tiles hold every mode."""

    def advance(seg, dw, j0, modes):
        for i in range(dw.shape[-1]):
            x, nxt = seg[i], seg[i + 1]
            np.multiply(drift(x, i), h, out=nxt)  # the bits of x + h f + noise
            nxt += x
            nxt += dw[..., i]
            nxt /= denom

    return advance


def _ar1_kernel(decay: np.ndarray, gain: np.ndarray, x0: np.ndarray, n_trials: int):
    """Drift-free kernel from x0: x_{j+1} = decay x_j + gain noise_j, one
    filter call per mode of the tile for every trial, each mode's filter
    state carried to its next tile.  The call is the one that
    ``scipy.signal.lfilter([gain], [1, -decay], x, zi=zi)`` makes after its
    checks.  It fills every drift-free path: both backends of
    ``simulate_trials`` and the uniform grid of ``simulate_ou_exact``."""
    b, a = gain[:, None], np.stack([np.ones_like(decay), -decay], axis=1)
    zi = np.zeros((len(decay), n_trials, 1))

    def advance(seg, dw, j0, modes):
        n = dw.shape[-1]
        path = seg[1 : n + 1, :, 0]  # x_{j0+1} .. x_{j0+n} of every trial
        for i, k in enumerate(range(len(decay))[modes]):
            out, zi[k] = _linear_filter(b[k], a[k], dw[:, 0, i], -1, zi[k])
            path[..., i] = out.T
        if np.any(x0[modes] != 0.0):
            terms = decay[modes] ** np.arange(j0 + 1.0, j0 + n + 1)[:, None, None]
            terms *= x0[modes]
            path += terms

    return advance


def _run_blocks(scheme, noise: _NoiseBlocks, start, advance, acc, observe=None) -> list:
    """Run every trial of ``noise`` from the (components, n_modes) ``start``,
    a tile of steps and modes at a time, as ``noise.tiles`` orders them:
    ``advance(seg, dw, j0, modes)`` fills rows 1..n of the (n + 1, trials,
    components, tile modes) path ``seg`` from its row 0, x_{j0}, and the
    tile's increments dw.  A tile holds every mode unless the modes are
    independent recursions (``noise.width`` 1).

    Per tile ``observe`` sees the path once, the observed field
    (component 0) goes to the batched ``acc``, snapshots go into their rows
    of the trajectory and blow-ups are recorded; a component 1 is the
    recovery field w.  Entry b of the result is trial b's SimOutput, or the
    BlowUpError of its lone run.
    """
    h = scheme.dt
    n_modes = start.shape[-1]
    idx = _snapshot_indices(scheme.n_steps, scheme.snapshot_stride)
    state = np.empty((len(acc.q),) + start.shape)  # x_{j0} of every mode
    state[:] = start
    x0 = state.copy()
    traj = None if idx is None else np.empty((len(idx),) + state.shape)
    if traj is not None:
        traj[0] = x0
    seg = np.empty((noise.length + 1,) + state.shape[:-1] + (noise.width,))
    failed = [None] * len(x0)
    # a blow-up surfaces as BlowUpError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j0, modes, dw in noise.tiles():
            n = dw.shape[-1]
            path = seg[: n + 1]  # x_{j0} .. x_{j0 + n}
            path[0] = state[..., modes]
            advance(path, dw, j0, modes)
            if observe is not None:
                observe(path)
            acc.add_path(path[:, :, 0], modes)
            if traj is not None:
                rows = slice(*np.searchsorted(idx, (j0, j0 + n), side="right"))
                traj[rows, ..., modes] = path[idx[rows] - j0]
            _retire(path, j0, modes.start, failed)
            state[..., modes] = path[-1]
            if modes.stop >= n_modes and all(err is not None for err in failed):
                break

    trial_accs = acc.finalize(h, x0[:, 0], state[:, 0])
    times = None if idx is None else idx * h
    outs = []
    for b, (err, trial_acc) in enumerate(zip(failed, trial_accs)):
        if err is not None:
            outs.append(err)
            continue
        out = SimOutput(
            x0=x0[b, 0], xT=state[b, 0], accumulators=trial_acc, times=times,
            trajectory=None if traj is None else traj[:, b, 0],
        )
        if x0.shape[1] == 2:
            out.w0, out.wT = x0[b, 1], state[b, 1]
            out.w_trajectory = None if traj is None else traj[:, b, 1]
        outs.append(out)
    return outs


def _retire(path, j0: int, k0: int, failed: list):
    """Zero the last state of each trial of the tile ``path`` (rows x_{j0} ..
    of modes k0 + 1 ..) that is not finite, and record the BlowUpError of its
    first non-finite step and mode unless an earlier (step, mode) failed
    before; components are scanned in order, so a coupled state reports v
    before w.  A non-finite entry stays non-finite under every update, so
    only the last row needs a test."""
    last = path[-1]
    flat = path.reshape(len(path), len(last), -1)
    for b in np.flatnonzero(~np.isfinite(flat[-1]).all(axis=1)):
        bad = ~np.isfinite(flat[1:, b])
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        step, mode = j0 + i + 1, k0 + int(np.flatnonzero(bad[i])[0]) % last.shape[-1] + 1
        if failed[b] is None or (step, mode) < (failed[b].step, failed[b].mode):
            failed[b] = BlowUpError(step=step, mode=mode)
        last[b] = 0.0


def simulate_model(
    model: ModelSpec,
    scheme: SchemeSpec,
    est_req: EstimatorRequest,
) -> SimOutput:
    """One trajectory of any model: the batch of ``simulate_trials`` whose
    only seed is ``scheme.seed``; a blow-up is raised."""
    # not through simulate_trials, so that the warning names this call's caller
    args = _setup(model, scheme, est_req, (scheme.seed,))
    warn_if_inadmissible(est_req.alpha, model.gamma, model.operator.beta)
    (out,) = _run_blocks(scheme, *args)
    if isinstance(out, BlowUpError):
        raise out
    return out


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
        (scheme.backend == "ou_exact" and model.nonlinearity.variant != "none",
         "backend 'ou_exact' requires a drift-free model (nonlinearity none)"),
    ]:
        if broken:
            raise ConfigurationError(message)


def _observer(bias_nl: NonlinearitySpec, op: OperatorSpec, req, acc, block: int,
              f_full=None):
    """A closure that adds to ``acc`` the bias terms of the left states of a
    (n + 1, trials, components, n_modes) block path, n <= ``block``, in step
    order, for the integrals ``acc`` holds.  Row 0 is ``bias_nl`` on the full
    field: the drift step's own, (block, trials, 1, n_modes) ``f_full``, when
    the bias model is the drift, else evaluated here on its ``_plans_grid``.
    Each partial truncation N is evaluated on its own grid, exact for N modes
    in and out, since only the first N coefficients are read.

    The left states go through the plans in sub-blocks of s steps, each plan
    with lead (s, trials, 1), so every row is its own product.  Per left
    state the observer holds the field and at most two full rows of
    products (row 0, and v w of a coupled state), and per plan row the
    values the plan's buffers hold (``fields._plan_stage``) and the row's
    products: s is the ``_block_length`` of those values per state, so a
    sub-block holds at most the value budget, or one step that alone holds
    more."""
    n_trials, n0 = acc.q.shape
    full = () if f_full is not None or acc.bias_full is None else (n0,)
    cuts = full + (req.n_list if acc.bias_part is not None else ())
    grids = [_plans_grid(bias_nl, n) for n in cuts]
    plan_values = [_plan_stage(bias_nl, g.n_grid, n, n)[2] for n, g in zip(cuts, grids)]
    per_step = n_trials * (3 * n0 + sum(v + n for v, n in zip(plan_values, cuts)))
    s = _block_length(block, per_step)
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
    for bit, or the ``BlowUpError`` that it raises."""
    args = _setup(model, scheme, est_req, seeds)
    warn_if_inadmissible(est_req.alpha, model.gamma, model.operator.beta)
    return _run_blocks(scheme, *args)


def _setup(model: ModelSpec, scheme: SchemeSpec, req: EstimatorRequest, seeds) -> tuple:
    """Check a run of ``seeds`` and build what it steps with: ``_run_blocks``'
    arguments after ``scheme`` (noise, start, kernel, accumulator, observer).
    Building them fills the plans' caches; a study's parent builds chunk 0's
    before it forks its workers.

    The model alone picks the kernel, and the bias model only observes: an
    Euler step evaluates only the drift, and the observer evaluates the bias
    rows once per block.  A coupled model is the scalar setup plus a
    recovery row w: its bias nonlinearity is the activator's cubic, w has
    denom 1 and amplitude sigma_w lambda^{-gamma_w}, and
    ``FHNParams.coupled_drift`` completes F.
    """
    _check_request(model, scheme, req, seeds)
    nl = model.nonlinearity
    coupled = nl.variant == "fhn"
    p = nl.fhn_params
    if coupled:  # the activator's cubic
        bias_nl = NonlinearitySpec("polynomial", poly_coeffs=p.cubic_coeffs())
    else:
        bias_nl = nl if req.bias_model is None else req.bias_model
    # every variant but linear reads a bias integral, which the accumulator then holds
    observed = bias_nl.variant != "none" and req.variants != ("linear",)
    n0 = model.n_sim
    h = scheme.dt
    n_steps = scheme.n_steps
    op = model.operator
    lam = eigenvalues(op, n0)
    x0 = np.stack([model.initial_state(), model.initial_w_state()][: 1 + coupled])
    acc = EstimatorAccumulator(len(seeds), lam, scheme.t_final, model.gamma, req, coupled)

    if nl.variant == "none":  # the per-mode linear filter, whatever the bias model
        if scheme.backend == "ou_exact":  # gain scales plain N(0, 1) draws
            decay, gain = _ou_transition(
                model.theta_true, lam, h, model.gamma, scheme.noise_scale
            )
            amps, step = np.ones(n0), 1.0
        else:  # noise enters the implicit step divided by (1 + h theta lam)
            decay = gain = 1.0 / (1.0 + h * model.theta_true * lam)
            amps, step = _noise_amp(scheme.noise_scale, lam, model.gamma), h
        # unobserved, each mode is its own recursion: a tile is one mode of
        # every trial over as many steps as the value budget holds, so a
        # trial takes one filter call per mode, not one per mode and block
        noise = _NoiseBlocks(seeds, amps[None], n_steps, step, max_steps=n_steps,
                             width=n0 if observed else 1)
        observe = _observer(bias_nl, op, req, acc, noise.length) if observed else None
        return noise, x0, _ar1_kernel(decay, gain, x0[0], len(seeds)), acc, observe

    n_trials = len(seeds)
    denom = np.ones((1 + coupled, n0))  # w is stepped explicitly
    denom[0] = 1.0 + h * model.theta_true * lam
    amps = _noise_amp(scheme.noise_scale, lam, model.gamma)[None]
    if coupled:
        amps = np.stack([
            p.sigma * amps[0], p.sigma_w * _noise_amp(scheme.noise_scale, lam, p.gamma_w)
        ])
    noise = _NoiseBlocks(seeds, amps, n_steps, h)
    step_nl = bias_nl if coupled else nl  # the activator's cubic steps v
    plan = NemytskiiPlan(step_nl, _plans_grid(step_nl, n0), op, (n_trials, 1), n0, n0)
    # the default bias model is the drift: the step keeps its row for the observer
    keep = req.bias_model is None and acc.bias_full is not None
    f_full = np.empty((noise.length, n_trials, 1, n0)) if keep else None
    observe = _observer(bias_nl, op, req, acc, noise.length, f_full) if observed else None
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

    return noise, x0, _euler_kernel(h, denom, drift), acc, observe


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
        advance = _ar1_kernel(decay, amp, np.zeros(n_modes), 1)
    x = np.zeros(n_modes)
    # xi of interval i and mode k is draw i of the stream keyed (seed, 0, k + 1);
    # on a uniform grid each mode is its own recursion, so a tile is one mode
    noise = _NoiseBlocks([seed], np.ones((1, n_modes)), n_int, 1.0, max_steps=n_int,
                         width=1 if uniform else n_modes)
    for j0, modes, dw in noise.tiles():
        n = dw.shape[-1]
        if uniform:  # the (n + 1, trials, components, modes) segment of _run_blocks
            advance(path[j0 : j0 + n + 1, None, None, modes], dw, j0, modes)
        else:
            for i, dt in enumerate(diffs[j0 : j0 + n]):
                if dt > 0:
                    decay, amp = _ou_transition(theta, lam, dt, gamma, noise_scale)
                    x = decay * x + amp * dw[0, 0, :, i]
                path[j0 + i + 1] = x
    return path[1:] if prepend else path
