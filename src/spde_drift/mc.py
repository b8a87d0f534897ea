"""Monte Carlo study harness: seeded parallel trials, per-N summary
statistics, MSE-vs-rate fits, and standardized-residual histograms.

Trial i runs with seed mix(master_seed, i) from a splittable hash, never a
shared sequential stream; per-trial records are sorted by trial index before
any statistic is computed, so the report is byte-identical for every degree
of parallelism.

``run_chunks`` is the one many-trial runner: it cuts a list of items (trial
indices or seeds) into chunks and runs a function of a chunk on processes it
forks itself.  A study is that runner plus estimate rows.  Its parent builds
chunk 0's set-up (``simulate._setup``) before it forks, so a bad request is
rejected before any worker starts and the workers inherit the plan tables it
builds, and a chunk's trials are stepped as one batch by
``simulate._run_blocks``, whose outputs are the bits of lone runs for any
batch size.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import signal
import traceback
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BlowUpError,
    ConfigurationError,
    DegenerateTrajectoryError,
    DomainError,
    StudyError,
    check_fields,
    checked,
    spec_field,
)
from .estimate import EstimatorRequest, estimate_theta, warn_if_inadmissible, z_score
from .fields import _BLOCK_VALUES, _ndtr
from .simulate import ModelSpec, SchemeSpec, SimOutput, _run_blocks, _setup
from .theory import asymptotic_constants

THREADS_ENV_VAR = "SPDE_DRIFT_THREADS"

#: most trials one task steps together: a batch of 16 already gets most of the
#: saving per trial (FitzHugh-Nagumo on 32 modes: 24 us per trial-step, 127
#: alone), while a cap keeps large studies in several tasks per worker
CHUNK_TRIALS = 16

_MASK64 = (1 << 64) - 1

ESTIMATES_CSV_HEADER = ("trial", "variant", "N", "alpha", "theta_hat", "z")


def mix_seed(master_seed: int, trial: int) -> int:
    """Splittable 64-bit mix of (master seed, trial index)."""
    z = (int(master_seed) + 0x9E3779B97F4A7C15 * (trial + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class StudySpec:
    """A full Monte Carlo experiment; ``scheme.seed`` is the master seed."""

    model: ModelSpec
    scheme: SchemeSpec
    est_req: EstimatorRequest
    n_trials: int = spec_field("count")
    histogram_n: int | None = spec_field("count", None)
    histogram_bin_width: float = spec_field("positive", 0.4)
    histogram_range: tuple[float, float] = spec_field(("finite",), (-5.0, 5.0))

    def __post_init__(self):
        check_fields(self)
        n_list = self.est_req.n_list
        if self.histogram_n is None:  # the largest N, nearest the asymptotic regime
            object.__setattr__(self, "histogram_n", n_list[-1])
        elif self.histogram_n not in n_list:
            raise ConfigurationError(f"histogram_n must be one of n_list {n_list}")
        _bin_edges(self.histogram_bin_width, self.histogram_range)


def _bin_edges(width: float, value_range) -> np.ndarray:
    """The histogram's bin edges lo + width * i, i = 0 .. n, whose last edge
    is hi to round-off; a width or range that cannot give them, or that
    gives more bins than the value budget, is rejected by the name of its
    ``StudySpec`` field before any edge is built."""
    width = checked("histogram_bin_width", width, "positive")
    value_range = checked("histogram_range", value_range, ("finite",))
    if len(value_range) != 2 or not value_range[0] < value_range[1]:
        raise ConfigurationError("histogram_range must be a finite increasing pair")
    lo, hi = value_range
    # the edges stop at lo + width * n, so they must reach hi
    bins = (hi - lo) / width
    n = round(bins) if math.isfinite(bins) else 0
    if n < 1 or abs(n - bins) > 1e-9 * max(1.0, n):
        raise ConfigurationError(
            "histogram_bin_width must divide histogram_range into a whole "
            "number >= 1 of bins"
        )
    if n > _BLOCK_VALUES:
        raise ConfigurationError(
            f"histogram_bin_width gives {bins:.6g} bins over histogram_range, more "
            f"than {_BLOCK_VALUES}"
        )
    return lo + width * np.arange(n + 1)


@dataclass
class EstimateRow:
    trial: int
    variant: str
    N: int
    alpha: float
    theta_hat: float
    z: float | None = None


@dataclass
class MCReport:
    """Aggregated study results.

    ``rows`` maps (variant, N) to summary statistics; ``histograms`` holds
    standardized-residual bin counts at ``histogram_n``; ``estimates`` is the
    raw per-trial table the summaries were computed from.
    """

    theta_true: float
    beta: float
    variance: float | None
    n_trials: int
    rows: dict[tuple[str, int], dict[str, float]]
    ks: dict[str, float]
    mse_slope: dict[str, float | None]
    histogram_n: int
    bin_edges: np.ndarray
    histograms: dict[str, np.ndarray]
    estimates: list[EstimateRow]
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def row(self, variant: str, n: int) -> dict[str, float]:
        return self.rows[(variant, n)]

    def to_json_dict(self) -> dict:
        """The report as plain JSON values; a non-finite statistic (one that
        left the float range) is None, so the document stays strict JSON."""
        return {
            "theta_true": self.theta_true,
            "beta": self.beta,
            "variance": _json_number(self.variance),
            "n_trials": self.n_trials,
            "n_failed": self.n_failed,
            "rows": [
                {"variant": v, "N": n, **{k: _json_number(x) for k, x in stats.items()}}
                for (v, n), stats in sorted(self.rows.items())
            ],
            "ks": {v: _json_number(x) for v, x in sorted(self.ks.items())},
            "mse_slope": {v: _json_number(x) for v, x in sorted(self.mse_slope.items())},
            "histogram": {
                "N": self.histogram_n,
                "bin_edges": [float(b) for b in self.bin_edges],
                "counts": {
                    v: [int(c) for c in counts]
                    for v, counts in sorted(self.histograms.items())
                },
            },
            "failures": [
                {"trial": t, "reason": reason} for t, reason in self.failures
            ],
        }

    def write_estimates_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            write_estimate_rows(fh, self.estimates)


def _json_number(x):
    """``x``, or None where it is a non-finite float."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_estimate_rows(fh, rows) -> None:
    """Write ``EstimateRow`` records as the estimates CSV to an open text
    file; a missing or non-finite z is left empty."""
    writer = csv.writer(fh)
    writer.writerow(ESTIMATES_CSV_HEADER)
    for row in rows:
        z = "" if row.z is None or not np.isfinite(row.z) else repr(row.z)
        writer.writerow(
            [row.trial, row.variant, row.N, repr(row.alpha), repr(row.theta_hat), z]
        )


def normal_ks_distance(sample) -> float:
    """Kolmogorov-Smirnov distance of a sample to the standard normal."""
    z = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(z)
    if n == 0:
        raise ConfigurationError("cannot compute a KS distance of an empty sample")
    cdf = _ndtr(z)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def estimate_rows(
    out: SimOutput, req: EstimatorRequest, trial: int = 0
) -> list[EstimateRow]:
    """One ``EstimateRow`` per (variant, N) of ``req``, z left unset."""
    return [
        EstimateRow(
            trial, variant, n, req.alpha,
            estimate_theta(out.accumulators, req, variant, n).theta_hat,
        )
        for variant in req.variants
        for n in req.n_list
    ]


def _chunks(items, n_processes: int) -> list:
    """``items`` in contiguous slices (ranges of a range) of min(CHUNK_TRIALS,
    ceil(len(items) / n_processes)) items, the last one maybe shorter."""
    size = max(1, min(CHUNK_TRIALS, -(-len(items) // n_processes)))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _chunk_setup(spec: StudySpec, trials: range) -> tuple:
    """``simulate._setup`` of a chunk's trials, which checks the request."""
    seeds = [mix_seed(spec.scheme.seed, i) for i in trials]
    return _setup(spec.model, spec.scheme, spec.est_req, seeds)


def _run_chunk(spec: StudySpec, trials: range, setup: tuple | None = None) -> list:
    """(trial, rows, None) or (trial, None, reason) for each trial of a chunk,
    stepped from ``setup``, else from the chunk's own ``_chunk_setup``."""
    if setup is None:
        setup = _chunk_setup(spec, trials)
    outs = _run_blocks(replace(spec.scheme, snapshot_stride=None), *setup)
    results = []
    for trial, out in zip(trials, outs):
        try:
            if isinstance(out, BlowUpError):
                raise out
            results.append((trial, estimate_rows(out, spec.est_req, trial), None))
        except (BlowUpError, DegenerateTrajectoryError) as exc:
            results.append((trial, None, f"{type(exc).__name__}: {exc}"))
    return results


def resolve_threads(threads: int | None) -> int:
    """The process count of a run, its parent included: ``threads``, else
    $SPDE_DRIFT_THREADS, else 1, capped by ``_usable_cpus`` and at 1 without
    ``os.fork``; a count below 1 or not integral is rejected by name."""
    name, count = "threads", threads
    if threads is None:
        name, env = THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR)
        try:
            count = int(env or 1)
        except ValueError as exc:
            raise ConfigurationError(f"{name} must be an integer, got {env!r}") from exc
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    return min(checked(name, count, "count"), cpus)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps
    one (so a taskset or cpuset limit counts), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _WorkerTraceback(Exception):
    """The cause of an exception raised in a worker: its traceback there."""


class _Worker:
    """A forked process that pickles ``{i: fn(chunks[i])}`` for each i in
    ``mine``, or the exception that stopped it with its formatted traceback,
    into a pipe; results that cannot be pickled are replaced by the pickling
    error.  It leaves through ``os._exit`` only, so it never runs the
    parent's code after the fork."""

    def __init__(self, fn, chunks: list, mine: range):
        self.mine = mine
        self.fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError as exc:
            os.close(self.fd)
            os.close(write_fd)
            raise StudyError(
                f"could not start a worker process ({exc}); run with fewer --threads"
            ) from exc
        if self.pid == 0:
            status = 1
            try:
                os.close(self.fd)
                try:
                    payload = ({i: fn(chunks[i]) for i in mine}, None)
                except BaseException as exc:  # the parent raises it, caused by this text
                    payload = (exc, traceback.format_exc())
                try:
                    data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                except BaseException as exc:  # the parent raises why; an
                    # error that cannot be pickled either exits 1 below
                    data = pickle.dumps((exc, traceback.format_exc()), pickle.HIGHEST_PROTOCOL)
                with open(write_fd, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)

    def result(self) -> dict | None:
        """The worker's results by chunk index, read to EOF once it has
        exited, or None when it died without them (a signal, the OOM
        killer); the exception it raised is raised here, caused by its
        traceback there, as ``concurrent.futures`` does."""
        with open(self.fd, "rb") as pipe:
            self.fd = None
            payload = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0 or not payload:
            return None
        payload, text = pickle.loads(payload)
        if text is not None:
            raise payload from _WorkerTraceback(f'\n"""\n{text}"""')
        return payload

    def end(self) -> None:
        """Kill and reap the worker, and close its pipe, unless ``result``
        has."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def run_chunks(fn, items, threads: int | None = None) -> list:
    """``[fn(chunk) for chunk in _chunks(items, n)]`` on n =
    ``resolve_threads(threads)`` processes, but never more than the chunks.

    The parent forks n - 1 ``_Worker``s itself (``os.fork``, whatever
    multiprocessing's start method is), then runs chunk 0 and every n-th
    chunk after it; worker w runs chunks w, w + n, ...  Only ``fn``'s results
    are pickled.  A worker's exception is raised here, a worker that dies
    without its results is a ``StudyError`` naming the positions of the first
    and last item of each chunk it lost, and no worker outlives the run."""
    n_processes = resolve_threads(threads)
    chunks = _chunks(items, n_processes)
    n = max(1, min(n_processes, len(chunks)))
    workers = []
    try:
        for w in range(1, n):
            workers.append(_Worker(fn, chunks, range(w, len(chunks), n)))
        parts = {i: fn(chunks[i]) for i in range(0, len(chunks), n)}
        lost = []
        for worker in workers:
            results = worker.result()
            if results is None:
                lost.extend(worker.mine)
            else:
                parts.update(results)
    finally:  # no worker outlives the run, whatever ends it
        for worker in workers:
            worker.end()
    if lost:  # named by position: a chunk holds trials, whatever its items are
        size = len(chunks[0])
        trials = ", ".join(f"{i * size}-{i * size + len(chunks[i]) - 1}" for i in sorted(lost))
        raise StudyError(
            f"a worker process died (killed by a signal or out of memory); "
            f"trials {trials} were not run"
        )
    return [parts[i] for i in range(len(chunks))]


def run_study(spec: StudySpec, threads: int | None = None) -> MCReport:
    """Run ``n_trials`` independent trajectories and aggregate the estimates.

    Raises a study-level error (with the partial report attached) when more
    than 10% of the trials fail, and one naming the lost trials, without a
    report, when a worker process dies.
    """
    n_processes = resolve_threads(threads)
    trials = range(spec.n_trials)
    # checks the request and fills the plan caches before any fork
    first = _chunk_setup(spec, _chunks(trials, n_processes)[0])
    warn_if_inadmissible(spec.est_req.alpha, spec.model.gamma, spec.model.operator.beta)

    def run(chunk):  # chunk 0 is stepped from the set-up built before the fork
        return _run_chunk(spec, chunk, first if chunk.start == 0 else None)

    results = [r for part in run_chunks(run, trials, n_processes) for r in part]
    estimates = [row for _, rows, err in results if err is None for row in rows]
    failures = [(trial, err) for trial, _, err in results if err is not None]

    variance = theoretical_variance(spec.model, spec.scheme.t_final, spec.est_req.alpha)
    report = summarize(
        estimates,
        spec.model.theta_true,
        variance,
        spec.model.operator.beta,
        histogram_n=spec.histogram_n,
        histogram_bin_width=spec.histogram_bin_width,
        histogram_range=spec.histogram_range,
        failures=failures,
        n_trials=spec.n_trials,
        expected_variants=spec.est_req.variants,
    )
    if len(failures) > 0.1 * spec.n_trials:
        raise StudyError(
            f"{len(failures)} of {spec.n_trials} trials failed", report=report
        )
    return report


def theoretical_variance(model: ModelSpec, t_final: float, alpha: float) -> float | None:
    """Asymptotic variance used for standardization, None when inadmissible."""
    op = model.operator
    try:
        return asymptotic_constants(
            model.theta_true, t_final, op.lambda_scale, op.beta, model.gamma, alpha
        ).variance
    except DomainError:
        return None


def standardize_rows(rows, theta_true: float, variance, beta: float) -> None:
    """Set each row's z score, or None when ``variance`` is None or zero."""
    v = None if variance is None else float(variance)
    for row in rows:
        row.z = z_score(row.theta_hat, row.N, theta_true, v, beta) if v else None


def _as_rows(estimates) -> list[EstimateRow]:
    """Rows and (trial, variant, N, theta_hat) tuples as new rows, each N
    checked to be an integer >= 1; the caller's rows are copied, so setting
    z leaves them as they were."""
    rows = []
    for e in estimates:
        if isinstance(e, EstimateRow):
            e = replace(e)
        else:
            trial, variant, n, theta_hat = e
            e = EstimateRow(int(trial), str(variant), n, float("nan"), float(theta_hat))
        e.N = checked("N", e.N, "count")
        rows.append(e)
    return rows


def summarize(
    estimates,
    theta_true: float,
    variance,
    beta: float,
    *,
    histogram_n: int | None = None,
    histogram_bin_width: float = StudySpec.histogram_bin_width,
    histogram_range: tuple[float, float] = StudySpec.histogram_range,
    failures=(),
    n_trials: int | None = None,
    expected_variants=None,
) -> MCReport:
    """Aggregate raw (trial, variant, N, theta_hat) records.

    Percentiles use linear interpolation between order statistics, the MSE is
    (1/M) sum (theta_hat - theta)^2, and residual moments use the population
    convention (so MSE = var(theta_hat) + bias^2 exactly).  ``variance`` is
    the asymptotic variance V shared by every N, or None to skip
    standardization.  The histograms and KS distances are taken at
    ``histogram_n``, by default the largest N present.  A statistic that
    leaves the float range is non-finite, without a warning, and the MSE
    slope is fitted on the finite positive MSEs only.
    """
    rows_in = _as_rows(estimates)
    if not rows_in and not failures:
        raise ConfigurationError("no estimates to summarize")
    if histogram_n is None:
        histogram_n = max((r.N for r in rows_in), default=None)
    else:
        histogram_n = checked("histogram_n", histogram_n, "count")
    rows_in.sort(key=lambda r: (r.trial, r.variant, r.N))

    standardize_rows(rows_in, theta_true, variance, beta)

    by_key: dict[tuple[str, int], list[EstimateRow]] = {}
    for row in rows_in:
        by_key.setdefault((row.variant, row.N), []).append(row)
    variants_seen = list(dict.fromkeys(row.variant for row in rows_in))
    if expected_variants:
        for variant in expected_variants:
            if variant not in variants_seen:
                warnings.warn(f"variant {variant!r} produced no estimates; omitted")

    bin_edges = _bin_edges(histogram_bin_width, histogram_range)
    summary_rows: dict[tuple[str, int], dict[str, float]] = {}
    ks: dict[str, float] = {}
    histograms: dict[str, np.ndarray] = {}
    for (variant, n), rows in sorted(by_key.items()):
        vals = np.array([r.theta_hat for r in rows])
        with np.errstate(over="ignore", invalid="ignore"):  # such a statistic is inf or nan
            p2_5, median, p97_5 = np.percentile(vals, [2.5, 50.0, 97.5])
            mse = np.mean((vals - theta_true) ** 2)
        stats = {
            "median": float(median),
            "p2_5": float(p2_5),
            "p97_5": float(p97_5),
            "mse": float(mse),
            "n_estimates": len(rows),
        }
        zs = np.array([r.z for r in rows if r.z is not None])
        if len(zs):
            with np.errstate(over="ignore", invalid="ignore"):
                stats["z_mean"] = float(np.mean(zs))
                stats["z_var"] = float(np.var(zs))
            if n == histogram_n:
                ks[variant] = normal_ks_distance(zs)
                # outliers land in the edge bins
                clipped = np.clip(zs, bin_edges[0], bin_edges[-1])
                histograms[variant], _ = np.histogram(clipped, bins=bin_edges)
        summary_rows[(variant, n)] = stats

    mse_slope: dict[str, float | None] = {}
    for variant in variants_seen:
        pts = [
            (n, stats["mse"])
            for (v, n), stats in sorted(summary_rows.items())
            if v == variant and 0 < stats["mse"] < math.inf
        ]
        if len(pts) >= 2:
            log_n = np.log([p[0] for p in pts])
            log_mse = np.log([p[1] for p in pts])
            mse_slope[variant] = float(np.polyfit(log_n, log_mse, 1)[0])
        else:
            mse_slope[variant] = None

    return MCReport(
        theta_true=theta_true,
        beta=beta,
        variance=variance,
        n_trials=n_trials if n_trials is not None else len({r.trial for r in rows_in}),
        rows=summary_rows,
        ks=ks,
        mse_slope=mse_slope,
        histogram_n=histogram_n,
        bin_edges=bin_edges,
        histograms=histograms,
        estimates=rows_in,
        failures=sorted(failures, key=lambda f: f[0]),
    )
