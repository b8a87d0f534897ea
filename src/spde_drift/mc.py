"""Monte Carlo study harness: seeded parallel trials, per-N summary
statistics, MSE-vs-rate fits, and standardized-residual histograms.

Trial i runs with seed mix(master_seed, i) from a splittable hash, never a
shared sequential stream; per-trial records are sorted by trial index before
any statistic is computed, so the report is byte-identical for every degree
of parallelism.

The trials are cut into contiguous chunks of min(CHUNK_TRIALS,
ceil(n_trials / workers)) and each chunk is one task: its trials, drift-free
ones included, are stepped together as one batch by
``simulate.simulate_trials``, whose outputs are the bits of lone runs for
any batch size.  An unobserved drift-free chunk is filtered a tile of one
mode of every trial at a time, since its modes are independent recursions.
At most one worker process is started per chunk, and a single worker runs
every chunk in-process.  A drift-free study with several workers imports
``scipy.signal`` before it starts them, so that forked workers share the
parent's copy.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

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
from .estimate import EstimatorRequest, estimate_theta, z_score
from .simulate import ModelSpec, SchemeSpec, SimOutput, _drifts, simulate_trials
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
    is hi to round-off; a width or range that cannot give them is rejected
    by the name of its ``StudySpec`` field."""
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
        return {
            "theta_true": self.theta_true,
            "beta": self.beta,
            "variance": self.variance,
            "n_trials": self.n_trials,
            "n_failed": self.n_failed,
            "rows": [
                {"variant": v, "N": n, **stats}
                for (v, n), stats in sorted(self.rows.items())
            ],
            "ks": dict(sorted(self.ks.items())),
            "mse_slope": dict(sorted(self.mse_slope.items())),
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
    cdf = ndtr(z)
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


def _chunks(n_trials: int, n_workers: int) -> list[range]:
    size = min(CHUNK_TRIALS, -(-n_trials // n_workers))
    return [range(i, min(i + size, n_trials)) for i in range(0, n_trials, size)]


def _run_chunk(spec: StudySpec, trials: range) -> list:
    """(trial, rows, None) or (trial, None, reason) for each trial of a chunk."""
    scheme = replace(spec.scheme, snapshot_stride=None)
    seeds = [mix_seed(spec.scheme.seed, i) for i in trials]
    results = []
    outs = simulate_trials(spec.model, scheme, spec.est_req, seeds)
    for trial, out in zip(trials, outs):
        try:
            if isinstance(out, BlowUpError):
                raise out
            results.append((trial, estimate_rows(out, spec.est_req, trial), None))
        except (BlowUpError, DegenerateTrajectoryError) as exc:
            results.append((trial, None, f"{type(exc).__name__}: {exc}"))
    return results


def resolve_threads(threads: int | None) -> int:
    """The worker count: ``threads``, else $SPDE_DRIFT_THREADS, else 1; a
    count below 1 or not integral is rejected by name."""
    if threads is not None:
        return checked("threads", threads, "count")
    env = os.environ.get(THREADS_ENV_VAR)
    if not env:
        return 1
    try:
        count = int(env)
    except ValueError as exc:
        raise ConfigurationError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from exc
    return checked(THREADS_ENV_VAR, count, "count")


def run_study(spec: StudySpec, threads: int | None = None) -> MCReport:
    """Run ``n_trials`` independent trajectories and aggregate the estimates.

    Raises a study-level error (with the partial report attached) when more
    than 10% of the trials fail, and one naming the lost trials, without a
    report, when a worker process dies.
    """
    n_workers = resolve_threads(threads)
    chunks = _chunks(spec.n_trials, n_workers)
    if n_workers == 1 or len(chunks) == 1:
        parts = [_run_chunk(spec, chunk) for chunk in chunks]
    else:
        if not _drifts(spec.model):
            # the drift-free filter's module, loaded once here and inherited
            # by the forked workers instead of imported again in each
            import scipy.signal  # noqa: F401
        with ProcessPoolExecutor(max_workers=min(n_workers, len(chunks))) as pool:
            futures = [pool.submit(_run_chunk, spec, chunk) for chunk in chunks]
        parts, lost = [], []
        for chunk, future in zip(chunks, futures):
            try:
                parts.append(future.result())
            except BrokenProcessPool:  # a signal or the OOM killer ended a worker
                lost.append(f"{chunk.start}-{chunk.stop - 1}")
        if lost:
            raise StudyError(
                f"a worker process died (killed by a signal or out of memory); "
                f"trials {', '.join(lost)} were not run"
            )
    results = [r for part in parts for r in part]  # chunks come back in trial order

    estimates: list[EstimateRow] = []
    failures: list[tuple[int, str]] = []
    for trial, rows, err in results:
        if err is not None:
            failures.append((trial, err))
        else:
            estimates.extend(rows)

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
    """Rows and (trial, variant, N, theta_hat) tuples as rows, each N checked
    to be an integer >= 1."""
    rows = []
    for e in estimates:
        if not isinstance(e, EstimateRow):
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
    ``histogram_n``, by default the largest N present.
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
        p2_5, median, p97_5 = np.percentile(vals, [2.5, 50.0, 97.5])
        stats = {
            "median": float(median),
            "p2_5": float(p2_5),
            "p97_5": float(p97_5),
            "mse": float(np.mean((vals - theta_true) ** 2)),
            "n_estimates": len(rows),
        }
        zs = np.array([r.z for r in rows if r.z is not None])
        if len(zs):
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
            if v == variant and stats["mse"] > 0
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
