"""Monte Carlo study harness: seeded parallel trials, per-N summary
statistics, MSE-vs-rate fits, and standardized-residual histograms.

Trial i runs with seed mix(master_seed, i) from a splittable hash, never a
shared sequential stream; per-trial records are sorted by trial index before
any statistic is computed, so the report is byte-identical for every degree
of parallelism.
"""

from __future__ import annotations

import csv
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from .errors import (
    BlowUpError,
    ConfigurationError,
    DegenerateTrajectoryError,
    DomainError,
    StudyError,
)
from .estimate import EstimatorRequest, estimate_theta, z_score
from .simulate import ModelSpec, SchemeSpec, SimOutput, simulate_model
from .theory import asymptotic_constants

THREADS_ENV_VAR = "SPDE_DRIFT_THREADS"

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
    n_trials: int
    histogram_n: int = 20
    histogram_bin_width: float = 0.4
    histogram_range: tuple[float, float] = (-5.0, 5.0)

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be >= 1")
        if self.histogram_bin_width <= 0:
            raise ConfigurationError("histogram_bin_width must be positive")
        lo, hi = self.histogram_range
        if not lo < hi:
            raise ConfigurationError("histogram_range must be an increasing pair")


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


def _run_trial(spec: StudySpec, trial: int):
    scheme = replace(
        spec.scheme, seed=mix_seed(spec.scheme.seed, trial), snapshot_stride=None
    )
    try:
        out = simulate_model(spec.model, scheme, spec.est_req)
        return trial, estimate_rows(out, spec.est_req, trial), None
    except (BlowUpError, DegenerateTrajectoryError) as exc:
        return trial, None, f"{type(exc).__name__}: {exc}"


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigurationError(
                f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
            ) from exc
    return 1


def run_study(spec: StudySpec, threads: int | None = None) -> MCReport:
    """Run ``n_trials`` independent trajectories and aggregate the estimates.

    Raises a study-level error (with the partial report attached) when more
    than 10% of the trials fail.
    """
    n_workers = resolve_threads(threads)
    trials = range(spec.n_trials)
    if n_workers == 1 or spec.n_trials == 1:
        results = [_run_trial(spec, i) for i in trials]
    else:
        chunk = max(1, spec.n_trials // (4 * n_workers))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(
                pool.map(_run_trial, [spec] * spec.n_trials, trials, chunksize=chunk)
            )
    results.sort(key=lambda r: r[0])

    estimates: list[EstimateRow] = []
    failures: list[tuple[int, str]] = []
    for trial, rows, err in results:
        if err is not None:
            failures.append((trial, err))
        else:
            estimates.extend(rows)

    variance = theoretical_variance(spec)
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


def theoretical_variance(spec: StudySpec) -> float | None:
    """Asymptotic variance used for standardization, None when inadmissible."""
    op = spec.model.operator
    try:
        return asymptotic_constants(
            spec.model.theta_true,
            spec.scheme.t_final,
            op.lambda_scale,
            op.beta,
            spec.model.gamma,
            spec.est_req.alpha,
        ).variance
    except DomainError:
        return None


def _as_rows(estimates) -> list[EstimateRow]:
    rows = []
    for e in estimates:
        if isinstance(e, EstimateRow):
            rows.append(e)
        else:
            trial, variant, n, theta_hat = e
            rows.append(EstimateRow(int(trial), str(variant), int(n), float("nan"),
                                    float(theta_hat)))
    return rows


def summarize(
    estimates,
    theta_true: float,
    variance,
    beta: float,
    *,
    histogram_n: int = 20,
    histogram_bin_width: float = 0.4,
    histogram_range: tuple[float, float] = (-5.0, 5.0),
    failures=(),
    n_trials: int | None = None,
    expected_variants=None,
) -> MCReport:
    """Aggregate raw (trial, variant, N, theta_hat) records.

    Percentiles use linear interpolation between order statistics, the MSE is
    (1/M) sum (theta_hat - theta)^2, and residual moments use the population
    convention (so MSE = var(theta_hat) + bias^2 exactly).  ``variance`` is
    the asymptotic variance V shared by every N, or None to skip
    standardization.
    """
    rows_in = _as_rows(estimates)
    if not rows_in and not failures:
        raise ConfigurationError("no estimates to summarize")
    rows_in.sort(key=lambda r: (r.trial, r.variant, r.N))

    v = None if variance is None else float(variance)
    for row in rows_in:
        row.z = z_score(row.theta_hat, row.N, theta_true, v, beta) if v else None

    by_key: dict[tuple[str, int], list[EstimateRow]] = {}
    variants_seen: list[str] = []
    for row in rows_in:
        by_key.setdefault((row.variant, row.N), []).append(row)
        if row.variant not in variants_seen:
            variants_seen.append(row.variant)

    trials_present = {r.trial for r in rows_in}

    summary_rows: dict[tuple[str, int], dict[str, float]] = {}
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
        summary_rows[(variant, n)] = stats

    if expected_variants:
        for variant in expected_variants:
            if variant not in variants_seen:
                warnings.warn(f"variant {variant!r} produced no estimates; omitted")

    lo, hi = histogram_range
    n_bins = int(round((hi - lo) / histogram_bin_width))
    bin_edges = lo + histogram_bin_width * np.arange(n_bins + 1)
    ks: dict[str, float] = {}
    histograms: dict[str, np.ndarray] = {}
    for variant in variants_seen:
        rows = by_key.get((variant, histogram_n))
        if not rows:
            continue
        zs = np.array([r.z for r in rows if r.z is not None])
        if len(zs) == 0:
            continue
        ks[variant] = normal_ks_distance(zs)
        clipped = np.clip(zs, lo, hi)  # outliers land in the edge bins
        counts, _ = np.histogram(clipped, bins=bin_edges)
        histograms[variant] = counts

    mse_slope: dict[str, float | None] = {}
    for variant in variants_seen:
        pts = [
            (n, summary_rows[(v, n)]["mse"])
            for (v, n) in sorted(summary_rows)
            if v == variant and summary_rows[(v, n)]["mse"] > 0
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
        n_trials=n_trials if n_trials is not None else len(trials_present),
        rows=summary_rows,
        ks=ks,
        mse_slope=mse_slope,
        histogram_n=histogram_n,
        bin_edges=bin_edges,
        histograms=histograms,
        estimates=rows_in,
        failures=sorted(failures, key=lambda f: f[0]),
    )
