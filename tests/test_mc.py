import csv
import io
import json
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from spde_drift.errors import ConfigurationError, StudyError
from spde_drift.estimate import EstimatorRequest
from spde_drift import mc
from spde_drift.fields import ALLEN_CAHN, FHNParams, NonlinearitySpec
from spde_drift.mc import (
    EstimateRow,
    StudySpec,
    mix_seed,
    normal_ks_distance,
    resolve_threads,
    run_study,
    summarize,
)
from spde_drift.simulate import ModelSpec, SchemeSpec
from spde_drift.spectrum import OperatorSpec

OP = OperatorSpec()
NONE_NL = NonlinearitySpec("none")


def linear_study(n_trials=16, seed=123, n_sim=8, backend="ou_exact", variants=None,
                 histogram_n=8, numerator_mode="robust"):
    model = ModelSpec(
        operator=OP, theta_true=0.1, gamma=0.5, nonlinearity=NONE_NL,
        initial_modes=(0.0,), n_sim=n_sim,
    )
    req = EstimatorRequest(
        alpha=0.5, n_list=(2, 4, 8),
        variants=variants or ("full", "partial", "linear"), numerator_mode=numerator_mode,
    )
    scheme = SchemeSpec(dt=1e-2, t_final=0.5, seed=seed, backend=backend)
    return StudySpec(model=model, scheme=scheme, est_req=req, n_trials=n_trials,
                     histogram_n=histogram_n)


@pytest.mark.parametrize("alpha, text", [(np.float64(0.5), "0.5"), (1, "1.0")])
def test_estimates_csv_writes_alpha_as_a_float(alpha, text):
    # the request stores float(alpha), so the column never reads
    # "np.float64(0.5)" or "1"
    spec = linear_study(n_trials=1, variants=("linear",))
    spec = replace(spec, est_req=replace(spec.est_req, alpha=alpha))
    fh = io.StringIO()
    mc.write_estimate_rows(fh, run_study(spec).estimates)
    rows = list(csv.DictReader(io.StringIO(fh.getvalue())))
    assert rows and all(row["alpha"] == text for row in rows)


def test_mix_seed_is_deterministic_and_spread():
    a = mix_seed(42, 0)
    assert a == mix_seed(42, 0)
    seeds = {mix_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert mix_seed(42, 1) != mix_seed(43, 1)


def test_single_trial_medians_equal_estimates():
    spec = linear_study(n_trials=1)
    report = run_study(spec)
    rows = {(r.variant, r.N): r.theta_hat for r in report.estimates}
    for (variant, n), stats in report.rows.items():
        assert stats["median"] == rows[(variant, n)]
        assert stats["p2_5"] == rows[(variant, n)]
        assert stats["p97_5"] == rows[(variant, n)]


def stepping_study(name):
    """A 5-trial study of a stepping model: one chunk of 5 trials on one
    worker, chunks of 3 and 2 on two."""
    scheme = SchemeSpec(dt=2e-3, t_final=0.2, seed=321)
    if name == "fhn":
        params = FHNParams(a=0.5, b=1.0, epsilon=0.1)
        model = ModelSpec(OP, 0.02, 0.8, NonlinearitySpec("fhn", fhn_params=params),
                          (0.5, 0.1), 16)
        req = EstimatorRequest(alpha=0.8, n_list=(4, 16),
                               variants=("full", "partial1", "partial2", "linear"))
    else:
        skewed_cubic = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 1.0, 0.5, -1.0))
        nl, bias = {
            "allen_cahn": (ALLEN_CAHN, None),
            "burgers": (NonlinearitySpec("burgers"), None),
            "quadratic_bias": (skewed_cubic,
                               NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.5, -1.0))),
        }[name]
        model = ModelSpec(OP, 0.05, 0.6, nl, (0.7071,), 16)
        req = EstimatorRequest(alpha=0.6, n_list=(4, 8, 16),
                               variants=("full", "partial", "linear"), bias_model=bias)
    return StudySpec(model=model, scheme=scheme, est_req=req, n_trials=5, histogram_n=16)


def assert_reproducible_and_thread_independent(spec):
    r1 = run_study(spec, threads=1)
    r2 = run_study(spec, threads=2)
    j1 = json.dumps(r1.to_json_dict(), sort_keys=True)
    j2 = json.dumps(r2.to_json_dict(), sort_keys=True)
    assert j1 == j2
    r3 = run_study(spec, threads=1)
    assert json.dumps(r3.to_json_dict(), sort_keys=True) == j1


def test_report_reproducible_and_thread_independent():
    for mode in ("robust", "ito_sum"):
        spec = linear_study(n_trials=12, numerator_mode=mode)
        assert_reproducible_and_thread_independent(spec)


@pytest.mark.parametrize("name", ["allen_cahn", "fhn", "burgers", "quadratic_bias"])
def test_stepping_report_reproducible_and_thread_independent(name):
    assert_reproducible_and_thread_independent(stepping_study(name))


def test_percentile_sanity_and_variant_agreement():
    report = run_study(linear_study(n_trials=24))
    for stats in report.rows.values():
        assert stats["p2_5"] <= stats["median"] <= stats["p97_5"]
    # drift-free model: the three variants produce identical summaries
    for n in (2, 4, 8):
        full = report.rows[("full", n)]
        for variant in ("partial", "linear"):
            assert report.rows[(variant, n)] == full


def test_mse_decomposition():
    report = run_study(linear_study(n_trials=40))
    theta = 0.1
    for (variant, n), stats in report.rows.items():
        vals = np.array(
            [r.theta_hat for r in report.estimates
             if r.variant == variant and r.N == n]
        )
        recomposed = np.var(vals) + (np.mean(vals) - theta) ** 2
        assert stats["mse"] == pytest.approx(recomposed, rel=1e-12)


def test_summary_z_statistics_present():
    report = run_study(linear_study(n_trials=24))
    assert report.variance is not None
    stats = report.rows[("linear", 8)]
    assert "z_mean" in stats and "z_var" in stats
    assert "linear" in report.ks
    assert report.histograms["linear"].sum() == 24


def test_ks_distance_of_synthetic_normal_sample():
    rng = np.random.default_rng(2024)
    z = rng.standard_normal(1000)
    assert normal_ks_distance(z) < 0.05
    # sanity: a clearly non-normal sample has a large distance
    assert normal_ks_distance(rng.uniform(2.0, 3.0, size=1000)) > 0.5


def test_empty_samples_are_rejected():
    with pytest.raises(ConfigurationError, match="KS distance of an empty sample"):
        normal_ks_distance([])
    with pytest.raises(ConfigurationError, match="no estimates to summarize"):
        summarize([], 0.1, None, 2.0)


def test_summarize_order_statistics():
    rows = [
        EstimateRow(trial=i, variant="full", N=4, alpha=0.5, theta_hat=v)
        for i, v in enumerate([1.0, 2.0, 3.0])
    ]
    report = summarize(rows, theta_true=2.0, variance=None, beta=2.0, histogram_n=4)
    stats = report.rows[("full", 4)]
    assert stats["median"] == 2.0
    assert 1.0 <= stats["p2_5"] <= stats["median"] <= stats["p97_5"] <= 3.0


def test_summarize_exact_estimates_give_zero_mse_and_residuals():
    rows = [
        EstimateRow(trial=i, variant="full", N=4, alpha=0.5, theta_hat=0.02)
        for i in range(10)
    ]
    report = summarize(rows, theta_true=0.02, variance=0.012, beta=2.0, histogram_n=4)
    stats = report.rows[("full", 4)]
    assert stats["mse"] == 0.0
    assert stats["z_mean"] == 0.0
    assert stats["z_var"] == 0.0


def test_summarize_accepts_plain_tuples():
    report = summarize(
        [(0, "full", 2, 0.1), (1, "full", 2, 0.3)],
        theta_true=0.2, variance=None, beta=2.0,
    )
    assert report.rows[("full", 2)]["median"] == pytest.approx(0.2)


def test_summarize_histograms_the_largest_n_by_default():
    rows = [(t, "full", n, 0.02 + 0.001 * t) for t in range(5) for n in (4, 8)]
    report = summarize(rows, 0.02, 0.01, 2.0)
    assert report.histogram_n == 8
    assert set(report.histograms) == set(report.ks) == {"full"}
    assert report.histograms["full"].sum() == 5
    at_4 = summarize(rows, 0.02, 0.01, 2.0, histogram_n=4)
    assert at_4.histogram_n == 4 and at_4.histograms["full"].sum() == 5


@pytest.mark.parametrize("rows, keyword, message", [
    ([(0, "full", 2.7, 0.1)], {}, "N must be an integer >= 1, got 2.7"),
    ([(0, "full", 0, 0.1)], {}, "N must be an integer >= 1, got 0"),
    ([EstimateRow(0, "full", 2.7, 0.5, 0.1)], {}, "N must be an integer >= 1, got 2.7"),
    ([(0, "full", 2, 0.1)], {"histogram_n": 2.5}, "histogram_n must be an integer >= 1"),
], ids=["fractional-N", "zero-N", "fractional-row-N", "fractional-histogram_n"])
def test_summarize_rejects_a_non_integral_n_by_name(rows, keyword, message):
    with pytest.raises(ConfigurationError, match=message):
        summarize(rows, 0.1, None, 2.0, **keyword)


@pytest.mark.parametrize("keyword, message", [
    ({"histogram_bin_width": 0.3}, "histogram_bin_width must divide histogram_range"),
    ({"histogram_bin_width": 0.0}, "histogram_bin_width must be positive, got 0.0"),
    ({"histogram_bin_width": -0.4}, "histogram_bin_width must be positive, got -0.4"),
    ({"histogram_bin_width": float("nan")}, "histogram_bin_width must be finite, got nan"),
    ({"histogram_range": (5.0, -5.0)}, "histogram_range must be a finite increasing pair"),
], ids=["partial-last-bin", "zero-width", "negative-width", "nan-width", "reversed-range"])
def test_bad_histogram_is_rejected_by_name_by_summarize_and_study_spec(keyword, message):
    rows = [(t, "full", 4, 0.02 + 0.01 * t) for t in range(5)]
    with pytest.raises(ConfigurationError, match=message):
        summarize(rows, 0.02, 0.01, 2.0, **keyword)
    with pytest.raises(ConfigurationError, match=message):
        replace(linear_study(), **keyword)


@pytest.mark.parametrize("threads, env, message", [
    (2.5, None, "threads must be an integer >= 1, got 2.5"),
    (0, None, "threads must be an integer >= 1, got 0"),
    (True, None, "threads must be a number, got True"),
    (None, "-4", "SPDE_DRIFT_THREADS must be an integer >= 1, got -4"),
], ids=["fractional", "zero", "bool", "env-negative"])
def test_resolve_threads_rejects_counts_below_one_by_name(threads, env, message, monkeypatch):
    if env is None:
        monkeypatch.delenv("SPDE_DRIFT_THREADS", raising=False)
    else:
        monkeypatch.setenv("SPDE_DRIFT_THREADS", env)
    with pytest.raises(ConfigurationError, match=message):
        resolve_threads(threads)


def test_summarize_warns_on_missing_variant():
    rows = [EstimateRow(0, "full", 2, 0.5, 0.1)]
    with pytest.warns(UserWarning, match="linear"):
        summarize(rows, 0.1, None, 2.0, expected_variants=("full", "linear"))


def test_mse_slope_on_synthetic_power_law():
    rows = []
    for i in range(4):
        for n in (4, 8, 16, 32):
            # deterministic spread giving mse proportional to n^-3
            offset = (0.01 if i % 2 == 0 else -0.01) * n**-1.5
            rows.append(EstimateRow(i, "full", n, 0.5, 0.02 + offset))
    report = summarize(rows, theta_true=0.02, variance=None, beta=2.0)
    assert report.mse_slope["full"] == pytest.approx(-3.0, abs=1e-9)


def test_study_failure_raises_with_partial_report():
    growth = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.0, 0.0, 1.0))
    model = ModelSpec(
        operator=OP, theta_true=0.01, gamma=1.0, nonlinearity=growth,
        initial_modes=(10.0,), n_sim=4,
    )
    spec = StudySpec(
        model=model,
        scheme=SchemeSpec(dt=0.1, t_final=10.0, seed=1, noise_scale=0.0),
        est_req=EstimatorRequest(alpha=1.0, n_list=(4,), variants=("full", "linear")),
        n_trials=5,
    )
    with pytest.raises(StudyError) as exc, pytest.warns(UserWarning, match="omitted"):
        run_study(spec)
    report = exc.value.report
    assert report is not None
    assert report.n_failed == 5
    assert all("BlowUpError" in reason for _, reason in report.failures)


def test_histogram_outliers_clipped_into_edge_bins():
    rows = [EstimateRow(0, "full", 4, 0.5, 100.0), EstimateRow(1, "full", 4, 0.5, -100.0)]
    report = summarize(rows, theta_true=0.0, variance=1.0, beta=2.0, histogram_n=4)
    counts = report.histograms["full"]
    assert counts[0] == 1 and counts[-1] == 1
    assert counts.sum() == 2
    assert len(report.bin_edges) == 26  # [-5, 5] at width 0.4

class InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and runs every task in the calling process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_pool_never_exceeds_the_chunk_count(monkeypatch):
    monkeypatch.setattr(mc, "ProcessPoolExecutor", InProcessPool)
    InProcessPool.created.clear()
    spec = linear_study(n_trials=3)
    report = run_study(spec, threads=64)
    assert InProcessPool.created == [3]
    reference = run_study(spec, threads=1)
    assert InProcessPool.created == [3]  # one worker runs in-process
    assert json.dumps(report.to_json_dict()) == json.dumps(reference.to_json_dict())
    run_study(linear_study(n_trials=40), threads=2)  # chunks of 16, 16 and 8
    assert InProcessPool.created == [3, 2]


POOL_PROBE = """
import json, sys
from dataclasses import replace
from spde_drift import mc
from spde_drift.fields import NonlinearitySpec
from test_mc import InProcessPool, linear_study, stepping_study

class SignalProbe(InProcessPool):
    loaded = []

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.loaded.append("scipy.signal" in sys.modules)

mc.ProcessPoolExecutor = SignalProbe
spec = {
    "ou_exact": linear_study(),
    "euler": linear_study(backend="euler"),
    "quadratic_bias": linear_study(backend="euler"),
    "allen_cahn": stepping_study("allen_cahn"),
}[sys.argv[1]]
if sys.argv[1] == "quadratic_bias":  # a drift-free model observed by a drift
    bias = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.5, -1.0))
    spec = replace(spec, est_req=replace(spec.est_req, bias_model=bias))
report = mc.run_study(spec, threads=2)
reference = mc.run_study(spec, threads=1)
same = json.dumps(report.to_json_dict()) == json.dumps(reference.to_json_dict())
print(json.dumps([SignalProbe.loaded, same, "scipy.signal" in sys.modules]))
"""


@pytest.mark.parametrize("name, drift_free", [
    ("ou_exact", True), ("euler", True), ("quadratic_bias", True), ("allen_cahn", False),
])
def test_drift_free_study_imports_scipy_signal_before_its_pool(name, drift_free,
                                                               fresh_python):
    """Forked workers inherit the parent's scipy.signal, so a multi-worker
    drift-free study, whatever its bias model, loads it before it starts
    them; a study of a model with a drift never loads it."""
    loaded, same, loaded_at_end = json.loads(fresh_python(POOL_PROBE, name))
    assert loaded == [drift_free]
    assert same
    assert loaded_at_end == drift_free
