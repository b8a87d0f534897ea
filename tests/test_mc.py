import ast
import csv
import io
import json
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import KERNEL_MODULES, RUN_KINDS, run_on_threads

from spde_drift.errors import ConfigurationError, StudyError
from spde_drift.estimate import EstimatorRequest
from spde_drift import fields, mc
from spde_drift.fields import NonlinearitySpec
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


def assert_reproducible_and_thread_independent(spec):
    r1 = run_study(spec, threads=1)
    r2 = run_on_threads(run_study, spec)
    j1 = json.dumps(r1.to_json_dict(), sort_keys=True)
    j2 = json.dumps(r2.to_json_dict(), sort_keys=True)
    assert j1 == j2
    r3 = run_study(spec, threads=1)
    assert json.dumps(r3.to_json_dict(), sort_keys=True) == j1


def test_report_reproducible_and_thread_independent():
    for mode in ("robust", "ito_sum"):
        spec = linear_study(n_trials=12, numerator_mode=mode)
        assert_reproducible_and_thread_independent(spec)


@pytest.mark.parametrize("name", RUN_KINDS)
def test_stepping_report_reproducible_and_thread_independent(name):
    # five trials: one chunk on one process, chunks of 3 and 2 on two
    assert_reproducible_and_thread_independent(StudySpec(*RUN_KINDS[name], n_trials=5))


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


def test_ks_distance_takes_scipy_ndtr_bits():
    """The bound ``ndtr`` kernel gives ``scipy.special.ndtr``'s bits, edges and
    far tails included, and the KS distance those of a reference built on
    it."""
    # imported here: the fresh interpreters that import this module check
    # which scipy modules a study loads
    import scipy.special

    rng = np.random.default_rng(11)
    x = np.concatenate([3.0 * rng.standard_normal(10_000), rng.uniform(-40.0, 40.0, 10_000),
                        np.linspace(-40.0, 40.0, 8001), [-np.inf, np.inf, -0.0, 0.0]])
    assert fields._ndtr(x).tobytes() == scipy.special.ndtr(x).tobytes()
    for n in range(1, 41):  # the supremum is one value: check many
        z = rng.standard_normal(n)
        cdf = scipy.special.ndtr(np.sort(z))
        reference = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert normal_ks_distance(z) == reference


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


def test_a_report_keeps_the_z_scores_it_was_computed_with():
    # summarize standardizes copies: a second summary of the same rows
    # leaves the first report's z scores and the caller's rows as they were
    rows = [EstimateRow(trial=t, variant="full", N=4, alpha=0.5, theta_hat=0.02 + 0.01 * t)
            for t in range(3)]
    first = summarize(rows, theta_true=0.02, variance=1.0, beta=2.0)
    zs = [r.z for r in first.estimates]
    second = summarize(rows, theta_true=0.02, variance=4.0, beta=2.0)
    assert [r.z for r in first.estimates] == zs
    assert first.rows[("full", 4)]["z_mean"] == float(np.mean(zs))
    assert [r.z for r in second.estimates] == [z / 2 for z in zs]
    assert all(r.z is None for r in rows)


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
    ({"histogram_bin_width": 1e-300}, "histogram_bin_width gives 1e\\+301 bins"),
    ({"histogram_bin_width": 1e-5}, "histogram_bin_width gives 1e\\+06 bins"),
], ids=["partial-last-bin", "zero-width", "negative-width", "nan-width", "reversed-range",
        "1e301-bins", "1e6-bins"])
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


def test_a_rejected_request_starts_no_pool(monkeypatch):
    """A multi-process study checks its request in the parent, before it
    forks: it raises what a one-process study raises."""
    def no_fork():
        pytest.fail("a rejected request forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    spec = linear_study()
    spec = replace(spec, est_req=replace(spec.est_req, variants=("partial1",)))
    messages = []
    for threads in (1, 2):
        with pytest.raises(ConfigurationError) as exc:
            run_study(spec, threads=threads)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == "scalar runs use variants full/partial/linear"


TEST_PID = os.getpid()


def draws(seeds):
    """A chunk function that is not a study."""
    return seeds, os.getpid(), [np.random.default_rng(s).standard_normal(4) for s in seeds]


@pytest.fixture
def forks(monkeypatch):
    """``os.fork`` made to record the forking pid of each real fork; a
    forked worker records into its own copy of the list."""
    forked, fork = [], os.fork

    def recorded():
        forked.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", recorded)
    return forked


def test_pool_never_exceeds_the_chunk_count(forks, monkeypatch):
    """``threads`` counts the parent: it forks n - 1 workers to run beside
    it, and never more processes than there are chunks."""
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 64)
    spec = linear_study(n_trials=3)
    report = run_study(spec, threads=64)
    assert forks == [TEST_PID] * 2
    reference = run_study(spec, threads=1)
    assert len(forks) == 2  # one process forks nothing
    assert json.dumps(report.to_json_dict()) == json.dumps(reference.to_json_dict())
    run_study(linear_study(n_trials=40), threads=2)  # chunks of 16, 16 and 8
    assert len(forks) == 3


RUN_CHUNK = mc._run_chunk


@pytest.mark.parametrize("cpus, pools", [(4, [3]), (1, [])])
def test_processes_are_capped_by_the_cpu_count(cpus, pools, forks, monkeypatch):
    """The runner runs at most as many processes as it has CPUs, its parent
    included, and cuts its items into chunks for that many."""
    monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
    parts = mc.run_chunks(draws, range(3000), threads=3000)
    assert len(forks) == sum(pools)
    assert len({pid for _, pid, _ in parts}) == cpus
    assert [len(chunk) for chunk, _, _ in parts] == [16] * 187 + [8]  # 3000 = 187 * 16 + 8


def test_usable_cpus_reads_the_affinity_set_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert mc._usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert mc._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert mc._usable_cpus() == 1


def test_a_platform_without_fork_runs_a_study_in_one_process(monkeypatch):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")  # so a fork attempt raises
    spec = linear_study(n_trials=40)
    report = run_study(spec, threads=4)
    monkeypatch.undo()
    assert json.dumps(report.to_json_dict()) == json.dumps(
        run_study(spec, threads=1).to_json_dict())


def test_a_failing_parent_chunk_ends_every_worker_first(monkeypatch):
    """When the parent's own chunk raises, the workers, here still asleep,
    are killed and reaped before the error leaves ``run_study``."""
    def parent_fails(spec, trials, setup=None):
        if os.getpid() == TEST_PID:
            raise MemoryError
        time.sleep(60)
        return RUN_CHUNK(spec, trials, setup)

    monkeypatch.setattr(mc, "_run_chunk", parent_fails)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)  # two real workers on any host
    start = time.monotonic()
    with pytest.raises(MemoryError):
        run_study(linear_study(n_trials=9), threads=3)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):  # no worker is left
        os.waitpid(-1, os.WNOHANG)


def test_run_chunks_returns_its_chunks_in_order_on_any_process_count(monkeypatch):
    """On n processes the parent runs chunk i exactly when i % n == 0, and
    each chunk gets the draws of its lone seeds."""
    seeds = [1000 + 7 * i for i in range(40)]  # chunks of 16, 16, 8; at 3 processes 14, 14, 12
    for processes in (1, 2, 3):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: processes)
        parts = mc.run_chunks(draws, seeds, threads=3)
        assert [chunk for chunk, _, _ in parts] == mc._chunks(seeds, processes)
        pids = [pid for _, pid, _ in parts]
        assert len(set(pids)) == processes
        assert [pid == TEST_PID for pid in pids] == [i % processes == 0 for i in range(3)]
        assert [d.tobytes() for _, _, ds in parts for d in ds] == [
            np.random.default_rng(s).standard_normal(4).tobytes() for s in seeds]
    assert mc.run_chunks(draws, [], threads=3) == []


def killed_beside_the_parent(seeds):
    if os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return seeds


def raises_beside_the_parent(seeds):
    if os.getpid() != TEST_PID:
        raise KeyError(seeds[0])
    return seeds


def killed_on_seeds_beside_the_parent(seeds):
    return killed_beside_the_parent(seeds)


#: the items of a case: 80 values that are not their positions, or the
#: 64-bit seeds of 40 trials
ITEMS = {killed_on_seeds_beside_the_parent: [mix_seed(1, i) for i in range(40)]}


@pytest.mark.parametrize("fn, error, message", [
    (killed_beside_the_parent, StudyError, "; trials 16-31, 48-63 were not run$"),
    (raises_beside_the_parent, KeyError, "^116$"),  # the worker's chunks are 1 and 3
    (killed_on_seeds_beside_the_parent, StudyError, "; trials 16-31 were not run$"),
])
def test_run_chunks_raises_what_its_workers_lose(fn, error, message, monkeypatch):
    """A worker killed by a signal is a ``StudyError`` naming the positions
    of the first and last item of each chunk it lost, not the items, a
    worker's exception is raised in the parent, caused by its traceback in
    the worker, and no worker is left either way."""
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    with pytest.raises(error, match=message) as raised:
        mc.run_chunks(fn, ITEMS.get(fn, list(range(100, 180))), threads=2)
    cause = raised.value.__cause__  # the worker's traceback, naming fn
    assert (cause is None) == (error is StudyError)
    assert cause is None or f", in {fn.__name__}\n" in str(cause)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_chunks_raises_why_a_worker_could_not_pickle_its_results(monkeypatch):
    """A result that cannot be pickled is the pickling error in the parent,
    not a worker that died; the parent's own chunks are never pickled."""
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    with pytest.raises(AttributeError, match="^Can't pickle local object .*<lambda>'$"):
        mc.run_chunks(lambda c: [lambda: 0 for _ in c], list(range(40)), threads=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("processes, parent", [
    (2, [(0, True), (32, False), (64, False)]),
    (3, [(0, True), (48, False)]),
])
def test_parent_steps_every_nth_chunk_from_its_own_set_up(processes, parent, monkeypatch):
    """On n processes the parent steps chunk 0 from the set-up it built
    before it forked, and every n-th chunk after it; the report is the
    one-process report.  The recorder sees the parent's calls only, since
    each worker records into its own copy of ``stepped``."""
    spec = linear_study(n_trials=80)  # five chunks of 16
    reference = json.dumps(run_study(spec, threads=1).to_json_dict())
    monkeypatch.setattr(mc, "_usable_cpus", lambda: processes)
    stepped = []

    def recorded(spec, trials, setup=None):
        stepped.append((trials.start, setup is not None))
        return RUN_CHUNK(spec, trials, setup)

    monkeypatch.setattr(mc, "_run_chunk", recorded)
    report = run_study(spec, threads=processes)
    assert json.dumps(report.to_json_dict()) == reference
    assert stepped == parent


POOL_PROBE = """
import json, os, sys
import spde_drift

def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

AT_IMPORT = scipy_modules()
from dataclasses import replace
from spde_drift import mc, simulate
from spde_drift.fields import NonlinearitySpec
from conftest import RUN_KINDS
from test_mc import linear_study
FORK, RUN_CHUNK, FILTER = os.fork, mc._run_chunk, simulate._linear_filter
at_fork = []  # the scipy modules loaded at each fork
filtered = []  # a 1 for each call of the drift-free filter in this process

def fork():
    at_fork.append(scipy_modules())
    return FORK()

def run_chunk(spec, trials, setup=None):
    results = RUN_CHUNK(spec, trials, setup)
    late = sorted(set(scipy_modules()) - set(AT_IMPORT))
    if late:  # raised in the parent, or by a worker's chunk
        raise ImportError(f"process {os.getpid()} loaded {late}")
    return results

def linear_filter(*args):
    filtered.append(1)
    return FILTER(*args)

os.fork, mc._run_chunk, simulate._linear_filter = fork, run_chunk, linear_filter
mc._usable_cpus = lambda: 2  # a worker beside the parent on any host
spec = {
    "ou_exact": linear_study(),
    "euler": linear_study(backend="euler"),
    "quadratic_bias": linear_study(backend="euler"),
}.get(sys.argv[1]) or mc.StudySpec(*RUN_KINDS[sys.argv[1]], n_trials=5)
if sys.argv[1] == "quadratic_bias":  # a drift-free model observed by a drift
    bias = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.5, -1.0))
    spec = replace(spec, est_req=replace(spec.est_req, bias_model=bias))
report = mc.run_study(spec, threads=2)
reference = mc.run_study(spec, threads=1)  # every trial in this process
same = json.dumps(report.to_json_dict()) == json.dumps(reference.to_json_dict())
print(json.dumps([AT_IMPORT, at_fork, same, bool(filtered), scipy_modules()]))
"""


@pytest.mark.parametrize("name, drift_free", [
    ("ou_exact", True), ("euler", True), ("quadratic_bias", True), ("allen_cahn", False),
    ("fhn", False), ("burgers", False),
])
def test_drift_free_study_imports_scipy_signal_before_its_pool(name, drift_free,
                                                               fresh_python):
    """Forked workers inherit the parent's modules, and ``import spde_drift``
    binds every scipy kernel a chunk calls, the filter of a drift-free model
    among them, so a study's pool starts with them and no process loads one
    later: a worker whose chunk loads a scipy module fails the run.  Only a
    drift-free model, whatever its bias model, calls the filter."""
    at_import, at_fork, same, filtered, at_end = json.loads(fresh_python(POOL_PROBE, name))
    assert set(at_import) <= KERNEL_MODULES
    assert at_fork == [at_import]
    assert same
    assert filtered == drift_free
    assert at_end == at_import


def package_trees():
    """Each module of the package by name, parsed."""
    package = Path(mc.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def test_scipy_is_imported_only_where_its_kernels_are_built():
    """No module of the package imports below module level, so a forked
    worker has nothing left to load, and none imports scipy: ``fields``
    loads the kernels' files itself, without a scipy package ``__init__``."""
    nested, scipy_imports = [], []
    for name, tree in package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if node not in tree.body:
                    nested.append(f"{name}:{node.lineno}")
                if "scipy" in ast.unparse(node):
                    scipy_imports.append(f"{name}:{node.lineno}")
    assert nested == []
    assert scipy_imports == []


def test_transforms_are_bound_in_one_place():
    """Every DST, rfft, filter and normal cdf is one direct call of a kernel
    that ``fields`` binds at module level through ``_extension``: no module
    names scipy.fftpack, whose wrapper the calls skip, no other module calls
    the loader, and only ``fields`` names a scipy path outside docstrings."""
    package = Path(mc.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "fftpack" in p.read_text()] == []
    loads, naming = set(), set()
    for name, tree in package_trees().items():
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        top = {id(node) for statement in tree.body for node in ast.walk(statement)
               if not isinstance(statement, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_extension":
                loads.add((name, id(node) in top))
            if isinstance(node, ast.Constant) and id(node) not in docstrings:
                if "scipy" in str(node.value):
                    naming.add(name)
    assert loads == {("fields", True)}
    assert naming == {"fields"}
