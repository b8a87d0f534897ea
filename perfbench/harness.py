"""Benchmark child process: runs one workload through the public CLI and
library, times it, checks the outputs, and writes a JSON result file.

    python3 perfbench/harness.py SPEC_JSON RESULT_JSON

The spec (written by ``run.py``) names the mode (``e2e`` or ``trace``), the
generated study config, the trial order of the single-trajectory pass and
the measuring time.  The package is imported from ``src`` of the checkout.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spde_drift  # noqa: E402
from spde_drift import cli, estimate, mc, simulate  # noqa: E402
from spde_drift.config import load_config  # noqa: E402

from speed import REFERENCE_NOMINAL_S, Speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import trajectory_ini  # noqa: E402

THREADS = 2
SETUPS = 3
MIN_OVERHEAD_PAIRS = 3
PROTOCOL = sys.stdout  # lines to run.py; the CLI's own output is captured
MC_ARTIFACTS = ("estimates.csv", "summary.json", "median_band.svg", "mse.svg",
                "histogram.svg")


class Gate:
    """Counts attempted and failed operations: study trials, CLI commands
    and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.numpy_repr = 0  # z fields written as np.float64(...), not gated

    def check(self, name, ok, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")
        return bool(ok)

    def trials(self, n_trials, n_failed):
        self.attempted += n_trials
        self.failed += n_failed
        if n_failed:
            self.failures.append(f"{n_failed} of {n_trials} study trials failed")


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_cli(gate, argv):
    """Run ``spde_drift.cli.main`` in-process; returns (ok, wall_s, self_cpu_s,
    children_cpu_s)."""
    err = io.StringIO()
    c0, k0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash counts as a failed command
        rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    c1, k1 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    ok = gate.check(f"{argv[0]} exit code", rc == 0, f"{rc} {err.getvalue().strip()}")
    return ok, wall, c1 - c0, k1 - k0


def as_float(text) -> float:
    """Value of a CSV number; also accepts numpy's ``np.float64(...)`` repr,
    which the package writes for z (counted in ``Gate.numpy_repr``)."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_rows(path) -> dict:
    """estimates.csv as {(trial, variant, N): (theta_hat, z)} with the exact
    text of each number."""
    with open(path, newline="") as fh:
        return {
            (int(r["trial"]), r["variant"], int(r["N"])): (r["theta_hat"], r["z"])
            for r in csv.DictReader(fh)
        }


def check_study(gate, out_dir, cfg) -> dict:
    missing = [a for a in MC_ARTIFACTS if not (out_dir / a).is_file()]
    if not gate.check("mc artifacts", not missing, f"missing {missing}"):
        return {}
    with open(out_dir / "summary.json") as fh:
        n_failed = int(json.load(fh)["n_failed"])
    gate.trials(cfg.study.n_trials, n_failed)
    rows = read_rows(out_dir / "estimates.csv")
    req = cfg.est_req
    expected = (cfg.study.n_trials - n_failed) * len(req.variants) * len(req.n_list)
    gate.check("mc row count", len(rows) == expected, f"{len(rows)} != {expected}")
    bad = [k for k, (theta, z) in rows.items()
           if not math.isfinite(float(theta)) or (z and not math.isfinite(as_float(z)))]
    gate.check("mc estimates finite", not bad, f"non-finite rows {bad[:3]}")
    gate.numpy_repr = sum(z.startswith("np.") for _, z in rows.values())
    return rows


def check_trajectory(gate, out_dir, study_rows, trial, coupled):
    names = ["trajectory.csv", "estimates.csv"] + (["trajectory_w.csv"] if coupled else [])
    missing = [a for a in names if not (out_dir / a).is_file()]
    if gate.check("simulate artifacts", not missing, f"missing {missing}") and study_rows:
        check_rows(gate, read_rows(out_dir / "estimates.csv"), study_rows, trial)


def check_rows(gate, sim_rows, study_rows, trial):
    """The single-trajectory rows equal the study's rows of ``trial``."""
    diff = [(v, n) for (_, v, n), vals in sim_rows.items()
            if study_rows.get((trial, v, n)) != vals]
    gate.check("simulate == mc trial bits", sim_rows and not diff,
               f"trial {trial}: rows {diff[:3]} differ from the mc estimates.csv")


def check_library(gate, traj_cfg, study_rows, trial, decomposes):
    """Library-level gate on one trial: estimates equal the study's bits,
    decomposition identities hold bit for bit, D_N is nondecreasing."""
    sim = cli.simulate_model(traj_cfg.model, traj_cfg.scheme, traj_cfg.est_req)
    acc, req = sim.accumulators, traj_cfg.est_req
    diff = []
    for v in req.variants:
        for n in req.n_list:
            theta = estimate.estimate_theta(acc, req, v, n).theta_hat
            if study_rows.get((trial, v, n), ("",))[0] != repr(theta):
                diff.append((v, n))
    gate.check("library == mc trial bits", not diff, f"trial {trial}: {diff[:3]}")
    dens = [acc.denominator(n, req.alpha) for n in range(1, len(acc.lam) + 1)]
    gate.check("D_N nondecreasing", all(b >= a for a, b in zip(dens, dens[1:])),
               "denominator decreases in N")
    gate.check("D_N finite", all(math.isfinite(d) for d in dens), "non-finite D_N")
    if decomposes:
        broken = []
        for n in req.n_list:
            d = estimate.decompose(acc, req, n)
            if (d.theta_full != d.theta_linear + d.bias_full
                    or d.theta_partial != d.theta_linear + d.bias_partial):
                broken.append(n)
        gate.check("decomposition identities", not broken, f"broken at N={broken}")


def tamper(path, key):
    """Alter one estimate row by one ulp (benchmark self-check only)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if (int(row[0]), row[1], int(row[2])) == key:
            row[4] = repr(float(np.nextafter(float(row[4]), np.inf)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """Generated inputs of one run: the study config and one single-trajectory
    config per trial of the trajectory pass."""

    def __init__(self, spec):
        self.spec = spec
        self.work = Path(spec["work_dir"])
        self.config = self.work / "study.ini"
        self.cfg = load_config(self.config)
        self.coupled = self.cfg.model.nonlinearity.variant == "fhn"
        self.order = spec["trial_order"]
        self.traj_paths = {}
        for trial in self.order:
            path = self.work / f"trial{trial}.ini"
            seed = mc.mix_seed(self.cfg.scheme.seed, trial)
            path.write_text(trajectory_ini(spec["sections"], seed))
            self.traj_paths[trial] = path
        self.reference_digest = None

    def study(self, gate, out_dir, threads=THREADS):
        ok, wall, cpu_self, cpu_children = run_cli(
            gate, ["mc", str(self.config), "--out-dir", str(out_dir),
                   "--threads", str(threads)])
        if ok and self.spec["tamper"]:
            req = self.cfg.est_req
            tamper(out_dir / "estimates.csv", (self.order[0], req.variants[0], req.n_list[0]))
        rows = check_study(gate, out_dir, self.cfg) if ok else {}
        if rows:
            digest = _digest(out_dir / "estimates.csv")
            self.reference_digest = self.reference_digest or digest
            gate.check("mc output identical across calls and thread counts",
                       digest == self.reference_digest, "estimates.csv differs")
        return rows, wall, cpu_self, cpu_children

    def trajectory(self, gate, out_dir, trial, study_rows):
        ok, wall, _, _ = run_cli(
            gate, ["simulate", str(self.traj_paths[trial]), "--out", str(out_dir)])
        if ok:
            check_trajectory(gate, out_dir, study_rows, trial, self.coupled)
        return wall

    def library_check(self, gate, study_rows):
        trial = self.order[-1]
        check_library(gate, load_config(self.traj_paths[trial]), study_rows, trial,
                      self.spec["decomposes"])


def request_setup_sample():
    """Wait while run.py times one fresh-interpreter set-up."""
    print("setup", file=PROTOCOL, flush=True)
    sys.stdin.readline()


class Samples:
    """Raw timings, each with the index of the reference timing taken just
    before it (``speed.py``)."""

    def __init__(self, speed, *names):
        self.speed = speed
        self.raw = {n: [] for n in names}
        self.at = {n: [] for n in names}

    def add(self, **values) -> int:
        """Record samples timed since the last reference timing, then take
        the next one; returns the index of the one before."""
        k = len(self.speed.references) - 1
        self.speed.measure()
        for name, value in values.items():
            self.raw[name].append(value)
            self.at[name].append(k)
        return k

    def adjusted(self) -> dict:
        return {n: [v * self.speed.scale(k) for v, k in zip(self.raw[n], self.at[n])]
                for n in self.raw}


def run_e2e(w: Workload, gate) -> dict:
    """Closed loop from one process.  Each round runs a study, then serial
    trajectory calls for about half as long as the study took, until
    ``seconds`` have passed.  ``SETUPS`` set-up samples are spread evenly
    over the run.  Every sample is bracketed by reference timings."""
    study_dir, traj_dir = w.work / "mc", w.work / "simulate"
    w.trajectory(gate, traj_dir, w.order[0], None)  # warm-up, checked below
    warm_csv = traj_dir / "estimates.csv"
    warm_rows = read_rows(warm_csv) if warm_csv.is_file() else {}
    speed = Speed()
    s = Samples(speed, "study_s", "study_cpu_s", "trajectory_s")
    setup_at = []  # run.py times the set-up samples
    start = time.perf_counter()
    deadline = start + w.spec["seconds"]
    k = 0
    while time.perf_counter() < deadline:
        rows, wall, cpu_self, cpu_children = w.study(gate, study_dir)
        s.add(study_s=wall, study_cpu_s=cpu_self + cpu_children)
        if warm_rows is not None:
            check_rows(gate, warm_rows, rows, w.order[0])
            warm_rows = None
        spent = 0.0
        while spent < wall / 2:
            trial = w.order[k % len(w.order)]
            k += 1
            traj = w.trajectory(gate, traj_dir, trial, rows)
            s.add(trajectory_s=traj)
            spent += traj
        due = start + len(setup_at) * w.spec["seconds"] / SETUPS
        if len(setup_at) < SETUPS and time.perf_counter() >= due:
            request_setup_sample()
            setup_at.append(s.add())
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    w.library_check(gate, rows)
    return {"samples": s.raw, "adjusted": s.adjusted(),
            "setup_scale": [speed.scale(i) for i in setup_at],
            "reference_nominal_s": REFERENCE_NOMINAL_S,
            "references_s": speed.references,
            "worker_peak_rss_mb": peak_kb / 1024.0}


def _steps_meta(model, scheme, *args, **kwargs):
    return {"steps": scheme.n_steps}


def _rows_meta(x, *args, **kwargs):
    return int(np.shape(x)[0]) if np.ndim(x) > 1 else 1


def _nemytskii_meta(x, nl, grid, *args, **kwargs):
    return {"rows": _rows_meta(x), "grid": grid.n_grid}


def _burgers_meta(x, grid, *args, **kwargs):
    return {"rows": _rows_meta(x), "grid": grid.n_grid}


def install_wrappers(tr: Tracer):
    """Wrap each layer's public entry points where the package calls them."""
    acc = estimate.EstimatorAccumulator
    for owner, attr, name, meta in [
        (cli, "load_config", "config.load", None),
        (cli, "run_study", "mc.run_study", None),
        (mc, "summarize", "mc.summarize", lambda est, *a, **k: {"rows": len(est)}),
        (cli, "simulate_model", "simulate", _steps_meta),
        (mc, "simulate_model", "simulate", _steps_meta),
        (simulate, "nemytskii_modes", "fields", _nemytskii_meta),
        (simulate, "burgers_modes", "fields", _burgers_meta),
        (acc, "add_state", "estimate.accumulate", None),
        (acc, "add_increment", "estimate.accumulate", None),
        (acc, "finalize", "estimate.accumulate", None),
        (acc, "from_linear_path", "estimate.accumulate", None),
        (cli, "estimate_theta", "estimate.query", None),
        (mc, "estimate_theta", "estimate.query", None),
        (estimate, "estimate_theta", "estimate.query", None),
        (estimate, "decompose", "estimate.query", None),
        (cli, "_write_report", "io.mc_write", None),
        (mc.MCReport, "write_estimates_csv", "io.estimates_csv", None),
        (mc.MCReport, "to_json_dict", "io.summary_json", None),
        (cli, "render_band_plot", "io.svg", None),
        (cli, "render_mse_plot", "io.svg", None),
        (cli, "render_histogram_plot", "io.svg", None),
        (cli, "_write_trajectory_csv", "io.cli_csv", None),
        (cli, "_write_estimates_csv", "io.cli_csv", None),
    ]:
        tr.wrap(owner, attr, name, meta)


def _meta_sum(spans, key) -> int:
    return sum((s[6] or {}).get(key, 0) for s in spans)


def layer_metrics(tr: Tracer, runs) -> dict:
    def spans(name):
        return [s for s in tr.named(name) if s[2] in runs]

    def total(name):
        return sum(s[5] - s[4] for s in spans(name))

    sim_spans, field_spans = spans("simulate"), spans("fields")
    steps = _meta_sum(sim_spans, "steps")
    sim_s = total("simulate")
    sim_self = sum(tr.self_time("simulate", r) for r in runs)
    n_fields, rows = len(field_spans), _meta_sum(field_spans, "rows")
    fields_s = total("fields")
    queries = spans("estimate.query")
    load = spans("config.load")
    mc_write = total("io.mc_write") or sum(
        tr.total(n, "mc") for n in ("io.estimates_csv", "io.summary_json", "io.svg"))
    per = lambda num, den, scale=1.0: scale * num / den if den else 0.0
    return {
        "simulate.steps": (float(steps), "count"),
        "simulate.us_per_step": (per(sim_s, steps, 1e6), "us"),
        "simulate.self_us_per_step": (per(sim_self, steps, 1e6), "us"),
        "fields.calls": (float(n_fields), "count"),
        "fields.rows": (float(rows), "count"),
        "fields.grid_points": (float(max((s[6]["grid"] for s in field_spans), default=0)),
                               "count"),
        "fields.us_per_call": (per(fields_s, n_fields, 1e6), "us"),
        "fields.us_per_row": (per(fields_s, rows, 1e6), "us"),
        "fields.share": (per(fields_s, sim_s), "fraction"),
        "estimate.accumulate_us_per_step": (
            per(total("estimate.accumulate"), steps, 1e6), "us"),
        "estimate.query_calls": (float(len(queries)), "count"),
        "estimate.query_us_per_call": (
            per(total("estimate.query"), len(queries), 1e6), "us"),
        "mc.summarize_ms": (1e3 * total("mc.summarize"), "ms"),
        "mc.rows": (float(_meta_sum(spans("mc.summarize"), "rows")), "count"),
        "mc.self_ms": (1e3 * tr.self_time("mc.run_study", "mc"), "ms"),
        "io.mc_write_ms": (1e3 * mc_write, "ms"),
        "io.trajectory_csv_ms": (1e3 * tr.total("io.cli_csv", "simulate"), "ms"),
        "config.load_ms": (per(total("config.load"), len(load), 1e3), "ms"),
    }


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def run_trace(w: Workload, gate) -> dict:
    from kernels import kernel_table

    deadline = time.perf_counter() + w.spec["seconds"]
    # Untraced parallel study: how busy the two workers are.
    rows, wall, _, cpu_children = w.study(gate, w.work / "mc2")
    busy = cpu_children / (THREADS * wall)

    tr = Tracer()
    install_wrappers(tr)
    try:
        tr.run_id = "mc"
        rows, *_ = w.study(gate, w.work / "mc1", threads=1)
        tr.run_id = "simulate"
        w.trajectory(gate, w.work / "simulate", w.order[0], rows)
        tr.run_id = "gate"
        w.library_check(gate, rows)
    finally:
        tr.unwrap_all()
    metrics = layer_metrics(tr, ("mc", "simulate"))
    metrics["mc.worker_busy_frac"] = (busy, "fraction")
    metrics["io.bytes"] = (float(_dir_bytes(w.work / "mc1")
                                 + _dir_bytes(w.work / "simulate")), "B")

    tr.write(w.work / "spans.json")

    # Tracing overhead: alternate untraced and traced simulate_model calls;
    # the probe's spans are discarded.
    traj_cfg = load_config(w.traj_paths[w.order[0]])
    args = (traj_cfg.model, traj_cfg.scheme, traj_cfg.est_req)
    plain, traced = [], []
    while time.perf_counter() < deadline or len(plain) < MIN_OVERHEAD_PAIRS:
        t0 = time.perf_counter()
        cli.simulate_model(*args)
        plain.append(time.perf_counter() - t0)
        probe = Tracer()
        install_wrappers(probe)
        try:
            t0 = time.perf_counter()
            cli.simulate_model(*args)
            traced.append(time.perf_counter() - t0)
        finally:
            probe.unwrap_all()
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "fraction")
    metrics.update(kernel_table())
    return {"metrics": metrics, "overhead_pairs": len(plain)}


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    gate = Gate()
    w = Workload(spec)
    result = run_e2e(w, gate) if spec["mode"] == "e2e" else run_trace(w, gate)
    result.update(
        attempted=gate.attempted,
        failed=gate.failed,
        failures=gate.failures,
        z_numpy_repr_fields=gate.numpy_repr,
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": scipy.__version__, "spde_drift": spde_drift.__version__},
        blas_env={k: os.environ.get(k) for k in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    )
    Path(result_path).write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
