"""spde-drift benchmark.

    python3 perfbench/run.py --workload allen_cahn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --smoke

Generates the workload's INI configs from ``--seed``, then

* ``--trace 0``: for ``--seconds``, runs Monte Carlo studies
  (``mc --threads 2``) and single-trajectory ``simulate`` calls through the
  public CLI, interleaved with fresh-interpreter set-up, and reports the
  end-to-end metrics at reference machine speed (``speed.py``);
* ``--trace 1``: runs the workload serially in-process with the package's
  public entry points wrapped, and reports per-layer metrics, the kernel
  table and the tracing overhead.

Every run checks the outputs (see ``harness.py``), writes a run record to
``.perfbench-out/`` and prints each metric with its unit; the last line of
stdout is one JSON object.  A failed check exits with code 1.  ``--smoke``
runs every workload at tiny size, asserts that every metric named in
BENCHMARK.json is emitted with its unit, and that the correctness gate trips
on a deliberately altered estimate row.

Only the stdlib is imported here; the package is imported by child
processes from ``src`` with BLAS threads pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, master_seed, render_ini, sections  # noqa: E402

OUT = ROOT / ".perfbench-out"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HARNESS_TIMEOUT_S = 150
SETUP_CODE = ("import sys, spde_drift; from spde_drift.config import load_config; "
              "load_config(sys.argv[1])")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv, timeout=60) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n"
                         + _tail(proc.stderr))
    return proc


def _tail(text, n=15) -> str:
    return "\n".join(text.strip().splitlines()[-n:])


def setup_argv(config) -> list:
    return [sys.executable, "-c", SETUP_CODE, str(config)]


def setup_seconds(argv) -> float:
    """Wall time of a fresh interpreter that imports spde_drift and loads the
    config."""
    t0 = time.perf_counter()
    run_child(argv)
    return time.perf_counter() - t0


def run_harness(work, setup) -> list:
    """Run harness.py on ``work/spec.json``.  Each ``setup`` line the harness
    prints asks for one timed set-up sample, taken here while the harness
    waits, so that the harness's only child processes are study workers.
    Returns the set-up samples."""
    argv = [sys.executable, str(HERE / "harness.py"), str(work / "spec.json"),
            str(work / "result.json")]
    samples = []
    with open(work / "harness.stderr", "w+") as err:
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err)
        timer = threading.Timer(HARNESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line.strip() == "setup":
                    samples.append(setup_seconds(setup))
                    proc.stdin.write("\n")
                    proc.stdin.flush()
            rc = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        if rc != 0:
            raise BenchError(f"harness.py exited {rc}:\n{_tail(err.read())}")
    return samples


def import_times() -> dict:
    """Cumulative import times from ``python -X importtime`` in a child."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import spde_drift"])
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1])
    return {
        "setup.import_ms": (cumulative["spde_drift"] / 1e3, "ms"),
        "setup.scipy_signal_ms": (cumulative.get("scipy.signal", 0) / 1e3, "ms"),
    }


def git_record() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"sha": None, "dirty": None}
        return {
            "sha": git("rev-parse", "HEAD").stdout.strip(),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip()),
        }
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def run_workload(name, seed, seconds, trace, smoke=False, tamper=False):
    """One benchmark run; returns (result, record)."""
    work = OUT / f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = sections(name, seed, smoke)
    (work / "study.ini").write_text(render_ini(cfg))
    n_trials = int(cfg["study"]["n_trials"])
    spec = {
        "mode": "trace" if trace else "e2e",
        "work_dir": str(work),
        "sections": cfg,
        "trial_order": random.Random(master_seed(name, seed)).sample(range(n_trials), n_trials),
        "seconds": seconds,
        "decomposes": WORKLOADS[name]["decomposes"],
        "tamper": tamper,
    }
    (work / "spec.json").write_text(json.dumps(spec, indent=1))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "git": git_record(), "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV, "loadavg_before": os.getloadavg(),
    }
    metrics = {}
    if trace:
        metrics.update(import_times())
    else:
        setup_seconds(setup_argv(work / "study.ini"))  # warm-up, compiles bytecode
    setup = run_harness(work, setup_argv(work / "study.ini"))
    res = json.loads((work / "result.json").read_text())
    record["loadavg_after"] = os.getloadavg()
    record["configs"] = {p.name: p.read_text() for p in sorted(work.glob("*.ini"))}

    if trace:
        metrics.update({k: tuple(v) for k, v in res["metrics"].items()})
    else:
        res["samples"]["setup_s"] = setup
        res["adjusted"]["setup_s"] = [t * k for t, k in zip(setup, res["setup_scale"])]
        adj = res["adjusted"]
        metrics.update({
            "study_s": (statistics.median(adj["study_s"]), "s"),
            "study_cpu_s": (statistics.median(adj["study_cpu_s"]), "s"),
            "trajectory_s": (statistics.median(adj["trajectory_s"]), "s"),
            "setup_s": (statistics.median(adj["setup_s"]), "s"),
            "worker_peak_rss_mb": (res["worker_peak_rss_mb"], "MB"),
            "ok_frac": (1.0 - res["failed"] / res["attempted"], "fraction"),
        })
    record.update({k: res[k] for k in res if k != "metrics"})
    record["metrics"] = metrics
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for sub in work.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def high_percentile(values):
    """The highest whole percentile with at least ten samples above it, as
    (percentile, value), or None when there are fewer than 20 samples."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100)[p - 1]


def report(result, record):
    """Print each metric with its unit.  Timings are at reference speed; the
    note gives the sample count, the high percentile and the raw median."""
    name = record["workload"]
    adjusted, raw = record.get("adjusted", {}), record.get("samples", {})
    for key, m in result["metrics"].items():
        note = ""
        if adjusted.get(key):
            note = f"  (median of {len(adjusted[key])}"
            high = high_percentile(adjusted[key])
            note += f"; p{high[0]} = {high[1]:.6g} {m['unit']}" if high else ""
            note += f"; raw median {statistics.median(raw[key]):.6g} {m['unit']})"
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}{note}")
    print(f"{name} failed_frac = {result['failed'] / result['attempted']:.6g} fraction"
          f"  ({result['failed']} of {result['attempted']} trials, commands and checks)")
    for failure in record["failures"]:
        print(f"{name} FAILED {failure}")


def expected_metrics() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def _expect(ok, message):
    if not ok:
        raise BenchError(f"smoke check failed: {message}")


def smoke() -> int:
    expected = expected_metrics()
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(name, 1, 1, trace, smoke=True)
            _expect(result["correct"], f"{name} trace={trace}: {record['failures']}")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            _expect(units == expected[trace],
                    f"{name} trace={trace}: {set(units.items()) ^ set(expected[trace].items())}")
            print(f"smoke {name} trace={trace}: {len(units)} metrics with units, checks pass")
    for name in WORKLOADS:
        result, _ = run_workload(name, 1, 1, 0, smoke=True, tamper=True)
        _expect(not result["correct"] and result["failed"] > 0,
                f"{name}: an altered estimate row passed the gate")
        print(f"smoke {name}: altered estimate row trips the gate "
              f"({result['failed']} failures)")
    print("smoke ok")
    return 0


def run_all(seed, seconds) -> int:
    """Every workload, untraced and traced, in one command."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(name, seed, seconds, trace)
            report(result, record)
            summary["workloads"].setdefault(name, {})[f"trace{trace}"] = result
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload with --trace 0 and 1")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (args.smoke or args.workload):
        parser.error("--workload or --smoke is required")
    if not (ROOT / "src" / "spde_drift" / "__init__.py").is_file():
        print(f"error: no spde_drift package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
