"""Command-line front end.

Subcommands: simulate | estimate | mc | advise | theory.  Exit codes:
0 success, 1 validation error, 2 runtime error (blow-up, out of memory), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._reprcsv import write_trajectory
from .config import load_config
from .errors import (
    BlowUpError,
    ConfigurationError,
    DegenerateTrajectoryError,
    SpdeDriftError,
    StudyError,
)
from .mc import (
    MCReport,
    StudySpec,
    estimate_rows,
    run_study,
    standardize_rows,
    theoretical_variance,
    write_estimate_rows,
)
from .simulate import simulate_model
from .svgplot import render_band_plot, render_histogram_plot, render_mse_plot
from .theory import AdvisorQuery, advise, asymptotic_constants

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _write_trajectory_csv(path, times, trajectory):
    """Long-format (t, k, x) CSV, byte for byte what ``csv.writer`` writes:
    a header, then one CRLF line per snapshot and mode, each float as
    Python's shortest round-trip ``repr``; ``_reprcsv`` formats them a block
    of snapshots at a time."""
    with open(path, "wb") as fh:
        fh.write(b"t,k,x\r\n")
        write_trajectory(fh, times, trajectory)


def _single_run_rows(cfg):
    out = simulate_model(cfg.model, cfg.scheme, cfg.est_req)
    variance = theoretical_variance(cfg.model, cfg.scheme.t_final, cfg.est_req.alpha)
    rows = estimate_rows(out, cfg.est_req)
    standardize_rows(rows, cfg.model.theta_true, variance, cfg.model.operator.beta)
    return out, rows


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if cfg.scheme.snapshot_stride is None:
        stride = max(1, cfg.scheme.n_steps // 1000)
        cfg.scheme = replace(cfg.scheme, snapshot_stride=stride)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim, rows = _single_run_rows(cfg)
    written = [out_dir / "trajectory.csv"]
    _write_trajectory_csv(written[0], sim.times, sim.trajectory)
    if sim.w_trajectory is not None:
        written.append(out_dir / "trajectory_w.csv")
        _write_trajectory_csv(written[-1], sim.times, sim.w_trajectory)
    written.append(out_dir / "estimates.csv")
    with open(written[-1], "w", newline="") as fh:
        write_estimate_rows(fh, rows)
    print(f"wrote {', '.join(map(str, written[:-1]))} and {written[-1]}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    _, rows = _single_run_rows(cfg)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_estimate_rows(fh, rows)
        print(f"wrote {args.out}")
    else:
        write_estimate_rows(sys.stdout, rows)
    return EXIT_OK


def _write_report(report: MCReport, out_dir: Path, spec: StudySpec):
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_estimates_csv(out_dir / "estimates.csv")
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    n_values = list(spec.est_req.n_list)
    variants = [
        v for v in spec.est_req.variants
        if all((v, n) in report.rows for n in n_values)
    ]
    if variants and n_values:
        summaries = {
            v: {
                key: np.array([report.rows[(v, n)][key] for n in n_values])
                for key in ("median", "p2_5", "p97_5")
            }
            for v in variants
        }
        (out_dir / "median_band.svg").write_text(
            render_band_plot(n_values, summaries, spec.model.theta_true)
        )
        mse = {
            v: [report.rows[(v, n)]["mse"] for n in n_values] for v in variants
        }
        variance = report.variance
        beta = spec.model.operator.beta
        if variance:
            reference = [variance * n ** (-(beta + 1.0)) for n in n_values]
        else:
            anchor = next(iter(mse.values()))[0]
            reference = [anchor * (n / n_values[0]) ** (-(beta + 1.0)) for n in n_values]
        (out_dir / "mse.svg").write_text(render_mse_plot(n_values, mse, reference))
    if report.histograms:
        (out_dir / "histogram.svg").write_text(
            render_histogram_plot(
                report.bin_edges, report.histograms, report.histogram_n
            )
        )


def cmd_mc(args) -> int:
    cfg = load_config(args.config)
    if cfg.study is None:
        raise ConfigurationError("the mc subcommand needs a [study] section")
    out_dir = Path(args.out_dir)
    try:
        report = run_study(cfg.study, threads=args.threads)
    except StudyError as exc:
        if exc.report is not None:  # flush partial results before failing
            _write_report(exc.report, out_dir, cfg.study)
        raise
    _write_report(report, out_dir, cfg.study)
    print(f"wrote study artifacts to {out_dir}")
    return EXIT_OK


def cmd_advise(args) -> int:
    # every flag left out is absent from args, so its field keeps its default
    given = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    given["example"] = given["example"].replace("-", "_")
    advice = advise(AdvisorQuery(**given))
    print(json.dumps(advice.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_theory(args) -> int:
    constants = asymptotic_constants(
        theta=args.theta,
        t_final=args.t_final,
        lambda_scale=args.lambda_scale,
        beta=args.beta,
        gamma=args.gamma,
        alpha=args.alpha,
    )
    print(
        json.dumps(
            {
                "c_mean": constants.c_mean,
                "c_var": constants.c_var,
                "V": constants.variance,
                "rate_exponent": constants.rate_exponent,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-drift",
        description="Spectral-Galerkin simulation and drift estimation for "
        "semilinear stochastic reaction-diffusion equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trajectory, dump CSV artifacts")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default="out", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="run one trajectory, print estimates CSV")
    p_est.add_argument("config")
    p_est.add_argument("--out", default=None, help="output CSV file (default stdout)")
    p_est.set_defaults(func=cmd_estimate)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo study")
    p_mc.add_argument("config")
    p_mc.add_argument("--out-dir", default="mc-out")
    p_mc.add_argument("--threads", type=int, default=None,
                      help="processes, this one included (default: $SPDE_DRIFT_THREADS or 1)")
    p_mc.set_defaults(func=cmd_mc)

    p_adv = sub.add_parser("advise", help="asymptotic guarantees per example class",
                           argument_default=argparse.SUPPRESS)
    p_adv.add_argument("--example", required=True)
    p_adv.add_argument("--n", type=int)
    p_adv.add_argument("--mf", dest="m_f", type=int)
    p_adv.add_argument("--gamma", type=float, required=True)
    p_adv.add_argument("--alpha", type=float, required=True)
    p_adv.add_argument("--odd", dest="m_f_odd", action="store_true")
    p_adv.add_argument("--neg-leading", dest="leading_coeff_negative", action="store_true")
    p_adv.add_argument("--theta", type=float)
    p_adv.add_argument("--t-final", type=float)
    p_adv.add_argument("--lambda", dest="lambda_scale", type=float)
    p_adv.set_defaults(func=cmd_advise)

    p_th = sub.add_parser("theory", help="asymptotic constants and variance")
    p_th.add_argument("--theta", type=float, required=True)
    p_th.add_argument("--T", dest="t_final", type=float, required=True)
    p_th.add_argument("--Lambda", dest="lambda_scale", type=float, required=True)
    p_th.add_argument("--beta", type=float, required=True)
    p_th.add_argument("--gamma", type=float, required=True)
    p_th.add_argument("--alpha", type=float, required=True)
    p_th.set_defaults(func=cmd_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return args.func(args)
    except (BlowUpError, DegenerateTrajectoryError, StudyError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME
    except SpdeDriftError as exc:  # ConfigurationError, DomainError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
