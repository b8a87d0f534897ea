"""Workload definitions: INI configs generated from the workload seed.

Each workload is the model of one of the paper's Monte Carlo studies, with
trial counts and horizons sized so that one study and one single-trajectory
call both fit many times into a run.  ``smoke`` sizes shrink every workload
to a fraction of a second for the benchmark's self-check.  Only the stdlib
is used here, so the orchestrator can generate inputs without importing the
package under test.
"""

from __future__ import annotations

import hashlib

SIN_PI_X = "0.70710678118654752"  # sin(pi x) = 2^-1/2 * Phi_1

WORKLOADS = {
    # README example: stochastic Allen-Cahn, f(u) = u - u^3, all three
    # scalar variants, so every step evaluates a 6-row batch in `fields`.
    "allen_cahn": {
        "model": {
            "kind": "dirichlet_laplacian_1d",
            "domain_length": "1.0",
            "theta_true": "0.02",
            "gamma": "0.4",
            "nonlinearity": "polynomial",
            "poly_coeffs": "0, 1, 0, -1",
            "initial_modes": SIN_PI_X,
            "n_sim": "100",
        },
        "scheme": {"dt": "1e-4", "t_final": "0.05"},
        "estimators": {
            "alpha": "0.4",
            "n_list": "4, 8, 16, 20, 32",
            "variants": "full, partial, linear",
        },
        "study": {"n_trials": "3", "histogram_n": "20"},
        "smoke": {"t_final": "0.005", "n_trials": "2"},
        "decomposes": True,
    },
    # Coupled activator/recovery system (acceptance criterion 8): small
    # batches, two noise channels, per-step overhead dominates.
    "fhn_coupled": {
        "model": {
            "kind": "dirichlet_laplacian_1d",
            "domain_length": "1.0",
            "theta_true": "0.02",
            "gamma": "0.8",
            "nonlinearity": "fhn",
            "a": "0.5",
            "b": "1.0",
            "epsilon": "0.1",
            "sigma": "1.0",
            "sigma_w": "0.05",
            "gamma_w": "1.0",
            "initial_modes": SIN_PI_X,
            "n_sim": "32",
        },
        "scheme": {"dt": "1e-3", "t_final": "1.0"},
        "estimators": {
            "alpha": "0.8",
            "n_list": "4, 16",
            "variants": "full, partial1, partial2, linear",
        },
        "study": {"n_trials": "4", "histogram_n": "16"},
        "smoke": {"t_final": "0.05", "n_trials": "2"},
        "decomposes": False,
    },
    # Drift-free model with exact transition sampling (acceptance
    # criterion 3): no `fields` calls and no step loop.
    "ou_exact": {
        "model": {
            "kind": "dirichlet_laplacian_1d",
            "domain_length": "1.0",
            "theta_true": "0.1",
            "gamma": "0.5",
            "nonlinearity": "none",
            "initial_modes": "0.0",
            "n_sim": "64",
        },
        "scheme": {"dt": "1e-4", "t_final": "1.0", "backend": "ou_exact"},
        "estimators": {
            "alpha": "0.5",
            "n_list": "8, 16, 32, 64",
            "variants": "full, partial, linear",
        },
        "study": {"n_trials": "16", "histogram_n": "64"},
        "smoke": {"t_final": "0.01", "n_trials": "2"},
        "decomposes": True,
    },
}


def master_seed(workload: str, seed: int) -> int:
    """Study master seed derived from the workload name and benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def sections(workload: str, seed: int, smoke: bool = False) -> dict:
    """The study config of ``workload`` as {section: {key: value}}."""
    spec = WORKLOADS[workload]
    out = {
        "model": dict(spec["model"]),
        "scheme": {**spec["scheme"], "seed": str(master_seed(workload, seed))},
        "estimators": dict(spec["estimators"]),
        "study": dict(spec["study"]),
    }
    if smoke:
        out["scheme"]["t_final"] = spec["smoke"]["t_final"]
        out["study"]["n_trials"] = spec["smoke"]["n_trials"]
    return out


def render_ini(cfg: dict) -> str:
    lines = []
    for name, keys in cfg.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def trajectory_ini(cfg: dict, trial_seed: int) -> str:
    """Single-trajectory config for one study trial: same model, the trial's
    derived seed, no [study] section."""
    single = {k: dict(v) for k, v in cfg.items() if k != "study"}
    single["scheme"]["seed"] = str(trial_seed)
    return render_ini(single)
