"""Kernel table: per-call cost of the pseudospectral helpers and the exact
OU sampler, at fixed batch sizes and simulated mode counts.

``bytes_per_row_computed`` is computed from array sizes, not measured: it
sums 8 bytes per float64 element that each array stage of the kernel reads
and writes once, per batch row.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spde_drift import (
    ALLEN_CAHN,
    OperatorSpec,
    burgers_modes,
    default_grid,
    modes_to_grid,
    nemytskii_modes,
    simulate_ou_exact,
)

BATCHES = (1, 6, 25, 100)
N_SIMS = (32, 100, 256)
OU_STEPS = 1000
OP = OperatorSpec()


def _per_call_s(fn, min_batch_s=0.01, repeats=5) -> float:
    """Median over ``repeats`` timed batches of the per-call time; a batch
    repeats the call until it has run ``min_batch_s``."""
    fn()
    samples = []
    for _ in range(repeats):
        calls = 0
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_batch_s:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def _stage_bytes(*stages) -> int:
    """8 bytes per element for each (elements read, elements written) stage."""
    return 8 * sum(r + w for r, w in stages)


def computed_bytes_per_row(n: int) -> dict:
    g3 = default_grid(n, 3).n_grid
    g2 = default_grid(n, 2).n_grid
    ext = 2 * (g3 + 1)
    to_grid = lambda g: ((n, g), (g, g), (g, g), (g, g))  # pad, scale, DST-I, halve
    return {
        "modes_to_grid": _stage_bytes(*to_grid(g3)),
        # grid values, odd extension, cubic Horner (3 multiply-adds), rfft,
        # sine/cosine split, projection read of the cosine part, output
        "nemytskii_modes": _stage_bytes(
            *to_grid(g3), (g3, ext), (ext, ext), (ext, ext), (ext, ext),
            (ext, ext + 2), (ext + 2, 2 * (3 * n + 1)), (3 * n + 1, n), (n, n),
        ),
        # v on the grid, derivative series on the grid, product, DST-I back
        "burgers_modes": _stage_bytes(
            *to_grid(g2), *to_grid(g2), (2 * g2, g2), (g2, g2), (g2, n),
        ),
    }


def kernel_table() -> dict:
    rng = np.random.default_rng(0)
    out = {}
    for n in N_SIMS:
        g3 = default_grid(n, 3)
        g2 = default_grid(n, 2)
        for b in BATCHES:
            x = rng.standard_normal((b, n)) / np.arange(1, n + 1)
            calls = {
                "nemytskii_modes": lambda: nemytskii_modes(x, ALLEN_CAHN, g3, OP, n),
                "burgers_modes": lambda: burgers_modes(x, g2, OP, n),
                "modes_to_grid": lambda: modes_to_grid(x, g3, OP),
            }
            for name, fn in calls.items():
                out[f"kernel.{name}.b{b}.n{n}"] = (1e6 * _per_call_s(fn), "us")
        for name, nbytes in computed_bytes_per_row(n).items():
            out[f"kernel.{name}.n{n}.bytes_per_row_computed"] = (float(nbytes), "B")
        times = 1e-4 * np.arange(1, OU_STEPS + 1)
        per_call = _per_call_s(
            lambda: simulate_ou_exact(0.1, 0.5, OP, n, times, seed=1), 0.05, 3
        )
        out[f"kernel.simulate_ou_exact.n{n}.ns_per_mode_step"] = (
            1e9 * per_call / (n * OU_STEPS), "ns")
    return out
