import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spde_drift
from spde_drift import mc
from spde_drift.estimate import EstimatorRequest
from spde_drift.fields import ALLEN_CAHN, FHNParams, NonlinearitySpec
from spde_drift.simulate import ModelSpec, SchemeSpec, simulate_trials
from spde_drift.spectrum import OperatorSpec

#: processes of the tests that spread trials over processes
THREADS = 2

OP = OperatorSpec()
NONE_NL = NonlinearitySpec("none")
QUADRATIC = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.5, -1.0))
SKEWED_CUBIC = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 1.0, 0.5, -1.0))
FHN = NonlinearitySpec("fhn", fhn_params=FHNParams(a=0.5, b=1.0, epsilon=0.1))


def _run_kinds():
    """(model, scheme, request) of each run kind, by name: 50 steps with
    snapshots every 7.  The 32-mode kinds evaluate their drift by tables, at
    the size where one BLAS product over all trials' rows would round
    differently from a lone run's; Allen-Cahn at 100 modes runs the odd
    stage's DSTs and the skewed cubic at 48 modes the ``fft`` stage's
    transforms.  The drift-free kinds are observed by a cubic when named
    ``drift_free_bias``, on the backend that ends their name (Euler unless
    named)."""
    scheme = SchemeSpec(dt=1e-3, t_final=0.05, seed=0, snapshot_stride=7)
    kinds = {}
    for name, nl, bias, n_sim, mode in [
        ("allen_cahn", ALLEN_CAHN, None, 32, "robust"),
        ("allen_cahn_100", ALLEN_CAHN, None, 100, "robust"),
        ("burgers", NonlinearitySpec("burgers"), None, 32, "ito_sum"),
        ("quadratic_bias", SKEWED_CUBIC, QUADRATIC, 32, "robust"),
        ("skewed_cubic", SKEWED_CUBIC, None, 32, "robust"),
        ("skewed_cubic_48", SKEWED_CUBIC, None, 48, "robust"),
    ]:
        kinds[name] = ModelSpec(OP, 0.05, 0.6, nl, (0.7071,), n_sim), scheme, EstimatorRequest(
            alpha=0.6, n_list=(4, 8, 16, 20, 32), variants=("full", "partial", "linear"),
            bias_model=bias, numerator_mode=mode,
        )
    kinds["fhn"] = (
        ModelSpec(OP, 0.02, 0.8, FHN, (0.5, 0.1), 32, initial_w_modes=(0.2,)), scheme,
        EstimatorRequest(alpha=0.8, n_list=(4, 16),
                         variants=("full", "partial1", "partial2", "linear"),
                         numerator_mode="ito_sum"),
    )
    drift_free = ModelSpec(OP, 0.05, 0.6, NONE_NL, (0.7071, -0.2), 32)
    req = EstimatorRequest(alpha=0.6, n_list=(4, 32), variants=("full", "partial", "linear"),
                           numerator_mode="ito_sum")
    for backend in ("euler", "ou_exact"):
        on_backend = replace(scheme, backend=backend)
        kinds[f"drift_free_{backend}"] = drift_free, on_backend, req
        name = "drift_free_bias" + ("" if backend == "euler" else "_" + backend)
        kinds[name] = drift_free, on_backend, replace(req, bias_model=SKEWED_CUBIC)
    return kinds


#: the run kinds that every bit-for-bit guarantee is tested on
RUN_KINDS = _run_kinds()


def observed(model, req) -> bool:
    """Whether a run's bias model is a nonlinearity, so that the bias
    integrals it accumulates are not zero."""
    return (req.bias_model or model.nonlinearity).variant != "none"


def run_on_threads(run, *args):
    """``run(*args, threads=THREADS)``, ``run`` being ``mc.run_study`` or
    ``mc.run_chunks``, with ``mc._usable_cpus`` reading THREADS, so a worker
    is forked beside the parent even on a host with fewer CPUs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_usable_cpus", lambda: THREADS)
        return run(*args, threads=THREADS)


def traced(fn, *args):
    """``fn(*args)`` under tracemalloc: its result, the peak of the traced
    bytes while it ran, and the bytes of the numpy arrays it left held."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
        arrays = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    return out, peak, sum(trace.size for trace in arrays.traces)


def run_seeds(fn, model, scheme, req, seeds):
    """``fn`` of each seed's ``SimOutput``, in seed order: ``mc.run_chunks``
    steps each chunk of seeds as one batch, which gives each trial its lone
    bits, on THREADS processes."""
    def chunk(part):
        return [fn(out) for out in simulate_trials(model, scheme, req, part)]

    return [x for part in run_on_threads(mc.run_chunks, chunk, seeds) for x in part]


#: the scipy modules that ``import spde_drift`` may list in ``sys.modules``:
#: its three compiled kernels, and no package ``__init__``
KERNEL_MODULES = {"scipy.fft._pocketfft.pypocketfft", "scipy.signal._sigtools",
                  "scipy.special._special_ufuncs"}


@pytest.fixture
def fresh_python():
    """``run(code, *args)`` runs ``python -c code args`` in a new interpreter
    that imports this checkout's spde_drift and the test modules, and returns
    its stdout; a nonzero exit fails the test with the child's stderr."""
    paths = [str(Path(spde_drift.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def run(code, *args):
        proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


def _dense_field(x, n_points, L):
    """Sample points on [0, L] and the field u of the sine modes x at them,
    with its derivative u_x."""
    xs = np.linspace(0.0, L, n_points)
    k = np.arange(1, len(x) + 1)
    c = np.asarray(x)
    u = math.sqrt(2.0 / L) * np.sin(math.pi * np.outer(xs, k) / L) @ c
    du = math.sqrt(2.0 / L) * (np.cos(math.pi * np.outer(xs, k) / L) * (k * math.pi / L)) @ c
    return xs, u, du


def _dense_modes(xs, w, n_out, L):
    """Composite-Simpson quadrature of (w, Phi_k), k = 1..n_out."""
    # imported here, so that a fresh interpreter that imports this module
    # does not pay for scipy.integrate
    from scipy.integrate import simpson

    out = np.empty(n_out)
    for kk in range(1, n_out + 1):
        phi = math.sqrt(2.0 / L) * np.sin(kk * math.pi * xs / L)
        out[kk - 1] = simpson(w * phi, x=xs)
    return out


def dense_projection(x, f, n_out, n_points=10_001, L=1.0):
    """Independent oracle: composite-Simpson quadrature of (f(u), Phi_k)."""
    xs, u, _ = _dense_field(x, n_points, L)
    return _dense_modes(xs, f(u), n_out, L)


def dense_burgers(x, n_out, n_points=10_001, L=1.0):
    """The same oracle for the transport term -u u_x."""
    xs, u, du = _dense_field(x, n_points, L)
    return _dense_modes(xs, -u * du, n_out, L)
