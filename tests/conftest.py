import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spde_drift
from spde_drift import mc
from spde_drift.simulate import simulate_trials

#: processes of the tests that spread trials over processes
THREADS = 2


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
