import os
import subprocess
import sys
from pathlib import Path

import pytest

import spde_drift


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
