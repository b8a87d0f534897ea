"""Every package name the benchmark scripts use exists.

The scripts under ``perfbench/`` are read with ``ast``, never imported, so a
name dropped from ``spde_drift`` fails here instead of crashing a benchmark
run.  Checked: each ``import spde_drift...`` and ``from spde_drift...
import name`` (a submodule counts), and each attribute read on a name bound
to a package module, such as ``cli.simulate_model``.  Strings that name
attributes are not checked.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = "spde_drift"


def _lookup(dotted: str):
    """The object a dotted package name refers to, importing submodules on
    the way; AttributeError or ImportError when it does not exist."""
    root, *parts = dotted.split(".")
    obj = importlib.import_module(root)
    for part in parts:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif hasattr(obj, "__path__"):  # a package: part may be a submodule
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            raise AttributeError(f"{getattr(obj, '__name__', obj)!r} has no attribute {part!r}")
    return obj


def _used_names(tree):
    """Yield (line, dotted name) for each package name the module uses."""
    bound = {}  # local name -> the package module it is bound to
    for node in ast.walk(tree):
        # (local name, what it is bound to, the name the statement uses)
        if isinstance(node, ast.Import):
            pairs = [(a.asname, a.name, a.name) if a.asname
                     else (a.name.split(".")[0], a.name.split(".")[0], a.name)
                     for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            pairs = [(a.asname or a.name, f"{node.module}.{a.name}", f"{node.module}.{a.name}")
                     for a in node.names]
        else:
            continue
        for local, target, used in pairs:
            if used.split(".")[0] != PACKAGE:
                continue
            yield node.lineno, used
            try:
                if inspect.ismodule(_lookup(target)):
                    bound[local] = target
            except (AttributeError, ImportError):
                pass  # reported through its import
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        attrs, root = [], node
        while isinstance(root, ast.Attribute):
            attrs.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in bound:
            yield node.lineno, ".".join([bound[root.id]] + attrs[::-1])


def test_benchmark_scripts_use_only_existing_package_names():
    scripts = sorted(PERFBENCH.glob("*.py"))
    assert scripts
    checked, missing = set(), []
    for path in scripts:
        for line, name in _used_names(ast.parse(path.read_text(), filename=str(path))):
            checked.add(name)
            try:
                _lookup(name)
            except (AttributeError, ImportError) as exc:
                missing.append(f"{path.name}:{line}: {name} ({exc})")
    assert not missing, "\n".join(missing)
    # the walk reaches the names the harness calls, so the check is not vacuous
    assert {"spde_drift.cli.simulate_model", "spde_drift.estimate.decompose",
            "spde_drift.modes_to_grid", "spde_drift.config.load_config"} <= checked
