"""In-memory spans recorded around calls into the package's public functions.

The package itself has no timers yet, so the benchmark wraps module
attributes from outside: a wrapper replaces the attribute at the call site's
namespace (for example ``spde_drift.simulate.nemytskii_modes``) and records
one span per call.  Spans are kept in memory and written when the run ends.
Single-threaded use only; a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, run, name, start, end, meta]
        self.run_id = None
        self._stack = []
        self._patched = []

    # -- recording -----------------------------------------------------------

    def _call(self, name, meta_fn, fn, args, kwargs):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self.run_id, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
            if meta_fn is not None:
                span[6] = meta_fn(*args, **kwargs)

    def wrap(self, owner, attr, name, meta_fn=None) -> bool:
        """Replace ``owner.attr`` by a span-recording wrapper.

        Returns False (and wraps nothing) when the attribute does not exist,
        so the benchmark keeps running on versions that renamed a helper.
        """
        try:
            static = inspect.getattr_static(owner, attr)
        except AttributeError:
            return False
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        fn = static.__func__ if kind else static

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, meta_fn, fn, args, kwargs)

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patched.append((owner, attr, static))
        return True

    def unwrap_all(self):
        for owner, attr, static in reversed(self._patched):
            setattr(owner, attr, static)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def named(self, name, run=None):
        return [s for s in self.spans
                if s[3] == name and (run is None or s[2] == run)]

    def total(self, name, run=None) -> float:
        return sum(s[5] - s[4] for s in self.named(name, run))

    def self_time(self, name, run=None) -> float:
        """Summed duration of ``name`` spans minus what their direct children
        cover (children of one span never overlap: single thread)."""
        children = {}
        for s in self.spans:
            if s[1] is not None:
                children.setdefault(s[1], []).append(s)
        out = 0.0
        for s in self.named(name, run):
            covered = sum(c[5] - c[4] for c in children.get(s[0], ()))
            out += (s[5] - s[4]) - covered
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "run", "name", "start", "end", "meta"],
                       "spans": self.spans}, fh)
