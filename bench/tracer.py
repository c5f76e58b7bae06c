"""Span tracer for the library, installed by replacing module attributes.

Every module-level function of the traced package is wrapped, and every
module attribute bound to the original function object is pointed at the
wrapper, so calls through `from .x import f` bindings are traced too.  A
span records its name, start, end, parent span and the id of the
benchmark call it belongs to.  Spans stay in memory (packed arrays) until
the run ends.  Self time is a span's duration minus the durations of its
child spans; spans of one thread nest, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array

#: leaf helpers called thousands of times per library call; their cost is
#: left in the caller's self time so that tracing overhead stays small
UNTRACED = frozenset({
    "gn_estimator._ln_quotient_stretched",
    "gn_estimator._ln_quotient_rational",
    "gn_estimator._ln_beta",
    "gn_estimator._rational_k_floor",
    "manifold_minimizer._raw_terms",
})


class Tracer:
    """Collects nested spans of wrapped library functions and benchmark calls."""

    def __init__(self, hooks: dict | None = None, clock=time.perf_counter):
        self.clock = clock
        #: name -> hook(tracer, span index, function, args, kwargs, return value)
        self.hooks = hooks or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __len__(self) -> int:
        return len(self.name)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, call_id: int | None = None):
        """Span around a block of benchmark code; call_id starts a new call."""
        if call_id is not None:
            self.call_id = call_id
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        open_, close = self._open, self._close
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                value = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(self, idx, fn, args, kwargs, value)
            return value

        return traced

    def install(self, package: str = "lpentropy") -> None:
        """Wrap every function defined in the package's loaded modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and f"{short}.{attr}" not in UNTRACED):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, fh) -> None:
        """Write all spans to a text file as JSON columns; times in microseconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        doc = {
            "names": self.names,
            "name": list(self.name),
            "start_us": [round((s - t0) * 1e6, 1) for s in self.start],
            "end_us": [round((e - t0) * 1e6, 1) for e in self.end],
            "parent": list(self.parent),
            "call": list(self.call),
        }
        json.dump(doc, fh, separators=(",", ":"))
