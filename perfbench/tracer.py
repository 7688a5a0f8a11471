"""Span tracer that instruments sipspectra from outside.

Every traced layer is a public function (or a numerical kernel as one module
calls it).  ``layers.install`` swaps each one for a thin wrapper through
``Tracer.patch``, reassigning module and class attributes, including every
other ``sipspectra`` module that imported the same function by name;
``Tracer.restore`` puts every original object back.  Nothing is patched
unless ``install`` runs, so untraced runs execute the library unmodified.

Spans are (name, start, end, parent) rows kept in compact arrays while the
run is in flight and written out by ``Tracer.dump`` at the end.  A span's
self time is its duration minus the time covered by its direct children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT_SPAN = -1


class _ModuleProxy:
    """Forwards attribute access to a module, except for a few overrides.

    Used to wrap ``scipy.sparse.linalg.splu`` and ``numpy.linalg.eigvalsh``
    only as one module sees them, without touching the shared modules.
    """

    def __init__(self, module, overrides: dict):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        try:
            return self._overrides[name]
        except KeyError:
            return getattr(self._module, name)


class _CountingFactor:
    """Sparse LU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        return self._tracer.call("spectral.solve", self._lu.solve, (rhs, *args), kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}
        self._interned: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else ROOT_SPAN)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.end[idx] = self.clock()
            self._stack.pop()

    def span(self, name: str, fn, observe=None):
        """Wrapper recording a span per call and passing results to ``observe``."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrapper that only counts calls; for kernels called too often to span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def outermost(self) -> int:
        """Index of the outermost open span, such as the running request; -1 if none."""
        return self._stack[0] if self._stack else ROOT_SPAN

    def add_key(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def intern(self, value) -> int:
        """Small integer standing for ``value``; equal values get equal numbers."""
        return self._interned.setdefault(value, len(self._interned))

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, package: str, original, replacement) -> None:
        """Replace ``original`` in every loaded module of ``package`` that binds it."""
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: number of calls, total inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p != ROOT_SPAN:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += dur
            t["self_s"] += dur - child[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        want = self._ids.get(name)
        anc = self._ids.get(ancestor)
        if want is None or anc is None:
            return 0
        hits = 0
        for i in range(len(self.start)):
            if self.name_id[i] != want:
                continue
            p = self.parent[i]
            while p != ROOT_SPAN:
                if self.name_id[p] == anc:
                    hits += 1
                    break
                p = self.parent[p]
        return hits

    def max_children(self, name: str, parent: str) -> int:
        """Most ``name`` spans directly under any one ``parent`` span."""
        want, par = self._ids.get(name), self._ids.get(parent)
        per_parent: Counter = Counter()
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name_id[i] == want and p != ROOT_SPAN and self.name_id[p] == par:
                per_parent[p] += 1
        return max(per_parent.values(), default=0)

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent]`` rows, gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "counts": dict(self.counts),
                                 "columns": ["name", "start_s", "end_s", "parent"]})
                     + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name_id[i]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]}]\n")
