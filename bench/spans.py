"""In-memory spans around the package's public functions.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, in the defining module and in every module of the package that
imported it by name (so ``cli`` and ``sim`` call the wrapped versions too).
A wrapper records one span: name, start, end, parent span and operation id.
Per-bit cache lookups (``exact_bit_variance``, an ``lru_cache`` object, not a
plain function) are left alone.

Spans are kept in flat arrays while the run goes on and written out once, at
the end. A call made on a worker thread of the package's thread pool takes
as parent the span the main thread is in, which is the call waiting on the
pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "channel", "source", "policy", "decoder", "sim")
SETUP_OP = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = SETUP_OP
        self.active = True  # False while the benchmark itself calls the package
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else -1)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                with tracer._lock:
                    tracer.sid.append(sid)
                    tracer.parent.append(parent)
                    tracer.name.append(name_id)
                    tracer.op.append(tracer.op_id)
                    tracer.start.append(t0)
                    tracer.end.append(t1)

        return traced

    def install(self, package: str = "dyadicsearch") -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.sid)

    @functools.cached_property
    def _parents(self) -> list[int]:
        """Index of each span's parent in the arrays, -1 for a root (read after the run)."""
        index = {sid: i for i, sid in enumerate(self.sid)}
        return [index[p] if p >= 0 else -1 for p in self.parent]

    def self_seconds(self) -> dict[str, float]:
        """Per span name, the time its spans do not hand to child spans.

        A span's self time is its duration minus the part of it that its
        child spans cover; children on pool threads may overlap, so their
        intervals are merged first.
        """
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self._parents):
            if p >= 0:
                children[p].append(i)
        out = dict.fromkeys(self.names, 0.0)
        for i in range(len(self.sid)):
            s, e = self.start[i], self.end[i]
            covered = 0.0
            kids = children.get(i)
            if kids:
                spans = sorted((max(self.start[k], s), min(self.end[k], e)) for k in kids)
                cur_s, cur_e = spans[0]
                for ks, ke in spans[1:]:
                    if ks > cur_e:
                        covered += cur_e - cur_s
                        cur_s, cur_e = ks, ke
                    elif ke > cur_e:
                        cur_e = ke
                covered += cur_e - cur_s
            out[self.names[self.name[i]]] += (e - s) - covered
        return out

    @functools.cached_property
    def _pair_seconds(self) -> dict[tuple[int, int], float]:
        # Span time by (name, parent's name); -1 stands for no parent.
        totals: dict[tuple[int, int], float] = defaultdict(float)
        for i, p in enumerate(self._parents):
            totals[self.name[i], self.name[p] if p >= 0 else -1] += self.end[i] - self.start[i]
        return totals

    def group_seconds(self, names) -> float:
        """Seconds inside calls of the named functions, nested calls counted once."""
        ids = {i for i, n in enumerate(self.names) if n in set(names)}
        return sum(v for (n, p), v in self._pair_seconds.items() if n in ids and p not in ids)

    def write(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            sid=np.frombuffer(self.sid, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop")
    best = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best.append(time.perf_counter() - t0)
    return max(0.0, (best[1] - best[0]) / calls)
