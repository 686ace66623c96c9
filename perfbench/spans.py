"""In-memory spans around qadic's public functions, installed at run time.

`Tracer.install` wraps, in place, every public function and method that a
qadic layer module defines (plus the active scan-kernel module's functions),
and rebinds each wrapped function wherever a qadic module imported it by
name, so `correspondence.is_fixed` and `fixed_points.is_fixed` record the
same span.  No file of the package is edited; `uninstall` restores the
originals.

A span is (name, start, end, parent span, operation id, work).  Spans live
in flat arrays while the run lasts and are written out when it ends.  Self
time is a span's duration minus the time its direct children cover (the
program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("padic_core", "cocycle", "fixed_points", "correspondence", "oracle", "suites", "cli")

# Methods other than public ones that are wrapped when a class defines them.
_DUNDERS = ("__init__", "__post_init__", "__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "__pow__")

# Work a span did, computed from its arguments or result.  Kernel scan
# steps are computed, not counted: one recurrence step per residue and
# parameter, one multiplication per unit of a returned order.
WORK = {
    "oracle.kernel.fixed_residues": lambda args, result: args[1] ** args[2],
    "oracle.kernel.pair_sweep": lambda args, result: len(args[2]) * args[0] ** args[1],
    "oracle.kernel.order_of": lambda args, result: result or args[1],
    "oracle.kernel.order_sweep": lambda args, result: sum(result),
    "suites.run_suite": lambda args, result: result.cases,
    "fixed_points.find_rooted": lambda args, result: int(result is not None),
    "correspondence.phi": lambda args, result: int(type(result).__name__ != "ExceptionalReport"),
}

# The two rooted-point searches, and the propagation step whose fixedness
# tests extend a hit rather than test a candidate.
SEARCHES = ("fixed_points.find_rooted", "correspondence.phi")
PROPAGATION = "fixed_points.propagate_rooted"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- installing ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        work = WORK.get(name)
        name_ids, parents, ops, starts, ends, works = (
            self.name_id, self.parent, self.op, self.start, self.end, self.work
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            works.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, api) -> None:
        """Wrap the layers of the imported package `api` (qadic)."""
        wrapped = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"{api.__name__}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(layer, module, obj)
        kernels = sys.modules[f"{api.__name__}.oracle"].kernels()
        for attr, obj in list(vars(kernels).items()):
            if not attr.startswith("_") and callable(obj) and not inspect.isclass(obj) and not inspect.ismodule(obj):
                self._set(kernels, attr, self._wrap(f"oracle.kernel.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != api.__name__ and not modname.startswith(api.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])

    def _install_class(self, layer: str, module, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            kind = type(obj) if isinstance(obj, (classmethod, staticmethod)) else None
            fn = obj.__func__ if kind else obj
            if not inspect.isfunction(fn) or fn.__code__.co_filename != module.__file__:
                continue
            wrapper = self._wrap(f"{layer}.{cls.__name__}.{attr}", fn)
            self._set(cls, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed work, calls
        and work not nested in a span of the same group (for kernels that
        call each other), and the calls made inside a search but outside
        the propagation step (the candidates it tested)."""
        n = len(self)
        names = self.names
        nid, parent, start, end, work = self.name_id, self.parent, self.start, self.end, self.work
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        search_ids = {self._ids[s] for s in SEARCHES if s in self._ids}
        stop_ids = search_ids | ({self._ids[PROPAGATION]} if PROPAGATION in self._ids else set())
        # context[i]: the innermost search or propagation span enclosing i
        context = array("i", [-1]) * n
        group = [name.rpartition(".")[0] for name in names]
        stats = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "outer_calls": 0, "outer_work": 0, "candidates": 0}
            for name in names
        }
        for i in range(n):
            p = parent[i]
            name_i = nid[i]
            context[i] = i if name_i in stop_ids else (context[p] if p >= 0 else -1)
            s = stats[names[name_i]]
            dur = end[i] - start[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
            s["work"] += work[i]
            if p < 0 or group[nid[p]] != group[name_i]:
                s["outer_calls"] += 1
                s["outer_work"] += work[i]
            if p >= 0 and context[p] >= 0 and nid[context[p]] in search_ids:
                s["candidates"] += 1
        return stats

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated lines, times relative to the first."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\twork\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.work[i]}\n"
                )
