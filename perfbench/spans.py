"""Timing spans around the package's public functions, installed from outside.

`Tracer.install` replaces every public module-level function of the package
with a timing wrapper at each place the program looks the name up: in the
module that defines it and in every module that imported it by name (for
example `tuning.fit_learner` and `experiment.fit_learner` are both
`learners.fit_learner`).  Each call appends one span (name, start, end,
parent) to flat arrays; aggregation happens once, after the run.

Generator functions (`training.batches`) are left alone: a wrapper would
time only the creation of the generator.  Methods of classes are not
wrapped either; their time shows as self time of the calling function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Spans of wrapped calls plus per-function hooks that read results."""

    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # 1 when no span of the same function (outer_fn) or of the same module
        # (outer_mod) is open around this one, so busy time is not counted twice.
        self.outer_fn = array("b")
        self.outer_mod = array("b")
        self._stack: list[int] = []
        self._module_depth: dict[str, int] = {}
        self._wrappers: dict[int, object] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.hooks: dict[str, object] = {}

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _short(self, module_name: str) -> str:
        return module_name[len(self.package) + 1 :] or module_name

    def install(self) -> None:
        """Wrap every public package function wherever a module binds it."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                if not self._traceable(attr, obj):
                    continue
                wrapper = self._wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = self._wrap(obj)
                    self._wrappers[id(obj)] = wrapper
                setattr(module, attr, wrapper)
                self._installed.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _traceable(self, attr: str, obj) -> bool:
        return (
            not attr.startswith("_")
            and inspect.isfunction(obj)
            and not inspect.isgeneratorfunction(obj)
            and getattr(obj, "__module__", "").startswith(self.package + ".")
        )

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn):
        module = self._short(fn.__module__)
        name = f"{module}.{fn.__name__}"
        self.originals[name] = fn
        nid = self._id(name)
        self._module_depth.setdefault(module, 0)
        module_depth = self._module_depth
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        outer_fn, outer_mod = self.outer_fn, self.outer_mod
        hooks = self.hooks
        depth = [0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer_fn.append(depth[0] == 0)
            outer_mod.append(module_depth[module] == 0)
            start.append(0.0)
            end.append(0.0)
            depth[0] += 1
            module_depth[module] += 1
            stack.append(index)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                depth[0] -= 1
                module_depth[module] -= 1
                start[index] = began
                end[index] = ended
            hook = hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result, ended - began)
            return result

        return wrapper

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "outer_fn": np.frombuffer(self.outer_fn, dtype=np.int8).copy(),
            "outer_mod": np.frombuffer(self.outer_mod, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        """Write every span and the name table to one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def aggregate(names: list[str], spans: dict) -> dict:
    """Per function and per module: calls, busy seconds and self seconds.

    Busy time sums the spans that no span of the same function (for a
    function) or of the same module (for a module) encloses.  Self time is a
    span's duration minus the durations of its direct children.
    """
    ids, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.shape[0]
    )
    self_time = duration - child_time
    k = len(names)
    calls = np.bincount(ids, minlength=k)
    busy = np.bincount(ids, weights=duration * spans["outer_fn"], minlength=k)
    own = np.bincount(ids, weights=self_time, minlength=k)
    busy_mod = np.bincount(ids, weights=duration * spans["outer_mod"], minlength=k)

    functions = {
        name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
        for i, name in enumerate(names)
    }
    modules: dict[str, dict] = {}
    for i, name in enumerate(names):
        entry = modules.setdefault(
            name.split(".", 1)[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += int(calls[i])
        entry["busy_s"] += float(busy_mod[i])
        entry["self_s"] += float(own[i])
    return {"functions": functions, "modules": modules}
