"""Outside-in span tracer for the hypercut package.

The tracer wraps the public functions of each hypercut module from the
outside: every module namespace that bound a function gets the same wrapper
(``cli`` binds names from ``core``, ``ensemble`` and ``formats``; ``oracle``
binds ``enumerate_all`` and ``sample_with_rng``), and ``CutsizeTable.validate``
is wrapped on its class.  Nothing in the package is edited, and the wrappers
exist only inside ``Tracer.installed()``; the originals are put back when the
block ends, so an untraced pass runs the package exactly as shipped.

A span is one call (or, for the generator ``enumerate_all``, one ``next``).
Spans are kept in memory as flat arrays and written as JSON lines on request.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from array import array

MODULES = ("cli", "exact_distribution", "asymptotics", "core", "oracle",
           "ensemble", "formats")

#: Span name of the class-level wrapper on ``CutsizeTable.validate``.
VALIDATE = "exact_distribution.CutsizeTable.validate"


class Tracer:
    """Records spans of hypercut calls while installed.

    ``hooks`` maps a span name to ``hook(args, kwargs, result) -> dict`` of
    extra attributes, run after the span has closed.  A value in that dict
    that is callable is resolved later by ``finalize()``, which the harness
    calls between jobs, so that costly attributes stay out of every span.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.error: dict[int, str] = {}
        self.extra: dict[int, dict] = {}
        self._stack: list[int] = []
        self._deferred: list[int] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.end[idx] = end
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += end - self.start[idx]

    def wrap(self, fn, name: str):
        """Return a span-recording wrapper around ``fn``."""
        nid = self._intern(name)
        hook = self.hooks.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid, hook)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                self.error[idx] = type(exc).__name__
                raise
            self._close(idx)
            if hook is not None:
                self._attach(idx, hook(args, kwargs, result))
            return result

        return wrapper

    def _wrap_generator(self, fn, nid: int, hook):
        # Calling a generator function runs none of its body, so the span
        # is each ``next``: one span per yielded item, plus the final one
        # that finds the generator exhausted (marked ``stop``).
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def traced():
                try:
                    while True:
                        idx = self._open(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            self._close(idx)
                            self.extra[idx] = {"stop": True}
                            return
                        except BaseException as exc:
                            self._close(idx)
                            self.error[idx] = type(exc).__name__
                            raise
                        self._close(idx)
                        if hook is not None:
                            self._attach(idx, hook(args, kwargs, item))
                        yield item
                finally:
                    inner.close()

            return traced()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public hypercut function for the duration of the block."""
        import hypercut
        from hypercut.exact_distribution import CutsizeTable

        modules = [importlib.import_module(f"hypercut.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        saved: list[tuple[object, str, object]] = []
        for ns in modules + [hypercut]:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.split(".")
                if home[0] != "hypercut" or home[-1] not in MODULES:
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = self.wrap(obj, f"{home[-1]}.{obj.__name__}")
                    wrappers[id(obj)] = wrapper
                saved.append((ns, attr, obj))
                setattr(ns, attr, wrapper)
        original_validate = CutsizeTable.validate
        CutsizeTable.validate = self.wrap(original_validate, VALIDATE)
        try:
            yield self
        finally:
            CutsizeTable.validate = original_validate
            for ns, attr, obj in reversed(saved):
                setattr(ns, attr, obj)

    def _attach(self, idx: int, attrs: dict) -> None:
        self.extra[idx] = attrs
        if any(callable(v) for v in attrs.values()):
            self._deferred.append(idx)

    def finalize(self) -> None:
        """Resolve deferred attributes produced by hooks."""
        for idx in self._deferred:
            attrs = self.extra[idx]
            for key, value in attrs.items():
                if callable(value):
                    attrs[key] = value()
        self._deferred.clear()

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def self_time(self, idx: int) -> float:
        return self.end[idx] - self.start[idx] - self.child[idx]

    def write_jsonl(self, fh, **header) -> None:
        """Write a header object, then one JSON array per span.

        The header names the array fields and lists the span names that
        ``name_index`` points into; times are integer nanoseconds from the
        first span's start, and ``extra`` holds the span's error and hook
        attributes, if any.
        """
        origin = self.start[0] if len(self) else 0.0
        fields = ["id", "parent", "name_index", "start_ns", "end_ns", "self_ns",
                  "extra"]
        fh.write(json.dumps(dict(header, fields=fields, names=self.names)) + "\n")
        for idx in range(len(self)):
            extra = dict(self.extra.get(idx, ()))
            if idx in self.error:
                extra["error"] = self.error[idx]
            fh.write(f"[{idx},{self.parent[idx]},{self.name_id[idx]},"
                     f"{round((self.start[idx] - origin) * 1e9)},"
                     f"{round((self.end[idx] - origin) * 1e9)},"
                     f"{round(self.self_time(idx) * 1e9)}"
                     + (f",{json.dumps(extra)}]\n" if extra else "]\n"))
