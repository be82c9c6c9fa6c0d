"""In-memory span tracer that wraps the program's functions from outside.

The benchmark never edits ``src/``: it records a span around each call
into a layer by replacing the layer's function with a timing wrapper for
the length of a traced run.  A name bound elsewhere with
``from module import f`` is a separate reference to the same function
object, so :meth:`Tracer.install` rebinds *every* reference it finds in
the program's loaded modules, not just the defining one; otherwise a
caller that looks the name up in its own module would bypass the wrapper
and report a zero layer.  :meth:`Tracer.uninstall` puts every original
back, including references bound to a wrapper by modules imported while
the tracer was installed.

Spans are ``(sid, name, start, end, parent, rid, weight, pid)`` tuples
kept in memory and written out by the caller at the end.  Times come
from ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux, shared by every
process on the machine), so server and client timestamps can be joined.

A span opened on a thread-pool worker takes as its parent the span that
was innermost on the submitting thread when the work was submitted
(:meth:`Tracer.install` rebinds the program's ``ThreadPoolExecutor`` to a
subclass that carries it), so work a layer fans out to a pool is that
layer's child and not a second root.
"""

from __future__ import annotations

import importlib
import gzip
import inspect
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

#: Attribute marking a wrapper; holds the wrapped original.
WRAPPED = "__perfbench_wraps__"

SPAN_FIELDS = ("sid", "name", "start", "end", "parent", "rid", "weight", "pid")

#: The program's top-level package; only its modules are searched for
#: references to rebind.
PREFIX = "repro"


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PREFIX or name.startswith(PREFIX + "."))]


def _resolve(target: str):
    """``"pkg.mod:func"`` or ``"pkg.mod:Class.method"`` -> (owner, attr, obj)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


class Tracer:
    """Records spans from wrappers installed over the program's functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._functions: list = []  # rebound module-level originals
        self._class_patches: list[tuple] = []  # (cls, attr, original|None)

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def region(self, name: str, rid=None, weight: float = 0.0):
        """Record one span around the ``with`` body.

        ``rid`` defaults to the enclosing span's, so every span a call or
        request causes carries that call's identifier.
        """
        stack = self._stack()
        parent, parent_rid = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        rid = parent_rid if rid is None else rid
        stack.append((sid, rid))
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid, weight, os.getpid()))

    def wrap(self, name: str, fn, rid_of=None, weight_of=None):
        """A wrapper around ``fn`` recording a ``name`` span per call."""
        tracer = self

        def wrapper(*args, **kwargs):
            rid = rid_of(args, kwargs) if rid_of is not None else None
            weight = weight_of(args, kwargs) if weight_of is not None else 0.0
            with tracer.region(name, rid, weight):
                return fn(*args, **kwargs)

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def _carrying_pool(self):
        """A ``ThreadPoolExecutor`` whose tasks run under the span that
        was innermost on the submitting thread."""
        tracer = self

        class CarryingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                carried = tracer._stack()[-1:]

                def run(*a, **k):
                    stack = tracer._stack()
                    depth = len(stack)
                    stack.extend(carried)
                    try:
                        return fn(*a, **k)
                    finally:
                        del stack[depth:]

                return super().submit(run, *args, **kwargs)

        setattr(CarryingPool, WRAPPED, ThreadPoolExecutor)
        return CarryingPool

    # -- installation --------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Bind ``wrapper`` wherever the program's modules bind ``original``."""
        self._functions.append(original)
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def install(self, specs) -> None:
        """Wrap each ``(span name, target, rid_of, weight_of)`` spec.

        A module-level function is rebound in every loaded module of the
        program that holds a reference to it; a method is replaced on its
        class, which covers every subclass that inherits it.  The
        program's ``ThreadPoolExecutor`` is rebound the same way.
        """
        for name, target, rid_of, weight_of in specs:
            owner, attr, original = _resolve(target)
            if hasattr(original, WRAPPED):
                raise RuntimeError(f"{target} is already wrapped")
            wrapper = self.wrap(name, original, rid_of, weight_of)
            if inspect.isclass(owner):
                own = attr in vars(owner)
                self._class_patches.append((owner, attr, original if own else None))
                setattr(owner, attr, wrapper)
                continue
            self._rebind(original, wrapper)
        self._rebind(ThreadPoolExecutor, self._carrying_pool())

    def uninstall(self) -> None:
        """Put every original back, wherever a wrapper ended up bound."""
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                original = getattr(value, WRAPPED, None)
                if original is not None and callable(value):
                    setattr(module, key, original)
        for owner, attr, original in reversed(self._class_patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._class_patches.clear()
        self._functions.clear()

    def missed_bindings(self) -> list[str]:
        """References to a traced function that escaped the wrapper."""
        return [f"{module.__name__}.{key}"
                for module in _program_modules()
                for key, value in list(vars(module).items())
                if any(value is fn for fn in self._functions)]


def leftover_wrappers() -> list[str]:
    """Every wrapper of any tracer still bound in the program's modules or
    on the classes they define (empty when nothing is traced)."""
    found = []
    for module in _program_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, WRAPPED) and callable(value):
                found.append(f"{module.__name__}.{key}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{key}.{attr}"
                             for attr, member in vars(value).items()
                             if hasattr(member, WRAPPED))
    return found


# -- analysis --------------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[tuple, float]:
    """``(pid, sid)`` -> the span's duration minus the part of it that its
    child spans cover (children clipped to the parent's interval)."""
    children: dict[tuple, list] = {}
    for sp in spans:
        if sp[4] is not None:
            children.setdefault((sp[7], sp[4]), []).append((sp[2], sp[3]))
    out = {}
    for sp in spans:
        start, end = sp[2], sp[3]
        kids = [(max(s, start), min(e, end)) for s, e in children.get((sp[7], sp[0]), ())
                if min(e, end) > max(s, start)]
        out[(sp[7], sp[0])] = (end - start) - covered(kids)
    return out


def check_self_time() -> list[str]:
    """Self-check of :func:`self_times` on a synthetic span tree.

    Root 0..10 has children 1..4 and 3..6 (overlapping, e.g. two threads)
    and 8..9; child 1..4 has a grandchild 2..3.  Root self time is
    10 - 5 - 1 = 4; child 1..4 has 3 - 1 = 2; leaves keep their length.
    """
    spans = [
        (0, "root", 0.0, 10.0, None, 1, 0.0, 7),
        (1, "a", 1.0, 4.0, 0, 1, 0.0, 7),
        (2, "b", 3.0, 6.0, 0, 1, 0.0, 7),
        (3, "c", 8.0, 9.0, 0, 1, 0.0, 7),
        (4, "d", 2.0, 3.0, 1, 1, 0.0, 7),
        # Same sid in another process: must not be mistaken for a child.
        (5, "other", 0.5, 9.5, 0, 2, 0.0, 8),
    ]
    want = {(7, 0): 4.0, (7, 1): 2.0, (7, 2): 3.0, (7, 3): 1.0, (7, 4): 1.0, (8, 5): 9.0}
    got = self_times(spans)
    return [f"self time of span {k}: got {got.get(k)}, want {v}"
            for k, v in want.items() if abs(got.get(k, -1.0) - v) > 1e-9]


def write_spans(spans, path: str) -> None:
    """Write spans gzip-compressed, one JSON array per line; the first
    line names the fields."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps(SPAN_FIELDS) + "\n")
        for sp in spans:
            fh.write(json.dumps(sp) + "\n")


def read_spans(path: str) -> list[tuple]:
    with gzip.open(path, "rt") as fh:
        next(fh)
        return [tuple(json.loads(line)) for line in fh]
