"""A span tracer that wraps the program's entry points from outside.

The traced run never edits ``src/``: it replaces the public entry points
of each ``repro.*`` module with timing wrappers while a traced op runs,
and puts the originals back afterwards.

Binding sites matter. A function imported by name (``from
repro.crypto.ecdsa import verify``) is a separate reference in the
importing module, so wrapping only its home module would miss every call
made through that name. :meth:`Tracer.install` therefore rebinds every
global of every loaded ``repro`` module that *is* the original function,
and wraps a method on its defining class and on every subclass that
overrides it. Bound methods captured before the install (an orderer's
committer list holding ``peer.commit_block``) are rebound through
:meth:`Tracer.rebind_bound_methods`.

Each span records its name, layer, start, end, parent and the op's trace
id; spans stay in memory until the run ends. The serving side of a TCP
round trip runs on another thread; because the benchmark is a single
closed-loop client, a span opening on a thread with an empty stack is a
child of the innermost still-open network round trip (or of the op's
root span when none is open).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    """One timed call. ``attrs`` carries counts measured at the boundary."""

    span_id: int
    parent_id: int | None
    trace_id: str
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> dict:
        """A record shaped like an OTLP span (ids as decimal strings)."""
        return {
            "traceId": self.trace_id,
            "spanId": str(self.span_id),
            "parentSpanId": "" if self.parent_id is None else str(self.parent_id),
            "name": self.name,
            "layer": self.layer,
            "startTimeNs": self.start_ns,
            "endTimeNs": self.end_ns,
            "status": self.status,
            "attributes": self.attrs,
        }


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``qualname`` is ``"function"`` or ``"Class.method"``; ``attrs`` maps
    ``(args, kwargs, result)`` to counts stored on the span; ``remote``
    marks a client-side network round trip whose serving span, on
    another thread, becomes its child.
    """

    module: str
    qualname: str
    name: str
    layer: str
    attrs: Callable | None = None
    remote: bool = False


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Overlapping children (concurrent work) are counted once, and child
    time outside the parent's interval is clipped away.
    """
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if min(end, e) > max(start, s)
    )
    total = 0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Each span's duration minus the time its child spans cover (ns)."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start_ns, span.end_ns))
    return {
        span.span_id: span.duration_ns
        - covered_ns(span.start_ns, span.end_ns, children.get(span.span_id, ()))
        for span in spans
    }


class Tracer:
    """Records spans for the ops run between :meth:`install` and
    :meth:`uninstall`; see the module docstring for parent linking."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.binding_sites: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._remote_open: list[int] = []
        self._remote_lock = threading.Lock()
        self._root: Span | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped_methods: dict[object, object] = {}

    # -- span recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent_for(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        with self._remote_lock:
            if self._remote_open:
                return self._remote_open[-1]
        return self._root.span_id if self._root is not None else None

    def begin_op(self, trace_id: str) -> None:
        """Open the root span of one op on the calling thread."""
        self._root = Span(next(self._ids), None, trace_id, "op", "trace", time.perf_counter_ns())
        self._stack().append(self._root.span_id)

    def end_op(self, status: str = "ok") -> Span:
        """Close the root span opened by :meth:`begin_op` and return it."""
        root = self._root
        root.end_ns = time.perf_counter_ns()
        root.status = status
        self._stack().pop()
        self.spans.append(root)
        self._root = None
        return root

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        attrs_of = target.attrs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            root = tracer._root
            if root is None:  # a call outside any op (e.g. a stray thread)
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(next(tracer._ids), tracer._parent_for(stack), root.trace_id,
                        target.name, target.layer, 0)
            stack.append(span.span_id)
            if target.remote:
                with tracer._remote_lock:
                    tracer._remote_open.append(span.span_id)
            result = None
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.status = "error"
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                if target.remote:
                    with tracer._remote_lock:
                        tracer._remote_open.remove(span.span_id)
                if attrs_of is not None:
                    span.attrs = attrs_of(args, kwargs, result)
                tracer.spans.append(span)

        traced.__wrapped_by_perfbench__ = fn
        return traced

    # -- installing wrappers ----------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target at its home and at every binding site."""
        self.binding_sites = []
        functions: dict[int, tuple[object, Callable]] = {}
        homes = []
        for target in targets:
            module = importlib.import_module(target.module)
            if "." not in target.qualname:
                original = getattr(module, target.qualname)
                functions[id(original)] = (original, self._wrap(original, target))
                homes.append(module)
                continue
            class_name, method = target.qualname.split(".", 1)
            self._wrap_class_tree(getattr(module, class_name), method, target)
        self._rebind_functions(functions, homes)

    def _rebind_functions(self, functions: dict[int, tuple[object, Callable]], homes: list) -> None:
        sites = {
            id(module): module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        }
        # Home modules outside the package (``os`` for ``os.fsync``).
        sites.update((id(module), module) for module in homes)
        for module in sites.values():
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is None:
                    continue
                self._patch(module, attr, entry[1])
                self.binding_sites.append(f"{module.__name__}.{attr}")

    def _wrap_class_tree(self, cls: type, method: str, target: Target) -> None:
        pending = [cls]
        visited: set[type] = set()
        wrapped_any = False
        while pending:
            klass = pending.pop()
            if klass in visited:
                continue
            visited.add(klass)
            pending.extend(klass.__subclasses__())
            raw = klass.__dict__.get(method)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapper = self._wrap(raw, target)
                self._wrapped_methods[raw] = wrapper
            self._patch(klass, method, wrapper)
            self.binding_sites.append(f"{klass.__module__}.{klass.__qualname__}.{method}")
            wrapped_any = True
        if not wrapped_any:
            raise AttributeError(f"no concrete {cls.__name__}.{method} to trace")

    def rebind_bound_methods(self, holder: list) -> None:
        """Swap bound methods of wrapped methods inside a list the program
        captured before :meth:`install` (restored by :meth:`uninstall`)."""
        for index, item in enumerate(holder):
            wrapper = self._wrapped_methods.get(getattr(item, "__func__", None))
            if wrapper is not None:
                holder[index] = types.MethodType(wrapper, item.__self__)
                self._patches.append((holder, index, item))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, list):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._wrapped_methods.clear()

    def write(self, path) -> None:
        """Write every recorded span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
