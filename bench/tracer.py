"""Outside-in tracing of the egan layers, installed from the benchmark's side.

The program is not instrumented. Instead, :class:`Tracer` replaces public
functions of the ``egan`` modules with timing wrappers, in every module
namespace that holds the original. That covers callers that reach the
function through its module (``nn.forward``) and callers that imported it by
name (``gan.decode_batch``).

Two kinds of wrapper exist:

* a *span* records one interval per call: name, start, end, parent span and
  the time spent in kernels called directly from it. Use it for call-level
  work such as ``gan.train_gan`` or ``experience.run_episode``.
* a *kernel* only adds to a (calls, total seconds) counter. Use it for
  functions called hundreds of thousands of times, such as ``cartpole.step``.

Kernels must not call spans: a span's self time is its duration minus its
child spans and the kernels it called directly, so a span nested in a kernel
would be subtracted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    kernel_s: float = 0.0  # time in kernels called directly from this span
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus child spans minus directly called kernels."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - children.get(s.id, 0.0) - s.kernel_s for s in spans}


class Tracer:
    """Holds spans and kernel counters in memory until the run ends."""

    def __init__(self, package: str = "egan", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[Span] = []
        self.kernels: dict[str, list] = {}  # name -> [calls, total seconds]
        self.missing: list[str] = []  # wrap targets that do not exist
        self._stack: list[list] = []  # open frames: [span id or None, kernel_s]
        self._next_id = 0
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    # installation

    def span(self, module: str, attr: str, info=None) -> bool:
        """Wrap module.attr as a span; info(args, kwargs, result) -> dict."""
        return self._install(module, attr, lambda fn: self._span_wrapper(
            f"{module}.{attr}", fn, info))

    def kernel(self, module: str, attr: str, key=None) -> bool:
        """Wrap module.attr as a counted kernel; key(name, args) -> counter name."""
        return self._install(module, attr, lambda fn: self._kernel_wrapper(
            f"{module}.{attr}", fn, key))

    def hook(self, module: str, attr: str, make_wrapper) -> bool:
        """Install an arbitrary wrapper, make_wrapper(original) -> callable."""
        return self._install(module, attr, make_wrapper)

    def _install(self, module: str, attr: str, make_wrapper) -> bool:
        full = f"{self.package}.{module}"
        mod = sys.modules.get(full)
        original = getattr(mod, attr, None) if mod is not None else None
        if not callable(original):
            self.missing.append(f"{module}.{attr}")
            return False
        wrapper = make_wrapper(original)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, original))
        return True

    def uninstall(self) -> None:
        for m, key, original in reversed(self._undo):
            setattr(m, key, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # wrappers

    def _span_wrapper(self, name, fn, info):
        stack, spans, clock = self._stack, self.spans, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = {}
            if info is not None:
                try:
                    extra = info(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    extra = {}
            spans.append(Span(span_id, name, start, end, parent, frame[1], extra))
            return result

        return wrapper

    def _kernel_wrapper(self, name, fn, key):
        stack, kernels, clock = self._stack, self.kernels, self.clock
        kernel_frame = [None, 0.0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack[-1] if stack else None
            stack.append(kernel_frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                counter_name = name if key is None else key(name, args)
                acc = kernels.get(counter_name)
                if acc is None:
                    acc = kernels[counter_name] = [0, 0.0]
                acc[0] += 1
                acc[1] += dt
                if outer is not None and outer[0] is not None:
                    outer[1] += dt

        return wrapper

    # ------------------------------------------------------------------
    # queries

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return float(sum(s.duration for s in self.named(name)))
