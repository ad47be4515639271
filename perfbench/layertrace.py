"""Per-layer span timing for the stargen package, applied from outside it.

``Tracer.install`` replaces each traced function, at every attribute of a
``stargen`` module that binds it, with a wrapper that records one span per
call.  Modules that import a function by name (``classify`` imports
``sources``) and modules that reach it through a module attribute
(``verify`` calls ``_digraph.compose``) both see the wrapper.  A
generator function gets one span per ``next()``.

A span's self time is its duration minus the time covered by the spans
that ran inside it.  Spans are aggregated per name as they close (call
count, summed self time, items yielded), so memory stays constant over
the millions of calls an exhaustive scan makes.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> public functions traced there; names follow "<module>.<function>"
TRACED = {
    "generate": ("all_digraphs",),
    "digraph": (
        "compose",
        "m_step_digraph",
        "sources",
        "weak_components",
        "induced_subdigraph",
    ),
    "competition": (
        "competition_graph",
        "is_triangle_free",
        "components",
        "star_decomposition",
    ),
    "classify": (
        "classify_star_generating",
        "classify_components",
        "is_disjoint_cycle_union",
        "check_no_common_prey_functional",
    ),
    "verify": ("verify_claims", "write_report_lines"),
    "cli": ("run",),
}
GENERATORS = {"generate.all_digraphs"}
# ClaimContext method -> span name; __init__ calls count contexts created
CONTEXT_METHODS = {"__init__": "init", "graph": "graph", "power": "power"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.items: dict[str, int] = {}
        self._clock = clock
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._undo: list[tuple[object, str, object]] = []

    def _close(self, name: str, frame: list[float], elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed

    def wrap(self, name: str, fn):
        stack, clock, close = self._stack, self._clock, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, clock() - start)

        return traced

    def wrap_generator(self, name: str, fn):
        stack, clock, close, items = self._stack, self._clock, self._close, self.items
        items.setdefault(name, 0)

        def timed(it):
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(name, frame, clock() - start)
                items[name] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return traced

    def install(self, package: str = "stargen") -> None:
        """Wrap every traced function of ``package`` at all its bindings."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"{package}.{module_name}"]
            for fname in functions:
                name = f"{module_name}.{fname}"
                original = getattr(home, fname)
                make = self.wrap_generator if name in GENERATORS else self.wrap
                wrapper = make(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        context = sys.modules[f"{package}.verify"].ClaimContext
        for method, label in CONTEXT_METHODS.items():
            wrapper = self.wrap(f"verify.ClaimContext.{label}", vars(context)[method])
            self._set(context, method, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
