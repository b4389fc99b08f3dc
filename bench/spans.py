"""Timing spans and counters recorded from outside the program.

A :class:`Tracer` replaces module attributes with wrappers that open a span
around each call and restores the originals afterwards.  A span's self time
is its duration minus the part of that interval its direct child spans
cover; ``total`` sums only the outermost span of each name, so a function
that is reached through two import sites is not counted twice.

Run ``python3 bench/spans.py`` to check the self-time arithmetic on a
synthetic nested call tree.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("name", "start", "child", "fell_back")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0  # seconds covered by direct child spans
        self.fell_back = False


class Tracer:
    """Spans and counters of one traced pass; not thread-safe."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self.stack.append(frame)
        self._depth[name] += 1
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = self.clock() - frame.start
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        self._depth[frame.name] -= 1
        self.calls[frame.name] += 1
        self.self_time[frame.name] += duration - frame.child
        if self._depth[frame.name] == 0:
            self.total[frame.name] += duration
        if self.stack:
            self.stack[-1].child += duration

    def inside(self, name: str) -> bool:
        return self._depth[name] > 0

    def nearest(self, name: str):
        for frame in reversed(self.stack):
            if frame.name == name:
                return frame
        return None

    def reset(self) -> None:
        """Clear the recorded numbers; wrappers stay in place."""
        if self.stack:
            raise RuntimeError("cannot reset inside an open span")
        for table in (self.calls, self.total, self.self_time, self.counters, self.keys, self._depth):
            table.clear()

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr: str, span: str, before=None, after=None) -> bool:
        """Replace ``owner.attr`` by a spanned wrapper; False when it is absent.

        ``before(args, kwargs)`` returns the (args, kwargs) to call with and a
        state that ``after(state, result, frame)`` receives once the call
        returns; ``frame`` is the closed span.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            self.absent.append(label)
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            frame = tracer.enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(state, result, frame)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return True

    def restore(self) -> None:
        """Put every original attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)


def param_index(func, name: str):
    """Position of parameter ``name`` in ``func``'s signature, or None."""
    target = getattr(func, "__wrapped__", func)
    try:
        params = list(inspect.signature(target).parameters)
    except (TypeError, ValueError):
        return None
    return params.index(name) if name in params else None


def argument(args, kwargs, index, name):
    """The argument passed for parameter ``name`` at ``index``, or None."""
    if name in kwargs:
        return kwargs[name]
    if index is not None and index < len(args):
        return args[index]
    return None


def self_test() -> list[str]:
    """Check self and total time on a synthetic nested call tree.

    The tree, on a clock that advances one unit per call of ``tick``::

        a [0, 10]
          b [1, 4]
            c [2, 3]
          b [5, 8]
            b [6, 7]
        a2 [10, 11]

    Expected self times: a = 10 - 3 - 3 = 4, b = 2 + (3 - 1) + 1 = 5,
    c = 1; the inner ``b`` must not add to the outermost total of 6.
    """
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(units=1.0):
        now[0] += units

    a = tracer.enter("a")
    tick()
    b = tracer.enter("b")
    tick()
    c = tracer.enter("c")
    tick()
    tracer.exit(c)
    tick()
    tracer.exit(b)
    tick()
    b = tracer.enter("b")
    tick()
    inner = tracer.enter("b")  # recursion: counted as a call, not in total
    tick()
    tracer.exit(inner)
    tick()
    tracer.exit(b)
    tick(2)
    tracer.exit(a)
    a2 = tracer.enter("a2")
    tick()
    tracer.exit(a2)

    expected = {
        ("calls", "a"): 1,
        ("calls", "b"): 3,
        ("calls", "c"): 1,
        ("self", "a"): 4.0,
        ("self", "b"): 5.0,
        ("self", "c"): 1.0,
        ("self", "a2"): 1.0,
        ("total", "a"): 10.0,
        ("total", "b"): 6.0,
        ("total", "c"): 1.0,
    }
    tables = {"calls": tracer.calls, "self": tracer.self_time, "total": tracer.total}
    errors = []
    for (table, name), want in expected.items():
        got = tables[table][name]
        if got != want:
            errors.append(f"{table}[{name}] = {got}, expected {want}")
    if tracer.stack:
        errors.append("span stack not empty")
    return errors


if __name__ == "__main__":
    problems = self_test()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("self-time arithmetic:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
