"""The host's speed, sampled on a fixed reference workload during a run.

The shared host this benchmark was tuned on runs the same Python code up to
1.6x slower or faster for stretches of seconds to an hour (see README.md,
*Host noise*), so a time measured in one run is not comparable with one
measured a few minutes later.  A :class:`HostSpeed` interrupts the run every
``INTERVAL`` seconds (``SIGALRM``) and times one round of a fixed reference
workload: a small pure-Python relational join written the way the program's
logic layer is (frozen slotted dataclasses as terms, dict bindings,
generator backtracking), but kept apart from the program, so that it does
not change when the program does.

Times taken with :meth:`HostSpeed.now` leave out the rounds.  A time
divided by the mean round time over the same stretch and multiplied by
``REFERENCE_S`` is that time at a fixed reference speed: it follows the
program's own speed and cancels most of the host's.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL = 0.01  # seconds between rounds
REFERENCE_S = 0.0005  # the round time the scaled times are expressed at
HEADS = 4  # head bindings a round proves the clause for: about 0.6 ms


@dataclass(frozen=True, slots=True)
class _Term:
    name: str
    variable: bool = False


@dataclass(frozen=True, slots=True)
class _Atom:
    predicate: str
    args: tuple


def _knowledge_base():
    """About 1000 facts, indexed by (predicate, argument position, constant)."""
    rng = random.Random(5)
    person = [_Term(f"p{i}") for i in range(150)]
    movie = [_Term(f"m{i}") for i in range(120)]
    facts = {_Atom("actedin", (rng.choice(person), rng.choice(movie))) for _ in range(900)}
    facts |= {_Atom("directedby", (m, rng.choice(person))) for m in movie}
    index: dict[tuple, list] = {}
    for fact in sorted(facts, key=lambda f: (f.predicate, [t.name for t in f.args])):
        for position, term in enumerate(fact.args):
            index.setdefault((fact.predicate, position, term), []).append(fact)
        index.setdefault((fact.predicate, None, None), []).append(fact)
    return index, person


def _matches(index, atom: _Atom, binding: dict):
    """Bindings that extend ``binding`` so that ``atom`` is a fact."""
    key = (atom.predicate, None, None)
    for position, term in enumerate(atom.args):
        term = binding.get(term, term)
        if not term.variable:
            key = (atom.predicate, position, term)
            break
    for fact in index.get(key, ()):
        extended = dict(binding)
        for term, value in zip(atom.args, fact.args):
            bound = extended.get(term, term)
            if bound.variable:
                extended[term] = value
            elif bound != value:
                break
        else:
            yield extended


def _count(index, body: tuple, binding: dict) -> int:
    if not body:
        return 1
    return sum(_count(index, body[1:], b) for b in _matches(index, body[0], binding))


_A, _B, _M, _D = (_Term(name, True) for name in "ABMD")
_BODY = (
    _Atom("actedin", (_A, _M)),
    _Atom("directedby", (_M, _D)),
    _Atom("actedin", (_B, _M)),
)


class Reference:
    """One round: count the groundings of a three-literal clause for a few
    head bindings.  The same work on every call."""

    def __init__(self):
        self.index, person = _knowledge_base()
        self.heads = [{_A: p} for p in person[:HEADS]]
        self.expected = self.run()

    def run(self) -> int:
        return sum(_count(self.index, _BODY, head) for head in self.heads)


class HostSpeed:
    """Samples the reference while active; use as a context manager.

    Not reentrant and main-thread only, as signal handlers are.
    """

    def __init__(self):
        self.reference = Reference()
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in rounds, left out of now()
        self.wrong = 0  # rounds whose count differed: a broken reference
        self._previous = None

    def _round(self, signum, frame) -> None:
        start = time.perf_counter()
        # A collection here would time the program's garbage, not the host.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            count = self.reference.run()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.wrong += count != self.reference.expected
        self.spent += time.perf_counter() - start

    def now(self) -> float:
        """A clock in seconds that stops while a round runs."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int = 0) -> float:
        """Factor from seconds measured since ``mark()`` returned ``since``
        to seconds at the reference speed; the whole run's when that stretch
        holds no round."""
        window = self.samples[since:] or self.samples
        if not window:
            raise RuntimeError("no reference round was timed")
        return REFERENCE_S / statistics.fmean(window)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._round)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
