"""In-memory span tracing of the engine's layers, from outside ``src/``.

The benchmark never edits the program to measure it.  Instead a
:class:`Patcher` rebinds public functions and methods of each ``repro.*``
layer to thin wrappers, and removes them again afterwards:

* a module-level function is rebound in its owner module (which may be
  outside ``repro``: ``numpy.linalg`` for ``eigh``/``qr``) and in *every*
  loaded ``repro`` module that holds it (``from x import f`` copies the
  binding, so patching the owner alone would miss those callers);
* a method is rebound on its class.

Each wrapper records one span — name, start, end, parent span, and the id
of the operation (MD step) it belongs to — into a :class:`SpanLog` kept in
memory and written out when the run ends.  A layer's *self* time is its
span minus the spans of its children, so the self times of one operation
plus the self time of the operation's root span (the unattributed
remainder) add up to the operation's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

ROOT_SPAN = "op"


class SpanLog:
    """Spans of one run, as parallel lists (cheap to append)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        #: per-span unit of work (band × grid points for FFT spans), or 0
        self.work: list[int] = []
        #: spans are recorded only while ``enabled``
        self.enabled = False
        self.op_id = -1
        self._stack: list[int] = []
        #: open spans per name (the ``within`` filter of a target)
        self.active: Counter[str] = Counter()
        #: the last orbital block an ASPC predictor handed out
        self.last_prediction: Any = None

    def open(self, name: str, work: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.work.append(work)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.active[name] += 1
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack corrupted: spans closed out of order")
        self.active[self.names[idx]] -= 1

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(own)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += own[i]
        return [o - c for o, c in zip(own, child)]

    def dump(self, path) -> None:
        """Write the spans as JSON (one record per span)."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "op": o,
             "work": w}
            for n, s, e, p, o, w in zip(
                self.names, self.starts, self.ends, self.parents, self.ops,
                self.work,
            )
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``owner`` is a module or class, ``attr`` the name bound there.  ``span``
    names the layer bucket the call is timed under.  ``work(args, kwargs)``
    returns the call's unit of work; ``within`` restricts recording to
    calls made while a span of that name is open (``numpy.linalg.eigh``
    counts as the eigensolver's ``eigh`` only inside LOBPCG); ``after(args,
    result, log)`` runs after every call, traced or not.
    """

    owner: Any
    attr: str
    span: str
    work: Callable[..., int] | None = None
    within: str | None = None
    after: Callable[..., None] | None = None


def _make_wrapper(fn: Callable, target: Target, patcher: Patcher) -> Callable:
    log = patcher.log
    span, work, within, after = (
        target.span, target.work, target.within, target.after
    )

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        patcher.calls += 1
        if not log.enabled or (within is not None and not log.active[within]):
            out = fn(*args, **kwargs)
        else:
            idx = log.open(span, work(args, kwargs) if work else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                log.close(idx)
        if after is not None:
            after(args, out, log)
        return out

    return wrapper


class Patcher:
    """Installs and removes the wrappers of a set of :class:`Target`."""

    def __init__(self, targets: list[Target], log: SpanLog) -> None:
        self.log = log
        #: calls into this patcher's wrappers — the removal check counts
        #: them during an untraced operation
        self.calls = 0
        #: (owner, attr, original, wrapper) for every binding site
        self.sites: list[tuple[Any, str, Any, Any]] = []
        for t in targets:
            original = t.owner.__dict__[t.attr]
            wrapper = _make_wrapper(original, t, self)
            owners = [t.owner]
            if not isinstance(t.owner, type):
                owners += [
                    mod for name, mod in list(sys.modules.items())
                    if mod is not None and mod is not t.owner
                    and (name == "repro" or name.startswith("repro."))
                    and getattr(mod, t.attr, None) is original
                ]
            self.sites += [(o, t.attr, original, wrapper) for o in owners]

    def install(self) -> None:
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)


def layer_totals(log: SpanLog, ops: set[int]) -> dict[str, dict[str, float]]:
    """Per span name: summed self seconds, calls and work over the spans of
    ``ops``."""
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(log.self_times()):
        if log.ops[i] not in ops:
            continue
        row = out.setdefault(
            log.names[i], {"self_s": 0.0, "calls": 0, "work": 0}
        )
        row["self_s"] += s
        row["calls"] += 1
        row["work"] += log.work[i]
    return out
