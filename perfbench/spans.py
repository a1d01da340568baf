"""In-memory spans around public abnn functions, installed from outside the package.

A :class:`Tracer` replaces each target attribute (a module function or a
class method) with a wrapper while it is installed and puts the original
back on :meth:`Tracer.uninstall`, so nothing under ``src/`` changes.

Span wrappers record, per ``(phase, name)``: calls, inclusive seconds,
self seconds (inclusive minus the time of wrapped children) and an item
count chosen by the target (rows, targets, tape nodes). They also record,
per ``(phase, parent, name)`` edge, calls and seconds, which is how a
metric asks for "time in X called directly from Y". Count-only wrappers
record calls and edges but no time; they go on hot inner calls whose own
timer would distort the numbers. Per-scalar tape primitives are never
wrapped.

A target that no longer exists (a later refactor removed it) is skipped.
A name none of whose targets exists is listed in :attr:`Tracer.missing`,
and metrics built on it are reported as absent instead of crashing the
run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """``where`` is ``"package.module:Attr.path"``; ``name`` keys the stats.

    ``tag(*args, **kwargs)`` splits the stats by a sub-key (recorded under
    both ``name`` and ``name.tag``); ``size(*args, **kwargs)`` is the item
    count of one call (default 1).
    """

    where: str
    name: str
    tag: Callable | None = None
    size: Callable | None = None
    count_only: bool = False


def _resolve(where: str):
    """(owner, attribute name, current value) or None when any part is gone."""
    module_name, _, path = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.phase = "setup"
        # (phase, name) -> [calls, inclusive s, self s, items]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # (phase, parent name or None, name) -> [calls, inclusive s]
        self.edges = defaultdict(lambda: [0, 0.0])
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._saved: list[tuple] = []  # (owner, attr, original, was own attribute)

    # -- installation ------------------------------------------------------

    def install(self, phase: str) -> None:
        self.phase = phase
        installed = set()
        for t in self.targets:
            found = _resolve(t.where)
            if found is None:
                continue
            installed.add(t.name)
            owner, attr, fn = found
            own = attr in vars(owner)
            wrapper = self._count(fn, t) if t.count_only else self._span(fn, t)
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, fn, own))
        self.missing = {t.name for t in self.targets} - installed

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn, own = self._saved.pop()
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, t: Target):
        stats, edges, stack = self.stats, self.edges, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = t.tag(*args, **kwargs) if t.tag else None
            items = t.size(*args, **kwargs) if t.size else 1
            frame = [t.name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                phase = self.phase
                names = (t.name,) if tag is None else (t.name, f"{t.name}.{tag}")
                for name in names:
                    s = stats[(phase, name)]
                    s[0] += 1
                    s[1] += dur
                    s[2] += dur - frame[1]
                    s[3] += items
                e = edges[(phase, parent[0] if parent else None, t.name)]
                e[0] += 1
                e[1] += dur

        return wrapper

    def _count(self, fn, t: Target):
        stats, edges, stack = self.stats, self.edges, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            stats[(phase, t.name)][0] += 1
            edges[(phase, stack[-1][0] if stack else None, t.name)][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- queries -----------------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return self.stats[(phase, name)][0] if (phase, name) in self.stats else 0

    def seconds(self, phase: str, name: str) -> float:
        return self.stats[(phase, name)][1] if (phase, name) in self.stats else 0.0

    def self_seconds(self, phase: str, name: str) -> float:
        return self.stats[(phase, name)][2] if (phase, name) in self.stats else 0.0

    def items(self, phase: str, name: str) -> int:
        return self.stats[(phase, name)][3] if (phase, name) in self.stats else 0

    def edge(self, phase: str, parent: str | None, name: str) -> tuple[int, float]:
        key = (phase, parent, name)
        return tuple(self.edges[key]) if key in self.edges else (0, 0.0)
