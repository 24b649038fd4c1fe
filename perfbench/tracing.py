"""In-memory spans around public functions, installed from outside the program.

A :class:`Tracer` replaces chosen module functions and class methods with thin
wrappers that record one span per call: its name, start, end and the span
that was open when it began (its parent).  Nothing under ``src/`` changes;
the wrappers are swapped in with ``setattr`` and swapped back by
:meth:`Tracer.uninstall`.  Spans are kept in four parallel lists until the
run ends, and are recorded only while :attr:`Tracer.active` is set, so set-up
and output checks stay out of the trace.

A layer's *self time* is its span's duration minus the time its direct child
spans cover; the share of a window that no root span covers is the time
spent in code the tracer does not wrap (the benchmark loop and program code
between wrapped calls).
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Iterable, Sequence, Union

__all__ = ["Target", "Tracer", "self_times", "uncovered_share"]

#: A span name, or a function of the call's ``(args, kwargs)`` returning one.
SpanName = Union[str, Callable[[tuple, dict], str]]


class Target:
    """One function to wrap: ``owner.attr``, where ``owner`` is a module or class.

    For a module function the wrapper also replaces every other reference to
    the same function object held by a module whose name starts with
    ``package`` (``from x import f`` copies the reference into the importer).
    """

    def __init__(self, owner: Any, attr: str, name: SpanName, package: str = "repro"):
        self.owner = owner
        self.attr = attr
        self.name = name
        self.package = package


class Tracer:
    """Records spans around wrapped functions while :attr:`active` is true."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _wrap(self, fn: Callable, name: SpanName) -> Callable:
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(fixed if fixed is not None else name(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self, targets: Iterable[Target]) -> None:
        """Swap a recording wrapper in for every target."""
        for target in targets:
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(original, target.name)
            owners = [target.owner]
            if not isinstance(target.owner, type):
                owners = [
                    module for mod_name, module in list(sys.modules.items())
                    if module is not None
                    and (mod_name == target.package
                         or mod_name.startswith(target.package + "."))
                ]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, value))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original function, last patch first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------


def self_times(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the durations of its direct
    children, so nested calls of one name (recursion) are never counted
    twice and the self times add up to the time the root spans cover.
    """
    child = [0.0] * len(names)
    for k, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[k] - starts[k]
    out: dict[str, float] = {}
    for k, name in enumerate(names):
        out[name] = out.get(name, 0.0) + (ends[k] - starts[k]) - child[k]
    return out


def uncovered_share(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    window: float,
) -> float:
    """Share of ``window`` seconds that no root span covers."""
    covered = sum(e - s for s, e, parent in zip(starts, ends, parents) if parent < 0)
    return (window - covered) / window
