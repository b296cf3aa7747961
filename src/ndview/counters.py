"""Scoped instrumentation: scalar-operation and heap-allocation tallies.

A counting scope is opened with ``counting()``; every kernel invocation and
heap buffer allocation inside the scope is added to the yielded tally (and to
any enclosing scopes). Scopes are tracked per context, so concurrent sessions
on disjoint data do not interfere. Outside any scope the hooks are no-ops.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

__all__ = ["CounterReport", "Tally", "counting", "record_allocation", "record_scalar_ops"]


@dataclass(frozen=True)
class CounterReport:
    """Snapshot of a counting scope."""

    scalar_ops: int
    buffers_allocated: int
    bytes_allocated: int


class Tally:
    """Mutable accumulator backing one counting scope."""

    __slots__ = ("scalar_ops", "buffers_allocated", "bytes_allocated")

    def __init__(self) -> None:
        self.scalar_ops = 0
        self.buffers_allocated = 0
        self.bytes_allocated = 0

    def report(self) -> CounterReport:
        return CounterReport(self.scalar_ops, self.buffers_allocated, self.bytes_allocated)


_active: ContextVar[tuple[Tally, ...]] = ContextVar("ndview_active_tallies", default=())


@contextmanager
def counting() -> Iterator[Tally]:
    """Open a counting scope; nested scopes also roll up into enclosing ones."""
    tally = Tally()
    token = _active.set(_active.get() + (tally,))
    try:
        yield tally
    finally:
        _active.reset(token)


def record_allocation(nbytes: int) -> None:
    for t in _active.get():
        t.buffers_allocated += 1
        t.bytes_allocated += nbytes


def record_scalar_ops(n: int) -> None:
    for t in _active.get():
        t.scalar_ops += n
