"""Stopping work whose result can no longer be used.

engine._ordered_map runs the items of a map concurrently and re-raises the
exception of the lowest failing index, the one a plain loop would raise.
Once item i has failed, the results of the items after it will be thrown
away, so those items stop at their next checkpoint instead of running to
the end: loops that run for long (the chunked samplers, the fit's outer
iterations) call check() once per pass. Items before i run on, since one of
them may still fail first.

The scope is a ContextVar holding one (map, index) pair per enclosing map
item, so a check deep inside nested maps also sees that an outer item was
given up. Outside any map the scope is empty and check() does nothing.
"""
from __future__ import annotations

from contextvars import ContextVar


class Cancelled(BaseException):
    """Raised by check() in a map item whose result is no longer wanted.

    A BaseException, so that no `except Exception` between the checkpoint
    and the map keeps it from reaching the map, which discards it.
    """


# (map, index) for each enclosing map item, outermost first. A map is any
# object whose failed_at is the lowest index that has failed in it so far.
SCOPE: ContextVar[tuple] = ContextVar("margbayes_scope", default=())


def check() -> None:
    """Raise Cancelled if an enclosing map item's result is no longer wanted."""
    for fan, i in SCOPE.get():
        if fan.failed_at < i:
            raise Cancelled
