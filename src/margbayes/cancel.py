"""Stopping work whose result can no longer be used.

engine._ordered_map runs the items of a map concurrently and re-raises the
exception of the lowest failing index, the one a plain loop would raise.
Once item i has failed, the results of the items after it will be thrown
away, so those items stop at their next checkpoint instead of running to
the end: loops that run for long (the chunked samplers, the fit's outer
iterations) call check() once per pass. Items before i run on, since one of
them may still fail first.

Only a map that runs on threads sets the scope, and a map inside one of
its items runs inline, so the scope is one (map, index) pair: the threaded
map item that the calling code runs in, however deep. Outside any such
item the scope is None and check() does nothing.
"""
from __future__ import annotations

from contextvars import ContextVar


class Cancelled(BaseException):
    """Raised by check() in a map item whose result is no longer wanted.

    A BaseException, so that no `except Exception` between the checkpoint
    and the map keeps it from reaching the map, which discards it.
    """


# (map, index) of the threaded map item the caller runs in, or None. A map
# is any object whose failed_at is the lowest index that has failed in it
# so far.
SCOPE: ContextVar[tuple | None] = ContextVar("margbayes_scope", default=None)


def check() -> None:
    """Raise Cancelled if the enclosing map item's result is no longer wanted."""
    scope = SCOPE.get()
    if scope is not None and scope[0].failed_at < scope[1]:
        raise Cancelled
