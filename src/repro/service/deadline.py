"""An in-task deadline: bound part of a coroutine without spawning a Task.

``asyncio.wait_for(coro, timeout)`` runs ``coro`` in a Task of its own
and adds a timer and a waiter future: three objects and extra event-loop
turns for every call.  On the unbatched serving path that scaffolding
cost more than the store it guarded.  :class:`deadline` bounds a block of
the *current* task instead::

    async with deadline(self.request_timeout):
        reply = await handler(*fields)

The server needs it only for verbs that await (the cluster's writes),
each of which runs in a task of its own; a verb that never awaits is
answered inline, as its frame is parsed, and a connection's stalled
frame header is bounded by a plain ``loop.call_at`` timer instead.  The
clients bound every call with it.

Entering arms one ``loop.call_at`` timer that cancels the current task;
leaving disarms it.  When the timer fired, the ``CancelledError`` it
caused leaves the block as :class:`asyncio.TimeoutError`; any other
cancellation passes through unchanged, so nested deadlines — a peer-call
deadline inside a request deadline — each claim only their own expiry.
Where ``Task.uncancel`` exists (Python 3.11+) the deadline also withdraws
the cancel request it made: ``task.cancelling()`` stays balanced, and an
outside ``cancel()`` landing in the same loop step as the expiry still
propagates.  That is the contract of 3.11's ``asyncio.timeout``, which
3.9 lacks; on 3.9 and 3.10 such a coinciding cancel reads as the timeout.
"""

from __future__ import annotations

import asyncio

#: Task.uncancel/cancelling arrived in 3.11
_COUNTS_CANCELS = hasattr(asyncio.Task, "uncancel")


class deadline:
    """``async with deadline(seconds):`` — raise TimeoutError past ``seconds``.

    One instance guards one block, once.
    """

    __slots__ = ("_delay", "_task", "_handle", "_cancelling", "expired")

    def __init__(self, delay: float):
        self._delay = delay
        self._task = None
        self._handle = None
        self._cancelling = 0
        #: True once the timer cancelled the task
        self.expired = False

    async def __aenter__(self) -> "deadline":
        self._task = task = asyncio.current_task()
        if _COUNTS_CANCELS:
            self._cancelling = task.cancelling()
        loop = task.get_loop()
        self._handle = loop.call_at(loop.time() + self._delay, self._expire)
        return self

    def _expire(self) -> None:
        self.expired = True
        self._task.cancel()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        self._handle.cancel()
        if not self.expired:
            return False
        # a cancel request beyond the ones standing at entry came from
        # someone else: theirs, not a timeout
        if _COUNTS_CANCELS and self._task.uncancel() > self._cancelling:
            return False
        if exc_type is asyncio.CancelledError:
            raise asyncio.TimeoutError from exc
        return False
