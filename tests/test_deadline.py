"""Tests for :mod:`repro.service.deadline` and the in-task request path.

The helper must turn only its own expiry into ``TimeoutError``: an
outside ``cancel()`` stays a ``CancelledError``, nested deadlines each
claim only their own expiry, and on Python 3.11+ the task's cancel count
is balanced again after a handled timeout.  The serving path built on it
must not create an asyncio Task per request.
"""

import asyncio
import sys
import time

import pytest

from repro.service import CacheServer, ShardedStore
from repro.service.deadline import deadline
from repro.service.protocol import (
    STATUS_NAMES,
    FrameEncoder,
    encode_request,
    read_frame,
)


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


needs_cancel_counts = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="Task.cancelling() is 3.11+")


class TestDeadline:
    def test_block_within_bound_returns_normally(self):
        async def body():
            async with deadline(1.0) as dl:
                await asyncio.sleep(0)
            assert not dl.expired
            return "done"
        assert run(body()) == "done"

    def test_expiry_raises_timeout_error(self):
        async def body():
            with pytest.raises(asyncio.TimeoutError):
                async with deadline(0.01) as dl:
                    await asyncio.sleep(10)
            assert dl.expired
            await asyncio.sleep(0)  # the task is usable afterwards
        run(body())

    def test_outside_cancel_passes_through_as_cancelled(self):
        async def guarded(entered):
            async with deadline(10.0):
                entered.set()
                await asyncio.sleep(10)

        async def body():
            entered = asyncio.Event()
            task = asyncio.ensure_future(guarded(entered))
            await entered.wait()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert task.cancelled()
        run(body())

    def test_exceptions_from_the_block_propagate(self):
        async def body():
            with pytest.raises(KeyError):
                async with deadline(1.0):
                    raise KeyError("k")
        run(body())

    def test_timer_is_disarmed_on_exit(self):
        async def body():
            async with deadline(0.02):
                pass
            # past the bound, outside the block: nothing may cancel us
            await asyncio.sleep(0.05)
        run(body())

    def test_inner_deadline_claims_only_its_own_expiry(self):
        # a peer call bounded inside a request bound: the peer timeout is
        # the inner block's, and the request carries on
        async def body():
            async with deadline(5.0) as request:
                with pytest.raises(asyncio.TimeoutError):
                    async with deadline(0.01) as peer:
                        await asyncio.sleep(10)
                assert peer.expired
                await asyncio.sleep(0)
            assert not request.expired
        run(body())

    def test_outer_expiry_passes_through_the_inner_block(self):
        async def body():
            with pytest.raises(asyncio.TimeoutError):
                async with deadline(0.01) as request:
                    try:
                        async with deadline(5.0) as peer:
                            await asyncio.sleep(10)
                    except asyncio.TimeoutError:  # pragma: no cover
                        pytest.fail("the inner deadline claimed the "
                                    "outer one's expiry")
            assert request.expired and not peer.expired
        run(body())

    def test_outside_cancel_during_nested_blocks_stays_a_cancel(self):
        async def guarded(entered):
            async with deadline(10.0):
                async with deadline(10.0):
                    entered.set()
                    await asyncio.sleep(10)

        async def body():
            entered = asyncio.Event()
            task = asyncio.ensure_future(guarded(entered))
            await entered.wait()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
        run(body())

    @needs_cancel_counts
    def test_cancel_count_is_balanced_after_a_handled_timeout(self):
        async def body():
            task = asyncio.current_task()
            with pytest.raises(asyncio.TimeoutError):
                async with deadline(0.01):
                    await asyncio.sleep(10)
            assert task.cancelling() == 0
            async with deadline(5.0):
                with pytest.raises(asyncio.TimeoutError):
                    async with deadline(0.01):
                        await asyncio.sleep(10)
                assert task.cancelling() == 0
            assert task.cancelling() == 0
        run(body())

    @needs_cancel_counts
    def test_outside_cancel_racing_the_expiry_is_not_swallowed(self):
        # both cancel requests land before the task runs again: the
        # deadline withdraws its own and leaves the outside one standing
        async def guarded(entered):
            async with deadline(0.01):
                entered.set()
                await asyncio.sleep(10)

        async def body():
            entered = asyncio.Event()
            task = asyncio.ensure_future(guarded(entered))
            await entered.wait()
            asyncio.get_running_loop().call_later(0.02, task.cancel)
            # hold the loop until both timers are overdue: they then run
            # in one loop step, the deadline's first, before the task
            time.sleep(0.05)
            with pytest.raises(asyncio.CancelledError):
                await task
        run(body())


class TestInTaskServing:
    def test_pipelined_requests_create_no_task_per_request(self):
        requests = 64

        async def body():
            server = CacheServer(ShardedStore(num_shards=2, data_capacity=64),
                                 port=0)
            await server.start()
            loop = asyncio.get_running_loop()
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                writer.write(bytes(encode_request(enc, "PING", [], 0)))
                await writer.drain()
                await read_frame(reader)  # the connection task is running
                loop.set_task_factory(counting_factory)
                try:
                    writer.write(b"".join(
                        bytes(encode_request(enc, "GET", [f"k{i}"], i))
                        for i in range(1, requests + 1)))
                    await writer.drain()
                    seen = []
                    for _ in range(requests):
                        frame = await read_frame(reader)
                        seen.append((frame.seq, STATUS_NAMES[frame.verb_id]))
                finally:
                    loop.set_task_factory(None)
                assert seen == [(i, "MISS") for i in range(1, requests + 1)]
                assert created == []
                writer.close()
            finally:
                await server.stop()
        run(body())
