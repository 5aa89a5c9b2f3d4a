"""Deterministic virtual-time async kernel for the serving frontend.

The frontend needs asyncio-style concurrency — client coroutines,
coalescer tasks, timed flushes, bounded queues — but a real event loop
schedules on wall-clock timers and readiness polling, which is not
reproducible enough for seeded chaos campaigns or their run summaries.
This module is a tiny cooperative kernel with the same *shape* as
asyncio (``create_task`` / ``await`` / ``sleep`` / ``Queue``) whose
clock is **virtual**: ``loop.now`` counts simulator steps (the same
1-step-=-1-µs unit as :class:`~repro.metrics.spans.SpanTracer`), time
advances only when every runnable task has yielded, and the ready queue
is FIFO — so a campaign is a pure function of its seeds.

Native ``async def`` coroutines are driven directly via
``coro.send()``; awaiting a :class:`Future` suspends the task until the
future resolves.  :meth:`VirtualLoop.run_until_complete` raises
:class:`HangError` when the main task is still pending but nothing is
runnable and no timer is armed (a deadlock), or when virtual time
exceeds ``max_steps`` (a livelock) — which is precisely how the serve
layer *enforces* its "every admitted request terminates" invariant
instead of merely asserting it.
"""

from __future__ import annotations

import heapq
from collections import deque

#: Returned by deadline-bounded queue operations instead of a value.
TIMED_OUT = object()


class HangError(RuntimeError):
    """The main task cannot finish: nothing is runnable and either no
    timer is armed (deadlock) or the step budget is exhausted."""


class QueueEmpty(Exception):
    pass


class QueueFull(Exception):
    pass


class Future:
    """A one-shot result container awaitable from a coroutine."""

    __slots__ = ("loop", "_done", "_result", "_exc", "_callbacks")

    def __init__(self, loop: "VirtualLoop"):
        self.loop = loop
        self._done = False
        self._result = None
        self._exc = None
        self._callbacks: list = []

    def done(self) -> bool:
        return self._done

    def set_result(self, value) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._result = value
        self._finish()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._exc = exc
        self._finish()

    def _finish(self) -> None:
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.loop._call_soon(cb, self)

    def add_done_callback(self, cb) -> None:
        if self._done:
            self.loop._call_soon(cb, self)
        else:
            self._callbacks.append(cb)

    def result(self):
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        if self._exc is not None:
            raise self._exc
        return self._result

    def exception(self) -> BaseException | None:
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        return self._exc

    def __await__(self):
        if not self._done:
            yield self
        return self.result()


class Task(Future):
    """A coroutine driven by the loop; itself awaitable (its result is
    the coroutine's return value, its exception the coroutine's)."""

    __slots__ = ("coro", "name", "_scheduled")

    def __init__(self, loop: "VirtualLoop", coro, name: str | None = None):
        super().__init__(loop)
        self.coro = coro
        self.name = name or getattr(coro, "__name__", "task")
        self._scheduled = False
        loop._schedule_task(self)

    def _step(self) -> None:
        try:
            awaited = self.coro.send(None)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except BaseException as exc:
            self.set_exception(exc)
            return
        if not isinstance(awaited, Future):
            raise TypeError(
                f"task {self.name!r} awaited a non-virtual awaitable "
                f"({type(awaited).__name__}); only this module's "
                f"Future/Task/sleep/Queue are legal in the virtual loop")
        awaited.add_done_callback(self._wakeup)

    def _wakeup(self, _fut) -> None:
        self.loop._schedule_task(self)


class VirtualLoop:
    """FIFO-ready, heap-timed cooperative scheduler on a step clock."""

    def __init__(self):
        self.now = 0
        self._ready: deque = deque()
        self._timers: list = []
        self._seq = 0

    # -- scheduling primitives -------------------------------------------
    def create_task(self, coro, name: str | None = None) -> Task:
        return Task(self, coro, name)

    def _call_soon(self, cb, *args) -> None:
        self._ready.append((cb, args))

    def _schedule_task(self, task: Task) -> None:
        if not task._scheduled and not task._done:
            task._scheduled = True
            self._ready.append(task)

    def call_at(self, when: int, cb, *args) -> None:
        """Run ``cb(*args)`` once virtual time reaches ``when``."""
        self._seq += 1
        heapq.heappush(self._timers,
                       (max(int(when), self.now), self._seq, cb, args))

    def sleep(self, steps: int) -> Future:
        """Awaitable pause of ``steps`` virtual steps."""
        fut = Future(self)
        self.call_at(self.now + max(0, int(steps)), self._resolve_sleep, fut)
        return fut

    @staticmethod
    def _resolve_sleep(fut: Future) -> None:
        if not fut._done:
            fut.set_result(None)

    # -- the loop ---------------------------------------------------------
    def run_until_complete(self, main, max_steps: int | None = None):
        """Drive everything until ``main`` (a coroutine or Task) is done;
        returns its result.  Raises :class:`HangError` on deadlock or
        when virtual time would pass ``max_steps``."""
        task = main if isinstance(main, Future) else \
            self.create_task(main, "main")
        while not task._done:
            if self._ready:
                item = self._ready.popleft()
                if isinstance(item, Task):
                    item._scheduled = False
                    if not item._done:
                        item._step()
                else:
                    cb, args = item
                    cb(*args)
                continue
            if self._timers:
                when, _seq, cb, args = heapq.heappop(self._timers)
                if max_steps is not None and when > max_steps:
                    raise HangError(
                        f"virtual time would pass max_steps={max_steps} "
                        f"(now {self.now}) with the main task pending — "
                        f"livelock")
                if when > self.now:
                    self.now = when
                cb(*args)
                continue
            raise HangError(
                f"deadlock at step {self.now}: the main task is pending "
                f"but nothing is runnable and no timer is armed")
        return task.result()


class Queue:
    """Bounded FIFO with deadline-aware blocking — the backpressure
    primitive.  ``maxsize <= 0`` means unbounded."""

    def __init__(self, loop: VirtualLoop, maxsize: int = 0):
        self.loop = loop
        self.maxsize = int(maxsize)
        self._items: deque = deque()
        self._getters: deque = deque()          # Futures awaiting an item
        self._putters: deque = deque()          # (Future, item) awaiting room

    def qsize(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items and not self._putters

    def full(self) -> bool:
        return self.maxsize > 0 and len(self._items) >= self.maxsize

    # -- non-blocking -----------------------------------------------------
    def put_nowait(self, item) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter._done:
                getter.set_result(item)
                return
        if self.full():
            raise QueueFull()
        self._items.append(item)

    def get_nowait(self):
        if not self._items:
            raise QueueEmpty()
        item = self._items.popleft()
        self._wake_putters()
        return item

    def _wake_putters(self) -> None:
        while self._putters and not self.full():
            putter, item = self._putters.popleft()
            if putter._done:            # timed out while waiting
                continue
            self._items.append(item)
            putter.set_result(True)

    @staticmethod
    def _expire(fut: Future, value) -> None:
        if not fut._done:
            fut.set_result(value)

    # -- blocking with deadlines -----------------------------------------
    async def get(self, deadline: int | None = None):
        """Next item, or :data:`TIMED_OUT` once ``deadline`` (absolute
        step) passes with the queue still empty."""
        if self._items:
            item = self._items.popleft()
            self._wake_putters()
            return item
        if deadline is not None and deadline <= self.loop.now:
            return TIMED_OUT
        fut = Future(self.loop)
        self._getters.append(fut)
        if deadline is not None:
            self.loop.call_at(deadline, self._expire, fut, TIMED_OUT)
        return await fut

    async def put(self, item, deadline: int | None = None) -> bool:
        """Store ``item``; blocks while full.  Returns False once
        ``deadline`` passes with no room (the item is *not* stored)."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter._done:
                getter.set_result(item)
                return True
        if not self.full():
            self._items.append(item)
            return True
        if deadline is not None and deadline <= self.loop.now:
            return False
        fut = Future(self.loop)
        self._putters.append((fut, item))
        if deadline is not None:
            self.loop.call_at(deadline, self._expire, fut, False)
        return bool(await fut)
