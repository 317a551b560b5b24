"""One way to run work in other processes: `fan_out` runs items through a
claim loop. This process and its forked helpers, which inherit the inputs,
each take the next ready item from one shared list until none is left,
and a helper sends back only its results. An item may wait for a key that
another item releases as it finishes; the released value goes to
whichever process takes the waiting item. Chunks of repeats, and each
chunk's groups of legs and diversify legs, go through it.
"""

from __future__ import annotations

import contextlib
import os
import time

# Processes running at once, multiplied while a `fan_out` call's helpers
# run; nested calls, here and in the helpers, read it.
_running = 1
forked = 0   # helpers this process has forked

# An item's state on the board: waiting for its key, ready, or taken.
_WAITS, _READY, _TAKEN = 0, 1, 2


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _fork_context():
    """multiprocessing's "fork" context, or None where it is not available.
    Imported here, so that importing biasdiv does not load multiprocessing."""
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


class _HelperTraceback(Exception):
    """The traceback of an exception raised in a forked helper, set as the
    cause of that exception when `fan_out` raises it in the caller."""


class _Board:
    """The shared list of one `fan_out` call: each item's state, how many
    items run, whether a helper failed and which processes are blocked.
    With a fork `context` these live in an anonymous shared mapping under
    one lock, with a wake-up pipe per process and a pipe per key that
    carries each released value, one copy per waiting item; without one
    they are this process's alone. Item 0 starts taken, by this process.
    Every method but `work` and `close` runs under the lock."""

    def __init__(self, items, costs, waits, processes: int, context):
        self.items, self.costs, self.waits = items, costs, waits
        self.dependents = {}   # key -> indices of the items waiting for it
        for i, item in enumerate(items):
            if item in waits:
                self.dependents.setdefault(waits[item], []).append(i)
        n = len(items)
        self._running, self._failed, self._blocked = n, n + 1, n + 2
        size = n + 2 + processes
        if context is None:
            self._map, self.cells, self.lock = None, [_WAITS] * size, contextlib.nullcontext()
            self.posts, self.wakes = {key: [] for key in self.dependents}, []
        else:
            import mmap
            self._map = mmap.mmap(-1, 8 * size)   # anonymous and shared, zeroed
            self.cells, self.lock = memoryview(self._map).cast("q"), context.Lock()
            self.posts = {key: context.Pipe(duplex=False) for key in self.dependents}
            self.wakes = [context.Pipe(duplex=False) for _ in range(processes)]
        for i, item in enumerate(items):
            if item not in waits:
                self.cells[i] = _READY
        self.cells[0], self.cells[self._running] = _TAKEN, 1
        self.current = None   # the item this process runs, for error messages

    def take(self, p: int):
        """The index of the item process `p` takes next, marked taken, and
        the value it waited for (None where it waited for nothing); (None,
        None) when nothing is ready or a helper failed. A ready item that
        waited comes first, in the given order; else the costliest, the
        first of equal costs."""
        cells = self.cells
        cells[self._blocked + p] = 0
        ready = [i for i in range(len(self.items)) if cells[i] == _READY]
        if cells[self._failed] or not ready:
            return None, None
        waited = [i for i in ready if self.items[i] in self.waits]
        i = waited[0] if waited else max(ready, key=lambda i: (self.costs[i], -i))
        cells[i] = _TAKEN
        cells[self._running] += 1
        if not waited:
            return i, None
        key = self.waits[self.items[i]]
        return i, self.posts[key].pop() if self._map is None else self.posts[key][0].recv()

    def finish(self, released: dict) -> None:
        """One taken item has run: its released keys ready the items that
        wait for them, and every blocked process wakes."""
        self.cells[self._running] -= 1
        for key, value in released.items():
            for i in self.dependents.get(key, ()):
                if self.cells[i] == _WAITS:
                    self.cells[i] = _READY
                    if self._map is None:
                        self.posts[key].append(value)
                    else:
                        self.posts[key][1].send(value)
        self._wake()

    def block(self, p: int) -> bool:
        """Whether process `p`, which found nothing ready, must wait: an
        item still waits for its key while another item runs. If so, it is
        marked blocked, so that the next `finish` or `fail` wakes it."""
        cells = self.cells
        if cells[self._failed] or not cells[self._running] or not any(
                cells[i] == _WAITS for i in range(len(self.items))):
            return False
        cells[self._blocked + p] = 1
        return True

    def fail(self) -> None:
        """A helper failed: no process takes another item."""
        self.cells[self._failed] = 1
        self._wake()

    def _wake(self) -> None:
        for p, (_, sender) in enumerate(self.wakes):
            if self.cells[self._blocked + p]:
                self.cells[self._blocked + p] = 0
                sender.send_bytes(b"")

    def work(self, fn, p: int, first, wait=None):
        """Process `p`'s share: `first` (an index, or None), then every item
        it takes, until nothing is ready and nothing can become ready. While
        it must wait it blocks in `wait(receiver)`, which returns once its
        wake-up pipe has a message. Returns ({item: result}, seconds in
        `fn`, seconds blocked)."""
        results, busy, blocked = {}, 0.0, 0.0
        i, value, released = first, None, None
        while True:
            if i is not None:
                began, self.current = time.perf_counter(), self.items[i]
                results[self.current], released = fn(self.current, value)
                busy += time.perf_counter() - began
            with self.lock:
                if i is not None:
                    self.finish(released)
                i, value = self.take(p)
                must_wait = i is None and self.block(p)
            if i is not None:
                continue
            if not must_wait:
                return results, busy, blocked
            began, receiver = time.perf_counter(), self.wakes[p][0]
            (wait or _wait_for)(receiver)
            while receiver.poll():
                receiver.recv_bytes()
            blocked += time.perf_counter() - began

    def close(self) -> None:
        """Close this process's ends of the pipes and the mapping."""
        if self._map is None:
            return
        for receiver, sender in (*self.posts.values(), *self.wakes):
            receiver.close()
            sender.close()
        self.cells.release()
        self._map.close()


def _wait_for(*receivers) -> list:
    """Block until one of `receivers` has a message; those that have."""
    from multiprocessing.connection import wait
    return wait(receivers)


def _helper_main(board: _Board, fn, p: int, first, sender) -> None:
    """A forked helper's part of `fan_out`: the results and timings of
    `board.work`, or the exception that stopped it, the item it was running
    and its traceback, sent whole over `sender`. A failure stops every
    process from taking another item."""
    try:
        message = True, board.work(fn, p, first)
    except Exception as exc:
        import traceback
        with board.lock:
            board.fail()
        message = False, (exc, board.current, traceback.format_exc())
    sender.send(message)


class _Helper:
    """A forked helper, the receiving end of its pipe, and its message once
    received."""

    def __init__(self, process, receiver):
        self.process, self.receiver, self.message = process, receiver, None

    def receive(self) -> None:
        """Read the helper's message. Raises its exception, with its
        traceback as the cause, or `ChildProcessError` where it exited
        without sending one."""
        try:
            ok, payload = self.receiver.recv()
        except EOFError:
            self.process.join()
            raise ChildProcessError(f"helper process {self.process.pid} exited with code "
                                    f"{self.process.exitcode} before sending its results") from None
        self.message = payload
        if not ok:
            exc, item, trace = payload
            raise exc from _HelperTraceback(f"in the helper process, running {item!r}:\n{trace}")


def fan_out(fn, items, costs=None, processes: int = 2, spare_only: bool = True,
            waits=None, timings=None) -> dict:
    """`{item: result}` for `items`, distinct keys that share no state, in
    the order of `items`. `fn(item, value)` returns `(result, released)`:
    `value` is what the item waited for (None where it waited for nothing)
    and `released` maps keys to values. `waits` maps some items to a key:
    such an item becomes ready once an item that ran releases its key, and
    is left out of the results if no item does. `costs` are the items'
    relative costs (equal where None).

    This process takes the first item. Where there is more than one item
    and "fork" is available, up to `processes - 1` forked helpers start,
    each with the costliest ready item left (the first of equal costs).
    Then each process, as it becomes free, takes a ready item that waited,
    in the given order, or else the costliest ready item, and blocks on a
    pipe while none is ready but one may become so (Graham's list
    scheduling, 1969). The process that releases a key takes next, so it
    runs the first item that waited for it. Every item is computed here
    where no helper starts. With `spare_only`, helpers start only where the
    usable CPUs number at least `processes` times the processes running at
    once: at two processes, in a lone process on two CPUs, and in each of
    two on four. `taskset` to fewer CPUs turns them off. Where `timings` is
    a list, the call appends each process's (busy, blocked) seconds to it,
    this process's first.

    `fn` must return picklable values, the same in any process. A helper's
    exception is raised here with the helper's traceback as its cause; a
    helper that exits without its results raises `ChildProcessError`. If
    this process fails first, the helpers still running are ended; every
    helper is joined on every path.
    """
    global _running, forked
    items = list(items)
    if not items:
        return {}
    costs = [1] * len(items) if costs is None else list(costs)
    spare = not spare_only or usable_cpus() >= processes * _running
    context = _fork_context() if min(processes, len(items)) > 1 and spare else None
    count = min(processes, len(items)) if context is not None else 1
    board = _Board(items, costs, waits or {}, count, context)
    outer, helpers = _running, []
    try:
        _running = outer * count
        for p in range(1, count):
            with board.lock:
                first, _ = board.take(p)
            receiver, sender = context.Pipe(duplex=False)
            helpers.append(_Helper(context.Process(
                target=_helper_main, args=(board, fn, p, first, sender)), receiver))
            with sender:   # then the helper's copy is the pipe's only writer
                helpers[-1].process.start()
            forked += 1

        def wait(receiver):
            """Block until the wake-up pipe or a helper's pipe has a
            message; read the helpers' messages."""
            pending = {h.receiver: h for h in helpers if h.message is None}
            for ready in _wait_for(receiver, *pending):
                if ready is not receiver:
                    pending[ready].receive()

        results, busy, blocked = board.work(fn, 0, 0, wait)
        spent = [(busy, blocked)]
        for helper in helpers:
            if helper.message is None:
                helper.receive()
            theirs, busy, blocked = helper.message
            results.update(theirs)
            spent.append((busy, blocked))
    finally:
        _running = outer
        for helper in helpers:
            if helper.process.pid is not None:   # it started
                if helper.message is None:
                    helper.process.terminate()
                helper.process.join()
            helper.process.close()
            helper.receiver.close()
        board.close()
    if timings is not None:
        timings.append(spent)
    return {item: results[item] for item in items if item in results}
