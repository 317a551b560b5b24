"""One way to run work in other processes: `fan_out` splits independent
items into bins by cost, computes one bin here and forks one helper per
other bin, which inherits its inputs and sends back only its results.
Experiment chunks, each chunk's stages and the counterexample CSV's
halves all go through it.
"""

from __future__ import annotations

import os

# Processes running at once, multiplied while a `fan_out` call's helpers
# run; nested calls, here and in the helpers, read it.
_running = 1
forked = 0   # helpers this process has forked


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


def fork_context(processes: int, spare_only: bool = True):
    """The context a `fan_out` over `processes` bins forks from, or None
    where it computes every item here. With `spare_only`, it forks only
    where the usable CPUs number at least `processes` times the processes
    running at once: at two bins, in a lone process on two CPUs, and in
    each of two on four. `taskset` to fewer CPUs turns it off."""
    if processes < 2 or spare_only and usable_cpus() < processes * _running:
        return None
    return _fork_context()


def _helper_share(costs, processes: int = 2) -> list[int]:
    """Per item, its bin: Graham's longest-processing-time rule over
    `processes` bins. Heaviest first (ties in the given order), each item
    goes to the bin with the smallest load, the lowest on a tie, so bin 0,
    this process's, takes the heaviest item and k items of equal cost go
    one per bin in order. The largest bin stays within 4/3 - 1/(3k) of the
    best split's over k bins (Graham 1969)."""
    loads, bins = [0] * processes, [0] * len(costs)
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        bins[i] = loads.index(min(loads))
        loads[bins[i]] += costs[i]
    return bins


class _HelperTraceback(Exception):
    """The traceback of an exception raised in a forked helper, set as the
    cause of that exception when `fan_out` raises it in the caller."""


def _helper_main(fn, items, sender) -> None:
    """A forked helper's bin of `fan_out`: `{item: fn(item)}`, or the
    exception that stopped it and its traceback, sent whole over `sender`."""
    try:
        message = True, {item: fn(item) for item in items}
    except Exception as exc:
        import traceback
        message = False, (exc, traceback.format_exc())
    sender.send(message)


def fan_out(fn, items, costs=None, processes: int = 2, spare_only: bool = True) -> dict:
    """`{item: fn(item)}` for `items`, distinct keys that share no state,
    with `costs` their relative costs (equal where None), in the order of
    `items`. The items are split over `processes` bins by `_helper_share`;
    where more than one bin holds items and `fork_context` gives a context,
    this process computes bin 0 while one forked helper per other bin
    computes that bin and sends the results back over a pipe. `fn` must
    return picklable values, the same in any process. A helper's exception is raised here with the
    helper's traceback as its cause; a helper that exits without its
    results raises `ChildProcessError`. If this process fails first, the
    helpers still running are ended; every helper is joined on every path.
    """
    global _running, forked
    items = list(items)
    bins = _helper_share([1] * len(items) if costs is None else costs, processes)
    context = fork_context(processes, spare_only) if max(bins, default=0) else None
    if context is None:
        return {item: fn(item) for item in items}
    outer, receivers, helpers, received = _running, [], [], 0
    _running = outer * processes
    try:
        for b in sorted(set(bins) - {0}):
            theirs = [item for item, at in zip(items, bins) if at == b]
            receiver, sender = context.Pipe(duplex=False)
            receivers.append(receiver)
            with sender:   # then the helper's copy is the pipe's only writer
                helper = context.Process(target=_helper_main, args=(fn, theirs, sender))
                helper.start()
            helpers.append((helper, receiver, theirs))
            forked += 1
        results = {item: fn(item) for item, at in zip(items, bins) if at == 0}
        for helper, receiver, theirs in helpers:
            try:
                ok, payload = receiver.recv()
            except EOFError:
                helper.join()
                raise ChildProcessError(f"the helper process for {theirs} exited with code "
                                        f"{helper.exitcode} before sending its results") from None
            received += 1   # a helper whose message has arrived ends by itself
            if not ok:
                exc, trace = payload
                raise exc from _HelperTraceback(f"in the helper process for {theirs}:\n{trace}")
            results.update(payload)
    finally:
        _running = outer
        for receiver in receivers:
            receiver.close()
        for i, (helper, _, _) in enumerate(helpers):
            if i >= received:
                helper.terminate()
            helper.join()
            helper.close()
    return {item: results[item] for item in items}
