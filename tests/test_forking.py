import multiprocessing
import os
import time

import pytest

from biasdiv import forking


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Every test here leaves no helper running and no file descriptor
    open that it did not find."""
    fds = _open_fds()
    yield
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(forking, "usable_cpus", lambda: count)


def recorder(work):
    """`fan_out`'s function for `work`: item -> (seconds to sleep, released
    keys, or an exception to raise). Each result is (pid, value given)."""
    def fn(item, value):
        sleep, released = work.get(item, (0.0, {}))
        time.sleep(sleep)
        if isinstance(released, BaseException):
            raise released
        if released == "exit":
            os._exit(3)
        return (os.getpid(), value), released
    return fn


def test_one_process_takes_waited_items_first_then_the_costliest(monkeypatch):
    use_cpus(monkeypatch, 1)
    order = []

    def fn(item, value):
        order.append(item)
        return value, {"k": 2.5} if item == "a" else {}

    got = forking.fan_out(fn, ["a", "b", "c", "w1", "w2", "d"], [1, 2, 5, 0, 0, 5],
                          waits={"w1": "k", "w2": "k"})
    assert order == ["a", "w1", "w2", "c", "d", "b"]
    assert list(got) == ["a", "b", "c", "w1", "w2", "d"]
    assert got["w1"] == got["w2"] == 2.5 and got["a"] is None


@pytest.mark.parametrize("cpus", [1, 2])
def test_items_waiting_for_a_key_no_item_releases_are_left_out(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    spent = []
    got = forking.fan_out(recorder({}), ["a", "b", "w"], waits={"w": "k"}, timings=spent)
    assert list(got) == ["a", "b"]
    assert len(spent) == 1 and len(spent[0]) == cpus
    assert all(busy >= 0.0 and blocked >= 0.0 for busy, blocked in spent[0])


def test_the_helper_starts_with_the_costliest_other_item(monkeypatch):
    use_cpus(monkeypatch, 2)
    got = forking.fan_out(recorder({"a": (0.3, {})}), ["a", "b", "c"], [1, 1, 3])
    here = os.getpid()
    assert got["a"][0] == here and got["c"][0] != here


def test_a_blocked_helper_takes_a_released_item(monkeypatch):
    """The helper finds nothing ready and blocks until this process
    releases the key; this process, which released it, takes the first
    item that waited and the helper the second. Both get the value."""
    use_cpus(monkeypatch, 2)
    spent = []
    got = forking.fan_out(recorder({"a": (0.5, {"k": (1.5, 2.0)}), "w1": (0.5, {})}),
                          ["a", "w1", "w2"], waits={"w1": "k", "w2": "k"}, timings=spent)
    here = os.getpid()
    assert got["w1"] == (here, (1.5, 2.0))
    assert got["w2"][0] != here and got["w2"][1] == (1.5, 2.0)
    (_, blocked_here), (_, blocked) = spent[0]
    assert blocked_here == 0.0 and blocked > 0.1


def test_this_process_blocks_until_the_helper_releases_a_key(monkeypatch):
    use_cpus(monkeypatch, 2)
    spent = []
    got = forking.fan_out(recorder({"b": (0.5, {"k": 7})}), ["a", "b", "w"], [1, 2, 0],
                          waits={"w": "k"}, timings=spent)
    helper = got["b"][0]
    assert helper != os.getpid() and got["w"] == (helper, 7)
    assert spent[0][0][1] > 0.1


@pytest.mark.parametrize("blocked", [False, True])
def test_a_helper_exception_is_raised_here_with_its_traceback(monkeypatch, blocked):
    """Raised here whether this process is blocked waiting for the key the
    helper would have released, or still running."""
    use_cpus(monkeypatch, 2)
    work = {"a": (0.0 if blocked else 0.5, {}), "b": (0.2, ValueError("b fails"))}
    with pytest.raises(ValueError, match="b fails") as info:
        forking.fan_out(recorder(work), ["a", "b", "w"], [1, 2, 0], waits={"w": "k"})
    cause = info.value.__cause__
    assert isinstance(cause, forking._HelperTraceback)
    assert "in the helper process, running 'b'" in str(cause)
    assert "ValueError: b fails" in str(cause)


@pytest.mark.parametrize("blocked", [False, True])
def test_a_helper_that_exits_without_results_raises(monkeypatch, blocked):
    use_cpus(monkeypatch, 2)
    work = {"a": (0.0 if blocked else 0.5, {}), "b": (0.2, "exit")}
    with pytest.raises(ChildProcessError, match="helper process [0-9]+ exited with code 3"):
        forking.fan_out(recorder(work), ["a", "b", "w"], [1, 2, 0], waits={"w": "k"})


def test_a_failure_here_ends_the_helper(monkeypatch):
    use_cpus(monkeypatch, 2)
    began = time.perf_counter()
    with pytest.raises(ValueError, match="a fails"):
        forking.fan_out(recorder({"a": (0.2, ValueError("a fails")), "b": (60.0, {})}),
                        ["a", "b"])
    assert time.perf_counter() - began < 30.0


def test_a_helper_that_cannot_start_leaves_nothing_open(monkeypatch):
    use_cpus(monkeypatch, 2)
    context = forking._fork_context()

    class Unstartable(context.Process):
        def start(self):
            raise OSError("no process left")

    monkeypatch.setattr(context, "Process", Unstartable)
    with pytest.raises(OSError, match="no process left"):
        forking.fan_out(recorder({}), ["a", "b"])


def test_chunks_run_one_per_process_in_order(monkeypatch):
    """Equal costs over as many processes as items: one item each, item i
    in process i, whatever the usable CPUs; the results in item order."""
    use_cpus(monkeypatch, 1)
    spent, forked = [], forking.forked
    got = forking.fan_out(recorder({item: (0.1, {}) for item in "abc"}), "abc", processes=3,
                          spare_only=False, timings=spent)
    assert forking.forked == forked + 2 and len(spent[0]) == 3
    assert list(got) == ["a", "b", "c"] and len({pid for pid, _ in got.values()}) == 3
    assert got["a"][0] == os.getpid()


def test_without_fork_every_item_runs_here(monkeypatch):
    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(forking, "_fork_context", lambda: None)
    forked = forking.forked
    got = forking.fan_out(recorder({"a": (0.0, {"k": 1})}), ["a", "b", "w"], waits={"w": "k"})
    assert forking.forked == forked
    assert {pid for pid, _ in got.values()} == {os.getpid()} and got["w"][1] == 1


def test_stress_every_item_runs_once_across_more_processes_than_cpus(monkeypatch, tmp_path):
    """Four processes on this machine's CPUs take 60 short items, half of
    them waiting for a key that another releases: each item runs exactly
    once, after its key's release, with the released value."""
    log = tmp_path / "log"

    def fn(item, value):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{item}\n")
        time.sleep(0.001 * (hash(item) % 5))
        kind, index = item
        return value, {index: index * 10} if kind == "g" else {}

    items = [("g", i) for i in range(30)] + [("w", i) for i in range(30)]
    began = time.perf_counter()
    got = forking.fan_out(fn, items, [i % 7 for i in range(60)], processes=4, spare_only=False,
                          waits={("w", i): i for i in range(30)})
    assert time.perf_counter() - began < 60.0
    assert sorted(log.read_text().splitlines()) == sorted(map(str, items))
    assert got == {**{("g", i): None for i in range(30)}, **{("w", i): i * 10 for i in range(30)}}
    lines = log.read_text().splitlines()
    assert all(lines.index(str(("g", i))) < lines.index(str(("w", i))) for i in range(30))
