"""Work shared between forked helper processes (``parallel._fork_map``):
rounds and evaluations give the serial loop's bits and errors at any
process count, no helper or memory file outlives a call, and work stays
in the caller where a helper would lose its side effects.

The process count is set through ``parallel._usable_cpus``, so a one-CPU
runner takes the forking path too.
"""

import os
import signal
import time

import numpy as np
import pytest

from fedpr import federation, nn, parallel
from fedpr.data import Dataset
from fedpr.errors import DivergenceError
from fedpr.prototypes import GlobalPrototypeSet
from test_federation import make_world, small_cfg
from test_golden import GOLDEN, RUNS, final_state

pytestmark = pytest.mark.skipif(not parallel._CAN_FORK, reason="fedpr forks helpers only on Linux")

# Serial, two, an uneven split, and more processes than any call has tasks.
PROCESS_COUNTS = (1, 2, 3, 200)


def use_processes(monkeypatch, count: int) -> None:
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: count)


def assert_no_helper_left() -> None:
    # Raised only when the process has no child at all, running or unreaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_runs_are_bit_identical_at_every_process_count(name, monkeypatch):
    # A test set over 512 samples gives evaluation two chunks to share.
    # Training never reads it, so the final state keeps its golden hash.
    spec = dict(RUNS[name], synth_test_per_class=600 // RUNS[name].get("synth_classes", 10))
    results = {}
    for count in PROCESS_COUNTS:
        use_processes(monkeypatch, count)
        results[count] = final_state(spec)
        assert_no_helper_left()
    digest, records = results[1]
    if parallel._BLAS_PINNED:
        assert digest == GOLDEN[name]["sha256"]
    for count in PROCESS_COUNTS:
        assert results[count][0] == digest, count
        assert [r.__dict__ for r in results[count][1]] == [r.__dict__ for r in records], count


def square_or_raise(bad):
    def fn(x):
        if x in bad:
            raise ValueError(f"item {x}")
        return x * x

    return fn


@pytest.mark.parametrize("count", PROCESS_COUNTS)
def test_results_come_back_in_item_order(count, monkeypatch):
    use_processes(monkeypatch, count)
    items = list(range(11))
    costs = [(7 * i) % 5 for i in items]
    assert parallel._fork_map(square_or_raise(()), items, costs) == [i * i for i in items]
    assert parallel._fork_map(square_or_raise(()), [], []) == []
    assert_no_helper_left()


def test_longest_item_first_and_every_share_in_a_helper(monkeypatch):
    use_processes(monkeypatch, 2)
    pids = parallel._fork_map(lambda _: os.getpid(), range(4), [1, 5, 1, 1])
    # Item 1 is the longest and fills one helper's share; the other three
    # fit beside it in the other helper's. The caller runs none.
    assert pids[0] == pids[2] == pids[3] != pids[1]
    assert os.getpid() not in pids
    assert_no_helper_left()


def caller_only(items) -> bool:
    return parallel._fork_map(lambda _: os.getpid(), items, [1] * len(items)) == [os.getpid()] * len(items)


def test_a_rebound_public_function_keeps_every_call_in_the_caller(monkeypatch):
    # A tracer or a test double counts its calls in the process that makes
    # them, so they must not move to a helper.
    use_processes(monkeypatch, 2)
    assert not caller_only(range(2))
    with monkeypatch.context() as patch:
        patch.setattr(federation, "loss_and_grad", lambda *args: nn.loss_and_grad(*args))
        assert caller_only(range(2))
    assert not caller_only(range(2))
    # Private names, such as the CPU count the tests set, do not count.
    assert not parallel._bindings_replaced()


def test_off_linux_every_call_stays_in_the_caller(monkeypatch):
    use_processes(monkeypatch, 2)
    monkeypatch.setattr(parallel, "_CAN_FORK", False)
    assert caller_only(range(2))


def test_the_counts_of_a_traced_round_are_complete(monkeypatch):
    # Every loss_and_grad call of the round reaches the replacement.
    cfg = small_cfg(num_clients=6)
    train, test, shards, params, clients = make_world(cfg)
    steps = cfg.local_epochs * sum(-(-len(s) // cfg.batch_size) for s in shards)
    calls = []
    real = federation.loss_and_grad
    monkeypatch.setattr(federation, "loss_and_grad", lambda *args: calls.append(os.getpid()) or real(*args))
    use_processes(monkeypatch, 2)
    federation.run_round(params, GlobalPrototypeSet.empty(0), clients, cfg, 1, train, test)
    assert calls == [os.getpid()] * steps


@pytest.mark.parametrize(
    "bad, named",
    [({3, 4}, 3), ({2, 5}, 2), ({7}, 7), ({0, 1}, 0)],
    ids=["second-lower", "first-lower", "second-only", "both-first"],
)
def test_the_lowest_failing_item_is_raised(bad, named, monkeypatch):
    # Equal costs over two processes: the first helper runs the even items
    # and the second the odd ones, each stopping at its first failure.
    use_processes(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"^item {named}$"):
        parallel._fork_map(square_or_raise(bad), range(8), [1] * 8)
    assert_no_helper_left()


def test_errstate_at_the_caller_holds_in_a_helper(monkeypatch):
    use_processes(monkeypatch, 2)
    scale = lambda x: np.float64(1e308) * x  # noqa: E731
    with np.errstate(over="raise"):
        # Item 1 runs in the second helper.
        with pytest.raises(FloatingPointError, match="overflow"):
            parallel._fork_map(scale, [1.0, 10.0], [1, 1])
    with np.errstate(over="ignore"):
        assert parallel._fork_map(scale, [1.0, 10.0], [1, 1]) == [1e308, np.inf]
    assert_no_helper_left()


def test_a_helper_runs_nested_calls_serially(monkeypatch):
    use_processes(monkeypatch, 2)
    inner = lambda _: parallel._fork_map(lambda _: os.getpid(), range(4), [1] * 4)  # noqa: E731
    # Each item runs in a helper of its own, which runs its nested call
    # alone; at the top level the same call forks.
    outer = parallel._fork_map(inner, range(2), [1, 1])
    assert outer[0] == [outer[0][0]] * 4 and outer[1] == [outer[1][0]] * 4
    assert len({outer[0][0], outer[1][0], os.getpid()}) == 3
    assert len(set(inner(None))) == 2
    assert_no_helper_left()


def test_a_helper_that_dies_is_named_and_reaped(monkeypatch):
    use_processes(monkeypatch, 2)

    def fn(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="before writing its results"):
        parallel._fork_map(fn, range(2), [1, 1])
    assert_no_helper_left()


def test_an_interrupted_caller_kills_and_reaps_its_helpers(monkeypatch):
    use_processes(monkeypatch, 3)

    def fn(x):
        # One helper sends the caller a Ctrl-C while all three are busy.
        if x == 0:
            os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        parallel._fork_map(fn, range(3), [1, 1, 1])
    assert time.perf_counter() - start < 30
    assert_no_helper_left()


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_a_ctrl_c_right_after_a_memory_file_is_made_closes_it(monkeypatch):
    # The SIGINT arrives once the first memory file is made, before its helper is forked.
    use_processes(monkeypatch, 2)
    memfd_create = os.memfd_create

    def interrupted(*args):
        fd = memfd_create(*args)
        os.kill(os.getpid(), signal.SIGINT)
        return fd

    before = open_fds()
    with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
        patch.setattr(os, "memfd_create", interrupted)
        parallel._fork_map(lambda x: x, range(2), [1, 1])
    assert_no_helper_left()
    assert open_fds() == before


def world_by_process(monkeypatch):
    """A six-client round at two processes, with the ids of the clients
    that each helper trains (the helper with the lowest id first), found
    by dealing the same costs."""
    cfg = small_cfg(num_clients=6)
    train, test, shards, params, clients = make_world(cfg)
    active = [s for s in shards if len(s)]
    use_processes(monkeypatch, 2)
    owners = parallel._fork_map(lambda _: os.getpid(), active, [len(s) for s in active])
    ids = sorted([s.client_id for s, pid in zip(active, owners) if pid == owner] for owner in set(owners))
    assert len(ids) == 2

    def round_one(diverging=()):
        # A client whose samples are all NaN diverges in its first step.
        images = train.images.copy()
        for shard in shards:
            if shard.client_id in diverging:
                images[shard.indices] = np.nan
        data = Dataset(images, train.labels, train.num_classes)
        with np.errstate(all="ignore"):
            return federation.run_round(params, GlobalPrototypeSet.empty(0), clients, cfg, 1, data, test)

    return round_one, ids


@pytest.mark.parametrize("lower_in", [0, 1])
def test_divergence_names_the_lowest_client_across_processes(lower_in, monkeypatch):
    round_one, ids = world_by_process(monkeypatch)
    lower, higher = min(ids[lower_in]), max(ids[1 - lower_in])
    assert lower < higher
    with pytest.raises(DivergenceError, match=f"^client {lower} diverged"):
        round_one({lower, higher})
    assert_no_helper_left()


@pytest.mark.parametrize("count", PROCESS_COUNTS)
def test_real_divergence_names_the_lowest_client(count, monkeypatch):
    # Every client diverges; each process stops at its first one.
    cfg = small_cfg(num_clients=6, learning_rate=1e300)
    train, test, shards, params, clients = make_world(cfg)
    lowest = min(s.client_id for s in shards if len(s) > cfg.batch_size)
    use_processes(monkeypatch, count)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match=f"^client {lowest} diverged in round 1"):
            federation.run_round(params, GlobalPrototypeSet.empty(0), clients, cfg, 1, train, test)
    assert_no_helper_left()


@pytest.mark.parametrize("failing", [None, 0, 1])
def test_no_helper_is_left_after_a_round(failing, monkeypatch):
    round_one, ids = world_by_process(monkeypatch)
    if failing is None:
        round_one()
    else:
        with pytest.raises(DivergenceError, match=f"^client {ids[failing][0]} diverged"):
            round_one({ids[failing][0]})
    assert_no_helper_left()
