"""Processes and BLAS threads: forked helpers share independent tasks
(_fork_map), and numpy's bundled OpenBLAS runs on one thread."""

from __future__ import annotations

import ctypes
import logging
import os
import pickle
import signal
import types
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger(__name__)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))  # called only where _CAN_FORK holds


# _fork_map forks only on Linux, where it was verified. Elsewhere it is
# the serial loop: on macOS, for one, system libraries may run threads
# that a fork without exec leaves in an undefined state.
_CAN_FORK = hasattr(os, "sched_getaffinity") and hasattr(os, "memfd_create")

# True in a helper process of _fork_map, which then runs everything serially.
_IN_HELPER = False

# (namespace, name, function) for each public fedpr function as a fedpr
# module bound it at import; fedpr/__init__.py records them.
_BINDINGS: list = []


def _record_bindings(modules) -> None:
    for module in modules:
        namespace = vars(module)
        for name, value in namespace.items():
            if (
                isinstance(value, types.FunctionType)
                and not name.startswith("_")
                and value.__module__.startswith(__package__ + ".")
            ):
                _BINDINGS.append((namespace, name, value))


def _bindings_replaced() -> bool:
    """Whether a program has rebound one of fedpr's public functions in a
    fedpr module, as a tracer or a test double does. The replacement's
    side effects (counts, timings, records) live in the process that
    calls it, so _fork_map then keeps every call in the caller."""
    return any(namespace.get(name) is not fn for namespace, name, fn in _BINDINGS)


def _fork_map(fn: Callable, items: Sequence, costs: Sequence[float]) -> list:
    """[fn(item) for item in items], shared by one forked helper process per
    usable CPU, at most one per item.

    Items are dealt longest first, by ``costs``, each to the helper with
    the least cost so far. Each helper runs its share in item order,
    stops at its first exception, and writes its results, or that
    exception, to a memory file of its own before it exits. The caller
    runs no share and waits for every helper before it reads any file,
    so it writes no memory that a live helper shares and takes no
    copy-on-write fault. Results come back in item order. The exception
    raised is that of the lowest failing item, the one a serial loop
    would raise. Helpers are reaped and memory files closed on every
    path, and helpers killed first if the caller is interrupted. With one
    usable CPU, inside a helper, off Linux, or once a public function is
    rebound (_bindings_replaced), this is the serial loop.
    """
    serial = _IN_HELPER or not _CAN_FORK or _bindings_replaced()
    processes = 1 if serial else min(_usable_cpus(), len(items))
    if processes <= 1:
        return [fn(item) for item in items]
    shares, loads = [[] for _ in range(processes)], [0.0] * processes
    for i in sorted(range(len(items)), key=lambda i: -costs[i]):
        p = loads.index(min(loads))
        shares[p].append(i)
        loads[p] += costs[i]
    files, pids, statuses = [], [], []
    try:
        try:
            for share in shares:
                # Ctrl-C waits until the memory file is in ``files`` and the
                # fork is recorded on both sides: its KeyboardInterrupt would
                # leak the file's descriptor, be lost in an at-fork handler,
                # or run the caller's code in the helper.
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    files.append(open(os.memfd_create("fedpr-fork-map"), "w+b"))
                    pid = os.fork()
                    if pid == 0:
                        _helper(fn, items, sorted(share), files[-1], mask)
                    pids.append(pid)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for pid in pids:
                statuses.append(os.waitpid(pid, 0)[1])
        except BaseException:
            for pid in pids[len(statuses) :]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        results, failures = {}, []
        for pid, status, out in zip(pids, statuses, files):
            if os.waitstatus_to_exitcode(status) != 0:
                raise RuntimeError(f"helper process {pid} ended (wait status {status}) before writing its results")
            out.seek(0)
            share_results, failure = pickle.load(out)
            results.update(share_results)
            if failure is not None:
                failures.append(failure)
    finally:
        for out in files:
            out.close()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[i] for i in range(len(items))]


def _helper(fn: Callable, items: Sequence, share: list[int], out, mask) -> None:
    """A forked helper's whole life: restore the caller's signal mask, run
    its share up to its first exception, pickle ({index: result}, (index,
    exception) or None) into its memory file, and leave through os._exit,
    so nothing of the caller's process (atexit handlers, buffered output,
    the caller's own frames) runs twice."""
    global _IN_HELPER
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _IN_HELPER = True
        results, failure = {}, None
        for i in share:
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                failure = (i, exc)
                break
        # Protocol 5 writes each array's bytes once, and the caller
        # rebuilds the array on the buffer it reads them into.
        pickle.dump((results, failure), out, protocol=5)
        out.flush()
        code = 0
    finally:
        os._exit(code)


def _pin_blas_threads() -> bool:
    """Run numpy's bundled OpenBLAS on one thread; returns whether it took.

    The low-order bits of a GEMM depend on how many threads split it, so
    pinning makes results independent of OPENBLAS_NUM_THREADS. The pin
    holds for the whole process, the host program's GEMMs included.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas*"))
    if not found:
        log.warning("BLAS threads not pinned: no libscipy_openblas* in %s", libs)
        return False
    try:
        set_threads = ctypes.CDLL(str(found[0])).scipy_openblas_set_num_threads64_
    except (OSError, AttributeError) as exc:
        log.warning("BLAS threads not pinned: %s", exc)
        return False
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)
    return True


_BLAS_PINNED = _pin_blas_threads()
