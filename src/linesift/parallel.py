"""Independent units of work on every usable core, with results in item order.

Samples never see each other before the loss, and a sample's 512-token
segments never see each other before the statement level, so a training
step's samples, an evaluation's predicts and a long sample's segments are
independent units of work. numpy releases the GIL in matmul and ufuncs, so
a few threads run them side by side.

All maps share one process-wide pool of one thread fewer than the cores
this process may run on, created by the first map. Each map puts a helper
on every pool thread, and the helpers and the calling thread take items
from one shared counter, so the calling thread makes up the last worker.
``taskset -c 0`` gives no pool thread, and every map runs inline. A map
started while an item runs (a ``predict`` inside an evaluation's map, a
sample's segments inside a training step's) runs inline too. OpenBLAS is
held at one thread while a map runs, so that the threads do not
oversubscribe the cores, and restored after it. Where no OpenBLAS thread
setter is found, maps run inline.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import nullcontext
from functools import cache

from . import tensor as T

__all__ = ["map_ordered", "backward_sum", "usable_cores"]


class _Running(threading.local):
    item = False  # this thread is running an item of a map


_running = _Running()


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


@cache
def _blas_thread_controls() -> tuple:
    """(get, set) of ``num_threads`` for each loaded OpenBLAS (numpy's and
    scipy's each bring one)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return ()
    controls = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    put.argtypes, put.restype = (ctypes.c_int,), None
                    controls.append((get, put))
    return tuple(controls)


@cache
def _pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, thread_name_prefix="linesift")


def map_ordered(fn, items):
    """Yield ``fn(item)`` for each item, in item order, computed on the pool's
    threads and on the consumer's. Each call runs under the grad mode that
    the iteration begins in; an item's exception is raised at that item's
    turn.

    Every thread takes the next item that no thread has taken from one
    shared counter: the pool's threads until none is left, the consumer
    while its next result is not ready, so that no item waits for a thread
    while the consumer idles.
    """
    items = list(items)
    controls = _blas_thread_controls()
    if len(items) <= 1 or usable_cores() <= 1 or not controls or _running.item:
        yield from map(fn, items)
        return
    grad_enabled = T._grad_mode.enabled  # thread-local: pool threads start enabled
    indices = iter(range(len(items)))  # next() is atomic under the GIL
    slots = [Future() for _ in items]

    def run(i):
        _running.item = True
        try:
            with nullcontext() if grad_enabled else T.no_grad():
                slots[i].set_result(fn(items[i]))
        except Exception as exc:  # raised at its turn
            slots[i].set_exception(exc)
        finally:
            _running.item = False

    def helper():
        for i in indices:
            run(i)

    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    threads = usable_cores() - 1
    helpers = [_pool(threads).submit(helper) for _ in range(threads)]
    try:
        for slot in slots:
            while not slot.done() and (i := next(indices, None)) is not None:
                run(i)
            yield slot.result()
    finally:
        for _ in indices:  # leave no item for a helper to start
            pass
        wait([h for h in helpers if not h.cancel()])
        for (_, put), count in zip(controls, previous):
            put(count)


def backward_sum(losses) -> float:
    """Build and differentiate each loss of ``losses`` (zero-argument
    callables returning a scalar Tensor, one per sample) on its own, via
    ``map_ordered``, and return the sum of their values. Each graph is
    built inside its task, and its backward frees it as the walk goes.

    Each loss's leaf gradients go into a map of their own, which is added
    into running totals, and then dropped, as soon as the maps before it
    have been, so the totals do not depend on the worker count. The totals
    are then added into the leaves' ``.grad``.
    """
    def unit(build):
        loss = build()
        grads: dict = {}
        loss.backward(into=grads)
        return loss.item(), grads

    total = 0.0
    sums: dict = {}
    for value, grads in map_ordered(unit, losses):
        total += value
        for leaf, g in grads.items():
            if leaf in sums:
                sums[leaf] += g
            else:
                sums[leaf] = g.copy()  # map arrays may be shared; this one is ours
    for leaf, g in sums.items():
        leaf.grad = g if leaf.grad is None else leaf.grad + g
    return total
