"""Per-sample work on every usable core, with results in item order.

Samples never see each other before the loss, so a training step's samples
(and an evaluation's predicts) are independent units of work. numpy releases
the GIL in matmul and ufuncs, so a few threads run them side by side.

The worker count is the number of cores this process may run on
(``taskset -c 0`` gives one worker, which runs inline and starts no
thread). OpenBLAS is held at one thread while a map runs, so that the
workers do not oversubscribe the cores, and restored after it. Where no
OpenBLAS thread setter is found, maps run inline.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import cache

from . import tensor as T

__all__ = ["map_ordered", "backward_sum", "usable_cores"]


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


def map_ordered(fn, items):
    """Yield ``fn(item)`` for each item, in item order, computed on up to one
    thread per usable core, which run ahead of the consumer. Each call runs
    under the grad mode that the iteration begins in."""
    items = list(items)
    workers = min(len(items), usable_cores())
    controls = _blas_thread_controls()
    if workers <= 1 or not controls:
        yield from map(fn, items)
        return
    grad_enabled = T._grad_mode.enabled  # thread-local: workers start enabled

    def task(item):
        with nullcontext() if grad_enabled else T.no_grad():
            return fn(item)

    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        with ThreadPoolExecutor(workers) as pool:
            yield from pool.map(task, items)
    finally:
        for (_, put), count in zip(controls, previous):
            put(count)


def backward_sum(losses) -> float:
    """Build and differentiate each loss of ``losses`` (zero-argument
    callables returning a scalar Tensor, one per sample) on its own, via
    ``map_ordered``, and return the sum of their values.

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
