"""The per-sample pool: item order, inline runs, grad mode, BLAS threads."""

import sys
import threading
import time

import numpy as np
import pytest

from linesift import parallel
from linesift import tensor as T

needs_blas_setter = pytest.mark.skipif(
    not parallel._blas_thread_controls(),
    reason="no OpenBLAS thread setter found, so every map runs inline")


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)


def test_one_core_runs_inline(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    main = threading.get_ident()
    assert list(parallel.map_ordered(lambda i: (i, threading.get_ident()), range(3))) \
        == [(0, main), (1, main), (2, main)]


@needs_blas_setter
def test_results_come_in_item_order(two_cores):
    def late_first(i):
        time.sleep(0.02 * (4 - i))  # later items finish first
        return i, threading.get_ident()

    out = list(parallel.map_ordered(late_first, range(5)))
    assert [i for i, _ in out] == list(range(5))
    assert threading.get_ident() not in {ident for _, ident in out}


@needs_blas_setter
def test_workers_inherit_no_grad(two_cores):
    w = T.parameter(np.eye(2))

    def square(_):
        return T.matmul(w, w), threading.get_ident()

    with T.no_grad():
        out = list(parallel.map_ordered(square, range(4)))
    assert threading.get_ident() not in {ident for _, ident in out}
    assert all(t._backward is None and not t.requires_grad for t, _ in out)
    out = list(parallel.map_ordered(square, range(4)))
    assert all(t._backward is not None for t, _ in out)


@needs_blas_setter
def test_blas_threads_held_at_one_then_restored(two_cores):
    controls = parallel._blas_thread_controls()
    original = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        before = [get() for get, _ in controls]
        if max(before) < 2:
            pytest.skip("OpenBLAS runs a single thread at most here")
        seen = list(parallel.map_ordered(lambda _: [get() for get, _ in controls], range(3)))
        assert seen == [[1] * len(controls)] * 3
        assert [get() for get, _ in controls] == before

        def fail(i):
            raise RuntimeError(f"item {i}")

        with pytest.raises(RuntimeError, match="item 0"):
            list(parallel.map_ordered(fail, range(2)))
        assert [get() for get, _ in controls] == before
    finally:
        for (_, put), count in zip(controls, original):
            put(count)


@needs_blas_setter
def test_backward_sum_same_bits_with_more_workers_than_cores(monkeypatch):
    # the workers share the leaves, read-only; a lost or doubled update to
    # a gradient map would change the sum
    rng = np.random.default_rng(7)
    w = T.parameter(rng.normal(size=(16, 16)))
    xs = [T.constant(rng.normal(size=(32, 16))) for _ in range(12)]
    losses = [lambda x=x: T.tanh(T.matmul(T.tanh(T.matmul(x, w)), w)).sum() for x in xs]
    sums = []
    previous = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cores in (1, 6):
            monkeypatch.setattr(parallel, "usable_cores", lambda cores=cores: cores)
            w.zero_grad()
            sums.append((parallel.backward_sum(losses),
                         w.grad.copy()))
    finally:
        sys.setswitchinterval(previous)
    (value, grad), (value6, grad6) = sums
    assert value == value6 and np.array_equal(grad, grad6)
