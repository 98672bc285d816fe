"""The pool: item order, inline runs, grad mode, BLAS threads, errors."""

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


def joined_by_a_second_thread(fn):
    """``fn`` made to wait (up to 5 s) until two threads have run items, so
    that the caller cannot run every item before the pool thread starts."""
    seen = set()
    both = threading.Event()

    def item(i):
        seen.add(threading.get_ident())
        if len(seen) > 1:
            both.set()
        both.wait(5)
        return fn(i)

    return item


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
    assert len({ident for _, ident in out}) > 1


@needs_blas_setter
def test_each_item_runs_once(monkeypatch):
    runs = []

    def item(i):
        runs.append(i)
        time.sleep(0.002 * (i % 3))
        return i

    for cores in (2, 3):
        monkeypatch.setattr(parallel, "usable_cores", lambda cores=cores: cores)
        runs.clear()
        assert list(parallel.map_ordered(item, range(12))) == list(range(12))
        assert sorted(runs) == list(range(12))


@needs_blas_setter
def test_caller_takes_the_next_item(two_cores):
    caller = threading.get_ident()
    item_1_started = threading.Event()
    on_caller = []

    def item(i):
        if threading.get_ident() == caller:
            on_caller.append(i)
        if i == 1:
            item_1_started.set()
        elif i == 0:
            item_1_started.wait(5)
        return i

    assert list(parallel.map_ordered(item, range(6))) == list(range(6))
    assert on_caller[0] in (0, 1)


@needs_blas_setter
def test_workers_inherit_no_grad(two_cores):
    w = T.parameter(np.eye(2))

    def square(_):
        return T.matmul(w, w), threading.get_ident()

    with T.no_grad():
        out = list(parallel.map_ordered(joined_by_a_second_thread(square), range(4)))
    assert len({ident for _, ident in out}) > 1
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
        for cores in (1, 2, 6):
            monkeypatch.setattr(parallel, "usable_cores", lambda cores=cores: cores)
            w.zero_grad()
            sums.append((parallel.backward_sum(losses),
                         w.grad.copy()))
    finally:
        sys.setswitchinterval(previous)
    for value, grad in sums[1:]:
        assert value == sums[0][0] and np.array_equal(grad, sums[0][1])


@needs_blas_setter
def test_items_the_caller_runs_inherit_no_grad(two_cores):
    w = T.parameter(np.eye(2))
    caller = threading.get_ident()
    began = []  # set once the first result is out

    def square(i):
        time.sleep(0.002 if i else 0.0)  # the pool thread cannot run them all
        return T.matmul(w, w), threading.get_ident() == caller and bool(began)

    results = parallel.map_ordered(square, range(40))
    with T.no_grad():  # the iteration begins here; the rest runs with grad on
        out = [next(results)]
    began.append(True)
    out += list(results)
    assert any(late_on_caller for _, late_on_caller in out)
    assert all(t._backward is None and not t.requires_grad for t, _ in out)


@needs_blas_setter
def test_first_failing_items_error_comes_first(two_cores):
    def fail(failing):
        def item(i):
            if i in failing:
                raise RuntimeError(f"item {i}")
            return i
        return item

    with pytest.raises(RuntimeError, match="item 0"):
        list(parallel.map_ordered(fail({0, 3}), range(4)))
    got = []
    with pytest.raises(RuntimeError, match="item 3"):
        for value in parallel.map_ordered(fail({3}), range(4)):
            got.append(value)
    assert got == [0, 1, 2]


def test_nested_map_runs_inline_and_leaves_blas_alone(monkeypatch, two_cores):
    calls = []
    controls = ((lambda: calls.append("get") or 2, lambda n: calls.append(n)),)
    monkeypatch.setattr(parallel, "_blas_thread_controls", lambda: controls)

    def outer(i):
        threads, blas_calls = threading.active_count(), len(calls)
        inner = list(parallel.map_ordered(lambda j: threading.get_ident(), range(3)))
        return (inner == [threading.get_ident()] * 3,
                threading.active_count() == threads, len(calls) == blas_calls)

    out = list(parallel.map_ordered(joined_by_a_second_thread(outer), range(4)))
    assert out == [(True, True, True)] * 4
    assert calls == ["get", 1, 2]


@needs_blas_setter
def test_pool_threads_persist_across_maps(two_cores):
    list(parallel.map_ordered(abs, range(4)))
    threads = threading.active_count()
    for _ in range(50):
        list(parallel.map_ordered(abs, range(4)))
    assert threading.active_count() == threads
