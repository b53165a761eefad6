"""One worker pool, the caller being one of its threads.

``shared_map`` has the caller and a pool's workers take items until none is
left, under the caller's numpy error state. A pooled sliced block forward
runs slices of ``_slice_rows // threads`` samples on it and must give the
serial bits; ``calibrate`` and ``evaluate`` called from several threads at
once, each on its own pool, must give the serial bytes and metrics.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcq import model as model_module
from bbcq.calibration import CalibConfig, calibrate
from bbcq.data import generate_dataset
from bbcq.metrics import evaluate
from bbcq.model import (ModelSpec, WorkerPool, block_forward, forward,
                        init_model, shared_map)

SPEC = ModelSpec(num_blocks=2, embed_dim=32, num_heads=2, patch_count=16,
                 num_classes=4, init_seed=3)
#: 2**17 // (16 patches * 128 hidden), the serial slice.
ROWS = 64
#: Full precision, a static state and a dynamic-softmax state.
SETTINGS = [None, ("mpq", False), ("twin", True)]


@pytest.fixture(scope="module")
def pools():
    """threads -> the caller plus a pool of threads - 1 workers (None at 1)."""
    with ThreadPoolExecutor(max_workers=1) as one, \
            ThreadPoolExecutor(max_workers=2) as two:
        yield {1: None, 2: WorkerPool(one, 2), 3: WorkerPool(two, 3)}


@pytest.fixture(scope="module")
def model():
    return init_model(SPEC)


@pytest.fixture(scope="module")
def states(model):
    """setting -> the quant state of a W4A4 result under it; None for FP."""
    cx, cy = generate_dataset(16, SPEC.patch_count, SPEC.embed_dim,
                              SPEC.num_classes, seed=1)
    found = {None: None}
    for scheme, dynamic in SETTINGS[1:]:
        found[(scheme, dynamic)] = calibrate(model, cx, cy, CalibConfig(
            w_bits=4, a_bits=4, num_candidates=2, rounds=1, calib_batch=16,
            softmax_quantizer=scheme, dynamic_softmax=dynamic)).quant_state()
    return found


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(threads=st.sampled_from([1, 2, 3]), slices=st.integers(1, 4),
       offset=st.integers(-1, 1), setting=st.sampled_from(SETTINGS))
def test_pooled_sliced_forward_equals_the_serial_one(pools, model, states,
                                                     threads, slices, offset,
                                                     setting):
    """Batches around multiples of the per-thread slice give the serial
    bits, in ``block_forward`` (also in place) and in ``forward``."""
    assert model_module._slice_rows(SPEC) == ROWS
    pool, quant = pools[threads], states[setting]
    samples = max(1, slices * (ROWS // threads) + offset)
    x, _ = generate_dataset(samples, SPEC.patch_count, SPEC.embed_dim,
                            SPEC.num_classes, seed=samples)
    block_input = x @ model.embed_w
    in_place = block_input.copy()
    serial = block_forward(model, 0, block_input, quant)
    pooled = block_forward(model, 0, block_input, quant, executor=pool)
    assert np.array_equal(_bits(pooled), _bits(serial))
    block_forward(model, 0, in_place, quant, out=in_place, executor=pool)
    assert np.array_equal(_bits(in_place), _bits(serial))
    assert np.array_equal(
        _bits(forward(model, x, quant, executor=pool)),
        _bits(forward(model, x, quant)))


@pytest.mark.parametrize("threads, slices", [(1, [ROWS] * 3 + [5]),
                                             (2, [ROWS // 2] * 6 + [5]),
                                             (3, [ROWS // 3] * 9 + [8])])
def test_pooled_slices_shrink_per_thread(pools, model, monkeypatch, threads,
                                         slices):
    """n threads run slices of ``_slice_rows // n`` samples, so together
    they hold about one serial slice's working set."""
    sizes = []
    run_stages = model_module._run_stages
    monkeypatch.setattr(model_module, "_run_stages",
                        lambda model, block, x, *args: sizes.append(x.shape[0])
                        or run_stages(model, block, x, *args))
    x, _ = generate_dataset(3 * ROWS + 5, SPEC.patch_count, SPEC.embed_dim,
                            SPEC.num_classes, seed=2)
    block_forward(model, 0, x @ model.embed_w, executor=pools[threads])
    assert sorted(sizes, reverse=True) == slices


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_shared_map_keeps_item_order(pools, threads):
    def slow_square(i):
        time.sleep(0.001 * (i % 3))
        return i * i

    assert shared_map(slow_square, range(20), pools[threads]) == \
        [i * i for i in range(20)]
    assert shared_map(slow_square, [], pools[threads]) == []


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_shared_map_raises_the_first_failed_item_once_all_threads_stop(
        pools, threads):
    """Item 1 fails slowly, item 3 at once: the error raised is item 1's, as
    in a serial map, and no item is still running when it is raised."""
    running, lock = set(), threading.Lock()

    def run(i):
        with lock:
            running.add(i)
        try:
            time.sleep(0.05 if i == 1 else 0.01)
            if i in (1, 3):
                raise ValueError(i)
            return i
        finally:
            with lock:
                running.discard(i)

    with pytest.raises(ValueError) as failed:
        shared_map(run, range(8), pools[threads])
    assert failed.value.args == (1,)
    assert running == set()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("over", ["raise", "warn", "ignore"])
def test_shared_map_runs_every_thread_under_the_callers_error_state(
        pools, threads, over):
    """An overflow raises, warns or passes as the caller's ``np.errstate``
    says, on any thread count. A barrier holds each item until every thread
    has one, so the pool's worker really runs one."""
    barrier = threading.Barrier(threads)

    def overflow(value):
        barrier.wait(timeout=60)
        return np.multiply(value, 10.0)

    items = [np.float64(1e308)] * threads
    with np.errstate(over=over):
        if over == "raise":
            with pytest.raises(FloatingPointError):
                shared_map(overflow, items, pools[threads])
        elif over == "warn":
            with pytest.warns(RuntimeWarning, match="overflow") as record:
                got = shared_map(overflow, items, pools[threads])
            assert len(record) == threads
            assert got == [np.inf] * threads
        else:
            assert shared_map(overflow, items, pools[threads]) == [np.inf] * threads


# ---------------------------------------------------------------------------
# concurrent callers

#: Caller threads of the concurrency tests; each builds its own pool, so at
#: most 2 * CALLERS threads run at once.
CALLERS = 4
CONFIGS = [CalibConfig(w_bits=3, a_bits=4, num_candidates=3, rounds=1,
                       softmax_quantizer=scheme, dynamic_softmax=dynamic,
                       blocks_as_layers=layerwise)
           for scheme in ("mpq", "twin") for dynamic in (False, True)
           for layerwise in (False, True)]


def _small_model():
    spec = ModelSpec(num_blocks=2, embed_dim=16, num_heads=2, patch_count=4,
                     num_classes=4, init_seed=7)
    x, y = generate_dataset(6, spec.patch_count, spec.embed_dim,
                            spec.num_classes, seed=107)
    return init_model(spec), x, y


def _in_callers(fn, items):
    """``[fn(item) for item in items]``, run from CALLERS threads at once."""
    with ThreadPoolExecutor(max_workers=CALLERS) as callers:
        return list(callers.map(fn, items))


def test_concurrent_calibrate_calls_give_the_serial_bytes(monkeypatch):
    """Four threads each calibrate, each with its own FP pass and its own
    2-thread pool, and every result equals the serial run's bytes."""
    model, x, y = _small_model()
    monkeypatch.setenv("BBCQ_THREADS", "1")
    serial = [calibrate(model, x, y, config).dumps() for config in CONFIGS]
    monkeypatch.setenv("BBCQ_THREADS", "2")
    assert _in_callers(lambda c: calibrate(model, x, y, c).dumps(),
                       CONFIGS * 2) == serial * 2


def test_concurrent_evaluate_calls_give_the_serial_metrics(monkeypatch):
    """Four threads each evaluate sliced batches on their own 2-thread
    pool, and every metric equals the serial one."""
    monkeypatch.setenv("BBCQ_THREADS", "1")
    cx, cy = generate_dataset(16, SPEC.patch_count, SPEC.embed_dim,
                              SPEC.num_classes, seed=1)
    model = init_model(SPEC)
    results = [None] + [calibrate(model, cx, cy, CalibConfig(
        w_bits=4, a_bits=4, num_candidates=2, rounds=1, calib_batch=16,
        softmax_quantizer=scheme, dynamic_softmax=dynamic))
        for scheme, dynamic in SETTINGS[1:]]
    x, y = generate_dataset(2 * ROWS + 3, SPEC.patch_count, SPEC.embed_dim,
                            SPEC.num_classes, seed=2)
    serial = [evaluate(model, result, x, y) for result in results]
    monkeypatch.setenv("BBCQ_THREADS", "2")
    assert _in_callers(lambda r: evaluate(model, r, x, y), results * 2) == serial * 2
