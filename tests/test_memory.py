"""Peak heap of the FP pass, layerwise calibration, a forward and a
container load.

Measured with ``tracemalloc``, which numpy reports its array buffers to.
Each bound is stated in units of the arrays involved, so the checks do not
depend on the model size chosen here.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from bbcq.calibration import CalibConfig, cache_fp_pass, calibrate, layer_caches
from bbcq.data import generate_dataset
from bbcq.model import ModelSpec, forward, init_model
from bbcq.serialize import load_dataset, load_model, save_dataset, save_model
from bbcq.tensor import gelu

# The first GeLU loads scipy's erf. Run here, that load can never land inside
# a measured region and be counted as the region's memory.
gelu(np.zeros(1))


def _peak_bytes(run) -> int:
    """Peak heap allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _setup(num_blocks, samples, embed_dim=32):
    spec = ModelSpec(num_blocks=num_blocks, embed_dim=embed_dim, num_heads=4,
                     patch_count=16, num_classes=10, init_seed=3)
    x, y = generate_dataset(samples, spec.patch_count, spec.embed_dim,
                            spec.num_classes, seed=4)
    return init_model(spec), x, y


def _widest_bytes(model, x) -> int:
    """W: the bytes of one batch-sized array of a block's widest
    intermediate, the MLP hidden activation or the attention scores."""
    return len(x) * model.spec.widest * 8


def _fp_pass_peak(model, x, y, layerwise=False) -> tuple[int, int]:
    """(peak heap of the FP pass, bytes of the distinct arrays it caches).
    Layerwise, the pass is followed by each block's ``layer_caches`` in
    turn, the last block's units dropped first, as ``calibrate`` holds
    them, and the cached bytes count one block's units as well."""
    held = {}

    def run():
        held["fp"] = fp = cache_fp_pass(model, x, y)
        for cache in fp.caches if layerwise else ():
            held.pop("units", None)
            held["units"] = layer_caches(model, cache)

    peak = _peak_bytes(run)
    cached = {id(values): values.nbytes
              for cache in held["fp"].caches + held.get("units", [])
              for values in (cache.block_input, *cache.outputs, *cache.grads)}
    return peak, sum(cached.values())


@pytest.mark.parametrize("layerwise,widest", [(False, 5.0), (True, 3.0)],
                         ids=["blockwise", "layerwise"])
def test_fp_pass_peaks_one_block_backward_over_its_caches(layerwise, widest):
    """Beyond the arrays it returns, the pass, and layerwise each block's
    rebuild, holds one block backward's working set: below 5 W blockwise
    and 3 W layerwise (about 4.3 W and 1.6 W here), W being
    ``_widest_bytes``."""
    model, x, y = _setup(num_blocks=2, samples=16)
    peak, cached = _fp_pass_peak(model, x, y, layerwise)
    assert peak < cached + widest * _widest_bytes(model, x), \
        ((peak - cached) / _widest_bytes(model, x))


def test_blockwise_fp_pass_keeps_only_what_backward_reads():
    """Each block backward's values die before the next block's backward,
    and the caches take the pass's arrays rather than copies, so the
    blockwise pass holds as much beyond its caches at four blocks as at
    two, within 0.5 W."""
    over = []
    for num_blocks in (2, 4):
        model, x, y = _setup(num_blocks=num_blocks, samples=16)
        peak, cached = _fp_pass_peak(model, x, y)
        over.append((peak - cached) / _widest_bytes(model, x))
    assert abs(over[1] - over[0]) < 0.5, over


def test_layerwise_fp_pass_peaks_near_the_caches_it_returns():
    """The block caches and one block's rebuilt units are most of what the
    pass and the rebuilds hold at their peak; a copy of them on top would
    put the peak past twice their bytes."""
    model, x, y = _setup(num_blocks=2, samples=16)
    peak, cached = _fp_pass_peak(model, x, y, layerwise=True)
    assert peak <= 1.75 * cached, (peak, cached)


def test_layerwise_calibrate_peak_grows_only_by_block_caches(monkeypatch):
    """Layerwise ``calibrate`` holds one block's units at a time, so from
    two blocks to four its peak grows by the two added blocks' cached
    output and output gradient, within 0.5 W (0.12 W here); keeping every
    block's units for the whole search adds two blocks' units (11.6 W)."""
    monkeypatch.setenv("BBCQ_THREADS", "1")
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=2, rounds=1,
                         blocks_as_layers=True)
    peaks = []
    for num_blocks in (2, 4):
        model, x, y = _setup(num_blocks=num_blocks, samples=16)
        peaks.append(_peak_bytes(lambda: calibrate(model, x, y, config)))
    # Two arrays per added block, each of the input's (batch, patches,
    # embed_dim) shape.
    added = 2 * 2 * x.nbytes
    assert peaks[1] - peaks[0] <= added + 0.5 * _widest_bytes(model, x), \
        ((peaks[1] - peaks[0] - added) / _widest_bytes(model, x))


def test_untaped_forward_peak_does_not_grow_with_depth():
    """No block output outlives the block that reads it, so four blocks
    peak where one does."""
    peaks = []
    for num_blocks in (1, 4):
        model, x, _ = _setup(num_blocks, samples=256)
        peaks.append(_peak_bytes(lambda: forward(model, x)) / x.nbytes)
    assert abs(peaks[1] - peaks[0]) < 0.5, peaks


@pytest.mark.parametrize("kind", ["dataset", "model"])
def test_container_load_copies_each_tensor_once(tmp_path, kind):
    """The load holds the file bytes plus one copy of each tensor; the
    finite check's boolean mask adds an eighth of the float bytes."""
    path = tmp_path / f"{kind}.bbcv"
    if kind == "dataset":
        x, y = generate_dataset(256, 16, 64, 10, seed=1)
        save_dataset(x, y, path)
        load = load_dataset
    else:
        save_model(init_model(ModelSpec(2, 64, 4, 16, 10)), path)
        load = load_model
    size = path.stat().st_size
    assert _peak_bytes(lambda: load(path)) < 2.25 * size
