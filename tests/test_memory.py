"""Peak heap of the FP pass, a forward and a container load.

Measured with ``tracemalloc``, which numpy reports its array buffers to.
Each bound is stated in units of the arrays involved, so the checks do not
depend on the model size chosen here.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from bbcq.calibration import cache_fp_pass
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


def _fp_pass_peak(model, x, y, blocks_as_layers=False) -> tuple[int, int]:
    """(peak heap of the FP pass, bytes of the distinct arrays it caches)."""
    passes = []
    peak = _peak_bytes(lambda: passes.append(
        cache_fp_pass(model, x, y, blocks_as_layers=blocks_as_layers)))
    cached = {id(values): values.nbytes for cache in passes[0].caches
              for values in (cache.block_input, *cache.outputs, *cache.grads)}
    return peak, sum(cached.values())


@pytest.mark.parametrize("blocks_as_layers,widest", [(False, 5.0), (True, 3.0)],
                         ids=["blockwise", "layerwise"])
def test_fp_pass_peaks_one_block_backward_over_its_caches(blocks_as_layers,
                                                          widest):
    """Beyond the arrays it returns, the pass holds one block backward's
    working set: below 5 W blockwise and 3 W layerwise (about 4.3 W and
    2.1 W here), W being ``_widest_bytes``."""
    model, x, y = _setup(num_blocks=2, samples=16)
    peak, cached = _fp_pass_peak(model, x, y, blocks_as_layers)
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
    """The layerwise caches are most of what the pass holds at its peak;
    a copy of them on top would put the peak past twice their bytes."""
    model, x, y = _setup(num_blocks=2, samples=16)
    peak, cached = _fp_pass_peak(model, x, y, blocks_as_layers=True)
    assert peak <= 1.75 * cached, (peak, cached)


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
