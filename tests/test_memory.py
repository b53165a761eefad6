"""Peak heap of the FP pass, an untaped forward and a container load.

Measured with ``tracemalloc``, which numpy reports its array buffers to.
Each bound is stated in units of the arrays involved, so the checks do not
depend on the model size chosen here.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from bbcq import calibration
from bbcq.calibration import cache_fp_pass
from bbcq.data import generate_dataset
from bbcq.model import ModelSpec, forward, init_model
from bbcq.serialize import load_dataset, load_model, save_dataset, save_model
from bbcq.tensor import Tape, Tensor, gelu

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


class _KeepingTape(Tape):
    """A tape that keeps every node alive through the sweep: holding each
    recorded Tensor and closure keeps every forward value, every operand
    and every gradient until the tape dies."""

    def __init__(self):
        super().__init__()
        self.kept = []

    def _append(self, parent_ids, backward, tensor):
        self.kept.append((backward, tensor))
        return super()._append(parent_ids, backward, tensor)


@pytest.mark.parametrize("blocks_as_layers", [False, True],
                         ids=["blockwise", "layerwise"])
def test_fp_pass_peaks_well_below_a_tape_that_keeps_everything(
        monkeypatch, blocks_as_layers):
    model, x, y = _setup(num_blocks=2, samples=16)

    def fp_pass():
        return cache_fp_pass(model, x, y, blocks_as_layers=blocks_as_layers)

    lean = _peak_bytes(fp_pass)
    monkeypatch.setattr(calibration, "Tape", _KeepingTape)
    keeping = _peak_bytes(fp_pass)
    assert lean < 0.5 * keeping, (lean, keeping)


def test_blockwise_fp_pass_keeps_only_what_backward_reads(monkeypatch):
    """Closures that need an operand's shape keep the shape, a product with
    a weight keeps only the weight (a constant needs no gradient), and the
    caches take the pass's arrays rather than copies, so the blockwise pass
    peaks below 0.35 of the keeping tape (about 0.30 at this size)."""
    model, x, y = _setup(num_blocks=2, samples=16)

    def fp_pass():
        return cache_fp_pass(model, x, y)

    lean = _peak_bytes(fp_pass)
    monkeypatch.setattr(calibration, "Tape", _KeepingTape)
    keeping = _peak_bytes(fp_pass)
    assert lean < 0.35 * keeping, (lean, keeping)


def test_layerwise_fp_pass_peaks_near_the_caches_it_returns():
    """The layerwise caches are most of what the pass holds at its peak;
    a copy of them on top would put the peak past twice their bytes."""
    model, x, y = _setup(num_blocks=2, samples=16)
    passes = []
    peak = _peak_bytes(lambda: passes.append(
        cache_fp_pass(model, x, y, blocks_as_layers=True)))
    cached = {id(values): values.nbytes for cache in passes[0].caches
              for values in (cache.block_input, *cache.outputs, *cache.grads)}
    assert peak <= 1.75 * sum(cached.values()), (peak, sum(cached.values()))


def test_untaped_forward_peak_does_not_grow_with_depth():
    """Without a tape no block output outlives the block that reads it, so
    four blocks peak where one does."""
    peaks = []
    for num_blocks in (1, 4):
        model, x, _ = _setup(num_blocks, samples=256)
        inputs = Tensor(x)
        peaks.append(_peak_bytes(lambda: forward(model, inputs)) / x.nbytes)
    assert abs(peaks[1] - peaks[0]) < 0.5, peaks


def test_taped_forward_keeps_the_block_outputs():
    model, x, _ = _setup(num_blocks=2, samples=4)
    with Tape():
        taped = forward(model, x)
    untaped = forward(model, x)
    assert len(taped.block_outputs) == 2 and taped.embed_output is not None
    assert untaped.block_outputs is None and untaped.embed_output is None
    np.testing.assert_array_equal(untaped.logits.data, taped.logits.data)


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
