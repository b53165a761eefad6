"""Seeded synthetic data: labeled patch features and attention-like scores."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

SYNTHETIC_KINDS = ("powerlaw", "gaussian")


def generate_dataset(num_samples: int, patch_count: int, embed_dim: int,
                     num_classes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian patch features with labels from a hidden linear rule.

    The rule matrix is drawn first from the seeded stream, then the inputs;
    each label is the argmax of the sample's patch-mean pushed through the
    rule, so accuracy on this data is learnable signal rather than noise.
    Same arguments, same bytes; ``seed`` must be >= 0.
    """
    if num_samples < 1:
        raise ParameterError(f"num_samples must be >= 1, got {num_samples}")
    if patch_count < 1 or embed_dim < 1:
        raise ParameterError(
            f"patch_count/embed_dim must be >= 1, got {patch_count}/{embed_dim}")
    if num_classes < 2:
        raise ParameterError(f"num_classes must be >= 2, got {num_classes}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    rule = rng.normal(size=(embed_dim, num_classes))
    inputs = rng.normal(size=(num_samples, patch_count, embed_dim))
    labels = np.argmax(inputs.mean(axis=1) @ rule, axis=1).astype(np.int64)
    return inputs, labels


def synthetic_scores(kind: str, rows: int, cols: int, seed: int,
                     exponent: float = 2.0) -> np.ndarray:
    """Pre-softmax score rows for quantizer comparisons.

    ``powerlaw`` rows softmax into a heavy-tailed distribution: sorted rank
    probabilities decay as rank^-exponent, shuffled per row with mild jitter
    (this is the regime where a handful of large attention weights dominate).
    ``gaussian`` rows are plain normal scores, which softmax into
    near-uniform rows. ``seed`` must be >= 0 and ``exponent`` finite.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ParameterError(
            f"synthetic kind must be one of {SYNTHETIC_KINDS}, got {kind!r}")
    if rows < 1 or cols < 2:
        raise ParameterError(f"need rows >= 1 and cols >= 2, got {rows}x{cols}")
    if seed < 0 or not np.isfinite(exponent):
        raise ParameterError(
            f"need seed >= 0 and a finite exponent, got {seed}, {exponent}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "gaussian":
        return rng.normal(size=(rows, cols))
    ranks = np.arange(1, cols + 1, dtype=np.float64)
    base = ranks ** -float(exponent)
    scores = np.empty((rows, cols))
    for r in range(rows):
        jitter = rng.uniform(0.8, 1.25, size=cols)
        weights = base * jitter
        rng.shuffle(weights)
        scores[r] = np.log(weights)
    return scores
