"""Toy vision-transformer post-training quantization toolkit.

A float64 numpy stack end to end: plain array ops, a pre-norm ViT-style
classifier with per-matmul quantization hooks and a hand-written block
backward, a zoo of uniform/log/twin/max-anchored quantizers, blockwise
Hessian-guided scale search with bottom elimination, entropy/agreement
analysis, and a deterministic CLI.
"""

__version__ = "0.1.0"

from .calibration import (BlockCache, CalibConfig, CalibInstrumentation,
                          CalibResult, bbc_metric, bottom_mask,
                          bottom_threshold, cache_fp_pass, calibrate,
                          candidate_scales, layer_caches, load_result,
                          save_result, search_site, total_blockwise_metric,
                          worker_pool)
from .data import generate_dataset, synthetic_scores
from .errors import (BBCQError, ConfigError, ContractError,
                     DegenerateRangeError, DegenerateScaleError,
                     DimensionError, FormatError, LabelIndexError, LengthError,
                     MagicError, ManifestError, NonFiniteError, ParameterError,
                     VersionError)
from .metrics import (EvalMetrics, QuantReportRow, code_entropy,
                      compare_softmax_quantizers, evaluate)
from .model import (BlockCarry, MatmulSite, Model, ModelSpec, block_backward,
                    block_forward, block_prefix, enumerate_sites, forward,
                    forward_from, init_model)
from .quantizers import (CodeTensor, DynamicSoftmax, QuantParams, dequantize,
                         fake_quant_array, quantize, round_half_away)
from .serialize import (load_dataset, load_model, save_dataset, save_model,
                        serialize_dataset, serialize_model)
from .tensor import add, cross_entropy, gelu, layernorm, matmul, softmax

__all__ = [
    "__version__",
    # array ops
    "add", "cross_entropy", "gelu", "layernorm", "matmul", "softmax",
    # quantizers
    "CodeTensor", "DynamicSoftmax", "QuantParams", "dequantize",
    "fake_quant_array", "quantize", "round_half_away",
    # model + serialization
    "BlockCarry", "MatmulSite", "Model", "ModelSpec", "block_backward",
    "block_forward", "block_prefix", "enumerate_sites", "forward",
    "forward_from", "init_model", "load_dataset", "load_model",
    "save_dataset", "save_model", "serialize_dataset", "serialize_model",
    # calibration
    "BlockCache", "CalibConfig", "CalibInstrumentation", "CalibResult",
    "bbc_metric", "bottom_mask", "bottom_threshold", "cache_fp_pass",
    "calibrate", "candidate_scales", "layer_caches", "load_result",
    "save_result",
    "search_site", "total_blockwise_metric", "worker_pool",
    # metrics + data
    "EvalMetrics", "QuantReportRow", "code_entropy",
    "compare_softmax_quantizers", "evaluate",
    "generate_dataset", "synthetic_scores",
    # errors
    "BBCQError", "ConfigError", "ContractError", "DegenerateRangeError",
    "DegenerateScaleError", "DimensionError", "FormatError",
    "LabelIndexError", "LengthError", "MagicError", "ManifestError",
    "NonFiniteError", "ParameterError", "VersionError",
]
