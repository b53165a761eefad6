"""Blockwise Hessian-guided scale search with bottom elimination.

Calibration runs one full-precision forward/backward over the calibration
batch, caching only block-level tensors: each block's input, output, and the
loss gradient at the output (whose elementwise square is the diagonal
second-order sensitivity). Scale candidates for every matmul operand are then
scored by re-forwarding just the owning block from its cached input and
measuring the sensitivity-weighted squared output drift, with the smallest
error magnitudes masked out ("bottom elimination"). The stages before the
searched matmul are shared by all candidates of a site, so each candidate
resumes from a carry at that matmul. Sites are visited in reverse execution
order per block and each layer's activation/weight pair is alternated for a
fixed number of rounds.

``blocks_as_layers=True`` degrades the unit of caching/scoring from a whole
block to one matmul, which is the plain layerwise Hessian baseline.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .errors import (ConfigError, ContractError, DegenerateRangeError,
                     DimensionError, ParameterError)
from .model import (BLOCK_KINDS, BlockCarry, MatmulSite, Model, block_carry,
                    block_forward, forward, json_value, record_fields)
from .quantizers import (EPSILON, SCHEMES, QuantParams, minmax_affine_params,
                         round_half_away, softmax_site_params)
from .tensor import Tape, Tensor, cross_entropy, require_finite

PROFILES = ("classification", "detection")

#: (alpha, beta) search-range defaults per task profile.
PROFILE_RANGES = {"classification": (0.0, 1.2), "detection": (0.5, 1.2)}


@dataclass(frozen=True)
class CalibConfig:
    """Knobs of the calibration search.

    Defaults: 8-bit weights/activations, 100 grid candidates plus the min-max
    baseline, 3 alternation rounds, 10th-percentile bottom elimination, and
    the max-anchored softmax quantizer in static (calibration-time) mode.
    """

    w_bits: int = 8
    a_bits: int = 8
    gamma: float = 10.0
    alpha: float = 0.0
    beta: float = 1.2
    num_candidates: int = 100
    rounds: int = 3
    softmax_quantizer: str = "mpq"
    dynamic_softmax: bool = False
    calib_batch: int = 32
    blocks_as_layers: bool = False
    profile: str = "classification"

    def __post_init__(self):
        for name in ("w_bits", "a_bits"):
            bits = getattr(self, name)
            if not isinstance(bits, int) or not 2 <= bits <= 8:
                raise ParameterError(f"{name} must be an integer in [2, 8], got {bits}")
        if not 0.0 <= self.gamma <= 100.0:
            raise ParameterError(f"gamma must lie in [0, 100], got {self.gamma}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ParameterError("alpha/beta must be finite")
        if self.alpha < 0.0 or not self.alpha < self.beta:
            raise ParameterError(
                f"need 0 <= alpha < beta, got alpha={self.alpha}, beta={self.beta}")
        if self.num_candidates < 2:
            raise ParameterError(
                f"num_candidates must be >= 2, got {self.num_candidates}")
        if self.rounds < 1:
            raise ParameterError(f"rounds must be >= 1, got {self.rounds}")
        if self.softmax_quantizer not in SCHEMES:
            raise ParameterError(
                f"softmax_quantizer must be one of {SCHEMES}, "
                f"got {self.softmax_quantizer!r}")
        if self.calib_batch < 1:
            raise ParameterError(f"calib_batch must be >= 1, got {self.calib_batch}")
        if self.profile not in PROFILES:
            raise ParameterError(
                f"profile must be one of {PROFILES}, got {self.profile!r}")

    @classmethod
    def for_profile(cls, profile: str, **overrides) -> "CalibConfig":
        """Config with the profile's (alpha, beta) defaults applied."""
        if profile not in PROFILE_RANGES:
            raise ParameterError(
                f"profile must be one of {PROFILES}, got {profile!r}")
        alpha, beta = PROFILE_RANGES[profile]
        fields = {"alpha": alpha, "beta": beta, "profile": profile}
        fields.update(overrides)
        return cls(**fields)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Mapping) -> "CalibConfig":
        return record_fields(cls, payload, "calib config")


@dataclass
class CalibInstrumentation:
    """Allocation/liveness counters for the memory-contract check."""

    cache_triples_allocated: int = 0
    live_working_blocks: int = 0
    max_live_working_blocks: int = 0

    def on_cache_alloc(self) -> None:
        self.cache_triples_allocated += 1

    def enter_block(self) -> None:
        self.live_working_blocks += 1
        self.max_live_working_blocks = max(self.max_live_working_blocks,
                                           self.live_working_blocks)

    def exit_block(self) -> None:
        self.live_working_blocks -= 1


@dataclass
class BlockCache:
    """FP-pass cache for one search unit.

    In blockwise mode (``kind == "block"``) the unit is a whole transformer
    block and the lists hold single entries: the block output and its loss
    gradient (whose elementwise square is the sensitivity). In layerwise mode
    the unit is one matmul and ``kind`` names it (the fused q/k/v projection
    carries three parallel outputs). ``block_input`` is shared by all units
    of one block and is always the full-precision value.
    """

    block: int
    kind: str
    block_input: np.ndarray
    outputs: list[np.ndarray]
    grads: list[np.ndarray]

    def __post_init__(self):
        for o, g in zip(self.outputs, self.grads, strict=True):
            if o.shape != g.shape:
                raise ContractError(
                    f"cache tensors for block {self.block}/{self.kind} disagree "
                    f"on shape: {o.shape} vs {g.shape}")

    @property
    def output(self) -> np.ndarray:
        return self.outputs[0]

    @property
    def grad(self) -> np.ndarray:
        return self.grads[0]


@dataclass
class FPPass:
    """Everything retained from the single full-precision calibration pass."""

    caches: list[BlockCache]
    loss: float
    logits: np.ndarray
    ranges: dict[MatmulSite, tuple[float, float]]


def candidate_scales(x_min: float, x_max: float, bits: int,
                     alpha: float, beta: float, n: int) -> list[QuantParams]:
    """The search grid for one operand: n linear steps plus min-max.

    Step sizes run linearly from ``alpha * (x_max - x_min) / 2^bits`` to
    ``beta * (...)`` over n candidates, each floored at the degenerate-scale
    epsilon; the plain min-max step ``(x_max - x_min) / (2^bits - 1)`` is
    appended as candidate n so the trivial baseline is always in the search
    space. Every candidate gets its own clamped zero point.
    """
    if not x_max > x_min:
        raise DegenerateRangeError(
            f"need x_max > x_min for a candidate grid, got [{x_min}, {x_max}]")
    if n < 2:
        raise ParameterError(f"candidate count must be >= 2, got {n}")
    if alpha < 0.0 or beta < alpha:
        raise ParameterError(
            f"need 0 <= alpha <= beta, got alpha={alpha}, beta={beta}")
    base = (x_max - x_min) / (1 << bits)
    steps = alpha + np.arange(n, dtype=np.float64) * ((beta - alpha) / (n - 1))
    scales = np.maximum(steps * base, EPSILON)
    minmax = max((x_max - x_min) / ((1 << bits) - 1), EPSILON)
    scales = np.append(scales, minmax)
    levels = (1 << bits) - 1
    zero_points = np.clip(round_half_away(-x_min / scales), 0, levels)
    return [QuantParams(bits=bits, scale=float(s), zero_point=int(z),
                        scheme="uniform")
            for s, z in zip(scales, zero_points)]


def bottom_threshold(sigma, gamma: float) -> float:
    """The magnitude below which entries count as calibration bottoms.

    Nearest-rank rule: with N entries, the smallest ``m = ceil(gamma/100 * N)``
    magnitudes are eliminated, so the threshold is the (m+1)-th smallest
    |sigma| (+inf when m == N, 0 when m == 0). Elimination is strict-below,
    so entries tied with the threshold always survive.
    """
    if not 0.0 <= gamma <= 100.0:
        raise ParameterError(f"gamma must lie in [0, 100], got {gamma}")
    arr = np.abs(_as_array(sigma)).ravel()
    count = arr.size
    m = min(max(int(math.ceil(gamma / 100.0 * count)), 0), count)
    if m == 0:
        return 0.0
    if m == count:
        return math.inf
    return float(np.partition(arr, m)[m])


def bottom_mask(sigma, gamma: float) -> np.ndarray:
    """Zero the bottom-gamma-percent magnitudes of sigma; survivors unchanged."""
    arr = _as_array(sigma)
    threshold = bottom_threshold(arr, gamma)
    return np.where(np.abs(arr) < threshold, 0.0, arr)


def bbc_metric(sigma_masked, h_diag) -> float:
    """Sensitivity-weighted squared drift, averaged over the batch axis.

    Computes sum(sigma^2 * h) per sample and means over axis 0; a 1-D input
    is treated as a single sample (plain sum).
    """
    sigma = _as_array(sigma_masked)
    h = _as_array(h_diag)
    if sigma.shape != h.shape:
        raise DimensionError(
            f"sigma shape {sigma.shape} does not match h_diag shape {h.shape}")
    contrib = sigma * sigma * h
    if sigma.ndim >= 2:
        return float(contrib.reshape(sigma.shape[0], -1).sum(axis=1).mean())
    return float(contrib.sum())


def _as_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def cache_fp_pass(model: Model, inputs, labels, *, blocks_as_layers: bool = False,
                  instrumentation: CalibInstrumentation | None = None) -> FPPass:
    """One taped forward/backward; retains block-level tensors only.

    Per block this caches the input, the output and the loss gradient at the
    output — never the layer-by-layer activations. With ``blocks_as_layers``
    the same pair is kept per matmul instead (the layerwise baseline's
    working set). ``ranges`` holds the [min, max] of every site's operand.
    """
    instr = instrumentation if instrumentation is not None else CalibInstrumentation()
    x = require_finite(np.asarray(inputs, dtype=np.float64), "inputs")
    ranges: dict[MatmulSite, tuple[float, float]] = {}
    unit_outputs: dict[tuple[int, str], list[Tensor]] = {}

    def hook(kind, block, a, b, out):
        # Edge activations (embed/head operand A) are never quantized.
        operands = (("B", b),) if block is None else (("A", a), ("B", b))
        for role, values in operands:
            site = MatmulSite(kind, role, block)
            lo, hi = float(values.min()), float(values.max())
            if site in ranges:
                prev_lo, prev_hi = ranges[site]
                lo, hi = min(lo, prev_lo), max(hi, prev_hi)
            ranges[site] = (lo, hi)
        if blocks_as_layers and block is not None:
            unit_outputs.setdefault((block, kind), []).append(out)

    caches: list[BlockCache] = []
    with Tape() as tape:
        result = forward(model, Tensor(x), hook=hook)
        loss = cross_entropy(result.logits, labels)
        tape.backward(loss)
        for b in range(model.spec.num_blocks):
            source = result.embed_output if b == 0 else result.block_outputs[b - 1]
            block_input = source.data.copy()
            units = ([(kind, unit_outputs[(b, kind)]) for kind in BLOCK_KINDS]
                     if blocks_as_layers else [("block", [result.block_outputs[b]])])
            for kind, outs in units:
                caches.append(BlockCache(
                    block=b, kind=kind, block_input=block_input,
                    outputs=[t.data.copy() for t in outs],
                    grads=[tape.grad(t).data.copy() for t in outs]))
                instr.on_cache_alloc()
    return FPPass(caches=caches, loss=loss.item(), logits=result.logits.data.copy(),
                  ranges=ranges)


def _unit_metric(model: Model, cache: BlockCache,
                 quant: Mapping[MatmulSite, QuantParams],
                 gamma: float, dynamic_softmax: bool,
                 start: Tensor | BlockCarry) -> float:
    """Masked sensitivity metric of one unit under a trial quant state.

    The block runs from ``start``: its cached input or a carry (see
    ``search_site``). A layerwise unit stops right after its own matmul.
    """
    trial_outputs: list[np.ndarray] = []

    def hook(kind, block, a, b, out):
        if kind == cache.kind:
            trial_outputs.append(out.data)

    if cache.kind == "block":
        trial_outputs.append(block_forward(model, cache.block, start, quant,
                                           dynamic_softmax).data)
    else:
        block_forward(model, cache.block, start, quant, dynamic_softmax, hook,
                      stop=cache.kind)
    total = 0.0
    for produced, reference, g in zip(trial_outputs, cache.outputs, cache.grads,
                                      strict=True):
        total += bbc_metric(bottom_mask(produced - reference, gamma), g * g)
    return total


def search_site(model: Model, site: MatmulSite, candidates: list[QuantParams],
                state: Mapping[MatmulSite, QuantParams], cache: BlockCache,
                config: CalibConfig,
                executor: ThreadPoolExecutor | None = None
                ) -> tuple[QuantParams, int, list[float]]:
    """Score every candidate for one site and pick the argmin.

    Each candidate is evaluated with all other sites frozen at ``state``
    (searched sites quantized, unsearched ones full precision). The block
    is advanced once from its cached FP input to the site's matmul, with
    the other operand of that matmul fake-quantized once; every candidate
    resumes from there. Ties break to the lowest index; candidate
    evaluations are pure, so the optional executor only changes wall-clock,
    never the result.
    """
    start = block_carry(model, cache.block, Tensor(cache.block_input), site,
                        state, config.dynamic_softmax)

    def metric_for(params: QuantParams) -> float:
        trial = dict(state)
        trial[site] = params
        return _unit_metric(model, cache, trial, config.gamma,
                            config.dynamic_softmax, start)

    if executor is None:
        trace = [metric_for(params) for params in candidates]
    else:
        trace = list(executor.map(metric_for, candidates))
    chosen = int(np.argmin(trace))
    return candidates[chosen], chosen, trace


def _init_weight_side(lo: float, hi: float, bits: int) -> QuantParams:
    """Pre-search weight-operand params: full-range step over 2^bits."""
    scale = max((hi - lo) / (1 << bits), EPSILON)
    levels = (1 << bits) - 1
    zero_point = int(np.clip(round_half_away(-lo / scale), 0, levels))
    return QuantParams(bits=bits, scale=scale, zero_point=zero_point,
                       scheme="uniform")


def _workers_from_env() -> int:
    raw = os.environ.get("BBCQ_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"BBCQ_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"BBCQ_THREADS must be >= 1, got {workers}")
    return workers


def _site_sort_key(site: MatmulSite) -> tuple:
    if site.kind == "embed":
        return (-1, 0, 0)
    if site.kind == "head":
        return (1 << 30, 0, 0)
    return (site.block, site.layer, 0 if site.role == "A" else 1)


@dataclass
class CalibResult:
    """Chosen quantizers for every site plus the full search evidence.

    ``traces`` maps each searched site to one metric list per round (all
    n+1 candidates); ``chosen_index`` is the argmin of the final round.
    Unsearched sites (post-softmax, embed, head) carry an empty trace and a
    None index. ``fp_block_inputs`` records that candidate scoring always
    re-forwarded from cached full-precision block inputs.
    """

    config: CalibConfig
    params: dict[MatmulSite, QuantParams]
    chosen_index: dict[MatmulSite, int | None]
    traces: dict[MatmulSite, list[list[float]]]
    fp_loss: float
    softmax_max: list[float]
    fp_block_inputs: bool = True

    def quant_state(self) -> dict[MatmulSite, QuantParams]:
        return dict(self.params)

    def sites(self) -> list[MatmulSite]:
        return sorted(self.params, key=_site_sort_key)

    def site_rows(self) -> list[dict]:
        """One JSON row per site: its params, whether and how it was searched."""
        return [{"site_id": site.site_id, **asdict(self.params[site]),
                 "searched": bool(self.traces.get(site)),
                 "chosen_index": self.chosen_index.get(site),
                 "trace": self.traces.get(site, [])}
                for site in self.sites()]

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "calib-result",
            "config": self.config.to_json(),
            "fp_loss": self.fp_loss,
            "fp_block_inputs": self.fp_block_inputs,
            "softmax_max": list(self.softmax_max),
            "sites": self.site_rows(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, payload: Mapping) -> "CalibResult":
        if not isinstance(payload, Mapping) or payload.get("kind") != "calib-result":
            raise ParameterError("not a calib-result document")
        try:
            return cls._from_fields(payload)
        except KeyError as missing:
            raise ParameterError(f"calib-result is missing field {missing}") from None

    @classmethod
    def _from_fields(cls, payload: Mapping) -> "CalibResult":
        version = json_value(payload["schema_version"], "int", "schema_version")
        if version != 1:
            raise ParameterError(f"unsupported calib-result schema_version {version}")
        params: dict[MatmulSite, QuantParams] = {}
        chosen: dict[MatmulSite, int | None] = {}
        traces: dict[MatmulSite, list[list[float]]] = {}
        for entry in json_value(payload["sites"], "list[dict]", "sites"):
            site_id = json_value(entry["site_id"], "str", "site_id")
            site = MatmulSite.parse(site_id)
            params[site] = record_fields(QuantParams, entry, f"site {site_id}")
            chosen[site] = json_value(entry["chosen_index"], "int | None",
                                      f"site {site_id} chosen_index")
            traces[site] = json_value(entry["trace"], "list[list[float]]",
                                      f"site {site_id} trace")
        return cls(config=CalibConfig.from_json(payload["config"]), params=params,
                   chosen_index=chosen, traces=traces,
                   fp_loss=json_value(payload["fp_loss"], "float", "fp_loss"),
                   softmax_max=json_value(payload["softmax_max"], "list[float]",
                                          "softmax_max"),
                   fp_block_inputs=json_value(payload["fp_block_inputs"], "bool",
                                              "fp_block_inputs"))


def save_result(result: CalibResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(result.dumps())


def load_result(path) -> CalibResult:
    with open(path, "r", encoding="utf-8") as fh:
        return CalibResult.from_json(json.load(fh))


def calibrate(model: Model, inputs, labels, config: CalibConfig,
              instrumentation: CalibInstrumentation | None = None) -> CalibResult:
    """Full calibration: one FP caching pass, then per-block greedy search.

    Blocks are processed in order; inside each block the six matmuls are
    visited last-to-first. Per matmul the weight side is first initialized
    to its full-range step, then ``config.rounds`` alternations of
    (activation search, weight search) run, each holding every other site at
    its current state. Post-softmax sites get the configured softmax
    quantizer anchored to the FP pass's observed maximum and are active
    (never searched) throughout their block. Embed and head are weight-only
    min-max quantized.
    """
    instr = instrumentation if instrumentation is not None else CalibInstrumentation()
    fp = cache_fp_pass(model, inputs, labels,
                       blocks_as_layers=config.blocks_as_layers,
                       instrumentation=instr)
    state: dict[MatmulSite, QuantParams] = {}
    traces: dict[MatmulSite, list[list[float]]] = {}
    chosen: dict[MatmulSite, int | None] = {}

    for kind, values in (("embed", model.embed_w), ("head", model.head_w)):
        site = MatmulSite(kind, "B")
        state[site] = minmax_affine_params(values, config.w_bits)
        traces[site] = []
        chosen[site] = None

    by_unit = {(c.block, c.kind): c for c in fp.caches}
    workers = _workers_from_env()
    executor = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for b in range(model.spec.num_blocks):
            instr.enter_block()
            softmax_site = MatmulSite("attn-apply", "A", b)
            softmax_lo, softmax_hi = fp.ranges[softmax_site]
            state[softmax_site] = softmax_site_params(
                config.softmax_quantizer, config.a_bits, softmax_hi, softmax_lo)
            traces[softmax_site] = []
            chosen[softmax_site] = None
            for kind in reversed(BLOCK_KINDS):
                unit_kind = kind if config.blocks_as_layers else "block"
                cache = by_unit[(b, unit_kind)]
                a_site = MatmulSite(kind, "A", b)
                b_site = MatmulSite(kind, "B", b)
                b_bits = config.w_bits if b_site.is_weight_operand else config.a_bits
                b_lo, b_hi = fp.ranges[b_site]
                state[b_site] = _init_weight_side(b_lo, b_hi, b_bits)
                b_candidates = candidate_scales(b_lo, b_hi, b_bits,
                                                config.alpha, config.beta,
                                                config.num_candidates)
                traces[b_site] = []
                search_a = not a_site.is_softmax_output
                if search_a:
                    a_lo, a_hi = fp.ranges[a_site]
                    a_candidates = candidate_scales(a_lo, a_hi, config.a_bits,
                                                    config.alpha, config.beta,
                                                    config.num_candidates)
                    traces[a_site] = []
                for _ in range(config.rounds):
                    if search_a:
                        params, idx, trace = search_site(
                            model, a_site, a_candidates, state, cache, config,
                            executor)
                        state[a_site] = params
                        chosen[a_site] = idx
                        traces[a_site].append(trace)
                    params, idx, trace = search_site(
                        model, b_site, b_candidates, state, cache, config,
                        executor)
                    state[b_site] = params
                    chosen[b_site] = idx
                    traces[b_site].append(trace)
            instr.exit_block()
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    return CalibResult(config=config, params=state, chosen_index=chosen,
                       traces=traces, fp_loss=fp.loss,
                       softmax_max=[fp.ranges[MatmulSite("attn-apply", "A", b)][1]
                                    for b in range(model.spec.num_blocks)])


def total_blockwise_metric(model: Model, inputs, labels,
                           assignment: Mapping[MatmulSite, QuantParams],
                           gamma: float, dynamic_softmax: bool = False) -> float:
    """Summed block metric with a full assignment active.

    Re-forwards every block from its cached FP input with all of the block's
    assigned sites quantized simultaneously, and sums the masked
    sensitivity-weighted drift across blocks. Useful for comparing two
    complete assignments (e.g. blockwise search vs the layerwise baseline)
    under one shared yardstick.
    """
    fp = cache_fp_pass(model, inputs, labels)
    total = 0.0
    for cache in fp.caches:
        total += _unit_metric(model, cache, assignment, gamma, dynamic_softmax,
                              Tensor(cache.block_input))
    return total
