"""Blockwise Hessian-guided scale search with bottom elimination.

Calibration runs one full-precision forward/backward over the calibration
batch, caching only block-level tensors: each block's input, output, and the
loss gradient at the output (whose elementwise square is the diagonal
second-order sensitivity). Scale candidates for every matmul operand are then
scored by re-forwarding just the owning block from its cached input and
measuring the sensitivity-weighted squared output drift, with the smallest
error magnitudes masked out ("bottom elimination"). Sites are visited in
reverse execution order per block and each layer's activation/weight pair is
alternated for a fixed number of rounds. The stages before a layer's matmul
are the same for every candidate of both its sites in every round, so the
block is advanced to that matmul once per layer and each candidate resumes
from there.

``blocks_as_layers=True`` degrades the unit of scoring from a whole block to
one matmul, which is the plain layerwise Hessian baseline; a block's matmul
units are rebuilt from its cache while its search runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, make_dataclass, replace
from typing import Iterator, Mapping

import numpy as np

from .errors import (ConfigError, ContractError, DegenerateRangeError,
                     DimensionError, NonFiniteError, ParameterError)
from .model import (BLOCK_KINDS, SOFTMAX_KIND, BlockCarry, MatmulSite, Model,
                    QuantState, WorkerPool, block_backward, block_forward,
                    block_prefix, enumerate_sites, freeze_operands, shared_map)
# Not called here: perfbench's tracer wraps ``calibration.forward`` by name.
from .model import forward  # noqa: F401
from .quantizers import (SCHEMES, DynamicSoftmax, QuantParams,
                         softmax_site_params, uniform_grid)
from .records import check_field_types, read_json, record_fields, strict_json
from .tensor import array_of, cross_entropy, matmul, require_finite, softmax

#: (alpha, beta) search-range defaults per task profile.
PROFILE_RANGES = {"classification": (0.0, 1.2), "detection": (0.5, 1.2)}
PROFILES = tuple(PROFILE_RANGES)


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
        check_field_types(self, "calib config")
        for name in ("w_bits", "a_bits"):
            bits = getattr(self, name)
            if not 2 <= bits <= 8:
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

    def site_quantizer(self, site: MatmulSite) -> tuple[str, int]:
        """The (scheme, bits) of ``site``'s quantizer under this config."""
        scheme = self.softmax_quantizer if site.is_softmax_output else "uniform"
        return scheme, self.w_bits if site.is_weight_operand else self.a_bits

    def quant_state(self, params: Mapping[MatmulSite, QuantParams]) -> dict:
        """The state a forward applies for ``params``: with ``dynamic_softmax``
        each post-softmax site anchors every row to its own range."""
        return {site: DynamicSoftmax(p.scheme, p.bits)
                if self.dynamic_softmax and site.is_softmax_output else p
                for site, p in params.items()}

    @classmethod
    def for_profile(cls, profile: str, **overrides) -> "CalibConfig":
        """Config with the profile's (alpha, beta) defaults applied."""
        if profile not in PROFILE_RANGES:
            raise ParameterError(f"profile must be one of {PROFILES}, got {profile!r}")
        alpha, beta = PROFILE_RANGES[profile]
        return cls(**{"alpha": alpha, "beta": beta, "profile": profile, **overrides})

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Mapping) -> "CalibConfig":
        return record_fields(cls, payload, "calib config")


@dataclass
class CalibInstrumentation:
    """Call counts for the memory-contract check: FP caches allocated, and
    the most block searches begun and not yet ended. They see no arrays;
    tests that hold weak references check that a block's arrays die."""

    cache_triples_allocated: int = 0
    live_working_blocks: int = 0
    max_live_working_blocks: int = 0

    def enter_block(self) -> None:
        self.live_working_blocks += 1
        self.max_live_working_blocks = max(self.max_live_working_blocks,
                                           self.live_working_blocks)

    def exit_block(self) -> None:
        self.live_working_blocks -= 1


@dataclass
class BlockCache:
    """FP cache for one search unit.

    In blockwise mode (``kind == "block"``) the unit is a whole transformer
    block and the lists hold single entries: the block output and its loss
    gradient (whose elementwise square is the sensitivity). In layerwise mode
    the unit is one matmul and ``kind`` names it (the fused q/k/v projection
    carries three parallel outputs). ``block_input`` is shared by all units
    of one block and is always the full-precision value. A cache marks its
    arrays read-only, as it shares them rather than copying them.
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
        for values in (self.block_input, *self.outputs, *self.grads):
            values.flags.writeable = False

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
        raise ParameterError(f"need 0 <= alpha <= beta, got alpha={alpha}, beta={beta}")
    base = (x_max - x_min) / (1 << bits)
    steps = alpha + np.arange(n, dtype=np.float64) * ((beta - alpha) / (n - 1))
    scales, zero_points = uniform_grid(
        x_min, np.append(steps * base, (x_max - x_min) / ((1 << bits) - 1)), bits)
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
    # A fresh array, so it is partitioned in place.
    arr = np.abs(array_of(sigma)).ravel(order="K")
    if not 0.0 <= gamma <= 100.0:
        raise ParameterError(f"gamma must lie in [0, 100], got {gamma}")
    count = arr.size
    m = min(max(int(math.ceil(gamma / 100.0 * count)), 0), count)
    if m == 0:
        return 0.0
    if m == count:
        return math.inf
    arr.partition(m)
    return float(arr[m])


def bottom_mask(sigma, gamma: float) -> np.ndarray:
    """Zero the bottom-gamma-percent magnitudes of sigma; survivors unchanged.

    The magnitudes live only while the threshold is found: ``-t < sigma < t``
    is the set ``|sigma| < t`` for every float, so the mask reads sigma.
    """
    arr = array_of(sigma)
    t = bottom_threshold(arr, gamma)
    bottoms = arr < t
    bottoms &= arr > -t
    return np.where(bottoms, 0.0, arr)


def bbc_metric(sigma_masked, h_diag) -> float:
    """Sensitivity-weighted squared drift, averaged over the batch axis.

    Computes sum(sigma^2 * h) per sample and means over axis 0; a 1-D input
    is treated as a single sample (plain sum).
    """
    sigma = array_of(sigma_masked)
    h = array_of(h_diag)
    if sigma.shape != h.shape:
        raise DimensionError(
            f"sigma shape {sigma.shape} does not match h_diag shape {h.shape}")
    contrib = sigma * sigma
    contrib *= h
    if sigma.ndim >= 2:
        return float(contrib.reshape(sigma.shape[0], -1).sum(axis=1).mean())
    return float(contrib.sum())


def cache_fp_pass(model: Model, inputs, labels) -> FPPass:
    """One FP forward and backward; retains block-level arrays only.

    Per block this caches the input, the output and the loss gradient at the
    output — never the layer-by-layer activations (see ``layer_caches``).
    ``ranges`` holds the [min, max] of every site's operand. The forward
    runs each block once (``block_forward``) and keeps only the block
    outputs; the backward steps through the cross-entropy, the head and the
    mean pooling, then runs ``block_backward``, which re-runs one block at a
    time, from the last block down to block 1: block 0's input gradient is
    never read. The cached arrays are the pass's own, not copies, and are
    read-only; block b's input is block b-1's output array.
    """
    x = require_finite(np.asarray(inputs, dtype=np.float64), "inputs")
    if x.shape[:1] == (0,):
        raise ParameterError("the FP pass needs at least one sample")
    ranges: dict[MatmulSite, tuple[float, float]] = {}

    def hook(kind, block, a, b, out):
        # Edge activations (embed/head operand A) are never quantized.
        operands = (("B", b),) if block is None else (("A", a), ("B", b))
        for role, values in operands:
            site = MatmulSite(kind, role, block)
            lo, hi = ranges.get(site, (math.inf, -math.inf))
            ranges[site] = (min(lo, float(values.min())),
                            max(hi, float(values.max())))

    # block_io[b] is block b's input, block_io[b + 1] its output.
    block_io = [matmul(x, model.embed_w)]
    hook("embed", None, x, model.embed_w, block_io[0])
    for b in range(model.spec.num_blocks):
        block_io.append(block_forward(model, b, block_io[b], hook=hook))
    pooled = block_io[-1].mean(axis=1)
    logits = matmul(pooled, model.head_w)
    hook("head", None, pooled, model.head_w, logits)
    loss = require_finite(cross_entropy(logits, labels), "the FP loss")
    # The loss gradient at the logits: (softmax - one-hot) / batch; then at
    # the pooled features, and at every patch of the last block's output.
    grad = softmax(logits)
    grad[np.arange(len(x)), np.asarray(labels)] -= 1.0
    grad *= 1.0 / len(x)
    grad = np.matmul(grad, model.head_w.T) / model.spec.patch_count
    grad = np.repeat(grad[:, None], model.spec.patch_count, axis=1)
    caches: list[BlockCache] = []
    for b in reversed(range(model.spec.num_blocks)):
        caches.append(BlockCache(b, "block", block_io[b], [block_io[b + 1]], [grad]))
        grad = block_backward(model, b, block_io[b], grad)[0] if b else None
    caches.reverse()
    return FPPass(caches=caches, loss=loss.item(), ranges=ranges)


def layer_caches(model: Model, cache: BlockCache) -> list[BlockCache]:
    """The layerwise units of block cache ``cache``'s block, in
    ``BLOCK_KINDS`` order: one hooked ``block_backward`` from the cached
    input gives each matmul's FP outputs and the loss gradients at them."""
    outputs: dict[str, list[np.ndarray]] = {kind: [] for kind in BLOCK_KINDS}
    _, grads = block_backward(
        model, cache.block, cache.block_input, cache.grad,
        hook=lambda kind, block, a, b, out: outputs[kind].append(out))
    return [BlockCache(cache.block, kind, cache.block_input, outputs[kind],
                       grads[kind]) for kind in BLOCK_KINDS]


def _unit_metric(model: Model, cache: BlockCache, quant: QuantState,
                 gamma: float, start: np.ndarray | BlockCarry,
                 sensitivities: list[np.ndarray]) -> float:
    """Masked sensitivity metric of one unit under a trial quant state.

    The block runs from ``start``: its cached input or a carry (see
    ``search_site``). A layerwise unit stops right after its own matmul.
    ``sensitivities`` holds the square of each of ``cache.grads``. Each
    output is the forward's own fresh array: the drift is subtracted into
    it, and it is dropped once masked, so one unit-sized array is held at
    a time besides the mask and the metric's own.
    """
    if cache.kind == "block":
        produced = [block_forward(model, cache.block, start, quant)]
    else:
        produced = block_forward(model, cache.block, start, quant, stop=cache.kind)
    total = 0.0
    for reference, h in zip(cache.outputs, sensitivities, strict=True):
        drift = produced.pop(0)
        drift -= reference
        masked = bottom_mask(drift, gamma)
        del drift
        total += bbc_metric(masked, h)
    return total


def _first_argmin(metrics: list[float]) -> int:
    """The candidate a search keeps: the first of its smallest metrics."""
    return int(np.argmin(metrics))


def search_site(model: Model, site: MatmulSite, candidates: list[QuantParams],
                state: QuantState, cache: BlockCache, prefix: BlockCarry,
                gamma: float, executor: WorkerPool | None = None
                ) -> list[float]:
    """Score every candidate for one site: its trace, one metric per candidate.

    Each candidate is evaluated with all other sites frozen at ``state``
    (searched sites quantized, unsearched ones full precision), resuming
    from ``prefix``, the block paused in front of the site's matmul
    (``block_prefix``) under ``state`` or any state that agrees with it on
    the earlier matmuls. What every candidate holds fixed, the other operand
    of that matmul and, for a block unit, each later weight, is
    fake-quantized once per call (``freeze_operands``), so a candidate
    quantizes only the searched operand and, for a block unit, the later
    activations. Candidate evaluations are pure, so sharing them with the
    threads of an optional ``executor`` (``shared_map``, which runs them
    under the caller's numpy error state) changes wall-clock only, never
    the trace. A NaN or infinite
    metric raises NonFiniteError; a cache of another block or unit, or a
    prefix paused at another matmul, raises ContractError; no candidates
    raise ParameterError.
    """
    if cache.block != site.block or cache.kind not in ("block", site.kind):
        raise ContractError(f"site {site.site_id} cannot be scored on the "
                            f"{cache.kind} unit of block {cache.block}")
    if not candidates:
        raise ParameterError(f"site {site.site_id} has no candidates")
    if prefix.kind != site.kind:
        raise ContractError(f"site {site.site_id} cannot resume from a "
                            f"prefix paused at {prefix.kind}")
    # A layerwise unit's forward stops at its own matmul: no later weight is read.
    fixed = {k: v for k, v in state.items()
             if k != site and (cache.kind == "block" or k.kind == site.kind)}
    model, start, rest = freeze_operands(model, site.block, prefix, fixed)
    sensitivities = [g * g for g in cache.grads]

    def metric_for(params: QuantParams) -> float:
        return _unit_metric(model, cache, {**rest, site: params}, gamma,
                            start, sensitivities)

    trace = shared_map(metric_for, candidates, executor)
    if not np.isfinite(trace).all():
        raise NonFiniteError(f"site {site.site_id}: a candidate metric is not finite")
    return trace


def _threads_from_env() -> int:
    """``BBCQ_THREADS``, capped at the CPUs this process may run on (all of
    them when unset): more threads only contend for the GIL and the cores,
    and split a hook-free forward into ever smaller slices."""
    # The affinity mask is Linux's; elsewhere every CPU counts.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    raw = os.environ.get("BBCQ_THREADS")
    if raw is None:
        return cpus
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"BBCQ_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"BBCQ_THREADS must be >= 1, got {threads}")
    return min(threads, cpus)


@contextmanager
def worker_pool() -> Iterator[WorkerPool | None]:
    """The threads ``_threads_from_env`` gives: the caller and a pool of one
    worker fewer, or None at one thread, since each worker thread's own
    malloc arena costs RSS."""
    threads = _threads_from_env()
    if threads == 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as executor:
        yield WorkerPool(executor, threads)


def _site_sort_key(site: MatmulSite) -> tuple:
    """``enumerate_sites`` order: embed, each layer's A then B, head."""
    if site.block is None:
        return (-1 if site.kind == "embed" else math.inf,)
    return (site.block, site.layer, site.role)


#: The JSON type of every calib-result field and site row field; a row's
#: quantizer fields are ``QuantParams``'s own.
_Document = make_dataclass("_Document", [
    ("schema_version", "int"), ("fp_block_inputs", "bool"), ("config", "dict"),
    ("fp_loss", "float"), ("softmax_max", "list[float]"), ("sites", "list[dict]")])
_SiteRow = make_dataclass("_SiteRow", [
    ("site_id", "str"), ("searched", "bool"), ("chosen_index", "int | None"),
    ("trace", "list[list[float]]")])


@dataclass
class CalibResult:
    """Chosen quantizers for every site plus the full search evidence.

    ``traces`` maps each site to one metric list per round (all n+1
    candidates); ``chosen_index`` is derived from it, the first argmin of
    the final round, as ``calibrate`` picks it. Unsearched sites
    (post-softmax, embed, head, constant operands) carry an empty trace and
    a None index. A searched site's trace is ``config.rounds`` rounds of
    ``num_candidates + 1`` finite metrics, and ``fp_loss`` and
    ``softmax_max`` are finite. Each row has the config's scheme and bits; a
    max-anchored softmax row's ``calibrated_max`` is its block's
    ``softmax_max``.
    """

    config: CalibConfig
    params: dict[MatmulSite, QuantParams]
    chosen_index: dict[MatmulSite, int | None] = field(init=False)
    traces: dict[MatmulSite, list[list[float]]]
    fp_loss: float
    softmax_max: list[float]

    def __post_init__(self):
        require_finite(self.fp_loss, "fp_loss")
        require_finite(self.softmax_max, "softmax_max")
        width = self.config.num_candidates + 1
        # A row holds both, so a site with only one would not survive dumps.
        if self.traces.keys() != self.params.keys():
            site = min(self.traces.keys() ^ self.params.keys(), key=_site_sort_key)
            raise ParameterError(f"site {site.site_id} needs both params and a "
                                 "trace (empty if unsearched)")
        for site, trace in self.traces.items():
            if trace and (len(trace) != self.config.rounds
                          or any(len(metrics) != width for metrics in trace)
                          or not np.isfinite(trace).all()):
                raise ParameterError(f"site {site.site_id} trace must be "
                                     f"{self.config.rounds} rounds of {width} "
                                     "finite metrics")
        for site, p in self.params.items():
            if (p.scheme, p.bits) != (want := self.config.site_quantizer(site)):
                raise ParameterError(f"site {site.site_id}: {p.scheme} at {p.bits} "
                                     f"bits, but the config gives {want}")
        # Without block rows there is no block count to hold softmax_max to.
        blocks = {site.block for site in self.params} - {None}
        if blocks and (len(self.softmax_max) != 1 + max(blocks) or any(
                p.calibrated_max not in (None, self.softmax_max[site.block])
                for site, p in self.params.items() if site.is_softmax_output)):
            raise ParameterError(f"softmax_max {self.softmax_max} is not one entry "
                                 "per block, each its softmax row's calibrated_max")
        self.chosen_index = {site: _first_argmin(trace[-1]) if trace else None
                             for site, trace in self.traces.items()}

    def quant_state(self) -> dict:
        """The state ``forward`` applies to run this result."""
        return self.config.quant_state(self.params)

    def sites(self) -> list[MatmulSite]:
        return sorted(self.params, key=_site_sort_key)

    def to_json(self) -> dict:
        """The document: one row per site with its params, whether and how
        it was searched. Candidates are always scored from cached FP block
        inputs."""
        return {"schema_version": 1, "kind": "calib-result",
                "config": self.config.to_json(), "fp_loss": self.fp_loss,
                "fp_block_inputs": True, "softmax_max": list(self.softmax_max),
                "sites": [{"site_id": site.site_id, **asdict(self.params[site]),
                           "searched": bool(self.traces.get(site)),
                           "chosen_index": self.chosen_index.get(site),
                           "trace": self.traces.get(site, [])}
                          for site in self.sites()]}

    def dumps(self) -> str:
        return strict_json(self.to_json(), "the calib result")

    @classmethod
    def from_json(cls, payload: Mapping) -> "CalibResult":
        if not isinstance(payload, Mapping) or payload.get("kind") != "calib-result":
            raise ParameterError("not a calib-result document")
        # A missing version is left to the record rule, which names it.
        if (version := payload.get("schema_version", 1)) != 1:
            raise ParameterError(f"unsupported calib-result schema_version {version!r}")
        doc = record_fields(_Document, payload, "calib-result")
        config = CalibConfig.from_json(doc.config)
        params: dict[MatmulSite, QuantParams] = {}
        rows = {}
        for i, entry in enumerate(doc.sites):
            row = record_fields(_SiteRow, entry, f"site row {i}")
            site = MatmulSite.parse(row.site_id)
            if site in rows:
                raise ParameterError(f"duplicate site {row.site_id}")
            try:
                params[site] = record_fields(QuantParams, entry, "quant params")
            except ParameterError as exc:
                raise type(exc)(f"site {row.site_id}: {exc}") from None
            rows[site] = row
        result = cls(config=config, params=params,
                     traces={site: row.trace for site, row in rows.items()},
                     fp_loss=doc.fp_loss, softmax_max=doc.softmax_max)
        # Each stored copy must be what the built result writes.
        written = result.to_json()
        copies = [("fp_block_inputs", doc.fp_block_inputs, written["fp_block_inputs"]), *(
            (f"site {want['site_id']} {name}", getattr(rows[site], name), want[name])
            for site, want in zip(result.sites(), written["sites"])
            for name in ("site_id", "searched", "chosen_index"))]
        for what, stored, want in copies:
            if stored != want:
                raise ParameterError(f"{what} {stored!r} is not what the result "
                                     f"writes, {want!r}")
        return result


def save_result(result: CalibResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(result.dumps())


def load_result(path) -> CalibResult:
    with open(path, "rb") as fh:
        return CalibResult.from_json(read_json(fh.read(), path))


def calibrate(model: Model, inputs, labels, config: CalibConfig,
              instrumentation: CalibInstrumentation | None = None) -> CalibResult:
    """Full calibration: one FP caching pass, then per-block greedy search.

    Every site starts from its FP-pass range. Embed and head are weight-only
    min-max quantized, post-softmax sites get the configured softmax
    quantizer, and an operand that is one constant over the whole FP pass
    gets params that hold that constant exactly; all are set before any
    search and never searched. Blocks are then processed in order (a
    layerwise block's units exist only during its search); inside each
    block the six matmuls are visited last-to-first. Per matmul the
    weight side is first initialized to its full-range step, then
    ``config.rounds`` alternations of (activation search, weight search)
    run, each holding every other site at its current state and resuming
    from the block paused once in front of that matmul (``block_prefix``),
    and keeps the first argmin of its trace, the rule ``CalibResult``
    derives ``chosen_index`` with. ``labels`` must hold one label per input
    sample. Only the first ``config.calib_batch`` samples are used; the
    result's config records a smaller split's size.
    """
    if np.shape(labels) != np.shape(inputs)[:1]:
        raise DimensionError(f"labels shape {np.shape(labels)} does not match "
                             f"{np.shape(inputs)[:1]}, one label per input sample")
    if 0 < len(inputs) < config.calib_batch:
        config = replace(config, calib_batch=len(inputs))
    instr = instrumentation if instrumentation is not None else CalibInstrumentation()
    fp = cache_fp_pass(model, inputs[:config.calib_batch],
                       labels[:config.calib_batch])
    instr.cache_triples_allocated = len(fp.caches)
    spec = model.spec
    # A freed mmap-served block raises glibc's mmap threshold to its size and
    # its heap trim threshold to twice that, so the candidate loop's temporaries
    # reuse heap pages instead of growing and trimming the heap every
    # candidate (see README, Memory). Untouched, the block costs no RSS.
    np.empty(4 * len(fp.caches[0].block_input) * spec.widest)
    sites = enumerate_sites(spec)
    traces: dict[MatmulSite, list[list[float]]] = {site: [] for site in sites}
    state: dict[MatmulSite, QuantParams] = {}
    for site in sites:
        lo, hi = fp.ranges[site]
        if site.block is None or site.is_softmax_output or lo == hi:
            state[site] = softmax_site_params(*config.site_quantizer(site), hi, lo)

    with worker_pool() as executor:
        for b, block_cache in enumerate(fp.caches):
            instr.enter_block()
            units = layer_caches(model, block_cache) if config.blocks_as_layers \
                else [block_cache] * len(BLOCK_KINDS)
            for kind, cache in zip(reversed(BLOCK_KINDS), reversed(units)):
                grids = {}
                for site in (MatmulSite(kind, "A", b), MatmulSite(kind, "B", b)):
                    if site in state:
                        continue
                    lo, hi = fp.ranges[site]
                    _, bits = config.site_quantizer(site)
                    if site.role == "B":
                        # The grid's full-range step (hi - lo) / 2^bits.
                        scale, zero = uniform_grid(lo, (hi - lo) / (1 << bits), bits)
                        state[site] = QuantParams(bits, float(scale), int(zero), "uniform")
                    grids[site] = candidate_scales(lo, hi, bits, config.alpha,
                                                   config.beta,
                                                   config.num_candidates)
                if not grids:
                    continue
                prefix = block_prefix(model, b, cache.block_input, kind,
                                      config.quant_state(state))
                for _ in range(config.rounds):
                    for site, candidates in grids.items():
                        trace = search_site(model, site, candidates,
                                            config.quant_state(state), cache,
                                            prefix, config.gamma, executor)
                        state[site] = candidates[_first_argmin(trace)]
                        traces[site].append(trace)
            # Drop b's units and last carry (unbound if b searched no layer).
            units = cache = prefix = None
            instr.exit_block()

    return CalibResult(config=config, params=state, traces=traces,
                       fp_loss=fp.loss,
                       softmax_max=[fp.ranges[MatmulSite(SOFTMAX_KIND, "A", b)][1]
                                    for b in range(model.spec.num_blocks)])


def total_blockwise_metric(model: Model, inputs, labels,
                           assignment: QuantState, gamma: float) -> float:
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
        total += _unit_metric(model, cache, assignment, gamma,
                              cache.block_input, [g * g for g in cache.grads])
    return total
