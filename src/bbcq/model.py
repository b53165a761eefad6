"""A small pre-norm vision transformer with per-matmul quantization hooks.

The model is deliberately minimal: a linear patch embedding over
pre-flattened patches, ``num_blocks`` identical blocks (layernorm -> MSA ->
residual, layernorm -> MLP -> residual), mean pooling over patches, and a
linear classifier head. Every matrix multiplication exposes two
``MatmulSite`` handles (operand A = activation, operand B = weight or second
matrix); fake quantization is applied to the exact operand tensor fed to the
matmul, after any reshape/transpose. Softmax, layernorm, GeLU, biases,
residual adds, and pooling always run in full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import ContractError, DimensionError, ParameterError
from .quantizers import QuantParams, fake_quant_array, fake_quant_softmax_dynamic
from .tensor import (Tensor, add, gelu, layernorm, matmul, mul,
                     recording_active, reshape, softmax, transpose)

BLOCK_KINDS = ("qkv-projection", "attn-score", "attn-apply",
               "out-projection", "mlp-1", "mlp-2")
EDGE_KINDS = ("embed", "head")
SOFTMAX_KIND = "attn-apply"

#: Weight-operand site kinds (role B is a model parameter; quantized with
#: w_bits). attn-score and attn-apply have activation B operands.
WEIGHT_B_KINDS = ("qkv-projection", "out-projection", "mlp-1", "mlp-2",
                  "embed", "head")


@dataclass(frozen=True)
class MatmulSite:
    """One operand position of one matmul; the unit of quantization."""

    kind: str
    role: str
    block: int | None = None

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS + EDGE_KINDS:
            raise ParameterError(f"unknown site kind {self.kind!r}")
        if self.role not in ("A", "B"):
            raise ParameterError(f"site role must be 'A' or 'B', got {self.role!r}")
        if self.kind in EDGE_KINDS:
            if self.block is not None:
                raise ParameterError(f"{self.kind} sites carry no block index")
        elif self.block is None or self.block < 0:
            raise ParameterError(f"{self.kind} sites need a block index >= 0")

    @property
    def layer(self) -> int | None:
        """1-based execution index inside a block (None for embed/head)."""
        if self.kind in EDGE_KINDS:
            return None
        return BLOCK_KINDS.index(self.kind) + 1

    @property
    def is_softmax_output(self) -> bool:
        return self.kind == SOFTMAX_KIND and self.role == "A"

    @property
    def is_weight_operand(self) -> bool:
        return self.role == "B" and self.kind in WEIGHT_B_KINDS

    @property
    def site_id(self) -> str:
        if self.kind in EDGE_KINDS:
            return f"{self.kind}.{self.role}"
        return f"b{self.block}.{self.kind}.{self.role}"

    @classmethod
    def parse(cls, site_id: str) -> "MatmulSite":
        parts = site_id.split(".")
        if len(parts) == 2:
            return cls(kind=parts[0], role=parts[1])
        if len(parts) == 3 and parts[0].startswith("b"):
            try:
                block = int(parts[0][1:])
            except ValueError:
                raise ParameterError(f"bad site id {site_id!r}") from None
            return cls(kind=parts[1], role=parts[2], block=block)
        raise ParameterError(f"bad site id {site_id!r}")


@dataclass(frozen=True)
class ModelSpec:
    num_blocks: int
    embed_dim: int
    num_heads: int
    patch_count: int
    num_classes: int
    mlp_ratio: float = 4.0
    init_seed: int = 0

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ParameterError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.num_heads < 1:
            raise ParameterError(f"num_heads must be >= 1, got {self.num_heads}")
        if self.embed_dim < 1 or self.embed_dim % self.num_heads != 0:
            raise DimensionError(
                f"embed_dim {self.embed_dim} must be a positive multiple of "
                f"num_heads {self.num_heads}")
        if self.patch_count < 1:
            raise ParameterError(f"patch_count must be >= 1, got {self.patch_count}")
        if self.num_classes < 2:
            raise ParameterError(f"num_classes must be >= 2, got {self.num_classes}")
        if not (self.mlp_ratio > 0 and math.isfinite(self.mlp_ratio)):
            raise ParameterError(f"mlp_ratio must be positive, got {self.mlp_ratio}")
        if self.hidden_dim < 1:
            raise ParameterError(
                f"mlp hidden dim rounds to {self.hidden_dim}; increase mlp_ratio")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def hidden_dim(self) -> int:
        return int(round(self.embed_dim * self.mlp_ratio))

    def to_json(self) -> dict:
        return {
            "num_blocks": self.num_blocks,
            "embed_dim": self.embed_dim,
            "num_heads": self.num_heads,
            "patch_count": self.patch_count,
            "num_classes": self.num_classes,
            "mlp_ratio": self.mlp_ratio,
            "init_seed": self.init_seed,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "ModelSpec":
        try:
            return cls(num_blocks=int(payload["num_blocks"]),
                       embed_dim=int(payload["embed_dim"]),
                       num_heads=int(payload["num_heads"]),
                       patch_count=int(payload["patch_count"]),
                       num_classes=int(payload["num_classes"]),
                       mlp_ratio=float(payload["mlp_ratio"]),
                       init_seed=int(payload["init_seed"]))
        except KeyError as missing:
            raise ParameterError(f"model spec is missing field {missing}") from None


@dataclass
class BlockParams:
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class Model:
    spec: ModelSpec
    embed_w: np.ndarray
    blocks: list[BlockParams]
    head_w: np.ndarray

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in the canonical serialization order."""
        out = [("embed.weight", self.embed_w)]
        for i, blk in enumerate(self.blocks):
            out.extend([
                (f"block{i}.ln1.gamma", blk.ln1_gamma),
                (f"block{i}.ln1.beta", blk.ln1_beta),
                (f"block{i}.attn.w_q", blk.w_q),
                (f"block{i}.attn.w_k", blk.w_k),
                (f"block{i}.attn.w_v", blk.w_v),
                (f"block{i}.attn.w_o", blk.w_o),
                (f"block{i}.ln2.gamma", blk.ln2_gamma),
                (f"block{i}.ln2.beta", blk.ln2_beta),
                (f"block{i}.mlp.w1", blk.w1),
                (f"block{i}.mlp.b1", blk.b1),
                (f"block{i}.mlp.w2", blk.w2),
                (f"block{i}.mlp.b2", blk.b2),
            ])
        out.append(("head.weight", self.head_w))
        return out

    def weight_operand_values(self, site: MatmulSite) -> list[np.ndarray]:
        """The parameter arrays a weight-side site quantizes."""
        if not site.is_weight_operand:
            raise ContractError(f"{site.site_id} is not a weight operand")
        if site.kind == "embed":
            return [self.embed_w]
        if site.kind == "head":
            return [self.head_w]
        blk = self.blocks[site.block]
        if site.kind == "qkv-projection":
            return [blk.w_q, blk.w_k, blk.w_v]
        if site.kind == "out-projection":
            return [blk.w_o]
        if site.kind == "mlp-1":
            return [blk.w1]
        return [blk.w2]


def parameter_shapes(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list implied by a spec."""
    d, h, c = spec.embed_dim, spec.hidden_dim, spec.num_classes
    out = [("embed.weight", (d, d))]
    for i in range(spec.num_blocks):
        out.extend([
            (f"block{i}.ln1.gamma", (d,)),
            (f"block{i}.ln1.beta", (d,)),
            (f"block{i}.attn.w_q", (d, d)),
            (f"block{i}.attn.w_k", (d, d)),
            (f"block{i}.attn.w_v", (d, d)),
            (f"block{i}.attn.w_o", (d, d)),
            (f"block{i}.ln2.gamma", (d,)),
            (f"block{i}.ln2.beta", (d,)),
            (f"block{i}.mlp.w1", (d, h)),
            (f"block{i}.mlp.b1", (h,)),
            (f"block{i}.mlp.w2", (h, d)),
            (f"block{i}.mlp.b2", (d,)),
        ])
    out.append(("head.weight", (d, c)))
    return out


def init_model(spec: ModelSpec) -> Model:
    """Seeded Xavier-uniform weights, unit layernorm gains, zero biases.

    Parameters are drawn in the canonical order from a PCG64 stream keyed by
    ``spec.init_seed``, so the same spec always yields a bit-identical model.
    """
    rng = np.random.Generator(np.random.PCG64(spec.init_seed))

    def xavier(fan_in: int, fan_out: int) -> np.ndarray:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    d, h = spec.embed_dim, spec.hidden_dim
    embed_w = xavier(d, d)
    blocks = []
    for _ in range(spec.num_blocks):
        blocks.append(BlockParams(
            ln1_gamma=np.ones(d), ln1_beta=np.zeros(d),
            w_q=xavier(d, d), w_k=xavier(d, d), w_v=xavier(d, d),
            w_o=xavier(d, d),
            ln2_gamma=np.ones(d), ln2_beta=np.zeros(d),
            w1=xavier(d, h), b1=np.zeros(h),
            w2=xavier(h, d), b2=np.zeros(d),
        ))
    head_w = xavier(d, spec.num_classes)
    return Model(spec=spec, embed_w=embed_w, blocks=blocks, head_w=head_w)


def enumerate_sites(spec: ModelSpec) -> list[MatmulSite]:
    """Every quantizable site in canonical (execution) order.

    Embed and head appear with their weight operand only; their activations
    are never quantized.
    """
    sites = [MatmulSite("embed", "B")]
    for b in range(spec.num_blocks):
        for kind in BLOCK_KINDS:
            sites.append(MatmulSite(kind, "A", b))
            sites.append(MatmulSite(kind, "B", b))
    sites.append(MatmulSite("head", "B"))
    return sites


def validate_quant_sites(spec: ModelSpec, sites: Iterable[MatmulSite]) -> None:
    known = set(enumerate_sites(spec))
    unknown = [s.site_id for s in sites if s not in known]
    if unknown:
        raise ContractError(
            f"quant state references unknown sites: {', '.join(sorted(unknown))}")


@dataclass
class ForwardResult:
    logits: Tensor
    block_outputs: list[Tensor]
    embed_output: Tensor


class Observer:
    """Callback interface for FP-pass statistics.

    ``observe_operand`` sees the exact operand of every matmul site before it
    is fake-quantized, including the softmax output at ``attn-apply.A``.
    """

    def observe_operand(self, site: MatmulSite, values: np.ndarray) -> None:
        pass


def _apply_site(x: Tensor, site: MatmulSite,
                quant: Mapping[MatmulSite, QuantParams] | None,
                observer: Observer | None, dynamic: bool = False) -> Tensor:
    """Observe and fake-quantize one operand; ``dynamic`` anchors each row."""
    if observer is not None:
        observer.observe_operand(site, x.data)
    if quant is not None:
        params = quant.get(site)
        if params is not None:
            if dynamic:
                return Tensor(fake_quant_softmax_dynamic(
                    x.data, params.scheme, params.bits))
            return Tensor(fake_quant_array(x.data, params))
    return x


def block_forward(model: Model, block: int, x: Tensor,
                  quant: Mapping[MatmulSite, QuantParams] | None = None,
                  dynamic_softmax: bool = False,
                  observer: Observer | None = None,
                  taps: dict[str, list[Tensor]] | None = None) -> Tensor:
    """One transformer block. ``x`` is the (B, N, D) block input.

    When ``taps`` is a dict it is filled with each matmul's raw output
    tensors keyed by site kind (``qkv-projection`` gets the three projection
    outputs; the MLP entries are pre-bias). The tensors are nodes of the
    active tape when one is recording, so callers can read their gradients.
    """
    spec = model.spec
    p = model.blocks[block]
    batch, n, d = x.shape
    heads, head_dim = spec.num_heads, spec.head_dim
    inv_sqrt_d = 1.0 / math.sqrt(head_dim)

    def site(kind: str, role: str) -> MatmulSite:
        return MatmulSite(kind, role, block)

    h = layernorm(x, Tensor(p.ln1_gamma), Tensor(p.ln1_beta))
    hq = _apply_site(h, site("qkv-projection", "A"), quant, observer)
    qkv_b = site("qkv-projection", "B")
    q = matmul(hq, _apply_site(Tensor(p.w_q), qkv_b, quant, observer))
    k = matmul(hq, _apply_site(Tensor(p.w_k), qkv_b, quant, observer))
    v = matmul(hq, _apply_site(Tensor(p.w_v), qkv_b, quant, observer))

    def split_heads(t: Tensor) -> Tensor:
        return transpose(reshape(t, (batch, n, heads, head_dim)), (0, 2, 1, 3))

    qh = split_heads(q)
    kt = transpose(split_heads(k), (0, 1, 3, 2))
    vh = split_heads(v)
    scores = mul(matmul(_apply_site(qh, site("attn-score", "A"), quant, observer),
                        _apply_site(kt, site("attn-score", "B"), quant, observer)),
                 inv_sqrt_d)
    attn = softmax(scores, axis=-1)
    attn = _apply_site(attn, site("attn-apply", "A"), quant, observer,
                       dynamic_softmax)
    ctx = matmul(attn, _apply_site(vh, site("attn-apply", "B"), quant, observer))
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (batch, n, d))
    attn_out = matmul(_apply_site(merged, site("out-projection", "A"), quant, observer),
                      _apply_site(Tensor(p.w_o), site("out-projection", "B"),
                                  quant, observer))
    h1 = add(x, attn_out)

    h2 = layernorm(h1, Tensor(p.ln2_gamma), Tensor(p.ln2_beta))
    m1_pre = matmul(_apply_site(h2, site("mlp-1", "A"), quant, observer),
                    _apply_site(Tensor(p.w1), site("mlp-1", "B"), quant, observer))
    m1 = add(m1_pre, Tensor(p.b1))
    m2_pre = matmul(_apply_site(gelu(m1), site("mlp-2", "A"), quant, observer),
                    _apply_site(Tensor(p.w2), site("mlp-2", "B"), quant, observer))
    m2 = add(m2_pre, Tensor(p.b2))
    if taps is not None:
        taps["qkv-projection"] = [q, k, v]
        taps["attn-score"] = [scores]
        taps["attn-apply"] = [ctx]
        taps["out-projection"] = [attn_out]
        taps["mlp-1"] = [m1_pre]
        taps["mlp-2"] = [m2_pre]
    return add(h1, m2)


def forward(model: Model, x, quant: Mapping[MatmulSite, QuantParams] | None = None,
            dynamic_softmax: bool = False,
            observer: Observer | None = None,
            block_taps: list[dict[str, list[Tensor]]] | None = None) -> ForwardResult:
    """Full forward pass; returns logits plus every block's output.

    With ``quant`` supplied, each listed site's operand is fake-quantized
    right before its matmul. Quantized forwards are not differentiable and
    are rejected while a tape is recording. Passing a list as ``block_taps``
    appends one per-matmul tap dict per block (see ``block_forward``).
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    spec = model.spec
    if x.ndim != 3 or x.shape[1] != spec.patch_count or x.shape[2] != spec.embed_dim:
        raise DimensionError(
            f"input shape {x.shape} does not match (batch, {spec.patch_count}, "
            f"{spec.embed_dim})")
    if quant is not None:
        if recording_active():
            raise ContractError("quantized forward cannot run under a recording tape")
        validate_quant_sites(spec, quant.keys())

    embed_out = matmul(x, _apply_site(Tensor(model.embed_w), MatmulSite("embed", "B"),
                                      quant, observer))
    current = embed_out
    block_outputs = []
    for b in range(spec.num_blocks):
        taps = None if block_taps is None else {}
        current = block_forward(model, b, current, quant, dynamic_softmax, observer,
                                taps=taps)
        if block_taps is not None:
            block_taps.append(taps)
        block_outputs.append(current)
    pooled = current.mean(axis=1)
    logits = matmul(pooled, _apply_site(Tensor(model.head_w), MatmulSite("head", "B"),
                                        quant, observer))
    return ForwardResult(logits=logits, block_outputs=block_outputs,
                         embed_output=embed_out)


def forward_from(model: Model, block: int, block_output) -> Tensor:
    """FP logits computed from a given block's output onward.

    Runs blocks ``block+1 ..`` plus pooling and the head; used by
    finite-difference oracles that perturb a cached block output.
    """
    current = block_output if isinstance(block_output, Tensor) else Tensor(block_output)
    for b in range(block + 1, model.spec.num_blocks):
        current = block_forward(model, b, current)
    pooled = current.mean(axis=1)
    return matmul(pooled, Tensor(model.head_w))
