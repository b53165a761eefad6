"""A small pre-norm vision transformer with per-matmul quantization sites.

The model is deliberately minimal: a linear patch embedding over
pre-flattened patches, ``num_blocks`` identical blocks (layernorm -> MSA ->
residual, layernorm -> MLP -> residual), mean pooling over patches, and a
linear classifier head. Every matrix multiplication exposes two
``MatmulSite`` handles (operand A = activation, operand B = weight or second
matrix); fake quantization is applied to the exact operand tensor fed to the
matmul, after any reshape/transpose. Softmax, layernorm, GeLU, biases,
residual adds, and pooling always run in full precision.

Every value is a float64 array. ``block_forward`` and ``forward`` take one
optional ``hook``, called after every matmul with its kind, block, operands
and output; calibration reads operand ranges and per-matmul outputs through
it. A block runs as six matmul stages over a ``BlockCarry``, so calibration
can advance a block to one matmul once and resume every candidate from
there. A hook-free full block forward runs a large batch in cache-sized
slices of samples, which ``shared_map`` spreads over a ``WorkerPool`` when
one is given. ``freeze_operands`` fake-quantizes once what every such
resumed forward or slice holds fixed. ``forward`` has each block write its
output over its input. ``block_backward`` turns the loss gradient at a
block's output into the gradients at its input and at each of its matmul
outputs, re-running the block from its input. The six entry points run one
input check, ``_check_call``.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Executor
from dataclasses import asdict, dataclass, make_dataclass, replace
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, ParameterError
from .quantizers import (DynamicSoftmax, QuantParams, fake_quant_array,
                         fake_quant_softmax_dynamic)
from .records import check_field_types, record_fields
from .tensor import (add, array_of, gelu, gelu_slope, layernorm,
                     layernorm_backward, matmul, softmax, softmax_backward)

BLOCK_KINDS = ("qkv-projection", "attn-score", "attn-apply",
               "out-projection", "mlp-1", "mlp-2")
EDGE_KINDS = ("embed", "head")
SOFTMAX_KIND = "attn-apply"

#: The ``BlockParams`` fields that each weight-operand block matmul reads.
_WEIGHT_FIELDS = {"qkv-projection": ("w_q", "w_k", "w_v"),
                  "out-projection": ("w_o",), "mlp-1": ("w1",), "mlp-2": ("w2",)}

#: Weight-operand site kinds (role B is a model parameter; quantized with
#: w_bits). attn-score and attn-apply have activation B operands.
WEIGHT_B_KINDS = (*_WEIGHT_FIELDS, *EDGE_KINDS)


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
        check_field_types(self, "model spec")
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
        if self.init_seed < 0:
            raise ParameterError(f"init_seed must be >= 0, got {self.init_seed}")
        if not (self.mlp_ratio > 0 and math.isfinite(self.mlp_ratio)):
            raise ParameterError(f"mlp_ratio must be positive, got {self.mlp_ratio}")
        try:
            hidden = self.hidden_dim
        except OverflowError:
            raise ParameterError(
                f"mlp hidden dim embed_dim * mlp_ratio overflows "
                f"(mlp_ratio {self.mlp_ratio})") from None
        if hidden < 1:
            raise ParameterError(
                f"mlp hidden dim rounds to {hidden}; increase mlp_ratio")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def hidden_dim(self) -> int:
        return int(round(self.embed_dim * self.mlp_ratio))

    @property
    def widest(self) -> int:
        """Values per sample of a block forward's widest intermediate: the
        MLP hidden activation or the attention scores."""
        return self.patch_count * max(self.hidden_dim, self.num_heads * self.patch_count)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Mapping) -> "ModelSpec":
        return record_fields(cls, payload, "model spec")


#: One row per block parameter: its ``BlockParams`` field, its ``.bbcv``
#: name after ``block<i>.``, and its shape in ``d`` (embed_dim) and ``h``
#: (hidden_dim). Rows are in serialization and initialization order.
BLOCK_PARAMS = (
    ("ln1_gamma", "ln1.gamma", "d"),
    ("ln1_beta", "ln1.beta", "d"),
    ("w_q", "attn.w_q", "dd"),
    ("w_k", "attn.w_k", "dd"),
    ("w_v", "attn.w_v", "dd"),
    ("w_o", "attn.w_o", "dd"),
    ("ln2_gamma", "ln2.gamma", "d"),
    ("ln2_beta", "ln2.beta", "d"),
    ("w1", "mlp.w1", "dh"),
    ("b1", "mlp.b1", "h"),
    ("w2", "mlp.w2", "hd"),
    ("b2", "mlp.b2", "d"),
)


#: One transformer block's weights, one field per ``BLOCK_PARAMS`` row.
BlockParams = make_dataclass(
    "BlockParams", [(field, np.ndarray) for field, _, _ in BLOCK_PARAMS],
    namespace={"__module__": __name__})


def _layout(num_blocks: int):
    """(block or None, field, name, shape letters) of every parameter, in
    canonical order; ``c`` is num_classes."""
    yield None, "embed_w", "embed.weight", "dd"
    for i in range(num_blocks):
        for field, name, dims in BLOCK_PARAMS:
            yield i, field, f"block{i}.{name}", dims
    yield None, "head_w", "head.weight", "dc"


@dataclass
class Model:
    spec: ModelSpec
    embed_w: np.ndarray
    blocks: list[BlockParams]
    head_w: np.ndarray

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in the canonical serialization order."""
        return [(name, getattr(self if b is None else self.blocks[b], field))
                for b, field, name, _ in _layout(self.spec.num_blocks)]

    @classmethod
    def from_parameters(cls, spec: ModelSpec,
                        params: Mapping[str, np.ndarray]) -> "Model":
        """The model of ``spec`` whose parameter ``name`` is ``params[name]``."""
        blocks = [BlockParams(**{field: params[f"block{i}.{name}"]
                                 for field, name, _ in BLOCK_PARAMS})
                  for i in range(spec.num_blocks)]
        return cls(spec=spec, embed_w=params["embed.weight"], blocks=blocks,
                   head_w=params["head.weight"])


def parameter_shapes(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list implied by a spec."""
    sizes = {"d": spec.embed_dim, "h": spec.hidden_dim, "c": spec.num_classes}
    return [(name, tuple(sizes[letter] for letter in dims))
            for _, _, name, dims in _layout(spec.num_blocks)]


def init_model(spec: ModelSpec) -> Model:
    """Seeded Xavier-uniform weights, unit layernorm gains, zero biases.

    Matrices are drawn in the canonical order from a PCG64 stream keyed by
    ``spec.init_seed``, so the same spec always yields a bit-identical model.
    """
    rng = np.random.Generator(np.random.PCG64(spec.init_seed))
    params = {}
    for name, shape in parameter_shapes(spec):
        if len(shape) == 2:
            bound = math.sqrt(6.0 / sum(shape))
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = (np.ones if name.endswith("gamma") else np.zeros)(shape)
    return Model.from_parameters(spec, params)


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


#: ``hook(kind, block, a, b, out)``: called once per matmul, right after it.
MatmulHook = Callable[[str, "int | None", np.ndarray, np.ndarray, np.ndarray], None]

#: How each listed site's operand is fake-quantized; unlisted sites run FP.
#: A ``DynamicSoftmax`` entry belongs only at a post-softmax site.
QuantState = Mapping[MatmulSite, QuantParams | DynamicSoftmax]


@dataclass(frozen=True)
class BlockCarry:
    """A block forward paused in front of one of its six matmuls.

    ``kind`` names the matmul that runs next. ``residual`` is the input of
    the next residual add: the block input up to out-projection, then the
    attention output ``h1``. ``a`` and ``b`` are the operands of the next
    matmul (``b`` is the three q/k/v weights for qkv-projection); a
    resumed forward fake-quantizes them as its state says. ``b`` holds the
    model's weights except at attn-score and attn-apply, where it holds
    activations. ``vh`` carries the value heads from qkv-projection to
    attn-apply. Layernorm, softmax and GeLU have already run. A carry is
    never mutated, so threads may resume from the same carry at once.
    """

    kind: str
    residual: np.ndarray
    a: np.ndarray
    b: tuple[np.ndarray, ...]
    vh: np.ndarray | None = None


def _weights(p: BlockParams, kind: str) -> tuple[np.ndarray, ...]:
    """The weights block matmul ``kind`` reads from ``p``."""
    return tuple(getattr(p, field) for field in _WEIGHT_FIELDS[kind])


def _check_call(model: Model, block: int | None, x: np.ndarray | BlockCarry | None,
                quant: QuantState | None, kind: str | None = None
                ) -> np.ndarray | BlockCarry | None:
    """The one input check of every model entry; returns ``x``, an input
    that is no carry as a float64 array. Rejects a block index outside the
    model (None stands for the whole model), a block input that is not
    (batch, patches, embed_dim), a ``kind`` that is no block matmul or
    comes before the carry's, a site the model does not have, and a
    ``DynamicSoftmax`` entry away from a post-softmax site."""
    spec = model.spec
    if block is not None and not 0 <= block < spec.num_blocks:
        raise ParameterError(f"block index {block} outside a "
                             f"{spec.num_blocks}-block model")
    if x is not None and not isinstance(x, BlockCarry):
        x = array_of(x)
        if x.ndim != 3 or x.shape[1:] != (spec.patch_count, spec.embed_dim):
            raise DimensionError(f"input shape {x.shape} does not match (batch, "
                                 f"{spec.patch_count}, {spec.embed_dim})")
    if kind is not None and kind not in BLOCK_KINDS:
        raise ParameterError(f"unknown block matmul kind {kind!r}")
    if kind is not None and isinstance(x, BlockCarry) and \
            BLOCK_KINDS.index(kind) < BLOCK_KINDS.index(x.kind):
        raise ContractError(f"cannot run to {kind}: the carry resumes at {x.kind}")
    for site, entry in (quant or {}).items():
        # Edges have no activation site; block sites need a block of the model.
        if (site.role == "A") if site.block is None else site.block >= spec.num_blocks:
            raise ContractError(f"quant state references unknown site {site.site_id}")
        if isinstance(entry, DynamicSoftmax) and not site.is_softmax_output:
            raise ContractError(f"{site.site_id} is not a post-softmax site; "
                                f"it cannot hold {entry}")
    return x


def fake_quant_operand(x: np.ndarray, site: MatmulSite,
                       quant: QuantState | None) -> np.ndarray:
    """Fake-quantize one operand as ``quant`` says, if it lists the site."""
    entry = None if quant is None else quant.get(site)
    if entry is None:
        return x
    if isinstance(entry, DynamicSoftmax):
        return fake_quant_softmax_dynamic(x, entry.scheme, entry.bits)
    return fake_quant_array(x, entry)


def _run_stages(model: Model, block: int, x: np.ndarray | BlockCarry,
                quant: QuantState | None, hook: MatmulHook | None,
                end: str | None,
                stop: str | None) -> BlockCarry | np.ndarray | list[np.ndarray]:
    """Run block input or carry ``x`` on: pause in front of matmul ``end``,
    return matmul ``stop``'s outputs after its hook, or the block output."""
    # Only this frame holds the entry carry, so its layernorm output is
    # freed once the first stage has consumed it.
    carry = x if isinstance(x, BlockCarry) else _block_entry(model, block, x)
    spec = model.spec
    p = model.blocks[block]
    batch, n, d = carry.residual.shape
    inv_sqrt_d = 1.0 / math.sqrt(spec.head_dim)

    def split_heads(t: np.ndarray) -> np.ndarray:
        return np.transpose(np.reshape(t, (batch, n, spec.num_heads, spec.head_dim)),
                            (0, 2, 1, 3))

    while carry.kind != end:
        kind = carry.kind
        # One fake-quant of operand A feeds all three q/k/v projections.
        aq = fake_quant_operand(carry.a, MatmulSite(kind, "A", block), quant)
        site_b = MatmulSite(kind, "B", block)
        outs = []
        for b in carry.b:
            out = matmul(aq, fake_quant_operand(b, site_b, quant))
            if kind == "attn-score":
                out *= inv_sqrt_d
            if hook is not None:
                hook(kind, block, carry.a, b, out)
            outs.append(out)
        # Drop each stage output as soon as the next carry has consumed it;
        # q, k and v stay in ``outs`` only while attn-score still reads them.
        del aq, out
        if kind == stop:
            return outs
        res = carry.residual
        if kind == "qkv-projection":
            carry = BlockCarry("attn-score", res, split_heads(outs[0]),
                               (np.transpose(split_heads(outs[1]), (0, 1, 3, 2)),),
                               vh=split_heads(outs[2]))
        elif kind == "attn-score":
            carry = BlockCarry("attn-apply", res, softmax(outs.pop()),
                               (carry.vh,))
        elif kind == "attn-apply":
            carry = BlockCarry("out-projection", res, np.reshape(np.transpose(
                outs.pop(), (0, 2, 1, 3)), (batch, n, d)), _weights(p, "out-projection"))
        elif kind == "out-projection":
            h1 = add(res, outs.pop())
            carry = BlockCarry("mlp-1", h1, layernorm(h1, p.ln2_gamma, p.ln2_beta),
                               _weights(p, "mlp-1"))
        elif kind == "mlp-1":
            carry = BlockCarry("mlp-2", res, gelu(add(outs.pop(), p.b1)),
                               _weights(p, "mlp-2"))
        else:
            return add(res, add(outs.pop(), p.b2))
    return carry


class WorkerPool(NamedTuple):
    """An executor's workers and the caller, ``threads`` threads in all,
    sharing the items of each ``shared_map``."""

    executor: Executor
    threads: int


def shared_map(fn: Callable, items: Iterable, pool: WorkerPool | None) -> list:
    """``[fn(item) for item in items]``, in order.

    With a pool, the caller and up to ``pool.threads - 1`` of its workers
    each take the next item until none is left, every one under the
    caller's numpy error state (a thread does not inherit it). Once an item
    fails no thread takes another; when all have stopped, the exception of
    the first failed item is raised, the one a serial map raises for a pure
    ``fn``.
    """
    items = list(items)
    threads = 1 if pool is None else min(pool.threads, len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    errors = np.geterr()
    results = [None] * len(items)
    failures: dict[int, BaseException] = {}
    pending = iter(range(len(items)))
    lock = threading.Lock()

    def take() -> int | None:
        with lock:
            return None if failures else next(pending, None)

    def work() -> None:
        with np.errstate(**errors):
            while (i := take()) is not None:
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:
                    with lock:
                        failures[i] = exc

    helpers = [pool.executor.submit(work) for _ in range(threads - 1)]
    work()
    for helper in helpers:  # work() keeps fn's errors, so this waits for all
        helper.result()
    if failures:
        raise failures[min(failures)]
    return results


def _slice_rows(spec: ModelSpec) -> int:
    """Samples per slice of a hook-free block forward: as many as keep one
    slice's MLP hidden activation and attention scores within 2**17 float64
    values (1 MB, about an L2 cache)."""
    return max(1, 2 ** 17 // spec.widest)


def freeze_operands(model: Model, block: int, carry: BlockCarry | None,
                    quant: QuantState | None
                    ) -> tuple[Model, BlockCarry | None, QuantState]:
    """Fake-quantize once, as ``quant`` says, what a forward of ``block``
    from ``carry`` holds fixed: the carry's two operands and every later
    weight (all six with no carry); unlisted sites stay full precision.
    Returns copies of the model and carry holding them, and ``quant``
    without their sites, under which the forward gives the same bits."""
    _check_call(model, block, carry, quant)
    later = BLOCK_KINDS if carry is None else \
        BLOCK_KINDS[BLOCK_KINDS.index(carry.kind) + 1:]
    frozen = [MatmulSite(kind, "B", block) for kind in later if kind in _WEIGHT_FIELDS]
    p = model.blocks[block]
    weights = {field: fake_quant_operand(getattr(p, field), site, quant)
               for site in frozen for field in _WEIGHT_FIELDS[site.kind]}
    if carry is not None:
        site_a, site_b = (MatmulSite(carry.kind, role, block) for role in "AB")
        frozen += [site_a, site_b]
        carry = replace(carry, a=fake_quant_operand(carry.a, site_a, quant),
                        b=tuple(fake_quant_operand(b, site_b, quant) for b in carry.b))
    blocks = [*model.blocks[:block], replace(p, **weights), *model.blocks[block + 1:]]
    rest = {site: entry for site, entry in (quant or {}).items() if site not in frozen}
    return replace(model, blocks=blocks), carry, rest


def _block_entry(model: Model, block: int, x: np.ndarray) -> BlockCarry:
    """The carry in front of qkv-projection: ``x`` and its first layernorm."""
    p = model.blocks[block]
    return BlockCarry("qkv-projection", x, layernorm(x, p.ln1_gamma, p.ln1_beta),
                      _weights(p, "qkv-projection"))


def block_forward(model: Model, block: int, x: np.ndarray | BlockCarry,
                  quant: QuantState | None = None, *,
                  hook: MatmulHook | None = None,
                  stop: str | None = None,
                  out: np.ndarray | None = None,
                  executor: WorkerPool | None = None) -> np.ndarray | list[np.ndarray]:
    """One transformer block. ``x`` is the (B, N, D) block input, or a
    ``BlockCarry`` to resume from (see ``block_prefix``).

    ``hook(kind, block, a, b, out)`` is called once per matmul, right after
    it: ``a`` and ``b`` are the operands as the model and carry hold them
    (``freeze_operands`` may have fake-quantized them), before this call
    fake-quantizes them. ``out`` is the raw output (pre-bias for the MLP;
    attn-score includes the 1/sqrt(head_dim) scale); qkv-projection fires
    once per q/k/v weight.

    Returns the block output. With ``stop`` naming a matmul kind, the call
    ends right after that matmul's hook calls and returns its outputs, the
    hook's ``out``s: q, k and v for qkv-projection, one otherwise.

    A call on a block input with no ``hook`` and no ``stop`` runs the batch
    in slices of ``_slice_rows(model.spec)`` samples, so its intermediates
    stay cache-sized however large the batch; any other call runs the batch
    in one pass. Such a sliced call writes its output into ``out`` when
    given, a writeable C-contiguous float64 array of ``x``'s shape that may
    be ``x`` itself, and returns ``out``. With an ``executor``, its threads
    share the slices (``shared_map``), each slice ``1 / executor.threads``
    of the serial size, so all of them together hold about one serial
    slice's working set.
    """
    x = _check_call(model, block, x, quant, stop)
    rows = max(1, _slice_rows(model.spec) // (executor.threads if executor else 1))
    one_pass = isinstance(x, BlockCarry) or hook is not None or stop is not None
    if out is not None:
        if one_pass:
            raise ContractError("out= needs a sliced call: no carry, hook or stop")
        if not (isinstance(out, np.ndarray) and out.shape == x.shape
                and out.dtype == np.float64 and out.flags.carray):
            raise DimensionError(
                f"out must be a writeable C-contiguous float64 array of shape {x.shape}")
    elif one_pass or x.shape[0] <= rows:
        return _run_stages(model, block, x, quant, hook, None, stop)
    # Every stage is per sample, so the slices' outputs, in order, are the
    # whole batch's output bit for bit. A slice's rows are read before they
    # are written, and no other slice touches them, so ``out`` may be the
    # input itself.
    out = np.empty(x.shape) if out is None else out
    model, _, quant = freeze_operands(model, block, None, quant)

    def run_slice(lo: int) -> None:
        out[lo:lo + rows] = _run_stages(model, block, x[lo:lo + rows], quant,
                                        None, None, None)

    shared_map(run_slice, range(0, x.shape[0], rows), executor)
    return out


def block_prefix(model: Model, block: int, x: np.ndarray, kind: str,
                 quant: QuantState | None = None) -> BlockCarry:
    """The carry in front of matmul ``kind``, from block input ``x``.

    Every stage before that matmul runs under ``quant``; neither of its
    operands is fake-quantized yet. The carry depends on no entry of
    ``quant`` for this matmul or a later one, so a ``block_forward``
    resumed from it under any state that agrees with ``quant`` on the
    earlier sites equals the full forward under that state, bit for bit.
    """
    x = _check_call(model, block, x, quant, kind)
    return _run_stages(model, block, x, quant, None, kind, None)


def block_backward(model: Model, block: int, x: np.ndarray, grad_out: np.ndarray,
                   *, hook: MatmulHook | None = None
                   ) -> tuple[np.ndarray, dict[str, list[np.ndarray]]]:
    """The FP loss gradient at block input ``x``, and at each of the block's
    matmul outputs by kind, from the gradient ``grad_out`` at its output.

    The matmul gradients are at the hook's ``out``s (see ``block_forward``):
    q, k and v for qkv-projection, one otherwise. The block runs again from
    ``x``, carry by carry, keeping the carries its backward reads: the
    attention operands, the attention probabilities and ``h1``; ``hook``
    sees the re-run's matmuls as ``block_forward``'s does (mlp-2 runs only
    for it). No weight gets a gradient. Each step uses reverse mode's
    operations and operand order, and a value read twice or three times
    gets its parts added last reader first, so the bits are those of a
    tape over the forward's ops.
    """
    x, grad_out = _check_call(model, block, x, None), array_of(grad_out)
    if grad_out.shape != x.shape:
        raise DimensionError(f"output gradient shape {grad_out.shape} does not "
                             f"match block input shape {x.shape}")
    spec = model.spec
    p = model.blocks[block]
    batch, n, d = x.shape
    score = _run_stages(model, block, x, None, hook, "attn-score", None)
    apply = _run_stages(model, block, score, None, hook, "attn-apply", None)
    mlp = _run_stages(model, block, apply, None, hook, "mlp-1", None)
    h1 = mlp.residual
    [pre] = _run_stages(model, block, mlp, None, hook, None, "mlp-1")
    # GeLU's input, as the forward's bias add makes it: a new array if a
    # hook may keep mlp-1's output, and then mlp-2 runs for the hook alone.
    pre = np.add(pre, p.b1, out=pre if hook is None else None)
    if hook is not None:
        mlp = replace(mlp, kind="mlp-2", a=gelu(pre), b=_weights(p, "mlp-2"))
        _run_stages(model, block, mlp, None, hook, None, "mlp-2")
    del mlp

    def merge_heads(g: np.ndarray) -> np.ndarray:
        # C order, as a tape's gradient buffers are: a matmul's bits can
        # depend on its operands' layout.
        return np.ascontiguousarray(
            np.reshape(np.transpose(g, (0, 2, 1, 3)), (batch, n, d)))

    # output = h1 + (mlp-2 + b2): both terms get grad_out. Each forward
    # value is dropped once the last step that reads it has run.
    g_hidden = gelu_slope(pre)
    del pre
    np.multiply(np.matmul(grad_out, p.w2.T), g_hidden, out=g_hidden)
    g_h1 = grad_out + layernorm_backward(h1, p.ln2_gamma,
                                         np.matmul(g_hidden, p.w1.T))
    del h1
    # h1 = x + out-projection; the attention output is merged heads.
    g_apply = np.ascontiguousarray(np.transpose(np.reshape(
        np.matmul(g_h1, p.w_o.T), (batch, n, spec.num_heads, spec.head_dim)),
        (0, 2, 1, 3)))
    probs, vh = apply.a, apply.b[0]
    del apply
    g_score = softmax_backward(probs, np.matmul(g_apply, np.swapaxes(vh, -1, -2)))
    g_vh = merge_heads(np.matmul(np.swapaxes(probs, -1, -2), g_apply))
    del probs, vh
    g_scaled = g_score * (1.0 / math.sqrt(spec.head_dim))
    qh, kt = score.a, score.b[0]
    del score
    g_qkv = [merge_heads(np.matmul(g_scaled, np.swapaxes(kt, -1, -2))),
             merge_heads(np.transpose(np.matmul(np.swapaxes(qh, -1, -2), g_scaled),
                                      (0, 1, 3, 2))), g_vh]
    del qh, kt, g_scaled
    # The first layernorm's output feeds v, k and q, read last first.
    g_ln1 = np.matmul(g_qkv[2], p.w_v.T)
    g_ln1 += np.matmul(g_qkv[1], p.w_k.T)
    g_ln1 += np.matmul(g_qkv[0], p.w_q.T)
    g_x = g_h1 + layernorm_backward(x, p.ln1_gamma, g_ln1)
    return g_x, {"qkv-projection": g_qkv, "attn-score": [g_score],
                 "attn-apply": [g_apply], "out-projection": [g_h1],
                 "mlp-1": [g_hidden], "mlp-2": [grad_out]}


def forward(model: Model, x, quant: QuantState | None = None, *,
            hook: MatmulHook | None = None,
            executor: WorkerPool | None = None) -> np.ndarray:
    """Full forward pass; returns the logits.

    With ``quant`` supplied, each listed site's operand is fake-quantized
    right before its matmul. ``hook`` sees every matmul (see
    ``block_forward``); for ``embed`` and ``head`` its ``block`` is None.
    ``executor`` is passed to every ``block_forward``.
    """
    x = _check_call(model, None, x, quant)

    def edge_matmul(kind: str, a: np.ndarray, w: np.ndarray) -> np.ndarray:
        out = matmul(a, fake_quant_operand(w, MatmulSite(kind, "B"), quant))
        if hook is not None:
            hook(kind, None, a, w, out)
        return out

    current = edge_matmul("embed", x, model.embed_w)
    # No list holds a block output. Without a hook, every block writes its
    # output over its input, the embed output, so the forward holds one
    # batch-sized activation array besides ``x``.
    out = None if hook is not None else current
    for b in range(model.spec.num_blocks):
        current = block_forward(model, b, current, quant, hook=hook, out=out,
                                executor=executor)
    return edge_matmul("head", current.mean(axis=1), model.head_w)


def forward_from(model: Model, block: int, block_output) -> np.ndarray:
    """FP logits computed from a given block's output onward.

    Runs blocks ``block+1 ..`` plus pooling and the head; used by
    finite-difference oracles that perturb a cached block output.
    """
    current = _check_call(model, block, block_output, None)
    for b in range(block + 1, model.spec.num_blocks):
        current = block_forward(model, b, current)
    return matmul(current.mean(axis=1), model.head_w)
