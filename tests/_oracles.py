"""Independent straight-line reimplementations used as test oracles.

Nothing here calls into ``bbcq`` algorithm code — only numpy, scipy.special
and math. Where a test asserts *exact* float equality against the package,
the oracle mirrors the documented arithmetic step for step (same formulas,
same evaluation order, same library reductions), so bitwise agreement is a
meaningful statement about two separately written implementations of the
same contract, not about one function called twice.

The oracles read model *data* (weight arrays, dimensions) straight off the
model object; they share no forward/backward/search code with the package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_REVERSED_KINDS = ("mlp-2", "mlp-1", "out-projection", "attn-apply",
                   "attn-score", "qkv-projection")
_WEIGHT_KINDS = ("qkv-projection", "out-projection", "mlp-1", "mlp-2")
_EPS = 1e-12


# ---------------------------------------------------------------------------
# criterion: metric agrees with a naive double loop


def naive_bbc_metric(sigma, h_diag) -> float:
    """Pure-Python double-loop version of the sensitivity-weighted drift."""
    sigma = np.asarray(sigma, dtype=np.float64)
    h = np.asarray(h_diag, dtype=np.float64)
    if sigma.ndim <= 1:
        total = 0.0
        for s, w in zip(sigma.ravel().tolist(), h.ravel().tolist()):
            total += s * s * w
        return total
    flat_s = sigma.reshape(sigma.shape[0], -1)
    flat_h = h.reshape(h.shape[0], -1)
    per_sample = []
    for s_row, h_row in zip(flat_s, flat_h):
        acc = 0.0
        for s, w in zip(s_row.tolist(), h_row.tolist()):
            acc += s * s * w
        per_sample.append(acc)
    return sum(per_sample) / len(per_sample)


# ---------------------------------------------------------------------------
# fake-quant kernels (uniform, mpq, log2, twin), mirrored arithmetic
#
# Parameters may be Python floats or arrays that broadcast against the
# values (one anchor per softmax row).


def _rha(x):
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _fq(values: np.ndarray, params: tuple) -> np.ndarray:
    scheme = params[0]
    if scheme == "uniform":
        _, scale, zero_point, bits = params
        top = (1 << bits) - 1
        codes = np.clip(_rha(values / scale) + zero_point, 0, top)
        return (codes - zero_point) * scale
    if scheme == "mpq":
        _, bits, cal_max = params
        levels = (1 << bits) - 1
        codes = np.clip(_rha((values / cal_max) * levels), 0, levels)
        return (codes / levels) * cal_max
    if scheme == "log2":
        # code m stands for cal_max * 2^-m; m = round(-log2(v / cal_max)),
        # and a non-positive value takes the top (smallest) code.
        _, bits, cal_max = params
        top = (1 << bits) - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.clip(_rha(-np.log2(values / cal_max)), 0, top)
        m = np.where(values <= 0.0, float(top), m)
        return cal_max * np.exp2(-m)
    if scheme == "twin":
        # codes [0, half) step T/(half-1) over [0, T); codes [half, 2*half)
        # step (cal_max-T)/(half-1) over [T, cal_max].
        _, bits, cal_max, threshold = params
        half = 1 << (bits - 1)
        span = half - 1
        low_code = np.clip(_rha(values / (threshold / span)), 0, span)
        high_code = half + np.clip(
            _rha((values - threshold) / ((cal_max - threshold) / span)), 0, span)
        codes = np.where(values < threshold, low_code, high_code)
        low = (codes / span) * threshold
        frac = (codes - half) / span
        high = threshold * (1.0 - frac) + cal_max * frac
        return np.where(codes < half, low, high)
    raise AssertionError(f"oracle does not model scheme {scheme!r}")


def fq_softmax_rows(values: np.ndarray, scheme: str, bits: int) -> np.ndarray:
    """Fake-quant with each last-axis row anchored to its own max (and min).

    uniform spans [row_min, row_max] with a floored step, and a constant
    row [v, v] takes step |v|; the max-anchored schemes take cal_max =
    row_max, and twin splits at row_max / 2^(bits-1).
    """
    hi = values.max(axis=-1, keepdims=True)
    if scheme == "uniform":
        lo = values.min(axis=-1, keepdims=True)
        levels = (1 << bits) - 1
        scale = np.maximum(np.where(hi > lo, (hi - lo) / levels, np.abs(lo)),
                           _EPS)
        zero_point = np.clip(_rha(-lo / scale), 0, levels)
        return _fq(values, ("uniform", scale, zero_point, bits))
    if scheme == "twin":
        return _fq(values, ("twin", bits, hi, hi / (1 << (bits - 1))))
    return _fq(values, (scheme, bits, hi))


def _maybe_fq(values: np.ndarray, state: dict, key) -> np.ndarray:
    params = state.get(key)
    if params is not None and params[0] == "dynamic":
        return fq_softmax_rows(values, params[1], params[2])
    return values if params is None else _fq(values, params)


def _softmax_state(scheme: str, bits: int, lo: float, hi: float,
                   dynamic: bool) -> tuple:
    """State of a post-softmax site whose FP-pass range is [lo, hi]:
    ``("dynamic", scheme, bits)`` re-anchors every row at run time; static
    sites anchor to the whole range as ``fq_softmax_rows`` does per row."""
    if dynamic:
        return ("dynamic", scheme, bits)
    if scheme == "uniform":
        levels = (1 << bits) - 1
        scale = max((hi - lo) / levels if hi > lo else abs(lo), _EPS)
        return ("uniform", scale, int(np.clip(_rha(-lo / scale), 0, levels)),
                bits)
    if scheme == "twin":
        return ("twin", bits, hi, hi / (1 << (bits - 1)))
    return (scheme, bits, hi)


def _constant_state(value: float, bits: int) -> tuple:
    """Uniform params that hold ``value`` exactly: code 1 of step ``value``
    if positive, code 0 below zero point 1 if negative, the floor step if
    zero."""
    if value == 0.0:
        return ("uniform", _EPS, 0, bits)
    return ("uniform", abs(value), int(value < 0), bits)


# ---------------------------------------------------------------------------
# straight-line toy-vit forward


def _ln(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    return (centered * inv_std) * gain + bias


def _softmax_rows(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def _gelu(x):
    phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    return x * phi


def _block_fwd(p, x, heads, head_dim, state, block):
    """One block, returning (output, per-kind matmul-output taps).

    ``state`` maps (block, kind, role) -> quantizer tuple; sites absent from
    it run full precision, matching the search contract.
    """
    batch, n, d = x.shape
    inv_sqrt_d = 1.0 / math.sqrt(head_dim)

    def key(kind, role):
        return (block, kind, role)

    h = _ln(x, p.ln1_gamma, p.ln1_beta)
    hq = _maybe_fq(h, state, key("qkv-projection", "A"))
    q = np.matmul(hq, _maybe_fq(p.w_q, state, key("qkv-projection", "B")))
    k = np.matmul(hq, _maybe_fq(p.w_k, state, key("qkv-projection", "B")))
    v = np.matmul(hq, _maybe_fq(p.w_v, state, key("qkv-projection", "B")))

    def split(t):
        return np.transpose(np.reshape(t, (batch, n, heads, head_dim)),
                            (0, 2, 1, 3))

    qh = split(q)
    kt = np.transpose(split(k), (0, 1, 3, 2))
    vh = split(v)
    scores = np.matmul(_maybe_fq(qh, state, key("attn-score", "A")),
                       _maybe_fq(kt, state, key("attn-score", "B"))) * inv_sqrt_d
    attn = _softmax_rows(scores)
    attn = _maybe_fq(attn, state, key("attn-apply", "A"))
    ctx = np.matmul(attn, _maybe_fq(vh, state, key("attn-apply", "B")))
    merged = np.reshape(np.transpose(ctx, (0, 2, 1, 3)), (batch, n, d))
    attn_out = np.matmul(_maybe_fq(merged, state, key("out-projection", "A")),
                         _maybe_fq(p.w_o, state, key("out-projection", "B")))
    h1 = x + attn_out
    h2 = _ln(h1, p.ln2_gamma, p.ln2_beta)
    m1_pre = np.matmul(_maybe_fq(h2, state, key("mlp-1", "A")),
                       _maybe_fq(p.w1, state, key("mlp-1", "B")))
    m1 = m1_pre + p.b1
    m2_pre = np.matmul(_maybe_fq(_gelu(m1), state, key("mlp-2", "A")),
                       _maybe_fq(p.w2, state, key("mlp-2", "B")))
    m2 = m2_pre + p.b2
    taps = {
        "qkv-projection": [q, k, v],
        "attn-score": [scores],
        "attn-apply": [ctx],
        "out-projection": [attn_out],
        "mlp-1": [m1_pre],
        "mlp-2": [m2_pre],
    }
    return h1 + m2, taps


def oracle_forward(model, x):
    """FP logits / block outputs / embed output as plain arrays."""
    spec = model.spec
    x = np.asarray(x, dtype=np.float64)
    embed_out = np.matmul(x, model.embed_w)
    current = embed_out
    block_outputs = []
    for b in range(spec.num_blocks):
        current, _ = _block_fwd(model.blocks[b], current, spec.num_heads,
                                spec.head_dim, {}, b)
        block_outputs.append(current)
    pooled = current.mean(axis=1)
    logits = np.matmul(pooled, model.head_w)
    return logits, block_outputs, embed_out


# ---------------------------------------------------------------------------
# masking, metric, candidate grid


def _mask(sigma, gamma):
    magnitudes = np.sort(np.abs(sigma).ravel())
    count = magnitudes.size
    m = min(max(int(math.ceil(gamma / 100.0 * count)), 0), count)
    if m == 0:
        threshold = 0.0
    elif m == count:
        threshold = math.inf
    else:
        threshold = float(magnitudes[m])
    return np.where(np.abs(sigma) < threshold, 0.0, sigma)


def _metric(sigma, h):
    contrib = sigma * sigma * h
    return float(contrib.reshape(sigma.shape[0], -1).sum(axis=1).mean())


def _grid(lo, hi, bits, alpha, beta, n):
    base = (hi - lo) / (1 << bits)
    steps = alpha + np.arange(n, dtype=np.float64) * ((beta - alpha) / (n - 1))
    scales = np.maximum(steps * base, _EPS)
    scales = np.append(scales, max((hi - lo) / ((1 << bits) - 1), _EPS))
    levels = (1 << bits) - 1
    zero_points = np.clip(_rha(-lo / scales), 0, levels)
    return [("uniform", float(s), int(z), bits)
            for s, z in zip(scales, zero_points)]


def _argmin_first(trace):
    best = 0
    for i, value in enumerate(trace):
        if value < trace[best]:
            best = i
    return best


# ---------------------------------------------------------------------------
# end-to-end search oracle


def oracle_calibrate(model, inputs, labels, *, w_bits, a_bits, gamma, alpha,
                     beta, n, rounds, unit="block", h_override=None,
                     softmax="mpq", dynamic=False):
    """Exhaustive reimplementation of the per-block alternating scale search.

    Returns ``{site_id: (scale, zero_point, chosen_index, final_trace)}`` for
    every searched site. ``unit`` selects the drift reference: whole block
    outputs (default) or per-matmul outputs (the layerwise baseline), in
    which case ``h_override[(block, kind)]`` must supply the sensitivity
    arrays (the search being checked is downstream of autodiff).

    ``softmax`` names the post-softmax quantizer (``uniform``, ``mpq``,
    ``log2`` or ``twin``), anchored to the FP-pass range, or to each row's
    own range with ``dynamic``. An operand that is one constant over the FP
    pass is not searched: it holds that constant exactly, and its entry is
    ``(scale, zero_point, None, None)``.
    """
    spec = model.spec
    x = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels)
    batch, n_patches = x.shape[0], spec.patch_count

    # --- full-precision pass: outputs, taps, ranges, softmax stats ---------
    embed_out = np.matmul(x, model.embed_w)
    fp_outputs, fp_taps, block_inputs = [], [], []
    ranges: dict[tuple, tuple[float, float]] = {}
    softmax_max: list[float] = []
    current = embed_out
    for b in range(spec.num_blocks):
        block_inputs.append(current)
        p = model.blocks[b]
        h = _ln(current, p.ln1_gamma, p.ln1_beta)
        q, k, v = (np.matmul(h, w) for w in (p.w_q, p.w_k, p.w_v))

        def split(t):
            return np.transpose(
                np.reshape(t, (batch, n_patches, spec.num_heads, spec.head_dim)),
                (0, 2, 1, 3))

        qh = split(q)
        kt = np.transpose(split(k), (0, 1, 3, 2))
        vh = split(v)
        scores = np.matmul(qh, kt) * (1.0 / math.sqrt(spec.head_dim))
        attn = _softmax_rows(scores)
        ctx = np.matmul(attn, vh)
        merged = np.reshape(np.transpose(ctx, (0, 2, 1, 3)),
                            (batch, n_patches, spec.embed_dim))
        attn_out = np.matmul(merged, p.w_o)
        h1 = current + attn_out
        h2 = _ln(h1, p.ln2_gamma, p.ln2_beta)
        m1_pre = np.matmul(h2, p.w1)
        gelu_out = _gelu(m1_pre + p.b1)
        m2_pre = np.matmul(gelu_out, p.w2)
        out = h1 + (m2_pre + p.b2)

        ranges[(b, "qkv-projection", "A")] = (float(h.min()), float(h.max()))
        w_lo = min(float(p.w_q.min()), float(p.w_k.min()), float(p.w_v.min()))
        w_hi = max(float(p.w_q.max()), float(p.w_k.max()), float(p.w_v.max()))
        ranges[(b, "qkv-projection", "B")] = (w_lo, w_hi)
        ranges[(b, "attn-score", "A")] = (float(qh.min()), float(qh.max()))
        ranges[(b, "attn-score", "B")] = (float(kt.min()), float(kt.max()))
        ranges[(b, "attn-apply", "B")] = (float(vh.min()), float(vh.max()))
        ranges[(b, "out-projection", "A")] = (float(merged.min()),
                                              float(merged.max()))
        ranges[(b, "out-projection", "B")] = (float(p.w_o.min()),
                                              float(p.w_o.max()))
        ranges[(b, "mlp-1", "A")] = (float(h2.min()), float(h2.max()))
        ranges[(b, "mlp-1", "B")] = (float(p.w1.min()), float(p.w1.max()))
        ranges[(b, "mlp-2", "A")] = (float(gelu_out.min()), float(gelu_out.max()))
        ranges[(b, "mlp-2", "B")] = (float(p.w2.min()), float(p.w2.max()))
        softmax_max.append(float(attn.max()))
        ranges[(b, "attn-apply", "A")] = (float(attn.min()), float(attn.max()))

        fp_outputs.append(out)
        fp_taps.append({
            "qkv-projection": [q, k, v],
            "attn-score": [scores],
            "attn-apply": [ctx],
            "out-projection": [attn_out],
            "mlp-1": [m1_pre],
            "mlp-2": [m2_pre],
        })
        current = out

    # --- sensitivity weights ------------------------------------------------
    if unit == "block":
        if h_override is not None:
            h_diags = {(b, "block"): [h_override[b]]
                       for b in range(spec.num_blocks)}
        else:
            # Closed-form loss gradient at the (single) block output: softmax
            # cross-entropy tail through mean pooling and the linear head.
            assert spec.num_blocks == 1, \
                "closed-form block gradients cover single-block models only"
            z = np.matmul(fp_outputs[0].mean(axis=1), model.head_w)
            z_max = z.max(axis=1, keepdims=True)
            exps = np.exp(z - z_max)
            probs = exps / exps.sum(axis=1, keepdims=True)
            g = probs.copy()
            g[np.arange(batch), labels] -= 1.0
            g_logits = g * (np.ones(()) / batch)
            g_pooled = np.matmul(g_logits, np.swapaxes(model.head_w, -1, -2))
            g_out = np.broadcast_to(
                np.expand_dims(g_pooled, 1) / n_patches,
                fp_outputs[0].shape).copy()
            h_diags = {(0, "block"): [g_out * g_out]}
    else:
        assert h_override is not None, "layerwise oracle needs sensitivities"
        h_diags = dict(h_override)

    # --- alternating reverse-order search -----------------------------------
    def unit_metric(block, kind, state):
        out, taps = _block_fwd(model.blocks[block], block_inputs[block],
                               spec.num_heads, spec.head_dim, state, block)
        if unit == "block":
            produced = [out]
            reference = [fp_outputs[block]]
            weights = h_diags[(block, "block")]
        else:
            produced = taps[kind]
            reference = fp_taps[block][kind]
            weights = h_diags[(block, kind)]
        total = 0.0
        for trial, ref, h in zip(produced, reference, weights):
            total += _metric(_mask(trial - ref, gamma), h)
        return total

    chosen: dict[str, tuple] = {}
    for b in range(spec.num_blocks):
        state = {(b, "attn-apply", "A"): _softmax_state(
            softmax, a_bits, *ranges[(b, "attn-apply", "A")], dynamic)}
        for kind in _REVERSED_KINDS:
            b_bits = w_bits if kind in _WEIGHT_KINDS else a_bits
            lo, hi = ranges[(b, kind, "B")]
            init_scale = max((hi - lo) / (1 << b_bits), _EPS)
            init_zp = int(np.clip(_rha(-lo / init_scale), 0, (1 << b_bits) - 1))
            state[(b, kind, "B")] = ("uniform", init_scale, init_zp, b_bits)
            b_cands = _grid(lo, hi, b_bits, alpha, beta, n)
            search_a = kind != "attn-apply"
            if search_a:
                a_lo, a_hi = ranges[(b, kind, "A")]
                a_cands = _grid(a_lo, a_hi, a_bits, alpha, beta, n)
            # A constant operand holds its value exactly and is not searched.
            search_b = lo != hi
            if not search_b:
                state[(b, kind, "B")] = _constant_state(lo, b_bits)
                chosen[f"b{b}.{kind}.B"] = (*state[(b, kind, "B")][1:3],
                                            None, None)
            if search_a and a_lo == a_hi:
                search_a = False
                state[(b, kind, "A")] = _constant_state(a_lo, a_bits)
                chosen[f"b{b}.{kind}.A"] = (*state[(b, kind, "A")][1:3],
                                            None, None)
            for _ in range(rounds):
                if search_a:
                    trace = []
                    for cand in a_cands:
                        trial = dict(state)
                        trial[(b, kind, "A")] = cand
                        trace.append(unit_metric(b, kind, trial))
                    idx = _argmin_first(trace)
                    state[(b, kind, "A")] = a_cands[idx]
                    chosen[f"b{b}.{kind}.A"] = (a_cands[idx][1], a_cands[idx][2],
                                                idx, trace)
                if search_b:
                    trace = []
                    for cand in b_cands:
                        trial = dict(state)
                        trial[(b, kind, "B")] = cand
                        trace.append(unit_metric(b, kind, trial))
                    idx = _argmin_first(trace)
                    state[(b, kind, "B")] = b_cands[idx]
                    chosen[f"b{b}.{kind}.B"] = (b_cands[idx][1], b_cands[idx][2],
                                                idx, trace)
    return chosen


# ---------------------------------------------------------------------------
# reference tape: the reverse-mode engine the FP pass once ran on
#
# A general tape over ``Tensor``s, kept only as the reference that the
# library's hand-written block backward is checked against bit for bit.
# Its ops give the library ops' forward bits; while a tape records, each
# also records one gradient function per ``Tensor`` operand. An array or a
# number is a constant: no node, no gradient. The sweep adds a node's
# contributions in reverse node order, left-to-right parents, each first
# contribution copied to a C-ordered buffer and later ones added with
# ``+=``. A tape holds every tensor it records and every gradient it fills.

LAYERNORM_EPS = 1e-5
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# The tape recording, if any.
_TAPE = None


def _asarray(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """A float64 array that carries a gradient on the tape recording it."""

    __slots__ = ("data",)

    def __init__(self, values):
        self.data = _asarray(values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis, keepdims)


class Tape:
    """Nodes ``(parent_ids, gradients, tensor)`` in execution order, a leaf
    being ``((), (), tensor)``; maps Tensor -> node id and Tensor ->
    gradient, by identity."""

    def __init__(self):
        self._nodes: list[tuple] = []
        self._ids: dict[Tensor, int] = {}
        self._grads: dict[Tensor, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        global _TAPE
        _TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _TAPE
        _TAPE = None

    def _append(self, parent_ids, gradients, tensor: Tensor) -> int:
        node_id = self._ids[tensor] = len(self._nodes)
        self._nodes.append((parent_ids, gradients, tensor))
        return node_id

    def _leaf(self, tensor: Tensor) -> int:
        node_id = self._ids.get(tensor)
        return self._append((), (), tensor) if node_id is None else node_id

    def backward(self, loss: Tensor) -> None:
        """Fill the gradient of every node the scalar ``loss`` depends on."""
        grads = {self._ids[loss]: np.ones((), dtype=np.float64)}
        for node_id in range(len(self._nodes) - 1, -1, -1):
            grad = grads.pop(node_id, None)
            if grad is None:
                continue
            parent_ids, gradients, tensor = self._nodes[node_id]
            self._grads[tensor] = grad
            for parent_id, gradient in zip(parent_ids, gradients):
                contrib = gradient(grad)
                assert contrib.shape == self._nodes[parent_id][2].shape
                buffer = grads.get(parent_id)
                if buffer is None:
                    grads[parent_id] = np.array(contrib, order="C")
                else:
                    buffer += contrib

    def grad(self, tensor: Tensor) -> Tensor | None:
        grad = self._grads.get(tensor)
        return None if grad is None else Tensor(grad)


def _result(out: np.ndarray, *operands) -> Tensor:
    """``out`` as a Tensor; while a tape records, also its node, keeping
    the gradient function of each Tensor operand only."""
    result = Tensor(out)
    if _TAPE is not None:
        kept = [(_TAPE._leaf(value), gradient) for value, gradient in operands
                if isinstance(value, Tensor)]
        ids, gradients = zip(*kept) if kept else ((), ())
        _TAPE._append(ids, gradients, result)
    return result


def _reduce_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def array_of(value) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else _asarray(value)


def matmul(a, b) -> Tensor:
    a_data, b_data = array_of(a), array_of(b)
    a_shape, b_shape = a_data.shape, b_data.shape
    return _result(np.matmul(a_data, b_data),
                   (a, lambda g: _reduce_to_shape(
                       np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape)),
                   (b, lambda g: _reduce_to_shape(
                       np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape)))


def add(a, b) -> Tensor:
    a_data, b_data = array_of(a), array_of(b)
    a_shape, b_shape = a_data.shape, b_data.shape
    return _result(a_data + b_data, (a, lambda g: _reduce_to_shape(g, a_shape)),
                   (b, lambda g: _reduce_to_shape(g, b_shape)))


def mul(a, b) -> Tensor:
    a_data, b_data = array_of(a), array_of(b)
    a_shape, b_shape = a_data.shape, b_data.shape
    return _result(a_data * b_data,
                   (a, lambda g: _reduce_to_shape(g * b_data, a_shape)),
                   (b, lambda g: _reduce_to_shape(g * a_data, b_shape)))


def transpose(x, axes) -> Tensor:
    axes = tuple(axes)
    return _result(np.transpose(array_of(x), axes),
                   (x, lambda g: np.transpose(g, np.argsort(axes))))


def reshape(x, shape) -> Tensor:
    x_data = array_of(x)
    x_shape = x_data.shape
    return _result(np.reshape(x_data, tuple(shape)),
                   (x, lambda g: np.reshape(g, x_shape)))


def _spread(g, shape, axis, keepdims: bool) -> np.ndarray:
    expanded = g if axis is None or keepdims else np.expand_dims(g, axis)
    return np.broadcast_to(expanded, shape).copy()


def tensor_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x_data = array_of(x)
    x_shape = x_data.shape
    return _result(x_data.sum(axis=axis, keepdims=keepdims),
                   (x, lambda g: _spread(g, x_shape, axis, keepdims)))


def tensor_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x_data = array_of(x)
    x_shape = x_data.shape

    def gradient(g):
        axes = range(len(x_shape)) if axis is None else np.atleast_1d(axis)
        count = math.prod(x_shape[i] for i in axes)
        return _spread(g / count, x_shape, axis, keepdims)

    return _result(x_data.mean(axis=axis, keepdims=keepdims), (x, gradient))


def softmax(x, axis: int = -1) -> Tensor:
    x_data = array_of(x)
    out = x_data - x_data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def gradient(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - inner)

    return _result(out, (x, gradient))


def layernorm(x, gamma, beta, eps: float = LAYERNORM_EPS) -> Tensor:
    x_data, gamma_data, beta_data = array_of(x), array_of(gamma), array_of(beta)
    mu = x_data.mean(axis=-1, keepdims=True)
    xhat = x_data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    reduce_axes = tuple(range(x_data.ndim - 1))

    def x_gradient(g):
        dxhat = g * gamma_data
        return inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))

    out = xhat * gamma_data
    out += beta_data
    return _result(out, (x, x_gradient),
                   (gamma, lambda g: (g * xhat).sum(axis=reduce_axes)),
                   (beta, lambda g: g.sum(axis=reduce_axes)))


def _phi(x: np.ndarray) -> np.ndarray:
    out = np.asarray(np.abs(x))
    out *= _INV_SQRT2
    erf(out, out=out)
    np.copysign(out, x, out=out)
    out += 1.0
    out *= 0.5
    return out


def gelu(x) -> Tensor:
    x_data = array_of(x)

    def gradient(g):
        slope = np.asarray(-0.5 * x_data)
        slope *= x_data
        np.exp(slope, out=slope)
        slope *= _INV_SQRT_2PI
        np.multiply(x_data, slope, out=slope)
        out = _phi(x_data)
        out += slope
        np.multiply(g, out, out=out)
        return out

    out = _phi(x_data)
    out *= x_data
    return _result(out, (x, gradient))


def cross_entropy(logits, labels) -> Tensor:
    z = array_of(logits)
    labels = np.asarray(labels)
    batch = z.shape[0]
    shifted = z - z.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sums)
    nll = -log_probs[np.arange(batch), labels]

    def gradient(g):
        grad = exps / sums
        grad[np.arange(batch), labels] -= 1.0
        return grad * (g / batch)

    return _result(np.asarray(nll.mean()), (logits, gradient))


def _taped_block(p, x, heads, head_dim, taps: dict) -> Tensor:
    """One FP block on the reference tape, op for op in the order the
    library's staged forward runs them; ``taps`` gets each matmul's output
    Tensors by kind (attn-score after its 1/sqrt(head_dim) scale)."""
    batch, n, d = x.shape

    def split(t):
        return transpose(reshape(t, (batch, n, heads, head_dim)), (0, 2, 1, 3))

    h = layernorm(x, p.ln1_gamma, p.ln1_beta)
    taps["qkv-projection"] = [matmul(h, w) for w in (p.w_q, p.w_k, p.w_v)]
    q, k, v = taps["qkv-projection"]
    qh = split(q)
    kt = transpose(split(k), (0, 1, 3, 2))
    vh = split(v)
    scores = mul(matmul(qh, kt), 1.0 / math.sqrt(head_dim))
    ctx = matmul(softmax(scores, axis=-1), vh)
    attn_out = matmul(reshape(transpose(ctx, (0, 2, 1, 3)), (batch, n, d)), p.w_o)
    h1 = add(x, attn_out)
    m1 = matmul(layernorm(h1, p.ln2_gamma, p.ln2_beta), p.w1)
    m2 = matmul(gelu(add(m1, p.b1)), p.w2)
    taps.update({"attn-score": [scores], "attn-apply": [ctx],
                 "out-projection": [attn_out], "mlp-1": [m1], "mlp-2": [m2]})
    return add(h1, add(m2, p.b2))


def oracle_taped_gradients(model, inputs, labels):
    """The FP pass's gradients off the reference tape, every weight a
    constant: ``(block_grads, unit_grads)``, the loss gradient at each block
    output and ``unit_grads[(block, kind)]`` at each matmul output."""
    spec = model.spec
    taps = [{} for _ in range(spec.num_blocks)]
    with Tape() as tape:
        current = matmul(Tensor(inputs), model.embed_w)
        outputs = []
        for b in range(spec.num_blocks):
            current = _taped_block(model.blocks[b], current, spec.num_heads,
                                   spec.head_dim, taps[b])
            outputs.append(current)
        loss = cross_entropy(matmul(current.mean(axis=1), model.head_w), labels)
        tape.backward(loss)
    block_grads = [tape.grad(t).data for t in outputs]
    unit_grads = {(b, kind): [tape.grad(t).data for t in outs]
                  for b, block_taps in enumerate(taps)
                  for kind, outs in block_taps.items()}
    return block_grads, unit_grads
