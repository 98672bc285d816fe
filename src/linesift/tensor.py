"""Minimal dense tensor with reverse-mode automatic differentiation.

Everything is float64 and row-major. The op set is exactly what the
hierarchical encoder, the recurrent decoder and the detection heads need;
there is no general broadcasting beyond adding/multiplying a trailing-axis
vector onto a matrix. Keeping the op set small keeps the graph auditable
and makes the finite-difference gradient suite tractable.

Gradients accumulate: calling ``backward`` twice on the same leaves adds
into ``.grad`` both times. Zeroing is explicit (``zero_grad``), which is
what the joint coarse+fine loss needs.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeMismatch",
    "VocabularyError",
    "no_grad",
    "constant",
    "parameter",
    "add",
    "mul",
    "scale",
    "matmul",
    "transpose",
    "reshape",
    "rows",
    "concat_rows",
    "concat_cols",
    "gather_rows",
    "embedding_lookup",
    "softmax_rows",
    "multi_head_attention",
    "layer_norm",
    "gelu",
    "sigmoid",
    "tanh",
    "dropout",
    "span_combine",
    "cross_entropy",
    "tensor_sum",
    "OptimizerState",
    "adamw_step",
]


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested op."""


class VocabularyError(ValueError):
    """A token id falls outside the embedding table."""


class Tensor:
    """A float64 array node in a reverse-mode autodiff graph.

    ``requires_grad`` marks leaves (parameters) and propagates through ops.
    Interior nodes keep references to their parents plus a closure that
    maps the incoming gradient to parent gradients.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        # (ascontiguousarray would promote 0-d scalars to shape (1,))
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = arr.copy()
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, scale(other, -1.0))

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other) -> "Tensor":
        return scale(self, float(other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def rows(self, start: int, stop: int) -> "Tensor":
        return rows(self, start, stop)

    def transpose(self) -> "Tensor":
        return transpose(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    # -- reverse-mode traversal ----------------------------------------------

    def backward(self) -> None:
        """Populate ``.grad`` on every reachable requires_grad leaf.

        The loss must be scalar. Gradients computed by this call are added
        into any gradients already stored on the leaves; interior nodes get
        no ``.grad``.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        order = _topo_order(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.get(id(node))
            if g is None or node._backward is None:
                continue
            node._backward(g, grads)
        for node in order:
            if node.requires_grad and node._backward is None and id(node) in grads:
                # the map owns each array (see _accumulate), so no copy
                piece = grads[id(node)]
                if node.grad is None:
                    node.grad = piece
                else:
                    node.grad += piece


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative post-order: encoder graphs (and the LSTM chain in
    # particular) are deep enough to blow the recursion limit.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _accumulate(grads: dict[int, np.ndarray], node: Tensor, piece: np.ndarray) -> None:
    if not node.requires_grad:
        return
    key = id(node)
    if key in grads:
        grads[key] += piece
    else:
        # Always copy: `piece` may alias the upstream gradient (add passes
        # the same array to both parents) and the map entry is mutated by
        # later `+=` contributions.
        grads[key] = np.array(piece, dtype=np.float64)


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Build no graph inside the block: op results keep no parents or closure.

    For inference. Nests, restores the previous mode on exit (also when the
    body raises), and is per thread.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


# -- arithmetic ---------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. ``b`` may be a vector broadcast over ``a``'s rows."""
    if a.shape == b.shape:
        def back(g, grads):
            _accumulate(grads, a, g)
            _accumulate(grads, b, g)
        return _result(a.data + b.data, (a, b), back)
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        def back(g, grads):
            _accumulate(grads, a, g)
            _accumulate(grads, b, g.sum(axis=0))
        return _result(a.data + b.data, (a, b), back)
    raise ShapeMismatch(f"add: incompatible shapes {a.shape} and {b.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def back(g, grads):
        _accumulate(grads, a, g * b.data)
        _accumulate(grads, b, g * a.data)

    return _result(a.data * b.data, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g, grads):
        _accumulate(grads, a, g * c)

    return _result(a.data * c, (a,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product with gradients to both operands."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch(
            f"matmul: expects 2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(
            f"matmul: inner dimensions differ for shapes {a.shape} and {b.shape}"
        )

    def back(g, grads):
        _accumulate(grads, a, g @ b.data.T)
        _accumulate(grads, b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), back)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeMismatch(f"transpose: expects a 2-D tensor, got {a.shape}")

    def back(g, grads):
        _accumulate(grads, a, g.T)

    return _result(np.ascontiguousarray(a.data.T), (a,), back)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def back(g, grads):
        _accumulate(grads, a, g.reshape(a.shape))

    return _result(a.data.reshape(shape), (a,), back)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice [start, stop) of a matrix (or of a vector)."""
    if not (0 <= start < stop <= a.shape[0]):
        raise ShapeMismatch(
            f"rows: slice [{start}, {stop}) out of range for shape {a.shape}"
        )

    def back(g, grads):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[start:stop] = g
            _accumulate(grads, a, full)

    return _result(a.data[start:stop].copy(), (a,), back)


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Vertical concatenation; the merge step of the segment pipeline."""
    if not parts:
        raise ValueError("concat_rows: empty list")
    sizes = [p.shape[0] for p in parts]

    def back(g, grads):
        offset = 0
        for p, size in zip(parts, sizes):
            _accumulate(grads, p, g[offset:offset + size])
            offset += size

    return _result(np.concatenate([p.data for p in parts], axis=0),
                   tuple(parts), back)


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Horizontal concatenation; joins attention heads."""
    if not parts:
        raise ValueError("concat_cols: empty list")
    widths = [p.shape[1] for p in parts]

    def back(g, grads):
        offset = 0
        for p, width in zip(parts, widths):
            _accumulate(grads, p, g[:, offset:offset + width])
            offset += width

    return _result(np.concatenate([p.data for p in parts], axis=1),
                   tuple(parts), back)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by (possibly repeating) indices; grads sum on repeats."""
    idx = np.asarray(indices, dtype=np.int64)

    def back(g, grads):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            _accumulate(grads, a, full)

    return _result(a.data[idx].copy(), (a,), back)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Row lookup into an embedding table with id validation."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatch(f"embedding_lookup: ids must be 1-D, got {idx.shape}")
    vocab = table.shape[0]
    bad = (idx < 0) | (idx >= vocab)
    if bad.any():
        offender = int(idx[bad][0])
        raise VocabularyError(
            f"token id {offender} outside vocabulary of size {vocab}"
        )
    return gather_rows(table, idx)


# -- nonlinearities -----------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax, numerically stabilized by row-max subtraction."""
    if x.ndim != 2:
        raise ShapeMismatch(f"softmax_rows: expects 2-D input, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def back(g, grads):
        # d softmax: s * (g - sum(g * s))
        inner = (g * s).sum(axis=1, keepdims=True)
        _accumulate(grads, x, s * (g - inner))

    return _result(s, (x,), back)


def multi_head_attention(H: Tensor, wqkv: Tensor, heads: int, sink=None) -> Tensor:
    """Scaled-dot self-attention over all heads as one op, heads concatenated.

    ``wqkv`` is [d x 3*heads*d_k]: every head's query projection, then every
    head's key projection, then every head's value projection. Head h
    computes softmax(Q_h K_h^T / sqrt(d_k)) V_h; the [n x heads*d_k] output
    holds the heads side by side (the output projection is left to the
    caller). When ``sink`` is a list, one list of the per-head [n x n]
    attention matrices is appended to it.

    The backward pass is analytic; the attention weights are the only
    [n x n] array it keeps.
    """
    if (H.ndim != 2 or wqkv.ndim != 2 or heads < 1 or wqkv.shape[0] != H.shape[1]
            or wqkv.shape[1] % (3 * heads)):
        raise ShapeMismatch(
            f"multi_head_attention: input {H.shape}, wqkv {wqkv.shape}, {heads} heads"
        )
    n = H.shape[0]
    width = wqkv.shape[1] // 3
    dk = width // heads
    qkv = H.data @ wqkv.data
    # [heads x n x dk] views of the query, key and value column blocks
    q, k, v = (qkv[:, i * width:(i + 1) * width].reshape(n, heads, dk)
               .transpose(1, 0, 2) for i in range(3))
    scale_dk = 1.0 / math.sqrt(dk)
    att = np.matmul(q, k.transpose(0, 2, 1))
    att *= scale_dk
    att -= att.max(axis=2, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=2, keepdims=True)
    if sink is not None:
        sink.append([a.copy() for a in att])
    ctx = np.matmul(att, v)
    out = ctx.transpose(1, 0, 2).reshape(n, width)

    def back(g, grads):
        g_ctx = g.reshape(n, heads, dk).transpose(1, 0, 2)
        g_qkv = np.empty_like(qkv)
        g_q, g_k, g_v = (g_qkv[:, i * width:(i + 1) * width].reshape(n, heads, dk)
                         .transpose(1, 0, 2) for i in range(3))
        g_v[...] = np.matmul(att.transpose(0, 2, 1), g_ctx)
        # softmax backward: att * (g_att - rowsum(g_att * att)), where the
        # row sum equals rowsum(g_ctx * ctx) and costs [n x dk], not [n x n]
        g_att = np.matmul(g_ctx, v.transpose(0, 2, 1))
        g_att -= (g_ctx * ctx).sum(axis=2, keepdims=True)
        g_att *= att
        # the 1/sqrt(dk) score scale, applied to the small operands
        g_q[...] = np.matmul(g_att, k * scale_dk)
        g_k[...] = np.matmul(g_att.transpose(0, 2, 1), q * scale_dk)
        if H.requires_grad:
            _accumulate(grads, H, g_qkv @ wqkv.data.T)
        if wqkv.requires_grad:
            _accumulate(grads, wqkv, H.data.T @ g_qkv)

    return _result(out, (H, wqkv), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Per-row layer normalization followed by the gain/bias affine map."""
    if x.ndim != 2 or x.shape[1] < 2:
        raise ShapeMismatch(f"layer_norm: needs [r x d] with d >= 2, got {x.shape}")
    if gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ShapeMismatch(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} "
            f"do not match feature dim {x.shape[1]}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def back(g, grads):
        gx = g * gain.data
        if x.requires_grad:
            # classic LN backward in terms of xhat
            term = gx - gx.mean(axis=1, keepdims=True) \
                - xhat * (gx * xhat).mean(axis=1, keepdims=True)
            _accumulate(grads, x, term * inv)
        _accumulate(grads, gain, (g * xhat).sum(axis=0))
        _accumulate(grads, bias, g.sum(axis=0))

    return _result(xhat * gain.data + bias.data, (x, gain, bias), back)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    e = erf(x.data * _INV_SQRT2)

    def back(g, grads):
        d = 0.5 * (1.0 + e) + x.data * np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _accumulate(grads, x, g * d)

    return _result(0.5 * x.data * (1.0 + e), (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))

    def back(g, grads):
        _accumulate(grads, x, g * s * (1.0 - s))

    return _result(s, (x,), back)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def back(g, grads):
        _accumulate(grads, x, g * (1.0 - t * t))

    return _result(t, (x,), back)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout. No model uses it; the benchmark tracer still wraps it by name."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)

    def back(g, grads):
        _accumulate(grads, x, g * keep)

    return _result(x.data * keep, (x,), back)


def span_combine(values: Tensor, spans: list[tuple[int, int]], scores: Tensor) -> Tensor:
    """Per-span softmax-weighted sums of rows of ``values``.

    ``spans`` are half-open row ranges; ``scores`` holds one score per row
    of ``values``. Output row i is sum_j w_j * values[j] over span i, where
    w is the softmax of the span's scores, so zero scores give the span's
    mean. Gradients flow to both the rows and the scores.
    """
    n = values.shape[0]
    if values.ndim != 2 or scores.shape != (n,):
        raise ShapeMismatch(
            f"span_combine: values {values.shape} need scores of shape ({n},), "
            f"got {scores.shape}"
        )
    out = np.empty((len(spans), values.shape[1]), dtype=np.float64)
    weights = []
    for i, (o, p) in enumerate(spans):
        if not (0 <= o < p <= n):
            raise ShapeMismatch(f"span_combine: span ({o}, {p}) invalid for {n} rows")
        raw = scores.data[o:p]
        e = np.exp(raw - raw.max())
        w = e / e.sum()
        out[i] = w @ values.data[o:p]
        weights.append(w)

    def back(g, grads):
        if values.requires_grad:
            gv = np.zeros_like(values.data)
            for (o, p), w, g_row in zip(spans, weights, g):
                gv[o:p] += np.outer(w, g_row)
            _accumulate(grads, values, gv)
        if scores.requires_grad:
            gs = np.zeros_like(scores.data)
            for (o, p), w, g_row in zip(spans, weights, g):
                # softmax backward within the span: w * (g_w - sum(g_w * w))
                g_w = values.data[o:p] @ g_row
                gs[o:p] += w * (g_w - (g_w * w).sum())
            _accumulate(grads, scores, gs)

    return _result(out, (values, scores), back)


def cross_entropy(logits: Tensor, targets, class_weights=None) -> Tensor:
    """Mean over rows of -log softmax(logits)[target].

    With ``class_weights`` (one weight per class) the result is the
    weighted mean: sum_i w[t_i] * nll_i / sum_i w[t_i]. Natural log.
    """
    if logits.ndim != 2:
        raise ShapeMismatch(f"cross_entropy: logits must be 2-D, got {logits.shape}")
    t = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if t.shape != (n,):
        raise ShapeMismatch(
            f"cross_entropy: {n} logit rows but targets shape {t.shape}"
        )
    if ((t < 0) | (t >= c)).any():
        offender = int(t[(t < 0) | (t >= c)][0])
        raise ValueError(f"cross_entropy: target {offender} outside [0, {c})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    nll = logz - shifted[np.arange(n), t]
    if class_weights is not None:
        w = np.asarray(class_weights, dtype=np.float64)
        if w.shape != (c,):
            raise ShapeMismatch(
                f"cross_entropy: class_weights shape {w.shape}, expected ({c},)"
            )
        per_row_w = w[t]
    else:
        per_row_w = np.ones(n)
    wsum = per_row_w.sum()
    loss = float((per_row_w * nll).sum() / wsum)

    def back(g, grads):
        if logits.requires_grad:
            p = np.exp(shifted)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(n), t] -= 1.0
            p *= (per_row_w / wsum)[:, None]
            _accumulate(grads, logits, p * g.reshape(()))

    return _result(np.asarray(loss), (logits,), back)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements (scalar output)."""

    def back(g, grads):
        _accumulate(grads, x, np.full_like(x.data, g.reshape(())))

    return _result(np.asarray(x.data.sum()), (x,), back)


# -- AdamW --------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam state over a named parameter set."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def ensure(self, params: dict[str, Tensor]) -> None:
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            elif self.m[name].shape != p.data.shape:
                raise ShapeMismatch(
                    f"optimizer state for {name!r} has shape {self.m[name].shape}, "
                    f"parameter has {p.data.shape}"
                )


def adamw_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """One AdamW update over ``params``; missing grads count as zero."""
    state.ensure(params)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeMismatch(
                f"gradient for {name!r} has shape {g.shape}, "
                f"parameter has {p.data.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p.data -= state.learning_rate * (
            mhat / (np.sqrt(vhat) + state.epsilon) + state.weight_decay * p.data
        )
