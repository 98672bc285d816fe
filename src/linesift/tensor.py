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
from collections import Counter
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
    "encoder_layer",
    "layer_norm",
    "gelu",
    "sigmoid",
    "tanh",
    "lstm_sequence",
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
        self._parents: tuple[Tensor, ...] | None = ()  # None: released
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

    def backward(self, into=None) -> None:
        """Populate ``.grad`` on every reachable requires_grad leaf.

        The loss must be scalar. Gradients computed by this call are added
        into any gradients already stored on the leaves; interior nodes get
        no ``.grad``. With ``into``, a callable, no ``.grad`` is touched
        (graphs on other threads can share the leaves): ``into(leaf, grad)``
        is called once per leaf with its whole gradient, which may be shared,
        as soon as the closure of its last consumer has run (if a consumer
        got no gradient, when the walk reaches the leaf).

        With ``into`` the caller owns the graph (``parallel.backward_sum``
        builds each loss in its task), and the walk releases it as it goes:
        once a node's closure has run, the closure and the node's parents are
        dropped, so each op's saved arrays and output are freed before the
        ops below it run. A later backward that reaches a released node
        raises ``ValueError``; without ``into`` the graph is kept.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        order = _topo_order(self)
        # keyed by node, not id(): a node freed by the walk frees its id
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        # per leaf, the consumers (edges from interior nodes) yet to run
        uses = Counter(p for n in order if n._backward is not None for p in n._parents
                       if p._backward is None and p.requires_grad) if into is not None else {}
        while order:
            node = order.pop()  # the walk's last reference to a walked node
            if node not in grads:
                continue
            if node._backward is not None:
                # an interior gradient is needed only until it is passed on
                node._backward(grads.pop(node), grads)
                if into is not None:
                    for parent in node._parents:
                        if parent in uses:
                            uses[parent] -= 1
                            if not uses[parent] and parent in grads:
                                into(parent, grads.pop(parent))
                    node._backward, node._parents = None, None
            elif node.requires_grad:
                piece = grads.pop(node)  # may be shared: add, never +=
                if into is not None:
                    into(node, piece)
                else:
                    node.grad = piece if node.grad is None else node.grad + piece


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative post-order: a graph can be deeper than the recursion limit.
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
        if node._parents is None:
            raise ValueError("backward() reached a node of a graph that an earlier "
                             "backward(into=...) released")
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _accumulate(grads: dict[Tensor, np.ndarray], node: Tensor, piece: np.ndarray) -> None:
    """Add ``piece`` into ``node``'s gradient. No array in the map is ever
    written in place (a later piece makes a new sum), so ``piece`` is kept as
    is even when it is, or is a view of, the upstream gradient, which ``add``
    passes to both parents."""
    if node.requires_grad:
        grads[node] = grads[node] + piece if node in grads else piece


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


def _keeps_graph(parents: tuple[Tensor, ...]) -> bool:
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _keeps_graph(parents):
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


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """The [heads x n x d_k] view of an [n x heads*d_k] array that holds the
    heads side by side."""
    return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)


def _head_views(a: np.ndarray, heads: int) -> list[np.ndarray]:
    """The query, key and value views of a [n x 3*heads*d_k] projection (or
    of its gradient), each split by ``_split_heads``."""
    width = a.shape[1] // 3
    return [_split_heads(a[:, i * width:(i + 1) * width], heads) for i in range(3)]


# Query rows scored at a time, and the largest score bound |S_ij| <=
# |q_i| |k_j| for which exp(S) needs no row-max shift: exp(+-300) is a
# normal float far from overflow, even summed over any segment's keys.
_TILE = 128
_EXP_BOUND = 300.0


def _score_tile(q_tile, k, shift: bool, out) -> np.ndarray:
    """exp(S_t - m_t) for the query rows ``q_tile`` against the keys ``k``,
    written into ``out`` and returned; with ``shift``, m_t is each row's max,
    else 0. The forward and the backward both score through here, so the
    backward's tile has the forward's bits."""
    np.matmul(q_tile, k.T, out=out)
    if shift:
        out -= out.max(axis=1, keepdims=True)
    return np.exp(out, out=out)


def _attention_forward(qkv: np.ndarray, heads: int, sink):
    """Every head's scaled-dot attention on the projection ``qkv``.

    Head h's context is (E_h V_h) * r_h, where E_h = exp(S_h - m_h) are the
    unnormalized weights of its scores S_h = Q_h K_h^T / sqrt(d_k) and r_h
    their reciprocal row sums; the weights themselves are never normalized.
    The shift m_h is 0 when the bound max|q_i| max|k_j| on the head's
    scores is at most ``_EXP_BOUND``, and the row max otherwise. The row
    sums come out of the value matmul, as the last column of E_h [V_h, 1].
    The score scale is folded into the queries, in place in ``qkv``. Each
    head is scored in ``_TILE``-row query tiles by ``_score_tile`` into one
    reused [_TILE x n] buffer, with or without a graph: no [n x n] block of
    E is kept, and the backward scores each tile again. Returns the
    [n x heads*d_k] context (heads side by side), the [heads] boolean
    shift flags and the [heads x n x 1] block of r. A list ``sink`` gets
    one list of the per-head normalized weights.
    """
    n = qkv.shape[0]
    q, k, v = _head_views(qkv, heads)
    dk = q.shape[2]
    q *= 1.0 / math.sqrt(dk)
    # written as "not within the bound", so that a NaN bound shifts too
    shift = ~(np.einsum("hij,hij->hi", q, q).max(axis=1)
              * np.einsum("hij,hij->hi", k, k).max(axis=1) <= _EXP_BOUND ** 2)
    v1 = np.ones((n, dk + 1))
    ctx = np.empty((n, heads * dk))
    c = _split_heads(ctx, heads)
    r = np.empty((heads, n, 1))
    buf = np.empty((min(n, _TILE), n))
    ev = np.empty((min(n, _TILE), dk + 1))
    maps = None if sink is None else np.empty((heads, n, n))
    for h in range(heads):
        v1[:, :dk] = v[h]
        for t in range(0, n, _TILE):
            m = min(_TILE, n - t)
            rows = slice(t, t + m)
            e = _score_tile(q[h, rows], k[h], shift[h], buf[:m])
            np.matmul(e, v1, out=ev[:m])
            np.reciprocal(ev[:m, dk:], out=r[h, rows])
            np.multiply(ev[:m, :dk], r[h, rows], out=c[h, rows])
            if maps is not None:
                np.divide(e, ev[:m, dk:], out=maps[h, rows])
    if sink is not None:
        sink.append(list(maps))
    return ctx, shift, r


def _attention_backward(g_ctx, qkv, ctx, shift, r, heads: int) -> np.ndarray:
    """The gradient of ``_attention_forward`` with respect to ``qkv``, given
    the forward's ``ctx``, ``shift`` flags and ``r``.

    With P = E * r the weights and C = P V the context, dV = E^T (r dC), and
    the softmax backward dS = P * (dC V^T - rowsum(dC * C)) is
    E * ([r dC, -r delta] @ [V, 1]^T) with delta = rowsum(dC * C): the row
    correction rides in the matmul. These hold for any shift of E, since
    they use E and r together. Each head walks the forward's query tiles:
    ``_score_tile`` rebuilds the tile's E_t from q and k with the stored
    flag, the tile's rows of dQ come out whole, and dK and dV sum over the
    tiles. A [_TILE x n] buffer for E_t and one for dS_t are the only n-wide
    arrays.
    """
    n = qkv.shape[0]
    q, k, v = _head_views(qkv, heads)
    dk = q.shape[2]
    g_c = _split_heads(g_ctx, heads)
    left = np.empty((heads, n, dk + 1))
    np.multiply(g_c, r, out=left[..., :dk])
    delta = np.einsum("hij,hij->hi", g_c, _split_heads(ctx, heads))
    np.multiply(delta[..., None], -r, out=left[..., dk:])
    v1 = np.ones((n, dk + 1))
    g_qkv = np.empty_like(qkv)  # every element is written: no zero fill
    g_q, g_k, g_v = _head_views(g_qkv, heads)
    buf = np.empty((min(n, _TILE), n))
    g_s = np.empty_like(buf)
    for h in range(heads):
        v1[:, :dk] = v[h]
        for t in range(0, n, _TILE):
            m = min(_TILE, n - t)
            rows = slice(t, t + m)
            e = _score_tile(q[h, rows], k[h], shift[h], buf[:m])
            np.matmul(left[h, rows], v1.T, out=g_s[:m])
            g_s[:m] *= e
            np.matmul(g_s[:m], k[h], out=g_q[h, rows])
            if t == 0:
                np.matmul(g_s[:m].T, q[h, rows], out=g_k[h])
                np.matmul(e.T, left[h, rows, :dk], out=g_v[h])
            else:
                g_k[h] += g_s[:m].T @ q[h, rows]
                g_v[h] += e.T @ left[h, rows, :dk]
    g_q *= 1.0 / math.sqrt(dk)
    return g_qkv


def _check_attention(op: str, H: Tensor, wqkv: Tensor, heads: int) -> None:
    if (H.ndim != 2 or wqkv.ndim != 2 or heads < 1 or wqkv.shape[0] != H.shape[1]
            or wqkv.shape[1] % (3 * heads)):
        raise ShapeMismatch(f"{op}: input {H.shape}, wqkv {wqkv.shape}, {heads} heads")


_LN_EPS = 1e-12


def _layer_norm_forward(x, gain, bias, out=None):
    """(xhat * gain + bias, xhat, inv) for the rows of ``x``, with xhat the
    normalized rows (written into ``out``, which may be ``x``) and inv the
    [r x 1] reciprocal standard deviations."""
    mean = x.sum(axis=1, keepdims=True)
    mean /= x.shape[1]
    xhat = np.subtract(x, mean, out=out)
    inv = np.einsum("ij,ij->i", xhat, xhat)[:, None]
    inv /= x.shape[1]
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    y = xhat * gain
    y += bias
    return y, xhat, inv


def _layer_norm_backward(g, gain, xhat, inv, out=None):
    """Gradients (input, gain, bias) of ``_layer_norm_forward`` for upstream
    ``g``; the input's is written into ``out`` (which may be ``g``)."""
    g_gain = np.einsum("ij,ij->j", g, xhat)
    g_bias = g.sum(axis=0)
    gx = np.multiply(g, gain, out=out)
    d = gx.shape[1]
    mean_g = gx.sum(axis=1, keepdims=True)
    mean_g /= d
    mean_gx = np.einsum("ij,ij->i", gx, xhat)[:, None]
    mean_gx /= d
    gx -= mean_g
    gx -= xhat * mean_gx
    gx *= inv
    return gx, g_gain, g_bias


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row layer normalization followed by the gain/bias affine map."""
    if x.ndim != 2 or x.shape[1] < 2:
        raise ShapeMismatch(f"layer_norm: needs [r x d] with d >= 2, got {x.shape}")
    if gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ShapeMismatch(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} "
            f"do not match feature dim {x.shape[1]}"
        )
    y, xhat, inv = _layer_norm_forward(x.data, gain.data, bias.data)

    def back(g, grads):
        g_x, g_gain, g_bias = _layer_norm_backward(g, gain.data, xhat, inv)
        _accumulate(grads, x, g_x)
        _accumulate(grads, gain, g_gain)
        _accumulate(grads, bias, g_bias)

    return _result(y, (x, gain, bias), back)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_forward(x: np.ndarray, keep: bool):
    """(gelu(x), erf(x / sqrt(2))); without ``keep`` the erf array is not
    returned, and the output is written over it."""
    e = np.multiply(x, _INV_SQRT2)
    erf(e, out=e)
    out = 1.0 + e if keep else np.add(e, 1.0, out=e)  # 0.5 * x * (1 + e)
    out *= x
    out *= 0.5
    return out, (e if keep else None)


def _gelu_backward(g, x, slope) -> np.ndarray:
    """g * gelu'(x), written over ``slope``, which holds 1 + e with ``e`` the
    erf array of ``_gelu_forward``."""
    d = np.multiply(x, -0.5)
    d *= x
    np.exp(d, out=d)
    d *= x
    d *= _INV_SQRT2PI
    slope *= 0.5
    slope += d
    slope *= g
    return slope


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    out, e = _gelu_forward(x.data, _keeps_graph((x,)))

    def back(g, grads):
        _accumulate(grads, x, _gelu_backward(g, x.data, 1.0 + e))

    return _result(out, (x,), back)


def encoder_layer(H: Tensor, weights, heads: int, sink=None) -> Tensor:
    """One post-norm Transformer encoder layer as one op.

    ``weights`` are (wqkv, wo, w1, b1, w2, b2, ln1_gain, ln1_bias, ln2_gain,
    ln2_bias). The result is LN2(G + gelu(G w1 + b1) w2 + b2) with
    G = LN1(H + A wo) and A the scaled-dot self-attention of every head,
    computed by ``_attention_forward`` and the kernels of ``layer_norm`` and
    ``gelu`` with the bias adds and residuals written in place. ``wqkv`` is
    [d x 3*heads*d_k]: every head's query projection, then every head's key
    projection, then every head's value projection. When ``sink`` is a list,
    one list of the per-head [n x n] attention matrices is appended to it.
    The backward is analytic and walks LN2, the feed-forward, LN1, wo and
    the attention in turn. For the attention it keeps the projection, the
    context, the per-head shift flags and r, but no [n x n] block: the
    backward scores each query tile again. Nor does it keep G or
    U = gelu(G w1 + b1): it rebuilds both elementwise from what it keeps
    (LN1's xhat and the erf array), by the forward's own ops, so the
    gradients are those of keeping them. When no graph is kept nothing is
    saved for it.
    """
    wqkv, wo, w1, b1, w2, b2, ln1_gain, ln1_bias, ln2_gain, ln2_bias = weights
    _check_attention("encoder_layer", H, wqkv, heads)
    keep = _keeps_graph((H, *weights))
    qkv = H.data @ wqkv.data
    ctx, shift, r = _attention_forward(qkv, heads, sink)
    x1 = ctx @ wo.data
    if not keep:
        qkv = ctx = None  # nothing is saved: free them for the feed-forward
    x1 += H.data
    G, xhat1, inv1 = _layer_norm_forward(x1, ln1_gain.data, ln1_bias.data, out=x1)
    Z = G @ w1.data
    Z += b1.data
    U, e = _gelu_forward(Z, keep)
    x2 = U @ w2.data
    x2 += b2.data
    x2 += G
    out, xhat2, inv2 = _layer_norm_forward(x2, ln2_gain.data, ln2_bias.data, out=x2)
    if not keep:
        return Tensor(out)

    def back(g, grads):
        g_x2, g_ln2_gain, g_ln2_bias = _layer_norm_backward(g, ln2_gain.data, xhat2, inv2)
        slope = 1.0 + e  # _gelu_forward's ops, shared with gelu's slope
        U = np.multiply(slope, Z)
        U *= 0.5
        g_w2 = U.T @ g_x2
        del U
        g_Z = _gelu_backward(g_x2 @ w2.data.T, Z, slope)
        G = xhat1 * ln1_gain.data  # _layer_norm_forward's ops
        G += ln1_bias.data
        g_w1 = G.T @ g_Z
        del G
        g_G = g_Z @ w1.data.T
        g_G += g_x2
        g_x1, g_ln1_gain, g_ln1_bias = _layer_norm_backward(
            g_G, ln1_gain.data, xhat1, inv1, out=g_G)
        g_qkv = _attention_backward(g_x1 @ wo.data.T, qkv, ctx, shift, r, heads)
        if H.requires_grad:
            g_H = g_qkv @ wqkv.data.T
            g_H += g_x1
            _accumulate(grads, H, g_H)
        for p, piece in ((wqkv, H.data.T @ g_qkv), (wo, ctx.T @ g_x1),
                         (w1, g_w1), (b1, g_Z.sum(axis=0)),
                         (w2, g_w2), (b2, g_x2.sum(axis=0)),
                         (ln1_gain, g_ln1_gain), (ln1_bias, g_ln1_bias),
                         (ln2_gain, g_ln2_gain), (ln2_bias, g_ln2_bias)):
            _accumulate(grads, p, piece)

    return _result(out, (H, *weights), back)


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


def _sigmoid_inplace(a: np.ndarray) -> None:
    """a <- 1 / (1 + exp(-a)), ``sigmoid``'s ops."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.divide(1.0, a, out=a)


def lstm_sequence(X: Tensor, h0: Tensor, gates) -> Tensor:
    """A whole teacher-forced LSTM recurrence as one op.

    ``h0`` [k x h] is the initial hidden state of k sequences that step
    together, and the initial cell state is zero. ``X`` [steps*k x d] holds
    their inputs step-major: row s*k + r is sequence r's input at step s.
    ``gates`` are the input, forget, cell and output gates, each a
    (wx [d x h], wh [h x h], b [h]) triple; gate a of step s is
    act_a(x_s wx_a + h_(s-1) wh_a + b_a), with tanh for the cell gate and
    the sigmoid for the others, and c_s = f * c_(s-1) + i * g,
    h_s = o * tanh(c_s). The gates are joined here into [d x 4h] and
    [h x 4h] blocks: every step's input projection is one matmul, and each
    step adds one [k x h] @ [h x 4h] recurrent matmul into its rows of a
    [steps x k x 4h] gate block, activated in place. Returns the
    [steps*k x h] hidden states, row s*k + r being sequence r after step s.
    The backward runs through time once and gives ``X``, ``h0`` and all
    twelve gate tensors their gradients; it keeps the activated gates, the
    cell states and their tanh.
    """
    params = [t for gate in gates for t in gate]
    wx, wh, b = (np.concatenate([t.data for t in params[j::3]], axis=-1) for j in range(3))
    k, hidden = h0.shape if h0.ndim == 2 else (0, 0)
    if (X.ndim != 2 or k < 1 or X.shape[0] % k or len(params) != 12
            or wx.shape != (X.shape[1], 4 * hidden) or wh.shape != (hidden, 4 * hidden)
            or b.shape != (4 * hidden,)):
        raise ShapeMismatch(f"lstm_sequence: input {X.shape}, h0 {h0.shape}, "
                            f"gates {wx.shape}, {wh.shape}, {b.shape}")
    steps = X.shape[0] // k
    cell = slice(2 * hidden, 3 * hidden)
    acts = (X.data @ wx).reshape(steps, k, 4 * hidden)
    c = np.empty((steps, k, hidden))
    tc = np.empty_like(c)
    out = np.empty_like(c)
    h_prev, c_prev = h0.data, np.zeros((k, hidden))
    for s in range(steps):
        a = acts[s]
        a += h_prev @ wh
        a += b
        _sigmoid_inplace(a[:, :2 * hidden])
        np.tanh(a[:, cell], out=a[:, cell])
        _sigmoid_inplace(a[:, 3 * hidden:])
        i, f, g, o = (a[:, j * hidden:(j + 1) * hidden] for j in range(4))
        np.multiply(f, c_prev, out=c[s])
        c[s] += i * g
        np.tanh(c[s], out=tc[s])
        np.multiply(o, tc[s], out=out[s])
        h_prev, c_prev = out[s], c[s]

    def back(g_out, grads):
        g_out = g_out.reshape(steps, k, hidden)
        # each gate's activation slope: s (1 - s), or 1 - t^2 for the cell gate
        slope = np.subtract(1.0, acts)
        slope *= acts
        np.multiply(acts[..., cell], acts[..., cell], out=slope[..., cell])
        np.subtract(1.0, slope[..., cell], out=slope[..., cell])
        tc_slope = np.multiply(tc, tc)
        np.subtract(1.0, tc_slope, out=tc_slope)
        g_acts = np.empty_like(acts)
        g_h, g_c = np.zeros((k, hidden)), np.zeros((k, hidden))
        for s in reversed(range(steps)):
            i, f, g, o = (acts[s, :, j * hidden:(j + 1) * hidden] for j in range(4))
            g_i, g_f, g_g, g_o = (g_acts[s, :, j * hidden:(j + 1) * hidden]
                                  for j in range(4))
            g_h += g_out[s]
            np.multiply(g_h, tc[s], out=g_o)
            g_h *= o
            g_h *= tc_slope[s]
            g_c += g_h
            np.multiply(g_c, g, out=g_i)
            if s:
                np.multiply(g_c, c[s - 1], out=g_f)
            else:
                g_f[...] = 0.0
            np.multiply(g_c, i, out=g_g)
            g_c *= f
            g_acts[s] *= slope[s]
            g_h = g_acts[s] @ wh.T
        flat = g_acts.reshape(steps * k, 4 * hidden)
        g_wh = h0.data.T @ g_acts[0]
        g_wh += out[:-1].reshape(-1, hidden).T @ flat[k:]
        _accumulate(grads, X, flat @ wx.T)
        _accumulate(grads, h0, g_h)
        joined = (X.data.T @ flat, g_wh, flat.sum(axis=0))
        for n, p in enumerate(params):
            gate, j = divmod(n, 3)
            _accumulate(grads, p, joined[j][..., gate * hidden:(gate + 1) * hidden])

    return _result(out.reshape(steps * k, hidden), (X, h0, *params), back)


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
    bounds = np.array(spans, dtype=np.int64).reshape(-1, 2)
    starts, stops = bounds[:, 0], bounds[:, 1]
    bad = (starts < 0) | (stops <= starts) | (stops > n)
    if bad.any():
        o, p = bounds[bad][0]
        raise ShapeMismatch(f"span_combine: span ({o}, {p}) invalid for {n} rows")
    # every span's rows one after another: span i is idx[first[i]:first[i] + lengths[i]]
    lengths = stops - starts
    first = np.cumsum(lengths) - lengths
    idx = np.arange(lengths.sum()) + np.repeat(starts - first, lengths)
    raw = scores.data[idx]
    w = np.exp(raw - np.repeat(np.maximum.reduceat(raw, first), lengths))
    w /= np.repeat(np.add.reduceat(w, first), lengths)
    picked = values.data[idx]
    picked *= w[:, None]
    out = np.add.reduceat(picked, first, axis=0)

    def back(g, grads):
        g_rows = np.repeat(g, lengths, axis=0)  # each picked row's output gradient
        if values.requires_grad:
            gv = np.zeros_like(values.data)
            np.add.at(gv, idx, g_rows * w[:, None])
            _accumulate(grads, values, gv)
        if scores.requires_grad:
            # softmax backward within each span: w * (g_w - sum(g_w * w))
            g_w = np.einsum("ij,ij->i", values.data[idx], g_rows)
            g_w -= np.repeat(np.add.reduceat(g_w * w, first), lengths)
            g_w *= w
            _accumulate(grads, scores, np.bincount(idx, weights=g_w, minlength=n))

    return _result(out, (values, scores), back)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over rows of -log softmax(logits)[target]. Natural log."""
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
    loss = float(nll.sum() / n)

    def back(g, grads):
        if logits.requires_grad:
            p = np.exp(shifted)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(n), t] -= 1.0
            p *= 1.0 / n
            _accumulate(grads, logits, p * g.reshape(()))

    return _result(np.asarray(loss), (logits,), back)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements (scalar output)."""

    def back(g, grads):
        _accumulate(grads, x, np.full_like(x.data, g.reshape(())))

    return _result(np.asarray(x.data.sum()), (x,), back)


# -- AdamW --------------------------------------------------------------------

_BETA1, _BETA2 = 0.9, 0.999
_ADAM_EPS = 1e-8
_WEIGHT_DECAY = 0.01


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam state over a named parameter set."""

    learning_rate: float = 1e-3
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
    bc1 = 1.0 - _BETA1 ** state.t
    bc2 = 1.0 - _BETA2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeMismatch(
                f"gradient for {name!r} has shape {g.shape}, "
                f"parameter has {p.data.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        # p -= lr * (mhat / (sqrt(vhat) + eps) + wd * p), op for op, in two buffers
        tmp = np.multiply(g, 1.0 - _BETA1)
        m *= _BETA1
        m += tmp
        np.multiply(g, 1.0 - _BETA2, out=tmp)
        tmp *= g
        v *= _BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += _ADAM_EPS
        step = m / bc1
        step /= tmp
        np.multiply(p.data, _WEIGHT_DECAY, out=tmp)
        step += tmp
        step *= state.learning_rate
        p.data -= step
