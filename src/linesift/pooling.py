"""Token-to-statement pooling: three ways to seed statement vectors.

Every strategy produces, per line span, a convex combination of that
span's token vectors (weights are nonnegative and sum to one within the
span), so statement vectors stay in the hull of their tokens:

* ``average``   - uniform weights (the shared correspondence kernel);
* ``weighted``  - a learnable weight per absolute token position,
                  softmax-normalized within each span;
* ``attention`` - weights from scaled dot-product scores between the
                  projected [CLS] vector and each projected token vector.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .encoding import correspondence_apply

__all__ = ["AveragePool", "WeightedPool", "AttentionPool", "make_pool", "POOL_KINDS"]

POOL_KINDS = ("average", "weighted", "attention")


def _span_softmax_combine(tokens: Tensor, spans: list[tuple[int, int]],
                          scores: Tensor) -> Tensor:
    """Softmax ``scores`` within each span; combine each span's tokens by them."""
    pieces = []
    for o, p in spans:
        raw = scores.rows(o, p).reshape((1, p - o))
        pieces.append(T.softmax_rows(raw).reshape((p - o,)))
    return T.span_combine(tokens, spans, T.concat_rows(pieces))


class AveragePool:
    kind = "average"

    def parameters(self, prefix: str = "t2s"):
        return iter(())

    def apply(self, tokens: Tensor, spans: list[tuple[int, int]]) -> Tensor:
        return correspondence_apply(spans, tokens)


class WeightedPool:
    """Position-indexed learnable token weights (one scalar per position).

    Indexing is by absolute position in the (truncated) token stream, so
    the weight table has one entry per position up to m_len. Weights start
    at zero, which makes the initial behavior identical to averaging.
    """

    kind = "weighted"

    def __init__(self, m_len: int):
        self.position_weight = T.parameter(np.zeros(m_len))

    def parameters(self, prefix: str = "t2s"):
        yield f"{prefix}.position_weight", self.position_weight

    def apply(self, tokens: Tensor, spans: list[tuple[int, int]]) -> Tensor:
        n = tokens.shape[0]
        if self.position_weight.shape[0] < n:
            raise ValueError(
                f"weight table covers {self.position_weight.shape[0]} positions, "
                f"stream has {n}"
            )
        return _span_softmax_combine(tokens, spans, self.position_weight)


class AttentionPool:
    """Weights from attention of each token against the global [CLS] row."""

    kind = "attention"

    def __init__(self, hidden: int, attn_dim: int | None, rng: np.random.Generator):
        self.attn_dim = attn_dim or hidden
        self.q_proj = T.parameter(rng.normal(0.0, 0.02, (hidden, self.attn_dim)))
        self.k_proj = T.parameter(rng.normal(0.0, 0.02, (hidden, self.attn_dim)))

    def parameters(self, prefix: str = "t2s"):
        yield f"{prefix}.q_proj", self.q_proj
        yield f"{prefix}.k_proj", self.k_proj

    def apply(self, tokens: Tensor, spans: list[tuple[int, int]]) -> Tensor:
        q = tokens.rows(0, 1) @ self.q_proj                   # [1 x d_a]
        keys = tokens @ self.k_proj                           # [n x d_a]
        scores = (keys @ q.transpose()) * (1.0 / math.sqrt(self.attn_dim))
        return _span_softmax_combine(tokens, spans, scores)


def make_pool(
    kind: str,
    hidden: int,
    m_len: int,
    rng: np.random.Generator,
    attn_dim: int | None = None,
):
    if kind == "average":
        return AveragePool()
    if kind == "weighted":
        return WeightedPool(m_len)
    if kind == "attention":
        return AttentionPool(hidden, attn_dim, rng)
    raise ValueError(f"unknown t2s strategy {kind!r}; choose from {POOL_KINDS}")
