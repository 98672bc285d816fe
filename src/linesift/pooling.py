"""Token-to-statement pooling: three ways to seed statement vectors.

Every strategy is one ``span_combine``: one score per token, softmaxed
within each line span, so each statement vector is a convex combination
of its span's token vectors. The strategies differ only in the scores:

* ``average``   - zero scores, i.e. uniform weights (the shared
                  correspondence kernel);
* ``weighted``  - a learnable score per absolute token position;
* ``attention`` - scaled dot-product scores between the projected [CLS]
                  vector and each projected token vector.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .encoding import correspondence_apply

__all__ = ["AveragePool", "WeightedPool", "AttentionPool", "make_pool", "POOL_KINDS"]

POOL_KINDS = ("average", "weighted", "attention")


class AveragePool:
    def parameters(self):
        return iter(())

    def apply(self, tokens: Tensor, spans: list[tuple[int, int]]) -> Tensor:
        return correspondence_apply(spans, tokens)


class WeightedPool:
    """Position-indexed learnable token weights (one scalar per position).

    Indexing is by absolute position in the (truncated) token stream, so
    the weight table has one entry per position up to m_len. Weights start
    at zero, which makes the initial behavior identical to averaging.
    """

    def __init__(self, m_len: int):
        self.position_weight = T.parameter(np.zeros(m_len))

    def parameters(self):
        yield "t2s.position_weight", self.position_weight

    def apply(self, tokens: Tensor, spans: list[tuple[int, int]]) -> Tensor:
        n = tokens.shape[0]
        if self.position_weight.shape[0] < n:
            raise ValueError(
                f"weight table covers {self.position_weight.shape[0]} positions, "
                f"stream has {n}"
            )
        return T.span_combine(tokens, spans, self.position_weight.rows(0, n))


class AttentionPool:
    """Weights from attention of each token against the global [CLS] row."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        self.q_proj = T.parameter(rng.normal(0.0, 0.02, (hidden, hidden)))
        self.k_proj = T.parameter(rng.normal(0.0, 0.02, (hidden, hidden)))

    def parameters(self):
        yield "t2s.q_proj", self.q_proj
        yield "t2s.k_proj", self.k_proj

    def apply(self, tokens: Tensor, spans: list[tuple[int, int]]) -> Tensor:
        q = tokens.rows(0, 1) @ self.q_proj                   # [1 x d]
        keys = tokens @ self.k_proj                           # [n x d]
        scores = (keys @ q.transpose()) * (1.0 / math.sqrt(tokens.shape[1]))
        return T.span_combine(tokens, spans, scores.reshape((tokens.shape[0],)))


def make_pool(kind: str, hidden: int, m_len: int, rng: np.random.Generator):
    if kind == "average":
        return AveragePool()
    if kind == "weighted":
        return WeightedPool(m_len)
    if kind == "attention":
        return AttentionPool(hidden, rng)
    raise ValueError(f"unknown t2s strategy {kind!r}; choose from {POOL_KINDS}")
