"""Multi-head self-attention encoder stacks.

One layer computes, in post-norm residual order:

    G = LN(MultiAttn(H) + H)
    H' = LN(FFN(G) + G)

with every head's projections Q, K, V = H Wqkv from one fused matrix,
scaled-dot attention softmax(Q K^T / sqrt(d_k)) V, head concatenation
through Wo, and a two-layer GELU feed-forward (``Mlp``, which also serves
as the detection and MLM heads). The token encoder adds token + learned
absolute position embeddings to one unpadded segment; the statement
encoder prepends a learnable program-summary row to the statement vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = ["EncoderConfig", "EncoderStack", "Mlp", "TokenEncoder",
           "StatementEncoder", "preset_config", "PRESETS"]


@dataclass
class EncoderConfig:
    layers: int = 2
    hidden: int = 64
    heads: int = 4
    ffn_hidden: int = 256
    max_positions: int = 512
    vocab_size: int = 0

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden {self.hidden} not divisible by heads {self.heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def to_dict(self) -> dict:
        return asdict(self)


# Named presets: the small one keeps finite-difference checks fast, the big
# one mirrors the published 6-layer / 768-hidden / 12-head configuration.
PRESETS = {
    "desk-2x64x4": dict(layers=2, hidden=64, heads=4, ffn_hidden=256),
    "paper-6x768x12": dict(layers=6, hidden=768, heads=12, ffn_hidden=3072),
}


def preset_config(name: str, **overrides) -> EncoderConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    kw = dict(PRESETS[name])
    kw.update(overrides)
    return EncoderConfig(**kw)


def _normal(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    return T.parameter(rng.normal(0.0, std, size=shape))


class Mlp:
    """Two-layer GELU feed-forward: gelu(x @ w1 + b1) @ w2 + b2."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int,
                 rng: np.random.Generator):
        self.w1 = _normal(rng, (d_in, d_hidden))
        self.b1 = T.parameter(np.zeros(d_hidden))
        self.w2 = _normal(rng, (d_hidden, d_out))
        self.b2 = T.parameter(np.zeros(d_out))

    def parameters(self, prefix: str):
        for name in ("w1", "b1", "w2", "b2"):
            yield prefix + name, getattr(self, name)

    def __call__(self, x: Tensor) -> Tensor:
        return T.gelu(x @ self.w1 + self.b1) @ self.w2 + self.b2


class _Layer:
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        d, dk, u = cfg.hidden, cfg.head_dim, cfg.heads
        # one [d x dk] draw per head: all queries, then keys, then values
        self.wqkv = T.parameter(np.concatenate(
            [rng.normal(0.0, 0.02, (d, dk)) for _ in range(3 * u)], axis=1))
        self.wo = _normal(rng, (u * dk, d))
        self.ffn = Mlp(d, cfg.ffn_hidden, d, rng)
        self.ln1_gain = T.parameter(np.ones(d))
        self.ln1_bias = T.parameter(np.zeros(d))
        self.ln2_gain = T.parameter(np.ones(d))
        self.ln2_bias = T.parameter(np.zeros(d))

    def parameters(self, prefix: str):
        yield f"{prefix}.wqkv", self.wqkv
        yield f"{prefix}.wo", self.wo
        yield from self.ffn.parameters(f"{prefix}.")
        for name in ("ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"):
            yield f"{prefix}.{name}", getattr(self, name)


class EncoderStack:
    """The shared layer stack; input and output are [len x hidden]."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.layers = [_Layer(cfg, rng) for _ in range(cfg.layers)]

    def parameters(self, prefix: str):
        for i, layer in enumerate(self.layers):
            yield from layer.parameters(f"{prefix}.layer{i}")

    def forward(self, H: Tensor, attention_sink: list | None = None) -> Tensor:
        for layer in self.layers:
            mixed = T.multi_head_attention(
                H, layer.wqkv, self.cfg.heads, attention_sink
            ) @ layer.wo
            G = T.layer_norm(H + mixed, layer.ln1_gain, layer.ln1_bias)
            H = T.layer_norm(G + layer.ffn(G), layer.ln2_gain, layer.ln2_bias)
        return H


class TokenEncoder:
    """Per-segment contextual token vectors (token + position embeddings)."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        if cfg.vocab_size <= 0:
            raise ValueError("token encoder needs a positive vocab_size")
        self.cfg = cfg
        self.tok_emb = _normal(rng, (cfg.vocab_size, cfg.hidden))
        self.pos_emb = _normal(rng, (cfg.max_positions, cfg.hidden))
        self.stack = EncoderStack(cfg, rng)

    def parameters(self, prefix: str = "te"):
        yield f"{prefix}.tok_emb", self.tok_emb
        yield f"{prefix}.pos_emb", self.pos_emb
        yield from self.stack.parameters(prefix)

    def forward(self, token_ids, attention_sink: list | None = None) -> Tensor:
        ids = np.asarray(token_ids, dtype=np.int64)
        n = ids.shape[0]
        if n > self.cfg.max_positions:
            raise ValueError(
                f"segment of {n} tokens exceeds capacity {self.cfg.max_positions}"
            )
        H = T.embedding_lookup(self.tok_emb, ids) + self.pos_emb.rows(0, n)
        return self.stack.forward(H, attention_sink)

    def attention_maps(self, token_ids) -> list[list[np.ndarray]]:
        """Post-softmax attention matrices, indexed [layer][head]."""
        sink: list = []
        self.forward(token_ids, attention_sink=sink)
        return sink


class StatementEncoder:
    """Statement-level stack producing the program vector and statement vectors."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.pos_emb = _normal(rng, (cfg.max_positions, cfg.hidden))
        self.summary = _normal(rng, (1, cfg.hidden))
        self.stack = EncoderStack(cfg, rng)

    def parameters(self, prefix: str = "se"):
        yield f"{prefix}.pos_emb", self.pos_emb
        yield f"{prefix}.summary", self.summary
        yield from self.stack.parameters(prefix)

    def forward(self, statement_inputs: Tensor) -> tuple[Tensor, Tensor]:
        L = statement_inputs.shape[0]
        if not (1 <= L <= self.cfg.max_positions):
            raise ValueError(
                f"statement count {L} outside [1, {self.cfg.max_positions}]"
            )
        X = T.concat_rows([
            self.summary,
            statement_inputs + self.pos_emb.rows(0, L),
        ])
        H = self.stack.forward(X)
        return H.rows(0, 1), H.rows(1, L + 1)
