"""Multi-head self-attention encoder stacks.

One layer computes, in post-norm residual order:

    G = LN(MultiAttn(H) + H)
    H' = LN(FFN(G) + G)

with every head's projections Q, K, V = H Wqkv from one fused matrix,
scaled-dot attention softmax(Q K^T / sqrt(d_k)) V, head concatenation
through Wo, and a two-layer GELU feed-forward (``Mlp``, which also serves
as the detection and MLM heads); each layer runs as one
``tensor.encoder_layer`` op. The token encoder adds token + learned
absolute position embeddings to one unpadded segment; the statement
encoder prepends a learnable program-summary row to the statement vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .encoding import MAX_STATEMENTS, SEGMENT_TOKENS

__all__ = ["EncoderConfig", "EncoderStack", "Mlp", "TokenEncoder",
           "StatementEncoder", "preset_config", "PRESETS"]


@dataclass
class EncoderConfig:
    layers: int = 2
    hidden: int = 64
    heads: int = 4
    ffn_hidden: int = 256
    vocab_size: int = 0

    def __post_init__(self):
        for name in ("layers", "hidden", "heads", "ffn_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} {getattr(self, name)} must be positive")
        if self.vocab_size < 0:
            raise ValueError(f"vocab_size {self.vocab_size} must not be negative")
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


def _normal(rng: np.random.Generator, shape) -> Tensor:
    return T.parameter(rng.normal(0.0, 0.02, size=shape))


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

    def weights(self) -> tuple[Tensor, ...]:
        """The layer's tensors in ``tensor.encoder_layer``'s order."""
        return tuple(p for _, p in self.parameters(""))


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
            H = T.encoder_layer(H, layer.weights(), self.cfg.heads, attention_sink)
        return H


class TokenEncoder:
    """Per-segment contextual token vectors (token + position embeddings)."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        if cfg.vocab_size <= 0:
            raise ValueError("token encoder needs a positive vocab_size")
        self.tok_emb = _normal(rng, (cfg.vocab_size, cfg.hidden))
        self.pos_emb = _normal(rng, (SEGMENT_TOKENS, cfg.hidden))
        self.stack = EncoderStack(cfg, rng)

    def parameters(self):
        yield "te.tok_emb", self.tok_emb
        yield "te.pos_emb", self.pos_emb
        yield from self.stack.parameters("te")

    def forward(self, token_ids, attention_sink: list | None = None) -> Tensor:
        ids = np.asarray(token_ids, dtype=np.int64)
        n = ids.shape[0]
        if n > SEGMENT_TOKENS:
            raise ValueError(f"segment of {n} tokens exceeds capacity {SEGMENT_TOKENS}")
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
        self.pos_emb = _normal(rng, (MAX_STATEMENTS, cfg.hidden))
        self.summary = _normal(rng, (1, cfg.hidden))
        self.stack = EncoderStack(cfg, rng)

    def parameters(self):
        yield "se.pos_emb", self.pos_emb
        yield "se.summary", self.summary
        yield from self.stack.parameters("se")

    def forward(self, statement_inputs: Tensor) -> tuple[Tensor, Tensor]:
        L = statement_inputs.shape[0]
        if not (1 <= L <= MAX_STATEMENTS):
            raise ValueError(f"statement count {L} outside [1, {MAX_STATEMENTS}]")
        X = T.concat_rows([
            self.summary,
            statement_inputs + self.pos_emb.rows(0, L),
        ])
        H = self.stack.forward(X)
        return H.rows(0, 1), H.rows(1, L + 1)
