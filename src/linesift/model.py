"""End-to-end hierarchical encoder: segments -> tokens -> statements.

``encode_program`` runs the long-sequence pipeline on one encoded sample:
slice the (already truncated) token stream into consecutive 512-token
segments, run the token encoder on each segment independently (position
indices restart per segment), merge the per-segment token matrices back
into one [n x d] matrix in stream order, pool tokens into per-statement
vectors, and run the statement encoder over those. Cross-segment
information mixes only at the statement level; that is the architecture's
central trade.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint
from . import tensor as T
from .tensor import Tensor
from .encoding import EncodedSample, MAX_STATEMENTS, SEGMENT_TOKENS, Vocab
from .pooling import POOL_KINDS, make_pool
from .transformer import EncoderConfig, StatementEncoder, TokenEncoder

__all__ = ["ModelConfig", "HierarchicalModel", "BundleConfigError", "save_bundle",
           "load_bundle"]

CONFIG_NAME = "config.json"
VOCAB_NAME = "vocab.txt"


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    m_len: int = 512
    t2s: str = "average"
    attn_pool_dim: int | None = None

    def __post_init__(self):
        if self.m_len <= 0 or self.m_len % SEGMENT_TOKENS != 0:
            raise ValueError(f"m_len {self.m_len} must be a positive multiple of 512")
        if self.t2s not in POOL_KINDS:
            raise ValueError(f"t2s {self.t2s!r} not one of {POOL_KINDS}")

    def to_dict(self) -> dict:
        d = self.encoder.to_dict()
        return {
            "encoder": d,
            "m_len": self.m_len,
            "t2s": self.t2s,
            "attn_pool_dim": self.attn_pool_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        # bundles written before the program pool was fixed carry the key
        pool = d.get("program_pool", "summary")
        if pool != "summary":
            raise ValueError(
                f"program_pool {pool!r} is not supported; only 'summary' is"
            )
        return cls(
            encoder=EncoderConfig(**d["encoder"]),
            m_len=d["m_len"],
            t2s=d["t2s"],
            attn_pool_dim=d.get("attn_pool_dim"),
        )


class HierarchicalModel:
    """Token encoder + token-to-statement pooling + statement encoder."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        ss = np.random.SeedSequence([seed, 0xC0DE])
        te_rng, pool_rng, se_rng = (
            np.random.default_rng(s) for s in ss.spawn(3)
        )
        self.token_encoder = TokenEncoder(config.encoder, te_rng)
        self.pool = make_pool(
            config.t2s, config.encoder.hidden, config.m_len, pool_rng,
            config.attn_pool_dim,
        )
        self.statement_encoder = StatementEncoder(config.encoder, se_rng)

    # -- parameter plumbing ---------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        params = dict(self.token_encoder.parameters("te"))
        params.update(self.pool.parameters("t2s"))
        params.update(self.statement_encoder.parameters("se"))
        return params

    def zero_grad(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.parameters().items()}

    def load_state(self, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        params = self.parameters()
        for name, p in params.items():
            key = prefix + name
            if key not in arrays:
                raise KeyError(f"checkpoint is missing tensor {key!r}")
            arr = np.ascontiguousarray(arrays[key], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"tensor {key!r} has shape {arr.shape}, expected {p.data.shape}"
                )
            p.data = arr

    # -- forward --------------------------------------------------------------

    def encode_tokens(
        self,
        encoded: EncodedSample,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Per-segment token encoding merged back into one [n x d] matrix."""
        self._check_caps(encoded)
        pieces = [
            self.token_encoder.forward(encoded.token_ids[s:e], training, rng)
            for s, e in encoded.segment_boundaries
        ]
        if len(pieces) == 1:
            return pieces[0]
        return T.concat_rows(pieces)

    def encode_program(
        self,
        encoded: EncodedSample,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Full pipeline; returns (program_vector [1 x d], statement_vectors [L x d])."""
        merged = self.encode_tokens(encoded, training, rng)
        initial = self.pool.apply(merged, encoded.line_spans)
        return self.statement_encoder.forward(initial, training, rng)

    def encode_batch(
        self,
        encodeds: list[EncodedSample],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> list[tuple[Tensor, Tensor]]:
        """``encode_program`` over each sample in order."""
        return [self.encode_program(e, training, rng) for e in encodeds]

    def _check_caps(self, encoded: EncodedSample) -> None:
        if encoded.n > self.config.m_len:
            raise ValueError(
                f"sample {encoded.id!r} has {encoded.n} tokens, "
                f"model accepts {self.config.m_len}"
            )
        if encoded.L > MAX_STATEMENTS:
            raise ValueError(
                f"sample {encoded.id!r} has {encoded.L} statements, cap is "
                f"{MAX_STATEMENTS}"
            )


# -- checkpoint bundles ---------------------------------------------------


def save_bundle(
    directory: str,
    config: ModelConfig,
    arrays: dict[str, np.ndarray],
    vocab: Vocab | None = None,
    meta: dict | None = None,
) -> None:
    """Write config + tensors (+ vocab, + free-form metadata) to a directory."""
    os.makedirs(directory, exist_ok=True)
    payload = {"model": config.to_dict(), "meta": meta or {}}
    with open(os.path.join(directory, CONFIG_NAME), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if vocab is not None:
        vocab.save(os.path.join(directory, VOCAB_NAME))
    checkpoint.save_tensors(directory, arrays)


class BundleConfigError(ValueError):
    """A bundle's config file does not parse or does not describe a model."""


def load_bundle(directory: str):
    """Load (config, arrays, vocab_or_None, meta) from a bundle directory."""
    config_path = os.path.join(directory, CONFIG_NAME)
    with open(config_path) as fh:
        try:
            payload = json.load(fh)
            config = ModelConfig.from_dict(payload["model"])
            meta = payload.get("meta", {})
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleConfigError(
                f"malformed {config_path}: {type(exc).__name__}: {exc}"
            ) from exc
    arrays = checkpoint.load_tensors(directory)
    vocab_path = os.path.join(directory, VOCAB_NAME)
    vocab = Vocab.load(vocab_path) if os.path.exists(vocab_path) else None
    return config, arrays, vocab, meta
