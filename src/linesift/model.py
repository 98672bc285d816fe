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
from .parallel import map_ordered
from .pooling import POOL_KINDS, make_pool
from .transformer import EncoderConfig, StatementEncoder, TokenEncoder

__all__ = ["ModelConfig", "HierarchicalModel", "BundleConfigError", "save_bundle",
           "save_run", "load_moments", "load_bundle"]

CONFIG_NAME = "config.json"
VOCAB_NAME = "vocab.txt"


class BundleConfigError(ValueError):
    """A bundle's config file does not parse or does not describe a model."""


# the meta entries that a command reads back, and the type each must have;
# the integers count epochs and steps, so they are non-negative too
_META_TYPES = {"epoch": int, "opt_t": int, "best_epoch": int,
               "threshold": (int, float), "best_f1": (int, float)}


def _check_type(name: str, value, kind) -> None:
    """Refuse a JSON value that is not of ``kind``; true and false are not
    numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise BundleConfigError(
            f"{name} {value!r} is not {'an integer' if kind is int else 'a number'}")


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    m_len: int = 512
    t2s: str = "average"

    def __post_init__(self):
        if self.m_len <= 0 or self.m_len % SEGMENT_TOKENS != 0:
            raise ValueError(f"m_len {self.m_len} must be a positive multiple of 512")
        if self.t2s not in POOL_KINDS:
            raise ValueError(f"t2s {self.t2s!r} not one of {POOL_KINDS}")

    def to_dict(self) -> dict:
        d = self.encoder.to_dict()
        return {"encoder": d, "m_len": self.m_len, "t2s": self.t2s}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        # bundles written before these options were removed carry their keys
        encoder = dict(d["encoder"])
        for found, key, only in ((d, "program_pool", "summary"),
                                 (d, "attn_pool_dim", None),
                                 (encoder, "dropout", 0.0),
                                 (encoder, "max_positions", SEGMENT_TOKENS)):
            if found.get(key, only) != only:
                raise BundleConfigError(
                    f"{key} {found[key]!r} is not supported; only {only!r} is"
                )
        for key in ("dropout", "max_positions"):
            encoder.pop(key, None)
        for key, value in [*encoder.items(), ("m_len", d["m_len"])]:
            _check_type(key, value, int)
        return cls(
            encoder=EncoderConfig(**encoder),
            m_len=d["m_len"],
            t2s=d["t2s"],
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
            config.t2s, config.encoder.hidden, config.m_len, pool_rng
        )
        self.statement_encoder = StatementEncoder(config.encoder, se_rng)

    # -- parameter plumbing ---------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        params = dict(self.token_encoder.parameters())
        params.update(self.pool.parameters())
        params.update(self.statement_encoder.parameters())
        return params

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.parameters().items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every parameter from ``arrays``. A ``te.``/``t2s.``/``se.``
        array that the model has no parameter for is rejected too: it means
        the config describes another model than the one the arrays hold."""
        params = self.parameters()
        for name in arrays:
            if name.startswith(("te.", "t2s.", "se.")) and name not in params:
                raise checkpoint.CheckpointError(
                    f"checkpoint tensor {name!r} is not a parameter of the model "
                    f"its config describes")
        checkpoint.load_into(params.items(), arrays)

    # -- forward --------------------------------------------------------------

    def encode_tokens(self, encoded: EncodedSample) -> Tensor:
        """Per-segment token encoding merged back into one [n x d] matrix.
        The segments are independent, so they run on the pool."""
        self._check_caps(encoded)
        pieces = list(map_ordered(self.token_encoder.forward, [
            encoded.token_ids[s:e] for s, e in encoded.segment_boundaries]))
        if len(pieces) == 1:
            return pieces[0]
        return T.concat_rows(pieces)

    def encode_program(self, encoded: EncodedSample) -> tuple[Tensor, Tensor]:
        """Full pipeline; returns (program_vector [1 x d], statement_vectors [L x d])."""
        merged = self.encode_tokens(encoded)
        initial = self.pool.apply(merged, encoded.line_spans)
        return self.statement_encoder.forward(initial)

    def encode_batch(self, encodeds: list[EncodedSample]) -> list[tuple[Tensor, Tensor]]:
        """``encode_program`` over each sample in order."""
        return [self.encode_program(e) for e in encodeds]

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


def save_run(directory: str, model: HierarchicalModel, modules, vocab: Vocab | None,
             meta: dict, opt: T.OptimizerState | None = None) -> None:
    """Save a training run's state as one bundle: ``model``'s weights, the
    parameters of each of ``modules`` and, with ``opt``, the AdamW moments
    of each trained parameter as ``opt.m.<name>`` and ``opt.v.<name>``."""
    arrays = model.state_arrays()
    for module in modules:
        arrays.update((name, p.data) for name, p in module.parameters())
    if opt is not None:
        for kind, moments in (("m", opt.m), ("v", opt.v)):
            arrays.update((f"opt.{kind}.{name}", m) for name, m in moments.items())
    save_bundle(directory, model.config, arrays, vocab=vocab, meta=meta)


def load_moments(opt: T.OptimizerState, params: dict[str, Tensor], arrays: dict) -> None:
    """Set ``opt``'s moments of each of ``params`` from the arrays that
    ``save_run`` wrote; each must be there with its parameter's shape, or a
    ``CheckpointError`` names it."""
    for kind, moments in (("m", opt.m), ("v", opt.v)):
        slots = [(name, T.constant(p.data)) for name, p in params.items()]
        checkpoint.load_into(((f"opt.{kind}.{name}", slot) for name, slot in slots), arrays)
        moments.update((name, slot.data) for name, slot in slots)


def _join_head_projections(arrays: dict, cfg: EncoderConfig) -> None:
    """Replace an older bundle's per-head ``head{h}.w{q,k,v}`` tensors
    (optimizer moments included) by one ``wqkv`` per layer."""
    for name in [k for k in arrays if k.endswith(".head0.wq")]:
        layer = name[:-len(".head0.wq")]
        parts = [f"{layer}.head{h}.w{kind}"
                 for kind in "qkv" for h in range(cfg.heads)]
        for part in parts:
            if np.shape(arrays.get(part)) != (cfg.hidden, cfg.head_dim):
                raise checkpoint.CheckpointError(
                    f"per-head tensor {part!r} is missing or not "
                    f"{cfg.hidden}x{cfg.head_dim}")
        arrays[f"{layer}.wqkv"] = np.concatenate([arrays.pop(p) for p in parts], axis=1)


def load_bundle(directory: str):
    """Load (config, arrays, vocab_or_None, meta) from a bundle directory.

    Bundles from before the fused attention projection store per-head
    ``head{h}.w{q,k,v}`` tensors; they come back joined into ``wqkv``.
    """
    config_path = os.path.join(directory, CONFIG_NAME)
    with open(config_path) as fh:
        try:
            payload = json.load(fh)
            config = ModelConfig.from_dict(payload["model"])
            meta = payload.get("meta", {})
            if not isinstance(meta, dict):
                raise BundleConfigError(f"meta {meta!r} is not an object")
            for key, kind in _META_TYPES.items():
                if key in meta:
                    _check_type(f"meta {key}", meta[key], kind)
                    if kind is int and meta[key] < 0:
                        raise BundleConfigError(f"meta {key} {meta[key]!r} is negative")
            if not 0.0 <= meta.get("threshold", 0.5) <= 1.0:  # NaN fails too
                raise BundleConfigError(f"meta threshold {meta['threshold']!r} is not in [0, 1]")
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleConfigError(
                f"malformed {config_path}: {type(exc).__name__}: {exc}"
            ) from exc
    arrays = checkpoint.load_tensors(directory)
    _join_head_projections(arrays, config.encoder)
    vocab_path = os.path.join(directory, VOCAB_NAME)
    vocab = Vocab.load(vocab_path) if os.path.exists(vocab_path) else None
    return config, arrays, vocab, meta
