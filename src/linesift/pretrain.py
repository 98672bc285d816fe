"""Self-supervised pretraining: masked-statement and masked-token objectives.

The statement-level task selects 15% of the retained lines (minimum one),
then per selected line masks every token (80%), replaces the line with
random non-reserved ids (10%) or keeps it (10%). A single-layer gated
recurrent decoder, seeded with the masked statement's encoder vector,
reconstructs the original token sequence under teacher forcing; the loss
is the summed per-token cross-entropy over all selected lines (a per-token
mean is available for stable learning-rate transfer across lengths).

The token-level objective is the classic setup, kept here so the token
encoder can be warmed up on its own before joint training.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import tensor as T
from .tensor import OptimizerState, Tensor, adamw_step
from .encoding import BOS, EOS, MASK, RESERVED_TOKENS, EncodedSample
from .metrics import write_csv
from .model import HierarchicalModel, save_run
from .parallel import backward_sum
from .transformer import Mlp

__all__ = [
    "MaskedLine",
    "MaskPlan",
    "MspDecoder",
    "MlmHead",
    "DivergenceError",
    "train_step",
    "PretrainSchedule",
    "TrainState",
    "make_mask_plan",
    "apply_mask_plan",
    "msp_loss",
    "mlm_loss",
    "mlm_skips",
    "sample_losses",
    "pretrain_run",
]

LINE_FRACTION = 0.15
ACTION_PROBS = {"mask_all": 0.8, "randomize": 0.1, "keep": 0.1}


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


def train_step(params: dict[str, Tensor], opt: OptimizerState, losses, where: str) -> float:
    """One optimizer step: zero the grads of ``params``, sum the loss terms'
    gradients (``parallel.backward_sum``) and apply AdamW. Returns the summed
    loss; a non-finite one raises ``DivergenceError`` naming ``where`` before
    any parameter moves."""
    for p in params.values():
        p.zero_grad()
    value = backward_sum(losses)
    if not np.isfinite(value):
        raise DivergenceError(f"loss became non-finite at {where}")
    adamw_step(params, opt)
    return value


@dataclass(frozen=True)
class MaskedLine:
    line_index: int
    action: str
    original_ids: tuple[int, ...]
    replacement_ids: tuple[int, ...]


@dataclass(frozen=True)
class MaskPlan:
    lines: tuple[MaskedLine, ...]


def make_mask_plan(encoded: EncodedSample, vocab_size: int, seed: int) -> MaskPlan:
    """Pick round(0.15 * L) lines (at least one) and assign 80/10/10 actions."""
    if encoded.L < 1:
        raise ValueError("cannot build a mask plan for an empty sample")
    n_reserved = len(RESERVED_TOKENS)
    if vocab_size <= n_reserved:
        raise ValueError("vocabulary has no non-reserved ids to randomize with")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    count = max(1, round(LINE_FRACTION * encoded.L))
    chosen = np.sort(rng.choice(encoded.L, size=count, replace=False))
    lines = []
    for idx in chosen:
        o, p = encoded.line_spans[int(idx)]
        original = tuple(int(t) for t in encoded.token_ids[o:p])
        draw = rng.random()
        if draw < ACTION_PROBS["mask_all"]:
            action = "mask_all"
            replacement = (MASK,) * len(original)
        elif draw < ACTION_PROBS["mask_all"] + ACTION_PROBS["randomize"]:
            action = "randomize"
            replacement = tuple(
                int(t) for t in rng.integers(n_reserved, vocab_size, len(original))
            )
        else:
            action = "keep"
            replacement = original
        lines.append(MaskedLine(int(idx), action, original, replacement))
    return MaskPlan(lines=tuple(lines))


def apply_mask_plan(encoded: EncodedSample, plan: MaskPlan) -> EncodedSample:
    """Mutate token ids per plan; spans, L and n are untouched."""
    ids = encoded.token_ids.copy()
    for line in plan.lines:
        o, p = encoded.line_spans[line.line_index]
        if tuple(int(t) for t in ids[o:p]) != line.original_ids:
            raise ValueError(
                f"mask plan does not match sample {encoded.id!r} at line "
                f"{line.line_index}"
            )
        ids[o:p] = line.replacement_ids
    return encoded.with_token_ids(ids)


class MspDecoder:
    """Single-layer gated (LSTM-style) decoder over the token vocabulary.

    The masked statement's encoder vector becomes the initial hidden state;
    input embeddings are shared with the token encoder's table.
    """

    def __init__(
        self,
        hidden: int,
        vocab_size: int,
        rng: np.random.Generator,
        max_decode_len: int = 64,
    ):
        if max_decode_len < 1:
            raise ValueError(f"max_decode_len must be at least 1, got {max_decode_len}")
        self.hidden = hidden
        self.vocab_size = vocab_size
        self.max_decode_len = max_decode_len
        def w(shape):
            return T.parameter(rng.normal(0.0, 0.02, shape))
        self.gates = {}
        for gate in ("in", "forget", "cell", "out"):
            self.gates[gate] = (
                w((hidden, hidden)),            # input weights
                w((hidden, hidden)),            # recurrent weights
                T.parameter(np.zeros(hidden)),  # bias
            )
        self.proj_w = w((hidden, vocab_size))
        self.proj_b = T.parameter(np.zeros(vocab_size))

    def parameters(self):
        for gate, (wx, wh, b) in self.gates.items():
            yield f"decoder.{gate}.wx", wx
            yield f"decoder.{gate}.wh", wh
            yield f"decoder.{gate}.b", b
        yield "decoder.proj_w", self.proj_w
        yield "decoder.proj_b", self.proj_b

    def _step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        def gate(name, activation):
            wx, wh, b = self.gates[name]
            return activation(x @ wx + h @ wh + b)
        i = gate("in", T.sigmoid)
        f = gate("forget", T.sigmoid)
        g = gate("cell", T.tanh)
        o = gate("out", T.sigmoid)
        c_next = T.mul(f, c) + T.mul(i, g)
        return T.mul(o, T.tanh(c_next)), c_next

    def sequence_loss(
        self, statement_vectors: Tensor, target_lists, token_table: Tensor
    ) -> tuple[Tensor, int, int]:
        """Teacher-forced summed cross-entropy over each line's [tokens..., EOS].

        Row r of ``statement_vectors`` [k x h] seeds the decode of
        ``target_lists[r]``. All k lines step together as rows of one
        recurrence padded to the longest line; padded steps never reach the
        loss. Returns (loss_sum, target_tokens, truncated_lines).
        """
        lines = [[int(t) for t in ids] for ids in target_lists]
        truncated = sum(len(ids) > self.max_decode_len for ids in lines)
        lines = [ids[: self.max_decode_len] for ids in lines]
        k = len(lines)
        steps = 1 + max(len(ids) for ids in lines)
        # step-major inputs: BOS, then the line's tokens; padding is any valid id
        inputs = np.full((steps, k), BOS, dtype=np.int64)
        for r, ids in enumerate(lines):
            inputs[1:1 + len(ids), r] = ids
        embedded = T.embedding_lookup(token_table, inputs.ravel())
        h = statement_vectors
        c = T.constant(np.zeros((k, self.hidden)))
        hidden_steps = []
        for s in range(steps):
            h, c = self._step(embedded.rows(s * k, (s + 1) * k), h, c)
            hidden_steps.append(h)
        # row s*k + r of the stacked states is line r after step s
        real = [s * k + r for r, ids in enumerate(lines) for s in range(len(ids) + 1)]
        targets = [t for ids in lines for t in ids + [EOS]]
        states = T.gather_rows(T.concat_rows(hidden_steps), real)
        mean_ce = T.cross_entropy(states @ self.proj_w + self.proj_b, targets)
        return T.scale(mean_ce, float(len(targets))), len(targets), truncated


def msp_loss(
    encoded: EncodedSample,
    plan: MaskPlan,
    model: HierarchicalModel,
    decoder: MspDecoder,
    per_token_mean: bool = False,
) -> tuple[Tensor, dict]:
    """Reconstruction loss of every selected statement from its vector."""
    masked = apply_mask_plan(encoded, plan)
    _, statements = model.encode_program(masked)
    vectors = T.gather_rows(statements, [line.line_index for line in plan.lines])
    total, tokens, truncated_lines = decoder.sequence_loss(
        vectors, [line.original_ids for line in plan.lines],
        model.token_encoder.tok_emb,
    )
    if per_token_mean:
        total = T.scale(total, 1.0 / tokens)
    return total, {"target_tokens": tokens, "truncated_lines": truncated_lines}


class MlmHead:
    """Two-layer feed-forward head from token vectors to vocabulary logits."""

    def __init__(self, hidden: int, ffn_hidden: int, vocab_size: int,
                 rng: np.random.Generator):
        self.mlp = Mlp(hidden, ffn_hidden, vocab_size, rng)

    def parameters(self):
        return self.mlp.parameters("mlm.")

    def logits(self, token_vectors: Tensor) -> Tensor:
        return self.mlp(token_vectors)


def mlm_skips(encoded: EncodedSample) -> bool:
    """Whether the sample has no maskable token (the leading [CLS] is never
    masked), so that MLM skips it."""
    return encoded.n < 2


def mlm_loss(
    encoded: EncodedSample,
    model: HierarchicalModel,
    head: MlmHead,
    seed: int,
) -> tuple[Tensor | None, dict]:
    """Token-level masking (15%, 80/10/10 per token) over the token encoder.

    Returns (loss, info); loss is None when the sample has no maskable
    token, which callers should count and skip.
    """
    if mlm_skips(encoded):
        return None, {"masked": 0, "skipped": True}
    n = encoded.n
    maskable = n - 1
    vocab_size = model.config.encoder.vocab_size
    n_reserved = len(RESERVED_TOKENS)
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0x313A]))
    count = max(1, round(LINE_FRACTION * maskable))
    positions = np.sort(gen.choice(np.arange(1, n), size=count, replace=False))
    ids = encoded.token_ids.copy()
    originals = ids[positions].copy()
    for pos in positions:
        draw = gen.random()
        if draw < 0.8:
            ids[pos] = MASK
        elif draw < 0.9:
            ids[pos] = int(gen.integers(n_reserved, vocab_size))
    masked = encoded.with_token_ids(ids)
    token_vectors = model.encode_tokens(masked)
    picked = T.gather_rows(token_vectors, positions)
    loss = T.cross_entropy(head.logits(picked), originals)
    return loss, {"masked": int(count), "skipped": False}


# -- training loop ---------------------------------------------------------


def sample_losses(phase: str, batch: list[tuple[EncodedSample, int]],
                  model: HierarchicalModel, decoder: MspDecoder, mlm_head: MlmHead,
                  per_token_mean: bool = True) -> list:
    """A step's loss as one term per used (sample, seed), to be summed in
    batch order: zero-argument callables that each build their sample's
    ``phase`` loss divided by the number of used samples. MLM skips a sample
    (``mlm_skips``) before any forward pass, so that number is known up front.
    """
    used = [(enc, seed) for enc, seed in batch if phase == "msp" or not mlm_skips(enc)]

    def term(enc: EncodedSample, seed: int) -> Tensor:
        if phase == "msp":
            plan = make_mask_plan(enc, model.config.encoder.vocab_size, seed)
            loss, _ = msp_loss(enc, plan, model, decoder, per_token_mean=per_token_mean)
        else:
            loss, _ = mlm_loss(enc, model, mlm_head, seed)
        return T.scale(loss, 1.0 / len(used))

    return [partial(term, enc, seed) for enc, seed in used]


@dataclass
class PretrainSchedule:
    mlm_steps: int = 0
    msp_steps: int = 0
    batch_size: int = 4
    learning_rate: float = 1e-3
    seed: int = 0
    checkpoint_every: int = 100
    per_token_mean: bool = True


@dataclass
class TrainState:
    step: int = 0
    loss_history: list = field(default_factory=list)  # (step, phase, loss)
    skipped_samples: int = 0  # MLM draws with no maskable token


def pretrain_run(
    encodeds: list[EncodedSample],
    model: HierarchicalModel,
    decoder: MspDecoder,
    mlm_head: MlmHead,
    schedule: PretrainSchedule,
    out_dir: str | None = None,
    vocab=None,
) -> TrainState:
    """Optional MLM warm-up of the token encoder, then joint MSP training.

    Checkpoints (model + decoder + MLM head) are saved periodically and at
    the end, each with a ``loss.csv`` of the steps up to it; a non-finite
    loss aborts with the last checkpoint on disk.
    """
    if not encodeds:
        raise ValueError("pretraining corpus is empty")
    state = TrainState()

    def save(tag: str):
        if out_dir is not None:
            save_run(os.path.join(out_dir, "checkpoint"), model, (decoder, mlm_head),
                     vocab, {"phase": tag, "step": state.step})
            write_csv(os.path.join(out_dir, "loss.csv"), ["step", "phase", "loss"],
                      state.loss_history)

    phases = [("mlm", schedule.mlm_steps), ("msp", schedule.msp_steps)]
    save("init")
    for phase_tag, (phase, steps) in enumerate(phases):
        if steps == 0:
            continue
        if phase == "mlm":
            params = dict(model.token_encoder.parameters())
            params.update(dict(mlm_head.parameters()))
        else:
            params = model.parameters()
            params.update(dict(decoder.parameters()))
        opt = OptimizerState(learning_rate=schedule.learning_rate)
        for step in range(steps):
            rng = np.random.default_rng(
                np.random.SeedSequence([schedule.seed, phase_tag, step])
            )
            batch_idx = rng.choice(
                len(encodeds),
                size=min(schedule.batch_size, len(encodeds)),
                replace=False,
            )
            batch = [
                (encodeds[int(idx)], int(np.random.SeedSequence(
                    [schedule.seed, phase_tag, step, j]).generate_state(1)[0]))
                for j, idx in enumerate(batch_idx)
            ]
            losses = sample_losses(phase, batch, model, decoder, mlm_head,
                                   schedule.per_token_mean)
            state.skipped_samples += len(batch) - len(losses)
            if not losses:
                continue
            # a divergence leaves the last periodic checkpoint as the recovery point
            value = train_step(params, opt, losses, f"{phase} step {state.step}")
            state.step += 1
            state.loss_history.append((state.step, phase, value))
            if schedule.checkpoint_every and state.step % schedule.checkpoint_every == 0:
                save(phase)
    save("final")
    return state
