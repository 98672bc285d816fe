"""Staged supervised detection: coarse function head, fine statement head.

Training is joint: the coarse cross-entropy runs over every sample in the
batch while the fine cross-entropy runs only over the retained statements
of ground-truth-vulnerable samples (so an all-negative batch moves the
statement head not at all). Inference is staged: statement probabilities
are computed and ranked only when the coarse head fires.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import OptimizerState, Tensor, adamw_step
from .encoding import EncodedSample
from .checkpoint import load_into
from .metrics import ConfusionCounts, classification_metrics, prefix_size, write_csv
from .model import HierarchicalModel, save_bundle
from .pretrain import DivergenceError
from .transformer import Mlp

__all__ = [
    "DetectionHeads",
    "PredictionReport",
    "FinetuneSchedule",
    "FinetuneResult",
    "finetune_loss",
    "predict",
    "finetune_run",
    "resume_optimizer",
]


class DetectionHeads:
    """DNet over the program vector, StatementNet over statement vectors."""

    def __init__(self, hidden: int, ffn_hidden: int, rng: np.random.Generator,
                 threshold: float = 0.5):
        self.dnet = Mlp(hidden, ffn_hidden, 2, rng)
        self.stmt = Mlp(hidden, ffn_hidden, 2, rng)
        self.threshold = threshold

    def parameters(self, prefix: str = "heads"):
        yield from self.dnet.parameters(f"{prefix}.dnet_")
        yield from self.stmt.parameters(f"{prefix}.stmt_")

    def coarse_logits_raw(self, program_vector: Tensor) -> Tensor:
        return self.dnet(program_vector)

    def fine_logits_raw(self, statement_vectors: Tensor) -> Tensor:
        return self.stmt(statement_vectors)

    def coarse_probabilities(self, program_vector: Tensor) -> Tensor:
        """(p_nonvul, p_vul) for one program vector, softmaxed."""
        return T.softmax_rows(self.coarse_logits_raw(program_vector))

    def fine_probabilities(self, statement_vectors: Tensor) -> Tensor:
        """Independent per-statement probability pairs."""
        return T.softmax_rows(self.fine_logits_raw(statement_vectors))


def finetune_loss(
    batch: list[EncodedSample],
    model: HierarchicalModel,
    heads: DetectionHeads,
    lambda_fine: float = 1.0,
    class_weights=None,
    training: bool = False,  # ignored; the benchmark's warm step still passes it
) -> tuple[Tensor, dict]:
    """Coarse CE over the batch plus lambda * fine CE over vulnerable samples.

    The fine term is the mean per-statement cross-entropy over the retained
    statements of all label==1 samples in the batch (target 1 on labeled
    vulnerable lines, 0 elsewhere); it is exactly zero - contributing no
    gradient - when the batch has no vulnerable sample.
    """
    if not batch:
        raise ValueError("finetune_loss needs a non-empty batch")
    encodings = model.encode_batch(batch)
    coarse_rows = []
    fine_rows = []
    fine_targets: list[int] = []
    for enc, (program, statements) in zip(batch, encodings):
        coarse_rows.append(heads.coarse_logits_raw(program))
        if enc.label == 1:
            fine_rows.append(heads.fine_logits_raw(statements))
            fine_targets.extend(int(v) for v in enc.vul_flags)
    coarse_logits = T.concat_rows(coarse_rows)
    coarse_ce = T.cross_entropy(
        coarse_logits, [enc.label for enc in batch], class_weights
    )
    info = {"coarse_rows": len(batch), "fine_rows": len(fine_targets)}
    if fine_rows and lambda_fine != 0.0:
        fine_ce = T.cross_entropy(T.concat_rows(fine_rows), fine_targets)
        return coarse_ce + T.scale(fine_ce, lambda_fine), info
    return coarse_ce, info


@dataclass
class PredictionReport:
    """Per-function verdict plus the (gated) per-statement ranking."""

    id: str
    p_vul: float
    coarse_label: int
    statements: list[dict]       # ranked: [{"line": 1-based, "p_vul": float}]
    top_lines: list[int]         # first max(1, ceil(k% * L)) ranked lines
    k_percent: float
    lines: list[int]             # retained original line numbers, in order

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "p_vul": self.p_vul,
            "coarse_label": self.coarse_label,
            "statements": self.statements,
            "top_lines": self.top_lines,
            "k_percent": self.k_percent,
            "lines": self.lines,
        }


@T.no_grad()
def predict(
    encoded: EncodedSample,
    model: HierarchicalModel,
    heads: DetectionHeads,
    k_percent: float = 10.0,
) -> PredictionReport:
    """Coarse verdict; statement ranking only when the verdict is positive.

    Ranking is by descending statement probability with ties broken by the
    smaller original line number. Runs under ``no_grad``: no graph is built.
    """
    program, statements = model.encode_program(encoded)
    p_vul = float(heads.coarse_probabilities(program).data[0, 1])
    coarse_label = int(p_vul >= heads.threshold)
    ranked: list[dict] = []
    top_lines: list[int] = []
    if coarse_label == 1:
        probs = heads.fine_probabilities(statements).data[:, 1]
        order = sorted(
            range(encoded.L),
            key=lambda i: (-probs[i], encoded.orig_lines[i]),
        )
        ranked = [
            {"line": encoded.orig_lines[i], "p_vul": float(probs[i])}
            for i in order
        ]
        top_lines = [r["line"] for r in ranked[:prefix_size(k_percent, encoded.L)]]
    return PredictionReport(
        id=encoded.id,
        p_vul=p_vul,
        coarse_label=coarse_label,
        statements=ranked,
        top_lines=top_lines,
        k_percent=k_percent,
        lines=list(encoded.orig_lines),
    )


@dataclass
class FinetuneSchedule:
    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 2e-3
    lambda_fine: float = 1.0
    seed: int = 0
    class_weights: tuple | None = None
    freeze_encoder: bool = False
    early_stop_patience: int | None = None


@dataclass
class FinetuneResult:
    loss_history: list = field(default_factory=list)   # (epoch, step, loss)
    eval_history: list = field(default_factory=list)   # (epoch, f1)
    best_f1: float = float("-inf")
    best_epoch: int = -1
    epochs_run: int = 0


def _coarse_f1(encodeds, model, heads) -> float:
    counts = ConfusionCounts.from_predictions(
        [enc.label for enc in encodeds],
        [predict(enc, model, heads).coarse_label for enc in encodeds],
    )
    return classification_metrics(counts)["f1"]


def _trained_parameters(model, heads, schedule) -> dict[str, Tensor]:
    params = dict(heads.parameters())
    if not schedule.freeze_encoder:
        params.update(model.parameters())
    return params


def resume_optimizer(arrays: dict, t: int, model: HierarchicalModel,
                     heads: DetectionHeads, schedule: FinetuneSchedule) -> OptimizerState:
    """The AdamW state a "last" bundle saved: an ``opt.m.``/``opt.v.`` tensor
    of each trained parameter's shape, or a ``CheckpointError`` naming it."""
    params = _trained_parameters(model, heads, schedule)
    moments = {}
    for kind in ("m", "v"):
        slots = {name: T.constant(p.data) for name, p in params.items()}
        load_into(((f"opt.{kind}.{name}", slot) for name, slot in slots.items()), arrays)
        moments[kind] = {name: slot.data for name, slot in slots.items()}
    return OptimizerState(learning_rate=schedule.learning_rate, t=t, **moments)


def finetune_run(
    train: list[EncodedSample],
    evaluation: list[EncodedSample],
    model: HierarchicalModel,
    heads: DetectionHeads,
    schedule: FinetuneSchedule,
    out_dir: str | None = None,
    vocab=None,
    start_epoch: int = 0,
    optimizer: OptimizerState | None = None,
    result: FinetuneResult | None = None,
) -> FinetuneResult:
    """Epoch loop with evaluation-split F1 tracking and best-checkpoint keep.

    Batch order is a pure function of (seed, epoch), and the "last"
    checkpoint stores the optimizer moments and the best F1 and epoch so
    far, so a resumed run (passing them back as ``optimizer`` and
    ``result``) reproduces an uninterrupted one step for step.
    """
    if not train:
        raise ValueError("training split is empty")
    params = _trained_parameters(model, heads, schedule)
    opt = optimizer or OptimizerState(learning_rate=schedule.learning_rate)
    if result is None:
        result = FinetuneResult()

    def arrays(include_opt: bool) -> dict:
        out = model.state_arrays()
        out.update({k: p.data for k, p in heads.parameters()})
        if include_opt:
            for k in params:
                out[f"opt.m.{k}"] = opt.m[k]
                out[f"opt.v.{k}"] = opt.v[k]
        return out

    def save(tag: str, include_opt: bool, meta: dict):
        if out_dir is not None:
            save_bundle(
                os.path.join(out_dir, tag), model.config, arrays(include_opt),
                vocab=vocab, meta=meta,
            )

    best_arrays: dict | None = None
    for epoch in range(start_epoch, schedule.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence([schedule.seed, 0xF17E, epoch])
        ).permutation(len(train))
        for step, start in enumerate(range(0, len(order), schedule.batch_size)):
            batch = [train[i] for i in order[start:start + schedule.batch_size]]
            for p in params.values():
                p.zero_grad()
            loss, _ = finetune_loss(
                batch, model, heads,
                lambda_fine=schedule.lambda_fine,
                class_weights=schedule.class_weights,
            )
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"fine-tuning loss became non-finite at epoch {epoch}, "
                    f"step {step}"
                )
            loss.backward()
            adamw_step(params, opt)
            result.loss_history.append((epoch, step, value))
        f1 = _coarse_f1(evaluation, model, heads) if evaluation else float("nan")
        result.eval_history.append((epoch, f1))
        result.epochs_run = epoch + 1
        improved = evaluation and (f1 > result.best_f1)
        if improved or not evaluation:
            result.best_f1 = f1 if evaluation else float("nan")
            result.best_epoch = epoch
            best_arrays = {k: v.copy() for k, v in arrays(False).items()}
        save("last", True, {"epoch": epoch + 1, "opt_t": opt.t,
                            "best_f1": result.best_f1,
                            "best_epoch": result.best_epoch,
                            "threshold": heads.threshold})
        if (
            schedule.early_stop_patience is not None
            and evaluation
            and epoch - result.best_epoch >= schedule.early_stop_patience
        ):
            break
    if out_dir is not None and best_arrays is not None:
        save_bundle(
            os.path.join(out_dir, "best"), model.config, best_arrays,
            vocab=vocab,
            meta={"epoch": result.best_epoch + 1, "f1": result.best_f1,
                  "threshold": heads.threshold},
        )
    if out_dir is not None:
        write_csv(os.path.join(out_dir, "loss.csv"), ["epoch", "step", "loss"],
                  result.loss_history)
        write_csv(os.path.join(out_dir, "eval.csv"), ["epoch", "f1"],
                  result.eval_history)
    return result


def write_reports_jsonl(reports: list[PredictionReport], path: str) -> None:
    with open(path, "w") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_dict()) + "\n")
