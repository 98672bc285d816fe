"""Staged supervised detection: coarse function head, fine statement head.

Training is joint: the coarse cross-entropy runs over every sample in the
batch while the fine cross-entropy runs only over the retained statements
of ground-truth-vulnerable samples (so an all-negative batch moves the
statement head not at all). Inference is staged: statement probabilities
are computed and ranked only when the coarse head fires.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from . import tensor as T
from .tensor import OptimizerState, Tensor
from .encoding import EncodedSample
from .checkpoint import CheckpointError
from .metrics import ConfusionCounts, classification_metrics, prefix_size, write_csv
from .model import HierarchicalModel, load_moments, save_run
from .parallel import map_ordered
from .pretrain import train_step
from .transformer import Mlp

__all__ = [
    "DetectionHeads",
    "PredictionReport",
    "RankedLines",
    "FinetuneSchedule",
    "FinetuneResult",
    "sample_losses",
    "finetune_loss",
    "predict",
    "coarse_metrics",
    "finetune_run",
]

# finetune_run's histories: file, header, column types
HISTORIES = (("loss.csv", ["epoch", "step", "loss"], (int, int, float)),
             ("eval.csv", ["epoch", "f1"], (int, float)))


class DetectionHeads:
    """DNet over the program vector, StatementNet over statement vectors."""

    def __init__(self, hidden: int, ffn_hidden: int, rng: np.random.Generator,
                 threshold: float = 0.5):
        self.dnet = Mlp(hidden, ffn_hidden, 2, rng)
        self.stmt = Mlp(hidden, ffn_hidden, 2, rng)
        self.threshold = threshold

    def parameters(self):
        yield from self.dnet.parameters("heads.dnet_")
        yield from self.stmt.parameters("heads.stmt_")

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


def sample_losses(batch: list[EncodedSample], model: HierarchicalModel,
                  heads: DetectionHeads, lambda_fine: float = 1.0,
                  class_weights=None, freeze_encoder: bool = False) -> list:
    """The batch loss as one term per sample, to be summed in batch order:
    zero-argument callables that each build their sample's term.

    Both denominators, the sum of the labels' class weights (coarse CE) and
    the statement rows of the vulnerable samples (fine CE), depend only on
    the labels, so each sample's share is known before any forward pass.
    With ``freeze_encoder`` the encoder runs under ``no_grad``, so only the
    heads' graph is built and differentiated.
    """
    weights = np.ones(2) if class_weights is None else np.asarray(class_weights, float)
    coarse_sum = sum(weights[enc.label] for enc in batch)
    fine_rows = sum(enc.L for enc in batch if enc.label == 1)

    def term(enc: EncodedSample) -> Tensor:
        with T.no_grad() if freeze_encoder else nullcontext():
            program, statements = model.encode_program(enc)
        coarse = T.cross_entropy(heads.coarse_logits_raw(program), [enc.label])
        loss = T.scale(coarse, weights[enc.label] / coarse_sum)
        if enc.label == 1 and lambda_fine != 0.0:
            fine = T.cross_entropy(heads.fine_logits_raw(statements), enc.vul_flags)
            loss = loss + T.scale(fine, lambda_fine * enc.L / fine_rows)
        return loss

    return [partial(term, enc) for enc in batch]


def finetune_loss(
    batch: list[EncodedSample],
    model: HierarchicalModel,
    heads: DetectionHeads,
    lambda_fine: float = 1.0,
    class_weights=None,
    training: bool = False,  # ignored; the benchmark's warm step still passes it
) -> tuple[Tensor, dict]:
    """Coarse CE over the batch plus lambda * fine CE over vulnerable samples,
    as one graph: the sum of ``sample_losses``' terms in batch order.

    The fine term is the mean per-statement cross-entropy over the retained
    statements of all label==1 samples in the batch (target 1 on labeled
    vulnerable lines, 0 elsewhere); it is exactly zero - contributing no
    gradient - when the batch has no vulnerable sample.
    """
    if not batch:
        raise ValueError("finetune_loss needs a non-empty batch")
    terms = sample_losses(batch, model, heads, lambda_fine, class_weights)
    info = {"coarse_rows": len(batch),
            "fine_rows": sum(enc.L for enc in batch if enc.label == 1)}
    return reduce(T.add, [build() for build in terms]), info


class RankedLines(Sequence):
    """Retained lines in ranked order, whose items are ``{"line": 1-based,
    "p_vul": float}`` dicts made on access from two arrays, so that a kept
    report holds two arrays rather than a dict per line."""

    __slots__ = ("lines", "p_vul")

    def __init__(self, lines, p_vul):
        self.lines = np.asarray(lines, dtype=np.int64)
        self.p_vul = np.asarray(p_vul, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        return {"line": int(self.lines[i]), "p_vul": float(self.p_vul[i])}

    def __iter__(self):
        for line, p in zip(self.lines.tolist(), self.p_vul.tolist()):
            yield {"line": line, "p_vul": p}

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def __repr__(self) -> str:
        return f"RankedLines({list(self)!r})"


@dataclass
class PredictionReport:
    """Per-function verdict plus the (gated) per-statement ranking."""

    id: str
    p_vul: float
    coarse_label: int
    statements: Sequence[dict]   # ranked: [{"line": 1-based, "p_vul": float}]
    top_lines: list[int]         # first max(1, ceil(k% * L)) ranked lines
    k_percent: float
    lines: list[int]             # retained original line numbers, in order

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "p_vul": self.p_vul,
            "coarse_label": self.coarse_label,
            "statements": list(self.statements),
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
    ranked: Sequence[dict] = []
    top_lines: list[int] = []
    if coarse_label == 1:
        probs = heads.fine_probabilities(statements).data[:, 1]
        lines = np.asarray(encoded.orig_lines)
        order = np.lexsort((lines, -probs))  # last key first
        ranked = RankedLines(lines[order], probs[order])
        top_lines = ranked.lines[:prefix_size(k_percent, encoded.L)].tolist()
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


def coarse_metrics(encodeds: list[EncodedSample], model: HierarchicalModel,
                   heads: DetectionHeads) -> dict:
    """``classification_metrics`` of the coarse verdicts on ``encodeds``,
    whose predicts run on the pool."""
    counts = ConfusionCounts.from_predictions(
        [enc.label for enc in encodeds],
        list(map_ordered(lambda enc: predict(enc, model, heads).coarse_label, encodeds)),
    )
    return classification_metrics(counts)


def _trained_parameters(model, heads, schedule) -> dict[str, Tensor]:
    params = dict(heads.parameters())
    if not schedule.freeze_encoder:
        params.update(model.parameters())
    return params


def _read_histories(out_dir: str, epochs: int) -> list[list[tuple]]:
    """The loss and evaluation histories of the first ``epochs`` epochs, read
    back from the ``loss.csv`` and ``eval.csv`` in ``out_dir`` (none without
    the file). Rows of later epochs, which a run stopped before it could save
    ``last/`` leaves, are dropped; any other content raises a
    ``CheckpointError`` naming the file."""
    histories = []
    for name, header, types in HISTORIES:
        path = os.path.join(out_dir, name)
        try:
            with open(path, newline="") as fh:
                lines = list(csv.reader(fh))
            if lines[:1] != [header] or any(len(cells) != len(types) for cells in lines):
                raise ValueError
            rows = [tuple(cast(cell) for cast, cell in zip(types, cells)) for cells in lines[1:]]
        except FileNotFoundError:
            rows = []
        except ValueError:
            raise CheckpointError(f"{path} is not a {','.join(header)} table") from None
        histories.append([row for row in rows if row[0] < epochs])
    return histories


def finetune_run(
    train: list[EncodedSample],
    evaluation: list[EncodedSample],
    model: HierarchicalModel,
    heads: DetectionHeads,
    schedule: FinetuneSchedule,
    out_dir: str | None = None,
    vocab=None,
    resume: tuple[dict, dict] | None = None,
) -> FinetuneResult:
    """Epoch loop with evaluation-split F1 tracking and best-checkpoint keep.

    Batch order is a pure function of (seed, epoch). An epoch that improves
    the evaluation F1 (every epoch, without an evaluation split) first writes
    the "best" checkpoint. Each epoch then writes ``loss.csv``, ``eval.csv``
    and the "last" checkpoint, which stores the optimizer moments and the
    best F1 and epoch so far. ``resume`` is the ``(arrays, meta)`` of that
    "last" bundle, whose weights ``model`` and ``heads`` already hold: the
    run then continues from its epoch, with its optimizer state and the
    histories in ``out_dir``, and reproduces an uninterrupted one step for
    step. Each step runs its samples one at a time on the pool
    (``parallel.backward_sum``).
    """
    if not train:
        raise ValueError("training split is empty")
    params = _trained_parameters(model, heads, schedule)
    opt = OptimizerState(learning_rate=schedule.learning_rate)
    result = FinetuneResult()
    start_epoch = 0
    if resume is not None:
        arrays, meta = resume
        # load_bundle has checked the types and signs of these counters
        try:
            start_epoch, opt.t, result.best_f1, result.best_epoch = (
                meta[key] for key in ("epoch", "opt_t", "best_f1", "best_epoch"))
        except KeyError as exc:
            raise CheckpointError(f"cannot resume: meta {exc.args[0]} is missing") from None
        load_moments(opt, params, arrays)
        result.loss_history, result.eval_history = _read_histories(out_dir, start_epoch)

    for epoch in range(start_epoch, schedule.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence([schedule.seed, 0xF17E, epoch])
        ).permutation(len(train))
        for step, start in enumerate(range(0, len(order), schedule.batch_size)):
            batch = [train[i] for i in order[start:start + schedule.batch_size]]
            value = train_step(params, opt, sample_losses(
                batch, model, heads, schedule.lambda_fine, schedule.class_weights,
                schedule.freeze_encoder), f"epoch {epoch}, step {step}")
            result.loss_history.append((epoch, step, value))
        f1 = coarse_metrics(evaluation, model, heads)["f1"] if evaluation else float("nan")
        result.eval_history.append((epoch, f1))
        if not evaluation or f1 > result.best_f1:
            result.best_f1 = f1
            result.best_epoch = epoch
            # before last/, so that its best_epoch names weights on disk
            if out_dir is not None:
                save_run(os.path.join(out_dir, "best"), model, (heads,), vocab,
                         {"epoch": epoch + 1, "f1": f1, "threshold": heads.threshold})
        if out_dir is not None:
            for (name, header, _), rows in zip(HISTORIES, (result.loss_history,
                                                           result.eval_history)):
                write_csv(os.path.join(out_dir, name), header, rows)
            save_run(os.path.join(out_dir, "last"), model, (heads,), vocab,
                     {"epoch": epoch + 1, "opt_t": opt.t, "best_f1": result.best_f1,
                      "best_epoch": result.best_epoch, "threshold": heads.threshold}, opt)
        if (
            schedule.early_stop_patience is not None
            and evaluation
            and epoch - result.best_epoch >= schedule.early_stop_patience
        ):
            break
    return result


def write_reports_jsonl(reports: list[PredictionReport], path: str) -> None:
    with open(path, "w") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_dict()) + "\n")
