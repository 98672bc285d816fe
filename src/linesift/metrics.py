"""Classification and localization metrics plus the line-heatmap export.

F1 follows the FNR-based formulation 2 * precision * (1 - FNR) /
(precision + (1 - FNR)); since 1 - FNR is recall this is the usual
harmonic mean, computed that way so the reported numbers match the
formula exactly. The localization score Top-k% counts a sample as a hit
when its first max(1, ceil(k% * L)) ranked lines intersect the
ground-truth vulnerable lines.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

__all__ = [
    "ConfusionCounts",
    "LocalizationRecord",
    "classification_metrics",
    "prefix_size",
    "topk_accuracy",
    "sweep_topk",
    "write_csv",
    "export_heatmap",
    "write_heatmap_csv",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_predictions(cls, labels, predictions) -> "ConfusionCounts":
        if len(labels) != len(predictions):
            raise ValueError("labels and predictions differ in length")
        tp = fp = tn = fn = 0
        for truth, pred in zip(labels, predictions):
            if pred == 1 and truth == 1:
                tp += 1
            elif pred == 1:
                fp += 1
            elif truth == 1:
                fn += 1
            else:
                tn += 1
        return cls(tp, fp, tn, fn)


def classification_metrics(counts: ConfusionCounts) -> dict:
    """Accuracy/precision/recall/F1; zero denominators report 0 and a flag."""
    undefined = []

    def ratio(num, den, name):
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    precision = ratio(counts.tp, counts.tp + counts.fp, "precision")
    # recall expressed as 1 - FNR, FNR = fn / (tp + fn)
    recall = ratio(counts.tp, counts.tp + counts.fn, "recall")
    accuracy = ratio(counts.tp + counts.tn, counts.total, "accuracy")
    if precision + recall == 0:
        undefined.append("f1")
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return {
        "accuracy": accuracy,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "counts": {"tp": counts.tp, "fp": counts.fp,
                   "tn": counts.tn, "fn": counts.fn},
        "undefined": undefined,
    }


@dataclass(frozen=True)
class LocalizationRecord:
    """Ground truth and ranked prediction lines for one vulnerable sample."""

    id: str
    truth: frozenset[int]          # ground-truth vulnerable line numbers
    ranked: tuple[int, ...]        # predicted lines, best first (may be empty)
    total_lines: int               # retained line count L


def prefix_size(k_percent: float, total_lines: int) -> int:
    """How many ranked lines Top-k% keeps: max(1, ceil(k% * L))."""
    return max(1, math.ceil(k_percent / 100.0 * total_lines))


def topk_accuracy(records: list[LocalizationRecord], k_percent: float,
                  detail: bool = False):
    """Fraction of records whose top-k% ranked lines hit the ground truth.

    Records with empty ground truth are excluded (and counted); a record
    with an empty ranking - a coarse-negative under staged gating - simply
    scores a miss.
    """
    if not (0.0 < k_percent <= 100.0):
        raise ValueError(f"k_percent {k_percent} outside (0, 100]")
    hits = 0
    evaluated = 0
    excluded = 0
    for rec in records:
        if not rec.truth:
            excluded += 1
            continue
        evaluated += 1
        prefix = set(rec.ranked[: prefix_size(k_percent, rec.total_lines)])
        if prefix & rec.truth:
            hits += 1
    accuracy = hits / evaluated if evaluated else 0.0
    if detail:
        return {"accuracy": accuracy, "evaluated": evaluated,
                "excluded": excluded, "hits": hits}
    return accuracy


def sweep_topk(records: list[LocalizationRecord],
               k_values=tuple(range(2, 21))) -> list[tuple[float, float]]:
    return [(float(k), topk_accuracy(records, k)) for k in k_values]


def write_csv(path: str, header: list[str], rows) -> None:
    """One header row, then ``rows``, as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def export_heatmap(report, code: str) -> list[dict]:
    """Plot-ready per-line rows from a prediction report.

    One row per retained line: (line_number, source_text, p_vul, rank).
    For a coarse-negative report the probability and rank cells are empty,
    since the staged protocol suppresses the ranking.
    """
    source_lines = code.split("\n")
    by_line = {s["line"]: (i + 1, s["p_vul"])
               for i, s in enumerate(report.statements)}
    rows = []
    for line in report.lines:
        text = source_lines[line - 1] if 0 < line <= len(source_lines) else ""
        rank, p = by_line.get(line, ("", ""))
        rows.append({
            "line_number": line,
            "source_text": text,
            "p_vul": p,
            "rank": rank,
        })
    return rows


def write_heatmap_csv(rows: list[dict], path: str, note: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if note:
            fh.write(f"# {note}\n")
        writer = csv.DictWriter(
            fh, fieldnames=["line_number", "source_text", "p_vul", "rank"]
        )
        writer.writeheader()
        writer.writerows(rows)
