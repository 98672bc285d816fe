"""Metric formulas against hand cases and brute-force enumeration."""

import csv
import math
import os

import numpy as np
import pytest

from linesift.finetune import PredictionReport
from linesift.metrics import (
    ConfusionCounts,
    LocalizationRecord,
    classification_metrics,
    export_heatmap,
    prefix_size,
    sweep_topk,
    topk_accuracy,
    write_heatmap_csv,
    write_csv,
)


def brute_force_topk(records, k):
    """Literal re-statement of the overlap definition, no shared code."""
    scores = []
    for rec in records:
        if len(rec.truth) == 0:
            continue
        count = max(1, math.ceil(k * rec.total_lines / 100))
        hit = 0
        for line in rec.ranked[:count]:
            if line in rec.truth:
                hit = 1
        scores.append(hit)
    return sum(scores) / len(scores) if scores else 0.0


def random_record(rng, i):
    total = int(rng.integers(3, 60))
    lines = list(rng.permutation(np.arange(1, total + 1)))
    ranked = tuple(int(x) for x in lines[: int(rng.integers(0, total + 1))])
    n_truth = int(rng.integers(0, 4))
    truth = frozenset(int(x) for x in rng.choice(
        np.arange(1, total + 1), size=n_truth, replace=False
    ))
    return LocalizationRecord(truth=truth, ranked=ranked, total_lines=total)


class TestClassificationMetrics:
    def test_perfect(self):
        m = classification_metrics(ConfusionCounts(tp=1, fp=0, tn=1, fn=0))
        assert (m["accuracy"], m["precision"], m["recall"], m["f1"]) == (1, 1, 1, 1)
        assert m["undefined"] == []

    def test_hand_computation(self):
        m = classification_metrics(ConfusionCounts(tp=3, fp=1, tn=0, fn=3))
        assert m["precision"] == 0.75
        assert m["recall"] == 0.5
        assert m["f1"] == 0.6

    def test_zero_denominators_flagged(self):
        m = classification_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
        assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0
        assert set(m["undefined"]) == {"precision", "recall", "f1"}

    def test_reorder_invariance(self, rng):
        labels = list(rng.integers(0, 2, size=40))
        preds = list(rng.integers(0, 2, size=40))
        base = classification_metrics(ConfusionCounts.from_predictions(labels, preds))
        perm = rng.permutation(40)
        shuffled = classification_metrics(ConfusionCounts.from_predictions(
            [labels[i] for i in perm], [preds[i] for i in perm]
        ))
        assert base == shuffled

    def test_counts_partition_total(self, rng):
        labels = list(rng.integers(0, 2, size=25))
        preds = list(rng.integers(0, 2, size=25))
        counts = ConfusionCounts.from_predictions(labels, preds)
        assert counts.total == 25


class TestTopkAccuracy:
    def test_hit(self):
        rec = LocalizationRecord(frozenset({4}), (4, 2, 9), 20)
        assert topk_accuracy([rec], 5) == 1.0  # prefix = max(1, ceil(1)) = 1

    def test_miss(self):
        rec = LocalizationRecord(frozenset({9}), (4, 2, 9), 20)
        assert topk_accuracy([rec], 5) == 0.0

    def test_empty_truth_excluded_and_counted(self):
        recs = [
            LocalizationRecord(frozenset(), (1, 2), 5),
            LocalizationRecord(frozenset({1}), (1, 2), 5),
        ]
        detail = topk_accuracy(recs, 10, detail=True)
        assert detail == {"accuracy": 1.0, "evaluated": 1, "excluded": 1,
                          "hits": 1}

    def test_empty_ranking_is_a_miss(self):
        rec = LocalizationRecord(frozenset({3}), (), 10)
        assert topk_accuracy([rec], 20) == 0.0

    def test_prefix_takes_the_product_first(self):
        # 7 / 100.0 * 100 is 7.000000000000001, which ceil takes to 8
        assert prefix_size(7, 100) == 7
        assert prefix_size(14, 50) == 7
        rec = LocalizationRecord(frozenset({8}), tuple(range(1, 101)), 100)
        assert topk_accuracy([rec], 7) == 0.0

    def test_k_range_validated(self):
        with pytest.raises(ValueError):
            topk_accuracy([], 0)
        with pytest.raises(ValueError):
            topk_accuracy([], 101)

    def test_against_brute_force_oracle(self, rng):
        records = [random_record(rng, i) for i in range(200)]
        for k in (2, 5, 10, 20):
            assert topk_accuracy(records, k) == brute_force_topk(records, k)


class TestSweep:
    def test_single_hit_constant_curve(self):
        rec = LocalizationRecord(frozenset({1}), (1, 2, 3), 3)
        curve = sweep_topk([rec])
        assert all(acc == 1.0 for _, acc in curve)
        assert [k for k, _ in curve] == [float(k) for k in range(2, 21)]

    def test_monotone_non_decreasing(self, rng):
        records = [random_record(rng, i) for i in range(150)]
        curve = sweep_topk(records)
        accs = [acc for _, acc in curve]
        assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_csv_round_trip(self, tmp_path, rng):
        records = [random_record(rng, i) for i in range(20)]
        curve = sweep_topk(records)
        path = tmp_path / "topk.csv"
        write_csv(str(path), ["k_percent", "topk_accuracy"], curve)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["k_percent"]), float(r["topk_accuracy"])) for r in rows] \
            == curve

    def test_csv_write_failing_midway_keeps_old_file(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_csv(str(path), ["step", "loss"], [(1, 0.5), (2, 0.25)])
        old = path.read_bytes()

        def rows():
            yield (1, 0.5)
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError, match="killed mid-write"):
            write_csv(str(path), ["step", "loss"], rows())
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["loss.csv"]


class TestHeatmap:
    def report(self, coarse=1):
        statements = []
        top = []
        if coarse:
            statements = [
                {"line": 2, "p_vul": 0.9},
                {"line": 4, "p_vul": 0.4},
                {"line": 1, "p_vul": 0.1},
            ]
            top = [2]
        return PredictionReport(
            id="s", p_vul=0.8 if coarse else 0.2, coarse_label=coarse,
            statements=statements, top_lines=top, k_percent=10,
            lines=[1, 2, 4],
        )

    def test_rows_and_rank_permutation(self):
        code = "int f ( ) {\nstrcpy ( a , b ) ;\n\nreturn 0 ;"
        rows = export_heatmap(self.report(), code)
        assert len(rows) == 3
        assert [r["line_number"] for r in rows] == [1, 2, 4]
        assert sorted(r["rank"] for r in rows) == [1, 2, 3]
        assert rows[1]["p_vul"] == 0.9 and rows[1]["rank"] == 1
        assert rows[0]["source_text"] == "int f ( ) {"

    def test_probabilities_echo_report(self):
        rows = export_heatmap(self.report(), "a\nb\nc\nd")
        by_line = {r["line_number"]: r["p_vul"] for r in rows}
        assert by_line == {1: 0.1, 2: 0.9, 4: 0.4}

    def test_coarse_negative_rows_unranked(self):
        rows = export_heatmap(self.report(coarse=0), "a\nb\nc\nd")
        assert len(rows) == 3
        assert all(r["p_vul"] == "" and r["rank"] == "" for r in rows)

    def test_csv_round_trip(self, tmp_path):
        code = 'int f ( ) {\nprintf ( "a,b" ) ;\n\nreturn 0 ;'
        rows = export_heatmap(self.report(), code)
        path = tmp_path / "heat.csv"
        write_heatmap_csv(rows, str(path))
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for src, back in zip(rows, parsed):
            assert back["source_text"] == src["source_text"]  # commas survive
            assert float(back["p_vul"]) == src["p_vul"]
            assert int(back["line_number"]) == src["line_number"]

    def test_note_written_as_comment(self, tmp_path):
        rows = export_heatmap(self.report(coarse=0), "a\nb\nc\nd")
        path = tmp_path / "heat.csv"
        write_heatmap_csv(rows, str(path), note="coarse-negative; ranking suppressed")
        text = path.read_text()
        assert text.startswith("# coarse-negative; ranking suppressed\n")
