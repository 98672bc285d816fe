"""Detection heads, joint loss, staged prediction, training loop."""

import json
from functools import reduce

import numpy as np
import pytest

from conftest import (
    assert_same_gradients, gradients_after, make_encoded, synthesize_corpus,
)
from linesift import parallel
from linesift import tensor as T
from linesift.encoding import build_vocab, encode
from linesift.finetune import (
    DetectionHeads,
    FinetuneSchedule,
    finetune_loss,
    finetune_run,
    predict,
    sample_losses,
)
from linesift.model import HierarchicalModel, ModelConfig
from linesift.transformer import EncoderConfig

VOCAB = 48
TINY = ModelConfig(
    encoder=EncoderConfig(layers=1, hidden=16, heads=2, ffn_hidden=32,
                          vocab_size=VOCAB),
    m_len=512,
)


@pytest.fixture
def model():
    return HierarchicalModel(TINY, seed=8)


@pytest.fixture
def heads(rng):
    return DetectionHeads(TINY.encoder.hidden, 32, rng)


def zeroed_heads():
    h = DetectionHeads(TINY.encoder.hidden, 32, np.random.default_rng(0))
    for _, p in h.parameters():
        p.data[:] = 0.0
    return h


class TestHeads:
    def test_zero_weights_yield_half_half(self, rng):
        h = zeroed_heads()
        pv = T.constant(rng.normal(size=(1, 16)))
        probs = h.coarse_probabilities(pv)
        assert probs.data.tolist() == [[0.5, 0.5]]
        sv = T.constant(rng.normal(size=(5, 16)))
        fine = h.fine_probabilities(sv)
        assert np.array_equal(fine.data, np.full((5, 2), 0.5))

    def test_probabilities_sum_to_one(self, rng, heads):
        pv = T.constant(rng.normal(size=(1, 16)))
        assert abs(heads.coarse_probabilities(pv).data.sum() - 1.0) < 1e-9
        sv = T.constant(rng.normal(size=(7, 16)))
        sums = heads.fine_probabilities(sv).data.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9

    def test_logit_margin_saturates(self, rng):
        h = zeroed_heads()
        h.dnet.b2.data[:] = [0.0, 10.0]
        h.stmt.b2.data[:] = [0.0, 10.0]
        pv = T.constant(rng.normal(size=(1, 16)))
        assert h.coarse_probabilities(pv).data[0, 1] > 0.9999
        sv = T.constant(rng.normal(size=(3, 16)))
        assert np.all(h.fine_probabilities(sv).data[:, 1] > 0.9999)


class TestFinetuneLoss:
    def batch(self, rng):
        vul = make_encoded(rng, 30, vocab_size=VOCAB, label=1, sample_id="v")
        if not vul.vul_flags.any():
            vul.vul_flags[0] = 1
        benign = make_encoded(rng, 25, vocab_size=VOCAB, label=0, sample_id="b")
        return [vul, benign]

    def test_lambda_zero_equals_coarse_alone(self, rng, model, heads):
        batch = self.batch(rng)
        coarse_only, _ = finetune_loss(batch, model, heads, lambda_fine=0.0)
        # independent recomputation of the coarse term
        rows = []
        for enc in batch:
            program, _ = model.encode_program(enc)
            rows.append(heads.coarse_logits_raw(program).data[0])
        logits = np.vstack(rows)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        nll = -np.log(probs[np.arange(2), [e.label for e in batch]])
        assert abs(coarse_only.item() - nll.mean()) < 1e-10

    def test_all_negative_batch_has_zero_fine_term(self, rng, model, heads):
        batch = [
            make_encoded(rng, 20, vocab_size=VOCAB, label=0, sample_id="x"),
            make_encoded(rng, 22, vocab_size=VOCAB, label=0, sample_id="y"),
        ]
        loss, info = finetune_loss(batch, model, heads, lambda_fine=1.0)
        assert info["fine_rows"] == 0
        loss.backward()
        for name, p in heads.parameters():
            if name.startswith("heads.stmt_"):
                assert p.grad is None  # statement head untouched

    def test_against_direct_summation_oracle(self, rng, model, heads):
        batch = self.batch(rng)
        lam = 0.7
        loss, _ = finetune_loss(batch, model, heads, lambda_fine=lam)
        # oracle: recompute both terms from raw logits with plain numpy
        coarse_rows, coarse_targets = [], []
        fine_rows, fine_targets = [], []
        for enc in batch:
            program, statements = model.encode_program(enc)
            coarse_rows.append(heads.coarse_logits_raw(program).data[0])
            coarse_targets.append(enc.label)
            if enc.label == 1:
                fine_rows.append(heads.fine_logits_raw(statements).data)
                fine_targets.extend(int(v) for v in enc.vul_flags)

        def mean_ce(rows, targets):
            logits = np.vstack(rows)
            logits = logits - logits.max(axis=1, keepdims=True)
            logz = np.log(np.exp(logits).sum(axis=1))
            return float(np.mean(
                logz - logits[np.arange(len(targets)), targets]
            ))

        expected = mean_ce(coarse_rows, coarse_targets) \
            + lam * mean_ce(fine_rows, fine_targets)
        assert abs(loss.item() - expected) < 1e-10

    def test_class_weights_change_coarse_term(self, rng, model, heads):
        batch = self.batch(rng)
        a, _ = finetune_loss(batch, model, heads, lambda_fine=0.0)
        b, _ = finetune_loss(batch, model, heads, lambda_fine=0.0,
                             class_weights=(1.0, 5.0))
        assert a.item() != b.item()

    def test_empty_batch_rejected(self, model, heads):
        with pytest.raises(ValueError):
            finetune_loss([], model, heads)


class TestPredict:
    def test_coarse_negative_suppresses_ranking(self, rng, model):
        h = zeroed_heads()
        h.dnet.b2.data[:] = [10.0, 0.0]  # always predicts non-vulnerable
        enc = make_encoded(rng, 30, vocab_size=VOCAB, label=1)
        report = predict(enc, model, h)
        assert report.coarse_label == 0
        assert report.statements == [] and report.top_lines == []
        assert report.lines == enc.orig_lines

    def test_topk_prefix_arithmetic(self, rng, model):
        h = zeroed_heads()
        h.dnet.b2.data[:] = [0.0, 10.0]  # always positive
        enc = make_encoded(rng, 41, vocab_size=VOCAB)
        enc.line_spans = [(1 + 4 * i, 5 + 4 * i) for i in range(10)]
        enc.orig_lines = list(range(1, 11))
        enc.vul_flags = np.zeros(10, dtype=np.int64)
        enc.validate()
        report = predict(enc, model, h, k_percent=10)
        assert len(report.top_lines) == 1  # ceil(0.1 * 10)
        report25 = predict(enc, model, h, k_percent=25)
        assert len(report25.top_lines) == 3

    def test_ranking_matches_sort_oracle(self, rng, model, heads):
        heads.dnet.b2.data[:] = [0.0, 10.0]
        enc = make_encoded(rng, 60, vocab_size=VOCAB)
        report = predict(enc, model, heads)
        _, statements = model.encode_program(enc)
        probs = heads.fine_probabilities(statements).data[:, 1]
        oracle = sorted(
            zip(enc.orig_lines, probs), key=lambda t: (-t[1], t[0])
        )
        assert [s["line"] for s in report.statements] == [l for l, _ in oracle]
        assert report.statements[0]["p_vul"] == max(probs)
        as_dicts = [{"line": l, "p_vul": float(p)} for l, p in oracle]
        assert report.statements == as_dicts and report.statements[-2:] == as_dicts[-2:]
        assert json.loads(json.dumps(report.to_dict()))["statements"] == as_dicts

    def test_builds_no_graph(self, rng, model, heads, monkeypatch):
        heads.dnet.b2.data[:] = [0.0, 10.0]  # the statement ranking runs too
        enc = make_encoded(rng, 60, vocab_size=VOCAB)
        graph_nodes = []
        make_result = T._result

        def recording_result(data, parents, backward):
            out = make_result(data, parents, backward)
            graph_nodes.append(out._backward is not None)
            return out

        monkeypatch.setattr(T, "_result", recording_result)
        report = predict(enc, model, heads)
        assert report.statements and graph_nodes and not any(graph_nodes)
        params = {**model.parameters(), **dict(heads.parameters())}
        assert all(p.grad is None for p in params.values())

    def test_report_matches_graph_path(self, rng, model, heads):
        heads.dnet.b2.data[:] = [0.0, 10.0]
        enc = make_encoded(rng, 400, vocab_size=VOCAB)
        report = predict(enc, model, heads)
        program, statements = model.encode_program(enc)
        assert program._backward is not None and statements._backward is not None
        assert report.p_vul == float(heads.coarse_probabilities(program).data[0, 1])
        probs = heads.fine_probabilities(statements).data[:, 1]
        assert {s["line"]: s["p_vul"] for s in report.statements} \
            == {line: float(p) for line, p in zip(enc.orig_lines, probs)}

    def test_tie_break_by_line_number(self, rng, model):
        h = zeroed_heads()
        h.dnet.b2.data[:] = [0.0, 10.0]
        enc = make_encoded(rng, 30, vocab_size=VOCAB)
        report = predict(enc, model, h)  # all statement probs exactly 0.5
        assert [s["line"] for s in report.statements] == sorted(enc.orig_lines)

    def test_threshold_monotonicity(self, rng, model, heads):
        encs = [make_encoded(rng, 30, vocab_size=VOCAB, sample_id=str(i))
                for i in range(12)]
        previous = None
        for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
            heads.threshold = tau
            positives = sum(predict(e, model, heads).coarse_label for e in encs)
            if previous is not None:
                assert positives <= previous
            previous = positives


def concat_rows_loss(batch, model, heads, lambda_fine, class_weights=None):
    """The batch loss as one graph over concatenated logit rows: the oracle
    for the sum of per-sample terms. The class-weighted coarse mean is the
    mean over each class's rows, weighted by the class's share
    w[c] * count[c] / sum_i w[t_i]."""
    coarse_rows, fine_rows, fine_targets = {0: [], 1: []}, [], []
    for enc in batch:
        program, statements = model.encode_program(enc)
        coarse_rows[enc.label].append(heads.coarse_logits_raw(program))
        if enc.label == 1:
            fine_rows.append(heads.fine_logits_raw(statements))
            fine_targets.extend(int(v) for v in enc.vul_flags)
    weights = (1.0, 1.0) if class_weights is None else class_weights
    total = sum(weights[enc.label] for enc in batch)
    loss = reduce(T.add, [
        T.scale(T.cross_entropy(T.concat_rows(rows), [c] * len(rows)),
                weights[c] * len(rows) / total)
        for c, rows in coarse_rows.items() if rows])
    if fine_rows and lambda_fine != 0.0:
        fine = T.cross_entropy(T.concat_rows(fine_rows), fine_targets)
        loss = loss + T.scale(fine, lambda_fine)
    return loss


class TestPerSampleTerms:
    @pytest.mark.parametrize("lambda_fine, class_weights, labels", [
        (0.5, (1.0, 3.0), (1, 0, 1, 0)),
        (0.0, None, (1, 0, 1, 0)),
        (0.5, None, (0, 1, 1, 0)),
        (0.5, (1.0, 3.0), (0, 0, 0)),
    ], ids=["class_weights", "lambda_0", "lambda_half", "all_negative"])
    def test_sum_matches_batched_graph(self, rng, model, heads, lambda_fine,
                                       class_weights, labels):
        batch = [make_encoded(rng, 18 + 7 * i, vocab_size=VOCAB, label=label,
                              sample_id=f"s{i}") for i, label in enumerate(labels)]
        for enc in batch:
            if enc.label == 1:
                enc.vul_flags[0] = 1
        params = model.parameters()
        params.update(heads.parameters())

        def oracle():
            loss = concat_rows_loss(batch, model, heads, lambda_fine, class_weights)
            loss.backward()
            return loss.item()

        def graph_sum():
            loss, _ = finetune_loss(batch, model, heads, lambda_fine, class_weights)
            loss.backward()
            return loss.item()

        def per_sample():
            return parallel.backward_sum(
                sample_losses(batch, model, heads, lambda_fine, class_weights))

        value, grads = gradients_after(params, oracle)
        for run in (graph_sum, per_sample):
            got, got_grads = gradients_after(params, run)
            assert abs(got - value) <= 1e-12
            assert_same_gradients(grads, got_grads, atol=1e-12)
        if 1 not in labels or lambda_fine == 0.0:
            assert all(grads[k] is None for k in grads if k.startswith("heads.stmt_"))


class TestFinetuneRun:
    def make_inputs(self, n=16, seed=2):
        samples = synthesize_corpus(n, seed=21)
        vocab = build_vocab(samples, max_size=256)
        cfg = ModelConfig(
            encoder=EncoderConfig(layers=1, hidden=16, heads=2, ffn_hidden=32,
                                  vocab_size=len(vocab)),
            m_len=512,
        )
        model = HierarchicalModel(cfg, seed=seed)
        heads = DetectionHeads(16, 32, np.random.default_rng(seed + 1))
        encodeds = [encode(s, vocab, 512) for s in samples]
        return encodeds, model, heads, vocab

    def test_zero_epochs_changes_nothing(self):
        encodeds, model, heads, _ = self.make_inputs()
        before = {k: p.data.copy() for k, p in heads.parameters()}
        result = finetune_run(encodeds, [], model, heads,
                              FinetuneSchedule(epochs=0))
        assert result.eval_history == [] and result.loss_history == []
        for k, p in heads.parameters():
            assert np.array_equal(p.data, before[k])

    def test_seeded_reproducibility(self):
        histories = []
        for _ in range(2):
            encodeds, model, heads, _ = self.make_inputs(seed=4)
            schedule = FinetuneSchedule(epochs=2, batch_size=4,
                                        learning_rate=1e-3, seed=11)
            result = finetune_run(encodeds, [], model, heads, schedule)
            histories.append(result.loss_history)
        assert histories[0] == histories[1]

    def test_worker_count_changes_no_bit(self, monkeypatch):
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(parallel, "usable_cores", lambda cores=cores: cores)
            encodeds, model, heads, _ = self.make_inputs(seed=4)
            schedule = FinetuneSchedule(epochs=2, batch_size=5, learning_rate=1e-3,
                                        seed=11, class_weights=(1.0, 2.0))
            result = finetune_run(encodeds, encodeds[:6], model, heads, schedule)
            weights = model.state_arrays()
            weights.update({k: p.data for k, p in heads.parameters()})
            runs.append((result.loss_history, result.eval_history, weights))
        (losses, evals, weights), (losses2, evals2, weights2) = runs
        assert losses == losses2 and evals == evals2
        for name, value in weights.items():
            assert np.array_equal(value, weights2[name]), name

    def test_overfits_separable_corpus(self):
        encodeds, model, heads, _ = self.make_inputs(n=16)
        schedule = FinetuneSchedule(epochs=30, batch_size=4,
                                    learning_rate=2e-3, seed=5)
        finetune_run(encodeds, encodeds, model, heads, schedule)
        reports = [predict(e, model, heads) for e in encodeds]
        predictions = [r.coarse_label for r in reports]
        labels = [e.label for e in encodeds]
        assert predictions == labels

    def test_freeze_encoder_keeps_model_fixed(self):
        encodeds, model, heads, _ = self.make_inputs()
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        schedule = FinetuneSchedule(epochs=1, batch_size=4, freeze_encoder=True,
                                    seed=0)
        finetune_run(encodeds, [], model, heads, schedule)
        for k, v in model.state_arrays().items():
            assert np.array_equal(v, before[k])

    def test_freeze_encoder_differentiates_only_the_heads(self):
        encodeds, model, heads, _ = self.make_inputs()
        schedule = FinetuneSchedule(epochs=1, batch_size=4, freeze_encoder=True,
                                    seed=0)
        finetune_run(encodeds, [], model, heads, schedule)
        assert all(p.grad is None for p in model.parameters().values())
        assert heads.dnet.w1.grad is not None

    def test_early_stop(self):
        encodeds, model, heads, _ = self.make_inputs()
        schedule = FinetuneSchedule(epochs=30, batch_size=4, learning_rate=0.0,
                                    seed=3, early_stop_patience=2)
        # zero learning rate: eval F1 never improves after epoch 0
        result = finetune_run(encodeds, encodeds[:6], model, heads, schedule)
        assert len(result.eval_history) <= 4

    def test_best_checkpoint_saved(self, tmp_path):
        encodeds, model, heads, vocab = self.make_inputs()
        schedule = FinetuneSchedule(epochs=2, batch_size=4, seed=0)
        result = finetune_run(encodeds, encodeds[:4], model, heads, schedule,
                              out_dir=str(tmp_path), vocab=vocab)
        assert (tmp_path / "best").is_dir()
        assert (tmp_path / "last").is_dir()
        assert (tmp_path / "loss.csv").exists()
        assert result.best_epoch >= 0
