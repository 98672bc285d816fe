"""Mask plans, decoder losses, and the pretraining loop."""

import math

import numpy as np
import pytest

from conftest import (
    assert_same_gradients,
    finite_difference_failures,
    gradients_after,
    make_encoded,
    synthesize_corpus,
)
from linesift import parallel
from linesift import tensor as T
from linesift.encoding import (
    BOS,
    EOS,
    MASK,
    RESERVED_TOKENS,
    EncodedSample,
    build_vocab,
    encode,
)
from linesift.model import HierarchicalModel, ModelConfig
from linesift.pretrain import (
    DivergenceError,
    MaskedLine,
    MaskPlan,
    MlmHead,
    MspDecoder,
    PretrainSchedule,
    apply_mask_plan,
    make_mask_plan,
    mlm_loss,
    msp_loss,
    pretrain_run,
    sample_losses,
)
from linesift.transformer import EncoderConfig
from test_transformer import TOY

VOCAB = 40
TINY = ModelConfig(
    encoder=EncoderConfig(layers=1, hidden=16, heads=2, ffn_hidden=32,
                          vocab_size=VOCAB),
    m_len=512,
)


@pytest.fixture
def model():
    return HierarchicalModel(TINY, seed=5)


@pytest.fixture
def decoder(rng):
    return MspDecoder(TINY.encoder.hidden, VOCAB, rng, max_decode_len=16)


class TestMakeMaskPlan:
    def test_minimum_one_line(self, rng):
        enc = make_encoded(rng, 5, vocab_size=VOCAB)
        enc.line_spans = [(1, 5)]
        enc.orig_lines = [1]
        enc.vul_flags = np.zeros(1, dtype=np.int64)
        plan = make_mask_plan(enc, VOCAB, seed=1)
        assert len(plan.lines) == 1

    def test_round_of_fifteen_percent(self, rng):
        enc = make_encoded(rng, 80, vocab_size=VOCAB, max_line_tokens=4)
        while enc.L < 20:
            enc = make_encoded(rng, 80, vocab_size=VOCAB, max_line_tokens=4)
        enc.line_spans = enc.line_spans[:20]
        enc.line_spans[-1] = (enc.line_spans[-1][0], enc.n)
        enc.orig_lines = list(range(1, 21))
        enc.vul_flags = np.zeros(20, dtype=np.int64)
        plan = make_mask_plan(enc, VOCAB, seed=1)
        assert len(plan.lines) == 3  # round(0.15 * 20)

    def test_deterministic_given_seed(self, rng):
        enc = make_encoded(rng, 60, vocab_size=VOCAB)
        assert make_mask_plan(enc, VOCAB, 7) == make_mask_plan(enc, VOCAB, 7)
        assert make_mask_plan(enc, VOCAB, 7) != make_mask_plan(enc, VOCAB, 8)

    def test_action_statistics(self, rng):
        enc = make_encoded(rng, 301, vocab_size=VOCAB, max_line_tokens=3)
        actions = {"mask_all": 0, "randomize": 0, "keep": 0}
        picked = 0
        trials = 2000
        for seed in range(trials):
            plan = make_mask_plan(enc, VOCAB, seed)
            picked += len(plan.lines)
            for line in plan.lines:
                actions[line.action] += 1
        total = sum(actions.values())
        assert picked / (trials * enc.L) == pytest.approx(0.15, abs=0.01)
        assert actions["mask_all"] / total == pytest.approx(0.80, abs=0.02)
        assert actions["randomize"] / total == pytest.approx(0.10, abs=0.02)
        assert actions["keep"] / total == pytest.approx(0.10, abs=0.02)


class TestApplyMaskPlan:
    def test_keep_only_plan_is_identity(self, rng):
        enc = make_encoded(rng, 30, vocab_size=VOCAB)
        o, p = enc.line_spans[0]
        original = tuple(int(t) for t in enc.token_ids[o:p])
        plan = MaskPlan(lines=(
            MaskedLine(0, "keep", original, original),
        ))
        masked = apply_mask_plan(enc, plan)
        assert np.array_equal(masked.token_ids, enc.token_ids)

    def test_mask_all_fills_span(self, rng):
        enc = make_encoded(rng, 30, vocab_size=VOCAB)
        idx = 1 if enc.L > 1 else 0
        o, p = enc.line_spans[idx]
        original = tuple(int(t) for t in enc.token_ids[o:p])
        plan = MaskPlan(lines=(
            MaskedLine(idx, "mask_all", original, (MASK,) * (p - o)),
        ))
        masked = apply_mask_plan(enc, plan)
        assert np.all(masked.token_ids[o:p] == MASK)
        assert masked.n == enc.n and masked.L == enc.L
        assert masked.line_spans == enc.line_spans
        masked.validate()

    def test_randomize_never_reserved(self, rng):
        enc = make_encoded(rng, 200, vocab_size=VOCAB, max_line_tokens=3)
        replacements = []
        for seed in range(500):
            plan = make_mask_plan(enc, VOCAB, seed)
            for line in plan.lines:
                if line.action == "randomize":
                    replacements.extend(line.replacement_ids)
                assert len(line.replacement_ids) == len(line.original_ids)
        assert len(replacements) > 100
        assert min(replacements) >= len(RESERVED_TOKENS)
        assert max(replacements) < VOCAB

    def test_mismatched_plan_rejected(self, rng):
        enc_a = make_encoded(rng, 30, vocab_size=VOCAB, sample_id="a")
        enc_b = make_encoded(rng, 30, vocab_size=VOCAB, sample_id="b")
        plan = make_mask_plan(enc_a, VOCAB, 3)
        with pytest.raises(ValueError):
            apply_mask_plan(enc_b, plan)


class TestDecoderLoss:
    def test_uniform_logits_give_log_vocab_per_token(self, rng, decoder):
        decoder.proj_w.data[:] = 0.0
        decoder.proj_b.data[:] = 0.0
        vec = T.constant(rng.normal(size=(1, TINY.encoder.hidden)))
        table = T.constant(rng.normal(size=(VOCAB, TINY.encoder.hidden)))
        targets = [7, 8, 9]
        loss, steps, truncated = decoder.sequence_loss(vec, [targets], table)
        assert steps == 4  # three tokens plus EOS
        assert not truncated
        assert abs(loss.item() - 4 * math.log(VOCAB)) < 1e-12

    def test_additivity_over_identical_statements(self, rng, decoder):
        vec = T.constant(rng.normal(size=(1, TINY.encoder.hidden)))
        table = T.constant(rng.normal(size=(VOCAB, TINY.encoder.hidden)))
        single, _, _ = decoder.sequence_loss(vec, [[6, 7]], table)
        double = single + decoder.sequence_loss(vec, [[6, 7]], table)[0]
        assert abs(double.item() - 2 * single.item()) < 1e-12

    def test_truncation_flag(self, rng, decoder):
        vec = T.constant(rng.normal(size=(1, TINY.encoder.hidden)))
        table = T.constant(rng.normal(size=(VOCAB, TINY.encoder.hidden)))
        long_targets = list(range(6, 6 + 30))
        loss, steps, truncated = decoder.sequence_loss(vec, [long_targets], table)
        assert truncated == 1
        assert steps == decoder.max_decode_len + 1

    def test_bos_eos_conventions(self, rng, decoder):
        # a 1-token statement decodes in 2 steps: BOS->tok, tok->EOS
        vec = T.constant(rng.normal(size=(1, TINY.encoder.hidden)))
        table = T.constant(rng.normal(size=(VOCAB, TINY.encoder.hidden)))
        _, steps, _ = decoder.sequence_loss(vec, [[9]], table)
        assert steps == 2
        assert BOS != EOS


def _step(decoder, x, h, c):
    """One LSTM step of ``decoder`` as a chain of per-op graph nodes: the
    oracle of ``tensor.lstm_sequence``."""
    def gate(name, activation):
        wx, wh, b = decoder.gates[name]
        return activation(x @ wx + h @ wh + b)
    i = gate("in", T.sigmoid)
    f = gate("forget", T.sigmoid)
    g = gate("cell", T.tanh)
    o = gate("out", T.sigmoid)
    c_next = T.mul(f, c) + T.mul(i, g)
    return T.mul(o, T.tanh(c_next)), c_next


def per_line_loss(decoder, statement_vector, target_ids, token_table):
    """Reference decoder: one LSTM chain per line, one token per step."""
    original = [int(t) for t in target_ids][: decoder.max_decode_len]
    targets = original + [EOS]
    h = statement_vector
    c = T.constant(np.zeros((1, decoder.hidden)))
    logit_rows = []
    for inp in [BOS] + original:
        h, c = _step(decoder, T.embedding_lookup(token_table, [inp]), h, c)
        logit_rows.append(h @ decoder.proj_w + decoder.proj_b)
    mean_ce = T.cross_entropy(T.concat_rows(logit_rows), targets)
    return T.scale(mean_ce, float(len(targets)))


def loss_and_grads(loss_fn, params):
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.item(), {k: p.grad.copy() for k, p in params.items()}


class TestBatchedDecoder:
    # a 1-token line, a line past max_decode_len (16), and mixed lengths
    LINES = [[9], list(range(6, 6 + 30)), [6, 7, 8], [10, 11, 12, 13, 14, 15, 16]]

    def inputs(self, rng, decoder, k):
        vecs = T.parameter(rng.normal(size=(k, TINY.encoder.hidden)))
        table = T.parameter(rng.normal(size=(VOCAB, TINY.encoder.hidden)))
        params = dict(decoder.parameters())
        params.update({"vecs": vecs, "table": table})
        return vecs, table, params

    def test_matches_per_line_chain(self, rng, decoder):
        vecs, table, params = self.inputs(rng, decoder, len(self.LINES))
        batched, grads = loss_and_grads(
            lambda: decoder.sequence_loss(vecs, self.LINES, table)[0], params)

        def serial():
            parts = [per_line_loss(decoder, vecs.rows(r, r + 1), ids, table)
                     for r, ids in enumerate(self.LINES)]
            return sum(parts[1:], parts[0])

        expected, oracle = loss_and_grads(serial, params)
        assert abs(batched - expected) < 1e-12
        for name, g in oracle.items():
            assert np.max(np.abs(grads[name] - g)) < 1e-12, name

    def test_longer_line_leaves_other_lines_unchanged(self, rng, decoder):
        short = [[9], [6, 7, 8]]
        longer = short + [list(range(6, 6 + 12))]
        vecs, table, params = self.inputs(rng, decoder, len(longer))
        alone, grads_alone = loss_and_grads(
            lambda: decoder.sequence_loss(vecs.rows(0, 2), short, table)[0], params)
        batched, grads_batched = loss_and_grads(
            lambda: decoder.sequence_loss(vecs, longer, table)[0], params)
        extra = decoder.sequence_loss(vecs.rows(2, 3), longer[2:], table)[0].item()
        assert abs(batched - extra - alone) < 1e-12
        assert np.max(np.abs(grads_batched["vecs"][:2] - grads_alone["vecs"][:2])) < 1e-12

    def test_msp_loss_counts_truncated_lines(self, rng, model):
        decoder = MspDecoder(TINY.encoder.hidden, VOCAB, rng, max_decode_len=3)
        enc = make_encoded(rng, 60, vocab_size=VOCAB, max_line_tokens=6)
        lines = []
        for i, (o, p) in enumerate(enc.line_spans):
            original = tuple(int(t) for t in enc.token_ids[o:p])
            lines.append(MaskedLine(i, "keep", original, original))
        plan = MaskPlan(lines=tuple(lines))
        long_lines = sum(len(line.original_ids) > 3 for line in lines)
        assert 0 < long_lines < len(lines)
        _, info = msp_loss(enc, plan, model, decoder)
        assert info["truncated_lines"] == long_lines
        assert info["target_tokens"] == sum(
            min(len(line.original_ids), 3) + 1 for line in lines)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_decode_len_below_one_rejected(self, rng, bad):
        with pytest.raises(ValueError, match="max_decode_len"):
            MspDecoder(TINY.encoder.hidden, VOCAB, rng, max_decode_len=bad)


def stepwise_sequence_loss(decoder, statement_vectors, target_lists, token_table):
    """Reference batched decoder: ``MspDecoder.sequence_loss`` with the
    recurrence as one ``_step`` chain per step over per-step row slices."""
    lines = [[int(t) for t in ids][: decoder.max_decode_len] for ids in target_lists]
    k = len(lines)
    steps = 1 + max(len(ids) for ids in lines)
    inputs = np.full((steps, k), BOS, dtype=np.int64)
    for r, ids in enumerate(lines):
        inputs[1:1 + len(ids), r] = ids
    embedded = T.embedding_lookup(token_table, inputs.ravel())
    h, c = statement_vectors, T.constant(np.zeros((k, decoder.hidden)))
    hidden_steps = []
    for s in range(steps):
        h, c = _step(decoder, embedded.rows(s * k, (s + 1) * k), h, c)
        hidden_steps.append(h)
    real = [s * k + r for r, ids in enumerate(lines) for s in range(len(ids) + 1)]
    targets = [t for ids in lines for t in ids + [EOS]]
    states = T.gather_rows(T.concat_rows(hidden_steps), real)
    mean_ce = T.cross_entropy(states @ decoder.proj_w + decoder.proj_b, targets)
    return T.scale(mean_ce, float(len(targets)))


class TestFusedRecurrence:
    def test_matches_per_step_chain(self, rng, decoder):
        lines = TestBatchedDecoder.LINES
        vecs = T.parameter(rng.normal(size=(len(lines), TINY.encoder.hidden)))
        table = T.parameter(rng.normal(size=(VOCAB, TINY.encoder.hidden)))
        params = {**dict(decoder.parameters()), "vecs": vecs, "table": table}
        fused, grads = loss_and_grads(
            lambda: decoder.sequence_loss(vecs, lines, table)[0], params)
        chain, oracle = loss_and_grads(
            lambda: stepwise_sequence_loss(decoder, vecs, lines, table), params)
        assert len(oracle) == 16  # 14 decoder tensors, the table and the vectors
        assert abs(fused - chain) < 1e-12
        for name, g in oracle.items():
            assert np.max(np.abs(grads[name] - g)) < 1e-12, name

    def test_finite_differences_on_toy(self, rng):
        decoder = MspDecoder(TOY.hidden, TOY.vocab_size, rng, max_decode_len=8)
        for _, p in decoder.parameters():  # past the near-zero init
            p.data[...] = rng.normal(0.0, 0.5, p.shape)
        vecs = T.parameter(rng.normal(size=(3, TOY.hidden)))
        table = T.parameter(rng.normal(size=(TOY.vocab_size, TOY.hidden)))
        lines = [[7], [6, 8, 9, 10], [9, 9]]
        params = {**dict(decoder.parameters()), "vecs": vecs, "table": table}

        def loss():
            return decoder.sequence_loss(vecs, lines, table)[0]

        loss_and_grads(loss, params)
        failures = finite_difference_failures(lambda: loss().item(), params, rng,
                                              elements_per_tensor=4)
        assert failures == []

    def test_graph_does_not_grow_with_line_length(self, rng):
        decoder = MspDecoder(TINY.encoder.hidden, VOCAB, rng, max_decode_len=64)
        vec = T.parameter(rng.normal(size=(1, TINY.encoder.hidden)))
        table = T.parameter(rng.normal(size=(VOCAB, TINY.encoder.hidden)))
        short, _, _ = decoder.sequence_loss(vec, [[6, 7, 8]], table)
        long, _, _ = decoder.sequence_loss(vec, [list(range(6, 36))], table)
        assert len(T._topo_order(short)) == len(T._topo_order(long))

    def test_shape_checked(self, rng, decoder):
        h = TINY.encoder.hidden
        gates = list(decoder.gates.values())
        with pytest.raises(T.ShapeMismatch, match="lstm_sequence"):
            T.lstm_sequence(T.constant(np.zeros((5, h))), T.constant(np.zeros((2, h))), gates)
        with pytest.raises(T.ShapeMismatch, match="lstm_sequence"):
            T.lstm_sequence(T.constant(np.zeros((4, h + 1))), T.constant(np.zeros((2, h))),
                            gates)


class TestMspLoss:
    def test_uniform_baseline(self, rng, model, decoder):
        decoder.proj_w.data[:] = 0.0
        decoder.proj_b.data[:] = 0.0
        enc = make_encoded(rng, 40, vocab_size=VOCAB)
        plan = make_mask_plan(enc, VOCAB, 3)
        loss, info = msp_loss(enc, plan, model, decoder)
        assert abs(loss.item() - info["target_tokens"] * math.log(VOCAB)) < 1e-10
        mean_loss, _ = msp_loss(enc, plan, model, decoder, per_token_mean=True)
        assert abs(mean_loss.item() - math.log(VOCAB)) < 1e-10

    def test_mask_plan_statistics_preserved_through_apply(self, rng, model, decoder):
        enc = make_encoded(rng, 64, vocab_size=VOCAB)
        plan = make_mask_plan(enc, VOCAB, 11)
        masked = apply_mask_plan(enc, plan)
        assert masked.n == enc.n and masked.L == enc.L

    def test_gradients_flow_everywhere(self, rng, model, decoder):
        enc = make_encoded(rng, 24, vocab_size=VOCAB)
        plan = make_mask_plan(enc, VOCAB, 5)
        params = model.parameters()
        params.update(dict(decoder.parameters()))

        def forward():
            return msp_loss(enc, plan, model, decoder)[0].item()

        for p in params.values():
            p.zero_grad()
        loss, _ = msp_loss(enc, plan, model, decoder)
        loss.backward()
        failures = finite_difference_failures(forward, params, rng,
                                              elements_per_tensor=1,
                                              head_dim=TINY.encoder.head_dim)
        assert failures == []


class TestMlmLoss:
    def test_uniform_baseline(self, rng, model):
        head = MlmHead(TINY.encoder.hidden, 32, VOCAB, rng)
        head.mlp.w2.data[:] = 0.0
        head.mlp.b2.data[:] = 0.0
        enc = make_encoded(rng, 50, vocab_size=VOCAB)
        loss, info = mlm_loss(enc, model, head, seed=2)
        assert not info["skipped"]
        assert info["masked"] == max(1, round(0.15 * 49))
        assert abs(loss.item() - math.log(VOCAB)) < 1e-10

    def test_no_maskable_tokens_skipped(self, rng, model):
        head = MlmHead(TINY.encoder.hidden, 32, VOCAB, rng)
        loss, info = mlm_loss(cls_only_sample(), model, head, seed=0)
        assert loss is None and info["skipped"]

    def test_deterministic(self, rng, model):
        head = MlmHead(TINY.encoder.hidden, 32, VOCAB, rng)
        enc = make_encoded(rng, 50, vocab_size=VOCAB)
        a, _ = mlm_loss(enc, model, head, seed=9)
        b, _ = mlm_loss(enc, model, head, seed=9)
        assert a.item() == b.item()

    def test_gradients_match_finite_differences(self, rng, model):
        head = MlmHead(TINY.encoder.hidden, 32, VOCAB, rng)
        enc = make_encoded(rng, 20, vocab_size=VOCAB)
        params = model.parameters()
        params.update(dict(head.parameters()))

        def forward():
            return mlm_loss(enc, model, head, seed=4)[0].item()

        for p in params.values():
            p.zero_grad()
        loss, _ = mlm_loss(enc, model, head, seed=4)
        loss.backward()
        failures = finite_difference_failures(forward, params, rng,
                                              elements_per_tensor=1,
                                              head_dim=TINY.encoder.head_dim)
        assert failures == []


def cls_only_sample():
    return EncodedSample(
        id="cls-only",
        token_ids=np.array([2], dtype=np.int64),
        line_spans=[],
        orig_lines=[],
        label=0,
        vul_flags=np.zeros(0, dtype=np.int64),
    )


class TestPerSampleTerms:
    @pytest.mark.parametrize("phase", ["mlm", "msp"])
    def test_sum_matches_batched_graph(self, rng, model, decoder, phase):
        head = MlmHead(TINY.encoder.hidden, 32, VOCAB, rng)
        batch = [(make_encoded(rng, 20 + 9 * i, vocab_size=VOCAB, sample_id=f"s{i}"),
                  100 + i) for i in range(3)]
        if phase == "mlm":
            batch.insert(1, (cls_only_sample(), 7))  # skipped before any forward
        params = model.parameters()
        params.update(dict(decoder.parameters()))
        params.update(dict(head.parameters()))

        def oracle():
            # one graph over the batch: the used samples' losses summed, then
            # divided by their count
            total, used = None, 0
            for enc, seed in batch:
                if phase == "msp":
                    plan = make_mask_plan(enc, VOCAB, seed)
                    loss, _ = msp_loss(enc, plan, model, decoder, per_token_mean=True)
                else:
                    loss, _ = mlm_loss(enc, model, head, seed)
                    if loss is None:
                        continue
                total = loss if total is None else total + loss
                used += 1
            batch_loss = T.scale(total, 1.0 / used)
            batch_loss.backward()
            return batch_loss.item()

        def per_sample():
            losses = sample_losses(phase, batch, model, decoder, head,
                                   per_token_mean=True)
            assert len(losses) == 3
            return parallel.backward_sum(losses)

        value, grads = gradients_after(params, oracle)
        got, got_grads = gradients_after(params, per_sample)
        assert abs(got - value) <= 1e-12
        assert_same_gradients(grads, got_grads, atol=1e-12)


class TestPretrainRun:
    def make_inputs(self, seed=5):
        samples = synthesize_corpus(8, seed=13)
        vocab = build_vocab(samples, max_size=256)
        cfg = ModelConfig(
            encoder=EncoderConfig(layers=1, hidden=16, heads=2, ffn_hidden=32,
                                  vocab_size=len(vocab)),
            m_len=512,
        )
        model = HierarchicalModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        decoder = MspDecoder(16, len(vocab), rng, max_decode_len=16)
        head = MlmHead(16, 32, len(vocab), rng)
        encodeds = [encode(s, vocab, 512) for s in samples]
        return encodeds, model, decoder, head, vocab

    def test_zero_steps_leaves_model_unchanged(self, tmp_path):
        encodeds, model, decoder, head, vocab = self.make_inputs()
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        schedule = PretrainSchedule(mlm_steps=0, msp_steps=0, seed=1)
        state = pretrain_run(encodeds, model, decoder, head, schedule,
                             out_dir=str(tmp_path), vocab=vocab)
        assert state.step == 0 and state.loss_history == []
        for k, v in model.state_arrays().items():
            assert np.array_equal(v, before[k])
        from linesift.model import load_bundle
        _, arrays, _, _ = load_bundle(str(tmp_path / "checkpoint"))
        for k, v in before.items():
            assert np.array_equal(arrays[k], v)

    def test_fixed_seed_reproduces_loss_trace(self, tmp_path):
        traces = []
        for run in range(2):
            encodeds, model, decoder, head, vocab = self.make_inputs(seed=5)
            schedule = PretrainSchedule(msp_steps=5, batch_size=2,
                                        learning_rate=1e-3, seed=3)
            state = pretrain_run(encodeds, model, decoder, head, schedule)
            traces.append(state.loss_history)
        assert traces[0] == traces[1]

    def test_worker_count_changes_no_bit(self, monkeypatch):
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(parallel, "usable_cores", lambda cores=cores: cores)
            encodeds, model, decoder, head, _ = self.make_inputs(seed=5)
            schedule = PretrainSchedule(mlm_steps=2, msp_steps=2, batch_size=3,
                                        learning_rate=1e-3, seed=3)
            state = pretrain_run(encodeds, model, decoder, head, schedule)
            weights = model.state_arrays()
            for module in (decoder, head):
                weights.update({k: p.data for k, p in module.parameters()})
            runs.append((state.loss_history, weights))
        (losses, weights), (losses2, weights2) = runs
        assert losses == losses2
        for name, value in weights.items():
            assert np.array_equal(value, weights2[name]), name

    def test_mlm_phase_only_touches_token_encoder(self):
        encodeds, model, decoder, head, vocab = self.make_inputs()
        se_before = {
            k: v.copy() for k, v in model.state_arrays().items()
            if k.startswith("se.")
        }
        dec_before = {k: p.data.copy() for k, p in decoder.parameters()}
        schedule = PretrainSchedule(mlm_steps=3, msp_steps=0, batch_size=2, seed=2)
        pretrain_run(encodeds, model, decoder, head, schedule)
        for k, v in model.state_arrays().items():
            if k.startswith("se."):
                assert np.array_equal(v, se_before[k])
        for k, p in decoder.parameters():
            assert np.array_equal(p.data, dec_before[k])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self, tmp_path):
        encodeds, model, decoder, head, vocab = self.make_inputs()
        used_id = int(encodeds[0].token_ids[1])
        model.token_encoder.tok_emb.data[used_id, :] = np.inf
        params = [*model.parameters().items(), *decoder.parameters(), *head.parameters()]
        before = {k: p.data.copy() for k, p in params}
        schedule = PretrainSchedule(msp_steps=2, batch_size=2, seed=0)
        with pytest.raises(DivergenceError):
            pretrain_run(encodeds, model, decoder, head, schedule,
                         out_dir=str(tmp_path), vocab=vocab)
        assert (tmp_path / "checkpoint").is_dir()  # init checkpoint survives
        for k, p in params:  # the step that diverged moved no parameter
            assert np.array_equal(p.data, before[k]), k

    def test_msp_training_reduces_loss(self):
        encodeds, model, decoder, head, vocab = self.make_inputs()
        schedule = PretrainSchedule(msp_steps=40, batch_size=4,
                                    learning_rate=3e-3, seed=4)
        state = pretrain_run(encodeds, model, decoder, head, schedule)
        first = np.mean([l for _, _, l in state.loss_history[:5]])
        last = np.mean([l for _, _, l in state.loss_history[-5:]])
        assert last < first
