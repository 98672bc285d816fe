"""Acceptance gate: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (each test also prints a summary line).
"""

import math
import time

import numpy as np
import pytest

from conftest import bundled_corpus_path, make_encoded, pick_elements, synthesize_corpus
from linesift import tensor as T
from linesift.corpus import load_corpus
from linesift.encoding import build_vocab, encode
from linesift.finetune import (
    DetectionHeads,
    FinetuneSchedule,
    finetune_loss,
    finetune_run,
    predict,
)
from linesift.metrics import (
    ConfusionCounts,
    LocalizationRecord,
    classification_metrics,
    sweep_topk,
    topk_accuracy,
)
from linesift.model import HierarchicalModel, ModelConfig, load_bundle, save_bundle
from linesift.pooling import AttentionPool, AveragePool, WeightedPool
from linesift.pretrain import (
    MlmHead,
    MspDecoder,
    PretrainSchedule,
    apply_mask_plan,
    make_mask_plan,
    msp_loss,
    pretrain_run,
)
from linesift.transformer import EncoderConfig, preset_config


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def bundled():
    samples = load_corpus(bundled_corpus_path())
    vocab = build_vocab(samples, max_size=512)
    encodeds = [encode(s, vocab, 512) for s in samples]
    return samples, vocab, encodeds


@pytest.fixture(scope="module")
def overfit_run(bundled):
    """50 fine-tuning epochs from random init on the bundled corpus."""
    samples, vocab, encodeds = bundled
    config = ModelConfig(
        encoder=preset_config("desk-2x64x4", vocab_size=len(vocab)), m_len=512
    )
    model = HierarchicalModel(config, seed=0)
    heads = DetectionHeads(64, 256, np.random.default_rng(1))
    schedule = FinetuneSchedule(epochs=50, batch_size=8, learning_rate=1e-3,
                                seed=0)
    started = time.time()
    finetune_run(encodeds, [], model, heads, schedule)
    return model, heads, encodeds, time.time() - started


def test_criterion_1_gradient_suite():
    """Every parameter tensor of a desk-config full model passes central
    finite differences (relative error < 1e-4 at step 1e-5), decoder and
    heads included, in under 10 minutes."""
    started = time.time()
    samples = synthesize_corpus(4, seed=31)
    vocab = build_vocab(samples, max_size=256)
    config = ModelConfig(
        encoder=preset_config("desk-2x64x4", vocab_size=len(vocab)),
        m_len=512,
        t2s="attention",  # the strategy with learnable tensors
    )
    model = HierarchicalModel(config, seed=3)
    decoder = MspDecoder(64, len(vocab), np.random.default_rng(4),
                         max_decode_len=16)
    heads = DetectionHeads(64, 256, np.random.default_rng(5))
    encodeds = [encode(s, vocab, 512) for s in samples[:2]]
    plan = make_mask_plan(encodeds[0], len(vocab), seed=9)

    params = model.parameters()
    params.update(dict(decoder.parameters()))
    params.update(dict(heads.parameters()))

    def loss_tensor():
        msp, _ = msp_loss(encodeds[0], plan, model, decoder)
        fine, _ = finetune_loss(encodeds, model, heads)
        return msp + fine

    for p in params.values():
        p.zero_grad()
    loss_tensor().backward()

    rng = np.random.default_rng(77)
    step = 1e-5
    failures = []
    for name, p in sorted(params.items()):
        # 3 elements per tensor, and per head block of a fused wqkv
        picks = pick_elements(rng, name, p.data.shape, 3,
                              head_dim=config.encoder.head_dim)
        for flat in picks:
            orig = p.data.flat[flat]
            p.data.flat[flat] = orig + step
            up = loss_tensor().item()
            p.data.flat[flat] = orig - step
            down = loss_tensor().item()
            p.data.flat[flat] = orig
            numeric = (up - down) / (2 * step)
            analytic = p.grad.flat[flat] if p.grad is not None else 0.0
            # relative error < 1e-4, with a small absolute floor for
            # elements whose true gradient is zero (untouched vocab rows)
            if abs(analytic - numeric) > 1e-4 * max(abs(analytic), abs(numeric)) + 1e-7:
                failures.append((name, flat, analytic, numeric))
    elapsed = time.time() - started
    assert failures == [], failures
    assert elapsed < 600
    report(f"criterion 1 PASS: {len(params)} tensors gradient-checked "
           f"in {elapsed:.1f}s")


def test_criterion_2_long_sequence_equivalence():
    """Segment-split-merge equals manual per-segment stitching within 1e-9
    and segment_count == ceil(n/512), on 100 samples with n in (512, 2048]."""
    started = time.time()
    config = ModelConfig(
        encoder=EncoderConfig(layers=1, hidden=16, heads=2, ffn_hidden=32,
                              vocab_size=64),
        m_len=2048,
    )
    model = HierarchicalModel(config, seed=11)
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(513, 2049))
        enc = make_encoded(rng, n, sample_id=f"long{i}")
        boundaries = enc.segment_boundaries
        assert len(boundaries) == math.ceil(n / 512)
        merged = model.encode_tokens(enc)
        stitched = np.vstack([
            model.token_encoder.forward(enc.token_ids[s:e]).data
            for s, e in boundaries
        ])
        worst = max(worst, float(np.max(np.abs(merged.data - stitched))))
        program, statements = model.encode_program(enc)
        initial = model.pool.apply(T.constant(stitched), enc.line_spans)
        ref_prog, ref_stmts = model.statement_encoder.forward(initial)
        worst = max(worst, float(np.max(np.abs(program.data - ref_prog.data))))
        worst = max(worst, float(np.max(np.abs(statements.data - ref_stmts.data))))
    elapsed = time.time() - started
    assert worst < 1e-9
    assert elapsed < 120
    report(f"criterion 2 PASS: 100 samples, worst deviation {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_3_token2statement_oracles():
    """All three strategies match per-span brute-force oracles within 1e-12
    on 1000 random instances; degenerate reductions to Average are exact."""
    rng = np.random.default_rng(21)
    d = 8
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(4, 50))
        enc = make_encoded(rng, n, sample_id=f"t2s{i}")
        spans = enc.line_spans
        tokens = rng.normal(size=(n, d))

        def oracle(raw):
            out = np.zeros((len(spans), d))
            for j, (o, p) in enumerate(spans):
                w = np.exp(raw[o:p] - raw[o:p].max())
                w /= w.sum()
                out[j] = w @ tokens[o:p]
            return out

        avg = AveragePool().apply(T.constant(tokens), spans).data
        worst = max(worst, float(np.max(np.abs(avg - oracle(np.zeros(n))))))

        weighted = WeightedPool(m_len=64)
        weighted.position_weight.data[:] = rng.normal(size=64)
        out_w = weighted.apply(T.constant(tokens), spans).data
        worst = max(worst, float(np.max(np.abs(
            out_w - oracle(weighted.position_weight.data[:n])
        ))))

        attn = AttentionPool(hidden=d, rng=rng)
        out_a = attn.apply(T.constant(tokens), spans).data
        q = tokens[0] @ attn.q_proj.data
        raw = (tokens @ attn.k_proj.data) @ q / math.sqrt(d)
        worst = max(worst, float(np.max(np.abs(out_a - oracle(raw)))))

        if i < 50:
            # degenerate cases reduce to Average exactly
            weighted.position_weight.data[:] = 1.5
            assert np.array_equal(
                weighted.apply(T.constant(tokens), spans).data, avg
            )
            attn.q_proj.data[:] = 0.0
            attn.k_proj.data[:] = 0.0
            assert np.array_equal(
                attn.apply(T.constant(tokens), spans).data, avg
            )
    assert worst < 1e-12
    report(f"criterion 3 PASS: 1000 instances, worst deviation {worst:.2e}")


def test_criterion_4_masking_statistics():
    """Over 100,000 plans on an L=100 sample: selected fraction within
    15% +/- 1 point, action split within (80, 10, 10) +/- 2 points, and
    every plan's replacements preserve per-line token counts."""
    started = time.time()
    rng = np.random.default_rng(41)
    ids = rng.integers(6, 60, size=301)
    ids[0] = 2  # [CLS]
    from linesift.encoding import EncodedSample

    enc = EncodedSample(
        id="mc",
        token_ids=np.asarray(ids, dtype=np.int64),
        line_spans=[(1 + 3 * i, 4 + 3 * i) for i in range(100)],
        orig_lines=list(range(1, 101)),
        label=0,
        vul_flags=np.zeros(100, dtype=np.int64),
    )
    enc.validate()
    selected = 0
    actions = {"mask_all": 0, "randomize": 0, "keep": 0}
    trials = 100_000
    for seed in range(trials):
        plan = make_mask_plan(enc, 60, seed)
        selected += len(plan.lines)
        for line in plan.lines:
            actions[line.action] += 1
            assert len(line.replacement_ids) == len(line.original_ids)
        masked = apply_mask_plan(enc, plan)
        assert masked.n == enc.n
    fraction = selected / (trials * 100)
    total = sum(actions.values())
    split = {k: v / total for k, v in actions.items()}
    elapsed = time.time() - started
    assert abs(fraction - 0.15) <= 0.01
    assert abs(split["mask_all"] - 0.80) <= 0.02
    assert abs(split["randomize"] - 0.10) <= 0.02
    assert abs(split["keep"] - 0.10) <= 0.02
    report(
        "criterion 4 PASS: fraction "
        f"{fraction:.4f}, split ({split['mask_all']:.3f}, "
        f"{split['randomize']:.3f}, {split['keep']:.3f}), {elapsed:.1f}s"
    )


def test_criterion_5_metric_oracles():
    """topk_accuracy equals brute-force enumeration exactly on 200 random
    records for k in {2, 5, 10, 20}; hand metric cases are exact; the
    Top-k curve is monotone non-decreasing."""
    rng = np.random.default_rng(51)
    records = []
    for i in range(200):
        total = int(rng.integers(3, 80))
        perm = list(rng.permutation(np.arange(1, total + 1)))
        ranked = tuple(int(x) for x in perm[: int(rng.integers(0, total + 1))])
        truth = frozenset(
            int(x) for x in rng.choice(np.arange(1, total + 1),
                                       size=int(rng.integers(1, 5)),
                                       replace=False)
        )
        records.append(LocalizationRecord(truth, ranked, total))

    for k in (2, 5, 10, 20):
        hits = 0
        for rec in records:
            count = max(1, math.ceil(k * rec.total_lines / 100))
            hits += bool(set(rec.ranked[:count]) & rec.truth)
        assert topk_accuracy(records, k) == hits / len(records)

    hand = classification_metrics(ConfusionCounts(tp=3, fp=1, tn=0, fn=3))
    assert hand["precision"] == 0.75 and hand["recall"] == 0.5
    assert hand["f1"] == 0.6
    perfect = classification_metrics(ConfusionCounts(tp=1, fp=0, tn=1, fn=0))
    assert all(perfect[m] == 1.0 for m in ("accuracy", "precision", "recall", "f1"))

    accs = [acc for _, acc in sweep_topk(records)]
    assert all(b >= a for a, b in zip(accs, accs[1:]))
    report("criterion 5 PASS: exact oracle equality and monotone curve")


def test_criterion_6_end_to_end_overfit(overfit_run):
    """50 epochs from random init on the bundled 32-sample corpus reach
    coarse F1 = 1.0 and Top-10% accuracy = 1.0 on the training split in
    under 15 minutes."""
    model, heads, encodeds, elapsed = overfit_run
    reports = [predict(e, model, heads) for e in encodeds]
    counts = ConfusionCounts.from_predictions(
        [e.label for e in encodeds], [r.coarse_label for r in reports]
    )
    summary = classification_metrics(counts)
    records = []
    for enc, rep in zip(encodeds, reports):
        if enc.label != 1:
            continue
        truth = frozenset(
            line for line, flag in zip(enc.orig_lines, enc.vul_flags) if flag
        )
        records.append(LocalizationRecord(
            truth, tuple(s["line"] for s in rep.statements), enc.L
        ))
    top10 = topk_accuracy(records, 10)
    assert summary["f1"] == 1.0
    assert top10 == 1.0
    assert elapsed < 900
    report(f"criterion 6 PASS: coarse F1 1.0, Top-10% 1.0, "
           f"trained in {elapsed:.1f}s")


def test_criterion_7_pretraining_effect():
    """On an 8-sample corpus both objectives drop at least 50% below the
    uniform-logit baseline of ln(V) per token within 300 steps."""
    samples = synthesize_corpus(8, seed=13)
    vocab = build_vocab(samples, max_size=512)
    v = len(vocab)
    baseline = math.log(v)
    config = ModelConfig(
        encoder=preset_config("desk-2x64x4", vocab_size=v), m_len=512
    )
    model = HierarchicalModel(config, seed=0)
    rng = np.random.default_rng(1)
    decoder = MspDecoder(64, v, rng)
    head = MlmHead(64, 256, v, rng)
    encodeds = [encode(s, vocab, 512) for s in samples]
    schedule = PretrainSchedule(mlm_steps=300, msp_steps=300, batch_size=4,
                                learning_rate=2e-3, seed=0, checkpoint_every=0)
    state = pretrain_run(encodeds, model, decoder, head, schedule)
    mlm = [l for _, phase, l in state.loss_history if phase == "mlm"]
    msp = [l for _, phase, l in state.loss_history if phase == "msp"]
    mlm_final = float(np.mean(mlm[-10:]))
    msp_final = float(np.mean(msp[-10:]))
    assert abs(mlm[0] - baseline) < 0.35  # starts at the uniform baseline
    assert mlm_final <= 0.5 * baseline
    assert msp_final <= 0.5 * baseline
    report(f"criterion 7 PASS: baseline {baseline:.3f}, "
           f"mlm {mlm[0]:.3f}->{mlm_final:.3f}, "
           f"msp {msp[0]:.3f}->{msp_final:.3f}")


def test_criterion_8_determinism(tmp_path, bundled):
    """Identical seeds give bitwise-identical loss traces and prediction
    reports across two runs; checkpoints round-trip bit-exactly."""
    samples, vocab, encodeds = bundled

    def one_run():
        config = ModelConfig(
            encoder=EncoderConfig(layers=1, hidden=32, heads=2, ffn_hidden=64,
                                  vocab_size=len(vocab)),
            m_len=512,
        )
        model = HierarchicalModel(config, seed=6)
        rng = np.random.default_rng(7)
        decoder = MspDecoder(32, len(vocab), rng, max_decode_len=16)
        head = MlmHead(32, 64, len(vocab), rng)
        pre = pretrain_run(
            encodeds, model, decoder, head,
            PretrainSchedule(mlm_steps=5, msp_steps=5, batch_size=4,
                             learning_rate=1e-3, seed=8, checkpoint_every=0),
        )
        heads = DetectionHeads(32, 64, np.random.default_rng(9))
        fine = finetune_run(
            encodeds[:16], [], model, heads,
            FinetuneSchedule(epochs=3, batch_size=8, learning_rate=1e-3, seed=10),
        )
        reports = [predict(e, model, heads).to_dict() for e in encodeds]
        return pre.loss_history, fine.loss_history, reports, model

    pre_a, fine_a, reports_a, model_a = one_run()
    pre_b, fine_b, reports_b, model_b = one_run()
    assert pre_a == pre_b
    assert fine_a == fine_b
    assert reports_a == reports_b

    save_bundle(str(tmp_path / "ck"), model_a.config, model_a.state_arrays())
    _, arrays, _, _ = load_bundle(str(tmp_path / "ck"))
    for name, p in model_a.parameters().items():
        assert np.array_equal(
            arrays[name].view(np.uint64), p.data.view(np.uint64)
        )
    report("criterion 8 PASS: bitwise-identical traces, reports, checkpoints")


def test_criterion_9_staged_gating(overfit_run, bundled):
    """Fine-grained rankings are emitted iff the coarse prediction is
    positive, over every sample of a held-out corpus and the train split."""
    model, heads, train_encodeds, _ = overfit_run
    samples, vocab, _ = bundled
    held_out = [
        encode(s, vocab, 512)
        for s in synthesize_corpus(24, seed=99)
    ]
    checked = 0
    for enc in list(held_out) + list(train_encodeds):
        rep = predict(enc, model, heads)
        if rep.coarse_label == 1:
            assert rep.statements and rep.top_lines
            assert len(rep.statements) == enc.L
        else:
            assert rep.statements == [] and rep.top_lines == []
        checked += 1
    report(f"criterion 9 PASS: gating held on {checked} samples")
