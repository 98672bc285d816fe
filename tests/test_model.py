"""Long-sequence pipeline: segment/merge equivalence, batching, bundles."""

import json

import numpy as np
import pytest

from conftest import make_encoded, per_head_names
from linesift import tensor as T
from linesift.checkpoint import CheckpointError
from linesift.encoding import _boundaries
from linesift.finetune import DetectionHeads, predict
from linesift.model import (
    CONFIG_NAME, BundleConfigError, HierarchicalModel, ModelConfig, load_bundle,
    save_bundle,
)
from linesift.transformer import EncoderConfig, preset_config

SMALL = ModelConfig(
    encoder=EncoderConfig(layers=1, hidden=16, heads=2, ffn_hidden=32,
                          vocab_size=64),
    m_len=2048,
    t2s="average",
)


@pytest.fixture
def model():
    return HierarchicalModel(SMALL, seed=42)


class TestEncodeProgram:
    def test_single_segment_matches_direct_path(self, rng, model):
        enc = make_encoded(rng, 90)
        program, statements = model.encode_program(enc)
        direct_tokens = model.token_encoder.forward(enc.token_ids)
        initial = model.pool.apply(direct_tokens, enc.line_spans)
        d_prog, d_stmts = model.statement_encoder.forward(initial)
        assert np.max(np.abs(program.data - d_prog.data)) < 1e-12
        assert np.max(np.abs(statements.data - d_stmts.data)) < 1e-12

    def test_two_segment_arithmetic(self, rng, model):
        enc = make_encoded(rng, 700)
        assert enc.segment_boundaries == [(0, 512), (512, 700)]
        merged = model.encode_tokens(enc)
        assert merged.shape == (700, SMALL.encoder.hidden)

    def test_manual_stitching_oracle(self, rng, model):
        for _ in range(5):
            n = int(rng.integers(513, 2049))
            enc = make_encoded(rng, n)
            assert len(enc.segment_boundaries) == -(-n // 512)
            merged = model.encode_tokens(enc)
            stitched = np.vstack([
                model.token_encoder.forward(enc.token_ids[s:e]).data
                for s, e in _boundaries(n)
            ])
            assert np.max(np.abs(merged.data - stitched)) < 1e-9
            program, statements = model.encode_program(enc)
            initial = model.pool.apply(T.constant(stitched), enc.line_spans)
            ref_prog, ref_stmts = model.statement_encoder.forward(initial)
            assert np.max(np.abs(program.data - ref_prog.data)) < 1e-9
            assert np.max(np.abs(statements.data - ref_stmts.data)) < 1e-9

    def test_caps_enforced(self, rng):
        tight = ModelConfig(
            encoder=EncoderConfig(layers=1, hidden=8, heads=1, ffn_hidden=8,
                                  vocab_size=64),
            m_len=512,
        )
        model = HierarchicalModel(tight, seed=0)
        enc = make_encoded(rng, 600)
        with pytest.raises(ValueError, match="600 tokens"):
            model.encode_program(enc)


class TestEncodeBatch:
    def test_batch_of_one_equals_solo(self, rng, model):
        enc = make_encoded(rng, 60)
        (batched,) = model.encode_batch([enc])
        solo = model.encode_program(enc)
        assert np.max(np.abs(batched[0].data - solo[0].data)) < 1e-12
        assert np.max(np.abs(batched[1].data - solo[1].data)) < 1e-12

    def test_mixed_segment_counts_match_solo(self, rng, model):
        encs = [make_encoded(rng, 80), make_encoded(rng, 1400)]
        assert [len(e.segment_boundaries) for e in encs] == [1, 3]
        batched = model.encode_batch(encs)
        for enc, (b_prog, b_stmts) in zip(encs, batched):
            s_prog, s_stmts = model.encode_program(enc)
            assert np.max(np.abs(b_prog.data - s_prog.data)) < 1e-12
            assert np.max(np.abs(b_stmts.data - s_stmts.data)) < 1e-12

    def test_empty_batch(self, model):
        assert model.encode_batch([]) == []

    def test_grouping_invariance(self, rng, model):
        encs = [make_encoded(rng, n) for n in (50, 600, 200)]
        together = model.encode_batch(encs)
        separate = [model.encode_batch([e])[0] for e in encs]
        for (a_p, a_s), (b_p, b_s) in zip(together, separate):
            assert np.max(np.abs(a_p.data - b_p.data)) < 1e-9
            assert np.max(np.abs(a_s.data - b_s.data)) < 1e-9


class TestParametersAndBundles:
    def test_parameter_names_unique_and_prefixed(self, model):
        params = model.parameters()
        assert len(params) == len(set(params))
        prefixes = {name.split(".")[0] for name in params}
        assert prefixes == {"te", "se"}  # average pooling has no parameters

    def test_strategy_parameters_included(self):
        cfg = ModelConfig(
            encoder=EncoderConfig(layers=1, hidden=8, heads=1, ffn_hidden=8,
                                  vocab_size=16),
            t2s="attention",
        )
        m = HierarchicalModel(cfg, seed=0)
        assert "t2s.q_proj" in m.parameters()

    @pytest.mark.parametrize("kind,param", [
        ("weighted", "t2s.position_weight"),
        ("attention", "t2s.k_proj"),
    ])
    def test_strategies_train_through_full_pipeline(self, rng, kind, param):
        cfg = ModelConfig(
            encoder=EncoderConfig(layers=1, hidden=8, heads=1, ffn_hidden=8,
                                  vocab_size=64),
            m_len=1024,
            t2s=kind,
        )
        m = HierarchicalModel(cfg, seed=1)
        enc = make_encoded(rng, 600)  # spans straddle the segment boundary
        program, statements = m.encode_program(enc)
        (T.tanh(program).sum() + T.tanh(statements).sum()).backward()
        weight = m.parameters()[param]
        assert weight.grad is not None and np.any(weight.grad != 0)

    def test_bundle_round_trip_bit_exact(self, tmp_path, model, rng):
        enc = make_encoded(rng, 40)
        before = model.encode_program(enc)[0].data.copy()
        save_bundle(str(tmp_path / "ckpt"), model.config, model.state_arrays(),
                    meta={"note": "test"})
        config, arrays, vocab, meta = load_bundle(str(tmp_path / "ckpt"))
        assert meta == {"note": "test"}
        assert config.to_dict() == model.config.to_dict()
        reloaded = HierarchicalModel(config, seed=999)  # different init
        reloaded.load_state(arrays)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, reloaded.parameters()[name].data)
        after = reloaded.encode_program(enc)[0].data
        assert np.array_equal(before, after)

    def _bundle_with_config(self, directory, model, key, value):
        save_bundle(str(directory), model.config, model.state_arrays())
        path = directory / CONFIG_NAME
        payload = json.loads(path.read_text())
        payload["model"][key] = value
        path.write_text(json.dumps(payload))

    def test_bundle_with_summary_program_pool_loads_and_predicts(
            self, tmp_path, model, rng):
        self._bundle_with_config(tmp_path, model, "program_pool", "summary")
        config, arrays, _, _ = load_bundle(str(tmp_path))
        reloaded = HierarchicalModel(config, seed=5)
        reloaded.load_state(arrays)
        heads = DetectionHeads(16, 32, np.random.default_rng(3), threshold=0.0)
        enc = make_encoded(rng, 600)
        assert (predict(enc, reloaded, heads).to_dict()
                == predict(enc, model, heads).to_dict())

    def test_bundle_with_mean_program_pool_rejected(self, tmp_path, model):
        self._bundle_with_config(tmp_path, model, "program_pool", "mean")
        with pytest.raises(ValueError, match="program_pool"):
            load_bundle(str(tmp_path))

    def test_bundle_with_null_attn_pool_dim_loads(self, tmp_path, model):
        self._bundle_with_config(tmp_path, model, "attn_pool_dim", None)
        config, _, _, _ = load_bundle(str(tmp_path))
        assert config.to_dict() == model.config.to_dict()

    def test_bundle_with_attn_pool_dim_rejected(self, tmp_path, model):
        self._bundle_with_config(tmp_path, model, "attn_pool_dim", 8)
        with pytest.raises(BundleConfigError, match="attn_pool_dim"):
            load_bundle(str(tmp_path))

    def test_bundle_with_zero_dropout_loads(self, tmp_path, model):
        self._bundle_with_config(tmp_path, model, "encoder",
                                 {**SMALL.encoder.to_dict(), "dropout": 0.0})
        config, _, _, _ = load_bundle(str(tmp_path))
        assert config.to_dict() == model.config.to_dict()

    def test_bundle_with_nonzero_dropout_rejected(self, tmp_path, model):
        self._bundle_with_config(tmp_path, model, "encoder",
                                 {**SMALL.encoder.to_dict(), "dropout": 0.1})
        with pytest.raises(BundleConfigError, match="dropout 0.1"):
            load_bundle(str(tmp_path))

    def test_one_projection_tensor_per_attention_layer(self, tmp_path):
        cfg = ModelConfig(encoder=preset_config("desk-2x64x4", vocab_size=50))
        desk = HierarchicalModel(cfg, seed=0)
        params = desk.parameters()
        assert len(params) == 44
        fused = [name for name in params if name.endswith(".wqkv")]
        assert sorted(fused) == [f"{s}.layer{i}.wqkv"
                                 for s in ("se", "te") for i in range(2)]
        assert all(params[name].shape == (64, 192) for name in fused)
        save_bundle(str(tmp_path), cfg, desk.state_arrays())
        assert "head" not in (tmp_path / "manifest.txt").read_text()

    def test_per_head_bundle_predicts_bit_identically(self, tmp_path, model, rng):
        arrays = per_head_names(model.state_arrays(), SMALL.encoder.heads)
        assert "te.layer0.head1.wv" in arrays and "te.layer0.wqkv" not in arrays
        save_bundle(str(tmp_path), model.config, arrays)
        config, loaded, _, _ = load_bundle(str(tmp_path))
        assert loaded.keys() == model.state_arrays().keys()
        reloaded = HierarchicalModel(config, seed=5)
        reloaded.load_state(loaded)
        for name, p in model.parameters().items():
            assert np.array_equal(reloaded.parameters()[name].data, p.data), name
        heads = DetectionHeads(16, 32, np.random.default_rng(3), threshold=0.0)
        enc = make_encoded(rng, 600)
        assert (predict(enc, reloaded, heads).to_dict()
                == predict(enc, model, heads).to_dict())

    def test_per_head_bundle_missing_block_rejected(self, tmp_path, model):
        arrays = per_head_names(model.state_arrays(), SMALL.encoder.heads)
        del arrays["se.layer0.head1.wk"]
        save_bundle(str(tmp_path), model.config, arrays)
        with pytest.raises(CheckpointError, match="'se.layer0.head1.wk'"):
            load_bundle(str(tmp_path))

    def test_load_state_rejects_missing_or_misshapen(self, model):
        arrays = model.state_arrays()
        arrays = {k: v for k, v in arrays.items() if k != "te.tok_emb"}
        with pytest.raises(CheckpointError, match="missing tensor 'te.tok_emb'"):
            model.load_state(arrays)
        arrays["te.tok_emb"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError, match="'te.tok_emb' has shape"):
            model.load_state(arrays)

    def test_same_seed_same_init(self):
        a = HierarchicalModel(SMALL, seed=7)
        b = HierarchicalModel(SMALL, seed=7)
        for name, p in a.parameters().items():
            assert np.array_equal(p.data, b.parameters()[name].data)

    def test_bad_config_values(self):
        with pytest.raises(ValueError):
            ModelConfig(m_len=777)
        with pytest.raises(ValueError):
            ModelConfig(t2s="mean")
