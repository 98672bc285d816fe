"""Encoder stack contracts: shapes, oracles, gradients."""

import math

import numpy as np
import pytest
from scipy.special import erf

from conftest import finite_difference_failures
from linesift import tensor as T
from linesift.transformer import (
    EncoderConfig,
    EncoderStack,
    StatementEncoder,
    TokenEncoder,
    preset_config,
)

TOY = EncoderConfig(layers=2, hidden=8, heads=2, ffn_hidden=16, vocab_size=11)


def head_blocks(wqkv, heads):
    """The per-head (wq, wk, wv) [d x d_k] blocks of a fused projection."""
    blocks = np.split(wqkv, 3 * heads, axis=1)
    return list(zip(blocks[:heads], blocks[heads:2 * heads], blocks[2 * heads:]))


def straight_line_stack(H, stack_layers, head_dim):
    """Independent numpy re-implementation of the layer equations.

    Plain loops over heads (each slicing its blocks out of ``wqkv``),
    explicit softmax / layer norm / GELU; no shared code with the graph path.
    """
    def ln(x, g, b):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-12) * g + b

    def gelu_np(x):
        return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))

    for layer in stack_layers:
        head_outputs = []
        heads = layer.wqkv.shape[1] // (3 * head_dim)
        for wq, wk, wv in head_blocks(layer.wqkv.data, heads):
            q = H @ wq
            k = H @ wk
            v = H @ wv
            scores = q @ k.T / math.sqrt(head_dim)
            scores -= scores.max(axis=1, keepdims=True)
            weights = np.exp(scores)
            weights /= weights.sum(axis=1, keepdims=True)
            head_outputs.append(weights @ v)
        mixed = np.concatenate(head_outputs, axis=1) @ layer.wo.data
        G = ln(H + mixed, layer.ln1_gain.data, layer.ln1_bias.data)
        ff = (gelu_np(G @ layer.ffn.w1.data + layer.ffn.b1.data) @ layer.ffn.w2.data
              + layer.ffn.b2.data)
        H = ln(G + ff, layer.ln2_gain.data, layer.ln2_bias.data)
    return H


def per_head_attention(H, blocks):
    """The per-head attention chain built from primitive graph ops."""
    inv_sqrt_dk = 1.0 / math.sqrt(blocks[0][0].shape[1])
    heads = []
    for q_w, k_w, v_w in blocks:
        q, k, v = T.matmul(H, q_w), T.matmul(H, k_w), T.matmul(H, v_w)
        att = T.softmax_rows(T.scale(T.matmul(q, T.transpose(k)), inv_sqrt_dk))
        heads.append(T.matmul(att, v))
    return T.concat_cols(heads)


def attention_params(rng, hidden, std=0.5):
    return T.parameter(rng.normal(0.0, std, (hidden, 3 * hidden)))


class TestMultiHeadAttention:
    @pytest.mark.parametrize("heads", [1, 4])
    def test_matches_per_head_chain(self, rng, heads):
        n, d = 7, 8
        H = T.parameter(rng.normal(size=(n, d)))
        wqkv = attention_params(rng, d)
        blocks = [tuple(T.parameter(w.copy()) for w in ws)
                  for ws in head_blocks(wqkv.data, heads)]
        upstream = T.constant(rng.normal(size=(n, d)))
        ref = per_head_attention(H, blocks)
        T.mul(ref, upstream).sum().backward()
        ref_grad_h = H.grad
        H.zero_grad()
        out = T.multi_head_attention(H, wqkv, heads)
        T.mul(out, upstream).sum().backward()
        assert np.max(np.abs(out.data - ref.data)) < 1e-12
        assert np.max(np.abs(H.grad - ref_grad_h)) < 1e-12
        for got, want in zip(head_blocks(wqkv.grad, heads), blocks):
            for g, w in zip(got, want):  # every head's wq, wk and wv block
                assert np.max(np.abs(g - w.grad)) < 1e-12

    def test_finite_differences_on_toy(self, rng):
        H = T.parameter(rng.normal(size=(6, TOY.hidden)))
        wqkv = attention_params(rng, TOY.hidden)
        params = {"H": H, "wqkv": wqkv}

        def loss():
            return T.tanh(T.multi_head_attention(H, wqkv, TOY.heads)).sum()

        for p in params.values():
            p.zero_grad()
        loss().backward()
        failures = finite_difference_failures(lambda: loss().item(), params, rng,
                                              elements_per_tensor=4,
                                              head_dim=TOY.head_dim)
        assert failures == []

    def test_shape_checked(self, rng):
        H = T.constant(rng.normal(size=(5, TOY.hidden)))
        with pytest.raises(T.ShapeMismatch):
            T.multi_head_attention(H, T.constant(np.zeros((TOY.hidden, 10))), 2)
        with pytest.raises(T.ShapeMismatch):
            T.multi_head_attention(H, T.constant(np.zeros((4, 24))), 2)

    def test_layer_draws_one_block_per_head(self):
        # the per-head [d x d_k] draws of older versions, so seeds keep
        # giving the same initial weights
        layer = EncoderStack(TOY, np.random.default_rng(0)).layers[0]
        rng = np.random.default_rng(0)
        blocks = [rng.normal(0.0, 0.02, (TOY.hidden, TOY.head_dim))
                  for _ in range(3 * TOY.heads)]
        assert np.array_equal(layer.wqkv.data, np.concatenate(blocks, axis=1))

    def test_sink_receives_each_heads_map(self, rng):
        H = T.constant(rng.normal(size=(5, TOY.hidden)))
        wqkv = attention_params(rng, TOY.hidden)
        sink = []
        T.multi_head_attention(H, wqkv, TOY.heads, sink)
        assert len(sink) == 1 and len(sink[0]) == TOY.heads
        for att in sink[0]:
            assert att.shape == (5, 5)
            assert np.max(np.abs(att.sum(axis=1) - 1.0)) < 1e-12


@pytest.fixture
def token_encoder(rng):
    return TokenEncoder(TOY, rng)


class TestTokenEncoder:
    def test_single_token_shape_and_attention(self, token_encoder):
        out = token_encoder.forward([7])
        assert out.shape == (1, TOY.hidden)
        maps = token_encoder.attention_maps([7])
        assert len(maps) == TOY.layers
        for layer_maps in maps:
            assert len(layer_maps) == TOY.heads
            for att in layer_maps:
                assert att.tolist() == [[1.0]]

    def test_against_straight_line_oracle(self, rng, token_encoder):
        ids = rng.integers(0, TOY.vocab_size, size=9)
        out = token_encoder.forward(ids)
        H0 = token_encoder.tok_emb.data[ids] + token_encoder.pos_emb.data[:9]
        expected = straight_line_stack(
            H0, token_encoder.stack.layers, TOY.head_dim
        )
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_attention_rows_sum_to_one(self, rng, token_encoder):
        ids = rng.integers(0, TOY.vocab_size, size=17)
        for layer_maps in token_encoder.attention_maps(ids):
            for att in layer_maps:
                assert np.max(np.abs(att.sum(axis=1) - 1.0)) < 1e-9

    def test_duplicate_tokens_uniform_attention_without_positions(self, token_encoder):
        token_encoder.pos_emb.data[:] = 0.0
        maps = token_encoder.attention_maps([4, 4, 4])
        for att in maps[0]:  # first layer sees identical rows
            assert np.max(np.abs(att - 1.0 / 3.0)) < 1e-12

    def test_permutation_equivariance_without_positions(self, rng, token_encoder):
        token_encoder.pos_emb.data[:] = 0.0
        ids = rng.integers(0, TOY.vocab_size, size=8)
        perm = rng.permutation(8)
        out = token_encoder.forward(ids)
        out_perm = token_encoder.forward(ids[perm])
        assert np.max(np.abs(out_perm.data - out.data[perm])) < 1e-10

    def test_segment_cap(self, rng):
        small = EncoderConfig(layers=1, hidden=4, heads=1, ffn_hidden=8,
                              max_positions=4, vocab_size=11)
        enc = TokenEncoder(small, rng)
        with pytest.raises(ValueError, match="exceeds capacity"):
            enc.forward([1, 2, 3, 4, 5])

    def test_gradients_all_weights(self, rng, token_encoder):
        ids = rng.integers(0, TOY.vocab_size, size=6)
        params = dict(token_encoder.parameters())

        def loss_value():
            return T.tanh(token_encoder.forward(ids)).sum().item()

        for p in params.values():
            p.zero_grad()
        T.tanh(token_encoder.forward(ids)).sum().backward()
        failures = finite_difference_failures(loss_value, params, rng,
                                              elements_per_tensor=2,
                                              head_dim=TOY.head_dim)
        assert failures == []


class TestStatementEncoder:
    def test_single_statement_shapes(self, rng):
        se = StatementEncoder(TOY, rng)
        program, statements = se.forward(T.constant(rng.normal(size=(1, 8))))
        assert program.shape == (1, 8)
        assert statements.shape == (1, 8)

    def test_statement_count_bounds(self, rng):
        se = StatementEncoder(TOY, rng)
        with pytest.raises(ValueError):
            se.forward(T.constant(np.zeros((0, 8))))
        with pytest.raises(ValueError):
            se.forward(T.constant(np.zeros((513, 8))))

    def test_permutation_without_positions(self, rng):
        se = StatementEncoder(TOY, rng)
        se.pos_emb.data[:] = 0.0
        S0 = rng.normal(size=(7, 8))
        perm = rng.permutation(7)
        prog_a, stmts_a = se.forward(T.constant(S0))
        prog_b, stmts_b = se.forward(T.constant(S0[perm]))
        assert np.max(np.abs(stmts_b.data - stmts_a.data[perm])) < 1e-10
        assert np.max(np.abs(prog_b.data - prog_a.data)) < 1e-10

    def test_against_straight_line_oracle(self, rng):
        se = StatementEncoder(TOY, rng)
        S0 = rng.normal(size=(5, 8))
        program, statements = se.forward(T.constant(S0))
        X0 = np.vstack([se.summary.data, S0 + se.pos_emb.data[:5]])
        expected = straight_line_stack(X0, se.stack.layers, TOY.head_dim)
        assert np.max(np.abs(program.data - expected[:1])) < 1e-10
        assert np.max(np.abs(statements.data - expected[1:])) < 1e-10

    def test_program_vector_sensitive_to_every_statement(self, rng):
        se = StatementEncoder(TOY, rng)
        S0 = rng.normal(size=(6, 8))
        base, _ = se.forward(T.constant(S0))
        for row in range(6):
            bumped = S0.copy()
            bumped[row] += 0.05
            moved, _ = se.forward(T.constant(bumped))
            assert np.linalg.norm(moved.data - base.data) > 1e-8

    def test_gradients_all_weights(self, rng):
        se = StatementEncoder(TOY, rng)
        S0 = rng.normal(size=(3, 8))
        params = dict(se.parameters())

        def forward():
            program, statements = se.forward(T.constant(S0))
            return (T.tanh(program).sum() + T.tanh(statements).sum()).item()

        for p in params.values():
            p.zero_grad()
        program, statements = se.forward(T.constant(S0))
        (T.tanh(program).sum() + T.tanh(statements).sum()).backward()
        failures = finite_difference_failures(forward, params, rng,
                                              elements_per_tensor=2,
                                              head_dim=TOY.head_dim)
        assert failures == []


class TestPresets:
    def test_known_presets(self):
        desk = preset_config("desk-2x64x4", vocab_size=100)
        assert (desk.layers, desk.hidden, desk.heads) == (2, 64, 4)
        big = preset_config("paper-6x768x12", vocab_size=100)
        assert (big.layers, big.hidden, big.heads) == (6, 768, 12)
        assert big.head_dim == 64

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("tiny")

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden=10, heads=4)
