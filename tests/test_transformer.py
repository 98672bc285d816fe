"""Encoder stack contracts: shapes, oracles, gradients."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from conftest import finite_difference_failures
from linesift import tensor as T
from linesift.encoding import SEGMENT_TOKENS
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


def multi_head_attention(H, wqkv, heads, sink=None):
    """Every head's scaled-dot self-attention as one op, heads side by side
    (the output projection is left to the caller): the attention part of
    ``T.encoder_layer`` on the same kernels, so that the per-op chain can
    hold the fused layer to account. ``wqkv`` and ``sink`` are as there."""
    T._check_attention("multi_head_attention", H, wqkv, heads)
    qkv = H.data @ wqkv.data
    ctx, shift, r = T._attention_forward(qkv, heads, sink)

    def back(g, grads):
        g_qkv = T._attention_backward(g, qkv, ctx, shift, r, heads)
        T._accumulate(grads, H, g_qkv @ wqkv.data.T)
        T._accumulate(grads, wqkv, H.data.T @ g_qkv)

    return T._result(ctx, (H, wqkv), back)


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
        out = multi_head_attention(H, wqkv, heads)
        T.mul(out, upstream).sum().backward()
        assert np.max(np.abs(out.data - ref.data)) < 1e-12
        assert np.max(np.abs(H.grad - ref_grad_h)) < 1e-12
        for got, want in zip(head_blocks(wqkv.grad, heads), blocks):
            for g, w in zip(got, want):  # every head's wq, wk and wv block
                assert np.max(np.abs(g - w.grad)) < 1e-12

    @pytest.mark.parametrize("heads", [1, 4])
    def test_no_grad_path_matches_graph_path(self, rng, heads):
        H = T.parameter(rng.normal(size=(9, 8)))
        wqkv = attention_params(rng, 8)
        graph_maps, plain_maps = [], []
        graph = multi_head_attention(H, wqkv, heads, graph_maps)
        with T.no_grad():
            plain = multi_head_attention(H, wqkv, heads, plain_maps)
        assert graph._backward is not None and plain._backward is None
        assert np.max(np.abs(plain.data - graph.data)) < 1e-12
        assert [len(maps) for maps in plain_maps] == [heads]
        for got, want in zip(plain_maps[0], graph_maps[0]):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_finite_differences_on_toy(self, rng):
        H = T.parameter(rng.normal(size=(6, TOY.hidden)))
        wqkv = attention_params(rng, TOY.hidden)
        params = {"H": H, "wqkv": wqkv}

        def loss():
            return T.tanh(multi_head_attention(H, wqkv, TOY.heads)).sum()

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
            multi_head_attention(H, T.constant(np.zeros((TOY.hidden, 10))), 2)
        with pytest.raises(T.ShapeMismatch):
            multi_head_attention(H, T.constant(np.zeros((4, 24))), 2)

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
        multi_head_attention(H, wqkv, TOY.heads, sink)
        assert len(sink) == 1 and len(sink[0]) == TOY.heads
        for att in sink[0]:
            assert att.shape == (5, 5)
            assert np.max(np.abs(att.sum(axis=1) - 1.0)) < 1e-12


def chain_layer(H, layer, heads, sink=None):
    """One layer as the per-op chain the fused op replaces."""
    mixed = multi_head_attention(H, layer.wqkv, heads, sink) @ layer.wo
    G = T.layer_norm(H + mixed, layer.ln1_gain, layer.ln1_bias)
    return T.layer_norm(G + layer.ffn(G), layer.ln2_gain, layer.ln2_bias)


def random_layer(rng, heads, hidden=8, ffn_hidden=16):
    """One encoder layer with every tensor drawn at random, so that no
    gain of 1 or bias of 0 hides a wrong gradient."""
    cfg = EncoderConfig(layers=1, hidden=hidden, heads=heads, ffn_hidden=ffn_hidden)
    layer = EncoderStack(cfg, rng).layers[0]
    for p in layer.weights():
        p.data[...] = rng.normal(0.0, 0.5, p.shape)
    return layer, cfg


def layer_grads(H, layer, run):
    """Zero the grads of ``H`` and the layer's tensors, back-propagate
    ``run()``, and return the 11 gradients."""
    tensors = (H, *layer.weights())
    for p in tensors:
        p.zero_grad()
    run().backward()
    return [p.grad.copy() for p in tensors]


class TestEncoderLayer:
    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_matches_chain_and_straight_line(self, rng, heads, n):
        layer, cfg = random_layer(rng, heads)
        H = T.parameter(rng.normal(size=(n, cfg.hidden)))
        upstream = T.constant(rng.normal(size=(n, cfg.hidden)))
        fused = T.encoder_layer(H, layer.weights(), heads)
        chain = chain_layer(H, layer, heads)
        expected = straight_line_stack(H.data, [layer], cfg.head_dim)
        assert np.max(np.abs(fused.data - chain.data)) < 1e-12
        assert np.max(np.abs(fused.data - expected)) < 1e-12
        got = layer_grads(H, layer, lambda: T.mul(
            T.encoder_layer(H, layer.weights(), heads), upstream).sum())
        want = layer_grads(H, layer, lambda: T.mul(
            chain_layer(H, layer, heads), upstream).sum())
        assert len(got) == 11
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-12 * max(1.0, np.max(np.abs(w)))

    def test_finite_differences_on_toy(self, rng):
        layer, _ = random_layer(rng, TOY.heads, TOY.hidden, TOY.ffn_hidden)
        H = T.parameter(rng.normal(size=(6, TOY.hidden)))
        params = {"H": H, **dict(layer.parameters("layer"))}

        def loss():
            return T.tanh(T.encoder_layer(H, layer.weights(), TOY.heads)).sum()

        layer_grads(H, layer, loss)
        failures = finite_difference_failures(lambda: loss().item(), params, rng,
                                              elements_per_tensor=4,
                                              head_dim=TOY.head_dim)
        assert failures == []

    @pytest.mark.parametrize("heads", [1, 4])
    def test_no_grad_output_and_maps_are_the_graph_bits(self, rng, heads):
        layer, cfg = random_layer(rng, heads)
        H = T.parameter(rng.normal(size=(9, cfg.hidden)))
        graph_maps, plain_maps = [], []
        graph = T.encoder_layer(H, layer.weights(), heads, graph_maps)
        with T.no_grad():
            plain = T.encoder_layer(H, layer.weights(), heads, plain_maps)
        assert graph._backward is not None and plain._backward is None
        assert np.array_equal(plain.data, graph.data)
        assert [len(maps) for maps in plain_maps] == [heads]
        for got, want in zip(plain_maps[0], graph_maps[0]):
            assert np.array_equal(got, want)
        chain_maps = []
        chain_layer(H, layer, heads, chain_maps)
        for got, want in zip(graph_maps[0], chain_maps[0]):
            assert np.array_equal(got, want)

    def test_shape_checked(self, rng):
        layer, cfg = random_layer(rng, 2)
        with pytest.raises(T.ShapeMismatch, match="encoder_layer"):
            T.encoder_layer(T.constant(np.zeros((5, 4))), layer.weights(), 2)
        with pytest.raises(T.ShapeMismatch, match="encoder_layer"):
            T.encoder_layer(T.constant(np.zeros((5, 8))), layer.weights(), 5)

    def test_no_grad_segment_peak_memory(self):
        # a 512-token desk-preset segment under no_grad, the unit of work
        # of each thread of predict: the chain of per-op graph nodes this op
        # replaced peaked at 4,267,216 bytes here
        cfg = preset_config("desk-2x64x4", vocab_size=50)
        enc = TokenEncoder(cfg, np.random.default_rng(0))
        ids = np.random.default_rng(1).integers(0, 50, size=512)
        with T.no_grad():
            enc.forward(ids)
            tracemalloc.start()
            try:
                enc.forward(ids)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 4_267_216


def score_bounds(H, wqkv, heads):
    """Each head's bound max_i |q_i| * max_j |k_j| on its scores, with q
    scaled by 1/sqrt(d_k), from the blocks of ``wqkv``."""
    dk = wqkv.shape[1] // (3 * heads)
    return np.array([np.linalg.norm(H @ wq, axis=1).max() / math.sqrt(dk)
                     * np.linalg.norm(H @ wk, axis=1).max()
                     for wq, wk, _ in head_blocks(wqkv, heads)])


def near_rows(rng, n, hidden):
    """Rows close to one common row: scores with a large common part in each
    row, which the softmax ignores, so a head can score far past the bound
    without its weights going one-hot."""
    return rng.normal(0.0, 4.0, (1, hidden)) + rng.normal(0.0, 0.05, (n, hidden))


def past_the_bound(H, wqkv, heads, bound):
    """Scale head 0's query block so that its score bound is ``bound``, and
    check that every other head stays on the shift-free path."""
    dk = wqkv.shape[1] // (3 * heads)
    wqkv[:, :dk] *= bound / score_bounds(H, wqkv, heads)[0]
    bounds = score_bounds(H, wqkv, heads)
    assert bounds[0] > T._EXP_BOUND >= bounds[1:].max()


def oracle_weights(H, wqkv, heads):
    """Each head's softmax weights, row-max shifted, in plain numpy."""
    dk = wqkv.shape[1] // (3 * heads)
    maps = []
    for wq, wk, _ in head_blocks(wqkv, heads):
        s = (H @ wq) @ (H @ wk).T / math.sqrt(dk)
        w = np.exp(s - s.max(axis=1, keepdims=True))
        maps.append(w / w.sum(axis=1, keepdims=True))
    return maps


class TestAttentionTiles:
    """Query tiles of ``T._TILE`` rows, and both exponent paths: shift-free
    for heads whose score bound is at most ``T._EXP_BOUND``, row-max shifted
    for the others."""

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_both_paths_match_oracles(self, rng, n):
        heads = 4
        layer, cfg = random_layer(rng, heads, hidden=16)
        H = T.parameter(near_rows(rng, n, cfg.hidden))
        past_the_bound(H.data, layer.wqkv.data, heads, 2 * T._EXP_BOUND)
        shift = T._attention_forward(H.data @ layer.wqkv.data, heads, None)[1]
        assert shift.tolist() == [True] + [False] * (heads - 1)
        expected = straight_line_stack(H.data, [layer], cfg.head_dim)
        graph_maps, plain_maps = [], []
        graph = T.encoder_layer(H, layer.weights(), heads, graph_maps)
        with T.no_grad():
            plain = T.encoder_layer(H, layer.weights(), heads, plain_maps)
        assert np.max(np.abs(graph.data - expected)) < 1e-12
        assert np.array_equal(plain.data, graph.data)
        for got, same, want in zip(graph_maps[0], plain_maps[0],
                                   oracle_weights(H.data, layer.wqkv.data, heads)):
            assert np.array_equal(got, same)
            assert np.max(np.abs(got - want)) < 1e-12
        # the kernel's gradients against the primitive chain's softmax
        blocks = [tuple(T.parameter(w.copy()) for w in ws)
                  for ws in head_blocks(layer.wqkv.data, heads)]
        upstream = T.constant(rng.normal(size=(n, cfg.hidden)))
        ref = per_head_attention(H, blocks)
        T.mul(ref, upstream).sum().backward()
        want_h = H.grad
        H.zero_grad()
        out = multi_head_attention(H, layer.wqkv, heads)
        T.mul(out, upstream).sum().backward()
        want_w = np.concatenate([blocks[h][i].grad for i in range(3)
                                 for h in range(heads)], axis=1)
        assert np.max(np.abs(out.data - ref.data)) < 1e-12
        for got, want in ((H.grad, want_h), (layer.wqkv.grad, want_w)):
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_finite_differences_on_toy_with_a_shifted_head(self, rng):
        layer, _ = random_layer(rng, TOY.heads, TOY.hidden, TOY.ffn_hidden)
        H = T.parameter(near_rows(rng, 6, TOY.hidden))
        past_the_bound(H.data, layer.wqkv.data, TOY.heads, 1.2 * T._EXP_BOUND)
        maps = oracle_weights(H.data, layer.wqkv.data, TOY.heads)
        assert maps[0].max() < 0.99  # the shifted head's weights are not one-hot
        params = {"H": H, **dict(layer.parameters("layer"))}

        def loss():
            return T.tanh(T.encoder_layer(H, layer.weights(), TOY.heads)).sum()

        layer_grads(H, layer, loss)
        failures = finite_difference_failures(lambda: loss().item(), params, rng,
                                              elements_per_tensor=4,
                                              head_dim=TOY.head_dim)
        assert failures == []

    def test_scores_of_about_1e3_stay_finite(self, rng):
        heads, n = 2, 40
        layer, cfg = random_layer(rng, heads)
        H = T.constant(near_rows(rng, n, cfg.hidden))
        past_the_bound(H.data, layer.wqkv.data, heads, 3e3)
        wq, wk, _ = head_blocks(layer.wqkv.data, heads)[0]
        scores = (H.data @ wq) @ (H.data @ wk).T / math.sqrt(cfg.head_dim)
        assert np.abs(scores).max() > 710  # exp overflows without the shift
        out = T.encoder_layer(H, layer.weights(), heads)
        assert np.isfinite(out.data).all()
        expected = straight_line_stack(H.data, [layer], cfg.head_dim)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_no_grad_peak_memory_below_one_score_block(self, rng):
        # one [n x n] float64 block is 2,097,152 bytes at n = 512; scoring
        # every head at once, or one whole head at a time, needs more
        n, heads, dk = 512, 4, 16
        qkv = rng.normal(size=(n, 3 * heads * dk))
        tracemalloc.start()
        try:
            T._attention_forward(qkv, heads, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_graph_keeps_no_score_block(self):
        # what a 512-token desk-preset layer holds for its backward: keeping
        # E as one [heads x n x n] block held 13.66 MB here, rebuilding it
        # tile by tile in the backward 5.27 MB
        cfg = preset_config("desk-2x64x4", vocab_size=50)
        layer = EncoderStack(cfg, np.random.default_rng(0)).layers[0]
        n = 512
        H = T.parameter(np.random.default_rng(1).normal(size=(n, cfg.hidden)))
        tracemalloc.start()
        try:
            out = T.encoder_layer(H, layer.weights(), cfg.heads)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert kept < cfg.heads * n * n * 8

    def test_graph_keeps_neither_g_nor_u(self):
        # the same layer's backward state besides its output: the backward
        # rebuilds G and U = gelu(G w1 + b1) elementwise, leaving 902 kept
        # columns of 512 rows (3.69 MB); keeping both held about 5.0 MB
        cfg = preset_config("desk-2x64x4", vocab_size=50)
        layer = EncoderStack(cfg, np.random.default_rng(0)).layers[0]
        H = T.parameter(np.random.default_rng(1).normal(size=(512, cfg.hidden)))
        tracemalloc.start()
        try:
            out = T.encoder_layer(H, layer.weights(), cfg.heads)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept - out.data.nbytes <= 3_800_000


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
        small = EncoderConfig(layers=1, hidden=4, heads=1, ffn_hidden=8, vocab_size=11)
        enc = TokenEncoder(small, rng)
        with pytest.raises(ValueError, match="exceeds capacity"):
            enc.forward(np.ones(SEGMENT_TOKENS + 1, dtype=np.int64))

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
