"""Token-to-statement strategies against per-span brute-force oracles."""

import math

import numpy as np
import pytest

from conftest import make_encoded
from linesift import tensor as T
from linesift.pooling import AttentionPool, AveragePool, WeightedPool, make_pool


def spans_and_tokens(rng, n=20, d=6):
    enc = make_encoded(rng, n)
    tokens = rng.normal(size=(enc.n, d))
    return enc.line_spans, tokens


def oracle_weighted_mean(tokens, spans, raw_weights):
    """Per-span softmax of raw weights, then the weighted sum. Independent path."""
    out = np.zeros((len(spans), tokens.shape[1]))
    for i, (o, p) in enumerate(spans):
        w = np.exp(raw_weights[o:p] - raw_weights[o:p].max())
        w /= w.sum()
        out[i] = w @ tokens[o:p]
    return out


class TestAveragePool:
    def test_single_token_line(self, rng):
        tokens = rng.normal(size=(3, 4))
        out = AveragePool().apply(T.constant(tokens), [(1, 2), (2, 3)])
        assert np.max(np.abs(out.data - tokens[1:])) < 1e-15

    def test_cancellation(self, rng):
        v = rng.normal(size=5)
        tokens = np.vstack([np.zeros(5), v, -v])
        out = AveragePool().apply(T.constant(tokens), [(1, 3)])
        assert np.max(np.abs(out.data)) < 1e-15

    def test_against_dense_oracle(self, rng):
        for _ in range(50):
            spans, tokens = spans_and_tokens(rng, int(rng.integers(4, 60)))
            out = AveragePool().apply(T.constant(tokens), spans)
            dense = np.zeros((len(spans), tokens.shape[0]))
            for i, (o, p) in enumerate(spans):
                dense[i, o:p] = 1.0 / (p - o)
            assert np.max(np.abs(out.data - dense @ tokens)) < 1e-12


class TestWeightedPool:
    def test_equal_weights_reduce_to_average_exactly(self, rng):
        spans, tokens = spans_and_tokens(rng)
        pool = WeightedPool(m_len=64)
        pool.position_weight.data[:] = 3.7  # any common value
        weighted = pool.apply(T.constant(tokens), spans)
        average = AveragePool().apply(T.constant(tokens), spans)
        assert np.array_equal(weighted.data, average.data)

    def test_dominant_weight_saturates(self, rng):
        tokens = rng.normal(size=(3, 4))
        pool = WeightedPool(m_len=8)
        pool.position_weight.data[1] = 20.0
        pool.position_weight.data[2] = 0.0
        out = pool.apply(T.constant(tokens), [(1, 3)])
        assert np.max(np.abs(out.data[0] - tokens[1])) < 1e-6

    def test_against_per_span_oracle(self, rng):
        for _ in range(50):
            spans, tokens = spans_and_tokens(rng, int(rng.integers(4, 60)))
            pool = WeightedPool(m_len=64)
            pool.position_weight.data[:] = rng.normal(size=64)
            out = pool.apply(T.constant(tokens), spans)
            expected = oracle_weighted_mean(tokens, spans, pool.position_weight.data)
            assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_shift_invariance(self, rng):
        spans, tokens = spans_and_tokens(rng)
        pool = WeightedPool(m_len=64)
        # integer-valued weights + integer shift: the adds are exact, so the
        # softmax inputs are bitwise identical after max subtraction
        pool.position_weight.data[:] = rng.integers(-8, 8, size=64).astype(float)
        base = pool.apply(T.constant(tokens), spans)
        pool.position_weight.data += 16.0
        shifted = pool.apply(T.constant(tokens), spans)
        assert np.array_equal(base.data, shifted.data)
        # arbitrary float weights agree to rounding
        pool.position_weight.data[:] = rng.normal(size=64)
        base = pool.apply(T.constant(tokens), spans)
        pool.position_weight.data += 0.618
        shifted = pool.apply(T.constant(tokens), spans)
        assert np.max(np.abs(base.data - shifted.data)) < 1e-12

    def test_weights_receive_gradient(self, rng):
        spans, tokens = spans_and_tokens(rng)
        pool = WeightedPool(m_len=64)
        pool.position_weight.data[:] = rng.normal(size=64)
        pool.apply(T.constant(tokens), spans).sum().backward()
        grad = pool.position_weight.grad
        assert grad is not None
        covered = max(p for _, p in spans)
        assert np.any(grad[:covered] != 0)
        assert np.all(grad[covered:] == 0)

    def test_weight_gradients_match_finite_differences(self, rng):
        from conftest import finite_difference_failures

        spans, tokens = spans_and_tokens(rng)
        pool = WeightedPool(m_len=64)
        pool.position_weight.data[:] = rng.normal(size=64)
        const_tokens = T.constant(tokens)

        def forward():
            return T.tanh(pool.apply(const_tokens, spans)).sum().item()

        pool.position_weight.zero_grad()
        T.tanh(pool.apply(const_tokens, spans)).sum().backward()
        params = {"w": pool.position_weight}
        assert finite_difference_failures(forward, params, rng,
                                          elements_per_tensor=6) == []

    def test_table_too_short(self, rng):
        spans, tokens = spans_and_tokens(rng, 30)
        pool = WeightedPool(m_len=8)
        with pytest.raises(ValueError):
            pool.apply(T.constant(tokens), spans)


class TestAttentionPool:
    def test_zero_projections_reduce_to_average_exactly(self, rng):
        spans, tokens = spans_and_tokens(rng)
        pool = AttentionPool(hidden=6, rng=rng)
        pool.q_proj.data[:] = 0.0
        pool.k_proj.data[:] = 0.0
        out = pool.apply(T.constant(tokens), spans)
        average = AveragePool().apply(T.constant(tokens), spans)
        assert np.array_equal(out.data, average.data)

    def test_single_token_span_ignores_scores(self, rng):
        tokens = rng.normal(size=(2, 6))
        pool = AttentionPool(hidden=6, rng=rng)
        out = pool.apply(T.constant(tokens), [(1, 2)])
        assert np.max(np.abs(out.data[0] - tokens[1])) < 1e-15

    def test_against_per_span_oracle(self, rng):
        for _ in range(50):
            spans, tokens = spans_and_tokens(rng, int(rng.integers(4, 60)))
            pool = AttentionPool(hidden=6, rng=rng)
            q = tokens[0] @ pool.q_proj.data
            raw = (tokens @ pool.k_proj.data) @ q / math.sqrt(6)
            expected = oracle_weighted_mean(tokens, spans, raw)
            out = pool.apply(T.constant(tokens), spans)
            assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_projections_receive_gradient(self, rng):
        spans, tokens = spans_and_tokens(rng)
        pool = AttentionPool(hidden=6, rng=rng)
        pool.apply(T.constant(tokens), spans).sum().backward()
        assert pool.q_proj.grad is not None and np.any(pool.q_proj.grad != 0)
        assert pool.k_proj.grad is not None and np.any(pool.k_proj.grad != 0)


class TestSharedProperties:
    def pools(self, rng, m_len=64):
        weighted = WeightedPool(m_len)
        weighted.position_weight.data[:] = rng.normal(size=m_len)
        return [AveragePool(), weighted,
                AttentionPool(hidden=6, rng=rng)]

    def test_convex_hull_per_coordinate(self, rng):
        for pool in self.pools(rng):
            for _ in range(10):
                spans, tokens = spans_and_tokens(rng, int(rng.integers(4, 40)))
                out = pool.apply(T.constant(tokens), spans).data
                for i, (o, p) in enumerate(spans):
                    lo = tokens[o:p].min(axis=0) - 1e-12
                    hi = tokens[o:p].max(axis=0) + 1e-12
                    assert np.all(out[i] >= lo) and np.all(out[i] <= hi)

    def test_identical_vectors_return_that_vector(self, rng):
        v = rng.normal(size=6)
        # power-of-two span widths make the convex combination exact
        tokens = np.vstack([np.zeros(6)] + [v] * 2 + [v] * 4)
        spans = [(1, 3), (3, 7)]
        for pool in self.pools(rng, m_len=16):
            out = pool.apply(T.constant(tokens), spans).data
            assert np.array_equal(out[0], v)
        # odd widths agree to rounding
        tokens = np.vstack([np.zeros(6)] + [v] * 3)
        for pool in self.pools(rng, m_len=16):
            out = pool.apply(T.constant(tokens), [(1, 4)]).data
            assert np.max(np.abs(out[0] - v)) < 1e-12

    def test_factory(self, rng):
        assert isinstance(make_pool("average", 8, 64, rng), AveragePool)
        assert isinstance(make_pool("weighted", 8, 64, rng), WeightedPool)
        assert isinstance(make_pool("attention", 8, 64, rng), AttentionPool)
        with pytest.raises(ValueError):
            make_pool("maxpool", 8, 64, rng)

    def test_graph_size_independent_of_line_count(self, rng):
        # every strategy is one span_combine: no graph node per line
        for pool in self.pools(rng):
            sizes = set()
            for lines in (1, 40):
                tokens = T.parameter(rng.normal(size=(41, 6)))
                spans = [(o, o + 40 // lines) for o in range(1, 41, 40 // lines)]
                sizes.add(len(T._topo_order(pool.apply(tokens, spans))))
            assert len(sizes) == 1, (type(pool).__name__, sizes)
