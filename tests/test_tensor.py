"""Tensor op contracts, gradient oracles, AdamW, checkpoint round-trips."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import make_encoded
from linesift import checkpoint, finetune, pretrain
from linesift import tensor as T
from linesift.model import HierarchicalModel, ModelConfig
from linesift.tensor import (
    OptimizerState,
    ShapeMismatch,
    Tensor,
    VocabularyError,
    adamw_step,
)
from linesift.transformer import EncoderConfig, preset_config


class TestMatmul:
    def test_identity(self):
        a = T.constant([[1.0, 0.0], [0.0, 1.0]])
        b = T.constant([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_hand_case(self):
        out = T.matmul(T.constant([[1.0, 2.0]]), T.constant([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop_oracle(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.matmul(T.constant(a), T.constant(b))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatch) as err:
            T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_gradients(self, rng):
        a = T.parameter(rng.normal(size=(3, 4)))
        b = T.parameter(rng.normal(size=(4, 2)))
        T.matmul(a, b).sum().backward()
        # d/da sum(ab) = ones @ b^T ; d/db = a^T @ ones
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T, atol=1e-12)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)), atol=1e-12)


class TestSoftmaxRows:
    def test_symmetry(self):
        out = T.softmax_rows(T.constant([[0.0, 0.0]]))
        assert out.data.tolist() == [[0.5, 0.5]]

    def test_closed_form(self):
        out = T.softmax_rows(T.constant([[math.log(1.0), math.log(3.0)]]))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        x = T.constant(rng.normal(size=(10, 7)) * 10)
        out = T.softmax_rows(x)
        assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-9


class TestLayerNorm:
    def setup_method(self):
        self.gain4 = T.constant(np.ones(4))
        self.bias4 = T.constant(np.zeros(4))

    def test_constant_row(self):
        out = T.layer_norm(T.constant([[1.0, 1.0, 1.0, 1.0]]), self.gain4, self.bias4)
        assert np.array_equal(out.data, np.zeros((1, 4)))

    def test_already_normalized(self):
        out = T.layer_norm(
            T.constant([[-1.0, 1.0]]), T.constant(np.ones(2)), T.constant(np.zeros(2))
        )
        assert np.max(np.abs(out.data - [[-1.0, 1.0]])) < 1e-6

    def test_against_direct_formula(self, rng):
        x = rng.normal(size=(5, 8))
        gain = rng.normal(size=8)
        bias = rng.normal(size=8)
        eps = 1e-12
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + eps) * gain + bias
        out = T.layer_norm(T.constant(x), T.constant(gain), T.constant(bias))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_pre_affine_moments(self, rng):
        x = rng.normal(size=(3, 16)) * 4 + 2
        out = T.layer_norm(
            T.constant(x), T.constant(np.ones(16)), T.constant(np.zeros(16))
        )
        assert np.max(np.abs(out.data.mean(axis=1))) < 1e-9
        assert np.max(np.abs(out.data.var(axis=1) - 1.0)) < 1e-6

    def test_d_must_exceed_one(self):
        with pytest.raises(ShapeMismatch):
            T.layer_norm(
                T.constant([[1.0]]), T.constant(np.ones(1)), T.constant(np.zeros(1))
            )


class TestEmbeddingLookup:
    def test_first_row(self, rng):
        table = T.constant(rng.normal(size=(5, 3)))
        out = T.embedding_lookup(table, [0])
        assert np.array_equal(out.data, table.data[:1])

    def test_repeat_accumulation(self, rng):
        table = T.parameter(rng.normal(size=(5, 3)))
        T.embedding_lookup(table, [2, 2]).sum().backward()
        expected = np.zeros((5, 3))
        expected[2] = 2.0
        assert np.array_equal(table.grad, expected)

    def test_against_row_copy_oracle(self, rng):
        table = T.constant(rng.normal(size=(20, 6)))
        ids = rng.integers(0, 20, size=15)
        out = T.embedding_lookup(table, ids)
        expected = np.stack([table.data[i] for i in ids])
        assert np.array_equal(out.data, expected)

    def test_out_of_range_names_id(self, rng):
        table = T.constant(rng.normal(size=(5, 3)))
        with pytest.raises(VocabularyError, match="7"):
            T.embedding_lookup(table, [1, 7])


class TestCrossEntropy:
    def test_near_certain(self):
        loss = T.cross_entropy(T.constant([[10.0, -10.0]]), [0])
        assert loss.item() < 1e-4

    def test_uniform(self):
        loss = T.cross_entropy(T.constant([[0.0, 0.0]]), [1])
        assert abs(loss.item() - math.log(2.0)) < 1e-15

    def test_against_direct_formula_oracle(self, rng):
        logits = rng.normal(size=(6, 4)) * 3
        targets = rng.integers(0, 4, size=6)
        # direct formula, independent path
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        nll = -np.log(probs[np.arange(6), targets])
        loss = T.cross_entropy(T.constant(logits), targets)
        assert abs(loss.item() - nll.mean()) < 1e-10

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="2"):
            T.cross_entropy(T.constant([[0.0, 0.0]]), [2])

    def test_gradient_matches_softmax_minus_onehot(self, rng):
        logits = T.parameter(rng.normal(size=(3, 4)))
        targets = [1, 3, 0]
        T.cross_entropy(logits, targets).backward()
        probs = np.exp(logits.data)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(3), targets] -= 1.0
        assert np.allclose(logits.grad, probs / 3.0, atol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = T.parameter(rng.normal(size=(3, 5)))
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 5)))

    def test_quadratic(self):
        x = T.parameter([1.0, 2.0])
        T.mul(x, x).sum().backward()
        assert x.grad.tolist() == [2.0, 4.0]

    def test_non_scalar_loss_errors(self, rng):
        with pytest.raises(ValueError, match="scalar"):
            T.parameter(rng.normal(size=(2, 2))).backward()

    def test_repeated_backward_accumulates(self):
        x = T.parameter([3.0])
        loss = x.sum()
        loss.backward()
        loss.backward()
        assert x.grad.tolist() == [2.0]
        x.zero_grad()
        assert x.grad is None

    def test_grad_stored_on_leaves_only(self, rng):
        x = T.parameter(rng.normal(size=(3, 2)))
        w = T.parameter(rng.normal(size=(2, 2)))
        hidden = T.matmul(x, w)
        loss = T.tanh(hidden).sum()
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        d_hidden = 1.0 - np.tanh(x.data @ w.data) ** 2
        assert np.allclose(x.grad, d_hidden @ w.data.T, atol=1e-12)
        assert np.allclose(w.grad, x.data.T @ d_hidden, atol=1e-12)
        first_x, first_w = x.grad.copy(), w.grad.copy()
        loss.backward()
        assert hidden.grad is None
        assert np.array_equal(x.grad, 2 * first_x)
        assert np.array_equal(w.grad, 2 * first_w)

    def test_shared_upstream_gradient_is_not_written_in_place(self, rng):
        # add hands one array to both parents, and transpose, reshape and
        # concat_rows hand on views of theirs; a reaches its loss along two
        # such paths, b along two more, so a sum written in place into a
        # piece would leak into the other leaf's gradient
        a = T.parameter(rng.normal(size=(2, 3)))
        b = T.parameter(rng.normal(size=(2, 3)))
        c = rng.normal(size=(4, 3))

        def loss():
            s = T.transpose(T.transpose(a + b))
            both = T.concat_rows([s, T.reshape(T.reshape(a, (3, 2)), (2, 3))])
            return T.mul(both, T.constant(c)).sum() + T.mul(b, b).sum()

        expected = {a: c[:2] + c[2:], b: c[:2] + 2 * b.data}
        for into in (None, {}):
            a.zero_grad()
            b.zero_grad()
            for _ in range(2):
                loss().backward(into=into)
            for leaf, grad in expected.items():
                got = leaf.grad if into is None else into[leaf]
                assert np.allclose(got, 2 * grad, atol=1e-12)

    def test_backward_into_map_leaves_grad_untouched(self, rng):
        x = T.parameter(rng.normal(size=(3, 2)))
        w = T.parameter(rng.normal(size=(2, 2)))
        held = np.ones((2, 2))
        w.grad = held.copy()

        def loss():
            return T.tanh(T.matmul(x, w)).sum() + T.mul(w, w).sum()

        grads = {}
        loss().backward(into=grads)
        assert x.grad is None and np.array_equal(w.grad, held)
        assert set(grads) == {x, w}
        w.zero_grad()
        loss().backward()
        assert np.array_equal(grads[x], x.grad)
        assert np.array_equal(grads[w], w.grad)
        loss().backward(into=grads)  # a second call adds into the map
        assert np.array_equal(grads[w], 2 * w.grad)

    def test_every_reachable_param_gets_matching_grad(self, rng):
        a = T.parameter(rng.normal(size=(4, 3)))
        b = T.parameter(rng.normal(size=(3, 2)))
        c = T.parameter(rng.normal(size=2))
        out = T.gelu(T.matmul(a, b) + c).sum()
        out.backward()
        for p in (a, b, c):
            assert p.grad is not None and p.grad.shape == p.data.shape

    @pytest.mark.parametrize("op", ["gelu", "sigmoid", "tanh"])
    def test_pointwise_ops_against_finite_differences(self, rng, op):
        fn = getattr(T, op)
        x = T.parameter(rng.normal(size=(3, 5)))
        fn(x).sum().backward()
        h = 1e-6
        for flat in rng.choice(x.data.size, size=5, replace=False):
            flat = int(flat)
            orig = x.data.flat[flat]
            x.data.flat[flat] = orig + h
            up = fn(x).sum().item()
            x.data.flat[flat] = orig - h
            down = fn(x).sum().item()
            x.data.flat[flat] = orig
            numeric = (up - down) / (2 * h)
            assert abs(x.grad.flat[flat] - numeric) < 1e-6

    def test_structural_ops_route_gradients(self, rng):
        # transpose / rows / reshape / concat / gather composed into one loss
        a = T.parameter(rng.normal(size=(4, 6)))
        out = T.concat_cols([
            T.transpose(a).rows(1, 4).reshape((3, 4)).transpose().reshape((4, 3)),
            T.gather_rows(a, [2, 2, 0, 3]).rows(0, 4).rows(0, 4).reshape((4, 6)).rows(0, 4),
        ])
        T.mul(out, out).sum().backward()
        h = 1e-6
        for flat in rng.choice(a.data.size, size=6, replace=False):
            flat = int(flat)
            orig = a.data.flat[flat]

            def value():
                piece = T.concat_cols([
                    T.transpose(a).rows(1, 4).reshape((3, 4)).transpose()
                    .reshape((4, 3)),
                    T.gather_rows(a, [2, 2, 0, 3]).rows(0, 4).rows(0, 4)
                    .reshape((4, 6)).rows(0, 4),
                ])
                return T.mul(piece, piece).sum().item()

            a.data.flat[flat] = orig + h
            up = value()
            a.data.flat[flat] = orig - h
            down = value()
            a.data.flat[flat] = orig
            numeric = (up - down) / (2 * h)
            assert abs(a.grad.flat[flat] - numeric) < 1e-5

    def test_dropout_gradient_matches_mask(self, rng):
        x = T.parameter(rng.normal(size=(6, 4)))
        out = T.dropout(x, 0.5, np.random.default_rng(3))
        out.sum().backward()
        keep = (out.data != 0).astype(float) * 2.0  # inverted scaling 1/(1-p)
        assert np.array_equal(x.grad, keep)

    def test_composite_against_finite_differences(self, rng):
        from conftest import finite_difference_failures

        a = T.parameter(rng.normal(size=(4, 6)))
        g = T.parameter(rng.normal(size=6) * 0.1 + 1.0)
        b = T.parameter(rng.normal(size=6))
        w = T.parameter(rng.normal(size=(6, 3)))

        def forward():
            h = T.layer_norm(T.tanh(a), g, b)
            s = T.softmax_rows(T.matmul(h, w))
            return T.cross_entropy(s, [0, 2, 1, 0]).item()

        params = {"a": a, "g": g, "b": b, "w": w}
        for p in params.values():
            p.zero_grad()
        h = T.layer_norm(T.tanh(a), g, b)
        loss = T.cross_entropy(T.softmax_rows(T.matmul(h, w)), [0, 2, 1, 0])
        loss.backward()
        assert finite_difference_failures(forward, params, rng) == []


def _sample_model(rng, encoder, m_len):
    """A model with attention pooling, its detection heads, MSP decoder and
    MLM head, and all of their parameters."""
    model = HierarchicalModel(ModelConfig(encoder=encoder, m_len=m_len, t2s="attention"),
                              seed=5)
    h, f, v = encoder.hidden, encoder.ffn_hidden, encoder.vocab_size
    heads, decoder, mlm_head = (finetune.DetectionHeads(h, f, rng),
                                pretrain.MspDecoder(h, v, rng), pretrain.MlmHead(h, f, v, rng))
    params = [*model.parameters().values(),
              *(p for part in (heads, decoder, mlm_head) for _, p in part.parameters())]
    return model, heads, decoder, mlm_head, params


class TestReleasingBackward:
    """``backward(into=...)`` frees the graph as it walks it."""

    def test_a_released_graph_raises_instead_of_giving_gradients(self, rng):
        x = T.parameter(rng.normal(size=(3, 2)))
        w = T.parameter(rng.normal(size=(2, 2)))
        hidden = T.matmul(x, w)
        loss = T.tanh(hidden).sum()
        grads = {}
        loss.backward(into=grads)
        assert set(grads) == {x, w}
        for again in (lambda: loss.backward(into={}), loss.backward,
                      # a new loss on a released interior node: not a leaf
                      lambda: T.mul(hidden, hidden).sum().backward(into={}),
                      lambda: (T.tanh(hidden).sum() + T.mul(w, w).sum()).backward()):
            with pytest.raises(ValueError, match="released"):
                again()
        assert x.grad is None and w.grad is None

    @pytest.mark.parametrize("phase", ["finetune", "msp", "mlm"])
    def test_maps_equal_plain_gradients_bit_for_bit(self, rng, phase):
        encoder = EncoderConfig(layers=2, hidden=16, heads=2, ffn_hidden=32, vocab_size=40)
        model, heads, decoder, mlm_head, params = _sample_model(rng, encoder, 1024)
        batch = [make_encoded(rng, n, vocab_size=40, label=n % 2)
                 for n in (600, 90, 31)]
        if phase == "finetune":
            losses = finetune.sample_losses(batch, model, heads)
        else:
            losses = pretrain.sample_losses(phase, [(enc, 3) for enc in batch],
                                            model, decoder, mlm_head)
        for build in losses:
            for p in params:
                p.zero_grad()
            build().backward()
            grads = {}
            build().backward(into=grads)
            assert set(grads) == {p for p in params if p.grad is not None}
            assert all(np.array_equal(g, p.grad) for p, g in grads.items())

    def test_msp_sample_backward_peak_near_its_graph(self):
        # one 1,024-token desk-preset MSP sample: keeping every node until
        # the walk ended peaked at 1.32x the graph's size; releasing each op
        # once its gradient has been passed on, at 1.05x
        rng = np.random.default_rng(0)
        encoder = preset_config("desk-2x64x4", vocab_size=146)
        model, _, decoder, _, _ = _sample_model(rng, encoder, 1024)
        enc = make_encoded(rng, 1024, vocab_size=146)
        plan = pretrain.make_mask_plan(enc, 146, 0)

        def build():
            return pretrain.msp_loss(enc, plan, model, decoder, per_token_mean=True)[0]

        build().backward(into={})  # first-call costs outside the measurement
        tracemalloc.start()
        try:
            loss = build()
            graph = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward(into={})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph > 10_000_000  # the sample is the size it is meant to be
        assert peak <= 1.1 * graph


class TestDeterminism:
    def test_identical_forward_and_grads(self, rng):
        seed_data = rng.normal(size=(8, 8))

        def run():
            x = T.parameter(seed_data.copy())
            y = T.softmax_rows(T.matmul(x, T.transpose(x)))
            loss = T.cross_entropy(y, list(range(8)))
            loss.backward()
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestNoGrad:
    def test_builds_no_graph(self):
        x = T.parameter([[1.0, 2.0]])
        with T.no_grad():
            y = T.tanh(x @ T.transpose(x))
        assert not y.requires_grad
        assert y._backward is None and y._parents == ()
        assert T.tanh(x @ T.transpose(x))._backward is not None

    def test_mode_restored_after_raise_and_when_nested(self):
        x = T.parameter([1.0])
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("body failed")
        assert T.scale(x, 2.0).requires_grad
        with T.no_grad():
            with T.no_grad():
                assert not T.scale(x, 2.0).requires_grad
            assert not T.scale(x, 2.0).requires_grad
        assert T.scale(x, 2.0).requires_grad

    def test_mode_is_per_thread(self):
        x = T.parameter([1.0])
        seen = []
        worker = threading.Thread(target=lambda: seen.append(T.scale(x, 2.0).requires_grad))
        with T.no_grad():
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [True]


class TestAdamW:
    def test_zero_grad_applies_only_decay(self):
        # zero moments leave p <- p - lr * (wd * p), wd = 0.01
        data = np.array([1.0, -2.0])
        p = T.parameter(data.copy())
        p.grad = np.zeros(2)
        state = OptimizerState(learning_rate=0.1)
        adamw_step({"p": p}, state)
        assert np.array_equal(p.data, data - (data * 0.01) * 0.1)
        assert state.t == 1

    def test_first_step_magnitude(self):
        p = T.parameter([0.5])
        p.grad = np.ones(1)
        state = OptimizerState(learning_rate=0.1)
        adamw_step({"p": p}, state)
        # bias-corrected m_hat = 1, v_hat = 1 -> step ~ lr * (1 + wd * p)
        assert abs((0.5 - p.data[0]) - 0.1 * (1 + 0.01 * 0.5)) < 1e-6

    def test_three_step_trace_against_reference(self, rng):
        data = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(3)]
        lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01

        # hand-rolled reference
        ref = data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            ref = ref - lr * (mhat / (np.sqrt(vhat) + eps) + wd * ref)

        p = T.parameter(data.copy())
        state = OptimizerState(learning_rate=lr)
        for g in grads:
            p.grad = g.copy()
            adamw_step({"p": p}, state)
        assert state.t == 3
        assert np.max(np.abs(p.data - ref)) < 1e-12

    def test_three_steps_with_decay_are_the_old_formulas_bits(self, rng):
        def old_step(p, g, m, v, t, lr, b1, b2, eps, wd):
            # the update as written before it reused two buffers
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** t)
            vhat = v / (1.0 - b2 ** t)
            p -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * p)

        hyper = dict(lr=0.05, b1=0.9, b2=0.999, eps=1e-8, wd=0.01)
        data = rng.normal(size=(5, 4))
        grads = [rng.normal(size=(5, 4)) for _ in range(3)]
        ref, m, v = data.copy(), np.zeros_like(data), np.zeros_like(data)
        p = T.parameter(data.copy())
        state = OptimizerState(learning_rate=hyper["lr"])
        for t, g in enumerate(grads, start=1):
            old_step(ref, g, m, v, t, **hyper)
            p.grad = g.copy()
            adamw_step({"p": p}, state)
            assert np.array_equal(p.data, ref)
        assert np.array_equal(state.m["p"], m) and np.array_equal(state.v["p"], v)

    def test_shape_congruence_error(self):
        p = T.parameter(np.zeros((2, 2)))
        state = OptimizerState()
        adamw_step({"p": p}, state)
        q = T.parameter(np.zeros((3, 3)))
        with pytest.raises(ShapeMismatch):
            adamw_step({"p": q}, state)


def span_combine_loop(values, spans, scores, upstream):
    """``span_combine``'s output and its gradients for ``upstream``, one
    span at a time: the loop the vectorized op replaced."""
    out = np.empty((len(spans), values.shape[1]))
    gv, gs = np.zeros_like(values), np.zeros_like(scores)
    for i, (o, p) in enumerate(spans):
        e = np.exp(scores[o:p] - scores[o:p].max())
        w = e / e.sum()
        out[i] = w @ values[o:p]
        gv[o:p] += np.outer(w, upstream[i])
        g_w = values[o:p] @ upstream[i]
        gs[o:p] += w * (g_w - (g_w * w).sum())
    return out, gv, gs


class TestTensorInvariants:
    def test_shape_matches_data(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        assert int(np.prod(x.shape)) == x.data.size

    def test_span_combine_matches_manual(self, rng):
        values = T.parameter(rng.normal(size=(9, 4)))
        spans = [(1, 4), (4, 5), (5, 9)]
        scores = T.parameter(rng.normal(size=9))
        out = T.span_combine(values, spans, scores)

        def softmax(x):
            e = np.exp(x - x.max())
            return e / e.sum()

        expected = np.stack([softmax(scores.data[o:p]) @ values.data[o:p]
                             for o, p in spans])
        assert np.max(np.abs(out.data - expected)) < 1e-12
        out.sum().backward()
        # row 0 lies in no span; a lone row's weight is 1 whatever its score
        assert not values.grad[0].any() and scores.grad[0] == 0.0
        assert np.max(np.abs(scores.grad[4])) < 1e-12

    @pytest.mark.parametrize("spans", [
        [(0, 3), (3, 4), (4, 9)],
        [(1, 3), (5, 6), (6, 9)],  # rows 0 and 3-4 lie in no span
        [(0, 9)],
        [(2, 5), (0, 4)],  # overlapping, out of order
    ])
    def test_span_combine_matches_per_span_loop(self, rng, spans):
        values = T.parameter(rng.normal(size=(9, 4)))
        scores = T.parameter(rng.normal(size=9))
        upstream = rng.normal(size=(len(spans), 4))
        out = T.span_combine(values, spans, scores)
        T.mul(out, T.constant(upstream)).sum().backward()
        want_out, want_gv, want_gs = span_combine_loop(
            values.data, spans, scores.data, upstream)
        assert np.max(np.abs(out.data - want_out)) < 1e-12
        assert np.max(np.abs(values.grad - want_gv)) < 1e-12
        assert np.max(np.abs(scores.grad - want_gs)) < 1e-12

    def test_span_combine_zero_scores_give_span_means(self, rng):
        values = T.constant(rng.normal(size=(7, 3)))
        spans = [(0, 2), (2, 7)]
        out = T.span_combine(values, spans, T.constant(np.zeros(7)))
        expected = np.stack([values.data[o:p].mean(axis=0) for o, p in spans])
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_span_combine_gradients_match_finite_differences(self, rng):
        from conftest import finite_difference_failures

        values = T.parameter(rng.normal(size=(9, 4)))
        scores = T.parameter(rng.normal(size=9))
        spans = [(0, 3), (3, 4), (4, 9)]
        params = {"values": values, "scores": scores}

        def loss():
            return T.tanh(T.span_combine(values, spans, scores)).sum()

        loss().backward()
        assert finite_difference_failures(lambda: loss().item(), params, rng,
                                          elements_per_tensor=9) == []

    def test_span_combine_shape_checks(self, rng):
        values = T.constant(rng.normal(size=(5, 2)))
        with pytest.raises(ShapeMismatch):
            T.span_combine(values, [(0, 5)], T.constant(np.zeros(4)))
        with pytest.raises(ShapeMismatch):
            T.span_combine(values, [(2, 2)], T.constant(np.zeros(5)))


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        arrays = {
            "emb": rng.normal(size=(7, 3)),
            "bias": rng.normal(size=5),
            "scalar": np.asarray(math.pi),
            "weird": np.array([0.0, -0.0, 1e-308, np.inf, -np.inf, np.nan]),
        }
        checkpoint.save_tensors(str(tmp_path), arrays)
        loaded = checkpoint.load_tensors(str(tmp_path))
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert loaded[name].shape == arrays[name].shape
            assert np.array_equal(
                loaded[name].view(np.uint64), arrays[name].astype("<f8").view(np.uint64)
            ), name

    def test_manifest_format(self, tmp_path):
        checkpoint.save_tensors(str(tmp_path), {"a.b": np.zeros((2, 3))})
        manifest = (tmp_path / "manifest.txt").read_text()
        assert manifest == "a.b\t2,3\t0\n"

    def _saved(self, tmp_path):
        checkpoint.save_tensors(str(tmp_path), {"a": np.ones((2, 3)),
                                                "b": np.zeros(4)})
        return tmp_path / "weights.bin", tmp_path / "manifest.txt"

    @pytest.mark.parametrize("change", [-8, 8])
    def test_blob_length_must_match_manifest(self, tmp_path, change):
        blob, _ = self._saved(tmp_path)
        raw = blob.read_bytes()
        blob.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
        with pytest.raises(checkpoint.CheckpointError, match="weights.bin"):
            checkpoint.load_tensors(str(tmp_path))

    def test_offsets_must_be_running_totals(self, tmp_path):
        _, manifest = self._saved(tmp_path)
        manifest.write_text("a\t2,3\t0\nb\t4\t40\n")
        with pytest.raises(checkpoint.CheckpointError, match="'b'"):
            checkpoint.load_tensors(str(tmp_path))

    def test_malformed_manifest_line(self, tmp_path):
        _, manifest = self._saved(tmp_path)
        manifest.write_text("a\t2,x\t0\n")
        with pytest.raises(checkpoint.CheckpointError, match="line 1"):
            checkpoint.load_tensors(str(tmp_path))

    def test_negative_extent(self, tmp_path):
        # b's -2 elements would pull the running offset back over a's bytes
        blob, manifest = self._saved(tmp_path)
        blob.write_bytes(bytes(24))
        manifest.write_text("a\t3\t0\nb\t2,-1\t24\nc\t2,1\t8\n")
        with pytest.raises(checkpoint.CheckpointError, match="line 2: negative extent"):
            checkpoint.load_tensors(str(tmp_path))

    def test_repeated_name(self, tmp_path):
        # the entries tile the blob, so only the repeated name is wrong
        blob, manifest = self._saved(tmp_path)
        blob.write_bytes(bytes(40))
        manifest.write_text("a\t3\t0\na\t2\t24\n")
        with pytest.raises(checkpoint.CheckpointError, match="line 2: tensor 'a' is listed twice"):
            checkpoint.load_tensors(str(tmp_path))
