import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyrep.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BN_EPS,
    AdamState,
    BatchTooSmallError,
    DenseBlock,
    Mlp,
    PlateauState,
    adam_step,
    cross_entropy,
    grad_check,
    plateau_step,
)

from conftest import FOLD_RTOL, randomize_batchnorm, unfolded_eval


def mlp_loss_closure(mlp, x, y):
    def loss_fn():
        return cross_entropy(mlp.forward(x, train=True, update_stats=False), y)[0]

    return loss_fn


class TestForward:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(0)
        mlp = Mlp(rng, [3, 4, 2], batchnorm_output=False)
        for block in mlp.blocks:
            block.w[...] = 0.0
            block.b[...] = 0.0
        out = mlp.forward(np.ones((4, 3)), train=False)
        assert np.all(out == 0.0)

    def test_identity_linear_layer(self):
        rng = np.random.default_rng(0)
        mlp = Mlp(rng, [3, 3], batchnorm_output=False)
        mlp.blocks[0].w[...] = np.eye(3)
        mlp.blocks[0].b[...] = 0.0
        x = rng.standard_normal((5, 3))
        assert np.array_equal(mlp.forward(x, train=False), x)

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(1)
        mlp = Mlp(rng, [4, 8, 3])
        x = rng.standard_normal((6, 4))
        a = mlp.forward(x, train=False)
        b = mlp.forward(x, train=False)
        assert np.array_equal(a, b)

    def test_train_mode_batch_of_one_rejected(self):
        mlp = Mlp(np.random.default_rng(0), [3, 4, 2])
        with pytest.raises(BatchTooSmallError):
            mlp.forward(np.ones((1, 3)), train=True)

    def test_dim_mismatch_rejected(self):
        mlp = Mlp(np.random.default_rng(0), [3, 4, 2])
        with pytest.raises(ValueError):
            mlp.forward(np.ones((5, 7)), train=False)

    def test_batchnorm_normalizes_batch(self):
        rng = np.random.default_rng(2)
        block = DenseBlock(np.random.default_rng(0), 5, 5, relu=False)
        # The normalized tensor's variance is var / (var + eps); with
        # eps = 1e-5 the 1e-6 bound needs batch variance >= 10.
        x = rng.standard_normal((256, 5)) * 15.0 + 4.0
        out = block.post_forward(x, train=True)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 4), (17, 64), (1150, 64), (4000, 4)])
    def test_batchnorm_equals_np_var_form_bitwise(self, n, d):
        x = np.random.default_rng(n + d).standard_normal((n, d)) * 3.0 + 1.5
        block = DenseBlock(np.random.default_rng(0), d, d, relu=False)
        block.gamma[...] = np.linspace(0.5, 2.0, d)
        block.beta[...] = np.linspace(-1.0, 1.0, d)
        out = block.post_forward(x, train=True)
        mean, var = x.mean(axis=0), x.var(axis=0)
        xhat = (x - mean) * (1.0 / np.sqrt(var + BN_EPS))
        assert np.array_equal(out, block.gamma * xhat + block.beta)
        assert np.array_equal(block.running_var, 0.9 * np.ones(d) + 0.1 * var * n / (n - 1))


class TestFoldedEval:
    @pytest.mark.parametrize("batchnorm_output", [True, False])
    def test_matches_unfolded_reference(self, batchnorm_output):
        rng = np.random.default_rng(8)
        mlp = Mlp(rng, [5, 16, 16, 3], batchnorm_output=batchnorm_output)
        randomize_batchnorm(mlp, rng)
        x = rng.standard_normal((40, 5)) * 3.0
        want = unfolded_eval(mlp, x)
        got = mlp.forward(x, train=False)
        assert np.abs(got - want).max() <= FOLD_RTOL * np.abs(want).max()

    def test_eval_leaves_state_unchanged(self):
        rng = np.random.default_rng(9)
        mlp = Mlp(rng, [4, 8, 8, 2])
        randomize_batchnorm(mlp, rng)
        before = [(name, arr.copy()) for name, arr in mlp.named_state()]
        mlp.forward(rng.standard_normal((6, 4)), train=False)
        for (name, old), (_, new) in zip(before, mlp.named_state()):
            assert np.array_equal(old, new), name


class TestBackward:
    def test_small_mlp_gradients(self):
        rng = np.random.default_rng(3)
        mlp = Mlp(rng, [3, 4, 2], batchnorm_output=False)
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, 6)
        mlp.zero_grads()
        logits = mlp.forward(x, train=True, update_stats=False)
        _, dlogits = cross_entropy(logits, y)
        mlp.backward(dlogits)
        grads = [g.copy() for _, g in mlp.named_grads()]
        err = grad_check(
            mlp_loss_closure(mlp, x, y), [p for _, p in mlp.named_parameters()], grads
        )
        assert err < 1e-6

    def test_batchnorm_gradients(self):
        rng = np.random.default_rng(4)
        mlp = Mlp(rng, [3, 4, 4, 2], batchnorm_output=True)
        x = rng.standard_normal((8, 3))
        y = rng.integers(0, 2, 8)
        mlp.zero_grads()
        logits = mlp.forward(x, train=True, update_stats=False)
        _, dlogits = cross_entropy(logits, y)
        mlp.backward(dlogits)
        grads = [g.copy() for _, g in mlp.named_grads()]
        err = grad_check(
            mlp_loss_closure(mlp, x, y), [p for _, p in mlp.named_parameters()], grads
        )
        assert err < 1e-6

    def test_corrupted_backward_is_caught(self):
        rng = np.random.default_rng(5)
        mlp = Mlp(rng, [3, 4, 2], batchnorm_output=False)
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, 6)
        mlp.zero_grads()
        logits = mlp.forward(x, train=True, update_stats=False)
        _, dlogits = cross_entropy(logits, y)
        mlp.backward(dlogits)
        grads = [g.copy() for _, g in mlp.named_grads()]
        grads[0][0, 0] += 1.0
        err = grad_check(
            mlp_loss_closure(mlp, x, y), [p for _, p in mlp.named_parameters()], grads
        )
        assert err > 1e-2

    def test_linearity_in_output_grad(self):
        rng = np.random.default_rng(6)
        mlp = Mlp(rng, [3, 4, 2], batchnorm_output=False)
        x = rng.standard_normal((5, 3))
        dy = rng.standard_normal((5, 2))
        mlp.zero_grads()
        mlp.forward(x, train=True, update_stats=False)
        mlp.backward(dy)
        single = [g.copy() for _, g in mlp.named_grads()]
        mlp.zero_grads()
        mlp.forward(x, train=True, update_stats=False)
        mlp.backward(2.0 * dy)
        doubled = [g.copy() for _, g in mlp.named_grads()]
        for s, d in zip(single, doubled):
            assert np.allclose(2.0 * s, d, atol=1e-12)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((4, 10)), np.arange(4) % 10)
        assert abs(loss - math.log(10)) < 1e-12

    def test_huge_logit_is_stable(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 1000.0
        loss, grad = cross_entropy(logits, np.array([1]))
        assert loss < 1e-12
        assert np.all(np.isfinite(grad))

    @given(st.integers(0, 10**6))
    def test_grad_rows_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((5, 4))
        _, grad = cross_entropy(logits, rng.integers(0, 4, 5))
        assert np.abs(grad.sum(axis=1)).max() < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestAdam:
    def test_first_step_magnitude(self):
        p = [np.array([0.0])]
        g = [np.array([1.0])]
        state = AdamState.for_params(p)
        adam_step(p, g, state, lr=0.001)
        assert abs(p[0][0] - (-0.001 / (1 + 1e-8))) < 1e-15

    def test_zero_grads_no_move(self):
        p = [np.arange(3, dtype=float)]
        state = AdamState.for_params(p)
        adam_step(p, [np.zeros(3)], state, lr=0.1)
        assert np.array_equal(p[0], np.arange(3, dtype=float))
        assert state.t == 1

    def test_constant_grad_bounded_step(self):
        p = [np.array([0.0])]
        state = AdamState.for_params(p)
        prev = 0.0
        for _ in range(50):
            adam_step(p, [np.array([2.5])], state, lr=0.01)
            assert abs(p[0][0] - prev) <= 0.01 + 1e-9
            prev = p[0][0]
        assert prev < 0

    def test_update_is_bitwise_the_textbook_expression(self):
        rng = np.random.default_rng(10)
        shapes = [(7, 5), (5,), (1,), (3, 4)]
        params = [rng.standard_normal(s) for s in shapes]
        ref = [p.copy() for p in params]
        state = AdamState.for_params(params)
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, 0.003
        for t in range(1, 7):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            adam_step(params, grads, state, lr)
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            for a, g in enumerate(grads):
                m[a] = b1 * m[a] + (1 - b1) * g
                v[a] = b2 * v[a] + (1 - b2) * g * g
                ref[a] = ref[a] - lr * (m[a] / c1) / (np.sqrt(v[a] / c2) + eps)
            for a in range(len(shapes)):
                assert np.array_equal(params[a], ref[a])
                assert np.array_equal(state.m[a], m[a]) and np.array_equal(state.v[a], v[a])
        assert state.t == 6

    def test_shape_mismatch(self):
        p = [np.zeros(3)]
        state = AdamState.for_params(p)
        with pytest.raises(ValueError):
            adam_step(p, [np.zeros(4)], state, lr=0.1)


class TestPlateau:
    def test_improving_metric_keeps_lr(self):
        state = PlateauState(lr=0.001)
        for epoch in range(30):
            lr = plateau_step(state, 1.0 / (epoch + 1))
        assert lr == 0.001

    def test_flat_metric_halves_once_after_patience(self):
        state = PlateauState(lr=0.001, patience=10)
        for _ in range(11):
            lr = plateau_step(state, 1.0)
        assert lr == 0.0005
        assert state.bad_epochs == 0

    def test_min_lr_floor(self):
        state = PlateauState(lr=2e-6, patience=1, min_lr=1e-6)
        for _ in range(10):
            lr = plateau_step(state, 1.0)
        assert lr == 1e-6


class TestTraining:
    def test_loss_decreases_on_separable_problem(self):
        rng = np.random.default_rng(7)
        x = np.vstack([rng.standard_normal((30, 2)) + 3, rng.standard_normal((30, 2)) - 3])
        y = np.array([0] * 30 + [1] * 30)
        mlp = Mlp(rng, [2, 8, 2], batchnorm_output=False)
        params = [p for _, p in mlp.named_parameters()]
        state = AdamState.for_params(params)
        first = None
        for step in range(100):
            mlp.zero_grads()
            logits = mlp.forward(x, train=True)
            loss, dlogits = cross_entropy(logits, y)
            mlp.backward(dlogits)
            adam_step(params, [g for _, g in mlp.named_grads()], state, lr=0.01)
            if first is None:
                first = loss
        assert loss < first * 0.1
