"""Domain gradient vectors, the cosine alignment loss, and its oracles."""
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdm import grad_discrepancy as gd
from cgdm import nn, checks
from cgdm.pseudo_labels import PseudoLabelSet
from cgdm.tensor import ContractError, ShapeError, Tensor, backward


def tiny_models(seed=0, d_in=2, d_feat=3, k=2):
    rng = np.random.default_rng(seed)
    gen = nn.init_mlp([d_in, d_feat], int(rng.integers(2**31)), final_activation="relu")
    f1 = nn.init_mlp([d_feat, k], int(rng.integers(2**31)))
    f2 = nn.init_mlp([d_feat, k], int(rng.integers(2**31)))
    return gen, f1, f2


def feats(gen, x):
    return nn.forward(gen, Tensor(np.asarray(x, dtype=np.float64)))


class TestSourceGradient:
    def test_stationary_point_has_tiny_norm(self):
        # identity generator, saturated linear heads, matched labels
        gen = nn.init_mlp([2, 2], seed=0)
        gen.layers[0].weight.values[:] = np.eye(2)
        f1 = nn.init_mlp([2, 2], seed=1)
        f2 = nn.init_mlp([2, 2], seed=2)
        for f in (f1, f2):
            f.layers[0].weight.values[:] = 25.0 * np.eye(2)
            f.layers[0].bias.values[:] = 0.0
        g = gd.source_gradient(f1, f2, feats(gen, np.eye(2)), np.array([0, 1]))
        assert np.linalg.norm(g.values) < 1e-6

    def test_duplicated_batch_same_gradient(self):
        gen, f1, f2 = tiny_models(3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 2, size=3)
        base = gd.source_gradient(f1, f2, feats(gen, x), y).values
        doubled = gd.source_gradient(
            f1, f2, feats(gen, np.vstack([x, x])), np.concatenate([y, y])
        ).values
        np.testing.assert_allclose(doubled, base, atol=1e-12)

    def test_permutation_invariance(self):
        gen, f1, f2 = tiny_models(5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 2, size=5)
        perm = rng.permutation(5)
        a = gd.source_gradient(f1, f2, feats(gen, x), y).values
        b = gd.source_gradient(f1, f2, feats(gen, x[perm]), y[perm]).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_batch_rejected(self):
        gen, f1, f2 = tiny_models(7)
        with pytest.raises(ContractError):
            gd.source_gradient(f1, f2, feats(gen, np.zeros((0, 2))), np.zeros(0, int))

    def test_length_is_classifier_param_count(self):
        gen, f1, f2 = tiny_models(8)
        g = gd.source_gradient(f1, f2, feats(gen, np.ones((2, 2))), np.array([0, 1]))
        expected = sum(p.size for p in gd.classifier_parameters(f1, f2))
        assert g.shape == (expected,)


class TestTargetGradient:
    def test_reduces_to_source_gradient(self):
        gen, f1, f2 = tiny_models(9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4).astype(np.int64)
        pseudo = PseudoLabelSet(y, np.ones(4), np.zeros(4))
        gs = gd.source_gradient(f1, f2, feats(gen, x), y).values
        gt = gd.target_gradient(f1, f2, feats(gen, x), pseudo).values
        np.testing.assert_array_equal(gs, gt)

    def test_weight_scaling_linearity(self):
        gen, f1, f2 = tiny_models(11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4).astype(np.int64)
        w = rng.uniform(1.0, 2.0, size=4)
        base = gd.target_gradient(
            f1, f2, feats(gen, x), PseudoLabelSet(y, w, np.zeros(4))
        ).values
        scaled = gd.target_gradient(
            f1, f2, feats(gen, x), PseudoLabelSet(y, 3.0 * w, np.zeros(4))
        ).values
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_missing_pseudo_rejected(self):
        gen, f1, f2 = tiny_models(13)
        pseudo = PseudoLabelSet(np.zeros(2, np.int64), np.ones(2), np.zeros(2))
        with pytest.raises(ContractError):
            gd.target_gradient(f1, f2, feats(gen, np.ones((3, 2))), pseudo)


class TestDiscrepancyLoss:
    def test_equal_vectors_zero(self):
        g = Tensor(np.array([1.0, -2.0, 0.5]))
        assert gd.gradient_discrepancy_loss(g, g).item() < 1e-9

    def test_orthogonal_is_one(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([0.0, 1.0]))
        assert gd.gradient_discrepancy_loss(a, b).item() == pytest.approx(1.0)

    def test_opposite_is_two(self):
        g = Tensor(np.array([1.0, -2.0, 0.5]))
        neg = Tensor(-g.values)
        assert gd.gradient_discrepancy_loss(g, neg).item() == pytest.approx(2.0, abs=1e-9)

    def test_zero_norm_guard(self):
        z = Tensor(np.zeros(3))
        g = Tensor(np.array([1.0, 2.0, 3.0]))
        out = gd.gradient_discrepancy_loss(z, g)
        assert out.item() == 0.0
        assert out.parents == ()  # constant, no gradient signal

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            gd.gradient_discrepancy_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 100.0))
    def test_scale_invariance_symmetry_bounds(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=6))
        b = Tensor(rng.normal(size=6))
        loss_ab = gd.gradient_discrepancy_loss(a, b).item()
        loss_ba = gd.gradient_discrepancy_loss(b, a).item()
        assert abs(loss_ab - loss_ba) < 1e-12
        assert 0.0 <= loss_ab <= 2.0 + 1e-9
        scaled = gd.gradient_discrepancy_loss(a, Tensor(scale * a.values)).item()
        assert abs(scaled) < 1e-9


class TestLinearHeadOracle:
    def test_one_hot_prediction_zero_gradient(self):
        # saturated logits at the true label
        w = np.array([[30.0, 0.0], [0.0, 30.0]])
        b = np.zeros(2)
        x = np.eye(2)
        dw, db = checks.linear_head_gradient_oracle(x, [0, 1], np.ones(2), w, b)
        assert np.max(np.abs(dw)) < 1e-10
        assert np.max(np.abs(db)) < 1e-10

    def test_single_sample_hand_case(self):
        # K=2, d=1, W=0, b=0, x=1, y=0: (softmax - onehot) x^T = [-0.5, 0.5]
        dw, db = checks.linear_head_gradient_oracle(
            np.array([[1.0]]), [0], [1.0], np.zeros((2, 1)), np.zeros(2)
        )
        np.testing.assert_allclose(dw, [[-0.5], [0.5]], atol=1e-15)
        np.testing.assert_allclose(db, [-0.5, 0.5], atol=1e-15)

    def test_autodiff_cross_check(self):
        result = checks.run_oracle_suite(n_batches=5, seed=77)
        assert result.passed, f"max err {result.max_err}"


def per_class_reforward_loss(gen, f1, f2, xs, ys, xt, pseudo, create_graph=False):
    """The conditional loss as first defined: every shared class re-forwards
    its own source and target rows through the generator."""
    shared = sorted(set(ys.tolist()) & set(pseudo.labels.tolist()))
    total = None
    for k in shared:
        s_rows = np.flatnonzero(ys == k)
        t_rows = np.flatnonzero(pseudo.labels == k)
        gs = gd.source_gradient(f1, f2, feats(gen, xs[s_rows]), ys[s_rows], create_graph)
        gt = gd.target_gradient(
            f1, f2, feats(gen, xt[t_rows]), pseudo.take(t_rows), create_graph
        )
        term = gd.gradient_discrepancy_loss(gs, gt)
        total = term if total is None else total + term
    return total * (1.0 / len(shared))


def class_sorted_loss(gen, f1, f2, xs, ys, xt, pseudo, create_graph=False):
    """The conditional loss on class-sorted batches, one forward per domain."""
    s_order = np.argsort(ys, kind="stable")
    t_order = np.argsort(pseudo.labels, kind="stable")
    return gd.conditional_gradient_loss(
        f1, f2, feats(gen, xs[s_order]), ys[s_order],
        feats(gen, xt[t_order]), pseudo.take(t_order), create_graph,
    )


class TestConditional:
    def _setup(self, seed=20):
        gen, f1, f2 = tiny_models(seed, k=3)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(6, 2))
        y = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        return gen, f1, f2, x, y

    def test_identical_batches_single_class_zero(self):
        gen, f1, f2, x, y = self._setup()
        rows = y == 1
        pseudo = PseudoLabelSet(y[rows], np.ones(rows.sum()), np.zeros(rows.sum()))
        val = gd.conditional_gradient_loss(
            f1, f2, feats(gen, x[rows]), y[rows], feats(gen, x[rows]), pseudo
        ).item()
        assert val < 1e-9

    def test_no_shared_classes_warns_and_returns_zero(self, caplog):
        gen, f1, f2, x, y = self._setup()
        pseudo = PseudoLabelSet(np.array([1, 1], np.int64), np.ones(2), np.zeros(2))
        with caplog.at_level(logging.WARNING):
            out = gd.conditional_gradient_loss(
                f1, f2, feats(gen, x[:2]), np.array([0, 0]), feats(gen, x[2:4]), pseudo
            )
        assert out.item() == 0.0
        assert any("no shared classes" in r.message for r in caplog.records)

    def test_two_shared_classes_average_of_per_class_losses(self):
        gen, f1, f2, x, y = self._setup(30)
        rng = np.random.default_rng(31)
        xs, ys = x[:4], y[:4]  # classes 0 and 1
        xt = rng.normal(size=(4, 2))
        pl = np.array([0, 1, 0, 1], dtype=np.int64)
        w = rng.uniform(1.0, 2.0, size=4)
        pseudo = PseudoLabelSet(pl, w, np.zeros(4))
        combined = class_sorted_loss(gen, f1, f2, xs, ys, xt, pseudo).item()
        # recompute each class's loss independently
        per_class = []
        for k in (0, 1):
            s_rows = np.flatnonzero(ys == k)
            t_rows = np.flatnonzero(pl == k)
            gs = gd.source_gradient(f1, f2, feats(gen, xs[s_rows]), ys[s_rows])
            gt = gd.target_gradient(f1, f2, feats(gen, xt[t_rows]), pseudo.take(t_rows))
            per_class.append(gd.gradient_discrepancy_loss(gs, gt).item())
        assert abs(combined - float(np.mean(per_class))) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_class_sorted_equals_per_class_reforward(self, seed):
        gen, f1, f2 = tiny_models(40 + seed, d_in=3, d_feat=4, k=3)
        rng = np.random.default_rng(seed)
        xs, xt = rng.normal(size=(9, 3)), rng.normal(size=(8, 3))
        ys = rng.integers(0, 3, size=9)
        pseudo = PseudoLabelSet(
            rng.integers(0, 3, size=8), rng.uniform(1.0, 2.0, size=8), np.zeros(8)
        )
        args = (gen, f1, f2, xs, ys, xt, pseudo)
        want = per_class_reforward_loss(*args, create_graph=True)
        got = class_sorted_loss(*args, create_graph=True)
        assert abs(got.item() - want.item()) < 1e-12
        params = gen.parameters()
        g_want = backward(want, params)
        g_got = backward(got, params)
        for p in params:
            np.testing.assert_allclose(g_got[p].values, g_want[p].values,
                                       rtol=0, atol=1e-12)

    def test_unsorted_rows_rejected(self):
        gen, f1, f2, x, y = self._setup()
        pseudo = PseudoLabelSet(y, np.ones(6), np.zeros(6))
        with pytest.raises(ContractError):
            gd.conditional_gradient_loss(
                f1, f2, feats(gen, x), y[::-1], feats(gen, x), pseudo
            )


class TestDoubleBackward:
    def test_alignment_gradient_matches_finite_differences(self):
        result = checks.run_second_order_suite(n_instances=3, seed=88)
        assert result.passed, f"max err {result.max_err}"
