"""Loss semantics: frozen oracle values, bounds, and gradient checks."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdm import losses, nn
from cgdm.checks import finite_difference_gradient
from cgdm.data import DomainSet
from cgdm.pseudo_labels import PseudoLabelSet
from cgdm.tensor import ContractError, Tensor, backward, softmax

LN2 = np.log(2.0)


def random_probs(rng, b, k):
    p = rng.uniform(0.05, 1.0, size=(b, k))
    return p / p.sum(axis=1, keepdims=True)


class TestCrossEntropy:
    def test_uniform_two_class(self):
        for label in (0, 1):
            val = losses.cross_entropy(Tensor([[0.0, 0.0]]), [label]).item()
            assert abs(val - LN2) < 1e-12

    def test_saturated_confidence(self):
        val = losses.cross_entropy(Tensor([[10.0, -10.0]]), [0]).item()
        assert val < 1e-4

    def test_matches_direct_per_sample_formula(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        # independent direct evaluation
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        ref = float(np.mean(-np.log(p[np.arange(6), labels])))
        val = losses.cross_entropy(Tensor(logits), labels).item()
        assert abs(val - ref) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            losses.cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_nonnegative_and_lnk_at_uniform(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            b = int(rng.integers(1, 5))
            logits = rng.normal(size=(b, k))
            labels = rng.integers(0, k, size=b)
            assert losses.cross_entropy(Tensor(logits), labels).item() >= 0.0
            uniform = losses.cross_entropy(Tensor(np.zeros((b, k))), labels).item()
            assert abs(uniform - np.log(k)) < 1e-12


class TestSourceClassificationLoss:
    def _batch(self, rng, b=5, d=3, k=3):
        return DomainSet(rng.normal(size=(b, d)), rng.integers(0, k, size=b))

    def test_identical_classifiers_equal_single_ce(self):
        rng = np.random.default_rng(2)
        gen = nn.init_mlp([3, 4], seed=0, final_activation="relu")
        f1 = nn.init_mlp([4, 3], seed=1)
        f2 = copy.deepcopy(f1)
        batch = self._batch(rng)
        both = losses.source_classification_loss(gen, f1, f2, batch).item()
        feats = nn.forward(gen, Tensor(batch.features))
        single = losses.cross_entropy(nn.forward(f1, feats), batch.labels).item()
        assert abs(both - single) < 1e-12

    def test_uniform_outputs_give_lnk(self):
        rng = np.random.default_rng(3)
        gen = nn.init_mlp([3, 4], seed=0, final_activation="relu")
        f1 = nn.init_mlp([4, 4], seed=1)
        f2 = nn.init_mlp([4, 4], seed=2)
        for f in (f1, f2):
            f.layers[0].weight.values[:] = 0.0
            f.layers[0].bias.values[:] = 0.0
        batch = self._batch(rng, k=4)
        val = losses.source_classification_loss(gen, f1, f2, batch).item()
        assert abs(val - np.log(4)) < 1e-12

    def test_equals_mean_of_componentwise(self):
        rng = np.random.default_rng(4)
        gen = nn.init_mlp([3, 4], seed=5, final_activation="relu")
        f1 = nn.init_mlp([4, 3], seed=6)
        f2 = nn.init_mlp([4, 3], seed=7)
        batch = self._batch(rng)
        combined = losses.source_classification_loss(gen, f1, f2, batch).item()
        feats = nn.forward(gen, Tensor(batch.features))
        ce1 = losses.cross_entropy(nn.forward(f1, feats), batch.labels).item()
        ce2 = losses.cross_entropy(nn.forward(f2, feats), batch.labels).item()
        assert abs(combined - 0.5 * (ce1 + ce2)) < 1e-12

    def test_unlabeled_batch_rejected(self):
        gen = nn.init_mlp([3, 4], seed=0)
        f1 = nn.init_mlp([4, 3], seed=1)
        f2 = nn.init_mlp([4, 3], seed=2)
        batch = DomainSet(np.zeros((2, 3)), None, "target")
        with pytest.raises(ContractError):
            losses.source_classification_loss(gen, f1, f2, batch)


class TestPairCrossEntropy:
    def test_mean_of_the_two_heads(self):
        rng = np.random.default_rng(15)
        l1, l2 = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)
        w = rng.uniform(1.0, 2.0, size=4)
        pair = losses.pair_cross_entropy(l1, l2, labels, w).item()
        ce1 = losses.cross_entropy(l1, labels, w).item()
        ce2 = losses.cross_entropy(l2, labels, w).item()
        assert pair == 0.5 * (ce1 + ce2)
        same = losses.pair_cross_entropy(l1, l1, labels).item()
        assert abs(same - losses.cross_entropy(l1, labels).item()) < 1e-15


class TestEntropyWeight:
    def test_one_hot_gives_two(self):
        assert losses.entropy_weights([[0.0, 1.0, 0.0]])[0] == pytest.approx(2.0)

    def test_uniform_four_classes(self):
        assert losses.entropy_weights([[0.25] * 4])[0] == pytest.approx(1.25, abs=1e-12)

    def test_frozen_oracle_value(self):
        # direct evaluation of 1 + exp(-H([0.7, 0.2, 0.1]))
        assert losses.entropy_weights([[0.7, 0.2, 0.1]])[0] == pytest.approx(
            1.4485125783319455, abs=1e-5
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            losses.entropy_weights([[0.5, 0.6]])
        with pytest.raises(ContractError):
            losses.entropy_weights([[-0.1, 1.1]])
        with pytest.raises(ContractError):  # one bad row among good ones
            losses.entropy_weights([[0.5, 0.5], [0.5, 0.6], [1.0, 0.0]])

    def test_rows_are_weighted_independently(self):
        rows = random_probs(np.random.default_rng(14), 6, 4)
        each = [losses.entropy_weights([row])[0] for row in rows]
        np.testing.assert_array_equal(losses.entropy_weights(rows), each)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8))
    def test_range_and_monotonicity(self, raw):
        p = np.array(raw) / np.sum(raw)
        w = losses.entropy_weights([p])[0]
        assert 1.0 < w <= 2.0
        # mixing towards uniform increases entropy, so the weight must drop
        mixed = 0.5 * p + 0.5 / len(p)
        assert losses.entropy_weights([mixed])[0] <= w + 1e-12


class TestWeightedCrossEntropy:
    def _logits_pseudo(self, rng, b=3, k=3, weights=None):
        logits = rng.normal(size=(b, k))
        labels = rng.integers(0, k, size=b).astype(np.int64)
        if weights is None:
            weights = rng.uniform(1.0, 2.0, size=b)
        pseudo = PseudoLabelSet(labels, np.asarray(weights, float), np.zeros(b))
        return Tensor(logits), pseudo

    def test_unit_weights_equal_plain_ce(self):
        rng = np.random.default_rng(5)
        logits, pseudo = self._logits_pseudo(rng, weights=[1.0, 1.0, 1.0])
        a = losses.cross_entropy(logits, pseudo.labels, pseudo.weights).item()
        b = losses.cross_entropy(logits, pseudo.labels).item()
        assert abs(a - b) < 1e-12

    def test_weight_two_doubles(self):
        rng = np.random.default_rng(6)
        logits, pseudo = self._logits_pseudo(rng, weights=[2.0, 2.0, 2.0])
        a = losses.cross_entropy(logits, pseudo.labels, pseudo.weights).item()
        b = losses.cross_entropy(logits, pseudo.labels).item()
        assert abs(a - 2.0 * b) < 1e-12

    def test_mixed_weights_hand_sum(self):
        rng = np.random.default_rng(7)
        logits, pseudo = self._logits_pseudo(rng, weights=[1.1, 1.5, 1.9])
        lv = logits.values
        p = np.exp(lv) / np.exp(lv).sum(axis=1, keepdims=True)
        ce = -np.log(p[np.arange(3), pseudo.labels])
        ref = float(np.sum(pseudo.weights * ce) / 3.0)
        val = losses.cross_entropy(logits, pseudo.labels, pseudo.weights).item()
        assert abs(val - ref) < 1e-12

    def test_coverage_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        logits, pseudo = self._logits_pseudo(rng)
        with pytest.raises(ContractError):
            losses.cross_entropy(logits, pseudo.labels[:2], pseudo.weights[:2])


class TestL1Discrepancy:
    def test_equal_inputs_zero(self):
        p = Tensor(random_probs(np.random.default_rng(9), 4, 3))
        assert losses.l1_discrepancy(p, p).item() == 0.0

    def test_opposite_one_hots(self):
        val = losses.l1_discrepancy(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])).item()
        assert abs(val - 1.0) < 1e-15

    def test_matches_elementwise_reference(self):
        rng = np.random.default_rng(10)
        a, b = random_probs(rng, 5, 4), random_probs(rng, 5, 4)
        ref = float(np.mean(np.abs(a - b)))
        assert abs(losses.l1_discrepancy(Tensor(a), Tensor(b)).item() - ref) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_probs(rng, 3, 4), random_probs(rng, 3, 4)
        d_ab = losses.l1_discrepancy(Tensor(a), Tensor(b)).item()
        d_ba = losses.l1_discrepancy(Tensor(b), Tensor(a)).item()
        assert abs(d_ab - d_ba) < 1e-15
        assert 0.0 <= d_ab <= 2.0


class TestClassBalance:
    def test_uniform_mean_is_zero(self):
        p = Tensor(np.full((4, 3), 1.0 / 3))
        assert abs(losses.class_balance_loss(p, p).item()) < 1e-12

    def test_point_mass_is_lnk(self):
        p = Tensor(np.tile([1.0, 0.0, 0.0], (4, 1)))
        val = losses.class_balance_loss(p, p).item()
        assert abs(val - np.log(3)) < 1e-12

    def test_frozen_oracle_value(self):
        # ln 3 - H([0.5, 0.25, 0.25]), direct entropy evaluation
        p = Tensor(np.tile([0.5, 0.25, 0.25], (2, 1)))
        val = losses.class_balance_loss(p, p).item()
        assert val == pytest.approx(0.05889151782819191, abs=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_probs(rng, 4, 5), random_probs(rng, 4, 5)
        assert losses.class_balance_loss(Tensor(a), Tensor(b)).item() >= 0.0


class TestLossGradients:
    """Gradients of every loss w.r.t. logits match finite differences."""

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(11)
        logits = Tensor(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)

        def loss():
            return losses.cross_entropy(logits, labels)

        auto = backward(loss(), [logits])[logits].values
        ref = finite_difference_gradient(loss, [logits])[0]
        assert np.max(np.abs(auto - ref) / np.maximum(np.abs(ref), 1e-2)) < 1e-4

    def test_weighted_ce_gradient(self):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.normal(size=(4, 3)))
        pseudo = PseudoLabelSet(
            rng.integers(0, 3, size=4).astype(np.int64),
            rng.uniform(1.0, 2.0, size=4),
            np.zeros(4),
        )

        def loss():
            return losses.cross_entropy(logits, pseudo.labels, pseudo.weights)

        auto = backward(loss(), [logits])[logits].values
        ref = finite_difference_gradient(loss, [logits])[0]
        assert np.max(np.abs(auto - ref) / np.maximum(np.abs(ref), 1e-2)) < 1e-4

    def test_discrepancy_and_balance_gradients(self):
        rng = np.random.default_rng(13)
        za = Tensor(rng.normal(size=(3, 4)))
        zb = Tensor(rng.normal(size=(3, 4)))

        def dis():
            return losses.l1_discrepancy(softmax(za), softmax(zb))

        def bal():
            return losses.class_balance_loss(softmax(za), softmax(zb))

        for loss in (dis, bal):
            auto = backward(loss(), [za, zb])
            ref = finite_difference_gradient(loss, [za, zb])
            for t, r in zip((za, zb), ref):
                err = np.max(np.abs(auto[t].values - r) / np.maximum(np.abs(r), 1e-2))
                assert err < 1e-4
