"""Loss semantics: frozen oracle values, bounds, and gradient checks."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdm import nn
from cgdm.checks import finite_difference_gradient
from cgdm.data import DomainSet
from cgdm.pseudo_labels import PseudoLabelSet, entropy_weights
from cgdm.tensor import (
    ContractError,
    ShapeError,
    Targets,
    Tensor,
    backward,
    balance_gap,
    log_softmax,
    mean_abs_difference,
    softmax_pair_cross_entropy,
)

from compositions import softmax, softmax_cross_entropy

LN2 = np.log(2.0)


def cross_entropy_of(logits, labels, weights=None):
    """The cross-entropy of ``logits`` for ``labels``, through its targets."""
    return softmax_cross_entropy(log_softmax(logits),
                                 Targets.of(labels, logits.shape[1], weights))


def source_loss(gen, pair, batch):
    """Mean of the two heads' cross-entropies on a labeled batch."""
    return softmax_pair_cross_entropy(
        log_softmax(nn.forward(pair, nn.forward(gen, Tensor(batch.features)))),
        Targets.of(batch.labels, pair.out_dim))


def pair_of(a, b):
    """Two heads' b-by-K arrays as the pair's stacked tensor."""
    return Tensor(np.stack([a, b]))


def random_probs(rng, b, k):
    p = rng.uniform(0.05, 1.0, size=(b, k))
    return p / p.sum(axis=1, keepdims=True)


class TestCrossEntropy:
    def test_uniform_two_class(self):
        for label in (0, 1):
            val = cross_entropy_of(Tensor([[0.0, 0.0]]), [label]).item()
            assert abs(val - LN2) < 1e-12

    def test_saturated_confidence(self):
        val = cross_entropy_of(Tensor([[10.0, -10.0]]), [0]).item()
        assert val < 1e-4

    def test_matches_direct_per_sample_formula(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        # independent direct evaluation
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        ref = float(np.mean(-np.log(p[np.arange(6), labels])))
        val = cross_entropy_of(Tensor(logits), labels).item()
        assert abs(val - ref) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy_of(Tensor([[0.0, 0.0]]), [2])

    def test_nonnegative_and_lnk_at_uniform(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            b = int(rng.integers(1, 5))
            logits = rng.normal(size=(b, k))
            labels = rng.integers(0, k, size=b)
            assert cross_entropy_of(Tensor(logits), labels).item() >= 0.0
            uniform = cross_entropy_of(Tensor(np.zeros((b, k))), labels).item()
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
        both = source_loss(gen, nn.stack([f1, f2]), batch).item()
        feats = nn.forward(gen, Tensor(batch.features))
        single = cross_entropy_of(nn.forward(f1, feats), batch.labels).item()
        assert abs(both - single) < 1e-12

    def test_uniform_outputs_give_lnk(self):
        rng = np.random.default_rng(3)
        gen = nn.init_mlp([3, 4], seed=0, final_activation="relu")
        pair = nn.stack([nn.init_mlp([4, 4], seed=1), nn.init_mlp([4, 4], seed=2)])
        pair.layers[0].weight.values[:] = 0.0
        pair.layers[0].bias.values[:] = 0.0
        batch = self._batch(rng, k=4)
        val = source_loss(gen, pair, batch).item()
        assert abs(val - np.log(4)) < 1e-12

    def test_equals_mean_of_componentwise(self):
        rng = np.random.default_rng(4)
        gen = nn.init_mlp([3, 4], seed=5, final_activation="relu")
        f1 = nn.init_mlp([4, 3], seed=6)
        f2 = nn.init_mlp([4, 3], seed=7)
        batch = self._batch(rng)
        combined = source_loss(gen, nn.stack([f1, f2]), batch).item()
        feats = nn.forward(gen, Tensor(batch.features))
        ce1 = cross_entropy_of(nn.forward(f1, feats), batch.labels).item()
        ce2 = cross_entropy_of(nn.forward(f2, feats), batch.labels).item()
        assert abs(combined - 0.5 * (ce1 + ce2)) < 1e-12

    def test_unlabeled_batch_rejected(self):
        gen = nn.init_mlp([3, 4], seed=0)
        pair = nn.stack([nn.init_mlp([4, 3], seed=1), nn.init_mlp([4, 3], seed=2)])
        batch = DomainSet(np.zeros((2, 3)), None, "target")
        with pytest.raises(ContractError):
            source_loss(gen, pair, batch)
        with pytest.raises(ContractError):  # a log-softmax, not the logits
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), Targets.of([0, 1], 3))


class TestPairCrossEntropy:
    def test_mean_of_the_two_heads(self):
        rng = np.random.default_rng(15)
        l1, l2 = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)
        w = rng.uniform(1.0, 2.0, size=4)
        pair = softmax_pair_cross_entropy(log_softmax(pair_of(l1.values, l2.values)),
                                          Targets.of(labels, 3, w)).item()
        ce1 = cross_entropy_of(l1, labels, w).item()
        ce2 = cross_entropy_of(l2, labels, w).item()
        assert pair == 0.5 * (ce1 + ce2)
        same = softmax_pair_cross_entropy(log_softmax(pair_of(l1.values, l1.values)),
                                          Targets.of(labels, 3)).item()
        assert abs(same - cross_entropy_of(l1, labels).item()) < 1e-15


class TestTargets:
    def test_encoding_of_labels_and_weights(self):
        t = Targets.of([2, 0, 2], 3, [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(t.onehot, np.eye(3)[[2, 0, 2]])
        assert t.groups == 1 and t.classes is None
        plain = Targets.of([1, 0], 2)
        np.testing.assert_array_equal(plain.weights, [1.0, 1.0])
        for targets in (plain, t, t.by_class()):
            b = targets.labels.size
            assert targets.scale.shape == (b, 1)
            assert targets.scale.tobytes() == (targets.weights / b)[:, None].tobytes()

    def test_by_class_weights_each_row_by_its_class_mean(self):
        t = Targets.of([2, 0, 2, 1], 3, [1.0, 2.0, 4.0, 8.0]).by_class()
        np.testing.assert_array_equal(t.weights, [1.0 * 2, 2.0 * 4, 4.0 * 2, 8.0 * 4])
        np.testing.assert_array_equal(t.scale[:, 0], t.weights / 4)

    def test_joined_rows_keep_their_own_encoding(self):
        """The joint rows of two batches: each part's rows in turn, each
        scaled by its own batch size."""
        a = Targets.of([2, 0, 2], 3, [1.0, 2.0, 4.0])
        b = Targets.of([1, 1], 3)
        t = Targets.joined((a, b), 2, (1,))
        np.testing.assert_array_equal(t.labels, [2, 0, 2, 1, 1])
        np.testing.assert_array_equal(t.onehot, np.eye(3)[[2, 0, 2, 1, 1]])
        assert t.scale.tobytes() == np.concatenate([a.scale, b.scale]).tobytes()
        assert t.groups == 2 and t.classes == (1,)

    @pytest.mark.parametrize("labels, weights", [
        (None, None), ([[0, 1]], None), ([0, 3], None), ([-1, 0], None), ([0, 1], [1.0]),
    ], ids=["unlabeled", "2-D", "too_large", "negative", "weight_count"])
    def test_bad_labels_rejected(self, labels, weights):
        with pytest.raises(ContractError):
            Targets.of(labels, 3, weights)


class TestEntropyWeight:
    def test_one_hot_gives_two(self):
        assert entropy_weights([[0.0, 1.0, 0.0]])[0] == pytest.approx(2.0)

    def test_uniform_four_classes(self):
        assert entropy_weights([[0.25] * 4])[0] == pytest.approx(1.25, abs=1e-12)

    def test_frozen_oracle_value(self):
        # direct evaluation of 1 + exp(-H([0.7, 0.2, 0.1]))
        assert entropy_weights([[0.7, 0.2, 0.1]])[0] == pytest.approx(
            1.4485125783319455, abs=1e-5
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            entropy_weights([[0.5, 0.6]])
        with pytest.raises(ContractError):
            entropy_weights([[-0.1, 1.1]])
        with pytest.raises(ContractError):  # one bad row among good ones
            entropy_weights([[0.5, 0.5], [0.5, 0.6], [1.0, 0.0]])

    def test_rows_are_weighted_independently(self):
        rows = random_probs(np.random.default_rng(14), 6, 4)
        each = [entropy_weights([row])[0] for row in rows]
        np.testing.assert_array_equal(entropy_weights(rows), each)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8))
    def test_range_and_monotonicity(self, raw):
        p = np.array(raw) / np.sum(raw)
        w = entropy_weights([p])[0]
        assert 1.0 < w <= 2.0
        # mixing towards uniform increases entropy, so the weight must drop
        mixed = 0.5 * p + 0.5 / len(p)
        assert entropy_weights([mixed])[0] <= w + 1e-12


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
        a = cross_entropy_of(logits, pseudo.labels, pseudo.weights).item()
        b = cross_entropy_of(logits, pseudo.labels).item()
        assert abs(a - b) < 1e-12

    def test_weight_two_doubles(self):
        rng = np.random.default_rng(6)
        logits, pseudo = self._logits_pseudo(rng, weights=[2.0, 2.0, 2.0])
        a = cross_entropy_of(logits, pseudo.labels, pseudo.weights).item()
        b = cross_entropy_of(logits, pseudo.labels).item()
        assert abs(a - 2.0 * b) < 1e-12

    def test_mixed_weights_hand_sum(self):
        rng = np.random.default_rng(7)
        logits, pseudo = self._logits_pseudo(rng, weights=[1.1, 1.5, 1.9])
        lv = logits.values
        p = np.exp(lv) / np.exp(lv).sum(axis=1, keepdims=True)
        ce = -np.log(p[np.arange(3), pseudo.labels])
        ref = float(np.sum(pseudo.weights * ce) / 3.0)
        val = cross_entropy_of(logits, pseudo.labels, pseudo.weights).item()
        assert abs(val - ref) < 1e-12

    def test_coverage_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        logits, pseudo = self._logits_pseudo(rng)
        with pytest.raises(ContractError):
            cross_entropy_of(logits, pseudo.labels[:2], pseudo.weights[:2])


class TestL1Discrepancy:
    def test_equal_inputs_zero(self):
        p = random_probs(np.random.default_rng(9), 4, 3)
        assert mean_abs_difference(pair_of(p, p)).item() == 0.0

    def test_opposite_one_hots(self):
        val = mean_abs_difference(pair_of([[1.0, 0.0]], [[0.0, 1.0]])).item()
        assert abs(val - 1.0) < 1e-15

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4, 3), (2, 12)])
    def test_anything_but_a_stacked_pair_rejected(self, shape):
        p = Tensor(np.full(shape, 0.25))
        with pytest.raises(ShapeError):
            mean_abs_difference(p)
        with pytest.raises(ShapeError):
            balance_gap(p)

    def test_matches_elementwise_reference(self):
        rng = np.random.default_rng(10)
        a, b = random_probs(rng, 5, 4), random_probs(rng, 5, 4)
        ref = float(np.mean(np.abs(a - b)))
        assert abs(mean_abs_difference(pair_of(a, b)).item() - ref) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_probs(rng, 3, 4), random_probs(rng, 3, 4)
        d_ab = mean_abs_difference(pair_of(a, b)).item()
        d_ba = mean_abs_difference(pair_of(b, a)).item()
        assert abs(d_ab - d_ba) < 1e-15
        assert 0.0 <= d_ab <= 2.0


class TestClassBalance:
    def test_uniform_mean_is_zero(self):
        p = np.full((4, 3), 1.0 / 3)
        assert abs(balance_gap(pair_of(p, p)).item()) < 1e-12

    def test_point_mass_is_lnk(self):
        p = np.tile([1.0, 0.0, 0.0], (4, 1))
        val = balance_gap(pair_of(p, p)).item()
        assert abs(val - np.log(3)) < 1e-12

    def test_frozen_oracle_value(self):
        # ln 3 - H([0.5, 0.25, 0.25]), direct entropy evaluation
        p = np.tile([0.5, 0.25, 0.25], (2, 1))
        val = balance_gap(pair_of(p, p)).item()
        assert val == pytest.approx(0.05889151782819191, abs=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_probs(rng, 4, 5), random_probs(rng, 4, 5)
        assert balance_gap(pair_of(a, b)).item() >= 0.0


class TestLossGradients:
    """Gradients of every loss w.r.t. logits match finite differences."""

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(11)
        logits = Tensor(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)

        def loss():
            return cross_entropy_of(logits, labels)

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
            return cross_entropy_of(logits, pseudo.labels, pseudo.weights)

        auto = backward(loss(), [logits])[logits].values
        ref = finite_difference_gradient(loss, [logits])[0]
        assert np.max(np.abs(auto - ref) / np.maximum(np.abs(ref), 1e-2)) < 1e-4

    def test_discrepancy_and_balance_gradients(self):
        rng = np.random.default_rng(13)
        z = pair_of(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

        def dis():
            return mean_abs_difference(softmax(z))

        def bal():
            return balance_gap(softmax(z))

        for loss in (dis, bal):
            auto = backward(loss(), [z])[z].values
            ref = finite_difference_gradient(loss, [z])[0]
            err = np.max(np.abs(auto - ref) / np.maximum(np.abs(ref), 1e-2))
            assert err < 1e-4
