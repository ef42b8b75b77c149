"""Weighted centroids, cosine assignment, and the per-epoch labeling pass."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdm import nn, pseudo_labels as pl
from cgdm.data import DomainSet, make_shifted_blobs
from cgdm.tensor import ContractError, Tensor, no_grad
from cgdm.trainer import TrainConfig, evaluate, train


def one_hot(rows, k):
    out = np.zeros((len(rows), k))
    out[np.arange(len(rows)), rows] = 1.0
    return out


class TestCentroids:
    def test_single_sample_all_centroids_equal_it(self):
        feats = np.array([[2.0, 1.0, 0.5]])
        p1 = np.array([[0.6, 0.4]])
        p2 = np.array([[0.3, 0.7]])
        cs = pl.compute_centroids(feats, p1, p2)
        for k in range(2):
            np.testing.assert_allclose(cs.centroids[k], feats[0], atol=1e-12)

    def test_two_one_hot_samples(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = one_hot([0, 1], 2)
        cs = pl.compute_centroids(feats, probs, probs)
        np.testing.assert_allclose(cs.centroids[0], feats[0], atol=1e-12)
        np.testing.assert_allclose(cs.centroids[1], feats[1], atol=1e-12)

    def test_soft_probs_hand_computed(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(3, 2))
        p1 = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        p2 = np.array([[0.6, 0.4], [0.1, 0.9], [0.4, 0.6]])
        cs = pl.compute_centroids(feats, p1, p2)
        w = p1 + p2
        for k in range(2):
            ref = (w[:, k][:, None] * feats).sum(axis=0) / w[:, k].sum()
            np.testing.assert_allclose(cs.centroids[k], ref, atol=1e-12)

    def test_support_mass_sums_to_two_n(self):
        rng = np.random.default_rng(1)
        n = 17
        feats = rng.normal(size=(n, 4))
        p1 = rng.dirichlet(np.ones(3), size=n)
        p2 = rng.dirichlet(np.ones(3), size=n)
        cs = pl.compute_centroids(feats, p1, p2)
        assert abs(cs.support_mass.sum() - 2 * n) < 1e-6

    def test_empty_support_borrows_strongest_sample(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        # all mass on class 0; class 1 empty
        p = np.array([[1.0, 0.0], [0.6, 0.0]])
        cs = pl.compute_centroids(feats, p, p)
        assert np.all(np.isfinite(cs.centroids))
        np.testing.assert_allclose(cs.centroids[1], feats[0])  # argmax row 0


class TestCosineDistance:
    def test_self_distance_zero(self):
        v = np.array([[1.0, 2.0, -3.0]])
        assert pl.cosine_distances(v, v)[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_opposite_is_two(self):
        v = np.array([[1.0, 2.0, -3.0]])
        assert pl.cosine_distances(v, -v)[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_orthogonal_is_one(self):
        assert pl.cosine_distances([[1.0, 0.0]], [[0.0, 1.0]])[0, 0] == pytest.approx(1.0)

    def test_matrix_holds_every_row_centroid_pair(self):
        rng = np.random.default_rng(3)
        feats, cents = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        dist = pl.cosine_distances(feats, cents)
        assert dist.shape == (5, 4)
        for i, j in np.ndindex(dist.shape):
            u, v = feats[i], cents[j]
            cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            assert dist[i, j] == pytest.approx(1.0 - cos, abs=1e-12)


class TestAssignment:
    def test_exact_centroid_match(self):
        cents = pl.CentroidSet(np.eye(3), np.ones(3))
        feats = np.array([[0.0, 2.0, 0.0]])  # aligned with centroid 1
        probs = np.full((1, 3), 1.0 / 3)
        out = pl.assign_pseudo_labels(feats, cents, probs, probs)
        assert out.labels[0] == 1
        assert out.distances[0] == pytest.approx(0.0, abs=1e-9)

    def test_all_centroids_identical_tie_goes_to_class_zero(self):
        cents = pl.CentroidSet(np.tile([1.0, 1.0], (3, 1)), np.ones(3))
        feats = np.random.default_rng(2).normal(size=(5, 2))
        probs = np.full((5, 3), 1.0 / 3)
        out = pl.assign_pseudo_labels(feats, cents, probs, probs)
        assert np.all(out.labels == 0)

    def test_two_separated_clusters_high_agreement(self):
        # sigma=0.1 clusters at distance 5; correct-majority probabilities
        rng = np.random.default_rng(3)
        c0, c1 = np.array([5.0, 0.0]), np.array([0.0, 5.0])
        feats = np.vstack(
            [c0 + 0.1 * rng.normal(size=(50, 2)), c1 + 0.1 * rng.normal(size=(50, 2))]
        )
        truth = np.array([0] * 50 + [1] * 50)
        probs = np.where(truth[:, None] == 0, [0.8, 0.2], [0.2, 0.8])
        cents = pl.compute_centroids(feats, probs, probs)
        out = pl.assign_pseudo_labels(feats, cents, probs, probs)
        agreement = np.mean(out.labels == truth)
        assert agreement >= 0.98

    def test_rescaling_features_keeps_assignment(self):
        rng = np.random.default_rng(4)
        feats = rng.uniform(0.1, 2.0, size=(8, 3))
        probs = rng.dirichlet(np.ones(3), size=8)
        cents = pl.compute_centroids(feats, probs, probs)
        base = pl.assign_pseudo_labels(feats, cents, probs, probs)
        scales = rng.uniform(0.5, 10.0, size=(8, 1))
        scaled = pl.assign_pseudo_labels(feats * scales, cents, probs, probs)
        np.testing.assert_array_equal(base.labels, scaled.labels)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_weights_in_range_and_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(6, 3))
        probs1 = rng.dirichlet(np.ones(4), size=6)
        probs2 = rng.dirichlet(np.ones(4), size=6)
        cents = pl.compute_centroids(feats, probs1, probs2)
        a = pl.assign_pseudo_labels(feats, cents, probs1, probs2)
        b = pl.assign_pseudo_labels(feats, cents, probs1, probs2)
        assert np.all((a.weights > 1.0) & (a.weights <= 2.0))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.distances, b.distances)


class TestEpochPass:
    def _perfect_setup(self):
        # identity generator and saturated classifiers on two separated blobs
        gen = nn.init_mlp([2, 2], seed=0)
        gen.layers[0].weight.values[:] = np.eye(2)
        clf = nn.init_mlp([2, 2], seed=1)
        clf.layers[0].weight.values[:] = 10.0 * np.eye(2)
        clf.layers[0].bias.values[:] = 0.0
        import copy

        f2 = copy.deepcopy(clf)
        rng = np.random.default_rng(5)
        x = np.vstack(
            [[3.0, 0.2] + 0.1 * rng.normal(size=(20, 2)),
             [0.2, 3.0] + 0.1 * rng.normal(size=(20, 2))]
        )
        y = np.array([0] * 20 + [1] * 20)
        return gen, clf, f2, DomainSet(x, y, "target")

    def test_pretrained_model_labels_perfectly(self):
        gen, f1, f2, tgt = self._perfect_setup()
        pseudo = pl.pseudo_label_epoch(pl.predict(gen, f1, f2, tgt.features))
        assert np.array_equal(pseudo.labels, tgt.labels)

    def test_duplicate_samples_get_identical_labels(self):
        gen, f1, f2, tgt = self._perfect_setup()
        x = np.vstack([tgt.features[:5], tgt.features[:5]])
        pseudo = pl.pseudo_label_epoch(pl.predict(gen, f1, f2, x))
        np.testing.assert_array_equal(pseudo.labels[:5], pseudo.labels[5:])
        np.testing.assert_array_equal(pseudo.weights[:5], pseudo.weights[5:])

    def test_empty_target_rejected(self):
        gen, f1, f2, _ = self._perfect_setup()
        with pytest.raises(ContractError):
            pl.predict(gen, f1, f2, np.zeros((0, 2)))

    def test_clustering_beats_argmax_after_warmup(self):
        # harness-level oracle: compare to the plain argmax baseline per seed
        for seed in (0, 1):
            src, tgt = make_shifted_blobs(4, 8, 5.0, 3.0, 1.0, 125, seed)
            cfg = TrainConfig(
                epochs=3, warmup_epochs=0, seed=seed, enable_adversarial=False,
                alpha=0.0, beta=0.0, class_balance_weight=0.0,
            )
            _, model = train(src, tgt, cfg)
            prediction = pl.predict(
                model.generator, model.classifier1, model.classifier2, tgt.features
            )
            pseudo = pl.pseudo_label_epoch(prediction)
            cluster_acc = float(np.mean(pseudo.labels == tgt.labels))
            argmax_acc = evaluate(prediction, tgt.labels)
            assert cluster_acc >= argmax_acc - 0.01

    def test_csv_export(self, tmp_path):
        gen, f1, f2, tgt = self._perfect_setup()
        pseudo = pl.pseudo_label_epoch(pl.predict(gen, f1, f2, tgt.features))
        path = tmp_path / "pseudo.csv"
        pl.save_pseudo_csv(pseudo, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,pseudo_label,weight,distance"
        assert len(lines) == tgt.n + 1


def one_pass_predict(gen, f1, f2, features):
    """The definition :func:`pl.predict` keeps: one no-grad forward of the
    whole set at once."""
    with no_grad():
        feats = nn.forward(gen, Tensor(features))
        return (feats.values, pl.softmax_rows(nn.forward(f1, feats)),
                pl.softmax_rows(nn.forward(f2, feats)))


class TestBlockedPredict:
    """The full-set pass runs in blocks into preallocated arrays."""

    @staticmethod
    def nets():
        """The shapes of the benchmark's wide workload."""
        gen = nn.init_mlp([64, 256, 128], seed=1, final_activation="relu")
        return gen, nn.init_mlp([128, 128, 8], seed=2), nn.init_mlp([128, 128, 8], seed=3)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_equals_one_pass_bit_for_bit(self, n):
        gen, f1, f2 = self.nets()
        x = np.random.default_rng(n).normal(size=(n, 64))
        for got, want in zip(pl.predict(gen, f1, f2, x), one_pass_predict(gen, f1, f2, x)):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_peak_memory_is_bounded_by_the_results(self):
        gen, f1, f2 = self.nets()
        x = np.random.default_rng(0).normal(size=(4000, 64))
        tracemalloc.start()
        try:
            result = pl.predict(gen, f1, f2, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result_bytes = sum(a.nbytes for a in result)
        assert result_bytes == 4000 * (128 + 8 + 8) * 8
        assert peak < 1.5 * result_bytes
