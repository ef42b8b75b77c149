"""Class-gradient matrices, the cosine alignment loss, and their oracles."""
import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdm import grad_discrepancy as gd
from cgdm import nn, checks
from cgdm.pseudo_labels import PseudoLabelSet
from cgdm import tensor as T
from cgdm.tensor import ContractError, ShapeError, Tensor, backward

import compositions as C


def tiny_models(seed=0, d_in=2, d_feat=3, k=2):
    """A generator and a pair of linear heads, stacked from two draws."""
    rng = np.random.default_rng(seed)
    gen = nn.init_mlp([d_in, d_feat], int(rng.integers(2**31)), final_activation="relu")
    pair = nn.stack([nn.init_mlp([d_feat, k], int(rng.integers(2**31))) for _ in range(2)])
    return gen, pair


def feats(gen, x):
    return nn.forward(gen, Tensor(np.asarray(x, dtype=np.float64)))


def logits(gen, pair, x):
    """Both heads' stacked logits on the generator features of ``x``."""
    return nn.forward(pair, feats(gen, x))


def log_probs(out):
    """The log-softmax of both heads' stacked logits."""
    return T.log_softmax(out)


def joint_logits(gen, pair, xs, xt):
    """Both heads' stacked logits on the joint generator features of ``xs``
    and ``xt``, the source rows over the target rows, as step 3 makes them."""
    return nn.forward(pair, C.concat([feats(gen, xs), feats(gen, xt)]))


def alignment_args(out, ys, pseudo, by_class=False):
    """``class_gradients``' (log-softmax, targets) on both heads' joint
    logits, whole-batch or by shared class."""
    k = out.shape[-1]
    return log_probs(out), gd.alignment_targets(
        T.Targets.of(ys, k), T.Targets.of(pseudo.labels, k, pseudo.weights),
        by_class)


def halves(g):
    """The source rows and the target rows of a joint class-gradient matrix."""
    rows = g.shape[0] // 2
    return g.values[:rows], g.values[rows:]


def discrepancy(gs, gt):
    """The alignment loss of the source rows ``gs`` over the target rows
    ``gt``."""
    return gd.gradient_discrepancy_loss(Tensor(np.concatenate([gs, gt])))


class TestSourceGradient:
    def test_stationary_point_has_tiny_norm(self):
        # identity generator, saturated linear heads, matched labels
        gen = nn.init_mlp([2, 2], seed=0)
        gen.layers[0].weight.values[:] = np.eye(2)
        pair = nn.stack([nn.init_mlp([2, 2], seed=1), nn.init_mlp([2, 2], seed=2)])
        pair.layers[0].weight.values[:] = 25.0 * np.eye(2)
        pair.layers[0].bias.values[:] = 0.0
        g = gd.source_gradient(pair, logits(gen, pair, np.eye(2)), [0, 1])
        assert np.linalg.norm(g.values) < 1e-6

    def test_duplicated_batch_same_gradient(self):
        gen, pair = tiny_models(3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 2, size=3)
        base = gd.source_gradient(pair, logits(gen, pair, x), y).values
        doubled = gd.source_gradient(
            pair, logits(gen, pair, np.vstack([x, x])), np.concatenate([y, y])
        ).values
        np.testing.assert_allclose(doubled, base, atol=1e-12)

    def test_permutation_invariance(self):
        gen, pair = tiny_models(5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 2, size=5)
        perm = rng.permutation(5)
        a = gd.source_gradient(pair, logits(gen, pair, x), y).values
        b = gd.source_gradient(pair, logits(gen, pair, x[perm]), y[perm])
        b = b.values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_batch_rejected(self):
        gen, pair = tiny_models(7)
        with pytest.raises(ContractError):
            gd.source_gradient(
                pair, logits(gen, pair, np.zeros((0, 2))), np.zeros(0, int)
            )

    def test_length_is_classifier_param_count(self):
        gen, pair = tiny_models(8)
        g = gd.source_gradient(pair, logits(gen, pair, np.ones((2, 2))), [0, 1])
        expected = sum(p.size for p in pair.parameters())
        assert g.shape == (1, expected)


class TestTargetGradient:
    def test_reduces_to_source_gradient(self):
        gen, pair = tiny_models(9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4).astype(np.int64)
        pseudo = PseudoLabelSet(y, np.ones(4), np.zeros(4))
        gs = gd.source_gradient(pair, logits(gen, pair, x), y).values
        gt = gd.target_gradient(pair, logits(gen, pair, x), pseudo).values
        np.testing.assert_array_equal(gs, gt)

    def test_weight_scaling_linearity(self):
        gen, pair = tiny_models(11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4).astype(np.int64)
        w = rng.uniform(1.0, 2.0, size=4)
        base = gd.target_gradient(
            pair, logits(gen, pair, x), PseudoLabelSet(y, w, np.zeros(4))
        ).values
        scaled = gd.target_gradient(
            pair, logits(gen, pair, x), PseudoLabelSet(y, 3.0 * w, np.zeros(4))
        ).values
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_missing_pseudo_rejected(self):
        gen, pair = tiny_models(13)
        pseudo = PseudoLabelSet(np.zeros(2, np.int64), np.ones(2), np.zeros(2))
        with pytest.raises(ContractError):
            gd.target_gradient(pair, logits(gen, pair, np.ones((3, 2))), pseudo)


class TestDiscrepancyLoss:
    def test_equal_vectors_zero(self):
        g = np.array([[1.0, -2.0, 0.5]])
        assert discrepancy(g, g).item() < 1e-9

    def test_orthogonal_is_one(self):
        assert discrepancy(np.array([[1.0, 0.0]]),
                           np.array([[0.0, 1.0]])).item() == pytest.approx(1.0)

    def test_opposite_is_two(self):
        g = np.array([[1.0, -2.0, 0.5]])
        assert discrepancy(g, -g).item() == pytest.approx(2.0, abs=1e-9)

    def test_zero_norm_guard(self):
        out = discrepancy(np.zeros((1, 3)), np.array([[1.0, 2.0, 3.0]]))
        assert out.item() == 0.0
        assert out.parents == ()  # constant, no gradient signal

    def test_length_mismatch(self):
        """Source rows over as many target rows: an odd row count is refused."""
        with pytest.raises(ShapeError):
            gd.gradient_discrepancy_loss(Tensor(np.zeros((3, 4))))

    def test_vectors_rejected(self):
        with pytest.raises(ShapeError):
            gd.gradient_discrepancy_loss(Tensor(np.array([1.0, 2.0, 3.0, 4.0])))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 100.0))
    def test_scale_invariance_symmetry_bounds(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(1, 6))
        b = rng.normal(size=(1, 6))
        loss_ab = discrepancy(a, b).item()
        loss_ba = discrepancy(b, a).item()
        assert abs(loss_ab - loss_ba) < 1e-12
        assert 0.0 <= loss_ab <= 2.0 + 1e-9
        scaled = discrepancy(a, scale * a).item()
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

    @pytest.mark.parametrize("seed", range(3))
    def test_parameter_backward_reference_matches_the_oracle(self, seed):
        """The reference definition, ``source_gradient`` (unit weights) and
        ``target_gradient`` (entropy weights), against the closed form."""
        gen, pair = tiny_models(90 + seed, k=3)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 3, size=5)
        w = rng.uniform(1.0, 2.0, size=5)
        h = feats(gen, x).values
        out = logits(gen, pair, x)
        for got, weights in ((gd.source_gradient(pair, out, y), np.ones(5)),
                             (gd.target_gradient(pair, out,
                                                 PseudoLabelSet(y, w, np.zeros(5))), w)):
            layer = pair.layers[0]
            want = 0.5 * np.concatenate([
                part.reshape(-1) for head in range(2)
                for part in checks.linear_head_gradient_oracle(
                    h, y, weights, layer.weight.values[head], layer.bias.values[head])
            ])
            np.testing.assert_allclose(got.values, want[None, :], rtol=0, atol=1e-12)


def per_class_reforward_loss(gen, pair, xs, ys, xt, pseudo):
    """The conditional loss as first defined: every shared class re-forwards
    its own source and target rows through the generator, each domain on
    its own, and takes each domain's one-row
    :func:`~cgdm.grad_discrepancy.class_gradients` on them."""
    shared = sorted(set(ys.tolist()) & set(pseudo.labels.tolist()))
    total = None
    for k in shared:
        s_rows = np.flatnonzero(ys == k)
        t_rows = np.flatnonzero(pseudo.labels == k)
        out_s, out_t = logits(gen, pair, xs[s_rows]), logits(gen, pair, xt[t_rows])
        n = out_s.shape[-1]
        gs = gd.class_gradients(pair, log_probs(out_s), T.Targets.of(ys[s_rows], n))
        gt = gd.class_gradients(pair, log_probs(out_t), T.Targets.of(
            pseudo.labels[t_rows], n, pseudo.weights[t_rows]))
        term = gd.gradient_discrepancy_loss(C.concat([gs, gt]))
        total = term if total is None else T.add(total, term)
    return T.mul(total, 1.0 / len(shared))


def conditional_loss(gen, pair, xs, ys, xt, pseudo):
    """The conditional loss with one generator forward per domain and one
    classifier forward of the joint rows, rows as given."""
    return gd.conditional_gradient_loss(pair, *alignment_args(
        joint_logits(gen, pair, xs, xt), ys, pseudo, by_class=True))


def class_sorted_loss(gen, pair, xs, ys, xt, pseudo):
    """The conditional loss on class-sorted batches."""
    s_order = np.argsort(ys, kind="stable")
    t_order = np.argsort(pseudo.labels, kind="stable")
    return conditional_loss(gen, pair, xs[s_order], ys[s_order], xt[t_order],
                            pseudo.take(t_order))


def hidden_models(seed, d_in=3, d_feat=4, hidden=(5,), k=3):
    """A generator and a pair of heads with the ``hidden`` relu layers each."""
    rng = np.random.default_rng(seed)
    gen = nn.init_mlp([d_in, d_feat], int(rng.integers(2**31)), final_activation="relu")
    pair = nn.stack([nn.init_mlp([d_feat, *hidden, k], int(rng.integers(2**31)))
                     for _ in range(2)])
    return gen, pair


def unsorted_case(seed, target_classes=3, zero_weight_class=None, **shape):
    """9 unsorted source rows of classes 0-2 and 9 target rows
    pseudo-labelled from ``range(target_classes)``; one class's pseudo
    weights can be 0, which makes its target gradient exactly 0.  ``shape``
    goes to :func:`hidden_models`."""
    gen, pair = hidden_models(60 + seed, **shape)
    rng = np.random.default_rng(seed)
    xs, xt = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
    ys = rng.permutation(np.arange(9) % 3)
    pl = rng.permutation(np.arange(9) % target_classes)
    w = rng.uniform(1.0, 2.0, size=9)
    if zero_weight_class is not None:
        w[pl == zero_weight_class] = 0.0
    return gen, pair, xs, ys, xt, PseudoLabelSet(pl, w, np.zeros(9))


def generator_gradients(loss, gen):
    grads = backward(loss, gen.parameters())
    return [grads[p].values for p in gen.parameters()]


def assert_generator_gradient_matches_finite_differences(loss_fn, gen):
    """The alignment loss's double-backward generator gradient against central
    differences of ``loss_fn``, at ``cgdm gradcheck``'s tolerance."""
    params = gen.parameters()
    auto = backward(loss_fn(), params)
    fd = checks.finite_difference_gradient(loss_fn, params)
    for p, ref in zip(params, fd):
        assert checks._rel_err(auto[p].values, ref, floor=1e-5) < 1e-3


class TestConditional:
    def _setup(self, seed=20):
        gen, pair = tiny_models(seed, k=3)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(6, 2))
        y = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        return gen, pair, x, y

    def test_identical_batches_single_class_zero(self):
        gen, pair, x, y = self._setup()
        rows = y == 1
        pseudo = PseudoLabelSet(y[rows], np.ones(rows.sum()), np.zeros(rows.sum()))
        val = conditional_loss(gen, pair, x[rows], y[rows], x[rows], pseudo).item()
        assert val < 1e-9

    def test_no_shared_classes_warns_and_returns_zero(self, caplog):
        """The targets warn once, when they are made; the loss, read once per
        step-3 repeat, is a constant 0 and warns no more."""
        gen, pair, x, y = self._setup()
        pseudo = PseudoLabelSet(np.array([1, 1], np.int64), np.ones(2), np.zeros(2))
        with caplog.at_level(logging.WARNING):
            args = alignment_args(joint_logits(gen, pair, x[:2], x[2:4]),
                                  np.array([0, 0]), pseudo, by_class=True)
            outs = [gd.conditional_gradient_loss(pair, *args) for _ in range(3)]
        assert [out.item() for out in outs] == [0.0] * 3
        assert all(out.op is None for out in outs)
        assert ["no shared classes" in r.message for r in caplog.records] == [True]

    def test_whole_batch_targets_rejected(self):
        gen, pair, x, y = self._setup()
        pseudo = PseudoLabelSet(y, np.ones(6), np.zeros(6))
        with pytest.raises(ContractError):
            gd.conditional_gradient_loss(pair, *alignment_args(
                joint_logits(gen, pair, x, x), y, pseudo))

    @pytest.mark.parametrize("by_class", [False, True], ids=["one_row", "per_class"])
    def test_batches_of_unequal_size_rejected(self, by_class):
        """A joint batch is as many target rows as source rows, as in
        training: 3 source rows over 2 target rows are refused."""
        source = T.Targets.of([0, 1, 1], 2)
        target = T.Targets.of([1, 0], 2, [1.5, 1.2])
        with pytest.raises(ContractError, match="a joint batch of 3 source and 2 target rows"):
            gd.alignment_targets(source, target, by_class)

    def test_two_shared_classes_average_of_per_class_losses(self):
        gen, pair, x, y = self._setup(30)
        rng = np.random.default_rng(31)
        xs, ys = x[:4], y[:4]  # classes 0 and 1
        xt = rng.normal(size=(4, 2))
        pl = np.array([0, 1, 0, 1], dtype=np.int64)
        w = rng.uniform(1.0, 2.0, size=4)
        pseudo = PseudoLabelSet(pl, w, np.zeros(4))
        combined = class_sorted_loss(gen, pair, xs, ys, xt, pseudo).item()
        # recompute each class's loss independently
        per_class = []
        for k in (0, 1):
            s_rows = np.flatnonzero(ys == k)
            t_rows = np.flatnonzero(pl == k)
            gs = gd.source_gradient(
                pair, logits(gen, pair, xs[s_rows]), ys[s_rows]
            )
            gt = gd.target_gradient(
                pair, logits(gen, pair, xt[t_rows]), pseudo.take(t_rows)
            )
            per_class.append(discrepancy(gs.values, gt.values).item())
        assert abs(combined - float(np.mean(per_class))) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_class_sorted_equals_per_class_reforward(self, seed):
        gen, pair = tiny_models(40 + seed, d_in=3, d_feat=4, k=3)
        rng = np.random.default_rng(seed)
        xs, xt = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
        ys = rng.integers(0, 3, size=9)
        pseudo = PseudoLabelSet(
            rng.integers(0, 3, size=9), rng.uniform(1.0, 2.0, size=9), np.zeros(9)
        )
        args = (gen, pair, xs, ys, xt, pseudo)
        want = per_class_reforward_loss(*args)
        got = class_sorted_loss(*args)
        assert abs(got.item() - want.item()) < 1e-12
        for g_got, g_want in zip(generator_gradients(got, gen),
                                 generator_gradients(want, gen)):
            np.testing.assert_allclose(g_got, g_want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", [
        dict(),
        dict(target_classes=2),  # class 2 is in the source batch only
        dict(zero_weight_class=1),  # class 1's target gradient is exactly 0
    ], ids=["all_shared", "one_domain_only", "zero_gradient"])
    @pytest.mark.parametrize("seed", range(3))
    def test_unsorted_rows_equal_per_class_reforward(self, seed, case):
        args = unsorted_case(seed, **case)
        gen = args[0]
        assert np.any(np.diff(args[3]) < 0)  # the source rows are not sorted
        want = per_class_reforward_loss(*args)
        got = conditional_loss(*args)
        assert abs(got.item() - want.item()) < 1e-12
        for g_got, g_want in zip(generator_gradients(got, gen),
                                 generator_gradients(want, gen)):
            np.testing.assert_allclose(g_got, g_want, rtol=0, atol=1e-12)


def per_class_rows(gen, pair, xs, ys, xt, pseudo, classes):
    """For each class, the definition's source and target rows on that
    class's rows alone, each domain forwarded on its own."""
    for k in classes:
        s_rows = np.flatnonzero(ys == k)
        t_rows = np.flatnonzero(pseudo.labels == k)
        yield (gd.source_gradient(pair, logits(gen, pair, xs[s_rows]), ys[s_rows]).values[0],
               gd.target_gradient(pair, logits(gen, pair, xt[t_rows]),
                                  pseudo.take(t_rows)).values[0])


class TestClassGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_equal_domain_gradients_on_each_class(self, seed):
        """Classes 0 and 1 are shared; the source rows of class 2 are in no
        group.  Row r of each half is its domain's gradient on class r."""
        gen, pair, xs, ys, xt, pseudo = unsorted_case(seed, target_classes=2)
        g = gd.class_gradients(pair, *alignment_args(
            joint_logits(gen, pair, xs, xt), ys, pseudo, by_class=True))
        gs, gt = halves(g)
        n_params = sum(p.size for p in pair.parameters())
        assert gs.shape == gt.shape == (2, n_params)
        for r, (want_s, want_t) in enumerate(per_class_rows(gen, pair, xs, ys, xt, pseudo,
                                                            (0, 1))):
            np.testing.assert_allclose(gs[r], want_s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gt[r], want_t, rtol=0, atol=1e-12)

    def test_a_class_of_one_row(self):
        """A class with one row in each domain, beside classes of several:
        its rows are that row's gradients."""
        gen, pair = hidden_models(64)
        rng = np.random.default_rng(64)
        xs, xt = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        ys = np.array([1, 0, 2, 0, 1, 0, 1])
        pseudo = PseudoLabelSet(np.array([0, 1, 1, 0, 2, 1, 0]), rng.uniform(1.0, 2.0, 7),
                                np.zeros(7))
        g = gd.class_gradients(pair, *alignment_args(
            joint_logits(gen, pair, xs, xt), ys, pseudo, by_class=True))
        for r, want in enumerate(per_class_rows(gen, pair, xs, ys, xt, pseudo, (0, 1, 2))):
            for got, one in zip(halves(g), want):
                np.testing.assert_allclose(got[r], one, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("by_class", [False, True], ids=["one_row", "per_class"])
    def test_one_domain_gives_its_class_gradients_matrix(self, by_class):
        """Each half of the joint matrix is its domain's matrix by the
        definition, on the domain's own forward."""
        gen, pair, xs, ys, xt, pseudo = unsorted_case(0, target_classes=2)
        g = gd.class_gradients(pair, *alignment_args(
            joint_logits(gen, pair, xs, xt), ys, pseudo, by_class))
        classes = [0, 1] if by_class else None
        gs, gt = halves(g)
        assert gs.shape[0] == gt.shape[0] == (2 if by_class else 1)
        np.testing.assert_array_equal(
            gd.source_gradient(pair, logits(gen, pair, xs), ys, classes).values, gs)
        np.testing.assert_array_equal(
            gd.target_gradient(pair, logits(gen, pair, xt), pseudo, classes).values, gt)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_row_is_bit_identical_with_the_two_backward_definition(self, seed):
        gen, pair, xs, ys, xt, pseudo = unsorted_case(seed)
        g = gd.class_gradients(pair, *alignment_args(joint_logits(gen, pair, xs, xt), ys,
                                                     pseudo))
        want_s = gd.source_gradient(pair, logits(gen, pair, xs), ys).values
        want_t = gd.target_gradient(pair, logits(gen, pair, xt), pseudo).values
        gs, gt = halves(g)
        np.testing.assert_array_equal(gs, want_s)
        np.testing.assert_array_equal(gt, want_t)
        assert (gd.gradient_discrepancy_loss(g).item()
                == discrepancy(want_s, want_t).item())

    @pytest.mark.parametrize("by_class", [False, True], ids=["one_row", "per_class"])
    def test_equal_batches_are_the_two_halves_of_the_rows(self, by_class):
        """Batches of one size are grouped as the two halves of the joint
        rows (a reshaped view), by class as a padded index: both give the
        definition's matrices bit for bit."""
        gen, pair, xs, ys, xt, pseudo = unsorted_case(1)
        args = alignment_args(joint_logits(gen, pair, xs, xt), ys, pseudo, by_class)
        assert (args[1].groups == 2) is not by_class
        classes = [0, 1, 2] if by_class else None
        gs, gt = halves(gd.class_gradients(pair, *args))
        np.testing.assert_array_equal(
            gd.source_gradient(pair, logits(gen, pair, xs), ys, classes).values, gs)
        np.testing.assert_array_equal(
            gd.target_gradient(pair, logits(gen, pair, xt), pseudo, classes).values, gt)

    def test_targets_of_another_class_count_rejected(self):
        """One-class targets would broadcast against 3 logits columns."""
        gen, pair, xs, ys, xt, pseudo = unsorted_case(0)
        out = logits(gen, pair, xs)
        targets = T.Targets.of(np.zeros(ys.size, int), 1)
        with pytest.raises(ShapeError, match="do not match log-softmax"):
            gd.class_gradients(pair, log_probs(out), targets)

    def test_zero_row_counts_in_the_mean(self):
        g = Tensor(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                             [0.0, 1.0], [3.0, 4.0], [1.0, 1.0]]))
        out = gd.gradient_discrepancy_loss(g)
        assert out.item() == pytest.approx((1.0 + 0.0 + 0.0) / 3, abs=1e-12)
        grads = backward(out, [g])
        np.testing.assert_array_equal(grads[g].values[[1, 4]], np.zeros((2, 2)))

    @pytest.mark.parametrize("dead", [None, 0, 2])
    def test_loss_is_the_composition_it_fuses(self, dead):
        """The loss as it was composed before ``cosine_rows`` (norms, row dot
        products, a division), over the same live rows: bit-equal value and
        gradients, with a dead row selected away or none."""
        rng = np.random.default_rng(7)
        gs, gt = Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(3, 6)))
        if dead is not None:
            gs.values[dead] = 0.0
        live = [r for r in range(3) if r != dead]
        a, b = (T.matmul(np.eye(3)[live], g) if dead is not None else g for g in (gs, gt))
        norms = [C.pow_const(C.tsum(T.mul(g, g), axis=1), 0.5) for g in (a, b)]
        cos = T.mul(C.tsum(T.mul(a, b), axis=1),
                    C.pow_const(T.add(T.mul(*norms), T.COSINE_EPS), -1.0))
        want = T.mul(C.tsum(C.sub(1.0, cos)), 1.0 / 3)
        got = gd.gradient_discrepancy_loss(C.concat([gs, gt]))
        assert got.item() == want.item()
        g_got, g_want = backward(got, [gs, gt]), backward(want, [gs, gt])
        for t in (gs, gt):
            assert g_got[t].values.tobytes() == g_want[t].values.tobytes()

    def test_all_zero_rows_give_a_constant_zero(self):
        out = discrepancy(np.zeros((2, 3)), np.ones((2, 3)))
        assert out.item() == 0.0 and out.parents == ()


def deep_case(seed):
    """:func:`unsorted_case` with heads ``[5, 4, 4, 3]``: two hidden relu
    layers, whose masks each hold some 0s and some 1s."""
    case = unsorted_case(seed, d_feat=5, hidden=(4, 4))
    gen, pair, xs = case[:3]
    with T.no_grad():
        h = feats(gen, xs)
        for layer in pair.layers[:-1]:
            h = T.linear(h, layer.weight, layer.bias, relu=True)
            for head in h.values:
                assert 0.0 < np.mean(head > 0.0) < 1.0
    return case


def op_counts(root):
    """How many nodes of each op the graph of ``root`` holds."""
    return Counter(node.op for node in T._reachable(root) if node.op)


class TestDeepHeads:
    """The recorded head recurrence on heads with two hidden layers."""

    @pytest.mark.parametrize("classes", [None, [0, 1, 2]], ids=["one_row", "per_class"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matrices_equal_the_parameter_backward_definition(self, seed, classes):
        gen, pair, xs, ys, xt, pseudo = deep_case(seed)
        gs, gt = halves(gd.class_gradients(pair, *alignment_args(
            joint_logits(gen, pair, xs, xt), ys, pseudo, classes is not None)))
        np.testing.assert_array_equal(
            gs, gd.source_gradient(pair, logits(gen, pair, xs), ys, classes).values)
        np.testing.assert_array_equal(
            gt, gd.target_gradient(pair, logits(gen, pair, xt), pseudo, classes).values)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_the_parameter_backward_on_each_class(self, seed):
        gen, pair, xs, ys, xt, pseudo = deep_case(seed)
        gs, gt = halves(gd.class_gradients(pair, *alignment_args(
            joint_logits(gen, pair, xs, xt), ys, pseudo, by_class=True)))
        for r, (want_s, want_t) in enumerate(per_class_rows(gen, pair, xs, ys, xt, pseudo,
                                                            (0, 1, 2))):
            np.testing.assert_allclose(gs[r], want_s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gt[r], want_t, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_generator_gradient_matches_finite_differences(self, seed):
        """The conditional loss equals that of the definition's matrices, and
        its generator gradient matches central differences."""
        gen, pair, xs, ys, xt, pseudo = deep_case(seed)

        def loss_fn():
            return conditional_loss(gen, pair, xs, ys, xt, pseudo)

        out_s, out_t = logits(gen, pair, xs), logits(gen, pair, xt)
        shared = sorted(set(ys.tolist()) & set(pseudo.labels.tolist()))
        want = discrepancy(gd.source_gradient(pair, out_s, ys, shared).values,
                           gd.target_gradient(pair, out_t, pseudo, shared).values)
        assert loss_fn().item() == want.item()
        assert_generator_gradient_matches_finite_differences(loss_fn, gen)

    def test_plain_generator_gradient_matches_finite_differences(self):
        """The one-row loss, on a case whose relu pre-activations all clear
        the margin, in the generator and in both hidden layers of each head."""
        gen, pair, x, source, target = checks._tiny_alignment_case(
            np.random.default_rng(6), clf_dims=(3, 4, 4, 2))
        assert_generator_gradient_matches_finite_differences(
            lambda: gd.gradient_discrepancy_loss(gd.class_gradients(
                pair, log_probs(joint_logits(gen, pair, x[:3], x[3:])),
                gd.alignment_targets(source, target))), gen)

    def test_conditional_generator_gradient_matches_finite_differences(self):
        """On a case whose relu pre-activations all clear the margin, in the
        generator and in both hidden layers of each head."""
        rng = np.random.default_rng(5)
        while True:  # until both classes are in both batches
            gen, pair, x, source, target = checks._tiny_alignment_case(
                rng, clf_dims=(3, 4, 4, 2))
            if {*source.labels} & {*target.labels} == {0, 1}:
                break
        assert_generator_gradient_matches_finite_differences(
            lambda: gd.conditional_gradient_loss(
                pair, log_probs(joint_logits(gen, pair, x[:3], x[3:])),
                gd.alignment_targets(source, target, by_class=True)), gen)

    @pytest.mark.parametrize("rows, labels", [(0, 0), (4, 3)],
                             ids=["empty_batch", "label_count"])
    def test_batch_checks_of_the_cross_entropy(self, rows, labels):
        gen, pair = hidden_models(1, d_feat=5, hidden=(4, 4))
        out = logits(gen, pair, np.ones((rows, 3)))
        targets = T.Targets.of(np.arange(labels) % 3, 3)
        message = ("cross-entropy needs a non-empty batch" if rows == 0
                   else f"{labels} labels for a batch of {rows}")
        with pytest.raises(ContractError, match=message):
            gd.class_gradients(pair, log_probs(out), targets)

    def test_each_hidden_layer_is_masked_once(self):
        """The joint matrix records one ``relu_mask`` node per hidden layer,
        for both heads and both domains, and no ``mul``."""
        gen, pair, xs, ys, xt, pseudo = deep_case(0)
        g = gd.class_gradients(pair, *alignment_args(joint_logits(gen, pair, xs, xt), ys,
                                                     pseudo))
        counts = op_counts(g)
        assert counts["relu_mask"] == 2 and counts["mul"] == 0


class TestDoubleBackward:
    def test_alignment_gradient_matches_finite_differences(self):
        result = checks.run_second_order_suite(n_instances=3, seed=88)
        assert result.passed, f"max err {result.max_err}"
