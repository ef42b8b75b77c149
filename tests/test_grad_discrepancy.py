"""Class-gradient matrices, the cosine alignment loss, and their oracles."""
import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdm import grad_discrepancy as gd
from cgdm import losses, nn, checks
from cgdm.pseudo_labels import PseudoLabelSet
from cgdm import tensor as T
from cgdm.tensor import ContractError, ShapeError, Tensor, backward


def tiny_models(seed=0, d_in=2, d_feat=3, k=2):
    rng = np.random.default_rng(seed)
    gen = nn.init_mlp([d_in, d_feat], int(rng.integers(2**31)), final_activation="relu")
    f1 = nn.init_mlp([d_feat, k], int(rng.integers(2**31)))
    f2 = nn.init_mlp([d_feat, k], int(rng.integers(2**31)))
    return gen, f1, f2


def feats(gen, x):
    return nn.forward(gen, Tensor(np.asarray(x, dtype=np.float64)))


def logits(gen, f1, f2, x):
    """Both heads' logits on the generator features of ``x``."""
    h = feats(gen, x)
    return nn.forward(f1, h), nn.forward(f2, h)


def log_probs(out):
    """The log-softmax of each head's logits."""
    return tuple(T.log_softmax(z) for z in out)


def alignment_args(out_s, ys, out_t, pseudo, classes=None):
    """``class_gradients``' (source, target) arguments on both heads' logits
    of each domain, whole-batch or by ``classes``."""
    k = out_s[0].shape[1]
    ts = losses.Targets.of(ys, k)
    tt = losses.Targets.of(pseudo.labels, k, pseudo.weights)
    if classes is not None:
        ts, tt = ts.by_class(classes), tt.by_class(classes)
    return (log_probs(out_s), ts), (log_probs(out_t), tt)


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
        g = gd.source_gradient(f1, f2, *logits(gen, f1, f2, np.eye(2)), [0, 1])
        assert np.linalg.norm(g.values) < 1e-6

    def test_duplicated_batch_same_gradient(self):
        gen, f1, f2 = tiny_models(3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 2, size=3)
        base = gd.source_gradient(f1, f2, *logits(gen, f1, f2, x), y).values
        doubled = gd.source_gradient(
            f1, f2, *logits(gen, f1, f2, np.vstack([x, x])), np.concatenate([y, y])
        ).values
        np.testing.assert_allclose(doubled, base, atol=1e-12)

    def test_permutation_invariance(self):
        gen, f1, f2 = tiny_models(5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 2, size=5)
        perm = rng.permutation(5)
        a = gd.source_gradient(f1, f2, *logits(gen, f1, f2, x), y).values
        b = gd.source_gradient(f1, f2, *logits(gen, f1, f2, x[perm]), y[perm])
        b = b.values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_batch_rejected(self):
        gen, f1, f2 = tiny_models(7)
        with pytest.raises(ContractError):
            gd.source_gradient(
                f1, f2, *logits(gen, f1, f2, np.zeros((0, 2))), np.zeros(0, int)
            )

    def test_length_is_classifier_param_count(self):
        gen, f1, f2 = tiny_models(8)
        g = gd.source_gradient(f1, f2, *logits(gen, f1, f2, np.ones((2, 2))), [0, 1])
        expected = sum(p.size for p in gd.classifier_parameters(f1, f2))
        assert g.shape == (1, expected)


class TestTargetGradient:
    def test_reduces_to_source_gradient(self):
        gen, f1, f2 = tiny_models(9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4).astype(np.int64)
        pseudo = PseudoLabelSet(y, np.ones(4), np.zeros(4))
        gs = gd.source_gradient(f1, f2, *logits(gen, f1, f2, x), y).values
        gt = gd.target_gradient(f1, f2, *logits(gen, f1, f2, x), pseudo).values
        np.testing.assert_array_equal(gs, gt)

    def test_weight_scaling_linearity(self):
        gen, f1, f2 = tiny_models(11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4).astype(np.int64)
        w = rng.uniform(1.0, 2.0, size=4)
        base = gd.target_gradient(
            f1, f2, *logits(gen, f1, f2, x), PseudoLabelSet(y, w, np.zeros(4))
        ).values
        scaled = gd.target_gradient(
            f1, f2, *logits(gen, f1, f2, x), PseudoLabelSet(y, 3.0 * w, np.zeros(4))
        ).values
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_missing_pseudo_rejected(self):
        gen, f1, f2 = tiny_models(13)
        pseudo = PseudoLabelSet(np.zeros(2, np.int64), np.ones(2), np.zeros(2))
        with pytest.raises(ContractError):
            gd.target_gradient(f1, f2, *logits(gen, f1, f2, np.ones((3, 2))), pseudo)


class TestDiscrepancyLoss:
    def test_equal_vectors_zero(self):
        g = Tensor(np.array([[1.0, -2.0, 0.5]]))
        assert gd.gradient_discrepancy_loss(g, g).item() < 1e-9

    def test_orthogonal_is_one(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        b = Tensor(np.array([[0.0, 1.0]]))
        assert gd.gradient_discrepancy_loss(a, b).item() == pytest.approx(1.0)

    def test_opposite_is_two(self):
        g = Tensor(np.array([[1.0, -2.0, 0.5]]))
        neg = Tensor(-g.values)
        assert gd.gradient_discrepancy_loss(g, neg).item() == pytest.approx(2.0, abs=1e-9)

    def test_zero_norm_guard(self):
        z = Tensor(np.zeros((1, 3)))
        g = Tensor(np.array([[1.0, 2.0, 3.0]]))
        out = gd.gradient_discrepancy_loss(z, g)
        assert out.item() == 0.0
        assert out.parents == ()  # constant, no gradient signal

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            gd.gradient_discrepancy_loss(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))

    def test_vectors_rejected(self):
        g = Tensor(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError):
            gd.gradient_discrepancy_loss(g, g)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 100.0))
    def test_scale_invariance_symmetry_bounds(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(1, 6)))
        b = Tensor(rng.normal(size=(1, 6)))
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

    @pytest.mark.parametrize("seed", range(3))
    def test_parameter_backward_reference_matches_the_oracle(self, seed):
        """The reference definition, ``source_gradient`` (unit weights) and
        ``target_gradient`` (entropy weights), against the closed form."""
        gen, f1, f2 = tiny_models(90 + seed, k=3)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 3, size=5)
        w = rng.uniform(1.0, 2.0, size=5)
        h = feats(gen, x).values
        out = logits(gen, f1, f2, x)
        for got, weights in ((gd.source_gradient(f1, f2, *out, y), np.ones(5)),
                             (gd.target_gradient(f1, f2, *out,
                                                 PseudoLabelSet(y, w, np.zeros(5))), w)):
            want = 0.5 * np.concatenate([
                part.reshape(-1) for clf in (f1, f2)
                for part in checks.linear_head_gradient_oracle(
                    h, y, weights, clf.layers[0].weight.values, clf.layers[0].bias.values)
            ])
            np.testing.assert_allclose(got.values, want[None, :], rtol=0, atol=1e-12)


def per_class_reforward_loss(gen, f1, f2, xs, ys, xt, pseudo):
    """The conditional loss as first defined: every shared class re-forwards
    its own source and target rows through the generator, and takes both
    domains' one-row :func:`~cgdm.grad_discrepancy.class_gradients` on them."""
    shared = sorted(set(ys.tolist()) & set(pseudo.labels.tolist()))
    total = None
    for k in shared:
        s_rows = np.flatnonzero(ys == k)
        t_rows = np.flatnonzero(pseudo.labels == k)
        term = gd.gradient_discrepancy_loss(*gd.class_gradients(f1, f2, *alignment_args(
            logits(gen, f1, f2, xs[s_rows]), ys[s_rows],
            logits(gen, f1, f2, xt[t_rows]), pseudo.take(t_rows))))
        total = term if total is None else T.add(total, term)
    return T.mul(total, 1.0 / len(shared))


def conditional_loss(gen, f1, f2, xs, ys, xt, pseudo):
    """The conditional loss with one forward per domain, rows as given."""
    (ls_s, ts), (ls_t, tt) = alignment_args(
        logits(gen, f1, f2, xs), ys, logits(gen, f1, f2, xt), pseudo)
    ts, tt = gd.by_shared_class(ts, tt)
    return gd.conditional_gradient_loss(f1, f2, (ls_s, ts), (ls_t, tt))


def class_sorted_loss(gen, f1, f2, xs, ys, xt, pseudo):
    """The conditional loss on class-sorted batches."""
    s_order = np.argsort(ys, kind="stable")
    t_order = np.argsort(pseudo.labels, kind="stable")
    return conditional_loss(gen, f1, f2, xs[s_order], ys[s_order], xt[t_order],
                            pseudo.take(t_order))


def hidden_models(seed, d_in=3, d_feat=4, hidden=(5,), k=3):
    """A generator and two heads with the ``hidden`` relu layers each."""
    rng = np.random.default_rng(seed)
    gen = nn.init_mlp([d_in, d_feat], int(rng.integers(2**31)), final_activation="relu")
    f1 = nn.init_mlp([d_feat, *hidden, k], int(rng.integers(2**31)))
    f2 = nn.init_mlp([d_feat, *hidden, k], int(rng.integers(2**31)))
    return gen, f1, f2


def unsorted_case(seed, target_classes=3, zero_weight_class=None, **shape):
    """Unsorted source rows of classes 0-2 and target rows pseudo-labelled
    from ``range(target_classes)``; one class's pseudo weights can be 0,
    which makes its target gradient exactly 0.  ``shape`` goes to
    :func:`hidden_models`."""
    gen, f1, f2 = hidden_models(60 + seed, **shape)
    rng = np.random.default_rng(seed)
    xs, xt = rng.normal(size=(10, 3)), rng.normal(size=(9, 3))
    ys = rng.permutation(np.arange(10) % 3)
    pl = rng.permutation(np.arange(9) % target_classes)
    w = rng.uniform(1.0, 2.0, size=9)
    if zero_weight_class is not None:
        w[pl == zero_weight_class] = 0.0
    return gen, f1, f2, xs, ys, xt, PseudoLabelSet(pl, w, np.zeros(9))


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
        gen, f1, f2 = tiny_models(seed, k=3)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(6, 2))
        y = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        return gen, f1, f2, x, y

    def test_identical_batches_single_class_zero(self):
        gen, f1, f2, x, y = self._setup()
        rows = y == 1
        pseudo = PseudoLabelSet(y[rows], np.ones(rows.sum()), np.zeros(rows.sum()))
        val = conditional_loss(gen, f1, f2, x[rows], y[rows], x[rows], pseudo).item()
        assert val < 1e-9

    def test_no_shared_classes_warns_and_returns_zero(self, caplog):
        gen, f1, f2, x, y = self._setup()
        pseudo = PseudoLabelSet(np.array([1, 1], np.int64), np.ones(2), np.zeros(2))
        with caplog.at_level(logging.WARNING):
            out = conditional_loss(gen, f1, f2, x[:2], np.array([0, 0]), x[2:4], pseudo)
        assert out.item() == 0.0
        assert any("no shared classes" in r.message for r in caplog.records)

    def test_whole_batch_targets_rejected(self):
        gen, f1, f2, x, y = self._setup()
        pseudo = PseudoLabelSet(y, np.ones(6), np.zeros(6))
        with pytest.raises(ContractError):
            gd.conditional_gradient_loss(f1, f2, *alignment_args(
                logits(gen, f1, f2, x), y, logits(gen, f1, f2, x), pseudo))

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
            gs = gd.source_gradient(
                f1, f2, *logits(gen, f1, f2, xs[s_rows]), ys[s_rows]
            )
            gt = gd.target_gradient(
                f1, f2, *logits(gen, f1, f2, xt[t_rows]), pseudo.take(t_rows)
            )
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
        assert np.any(np.diff(args[4]) < 0)  # the source rows are not sorted
        want = per_class_reforward_loss(*args)
        got = conditional_loss(*args)
        assert abs(got.item() - want.item()) < 1e-12
        for g_got, g_want in zip(generator_gradients(got, gen),
                                 generator_gradients(want, gen)):
            np.testing.assert_allclose(g_got, g_want, rtol=0, atol=1e-12)


class TestClassGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_equal_domain_gradients_on_each_class(self, seed):
        gen, f1, f2, xs, ys, xt, pseudo = unsorted_case(seed)
        classes = np.array([0, 2])
        gs, gt = gd.class_gradients(f1, f2, *alignment_args(
            logits(gen, f1, f2, xs), ys, logits(gen, f1, f2, xt), pseudo, classes))
        n_params = sum(p.size for p in gd.classifier_parameters(f1, f2))
        assert gs.shape == gt.shape == (2, n_params)
        for r, k in enumerate(classes):
            s_rows = np.flatnonzero(ys == k)
            t_rows = np.flatnonzero(pseudo.labels == k)
            want_s = gd.source_gradient(f1, f2, *logits(gen, f1, f2, xs[s_rows]), ys[s_rows])
            want_t = gd.target_gradient(f1, f2, *logits(gen, f1, f2, xt[t_rows]),
                                        pseudo.take(t_rows))
            np.testing.assert_allclose(gs.values[r], want_s.values[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(gt.values[r], want_t.values[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("classes", [None, np.array([0, 2])], ids=["one_row", "per_class"])
    def test_one_domain_gives_its_class_gradients_matrix(self, classes):
        gen, f1, f2, xs, ys, xt, pseudo = unsorted_case(0)
        out_s, out_t = logits(gen, f1, f2, xs), logits(gen, f1, f2, xt)
        gs, gt = gd.class_gradients(f1, f2, *alignment_args(out_s, ys, out_t, pseudo,
                                                            classes))
        assert gs.shape[0] == gt.shape[0] == (1 if classes is None else 2)
        np.testing.assert_array_equal(
            gd.source_gradient(f1, f2, *out_s, ys, classes).values, gs.values)
        np.testing.assert_array_equal(
            gd.target_gradient(f1, f2, *out_t, pseudo, classes).values, gt.values)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_row_is_bit_identical_with_the_two_backward_definition(self, seed):
        gen, f1, f2, xs, ys, xt, pseudo = unsorted_case(seed)
        out_s, out_t = logits(gen, f1, f2, xs), logits(gen, f1, f2, xt)
        gs, gt = gd.class_gradients(f1, f2, *alignment_args(out_s, ys, out_t, pseudo))
        want_s = gd.source_gradient(f1, f2, *out_s, ys)
        want_t = gd.target_gradient(f1, f2, *out_t, pseudo)
        np.testing.assert_array_equal(gs.values, want_s.values)
        np.testing.assert_array_equal(gt.values, want_t.values)
        assert (gd.gradient_discrepancy_loss(gs, gt).item()
                == gd.gradient_discrepancy_loss(want_s, want_t).item())

    def test_targets_of_another_class_count_rejected(self):
        """One-class targets would broadcast against 3 logits columns."""
        gen, f1, f2, xs, ys, xt, pseudo = unsorted_case(0)
        out = logits(gen, f1, f2, xs)
        targets = losses.Targets.of(np.zeros(ys.size, int), 1)
        with pytest.raises(ShapeError, match="do not match log-softmax"):
            gd.class_gradients(f1, f2, (log_probs(out), targets), (log_probs(out), targets))

    def test_zero_row_counts_in_the_mean(self):
        gs = Tensor(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        gt = Tensor(np.array([[0.0, 1.0], [3.0, 4.0], [1.0, 1.0]]))
        out = gd.gradient_discrepancy_loss(gs, gt)
        assert out.item() == pytest.approx((1.0 + 0.0 + 0.0) / 3, abs=1e-12)
        grads = backward(out, [gs])
        np.testing.assert_array_equal(grads[gs].values[1], [0.0, 0.0])

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
        norms = [T.pow_const(T.tsum(T.mul(g, g), axis=1), 0.5) for g in (a, b)]
        cos = T.mul(T.tsum(T.mul(a, b), axis=1),
                    T.pow_const(T.add(T.mul(*norms), gd.EPS), -1.0))
        want = T.mul(T.tsum(T.sub(1.0, cos)), 1.0 / 3)
        got = gd.gradient_discrepancy_loss(gs, gt)
        assert got.item() == want.item()
        g_got, g_want = backward(got, [gs, gt]), backward(want, [gs, gt])
        for t in (gs, gt):
            assert g_got[t].values.tobytes() == g_want[t].values.tobytes()

    def test_all_zero_rows_give_a_constant_zero(self):
        z = Tensor(np.zeros((2, 3)))
        out = gd.gradient_discrepancy_loss(z, Tensor(np.ones((2, 3))))
        assert out.item() == 0.0 and out.parents == ()


def deep_case(seed):
    """:func:`unsorted_case` with heads ``[5, 4, 4, 3]``: two hidden relu
    layers, whose masks each hold some 0s and some 1s."""
    case = unsorted_case(seed, d_feat=5, hidden=(4, 4))
    gen, f1, f2, xs = case[:4]
    with T.no_grad():
        for f in (f1, f2):
            h = feats(gen, xs)
            for layer in f.layers[:-1]:
                h = T.linear(h, layer.weight, layer.bias, relu=True)
                assert 0.0 < np.mean(h.values > 0.0) < 1.0
    return case


def op_counts(root):
    """How many nodes of each op the graph of ``root`` holds."""
    return Counter(node.op for node in T._reachable(root) if node.op)


class TestDeepHeads:
    """The recorded head recurrence on heads with two hidden layers."""

    @pytest.mark.parametrize("classes", [None, np.array([0, 1, 2])],
                             ids=["one_row", "per_class"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matrices_equal_the_parameter_backward_definition(self, seed, classes):
        gen, f1, f2, xs, ys, xt, pseudo = deep_case(seed)
        out_s, out_t = logits(gen, f1, f2, xs), logits(gen, f1, f2, xt)
        gs, gt = gd.class_gradients(f1, f2, *alignment_args(out_s, ys, out_t, pseudo,
                                                            classes))
        np.testing.assert_array_equal(
            gs.values, gd.source_gradient(f1, f2, *out_s, ys, classes).values)
        np.testing.assert_array_equal(
            gt.values, gd.target_gradient(f1, f2, *out_t, pseudo, classes).values)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_the_parameter_backward_on_each_class(self, seed):
        gen, f1, f2, xs, ys, xt, pseudo = deep_case(seed)
        classes = np.array([0, 1, 2])
        gs, gt = gd.class_gradients(f1, f2, *alignment_args(
            logits(gen, f1, f2, xs), ys, logits(gen, f1, f2, xt), pseudo, classes))
        for r, k in enumerate(classes):
            s_rows, t_rows = np.flatnonzero(ys == k), np.flatnonzero(pseudo.labels == k)
            want_s = gd.source_gradient(f1, f2, *logits(gen, f1, f2, xs[s_rows]), ys[s_rows])
            want_t = gd.target_gradient(f1, f2, *logits(gen, f1, f2, xt[t_rows]),
                                        pseudo.take(t_rows))
            np.testing.assert_allclose(gs.values[r], want_s.values[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(gt.values[r], want_t.values[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_generator_gradient_matches_finite_differences(self, seed):
        """The conditional loss equals that of the definition's matrices, and
        its generator gradient matches central differences."""
        gen, f1, f2, xs, ys, xt, pseudo = deep_case(seed)

        def loss_fn():
            return conditional_loss(gen, f1, f2, xs, ys, xt, pseudo)

        out_s, out_t = logits(gen, f1, f2, xs), logits(gen, f1, f2, xt)
        shared = sorted(set(ys.tolist()) & set(pseudo.labels.tolist()))
        want = gd.gradient_discrepancy_loss(
            gd.source_gradient(f1, f2, *out_s, ys, shared),
            gd.target_gradient(f1, f2, *out_t, pseudo, shared))
        assert loss_fn().item() == want.item()
        assert_generator_gradient_matches_finite_differences(loss_fn, gen)

    def test_plain_generator_gradient_matches_finite_differences(self):
        """The one-row loss, on a case whose relu pre-activations all clear
        the margin, in the generator and in both hidden layers of each head."""
        gen, f1, f2, src, tgt, pseudo = checks._tiny_alignment_case(
            np.random.default_rng(6), clf_dims=(3, 4, 4, 2))
        assert_generator_gradient_matches_finite_differences(
            lambda: gd.gradient_discrepancy_loss(*gd.class_gradients(f1, f2, *alignment_args(
                logits(gen, f1, f2, src.features), src.labels,
                logits(gen, f1, f2, tgt.features), pseudo))), gen)

    def test_conditional_generator_gradient_matches_finite_differences(self):
        """On a case whose relu pre-activations all clear the margin, in the
        generator and in both hidden layers of each head."""
        rng = np.random.default_rng(5)
        while True:  # until both classes are in both batches
            gen, f1, f2, src, tgt, pseudo = checks._tiny_alignment_case(
                rng, clf_dims=(3, 4, 4, 2))
            if {*src.labels} & {*pseudo.labels} == {0, 1}:
                break
        ts, tt = gd.by_shared_class(losses.Targets.of(src.labels, 2),
                                    losses.Targets.of(pseudo.labels, 2, pseudo.weights))

        assert_generator_gradient_matches_finite_differences(
            lambda: gd.conditional_gradient_loss(
                f1, f2, (log_probs(logits(gen, f1, f2, src.features)), ts),
                (log_probs(logits(gen, f1, f2, tgt.features)), tt)), gen)

    @pytest.mark.parametrize("rows, labels", [(0, 0), (4, 3)],
                             ids=["empty_batch", "label_count"])
    def test_batch_checks_of_the_cross_entropy(self, rows, labels):
        gen, f1, f2 = hidden_models(1, d_feat=5, hidden=(4, 4))
        out = logits(gen, f1, f2, np.ones((rows, 3)))
        targets = losses.Targets.of(np.arange(labels) % 3, 3)
        message = ("cross-entropy needs a non-empty batch" if rows == 0
                   else f"{labels} labels for a batch of {rows}")
        with pytest.raises(ContractError, match=message):
            gd.class_gradients(f1, f2, (log_probs(out), targets), (log_probs(out), targets))

    def test_each_hidden_layer_is_masked_once(self):
        """One domain's matrix records one mask ``mul`` per hidden layer and
        head, and no other ``mul``."""
        gen, f1, f2, xs, ys, xt, pseudo = deep_case(0)
        out_s, out_t = logits(gen, f1, f2, xs), logits(gen, f1, f2, xt)
        gs, _ = gd.class_gradients(f1, f2, *alignment_args(out_s, ys, out_t, pseudo))
        assert op_counts(gs)["mul"] == 2 * 2


class TestDoubleBackward:
    def test_alignment_gradient_matches_finite_differences(self):
        result = checks.run_second_order_suite(n_instances=3, seed=88)
        assert result.passed, f"max err {result.max_err}"
