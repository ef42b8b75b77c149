"""Minibatch plans, whole training runs against the committed benchmark
reference trajectories, and the step-3 graph budget."""
import copy
import logging
import math
import os
import platform
import signal
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cgdm import grad_discrepancy, harness, nn, pseudo_labels, tensor, trainer
from cgdm.data import DomainSet
from cgdm.tensor import (
    ContractError,
    Tensor,
    _reachable,
    add,
    backward,
    balance_gap,
    exp,
    log_softmax,
    mean_abs_difference,
    mul,
    no_grad,
    softmax_pair_cross_entropy,
    weighted_sum,
)

from compositions import absolute, concat, softmax, softmax_cross_entropy, sub, tsum

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "bench" / "reference"
LOSS_RTOL = 1e-9  # the benchmark's trajectory tolerance; accuracies are exact
# a joint batch's gradients against one pass per domain: the two sum each
# parameter's cotangent over the rows in another order
GRADIENT_RTOL = 1e-12


def relative_gap(a, b) -> float:
    """``max|a - b| / max|b|``: 0 for equal arrays, inf for a nonzero ``a``
    against an all-zero ``b``."""
    gap, scale = np.max(np.abs(a - b)), np.max(np.abs(b))
    return float(gap / scale) if scale else (math.inf if gap else 0.0)


@contextmanager
def time_limit(seconds):
    """Turn a hang into a failure: raise TimeoutError after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestEpochBatches:
    def test_equal_sized_pairs_cover_the_longer_domain(self):
        plan = trainer.epoch_batches(10, 7, 4, np.random.default_rng(0))
        assert len(plan) == 3
        src = np.concatenate([s for s, _ in plan])
        tgt = np.concatenate([t for _, t in plan])
        assert sorted(src[:10]) == list(range(10))
        assert sorted(tgt[:7]) == list(range(7))

    @pytest.mark.parametrize("n_source, n_target", [(0, 5), (5, 0), (0, None)])
    def test_empty_set_rejected(self, n_source, n_target):
        with time_limit(2.0), pytest.raises(ContractError):
            trainer.epoch_batches(n_source, n_target, 4, np.random.default_rng(0))

    def test_each_stream_is_whole_permutations_in_draw_order(self):
        """The shorter stream recycles whole permutations, cut to the plan,
        with the rng drawn as for their concatenation."""
        rng, again = np.random.default_rng(3), np.random.default_rng(3)
        plan = trainer.epoch_batches(5, 12, 4, rng)
        src = np.concatenate([again.permutation(5) for _ in range(3)])[:12]
        tgt = again.permutation(12)
        assert np.concatenate([s for s, _ in plan]).tobytes() == src.tobytes()
        assert np.concatenate([t for _, t in plan]).tobytes() == tgt.tobytes()
        assert rng.random() == again.random()

    def test_a_plan_too_large_to_allocate_raises_at_once(self):
        """10^15 indices are 8 PB, beyond any address space: MemoryError
        before a single permutation is drawn, so nothing is allocated."""
        with time_limit(2.0), pytest.raises(MemoryError):
            trainer.epoch_batches(16, 16, 10**15, np.random.default_rng(0))


# the benchmark's three workloads (bench/workloads.py) and their variants
WORKLOADS = {
    "moons_gdm": (dict(dataset="two_moons", moons_n=500),
                  dict(batch_size=64, step3_repeats=4), "cgdm_full"),
    "blobs_conditional": (dict(dataset="blobs", blobs_classes=4, blobs_dim=8,
                               blobs_n_per_class=125),
                          dict(batch_size=64, step3_repeats=4, conditional_gdm=True),
                          "cgdm_full"),
    "blobs_wide_first_order": (dict(dataset="blobs", blobs_classes=8, blobs_dim=64,
                                    blobs_n_per_class=500),
                               dict(batch_size=256, generator_hidden=(256,),
                                    feature_dim=128, classifier_hidden=(128,)),
                               "cgdm_wo_gdm"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_epochs_follow_the_reference_trajectory(name):
    """Two adversarial epochs on pool seed 0 reproduce the first rows of the
    committed reference: losses to 1e-9 relative, accuracies exactly."""
    experiment, train, variant = WORKLOADS[name]
    ecfg = harness.ExperimentConfig(train=trainer.TrainConfig(epochs=2, **train),
                                    **experiment)
    source, target = harness.build_datasets(ecfg, 0)
    cfg = harness.variant_config(ecfg.train, variant, 0)
    metrics, _ = trainer.train(source, target, cfg)
    reference = harness.read_metrics_csv(REFERENCE_DIR / f"{name}_seed00.csv")
    want = reference[:cfg.warmup_epochs + cfg.epochs]
    assert len(metrics) == len(want) == 3
    for got, ref in zip(metrics, want):
        assert got.epoch == ref.epoch
        for field in ("loss_cls", "loss_dis", "loss_gd", "loss_cb"):
            a, b = getattr(got, field), getattr(ref, field)
            if math.isnan(b):
                assert math.isnan(a), (got.epoch, field)
            else:
                assert math.isclose(a, b, rel_tol=LOSS_RTOL, abs_tol=0.0), (
                    got.epoch, field, a, b)
        assert got.target_acc == ref.target_acc
        assert got.pseudo_acc == ref.pseudo_acc or (
            math.isnan(got.pseudo_acc) and math.isnan(ref.pseudo_acc))


@pytest.mark.parametrize("labelled", [True, False])
def test_one_target_pass_per_epoch_boundary(monkeypatch, labelled):
    """With target labels the pass that evaluates an epoch also gives the next
    epoch's pseudo labels; without them each adversarial epoch makes one.
    No pass is alive while an epoch's updates run."""
    source, target = harness.build_datasets(
        harness.ExperimentConfig(dataset="two_moons", moons_n=60), 0)
    if not labelled:
        target = target.unlabeled()
    cfg = harness.variant_config(trainer.TrainConfig(epochs=3, warmup_epochs=2),
                                 "cgdm_full", 0)
    passes = []
    predict, plan = pseudo_labels.predict, trainer.epoch_batches

    def counted_predict(*args):
        prediction = predict(*args)
        passes.append([weakref.ref(a) for a in prediction])
        return prediction

    def checked_plan(*args):
        assert all(ref() is None for arrays in passes for ref in arrays)
        return plan(*args)

    monkeypatch.setattr(pseudo_labels, "predict", counted_predict)
    monkeypatch.setattr(trainer, "epoch_batches", checked_plan)
    trainer.train(source, target, cfg)
    assert len(passes) == (cfg.warmup_epochs if labelled else 0) + cfg.epochs


def plain_minimax(model, source, target, cfg, rng):
    """The classic two-classifier minimax (MCD) loop written out with two
    classifier nets, each head of the pair on its own: source CE for G, F1,
    F2; source CE minus discrepancy for F1, F2; discrepancy for G.  The two
    nets' parameters are views of the pair's, so their steps move it."""
    gen = model.generator
    f1, f2 = nn.unstack(model.classifiers)
    opt_g = nn.SgdOptimizer(gen.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay)
    opt_f = nn.SgdOptimizer(f1.parameters() + f2.parameters(), cfg.lr, cfg.momentum,
                            cfg.weight_decay)

    def source_ce(feats, labels):
        targets = tensor.Targets.of(labels, f1.out_dim)
        ce1 = softmax_cross_entropy(log_softmax(nn.forward(f1, feats)), targets)
        ce2 = softmax_cross_entropy(log_softmax(nn.forward(f2, feats)), targets)
        return mul(add(ce1, ce2), 0.5)

    def discrepancy(feats):
        p1 = softmax(nn.forward(f1, feats))
        p2 = softmax(nn.forward(f2, feats))
        b, k = p1.shape
        return mul(tsum(absolute(sub(p1, p2))), 1.0 / (b * k))

    def step_all(sb):
        loss = source_ce(nn.forward(gen, Tensor(sb.features)), sb.labels)
        grads = backward(loss, gen.parameters() + f1.parameters() + f2.parameters())
        opt_g.step(grads)
        opt_f.step(grads)

    for _ in range(cfg.warmup_epochs):
        for idx in trainer.epoch_batches(source.n, None, cfg.batch_size, rng):
            step_all(source.take(idx))
    for _ in range(cfg.epochs):
        plan = trainer.epoch_batches(source.n, target.n, cfg.batch_size, rng)
        for s_idx, t_idx in plan:
            sb, xt = source.take(s_idx), Tensor(target.features[t_idx])
            step_all(sb)
            with no_grad():
                feats_s = nn.forward(gen, Tensor(sb.features))
                feats_t = nn.forward(gen, xt)
            loss = sub(source_ce(feats_s, sb.labels), discrepancy(feats_t))
            opt_f.step(backward(loss, f1.parameters() + f2.parameters()))
            for _ in range(cfg.step3_repeats):
                loss = discrepancy(nn.forward(gen, xt))
                opt_g.step(backward(loss, gen.parameters()))


def test_mcd_variant_is_the_plain_minimax():
    """With every extra loss weight at 0 the trainer follows the MCD loop to
    float summation order, at the default batch size and at 37: after
    training, each parameter is within ``GRADIENT_RTOL`` of its largest
    entry.  The trainer's steps run each layer once on both domains' rows,
    the loop once per domain."""
    ecfg = harness.ExperimentConfig(dataset="two_moons", moons_n=100)
    source, target = harness.build_datasets(ecfg, 0)
    for batch_size in (64, 37):
        cfg = harness.variant_config(
            trainer.TrainConfig(epochs=2, batch_size=batch_size), "mcd", 0)
        model = trainer.build_model(source.dim, 2, cfg)
        reference = copy.deepcopy(model)
        trainer.CgdmTrainer(cfg, model).fit(source, target, rng=np.random.default_rng(5))
        plain_minimax(reference, source, target, cfg, np.random.default_rng(5))
        for a, b in zip(model.all_parameters(), reference.all_parameters()):
            assert relative_gap(a.values, b.values) <= GRADIENT_RTOL, batch_size


def _tiny_batches(cfg):
    """A model for 3-feature inputs and one 12-row batch per domain."""
    model = trainer.build_model(3, 3, cfg)
    rng = np.random.default_rng(0)
    labels = rng.permutation(np.arange(12) % 3)
    source = DomainSet(rng.normal(size=(12, 3)), labels, "source")
    target = DomainSet(rng.normal(size=(12, 3)), None, "target")
    return model, source, target


def _tiny_pseudo():
    return pseudo_labels.PseudoLabelSet(
        np.arange(12) % 3, np.linspace(1.0, 2.0, 12), np.zeros(12))


def test_step2_moves_only_the_classifiers(monkeypatch):
    """Step 2 records the generator forward of the joint rows and hands its
    features on, but its backward, w.r.t. the classifier parameters, reaches
    no generator node (so none is on its needed path) and the generator
    keeps its bits."""
    _check_step2(monkeypatch, trainer.TrainConfig(
        generator_hidden=(6,), feature_dim=5, classifier_hidden=(4,)), 24)


def test_step2_without_the_alignment_loss_hands_on_the_target_rows(monkeypatch):
    """Without the alignment loss step 3 reads the target rows alone, so
    step 2 records the generator forward of those and moves only the
    classifiers."""
    _check_step2(monkeypatch, trainer.TrainConfig(
        beta=0.0, generator_hidden=(6,), feature_dim=5, classifier_hidden=(4,)), 12)


def _check_step2(monkeypatch, cfg, rows):
    model, source, target = _tiny_batches(cfg)
    before = [p.values.tobytes() for p in model.generator_parameters()]
    reached = []

    def recorded(scalar, wrt):
        reached.extend(_reachable(scalar))
        return backward(scalar, wrt)

    monkeypatch.setattr(trainer, "backward", recorded)
    step = trainer.CgdmTrainer(cfg, model)
    features = step.step2_update(step.batch_targets(source, target, _tiny_pseudo()))
    generator_nodes = {id(n) for n in _reachable(features)}
    assert features.op == "linear" and features.shape == (rows, 5)
    assert features.parents[1] is model.generator.layers[-1].weight
    assert reached and not generator_nodes & {id(n) for n in reached}
    assert [p.values.tobytes() for p in model.generator_parameters()] == before


@pytest.mark.parametrize("variant, per_iteration", [("cgdm_wo_gdm", 12), ("cgdm_full", 11)])
def test_step3_reuses_the_step2_features(monkeypatch, variant, per_iteration):
    """Per fit iteration with 4 step-3 repeats: step 1 forwards G and the
    classifier pair, one forward for both heads, once on the joint rows of
    both domains (2), and step 3's first repeat takes step 2's generator
    features, so it runs the pair only.  Without the alignment loss step 2
    forwards G on the target rows, on the source rows for their values, and
    the pair on the joint rows (3), and a repeat forwards the target rows, G
    then the pair: 2 + 3 + 8 - 1 = 12 (15 when step 1 and step 2 ran each
    domain apart).  With it, step 2 forwards G and the pair on the joint
    rows (2), and so does every repeat: 2 + 2 + 8 - 1 = 11 (18 when steps 1
    and 2 and each repeat's G ran each domain apart)."""
    source, target = harness.build_datasets(
        harness.ExperimentConfig(dataset="two_moons", moons_n=60), 0)
    cfg = harness.variant_config(
        trainer.TrainConfig(epochs=1, warmup_epochs=0, step3_repeats=4), variant, 0)
    forward, counts, depth = nn.forward, {"forward": 0, "iterations": 0}, [0]

    def counted_forward(*args):
        counts["forward"] += depth[0] > 0
        return forward(*args)

    for name in ("step1_update", "step2_update", "step3_update"):
        def step(self, *args, _method=getattr(trainer.CgdmTrainer, name), _name=name):
            counts["iterations"] += _name == "step1_update"
            depth[0] += 1
            try:
                return _method(self, *args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(trainer.CgdmTrainer, name, step)
    monkeypatch.setattr(nn, "forward", counted_forward)
    trainer.train(source, target, cfg)
    assert counts["iterations"] > 0
    assert counts["forward"] == per_iteration * counts["iterations"]


def test_step3_moves_alike_with_and_without_step2_features():
    """Without step 2's features step 3 runs its own generator forwards and
    moves the generator as it does with them."""
    cfg = trainer.TrainConfig(generator_hidden=(6,), feature_dim=5, classifier_hidden=(4,))
    model, source, target = _tiny_batches(cfg)
    twin = copy.deepcopy(model)
    handed = trainer.CgdmTrainer(cfg, model)
    targets = handed.batch_targets(source, target, _tiny_pseudo())
    features = handed.step2_update(targets)
    alone = trainer.CgdmTrainer(cfg, twin)
    alone.step2_update(targets)
    assert handed.step3_update(targets, features) == alone.step3_update(targets)
    for a, b in zip(model.all_parameters(), twin.all_parameters()):
        assert a.values.tobytes() == b.values.tobytes()


def graph_nodes(root) -> int:
    """Distinct op nodes reachable from ``root`` through parent links."""
    seen, stack = {id(root)}, [root]
    count = 0
    while stack:
        node = stack.pop()
        count += node.op is not None
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return count


class TestStep3GraphBudget:
    """Each step-3 repeat records its alignment loss as forward ops, with no
    create-graph backward, and its graph stays within the node count
    measured once the two heads ran as one network of stacked heads (3
    unsorted classes, heads with one hidden layer; 120 and 136 before the
    class-gradient, cross-entropy-gradient and row-cosine ops were fused, 65
    after, 52 with one log-softmax per logits tensor and ``absolute`` as one
    node, 44 with each layer's ReLU fused into its ``linear`` node, 42 with
    the class gradients recorded as the heads' backward recurrence, 29
    before each loss and the step objective were one node each, 22 before
    the pair ran once on the joint rows of both domains, 16 before the
    generator did too).  The two benchmark bounds are the counts measured on
    pool input 0 since then, 22 nodes per step-3 backward and 70 per
    ``moons_gdm`` iteration (26 and 88 before every step ran one joint
    batch)."""

    NODE_BUDGET = {"plain": 13, "conditional": 13}

    @staticmethod
    def _case(variant):
        """A step-3 trainer, its batches and their targets."""
        cfg = trainer.TrainConfig(
            step3_repeats=3, conditional_gdm=variant == "conditional",
            generator_hidden=(6,), feature_dim=5, classifier_hidden=(4,))
        model = trainer.build_model(3, 3, cfg)
        rng = np.random.default_rng(0)
        labels = rng.permutation(np.arange(12) % 3)
        source = DomainSet(rng.normal(size=(12, 3)), labels, "source")
        target = DomainSet(rng.normal(size=(12, 3)), None, "target")
        pseudo = pseudo_labels.PseudoLabelSet(
            rng.permutation(labels), rng.uniform(1.0, 2.0, size=12), np.zeros(12))
        step = trainer.CgdmTrainer(cfg, model)
        return step, step.batch_targets(source, target, pseudo)

    @pytest.mark.parametrize("variant", sorted(NODE_BUDGET))
    def test_every_step3_backward_is_first_order(self, monkeypatch, variant):
        step, targets = self._case(variant)
        calls = []

        def recorded(scalar, wrt):  # a create-graph call raises TypeError here
            calls.append(graph_nodes(scalar))
            return backward(scalar, wrt)

        monkeypatch.setattr(trainer, "backward", recorded)
        monkeypatch.setattr(grad_discrepancy, "backward", recorded)
        step.step3_update(targets)
        assert len(calls) == step.cfg.step3_repeats
        assert max(calls) <= self.NODE_BUDGET[variant]

    @pytest.mark.parametrize("variant", sorted(NODE_BUDGET))
    def test_one_log_softmax_per_repeat(self, monkeypatch, variant):
        """A repeat records one log-softmax of the stacked heads' logits on
        the joint rows of both domains: the discrepancy's softmax of the
        target rows and the alignment loss's cross-entropies read the same
        one."""
        step, targets = self._case(variant)
        made, per_repeat = [], []
        node = tensor._node

        def recording(values, parents, op, ctx=None):
            made.append(op)
            return node(values, parents, op, ctx)

        def recorded(scalar, wrt):  # a repeat ends in its backward
            per_repeat.append(made.count("log_softmax"))
            made.clear()
            return backward(scalar, wrt)

        monkeypatch.setattr(tensor, "_node", recording)
        monkeypatch.setattr(trainer, "backward", recorded)
        step.step3_update(targets)
        assert per_repeat == [1] * step.cfg.step3_repeats

    @staticmethod
    def _benchmark_iteration(monkeypatch, name):
        """The nodes each backward of the first adversarial iteration on the
        workload's pool input 0 reaches (leaves included), one list per
        backward, steps 1 to 3 in order."""
        step, targets = _pool_iteration(name)
        reached = []

        def recorded(scalar, wrt):
            reached.append(_reachable(scalar))
            return backward(scalar, wrt)

        monkeypatch.setattr(trainer, "backward", recorded)
        step.step1_update(targets)
        step.step3_update(targets, step.step2_update(targets))
        assert len(reached) == 2 + step.cfg.step3_repeats
        return reached

    @pytest.mark.parametrize("name", ["blobs_conditional", "moons_gdm"])
    def test_benchmark_backward_reaches_at_most_22_nodes(self, monkeypatch, name):
        """On the workload's pool input 0 a step-3 first-order backward reaches
        at most 22 nodes, leaves included, as the benchmark's traced
        ``tensor.reachable_nodes`` counts them (64 with two heads apart, 43
        before each loss and step objective was one node, 26 once the pair
        ran once on the joint rows, 22 since the generator does too and no
        ``concat`` joins its features)."""
        reached = self._benchmark_iteration(monkeypatch, name)[2:]
        assert max(len(nodes) for nodes in reached) <= 22

    def test_benchmark_iteration_records_at_most_70_nodes(self, monkeypatch):
        """Steps 1 to 3 of a ``moons_gdm`` iteration on pool input 0 reach
        at most 70 distinct op nodes, none of them a ``concat``, as the
        benchmark's traced ``tensor.nodes.total`` counts them (170 before
        each loss and step objective was one node, 88 once the pair ran once
        on the joint rows of step 3, 70 since every step runs one joint
        batch)."""
        reached = self._benchmark_iteration(monkeypatch, "moons_gdm")
        ops = {id(n): n.op for nodes in reached for n in nodes if n.op is not None}
        assert len(ops) <= 70 and "concat" not in ops.values()


def _pool_iteration(name, batch_size=None):
    """A trainer of the workload's variant on its pool input 0 and the joint
    batch of its first adversarial iteration: the first batch of each domain,
    of the workload's size or ``batch_size``, with the untrained model's
    pseudo labels."""
    experiment, train, variant = WORKLOADS[name]
    if batch_size is not None:
        train = dict(train, batch_size=batch_size)
    ecfg = harness.ExperimentConfig(train=trainer.TrainConfig(**train), **experiment)
    source, target = harness.build_datasets(ecfg, 0)
    cfg = harness.variant_config(ecfg.train, variant, 0)
    model = trainer.build_model(source.dim, int(source.labels.max()) + 1, cfg)
    pseudo = pseudo_labels.pseudo_label_epoch(pseudo_labels.predict(
        model.generator, model.classifiers, target.features))
    rows = np.arange(cfg.batch_size)
    step = trainer.CgdmTrainer(cfg, model)
    return step, step.batch_targets(source.take(rows), target.unlabeled().take(rows),
                                    pseudo.take(rows))


def per_domain_objective(step, targets, number):
    """Training step ``number``'s objective as the graph of each domain's own
    generator and classifier passes: step 3 joins the two domains'
    generator features with ``concat`` for the alignment loss, and reads the
    target rows alone without it.  The model's parameters are read as they
    are now."""
    cfg, gen, pair = step.cfg, step.model.generator, step.model.classifiers
    b = targets.source.labels.size
    xs, xt = Tensor(targets.features[:b]), Tensor(targets.features[b:])
    if number == 1:
        ls_t = log_softmax(nn.forward(pair, nn.forward(gen, xt)))
        return weighted_sum(
            [(softmax_pair_cross_entropy(log_softmax(nn.forward(pair, nn.forward(gen, xs))),
                                         targets.source), 1.0),
             (softmax_pair_cross_entropy(ls_t, targets.target), cfg.alpha),
             (balance_gap(exp(ls_t)), cfg.class_balance_weight)])
    if number == 2:
        fs, ft = (Tensor(nn.forward(gen, x).values) for x in (xs, xt))
        p = exp(log_softmax(nn.forward(pair, ft)))
        return weighted_sum(
            [(softmax_pair_cross_entropy(log_softmax(nn.forward(pair, fs)), targets.source),
              1.0),
             (mean_abs_difference(p), -1.0),
             (balance_gap(p), cfg.class_balance_weight)])
    if cfg.beta == 0:
        return mean_abs_difference(exp(log_softmax(nn.forward(pair, nn.forward(gen, xt)))))
    ls = log_softmax(nn.forward(pair, concat([nn.forward(gen, xs), nn.forward(gen, xt)])))
    if cfg.conditional_gdm:
        loss_gd = grad_discrepancy.conditional_gradient_loss(pair, ls, targets.alignment)
    else:
        loss_gd = grad_discrepancy.gradient_discrepancy_loss(
            grad_discrepancy.class_gradients(pair, ls, targets.alignment))
    return weighted_sum([(mean_abs_difference(exp(ls), b), 1.0), (loss_gd, cfg.beta)])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_joint_steps_give_the_per_domain_gradients(monkeypatch, name):
    """On a benchmark workload's batches of its own size (64 or 256 rows per
    domain) and of 37, every backward of an adversarial iteration (step 1,
    step 2, each step-3 repeat) gives the parameter gradients of the
    per-domain graph made at the same parameters, to float summation order:
    each within ``GRADIENT_RTOL`` of its largest entry.  A joint batch's
    linear node sums each weight and bias cotangent over both domains' rows
    at once, where the per-domain graph adds one sum per domain.  The
    workloads run cgdm_full, conditional GDM and cgdm_wo_gdm."""
    differing = []
    for batch_size in (None, 37):
        step, targets = _pool_iteration(name, batch_size)
        numbers = iter([1, 2] + [3] * step.cfg.step3_repeats)

        def compared(scalar, wrt):
            grads = backward(scalar, wrt)
            number = next(numbers)
            want = backward(per_domain_objective(step, targets, number), wrt)
            differing.extend((batch_size, number, i) for i, p in enumerate(wrt)
                             if relative_gap(grads[p].values, want[p].values)
                             > GRADIENT_RTOL)
            return grads

        monkeypatch.setattr(trainer, "backward", compared)
        step.step1_update(targets)
        step.step3_update(targets, step.step2_update(targets))
        assert next(numbers, None) is None
    assert differing == []


@pytest.mark.parametrize("conditional", [False, True], ids=["plain", "conditional"])
def test_a_training_run_makes_no_create_graph_backward(monkeypatch, conditional):
    """Every backward of a cgdm_full run is first-order: the alignment loss
    records its class gradients as forward ops."""
    source, target = harness.build_datasets(
        harness.ExperimentConfig(dataset="blobs", blobs_classes=3, blobs_dim=4,
                                 blobs_n_per_class=20), 0)
    cfg = harness.variant_config(trainer.TrainConfig(
        epochs=1, batch_size=16, conditional_gdm=conditional), "cgdm_full", 0)
    modes = []

    def recorded(scalar, wrt, create_graph=False):
        modes.append(create_graph)
        return backward(scalar, wrt, create_graph=create_graph)

    for module in (trainer, grad_discrepancy):
        monkeypatch.setattr(module, "backward", recorded)
    metrics, _ = trainer.train(source, target, cfg)
    assert math.isfinite(metrics[-1].loss_gd)
    assert modes and not any(modes)


@pytest.mark.parametrize("variant", ["cgdm_full", "cgdm_wo_gdm"])
@pytest.mark.parametrize("conditional", [False, True], ids=["plain", "conditional"])
def test_fit_encodes_each_batch_once_per_iteration(monkeypatch, variant, conditional):
    """One fit iteration one-hot encodes its source and its target batch once
    each, for all three steps, both heads and every step-3 repeat; a warmup
    iteration encodes its source batch once."""
    source, target = harness.build_datasets(
        harness.ExperimentConfig(dataset="blobs", blobs_classes=3, blobs_dim=4,
                                 blobs_n_per_class=20), 0)
    cfg = harness.variant_config(trainer.TrainConfig(
        epochs=1, warmup_epochs=1, batch_size=16, conditional_gdm=conditional), variant, 0)
    onehot, counts = tensor._onehot, {"onehot": 0, "iterations": 0}

    def counted_onehot(*args):
        counts["onehot"] += 1
        return onehot(*args)

    step1 = trainer.CgdmTrainer.step1_update

    def counted_step1(self, *args):
        counts["iterations"] += 1
        return step1(self, *args)

    monkeypatch.setattr(tensor, "_onehot", counted_onehot)
    monkeypatch.setattr(trainer.CgdmTrainer, "step1_update", counted_step1)
    trainer.train(source, target, cfg)
    warmup = -(-source.n // cfg.batch_size)
    assert counts["iterations"] == -(-max(source.n, target.n) // cfg.batch_size)
    assert counts["onehot"] == warmup + 2 * counts["iterations"]


def _moons_run(variant: str, seed: int) -> np.ndarray:
    """Per-epoch losses and accuracies of a 3-epoch run on two_moons n=200."""
    ecfg = harness.ExperimentConfig(dataset="two_moons", moons_n=200,
                                    train=trainer.TrainConfig(epochs=3))
    source, target = harness.build_datasets(ecfg, seed)
    metrics, _ = trainer.train(source, target,
                               harness.variant_config(ecfg.train, variant, seed))
    return np.array([(m.epoch, m.loss_cls, m.loss_dis, m.loss_gd, m.loss_cb,
                      m.target_acc, m.pseudo_acc) for m in metrics])


def test_concurrent_runs_match_serial_runs():
    """Graph recording is thread-local (backward passes and evaluation switch
    it), so runs in concurrent threads give the same per-epoch losses and
    accuracies as the same runs made one after another."""
    jobs = [(variant, seed) for seed in (0, 1) for variant in ("cgdm_full", "mcd")]
    serial = [_moons_run(*job) for job in jobs]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-graph
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(_moons_run, *job) for job in jobs]
            concurrent = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(previous)
    for job, want, got in zip(jobs, serial, concurrent):
        assert np.array_equal(got, want, equal_nan=True), job


def test_fit_imports_no_new_numpy_module():
    """Training imports nothing from numpy that ``import cgdm`` and making
    the data sets (which loads ``numpy.random``) did not."""
    script = (
        "import sys, cgdm\n"
        "from cgdm import data, trainer\n"
        "source, target = data.make_shifted_blobs(3, 4, 5.0, 2.0, 1.0, 20, 0)\n"
        "before = {m for m in sys.modules if m.startswith('numpy')}\n"
        "for conditional in (False, True):\n"
        "    trainer.train(source, target, trainer.TrainConfig(\n"
        "        epochs=1, batch_size=16, conditional_gdm=conditional))\n"
        "print(sorted({m for m in sys.modules if m.startswith('numpy')} - before))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are glibc's")
def test_fit_keeps_the_freed_step_graphs_in_the_heap():
    """A second training in a process faults in almost no new pages: the
    first fit pinned glibc's malloc thresholds, so the graphs each step frees
    stay in the heap for the next step (without the pin, 3-5k minor faults
    on this run)."""
    script = (
        "import resource\n"
        "from cgdm import harness, trainer\n"
        "source, target = harness.build_datasets(harness.ExperimentConfig(\n"
        "    dataset='blobs', blobs_classes=4, blobs_dim=8, blobs_n_per_class=125), 0)\n"
        "cfg = trainer.TrainConfig(epochs=2, conditional_gdm=True)\n"
        "trainer.train(source, target, cfg)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "trainer.train(source, target, cfg)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 200


@pytest.fixture
def fresh_malloc_pin():
    """The pin as if no fit had run in this process yet."""
    trainer._pin_malloc_thresholds.cache_clear()
    yield trainer._pin_malloc_thresholds
    trainer._pin_malloc_thresholds.cache_clear()


def test_malloc_pin_sets_both_thresholds_once(monkeypatch, fresh_malloc_pin):
    """The mmap threshold (-3) at 4 MiB times ``sizeof(long)`` and the trim
    threshold (-1) at twice that, once however many fits run."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(trainer.ctypes, "CDLL", lambda name: type("Libc", (), {
        "mallopt": staticmethod(mallopt)})())
    fresh_malloc_pin()
    fresh_malloc_pin()
    mmap = 4 * 2**20 * trainer.ctypes.sizeof(trainer.ctypes.c_long)
    assert calls == [(-3, mmap), (-1, 2 * mmap)]


def test_malloc_pin_without_mallopt_does_nothing(monkeypatch, fresh_malloc_pin):
    """Off glibc (no ``mallopt`` in the process's C library) the pin returns
    quietly, and so training runs there too."""
    monkeypatch.setattr(trainer.ctypes, "CDLL", lambda name: object())
    assert fresh_malloc_pin() is None


def test_a_batch_pair_of_no_shared_class_warns_once(monkeypatch, caplog):
    """Conditional GDM warns once per batch pair that shares no class, not
    once per step-3 repeat: its targets are made once per iteration."""
    source, target = harness.build_datasets(
        harness.ExperimentConfig(dataset="two_moons", moons_n=40), 0)
    cfg = harness.variant_config(trainer.TrainConfig(
        epochs=1, batch_size=1, conditional_gdm=True), "cgdm_full", 0)
    disjoint = []
    batch_targets = trainer.CgdmTrainer.batch_targets

    def counted(self, source_batch, target_batch, pseudo):
        disjoint.append(not set(source_batch.labels) & set(pseudo.labels))
        return batch_targets(self, source_batch, target_batch, pseudo)

    monkeypatch.setattr(trainer.CgdmTrainer, "batch_targets", counted)
    with caplog.at_level(logging.WARNING, logger=grad_discrepancy.__name__):
        trainer.train(source, target, cfg)
    warned = [r for r in caplog.records if "no shared classes" in r.message]
    assert cfg.step3_repeats > 1 and sum(disjoint) > 0
    assert len(warned) == sum(disjoint)


def test_fit_rejects_a_model_of_another_input_width():
    source, target = harness.build_datasets(
        harness.ExperimentConfig(dataset="two_moons", moons_n=20), 0)
    cfg = trainer.TrainConfig(epochs=1)
    model = trainer.build_model(3, 2, cfg)
    with pytest.raises(trainer.ConfigError, match="^model takes 3 features, data has 2$"):
        trainer.CgdmTrainer(cfg, model).fit(source, target)
