"""The three-step bi-classifier adversarial training cycle.

Per epoch: refresh pseudo labels once, then for every minibatch pair run

* step 1 - train generator and both classifiers on source cross-entropy plus
  the weighted pseudo-label loss (self-supervision) and the class balance
  loss,
* step 2 - with generator features frozen, train the classifiers to keep
  source accuracy while maximizing their output discrepancy on target,
* step 3 - with classifiers frozen, train the generator (several inner
  repeats) to minimize the discrepancy plus the cross-domain gradient
  alignment loss, whose generator gradient flows through double backward:
  the classifier gradients are recorded as forward ops (the heads' backward
  recurrence, run once on the joint rows of both domains), so each repeat's
  one backward pass, first-order like every other, differentiates them.

A loss is off when its weight is 0.  With ``alpha``, ``beta`` and
``class_balance_weight`` all 0 (the ``mcd`` variant) the loop reduces
exactly to the classic two-classifier minimax (MCD) trajectory: step 1 is
the source CE alone, step 2 the source CE minus the discrepancy, step 3 the
discrepancy alone.

The two classifiers run as one network of stacked heads
(:attr:`BiClassifierModel.classifiers`, see :func:`~cgdm.nn.stack`): each
of their layers is one graph node for both, and so is each of their
losses.  A step's objective, the weighted sum of its losses, is one node
(:func:`~cgdm.tensor.weighted_sum`).  One target pass per epoch boundary
(:func:`~cgdm.pseudo_labels.predict`) serves :func:`evaluate` and the next
epoch's pseudo labels.  Each iteration encodes its batches' labels once
(:class:`BatchTargets`) for all three steps and every step-3 repeat, and
each domain's stacked logits get one log-softmax, read by the pair's
cross-entropies and its softmax.  A run fails in one way: it raises
:class:`~cgdm.tensor.DomainError`.

Memory: each step frees its graph on return.  Left to itself, glibc often
trims that freed top of the heap back to the OS and faults it in again on
the next step (hundreds of thousands of minor faults in a 35 s benchmark run
of conditional GDM), and how often depends on the heap's layout, not on the
method.  So the first :meth:`CgdmTrainer.fit` of a process pins glibc's mmap
threshold at 32 MiB and its trim threshold at 64 MiB (on 64-bit) for the
rest of the process (:func:`_pin_malloc_thresholds`).  The cost: up to
64 MiB of free heap stays mapped until exit, and peak RSS on the
benchmark's blobs runs rises by about 0.5 MB (conditional GDM) to 1.1 MB
(the wide first-order run).  Off glibc this does nothing.
"""
from __future__ import annotations

import ctypes
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import grad_discrepancy, losses, nn, pseudo_labels
from .tensor import (
    ContractError,
    DomainError,
    Tensor,
    backward,
    concat,
    exp,
    weighted_sum,
)

__all__ = [
    "ConfigError",
    "TrainConfig",
    "EpochMetrics",
    "BiClassifierModel",
    "BatchTargets",
    "build_model",
    "epoch_batches",
    "CgdmTrainer",
    "train",
    "evaluate",
]


class ConfigError(ValueError):
    """Invalid training or experiment configuration."""


@dataclass
class TrainConfig:
    """All hyper-parameters and ablation switches for one run.

    A loss is off when its weight is 0, so the loss weights double as switches.
    """

    alpha: float = 0.1  # weight of the self-supervised pseudo-label loss
    beta: float = 0.01  # weight of the gradient alignment loss
    class_balance_weight: float = 0.1  # weight of the class balance loss
    lr: float = 0.008
    lr_generator: float | None = None  # defaults to lr
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 64
    epochs: int = 30
    step3_repeats: int = 4
    warmup_epochs: int = 1  # source-only epochs before the adversarial cycle
    seed: int = 0
    enable_adversarial: bool = True  # steps 2 and 3 (off = source-only baseline)
    conditional_gdm: bool = False  # per-category alignment variant
    generator_hidden: tuple = (64,)
    feature_dim: int = 32
    classifier_hidden: tuple = (32,)

    def validate(self) -> None:
        if min(self.alpha, self.beta, self.class_balance_weight) < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.step3_repeats < 1:
            raise ConfigError("step3_repeats must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be nonnegative")
        if min(self.lr, self.lr_generator or 0.0, self.momentum, self.weight_decay) < 0:
            raise ConfigError(
                "lr, lr_generator, momentum and weight_decay must be nonnegative")
        if min((self.feature_dim, *self.generator_hidden, *self.classifier_hidden)) < 1:
            raise ConfigError(
                "feature_dim, generator_hidden and classifier_hidden must be positive")


@dataclass
class EpochMetrics:
    """Per-epoch means of the step losses plus evaluation results.

    ``loss_cls`` comes from step 1 (source term), ``loss_dis``/``loss_gd``
    from the first step-3 repeat, ``loss_cb`` from step 1.  NaN means not
    computed; a computed loss is finite, or ``fit`` would have raised.
    """

    epoch: int
    loss_cls: float
    loss_dis: float
    loss_gd: float
    loss_cb: float
    target_acc: float
    pseudo_acc: float
    seconds: float


@dataclass
class BiClassifierModel:
    """The generator and the two classifiers F1 and F2, one network of two
    stacked heads of one architecture."""

    generator: nn.Mlp
    classifiers: nn.Mlp

    @property
    def num_classes(self) -> int:
        return self.classifiers.out_dim

    def generator_parameters(self) -> list:
        return self.generator.parameters()

    def classifier_parameters(self) -> list:
        return self.classifiers.parameters()

    def all_parameters(self) -> list:
        return self.generator_parameters() + self.classifier_parameters()


@dataclass(frozen=True)
class BatchTargets:
    """One iteration's label encodings, made once and read by all three steps.

    ``source`` encodes the source batch's labels, ``target`` the target
    batch's pseudo labels and weights, and ``alignment`` the targets of the
    alignment loss on the joint rows of both
    (:func:`~cgdm.grad_discrepancy.alignment_targets`): grouped by domain,
    or by domain and shared class under conditional GDM; None when that loss
    is off.
    """

    source: losses.Targets
    target: losses.Targets
    alignment: losses.Targets | None


def build_model(in_dim: int, num_classes: int, cfg: TrainConfig) -> BiClassifierModel:
    """Generator + two distinct classifiers, stacked from one Glorot draw
    each; seeds derived from cfg.seed."""
    sg, s1, s2 = (int(s) for s in np.random.SeedSequence(cfg.seed).generate_state(3))
    gen_dims = [in_dim, *cfg.generator_hidden, cfg.feature_dim]
    clf_dims = [cfg.feature_dim, *cfg.classifier_hidden, num_classes]
    return BiClassifierModel(
        generator=nn.init_mlp(gen_dims, sg, final_activation="relu"),
        classifiers=nn.stack([nn.init_mlp(clf_dims, s1), nn.init_mlp(clf_dims, s2)]),
    )


def _stream(n: int, total: int, rng) -> np.ndarray:
    """Shuffled indices, reshuffling and recycling until ``total`` are drawn."""
    if n < 1:
        raise ContractError(f"cannot draw batches from a set of {n} samples")
    chunks = []
    drawn = 0
    while drawn < total:
        perm = rng.permutation(n)
        chunks.append(perm)
        drawn += n
    return np.concatenate(chunks)[:total]


def epoch_batches(n_source: int, n_target: int | None, batch_size: int, rng):
    """Deterministic minibatch index plan for one epoch.

    Both domains contribute equally sized batches each iteration; the epoch
    has ceil(max(n_source, n_target)/batch_size) iterations and the shorter
    stream reshuffles and recycles.  With ``n_target=None`` (warmup) only
    source batches are returned.
    """
    n_max = max(n_source, n_target or 0)
    iters = -(-n_max // batch_size)
    total = iters * batch_size
    src = _stream(n_source, total, rng).reshape(iters, batch_size)
    if n_target is None:
        return [src[i] for i in range(iters)]
    tgt = _stream(n_target, total, rng).reshape(iters, batch_size)
    return [(src[i], tgt[i]) for i in range(iters)]


class CgdmTrainer:
    """Holds the model, the two optimizers, and the three step updates.

    The generator and the classifiers have separate optimizers so velocity
    state survives partial updates (step 2 touches only classifiers, step 3
    only the generator).
    """

    def __init__(self, cfg: TrainConfig, model: BiClassifierModel | None = None):
        cfg.validate()
        self.cfg = cfg
        self.model = model
        self.epoch = 0
        self.opt_g = None
        self.opt_f = None
        if model is not None:
            self._attach_optimizers()

    def _attach_optimizers(self) -> None:
        cfg = self.cfg
        lr_g = cfg.lr if cfg.lr_generator is None else cfg.lr_generator
        self.opt_g = nn.SgdOptimizer(
            self.model.generator_parameters(), lr_g, cfg.momentum, cfg.weight_decay
        )
        self.opt_f = nn.SgdOptimizer(
            self.model.classifier_parameters(), cfg.lr, cfg.momentum, cfg.weight_decay
        )

    def _check_pseudo(self, pseudo) -> None:
        if pseudo.epoch is not None and pseudo.epoch != self.epoch:
            raise ContractError(
                f"pseudo labels from epoch {pseudo.epoch} used in epoch {self.epoch}"
            )

    def batch_targets(self, source_batch, pseudo) -> BatchTargets:
        """Encode an iteration's source labels and target pseudo labels once."""
        self._check_pseudo(pseudo)
        k = self.model.num_classes
        source = losses.Targets.of(source_batch.labels, k)
        target = losses.Targets.of(pseudo.labels, k, pseudo.weights)
        alignment = None
        if self.cfg.beta > 0:
            alignment = grad_discrepancy.alignment_targets(source, target,
                                                           self.cfg.conditional_gdm)
        return BatchTargets(source, target, alignment)

    def step1_update(self, source_batch, target_batch, targets: BatchTargets) -> dict:
        """Train G, F1, F2 on source CE (+ weighted pseudo CE, + balance)."""
        cfg = self.cfg
        return self._update_all(source_batch, targets.source, target_batch,
                                targets.target, cfg.alpha, cfg.class_balance_weight)

    def _update_all(self, source_batch, source_targets, target_batch=None,
                    target_targets=None, alpha=0.0, balance_weight=0.0) -> dict:
        """Step-1 body: G, F1, F2 on the source CE plus the weighted pseudo-label
        CE and the class balance loss; warmup passes both weights as 0."""
        m = self.model
        loss_cls = losses.source_classification_loss(
            m.generator, m.classifiers, source_batch.features, source_targets
        )
        terms = [(loss_cls, 1.0)]
        out = {"loss_cls": loss_cls.item()}
        if alpha > 0 or balance_weight > 0:
            feats_t = nn.forward(m.generator, Tensor(target_batch.features))
            ls_t = losses.log_probs(m.classifiers, feats_t)
            if alpha > 0:
                terms.append((losses.pair_cross_entropy(ls_t, target_targets), alpha))
            if balance_weight > 0:
                balance = losses.class_balance_loss(exp(ls_t))
                terms.append((balance, balance_weight))
                out["loss_cb"] = balance.item()
        grads = backward(weighted_sum(terms), m.all_parameters())
        self.opt_g.step(grads)
        self.opt_f.step(grads)
        return out

    def step2_update(self, source_batch, target_batch, targets: BatchTargets) -> tuple:
        """Train F1, F2 to keep source accuracy while disagreeing on target.

        Returns only the generator's recorded (source, target) features,
        which step 3's first repeat reuses: step 2 leaves the generator
        parameters untouched because its backward is w.r.t. the classifier
        parameters.  The classifiers read the features as constants, so that
        backward walks no generator node.
        """
        cfg = self.cfg
        m = self.model
        features = tuple(nn.forward(m.generator, Tensor(batch.features))
                         for batch in (source_batch, target_batch))
        feats_s, feats_t = (Tensor(f.values) for f in features)
        loss_cls = losses.pair_cross_entropy(losses.log_probs(m.classifiers, feats_s),
                                             targets.source)
        p = exp(losses.log_probs(m.classifiers, feats_t))
        terms = [(loss_cls, 1.0), (losses.l1_discrepancy(p), -1.0)]
        if cfg.class_balance_weight > 0:
            terms.append((losses.class_balance_loss(p), cfg.class_balance_weight))
        grads = backward(weighted_sum(terms), m.classifier_parameters())
        self.opt_f.step(grads)
        return features

    def step3_update(self, source_batch, target_batch, targets: BatchTargets,
                     features=None) -> dict:
        """Train G to shrink classifier disagreement plus the gradient gap.

        Runs ``step3_repeats`` inner updates.  Only generator parameters move;
        the classifiers participate in the graph (their parameter gradients
        are what the alignment loss is made of) but are never stepped.
        Each repeat forwards the generator once per domain.  With the
        alignment loss, the two domains' features are joined, source rows
        first, and the pair runs once on the joint rows: the one log-softmax
        of both heads' logits feeds the discrepancy term, on its target rows,
        and the alignment loss, whose source and target class-gradient
        matrices on the row groups of ``targets.alignment`` are one recorded
        node; the join hands each generator its rows' cotangent.  Without
        it, the pair runs on the target rows alone.  Either way the repeat
        makes one backward, a first-order one, and its graph is freed before
        the next repeat records one.  Rows may come in any class order.
        ``features``, the recorded (source, target) generator features of
        these batches under the current generator parameters (as
        :meth:`step2_update` returns them), stand in for the first repeat's
        generator forwards.  Returns the first repeat's losses.
        """
        x_s = Tensor(source_batch.features)
        x_t = Tensor(target_batch.features)
        first = self._step3_repeat(x_s, x_t, targets, features)
        for _ in range(1, self.cfg.step3_repeats):
            self._step3_repeat(x_s, x_t, targets)
        return first

    def _step3_repeat(self, x_s, x_t, targets: BatchTargets, features=None) -> dict:
        """One step-3 update of G, from ``features`` or fresh generator
        forwards; returns its losses as floats, so no node of its graph
        outlives it."""
        cfg = self.cfg
        m = self.model
        feats_s, feats_t = features or (None, nn.forward(m.generator, x_t))
        out = {}
        if cfg.beta > 0:
            if feats_s is None:
                feats_s = nn.forward(m.generator, x_s)
            ls = losses.log_probs(m.classifiers, concat([feats_s, feats_t]))
            loss_dis = losses.l1_discrepancy(exp(ls), feats_s.shape[0])
            if cfg.conditional_gdm:
                loss_gd = grad_discrepancy.conditional_gradient_loss(
                    m.classifiers, ls, targets.alignment)
            else:
                loss_gd = grad_discrepancy.gradient_discrepancy_loss(
                    grad_discrepancy.class_gradients(m.classifiers, ls, targets.alignment))
            terms = [(loss_dis, 1.0), (loss_gd, cfg.beta)]
            out["loss_gd"] = loss_gd.item()
        else:
            loss_dis = losses.l1_discrepancy(exp(losses.log_probs(m.classifiers, feats_t)))
            terms = [(loss_dis, 1.0)]
        grads = backward(weighted_sum(terms), m.generator_parameters())
        self.opt_g.step(grads)
        return {"loss_dis": loss_dis.item(), **out}

    def fit(self, source, target, rng=None) -> list:
        """Run warmup plus the full three-step schedule; returns epoch metrics.

        The target pass that evaluates epoch e also gives epoch e+1's pseudo
        labels (without target labels it runs at the start of e+1); it is
        dropped before the updates start.  The first non-finite step loss
        raises DomainError, so numpy's overflow/invalid warnings are off.
        The first call in a process pins glibc's malloc thresholds for the
        rest of it (see the module docstring): freed step graphs stay in the
        heap, not returned to the OS and faulted in again each step.
        """
        _pin_malloc_thresholds()
        cfg = self.cfg
        num_classes = _check_class_counts(source, target)
        if target.dim != source.dim:
            raise ConfigError(
                f"target has {target.dim} features, source has {source.dim}"
            )
        if self.model is None:
            self.model = build_model(source.dim, num_classes, cfg)
            self._attach_optimizers()
        elif self.model.generator.in_dim != source.dim:
            raise ConfigError(
                f"model takes {self.model.generator.in_dim} features, data has "
                f"{source.dim}"
            )
        elif self.model.num_classes < num_classes:
            raise ConfigError(
                f"model has {self.model.num_classes} outputs, data has "
                f"{num_classes} classes"
            )
        if rng is None:
            shuffle_seed = int(np.random.SeedSequence(cfg.seed).generate_state(4)[3])
            rng = np.random.default_rng(shuffle_seed)
        target_train = target.unlabeled()
        m = self.model
        nets = (m.generator, m.classifiers)
        metrics = []
        prediction = None
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, cfg.warmup_epochs + cfg.epochs + 1):
                t0 = time.perf_counter()
                self.epoch = epoch
                sums = {}
                counts = {}

                def tally(res):
                    for key, val in res.items():
                        if not math.isfinite(val):
                            raise DomainError(f"epoch {epoch}: {key} is {val}")
                        sums[key] = sums.get(key, 0.0) + val
                        counts[key] = counts.get(key, 0) + 1

                pseudo = None
                if epoch > cfg.warmup_epochs:
                    pseudo = pseudo_labels.pseudo_label_epoch(
                        prediction or pseudo_labels.predict(*nets, target.features),
                        epoch=epoch,
                    )
                prediction = None  # the updates run without a full-set pass alive
                if pseudo is None:
                    for src_idx in epoch_batches(source.n, None, cfg.batch_size, rng):
                        sb = source.take(src_idx)
                        tally(self._update_all(
                            sb, losses.Targets.of(sb.labels, m.num_classes)))
                else:
                    plan = epoch_batches(source.n, target_train.n, cfg.batch_size, rng)
                    for src_idx, tgt_idx in plan:
                        sb = source.take(src_idx)
                        tb = target_train.take(tgt_idx)
                        targets = self.batch_targets(sb, pseudo.take(tgt_idx))
                        tally(self.step1_update(sb, tb, targets))
                        if cfg.enable_adversarial:
                            features = self.step2_update(sb, tb, targets)
                            tally(self.step3_update(sb, tb, targets, features))

                def mean_of(key):
                    return sums[key] / counts[key] if key in sums else float("nan")

                target_acc = pseudo_acc = float("nan")
                if target.labels is not None:
                    prediction = pseudo_labels.predict(*nets, target.features)
                    target_acc = evaluate(prediction, target.labels)
                    if pseudo is not None:
                        pseudo_acc = float(np.mean(pseudo.labels == target.labels))
                metrics.append(
                    EpochMetrics(
                        epoch=epoch,
                        loss_cls=mean_of("loss_cls"),
                        loss_dis=mean_of("loss_dis"),
                        loss_gd=mean_of("loss_gd"),
                        loss_cb=mean_of("loss_cb"),
                        target_acc=target_acc,
                        pseudo_acc=pseudo_acc,
                        seconds=time.perf_counter() - t0,
                    )
                )
        return metrics


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at its ceiling, 4 MiB times ``sizeof(long)``
    (``DEFAULT_MMAP_THRESHOLD_MAX``), and its trim threshold at twice that,
    once per process: the values glibc's dynamic rule reaches only after a
    large mmapped block is freed, which small-batch training may never do.
    Both are set, since setting either turns the dynamic rule off.  Without
    ``mallopt`` (not glibc) this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_threshold = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
    mallopt(-3, mmap_threshold)  # M_MMAP_THRESHOLD
    mallopt(-1, 2 * mmap_threshold)  # M_TRIM_THRESHOLD


def _check_class_counts(source, target) -> int:
    """The class count K, the largest source label + 1, which may not
    exceed the number of source rows: each head's output layer has K rows."""
    if source.labels is None:
        raise ConfigError("source set must be labeled")
    num_classes = int(source.labels.max()) + 1
    if source.labels.min() < 0:
        raise ConfigError("negative source label")
    if num_classes > source.n:
        raise ConfigError(f"source label {num_classes - 1} asks for {num_classes} classes; "
                          f"the class count may not exceed the {source.n} source rows")
    if target.labels is not None and target.labels.size:
        if target.labels.min() < 0 or target.labels.max() >= num_classes:
            raise ConfigError(
                f"target labels outside source class range [0, {num_classes})"
            )
    return num_classes


def train(source, target, cfg: TrainConfig):
    """Full training per the configured schedule.

    Returns (metrics per epoch, trained model).  Fully deterministic for a
    given config, including the seed.
    """
    trainer = CgdmTrainer(cfg)
    metrics = trainer.fit(source, target)
    return metrics, trainer.model


def evaluate(prediction, labels) -> float:
    """Accuracy of the averaged-softmax prediction.

    ``prediction`` is a :func:`~cgdm.pseudo_labels.predict` result over a
    labeled set and ``labels`` that set's labels.
    """
    _, probs = prediction
    return float(np.mean(np.argmax(0.5 * (probs[0] + probs[1]), axis=1) == labels))
