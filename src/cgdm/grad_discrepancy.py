"""Each domain's classifier gradient as a K-by-P matrix, and the cosine gap.

A domain's classifier gradient is that of the mean two-head cross-entropy on
its rows (source: true labels; target: pseudo labels and entropy weights)
with respect to every classifier parameter.  The two heads are one network
of stacked heads (:func:`~cgdm.nn.stack`), and the columns are head 1's
parameters, then head 2's, each head's in the order of its layers (weight,
then bias): ``[F1 | F2]``.  Row r of its K-by-P **class-gradient matrix**
is that gradient on the rows of class r, whatever the row order; without
classes the matrix has one row, the whole batch.

:func:`source_gradient` and :func:`target_gradient` are that definition:
per class, one first-order :func:`~cgdm.tensor.backward` of the two-head
cross-entropy on the class's rows to the pair's parameters, each stacked
gradient flattened head by head.  Their matrices are leaf tensors, the
reference the tests check training's path against; the benchmark's tracer
also reads them by name.

:func:`class_gradients`, the path training runs, gives the same matrices as
recorded forward ops, so they stay differentiable, through the logits and
the generator features under them, with respect to the generator
parameters.  It records the heads' backward recurrence, as double
backpropagation was first written (Drucker and LeCun, IEEE TNN 1992), once
for the pair and both domains: the source rows and the target rows are one
joint batch, and each node below holds both heads and all those rows.  The
logits' cotangent is the cross-entropy's
:func:`~cgdm.tensor.cross_entropy_grad` with the two-head mean's 0.5; going
down the heads, a layer's ``delta`` is the cotangent ``g`` of its output,
times the constant mask of its positive outputs where the layer has a ReLU
(:func:`~cgdm.tensor.relu_mask`), and ``g`` of the layer below is ``delta
W``.  With the layer's input ``H`` (:func:`~cgdm.nn.layer_taps`), a weight
gradient is ``delta^T H`` and a bias gradient the column sum of ``delta``;
on the rows of one domain's class, that class's.  Both domains' matrices,
every layer's block of both heads, are one fused
:func:`~cgdm.tensor.class_affine_gradient` node whose row groups are each
domain's batch or each domain's rows of each class: its rows are the source
matrix over the target matrix, and the cosine gap compares the two halves.
The classifier parameters are constants here, so no sum runs over the rows
of both domains.  The alignment loss is then minimized by the generator
through one first-order backward of it: double backward.

The joint rows come as the pair's stacked log-softmax, made by the caller,
and their :class:`~cgdm.losses.Targets` of :func:`alignment_targets`, made
once per training iteration with their row groups: the cross-entropy
gradients read that log-softmax, whose target rows the caller's discrepancy
term also reads, and those one-hots and row scales, each row scaled by its
own domain's batch size.
"""
from __future__ import annotations

import logging

import numpy as np

from . import losses, nn
from .tensor import (
    ContractError,
    RowGroups,
    ShapeError,
    Tensor,
    backward,
    class_affine_gradient,
    cosine_gap,
    log_softmax,
    matmul,
    relu_mask,
)

__all__ = [
    "source_gradient",
    "target_gradient",
    "class_gradients",
    "alignment_targets",
    "gradient_discrepancy_loss",
    "conditional_gradient_loss",
]

logger = logging.getLogger(__name__)

EPS = 1e-12


def _logits(ls: Tensor) -> Tensor:
    if ls.op != "log_softmax":
        raise ContractError("class gradients need the recorded log_softmax(logits)")
    return ls.parents[0]


def _one_domain(pair, logits, targets, classes) -> Tensor:
    """The class-gradient matrix by the definition: for each class, one
    backward of the two-head cross-entropy whose row weights are 0 outside
    the class.  Targets :meth:`~cgdm.losses.Targets.by_class` weight each
    row by its class's mean (``b / n_k``), so that cross-entropy is the
    class's mean."""
    masks = np.ones((1, targets.labels.size))
    if classes is not None:
        masks = (targets.labels == np.asarray(classes)[:, None]).astype(np.float64)
        targets = targets.by_class()
    ls = log_softmax(logits)
    params = pair.parameters()
    rows = []
    for mask in masks:
        loss = losses.pair_cross_entropy(ls, losses.Targets(
            targets.labels, targets.onehot, targets.weights * mask,
            targets.scale * mask[:, None]))
        grads = backward(loss, params)
        rows.append(np.concatenate([grads[p].values[h].reshape(-1)
                                    for h in range(len(logits.values)) for p in params]))
    return Tensor(np.stack(rows))


def source_gradient(pair, logits: Tensor, labels, classes=None) -> Tensor:
    """The source class-gradient matrix of rows with ``labels``: 1-by-P, or
    K-by-P for the K ``classes``; ``logits`` are the pair's recorded stacked
    outputs on those rows."""
    return _one_domain(pair, logits, losses.Targets.of(labels, logits.shape[-1]), classes)


def target_gradient(pair, logits: Tensor, pseudo, classes=None) -> Tensor:
    """The target class-gradient matrix of rows aligned with ``pseudo``
    (labels and entropy weights); shapes and logits as in
    :func:`source_gradient`."""
    return _one_domain(
        pair, logits, losses.Targets.of(pseudo.labels, logits.shape[-1], pseudo.weights),
        classes)


def _head_layers(pair, ls, targets) -> list:
    """``(delta, h)`` of each layer of the pair, first layer first, by the
    heads' backward recurrence from their stacked log-softmax ``ls``: each
    hidden layer's mask is recorded once for both heads, as one
    :func:`~cgdm.tensor.relu_mask` node of ``g`` and the layer node's
    outputs."""
    g = losses.cross_entropy_cotangent(ls, targets, 0.5)
    taps = nn.layer_taps(pair, _logits(ls))
    layers = []
    for i in reversed(range(len(taps))):
        (h, z), layer = taps[i], pair.layers[i]
        delta = relu_mask(g, z.values) if layer.activation == "relu" else g
        layers.append((delta, h))
        if i:
            g = matmul(delta, layer.weight)
    return layers[::-1]


def class_gradients(pair, ls: Tensor, targets: losses.Targets) -> Tensor:
    """The class-gradient matrices of the row groups of ``targets``, one row
    each, from the heads' recorded backward recurrence; no backward pass
    runs.

    ``ls`` is ``losses.log_probs(pair, feats)`` on the rows of ``targets``.
    On the joint rows of :func:`alignment_targets` the matrix is the source
    matrix over the target matrix, with the values of
    :func:`source_gradient`'s and :func:`target_gradient`'s for the same
    classes, as one graph node."""
    return class_affine_gradient(_head_layers(pair, ls, targets), targets.groups)


def alignment_targets(source: losses.Targets, target: losses.Targets,
                      by_class: bool = False) -> losses.Targets:
    """The alignment loss's targets: the source rows, then the target rows,
    grouped into each domain's whole batch or, ``by_class``, each domain's
    rows of each class present in both batches (source labels and target
    pseudo labels), weighted by their class means.  Equal batches are two
    halves, unequal ones or classes a :class:`~cgdm.tensor.RowGroups`.  No
    shared class: a warning, once per batch pair, however many losses read
    the targets."""
    parts = (source, target)
    if not by_class:
        if source.labels.size == target.labels.size:
            return losses.Targets.joined(parts, 2)
        return losses.Targets.joined(parts, RowGroups(
            [np.zeros(t.labels.size, dtype=np.intp) for t in parts], 1))
    classes = tuple(sorted(set(source.labels.tolist()) & set(target.labels.tolist())))
    if not classes:
        logger.warning("conditional gradient loss: no shared classes in batch")
    position = np.full(source.onehot.shape[1], -1)
    position[list(classes)] = np.arange(len(classes))
    groups = RowGroups([position[t.labels] for t in parts], len(classes))
    return losses.Targets.joined([t.by_class() for t in parts], groups, classes)


def gradient_discrepancy_loss(g: Tensor) -> Tensor:
    """Mean over r of 1 - cos(gs[r], gt[r]) of the K-by-P source rows ``gs``
    and target rows ``gt`` of a 2K-by-P class-gradient matrix, source over
    target; in [0, 2].

    A pair where either norm is ~0 adds a constant 0 (a vanished gradient has
    no alignment direction to push against) but counts in the mean; if every
    pair does, the result is a constant 0 (no gradient signal).  The loss is
    one :func:`~cgdm.tensor.cosine_gap` node, whose row norms tell which
    pairs live."""
    if g.values.ndim != 2 or g.shape[0] % 2:
        raise ShapeError(f"gradients must be a 2K-by-P matrix, source over target, "
                         f"got {g.shape}")
    return cosine_gap(g, EPS)


def conditional_gradient_loss(pair, ls: Tensor, targets: losses.Targets) -> Tensor:
    """Per-category gradient alignment, averaged over the classes present in
    both the source batch (true labels) and the target batch (pseudo labels):
    ``ls`` and ``targets`` as in :func:`class_gradients`, the targets
    :func:`alignment_targets` by class.  No shared class: a constant 0 (the
    targets warned when they were made)."""
    if targets.classes is None:
        raise ContractError("the conditional loss takes targets by shared class")
    if not targets.classes:
        return Tensor(0.0)
    return gradient_discrepancy_loss(class_gradients(pair, ls, targets))
