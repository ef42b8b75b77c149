"""A domain's classifier gradient as a K-by-P matrix, and the cosine gap.

A domain's classifier gradient is that of the mean two-head cross-entropy on
its rows (source: true labels; target: pseudo labels and entropy weights)
with respect to every classifier parameter, columns in the order of
:func:`classifier_parameters`.  Row r of its K-by-P **class-gradient matrix**
is that gradient on the rows of class r, whatever the row order; without
classes the matrix has one row, the whole batch.

:func:`source_gradient` and :func:`target_gradient` are that definition:
per class, one first-order :func:`~cgdm.tensor.backward` of the two-head
cross-entropy on the class's rows to the classifier parameters.  Their
matrices are leaf tensors, the reference the tests check training's path
against; the benchmark's tracer also reads them by name.

:func:`class_gradients`, the path training runs, gives the same matrices as
recorded forward ops, so they stay differentiable, through the logits and
the generator features under them, with respect to the generator
parameters.  It records the heads' backward recurrence, as double
backpropagation was first written (Drucker and LeCun, IEEE TNN 1992): the
logits' cotangent is the cross-entropy's
:func:`~cgdm.tensor.cross_entropy_grad` with the two-head mean's 0.5; going
down a head, a layer's ``delta`` is the cotangent ``g`` of its output, times
the constant mask of its positive outputs where the layer has a ReLU, and
``g`` of the layer below is ``delta W``.  With the layer's input ``H``
(:func:`~cgdm.nn.layer_taps`), a weight gradient is ``delta^T H`` and a bias
gradient the column sum of ``delta``; masked to one class's rows, that
class's.  A domain's matrix, every layer's block, is one fused
:func:`~cgdm.tensor.class_affine_gradient` node.  The alignment loss is then
minimized by the generator through one first-order backward of it: double
backward.

A domain comes as the heads' log-softmax pair, made by the caller, and the
batch's :class:`~cgdm.losses.Targets`, made once per training iteration:
the cross-entropy gradients read that log-softmax, which the caller's
discrepancy term also reads, and those one-hots and row scales.  For the
conditional loss, :func:`by_shared_class` turns both domains' targets into
class targets once per iteration, for every step-3 repeat.
"""
from __future__ import annotations

import logging

import numpy as np

from . import losses, nn
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    backward,
    class_affine_gradient,
    cosine_rows,
    log_softmax,
    matmul,
    mul,
    sub,
    tsum,
)

__all__ = [
    "classifier_parameters",
    "source_gradient",
    "target_gradient",
    "class_gradients",
    "by_shared_class",
    "gradient_discrepancy_loss",
    "conditional_gradient_loss",
]

logger = logging.getLogger(__name__)

EPS = 1e-12


def classifier_parameters(f1: nn.Mlp, f2: nn.Mlp) -> list:
    """The parameters in the column order of a class-gradient matrix."""
    return f1.parameters() + f2.parameters()


def _logits(ls: Tensor) -> Tensor:
    if ls.op != "log_softmax":
        raise ContractError("class gradients need recorded log_softmax(logits) pairs")
    return ls.parents[0]


def _one_domain(f1, f2, logits1, logits2, targets, classes) -> Tensor:
    """The class-gradient matrix by the definition: for each class, one
    backward of the two-head cross-entropy whose row weights are 0 outside
    the class.  Targets :meth:`~cgdm.losses.Targets.by_class` weight each
    row by its class's mean (``b / n_k``), so that cross-entropy is the
    class's mean."""
    if classes is not None:
        targets = targets.by_class(classes)
    members = targets.members
    masks = np.ones((1, targets.labels.size)) if members is None else members.T
    ls_pair = (log_softmax(logits1), log_softmax(logits2))
    params = classifier_parameters(f1, f2)
    rows = []
    for mask in masks:
        loss = losses.pair_cross_entropy(ls_pair, losses.Targets(
            targets.labels, targets.onehot, targets.weights * mask,
            targets.scale * mask[:, None]))
        grads = backward(loss, params)
        rows.append(np.concatenate([grads[p].values.reshape(-1) for p in params]))
    return Tensor(np.stack(rows))


def source_gradient(f1, f2, logits1: Tensor, logits2: Tensor, labels,
                    classes=None) -> Tensor:
    """The source class-gradient matrix of rows with ``labels``: 1-by-P, or
    K-by-P for the K ``classes``; ``logits1``/``logits2`` are the heads'
    recorded outputs on those rows."""
    return _one_domain(f1, f2, logits1, logits2,
                       losses.Targets.of(labels, logits1.shape[1]), classes)


def target_gradient(f1, f2, logits1: Tensor, logits2: Tensor, pseudo,
                    classes=None) -> Tensor:
    """The target class-gradient matrix of rows aligned with ``pseudo``
    (labels and entropy weights); shapes and logits as in
    :func:`source_gradient`."""
    return _one_domain(
        f1, f2, logits1, logits2,
        losses.Targets.of(pseudo.labels, logits1.shape[1], pseudo.weights), classes)


def _head_layers(f, ls, targets) -> list:
    """``(delta, h)`` of each layer of head ``f``, first layer first, by the
    head's backward recurrence from its log-softmax ``ls``: each hidden
    layer's mask is recorded once: ``g`` times the constant mask of the
    layer node's positive outputs."""
    g = losses.cross_entropy_cotangent(ls, targets, 0.5)
    taps = nn.layer_taps(f, _logits(ls))
    layers = []
    for i in reversed(range(len(taps))):
        (h, z), layer = taps[i], f.layers[i]
        delta = mul(g, z.values > 0.0) if layer.activation == "relu" else g
        layers.append((delta, h))
        if i:
            g = matmul(delta, layer.weight)
    return layers[::-1]


def class_gradients(f1, f2, source, target) -> tuple:
    """The source and target class-gradient matrices, from the heads'
    recorded backward recurrence; no backward pass runs.

    ``source`` and ``target`` are each domain's ``(log-softmax pair,
    targets)``: ``losses.log_probs((f1, f2), feats)`` on the domain's rows
    and their :class:`~cgdm.losses.Targets`, whole-batch or by class.  The
    matrices hold the values of :func:`source_gradient`'s and
    :func:`target_gradient`'s for the same classes, as graph nodes."""
    return tuple(
        class_affine_gradient([pair for f, ls in zip((f1, f2), ls_pair)
                               for pair in _head_layers(f, ls, targets)],
                              targets.members)
        for ls_pair, targets in (source, target)
    )


def by_shared_class(source: losses.Targets, target: losses.Targets) -> tuple:
    """Both domains' targets by the classes present in both batches (source
    labels and target pseudo labels), as the conditional loss reads them."""
    shared = sorted(set(source.labels.tolist()) & set(target.labels.tolist()))
    return source.by_class(shared), target.by_class(shared)


def gradient_discrepancy_loss(gs: Tensor, gt: Tensor) -> Tensor:
    """Mean over rows of 1 - cos(gs[r], gt[r]) of two K-by-P matrices, in [0, 2].

    A row where either norm is ~0 adds a constant 0 (a vanished gradient has no
    alignment direction to push against) but counts in the mean; if every row
    does, the result is a constant 0 (no gradient signal).  The cosines are one
    :func:`~cgdm.tensor.cosine_rows` node over the live rows, whose row norms
    tell which rows live."""
    if gs.shape != gt.shape or gs.values.ndim != 2:
        raise ShapeError(
            f"gradients must be equal-shape K-by-P matrices, got {gs.shape}, {gt.shape}"
        )
    rows = gs.shape[0]
    cos, norm_s, norm_t = cosine_rows(gs, gt, EPS)
    live = (norm_s >= EPS) & (norm_t >= EPS)
    if not live.any():
        return Tensor(0.0)
    if not live.all():  # keep the live rows; the selection is exact
        keep = np.eye(rows)[live]
        cos = cosine_rows(matmul(keep, gs), matmul(keep, gt), EPS)[0]
    return mul(tsum(sub(1.0, cos)), 1.0 / rows)


def conditional_gradient_loss(f1, f2, source, target) -> Tensor:
    """Per-category gradient alignment, averaged over the classes present in
    both the source batch (true labels) and the target batch (pseudo labels):
    ``source`` and ``target`` as in :func:`class_gradients`, with the targets
    of :func:`by_shared_class`.  No shared class: a constant 0 and a warning."""
    members = source[1].members
    if members is None:
        raise ContractError("the conditional loss takes targets by shared class")
    if not members.shape[1]:
        logger.warning("conditional gradient loss: no shared classes in batch")
        return Tensor(0.0)
    return gradient_discrepancy_loss(*class_gradients(f1, f2, source, target))
