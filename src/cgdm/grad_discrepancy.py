"""A domain's classifier gradient as a K-by-P matrix, and the cosine gap.

A domain's classifier gradient is that of the mean two-head cross-entropy on
its rows (source: true labels; target: pseudo labels and entropy weights)
with respect to every classifier parameter, columns in the order of
:func:`classifier_parameters`.  Row r of its K-by-P **class-gradient matrix**
is that gradient on the rows of class r, whatever the row order; without
classes the matrix has one row, the whole batch.  One definition makes every
such matrix: one create-graph backward, for all domains asked for at once,
to each head layer's node (:func:`~cgdm.nn.layer_taps`) gives the per-row
cotangent of its output; through a hidden layer's ReLU, the constant mask of
its positive outputs turns that into the cotangent ``delta`` of its affine
map.  With the layer's input ``H``, a weight gradient is ``delta^T H`` and
a bias gradient the column sum of ``delta``; masked to one class's rows,
that class's.  A domain's matrix, every layer's block, is one fused
:func:`~cgdm.tensor.class_affine_gradient` node.  :func:`source_gradient` and
:func:`target_gradient` ask for one domain, :func:`class_gradients` (which
training runs) for both.  The recorded graph keeps the gradients
differentiable, through the logits and the generator features under them,
with respect to the generator parameters: the alignment loss is minimized by
the generator via double backward.

A domain comes as the heads' log-softmax pair, made by the caller, and the
batch's :class:`~cgdm.losses.Targets`, made once per training iteration:
the cross-entropies read that log-softmax, which the caller's discrepancy
term also reads, and those one-hots and row scales.  For the conditional
loss, :func:`by_shared_class` turns both domains' targets into class
targets once per iteration, for every step-3 repeat.
"""
from __future__ import annotations

import functools
import logging

import numpy as np

from . import losses, nn
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    add,
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


def _domain_gradients(f1, f2, domains) -> tuple:
    """One class-gradient matrix per domain ``(log-softmax pair, targets)``,
    from one create-graph backward.  Targets :meth:`~cgdm.losses.Targets.by_class`
    weight each row by its class's mean (``b / n_k``), so one whole-batch CE
    per head gives every row's class-mean cotangent."""
    terms, taps = [], []
    for (ls1, ls2), targets in domains:
        terms.append(losses.pair_cross_entropy((ls1, ls2), targets))
        taps.append(([(h, z, layer.activation == "relu")
                      for f, ls in ((f1, ls1), (f2, ls2))
                      for layer, (h, z) in zip(f.layers, nn.layer_taps(f, _logits(ls)))],
                     targets.members))
    nodes = [z for layers, _ in taps for _, z, _ in layers]
    cots = backward(functools.reduce(add, terms), nodes, create_graph=True)
    return tuple(
        class_affine_gradient([(_delta(cots[z], z, relu), h) for h, z, relu in layers],
                              members)
        for layers, members in taps
    )


def _delta(g: Tensor, z: Tensor, relu: bool) -> Tensor:
    """The pre-activation cotangent of a layer node ``z`` whose output has
    cotangent ``g``: through a ReLU, ``g`` times the constant mask ``z > 0``."""
    return mul(g, z.values > 0.0) if relu else g


def _one_domain(f1, f2, logits1, logits2, targets, classes) -> Tensor:
    if classes is not None:
        targets = targets.by_class(classes)
    return _domain_gradients(
        f1, f2, [((log_softmax(logits1), log_softmax(logits2)), targets)])[0]


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


def class_gradients(f1, f2, source, target) -> tuple:
    """The source and target class-gradient matrices, one create-graph backward.

    ``source`` and ``target`` are each domain's ``(log-softmax pair,
    targets)``: ``losses.log_probs((f1, f2), feats)`` on the domain's rows
    and their :class:`~cgdm.losses.Targets`, whole-batch or by class.  The
    matrices are :func:`source_gradient`'s and :func:`target_gradient`'s
    for the same classes."""
    return _domain_gradients(f1, f2, [source, target])


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
