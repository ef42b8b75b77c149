"""A domain's classifier gradient as a K-by-P matrix, and the cosine gap.

A domain's classifier gradient is that of the mean two-head cross-entropy on
its rows (source: true labels; target: pseudo labels and entropy weights)
with respect to every classifier parameter, columns in the order of
:func:`classifier_parameters`.  Row r of its K-by-P **class-gradient matrix**
is that gradient on the rows of class r, whatever the row order; without
classes the matrix has one row, the whole batch.  One definition makes every
such matrix: one create-graph backward, for all domains asked for at once,
to each head layer's affine output gives the per-row cotangent ``delta``
there.  With the layer's input ``H``, a weight gradient is ``delta^T H`` and
a bias gradient the column sum of ``delta``; masked to one class's rows,
that class's.  Each layer's block is one fused
:func:`~cgdm.tensor.class_affine_gradient` node.  :func:`source_gradient` and
:func:`target_gradient` ask for one domain, :func:`class_gradients` (which
training runs) for both.  The recorded graph keeps the gradients
differentiable, through the logits and the generator features under them,
with respect to the generator parameters: the alignment loss is minimized by
the generator via double backward.
"""
from __future__ import annotations

import functools
import logging

import numpy as np

from . import losses, nn
from .tensor import (
    ShapeError,
    Tensor,
    add,
    backward,
    class_affine_gradient,
    concat,
    cosine_rows,
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
    "gradient_discrepancy_loss",
    "conditional_gradient_loss",
]

logger = logging.getLogger(__name__)

EPS = 1e-12


def classifier_parameters(f1: nn.Mlp, f2: nn.Mlp) -> list:
    """The parameters in the column order of a class-gradient matrix."""
    return f1.parameters() + f2.parameters()


def _domain_gradients(f1, f2, domains, classes) -> tuple:
    """One class-gradient matrix per domain ``(logits, labels, weights or
    None)``, from one create-graph backward.  Given ``classes``, row weights
    carry each class's mean (``b / n_k``), so one whole-batch CE per head gives
    every row's class-mean cotangent."""
    terms, taps = [], []
    for (out1, out2), labels, weights in domains:
        members = None
        if classes is not None:
            labels = np.asarray(labels)
            scale = labels.size / np.bincount(labels)[labels]
            weights = scale if weights is None else weights * scale
            members = (labels[:, None] == classes).astype(np.float64)
        terms.append(losses.pair_cross_entropy(out1, out2, labels, weights))
        taps.append((nn.layer_taps(f1, out1) + nn.layer_taps(f2, out2), members))
    affine = [z for layers, _ in taps for _, z in layers]
    deltas = backward(functools.reduce(add, terms), affine, create_graph=True)
    return tuple(
        concat([class_affine_gradient(deltas[z], h, members) for h, z in layers], axis=1)
        for layers, members in taps
    )


def source_gradient(f1, f2, logits1: Tensor, logits2: Tensor, labels,
                    classes=None) -> Tensor:
    """The source class-gradient matrix of rows with ``labels``: 1-by-P, or
    K-by-P for the K ``classes``; ``logits1``/``logits2`` are the heads'
    recorded outputs on those rows."""
    return _domain_gradients(f1, f2, [((logits1, logits2), labels, None)], classes)[0]


def target_gradient(f1, f2, logits1: Tensor, logits2: Tensor, pseudo,
                    classes=None) -> Tensor:
    """The target class-gradient matrix of rows aligned with ``pseudo``
    (labels and entropy weights); shapes and logits as in
    :func:`source_gradient`."""
    return _domain_gradients(
        f1, f2, [((logits1, logits2), pseudo.labels, pseudo.weights)], classes)[0]


def class_gradients(f1, f2, logits_s, labels_s, logits_t, pseudo,
                    classes=None) -> tuple:
    """The source and target class-gradient matrices, one create-graph backward.

    ``logits_s``/``logits_t`` are ``(forward(f1, x), forward(f2, x))`` on each
    domain's rows; the matrices are :func:`source_gradient`'s and
    :func:`target_gradient`'s for the same ``classes``."""
    return _domain_gradients(f1, f2, [(logits_s, labels_s, None),
                                      (logits_t, pseudo.labels, pseudo.weights)],
                             classes)


def gradient_discrepancy_loss(gs: Tensor, gt: Tensor) -> Tensor:
    """Mean over rows of 1 - cos(gs[r], gt[r]) of two K-by-P matrices, in [0, 2].

    A row where either norm is ~0 adds a constant 0 (a vanished gradient has no
    alignment direction to push against) but counts in the mean; if every row
    does, the result is a constant 0 (no gradient signal).  The cosines are one
    :func:`~cgdm.tensor.cosine_rows` node over the live rows."""
    if gs.shape != gt.shape or gs.values.ndim != 2:
        raise ShapeError(
            f"gradients must be equal-shape K-by-P matrices, got {gs.shape}, {gt.shape}"
        )
    rows = gs.shape[0]
    live = ((np.linalg.norm(gs.values, axis=1) >= EPS)
            & (np.linalg.norm(gt.values, axis=1) >= EPS))
    if not live.any():
        return Tensor(0.0)
    if not live.all():  # keep the live rows; the selection is exact
        keep = np.eye(rows)[live]
        gs, gt = matmul(keep, gs), matmul(keep, gt)
    return mul(tsum(sub(1.0, cosine_rows(gs, gt, EPS))), 1.0 / rows)


def conditional_gradient_loss(f1, f2, logits_s, labels_s, logits_t, pseudo) -> Tensor:
    """Per-category gradient alignment, averaged over classes present in both
    the source batch (true labels) and the target batch (pseudo labels); logits
    as in :func:`class_gradients`.  No shared class: a constant 0 and a warning."""
    shared = sorted(set(np.asarray(labels_s).tolist())
                    & set(np.asarray(pseudo.labels).tolist()))
    if not shared:
        logger.warning("conditional gradient loss: no shared classes in batch")
        return Tensor(0.0)
    return gradient_discrepancy_loss(*class_gradients(
        f1, f2, logits_s, labels_s, logits_t, pseudo, np.array(shared)
    ))
