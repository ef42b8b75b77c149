"""Finite-difference and closed-form oracle suites.

Used both by the test suite and by the ``gradcheck`` CLI subcommand.  The
finite-difference side never touches reverse mode: losses are re-evaluated
forward-only per perturbation.  Models and batches are resampled until every
relu pre-activation clears a safety margin, because central differences are
meaningless across a kink.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import grad_discrepancy, nn
from .tensor import (
    Targets,
    Tensor,
    backward,
    exp,
    log_softmax,
    mean_abs_difference,
    no_grad,
    softmax_pair_cross_entropy,
)

__all__ = [
    "CheckResult",
    "finite_difference_gradient",
    "run_first_order_suite",
    "run_second_order_suite",
    "run_oracle_suite",
    "linear_head_gradient_oracle",
]

_MARGIN = 1e-2  # least |relu pre-activation| accepted for fd checks


@dataclass
class CheckResult:
    name: str
    max_err: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tolerance


def finite_difference_gradient(loss_fn, params, h: float = 1e-4):
    """Central-difference gradient of a scalar loss w.r.t. each parameter.

    ``loss_fn`` is re-evaluated from scratch per perturbation.  It runs with
    recording on, because a loss may read its own graph (the alignment loss
    records the heads' backward recurrence from their log-softmax nodes);
    plain forward losses just build a small throwaway graph.
    """
    grads = []
    for p in params:
        flat = p.values.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads.append(g.reshape(p.values.shape))
    return grads


def _rel_err(approx: np.ndarray, reference: np.ndarray, floor: float) -> float:
    denom = np.maximum(np.abs(reference), floor)
    return float(np.max(np.abs(approx - reference) / denom))


def _relu_margins(net: nn.Mlp, x: np.ndarray) -> float:
    """Smallest |pre-activation| among the net's relu layers, of every head
    of stacked heads."""
    h = x
    margin = np.inf
    for layer in net.layers:
        pre = h @ np.swapaxes(layer.weight.values, -1, -2) + layer.bias.values[..., None, :]
        if layer.activation == "relu":
            margin = min(margin, float(np.min(np.abs(pre))))
            h = np.maximum(pre, 0.0)
        else:
            h = pre
    return margin


def _sample_pair_case(rng):
    """A random pair of stacked 2-layer heads on one labelled batch, every
    relu pre-activation and every difference of their softmax outputs off
    its kink."""
    while True:
        d_in = int(rng.integers(2, 5))
        hidden = int(rng.integers(3, 7))
        k = int(rng.integers(2, 4))
        b = int(rng.integers(2, 6))
        net = nn.init_mlp([d_in, hidden, k], int(rng.integers(0, 2**31)))
        x = rng.normal(size=(b, d_in))
        y = rng.integers(0, k, size=b)
        if _relu_margins(net, x) <= _MARGIN:
            continue
        pair = nn.stack([net, nn.init_mlp([d_in, hidden, k], int(rng.integers(0, 2**31)))])
        with no_grad():
            p = exp(log_softmax(nn.forward(pair, Tensor(x)))).values
        if _relu_margins(pair, x) > _MARGIN and np.min(np.abs(p[0] - p[1])) > _MARGIN:
            return pair, x, y


def run_first_order_suite(n_models: int = 20, seed: int = 20240) -> CheckResult:
    """Autodiff vs central differences on random pairs of stacked 2-layer
    classification heads: the pair cross-entropy and the L1 discrepancy of
    their softmax outputs, the two fused losses that training records on
    the heads' log-softmax."""
    rng = np.random.default_rng([seed, 1])  # the pairs' own stream: a stable maximum
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(n_models):
        pair, x, y = _sample_pair_case(rng)
        targets = Targets.of(y, pair.out_dim)
        params = pair.parameters()
        for loss_fn in (
            lambda: softmax_pair_cross_entropy(log_softmax(nn.forward(pair, Tensor(x))),
                                               targets),
            lambda: mean_abs_difference(exp(log_softmax(nn.forward(pair, Tensor(x))))),
        ):
            auto = backward(loss_fn(), params)
            fd = finite_difference_gradient(loss_fn, params)
            for p, ref in zip(params, fd):
                worst = max(worst, _rel_err(auto[p].values, ref, floor=1e-2))
    return CheckResult(
        "first-order gradients vs finite differences",
        worst, 1e-4, time.perf_counter() - t0,
    )


def _tiny_alignment_case(rng, clf_dims=(3, 2)):
    """A <= 50 parameter generator and classifier pair of stacked heads
    (``clf_dims`` their layer widths) with safe relu margins on a joint
    batch, 3 source over 3 target input rows, and each domain's targets."""
    while True:
        gen = nn.init_mlp([2, 3], int(rng.integers(0, 2**31)), final_activation="relu")
        pair = nn.stack([nn.init_mlp(clf_dims, int(rng.integers(0, 2**31)))
                         for _ in range(2)])
        xs = rng.normal(size=(3, 2))
        ys = rng.integers(0, 2, size=3)
        xt = rng.normal(size=(3, 2))
        pseudo = rng.integers(0, 2, size=3)
        weights = rng.uniform(1.2, 1.9, size=3)
        margins = [_relu_margins(gen, xs), _relu_margins(gen, xt)]
        with no_grad():
            for x in (xs, xt):
                feats = nn.forward(gen, Tensor(x)).values
                margins.append(_relu_margins(pair, feats))
        if min(margins) > _MARGIN:
            return (gen, pair, np.concatenate((xs, xt)), Targets.of(ys, 2),
                    Targets.of(pseudo, 2, weights))


def run_second_order_suite(n_instances: int = 10, seed: int = 20241) -> CheckResult:
    """Double-backward generator gradient of the alignment loss vs central
    differences of the loss re-evaluated end to end per perturbation: per
    instance, the plain loss on linear heads and the conditional loss (both
    classes in both batches) on heads with a hidden relu layer."""
    rng = np.random.default_rng(seed)
    rng_conditional = np.random.default_rng([seed, 1])  # rng draws as it did
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(n_instances):
        plain = _tiny_alignment_case(rng)
        while True:  # until both classes are in both batches
            conditional = _tiny_alignment_case(rng_conditional, clf_dims=(3, 3, 2))
            if {*conditional[3].labels} & {*conditional[4].labels} == {0, 1}:
                break
        for (gen, pair, x, source, target), loss_of in (
            (plain, lambda *args: grad_discrepancy.gradient_discrepancy_loss(
                grad_discrepancy.class_gradients(*args))),
            (conditional, grad_discrepancy.conditional_gradient_loss),
        ):
            targets = grad_discrepancy.alignment_targets(
                source, target, loss_of is grad_discrepancy.conditional_gradient_loss)
            x = Tensor(x)

            def loss_fn():
                return loss_of(pair, log_softmax(nn.forward(pair, nn.forward(gen, x))),
                               targets)

            gen_params = gen.parameters()
            auto = backward(loss_fn(), gen_params)
            fd = finite_difference_gradient(loss_fn, gen_params)
            for p, ref in zip(gen_params, fd):
                worst = max(worst, _rel_err(auto[p].values, ref, floor=1e-5))
    return CheckResult(
        "double-backward alignment gradient vs finite differences",
        worst, 1e-3, time.perf_counter() - t0,
    )


def linear_head_gradient_oracle(features, labels, weights, weight, bias):
    """Closed-form gradient of mean weighted CE for one linear head.

    dW = (1/b) sum_i w_i (softmax(W x_i + b) - onehot(y_i)) x_i^T, and the
    bias analog without the x_i^T factor.  Pure numpy, no autodiff involved;
    this is the independent test oracle for the autodiff gradients.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    w = np.asarray(weights, dtype=np.float64)
    wt = np.asarray(weight, dtype=np.float64)
    bs = np.asarray(bias, dtype=np.float64)
    b = x.shape[0]
    logits = x @ wt.T + bs
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    diff = p.copy()
    diff[np.arange(b), y] -= 1.0
    diff *= w[:, None]
    d_weight = diff.T @ x / b
    d_bias = diff.sum(axis=0) / b
    return d_weight, d_bias


def run_oracle_suite(n_batches: int = 20, seed: int = 20242) -> CheckResult:
    """Autodiff class-gradient matrices vs the closed-form linear-head oracle.

    Checked: the source (unit weights) and target (entropy weights) matrices
    of :func:`~cgdm.grad_discrepancy.class_gradients`, as one row for the
    whole batch and as one row per class present, each row against the
    oracle on that class's rows.  That is the recorded head recurrence
    training runs.  The tests check it against
    :func:`~cgdm.grad_discrepancy.source_gradient` and
    :func:`~cgdm.grad_discrepancy.target_gradient`, the definition: one
    first-order backward per class to the classifier parameters."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(n_batches):
        d_in = int(rng.integers(2, 5))
        d_feat = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        b = int(rng.integers(2, 8))
        gen = nn.init_mlp([d_in, d_feat], int(rng.integers(0, 2**31)),
                          final_activation="relu")
        pair = nn.stack([nn.init_mlp([d_feat, k], int(rng.integers(0, 2**31)))
                         for _ in range(2)])
        x = rng.normal(size=(b, d_in))
        y = rng.integers(0, k, size=b)
        weights = rng.uniform(1.0, 2.0, size=b)

        with no_grad():
            feats = nn.forward(gen, Tensor(x))
        ts = Targets.of(y, k)
        tt = Targets.of(y, k, weights)

        unit = np.ones(b)
        found = []  # (gradient matrix, the class of each row or None: all rows, weights)
        for classes in (None, np.array(sorted(set(y.tolist())))):
            # both domains on the same batch: the joint rows hold it twice
            targets = grad_discrepancy.alignment_targets(ts, tt, classes is not None)
            joint = Tensor(np.concatenate([feats.values] * 2))
            g = grad_discrepancy.class_gradients(
                pair, log_softmax(nn.forward(pair, joint)), targets).values
            gs, gt = g[:len(g) // 2], g[len(g) // 2:]
            found += [(gs, classes, unit), (gt, classes, weights)]
        for matrix, classes, w in found:
            for r, got in enumerate(matrix):
                rows = np.ones(b, dtype=bool) if classes is None else y == classes[r]
                # head by head, [F1 | F2]; the two-head mean halves each
                layer = pair.layers[0]
                expected = 0.5 * np.concatenate([
                    part.reshape(-1) for h in range(2)
                    for part in linear_head_gradient_oracle(
                        feats.values[rows], y[rows], w[rows],
                        layer.weight.values[h], layer.bias.values[h])
                ])
                worst = max(worst, float(np.max(np.abs(got - expected))))
    return CheckResult(
        "autodiff class gradients vs closed-form linear-head oracle",
        worst, 1e-10, time.perf_counter() - t0,
    )
