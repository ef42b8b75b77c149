"""The primitive ops that the tests compose the fused ops of
:mod:`cgdm.tensor` from, recorded as graph nodes like the core's own.

Training records none of them, so the package keeps only the ops it runs.
Importing this module registers their vjp formulas in ``cgdm.tensor._VJPS``
(``_VJPS`` below), so ``backward`` differentiates a composition of them and
a test can check a fused op against its composition bit for bit: values and
every first-order gradient, or, for a fused op whose sums run in another
order, gradients within ``GRADIENT_RTOL`` (:func:`relative_gap`).  The ops
follow the core's contract: restricted broadcasting, one leading head axis
where a docstring says so, and formulas ``vjp(g, args, out, ctx, needed)``
that give None to a parent not needed.

* ``sub``, ``neg``, ``transpose``, ``relu``, ``log``, ``pow_const``,
  ``tsum``, ``reshape`` and ``concat``: the elementwise, reduction and
  layout primitives;
* ``head_difference(a)``: ``sub`` of a pair's two heads;
* ``absolute(a)``: ``add(relu(a), relu(neg(a)))`` as one node;
* ``cosine_rows(gs, gt)``: ``(gs . gt) / (|gs| |gt| + COSINE_EPS)`` per
  row, the cosines that ``cosine_gap`` fuses, as one node whose reference
  formulas (``_cosine_parts``, ``_cosine_cotangents``) replay the
  composition's row sums and cotangents;
* ``softmax(a)``: ``exp(log_softmax(a))``;
* ``softmax_cross_entropy(ls, targets)``: one head's (or each stacked
  head's) mean of ``-w_i * ls[i, y_i]`` for a batch's
  :class:`~cgdm.tensor.Targets`, whose half-sum over a pair
  ``softmax_pair_cross_entropy`` fuses.

``pow_const`` and the ``log`` and ``pow`` vjps raise ``DomainError`` where
the power is undefined (``_power``).
"""
import math

import numpy as np

from cgdm import tensor as T
from cgdm.tensor import (
    ContractError,
    DomainError,
    ShapeError,
    Targets,
    Tensor,
    _absolute_vjp,
    _ce_grad,
    _check_broadcast,
    _heads_cross_entropy,
    _node,
    _unbroadcast,
    _where_positive,
    as_tensor,
)


# a fused op whose sums run in another order than its reference's (a joint
# batch's linear node against one pass per domain, cosine_gap's vjp against
# its composition) agrees with it to this share of the largest entry
GRADIENT_RTOL = 1e-12


def relative_gap(a, b) -> float:
    """``max|a - b| / max|b|``: 0 for equal arrays, inf for a nonzero ``a``
    against an all-zero ``b``."""
    gap, scale = np.max(np.abs(a - b)), np.max(np.abs(b))
    return float(gap / scale) if scale else (math.inf if gap else 0.0)


def _power(values: np.ndarray, p: float) -> np.ndarray:
    """values**p, refused where the power is undefined: one scan of the
    values, and a second only to word the error."""
    fractional = p != int(p)
    if fractional:
        undefined = values <= 0.0 if p < 0.0 else values < 0.0
    elif p < 0.0:
        undefined = values == 0.0
    else:
        return values**p
    if undefined.any():
        if fractional and (values < 0.0).any():
            raise DomainError(f"power {p} requires nonnegative inputs")
        raise DomainError(f"power {p} undefined at zero")
    return values**p


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _check_broadcast(a.shape, b.shape, "sub")
    return _node(a.values - b.values, (a, b), "sub")


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.values, (a,), "neg")


def head_difference(a) -> Tensor:
    """``a[0] - a[1]`` of two heads stacked on the leading axis."""
    a = as_tensor(a)
    if a.values.ndim < 2 or a.shape[0] != 2:
        raise ShapeError(f"head_difference needs a stack of two heads, got {a.shape}")
    return _node(a.values[0] - a.values[1], (a,), "head_difference")


def transpose(a) -> Tensor:
    """The transpose of a 2-D tensor: a view, which BLAS reads in place."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return _node(a.values.T, (a,), "transpose")


def relu(a) -> Tensor:
    """max(a, 0); the vjp reads its 0/1 mask off the output."""
    a = as_tensor(a)
    return _node(np.maximum(a.values, 0.0), (a,), "relu")


def absolute(a) -> Tensor:
    """|a| with subgradient 0 at the origin: ``add(relu(a), relu(neg(a)))``
    as one node, whose vjp reads its masks ``a > 0`` and ``a < 0`` off the
    input."""
    a = as_tensor(a)
    return _node(np.abs(a.values), (a,), "abs")


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.values <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    return _node(np.log(a.values), (a,), "log")


def pow_const(a, p) -> Tensor:
    """Elementwise a**p for a constant exponent p."""
    a = as_tensor(a)
    p = float(p)
    return _node(_power(a.values, p), (a,), "pow", p)


def tsum(a, axis=None) -> Tensor:
    """Sum of all elements (axis=None, a scalar) or along axis 0/1 of a
    matrix, or of a stack of matrices: over its heads or its rows."""
    a = as_tensor(a)
    if axis is None:
        return _node(np.asarray(a.values.sum()), (a,), "sum")
    if a.values.ndim not in (2, 3) or axis not in (0, 1):
        raise ShapeError(f"sum(axis={axis}) unsupported for shape {a.shape}")
    return _node(a.values.sum(axis=axis), (a,), "sum0" if axis == 0 else "sum1", axis)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.values.reshape(shape), (a,), "reshape")


def concat(tensors, axis=0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    if not tensors:
        raise ContractError("concat of an empty sequence")
    vals = np.concatenate([t.values for t in tensors], axis=axis)
    return _node(vals, tensors, "concat", axis)


def _cosine_parts(gs, gt):
    """Row sums s.s, t.t and s.t, the norms, d = |s||t| + COSINE_EPS and 1/d."""
    ss, tt, st = (np.add.reduce(a * b, 1) for a, b in ((gs, gs), (gt, gt), (gs, gt)))
    norm_s, norm_t = ss**0.5, tt**0.5
    denom = norm_s * norm_t + T.COSINE_EPS
    return ss, tt, st, norm_s, norm_t, denom, denom**-1.0


def cosine_rows(gs, gt) -> tuple:
    """``(cos, norm_s, norm_t)``: the first-order node ``(gs . gt) / (|gs|
    |gt| + COSINE_EPS)`` of each row of two b-by-P matrices, and the row
    norms |gs| and |gt| it computed, as arrays."""
    gs, gt = as_tensor(gs), as_tensor(gt)
    if gs.shape != gt.shape or gs.values.ndim != 2:
        raise ShapeError(f"cosine_rows: shapes {gs.shape} and {gt.shape}")
    parts = _cosine_parts(gs.values, gt.values)
    return _node(parts[2] * parts[6], (gs, gt), "cosine_rows", parts), parts[3], parts[4]


def softmax(a) -> Tensor:
    return T.exp(T.log_softmax(a))


def softmax_cross_entropy(ls: Tensor, targets: Targets) -> Tensor:
    """Mean over the batch of ``-weights[i] * ls[i, y_i]``, where ``ls`` is
    the node ``log_softmax(logits)`` that the caller made; for stacked heads
    (``ls`` H-by-b-by-K), the H heads' means.  The arguments are those of
    ``softmax_pair_cross_entropy``; the node's parent is the logits, and its
    context keeps the values of ``ls``, which the vjp reads."""
    return _node(_heads_cross_entropy(ls, targets)[0], ls.parents,
                 "cross_entropy", (ls.values, targets.onehot, targets.scale))


# -- vjp formulas: vjp(g, args, out, ctx, needed) -> parent cotangents ---------

def _sub_vjp(g, args, out, ctx, needed):
    a, b = args
    return (_unbroadcast(g, a.shape) if needed[0] else None,
            _unbroadcast(-g, b.shape) if needed[1] else None)


def _sum_axis_vjp(g, args, out, axis, needed):
    return (np.full(args[0].shape, np.expand_dims(g, axis)),)


def _concat_vjp(g, args, out, axis, needed):
    cots, start, before = [], 0, (slice(None),) * axis
    for a, need in zip(args, needed):
        length = a.shape[axis]
        cots.append(g[before + (slice(start, start + length),)] if need else None)
        start += length
    return tuple(cots)


def _cross_entropy_vjp(g, args, out, ctx, needed):
    """Each head's cotangent scales its rows: ``g`` gets two trailing axes."""
    ls, onehot, scale = ctx
    return (_ce_grad(ls, np.expand_dims(g, (-2, -1)), onehot, scale),)


def _cosine_cotangents(g, gs, gt, parts):
    """The cotangents of ``gs`` and ``gt`` for the cotangent ``g`` of their
    row cosines, from the forward's row sums ``parts``.  A matrix's
    cotangent arrives through s.t first, then twice through its own square
    (``mul(a, a)``), as in the composition; the terms of the denominator
    and of s.t are made once for both."""
    ss, tt, st, norm_s, norm_t, denom, inv = parts
    g_denom = g * st * (denom**-2.0 * -1.0)
    g_cross = (g * inv)[:, None]
    cots = []
    for a, other, own_sq, other_norm in ((gs, gt, ss, norm_t), (gt, gs, tt, norm_s)):
        g_sq = g_denom * other_norm * (own_sq**-0.5 * 0.5)
        square = g_sq[:, None] * a
        cots.append(g_cross * other + square + square)
    return tuple(cots)


def _cosine_rows_vjp(g, args, out, parts, needed):
    """Both parents' cotangents, None for a parent not needed."""
    cots = _cosine_cotangents(g, *args, parts)
    return tuple(c if need else None for c, need in zip(cots, needed))


_VJPS = {
    "sub": _sub_vjp,
    "neg": lambda g, args, out, ctx, needed: (-g,),
    "head_difference": lambda g, args, out, ctx, needed: (np.stack((g, -g)),),
    "transpose": lambda g, args, out, ctx, needed: (g.T,),
    "relu": lambda g, args, out, ctx, needed: (_where_positive(g, out),),
    "abs": _absolute_vjp,
    "log": lambda g, args, out, ctx, needed: (g * _power(args[0], -1.0),),
    "pow": lambda g, args, out, p, needed: (g * (_power(args[0], p - 1.0) * p),),
    "sum": lambda g, args, out, ctx, needed: (np.full(args[0].shape, g),),
    "sum0": _sum_axis_vjp,
    "sum1": _sum_axis_vjp,
    "reshape": lambda g, args, out, ctx, needed: (g.reshape(args[0].shape),),
    "concat": _concat_vjp,
    "cosine_rows": _cosine_rows_vjp,
    "cross_entropy": _cross_entropy_vjp,
}

T._VJPS.update(_VJPS)
