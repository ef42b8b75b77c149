"""Dense float64 tensors with reverse-mode autodiff that supports double backward.

The computation graph is implicit: every op executed while recording is
enabled produces a tensor that references its parent tensors (``parents``),
names its op (``op``) and keeps a small saved context.  Node ids grow
monotonically with creation order, so iterating reachable nodes by descending
id is a valid reverse topological order.

Each op's backward is written once, in the table ``_VJPS``: one
vector-Jacobian-product formula per op and parent, a module-level function
``vjp(ns, g, args, out, ctx)`` of the cotangent ``g``, the parents ``args``,
the node's output ``out`` and its saved context ``ctx`` (the pow exponent,
the concat axis, the narrowed range, or the cross-entropy's
``(log_softmax node, onehot, scale)``; relu keeps none and takes its mask
``out > 0`` from its output, only when a backward visits it).  ``ns`` is the
arithmetic the formula is written against, and ``backward`` passes one of
two:

* ``_GRAPH``, the differentiable primitives below, with the parent and output
  tensors.  ``backward(..., create_graph=True)`` uses it, so the gradient
  arithmetic is recorded like any other forward computation and a second
  backward pass through a gradient is exact.  That is the whole trick behind
  higher-order support.
* ``_ARRAYS``, the same operations in plain numpy, with the parents' and the
  output's ``.values``.  A first-order ``backward`` uses it: its cotangents
  are arrays and only the returned gradients are wrapped in tensors, so it
  records nothing.

Both namespaces run the same numpy operations in the same order, so the two
modes give bit-identical gradients.  A transpose is a view in both, unless
a formula asks for a C-ordered copy, so ``linear``, its weight vjp ``g^T x``
and the other matmuls pass transposed views to BLAS, which reads them in
place.  A node holds no closure and no reference to itself (exp and
log_softmax get their output as ``out``), so a graph is freed by reference
counting alone.

All arithmetic is float64.  Broadcasting is deliberately restricted to
scalar-vs-tensor and row-vs-matrix (a 1-D vector of length K against a b-by-K
matrix); anything else raises :class:`ShapeError`.  A tensor and the graph it
belongs to are confined to a single thread; the recording switch is
thread-local so independent runs can execute concurrently.

Fused ops stand for common compositions, one node each.  Their forward
values come from the composition's numpy operations in its order, and their
vjps, written against ``ns``, replay its cotangents in the order it adds a
parent's contributions, so gradients are bit-identical to it:

* ``linear(x, w, b)``: ``add(matmul(x, transpose(w)), b)``;
* ``softmax_cross_entropy(logits, onehot, weights)``: the mean of
  ``-w_i * log_softmax(logits)[i, y_i]``; its vjp is the fused
  ``cross_entropy_grad(ls, g, onehot, scale)``, ``(exp(ls) - onehot) * (g * scale)``;
* ``class_affine_gradient(delta, h, members)``: an affine layer's weight and
  bias gradient ``[vec(delta_r^T h) | column sums of delta_r]`` per class r;
* ``cosine_rows(gs, gt, eps)``: ``(gs . gt) / (|gs| |gt| + eps)`` per row.

``tile_cols`` and ``tile_rows`` copy a vector across columns or a row down
rows: ``_GRAPH`` records ``(b,1) @ ones((1,k))`` and ``ones * v``, ``_ARRAYS``
makes a broadcast copy, the same values in fewer calls.  Likewise
``class_copies`` (the masked copies of ``delta``) and ``class_fold`` (their
cotangents summed back) record ``concat``, ``mul``, ``narrow`` and ``add`` but
run as one broadcast product, and one product and sum, on arrays.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
from types import SimpleNamespace

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "ContractError",
    "no_grad",
    "as_tensor",
    "zeros",
    "ones",
    "zeros_like",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "linear",
    "transpose",
    "relu",
    "absolute",
    "exp",
    "log",
    "pow_const",
    "tsum",
    "reshape",
    "concat",
    "narrow",
    "log_softmax",
    "softmax",
    "softmax_cross_entropy",
    "cross_entropy_grad",
    "class_affine_gradient",
    "cosine_rows",
    "backward",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the op (e.g. log of <= 0)."""


class ContractError(ValueError):
    """A documented precondition was violated."""


class _GradState(threading.local):
    enabled = True  # class default: every new thread starts recording


_ids = itertools.count()
_state = _GradState()


def _set_grad(flag: bool) -> bool:
    prev = _state.enabled
    _state.enabled = flag
    return prev


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        self._prev = _set_grad(False)
        return self

    def __exit__(self, *exc):
        _set_grad(self._prev)
        return False


class Tensor:
    """A dense float64 array, optionally a node of the implicit graph.

    A tensor built here is a leaf (a constant or a parameter): ``parents``
    and ``op`` are empty.  Graph nodes are made by the ops only, so each has
    a ``_VJPS`` entry.  Identity semantics are deliberate: tensors hash by
    object identity so they can key gradient maps.
    """

    __slots__ = ("values", "_id", "parents", "op", "_ctx")

    def __init__(self, values):
        if isinstance(values, np.ndarray):
            if values.dtype != np.float64:
                values = values.astype(np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
        self.values = values
        self._id = next(_ids)
        self.parents, self.op, self._ctx = (), None, None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of size {self.values.size}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        tag = f" op={self.op}" if self.op else ""
        return f"Tensor(shape={self.shape}{tag}, values={self.values!r})"

    # operator sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_const(self, p)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64))


def zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros_like(t.values))


def _node(values, parents, op, ctx=None) -> Tensor:
    """Record an op result; plain tensor when recording is off.

    ``values`` comes from numpy arithmetic on float64 operands, so only the
    numpy scalar that a ufunc returns for 0-d inputs needs wrapping.
    """
    if type(values) is not np.ndarray:
        values = np.asarray(values, dtype=np.float64)
    out = object.__new__(Tensor)
    out.values = values
    out._id = next(_ids)
    if _state.enabled:
        out.parents, out.op, out._ctx = parents, op, ctx
    else:
        out.parents, out.op, out._ctx = (), None, None
    return out


def _check_broadcast(sa, sb, op) -> None:
    """Raise ShapeError unless the restricted broadcast rules allow sa with sb."""
    if math.prod(sa) == 1 or math.prod(sb) == 1:
        return
    if (len(sa) == 2 and sb == (sa[1],)) or (len(sb) == 2 and sa == (sb[1],)):
        return
    raise ShapeError(f"{op}: shapes {sa} and {sb} are not broadcast-compatible")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _check_broadcast(a.shape, b.shape, "add")
    return _node(a.values + b.values, (a, b), "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _check_broadcast(a.shape, b.shape, "sub")
    return _node(a.values - b.values, (a, b), "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _check_broadcast(a.shape, b.shape, "mul")
    return _node(a.values * b.values, (a, b), "mul")


def div(a, b) -> Tensor:
    return mul(as_tensor(a), pow_const(as_tensor(b), -1.0))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.values, (a,), "neg")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    return _node(a.values @ b.values, (a, b), "matmul")


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w.T + b`` of a batch x (b-by-in), weight w (out-by-in)
    and bias b (out).  The bias is added in place into the fresh matmul
    output, so no second b-by-out array is made; the values are the same."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.values.ndim != 2 or w.values.ndim != 2:
        raise ShapeError(f"linear needs 2-D x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeError(
            f"linear: x {x.shape}, w {w.shape} and b {b.shape} do not fit"
        )
    out = x.values @ w.values.T
    out += b.values
    return _node(out, (x, w, b), "linear")


def _transposed(values: np.ndarray, contiguous: bool = False) -> np.ndarray:
    return np.ascontiguousarray(values.T) if contiguous else values.T


def transpose(a, contiguous: bool = False) -> Tensor:
    """The transpose of a 2-D tensor: a view, which BLAS reads in place, or
    with ``contiguous`` a C-ordered copy."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return _node(_transposed(a.values, contiguous), (a,), "transpose")


def relu(a) -> Tensor:
    """max(a, 0); the vjp reads its 0/1 mask off the output."""
    a = as_tensor(a)
    return _node(np.maximum(a.values, 0.0), (a,), "relu")


def absolute(a) -> Tensor:
    """|a| with subgradient 0 at the origin (relu composition)."""
    a = as_tensor(a)
    return add(relu(a), relu(neg(a)))


def exp(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.exp(a.values), (a,), "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.values <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    return _node(np.log(a.values), (a,), "log")


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
            raise DomainError(f"pow_const({p}) requires nonnegative inputs")
        raise DomainError(f"pow_const({p}) undefined at zero")
    return values**p


def pow_const(a, p) -> Tensor:
    """Elementwise a**p for a constant exponent p."""
    a = as_tensor(a)
    p = float(p)
    return _node(_power(a.values, p), (a,), "pow", p)


def tsum(a, axis=None) -> Tensor:
    """Sum of all elements (axis=None, a scalar) or along axis 0/1 of a matrix."""
    a = as_tensor(a)
    if axis is None:
        return _node(np.asarray(a.values.sum()), (a,), "sum")
    if a.values.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"sum(axis={axis}) unsupported for shape {a.shape}")
    return _node(a.values.sum(axis=axis), (a,), "sum0" if axis == 0 else "sum1")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.values.reshape(shape), (a,), "reshape")


def concat(tensors, axis=0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    if not tensors:
        raise ContractError("concat of an empty sequence")
    vals = np.concatenate([t.values for t in tensors], axis=axis)
    return _node(vals, tensors, "concat", axis)


def _narrowed(values: np.ndarray, axis, start, length) -> np.ndarray:
    """A view of the slice [start, start+length) along axis."""
    index = [slice(None)] * values.ndim
    index[axis] = slice(start, start + length)
    return values[tuple(index)]


def narrow(a, axis, start, length) -> Tensor:
    """Contiguous slice [start, start+length) along axis."""
    a = as_tensor(a)
    dim = a.shape[axis]
    if start < 0 or start + length > dim:
        raise ShapeError(f"narrow [{start}, {start + length}) out of range for dim {dim}")
    vals = _narrowed(a.values, axis, start, length).copy()
    return _node(vals, (a,), "narrow", (axis, start, length))


def log_softmax(a) -> Tensor:
    """Row-wise log-softmax, stabilised by max subtraction."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"log_softmax needs a b-by-K tensor, got {a.shape}")
    if not np.all(np.isfinite(a.values)):
        raise DomainError("log_softmax requires finite logits")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    vals = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return _node(vals, (a,), "log_softmax")


def softmax(a) -> Tensor:
    return exp(log_softmax(a))


def softmax_cross_entropy(logits, onehot: np.ndarray, weights=None) -> Tensor:
    """Mean over the batch of ``-weights[i] * log_softmax(logits)[i, y_i]``.

    ``onehot`` is the b-by-K one-hot encoding of the labels y; ``weights``
    (length b) defaults to all ones.  The log-softmax node made here is
    referenced by the saved context only, so a create-graph backward
    differentiates the softmax through it.
    """
    a = as_tensor(logits)
    ls = log_softmax(a)
    b, k = ls.shape
    if onehot.shape != (b, k):
        raise ShapeError(f"one-hot {onehot.shape} does not match logits {(b, k)}")
    picked = -(ls.values * onehot).sum(axis=1)
    if weights is None:
        weights = np.ones(b)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (b,):
            raise ShapeError(f"{weights.shape} weights for a batch of {b}")
        picked = picked * weights
    scale = np.repeat(weights / b, k).reshape(b, k)
    return _node(
        np.asarray(picked.sum()) * (1.0 / b),
        (a,),
        "cross_entropy",
        (ls, np.asarray(onehot, dtype=np.float64), scale),
    )


def cross_entropy_grad(ls, g, onehot: np.ndarray, scale: np.ndarray) -> Tensor:
    """``(exp(ls) - onehot) * (g * scale)``: the logits' cotangent of a
    :func:`softmax_cross_entropy` node with log-softmax ``ls``, cotangent
    ``g`` and per-element row scale ``scale``, as one node."""
    return _node(_ARRAYS.cross_entropy_grad(ls.values, g.values, onehot, scale),
                 (ls, g), "cross_entropy_grad", (onehot, scale))


def class_affine_gradient(delta, h, members=None) -> Tensor:
    """Row r is ``[vec(d_r^T h) | column sums of d_r]``, the weight and bias
    gradient of an affine layer with input ``h`` on the rows of class r:
    ``d_r`` is the output cotangent ``delta`` on the rows that ``members``
    (b-by-K, 0/1) puts in class r; ``None`` is one class of all rows.  The
    masked copies of ``delta`` live only inside the op."""
    delta, h = as_tensor(delta), as_tensor(h)
    if delta.values.ndim != 2 or h.values.ndim != 2 or delta.shape[0] != h.shape[0]:
        raise ShapeError(f"class_affine_gradient: delta {delta.shape}, h {h.shape}")
    rows = 1 if members is None else members.shape[-1]
    if members is not None and (members.shape != (h.shape[0], rows) or not rows):
        raise ShapeError(f"{members.shape} members for {h.shape[0]} rows")
    copies = delta.values if members is None else _ARRAYS.class_copies(delta.values, members)
    weight = copies.T @ h.values
    return _node(np.concatenate([weight.reshape(rows, -1),
                                 copies.sum(axis=0).reshape(rows, -1)], 1),
                 (delta, h), "class_affine_gradient", members)


def _cosine_parts(ns, gs, gt, eps):
    """Row sums s.s, t.t and s.t, the norms, d = |s||t| + eps and 1/d."""
    ss, tt, st = (ns.tsum(ns.mul(a, b), 1) for a, b in ((gs, gs), (gt, gt), (gs, gt)))
    norm_s, norm_t = ns.pow_const(ss, 0.5), ns.pow_const(tt, 0.5)
    denom = ns.add(ns.mul(norm_s, norm_t), eps)
    return ss, tt, st, norm_s, norm_t, denom, ns.pow_const(denom, -1.0)


def cosine_rows(gs, gt, eps: float) -> Tensor:
    """``(gs . gt) / (|gs| |gt| + eps)`` of each row of two b-by-P matrices."""
    gs, gt = as_tensor(gs), as_tensor(gt)
    if gs.shape != gt.shape or gs.values.ndim != 2:
        raise ShapeError(f"cosine_rows: shapes {gs.shape} and {gt.shape}")
    parts = _cosine_parts(_ARRAYS, gs.values, gt.values, eps)
    return _node(parts[2] * parts[6], (gs, gt), "cosine_rows", (eps, parts))


# -- the two arithmetic namespaces the vjp formulas run on ---------------------

def _filled(v, shape) -> np.ndarray:
    """A new array of ``shape`` holding ``v`` broadcast (a scalar, a row or a
    column): the tilings of the array path."""
    out = np.empty(shape)
    out[...] = v
    return out


def _where_positive(g, out) -> np.ndarray:
    """``g`` times the 0/1 mask of ``out > 0``, made in the mask's buffer."""
    mask = (out > 0.0).astype(np.float64)
    return np.multiply(g, mask, out=mask)


def _class_fold(g, members):
    """The cotangent of ``delta`` from that of its K masked copies side by
    side: each copy's masked cotangent, added in copy order."""
    width = g.shape[1] // members.shape[1]
    g = mul(g, np.repeat(members, width, axis=1))
    total = narrow(g, 1, 0, width)
    for r in range(1, members.shape[1]):
        total = add(total, narrow(g, 1, r * width, width))
    return total


_GRAPH = SimpleNamespace(
    add=add, sub=sub, neg=neg, mul=mul, matmul=matmul, transpose=transpose,
    exp=exp, pow_const=pow_const, tsum=tsum, reshape=reshape, concat=concat,
    narrow=narrow, zeros=zeros, ones=ones, cross_entropy_grad=cross_entropy_grad,
    tile_cols=lambda v, k: matmul(reshape(v, (v.shape[0], 1)), ones((1, k))),
    tile_rows=lambda v, shape: mul(ones(shape), v),
    # delta masked to the rows of each class, the K copies side by side
    class_copies=lambda delta, members: mul(concat([delta] * members.shape[1], 1),
                                            np.repeat(members, delta.shape[1], axis=1)),
    class_fold=_class_fold,
    saved=lambda t: t,  # a node kept in a context, as this namespace sees it
    where_positive=lambda g, out: mul(g, out.values > 0.0),  # a constant 0/1 mask
)

_ARRAYS = SimpleNamespace(
    add=np.add, sub=np.subtract, neg=np.negative, mul=np.multiply,
    matmul=np.matmul, transpose=_transposed,
    exp=np.exp, pow_const=_power,
    tsum=lambda a, axis=None: a.sum() if axis is None else a.sum(axis=axis),
    reshape=np.reshape, concat=lambda parts, axis: np.concatenate(parts, axis=axis),
    narrow=_narrowed, zeros=np.zeros, ones=np.ones,
    cross_entropy_grad=lambda ls, g, onehot, scale: (np.exp(ls) - onehot) * (g * scale),
    tile_cols=lambda v, k: _filled(v[:, None], (len(v), k)),
    tile_rows=lambda v, shape: _filled(v, shape),
    class_copies=lambda delta, members: (
        delta[:, None, :] * members[:, :, None]).reshape(len(delta), -1),
    class_fold=lambda g, members: (
        g.reshape(len(g), members.shape[1], -1) * members[:, :, None]).sum(axis=1),
    saved=lambda t: t.values,
    where_positive=_where_positive,
)


# -- vjp formulas: vjp(ns, g, args, out, ctx) -> cotangent of one parent ------

def _unbroadcast(ns, g, shape):
    """Reduce a cotangent back to an operand's shape."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return ns.reshape(ns.tsum(g), shape)
    # row operand (K,) against matrix (b, K)
    return ns.tsum(g, 0)


def _narrow_vjp(ns, g, args, out, ctx):
    axis, start, length = ctx
    shape = list(args[0].shape)
    dim = shape[axis]
    parts = []
    if start > 0:
        shape[axis] = start
        parts.append(ns.zeros(tuple(shape)))
    parts.append(g)
    if start + length < dim:
        shape[axis] = dim - start - length
        parts.append(ns.zeros(tuple(shape)))
    return ns.concat(parts, axis) if len(parts) > 1 else g


def _concat_vjp(i, ns, g, args, out, axis):
    start = sum(a.shape[axis] for a in args[:i])
    return ns.narrow(g, axis, start, args[i].shape[axis])


def _log_softmax_vjp(ns, g, args, out, ctx):
    return ns.sub(g, ns.mul(ns.exp(out), ns.tile_cols(ns.tsum(g, 1), args[0].shape[1])))


def _cross_entropy_vjp(ns, g, args, out, ctx):
    ls, onehot, scale = ctx
    return ns.cross_entropy_grad(ns.saved(ls), g, onehot, scale)


def _cross_entropy_grad_vjp(i, ns, g, args, out, ctx):
    ls, g_loss = args
    onehot, scale = ctx
    if i == 0:
        return ns.mul(ns.mul(g, ns.mul(g_loss, scale)), ns.exp(ls))
    return _unbroadcast(
        ns, ns.mul(ns.mul(g, ns.sub(ns.exp(ls), onehot)), scale), g_loss.shape)


def _class_affine_vjp(i, ns, g, args, out, members):
    delta, h = args
    width, n_in = delta.shape[1], h.shape[1]
    rows = out.shape[0]
    g_weight = ns.reshape(ns.narrow(g, 1, 0, width * n_in), (rows * width, n_in))
    if i == 1:
        copies = delta if members is None else ns.class_copies(delta, members)
        return ns.matmul(copies, g_weight)
    # a C-ordered h^T: BLAS reads a transposed view in another summation
    # order when g_weight has few rows, and these sums keep their bits
    g_copies = ns.add(ns.transpose(ns.matmul(g_weight, ns.transpose(h, True))),
                      ns.reshape(ns.narrow(g, 1, width * n_in, width), (rows * width,)))
    return g_copies if members is None else ns.class_fold(g_copies, members)


def _cosine_rows_vjp(i, ns, g, args, out, ctx):
    """A parent's cotangent arrives through s.t first, then twice through
    its own square (``mul(a, a)``), as in the composition.  The array path
    reads the forward's row sums from the context; the graph path makes them
    again from the parents, so that a further backward differentiates them."""
    a, other = args if i == 0 else args[::-1]
    eps, parts = ctx
    if ns is _GRAPH:
        parts = _cosine_parts(ns, *args, eps)
    ss, tt, st, norm_s, norm_t, denom, inv = parts
    own_sq, other_norm = (ss, norm_t) if i == 0 else (tt, norm_s)
    g_denom = ns.mul(ns.mul(g, st), ns.mul(ns.pow_const(denom, -2.0), -1.0))
    g_sq = ns.mul(ns.mul(g_denom, other_norm), ns.mul(ns.pow_const(own_sq, -0.5), 0.5))
    cross = ns.mul(ns.tile_cols(ns.mul(g, inv), a.shape[1]), other)
    square = ns.mul(ns.tile_cols(g_sq, a.shape[1]), a)
    return ns.add(ns.add(cross, square), square)


def _per_parent(formula, n):
    """One entry per parent of a formula ``formula(i, ns, g, args, out, ctx)``."""
    return tuple(functools.partial(formula, i) for i in range(n))


class _EveryParent:
    """Vjp entry of a variadic op: ``entry[i]`` is the formula for parent i
    (and iterating it yields one formula per parent, without end)."""

    def __init__(self, formula):
        self._formula = formula

    def __getitem__(self, i):
        return functools.partial(self._formula, i)


_VJPS = {
    "add": (lambda ns, g, args, out, ctx: _unbroadcast(ns, g, args[0].shape),
            lambda ns, g, args, out, ctx: _unbroadcast(ns, g, args[1].shape)),
    "sub": (lambda ns, g, args, out, ctx: _unbroadcast(ns, g, args[0].shape),
            lambda ns, g, args, out, ctx: _unbroadcast(ns, ns.neg(g), args[1].shape)),
    "mul": (lambda ns, g, args, out, ctx:
            _unbroadcast(ns, ns.mul(g, args[1]), args[0].shape),
            lambda ns, g, args, out, ctx:
            _unbroadcast(ns, ns.mul(g, args[0]), args[1].shape)),
    "neg": (lambda ns, g, args, out, ctx: ns.neg(g),),
    "matmul": (lambda ns, g, args, out, ctx: ns.matmul(g, ns.transpose(args[1])),
               lambda ns, g, args, out, ctx: ns.matmul(ns.transpose(args[0]), g)),
    "linear": (lambda ns, g, args, out, ctx: ns.matmul(g, args[1]),
               lambda ns, g, args, out, ctx: ns.matmul(ns.transpose(g), args[0]),
               lambda ns, g, args, out, ctx: ns.tsum(g, 0)),
    "transpose": (lambda ns, g, args, out, ctx: ns.transpose(g),),
    "relu": (lambda ns, g, args, out, ctx: ns.where_positive(g, out),),
    "exp": (lambda ns, g, args, out, ctx: ns.mul(g, out),),
    "log": (lambda ns, g, args, out, ctx: ns.mul(g, ns.pow_const(args[0], -1.0)),),
    "pow": (lambda ns, g, args, out, p:
            ns.mul(g, ns.mul(ns.pow_const(args[0], p - 1.0), p)),),
    "sum": (lambda ns, g, args, out, ctx: ns.tile_rows(g, args[0].shape),),
    "sum0": (lambda ns, g, args, out, ctx: ns.tile_rows(g, args[0].shape),),
    "sum1": (lambda ns, g, args, out, ctx: ns.tile_cols(g, args[0].shape[1]),),
    "reshape": (lambda ns, g, args, out, ctx: ns.reshape(g, args[0].shape),),
    "concat": _EveryParent(_concat_vjp),
    "narrow": (_narrow_vjp,),
    "log_softmax": (_log_softmax_vjp,),
    "cross_entropy": (_cross_entropy_vjp,),
    "cross_entropy_grad": _per_parent(_cross_entropy_grad_vjp, 2),
    "class_affine_gradient": _per_parent(_class_affine_vjp, 2),
    "cosine_rows": _per_parent(_cosine_rows_vjp, 2),
}


def _reachable(root: Tensor) -> list:
    """All graph nodes reachable from root through parent links, by id."""
    seen = {root._id: root}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if p._id not in seen:
                seen[p._id] = p
                stack.append(p)
    return [seen[i] for i in sorted(seen)]


def backward(scalar: Tensor, wrt, create_graph: bool = False) -> dict:
    """Reverse-mode gradients of a one-element tensor w.r.t. ``wrt`` tensors.

    Returns a dict mapping each requested tensor to a gradient of identical
    shape.  Tensors that do not participate in the scalar's graph receive a
    zero gradient.  Every node on a path from the scalar down to a ``wrt``
    tensor passes its cotangent to its parents through its ``_VJPS``
    formulas, consumers before parents (descending ids).  With
    ``create_graph=True`` the formulas run on the recording primitives
    (recording switched on for the pass), so the returned gradients are graph
    nodes and support a further backward.  Otherwise they run on the nodes'
    numpy values: the pass records nothing (recording is switched off for
    it) and creates no tensor but the returned gradients.
    """
    if scalar.size != 1:
        raise ContractError(f"backward root must have one element, got {scalar.size}")
    wrt = list(wrt)
    wrt_ids = {t._id for t in wrt}

    # keep only nodes on a path from the scalar down to some wrt tensor
    needed = set()
    path = []
    for node in _reachable(scalar):  # ascending ids: parents precede consumers
        if node._id not in wrt_ids:
            for p in node.parents:
                if p._id in needed:
                    break
            else:
                continue
        needed.add(node._id)
        path.append(node)

    ns = _GRAPH if create_graph else _ARRAYS
    prev = _set_grad(create_graph)
    try:
        cot = {scalar._id: ns.ones(scalar.shape)}
        for node in reversed(path):  # every path node has a cotangent by now
            nid = node._id
            g = cot[nid] if nid in wrt_ids else cot.pop(nid)  # free as we go
            parents = node.parents
            if not parents:
                continue
            if create_graph:
                args, out = parents, node
            else:
                args, out = [p.values for p in parents], node.values
            for parent, vjp in zip(parents, _VJPS[node.op]):
                if parent._id in needed:
                    pg = vjp(ns, g, args, out, node._ctx)
                    acc = cot.get(parent._id)
                    cot[parent._id] = pg if acc is None else ns.add(acc, pg)
    finally:
        _set_grad(prev)

    if create_graph:
        return {t: cot[t._id] if t._id in cot else zeros_like(t) for t in wrt}
    return {t: Tensor(cot[t._id]) if t._id in cot else zeros_like(t) for t in wrt}
