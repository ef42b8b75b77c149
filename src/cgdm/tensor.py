"""Dense float64 tensors with reverse-mode autodiff that supports double backward.

The computation graph is implicit: every op executed while recording is
enabled produces a tensor that references its parent tensors together with
one vector-Jacobian-product callback per parent.  Node ids grow monotonically
with creation order, so iterating reachable nodes by descending id is a valid
reverse topological order.

Every vjp is itself written in terms of the same differentiable primitives.
That is the whole trick behind higher-order support: ``backward(...,
create_graph=True)`` records the gradient arithmetic like any other forward
computation, so a second backward pass through a gradient is exact.

All arithmetic is float64.  Broadcasting is deliberately restricted to
scalar-vs-tensor and row-vs-matrix (a 1-D vector of length K against a b-by-K
matrix); anything else raises :class:`ShapeError`.  A tensor and the graph it
belongs to are confined to a single thread; the recording switch is
thread-local so independent runs can execute concurrently.

Two fused ops replace common compositions on the training hot path.  Their
forward values are computed in the same numpy order as the composition, and
their vjps are again built from primitives, so double backward stays exact:

* ``linear(x, w, b)`` is ``add(matmul(x, transpose(w)), b)`` as one node;
* ``softmax_cross_entropy(logits, onehot, weights)`` is the mean over rows of
  ``-w_i * log_softmax(logits)[i, y_i]`` as one node, with the vjp
  ``(softmax(logits) - onehot) * w / b * g``.
"""
from __future__ import annotations

import itertools
import math
import threading

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "ContractError",
    "no_grad",
    "grad_enabled",
    "as_tensor",
    "constant",
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
    "tmean",
    "reshape",
    "flatten",
    "concat",
    "narrow",
    "log_softmax",
    "softmax",
    "softmax_cross_entropy",
    "dot",
    "backward",
    "second_order_check",
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


def grad_enabled() -> bool:
    return _state.enabled


def _set_grad(flag: bool) -> bool:
    prev = grad_enabled()
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

    ``parents``/``op`` are empty for constants and parameters (leaves).
    Identity semantics are deliberate: tensors hash by object identity so
    they can key gradient maps.
    """

    __slots__ = ("values", "_id", "parents", "_vjps", "op")

    def __init__(self, values, parents=(), op=None):
        if isinstance(values, np.ndarray):
            if values.dtype != np.float64:
                values = values.astype(np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
        self.values = values
        self._id = next(_ids)
        self.parents = parents
        self._vjps = ()
        self.op = op

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

    def detach(self) -> "Tensor":
        return Tensor(self.values.copy())

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


def constant(x) -> Tensor:
    return Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64))


def zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros_like(t.values))


def _node(values, parents, op, vjps) -> Tensor:
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
        out.parents, out._vjps, out.op = parents, vjps, op
    else:
        out.parents, out._vjps, out.op = (), (), None
    return out


def _broadcast_shape(sa, sb, op):
    """Output shape under the restricted broadcast rules."""
    na, nb = math.prod(sa), math.prod(sb)
    if na == 1:
        return sb
    if nb == 1:
        return sa
    if len(sa) == 2 and sb == (sa[1],):
        return sa
    if len(sb) == 2 and sa == (sb[1],):
        return sb
    raise ShapeError(f"{op}: shapes {sa} and {sb} are not broadcast-compatible")


def _unbroadcast(g: Tensor, shape) -> Tensor:
    """Reduce a cotangent back to an operand's shape (built from primitives)."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return reshape(tsum(g), shape)
    # row operand (K,) against matrix (b, K)
    return tsum(g, axis=0)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _broadcast_shape(a.shape, b.shape, "add")
    return _node(
        a.values + b.values,
        (a, b),
        "add",
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _broadcast_shape(a.shape, b.shape, "sub")
    return _node(
        a.values - b.values,
        (a, b),
        "sub",
        (
            lambda g: _unbroadcast(g, a.shape),
            lambda g: _unbroadcast(neg(g), b.shape),
        ),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _broadcast_shape(a.shape, b.shape, "mul")
    return _node(
        a.values * b.values,
        (a, b),
        "mul",
        (
            lambda g: _unbroadcast(mul(g, b), a.shape),
            lambda g: _unbroadcast(mul(g, a), b.shape),
        ),
    )


def div(a, b) -> Tensor:
    return mul(as_tensor(a), pow_const(as_tensor(b), -1.0))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.values, (a,), "neg", (lambda g: neg(g),))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    return _node(
        a.values @ b.values,
        (a, b),
        "matmul",
        (
            lambda g: matmul(g, transpose(b)),
            lambda g: matmul(transpose(a), g),
        ),
    )


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w.T + b`` of a batch x (b-by-in), weight w (out-by-in)
    and bias b (out)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.values.ndim != 2 or w.values.ndim != 2:
        raise ShapeError(f"linear needs 2-D x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeError(
            f"linear: x {x.shape}, w {w.shape} and b {b.shape} do not fit"
        )
    return _node(
        x.values @ np.ascontiguousarray(w.values.T) + b.values,
        (x, w, b),
        "linear",
        (
            lambda g: matmul(g, w),
            lambda g: matmul(transpose(g), x),
            lambda g: tsum(g, axis=0),
        ),
    )


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return _node(
        np.ascontiguousarray(a.values.T), (a,), "transpose", (lambda g: transpose(g),)
    )


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = Tensor((a.values > 0).astype(np.float64))
    return _node(
        np.maximum(a.values, 0.0), (a,), "relu", (lambda g: mul(g, mask),)
    )


def absolute(a) -> Tensor:
    """|a| with subgradient 0 at the origin (relu composition)."""
    a = as_tensor(a)
    return add(relu(a), relu(neg(a)))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = _node(np.exp(a.values), (a,), "exp", ())
    if out.parents:
        out._vjps = (lambda g: mul(g, out),)
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.values <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    return _node(
        np.log(a.values), (a,), "log", (lambda g: mul(g, pow_const(a, -1.0)),)
    )


def pow_const(a, p) -> Tensor:
    """Elementwise a**p for a constant exponent p."""
    a = as_tensor(a)
    p = float(p)
    if p != int(p) and np.any(a.values < 0.0):
        raise DomainError(f"pow_const({p}) requires nonnegative inputs")
    if p < 0.0 and np.any(a.values == 0.0):
        raise DomainError(f"pow_const({p}) undefined at zero")
    return _node(
        a.values**p,
        (a,),
        "pow",
        (lambda g: mul(g, mul(pow_const(a, p - 1.0), p)),),
    )


def tsum(a, axis=None) -> Tensor:
    """Sum over all elements (axis=None, scalar result) or along axis 0/1."""
    a = as_tensor(a)
    if axis is None or a.values.ndim <= 1:
        vals = np.asarray(a.values.sum())
        return _node(vals, (a,), "sum", (lambda g: mul(g, ones(a.shape)),))
    if a.values.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"sum(axis={axis}) unsupported for shape {a.shape}")
    if axis == 0:
        return _node(
            a.values.sum(axis=0), (a,), "sum0", (lambda g: mul(ones(a.shape), g),)
        )
    b, k = a.shape
    return _node(
        a.values.sum(axis=1),
        (a,),
        "sum1",
        (lambda g: matmul(reshape(g, (b, 1)), ones((1, k))),),
    )


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    if axis is None or a.values.ndim <= 1:
        n = a.size
    else:
        n = a.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    orig = a.shape
    vals = a.values.reshape(shape)
    return _node(vals, (a,), "reshape", (lambda g: reshape(g, orig),))


def flatten(a) -> Tensor:
    a = as_tensor(a)
    return reshape(a, (a.size,))


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of an empty sequence")
    vals = np.concatenate([t.values for t in tensors], axis=axis)
    vjps = []
    offset = 0
    for t in tensors:
        length = t.shape[axis]
        vjps.append(
            (lambda o, l: lambda g: narrow(g, axis, o, l))(offset, length)
        )
        offset += length
    return _node(vals, tuple(tensors), "concat", tuple(vjps))


def narrow(a, axis, start, length) -> Tensor:
    """Contiguous slice [start, start+length) along axis."""
    a = as_tensor(a)
    dim = a.shape[axis]
    if start < 0 or start + length > dim:
        raise ShapeError(f"narrow [{start}, {start + length}) out of range for dim {dim}")
    index = [slice(None)] * a.values.ndim
    index[axis] = slice(start, start + length)
    vals = a.values[tuple(index)].copy()

    def vjp(g):
        parts = []
        if start > 0:
            before = list(a.shape)
            before[axis] = start
            parts.append(zeros(tuple(before)))
        parts.append(g)
        if start + length < dim:
            after = list(a.shape)
            after[axis] = dim - start - length
            parts.append(zeros(tuple(after)))
        return concat(parts, axis=axis) if len(parts) > 1 else g

    return _node(vals, (a,), "narrow", (vjp,))


def log_softmax(a) -> Tensor:
    """Row-wise log-softmax, stabilised by max subtraction."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"log_softmax needs a b-by-K tensor, got {a.shape}")
    if not np.all(np.isfinite(a.values)):
        raise DomainError("log_softmax requires finite logits")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    vals = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = _node(vals, (a,), "log_softmax", ())
    if out.parents:
        b, k = a.shape

        def vjp(g):
            rows = tsum(g, axis=1)
            tiled = matmul(reshape(rows, (b, 1)), ones((1, k)))
            return sub(g, mul(exp(out), tiled))

        out._vjps = (vjp,)
    return out


def softmax(a) -> Tensor:
    return exp(log_softmax(a))


def softmax_cross_entropy(logits, onehot: np.ndarray, weights=None) -> Tensor:
    """Mean over the batch of ``-weights[i] * log_softmax(logits)[i, y_i]``.

    ``onehot`` is the b-by-K one-hot encoding of the labels y; ``weights``
    (length b) defaults to all ones.  The log-softmax node made here is
    referenced by the vjp only, so a create-graph backward differentiates
    the softmax through it.
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
    scale = Tensor(np.repeat(weights / b, k).reshape(b, k))
    target = Tensor(onehot)
    return _node(
        np.asarray(picked.sum()) * (1.0 / b),
        (a,),
        "cross_entropy",
        (lambda g: mul(sub(exp(ls), target), mul(g, scale)),),
    )


def dot(a, b) -> Tensor:
    """Inner product of two 1-D tensors (scalar result)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape or a.values.ndim != 1:
        raise ShapeError(f"dot needs equal-length vectors, got {a.shape}, {b.shape}")
    return tsum(mul(a, b))


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
    zero gradient.  With ``create_graph=True`` the vjp arithmetic is recorded,
    so returned gradients are graph nodes and support a further backward.
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

    prev = _set_grad(create_graph)
    try:
        cot = {scalar._id: ones(scalar.shape)}
        for node in reversed(path):
            g = cot.get(node._id)
            if g is None:
                continue
            if node._id not in wrt_ids:
                del cot[node._id]  # free intermediates as we go
            for parent, vjp in zip(node.parents, node._vjps):
                if parent._id not in needed:
                    continue
                pg = vjp(g)
                acc = cot.get(parent._id)
                cot[parent._id] = pg if acc is None else add(acc, pg)
    finally:
        _set_grad(prev)

    return {t: cot.get(t._id, zeros_like(t)) for t in wrt}


def second_order_check(f, x: Tensor) -> Tensor:
    """d/dx of sum(df/dx) via two chained backward passes.

    For scalar x this is the plain second derivative; for vector x with a
    diagonal Hessian it returns the diagonal.
    """
    y = f(x)
    g = backward(y, [x], create_graph=True)[x]
    return backward(tsum(g), [x])[x]
