"""Autodiff core: forward semantics, gradients vs finite differences, the
vjp formulas, and graph determinism."""
import gc
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdm import nn
from cgdm import tensor as T
from cgdm.checks import finite_difference_gradient

import compositions as C


def fd_check(make_scalar, inputs, rel=1e-4, floor=1e-2):
    """Compare autodiff grads of a scalar builder against central differences.

    floor = abs_tol / rel_tol, so near-zero reference gradients are held to
    the absolute tolerance instead.
    """
    auto = T.backward(make_scalar(), inputs)
    fd = finite_difference_gradient(make_scalar, inputs)
    for t, ref in zip(inputs, fd):
        denom = np.maximum(np.abs(ref), floor)
        err = np.max(np.abs(auto[t].values - ref) / denom)
        assert err < rel, f"gradient mismatch: {err}"


class TestMatmul:
    def test_identity(self):
        b = T.Tensor(np.arange(12.0).reshape(3, 4))
        out = T.matmul(T.Tensor(np.eye(3)), b)
        np.testing.assert_array_equal(out.values, b.values)

    def test_scalar_case(self):
        out = T.matmul(T.Tensor([[2.0]]), T.Tensor([[3.0]]))
        assert out.values[0, 0] == 6.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        ref = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    ref[i, j] += a[i, k] * b[k, j]
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


class TestElementwise:
    def test_relu(self):
        out = C.relu(T.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_sum_of_zeros(self):
        assert C.tsum(T.Tensor(np.zeros((3, 4)))).item() == 0.0

    def test_sum_along_an_axis_needs_a_matrix(self):
        with pytest.raises(T.ShapeError):
            C.tsum(T.Tensor(np.ones(3)), axis=0)

    def test_log_domain(self):
        with pytest.raises(T.DomainError):
            C.log(T.Tensor([1.0, 0.0]))

    @pytest.mark.parametrize("p, values, message", [
        (-0.5, [1.0, 0.0], "undefined at zero"),
        (-0.5, [0.0, -1.0], "requires nonnegative inputs"),
        (0.5, [1.0, -1.0], "requires nonnegative inputs"),
        (-1.0, [-2.0, 0.0], "undefined at zero"),
    ])
    def test_pow_domain(self, p, values, message):
        """A fractional power refuses negatives, a negative one zero; a
        negative input to a negative fractional power is named as such."""
        with pytest.raises(T.DomainError, match=message):
            C.pow_const(T.Tensor(values), p)

    @pytest.mark.parametrize("p, values", [
        (0.5, [0.0, 4.0]), (-1.0, [-2.0, 4.0]), (2.0, [-1.0, 0.0]), (3.0, [np.nan])])
    def test_pow_inside_its_domain(self, p, values):
        out = C.pow_const(T.Tensor(values), p)
        np.testing.assert_array_equal(out.values, np.asarray(values) ** p)

    def test_row_broadcast(self):
        m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        r = T.Tensor([10.0, 20.0])
        np.testing.assert_array_equal(
            T.add(m, r).values, [[11.0, 22.0], [13.0, 24.0]]
        )

    def test_column_broadcast_rejected(self):
        m = T.Tensor(np.zeros((2, 3)))
        c = T.Tensor(np.zeros((2, 1)))
        with pytest.raises(T.ShapeError):
            T.add(m, c)

    def test_concat_equals_numpy_concatenate(self):
        a = T.Tensor(np.arange(6.0).reshape(2, 3))
        b = T.Tensor(np.arange(6.0, 12.0).reshape(2, 3))
        cat = C.concat([a, b], axis=0)
        np.testing.assert_array_equal(cat.values, np.concatenate([a.values, b.values]))

    def test_reshape(self):
        a = T.Tensor(np.arange(6.0))
        assert C.reshape(a, (2, 3)).shape == (2, 3)


class TestLogSoftmax:
    def test_two_equal_logits(self):
        out = T.log_softmax(T.Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[-np.log(2)] * 2], atol=1e-15)

    def test_constant_rows(self):
        for c in (-3.0, 0.0, 11.5):
            out = T.log_softmax(T.Tensor([[c, c, c]]))
            np.testing.assert_allclose(out.values, [[-np.log(3)] * 3], atol=1e-12)

    def test_direct_formula_small_magnitude(self):
        x = np.array([[1.0, 2.0, 3.0]])
        ref = np.log(np.exp(x) / np.exp(x).sum())
        out = T.log_softmax(T.Tensor(x))
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_large_logits_stable(self):
        out = T.log_softmax(T.Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.values))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
           st.floats(-50, 50))
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        x = np.array([row])
        base = T.log_softmax(T.Tensor(x)).values
        assert abs(np.exp(base).sum() - 1.0) < 1e-12
        shifted = T.log_softmax(T.Tensor(x + shift)).values
        np.testing.assert_allclose(shifted, base, atol=1e-10)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_class_reduce_is_numpys_max_and_sum(self, k):
        """Column by column, the class-axis max and sum are numpy's ``max``
        and ``sum(axis=-1)`` bit for bit: a max is exact in any order, numpy
        sums fewer than 8 items in order, and 8 or more columns go to
        ``np.add.reduce``."""
        a = np.random.default_rng(k).normal(size=(2, 37, k)) * 3.0
        for x in (a, a[0], np.exp(a)):
            assert (T.class_reduce(np.maximum, x).tobytes()
                    == x.max(axis=-1, keepdims=True).tobytes())
            assert T.class_reduce(np.add, x).tobytes() == x.sum(axis=-1, keepdims=True).tobytes()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor([1.0, 2.0, 3.0])
        g = T.backward(C.tsum(x), [x])[x]
        np.testing.assert_array_equal(g.values, np.ones(3))

    def test_non_scalar_root_rejected(self):
        x = T.Tensor([1.0, 2.0])
        with pytest.raises(T.ContractError):
            T.backward(T.mul(x, x), [x])

    def test_unreachable_param_gets_zeros(self):
        x = T.Tensor([1.0, 2.0])
        other = T.Tensor(np.ones((2, 2)))
        g = T.backward(C.tsum(x), [other])[other]
        np.testing.assert_array_equal(g.values, np.zeros((2, 2)))

    def test_an_unreachable_wrt_tensor_changes_no_gradient(self):
        """Asking also for a tensor outside the graph, and for an inner node,
        leaves each gradient as it is alone, bit for bit; the outsider gets
        zeros."""
        rng = np.random.default_rng(4)
        x, w = T.Tensor(rng.normal(size=(3, 4))), T.Tensor(rng.normal(size=(4, 2)))
        hidden = C.relu(T.matmul(x, w))
        loss = C.tsum(T.mul(hidden, T.log_softmax(hidden)))
        outside = T.Tensor(rng.normal(size=(2, 2)))
        alone = {t: T.backward(loss, [t])[t].values for t in (x, w, hidden)}
        every = T.backward(loss, [outside, x, hidden, w])
        for t, g in alone.items():
            assert every[t].values.tobytes() == g.tobytes()
        assert every[outside].values.tobytes() == np.zeros((2, 2)).tobytes()

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        w1 = T.Tensor(rng.normal(size=(4, 3)))
        b1 = T.Tensor(rng.normal(size=4))
        w2 = T.Tensor(rng.normal(size=(2, 4)))
        b2 = T.Tensor(rng.normal(size=2))
        x = T.Tensor(rng.normal(size=(5, 3)))
        y = T.Tensor(rng.normal(size=(5, 2)))

        def loss():
            h = C.relu(T.add(T.matmul(x, C.transpose(w1)), b1))
            out = T.add(T.matmul(h, C.transpose(w2)), b2)
            diff = C.sub(out, y)
            return C.tsum(T.mul(diff, diff))

        fd_check(loss, [w1, b1, w2, b2])


# one entry per primitive: (input names it differentiates, scalar builder)
_PRIMITIVE_CASES = {
    "add": (["a", "b"], lambda i: C.tsum(T.mul(T.add(i["a"], i["b"]), i["proj34"]))),
    "add_row": (["a", "row"], lambda i: C.tsum(T.mul(T.add(i["a"], i["row"]), i["proj34"]))),
    "add_scalar": (["a", "scalar"], lambda i: C.tsum(T.mul(T.add(i["a"], i["scalar"]), i["proj34"]))),
    "sub": (["a", "b"], lambda i: C.tsum(T.mul(C.sub(i["a"], i["b"]), i["proj34"]))),
    "mul": (["a", "b"], lambda i: C.tsum(T.mul(T.mul(i["a"], i["b"]), i["proj34"]))),
    "mul_row": (["a", "row"], lambda i: C.tsum(T.mul(T.mul(i["a"], i["row"]), i["proj34"]))),
    "mul_scalar": (["a", "scalar"], lambda i: C.tsum(T.mul(T.mul(i["a"], i["scalar"]), i["proj34"]))),
    "neg": (["a"], lambda i: C.tsum(T.mul(C.neg(i["a"]), i["proj34"]))),
    "matmul": (["a", "k"], lambda i: C.tsum(T.mul(T.matmul(i["a"], i["k"]), i["proj32"]))),
    "transpose": (["a"], lambda i: C.tsum(T.mul(C.transpose(i["a"]), i["proj43"]))),
    "exp": (["a"], lambda i: C.tsum(T.mul(T.exp(i["a"]), i["proj34"]))),
    "log": (["pos"], lambda i: C.tsum(T.mul(C.log(i["pos"]), i["proj34"]))),
    "pow_half": (["pos"], lambda i: C.tsum(T.mul(C.pow_const(i["pos"], 0.5), i["proj34"]))),
    "pow_neg1": (["pos"], lambda i: C.tsum(T.mul(C.pow_const(i["pos"], -1.0), i["proj34"]))),
    "pow_square": (["a"], lambda i: C.tsum(T.mul(C.pow_const(i["a"], 2.0), i["proj34"]))),
    "sum_all": (["a"], lambda i: T.mul(C.tsum(i["a"]), 1.7)),
    "sum_axis0": (["a"], lambda i: C.tsum(T.mul(C.tsum(i["a"], axis=0), i["proj4"]))),
    "sum_axis1": (["a"], lambda i: C.tsum(T.mul(C.tsum(i["a"], axis=1), i["proj3"]))),
    "reshape": (["a"], lambda i: C.tsum(T.mul(C.reshape(i["a"], (4, 3)), i["proj43"]))),
    "concat": (["a", "b"], lambda i: C.tsum(T.mul(C.concat([i["a"], i["b"]], axis=0), i["proj64"]))),
    "relu": (["off"], lambda i: C.tsum(T.mul(C.relu(i["off"]), i["proj34"]))),
    "log_softmax": (["a"], lambda i: C.tsum(T.mul(T.log_softmax(i["a"]), i["proj34"]))),
    "div": (["a", "pos"],
            lambda i: C.tsum(T.mul(T.mul(i["a"], C.pow_const(i["pos"], -1.0)), i["proj34"]))),
}
# "narrow", an op since removed, keeps its slot, so no case draws new inputs
_CASE_INDEX = {name: idx for idx, name in enumerate(sorted([*_PRIMITIVE_CASES, "narrow"]))}
# a case added later takes the next index, so the earlier cases keep their inputs
_PRIMITIVE_CASES["absolute"] = (
    ["off"], lambda i: C.tsum(T.mul(C.absolute(i["off"]), i["proj34"])))
_CASE_INDEX["absolute"] = len(_CASE_INDEX)
# the ops of stacked heads: a 2-by-3-by-4 stack of two heads' 3-by-4 slices
for _name, _case in {
    "head_difference": (
        ["stack"], lambda i: C.tsum(T.mul(C.head_difference(i["stack"]), i["proj34"]))),
    "relu_mask": (
        ["stack"], lambda i: C.tsum(T.mul(T.relu_mask(i["stack"], i["stack_off"].values),
                                          i["proj234"]))),
    "sum_axis1_heads": (
        ["stack"], lambda i: C.tsum(T.mul(C.tsum(i["stack"], axis=1), i["proj24"]))),
    "matmul_heads": (
        ["stack", "stack_k"],
        lambda i: C.tsum(T.mul(T.matmul(i["stack"], i["stack_k"]), i["proj232"]))),
    "log_softmax_heads": (
        ["stack"], lambda i: C.tsum(T.mul(T.log_softmax(i["stack"]), i["proj234"]))),
}.items():
    _PRIMITIVE_CASES[_name] = _case
    _CASE_INDEX[_name] = len(_CASE_INDEX)


def _case_inputs(name: str, trial: int) -> dict:
    rng = np.random.default_rng(131 * _CASE_INDEX[name] + trial)
    return {
        "a": T.Tensor(rng.normal(size=(3, 4))),
        "b": T.Tensor(rng.normal(size=(3, 4))),
        "row": T.Tensor(rng.normal(size=4)),
        "scalar": T.Tensor(rng.normal()),
        "k": T.Tensor(rng.normal(size=(4, 2))),
        "pos": T.Tensor(rng.uniform(0.5, 3.0, size=(3, 4))),
        # relu input held away from the kink so central differences are valid
        "off": T.Tensor(rng.choice([-1.0, 1.0], size=(3, 4))
                        * rng.uniform(0.3, 2.0, size=(3, 4))),
        "proj34": T.Tensor(rng.normal(size=(3, 4))),
        "proj43": T.Tensor(rng.normal(size=(4, 3))),
        "proj32": T.Tensor(rng.normal(size=(3, 2))),
        "proj64": T.Tensor(rng.normal(size=(6, 4))),
        "proj4": T.Tensor(rng.normal(size=4)),
        "proj3": T.Tensor(rng.normal(size=3)),
        # drawn after the others, so the cases above keep their inputs
        "stack": T.Tensor(rng.normal(size=(2, 3, 4))),
        "stack_k": T.Tensor(rng.normal(size=(2, 4, 2))),
        "stack_off": T.Tensor(rng.normal(size=(2, 3, 4))),
        "proj234": T.Tensor(rng.normal(size=(2, 3, 4))),
        "proj232": T.Tensor(rng.normal(size=(2, 3, 2))),
        "proj24": T.Tensor(rng.normal(size=(2, 4))),
    }


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    """Every primitive, 10 random points, rel 1e-4 (abs 1e-6 near zero)."""
    wrt_names, build = _PRIMITIVE_CASES[name]
    for trial in range(10):
        inputs = _case_inputs(name, trial)
        fd_check(lambda: build(inputs), [inputs[w] for w in wrt_names])


def _quadratic(y, proj):
    """A scalar quadratic in ``y``, so every parent's cotangent reads the others."""
    return C.tsum(T.mul(T.mul(y, y), proj))


def _cross_entropy(logits, targets):
    """The fused cross-entropy of ``logits`` through their log-softmax."""
    return C.softmax_cross_entropy(T.log_softmax(logits), targets)


def _second_order(make_gradient, reference, outer_wrt, seed):
    """A gradient recorded as forward ops, as training records the heads'
    class gradients: its values agree with the first-order ``reference`` at
    1e-12, and a first-order backward of a random projection of it, the
    double backward, matches central differences in ``outer_wrt``."""
    grad = make_gradient()
    np.testing.assert_allclose(grad.values, reference, rtol=1e-12, atol=1e-12)
    proj = T.Tensor(np.random.default_rng(seed).normal(size=grad.shape))
    fd_check(lambda: C.tsum(T.mul(make_gradient(), proj)), outer_wrt)


def _flat_gradients(scalar, wrt):
    """The first-order gradients of ``scalar`` w.r.t. ``wrt``, as one row."""
    grads = T.backward(scalar, wrt)
    return np.concatenate([grads[t].values.reshape(-1) for t in wrt])[None, :]


def _recorded_linear_gradient(x, w, b, proj, relu):
    """The gradient of ``_quadratic(linear(x, w, b, relu), proj)`` w.r.t.
    (x, w, b) as one row of recorded ops, by the heads' backward recurrence:
    ``delta`` is the output's cotangent ``2 y proj``, masked by the positive
    outputs where the layer has a ReLU; the input's gradient is ``delta W``,
    and the weight and bias gradients are one ``class_affine_gradient``."""
    y = T.linear(x, w, b, relu=relu)
    delta = T.mul(T.mul(y, proj), 2.0)
    if relu:
        delta = T.mul(delta, (y.values > 0).astype(np.float64))
    return C.concat([C.reshape(T.matmul(delta, w), (1, -1)),
                     T.class_affine_gradient([(delta, x)])], axis=1)


def _fused_builder(name: str, seed: int):
    """(make_scalar, wrt): a scalar through one fused op, rebuilt from the
    same ``wrt`` tensors on every call."""
    if name == "linear_heads":
        x, w, b, proj = TestHeadAxis._linear_case(seed)
        return lambda: _quadratic(T.linear(x, w, b), proj), [x, w, b]
    if name == "class_affine_gradient_heads":
        layers, members, proj = TestHeadAxis._class_layers_case(seed)
        return (lambda: _quadratic(T.class_affine_gradient(layers, _row_groups(members)), proj),
                [t for layer in layers for t in layer])
    if name.startswith("linear"):
        x, w, b, proj = TestFusedOps._linear_case(seed)
        relu = name == "linear_relu"
        return lambda: _quadratic(T.linear(x, w, b, relu=relu), proj), [x, w, b]
    if name == "cross_entropy_grad":
        ls, t, proj = TestFusedOps._ce_grad_case(seed)
        return lambda: _quadratic(T.cross_entropy_grad(ls, t), proj), [ls]
    if name in ("class_affine_gradient_layers", "class_affine_gradient_no_class"):
        layers, members, proj = TestFusedOps._class_layers_case(seed, name.endswith("class"))
        return (lambda: _quadratic(T.class_affine_gradient(layers, _row_groups(members)), proj),
                [t for layer in layers for t in layer])
    if name.startswith("class_affine_gradient"):
        delta, h, members, proj = TestFusedOps._class_case(seed, name.endswith("K"))
        groups = _row_groups(members)
        return (lambda: _quadratic(T.class_affine_gradient([(delta, h)], groups), proj),
                [delta, h])
    if name == "cosine_rows_2d":
        gs, gt, proj = TestFusedOps._cosine_case(seed)
        return lambda: C.tsum(T.mul(C.cosine_rows(gs, gt)[0], proj)), [gs, gt]
    if name.startswith("cosine_gap"):
        g = TestFusedLosses._cosine_case(seed, dead="gs" if name.endswith("row") else None)
        return lambda: T.cosine_gap(g), [g]
    if name == "mean_abs_difference":
        p = TestFusedLosses._pair_case(seed)
        return lambda: T.mean_abs_difference(p), [p]
    if name == "balance_gap":
        p = TestFusedLosses._pair_case(seed)
        return lambda: T.balance_gap(p), [p]
    if name == "pair_cross_entropy":
        logits, t = TestFusedOps._ce_case(seed, True)
        logits = T.Tensor(np.stack([logits.values, logits.values[::-1]]))
        return lambda: T.softmax_pair_cross_entropy(T.log_softmax(logits), t), [logits]
    if name == "weighted_sum":
        terms = TestFusedLosses._terms_case(seed)
        return lambda: T.weighted_sum(terms), [t for t, _ in terms]
    logits, targets = TestFusedOps._ce_case(seed, name == "cross_entropy_weighted")
    return lambda: _cross_entropy(logits, targets), [logits]


_FUSED_CASES = ("linear", "cross_entropy", "cross_entropy_weighted", "cross_entropy_grad",
                "class_affine_gradient_all", "class_affine_gradient_K", "cosine_rows_2d",
                "class_affine_gradient_layers", "linear_relu",
                "class_affine_gradient_no_class", "linear_heads",
                "class_affine_gradient_heads")
_GRADIENT_OP_CASES = ("cross_entropy_grad", "class_affine_gradient_all",
                      "class_affine_gradient_K", "cosine_rows_2d",
                      "class_affine_gradient_layers", "class_affine_gradient_no_class",
                      "class_affine_gradient_heads")
# the losses and the step objective, one node each; the loss of a dead row is
# constant in that row, but not at a step off it, so it has no difference check
_LOSS_OP_CASES = ("mean_abs_difference", "balance_gap", "pair_cross_entropy", "cosine_gap",
                  "weighted_sum")
_FUSED_CASES += _LOSS_OP_CASES + ("cosine_gap_dead_row",)


def _scalar_and_wrt(name: str, trial: int):
    if name in _FUSED_CASES:
        make_scalar, wrt = _fused_builder(name, trial)
        return make_scalar(), wrt
    wrt_names, build = _PRIMITIVE_CASES[name]
    inputs = _case_inputs(name, trial)
    return build(inputs), [inputs[w] for w in wrt_names]


@pytest.mark.parametrize("op, case", [
    ("cross_entropy_grad", "cross_entropy_grad"),
    ("class_affine_gradient", "class_affine_gradient_layers"),
    ("cosine_rows", "cosine_rows_2d"),
], ids=["cross_entropy_grad", "class_affine_gradient", "cosine_rows"])
def test_create_graph_backward_refuses_a_gradient_op(op, case):
    """The gradient ops are differentiated by a first-order backward only: a
    create-graph backward of a scalar whose path reaches one raises before
    it makes a tensor or switches recording; a first-order backward of the
    same scalar still runs."""
    scalar, wrt = _scalar_and_wrt(case, 0)
    assert op in {n.op for n in T._reachable(scalar)}
    before = next(T._ids)
    with pytest.raises(T.ContractError, match="first-order"):
        T.backward(scalar, wrt, create_graph=True)
    assert next(T._ids) == before + 1
    assert T._state.enabled
    grads = T.backward(scalar, wrt)
    assert all(grads[t].shape == t.shape for t in wrt)


def test_first_order_backward_records_no_graph():
    """Apart from the gradients it returns, a first-order backward makes no
    tensor: the node-id counter advances by at most ``len(wrt)``."""
    rng = np.random.default_rng(4)
    net = nn.init_mlp([3, 5, 2], 4)
    logits = nn.forward(net, T.Tensor(rng.normal(size=(6, 3))))
    loss = C.softmax_cross_entropy(T.log_softmax(logits),
                                   T.Targets.of(rng.integers(0, 2, size=6), 2))
    params = net.parameters()
    before = next(T._ids)
    grads = T.backward(loss, params)
    assert next(T._ids) - before - 1 <= len(params)
    assert all(grads[p].op is None and grads[p].shape == p.shape for p in params)


def test_every_recorded_op_has_one_vjp_formula_per_parent(monkeypatch):
    """One callable per recorded op, ``vjp(g, args, out, ctx, needed)``,
    which gives each parent of a node that ``needed`` asks for a cotangent of
    that parent's shape, the same bits whichever others are asked for, and
    None to the others; a backward calls it once per node on its path."""
    for vjp in T._VJPS.values():
        params = list(inspect.signature(vjp).parameters)
        assert params[:3] == ["g", "args", "out"] and params[4:] == ["needed"]
    reached = set()
    for name in sorted(_PRIMITIVE_CASES) + list(_FUSED_CASES):
        scalar, wrt = _scalar_and_wrt(name, 0)
        for node in T._reachable(scalar):
            if not node.parents:
                continue
            reached.add(node.op)
            vjp = T._VJPS[node.op]
            args = [p.values for p in node.parents]
            g = np.ones(node.shape)
            n = len(node.parents)
            every = vjp(g, args, node.values, node._ctx, [True] * n)
            assert type(every) is tuple and len(every) == n, node.op
            for i, parent in enumerate(node.parents):
                assert every[i].shape == parent.shape, (node.op, i)
                one = vjp(g, args, node.values, node._ctx, [j == i for j in range(n)])
                assert [c is None for c in one] == [j != i for j in range(n)], (node.op, i)
                assert one[i].tobytes() == every[i].tobytes(), (node.op, i)
        calls = []
        for op, vjp in T._VJPS.items():
            monkeypatch.setitem(T._VJPS, op, lambda g, args, out, ctx, needed, vjp=vjp:
                                calls.append(out) or vjp(g, args, out, ctx, needed))
        T.backward(scalar, wrt)
        # in every case, each node leads to a wrt tensor
        path = [n for n in T._reachable(scalar) if n.parents]
        assert sorted(id(out) for out in calls) == sorted(id(n.values) for n in path), name
        monkeypatch.undo()
    assert reached == set(T._VJPS)  # the cases above build every op


def test_tensor_arithmetic_has_one_spelling():
    """The op functions are the only way to write tensor arithmetic."""
    operators = ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv",
                 "neg", "matmul", "rmatmul", "pow")
    assert not [op for op in operators if hasattr(T.Tensor, f"__{op}__")]
    with pytest.raises(TypeError):
        T.Tensor(1.0) + 1.0


def _ce_grad_composition(ls, hot, scale):
    """What ``cross_entropy_grad`` fuses: the cross-entropy vjp at the pair
    mean's cotangent as primitives, its column ``scale`` tiled across the K
    columns, since a recorded ``mul`` refuses column broadcasting."""
    return T.mul(C.sub(T.exp(ls), hot),
                 T.mul(T.PAIR_MEAN, np.repeat(scale, hot.shape[1], axis=1)))


def _row_groups(members):
    """``class_affine_gradient``'s groups for b-by-K 0/1 ``members`` of one
    domain, a row of no class where its row is 0; one group for None."""
    if members is None:
        return 1
    return T.RowGroups([(members @ np.arange(1, members.shape[1] + 1) - 1).astype(int)],
                       members.shape[1])


def _class_affine_composition(delta, h, members):
    """What ``class_affine_gradient`` fuses: the masked K-fold copy of delta,
    its weight gradient and its bias gradient, each reshaped to K rows."""
    rows = 1
    if members is not None:
        rows, width = members.shape[1], delta.shape[1]
        delta = T.mul(C.concat([delta] * rows, axis=1), np.repeat(members, width, axis=1))
    return C.concat([C.reshape(T.matmul(C.transpose(delta), h), (rows, -1)),
                     C.reshape(C.tsum(delta, axis=0), (rows, -1))], axis=1)


def _assert_same_row_cotangents(fused, composed, none):
    """Bit-equal on the rows of a class; on the rows of no class (the mask
    ``none``), exactly +0.0, where the composition sums its masked blocks
    to a zero of either sign."""
    assert fused[..., ~none, :].tobytes() == composed[..., ~none, :].tobytes()
    assert np.all(fused[..., none, :] == 0.0) and not np.signbit(fused[..., none, :]).any()


def _cosine_composition(gs, gt):
    """What ``cosine_rows`` fuses: two norms, a row dot product and a division."""
    norm_s = C.pow_const(C.tsum(T.mul(gs, gs), axis=1), 0.5)
    norm_t = C.pow_const(C.tsum(T.mul(gt, gt), axis=1), 0.5)
    return T.mul(C.tsum(T.mul(gs, gt), axis=1),
                 C.pow_const(T.add(T.mul(norm_s, norm_t), T.COSINE_EPS), -1.0))


def _assert_same_op(fused, composed, inputs, proj, rtol=0.0):
    """Bit-equal values, and first-order gradients of the projection ``sum(out
    * proj)`` with respect to every input that are bit-equal or, with
    ``rtol``, within that share of their largest entry."""
    assert fused.values.tobytes() == composed.values.tobytes()
    assert fused.shape == composed.shape
    g_fused = T.backward(C.tsum(T.mul(fused, proj)), inputs)
    g_composed = T.backward(C.tsum(T.mul(composed, proj)), inputs)
    for t in inputs:
        if rtol:
            assert C.relative_gap(g_fused[t].values, g_composed[t].values) <= rtol
        else:
            assert g_fused[t].values.tobytes() == g_composed[t].values.tobytes()


class TestFusedOps:
    """The fused ops against their compositions and finite differences."""

    @staticmethod
    def _linear_case(seed):
        rng = np.random.default_rng(seed)
        x = T.Tensor(rng.normal(size=(5, 3)))
        w = T.Tensor(rng.normal(size=(4, 3)))
        b = T.Tensor(rng.normal(size=4))
        return x, w, b, T.Tensor(rng.normal(size=(5, 4)))

    @staticmethod
    def _ce_case(seed, weighted):
        rng = np.random.default_rng(100 + seed)
        logits = T.Tensor(rng.normal(size=(5, 3)))
        labels = rng.integers(0, 3, size=5)
        weights = rng.uniform(1.0, 2.0, size=5) if weighted else None
        return logits, T.Targets.of(labels, 3, weights)

    @staticmethod
    def _ce_grad_case(seed):
        rng = np.random.default_rng(200 + seed)
        ls = T.log_softmax(T.Tensor(rng.normal(size=(5, 3))))
        t = T.Targets.of(rng.integers(0, 3, size=5), 3, rng.uniform(1.0, 2.0, size=5))
        return T.Tensor(ls.values), t, T.Tensor(rng.normal(size=(5, 3)))

    @staticmethod
    def _class_case(seed, masked, k=3):
        """delta (6x2), h (6x3) and, if masked, members of k classes; for
        k > 1 the last class has no rows."""
        rng = np.random.default_rng(300 + seed)
        delta, h = T.Tensor(rng.normal(size=(6, 2))), T.Tensor(rng.normal(size=(6, 3)))
        members = None
        if masked:
            labels = rng.integers(0, max(k - 1, 1), size=6)
            members = (labels[:, None] == np.arange(k)).astype(np.float64)
        rows = k if masked else 1
        return delta, h, members, T.Tensor(rng.normal(size=(rows, 8)))

    @staticmethod
    def _class_layers_case(seed, no_class=False):
        """Two layers of a head on 6 rows, (delta 6x2, h 6x3) and (6x3, 6x2),
        and members of 3 classes; with ``no_class`` the last row is in none."""
        rng = np.random.default_rng(500 + seed)
        layers = [(T.Tensor(rng.normal(size=(6, w))), T.Tensor(rng.normal(size=(6, n))))
                  for w, n in ((2, 3), (3, 2))]
        labels = np.array([0, 1, 2, 0, 1, 3 if no_class else 2])
        members = (labels[:, None] == np.arange(3)).astype(np.float64)
        return layers, members, T.Tensor(rng.normal(size=(3, 8 + 9)))

    @staticmethod
    def _cosine_case(seed, rows=3):
        rng = np.random.default_rng(400 + seed)
        proj = T.Tensor(rng.normal(size=rows))
        return (T.Tensor(rng.normal(size=(rows, 5))), T.Tensor(rng.normal(size=(rows, 5))),
                proj)

    def test_linear_equals_composition(self):
        x, w, b, proj = self._linear_case(0)
        fused = T.linear(x, w, b)
        composed = T.add(T.matmul(x, C.transpose(w)), b)
        np.testing.assert_array_equal(fused.values, composed.values)
        g_fused = T.backward(C.tsum(T.mul(fused, proj)), [x, w, b])
        g_composed = T.backward(C.tsum(T.mul(composed, proj)), [x, w, b])
        for t in (x, w, b):
            np.testing.assert_allclose(g_fused[t].values, g_composed[t].values,
                                       rtol=1e-14, atol=1e-14)

    def test_linear_leaves_its_inputs_alone(self):
        x, w, b, _ = self._linear_case(1)
        before = [t.values.copy() for t in (x, w, b)]
        out = T.linear(x, w, b)
        for t, was in zip((x, w, b), before):
            np.testing.assert_array_equal(t.values, was)
        assert not np.shares_memory(out.values, b.values)

    def test_linear_shape_mismatch(self):
        x, w, b, _ = self._linear_case(0)
        with pytest.raises(T.ShapeError):
            T.linear(x, C.transpose(w), b)
        with pytest.raises(T.ShapeError):
            T.linear(x, w, T.Tensor(np.zeros(3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_first_order(self, seed):
        x, w, b, proj = self._linear_case(seed)
        fd_check(lambda: C.tsum(T.mul(T.linear(x, w, b), proj)), [x, w, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_second_order(self, seed):
        x, w, b, proj = self._linear_case(seed)
        _second_order(lambda: _recorded_linear_gradient(x, w, b, proj, False),
                      _flat_gradients(_quadratic(T.linear(x, w, b), proj), [x, w, b]),
                      [x, w, b], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_relu_is_one_node_bit_equal_to_relu_of_linear(self, seed):
        """The fused activation records one node of parents (x, w, b); its
        values and its gradients are bit-equal to ``relu(linear(x, w, b))``."""
        x, w, b, proj = self._linear_case(seed)
        fused = T.linear(x, w, b, relu=True)
        composed = C.relu(T.linear(x, w, b))
        assert fused.op == "linear" and fused.parents == (x, w, b)
        assert (fused.values == 0.0).any()
        assert fused.values.tobytes() == composed.values.tobytes()
        grads = [T.backward(_quadratic(out, proj), [x, w, b]) for out in (fused, composed)]
        for t in (x, w, b):
            assert grads[0][t].values.tobytes() == grads[1][t].values.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_relu_first_and_second_order(self, seed):
        make_scalar, wrt = _fused_builder("linear_relu", seed)
        fd_check(make_scalar, wrt)
        x, w, b, proj = self._linear_case(seed)
        _second_order(lambda: _recorded_linear_gradient(x, w, b, proj, True),
                      _flat_gradients(make_scalar(), wrt), wrt, seed)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross_entropy_equals_composition(self, weighted):
        logits, targets = self._ce_case(0, weighted)
        per_row = C.neg(C.tsum(T.mul(T.log_softmax(logits), T.Tensor(targets.onehot)), axis=1))
        if weighted:
            per_row = T.mul(per_row, T.Tensor(targets.weights))
        composed = T.mul(C.tsum(per_row), 1.0 / 5)
        fused = _cross_entropy(logits, targets)
        assert fused.item() == composed.item()
        g_fused = T.backward(fused, [logits])[logits].values
        g_composed = T.backward(composed, [logits])[logits].values
        np.testing.assert_allclose(g_fused, g_composed, rtol=1e-14, atol=1e-15)

    def test_cross_entropy_rejects_bad_operands(self):
        logits, t = self._ce_case(0, False)
        ls = T.log_softmax(logits)
        with pytest.raises(T.ContractError, match="4 labels for a batch of 5"):
            C.softmax_cross_entropy(ls, T.Targets.of(t.labels[:4], 3))
        with pytest.raises(T.ShapeError):  # the targets check their own arrays
            T.Targets(t.labels, t.onehot, np.ones(4), t.scale)
        with pytest.raises(T.ShapeError):
            T.Targets(t.labels, t.onehot, t.weights, t.scale[:4])
        tiled = np.repeat(t.scale, 3, axis=1)  # b-by-K: the column's values, not its shape
        with pytest.raises(T.ShapeError):
            T.Targets(t.labels, t.onehot, t.weights, tiled)
        with pytest.raises(T.ContractError):  # the logits, not their log-softmax
            C.softmax_cross_entropy(logits, t)
        with pytest.raises(T.DomainError):
            T.log_softmax(T.Tensor(np.full((5, 3), np.inf)))

    @pytest.mark.parametrize("start", [None, 0, 3], ids=["all_rows", "row_0", "row_3"])
    def test_pair_cross_entropy_of_no_rows_rejected(self, start):
        """The op checks its rows itself: no one-hot row is an empty batch,
        whether the rows are all of ``ls`` or a range from ``start``."""
        logits, t = self._ce_case(0, False)
        ls = T.log_softmax(T.Tensor(np.stack([logits.values, logits.values])))
        with pytest.raises(T.ContractError, match="non-empty batch"):
            T.softmax_pair_cross_entropy(ls, T.Targets.of(t.labels[:0], 3), start)

    def test_pair_cross_entropy_rows_outside_the_batch_rejected(self):
        logits, t = self._ce_case(0, False)
        ls = T.log_softmax(T.Tensor(np.stack([logits.values, logits.values])))
        with pytest.raises(T.ContractError, match="3 labels from row 3 of a batch of 5"):
            T.softmax_pair_cross_entropy(ls, T.Targets.of(t.labels[:3], 3), 3)

    def test_cross_entropy_grad_checks_the_label_count(self):
        logits, t = self._ce_case(0, False)
        ls = T.log_softmax(logits)
        with pytest.raises(T.ContractError, match="4 labels for a batch of 5"):
            T.cross_entropy_grad(ls, T.Targets.of(t.labels[:4], 3))
        with pytest.raises(T.ContractError, match="non-empty batch"):
            T.cross_entropy_grad(ls, T.Targets.of(t.labels[:0], 3))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_cross_entropy_first_order(self, seed, weighted):
        logits, targets = self._ce_case(seed, weighted)
        fd_check(lambda: _cross_entropy(logits, targets), [logits])

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_cross_entropy_second_order(self, seed, weighted):
        logits, targets = self._ce_case(seed, weighted)
        half = T.mul(_cross_entropy(logits, targets), T.PAIR_MEAN)
        _second_order(lambda: T.cross_entropy_grad(T.log_softmax(logits), targets),
                      T.backward(half, [logits])[logits].values, [logits], seed)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross_entropy_of_linear_second_order(self, weighted):
        """The step-3 shape: head-weight gradient, differentiated by the input."""
        x, w, b, _ = self._linear_case(7)
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 4, size=5)
        weights = rng.uniform(1.0, 2.0, size=5) if weighted else None
        targets = T.Targets.of(labels, 4, weights)

        def head_gradient():
            ls = T.log_softmax(T.linear(x, w, b))
            delta = T.cross_entropy_grad(ls, targets)
            return T.class_affine_gradient([(delta, x)])

        half = T.mul(_cross_entropy(T.linear(x, w, b), targets), T.PAIR_MEAN)
        _second_order(head_gradient, _flat_gradients(half, [w, b]), [x, w, b], 7)


class TestFusedGradientOps:
    """``cross_entropy_grad``, ``class_affine_gradient`` and ``cosine_rows``
    against their compositions (bit for bit) and finite differences."""

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy_grad_equals_composition(self, seed):
        ls, t, proj = TestFusedOps._ce_grad_case(seed)
        _assert_same_op(T.cross_entropy_grad(ls, t),
                        _ce_grad_composition(ls, t.onehot, t.scale), [ls], proj)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross_entropy_vjp_is_the_gradient_op(self, weighted):
        """The logits gradient of the cross-entropy in the pair's mean (times
        ``PAIR_MEAN``) is bit-equal to the one-parent ``cross_entropy_grad``
        node of its log-softmax."""
        logits, targets = TestFusedOps._ce_case(0, weighted)
        ls = T.log_softmax(logits)
        half = T.mul(C.softmax_cross_entropy(ls, targets), T.PAIR_MEAN)
        grad = T.backward(half, [logits])[logits]
        node = T.cross_entropy_grad(ls, targets)
        assert node.parents == (ls,)
        assert grad.values.tobytes() == node.values.tobytes()

    @pytest.mark.parametrize("k", [None, 1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(2))
    def test_class_affine_gradient_equals_composition(self, k, seed):
        delta, h, members, proj = TestFusedOps._class_case(seed, k is not None, k or 1)
        _assert_same_op(T.class_affine_gradient([(delta, h)], _row_groups(members)),
                        _class_affine_composition(delta, h, members), [delta, h], proj)

    @pytest.mark.parametrize("seed", range(3))
    def test_layers_are_the_concat_of_their_blocks(self, seed):
        """One node for several layers: bit-equal to the concat of each
        layer's block, in values and in first-order gradients."""
        layers, members, proj = TestFusedOps._class_layers_case(seed)
        fused = T.class_affine_gradient(layers, _row_groups(members))
        assert fused.op == "class_affine_gradient" and len(fused.parents) == 4
        apart = C.concat([T.class_affine_gradient([layer], _row_groups(members))
                          for layer in layers], 1)
        assert fused.values.tobytes() == apart.values.tobytes()
        inputs = [t for layer in layers for t in layer]
        grads = [T.backward(_quadratic(out, proj), inputs) for out in (fused, apart)]
        for t in inputs:
            assert grads[0][t].values.tobytes() == grads[1][t].values.tobytes()

    def test_class_without_rows_gets_a_zero_row(self):
        delta, h, members, _ = TestFusedOps._class_case(0, True, 3)
        assert not members[:, 2].any()
        out = T.class_affine_gradient([(delta, h)], _row_groups(members))
        assert out.shape == (3, 8)
        np.testing.assert_array_equal(out.values[2], np.zeros(8))
        whole = T.class_affine_gradient([(delta, h)])
        np.testing.assert_allclose(out.values.sum(axis=0), whole.values[0],
                                   rtol=0, atol=1e-14)

    def test_class_affine_gradient_rejects_bad_operands(self):
        delta, h, members, _ = TestFusedOps._class_case(0, True)
        with pytest.raises(T.ShapeError):
            T.class_affine_gradient([(delta, T.Tensor(h.values[:5]))])
        for groups in (_row_groups(members[:5]), _row_groups(members[:, :0]), 0, 4):
            with pytest.raises(T.ShapeError):
                T.class_affine_gradient([(delta, h)], groups)
        with pytest.raises(T.ShapeError):  # layers of different batches
            T.class_affine_gradient([(delta, h), (T.Tensor(delta.values[:5]),
                                                  T.Tensor(h.values[:5]))])
        with pytest.raises(T.ContractError):
            T.class_affine_gradient([], _row_groups(members))

    @pytest.mark.parametrize("rows", [1, 2])  # 1: the plain loss's one-row case
    @pytest.mark.parametrize("seed", range(3))
    def test_cosine_rows_equals_composition(self, rows, seed):
        gs, gt, proj = TestFusedOps._cosine_case(seed, rows)
        fused = C.cosine_rows(gs, gt)[0]
        assert fused.shape == (rows,)
        _assert_same_op(fused, _cosine_composition(gs, gt), [gs, gt], proj)

    def test_cosine_rows_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            C.cosine_rows(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))
        with pytest.raises(T.ShapeError):
            C.cosine_rows(T.Tensor(np.ones((1, 2, 3))), T.Tensor(np.ones((1, 2, 3))))
        with pytest.raises(T.ShapeError):
            C.cosine_rows(T.Tensor(np.ones(3)), T.Tensor(np.ones(3)))

    @pytest.mark.parametrize("name", _GRADIENT_OP_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_first_order(self, name, seed):
        fd_check(*_fused_builder(name, seed))


def _mean_abs_difference_composition(p):
    """What ``mean_abs_difference`` fuses: the mean of the absolute
    difference of the two heads."""
    return T.mul(C.tsum(C.absolute(C.head_difference(p))), 1.0 / (p.shape[1] * p.shape[2]))


def _balance_gap_composition(p):
    """What ``balance_gap`` fuses: ln K minus the entropy of the mean row,
    nine nodes."""
    b, k = p.shape[1:]
    mean = T.mul(C.tsum(C.tsum(p, axis=1), axis=0), 1.0 / (2 * b))
    entropy = C.neg(C.tsum(T.mul(mean, C.log(T.add(mean, T.LOG_FLOOR)))))
    return C.sub(float(np.log(k)), entropy)


def _cosine_gap_composition(g):
    """What ``cosine_gap`` fuses: the row cosines of the halves of ``g``
    (each selected by a ``matmul``), of the live rows alone when a row is
    dead, and the mean of 1 minus each over all rows."""
    rows = g.shape[0] // 2
    gs, gt = (T.matmul(np.eye(2 * rows)[half], g) for half in (slice(rows), slice(rows, None)))
    cos, norm_s, norm_t = C.cosine_rows(gs, gt)
    live = (norm_s >= T.COSINE_EPS) & (norm_t >= T.COSINE_EPS)
    if not live.all():
        keep = np.eye(rows)[live]
        cos = C.cosine_rows(T.matmul(keep, gs), T.matmul(keep, gt))[0]
    return T.mul(C.tsum(C.sub(1.0, cos)), 1.0 / rows)


class TestFusedLosses:
    """The losses and the step objective, one node each, against their
    compositions: the forward value and every parent's cotangent, bit for
    bit (``cosine_gap``'s cotangent within ``GRADIENT_RTOL``), at a loss
    cotangent other than 1."""

    @staticmethod
    def _pair_case(seed, b=6, k=3):
        """A pair's stacked softmax, 2-by-b-by-k, as a leaf."""
        rng = np.random.default_rng(1400 + seed)
        return T.Tensor(C.softmax(T.Tensor(rng.normal(size=(2, b, k)))).values)

    @staticmethod
    def _cosine_case(seed, rows=3, dead=None):
        """Two rows-by-5 matrices, ``gs`` over ``gt``; ``dead`` ("gs" or
        "gt") zeroes row 1 of that one."""
        rng = np.random.default_rng(1500 + seed)
        gs, gt = rng.normal(size=(rows, 5)), rng.normal(size=(rows, 5))
        if dead:
            (gs if dead == "gs" else gt)[1] = 0.0
        return T.Tensor(np.concatenate([gs, gt]))

    @staticmethod
    def _terms_case(seed):
        """Three scalar losses and the weights 1, -1 and 0.3: the step-2
        objective with a class balance term."""
        rng = np.random.default_rng(1600 + seed)
        return [(T.Tensor(rng.normal()), w) for w in (1.0, -1.0, 0.3)]

    @staticmethod
    def _assert_same(fused, composed, inputs, op, seed, rtol=0.0):
        assert fused.op == op and fused.parents == tuple(inputs)
        _assert_same_op(fused, composed, inputs,
                        T.Tensor(np.random.default_rng(seed).normal()), rtol)

    @pytest.mark.parametrize("seed", range(3))
    def test_mean_abs_difference_equals_composition(self, seed):
        """Tied heads included: where ``p0 == p1`` both heads' cotangents are
        the composition's signed zeros."""
        p = self._pair_case(seed)
        p.values[1, :2] = p.values[0, :2]
        assert (p.values[0] == p.values[1]).any()
        self._assert_same(T.mean_abs_difference(p), _mean_abs_difference_composition(p),
                          [p], "mean_abs_difference", seed)

    @pytest.mark.parametrize("empty_class", [False, True], ids=["every_class", "empty_class"])
    @pytest.mark.parametrize("seed", range(3))
    def test_balance_gap_equals_composition(self, seed, empty_class):
        """A class with no mass in either head is where the log's floor
        acts: its mean is 0, and the composition's log of the floor alone
        gives its cotangent."""
        p = self._pair_case(seed)
        if empty_class:
            p.values[..., 2] = 0.0
            p.values /= p.values.sum(axis=-1, keepdims=True)
        self._assert_same(T.balance_gap(p), _balance_gap_composition(p), [p], "balance_gap",
                          seed)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_pair_cross_entropy_equals_composition(self, seed, weighted):
        rng = np.random.default_rng(1700 + seed)
        logits = T.Tensor(rng.normal(size=(2, 6, 3)))
        t = T.Targets.of(rng.integers(0, 3, size=6), 3,
                         rng.uniform(1.0, 2.0, size=6) if weighted else None)
        ls = T.log_softmax(logits)
        composed = T.mul(C.tsum(C.softmax_cross_entropy(ls, t)), 0.5)
        self._assert_same(T.softmax_pair_cross_entropy(ls, t),
                          composed, [logits], "pair_cross_entropy", seed)

    @pytest.mark.parametrize("dead", [None, "gs", "gt"])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_cosine_gap_equals_composition(self, seed, rows, dead):
        """A dead row (a zero row of ``gs`` or ``gt``) drops out of the
        cosines but counts in the mean; its cotangent is the composition's
        zeros.  The value is bit-equal; the vjp is one product of a
        coefficient matrix with ``g``, whose sums run in another order than
        the composition's, so its gradient is held to ``GRADIENT_RTOL``."""
        g = self._cosine_case(seed, rows, dead if rows > 1 else None)
        self._assert_same(T.cosine_gap(g), _cosine_gap_composition(g), [g], "cosine_gap",
                          seed, C.GRADIENT_RTOL)

    def test_a_dead_pairs_cotangent_rows_are_zero(self):
        """A pair with a zero row, or with a row whose norm is below
        ``COSINE_EPS`` but not 0, gets zero coefficients: both of its rows'
        cotangents are 0, the live pairs' are not, and no floating-point
        warning is raised on the way."""
        rng = np.random.default_rng(19)
        gs, gt = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        gs[1], gt[2] = 0.0, 1e-14
        g = T.Tensor(np.concatenate([gs, gt]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cot = T.backward(T.cosine_gap(g), [g])[g].values
        dead = [1, 2, 5, 6]
        assert np.all(cot[dead] == 0.0)
        assert np.all(np.delete(cot, dead, axis=0) != 0.0)

    def test_cosine_gap_of_dead_rows_only_is_the_constant_zero(self):
        g = T.Tensor(np.concatenate([np.zeros((2, 5)), np.ones((2, 5))]))
        gap = T.cosine_gap(g)
        assert gap.op is None and gap.values.tobytes() == np.float64(0.0).tobytes()
        for shape in ((3, 5), (4,)):
            with pytest.raises(T.ShapeError):
                T.cosine_gap(T.Tensor(np.ones(shape)))

    @pytest.mark.parametrize("values", ["random", "signed_zeros"])
    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_sum_equals_composition(self, seed, values):
        """A weight of -1 is the composition's ``sub``; signed zeros keep
        their signs through both."""
        terms = self._terms_case(seed)
        if values == "signed_zeros":
            terms = [(T.Tensor(v), w) for v, (_, w) in zip((-0.0, 0.0, -0.0), terms)]
        (a, _), (b, _), (c, w) = terms
        self._assert_same(T.weighted_sum(terms), T.add(C.sub(a, b), T.mul(c, w)),
                          [a, b, c], "weighted_sum", seed)

    def test_weighted_sum_of_one_term_is_the_term(self):
        a = T.Tensor(1.5)
        assert T.weighted_sum([(a, 1.0)]) is a
        with pytest.raises(T.ShapeError):
            T.weighted_sum([(a, 1.0), (T.Tensor(np.ones(2)), 0.5)])
        with pytest.raises(T.ContractError):
            T.weighted_sum([])

    def test_mean_abs_difference_and_balance_gap_need_a_pair(self):
        flat, three = T.Tensor(np.full((4, 3), 1 / 3)), T.Tensor(np.full((3, 4, 3), 1 / 3))
        for make in (lambda: T.mean_abs_difference(flat),
                     lambda: T.mean_abs_difference(three),
                     lambda: T.balance_gap(flat),
                     lambda: T.balance_gap(three)):
            with pytest.raises(T.ShapeError):
                make()
        with pytest.raises(T.DomainError):
            T.balance_gap(T.Tensor(-np.ones((2, 4, 3))))

    @pytest.mark.parametrize("name", _LOSS_OP_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_first_order(self, name, seed):
        fd_check(*_fused_builder(name, seed))


def _assert_headwise(op, stacked, shared=(), seed=0):
    """``op`` on two heads stacked on a leading axis against ``op`` on each
    head's slices, bit for bit: each head's slice of the output, and the
    vjps of a random projection of it, a stacked input's gradient slice by
    slice and a shared input's as the two heads' gradients summed in head
    order."""
    stacked = [T.Tensor(a) for a in stacked]
    shared = [T.Tensor(a) for a in shared]
    out = op(*stacked, *shared)
    proj = np.random.default_rng(seed).normal(size=out.shape)
    grads = T.backward(C.tsum(T.mul(out, proj)), stacked + shared)
    totals = [None] * len(shared)
    for h in range(2):
        own = [T.Tensor(t.values[h].copy()) for t in stacked]
        common = [T.Tensor(t.values.copy()) for t in shared]
        out_h = op(*own, *common)
        assert out.values[h].tobytes() == out_h.values.tobytes()
        g_h = T.backward(C.tsum(T.mul(out_h, proj[h])), own + common)
        for t, t_h in zip(stacked, own):
            assert grads[t].values[h].tobytes() == g_h[t_h].values.tobytes()
        totals = [g_h[t].values if total is None else total + g_h[t].values
                  for total, t in zip(totals, common)]
    for t, total in zip(shared, totals):
        assert grads[t].values.tobytes() == total.tobytes()


class TestHeadAxis:
    """Two heads stacked on a leading axis give, head by head, the bits of
    the 2-D ops on their slices, and the head axis is the one broadcast the
    contract adds."""

    @staticmethod
    def _linear_case(seed):
        """A shared 5-by-3 input, two heads' 4-by-3 weights and biases."""
        rng = np.random.default_rng(600 + seed)
        return (T.Tensor(rng.normal(size=(5, 3))), T.Tensor(rng.normal(size=(2, 4, 3))),
                T.Tensor(rng.normal(size=(2, 4))), T.Tensor(rng.normal(size=(2, 5, 4))))

    @staticmethod
    def _class_layers_case(seed):
        """Two heads' two layers on 6 rows: (delta 2x6x2, shared h 6x3) and
        (2x6x3, stacked h 2x6x2), and members of 3 classes."""
        rng = np.random.default_rng(700 + seed)
        layers = [(T.Tensor(rng.normal(size=(2, 6, 2))), T.Tensor(rng.normal(size=(6, 3)))),
                  (T.Tensor(rng.normal(size=(2, 6, 3))), T.Tensor(rng.normal(size=(2, 6, 2))))]
        members = (np.array([0, 1, 2, 0, 1, 2])[:, None] == np.arange(3)).astype(np.float64)
        return layers, members, T.Tensor(rng.normal(size=(3, 2 * (8 + 9))))

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_of_a_shared_input(self, seed, relu):
        x, w, b, _ = self._linear_case(seed)
        _assert_headwise(lambda w, b, x: T.linear(x, w, b, relu=relu),
                         [w.values, b.values], [x.values], seed)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_of_a_stacked_input(self, seed, relu):
        _, w, b, x = self._linear_case(seed)
        x = x.values[..., :3]
        _assert_headwise(lambda x, w, b: T.linear(x, w, b, relu=relu),
                         [x, w.values, b.values], seed=seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_matmul(self, seed):
        rng = np.random.default_rng(800 + seed)
        _assert_headwise(T.matmul, [rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 3, 4))],
                         seed=seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_log_softmax(self, seed):
        _assert_headwise(T.log_softmax, [np.random.default_rng(900 + seed).normal(
            size=(2, 64, 3))], seed=seed)

    def test_sum_over_the_rows(self):
        """``tsum`` over a stack's rows (axis 1) sums each head's (axis 0)."""
        _assert_headwise(lambda a: C.tsum(a, axis=a.values.ndim - 2),
                         [np.random.default_rng(0).normal(size=(2, 64, 3))])

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_softmax_cross_entropy_gives_each_heads_mean(self, seed, weighted):
        rng = np.random.default_rng(1000 + seed)
        labels = rng.integers(0, 3, size=64)
        t = T.Targets.of(labels, 3, rng.uniform(1.0, 2.0, size=64) if weighted else None)
        _assert_headwise(lambda z: C.softmax_cross_entropy(T.log_softmax(z), t),
                         [rng.normal(size=(2, 64, 3))], seed=seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy_grad(self, seed):
        rng = np.random.default_rng(1100 + seed)
        t = T.Targets.of(rng.integers(0, 3, size=64), 3, rng.uniform(1.0, 2.0, size=64))
        ls = T.log_softmax(T.Tensor(rng.normal(size=(2, 64, 3)))).values
        _assert_headwise(lambda ls: T.cross_entropy_grad(ls, t), [ls], seed=seed)

    @pytest.mark.parametrize("by_class", [False, True], ids=["plain", "by_class"])
    @pytest.mark.parametrize("seed", range(3))
    def test_class_affine_gradient_rows_are_head_1_then_head_2(self, seed, by_class):
        """Row r is ``[F1's layers | F2's layers]``: the 2-D op on head 1's
        slices, then on head 2's, in values and in every vjp."""
        layers, members, proj = self._class_layers_case(seed)
        members = members if by_class else None
        proj = proj.values if by_class else proj.values[:1]
        fused = T.class_affine_gradient(layers, _row_groups(members))
        assert fused.op == "class_affine_gradient" and len(fused.parents) == 4
        inputs = [t for layer in layers for t in layer]
        grads = T.backward(C.tsum(T.mul(fused, proj)), inputs)
        width = fused.shape[1] // 2
        shared = None
        for h in range(2):
            own = [(T.Tensor(delta.values[h].copy()),
                    T.Tensor((x.values[h] if x.values.ndim == 3 else x.values).copy()))
                   for delta, x in layers]
            apart = T.class_affine_gradient(own, _row_groups(members))
            assert fused.values[:, h * width:(h + 1) * width].tobytes() == apart.values.tobytes()
            g_h = T.backward(C.tsum(T.mul(apart, proj[:, h * width:(h + 1) * width])),
                             [t for layer in own for t in layer])
            (d0, x0), (d1, x1) = layers
            (d0_h, x0_h), (d1_h, x1_h) = own
            for t, t_h in ((d0, d0_h), (d1, d1_h), (x1, x1_h)):
                assert grads[t].values[h].tobytes() == g_h[t_h].values.tobytes()
            shared = g_h[x0_h].values if shared is None else shared + g_h[x0_h].values
        assert grads[layers[0][1]].values.tobytes() == shared.tobytes()

    @pytest.mark.parametrize("by_class", ["none", "by_class", "rows_of_no_class"])
    @pytest.mark.parametrize("h_kind", ["shared", "stacked"])
    @pytest.mark.parametrize("seed", range(2))
    def test_class_affine_gradient_equals_the_composition_head_by_head(self, seed, h_kind,
                                                                        by_class):
        """Each layer's products and sums run once for both heads: bit-equal
        to the composition on each head's slices, in values and in every
        vjp, a shared ``h``'s cotangent the heads' summed in head order; a
        row of no class gets +0.0 cotangents."""
        rng = np.random.default_rng(1300 + seed)
        layers = [(T.Tensor(rng.normal(size=(2, 6, width))),
                   T.Tensor(rng.normal(size=(6, n_in) if h_kind == "shared" else (2, 6, n_in))))
                  for width, n_in in ((2, 3), (3, 2))]
        members, none = None, np.zeros(6, dtype=bool)
        if by_class != "none":
            labels = np.array([0, 1, 2, 0, 1, 3 if by_class == "rows_of_no_class" else 2])
            members = (labels[:, None] == np.arange(3)).astype(np.float64)
            none = ~members.any(axis=1)
        fused = T.class_affine_gradient(layers, _row_groups(members))
        inputs = [t for layer in layers for t in layer]
        proj = rng.normal(size=fused.shape)
        grads = T.backward(C.tsum(T.mul(fused, proj)), inputs)
        cots = T._VJPS["class_affine_gradient"](proj, [t.values for t in inputs], fused.values,
                                                fused._ctx, [True] * 4)
        assert all(c.flags.c_contiguous for c in cots)  # as the later vjps sum them
        width = fused.shape[1] // 2
        shared = {}
        for head in range(2):
            own = [T.Tensor((t.values[head] if t.values.ndim == 3 else t.values).copy())
                   for t in inputs]
            composed = C.concat([_class_affine_composition(own[i], own[i + 1], members)
                                 for i in (0, 2)], axis=1)
            columns = slice(head * width, (head + 1) * width)
            assert fused.values[:, columns].tobytes() == composed.values.tobytes()
            g_head = T.backward(C.tsum(T.mul(composed, proj[:, columns])), own)
            for t, t_head in zip(inputs, own):
                if t.values.ndim == 3:
                    _assert_same_row_cotangents(grads[t].values[head], g_head[t_head].values,
                                                none)
                else:
                    total = shared.get(t)
                    g = g_head[t_head].values
                    shared[t] = g if total is None else total + g
        for t in inputs:
            if t.values.ndim == 2:
                _assert_same_row_cotangents(grads[t].values, shared[t], none)

    @pytest.mark.parametrize("seed", range(3))
    def test_relu_mask_and_head_difference_equal_their_compositions(self, seed):
        rng = np.random.default_rng(1200 + seed)
        g, z = T.Tensor(rng.normal(size=(2, 5, 3))), rng.normal(size=(2, 5, 3))
        proj = T.Tensor(rng.normal(size=(2, 5, 3)))
        masked = T.relu_mask(g, z)
        assert masked.parents == (g,) and masked._ctx is z
        _assert_same_op(masked, T.mul(g, z > 0.0), [g], proj)
        gap = C.head_difference(g)
        assert gap.parents == (g,)
        _assert_same_op(gap, C.sub(T.Tensor(g.values[0]), T.Tensor(g.values[1])), [],
                        proj.values[0])
        grad = T.backward(C.tsum(T.mul(gap, proj.values[0])), [g])[g].values
        assert grad.tobytes() == np.stack([proj.values[0], -proj.values[0]]).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_first_order(self, seed):
        fd_check(*_fused_builder("linear_heads", seed))

    def test_anything_else_is_refused(self):
        x, w, b, stacked_x = self._linear_case(0)
        three = T.Tensor(np.zeros((3, 5, 4)))
        refused = [
            lambda: T.linear(stacked_x, T.Tensor(w.values[0]), T.Tensor(b.values[0])),
            lambda: T.linear(T.Tensor(np.zeros((3, 5, 3))), w, b),
            lambda: T.linear(x, w, T.Tensor(b.values[0])),
            lambda: T.matmul(stacked_x, T.Tensor(np.zeros((4, 2)))),
            lambda: T.matmul(stacked_x, T.Tensor(np.zeros((3, 4, 2)))),
            lambda: T.add(stacked_x, T.Tensor(np.zeros(4))),
            lambda: T.mul(stacked_x, T.Tensor(np.zeros((5, 4)))),
            lambda: C.head_difference(three),
            lambda: C.tsum(stacked_x, axis=2),
            lambda: T.log_softmax(T.Tensor(np.zeros((2, 2, 5, 4)))),
            lambda: T.relu_mask(stacked_x, np.zeros((5, 4))),
            lambda: T.class_affine_gradient([(stacked_x, T.Tensor(np.zeros((3, 5, 3))))]),
            lambda: T.class_affine_gradient([(T.Tensor(np.zeros((5, 4))), stacked_x)]),
        ]
        for make in refused:
            with pytest.raises(T.ShapeError):
                make()


class TestDeterminismAndState:
    def test_bit_identical_reruns(self):
        def build(seed):
            rng = np.random.default_rng(seed)
            a = T.Tensor(rng.normal(size=(4, 4)))
            b = T.Tensor(rng.normal(size=(4, 4)))
            out = T.log_softmax(T.matmul(C.relu(a), b))
            grads = T.backward(C.tsum(T.mul(out, out)), [a, b])
            return out.values, grads[a].values, grads[b].values

        first = build(99)
        second = build(99)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    def test_no_grad_blocks_recording(self):
        x = T.Tensor([1.0, 2.0])
        with T.no_grad():
            y = T.mul(x, x)
        assert y.parents == ()
        g = T.backward(C.tsum(T.mul(y, y)), [x])[x]
        np.testing.assert_array_equal(g.values, np.zeros(2))

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_a_tensor_holds_float64_values_equal_to_its_input(self, dtype):
        values = np.array([[1.5, -2.0, 3.25], [0.1, 40.0, -6.0]]).astype(dtype)
        t = T.Tensor(values)
        assert t.values.dtype == np.float64
        assert np.array_equal(t.values, values)

    def test_finite_values_preserved(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.normal(size=(6, 6)))
        out = T.log_softmax(T.matmul(C.relu(x), C.transpose(x)))
        assert np.all(np.isfinite(out.values))


def test_softmax_graphs_are_freed_by_reference_counting():
    """No node references itself or holds a closure: exp and log_softmax get
    their output as an argument of their vjp formula, and the cross-entropy's
    context holds the values of its log-softmax.  So a graph through softmax
    and cross-entropy, and a backward through it, leave no reference cycle
    for the cyclic garbage collector."""
    rng = np.random.default_rng(2)
    targets = T.Targets.of(rng.integers(0, 3, size=5), 3)
    gc.collect()
    gc.disable()
    try:
        w = T.Tensor(rng.normal(size=(4, 3)))
        logits = T.matmul(T.Tensor(rng.normal(size=(5, 4))), w)
        ls = T.log_softmax(logits)  # one log-softmax: the cross-entropy's and the softmax's
        loss = T.add(C.softmax_cross_entropy(ls, targets), C.tsum(T.mul(T.exp(ls), logits)))
        grad = T.backward(loss, [w])[w]
        del w, logits, loss, grad
        assert gc.collect() == 0
    finally:
        gc.enable()


RELU_POINTS = np.array([0.0, -0.0, np.nan, 5e-324, 1.0, -1.0])


def test_relu_gradient_is_the_input_mask():
    """relu keeps no mask: its vjp takes ``out > 0`` from its output, which
    is the mask ``a > 0`` of its input at the kink, at both signed zeros, at
    NaN and at the smallest subnormal.  The gradient is bit-equal to the
    cotangent times that mask (signs of zero included)."""
    proj = np.array([-1.5, -2.0, 3.0, -0.5, 0.25, -4.0])
    a = T.Tensor(RELU_POINTS)
    grad = T.backward(C.tsum(T.mul(C.relu(a), proj)), [a])[a]
    want = proj * (RELU_POINTS > 0).astype(np.float64)
    assert grad.values.tobytes() == want.tobytes()


def test_recorded_relu_keeps_no_context():
    out = C.relu(T.Tensor(RELU_POINTS))
    assert out.op == "relu" and out._ctx is None


def _peak_bytes(fn):
    """The tracemalloc peak of one call of ``fn`` and its result."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


def test_linear_and_its_weight_vjp_allocate_only_their_result():
    """The forward multiplies by the transposed-weight view and the weight
    vjp's array step by the transposed-cotangent view: BLAS reads both in
    place, so neither makes a transposed copy beside its result."""
    rng = np.random.default_rng(0)
    x, w, b = (T.Tensor(rng.normal(size=shape)) for shape in ((256, 256), (256, 256), (256,)))
    peak, out = _peak_bytes(lambda: T.linear(x, w, b))
    np.testing.assert_array_equal(out.values, T.add(T.matmul(x, C.transpose(w)), b).values)
    assert peak < 1.5 * out.values.nbytes
    g = rng.normal(size=out.shape)
    peak, (_, grad, _) = _peak_bytes(lambda: T._VJPS["linear"](
        g, [x.values, w.values, b.values], out.values, False, [False, True, False]))
    np.testing.assert_array_equal(grad, g.T @ x.values)
    assert peak < 1.5 * grad.nbytes


def test_relu_outside_recording_allocates_only_its_output():
    """Under no_grad relu builds no backward mask: its allocations peak below
    1.5 times its output's bytes."""
    x = T.Tensor(np.random.default_rng(0).normal(size=(1000, 256)))
    tracemalloc.start()
    try:
        with T.no_grad():
            out = C.relu(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out.values, np.maximum(x.values, 0.0))
    assert peak < 1.5 * out.values.nbytes


ABS_POINTS = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.5, -3.0])


def test_absolute_is_one_node_bit_equal_to_its_relu_composition():
    """``absolute`` records one node, and its values and gradients are
    bit-equal to ``add(relu(a), relu(neg(a)))`` at both signed zeros, at +-1
    and at the smallest subnormals, signs of zero included."""
    proj = np.array([-1.5, -2.0, 3.0, -0.5, 0.25, -4.0, -0.0, 1.0])
    a = T.Tensor(ABS_POINTS)
    fused = C.absolute(a)
    composed = T.add(C.relu(a), C.relu(C.neg(a)))
    assert fused.op == "abs" and fused.parents == (a,) and fused._ctx is None
    assert fused.values.tobytes() == composed.values.tobytes()
    grads = [T.backward(C.tsum(T.mul(out, proj)), [a])[a] for out in (fused, composed)]
    assert grads[0].values.tobytes() == grads[1].values.tobytes()


def _class_members(rng, b, k, every_row):
    """b-by-k 0/1 members of random labels; unless ``every_row``, some rows
    are of no class."""
    labels = rng.integers(0, k if every_row else k + 1, size=b)
    if not every_row:
        labels[:2] = k
    return (labels[:, None] == np.arange(k)).astype(np.float64)


@pytest.mark.parametrize("every_row", [True, False], ids=["every_row", "rows_of_no_class"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_class_gather_equals_the_masked_composition(k, every_row):
    """The op grouped by class gathers each row's cotangent from its group:
    bit-equal to the masked composition in values, and in both cotangents
    on the rows of a class.  A row of no class joins no group: both its
    cotangents are +0.0, where the composition sums its K masked blocks to
    -0.0 if all are negative."""
    rng = np.random.default_rng(10 * k + every_row)
    members = _class_members(rng, 9, k, every_row)
    delta, h = T.Tensor(rng.normal(size=(9, 3))), T.Tensor(rng.normal(size=(9, 4)))
    proj = T.Tensor(rng.normal(size=(k, 15)))
    fused = T.class_affine_gradient([(delta, h)], _row_groups(members))
    composed = _class_affine_composition(delta, h, members)
    assert fused.values.tobytes() == composed.values.tobytes()
    g_fused = T.backward(C.tsum(T.mul(fused, proj)), [delta, h])
    g_composed = T.backward(C.tsum(T.mul(composed, proj)), [delta, h])
    for t in (delta, h):
        _assert_same_row_cotangents(g_fused[t].values, g_composed[t].values,
                                    ~members.any(axis=1))


def test_class_affine_peak_does_not_grow_with_k():
    """Grouped by class, the op and its vjp gather each class's rows once:
    on K = 2, 4, 8 balanced classes their tracemalloc peak is one class's
    plus the K output rows, where a K-fold masked copy of delta would add
    (K - 1) times delta."""
    rng = np.random.default_rng(3)
    b, width, n_in = 256, 32, 8
    delta, h = rng.normal(size=(b, width)), rng.normal(size=(b, n_in))
    columns = width * (n_in + 1)

    def peak(classes):
        groups = T.RowGroups([np.arange(b) % classes], classes)
        layers = [(T.Tensor(delta), T.Tensor(h))]
        g = np.ones((classes, columns))

        def run():
            out = T.class_affine_gradient(layers, groups)
            return T._VJPS["class_affine_gradient"](
                g, [delta, h], out.values, out._ctx, [True, True])
        return _peak_bytes(run)[0]

    for k in (2, 4, 8):
        assert peak(k) < peak(1) + 1.5 * k * columns * 8 < peak(1) + (k - 1) * delta.nbytes


def test_class_affine_vjp_reads_the_rows_its_forward_gathered(monkeypatch):
    """A :class:`RowGroups` node keeps the grouped ``delta`` and ``h`` of its
    forward: its vjp gathers neither again (``np.take`` runs only on the
    cotangents it ungroups), and its cotangents are those of a vjp that
    gathers them anew, bit for bit."""
    rng = np.random.default_rng(11)
    members = _class_members(rng, 20, 3, every_row=False)
    layers = [(T.Tensor(rng.normal(size=(2, 20, 4))), T.Tensor(rng.normal(size=(20, 3)))),
              (T.Tensor(rng.normal(size=(2, 20, 2))), T.Tensor(rng.normal(size=(2, 20, 4))))]
    fused = T.class_affine_gradient(layers, _row_groups(members))
    args = [t.values for layer in layers for t in layer]
    proj = rng.normal(size=fused.shape)
    groups = fused._ctx[0]
    anew = (groups, [(T._grouped(T._stacked(d), groups, zero_pads=True), T._grouped(h, groups))
                     for d, h in zip(args[::2], args[1::2])])
    want = T._VJPS["class_affine_gradient"](proj, args, fused.values, anew, [True] * 4)
    taken, take = [], np.take

    def recording_take(a, *rest, **kwargs):
        taken.append(a)
        return take(a, *rest, **kwargs)

    monkeypatch.setattr(np, "take", recording_take)
    got = T._VJPS["class_affine_gradient"](proj, args, fused.values, fused._ctx, [True] * 4)
    monkeypatch.undo()
    assert taken and not any(np.shares_memory(a, x) for a in taken for x in args)
    assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def test_linear_vjp_of_a_shared_input_adds_each_heads_product():
    """The cotangent of an input the heads share is each head's ``g w``
    added into one b-by-in array in head order: bit-equal to the sum of the
    stacked product, without the H-by-b-by-in stack."""
    rng = np.random.default_rng(5)
    heads, b, n_in, n_out = 4, 512, 64, 8
    x, w = rng.normal(size=(b, n_in)), rng.normal(size=(heads, n_out, n_in))
    g = rng.normal(size=(heads, b, n_out))
    peak, (grad, _, _) = _peak_bytes(lambda: T._VJPS["linear"](
        g, [x, w, np.zeros((heads, n_out))], None, False, [True, False, False]))
    assert grad.tobytes() == np.add.reduce(g @ w, 0).tobytes()
    assert peak < 2.5 * grad.nbytes
