"""Per-layer counters and busy times for one or more training runs.

A :class:`Tracer` wraps ``cgdm`` callables for as long as it is entered and
restores them on exit.  A function is replaced in every ``cgdm`` module that
binds it, because callers look functions up in their own namespace:
``trainer`` and ``grad_discrepancy`` import ``backward`` by name, so patching
``tensor.backward`` alone would miss every training call.  Methods are
replaced on their class.  Nothing under ``src/`` is changed.

Times are inclusive (a step's time contains the forward and backward calls
made inside it).  With ``count_graph`` the tracer also walks the graph from
every backward root reached inside a training step, through the public
``Tensor.parents``/``Tensor.op`` attributes, and applies the rule
``tensor.backward`` uses to keep a node: it lies on a path from the root to a
``wrt`` tensor.  The walk is slow, so a run counts on one training call and
times on others.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# op kinds recorded by cgdm.tensor; any other kind is counted as "other"
OP_KINDS = (
    "add", "sub", "mul", "neg", "matmul", "transpose", "relu", "exp", "log",
    "pow", "sum", "sum0", "sum1", "reshape", "concat", "narrow", "log_softmax",
)


def _cgdm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cgdm" or name.startswith("cgdm."))]


def rebind(original, wrapper, patches: list) -> None:
    """Replace ``original`` by ``wrapper`` in every ``cgdm`` module binding it.

    Each replacement is appended to ``patches`` for :func:`restore`.
    """
    for module in _cgdm_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, wrapper)


def restore(patches: list) -> None:
    """Undo the replacements in ``patches``, last first, and empty it."""
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)


def walk(root, wrt) -> tuple[list, int]:
    """Nodes reachable from ``root`` (parents first) and how many are needed.

    A node is needed when it is a ``wrt`` tensor or has a needed parent,
    which is the set ``tensor.backward`` propagates cotangents through.
    """
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:  # iterative post-order: a node follows all its parents
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents if id(p) not in visited)
    wrt_ids = {id(t) for t in wrt}
    needed = set()
    for node in order:
        if id(node) in wrt_ids or any(id(p) in needed for p in node.parents):
            needed.add(id(node))
    return order, len(needed)


class Tracer:
    """Wraps the training layers while entered; see the module docstring."""

    def __init__(self, count_graph: bool = False):
        self.count_graph = count_graph
        self.calls = Counter()  # span name -> calls
        self.busy = Counter()  # span name -> seconds
        self.iterations = 0  # adversarial iterations (step-1 calls)
        self.step_backward = Counter()  # "first"/"cg" -> calls inside steps
        self.step_forward = 0  # nn.forward calls inside steps
        self.walks = 0
        self.reachable = 0
        self.needed = 0
        self.nodes = Counter()  # op kind -> distinct nodes, summed over iterations
        self.zero_fallbacks = 0
        self._in_step = 0
        self._iteration_nodes = set()
        self._patches = []

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        from cgdm import grad_discrepancy, harness, nn, pseudo_labels, tensor, trainer

        cls = trainer.CgdmTrainer
        self._patch_method(cls, "step1_update", self._step("trainer.step1", True))
        self._patch_method(cls, "step2_update", self._step("trainer.step2", False))
        self._patch_method(cls, "step3_update", self._step("trainer.step3", False))
        self._patch_method(nn.SgdOptimizer, "step", self._timed("nn.sgd_step"))
        self._rebind(trainer.evaluate, self._timed("trainer.evaluate"))
        self._rebind(pseudo_labels.pseudo_label_epoch,
                     self._timed("pseudo_labels.epoch"))
        self._rebind(grad_discrepancy.source_gradient,
                     self._timed("grad_discrepancy.source_gradient"))
        self._rebind(grad_discrepancy.target_gradient,
                     self._timed("grad_discrepancy.target_gradient"))
        self._rebind(grad_discrepancy.conditional_gradient_loss,
                     self._zero_counted("grad_discrepancy.conditional_loss"))
        self._rebind(grad_discrepancy.gradient_discrepancy_loss,
                     self._zero_counted("grad_discrepancy.gd_loss"))
        self._rebind(nn.forward, self._forward())
        self._rebind(tensor.backward, self._backward())
        self._rebind(harness.build_datasets, self._timed("harness.build_datasets"))
        self._rebind(harness.write_metrics_csv, self._timed("harness.write_metrics"))
        return self

    def __exit__(self, *exc):
        self.flush_iteration()
        restore(self._patches)
        return False

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def _rebind(self, original, make):
        rebind(original, make(original), self._patches)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.busy[name] += perf_counter() - t0
                    self.calls[name] += 1
            return wrapper
        return make

    def _step(self, name, starts_iteration):
        def make(fn):
            timed = self._timed(name)(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if starts_iteration:
                    self.flush_iteration()
                    self.iterations += 1
                self._in_step += 1
                try:
                    return timed(*args, **kwargs)
                finally:
                    self._in_step -= 1
            return wrapper
        return make

    def _zero_counted(self, name):
        def make(fn):
            timed = self._timed(name)(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = timed(*args, **kwargs)
                if out.op is None:  # the constant-zero fallback
                    self.zero_fallbacks += 1
                return out
            return wrapper
        return make

    def _forward(self):
        def make(fn):
            timed = self._timed("nn.forward")(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._in_step:
                    self.step_forward += 1
                return timed(*args, **kwargs)
            return wrapper
        return make

    def _backward(self):
        def make(fn):
            timed = {kind: self._timed(f"tensor.backward_{kind}")(fn)
                     for kind in ("first", "cg")}

            @functools.wraps(fn)
            def wrapper(scalar, wrt, create_graph=False):
                wrt = list(wrt)
                kind = "cg" if create_graph else "first"
                if self._in_step:
                    self.step_backward[kind] += 1
                    if self.count_graph:
                        self._count(scalar, wrt)
                return timed[kind](scalar, wrt, create_graph=create_graph)
            return wrapper
        return make

    # -- graph counts ---------------------------------------------------------

    def _count(self, root, wrt):
        order, needed = walk(root, wrt)
        self.walks += 1
        self.reachable += len(order)
        self.needed += needed
        self._iteration_nodes.update(n for n in order if n.op is not None)

    def flush_iteration(self):
        """Add the distinct nodes of the iteration that just ended."""
        for node in self._iteration_nodes:
            kind = node.op if node.op in OP_KINDS else "other"
            self.nodes[kind] += 1
        self._iteration_nodes.clear()

    # -- summaries ------------------------------------------------------------

    def ms_per_call(self, name) -> float:
        calls = self.calls[name]
        return 1e3 * self.busy[name] / calls if calls else 0.0
