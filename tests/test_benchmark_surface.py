"""The API the benchmark binds by name: ``bench/tracing.py`` and
``bench/speed.py`` rebind these functions in every ``cgdm`` module that binds
them, patch these methods on their classes, and call ``backward`` with its
``create_graph`` keyword, and ``bench/selftest.py`` builds a graph with
``tensor.Tensor``, ``tensor.mul`` and ``tensor.add``, which training records
none of.  A rename here breaks the benchmark's traced runs or self-tests, so
the names are checked where the program is tested."""
import numpy as np
import pytest

from cgdm import grad_discrepancy, harness, nn, pseudo_labels, tensor, trainer

REBOUND_FUNCTIONS = [
    (trainer, "evaluate"),
    (trainer, "epoch_batches"),
    (pseudo_labels, "pseudo_label_epoch"),
    (grad_discrepancy, "source_gradient"),
    (grad_discrepancy, "target_gradient"),
    (grad_discrepancy, "conditional_gradient_loss"),
    (grad_discrepancy, "gradient_discrepancy_loss"),
    (nn, "forward"),
    (tensor, "backward"),
    (harness, "build_datasets"),
    (harness, "write_metrics_csv"),
]

CALLED_NAMES = [(tensor, "Tensor"), (tensor, "mul"), (tensor, "add")]

PATCHED_METHODS = [
    (trainer.CgdmTrainer, "step1_update"),
    (trainer.CgdmTrainer, "step2_update"),
    (trainer.CgdmTrainer, "step3_update"),
    (nn.SgdOptimizer, "step"),
]


@pytest.mark.parametrize("module, name", REBOUND_FUNCTIONS,
                         ids=[f"{m.__name__}.{n}" for m, n in REBOUND_FUNCTIONS])
def test_every_rebound_function_exists(module, name):
    assert callable(vars(module)[name])


@pytest.mark.parametrize("module, name", CALLED_NAMES,
                         ids=[f"{m.__name__}.{n}" for m, n in CALLED_NAMES])
def test_every_called_name_exists(module, name):
    assert callable(vars(module)[name])


@pytest.mark.parametrize("cls, name", PATCHED_METHODS,
                         ids=[f"{c.__name__}.{n}" for c, n in PATCHED_METHODS])
def test_every_patched_method_is_defined_on_its_class(cls, name):
    assert callable(cls.__dict__[name])


def test_the_training_modules_bind_the_one_backward():
    """Rebinding ``tensor.backward`` reaches the calls of training and of
    the class-gradient definition."""
    assert grad_discrepancy.backward is tensor.backward
    assert trainer.backward is tensor.backward


def test_backward_keeps_its_create_graph_keyword():
    """``create_graph=False`` is the one mode; ``True`` raises before it
    makes a tensor, and recording stays on."""
    x = tensor.Tensor(2.0)
    scalar = tensor.add(tensor.mul(x, x), x)
    grad = tensor.backward(scalar, [x], create_graph=False)[x]
    np.testing.assert_array_equal(grad.values, 5.0)
    before = next(tensor._ids)
    with pytest.raises(tensor.ContractError, match="first-order"):
        tensor.backward(scalar, [x], create_graph=True)
    assert next(tensor._ids) == before + 1
    assert tensor._state.enabled
