"""The autodiff core keeps only the ops the program runs, read from the
source: every name ``cgdm.tensor`` exports has a user in the package or the
benchmark, and each file that records ops (``tensor.py``, and the tests'
reference primitives in ``compositions.py``) has one vjp formula per op it
records."""
import ast
from pathlib import Path

import pytest

from cgdm import tensor

import compositions

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cgdm"
RECORDING = {"tensor.py": Path(tensor.__file__), "compositions.py": Path(compositions.__file__)}


def core_names_used(source: str) -> tuple[set, set]:
    """``(called, read)``: the ``cgdm.tensor`` names a module calls, and all
    it reads, whether bound by ``from .tensor import`` (or ``cgdm.tensor``)
    or read off the module as ``tensor.<name>``."""
    tree = ast.parse(source)
    bound, modules = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        relative = node.level == 1
        for alias in node.names:
            if (node.module == "tensor" and relative) or node.module == "cgdm.tensor":
                bound[alias.asname or alias.name] = alias.name
            elif alias.name == "tensor" and (node.module == "cgdm" or
                                             (relative and node.module is None)):
                modules.add(alias.asname or "tensor")

    def core_name(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute) and getattr(expr.value, "id", None) in modules:
            return expr.attr
        return None

    read = {core_name(n) for n in ast.walk(tree)} - {None}
    called = {core_name(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)} - {None}
    return called, read


def recorded_op_names(path: Path) -> set:
    """The op names a file passes to ``_node``."""
    tree = ast.parse(path.read_text())
    return {
        c.value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_node"
        for c in ast.walk(call.args[2])
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    }


def vjp_table_keys(path: Path) -> set:
    """The keys of the ``_VJPS = {...}`` literal of a file."""
    (table,) = [node.value for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_VJPS"]]
    return {ast.literal_eval(key) for key in table.keys}


def test_the_scan_sees_calls_and_reads():
    source = ("from .tensor import add, Tensor as T, no_grad\nfrom cgdm import tensor\n"
              "add(1, 2)\nx = T\ntensor.mul(x, x)\ntensor.backward\n")
    assert core_names_used(source) == ({"add", "mul"}, {"add", "Tensor", "mul", "backward"})


def test_every_exported_name_has_a_user():
    """Each function in ``__all__`` is called, and each class read, by
    another ``cgdm`` module or by the benchmark."""
    called, read = set(), set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        if path.name != "tensor.py":
            module_called, module_read = core_names_used(path.read_text())
            called |= module_called
            read |= module_read
    unused = [name for name in tensor.__all__
              if name not in (read if isinstance(getattr(tensor, name), type) else called)]
    assert unused == []


@pytest.mark.parametrize("name", sorted(RECORDING))
def test_every_recorded_op_has_a_vjp_in_its_file(name):
    assert recorded_op_names(RECORDING[name]) == vjp_table_keys(RECORDING[name])


def test_the_reference_primitives_are_registered_beside_the_core():
    """``compositions.py`` adds its formulas and replaces none of the core's."""
    core, reference = (vjp_table_keys(path) for path in RECORDING.values())
    assert not core & reference
    assert set(tensor._VJPS) == core | reference
