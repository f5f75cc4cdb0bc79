"""One error base and one primality check, and frozen objects stay frozen.

Every refusal of outside input is a `TwistalexError`, and the CLI turns
exactly those (and `OSError`) into exit 2 with one line; any other exception
is a program fault and propagates.  Primality is decided in `domains` alone,
by building GF(p), apart from the determinant engine's own prime supply.  A
frozen dataclass is written through `object.__setattr__` only while
`__post_init__` builds it; a value computed later goes in a
`functools.cached_property`.
"""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import twistalex
from twistalex import cli, fox
from twistalex.domains import TwistalexError

SRC = Path(twistalex.__file__).parent


def _readers(source: str, name: str) -> list[str]:
    """The top-level definitions of source whose code reads `name`."""
    return [top.name for top in ast.parse(source).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and any(isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    for node in ast.walk(top))]


def test_primality_is_decided_in_domains_and_the_engine_prime_supply():
    assert _readers("def f(n):\n    return domains.is_prime(n)\n"
                    "def g(n):\n    return is_prime(n)\n", "is_prime") == ["f", "g"]
    readers = {path.name: found for path in sorted(SRC.glob("*.py")) if path.name != "domains.py"
               for found in [_readers(path.read_text(), "is_prime")] if found}
    assert readers == {"polydet.py": ["_prime"]}


def test_only_cyclo_factors_by_trial_division():
    # the order tests of Target.metacyclic and the engine's roots of unity
    # go through cyclo.has_order
    readers = {path.name: found for path in sorted(SRC.glob("*.py")) if path.name != "cyclo.py"
               for found in [_readers(path.read_text(), "_prime_factors")] if found}
    assert readers == {}


def _frozen_writes(source: str) -> list[int]:
    """Lines of source that name object.__setattr__ outside a __post_init__."""
    tree = ast.parse(source)
    building = {id(node) for top in ast.walk(tree)
                if isinstance(top, ast.FunctionDef) and top.name == "__post_init__"
                for node in ast.walk(top)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object"
                  and id(node) not in building)


def test_frozen_objects_are_written_only_in_post_init():
    assert _frozen_writes("class A:\n"
                          "    def __post_init__(self):\n"
                          "        object.__setattr__(self, 'x', 1)\n"
                          "    def f(self):\n"
                          "        object.__setattr__(self, 'y', 2)\n"
                          "set_y = object.__setattr__\n") == [5, 6]
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py"))
                 for lines in [_frozen_writes(path.read_text())] if lines}
    assert offenders == {}


def _format_tests(source: str) -> list[str]:
    """The top-level definitions of source that call isinstance(..., Monomial)."""
    def names(node):
        return [n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                for n in (node.elts if isinstance(node, ast.Tuple) else [node])]

    return [top.name for top in ast.parse(source).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2 and "Monomial" in names(node.args[1])
                    for node in ast.walk(top))]


def test_only_matrix_and_two_readers_ask_for_the_image_format():
    # kron, sums, conversions, identity tests and entries take either format
    # in matrix; a reader outside it asks only for a closed form of its own
    assert _format_tests("def f(a):\n    return isinstance(a, matrix.Monomial)\n"
                         "def g(a, b):\n    return isinstance(b, (tuple, Monomial))\n"
                         "def h(a):\n    return isinstance(a, tuple)\n") == ["f", "g"]
    readers = {path.name: found for path in sorted(SRC.glob("*.py")) if path.name != "matrix.py"
               for found in [_format_tests(path.read_text())] if found}
    assert readers == {"reps.py": ["Representation"], "twisted.py": ["_denominator"]}


def test_every_exception_class_derives_from_the_one_base():
    classes = {}
    for info in pkgutil.iter_modules(twistalex.__path__):
        module = importlib.import_module(f"twistalex.{info.name}")
        classes.update({f"{info.name}.{name}": obj for name, obj in vars(module).items()
                        if inspect.isclass(obj) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__})
    assert {"cli.UsageError", "presentation.PresentationError", "domains.RepresentationError",
            "twisted.WadaError"} <= set(classes)
    # ExactDivisionError is the internal ArithmeticError signal, caught where it is raised
    assert [name for name, c in classes.items() if not issubclass(c, TwistalexError)] == [
        "domains.ExactDivisionError"]


def test_the_cli_turns_only_refusals_into_exit_2():
    assert cli._USER_ERRORS == (TwistalexError, OSError)


def test_a_program_fault_propagates_out_of_the_cli(monkeypatch, capsys):
    def broken(pres, column):
        raise ValueError("walk plan defect")

    monkeypatch.setattr(fox, "walk_plan", broken)
    with pytest.raises(ValueError, match="walk plan defect"):
        cli.main(["twisted", "--knot", "3_1", "--rep", "trivial"])
    assert capsys.readouterr().err == ""
