"""One error base and one primality check.

Every refusal of outside input is a `TwistalexError`, and the CLI turns
exactly those (and `OSError`) into exit 2 with one line; any other exception
is a program fault and propagates.  Primality is decided in `domains` alone,
by building GF(p), apart from the determinant engine's own prime supply.
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
