"""The traced benchmark finds every entry point it times.

`perfbench/tracer.py` rebinds program functions by module and attribute
name, so renaming one breaks the traced benchmark.  This checks the names
from the tier-1 suite, without running the benchmark.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module_name,path", [t[:2] for t in tracer.TARGETS])
def test_tracer_target_resolves(module_name, path):
    importlib.import_module(module_name)
    owner, attr = tracer._resolve(module_name, path)
    assert callable(getattr(owner, attr, None)), f"{module_name}.{path}"


def test_wada_route_binds_the_substitution_walker():
    # Wada's numerator comes from fox's substitution walker, bound by name in
    # twisted; fox.specialize_* (traced as fox.specialize) no longer run there
    from twistalex import fox, twisted

    assert twisted.reduced_fox_matrix is fox.reduced_fox_matrix
