"""Every function the benchmark tracer times still exists under its name.

The tracer (perfbench/tracer.py) patches the functions it names in
``TRACED`` and refuses to run when one is missing, so a rename or a
deletion in src/isolab would otherwise only show in a traced benchmark
run.  This test loads the tracer by path and only reads it."""

import importlib
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    # compiled from its source, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


def test_tracer_names_targets():
    assert len(tracer.TRACED) >= 30


@pytest.mark.parametrize("name", tracer.TRACED)
def test_traced_name_resolves(name):
    layer, func = tracer._resolve(name)
    assert callable(func)
    # the tracer patches the object where a module or a class holds it
    module = importlib.import_module("isolab." + layer)
    holders = [module] + [v for v in vars(module).values() if isinstance(v, type)]
    assert any(value is func for holder in holders for value in vars(holder).values()), name
