"""Every function the benchmark tracer times still exists under its name.

The tracer (perfbench/tracer.py) patches the functions it names in
``TRACED`` and refuses to run when one is missing, so a rename or a
deletion in src/isolab would otherwise only show in a traced benchmark
run.  This test loads the tracer by path and only reads it.  Each poset
build must also call ``enumerate_polygons`` once through the module
attribute the tracer patches."""

import importlib
import types
from pathlib import Path

import pytest

from isolab import poset

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



_ISO, _ORD = poset.isoclinic_polygon(6, 3), poset.ordinary_polygon(6, 3)
POSET_BUILDS = {
    "poset_build": lambda: poset.poset_build(6, 3),
    "poset_build symmetric": lambda: poset.poset_build(6, 3, symmetric=True),
    "specialization_witness": lambda: poset.specialization_witness(_ISO, _ORD),
    "NPPoset interval": lambda: poset.NPPoset(6, 3, interval=(_ISO, _ORD)),
}


@pytest.mark.parametrize("build", sorted(POSET_BUILDS))
def test_poset_builds_enumerate_through_the_module(monkeypatch, build):
    # the traced poset run times `poset.enumerate_polygons` by patching the
    # module attribute, and marks itself incorrect when a target gets no call
    calls = []
    original = poset.enumerate_polygons

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(poset, "enumerate_polygons", counting)
    POSET_BUILDS[build]()
    assert len(calls) == 1
