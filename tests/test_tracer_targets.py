"""Every function the benchmark tracer times still exists under its name.

The tracer (perfbench/tracer.py) patches the functions it names in
``TRACED`` and refuses to run when one is missing, so a rename or a
deletion in src/isolab would otherwise only show in a traced benchmark
run.  This test loads the tracer and the workloads by path and only reads
them.  Each poset build must also call ``enumerate_polygons`` once through
the module attribute the tracer patches, each workload target must be
reached, and each traced name must be its own function object: the tracer
patches by identity, so a function that two names share is wrapped twice
and counted under both."""

import importlib
import pkgutil
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import isolab
from isolab import poset, unramified

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    # compiled from its source, so no bytecode cache is written next to it
    path = PERFBENCH / (name + ".py")
    module = types.ModuleType("perfbench_" + name)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


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


def test_traced_names_are_distinct_objects():
    funcs = [tracer._resolve(name)[1] for name in tracer.TRACED]
    assert len(tracer.TRACED) == 35
    assert len({id(f) for f in funcs}) == len(funcs)


def _count_calls(monkeypatch, names):
    """Patch `names` by identity in the isolab package, every loaded isolab
    module and their classes, one name after the other, as `Tracer.install`
    does; the calls per name."""
    calls = Counter()
    funcs = [tracer._resolve(name)[1] for name in names]  # imports their modules
    modules = [m for key, m in list(sys.modules.items()) if key.partition(".")[0] == "isolab" and m is not None]
    holders = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    for name, func in zip(names, funcs):

        def counting(*args, _name=name, _func=func, **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is func:
                    monkeypatch.setattr(holder, attr, counting)
    return calls


def test_weil_census_reaches_its_targets(monkeypatch):
    # one quadratic and one accepted quartic op of the workload; its traced
    # run marks itself incorrect when a target reads no call
    census = workloads.WeilCensus(seed=1)
    quadratic, quartic = ("quadratic", 9973, 1, 9973, 5, None), ("quartic", 2, 1, 2, 1, 0)
    assert quadratic[1:4] in census.quadratic_q and quartic in census.quartics
    assert "newton.np_of_polynomial" in census.targets
    calls = _count_calls(monkeypatch, census.targets)
    for op in (quadratic, quartic):
        ok, record = census.run(op)
        assert ok and record[1] == "accepted" and not census.check(record)
    assert sorted(calls) == sorted(census.targets)
    # honda_tate reads the valuation polygon of each op through `weil`'s name
    assert calls["newton.np_of_polynomial"] == 2


def test_each_product_is_counted_under_its_own_name(monkeypatch):
    field, ring = unramified.finite_field(3, 2), unramified.unramified_ring(3, 2, 4)
    calls = _count_calls(monkeypatch, [name for name in tracer.TRACED if name.startswith("unramified.")])
    field.generator() * field.one()
    assert calls == Counter({"unramified.FFElement.__mul__": 1})
    calls.clear()
    ring.one() * ring.from_coeffs([0, 1])
    assert calls == Counter({"unramified.UElement.__mul__": 1})


def test_rings_built_counts_lift_rings_only(monkeypatch):
    # the tracer reads `unramified.rings_built` off the calls of the
    # traced `UnramifiedRing`; a field build is not one of them
    calls = _count_calls(monkeypatch, ["unramified.UnramifiedRing"])
    unramified.FiniteField(3, 2)
    unramified.finite_field(2, 5)
    assert not calls
    unramified.finite_field.cache_clear()
    unramified.unramified_ring(2, 3, 4)  # builds F_8 too
    assert calls == Counter({"unramified.UnramifiedRing": 1})


def test_cleared_caches_leave_no_ring_warm(monkeypatch):
    # cli-mix clears every `cache_clear` callable of the isolab.* modules
    # before each op (perfbench/workloads.py, `CliMix.before_op`) and counts
    # each op's cold ring builds; no ring or field may survive the clearing
    importlib.import_module("isolab.cli")
    warm = unramified.unramified_ring(2, 3, 4)
    caches = {
        id(value): value
        for name, module in list(sys.modules.items())
        if name.startswith("isolab.") and module is not None
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }
    for cache in caches.values():
        cache.cache_clear()
    calls = _count_calls(monkeypatch, ["unramified.UnramifiedRing"])
    ring = unramified.unramified_ring(2, 3, 4)
    assert calls == Counter({"unramified.UnramifiedRing": 1})
    assert ring is not warm and ring.field is unramified.finite_field(2, 3) is not warm.field


def test_module_caches_are_the_field_and_edge_caches():
    # the caches cli-mix clears before each op, collected as `CliMix.before_op`
    # collects them, from every isolab module: lift rings live on their
    # field, so a new module-level cache has to be added here on purpose
    for info in pkgutil.iter_modules(isolab.__path__, "isolab."):
        if info.name != "isolab.__main__":  # importing it runs the CLI
            importlib.import_module(info.name)
    caches = {
        id(value): "%s.%s" % (value.__module__.removeprefix("isolab."), value.__qualname__)
        for name, module in list(sys.modules.items())
        if name.startswith("isolab.") and module is not None
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }
    assert sorted(caches.values()) == ["poset._edges", "unramified.finite_field"]


_ISO, _ORD = poset.isoclinic_polygon(6, 3), poset.ordinary_polygon(6, 3)
POSET_BUILDS = {
    "poset_build": lambda: poset.poset_build(6, 3),
    "poset_build symmetric": lambda: poset.poset_build(6, 3, symmetric=True),
    "specialization_witness": lambda: poset.specialization_witness(_ISO, _ORD),
    "interval_chain": lambda: poset.interval_chain(6, 3, _ISO, _ORD),
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
