"""The library names that the benchmark's tracer (perfbench/tracer.py) binds.

The tracer replaces these functions and wraps these instance callables by
name; a rename or deletion in the library breaks a traced benchmark run,
so the names are checked here, where every test run sees them.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # the tracer imports only the standard library, so loading it is cheap
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lib(module: str):
    return importlib.import_module(f"torsiongeo.{module}")


def test_traced_functions_exist(tracer):
    for table in (tracer.SPAN_FUNCTIONS, tracer.HOT_FUNCTIONS):
        for module, names in table.items():
            for name in names:
                assert callable(getattr(lib(module), name, None)), f"{module}.{name}"
    assert lib("scenarios").ScenarioConfig.from_dict
    assert lib("suite").ALL_CRITERIA


def test_traced_instance_callables_exist(tracer):
    for module, cls_name, attrs in tracer.INSTANCE_CALLABLES:
        cls = getattr(lib(module), cls_name)
        fields = {f.name for f in dataclasses.fields(cls)}
        for attr in attrs:
            assert attr in fields or callable(getattr(cls, attr, None)), f"{cls_name}.{attr}"


def test_sweep_parameters_the_tracer_reads():
    params = inspect.signature(lib("plane").shooting_sweep).parameters
    assert {"t_max", "h", "both_directions"} <= set(params)


@pytest.mark.parametrize("method, stepper", [("rk4", "integrate"),
                                             ("rk45", "integrate_adaptive")])
def test_integrate_any_reaches_one_traced_stepper_once(monkeypatch, method, stepper):
    # the tracer adds a trace's samples in both integrate and
    # integrate_adaptive, so a dispatch through both would count them twice
    mod = lib("integrate")
    calls = Counter()
    for name in ("integrate", "integrate_adaptive"):
        def spy(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    mod.integrate_any(lib("geometry").euclidean_plane(), lib("geometry").VectorFieldSpec.zero(),
                      mod.GeodesicState(0.0, 0.0, 0.0, 1.0, 0.0),
                      mod.IntegratorSettings(method=method, h=0.1, t1=0.5))
    assert calls == {stepper: 1}
