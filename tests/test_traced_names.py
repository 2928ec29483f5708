"""Every per-layer metric that BENCHMARK.json names still reads a function,
a method or a layer of the package.

The benchmark's tracer wraps a layer module's own public functions and the
methods a class defines itself, and ``perfbench/layers.py::metric`` raises
on a name it cannot read.  So deleting or renaming a traced function would
otherwise fail only a traced benchmark run.  The benchmark's own op spans
(``runner.<subcommand>``), its overhead (``trace.overhead_s``), its derived
metrics and its hook counters name nothing in the package and are exempt.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
OWN = ("runner", "trace")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  REPO / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers()
NAMES = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]]
TRACED = [n for n in NAMES if n.split(".")[0] not in OWN
          and n not in LAYERS.DERIVED and n not in LAYERS.COUNTERS]


def _owners(key: str) -> list:
    """The package objects that a tracer key names: a layer module, a space
    class by its ``kind`` (``spaces.<kind>``), or a function or method
    defined in the key's module, as the tracer finds them."""
    short, *rest = key.split(".")
    module = importlib.import_module(f"catqm.{short}")
    if not rest:
        return [module]
    if short == "spaces":
        owners = [cls for cls in vars(module).values()
                  if inspect.isclass(cls) and vars(cls).get("kind") == rest[0]]
        rest = rest[1:]
    else:
        owners = [module]
    for part in rest:
        owners = [vars(o)[part] for o in owners if part in vars(o)]
    if rest:
        owners = [o for o in owners
                  if inspect.isfunction(o) and o.__module__ == module.__name__]
    return owners


@pytest.mark.parametrize("name", TRACED)
def test_every_traced_metric_names_package_code(name):
    key, _, field = name.rpartition(".")
    assert field in LAYERS.FIELDS
    assert _owners(key) != [], f"{name}: nothing in catqm defines {key}"


def test_the_exemptions_leave_the_package_names():
    assert len(TRACED) > 50
    assert {"rank_one.half_flat_control.s", "spaces.tree.segment_distance.calls",
            "contraction.projection_diameter_under_ball.calls"} <= set(TRACED)
