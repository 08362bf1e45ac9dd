"""Print the size of the library: its line total, settable values and scenario keys.

The line total is that of ``src/aesa_chain/*.py`` (as ``wc -l`` counts it).
The settable values are the parameters of the public functions plus the
fields of the dataclasses that the ``geometry``, ``scene``, ``beamform``,
``detect``, ``rdproc`` and ``isar`` modules define; names that start with an
underscore, and names a module imports from elsewhere, are not counted.
The scenario keys are the leaves of ``config._SCHEMA``, a list of sections
counting the keys of one section.

Usage::

    PYTHONPATH=src python scripts/surface.py
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "aesa_chain"
MODULES = ("geometry", "scene", "beamform", "detect", "rdproc", "isar")


def line_total() -> int:
    return sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))


def settable_values() -> tuple:
    """(public function parameters, dataclass fields) over ``MODULES``."""
    params = fields = 0
    for name in MODULES:
        module = importlib.import_module(f"aesa_chain.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                params += len(inspect.signature(obj).parameters)
            elif dataclasses.is_dataclass(obj):
                fields += len(dataclasses.fields(obj))
    return params, fields


def scenario_keys(node=None) -> int:
    """Leaves of the scenario schema ``config._SCHEMA``, or of one of its nodes."""
    if node is None:
        node = importlib.import_module("aesa_chain.config")._SCHEMA
    if isinstance(node, dict):
        return sum(scenario_keys(child) for child in node.values())
    if isinstance(node, list):
        return scenario_keys(node[0])
    return 1


if __name__ == "__main__":
    params, fields = settable_values()
    print(f"src/aesa_chain/*.py: {line_total()} lines")
    print(f"settable values: {params + fields} "
          f"({params} public function parameters, {fields} dataclass fields)")
    print(f"scenario keys: {scenario_keys()} (config._SCHEMA leaves)")
