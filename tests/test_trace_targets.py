"""Every function the benchmark's tracer wraps still exists in the package.

``perfbench/tracer.py`` rebinds the callables named in its ``TARGETS`` by
module and attribute path; a rename or deletion in the package would make
``--trace 1`` fail.  The tracer is loaded from its file, not changed.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_targets", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = trace_targets()


@pytest.mark.parametrize("label, modname, path", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(label, modname, path):
    owner = importlib.import_module(modname)
    if "." in path:
        # methods are looked up in the class's own namespace, as the tracer does
        cls_name, attr = path.split(".")
        owner, path = vars(owner)[cls_name], attr
    assert callable(vars(owner)[path])
