"""The benchmark's tracer wraps library functions by name; each name must still resolve.

`perfbench/spans.py` is loaded from its path (no bytecode is written there)
and only its WRAPPED table is read. A renamed or removed function, or a
method that is no longer a plain function or classmethod in its class's own
`__dict__`, would make every traced benchmark round fail.
"""

import importlib
import importlib.util
import pathlib
import sys
import types

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_name_resolves(spans):
    assert spans.WRAPPED
    for module, path, _ in spans.WRAPPED:
        assert module in spans.MODULES
        owner = importlib.import_module(f"hierclust.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            assert isinstance(cls, type), path
            assert attr in cls.__dict__, f"{module}.{path} is not defined on the class itself"
            raw = cls.__dict__[attr]
            assert isinstance(raw, (types.FunctionType, classmethod)), f"{module}.{path}"
        else:
            fn = getattr(owner, path, None)
            assert isinstance(fn, types.FunctionType), f"{module}.{path}"
