"""The package's public surface."""

import importlib
import importlib.util
from pathlib import Path

import ppmbqc


def test_every_exported_name_resolves():
    assert len(set(ppmbqc.__all__)) == len(ppmbqc.__all__)
    for name in ppmbqc.__all__:
        assert getattr(ppmbqc, name) is not None, name


def test_every_traced_name_resolves():
    # bench/tracer.py wraps these names by module and attribute; a name that
    # disappears breaks `bench/run.py --trace 1`.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _group, _hook in tracer.TARGETS:
        owner = importlib.import_module(f"ppmbqc.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"ppmbqc.{module}.{attr}"
        assert callable(owner), f"ppmbqc.{module}.{attr}"
