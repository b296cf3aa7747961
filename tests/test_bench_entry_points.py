"""The benchmark's tracer wraps ndview entry points by name.

perfbench/spans.py lists them in ENTRY_POINTS; a name that stops resolving
would fail only in traced benchmark runs, so this test checks every one.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_entry_point_resolves():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    for module_name, names in spans.ENTRY_POINTS.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{module_name} no longer defines {missing}"
