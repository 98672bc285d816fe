"""The benchmark tracer wraps library names by string; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.SURFACE.items():
        module = importlib.import_module(f"linesift.{layer}")
        for qualname in names:
            if "." in qualname:
                cls_name, method = qualname.split(".")
                assert method in vars(getattr(module, cls_name)), f"{layer}.{qualname}"
            else:
                assert callable(getattr(module, qualname, None)), f"{layer}.{qualname}"
