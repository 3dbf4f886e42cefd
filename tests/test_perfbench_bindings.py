"""The benchmark's span tracer rebinds library names from outside the
library (perfbench/spans.py); a renamed or dropped import would break only
the traced benchmark run, so every binding it lists is checked here."""

import importlib.util
from pathlib import Path


def test_span_bindings_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.BINDINGS
        # the tracer reads a class attribute from the class's own __dict__
        if not (attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert spans.BINDINGS and not missing, missing
