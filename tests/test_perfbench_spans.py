"""The benchmark's tracer wraps sentireg functions by name from outside
`src/` (perfbench/spans.py). A traced name that no longer exists would
only show up as a failed benchmark run, so check every one here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"sentireg.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sentireg.{layer}.{name}"
