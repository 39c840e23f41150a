"""The benchmark tracer (perfbench/tracer.py) rebinds package functions by
name; a rename or deletion must show up here, not as a broken `--trace 1`."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for home, names in tracer.TARGETS.items():
        mod = importlib.import_module(f"hardyheat.{home}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"hardyheat.{home}.{name}"
