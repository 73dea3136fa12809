"""The traced benchmark run wraps library functions by name; each name it
lists must still exist, or ``bench/run.py --trace 1`` fails to install."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_names_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{name}"
        for mod in spans.MODULES
        for name in spans.TRACED[mod]
        if not callable(getattr(importlib.import_module(f"gaussdec.{mod}"), name, None))
    ]
    assert not missing
    assert len(spans.TRACED_NAMES) == 23
