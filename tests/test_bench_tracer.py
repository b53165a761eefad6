"""The benchmark's span tracer still finds every function it wraps.

``perfbench/spans.py`` patches bbcq functions by module attribute. A rename
under ``src/`` would otherwise only surface in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    spans = _load_spans()
    targets = spans.traced_targets(spans.Tracer())
    wrapped = [(module, attr, replacement)
               for module, attr, replacement in targets
               if attr != "ThreadPoolExecutor"]
    assert wrapped
    for module, attr, replacement in wrapped:
        assert replacement.__wrapped__ is getattr(module, attr), \
            f"{module.__name__}.{attr}"
