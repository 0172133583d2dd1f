"""The benchmark's traced pass wraps lzl entry points by module and name.

``perfbench/spans.py`` looks each one up with ``getattr``; a rename in the
package would otherwise surface only when the benchmark runs with
``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_entry_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(SPANS.parent))  # spans.py imports jobs
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.LAYERS.values()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert spans.LAYERS and not missing
