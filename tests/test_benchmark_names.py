"""The benchmark harness wraps library functions by name: every name its
tracer lists must stay a callable of `levysobolev`, or a traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    # tracer.py imports only the standard library; load it by path
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_is_a_library_callable():
    from levysobolev import measures, symbols
    missing = [f"{module}.{attr}" for module, attr, _ in _tracer().TARGETS
               if not callable(getattr(importlib.import_module(f"levysobolev.{module}"),
                                       attr, None))]
    assert missing == []
    assert callable(measures.quad) and callable(symbols.Symbol.__call__)
