"""Every qwk function that the benchmark's per-layer tracer wraps still exists.

``perfbench/tracer.py`` is loaded by path and not modified.  Its ``install``
raises RuntimeError on a name that qwk no longer has, which would otherwise
show only when ``python perfbench/run.py --trace 1`` runs.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves_in_qwk():
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = []
    for _, module, attr in tracer.TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
