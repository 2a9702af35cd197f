"""Every qwk function that the benchmark's per-layer tracer wraps still exists,
and a traced benchmark pass runs.

``perfbench/tracer.py`` is loaded by path and not modified.  Its ``install``
raises RuntimeError on a name that qwk no longer has, which would otherwise
show only when ``python perfbench/run.py --trace 1`` runs.  The traced runs
also catch what the name check cannot: an attribute the tracer's notes read
off a traced call's arguments or result, and a traced pass whose payload
digests differ from the untraced one.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


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


@pytest.mark.parametrize("workload", ["rates", "codes", "audit"])
def test_traced_pass_matches_the_untraced_one(workload):
    # rates and audit build quantum channels, codes builds cq channels from
    # spec files; about 2 s each
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["trace.digests_equal"]["value"] == 1
    if workload == "audit":
        # a stage no longer called through its module-level name would read 0
        idle = [st for st in load_tracer().ENTGEN_STAGES
                if result["metrics"][f"entgen.{st}_s"]["value"] <= 0]
        assert idle == []
