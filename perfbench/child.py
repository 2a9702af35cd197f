"""One pass of a workload, in a fresh interpreter.

Usage: python3 child.py PLAN.json RESULT.json

Reads the plan written by run.py, caps the address space, runs every timed
request through ``qwk.cli.main(argv)`` one after another, then the untimed
defect probe, checks each report and writes the outcome to RESULT.json.
Every request is timed twice over: its wall time, and its time at the
reference speed from speed.py's samples.
With ``"trace": true`` in the plan, wrappers from tracer.py record a span
around every call into the traced public functions of qwk; the spans go to
the plan's ``spans_out`` file and the per-layer metrics into the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys


def _payload(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)["payload"]
    except (OSError, ValueError, KeyError):
        return None


def _digest(payload) -> str | None:
    if payload is None:
        return None
    return hashlib.sha256(json.dumps(payload, sort_keys=True, indent=1).encode()).hexdigest()


def _run_request(main, req: dict, out: str, tracer, rid, sampler) -> dict:
    argv = list(req["argv"]) + ["--out", out]
    if os.path.exists(out):
        os.remove(out)
    error = None
    if tracer is not None:
        tracer.begin_request(rid)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        sampler.start()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an unexpected crash is a failed operation
            rc, error = None, f"{type(exc).__name__}: {exc}"
        timing = sampler.stop()
    if tracer is not None:
        tracer.end_request()
    return {"rc": rc, "error": error, **timing}


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    limit = int(plan["address_space_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, plan["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed
    import workloads
    from qwk import cli

    tracer = None
    if plan["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    sampler = speed.Sampler()
    rows = []
    for i, req in enumerate(plan["requests"] + [plan["probe"]]):
        probe = i == len(plan["requests"])
        out = os.path.join(plan["dir"], f"report{i}.json")
        # the probe is untimed and untraced: it only tracks a known defect
        row = _run_request(cli.main, req, out, None if probe else tracer, i, sampler)
        payload = _payload(out) if row["error"] is None else None
        reason = row["error"] or workloads.check(req, row["rc"], payload)
        row.update(id=req["id"], cmd=req["cmd"], probe=probe, sha256=_digest(payload),
                   ok=reason is None, reason=reason)
        rows.append(row)

    result = {
        "requests": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        timed = [r for r in rows if not r["probe"]]
        result["layers"] = tracer.layer_metrics(timed)
        tracer.write_spans(plan["spans_out"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
