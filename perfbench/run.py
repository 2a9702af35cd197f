"""qwk benchmark: one client in a closed loop over the qwk CLI.

Run from the root of a qwk checkout:

    python3 perfbench/run.py --workload rates --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, as a table

A pass runs the workload's requests one after another through
``qwk.cli.main(argv)`` in a fresh child process, then one untimed probe of a
known defect.  Passes repeat until the next one would take the passes'
summed time past ``--seconds``; there is always at least one.  Inputs are
spec and family files generated from ``--seed`` (see workloads.py).

``--trace 0`` prints the end-to-end metrics: medians over the passes.
``--trace 1`` runs one untraced and one traced pass and prints the per-layer
metrics of the traced pass, the tracing overhead, and whether both passes
produced the same payload digests.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORK_DIR = ".perfbench_work"
# The machine's speed drifts over seconds, so set-up is sampled several times
# before the first pass and once after every pass, and setup_s is the median
# of all samples.
SETUP_SAMPLES = 3
PASS_TIMEOUT_S = 170
# Every pass's child gets this address-space cap, so a request that would
# need more memory fails as one operation instead of exhausting the machine.
ADDRESS_SPACE_BYTES = 3 * 2 ** 30
# Single-threaded BLAS: the matrices are small, and one thread keeps the
# timings of a 2-core machine steady.  Recorded in every result.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMANDS = ("capacity", "simulate", "entangle", "verify", "net")

END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB", "failed_ops": "share"}


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = src
    env.pop("QWK_CAP_DIM", None)  # the dimension cap stays at its default
    return env


def measure_setup(env: dict, samples: int) -> list[float]:
    """Seconds for a fresh interpreter to import qwk.cli, ``samples`` times."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in 50 ms sleeps, which
        # would round every sample up to that grain
        subprocess.run([sys.executable, "-c", "import qwk.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(plan: dict, run_dir: str, index: int, env: dict, trace: bool) -> dict:
    pass_dir = os.path.join(run_dir, f"pass{index}")
    os.makedirs(pass_dir)
    child_plan = dict(plan, dir=pass_dir, trace=trace, src=env["PYTHONPATH"],
                      address_space_bytes=ADDRESS_SPACE_BYTES,
                      spans_out=os.path.join(WORK_DIR, f"spans-{plan['workload']}-"
                                                       f"seed{plan['seed']}.jsonl"))
    plan_path = os.path.join(pass_dir, "plan.json")
    result_path = os.path.join(pass_dir, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(child_plan, fh)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path],
                          env=env, timeout=PASS_TIMEOUT_S, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"pass child exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["elapsed_s"] = elapsed
    timed = [r for r in result["requests"] if not r["probe"]]
    result["wall_s"] = sum(r["seconds"] for r in timed)
    result["wall_ref_s"] = sum(r["ref_seconds"] for r in timed)
    result["per_command_s"] = command_times(timed)
    return result


def command_times(rows: list[dict]) -> dict:
    """Summed seconds per command; refused (exit 5) requests count apart."""
    out = {}
    for r in rows:
        key = "refused" if r["rc"] == workloads.EXIT_CAP else r["cmd"]
        out[f"{key}_s"] = out.get(f"{key}_s", 0.0) + r["seconds"]
    return out


def _digests(result: dict) -> list:
    return [(r["id"], r["sha256"]) for r in result["requests"]]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (final result line, detail record)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        src = os.path.abspath("src")
        env = _child_env(src)
        plan = workloads.make_inputs(workload, seed, run_dir)
        passes, setup = [], []
        if trace:
            passes.append(run_pass(plan, run_dir, 0, env, trace=False))
            traced = run_pass(plan, run_dir, 1, env, trace=True)
        else:
            setup += measure_setup(env, SETUP_SAMPLES)
            busy = 0.0
            while True:
                passes.append(run_pass(plan, run_dir, len(passes), env, trace=False))
                setup += measure_setup(env, 1)
                busy += passes[-1]["elapsed_s"]
                if busy + passes[-1]["elapsed_s"] > seconds:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rows = [r for p in passes + ([traced] if trace else []) for r in p["requests"]]
    timed = [r for r in rows if not r["probe"]]
    attempted, failed = len(timed), sum(1 for r in timed if not r["ok"])
    consistent = all(_digests(p) == _digests(passes[0]) for p in passes)
    per_command = {k: statistics.median(p["per_command_s"][k] for p in passes)
                   for k in passes[0]["per_command_s"]}
    detail = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV,
        "address_space_bytes": ADDRESS_SPACE_BYTES,
        "setup_samples_s": setup,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "speed": statistics.median(r["speed"] for r in timed),
        "per_command_s": per_command,
        "digests_consistent": consistent,
        "requests": [{k: r[k] for k in ("id", "rc", "seconds", "ref_seconds", "ok", "reason",
                                        "sha256", "probe")} for r in passes[0]["requests"]],
    }
    if trace:
        consistent = consistent and _digests(traced) == _digests(passes[0])
        metrics = dict(traced["layers"])
        # at the reference speed, so that the host's speed changes between
        # the two passes do not show as overhead
        metrics["trace.overhead_s"] = traced["wall_ref_s"] - passes[0]["wall_ref_s"]
        metrics["trace.digests_equal"] = int(_digests(traced) == _digests(passes[0]))
        for cmd in (*COMMANDS, "refused"):
            metrics[f"cmd.{cmd}_s"] = per_command.get(f"{cmd}_s", 0.0)
        units = {k: _layer_unit(k) for k in metrics}
    else:
        per_request = {}
        for r in timed:
            per_request.setdefault(r["id"], []).append(r["ref_seconds"])
        metrics = {
            "setup_s": statistics.median(setup),
            # each request at the reference speed, its median over the passes, summed
            "wall_ref_s": sum(statistics.median(v) for v in per_request.values()),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "failed_ops": sum(1 for r in rows if not r["ok"]) / len(rows),
        }
        units = END_TO_END_UNITS
    line = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return line, detail


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", ".jobs_overlap")):
        return "ratio"
    if name == "trace.digests_equal":
        return "flag"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qwk", "cli.py")):
        print("perfbench: run from the root of a qwk checkout (src/qwk/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        line, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"detail": detail}))
        print(json.dumps(line))
        return 0
    lines = {}
    for w in workloads.WORKLOADS:
        line, detail = run_workload(w, args.seed, args.seconds, bool(args.trace))
        lines[w] = line
        print(f"== {w}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}")
        for name, m in line["metrics"].items():
            print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
        if not args.trace:
            for name, v in detail["per_command_s"].items():
                print(f"  {name:<52} {v:>14.6g} s")
        for r in detail["requests"]:
            status = "ok" if r["ok"] else f"FAIL ({r['reason']})"
            print(f"    {r['id']:<28} rc={r['rc']} {r['seconds']:8.3f} s  {status}")
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
