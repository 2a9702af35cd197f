"""Command-line front end.

Subcommands: ``capacity``, ``simulate``, ``net``, ``entangle``, ``verify``.
Every output file embeds a run manifest (command line, inputs, seed,
version, wall-clock timestamp, seconds elapsed since ``main`` started)
next to the numeric payload; payloads are canonical JSON (sorted keys,
floats at 12 significant digits) so re-running a manifest reproduces
byte-identical numbers.

Exit codes: 0 success, 2 input schema error (also a spec whose channel
kinds do not match its variant), 3 semantic mismatch (also a ``verify`` run
with a failed check), 4 invalid flag value, 5 resource cap exceeded
(``simulate`` decides every cap before it samples a codebook).

Channel-object schema (shared by all spec files): a JSON object tagged by
"kind" in {stochastic, cq, kraus, stinespring}; complex numbers are
[re, im] pairs; compound specs put the pairs under "theta" as
[{"t": name, "W": channel, "V": channel}, ...] plus a top-level "variant".
State names are distinct.  A quantum spec's entries take no "V" (the
environment is the dilation's); ``entangle --family`` reads a quantum spec,
and every ``capacity`` formula reads ``--spec``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .capacity import FORMULAS, SolverConfig, SolverError
from .channels import (
    ChannelError,
    ClassicalChannel,
    CompoundWiretapSpec,
    CQChannel,
    KrausChannel,
    build_tau_net,
)
from .entgen import build_entgen_code, run_full_audit
from .qcore import CapExceededError, QcoreError
from .typicality import TypicalParams
from .wiretapsim import (
    build_decoder,
    eval_error,
    eval_leakage,
    leakage_dims,
    plan_simulation,
    sample_codebook,
    sizes_from_rates,
)

EXIT_SCHEMA = 2
EXIT_SEMANTIC = 3
EXIT_FLAG = 4
EXIT_CAP = 5


class SchemaError(ValueError):
    pass


class FlagError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON channel schema


def _complex_matrix(rows) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad complex matrix: {exc}")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SchemaError("complex matrices are rows of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _encode_complex_matrix(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def parse_channel(obj: dict):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("channel object must carry a 'kind' tag")
    kind = obj["kind"]
    try:
        if kind == "stochastic":
            return ClassicalChannel(obj["input_alphabet"], obj["output_alphabet"], obj["matrix"])
        if kind == "cq":
            dim = int(obj["dim"])
            alphabet = obj["input_alphabet"]
            states = {}
            for x in alphabet:
                key = str(x)
                if key not in obj["states"]:
                    raise SchemaError(f"missing state for symbol {key}")
                states[x] = _complex_matrix(obj["states"][key])
            return CQChannel(tuple(alphabet), dim, states)
        if kind in ("kraus", "stinespring"):
            d_in, d_out = int(obj["dim_in"]), int(obj["dim_out"])
            if kind == "kraus":
                return KrausChannel(d_in, d_out, [_complex_matrix(o) for o in obj["operators"]])
            env_dim, isometry = int(obj["dim_env"]), _complex_matrix(obj["isometry"])
            return KrausChannel.from_isometry(d_in, d_out, env_dim, isometry)
    except KeyError as exc:
        raise SchemaError(f"channel object missing field {exc}")
    except (TypeError, ValueError) as exc:  # ChannelError and QcoreError included
        raise SchemaError(str(exc))
    raise SchemaError(f"unknown channel kind {kind!r}")


def parse_spec(obj: dict) -> CompoundWiretapSpec:
    if not isinstance(obj, dict):
        raise SchemaError("spec must be a JSON object")
    for key in ("variant", "theta"):
        if key not in obj:
            raise SchemaError(f"spec missing field {key!r}")
    if not isinstance(obj["theta"], list):
        raise SchemaError("theta must be a list of state entries")
    quantum = obj["variant"] == "quantum"
    names, legit, wire = [], [], []
    for entry in obj["theta"]:
        if not isinstance(entry, dict) or "t" not in entry or "W" not in entry:
            raise SchemaError("theta entries need fields 't' and 'W'")
        names.append(str(entry["t"]))
        legit.append(parse_channel(entry["W"]))
        if quantum and "V" in entry:
            raise SchemaError("quantum entries take no 'V': the environment is the dilation's")
        if not quantum and "V" not in entry:
            raise SchemaError("non-quantum variants need a wiretap channel per state")
        wire.append(legit[-1] if quantum else parse_channel(entry["V"]))
    try:
        return CompoundWiretapSpec(obj["variant"], names, legit, wire)
    except ChannelError as exc:
        raise SchemaError(str(exc))


def load_spec(path: str) -> CompoundWiretapSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise SchemaError(f"cannot read spec {path}: {exc}")
    return parse_spec(obj)


def load_family(path: str):
    """The channels of a quantum spec file, in the order of its states."""
    spec = load_spec(path)
    if spec.variant != "quantum":
        raise SchemaError(f"a family file needs variant 'quantum', not {spec.variant!r}")
    return spec.legitimate


# ---------------------------------------------------------------------------
# canonical output


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_payload_bytes(payload: dict) -> bytes:
    return json.dumps(_canonical(payload), sort_keys=True, indent=1).encode()


def write_report(path: str | None, manifest: dict, payload: dict) -> dict:
    doc = {
        "manifest": _canonical(manifest),
        "payload": _canonical(payload),
    }
    text = json.dumps(doc, sort_keys=True, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return doc


def _manifest(args, command: str, extra: dict | None = None) -> dict:
    man = {
        "command": command,
        "argv": list(getattr(args, "_argv", sys.argv[1:])),
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "wallclock_s": time.time(),
        "elapsed_s": time.perf_counter() - args._t0,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    if extra:
        man.update(extra)
    return man


# ---------------------------------------------------------------------------
# subcommands


def cmd_capacity(args) -> int:
    _require_min(0, seed=args.seed, restarts=args.restarts, refine=args.refine)
    _require_min(1, n=args.n, **{"aux-card": args.aux_card})
    _require_min(2, grid=args.grid)
    spec = load_spec(args.spec)
    formula = args.formula.lower().replace("'", "prime")
    cfg = SolverConfig(
        n=args.n,
        aux_card=args.aux_card,
        grid_resolution=args.grid,
        refine_iters=args.refine,
        restarts=args.restarts,
        seed=args.seed if args.seed is not None else 0,
    )
    if formula not in FORMULAS:
        raise FlagError(f"unknown formula {args.formula!r}")
    report = FORMULAS[formula](spec, cfg)
    payload = report.to_json_dict()
    extra = {"spec": args.spec, "formula": args.formula, "solver": report.solver}
    write_report(args.out, _manifest(args, "capacity", extra), payload)
    if args.csv:
        _write_csv(args.csv, [{"t": t, **row} for t, row in payload["per_t"].items()])
    return 0


def _write_csv(path: str, rows: list[dict]) -> None:
    """One row per state, headed by the first row's keys; csv quotes any
    field that holds a comma, quote or line break."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _require_min(low: int, *, strict: bool = False, **flags) -> None:
    """Refuse a flag below ``low`` (at or below it when ``strict``), or NaN,
    before any work; an unset flag (None) passes."""
    for name, val in flags.items():
        if val is not None and not (val > low if strict else val >= low):
            raise FlagError(f"--{name} must be {'>' if strict else '>='} {low}")


def cmd_simulate(args) -> int:
    if args.seed is None:
        raise FlagError("simulate requires --seed (no hidden entropy)")
    _require_min(0, seed=args.seed)
    _require_min(1, trials=args.trials)
    if args.L == "auto":
        l_val = None
    else:
        try:
            l_val = int(args.L)
        except ValueError:
            raise FlagError("--L must be an integer or 'auto'")
    _require_min(1, n=args.n, J=args.J, L=l_val)
    _require_min(0, strict=True, delta=args.delta, **{"decode-delta": args.decode_delta})
    for name, val in (("rate-margin", args.rate_margin), ("leak-margin", args.leak_margin)):
        if not np.isfinite(val):
            raise FlagError(f"--{name} must be finite")
    spec = load_spec(args.spec)
    if spec.variant == "quantum":
        raise SolverError("simulate needs classical-input channels, not variant 'quantum'")
    a = len(spec.legitimate[0].input_alphabet)
    p = np.full(a, 1.0 / a)
    if l_val is None:
        j_auto, l_per_t, degenerate = sizes_from_rates(spec, p, args.n, rate_margin=args.rate_margin, leak_margin=args.leak_margin)
        l_val = max(l_per_t.values())
        j_val = args.J if args.J is not None else j_auto
        sizes_note = {"auto": True, "L_per_t": l_per_t, "degenerate": degenerate}
    else:
        j_val = args.J if args.J is not None else 2
        sizes_note = {"auto": False}
    # every cap is decided before any sampling; a refusal costs no work
    plan = plan_simulation(spec, args.n, j_val, l_val)
    codebook = sample_codebook(p, args.n, j_val, l_val, args.seed, delta=args.delta)
    decoder = build_decoder(spec, codebook, delta=args.decode_delta, t_index=0)
    err = eval_error(spec, codebook, decoder, trials=args.trials, seed=args.seed)
    leak = eval_leakage(spec, codebook)
    payload = {
        "error": err.to_json_dict(),
        "leakage": leak.to_json_dict(),
        "sizes": sizes_note,
    }
    extra = {"spec": args.spec, "plan": plan, "leakage_dims": leakage_dims(spec, codebook)}
    write_report(args.out, _manifest(args, "simulate", extra), payload)
    if args.csv:
        _write_csv(args.csv, [{"t": name, "max_error": err.per_t[name]["max_error"],
                               "leakage": leak.per_t[name]["leakage"]} for name in err.per_t])
    return 0


def cmd_net(args) -> int:
    _require_min(1, budget=args.budget, **{"d-in": args.d_in, "d-out": args.d_out})
    _require_min(0, strict=True, tau=args.tau)
    net = build_tau_net(args.d_in, args.d_out, args.tau, args.budget)
    payload = {
        "tau": args.tau,
        "d_in": args.d_in,
        "d_out": args.d_out,
        "cardinality_bound": net.cardinality_bound,
        "n_elements": len(net.elements),
        "budget": args.budget,
        "elements": [
            {"operators": [_encode_complex_matrix(a) for a in e.kraus_ops]}
            for e in net.elements
        ],
    }
    lattice = {
        "offsets_projected": net.offsets_projected,
        "duplicates_dropped": net.duplicates_dropped,
        "last_shell": net.last_shell,
    }
    if net.short_reason is not None:
        lattice["short"] = {"budget": args.budget, "reason": net.short_reason}
        print(f"net: {len(net.elements)} of {args.budget} elements ({net.short_reason})",
              file=sys.stderr)
    write_report(args.out, _manifest(args, "net", {"net": lattice}), payload)
    return 0


def cmd_entangle(args) -> int:
    if args.seed is None:
        raise FlagError("entangle requires --seed (no hidden entropy)")
    _require_min(0, seed=args.seed)
    _require_min(1, n=args.n, J=args.J, L=args.L)
    _require_min(0, strict=True, delta=args.delta, alpha=args.alpha)
    family = load_family(args.family)
    params = TypicalParams(n=args.n, delta=args.delta, alpha=args.alpha)
    dp = family[0].d_in
    p = np.full(dp, 1.0 / dp)
    code = build_entgen_code(family, p, args.n, args.J, args.L, args.seed, params)
    audit = run_full_audit(code)
    notes = {**code.notes, "bound_vacuous": audit.bound_rhs <= 0}
    extra = {"family": args.family, "entangle": notes}
    write_report(args.out, _manifest(args, "entangle", extra), audit.to_json_dict())
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    try:
        records = run_suite(args.suite)
    except KeyError:
        raise FlagError(f"unknown suite {args.suite!r}")
    n_fail = sum(1 for r in records if not r["pass"])
    payload = {"suite": args.suite, "n_checks": len(records), "n_fail": n_fail, "records": records}
    write_report(args.out, _manifest(args, "verify"), payload)
    width = max(len(r["bound_id"]) for r in records)
    lines = [f"{r['bound_id']:<{width}}  lhs={r['lhs']:.6g}  rhs={r['rhs']:.6g}  "
             f"{'pass' if r['pass'] else 'FAIL'}" for r in records]
    lines.append(f"{args.suite}: {len(records) - n_fail}/{len(records)} checks passed")
    sys.stderr.write("\n".join(lines) + "\n")
    return EXIT_SEMANTIC if n_fail else 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qwk", description="compound wiretap channel toolkit")
    ap.add_argument("--jobs", type=int, default=1,
                    help="accepted and ignored: verify runs its suites in order")
    sub = ap.add_subparsers(dest="cmd", required=True)

    cap = sub.add_parser("capacity", help="evaluate a capacity formula on a spec file")
    cap.add_argument("--formula", required=True)
    cap.add_argument("--spec", required=True)
    cap.add_argument("--n", type=int, default=1)
    cap.add_argument("--aux-card", dest="aux_card", type=int, default=None)
    cap.add_argument("--grid", type=int, default=16)
    cap.add_argument("--refine", type=int, default=40)
    cap.add_argument("--restarts", type=int, default=8)
    cap.add_argument("--seed", type=int, default=0)
    cap.add_argument("--out", default=None)
    cap.add_argument("--csv", default=None)
    cap.set_defaults(func=cmd_capacity)

    sim = sub.add_parser("simulate", help="codebook error and leakage simulation")
    sim.add_argument("--spec", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--J", type=int, default=None)
    sim.add_argument("--L", default="1", help="randomization depth or 'auto'")
    sim.add_argument("--trials", type=int, default=2000)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--delta", type=float, default=0.25, help="codeword typicality slack")
    sim.add_argument("--decode-delta", dest="decode_delta", type=float, default=0.25)
    sim.add_argument("--rate-margin", dest="rate_margin", type=float, default=0.25)
    sim.add_argument("--leak-margin", dest="leak_margin", type=float, default=0.0)
    sim.add_argument("--out", default=None)
    sim.add_argument("--csv", default=None)
    sim.set_defaults(func=cmd_simulate)

    net = sub.add_parser("net", help="build a finite channel net")
    net.add_argument("--d-in", dest="d_in", type=int, default=2)
    net.add_argument("--d-out", dest="d_out", type=int, default=2)
    net.add_argument("--tau", type=float, required=True)
    net.add_argument("--budget", type=int, required=True)
    net.add_argument("--out", default=None)
    net.set_defaults(func=cmd_net)

    ent = sub.add_parser("entangle", help="entanglement-generation protocol audit")
    ent.add_argument("--family", required=True)
    ent.add_argument("--n", type=int, default=1)
    ent.add_argument("--J", type=int, default=2)
    ent.add_argument("--L", type=int, default=1)
    ent.add_argument("--seed", type=int, default=None)
    ent.add_argument("--delta", type=float, default=0.5)
    ent.add_argument("--alpha", type=float, default=2.0)
    ent.add_argument("--out", default=None)
    ent.set_defaults(func=cmd_entangle)

    ver = sub.add_parser("verify", help="run a named bound suite")
    ver.add_argument("suite")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    t0 = time.perf_counter()
    ap = build_parser()
    effective = list(argv) if argv is not None else sys.argv[1:]
    args = ap.parse_args(effective)
    args._argv = effective
    args._t0 = t0
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (SolverError,) as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except FlagError as exc:
        print(f"bad flag value: {exc}", file=sys.stderr)
        return EXIT_FLAG
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ChannelError, QcoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
