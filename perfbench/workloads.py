"""Seeded inputs, request lists and output checks for the three workloads.

Each workload is a fixed list of ``qwk`` requests.  The numbers inside the
spec and family files come from the workload seed; the request sizes (n, J,
L, grid, budget) do not, so every seed asks for the same amount of work and
the timings of two seeds are comparable.

Why each workload exists, and which modules it loads or leaves idle:

``rates``
    Only ``qwk capacity``: the solver's grid and refine loops on classical,
    cq and quantum-family formulas.  Nothing here calls typicality,
    wiretapsim or entgen, so a change to those modules should leave every
    ``rates`` number unchanged.
``codes``
    Only ``qwk simulate``: typical-set enumeration, the joint-typicality and
    pretty-good decoders, exact and Monte-Carlo error, exact leakage, and
    dense qcore validation of word states.  Two requests hit the resource
    caps and must exit 5; their time is what a user waits for a refusal.
``audit``
    The quantum-side commands ``entangle``, ``verify`` and ``net``.  They use
    typicality as many small-n projectors rather than large-n word
    enumeration, plus the tau-net lattice scan and CPTP projection.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("rates", "codes", "audit")

# Exit codes of ``qwk`` (see qwk.cli).
EXIT_OK = 0
EXIT_CAP = 5

_WORKLOAD_TAG = {"rates": 1, "codes": 2, "audit": 3}


# ---------------------------------------------------------------------------
# channel objects in the spec-file schema


def _cmat(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _stochastic(rows) -> dict:
    rows = [list(map(float, r)) for r in rows]
    return {"kind": "stochastic", "input_alphabet": list(range(len(rows))),
            "output_alphabet": list(range(len(rows[0]))), "matrix": rows}


def _bsc(p: float) -> dict:
    return _stochastic([[1 - p, p], [p, 1 - p]])


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _qubit_state(u: np.ndarray, top: float, angle: float) -> np.ndarray:
    """State with eigenvalues (top, 1 - top) in the basis u·R(angle)."""
    c, s = math.cos(angle), math.sin(angle)
    v = u @ np.array([[c, -s], [s, c]])
    rho = v @ np.diag([top, 1 - top]) @ v.conj().T
    return (rho + rho.conj().T) / 2


def _cq(rng: np.random.Generator, top: float, angle: float) -> dict:
    """Qubit cq channel in a seed-random basis.  The spectra and the angle
    between the two states are fixed, so every Holevo quantity the solvers
    and decoders see, and with it their iteration counts, is the same for
    every seed; only the basis, and so every matrix entry, changes."""
    u = _random_unitary(rng, 2)
    return {"kind": "cq", "input_alphabet": [0, 1], "dim": 2,
            "states": {"0": _cmat(_qubit_state(u, top, 0.0)),
                       "1": _cmat(_qubit_state(u, top, angle))}}


def _rotation(angle: float) -> dict:
    c, s = math.cos(angle), math.sin(angle)
    return {"kind": "kraus", "dim_in": 2, "dim_out": 2, "operators": [_cmat([[c, -s], [s, c]])]}


def _spec(variant: str, pairs) -> dict:
    theta = []
    for i, (w, v) in enumerate(pairs):
        entry = {"t": f"t{i + 1}", "W": w}
        if v is not None:
            entry["V"] = v
        theta.append(entry)
    return {"variant": variant, "theta": theta}


def _degraded_bsc_pair(rng: np.random.Generator) -> tuple[float, float]:
    """Crossovers (p_legit, p_wire) with p_legit < p_wire < 1/2, so the
    wiretapper's BSC is a degraded version of the legitimate one.  The
    ranges are narrow so that the solver's refine loops, which stop on
    convergence, do about the same work for every seed."""
    return float(rng.uniform(0.08, 0.10)), float(rng.uniform(0.28, 0.30))


def _h(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


IDENTITY_FAMILY = {"variant": "quantum", "theta": [{"t": "t1", "W": _rotation(0.0)}]}


# ---------------------------------------------------------------------------
# request lists


def _req(rid: str, cmd: str, argv: list, expect: int = EXIT_OK, check: str | None = None,
         **check_args) -> dict:
    return {"id": rid, "cmd": cmd, "argv": argv, "expect": expect, "check": check,
            "check_args": check_args}


def make_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's spec and family files into ``directory`` and
    return its plan: the timed requests and the untimed defect probe.

    The same (workload, seed) always writes the same files and plan.
    """
    if workload not in _WORKLOAD_TAG:
        raise KeyError(workload)
    rng = np.random.default_rng([seed, _WORKLOAD_TAG[workload]])
    files = {}

    def put(name: str, obj: dict) -> str:
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        files[name] = path
        return path

    put("identity_family", IDENTITY_FAMILY)
    reqs = []
    if workload == "rates":
        pl, pw = _degraded_bsc_pair(rng)
        put("bsc_pair", _spec("classical", [(_bsc(pl), _bsc(pw))]))
        pairs2 = [_degraded_bsc_pair(rng) for _ in range(2)]
        put("bsc_two_state", _spec("classical", [(_bsc(a), _bsc(b)) for a, b in pairs2]))
        put("qwiretap", _spec("classical-quantum-wiretap",
                              [(_bsc(_degraded_bsc_pair(rng)[0]), _cq(rng, 0.7, 0.9))]))
        put("cq_pair", _spec("cq", [(_cq(rng, 0.95, 1.2), _cq(rng, 0.8, 0.9))]))
        angle = float(rng.uniform(0.05, 0.3))
        put("rotation_family", {"variant": "quantum",
                                "theta": [{"t": "t1", "W": _rotation(0.0)},
                                          {"t": "t2", "W": _rotation(angle)}]})
        cap = ["capacity", "--formula"]
        # Below the solver's defaults (grid 16, 8 restarts) so that a pass
        # takes about 6 s instead of 15 s (2-vCPU Xeon virtual machine) and
        # a run holds several passes, over which each request's time is a
        # median.  On seeds 1-3 the reported rates equal the defaults'.
        small = ["--grid", "8", "--restarts", "2"]
        reqs = [
            _req("b1", "capacity", cap + ["b1", "--spec", files["bsc_pair"], "--grid", "64",
                                          "--refine", "50"],
                 check="b1_degraded", expected=_h(pw) - _h(pl)),
            _req("b1prime", "capacity",
                 cap + ["b1prime", "--spec", files["bsc_two_state"]] + small,
                 check="rate"),
            _req("CSIcap", "capacity",
                 cap + ["CSIcap", "--spec", files["qwiretap"], "--n", "2"] + small,
                 check="rate"),
            _req("noCSIcap", "capacity",
                 cap + ["noCSIcap", "--spec", files["qwiretap"]] + small,
                 check="rate"),
            _req("e1q", "capacity",
                 cap + ["e1q", "--spec", files["cq_pair"], "--n", "2"] + small,
                 check="rate"),
            _req("qnocsie1q", "capacity", cap + ["qnocsie1q", "--spec", files["cq_pair"],
                                                 "--n", "1"] + small,
                 check="rate"),
            _req("entheorem", "capacity", cap + ["entheorem", "--spec",
                                                 files["rotation_family"]] + small,
                 check="rate"),
            _req("propo1", "capacity", cap + ["propo1", "--spec", files["identity_family"],
                                              "--n", "2"] + small,
                 check="propo1_identity"),
        ]
    elif workload == "codes":
        two = [_degraded_bsc_pair(rng) for _ in range(2)]
        put("bsc_two_state", _spec("classical", [(_bsc(a), _bsc(b)) for a, b in two]))
        put("qubit_wiretap", _spec("classical-quantum-wiretap",
                                   [(_bsc(_degraded_bsc_pair(rng)[0]), _cq(rng, 0.7, 0.9))]))
        e, s = rng.uniform(0.09, 0.11), rng.uniform(0.03, 0.035)
        put("ternary", _spec("classical", [(_stochastic([[1 - e - s, e, s], [s, e, 1 - e - s]]),
                                            _bsc(_degraded_bsc_pair(rng)[1]))]))
        put("cq_pair", _spec("cq", [(_cq(rng, 0.95, 1.2), _cq(rng, 0.8, 0.9))]))
        pl, pw = _degraded_bsc_pair(rng)
        put("bsc_pair", _spec("classical", [(_bsc(pl), _bsc(pw))]))
        code_seed = str(int(rng.integers(1, 10_000)))
        sim = ["simulate", "--seed", code_seed, "--spec"]
        # Sizes are a step below the largest that finish in a few seconds
        # (on a 2-vCPU Xeon virtual machine cq leakage at n=10 takes 8 s,
        # refusals with 2000 trials 4-5 s), so that a pass takes about 8 s
        # and a run holds several passes.  The refused
        # requests keep the n at which the caps refuse; fewer Monte-Carlo
        # trials shorten the error estimate they run before the refusal.
        reqs = [
            _req("classical_exact_n12", "simulate",
                 sim + [files["bsc_two_state"], "--n", "12", "--J", "4", "--L", "2"],
                 check="simulate"),
            _req("cq_wiretap_n9", "simulate",
                 sim + [files["qubit_wiretap"], "--n", "9", "--J", "4", "--L", "2"],
                 check="simulate"),
            _req("ternary_mc_n8", "simulate",
                 sim + [files["ternary"], "--n", "8", "--J", "4", "--L", "2", "--trials", "500"],
                 check="simulate"),
            _req("cq_pgm_n8", "simulate",
                 sim + [files["cq_pair"], "--n", "8", "--J", "4", "--L", "2", "--delta", "0.1"],
                 check="simulate"),
            _req("auto_L_n8", "simulate", sim + [files["bsc_pair"], "--n", "8", "--L", "auto"],
                 check="simulate"),
            _req("refused_cq_n15", "simulate",
                 sim + [files["qubit_wiretap"], "--n", "15", "--J", "4", "--L", "2",
                        "--trials", "250"],
                 expect=EXIT_CAP),
            _req("refused_classical_n14", "simulate",
                 sim + [files["bsc_pair"], "--n", "14", "--J", "4", "--L", "2",
                        "--trials", "250"],
                 expect=EXIT_CAP),
        ]
    else:
        angles = rng.uniform(0.05, 0.3, size=2)
        for k, a in enumerate(angles):
            put(f"rotation_family{k}", {"variant": "quantum",
                                        "theta": [{"t": "t1", "W": _rotation(0.0)},
                                                  {"t": "t2", "W": _rotation(float(a))}]})
        ent_seed = str(int(rng.integers(1, 10_000)))
        ent = ["entangle", "--seed", ent_seed, "--family"]
        # Sizes are a step below the largest that finish in a few seconds
        # (on a 2-vCPU Xeon virtual machine net budget 24 takes 9 s,
        # entangle at n=5 J=4 3 s), so that a pass takes about 7 s and a
        # run holds several passes.
        reqs = [
            _req("entangle_rot_n4_J4", "entangle",
                 ent + [files["rotation_family0"], "--n", "4", "--J", "4", "--L", "2"],
                 check="entangle"),
            _req("entangle_rot_n5_J2", "entangle",
                 ent + [files["rotation_family1"], "--n", "5", "--J", "2", "--L", "2"],
                 check="entangle"),
            _req("entangle_identity_n4_J8", "entangle",
                 ent + [files["identity_family"], "--n", "4", "--J", "8", "--L", "2"],
                 check="entangle_identity"),
            _req("verify_all_jobs2", "verify", ["--jobs", "2", "verify", "all"],
                 check="verify"),
            _req("net_tau0.5_b22", "net", ["net", "--tau", "0.5", "--budget", "22"],
                 check="net", budget=22),
        ]
    # Known defect: the PGM decoder builds its projectors with TypicalParams'
    # delta of 0.1, so a codebook drawn with simulate's default --delta 0.25
    # holds words it calls atypical and the request exits 3.  The probe
    # expects exit 0 and is counted as a failed operation until that is fixed.
    probe_spec = put("probe_cq", _spec("cq", [(_cq(rng, 0.95, 1.2), _cq(rng, 0.8, 0.9))]))
    probe = _req("probe_cq_default_delta", "simulate",
                 ["simulate", "--seed", "1", "--spec", probe_spec, "--n", "6", "--J", "2",
                  "--L", "2"], check="simulate")
    return {"workload": workload, "seed": seed, "requests": reqs, "probe": probe}


# ---------------------------------------------------------------------------
# output checks: each returns None when the payload is right, else a reason

_TOL = 1e-9


def _check_rate(payload, args):
    v = payload["value"]
    if not (math.isfinite(v) and v >= 0):
        return f"rate {v} is not a finite non-negative number"
    return None


def _check_b1_degraded(payload, args):
    v, want = payload["value"], args["expected"]
    if abs(v - want) > 1e-3:
        return f"b1 {v} differs from h(p_wire)-h(p_legit) = {want} by more than 1e-3"
    return None


def _check_propo1_identity(payload, args):
    v = payload["value"]
    if abs(v - 1.0) > 1e-6:
        return f"propo1 on the identity family is {v}, not 1"
    return None


def _check_simulate(payload, args):
    log2_j = payload["leakage"]["stats"]["log2_J"]
    for name, row in payload["error"]["per_t"].items():
        for e in [row["max_error"], *row["per_j"]]:
            if not -_TOL <= e <= 1 + _TOL:
                return f"error {e} of state {name} is outside [0, 1]"
    for name, row in payload["leakage"]["per_t"].items():
        if not -_TOL <= row["leakage"] <= log2_j + _TOL:
            return f"leakage {row['leakage']} of state {name} is outside [0, log2 J]"
    return None


def _check_entangle(payload, args):
    f = payload["min_fidelity"]
    if not -_TOL <= f <= 1 + _TOL:
        return f"fidelity {f} is outside [0, 1]"
    return None


def _check_entangle_identity(payload, args):
    f = payload["min_fidelity"]
    if f < 1 - 1e-9:
        return f"identity-family fidelity {f} is below 1 - 1e-9"
    return None


def _check_verify(payload, args):
    if payload["n_fail"] != 0:
        return f"verify reports {payload['n_fail']} failed checks"
    return None


def _check_net(payload, args):
    if payload["n_elements"] != args["budget"]:
        return f"net has {payload['n_elements']} elements, budget {args['budget']}"
    return None


CHECKS = {
    "rate": _check_rate,
    "b1_degraded": _check_b1_degraded,
    "propo1_identity": _check_propo1_identity,
    "simulate": _check_simulate,
    "entangle": _check_entangle,
    "entangle_identity": _check_entangle_identity,
    "verify": _check_verify,
    "net": _check_net,
}


def check(request: dict, rc, payload: dict | None) -> str | None:
    """Reason the request's outcome is wrong, or None when it is right."""
    if rc != request["expect"]:
        return f"exit code {rc}, expected {request['expect']}"
    if request["check"] is None:
        return None
    if payload is None:
        return "no report written"
    try:
        return CHECKS[request["check"]](payload, request["check_args"])
    except (KeyError, TypeError) as exc:
        return f"report lacks a field the check reads: {exc!r}"
