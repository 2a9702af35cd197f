"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with its measured value and runtime."""

import json
import os
import time

import numpy as np
import pytest

from qwk.capacity import SolverConfig, classical_csi_capacity, classical_nocsi_lower, qwiretap_csi_capacity
from qwk.channels import (
    CQChannel,
    ClassicalChannel,
    CompoundWiretapSpec,
    bsc,
    classical_to_cq,
    complementary_channel,
    identity_kraus,
    kraus_equivalent,
)
from qwk.cli import canonical_payload_bytes, main as cli_main
from qwk.entgen import build_entgen_code, run_full_audit
from qwk.infotheory import binary_entropy, coherent_information, von_neumann_entropy
from qwk.qcore import DensityOperator, random_density
from qwk.typicality import (
    TypicalParams,
    averaged_output_projector,
    conditional_typical_projector,
    averaged_trace_checks,
    typical_projector,
)
from qwk.verify import suite_fannes, suite_gentle
from qwk.wiretapsim import Codebook, build_decoder, covering_concentration, eval_error

SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")
Q = 2


def spec_path(name):
    return os.path.join(SPECS, name)


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPT] criterion {num}: {status} ({detail}; {elapsed:.1f}s < {budget}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_degraded_bsc(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "cap.json"
    rc = cli_main(["capacity", "--formula", "b1", "--spec", spec_path("bsc_pair.json"),
                   "--grid", "64", "--refine", "50", "--seed", "0", "--out", str(out)])
    value = json.loads(out.read_text())["payload"]["value"]
    expect = binary_entropy(0.3) - binary_entropy(0.1)
    elapsed = time.monotonic() - t0
    ok = rc == 0 and abs(value - expect) <= 1e-3 and abs(expect - 0.412295) < 1e-6
    report(1, ok, f"value={value:.6f} vs {expect:.6f}", elapsed, 10)


def test_criterion_2_classical_embedding():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    cfg = SolverConfig(grid_resolution=16, refine_iters=15, restarts=2, seed=0)
    worst = 0.0
    for _ in range(5):
        w = bsc(rng.uniform(0.05, 0.45))
        v_rows = rng.dirichlet([2, 2], size=2)
        v = ClassicalChannel((0, 1), (0, 1), v_rows)
        cspec = CompoundWiretapSpec("classical", ("t1",), (w,), (v,))
        qspec = CompoundWiretapSpec(
            "classical-quantum-wiretap", ("t1",), (w,), (classical_to_cq(v),)
        )
        r_c = classical_csi_capacity(cspec, cfg)
        r_q = qwiretap_csi_capacity(qspec, cfg)
        worst = max(worst, abs(r_c.value - r_q.value))
    elapsed = time.monotonic() - t0
    report(2, worst <= 1e-6, f"max gap {worst:.2e}", elapsed, 30)


def test_criterion_3_typicality_bounds():
    t0 = time.monotonic()
    rng = np.random.default_rng(33)
    states = [DensityOperator(np.diag([0.7, 0.3]))]
    states += [random_density(Q, rng) for _ in range(10)]
    second = np.diag([0.4, 0.6]).astype(complex)
    violations = 0
    checks = 0
    for rho in states:
        v = CQChannel((0, 1), Q, {0: rho.matrix, 1: second})
        for n in (4, 6, 8, 10):
            word = tuple(i % 2 for i in range(n))
            for alpha in (0.5, 1.0, 2.0):
                params = TypicalParams(n=n, alpha=alpha)
                for c in typical_projector(rho, params).checks:
                    checks += 1
                    violations += not c.passed
                for c in conditional_typical_projector(v, word, [0.5, 0.5], params).checks:
                    checks += 1
                    violations += not c.passed
                avg = averaged_output_projector([0.5, 0.5], v, params)
                c7 = averaged_trace_checks([avg], v, word, [params])[0]
                checks += 1
                violations += not c7.passed
    elapsed = time.monotonic() - t0
    report(3, violations == 0, f"{checks} bound checks, {violations} violations", elapsed, 60)


def test_criterion_4_gentle_and_fannes():
    t0 = time.monotonic()
    gentle = suite_gentle(seed=4, count=1000)
    fannes = suite_fannes(seed=4, count=1000)
    bad = sum(1 for r in gentle + fannes if not r["pass"])
    elapsed = time.monotonic() - t0
    report(4, bad == 0, f"{len(gentle) + len(fannes)} instances, {bad} violations", elapsed, 30)


def test_criterion_5_covering_concentration():
    t0 = time.monotonic()

    def rotated(theta):
        c, s = np.cos(theta), np.sin(theta)
        u = np.array([[c, -s], [s, c]])
        return u @ np.diag([0.8, 0.2]) @ u.T

    v = CQChannel((0, 1), Q, {0: rotated(0.0), 1: rotated(0.35)})
    rep = covering_concentration(
        v, [0.5, 0.5], 4, [1, 4, 16, 64], trials=500, seed=11,
        params=TypicalParams(n=4, delta=0.3),
    )
    meds = [rep.stats["per_L"][l]["median"] for l in (1, 4, 16, 64)]
    ok = all(b < a for a, b in zip(meds, meds[1:]))
    elapsed = time.monotonic() - t0
    report(5, ok, "medians " + " > ".join(f"{m:.4f}" for m in meds), elapsed, 120)


def test_criterion_6_conversions_and_complementary():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    worst_channel = 0.0
    worst_ic = 0.0
    for _ in range(100):
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        q, _ = np.linalg.qr(g)
        chan = None
        from qwk.channels import KrausChannel

        chan = KrausChannel(Q, Q, [q[0:2, :], q[2:4, :]])
        back = KrausChannel.from_isometry(Q, Q, 2, chan.isometry)
        rho = random_density(Q, rng)
        worst_channel = max(
            worst_channel,
            float(np.max(np.abs(chan.apply_matrix(rho.matrix) - back.apply_matrix(rho.matrix)))),
        )
        comp = complementary_channel(back)
        gap = abs(
            von_neumann_entropy(chan.apply_matrix(rho.matrix))
            - von_neumann_entropy(comp.apply_matrix(rho.matrix))
            - coherent_information(rho, chan)
        )
        worst_ic = max(worst_ic, gap)
    elapsed = time.monotonic() - t0
    ok = worst_channel <= 1e-10 and worst_ic <= 1e-8
    report(6, ok, f"output gap {worst_channel:.1e}, identity gap {worst_ic:.1e}", elapsed, 60)


def test_criterion_7_entanglement_protocol():
    t0 = time.monotonic()
    p1 = TypicalParams(n=1, delta=0.5, alpha=2.0)
    p2 = TypicalParams(n=2, delta=0.5, alpha=2.0)
    fids = {}
    for J, n, params in ((2, 1, p1), (4, 2, p2)):
        code = build_entgen_code([identity_kraus()], [0.5, 0.5], n, J, 1, 5, params)
        fids[J] = run_full_audit(code).min_fidelity
    theta = 0.1
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    from qwk.channels import KrausChannel

    fam = [identity_kraus(), KrausChannel(Q, Q, [u])]
    code = build_entgen_code(fam, [0.5, 0.5], 2, 2, 2, 3, p2)
    audit = run_full_audit(code)
    ok = all(f >= 1 - 1e-9 for f in fids.values()) and audit.bound_satisfied
    elapsed = time.monotonic() - t0
    report(
        7, ok,
        f"identity J=2: {fids[2]:.12f}, J=4: {fids[4]:.12f}; "
        f"two-channel fid {audit.min_fidelity:.4f} >= bound {audit.bound_rhs:.4f}",
        elapsed, 120,
    )


def test_criterion_8_structure_properties():
    t0 = time.monotonic()
    cfg = SolverConfig(grid_resolution=16, refine_iters=15, restarts=2, seed=0)
    tol = 1e-9
    single = json.load(open(spec_path("bsc_pair.json")))
    from qwk.cli import parse_spec

    spec1 = parse_spec(single)
    spec2 = parse_spec(json.load(open(spec_path("bsc_two_state.json"))))
    specdup = CompoundWiretapSpec(
        "classical", ("t1", "t2"), spec1.legitimate * 2, spec1.wiretap * 2
    )
    checks = []
    # theta-monotonicity
    checks.append(
        classical_csi_capacity(spec2, cfg).value
        <= classical_csi_capacity(spec1, cfg).value + tol
    )
    # singleton / duplicate reductions
    checks.append(
        abs(classical_csi_capacity(specdup, cfg).value - classical_csi_capacity(spec1, cfg).value)
        <= tol
    )
    checks.append(
        abs(classical_nocsi_lower(specdup, cfg).value - classical_nocsi_lower(spec1, cfg).value)
        <= 1e-6
    )
    # ordering
    for spec in (spec1, spec2):
        checks.append(
            classical_nocsi_lower(spec, cfg).value
            <= classical_csi_capacity(spec, cfg).value + 1e-6
        )
    # aux monotonicity
    vals = []
    for aux in (1, 2, 3):
        c = SolverConfig(aux_card=aux, grid_resolution=16, refine_iters=10, restarts=1, seed=0)
        vals.append(classical_csi_capacity(spec1, c).value)
    checks.append(vals[0] <= vals[1] + tol <= vals[2] + 2 * tol)
    elapsed = time.monotonic() - t0
    report(8, all(checks), f"{sum(checks)}/{len(checks)} structure checks", elapsed, 60)


def test_criterion_9_exact_vs_monte_carlo():
    t0 = time.monotonic()
    spec = CompoundWiretapSpec("classical", ("t1",), (bsc(0.1),), (bsc(0.3),))
    words = np.array([[0] * 12, [1] * 12]).reshape(2, 1, 12)
    cb = Codebook(words, 2, 1, 12, {"seed": 9})
    dec = build_decoder(spec, cb, delta=0.15)
    exact = eval_error(spec, cb, dec, trials=1, seed=0).per_t["t1"]
    assert exact["method"] == "exact"
    from qwk.wiretapsim import _mc_classical_error

    mc = _mc_classical_error(spec.legitimate[0], cb, dec, 2000, 9, 0)
    se = max(mc["stderr"], 1e-4)
    gap = abs(exact["max_error"] - mc["max_error"])
    elapsed = time.monotonic() - t0
    report(9, gap <= 3 * se, f"|{exact['max_error']:.4f} - {mc['max_error']:.4f}| <= 3*{se:.4f}", elapsed, 60)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    commands = [
        ["capacity", "--formula", "b1", "--spec", spec_path("bsc_pair.json"),
         "--grid", "8", "--refine", "5", "--restarts", "1", "--seed", "1"],
        ["simulate", "--spec", spec_path("bsc_pair.json"), "--n", "6", "--J", "2",
         "--L", "1", "--trials", "100", "--seed", "3"],
        ["net", "--tau", "1.0", "--budget", "2"],
        ["entangle", "--family", spec_path("identity_family.json"), "--n", "1",
         "--J", "2", "--seed", "5"],
    ]
    ok = True
    for i, cmd in enumerate(commands):
        out1 = tmp_path / f"a{i}.json"
        rc1 = cli_main(cmd + ["--out", str(out1)])
        manifest = json.loads(out1.read_text())["manifest"]
        argv = list(manifest["argv"])
        out2 = tmp_path / f"b{i}.json"
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(out2)
        else:
            argv += ["--out", str(out2)]
        rc2 = cli_main(argv)
        p1 = json.loads(out1.read_text())["payload"]
        p2 = json.loads(out2.read_text())["payload"]
        same = canonical_payload_bytes(p1) == canonical_payload_bytes(p2)
        ok = ok and rc1 == 0 and rc2 == 0 and same
    elapsed = time.monotonic() - t0
    report(10, ok, f"{len(commands)} commands re-run from manifests", elapsed, 120)


def test_criterion_11_net_budget_100(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "net.json"
    rc = cli_main(["net", "--tau", "0.5", "--budget", "100", "--out", str(out)])
    n_elements = json.loads(out.read_text())["payload"]["n_elements"]
    elapsed = time.monotonic() - t0
    report(11, rc == 0 and n_elements == 100, f"{n_elements} net elements", elapsed, 10)
