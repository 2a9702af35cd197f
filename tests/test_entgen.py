import copy
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwk.channels import (
    KrausChannel,
    cq_word_state,
    depolarizing_kraus,
    identity_kraus,
    n_fold,
)
from qwk.cli import load_family
from qwk.entgen import (
    EntgenCode,
    _evolve,
    _induced_cq,
    build_decoder_unitaries,
    build_entgen_code,
    compute_uhlmann_partners,
    final_bound,
    measured_epsilon,
    phase_align,
    run_full_audit,
)
from qwk.qcore import QcoreError, pgm_inverse_sqrt, psd_sqrt, random_density
from qwk.typicality import TypicalParams, sandwiched_outputs

Q = 2
SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")

PARAMS1 = TypicalParams(n=1, delta=0.5, alpha=2.0)
PARAMS2 = TypicalParams(n=2, delta=0.5, alpha=2.0)


def rotated_channel(theta):
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )
    return KrausChannel(Q, Q, [u])


def build_pipeline(family, n, J, L, seed, params):
    return build_entgen_code(family, [0.5, 0.5], n=n, J=J, L=L, seed=seed, params=params)


def apply_on_axes(vec: np.ndarray, dims: list[int], op: np.ndarray, targets: list[int]):
    """Apply ``op`` to the given tensor factors of a state vector.

    ``op`` may be rectangular; the target axes are replaced by a single
    output axis at the position of the first target.  Returns the new
    vector and the new dims list.
    """
    n = len(dims)
    rest = [i for i in range(n) if i not in targets]
    perm = list(targets) + rest
    dt = int(np.prod([dims[i] for i in targets]))
    dr = int(np.prod([dims[i] for i in rest]))
    mat = vec.reshape(dims).transpose(perm).reshape(dt, dr)
    out = op @ mat
    d_new = op.shape[0]
    new_dims_perm = [d_new] + [dims[i] for i in rest]
    first = targets[0]
    # invert the permutation for the merged layout
    order = np.argsort(np.argsort([first] + rest))
    out_t = out.reshape(new_dims_perm).transpose(order)
    new_dims = [d_new if i == first else dims[i] for i in range(n)
                if i == first or i not in targets]
    return out_t.reshape(-1), new_dims


def vector_partial_density(vec: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Reduced density matrix of a pure state on the kept axes."""
    rest = [i for i in range(len(dims)) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    mat = vec.reshape(dims).transpose(list(keep) + rest).reshape(dk, -1)
    return mat @ mat.conj().T


class TestTensorHelpers:
    def test_apply_on_middle_axis(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out, dims = apply_on_axes(v, [2, 3, 2], op, [1])
        expect = np.kron(np.kron(np.eye(2), op), np.eye(2)) @ v
        assert np.allclose(out, expect)
        assert dims == [2, 3, 2]

    def test_apply_on_two_axes(self):
        # non-contiguous targets merge into one axis at the first target slot
        rng = np.random.default_rng(1)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out, dims = apply_on_axes(v, [2, 2, 2], op, [0, 2])
        t = v.reshape(2, 2, 2).transpose(0, 2, 1).reshape(4, 2)
        expect = (op @ t).reshape(-1)  # layout [(0,2) merged, 1]
        assert np.allclose(out, expect)
        assert dims == [4, 2]

    def test_partial_density(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        rho = vector_partial_density(v, [2, 2, 2], [0])
        full = np.outer(v, v.conj()).reshape(2, 4, 2, 4)
        expect = np.trace(full, axis1=1, axis2=3)
        assert np.allclose(rho, expect)


class TestBuildCode:
    def test_identity_family_measurement_is_exact(self):
        code = build_entgen_code([identity_kraus()], [0.5, 0.5], 1, 2, 1, 5, PARAMS1)
        assert code.detect_prob.min() == pytest.approx(1.0, abs=1e-10)
        assert code.env_spread.max() == pytest.approx(0.0, abs=1e-12)

    def test_povm_sums_below_identity(self):
        fam = [rotated_channel(0.0), rotated_channel(0.25)]
        code = build_entgen_code(fam, [0.5, 0.5], 2, 2, 2, 3, PARAMS2)
        total = code.povm.sum(axis=(0, 1, 2))
        assert np.min(np.linalg.eigvalsh(np.eye(4) - total)) > -1e-9

    def test_measurement_unitary_is_unitary(self):
        fam = [depolarizing_kraus(0.1)]
        code = build_entgen_code(fam, [0.5, 0.5], 2, 2, 1, 3, PARAMS2)
        u = code.v_unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) < 1e-8

    def test_povm_past_identity_is_shrunk(self, monkeypatch):
        import qwk.qcore

        # a normaliser 1e-6 too large pushes the PGM sum past the identity
        monkeypatch.setattr(qwk.qcore, "pgm_inverse_sqrt",
                            lambda total: pgm_inverse_sqrt(total) * (1 + 1e-6))
        fam = [rotated_channel(0.0), rotated_channel(0.3)]
        code = build_entgen_code(fam, [0.5, 0.5], 2, 2, 2, 3, PARAMS2)
        assert np.linalg.eigvalsh(code.povm.sum(axis=(0, 1, 2)))[-1] <= 1 + 1e-12
        v = code.v_unitary
        assert np.max(np.abs(v.conj().T @ v - np.eye(code.Dq))) < 1e-10

    def test_single_message_trivial(self):
        code = build_pipeline([identity_kraus()], 1, 1, 1, 0, PARAMS1)
        audit = run_full_audit(code)
        assert audit.min_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_distinct_words(self):
        code = build_entgen_code([identity_kraus()], [0.5, 0.5], 2, 4, 1, 5, PARAMS2)
        flat = {tuple(w) for w in code.words.reshape(-1, 2)}
        assert len(flat) == 4

    def test_too_many_words_rejected(self):
        with pytest.raises(QcoreError):
            build_entgen_code([identity_kraus()], [0.5, 0.5], 1, 4, 4, 0, PARAMS1)


def amplitude_damping(gamma):
    return KrausChannel(Q, Q, [np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]]),
                               np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])])


def isometry_detect_prob(code):
    """Reference: tr(E_tjl rho) with rho the receiver's output of codeword
    (j, l), conjugated through state t's n-fold isometry."""
    ref = np.zeros((code.T, code.J, code.L))
    for t in range(code.T):
        for j in range(code.J):
            for l in range(code.L):
                v = code.codeword_vecs[j, l]
                out = code.blocks[t].apply_matrix(np.outer(v, v.conj()))
                ref[t, j, l] = np.trace(code.povm[t, j, l] @ out).real
    return ref


@pytest.mark.parametrize("fam", [
    [rotated_channel(0.0), rotated_channel(0.3)],
    [depolarizing_kraus(0.1), depolarizing_kraus(0.2)],
    [amplitude_damping(0.1), amplitude_damping(0.3)],
])
@pytest.mark.parametrize("n, J, L, seed", [(2, 2, 1, 1), (3, 2, 2, 3)])
def test_detect_prob_matches_the_isometry_reference(fam, n, J, L, seed):
    code = build_entgen_code(fam, [0.5, 0.5], n, J, L, seed, TypicalParams(n=n, delta=0.5))
    assert np.max(np.abs(code.detect_prob - isometry_detect_prob(code))) <= 1e-14


def full_product_partners(code):
    """Reference: the partners through the full measurement image
    v_unitary @ dilated, contracted with the one-hot record vector."""
    tp = code.T + 1
    partners = []
    partner_fid = np.zeros((code.T, code.J, code.L))
    for t, block in enumerate(code.blocks):
        de = block.env_dim
        zt = np.zeros((code.J, code.L, code.Dq * de), dtype=complex)
        for j in range(code.J):
            for l in range(code.L):
                dilated = block.dilate_vector(code.codeword_vecs[j, l])
                psi = (code.v_unitary @ dilated.reshape(code.Dq, de)).reshape(-1)
                record = np.zeros(code.J * code.L * tp, dtype=complex)
                record[(j * code.L + l) * tp + t] = 1.0
                mat = psi.reshape(code.Dq, code.J, code.L, tp, de).transpose(0, 4, 1, 2, 3)
                contracted = mat.reshape(code.Dq * de, -1) @ record.conj()
                norm = np.linalg.norm(contracted)
                if norm < 1e-15:
                    zt[j, l, 0] = 1.0
                else:
                    zt[j, l] = contracted / norm
                    partner_fid[t, j, l] = float(norm ** 2)
        partners.append(zt)
    return partners, partner_fid


class TestUhlmannPartners:
    @pytest.mark.parametrize("fam,de", [
        ([rotated_channel(0.0), rotated_channel(0.3)], [1, 1]),
        ([depolarizing_kraus(0.05), depolarizing_kraus(0.2)], [16, 16]),
    ])
    def test_partners_match_full_product_reference(self, fam, de):
        code = build_entgen_code(fam, [0.5, 0.5], 2, 2, 2, 3, PARAMS2)
        assert (code.T, code.L, code.de) == (2, 2, de)
        partners, partner_fid = full_product_partners(code)
        assert np.array_equal(code.partner_fid, partner_fid)
        for got, ref in zip(code.partners, partners):
            assert np.array_equal(got, ref)

    def test_annihilated_codeword_gets_zero_fidelity_fallback(self):
        code = build_entgen_code([depolarizing_kraus(0.1)], [0.5, 0.5], 2, 2, 2, 3, PARAMS2)
        v = code.v_unitary.copy()
        v.reshape(code.Dq, code.J, code.L, code.T + 1, code.Dq)[:, 1, 0, 0, :] = 0.0
        code.v_unitary = v
        code = compute_uhlmann_partners(code)
        e0 = np.zeros(code.Dq * code.de[0], dtype=complex)
        e0[0] = 1.0
        assert code.partner_fid[0, 1, 0] == 0.0
        assert np.array_equal(code.partners[0][1, 0], e0)
        assert np.count_nonzero(code.partner_fid) == code.partner_fid.size - 1

    def test_entangle_builds_each_block_channel_once(self, monkeypatch, tmp_path):
        import os

        import qwk.entgen
        from qwk.cli import main

        calls = []
        real = qwk.entgen.n_fold

        def counted(ch, n):
            calls.append(n)
            return real(ch, n)

        monkeypatch.setattr(qwk.entgen, "n_fold", counted)
        family = os.path.join(os.path.dirname(__file__), "..", "specs", "two_channel_family.json")
        rc = main(["entangle", "--family", family, "--n", "2", "--J", "2", "--L", "2",
                   "--seed", "1", "--out", str(tmp_path / "audit.json")])
        assert rc == 0
        assert calls == [2, 2]


class TestPhaseAlign:
    def test_single_state_real_positive(self):
        code = build_pipeline([identity_kraus()], 1, 2, 1, 5, PARAMS1)
        assert np.all(code.fourier_idx == 1)
        assert np.allclose(code.aligned_overlap.imag, 0.0, atol=1e-9)
        assert code.aligned_overlap.real.min() > 1 - 1e-9

    def test_l_one_forces_k_one(self):
        code = build_pipeline([depolarizing_kraus(0.1)], 2, 2, 1, 3, PARAMS2)
        assert np.all(code.fourier_idx == 1)

    @pytest.mark.parametrize("fam", [
        [KrausChannel(Q, Q, [np.diag([1.0, np.exp(0.7j)]) @ rotated_channel(0.3).kraus_ops[0]]),
         rotated_channel(1.1)],
        [depolarizing_kraus(0.05), depolarizing_kraus(0.2)],
    ])
    def test_overlaps_match_the_dilated_codeword_reference(self, fam):
        # <a_hat|W^dag y> = <W a_hat|y>: the reference dilates the encoder
        # superposition instead of pulling back through the adjoint, so a
        # complex isometry's conjugation shows
        code = build_entgen_code(fam, [0.5, 0.5], 2, 2, 2, 3, PARAMS2)
        tp, L = code.T + 1, code.L
        branches = code.v_unitary.reshape(code.Dq, code.J, L, tp, code.Dq)
        for j in range(code.J):
            phases = np.exp(2j * np.pi * np.arange(1, L + 1) * code.fourier_idx[j] / L)
            a_hat = (phases[:, None] * code.codeword_vecs[j]).sum(axis=0) / np.sqrt(L)
            for t, block in enumerate(code.blocks):
                dilated = block.dilate_vector(a_hat)
                ref = sum(phases[l] / np.sqrt(L) * np.vdot(dilated, (
                    branches[:, j, l, t, :].conj().T
                    @ code.partners[t][j, l].reshape(code.Dq, code.de[t])).reshape(-1))
                    for l in range(L))
                got = code.aligned_overlap[t, j] * np.exp(-1j * code.align_phase[j])
                assert abs(got - ref) <= 1e-12

    def test_planted_best_index_recovered(self):
        # synthetic: overlaps through a Fourier family peak at the planted k
        L = 4
        planted = 3
        l_idx = np.arange(1, L + 1)
        a = np.exp(2j * np.pi * l_idx * planted / L) / np.sqrt(L)
        best_k, best_val = None, -np.inf
        for k in range(1, L + 1):
            phases = np.exp(2j * np.pi * l_idx * k / L)
            val = abs(np.vdot(phases * a / np.sqrt(L), np.ones(L) / np.sqrt(L)))
            if val > best_val + 1e-12:
                best_k, best_val = k, val
        assert best_k == L - planted  # conjugate index cancels the plant


class TestDecoderUnitaries:
    def test_corrections_are_unitary(self):
        fam = [rotated_channel(0.0), rotated_channel(0.3)]
        code = build_pipeline(fam, 2, 2, 2, 3, PARAMS2)
        for u in [code.v_unitary] + code.corrections:
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) < 1e-8

    def test_ideal_case_wir2_is_one(self):
        code = build_pipeline([identity_kraus()], 1, 2, 1, 5, PARAMS1)
        assert code.correction_fid.min() == pytest.approx(1.0, abs=1e-9)

    def test_wir2_bound_from_premises(self):
        fam = [depolarizing_kraus(0.05)]
        code = build_pipeline(fam, 2, 2, 1, 3, PARAMS2)
        eps = measured_epsilon(code)
        assert code.correction_fid.min() >= 1 - 4 * eps - 4 * np.sqrt(eps) - 1e-9


class TestRunProtocol:
    def test_identity_family_j2(self):
        code = build_pipeline([identity_kraus()], 1, 2, 1, 5, PARAMS1)
        audit = run_full_audit(code)
        assert audit.min_fidelity >= 1 - 1e-9

    def test_identity_family_j4(self):
        code = build_pipeline([identity_kraus()], 2, 4, 1, 5, PARAMS2)
        audit = run_full_audit(code)
        assert audit.min_fidelity >= 1 - 1e-9

    def test_depolarizing_bound_holds(self):
        fam = [depolarizing_kraus(0.05)]
        code = build_pipeline(fam, 2, 2, 1, 3, PARAMS2)
        audit = run_full_audit(code)
        eps = audit.epsilon_measured
        assert audit.min_fidelity >= 1 - np.sqrt(8.0) * eps ** 0.25 - 1e-9

    def test_two_channel_family_bound_and_triangle(self):
        fam = [rotated_channel(0.0), rotated_channel(0.1)]
        code = build_pipeline(fam, 2, 2, 2, 3, PARAMS2)
        audit = run_full_audit(code)
        assert audit.bound_satisfied
        assert all(c["pass"] for c in audit.triangle_checks)
        assert 0.9 <= audit.min_fidelity <= 1.0

    def test_final_fidelity_never_below_bound(self):
        for fam, n, J, L, params in [
            ([identity_kraus()], 1, 2, 1, PARAMS1),
            ([depolarizing_kraus(0.2)], 1, 2, 1, PARAMS1),
            ([rotated_channel(0.0), rotated_channel(0.4)], 2, 2, 1, PARAMS2),
        ]:
            code = build_pipeline(fam, n, J, L, 7, params)
            audit = run_full_audit(code)
            assert audit.min_fidelity >= audit.bound_rhs - 1e-9

    def test_audit_reports_min_over_states(self):
        fam = [rotated_channel(0.0), rotated_channel(0.2)]
        code = build_pipeline(fam, 2, 2, 1, 3, PARAMS2)
        audit = run_full_audit(code)
        assert audit.min_fidelity == pytest.approx(
            min(audit.per_t_fidelity.values()), abs=1e-15
        )

    def test_epsilon_zero_bound_is_one(self):
        assert final_bound(0.0, 1) == pytest.approx(1.0)

    def test_determinism(self):
        fam = [depolarizing_kraus(0.1)]
        c1 = build_pipeline(fam, 2, 2, 1, 9, PARAMS2)
        c2 = build_pipeline(fam, 2, 2, 1, 9, PARAMS2)
        a1 = run_full_audit(c1)
        a2 = run_full_audit(c2)
        assert a1.to_json_dict() == a2.to_json_dict()


def gram_schmidt_measurement_unitary(povm, dq_n, J, L, T):
    """Reference: the coherent measurement built column by column and
    completed to a unitary by Gram-Schmidt over the standard basis."""
    tp = T + 1
    full = dq_n * J * L * tp
    leftover = np.eye(dq_n) - povm.sum(axis=(0, 1, 2))
    sqrts = np.zeros((T, J, L, dq_n, dq_n), dtype=complex)
    for t in range(T):
        for j in range(J):
            for l in range(L):
                sqrts[t, j, l] = psd_sqrt(povm[t, j, l])
    sqrt_left = psd_sqrt(leftover)

    def slot(q, m, l, t):
        return ((q * J + m) * L + l) * tp + t

    u = np.zeros((full, full), dtype=complex)
    for q in range(dq_n):
        col = np.zeros(full, dtype=complex)
        for t in range(T):
            for j in range(J):
                for l in range(L):
                    branch = sqrts[t, j, l][:, q]
                    for qo in range(dq_n):
                        col[slot(qo, j, l, t)] += branch[qo]
        for qo in range(dq_n):
            col[slot(qo, 0, 0, T)] += sqrt_left[qo, q]
        u[:, slot(q, 0, 0, 0)] = col
    chosen = [u[:, slot(q, 0, 0, 0)] for q in range(dq_n)]
    remaining = [(q, m, l, t) for q in range(dq_n) for m in range(J) for l in range(L)
                 for t in range(tp) if not (m == 0 and l == 0 and t == 0)]
    basis_iter = 0
    for dom in remaining:
        while True:
            cand = np.zeros(full, dtype=complex)
            cand[basis_iter % full] = 1.0
            basis_iter += 1
            for c in chosen:
                cand = cand - np.vdot(c, cand) * c
            nrm = np.linalg.norm(cand)
            if nrm > 1e-7:
                cand /= nrm
                break
            assert basis_iter <= 2 * full, "unitary completion failed"
        chosen.append(cand)
        u[:, slot(*dom)] = cand
    return u


class TestMeasurementIsometry:
    def test_isometry_columns_match_gram_schmidt_reference(self):
        fam = [rotated_channel(0.0), rotated_channel(0.3)]
        code = build_entgen_code(fam, [0.5, 0.5], 2, 2, 2, 3, PARAMS2)
        assert (code.T, code.L) == (2, 2)
        ref = gram_schmidt_measurement_unitary(code.povm, code.Dq, code.J, code.L, code.T)
        inputs = np.arange(code.Dq) * (code.J * code.L * (code.T + 1))
        assert np.array_equal(code.v_unitary, ref[:, inputs])


def stacked_stage_one(code, family, params, scale=1.0):
    """Reference: the former stage-1 forms.  Every sandwiched output in one
    stacked (T, J, L, Dq, Dq) array, the square-root measurement (its
    normaliser times ``scale``) and the shrink as stacked products, and
    detect_prob as one stacked trace."""
    J, L, D = code.J, code.L, code.Dq
    recs = [_induced_cq(ch) for ch in family]
    words = code.words.reshape(J * L, code.n)
    sand = np.stack([sandwiched_outputs(rec, words, [0.5, 0.5], params) for rec in recs])
    flat = sand.reshape(-1, D, D)
    inv_sqrt = pgm_inverse_sqrt(flat.sum(axis=0)) * scale
    povm = (inv_sqrt @ flat @ inv_sqrt).reshape(code.T, J, L, D, D)
    w, u = np.linalg.eigh(povm.sum(axis=(0, 1, 2)))
    if w[-1] > 1.0 + 1e-11:
        shrink = (u / np.sqrt(np.maximum(w, 1.0))) @ u.conj().T
        povm = shrink @ povm @ shrink
    outs = np.stack([cq_word_state(rec, code.words) for rec in recs])
    return povm, np.trace(povm @ outs, axis1=-2, axis2=-1).real


class TestStageOneAgainstStackedForms:
    # scale 1 + 1e-6 pushes the POVM past I, so the shrink runs too
    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-6])
    def test_povm_and_detect_prob_bit_for_bit(self, scale, monkeypatch):
        import qwk.qcore

        monkeypatch.setattr(qwk.qcore, "pgm_inverse_sqrt",
                            lambda total: pgm_inverse_sqrt(total) * scale)
        fam = load_family(os.path.join(SPECS, "two_channel_family.json"))
        params = TypicalParams(n=3, delta=0.5, alpha=2.0)
        code = build_entgen_code(fam, [0.5, 0.5], 3, 4, 2, 2, params)
        povm, detect_prob = stacked_stage_one(code, fam, params, scale)
        assert np.array_equal(code.povm, povm)
        assert np.array_equal(code.detect_prob, detect_prob)


def dense_protocol_reference(code, family, t_true):
    """Reference: the evolution on the full measurement unitary, with the
    ancillas appended in |0,0,0> and the theta-controlled correction as one
    dense matrix that acts as the identity on the fail slot.  Returns the
    final fidelity and the three f_* audit intermediates."""
    J, L, T, Dq, tp = code.J, code.L, code.T, code.Dq, code.T + 1
    de = code.de[t_true]
    w = n_fold(family[t_true], code.n).isometry
    psi = np.zeros(J * code.Dp, dtype=complex)
    for j in range(J):
        phases = np.exp(2j * np.pi * np.arange(1, L + 1) * code.fourier_idx[j] / L)
        for l in range(L):
            psi += phases[l] * np.kron(np.eye(J)[j], code.codeword_vecs[j, l])
    psi /= np.linalg.norm(psi)
    psi, _ = apply_on_axes(psi, [J, code.Dp], w, [1])
    anc = np.zeros(J * L * tp)
    anc[0] = 1.0
    psi = np.kron(psi, anc)
    dims = [J, Dq, de, J, L, tp]
    u = gram_schmidt_measurement_unitary(code.povm, Dq, J, L, T)
    big = np.zeros((Dq, J, L, tp, Dq, J, L, tp), dtype=complex)
    for t in range(T):
        big[:, :, :, t, :, :, :, t] = code.corrections[t].reshape(Dq, J, L, Dq, J, L)
    big[:, :, :, T, :, :, :, T] = np.eye(Dq * J * L).reshape(Dq, J, L, Dq, J, L)
    for op in (u, big.reshape(Dq * J * L * tp, -1)):
        psi, _ = apply_on_axes(psi, dims, op, [1, 3, 4, 5])
        psi = psi.reshape(J, Dq, J, L, tp, de).transpose(0, 1, 5, 2, 3, 4).reshape(-1)
    rho_am = vector_partial_density(psi, dims, [0, 3])
    target = np.eye(J).reshape(-1) / np.sqrt(J)
    fidelity = float(np.real(target @ rho_am @ target))
    mid1 = np.zeros_like(psi)
    mid2 = np.zeros_like(psi)
    for j in range(J):
        phases = np.exp(2j * np.pi * np.arange(1, L + 1) * code.fourier_idx[j] / L
                        + 1j * code.align_phase[j])
        branch_sum = np.stack([phases[l] * code.partners[t_true][j, l].reshape(Dq, de)
                               for l in range(L)], axis=-1) / np.sqrt(L)
        u_t = code.corrections[t_true].reshape(Dq, J, L, Dq, J, L)
        corrected = np.einsum("qmlQL,QeL->qmle", u_t[:, :, :, :, j, :], branch_sum)
        block1 = np.zeros(dims, dtype=complex)
        block1[j, :, :, :, :, t_true] = corrected.transpose(0, 3, 1, 2)
        mid1 += block1.reshape(-1) / np.sqrt(J)
        block2 = np.zeros(dims, dtype=complex)
        block2[j, :, :, j, :, t_true] = code.env_avg_pur[t_true].reshape(Dq, de, L)
        mid2 += block2.reshape(-1) / np.sqrt(J)
    mid1 /= np.linalg.norm(mid1)
    mid2 /= np.linalg.norm(mid2)

    def overlap(x, y):
        return abs(np.vdot(x, y)) ** 2

    return fidelity, {
        "f_decoded_vs_aligned": overlap(psi, mid1),
        "f_aligned_vs_target": overlap(mid1, mid2),
        "f_decoded_vs_target": overlap(psi, mid2),
    }


class TestProtocolRunAgainstDenseReference:
    def test_fidelity_and_intermediates_match(self):
        fam = [rotated_channel(0.0), rotated_channel(0.3)]
        code = build_pipeline(fam, 2, 2, 2, 3, PARAMS2)
        assert (code.T, code.L) == (2, 2)
        for t in range(code.T):
            got_fidelity, got_mids, _ = _evolve(code, t)
            fidelity, mids = dense_protocol_reference(code, fam, t)
            assert got_fidelity == pytest.approx(fidelity, abs=1e-12)
            for key, val in mids.items():
                assert got_mids[key] == pytest.approx(val, abs=1e-12)


STAGE_FIELDS = ("partners", "partner_fid", "fourier_idx", "align_phase", "aligned_overlap",
                "corrections", "correction_fid", "env_avg_pur")


class TestBuildRunsEveryStage:
    FAMILY = [rotated_channel(0.0), rotated_channel(0.3)]

    def test_build_returns_the_complete_code(self):
        code = build_pipeline(self.FAMILY, 2, 2, 2, 3, PARAMS2)
        assert all(getattr(code, name) is not None for name in STAGE_FIELDS)
        before = copy.deepcopy({name: getattr(code, name) for name in STAGE_FIELDS})
        build_decoder_unitaries(phase_align(compute_uhlmann_partners(code)))
        for name in STAGE_FIELDS:
            assert np.array_equal(np.asarray(getattr(code, name)), np.asarray(before[name])), name

    def test_full_audit_collects_every_state_evolution(self):
        code = build_pipeline(self.FAMILY, 2, 2, 2, 3, PARAMS2)
        audit = run_full_audit(code)
        runs = [_evolve(code, t) for t in range(code.T)]
        assert audit.per_t_fidelity == {str(t): fid for t, (fid, _, _) in enumerate(runs)}
        assert audit.triangle_checks == [triangle for _, _, triangle in runs]
        assert audit.intermediates.items() >= runs[0][1].items()


class TestEntgenProperties:
    @settings(max_examples=25, deadline=None)
    # nearly equal rotations: rounding in the PGM normaliser pushed the POVM
    # 1.4e-4 past I here before the sum was shrunk back
    @example(thetas=(0.0, 1.7782794100389227e-06), L=1, seed=0)
    @given(
        thetas=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, np.pi)),
        L=st.sampled_from([1, 2]),
        seed=st.integers(0, 50),
    )
    def test_isometry_and_bound_on_two_rotation_families(self, thetas, L, seed):
        fam = [rotated_channel(theta) for theta in thetas]
        code = build_pipeline(fam, 2, 2, L, seed, PARAMS2)
        v = code.v_unitary
        assert v.shape == (code.Dq * code.J * L * (code.T + 1), code.Dq)
        assert np.max(np.abs(v.conj().T @ v - np.eye(code.Dq))) < 1e-10
        audit = run_full_audit(code)
        assert audit.min_fidelity >= audit.bound_rhs - 1e-9
