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
    _env_avg_purification,
    _evolve,
    _fourier_phases,
    _induced_cq,
    _measurement_code,
    _sample_distinct_words,
    build_decoder_unitaries,
    build_entgen_code,
    compute_uhlmann_partners,
    final_bound,
    measured_epsilon,
    phase_align,
    run_full_audit,
)
from qwk.qcore import (
    QcoreError,
    accumulate_products,
    hermitian_eigensystem,
    pgm_inverse_sqrt,
    psd_sqrt,
    random_density,
    trace_norm,
)
from qwk.streams import counter_rng
from qwk.typicality import TypicalParams, sandwiched_outputs, truncated_typical

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


def codeword_vectors(code):
    """The former one-hot codeword vectors, (J, L, Dp), rebuilt from
    ``code.index``."""
    vecs = np.zeros((code.J, code.L, code.Dp), dtype=complex)
    for j, l in np.ndindex(code.J, code.L):
        vecs[j, l, code.index[j, l]] = 1.0
    return vecs


def dilated_halves(block, rho):
    """Receiver and environment outputs of ``block``: the two partial
    traces of U rho U*."""
    big = block.isometry @ rho @ block.isometry.conj().T
    big = big.reshape(block.d_out, block.env_dim, block.d_out, block.env_dim)
    return np.trace(big, axis1=1, axis2=3), np.trace(big, axis1=0, axis2=2)


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

    def test_index_is_the_position_of_the_word_product(self):
        # the Kronecker product of the letters' basis vectors is one-hot at index
        code = build_entgen_code([depolarizing_kraus(0.1)], [0.5, 0.5], 3, 2, 2, 4,
                                 TypicalParams(n=3, delta=0.5))
        eye = np.eye(code.dp, dtype=complex)
        for j, l in np.ndindex(code.J, code.L):
            product = accumulate_products(eye[code.words[j, l]])
            assert np.array_equal(product, codeword_vectors(code)[j, l])

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
    vecs = codeword_vectors(code)
    for t in range(code.T):
        for j in range(code.J):
            for l in range(code.L):
                v = vecs[j, l]
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
    vecs = codeword_vectors(code)
    partners = []
    partner_fid = np.zeros((code.T, code.J, code.L))
    for t, block in enumerate(code.blocks):
        de = block.env_dim
        zt = np.zeros((code.J, code.L, code.Dq * de), dtype=complex)
        for j in range(code.J):
            for l in range(code.L):
                dilated = block.isometry @ vecs[j, l]
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
        vecs = codeword_vectors(code)
        for j in range(code.J):
            phases = np.exp(2j * np.pi * np.arange(1, L + 1) * code.fourier_idx[j] / L)
            a_hat = (phases[:, None] * vecs[j]).sum(axis=0) / np.sqrt(L)
            for t, block in enumerate(code.blocks):
                dilated = block.isometry @ a_hat
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
        got = code.v_unitary.reshape(code.Dq, code.J, code.L, code.T + 1, code.Dq)
        ref = ref[:, inputs].reshape(got.shape)
        assert np.array_equal(got[:, :, :, :code.T], ref[:, :, :, :code.T])
        # the fail branch is the root of a leftover whose eigenvalues are
        # rounding (~1e-16), so it is compared through the operator it applies
        fail, ref_fail = (v[:, :, :, code.T].reshape(-1, code.Dq) for v in (got, ref))
        assert np.max(np.abs(fail.conj().T @ fail - ref_fail.conj().T @ ref_fail)) <= 1e-12

    def test_isometry_holds_where_clipped_roots_pass_the_identity(self):
        # the PGM elements here have eigenvalues down to -3.4e-10, and their
        # clipped roots apply a sum 9.4e-11 past I while sum(E) stays inside
        fam = [rotated_channel(0.671875), rotated_channel(0.6714381769119641)]
        code = build_pipeline(fam, 2, 2, 1, 0, PARAMS2)
        v = code.v_unitary
        assert np.max(np.abs(v.conj().T @ v - np.eye(code.Dq))) <= 1e-12
        assert np.linalg.eigvalsh(code.povm.sum(axis=(0, 1, 2)))[-1] <= 1 + 1e-12


def stacked_stage_one(code, family, params, scale=1.0):
    """Reference: the stacked stage-1 forms.  Every sandwiched output in one
    stacked (T, J, L, Dq, Dq) array, the square-root measurement (its
    normaliser times ``scale``) and the shrink where the square roots'
    applied sum passes I as stacked products, and detect_prob as one
    stacked trace against the word states of the induced letters."""
    J, L, D = code.J, code.L, code.Dq
    recs = [_induced_cq(ch) for ch in family]
    words = code.words.reshape(J * L, code.n)
    sand = np.stack([sandwiched_outputs(rec, words, [0.5, 0.5], params) for rec in recs])
    flat = sand.reshape(-1, D, D)
    inv_sqrt = pgm_inverse_sqrt(flat.sum(axis=0)) * scale
    povm = (inv_sqrt @ flat @ inv_sqrt).reshape(code.T, J, L, D, D)
    roots = psd_sqrt(povm.reshape(-1, D, D)).reshape(-1, D)
    w, u = np.linalg.eigh(roots.conj().T @ roots)
    if w[-1] > 1.0 + 1e-12:
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
        # the code reads each receiver state off the n-fold isometry's column
        # and takes vdot(E, rho), so only rounding separates the two forms
        assert np.max(np.abs(code.detect_prob - detect_prob)) <= 1e-12


def dense_protocol_reference(code, family, t_true):
    """Reference: the evolution on the full measurement unitary, with the
    ancillas appended in |0,0,0> and the theta-controlled correction as one
    dense matrix that acts as the identity on the fail slot.  Returns the
    final fidelity and the three f_* audit intermediates."""
    J, L, T, Dq, tp = code.J, code.L, code.T, code.Dq, code.T + 1
    de = code.de[t_true]
    w = n_fold(family[t_true], code.n).isometry
    vecs = codeword_vectors(code)
    psi = np.zeros(J * code.Dp, dtype=complex)
    for j in range(J):
        phases = np.exp(2j * np.pi * np.arange(1, L + 1) * code.fourier_idx[j] / L)
        for l in range(L):
            psi += phases[l] * np.kron(np.eye(J)[j], vecs[j, l])
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
    # the clipped square roots applied a sum 9.4e-11 past I here, while the
    # POVM's own sum stayed inside; the isometry was off by 2.2e-10
    @example(thetas=(0.671875, 0.6714381769119641), L=1, seed=0)
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


def former_env_avg_purification(env_avg_t, dq_n, L):
    """Reference: the former purification, one ancilla slot per loop step."""
    w, v = hermitian_eigensystem(env_avg_t)
    de = env_avg_t.shape[0]
    anc = dq_n * L
    support = [i for i in range(len(w)) if w[i] > 1e-14]
    truncated = 0.0
    if len(support) > anc:
        truncated = float(sum(w[i] for i in support[anc:]))
        support = support[:anc]
    weights = np.array([w[i] for i in support])
    weights = weights / weights.sum()
    vec = np.zeros((dq_n, de, L), dtype=complex)
    for slot, i in enumerate(support):
        q_idx, l_idx = divmod(slot, L)
        vec[q_idx, :, l_idx] += np.sqrt(weights[slot]) * v[:, i]
    return vec.reshape(-1), truncated


class TestEnvAvgPurification:
    @settings(max_examples=60, deadline=None)
    @example(de=6, dq_n=1, L=2, rank=6, seed=0)  # rank 6 on 2 ancilla slots: truncates
    @given(
        de=st.integers(1, 8),
        dq_n=st.sampled_from([1, 2, 4]),
        L=st.integers(1, 3),
        rank=st.integers(1, 8),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_placement_matches_the_former_loop(self, de, dq_n, L, rank, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(de, min(rank, de))) + 1j * rng.normal(size=(de, min(rank, de)))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        vec, truncated = _env_avg_purification(rho, dq_n, L)
        ref_vec, ref_truncated = former_env_avg_purification(rho, dq_n, L)
        assert np.array_equal(vec, ref_vec)
        assert truncated == ref_truncated


def former_phase_align(code, vecs):
    """Reference: the former phase alignment, whose encoder superposition
    is the Fourier sum of the one-hot codeword vectors."""
    tp, L = code.T + 1, code.L
    branches = code.v_unitary.reshape(code.Dq, code.J, L, tp, code.Dq)
    fourier_idx = np.zeros(code.J, dtype=int)
    align_phase = np.zeros(code.J)
    aligned = np.zeros((code.T, code.J), dtype=complex)
    for j in range(code.J):
        b = np.zeros((code.T, L, code.Dp), dtype=complex)
        for t, block in enumerate(code.blocks):
            for l in range(L):
                pulled = (branches[:, j, l, t, :].conj().T
                          @ code.partners[t][j, l].reshape(code.Dq, block.env_dim))
                b[t, l] = block.isometry.conj().T @ pulled.reshape(-1)
        best_k, best_val, best = 1, -np.inf, None
        for k in range(1, L + 1):
            phases = _fourier_phases(L, k)
            a_hat = (phases[:, None] * vecs[j]).sum(axis=0) / np.sqrt(L)
            per_t = np.zeros(code.T, dtype=complex)
            for t in range(code.T):
                per_t[t] = np.vdot(a_hat, (phases[:, None] * b[t]).sum(axis=0) / np.sqrt(L))
            if abs(per_t.mean()) > best_val + 1e-15:
                best_k, best_val, best = k, abs(per_t.mean()), per_t
        fourier_idx[j] = best_k
        mean = best.mean()
        align_phase[j] = float(-np.angle(mean)) if abs(mean) > 1e-15 else 0.0
        aligned[:, j] = np.exp(1j * align_phase[j]) * best
    return fourier_idx, align_phase, aligned


def former_one_hot_code(code, monkeypatch):
    """Reference: ``code`` with every codeword-dependent field rebuilt the
    former way, from one-hot codeword vectors v: detect_prob and the
    environment states from U v v^dag U^dag, the partners from U v, the
    phase alignment from Fourier sums of the vectors, and the corrections
    through the former purification loop.  The measurement is the code's."""
    import qwk.entgen

    vecs = codeword_vectors(code)
    ref = copy.copy(code)
    ref.notes = {}
    ref.detect_prob = np.empty_like(code.detect_prob)
    ref.env_avg, ref.env_spread = [], np.zeros(code.T)
    for t, block in enumerate(code.blocks):
        per_msg_env = []
        for j in range(code.J):
            acc = None
            for l in range(code.L):
                rec, env = dilated_halves(block, np.outer(vecs[j, l], vecs[j, l].conj()))
                ref.detect_prob[t, j, l] = np.vdot(code.povm[t, j, l], rec).real
                acc = env if acc is None else acc + env
            per_msg_env.append(acc / code.L)
        env_avg_t = sum(per_msg_env) / code.J
        ref.env_avg.append(env_avg_t)
        ref.env_spread[t] = max(trace_norm(om - env_avg_t) for om in per_msg_env)
    ref.partners, ref.partner_fid = full_product_partners(code)
    ref.fourier_idx, ref.align_phase, ref.aligned_overlap = former_phase_align(ref, vecs)
    with monkeypatch.context() as m:
        m.setattr(qwk.entgen, "_env_avg_purification", former_env_avg_purification)
        return build_decoder_unitaries(ref)


class EncoderCapture(np.ndarray):
    """An isometry that records the right operand of each of its products."""

    seen: list = []

    def __matmul__(self, other):
        EncoderCapture.seen.append(np.array(other))
        return np.asarray(self) @ other


CODE_ARRAYS = ("detect_prob", "env_avg", "env_spread") + STAGE_FIELDS


class TestAgainstTheOneHotPath:
    @pytest.mark.parametrize("fam", [
        [depolarizing_kraus(0.1), depolarizing_kraus(0.3)],
        [amplitude_damping(0.1), amplitude_damping(0.3)],
    ], ids=["depolarizing", "amplitude_damping"])
    @pytest.mark.parametrize("n, J, L, seed", [(2, 2, 1, 1), (2, 4, 1, 3), (3, 2, 1, 5),
                                               (3, 2, 2, 2)])
    def test_every_array_and_the_audit_bit_for_bit(self, fam, n, J, L, seed, monkeypatch):
        code = build_entgen_code(fam, [0.5, 0.5], n, J, L, seed, TypicalParams(n=n, delta=0.5))
        assert min(code.de) > 1
        ref = former_one_hot_code(code, monkeypatch)
        for name in CODE_ARRAYS:
            got, want = getattr(code, name), getattr(ref, name)
            if isinstance(got, list):
                assert len(got) == len(want) and all(map(np.array_equal, got, want)), name
            else:
                assert np.array_equal(got, want), name
        assert code.notes == ref.notes
        if fam[0].env_dim == 4:
            assert max(code.notes["env_avg_truncated_mass"]) > 0  # depolarizing truncates
        # the encoder: the Fourier sum of the one-hot vectors, fed to each isometry
        EncoderCapture.seen = []
        ref.blocks = [copy.copy(block) for block in code.blocks]
        for block in ref.blocks:
            object.__setattr__(block, "isometry", block.isometry.view(EncoderCapture))
        assert run_full_audit(ref).to_json_dict() == run_full_audit(code).to_json_dict()
        psi = np.zeros((J, code.Dp), dtype=complex)
        for j in range(J):
            for phase, vec in zip(_fourier_phases(L, code.fourier_idx[j]), codeword_vectors(code)[j]):
                psi[j] += phase * vec
        psi /= np.linalg.norm(psi)
        assert len(EncoderCapture.seen) == code.T
        for seen in EncoderCapture.seen:
            assert np.array_equal(seen, psi.T)


def embedding(theta):
    """Qubit-to-qutrit isometry |0> -> |0>, |1> -> cos|1> + sin|2>."""
    return KrausChannel(2, 3, [np.array([[1.0, 0.0], [0.0, np.cos(theta)], [0.0, np.sin(theta)]])])


class NumpySpy:
    """numpy, recording the shape of every array its functions return."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.shapes.append(out.shape)
            return out

        return call


def test_stage_one_reads_each_codeword_off_its_basis_column(monkeypatch):
    # a qubit input and a qutrit output keep P^n and Q^n shapes apart
    import qwk.channels
    import qwk.entgen

    spy = NumpySpy()
    monkeypatch.setattr(qwk.entgen, "np", spy)
    states, columns = [], []
    real_kron, real_outputs = qwk.channels.kron_chain, KrausChannel.basis_outputs
    monkeypatch.setattr(qwk.channels, "kron_chain",
                        lambda factors: states.append(real_kron(factors)) or states[-1])
    monkeypatch.setattr(KrausChannel, "basis_outputs",
                        lambda ch, basis: columns.append(basis.shape) or real_outputs(ch, basis))
    n, J, L = 2, 2, 2
    code = _measurement_code([embedding(0.2), embedding(0.9)], [0.5, 0.5], n, J, L, 1,
                             TypicalParams(n=n, delta=0.5))
    Dp, Dq, T = code.Dp, code.Dq, code.T
    assert (Dp, Dq) == (4, 9)
    # no (J, L, Dp) or (J * L, Dp) codeword stack and no Dp x Dp codeword density
    assert not {(J, L, Dp), (J * L, Dp), (Dp, Dp)} & set(spy.shapes)
    # the word states are the sandwiches' own, one at a time: no (J, L, Dq, Dq) stack
    assert states and all(state.shape == (Dq, Dq) for state in states)
    # one basis column per (state, codeword), after each family member's letters
    assert columns == [(2, 2)] * T + [(Dp, 1)] * (T * J * L)


def former_distinct_words(p, n, count, seed, delta):
    """Reference: the former sampler, one ``counter_rng`` and one
    ``rng.choice`` over the shrinking pool per draw."""
    words, probs = truncated_typical(p, n, delta)
    picked, avail = [], list(range(len(words)))
    for i in range(count):
        rng_i = counter_rng(seed, 7, 1, i)
        picked.append(avail.pop(rng_i.choice(len(avail), p=probs[avail] / probs[avail].sum())))
    return words[picked]


@pytest.mark.parametrize("p, n, count, seed, delta", [
    ([0.5, 0.5], 4, 16, 0, 0.5),
    ([0.3, 0.7], 6, 12, 2 ** 40 + 3, 0.3),
    ([0.2, 0.5, 0.3], 4, 20, 5, 0.5),
    ([0.9, 0.1], 5, 1, 11, 0.5),
])
def test_distinct_words_equal_the_per_draw_choice_loop(p, n, count, seed, delta):
    got = _sample_distinct_words(np.array(p), n, count, seed, delta)
    assert np.array_equal(got, former_distinct_words(np.array(p), n, count, seed, delta))
    assert len({tuple(w) for w in got}) == count
