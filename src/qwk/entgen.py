"""End-to-end entanglement-generation protocol over a compound quantum channel.

Pipeline (exact state-vector evolution throughout):

1. ``build_entgen_code``   sample codewords against the classical-quantum
   pair a channel family induces on the computational basis, build the joint
   pretty-good measurement and the coherent measurement as the isometry
   it is on the |0,0,0> ancilla.  The code keeps each state's n-fold
   channel, whose stored Stinespring isometry the later stages apply.  It
   then runs stages 2-4 once, in order, and returns the complete code.
2. ``compute_uhlmann_partners``  best pure approximations of the
   post-measurement states with the measurement record factored out.
3. ``phase_align``         pick the discrete Fourier index and phase that
   align the encoder superposition with its decoded image.
4. ``build_decoder_unitaries``   per-state correction unitaries matching
   Schmidt frames block-by-block over the message register.
5. ``run_full_audit``      full evolution for every channel state, fidelity
   audit against the maximally entangled target, and the final bound
   comparison at the measured slack.

Codewords are computational-basis product vectors |w>, kept as their basis
indices: each state's channel output U|w> is one column of its n-fold
isometry, so no stage builds a codeword vector or purifies one.

Register order everywhere: [A, Q^n, E^n, M, L, T'] with T' carrying one
extra fail slot that absorbs the measurement defect.  E^n is the
environment of the n-fold isometry: one slot per n-fold Kraus operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import CQChannel, KrausChannel, n_fold, require_quantum
from .qcore import (
    QcoreError,
    check_dim_cap,
    hermitian_eigensystem,
    pretty_good_measurement,
    psd_sqrt,
    trace_norm,
)
from .streams import choice_cdf, counter_draws
from .typicality import TypicalParams, sandwiched_outputs, truncated_typical

_STREAM_ENTGEN = 7


def _pure_overlap_fidelity(v1: np.ndarray, v2: np.ndarray) -> float:
    return float(min(1.0, abs(np.vdot(v1, v2)) ** 2))


# ---------------------------------------------------------------------------
# code container


@dataclass
class EntgenCode:
    n: int
    J: int
    L: int
    T: int
    dp: int
    dq: int
    blocks: list  # per-state n-fold KrausChannel
    words: np.ndarray  # (J, L, n)
    index: np.ndarray  # (J, L) basis index of each codeword in P^n
    povm: np.ndarray  # (T, J, L, Dq, Dq)
    detect_prob: np.ndarray  # (T, J, L)
    env_avg: list  # per-state averaged environment state (De, De)
    env_spread: np.ndarray  # (T,) max_j deviation of the j-averaged env state
    v_unitary: np.ndarray  # (D, Dq) isometry Q^n -> [Q^n, M, L, T'], D = Dq*J*L*(T+1)
    params: TypicalParams
    seed: int
    # set by stages 2-4, which build_entgen_code runs before it returns
    partners: list | None = None  # per state: (J, L, Dq*De) partner vectors
    partner_fid: np.ndarray | None = None  # (T, J, L) partner premise fidelities
    fourier_idx: np.ndarray | None = None
    align_phase: np.ndarray | None = None
    aligned_overlap: np.ndarray | None = None  # (T, J) aligned overlaps (complex)
    corrections: list | None = None  # per state: unitary on [Q^n, M, L]
    correction_fid: np.ndarray | None = None  # (T, J) correction fidelities
    env_avg_pur: list | None = None  # per state: purification vector on [Q^n, E^n, L]
    notes: dict = field(default_factory=dict)

    @property
    def de(self) -> list[int]:
        """Per-state environment dimension (block level)."""
        return [b.env_dim for b in self.blocks]

    @property
    def Dq(self) -> int:
        return self.dq ** self.n

    @property
    def Dp(self) -> int:
        return self.dp ** self.n


@dataclass
class FidelityAudit:
    per_t_fidelity: dict
    min_fidelity: float
    epsilon_measured: float
    bound_rhs: float
    bound_satisfied: bool
    intermediates: dict
    triangle_checks: list
    params: dict

    def to_json_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


# ---------------------------------------------------------------------------
# stage 1: codewords, measurement, coherent measurement isometry


def _check_family(family) -> None:
    require_quantum(*family)
    if len({(ch.d_in, ch.d_out) for ch in family}) != 1:
        raise QcoreError("family members must share input and output spaces")


def _induced_cq(ch: KrausChannel) -> CQChannel:
    """Classical-quantum channel the receiver sees on the computational basis."""
    rec, _ = ch.basis_outputs(np.eye(ch.d_in, dtype=complex))
    return CQChannel(tuple(range(len(rec))), ch.d_out, dict(enumerate(rec)))


def _sample_distinct_words(p, n, count, seed, delta):
    """Weighted sampling without replacement from the truncated typical
    distribution; distinct words keep the encoder superposition normalized.
    Draw i picks from the shrinking pool with the uniform of the stream
    (seed, entgen, 1, i), as that stream's ``Generator.choice`` would."""
    words, probs = truncated_typical(p, n, delta)
    if len(words) < count:
        raise QcoreError(
            f"need {count} distinct typical words, only {len(words)} available"
        )
    _, u = counter_draws(seed, (_STREAM_ENTGEN, 1), np.arange(count)[:, None], (), 1)
    picked = []
    avail = list(range(len(words)))
    for ui in u[:, 0]:
        cdf = choice_cdf(probs[avail] / probs[avail].sum())
        picked.append(avail.pop(np.searchsorted(cdf, ui, "right")))
    return words[picked]


def build_entgen_code(family, p, n: int, J: int, L: int, seed: int,
                      params: TypicalParams | None = None) -> EntgenCode:
    """The complete code: stage 1, then stages 2-4 (partners, phase
    alignment, corrections) run once, in order."""
    # stage 1 runs in its own frame, so its work arrays are freed first
    code = _measurement_code(family, p, n, J, L, seed, params)
    return build_decoder_unitaries(phase_align(compute_uhlmann_partners(code)))


def _measurement_code(family, p, n, J, L, seed, params) -> EntgenCode:
    """Codewords, joint pretty-good measurement, and the measurement isometry.

    Codewords are sampled from the truncated typical distribution and kept
    distinct across all (j, l) so that the encoder superposition stays
    normalized (repeated words would make Fourier branches collide).
    Each state's receiver and environment halves of |Uw><Uw| come from its
    n-fold channel on the codeword's basis column, one codeword at a time.
    """
    _check_family(family)
    if params is None:
        params = TypicalParams(n=n, delta=0.5, alpha=2.0)
    dp = family[0].d_in
    dq = family[0].d_out
    T = len(family)
    if J < 1 or L < 1:
        raise QcoreError("J and L must be >= 1")
    blocks = [n_fold(ch, n) for ch in family]
    de = [b.env_dim for b in blocks]
    check_dim_cap(J * dq ** n * max(de) * J * L * (T + 1), "protocol state vector")
    words = _sample_distinct_words(np.asarray(p, float), n, J * L, seed, params.delta)
    words = words.reshape(J, L, n)
    index = words @ dp ** np.arange(n - 1, -1, -1)
    # joint pretty-good measurement over (state, message, randomization)
    rec_cqs = [_induced_cq(ch) for ch in family]
    prior = np.asarray(p, dtype=float)
    dq_n = dq ** n
    # one (T, J, L, Dq, Dq) array holds the sandwiched outputs, then the POVM
    povm = np.empty((T, J, L, dq_n, dq_n), dtype=complex)
    elements = povm.reshape(-1, dq_n, dq_n)
    for t, rec in enumerate(rec_cqs):
        sandwiched_outputs(rec, words.reshape(J * L, n), prior, params,
                           out=elements[t * J * L:(t + 1) * J * L])
    pretty_good_measurement(elements, out=elements)
    v_unitary = _measurement_unitary(elements, J, L, T)
    detect_prob = np.empty((T, J, L))
    env_states = []
    spread = np.zeros(T)
    for t, block in enumerate(blocks):
        per_msg_env = []
        for j, l in np.ndindex(J, L):
            column = np.zeros((dp ** n, 1), dtype=complex)
            column[index[j, l]] = 1.0
            (rec,), (env,) = block.basis_outputs(column)
            detect_prob[t, j, l] = np.vdot(povm[t, j, l], rec).real
            acc = env if l == 0 else acc + env
            if l == L - 1:
                per_msg_env.append(acc / L)
        env_avg_t = sum(per_msg_env) / J
        env_states.append(env_avg_t)
        spread[t] = max(trace_norm(om - env_avg_t) for om in per_msg_env)
    return EntgenCode(
        n=n, J=J, L=L, T=T, dp=dp, dq=dq, blocks=blocks, words=words, index=index,
        povm=povm, detect_prob=detect_prob, env_avg=env_states, env_spread=spread,
        v_unitary=v_unitary, params=params, seed=seed,
    )


def _measurement_unitary(elements: np.ndarray, J: int, L: int, T: int) -> np.ndarray:
    """Coherent measurement as the (D, Dq) isometry from Q^n into
    [Q^n, M, L, T'], D = Dq*J*L*(T+1): records (j, l, t) into the ancillas
    via sqrt-operator branches, with a fail branch at t = T absorbing the
    measurement defect.

    These are the columns of the measurement unitary on the inputs
    |q, 0, 0, 0>; the ancillas always start there, so no use needs the rest.
    The one guard acts on A = sum_k sqrt(E_k)^dag sqrt(E_k), the sum the
    branches apply.  The square roots clip rounding negatives of the E_k, so
    A >= sum_k E_k and A can pass I where the POVM's sum does not.  Where A
    passes I + 1e-12, each branch becomes sqrt(E_k) S and each element of
    ``elements`` (in place) S E_k S, with S = A^-1/2 on A's eigenvalues
    above 1 and I elsewhere; the fail branch sqrt(I - S A S) then completes
    the isometry.
    """
    dq_n = elements.shape[-1]
    roots = psd_sqrt(elements)
    flat = roots.reshape(-1, dq_n)
    applied = flat.conj().T @ flat
    w, u = np.linalg.eigh(applied)
    if w[-1] > 1.0 + 1e-12:
        shrink = (u / np.sqrt(np.maximum(w, 1.0))) @ u.conj().T
        roots = roots @ shrink
        applied = shrink @ applied @ shrink
        for e in elements:
            e[...] = shrink @ e @ shrink
    # branches[qo, j, l, t, q] = <qo| sqrt(E_tjl) |q>
    branches = np.zeros((dq_n, J, L, T + 1, dq_n), dtype=complex)
    branches[:, :, :, :T] += roots.reshape(T, J, L, dq_n, dq_n).transpose(3, 1, 2, 0, 4)
    branches[:, 0, 0, T] += psd_sqrt(np.eye(dq_n) - applied)
    return branches.reshape(-1, dq_n)


# ---------------------------------------------------------------------------
# stage 2: Uhlmann partners


def compute_uhlmann_partners(code: EntgenCode) -> EntgenCode:
    """Post-measurement partner vectors for every (j, l, state).

    The best pure approximation of the measured state with the record
    |j, l, t> factored out is the normalised image of the dilated codeword
    under the branch of the measurement that writes that record; its
    squared norm is the fidelity of the reduced record state with |j, l, t>.
    A branch that annihilates the codeword gets partner e_0, fidelity 0.
    """
    branches = code.v_unitary.reshape(code.Dq, code.J, code.L, code.T + 1, code.Dq)
    partners = []
    partner_fid = np.zeros((code.T, code.J, code.L))
    for t, block in enumerate(code.blocks):
        de = block.env_dim
        zt = np.zeros((code.J, code.L, code.Dq * de), dtype=complex)
        for j, l in np.ndindex(code.J, code.L):
            dilated = block.isometry[:, code.index[j, l]]  # U|w> on [Q^n (x) E^n]
            contracted = (branches[:, j, l, t, :] @ dilated.reshape(code.Dq, de)).reshape(-1)
            norm = np.linalg.norm(contracted)
            if norm < 1e-15:
                zt[j, l, 0] = 1.0
                continue
            zt[j, l] = contracted / norm
            partner_fid[t, j, l] = float(norm ** 2)
        partners.append(zt)
    code.partners = partners
    code.partner_fid = partner_fid
    return code


# ---------------------------------------------------------------------------
# stage 3: phase alignment


def _fourier_phases(L: int, k: int, phase: float = 0.0) -> np.ndarray:
    """exp(2 pi i l k / L + i phase) for l = 1..L."""
    return np.exp(2j * np.pi * np.arange(1, L + 1) * k / L + 1j * phase)


def phase_align(code: EntgenCode) -> EntgenCode:
    """Pick the Fourier index maximizing the state-averaged aligned overlap
    and the phase making it real positive; record the per-state overlaps."""
    tp = code.T + 1
    L = code.L
    fourier_idx = np.zeros(code.J, dtype=int)
    align_phase = np.zeros(code.J)
    aligned_overlap = np.zeros((code.T, code.J), dtype=complex)
    branches = code.v_unitary.reshape(code.Dq, code.J, L, tp, code.Dq)
    adjoints = [block.isometry.conj().T for block in code.blocks]
    for j in range(code.J):
        # b_{j,l,t}: pull the partner (x) record back through V and the
        # dilation, using <V W a|z (x) record> = <W a|V_{jlt}^dag z> for the
        # branch V_{jlt} that writes the record
        b = np.zeros((code.T, L, code.Dp), dtype=complex)
        for t, (de, adjoint) in enumerate(zip(code.de, adjoints)):
            for l in range(L):
                pulled = branches[:, j, l, t, :].conj().T @ code.partners[t][j, l].reshape(code.Dq, de)
                b[t, l] = adjoint @ pulled.reshape(-1)
        best_k, best_val = 1, -np.inf
        overlaps_at_best = None
        for k in range(1, L + 1):
            phases = _fourier_phases(L, k)
            a_hat = np.zeros(code.Dp, dtype=complex)
            a_hat[code.index[j]] = phases / np.sqrt(L)
            per_t = np.zeros(code.T, dtype=complex)
            for t in range(code.T):
                b_hat = (phases[:, None] * b[t]).sum(axis=0) / np.sqrt(L)
                per_t[t] = np.vdot(a_hat, b_hat)
            mean = per_t.mean()
            if abs(mean) > best_val + 1e-15:
                best_k, best_val = k, abs(mean)
                overlaps_at_best = per_t
        fourier_idx[j] = best_k
        mean = overlaps_at_best.mean()
        align_phase[j] = float(-np.angle(mean)) if abs(mean) > 1e-15 else 0.0
        aligned_overlap[:, j] = np.exp(1j * align_phase[j]) * overlaps_at_best
    code.fourier_idx = fourier_idx
    code.align_phase = align_phase
    code.aligned_overlap = aligned_overlap
    return code


# ---------------------------------------------------------------------------
# stage 4: correction unitaries


def _env_avg_purification(env_avg_t: np.ndarray, dq_n: int, L: int):
    """Purification of the averaged environment state on [Q^n, E^n, L].

    If the state's rank exceeds the ancilla dimension the smallest
    eigenvalues are truncated (and renormalized); the truncated mass is
    returned for the audit.  Kept eigenvector s sits at slot s of the
    ancilla pair (Q^n, L), read as (s // L, s % L).
    """
    w, v = hermitian_eigensystem(env_avg_t)
    de = env_avg_t.shape[0]
    support = np.flatnonzero(w > 1e-14)
    truncated = float(sum(w[support[dq_n * L:]]))
    support = support[:dq_n * L]
    weights = w[support] / w[support].sum()
    vec = np.zeros((dq_n * L, de), dtype=complex)
    vec[:len(support)] += np.sqrt(weights)[:, None] * v[:, support].T
    return vec.reshape(dq_n, L, de).transpose(0, 2, 1).reshape(-1), truncated


def _branch_sum(code: EntgenCode, t: int, j: int) -> np.ndarray:
    """Aligned Fourier superposition of message j's partners for state t,
    on [Q^n, E^n, L]."""
    phases = _fourier_phases(code.L, code.fourier_idx[j], code.align_phase[j])
    terms = phases[:, None] * code.partners[t][j] / np.sqrt(code.L)  # (L, Dq*De)
    return np.ascontiguousarray(terms.reshape(code.L, code.Dq, -1).transpose(1, 2, 0))


def build_decoder_unitaries(code: EntgenCode) -> EntgenCode:
    """Correction unitaries matching the decoded branches to a purification
    of the averaged environment state, block-diagonal over the messages."""
    corrections = []
    correction_fid = np.zeros((code.T, code.J))
    env_avg_pur = []
    truncations = []
    for t in range(code.T):
        de = code.de[t]
        env_avg_vec, truncated = _env_avg_purification(code.env_avg[t], code.Dq, code.L)
        truncations.append(truncated)
        env_avg_pur.append(env_avg_vec)
        # env_avg_vec on [Q^n, E^n, L]; move env first for the Schmidt split
        env_avg_mat = env_avg_vec.reshape(code.Dq, de, code.L).transpose(1, 0, 2).reshape(de, -1)
        u_t = np.zeros((code.Dq * code.J * code.L,) * 2, dtype=complex)
        u6 = u_t.reshape(code.Dq, code.J, code.L, code.Dq, code.J, code.L)
        for j in range(code.J):
            branch_sum_mat = _branch_sum(code, t, j).transpose(1, 0, 2).reshape(de, -1)
            # overlap(U) = tr(F_avg^dag F_branch U^T); the maximizing unitary
            # comes from the SVD of the transposed frame product
            frame = (env_avg_mat.conj().T @ branch_sum_mat).T  # acts on (Q^n x L)
            w_svd, s_svd, vh_svd = np.linalg.svd(frame)
            u_block = vh_svd.conj().T @ w_svd.conj().T
            achieved = float(np.sum(s_svd))
            correction_fid[t, j] = min(1.0, achieved ** 2)
            u6[:, j, :, :, j, :] = u_block.reshape(code.Dq, code.L, code.Dq, code.L)
        corrections.append(u_t)
    code.corrections = corrections
    code.correction_fid = correction_fid
    code.env_avg_pur = env_avg_pur
    code.notes["env_avg_truncated_mass"] = truncations
    return code


# ---------------------------------------------------------------------------
# stage 5: the protocol run


def measured_epsilon(code: EntgenCode) -> float:
    eps = max(float(1.0 - code.detect_prob.min()), float(code.env_spread.max()), 0.0)
    return eps


def final_bound(epsilon: float, T: int) -> float:
    return float(1.0 - np.sqrt(2 * T) * np.sqrt(epsilon) - np.sqrt(8.0) * epsilon ** 0.25)


def _evolve(code: EntgenCode, t: int) -> tuple[float, dict, dict]:
    """Exact evolution when state t is the true channel state.

    Returns the fidelity of the reduced [A, M] state with the maximally
    entangled target, the evolution's intermediates, and the triangle check
    between the decoded, aligned and target states.
    """
    de = code.de[t]
    tp = code.T + 1
    J, L = code.J, code.L
    # sender superposition on [A, P^n]
    psi = np.zeros((J, code.Dp), dtype=complex)
    for j in range(J):
        psi[j, code.index[j]] = _fourier_phases(L, code.fourier_idx[j])
    norm = np.linalg.norm(psi)
    psi /= norm
    # the channel on [P^n], then the measurement on [Q^n] alone: its ancillas
    # [M, L, T'] start in |0,0,0>
    psi = code.blocks[t].isometry @ np.ascontiguousarray(psi.T)
    psi = code.v_unitary @ psi.reshape(code.Dq, de, J).transpose(0, 2, 1).reshape(code.Dq, -1)
    psi = np.ascontiguousarray(psi.reshape(code.Dq * J * L, tp, J, de).transpose(2, 0, 1, 3))
    # correction on [Q^n, M, L] keyed by the T' register, identity on the fail slot
    for slot in range(code.T):
        psi[:, :, slot] = code.corrections[slot] @ psi[:, :, slot]
    psi = psi.reshape(J, code.Dq, J, L, tp, de).transpose(0, 1, 5, 2, 3, 4).reshape(-1)
    # reduced state on [A, M]
    am = psi.reshape(J, code.Dq, de, J, L, tp).transpose(0, 3, 1, 2, 4, 5).reshape(J * J, -1)
    rho_am = am @ am.conj().T
    target = np.eye(J).reshape(-1) / np.sqrt(J)
    fidelity = float(min(1.0, np.real(target @ rho_am @ target)))
    # the aligned branches after correction, and the target purification
    mid1 = np.zeros((J, code.Dq, de, J, L, tp), dtype=complex)
    mid2 = np.zeros_like(mid1)
    u_t = code.corrections[t].reshape(code.Dq, J, L, code.Dq, J, L)
    for j in range(J):
        corrected_j = np.einsum("qmlQL,QeL->qmle", u_t[:, :, :, :, j, :], _branch_sum(code, t, j))
        # corrected_j axes (q, m, l, e) -> layout (Q, e, M, L); j-slices are disjoint
        mid1[j, :, :, :, :, t] = corrected_j.transpose(0, 3, 1, 2) / np.sqrt(J)
        mid2[j, :, :, j, :, t] = code.env_avg_pur[t].reshape(code.Dq, de, L) / np.sqrt(J)
    mid1 /= np.linalg.norm(mid1)
    mid2 /= np.linalg.norm(mid2)
    f_decoded_vs_aligned = _pure_overlap_fidelity(psi, mid1)
    f_aligned_vs_target = _pure_overlap_fidelity(mid1, mid2)
    f_decoded_vs_target = _pure_overlap_fidelity(psi, mid2)
    triangle_ok = f_decoded_vs_target >= (
        1.0
        - np.sqrt(max(0.0, 1 - f_decoded_vs_aligned ** 2))
        - np.sqrt(max(0.0, 1 - f_aligned_vs_target ** 2))
        - 1e-9
    )
    intermediates = {
        "encoder_norm": float(norm),
        "f_decoded_vs_aligned": f_decoded_vs_aligned,
        "f_aligned_vs_target": f_aligned_vs_target,
        "f_decoded_vs_target": f_decoded_vs_target,
    }
    triangle = {
        "f_direct": f_decoded_vs_target,
        "f_via": (f_decoded_vs_aligned, f_aligned_vs_target),
        "pass": bool(triangle_ok),
    }
    return fidelity, intermediates, triangle


def run_full_audit(code: EntgenCode) -> FidelityAudit:
    """Protocol audit over every channel state: each state's fidelity and
    triangle check, the worst fidelity against the bound, and state 0's
    intermediates next to the code's own premises."""
    fidelities, intermediates, triangles = zip(*(_evolve(code, t) for t in range(code.T)))
    worst = min(fidelities)
    eps = measured_epsilon(code)
    rhs = final_bound(eps, code.T)
    return FidelityAudit(
        per_t_fidelity={str(t): f for t, f in enumerate(fidelities)},
        min_fidelity=worst,
        epsilon_measured=eps,
        bound_rhs=rhs,
        bound_satisfied=bool(worst >= rhs - 1e-9),
        intermediates={
            **intermediates[0],
            "detect_prob_min": float(code.detect_prob.min()),
            "env_spread_max": float(code.env_spread.max()),
            "aligned_overlap_min_real": float(code.aligned_overlap.real.min()),
            "correction_fid_min": float(code.correction_fid.min()),
            "partner_fid_min": float(code.partner_fid.min()),
        },
        triangle_checks=list(triangles),
        params={"n": code.n, "J": code.J, "L": code.L, "T": code.T, "seed": code.seed},
    )
