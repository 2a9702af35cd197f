"""Classical and quantum information measures.

All logarithms are base 2 and all entropies are reported in bits.
``entropy_rows`` is the only Shannon sum in qwk: every entropy, Holevo
quantity, coherent information and exact leakage goes through it, directly
or through ``eig_entropies``.  Probabilities and eigenvalues at or below
``EIG_FLOOR`` (1e-12) count as exact zeros; this includes the exact
classical leakage, which used 1e-15 before.

``eig_entropies`` diagonalises a whole (..., d, d) stack in one call: qubit
spectra in closed form, (a + d)/2 -+ hypot((a - d)/2, |b|), every other d
through ``eigvalsh``.  The entropy of a tensor power is additive,
S(z^(x n)) = n S(z), so capacity's i.i.d. letter terms take each member's
entropy from its d x d letter mixture z; only the prior mixture of the
powers is diagonalised at d^n.

Sign convention for the conditional quantum entropy: the entropy of the
full bipartite state minus the entropy of the reduced state on the
conditioning factor, which may be negative for entangled states.
"""

from __future__ import annotations

import numpy as np

from .channels import (
    CQChannel,
    ClassicalChannel,
    KrausChannel,
    require_quantum,
)
from .qcore import DensityOperator, QcoreError

EIG_FLOOR = 1e-12


def entropy_rows(p) -> np.ndarray:
    """Shannon entropy along the last axis, in bits; entries at or below
    ``EIG_FLOOR`` count as zeros.  A pure row gives +0.0."""
    p = np.asarray(p, dtype=float)
    logs = np.log2(p, out=np.zeros(p.shape), where=p > EIG_FLOOR)
    return 0.0 - (p * logs).sum(axis=-1)


def _qubit_eigvals(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (..., 2, 2) Hermitian stack in closed form,
    (a + d)/2 -+ hypot((a - d)/2, |b|), with b read from the lower triangle
    as ``eigvalsh`` reads it."""
    a, d = mats[..., 0, 0].real, mats[..., 1, 1].real
    mid = (a + d) / 2
    rad = np.hypot((a - d) / 2, np.abs(mats[..., 1, 0]))
    return np.stack([mid - rad, mid + rad], axis=-1)


def eig_entropies(mats) -> np.ndarray:
    """von Neumann entropy of each matrix of a (..., d, d) stack, in bits.
    A qubit stack takes its spectra in closed form, any other d ``eigvalsh``."""
    mats = np.asarray(mats)
    vals = _qubit_eigvals(mats) if mats.shape[-2:] == (2, 2) else np.linalg.eigvalsh(mats)
    return entropy_rows(np.clip(vals, 0.0, None))


def shannon_entropy(p) -> float:
    """Entropy of a probability vector in bits; 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    if p.min() < -1e-12:
        raise QcoreError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise QcoreError("probabilities must sum to 1")
    return float(entropy_rows(p))


def binary_entropy(p: float) -> float:
    return shannon_entropy([p, 1.0 - p])


def mutual_information(prior, ch) -> float:
    """I(X;Y) for a prior on the input alphabet of a classical channel."""
    prior = np.asarray(prior, dtype=float)
    m = ch.matrix if isinstance(ch, ClassicalChannel) else np.asarray(ch, dtype=float)
    if prior.shape[0] != m.shape[0]:
        raise QcoreError("prior length does not match the input alphabet")
    h = entropy_rows(np.vstack([prior @ m, m]))
    h_cond = sum(q * h_row for q, h_row in zip(prior, h[1:]))
    return max(0.0, float(h[0] - h_cond))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho log rho) in bits."""
    m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    return float(eig_entropies(m))


def conditional_qentropy(phi: DensityOperator, dims, keep: int) -> float:
    """Entropy of the joint state minus the entropy of the reduced state.

    ``phi`` lives on the product of factors of dimensions ``dims``; the
    subtracted reduction keeps factor ``keep`` and traces out the others.
    """
    dims = list(dims)
    n = len(dims)
    if phi.dim != int(np.prod(dims)) or not 0 <= keep < n:
        raise QcoreError(f"state of dimension {phi.dim} has no factor {keep} among {dims}")
    m = phi.matrix.reshape(dims + dims)
    for offset, i in enumerate(sorted(set(range(n)) - {keep}, reverse=True)):
        m = np.trace(m, axis1=i, axis2=i + n - offset)
    return von_neumann_entropy(phi) - von_neumann_entropy(m)


def holevo_chi(prior, states) -> float:
    """Holevo quantity of the ensemble ``prior`` over ``states``:
    S(average state) - average of state entropies."""
    prior = np.asarray(prior, dtype=float)
    if prior.min() < -1e-12 or abs(prior.sum() - 1.0) > 1e-9:
        raise QcoreError("ensemble prior must be a distribution")
    mats = [s.matrix if isinstance(s, DensityOperator) else np.asarray(s, dtype=complex)
            for s in states]
    if len(mats) != prior.shape[0]:
        raise QcoreError("prior length does not match the state count")
    if len({m.shape for m in mats}) > 1:
        raise QcoreError("ensemble states have different shapes")
    avg = sum(p * s for p, s in zip(prior, mats))
    s_avg, *s_states = eig_entropies(np.stack([avg, *mats]))
    mean_entropy = sum(p * s for p, s in zip(prior, s_states) if p > 0)
    return max(0.0, float(s_avg - mean_entropy))


def coherent_information_matrix(rho_m: np.ndarray, kraus: KrausChannel):
    """Coherent information of the density matrix ``rho_m``, unchecked.

    ``rho_m`` may be one matrix (a float is returned) or a (..., d, d) stack
    (an array of shape ``...``).  Output and reference of a purification
    share their nonzero spectrum with the environment, so this is
    S(N(rho)) - S(E) with the k x k environment state
    E_ab = tr(A_a rho A_b^dag) of the k Kraus operators.
    """
    ops = np.stack(kraus.kraus_ops)
    a_rho = ops @ rho_m[..., None, :, :]
    env = a_rho.reshape(a_rho.shape[:-2] + (-1,)) @ ops.conj().reshape(len(ops), -1).T
    vals = eig_entropies(kraus.apply_matrix(rho_m)) - eig_entropies(env)
    return float(vals) if vals.ndim == 0 else vals


def coherent_information(rho: DensityOperator, ch) -> float:
    """S(N(rho)) minus the entropy of the joint output on output (x) reference,
    for a quantum channel whose input space matches ``rho``."""
    require_quantum(ch)
    if rho.dim != ch.d_in:
        raise QcoreError("state and channel input dimensions differ")
    return coherent_information_matrix(rho.matrix, ch)


def conditional_channel_entropy(prior, v: CQChannel) -> float:
    """Average output entropy sum_x P(x) S(V(x))."""
    prior = np.asarray(prior, dtype=float)
    if prior.shape[0] != len(v.input_alphabet):
        raise QcoreError("prior length does not match the channel alphabet")
    ents = eig_entropies(v.letters)
    return float(sum(q * s for q, s in zip(prior, ents) if q > 0))


def cq_mutual_information(prior, v: CQChannel) -> float:
    """Holevo quantity of the ensemble a cq channel induces under a prior."""
    return holevo_chi(np.asarray(prior, dtype=float), v.letters)


def fannes_bound(dist: float, dim: int) -> float:
    """Entropy-continuity bound dist*log(d) - dist*log(dist) for trace-norm
    distance dist below 1/e."""
    if dist <= 0:
        return 0.0
    return dist * np.log2(dim) - dist * np.log2(dist)
