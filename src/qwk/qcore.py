"""Exact finite-dimensional complex linear algebra for quantum states.

A state is a checked (d, d) complex array: ``DensityOperator`` validates one
densely when it is built, and everything else takes plain arrays.  All
values are immutable after construction and every operation is a pure
function; the module is safe to use from concurrent workers without
coordination.

Inputs outside tolerance are rejected, not silently repaired.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TOL_HERM = 1e-9
TOL_PSD = 1e-9
TOL_TRACE = 1e-9
TOL_RECON = 1e-8

_DEFAULT_HILBERT_CAP = 2 ** 14


class QcoreError(ValueError):
    """A state or operator failed validation."""


class CapExceededError(RuntimeError):
    """A requested construction exceeds the configured dimension cap."""


def hilbert_dim_cap() -> int:
    """Total-dimension cap for dense constructions (QWK_CAP_DIM overrides)."""
    raw = os.environ.get("QWK_CAP_DIM")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise QcoreError(f"QWK_CAP_DIM must be an integer, got {raw!r}")
    return _DEFAULT_HILBERT_CAP


def check_dim_cap(dim: int, what: str = "construction") -> None:
    cap = hilbert_dim_cap()
    if dim > cap:
        raise CapExceededError(f"{what} needs dimension {dim} > cap {cap}")


def _as_complex(m) -> np.ndarray:
    """A read-only complex copy; the caller's array stays writable."""
    arr = np.array(m, dtype=complex)
    arr.setflags(write=False)
    return arr


def check_density(m: np.ndarray) -> None:
    """Reject a (..., d, d) stack unless every matrix is Hermitian, positive
    semi-definite and of unit trace within tolerance.

    The checks run in that order over the whole stack, so a stack with one
    bad matrix raises what ``DensityOperator`` raises on that matrix.
    """
    if np.abs(m - m.conj().swapaxes(-1, -2)).max() > TOL_HERM:
        raise QcoreError("matrix is not Hermitian within tolerance")
    least = np.linalg.eigvalsh(m).min()
    if least < -TOL_PSD:
        raise QcoreError(f"matrix has negative eigenvalue {least:.3e}")
    tr = m.trace(axis1=-2, axis2=-1).real
    off = abs(tr - 1.0) > TOL_TRACE
    if off.any():
        raise QcoreError(f"trace {np.ravel(tr)[np.ravel(off)][0]} deviates from 1 beyond tolerance")


@dataclass(frozen=True)
class DensityOperator:
    """Positive semi-definite, unit-trace Hermitian (d, d) matrix, checked
    densely (``check_density``) when it is built.

    Word output states of a cq channel are not wrapped in one: they are
    products of letters validated when the channel was built, and
    ``channels.cq_word_state`` returns them as plain arrays.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        m = _as_complex(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise QcoreError(f"a density matrix must be square and nonempty, not of shape {m.shape}")
        check_density(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    Eigenvectors are phase-fixed (first nonzero component real positive) and
    degenerate eigenvalues are ordered by the lexicographic key of the fixed
    vectors, so the output is deterministic.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise QcoreError("expected a square matrix")
    if np.max(np.abs(m - m.conj().T)) > TOL_HERM:
        raise QcoreError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    # a unit vector has an entry above 1e-12, so each column has a first one
    first = np.argmax(np.abs(v) > 1e-12, axis=0)
    v = v * np.exp(-1j * np.angle(v[first, np.arange(v.shape[1])]))
    # stable tie-break inside degenerate groups, by the rounded entries
    order = np.arange(len(w))
    for i, j in degenerate_runs(w):
        if j - i > 1:
            r = np.round(v[:, i:j], 10).T
            keys = [tuple(x for pair in zip(c.real, c.imag) for x in pair) for c in r]
            order[i:j] = [i + k for k in sorted(range(j - i), key=keys.__getitem__)]
    return w[order], v.take(order, axis=1)  # C-ordered, as the columns were stacked


def degenerate_runs(w) -> list[tuple[int, int]]:
    """(start, stop) of each run of a sorted spectrum whose entries lie
    within 1e-10 of the run's first entry."""
    runs, i = [], 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[i]) <= 1e-10:
            j += 1
        runs.append((i, j))
        i = j
    return runs


def kron_chain(factors) -> np.ndarray:
    """Left-to-right Kronecker product of (..., r, c) matrices, broadcast over
    the leading axes.  It starts from a ones matrix of the factors' dtype, so
    every entry is the product ``np.kron`` forms, in the same order; no
    factors give the 1 × 1 identity."""
    factors = [np.asarray(f) for f in factors]
    out = np.ones((1, 1), dtype=np.result_type(*factors) if factors else float)
    for f in factors:
        (r, c), (fr, fc) = out.shape[-2:], f.shape[-2:]
        prod = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (r * fr, c * fc))
    return out


def kron_halves(mats) -> tuple:
    """The ``kron_chain`` of the first len(mats) // 2 matrices and of the
    rest: the two halves of a word's product operator."""
    h = len(mats) // 2
    return kron_chain(mats[:h]), kron_chain(mats[h:])


def kron_matmul(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """kron(a, b) @ m for a (D, K) array m: two batched products over its
    (d_a, d_b, K) view, D·K·(d_a + d_b) multiplications instead of D²·K."""
    rows = b @ m.reshape(len(a), len(b), -1)
    return (a @ rows.reshape(len(a), -1)).reshape(m.shape)


def kron_columns(a: np.ndarray, b: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The columns of kron(a, b) that the mask ``kept`` marks, from the two
    factors' columns alone: a D × rank array and no D × D one."""
    ia, ib = np.divmod(np.flatnonzero(kept), b.shape[1])
    return (a[:, None, ia] * b[None, :, ib]).reshape(len(a) * len(b), len(ia))


def accumulate_products(per_letter: Sequence[np.ndarray]) -> np.ndarray:
    """Products of per-letter values over all index words, in row-major order.

    Over per-letter spectra this is the spectrum of their tensor product.
    """
    total = np.array([1.0])
    for vals in per_letter:
        total = (total[:, None] * vals[None, :]).reshape(-1)
    return total


def trace_norm(m):
    """Sum of singular values: a float for one matrix, an array for a
    (..., d, d) stack."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise QcoreError("trace norm expects a square matrix")
    norms = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
    return float(norms) if m.ndim == 2 else norms


def psd_sqrt(m) -> np.ndarray:
    """Matrix square root of each matrix of a (..., d, d) stack via
    eigen-decomposition, clamping rounding negatives."""
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def pgm_inverse_sqrt(total) -> np.ndarray:
    """Pseudo-inverse square root of a PSD sum, the normaliser of a
    pretty-good measurement; eigenvalues at or below 1e-12 count as zero."""
    w, v = np.linalg.eigh(total)
    scaled = v * np.where(w > 1e-12, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
    return scaled @ np.conjugate(v, out=v).T  # in place: no third D × D array


def pretty_good_measurement(states, out=None) -> np.ndarray:
    """Square-root measurement of a (K, D, D) stack of PSD operators: the
    elements S^-1/2 s_k S^-1/2, S the stack's sum, on the support of S.

    The elements are formed one at a time into ``out`` (a fresh stack when
    it is None), so no K × D × D intermediate exists.  ``out`` may be
    ``states`` itself: element k reads only s_k, before it is overwritten.
    """
    states = np.asarray(states)
    inv_sqrt = pgm_inverse_sqrt(states.sum(axis=0))
    if out is None:
        out = np.empty(states.shape, dtype=np.result_type(inv_sqrt, states))
    for k, s in enumerate(states):
        out[k] = inv_sqrt @ s @ inv_sqrt
    return out


def fidelity(rho, sigma):
    """Fidelity ``|| sqrt(rho) sqrt(sigma) ||_1^2``, clamped to [0, 1 + 1e-9].

    ``rho`` and ``sigma`` are two states of one dimension, which give a float,
    or two (..., d, d) stacks of the states' square roots (``psd_sqrt``),
    which give one fidelity per pair.  Each trace norm is squared as a
    Python float: libm's ``x ** 2`` and numpy's ``x * x`` differ in the last
    bit on some inputs.
    """
    if isinstance(rho, DensityOperator):
        if not isinstance(sigma, DensityOperator) or rho.dim != sigma.dim:
            raise QcoreError("fidelity requires two states of one dimension")
        return float(fidelity(psd_sqrt(rho.matrix), psd_sqrt(sigma.matrix)))
    norms = trace_norm(rho @ sigma)
    squares = np.reshape([x ** 2 for x in np.ravel(norms).tolist()], np.shape(norms))
    return np.clip(squares, 0.0, 1.0 + 1e-9)


def ginibre_factor(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """A (dim, rank) complex Ginibre matrix: the real parts are drawn first."""
    k = rank if rank is not None else dim
    return rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))


def ginibre_states(g) -> np.ndarray:
    """g g^dagger / tr(g g^dagger) for each factor of a (..., d, k) stack,
    not yet validated."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / m.trace(axis1=-2, axis2=-1).real[..., None, None]


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Hilbert-Schmidt style random state (Ginibre factor with given rank)."""
    return DensityOperator(ginibre_states(ginibre_factor(dim, rng, rank)))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(ginibre_factor(dim, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))
