"""Strong typical sets, truncated typical distributions, typical projectors.

Projectors are built in the eigenbasis of the reference state: every
eigenvector of an n-fold product state is a tensor word over per-letter
eigenvectors, and a word is kept when the negative log of its eigenvalue
product lies within k_const * d * alpha * sqrt(n) of n times the reference
entropy.  Degenerate eigenvalues are merged before the window decision so
projectors are well defined under degeneracy.

Every constructed projector carries a report of its quantitative bound
checks; reports serialize as {bound_id, lhs, rhs, pass, min_k} records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import CQChannel, cq_word_state
from .infotheory import EIG_FLOOR, conditional_channel_entropy, entropy_rows
from .qcore import (
    CapExceededError,
    DensityOperator,
    QcoreError,
    accumulate_products,
    check_dim_cap,
    degenerate_runs,
    hermitian_eigensystem,
    kron_chain,
    trace_norm,
)

ENUM_CAP = 2 ** 24
_WORD_BLOCK = 1 << 14  # words enumerated per vectorised block


@dataclass(frozen=True)
class TypicalParams:
    """Block length, word-typicality slack, projector width, exponent constant.

    The default exponent constant 1.5 is the smallest round value for which
    the entropy-window construction satisfies the full bound suite on all
    qubit spectra at desk-scale block lengths (verified exhaustively in the
    test suite); 1.0 is provably too small.
    """

    n: int
    delta: float = 0.1
    alpha: float = 1.0
    k_const: float = 1.5

    def __post_init__(self):
        if self.n < 1:
            raise QcoreError("block length must be >= 1")
        if self.delta <= 0 or self.alpha <= 0 or self.k_const <= 0:
            raise QcoreError("delta, alpha and k_const must be positive")


@dataclass(frozen=True)
class BoundCheck:
    bound_id: str
    lhs: float
    rhs: float
    passed: bool
    min_k: float

    def as_record(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "min_k": self.min_k,
        }


# ---------------------------------------------------------------------------
# classical typical sets


def _is_typical(counts, p, delta):
    """Strong typicality from letter counts along the last axis: every
    frequency is delta-close to p, and zero wherever p vanishes."""
    freq = counts / counts.sum(axis=-1, keepdims=True)
    return (np.all(freq[..., p <= 0] == 0, axis=-1)
            & np.all(np.abs(freq - p)[..., p > 0] <= delta + 1e-12, axis=-1))


def enumerate_words(a: int, n: int, start: int, stop: int) -> np.ndarray:
    """Words start..stop-1 of range(a)^n in lexicographic order, one per row."""
    return _decode_words(np.arange(start, stop, dtype=np.int64), a, n)


def _decode_words(index: np.ndarray, a: int, n: int) -> np.ndarray:
    """Words of range(a)^n at lexicographic positions ``index``, decoded in place."""
    words = np.empty((len(index), n), dtype=np.int64)
    np.floor_divide(index[:, None], a ** np.arange(n - 1, -1, -1, dtype=np.int64), out=words)
    return np.remainder(words, a, out=words)


def typical_set(p, n: int, delta: float) -> np.ndarray:
    """Words whose empirical frequencies are delta-close to p, with zero
    frequency wherever p vanishes, in lexicographic order: an (N, n) int64
    array with one word per row."""
    p = np.asarray(p, dtype=float)
    a = p.shape[0]
    total = a ** n
    if total > ENUM_CAP:
        raise CapExceededError(f"typical-set enumeration {a}^{n} exceeds the cap")
    # positions of the kept words, one int64 each: only the result holds n per word
    kept = []
    for start in range(0, total, _WORD_BLOCK):
        block = enumerate_words(a, n, start, min(start + _WORD_BLOCK, total))
        counts = np.stack([(block == x).sum(axis=1) for x in range(a)], axis=1)
        kept.append(start + np.flatnonzero(_is_typical(counts, p, delta)))
    return _decode_words(np.concatenate(kept), a, n)


def truncated_typical(p, n: int, delta: float):
    """Product distribution restricted to the typical set and renormalized.

    Returns (words, probabilities), the words as rows of an (N, n) array.
    """
    words = typical_set(p, n, delta)
    if not len(words):
        raise QcoreError("typical set is empty; increase delta or n")
    p = np.asarray(p, dtype=float)
    # letter by letter, in word order
    probs = np.ones(len(words))
    for i in range(n):
        probs *= p[words[:, i]]
    total = probs.sum()
    if total <= 0:
        raise QcoreError("typical set carries no probability mass")
    return words, probs / total


# ---------------------------------------------------------------------------
# projector plumbing


def _grouped_eigensystem(matrix: np.ndarray):
    """Eigensystem with degenerate eigenvalues replaced by group means."""
    w, v = hermitian_eigensystem(matrix)
    w = np.clip(w, 0.0, None)
    rep = w.copy()
    for i, j in degenerate_runs(w):
        rep[i:j] = w[i:j].mean()
    return rep, v


def _neglog(vals: np.ndarray) -> np.ndarray:
    out = np.full(vals.shape, np.inf)
    mask = vals > EIG_FLOOR
    out[mask] = -np.log2(vals[mask])
    return out


@dataclass
class TypicalProjector:
    """Projector onto the kept eigen-words of a product reference state.

    ``neglogs`` and ``probs`` hold -log2 of each eigen-word's eigenvalue and
    the eigenvalue itself, in the Kronecker order of the letter unitaries.
    Bound checks only need these; the dense matrix is built afresh on each
    access of ``matrix`` and never kept.
    """

    letter_unitaries: list
    neglogs: np.ndarray
    probs: np.ndarray
    kept: np.ndarray
    center: float
    half_width: float
    checks: list = field(default_factory=list)

    @property
    def total_dim(self) -> int:
        return int(np.prod([u.shape[0] for u in self.letter_unitaries]))

    @property
    def rank(self) -> int:
        return int(self.kept.sum())

    @property
    def matrix(self) -> np.ndarray:
        check_dim_cap(self.total_dim, "typical projector matrix")
        u = kron_chain(self.letter_unitaries)
        uh = u.conj().T
        u *= self.kept.astype(float)  # (u * kept) @ u^dag without a third copy of u
        return u @ uh

    def trace_with_reference(self) -> float:
        """tr(rho_words * projector) computed from the diagonal data."""
        return float(self.probs[self.kept].sum())


def _build_projector(letter_eigsystems, center, half_width):
    unitaries = [v for _, v in letter_eigsystems]
    eigs = [w for w, _ in letter_eigsystems]
    dim = int(np.prod([len(w) for w in eigs]))
    if dim > ENUM_CAP:
        raise CapExceededError("eigen-word enumeration exceeds the cap")
    neglogs = _accumulate_sums([_neglog(w) for w in eigs])
    kept = np.abs(neglogs - center) <= half_width + 1e-12
    return TypicalProjector(unitaries, neglogs, accumulate_products(eigs), kept,
                            center, half_width)


def _accumulate_sums(per_letter: Sequence[np.ndarray]) -> np.ndarray:
    total = np.array([0.0])
    for vals in per_letter:
        total = (total[:, None] + vals[None, :]).reshape(-1)
    return total


def _min_k_for_mass(neglogs, probs, center, target_mass, unit):
    """Smallest width coefficient whose window captures the target mass."""
    offsets = np.abs(neglogs - center)
    order = np.argsort(offsets)
    cum = np.cumsum(probs[order])
    idx = np.searchsorted(cum, target_mass - 1e-15)
    if idx >= len(offsets):
        return float("inf")
    return float(offsets[order][idx] / unit)


def _window_checks(prefix: str, proj: TypicalProjector, need: float, unit) -> list[BoundCheck]:
    """Trace, rank and peak checks of a projector's entropy window, each
    with its smallest passing width coefficient in multiples of ``unit``."""
    center, width = proj.center, proj.half_width
    trace = proj.trace_with_reference()
    rank = proj.rank
    max_eig = float(proj.probs[proj.kept].max()) if rank else 0.0
    return [
        BoundCheck(f"{prefix}-trace", trace, need, trace >= need - 1e-12,
                   _min_k_for_mass(proj.neglogs, proj.probs, center, need, unit)),
        BoundCheck(f"{prefix}-rank", float(rank), float(2 ** (center + width)),
                   rank <= 2 ** (center + width) * (1 + 1e-12),
                   max(0.0, (np.log2(max(rank, 1)) - center) / unit)),
        BoundCheck(f"{prefix}-peak", max_eig, float(2 ** (-center + width)),
                   max_eig <= 2 ** (-center + width) * (1 + 1e-12),
                   max(0.0, (np.log2(max_eig) + center) / unit) if max_eig > 0 else 0.0),
    ]


# ---------------------------------------------------------------------------
# the three projector constructors


def typical_projector(rho: DensityOperator, params: TypicalParams) -> TypicalProjector:
    """Entropy-typical projector of rho^(x n) with its bound report."""
    n, alpha, k = params.n, params.alpha, params.k_const
    d = rho.dim
    check_dim_cap(d ** n, "typical projector")
    w, v = _grouped_eigensystem(rho.matrix)
    center = n * float(entropy_rows(w))
    unit = d * alpha * np.sqrt(n)
    proj = _build_projector([(w, v)] * n, center, k * unit)
    proj.checks = _window_checks("state", proj, 1.0 - d / (4 * n * alpha ** 2), unit)
    return proj


def conditional_typical_projector(
    v: CQChannel, word, prior, params: TypicalParams
) -> TypicalProjector:
    """Conditionally typical projector of V^(x n)(word) with bound report."""
    n, alpha, k = params.n, params.alpha, params.k_const
    if len(word) != n:
        raise QcoreError("word length must equal the block length")
    prior = np.asarray(prior, dtype=float)
    symbols = np.asarray(word)
    if np.any((symbols < 0) | (symbols >= len(prior))) or not _is_typical(
        np.bincount(symbols, minlength=len(prior)), prior, params.delta
    ):
        raise QcoreError("word is not typical for the prior")
    a = len(v.input_alphabet)
    d = v.d_out
    check_dim_cap(d ** n, "conditional typical projector")
    systems = {x: _grouped_eigensystem(v.letters[x]) for x in set(word)}
    letters = [systems[x] for x in word]
    center = n * conditional_channel_entropy(prior, v)
    unit = d * alpha * np.sqrt(n)
    proj = _build_projector(letters, center, k * a * unit)
    proj.checks = _window_checks("cond", proj, 1.0 - a * d / (4 * n * alpha ** 2), a * unit)
    return proj


def averaged_output_projector(prior, v: CQChannel, params: TypicalParams) -> TypicalProjector:
    """Typical projector of the prior-averaged output, width scaled by sqrt(a)."""
    prior = np.asarray(prior, dtype=float)
    a = len(v.input_alphabet)
    avg = sum(q * m for q, m in zip(prior, v.letters))
    rho = DensityOperator(avg)
    scaled = TypicalParams(params.n, params.delta, params.alpha * np.sqrt(a), params.k_const)
    return typical_projector(rho, scaled)


def averaged_trace_check(proj: TypicalProjector, v: CQChannel, word, params: TypicalParams) -> BoundCheck:
    """Trace of the word's output against the averaged-output projector."""
    n, alpha = params.n, params.alpha
    a = len(v.input_alphabet)
    d = v.d_out
    u = proj.letter_unitaries[0]
    per_letter = []
    for x in word:
        m = u.conj().T @ v.letters[x] @ u
        per_letter.append(np.clip(np.real(np.diag(m)), 0.0, None))
    weights = accumulate_products(per_letter)
    lhs = float(weights[proj.kept].sum())
    rhs = 1.0 - a * d / (4 * n * alpha ** 2)
    unit = d * (alpha * np.sqrt(a)) * np.sqrt(n)
    min_k = _min_k_for_mass(proj.neglogs, weights, proj.center, rhs, unit)
    return BoundCheck("avg-trace", lhs, rhs, lhs >= rhs - 1e-12, min_k)


# ---------------------------------------------------------------------------
# the double-projector sandwich


def sandwiched_output(
    v: CQChannel, word, prior, params: TypicalParams
):
    """The word's output squeezed between its conditional and the averaged
    projector, plus the trace-norm deviation bound it must satisfy.

    Returns (matrix, deviation, bound).
    """
    q = next(sandwiches(v, [word], prior, params))
    return q, trace_norm(q - cq_word_state(v, word)), sandwich_bound(v, params)


def sandwich_bound(v: CQChannel, params: TypicalParams) -> float:
    """The bound sqrt(2(ad + d)/(n alpha^2)) on the trace-norm deviation of a
    word's sandwiched output from its output state."""
    a = len(v.input_alphabet)
    d = v.d_out
    return float(np.sqrt(2 * (a * d + d) / (params.n * params.alpha ** 2)))


def _sandwich(pa: np.ndarray, pc: np.ndarray, state: np.ndarray) -> np.ndarray:
    return pa @ pc @ state @ pc @ pa


def sandwich_deviation(avg: TypicalProjector, cond: TypicalProjector, state: np.ndarray) -> float:
    """||Pa Pc state Pc Pa - state||_1 for the averaged-output projector Pa
    and a word's conditional projector Pc, both built afresh."""
    pa, pc = avg.matrix, cond.matrix
    q = _sandwich(pa, pc, state)
    del pa, pc  # the trace-norm SVD needs neither projector
    return trace_norm(q - state)


def sandwiched_outputs(v: CQChannel, words, prior, params: TypicalParams) -> np.ndarray:
    """Sandwiched outputs of several words, stacked along the first axis.

    Each output is written into one preallocated (len(words), D, D) stack as
    ``sandwiches`` yields it, so no per-word list is held next to the stack.
    """
    stream = sandwiches(v, words, prior, params)
    dim = v.d_out ** params.n
    out = np.empty((len(words), dim, dim), dtype=complex)
    for k, q in enumerate(stream):
        out[k] = q
    return out


def sandwiches(v: CQChannel, words, prior, params: TypicalParams):
    """The sandwiched output Pa Pc rho(word) Pc Pa of each word, yielded one
    word at a time.

    The dimension cap is checked at the call, so a caller may allocate its
    D × D accumulators once this returns.  The averaged-output projector Pa
    is shared by every word, so its dense matrix is built once; each word's
    state and conditional projector Pc are dropped before the next word's.
    """
    check_dim_cap(v.d_out ** params.n, "sandwiched output")
    return _sandwich_stream(v, words, prior, params)


def _sandwich_stream(v: CQChannel, words, prior, params: TypicalParams):
    pa = None
    for word in words:
        pc = conditional_typical_projector(v, word, prior, params).matrix
        if pa is None:
            pa = averaged_output_projector(prior, v, params).matrix
        state = cq_word_state(v, word)
        yield _sandwich(pa, pc, state)
        del pc, state  # gone before the next word's projector is built
