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
from typing import NamedTuple, Sequence

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
        if not (self.delta > 0 and self.alpha > 0 and self.k_const > 0):  # NaN fails too
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


def _grouped_eigensystem(system):
    """A ``hermitian_eigensystem`` with degenerate eigenvalues replaced by
    group means."""
    w, v = system
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


class _Spectrum(NamedTuple):
    """The width-free half of a typical projector: the letter unitaries of a
    product reference state and, in their Kronecker order, each eigen-word's
    -log2 eigenvalue, eigenvalue and distance |neglog - center| from the
    window centre; ``order`` sorts those distances increasingly, and
    ``by_offset`` holds them in that order with the reference mass
    accumulated along them."""

    letter_unitaries: list
    neglogs: np.ndarray
    probs: np.ndarray
    center: float
    offsets: np.ndarray
    order: np.ndarray
    by_offset: tuple


@dataclass
class TypicalProjector:
    """A window on an eigen-word spectrum: the projector onto the words of
    ``spectrum`` within ``half_width`` of its centre, marked in ``kept``.

    The projectors of one sweep share one read-only ``spectrum`` and differ
    in ``kept``.  Bound checks only need these; the dense matrix is built
    afresh on each access of ``matrix`` and never kept.
    """

    spectrum: _Spectrum
    kept: np.ndarray
    half_width: float
    checks: list = field(default_factory=list)

    @property
    def rank(self) -> int:
        return int(self.kept.sum())

    @property
    def matrix(self) -> np.ndarray:
        check_dim_cap(self.kept.size, "typical projector matrix")
        u = kron_chain(self.spectrum.letter_unitaries)
        uh = u.conj().T
        u *= self.kept.astype(float)  # (u * kept) @ u^dag without a third copy of u
        return u @ uh

    def trace_with_reference(self) -> float:
        """tr(rho_words * projector) computed from the diagonal data."""
        return float(self.spectrum.probs[self.kept].sum())


def _spectrum(systems: dict, word, center) -> _Spectrum:
    """The spectrum of the product over ``word`` of letters whose grouped
    eigensystems ``systems`` holds, one entry per distinct letter."""
    eigs = [systems[x][0] for x in word]
    dim = int(np.prod([len(w) for w in eigs]))
    if dim > ENUM_CAP:
        raise CapExceededError("eigen-word enumeration exceeds the cap")
    letter_neglogs = {x: _neglog(w) for x, (w, _) in systems.items()}
    neglogs = _accumulate_sums([letter_neglogs[x] for x in word])
    probs = accumulate_products(eigs)
    unitaries = [systems[x][1] for x in word]
    offsets = np.abs(neglogs - center)
    order = np.argsort(offsets)
    for arr in (neglogs, probs, offsets, order, *unitaries):
        arr.setflags(write=False)  # shared by every projector of the sweep
    by_offset = (offsets[order], np.cumsum(probs[order]))
    return _Spectrum(unitaries, neglogs, probs, center, offsets, order, by_offset)


def _accumulate_sums(per_letter: Sequence[np.ndarray]) -> np.ndarray:
    total = np.array([0.0])
    for vals in per_letter:
        total = (total[:, None] + vals[None, :]).reshape(-1)
    return total


def _min_k_for_mass(by_offset, target_mass, unit):
    """Smallest width coefficient whose window captures the target mass."""
    offsets, cum = by_offset
    idx = np.searchsorted(cum, target_mass - 1e-15)
    if idx >= len(offsets):
        return float("inf")
    return float(offsets[idx] / unit)


def _checked_window(prefix: str, spec: _Spectrum, params: TypicalParams, d: int, c: int):
    """The projector onto ``spec``'s entropy window for ``params``, with its
    trace, rank and peak checks.  The half-width is k_const * c units of
    d * alpha * sqrt(n), the trace target 1 - c d / (4 n alpha^2), and each
    smallest passing width coefficient counts c units; c is 1 for a state's
    projector and the alphabet size for a conditional one."""
    n, alpha = params.n, params.alpha
    unit = d * alpha * np.sqrt(n)
    width = params.k_const * c * unit
    need = 1.0 - c * d / (4 * n * alpha ** 2)
    unit = c * unit
    proj = TypicalProjector(spec, spec.offsets <= width + 1e-12, width)
    center = spec.center
    trace = proj.trace_with_reference()
    rank = proj.rank
    max_eig = float(spec.probs[proj.kept].max()) if rank else 0.0
    proj.checks = [
        BoundCheck(f"{prefix}-trace", trace, need, trace >= need - 1e-12,
                   _min_k_for_mass(spec.by_offset, need, unit)),
        BoundCheck(f"{prefix}-rank", float(rank), float(2 ** (center + width)),
                   rank <= 2 ** (center + width) * (1 + 1e-12),
                   max(0.0, (np.log2(max(rank, 1)) - center) / unit)),
        BoundCheck(f"{prefix}-peak", max_eig, float(2 ** (-center + width)),
                   max_eig <= 2 ** (-center + width) * (1 + 1e-12),
                   max(0.0, (np.log2(max_eig) + center) / unit) if max_eig > 0 else 0.0),
    ]
    return proj


# ---------------------------------------------------------------------------
# the three projector constructors
#
# Each constructor is a sweep over a sequence of parameters: the reference
# state is diagonalised once, one eigen-word spectrum is built per distinct
# block length, and each entry only sets its window.  The singular names are
# the one-entry sweeps.


def typical_projectors(rho: DensityOperator, params_seq) -> list[TypicalProjector]:
    """Entropy-typical projectors of rho^(x n) with their bound reports, one
    per entry of ``params_seq``."""
    d = rho.dim
    for params in params_seq:
        check_dim_cap(d ** params.n, "typical projector")
    w, v = _grouped_eigensystem(hermitian_eigensystem(rho.matrix))
    entropy = float(entropy_rows(w))
    spectra = {n: _spectrum({0: (w, v)}, [0] * n, n * entropy)
               for n in dict.fromkeys(params.n for params in params_seq)}
    return [_checked_window("state", spectra[params.n], params, d, 1) for params in params_seq]


def typical_projector(rho: DensityOperator, params: TypicalParams) -> TypicalProjector:
    """Entropy-typical projector of rho^(x n) with its bound report."""
    return typical_projectors(rho, [params])[0]


def conditional_typical_projectors(v: CQChannel, word, prior, params_seq) -> list[TypicalProjector]:
    """Conditionally typical projectors of V^(x n)(word) with bound reports,
    one per entry of ``params_seq``; the letters' eigensystems are the
    channel's own."""
    prior = np.asarray(prior, dtype=float)
    symbols = np.asarray(word)
    a = len(v.input_alphabet)
    d = v.d_out
    n = len(word)
    if any(params.n != n for params in params_seq):
        raise QcoreError("word length must equal the block length")
    for delta in {params.delta for params in params_seq}:
        if np.any((symbols < 0) | (symbols >= len(prior))) or not _is_typical(
            np.bincount(symbols, minlength=len(prior)), prior, delta
        ):
            raise QcoreError("word is not typical for the prior")
    check_dim_cap(d ** n, "conditional typical projector")
    systems = {x: _grouped_eigensystem(v.letter_eigensystems[x]) for x in set(word)}
    spec = _spectrum(systems, word, n * conditional_channel_entropy(prior, v))
    return [_checked_window("cond", spec, params, d, a) for params in params_seq]


def conditional_typical_projector(
    v: CQChannel, word, prior, params: TypicalParams
) -> TypicalProjector:
    """Conditionally typical projector of V^(x n)(word) with bound report."""
    return conditional_typical_projectors(v, word, prior, [params])[0]


def _averaged_output(prior, v: CQChannel, params_seq):
    """The prior-averaged output state, and ``params_seq`` with every alpha
    scaled by sqrt(a) for the widths of its projectors."""
    prior = np.asarray(prior, dtype=float)
    a = len(v.input_alphabet)
    avg = sum(q * m for q, m in zip(prior, v.letters))
    scaled = [TypicalParams(params.n, params.delta, params.alpha * np.sqrt(a), params.k_const)
              for params in params_seq]
    return DensityOperator(avg), scaled


def averaged_output_projectors(prior, v: CQChannel, params_seq) -> list[TypicalProjector]:
    """Typical projectors of the prior-averaged output, widths scaled by
    sqrt(a), one per entry of ``params_seq``."""
    rho, scaled = _averaged_output(prior, v, params_seq)
    return typical_projectors(rho, scaled)


def averaged_output_projector(prior, v: CQChannel, params: TypicalParams) -> TypicalProjector:
    """Typical projector of the prior-averaged output, width scaled by sqrt(a)."""
    rho, [scaled] = _averaged_output(prior, v, [params])
    return typical_projector(rho, scaled)


def averaged_trace_checks(projs, v: CQChannel, word, params_seq) -> list[BoundCheck]:
    """Trace of the word's output against each averaged-output projector of
    one sweep, one check per entry of ``params_seq``.  The projectors share
    one spectrum, so the word's weights in its eigenbasis and their mass
    along its offset order are formed once."""
    spec = projs[0].spectrum
    a = len(v.input_alphabet)
    d = v.d_out
    u = spec.letter_unitaries[0]
    diagonals = {}
    for x in set(word):
        m = u.conj().T @ v.letters[x] @ u
        diagonals[x] = np.clip(np.real(np.diag(m)), 0.0, None)
    weights = accumulate_products([diagonals[x] for x in word])
    by_offset = (spec.by_offset[0], np.cumsum(weights[spec.order]))
    checks = []
    for proj, params in zip(projs, params_seq):
        n, alpha = params.n, params.alpha
        lhs = float(weights[proj.kept].sum())
        rhs = 1.0 - a * d / (4 * n * alpha ** 2)
        unit = d * (alpha * np.sqrt(a)) * np.sqrt(n)
        min_k = _min_k_for_mass(by_offset, rhs, unit)
        checks.append(BoundCheck("avg-trace", lhs, rhs, lhs >= rhs - 1e-12, min_k))
    return checks


# ---------------------------------------------------------------------------
# the double-projector sandwich


def sandwiched_output(v: CQChannel, word, prior, params: TypicalParams):
    """The word's output squeezed between its conditional and the averaged
    projector, plus the trace-norm deviation bound it must satisfy.

    Returns (matrix, deviation, bound).
    """
    q = sandwiched_outputs(v, [word], prior, params)[0]
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
    and a word's conditional projector Pc, both built afresh.

    It stays dense: ``verify``'s deviation records pin the rounding of this
    product, which the factor form of ``sandwich_factors`` would move.
    """
    pa, pc = avg.matrix, cond.matrix
    q = _sandwich(pa, pc, state)
    del pa, pc  # the trace-norm SVD needs neither projector
    return trace_norm(q - state)


def sandwiched_outputs(v: CQChannel, words, prior, params: TypicalParams, out=None) -> np.ndarray:
    """The sandwiched outputs Pa Pc rho(word) Pc Pa of several words, stacked
    along the first axis.

    The dimension cap is checked before ``out`` (a fresh (len(words), D, D)
    stack when it is None; it may be a view into a larger array) is filled
    one word at a time.  The averaged-output projector Pa is shared by every
    word, so its dense matrix is built once; each word's state and
    conditional projector Pc are dropped before the next word's.  Returns
    the stack.

    It stays dense: entanglement generation's nearly singular joint
    measurement would turn the factor form's rounding into moved fidelities.
    """
    dim = v.d_out ** params.n
    check_dim_cap(dim, "sandwiched output")
    if out is None:
        out = np.empty((len(words), dim, dim), dtype=complex)
    pa = None
    for k, word in enumerate(words):
        pc = conditional_typical_projector(v, word, prior, params).matrix
        if pa is None:
            pa = averaged_output_projector(prior, v, params).matrix
        out[k] = _sandwich(pa, pc, cq_word_state(v, word))
        del pc  # gone before the next word's projector is built
    return out


def sandwich_factors(v: CQChannel, words, prior, params: TypicalParams):
    """A factor G of each word's sandwiched output, Pa Pc rho(word) Pc Pa =
    G G^dag, yielded one word at a time as a D × r array, r <= rank Pc: the
    pretty-good decoder's form, with no projector matrix or word state.

    The dimension cap is checked at the call, so a caller may allocate its
    D × D accumulators once this returns.  Pc commutes with the word's
    state, so Pc rho Pc = F F^dag, F the kept eigen-words scaled by the
    square roots of their eigenvalue products; those come from the letters'
    own eigenvalues, not the window's group means.  G is F when Pa keeps
    every eigen-word, and Ua (Ua^dag F) otherwise, Ua the kept columns of
    Pa's eigenbasis, built once.
    """
    check_dim_cap(v.d_out ** params.n, "sandwiched output")
    return _factor_stream(v, words, prior, params)


def _factor_stream(v: CQChannel, words, prior, params: TypicalParams):
    avg = None
    for word in words:
        cond = conditional_typical_projector(v, word, prior, params)
        eigs = [np.clip(v.letter_eigensystems[x][0], 0.0, None) for x in word]
        f = _kept_columns(cond.spectrum.letter_unitaries, cond.kept)
        f *= np.sqrt(accumulate_products(eigs)[cond.kept])
        if avg is None:
            avg = averaged_output_projector(prior, v, params)
            ua = None if avg.kept.all() else _kept_columns(avg.spectrum.letter_unitaries, avg.kept)
        yield f if ua is None else ua @ (ua.conj().T @ f)


def _kept_columns(unitaries, kept) -> np.ndarray:
    """The columns of ``kron_chain(unitaries)`` that the mask ``kept``
    marks, as a D × rank array built from those columns' letters alone."""
    digits = np.unravel_index(np.flatnonzero(kept), [u.shape[1] for u in unitaries])
    cols = kron_chain([u.T[idx][:, :, None] for u, idx in zip(unitaries, digits)])
    return cols[:, :, 0].T
