"""Channel representations and the operations connecting them.

Covers classical stochastic matrices, classical-quantum maps, quantum
channels (one type, ``KrausChannel``, which stores the Stinespring
isometry and reads its Kraus operators off the environment slots),
complementary channels, a diamond-distance lower-bound estimator, and
finite tau-nets over the CPTP set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qcore import (
    CapExceededError,
    DensityOperator,
    QcoreError,
    TOL_RECON,
    TOL_TRACE,
    check_dim_cap,
    hermitian_eigensystem,
    kron_chain,
    psd_sqrt,
)


class ChannelError(QcoreError):
    """A channel failed validation or was applied out of domain."""


def _check_dims(**dims) -> None:
    for name, d in dims.items():
        if d < 1:
            raise ChannelError(f"{name} must be >= 1, got {d}")


@dataclass(frozen=True)
class ClassicalChannel:
    """Row-stochastic transition matrix between finite alphabets."""

    input_alphabet: tuple
    output_alphabet: tuple
    matrix: np.ndarray

    def __init__(self, input_alphabet, output_alphabet, matrix):
        object.__setattr__(self, "input_alphabet", tuple(input_alphabet))
        object.__setattr__(self, "output_alphabet", tuple(output_alphabet))
        m = np.array(matrix, dtype=float)
        if m.shape != (len(self.input_alphabet), len(self.output_alphabet)):
            raise ChannelError(f"matrix shape {m.shape} does not match alphabets")
        if m.min() < -1e-12 or m.max() > 1 + 1e-12:
            raise ChannelError("transition probabilities must lie in [0, 1]")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > TOL_TRACE:
            raise ChannelError("rows must sum to 1 within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def row(self, x) -> np.ndarray:
        return self.matrix[self.input_alphabet.index(x)]


@dataclass(frozen=True)
class CQChannel:
    """Classical inputs, quantum outputs: each symbol maps to a fixed state.

    ``letters`` is the read-only (a, d_out, d_out) stack of the validated
    output states in input-alphabet order; words are arrays of indices into it.
    ``letter_eigensystems`` diagonalises them once, on first use.
    """

    input_alphabet: tuple
    d_out: int
    letters: np.ndarray

    def __init__(self, input_alphabet, d_out: int, states):
        _check_dims(d_out=d_out)
        object.__setattr__(self, "input_alphabet", tuple(input_alphabet))
        object.__setattr__(self, "d_out", d_out)
        mats = []
        for x in self.input_alphabet:
            if x not in states:
                raise ChannelError(f"missing output state for symbol {x!r}")
            rho = states[x]
            if not isinstance(rho, DensityOperator):
                rho = DensityOperator(rho)
            if rho.dim != d_out:
                raise ChannelError(f"state for {x!r} has wrong dimension")
            mats.append(rho.matrix)
        letters = np.stack(mats)
        letters.setflags(write=False)
        object.__setattr__(self, "letters", letters)

    def state_matrix(self, x) -> np.ndarray:
        return self.letters[self.input_alphabet.index(x)]

    @cached_property
    def letter_eigensystems(self) -> tuple:
        """``hermitian_eigensystem`` of each letter, in input-alphabet order,
        as read-only (eigenvalues, eigenvectors) pairs."""
        systems = tuple(hermitian_eigensystem(m) for m in self.letters)
        for pair in systems:
            for arr in pair:
                arr.setflags(write=False)
        return systems


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map, stored once as its
    Stinespring isometry U: C^d_in -> out (x) env.

    Row o * env_dim + i of the read-only (d_out * env_dim, d_in) ``isometry``
    is row o of Kraus operator i, so ``kraus_ops`` are views of it, one
    environment slot each.
    """

    d_in: int
    d_out: int
    isometry: np.ndarray
    kraus_ops: tuple

    def __init__(self, d_in: int, d_out: int, kraus_ops):
        _check_dims(d_in=d_in, d_out=d_out)
        ops = [np.asarray(a, dtype=complex) for a in kraus_ops]
        if not ops:
            raise ChannelError("at least one Kraus operator required")
        for a in ops:
            if a.shape != (d_out, d_in):
                raise ChannelError(f"Kraus operator shape {a.shape} mismatch")
        u = np.stack(ops, axis=1).reshape(-1, d_in)
        if np.max(np.abs(u.conj().T @ u - np.eye(d_in))) > TOL_RECON:
            raise ChannelError("not an isometry: the Kraus operators fail completeness")
        u.setflags(write=False)
        object.__setattr__(self, "d_in", d_in)
        object.__setattr__(self, "d_out", d_out)
        object.__setattr__(self, "isometry", u)
        blocks = u.reshape(d_out, len(ops), d_in)
        object.__setattr__(self, "kraus_ops", tuple(blocks.transpose(1, 0, 2)))

    @classmethod
    def from_isometry(cls, d_in: int, d_out: int, env_dim: int, isometry) -> KrausChannel:
        """The channel of a Stinespring isometry with ``env_dim`` environment slots."""
        _check_dims(d_in=d_in, d_out=d_out, env_dim=env_dim)
        u = np.asarray(isometry, dtype=complex)
        if u.shape != (d_out * env_dim, d_in):
            raise ChannelError(f"isometry shape {u.shape} mismatch")
        ch = cls(d_in, d_out, u.reshape(d_out, env_dim, -1).swapaxes(0, 1))
        if env_dim > d_in ** 2 * d_out:
            raise ChannelError("environment dimension is unnecessarily large")
        return ch

    @property
    def env_dim(self) -> int:
        return len(self.kraus_ops)

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        return sum(a @ rho @ a.conj().T for a in self.kraus_ops)

    def basis_outputs(self, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Receiver and environment letters the channel induces on the
        columns of ``basis``: the two partial traces of U |b><b| U* for each
        column b, as two (d_in, ., .) stacks in column order."""
        u, do, de = self.isometry, self.d_out, self.env_dim
        bigs = [(u @ np.outer(b, b.conj()) @ u.conj().T).reshape(do, de, do, de) for b in basis.T]
        return (np.stack([np.trace(g, axis1=1, axis2=3) for g in bigs]),
                np.stack([np.trace(g, axis1=0, axis2=2) for g in bigs]))


def require_quantum(*channels) -> None:
    """Raise ChannelError unless every argument is a quantum channel."""
    for ch in channels:
        if not isinstance(ch, KrausChannel):
            raise ChannelError(f"only quantum channels are accepted, not a {type(ch).__name__}")


# variant -> channel kinds of its (legitimate, wiretap) members
_VARIANT_KINDS = {
    "classical": (ClassicalChannel, ClassicalChannel),
    "classical-quantum-wiretap": (ClassicalChannel, CQChannel),
    "cq": (CQChannel, CQChannel),
    "quantum": (KrausChannel, KrausChannel),
}


@dataclass(frozen=True)
class CompoundWiretapSpec:
    """Indexed family of (legitimate, wiretap) channel pairs under distinct
    state names, whose kinds match the variant."""

    variant: str
    names: tuple
    legitimate: tuple
    wiretap: tuple

    def __init__(self, variant, names, legitimate, wiretap):
        if variant not in _VARIANT_KINDS:
            raise ChannelError(f"unknown variant {variant!r}")
        names = tuple(names)
        legitimate = tuple(legitimate)
        wiretap = tuple(wiretap)
        if not names:
            raise ChannelError("state set must be nonempty")
        if not (len(names) == len(legitimate) == len(wiretap)):
            raise ChannelError("names and channel lists must align")
        if len(set(names)) < len(names):
            raise ChannelError("state names must be distinct")
        for role, kinds, members in zip(("legitimate", "wiretap"), _VARIANT_KINDS[variant],
                                        (legitimate, wiretap)):
            for ch in members:
                if not isinstance(ch, kinds):
                    raise ChannelError(f"variant {variant!r} does not take a "
                                       f"{type(ch).__name__} as a {role} channel")
        first = legitimate[0]
        for ch in legitimate + wiretap:
            if _input_signature(ch) != _input_signature(first):
                raise ChannelError("all members must share the input alphabet/space")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "legitimate", legitimate)
        object.__setattr__(self, "wiretap", wiretap)

    def __len__(self):
        return len(self.names)


def _input_signature(ch):
    """Input alphabet or input dimension; a variant's members all have one
    of the two, so they compare directly."""
    return ch.d_in if isinstance(ch, KrausChannel) else ch.input_alphabet


# ---------------------------------------------------------------------------
# application and n-fold extension


def cq_word_state(ch: CQChannel, words) -> np.ndarray:
    """Tensor-product output state of a cq channel for a word of letter
    indices, or one per word of a (..., n) stack: the Kronecker product of
    the word's letters, which were validated when the channel was built."""
    words = np.asarray(words, dtype=np.intp)
    check_dim_cap(ch.d_out ** words.shape[-1], "cq word output")
    return kron_chain(ch.letters[np.moveaxis(words, -1, 0)])


def n_fold(ch, n: int):
    """Memoryless n-fold extension of a quantum channel."""
    if n < 1:
        raise ChannelError("n must be >= 1")
    require_quantum(ch)
    if n == 1:
        return ch
    din, dout = ch.d_in ** n, ch.d_out ** n
    check_dim_cap(max(din, dout), "n-fold Kraus channel")
    if ch.env_dim ** n * din * dout > 2 ** 24:
        raise CapExceededError("n-fold Kraus operator count exceeds the cap")
    ops = [np.array([[1.0 + 0j]])]
    for _ in range(n):
        ops = [np.kron(o, a) for o in ops for a in ch.kraus_ops]
    return KrausChannel(din, dout, ops)


def complementary_channel(ch: KrausChannel) -> KrausChannel:
    """Map to the environment: trace the main output out of the dilation."""
    require_quantum(ch)
    blocks = ch.isometry.reshape(ch.d_out, ch.env_dim, ch.d_in)
    return KrausChannel(ch.d_in, ch.env_dim, blocks)


def choi_matrix(ch) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) N(|i><j|)."""
    require_quantum(ch)
    din, dout = ch.d_in, ch.d_out
    j = np.zeros((din * dout, din * dout), dtype=complex)
    for a in ch.kraus_ops:
        vec = a.T.reshape(-1)  # vec of A in |i>(x)|out> ordering
        j += np.outer(vec, vec.conj())
    return j


def kraus_equivalent(k1: KrausChannel, k2: KrausChannel, tol: float = TOL_RECON) -> bool:
    """Whether two Kraus lists describe the same channel (Choi comparison).

    Shorter lists are conceptually padded with zero operators; padding does
    not change the Choi matrix, so the comparison is direct.
    """
    if (k1.d_in, k1.d_out) != (k2.d_in, k2.d_out):
        raise ChannelError("channels act between different spaces")
    return bool(np.max(np.abs(choi_matrix(k1) - choi_matrix(k2))) <= tol)


# ---------------------------------------------------------------------------
# diamond-distance lower bound


def _apply_ref(ops, rho, dref):
    """Apply sum_k (id_ref (x) A_k) rho (...)* without forming big krons."""
    out = None
    for a in ops:
        lifted = np.kron(np.eye(dref), a)
        term = lifted @ rho @ lifted.conj().T
        out = term if out is None else out + term
    return out


def diamond_distance(n1, n2, restarts: int = 4, seed: int = 0) -> float:
    """Lower-bound estimate of the diamond distance between two channels.

    Maximizes the trace norm of (id (x) (N1 - N2)) over pure inputs on a
    reference (x) input system by see-saw ascent (Helstrom observable, then
    top eigenvector), from deterministic plus ``restarts`` random starts.
    The result is a certified LOWER bound only.
    """
    require_quantum(n1, n2)
    if (n1.d_in, n1.d_out) != (n2.d_in, n2.d_out):
        raise ChannelError("channels act between different spaces")
    din = n1.d_in
    dref = din

    def delta(rho):
        return _apply_ref(n1.kraus_ops, rho, dref) - _apply_ref(n2.kraus_ops, rho, dref)

    def delta_adj(obs):
        out = None
        for ops, sign in ((n1.kraus_ops, 1.0), (n2.kraus_ops, -1.0)):
            for a in ops:
                lifted = np.kron(np.eye(dref), a)
                term = sign * (lifted.conj().T @ obs @ lifted)
                out = term if out is None else out + term
        return out

    def value(psi):
        rho = np.outer(psi, psi.conj())
        return float(np.abs(np.linalg.eigvalsh(delta(rho))).sum())

    def seesaw(psi):
        best = value(psi)
        for _ in range(40):
            rho = np.outer(psi, psi.conj())
            w, v = np.linalg.eigh(delta(rho))
            obs = (v * np.sign(w)) @ v.conj().T
            h = delta_adj(obs)
            hw, hv = np.linalg.eigh(h)
            cand = hv[:, -1]
            cv = value(cand)
            if cv <= best + 1e-12:
                break
            psi, best = cand, cv
        return best

    starts = [np.eye(din, dtype=complex).reshape(-1) / np.sqrt(din)]
    for i in range(din):
        for r in range(dref):
            v = np.zeros(dref * din, dtype=complex)
            v[r * din + i] = 1.0
            starts.append(v)
    if din == 2:
        for bx, by, bz in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]:
            theta = math.acos(bz)
            phi = math.atan2(by, bx)
            q = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
            ref0 = np.zeros(dref)
            ref0[0] = 1.0
            starts.append(np.kron(ref0, q))
    for i in range(restarts):
        rng = np.random.default_rng([seed, i])
        v = rng.normal(size=dref * din) + 1j * rng.normal(size=dref * din)
        starts.append(v / np.linalg.norm(v))
    best = 0.0
    for s in starts:
        best = max(best, seesaw(s))
    return min(best, 2.0)


# ---------------------------------------------------------------------------
# tau-nets over the CPTP set


@dataclass(frozen=True)
class TauNet:
    """Finite family of channels declared to cover the CPTP set to radius tau.

    The next three fields record the lattice walk that built the net: how
    many offsets were CPTP-projected, how many of those projected onto an
    element already kept, and the L1 shell of the last offset projected.
    ``short_reason`` says why a walk kept fewer elements than its budget:
    ``cardinality_bound`` when the covering-number bound capped the net,
    ``offsets_exhausted`` when the walk ran out of offsets first.  It is
    None for a full net and for the singleton that tau >= 2 makes complete.
    """

    tau: float
    elements: tuple
    cardinality_bound: float
    d_in: int
    d_out: int
    offsets_projected: int = 0
    duplicates_dropped: int = 0
    last_shell: int = 0
    short_reason: str | None = None


def tau_net_cardinality_bound(d_in: int, tau: float):
    """The covering-number bound (3/tau)^(2 d_in^4).

    Returns an exact integer when 3/tau is integral, else a float
    (inf on overflow).
    """
    expo = 2 * d_in ** 4
    ratio = 3.0 / tau
    if abs(ratio - round(ratio)) < 1e-12:
        return int(round(ratio)) ** expo
    try:
        return ratio ** expo
    except OverflowError:
        return math.inf


def _hermitian_basis(dim: int):
    """Orthogonal Hermitian basis: diagonal units, then re/im off-diagonal pairs."""
    basis = []
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2)
            basis.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            basis.append(m)
    return basis


def project_cptp(j: np.ndarray, d_in: int, d_out: int, iters: int = 200) -> np.ndarray:
    """Alternating projections of a Hermitian Choi matrix onto the CPTP set."""
    eye_in = np.eye(d_in)

    def clip_then_correct(j):
        # PSD clip, then restore tr_out = I_in
        w, v = np.linalg.eigh(j)
        j = (v * np.clip(w, 0.0, None)) @ v.conj().T
        tr_out = np.trace(j.reshape(d_in, d_out, d_in, d_out), axis1=1, axis2=3)
        return j + np.kron((eye_in - tr_out) / d_out, np.eye(d_out))

    for _ in range(iters):
        j = clip_then_correct(j)
        if np.min(np.linalg.eigvalsh(j)) > -1e-12:
            break
    return clip_then_correct(j)


def choi_to_kraus(j: np.ndarray, d_in: int, d_out: int) -> KrausChannel:
    w, v = hermitian_eigensystem(j)
    ops = []
    for i in range(len(w)):
        if w[i] > 1e-12:
            ops.append(np.sqrt(w[i]) * v[:, i].reshape(d_in, d_out).T)
    comp = sum(a.conj().T @ a for a in ops)
    # tolerate alternating-projection residue by a final isometric repair
    fix = np.linalg.pinv(psd_sqrt(comp))
    ops = [a @ fix for a in ops]
    return KrausChannel(d_in, d_out, ops)


def _shell_vectors(n_params: int, shell: int):
    """Sign vectors in {0, 1, -1}^n_params of L1 norm ``shell``, in product order.

    A depth-first walk over positions, digits in the order 0, 1, -1, that
    prunes every prefix whose remaining mass cannot fit in the positions
    left.  Each step backs up to the rightmost position that can take its
    next digit and gives the suffix its smallest completion (zeros, then
    ones), so a vector costs O(n_params) and no recursion depth grows with
    n_params.
    """
    v = [0] * (n_params - shell) + [1] * shell
    while True:
        yield tuple(v)
        suffix = 0  # L1 mass of v[i + 1:]
        for i in range(n_params - 1, -1, -1):
            if v[i] == 1:
                v[i], rest = -1, suffix
                break
            if v[i] == 0 and suffix:
                v[i], rest = 1, suffix - 1
                break
            suffix += abs(v[i])
        else:
            return
        tail = n_params - 1 - i
        v[i + 1:] = [0] * (tail - rest) + [1] * rest


def _lattice_offsets(n_params: int, budget: int):
    """The first ``budget`` integer offset vectors in {0, 1, -1}^n_params.

    Order: the origin, then the L1 shells 1, 2, ... in turn, each shell in
    ``itertools.product((0, 1, -1), repeat=n_params)`` order.  The shell
    beyond n_params is empty, so the enumeration ends after all
    3^n_params vectors.  Cost: O(n_params) per vector, so linear in the
    budget.
    """
    yield (0,) * n_params
    produced = 1
    shell = 1
    while produced < budget and shell <= n_params:
        for signs in _shell_vectors(n_params, shell):
            yield signs
            produced += 1
            if produced >= budget:
                return
        shell += 1


def build_tau_net(d_in: int, d_out: int, tau: float, budget: int) -> TauNet:
    """Deterministic lattice discretization of Choi matrices, CPTP-projected.

    The declared covering radius is ``tau``; the cardinality never exceeds
    min(budget, ceil((3/tau)^(2 d_in^4))).  Any two CPTP maps are within
    diamond distance 2, so a request with tau >= 2 yields a singleton net.

    Offsets from the maximally mixed Choi matrix are taken from
    ``_lattice_offsets``: shells by L1 norm, product order within a shell,
    at most four per requested element.  Each offset is projected onto the
    CPTP set and kept unless it lands on an element already kept, so the
    cost is linear in the budget.
    """
    if budget < 1:
        raise ChannelError("budget must be positive")
    if d_in < 1 or d_out < 1:
        raise ChannelError("d_in and d_out must be positive")
    if not 0 < tau:
        raise ChannelError("tau must be positive")
    bound = tau_net_cardinality_bound(d_in, tau)
    center = np.kron(np.eye(d_in), np.eye(d_out) / d_out)
    if tau >= 2:
        elems = (choi_to_kraus(center, d_in, d_out),)
        return TauNet(tau, elems, bound, d_in, d_out)
    limit = budget if math.isinf(bound) else min(budget, int(math.ceil(bound)))
    dim = d_in * d_out
    basis = _hermitian_basis(dim)
    step = tau / (2.0 * dim)
    elements = []
    seen = set()
    projected = 0
    for offsets in _lattice_offsets(len(basis), limit * 4):
        j = center.copy()
        for coeff, b in zip(offsets, basis):
            if coeff:
                j = j + step * coeff * b
        j = project_cptp(j, d_in, d_out)
        projected += 1
        key = tuple(np.round(j, 8).reshape(-1).view(float))
        if key in seen:
            continue
        seen.add(key)
        elements.append(choi_to_kraus(j, d_in, d_out))
        if len(elements) >= limit:
            break
    short_reason = None
    if len(elements) < limit:
        short_reason = "offsets_exhausted"
    elif limit < budget:
        short_reason = "cardinality_bound"
    return TauNet(tau, tuple(elements), bound, d_in, d_out,
                  offsets_projected=projected,
                  duplicates_dropped=projected - len(elements),
                  last_shell=sum(map(abs, offsets)),
                  short_reason=short_reason)


# ---------------------------------------------------------------------------
# small constructors shared by tests and the CLI


def bsc(p: float) -> ClassicalChannel:
    return ClassicalChannel((0, 1), (0, 1), [[1 - p, p], [p, 1 - p]])


def identity_kraus(dim: int = 2) -> KrausChannel:
    return KrausChannel(dim, dim, [np.eye(dim)])


def depolarizing_kraus(p: float) -> KrausChannel:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = [
        np.sqrt(1 - 3 * p / 4) * np.eye(2),
        np.sqrt(p / 4) * sx,
        np.sqrt(p / 4) * sy,
        np.sqrt(p / 4) * sz,
    ]
    return KrausChannel(2, 2, ops)


def classical_to_cq(ch: ClassicalChannel) -> CQChannel:
    """Embed a classical channel as a cq channel with diagonal outputs."""
    states = {x: np.diag(ch.row(x)).astype(complex) for x in ch.input_alphabet}
    return CQChannel(ch.input_alphabet, len(ch.output_alphabet), states)
