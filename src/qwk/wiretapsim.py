"""Random-coding simulation for compound wiretap channels.

Codebooks are sampled i.i.d. from the truncated typical distribution;
decoding uses joint typicality (classical receivers) or the pretty-good
measurement over sandwiched outputs (quantum receivers).  Error statistics
are computed exactly whenever the output space is enumerable under the cap
and by Monte-Carlo otherwise; leakage is always computed exactly.

All randomness flows through a counter-based generator keyed by
(seed, stream, indices...), so any single sample is reproducible in
isolation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .channels import (
    CQChannel,
    ClassicalChannel,
    CompoundWiretapSpec,
    cq_word_state,
)
from .capacity import simplex_grid
from .infotheory import (
    cq_mutual_information,
    entropy_rows,
    mutual_information,
)
from .qcore import (
    CapExceededError,
    QcoreError,
    accumulate_products,
    check_dim_cap,
    hilbert_dim_cap,
    kron_chain,
    kron_columns,
    kron_halves,
    kron_matmul,
    pgm_inverse_sqrt,
    pretty_good_measurement,
    trace_norm,
)
from .streams import choice_cdf, counter_draws
from .typicality import (
    ENUM_CAP,
    TypicalParams,
    averaged_output_projector,
    conditional_typical_projector,
    enumerate_words,
    sandwiched_outputs,
    truncated_typical,
)

CLASSICAL_EXACT_CAP = 4096

_STREAM_CODEBOOK = 0
_STREAM_ERROR = 1
_STREAM_COVERING = 2
_STREAM_PROTOCOL = 3


@dataclass
class Codebook:
    """Array of input words indexed by (message j, randomization l)."""

    words: np.ndarray  # (J, L, n) symbol indices
    J: int
    L: int
    n: int
    source: dict


@dataclass
class SimReport:
    kind: str
    per_t: dict
    stats: dict
    seed: int
    trials: int
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# codebook sampling and sizing


def sample_codebook(p, n: int, J: int, L: int, seed: int, delta: float = 0.1) -> Codebook:
    """J*L words drawn i.i.d. from the truncated typical distribution."""
    if J < 1 or L < 1:
        raise QcoreError("J and L must be >= 1")
    words, probs = truncated_typical(p, n, delta)
    keys = np.indices((J, L)).reshape(2, -1).T
    _, u = counter_draws(seed, (_STREAM_CODEBOOK,), keys, (), 1)
    picks = np.searchsorted(choice_cdf(probs), u[:, 0], side="right")
    out = words[picks].reshape(J, L, n)
    return Codebook(out, J, L, n, {"p": list(np.asarray(p, float)), "delta": delta, "seed": seed})


def _wiretap_rate(p, ch) -> float:
    if isinstance(ch, ClassicalChannel):
        return mutual_information(p, ch)
    if isinstance(ch, CQChannel):
        return cq_mutual_information(p, ch)
    raise QcoreError("unsupported wiretap channel kind")


def sizes_from_rates(
    spec: CompoundWiretapSpec, p, n: int, rate_margin: float = 0.25, leak_margin: float = 0.0
):
    """Randomization depths and message count from the displayed size rules.

    Per state the randomization depth is ceil(2^(n(chi_t + 2*leak_margin))),
    at least 1, and the message count is
    floor(2^(n min_t(I_t - log(L_t)/n - rate_margin))); a nonpositive
    exponent is flagged and J clamps to 1.  A depth or message count above
    the codebook-entry cap ``ENUM_CAP`` raises CapExceededError before it is
    formed, since no codebook of that size could be sampled.
    """
    p = np.asarray(p, dtype=float)
    l_per_t = {}
    j_exponents = []
    for idx, name in enumerate(spec.names):
        chi = _wiretap_rate(p, spec.wiretap[idx])
        exponent = n * (chi + 2 * leak_margin)
        if exponent > np.log2(ENUM_CAP):
            raise CapExceededError(f"randomization depth 2^{exponent:.4g} of state {name} exceeds the cap")
        l_t = max(1, int(np.ceil(2 ** exponent)))
        l_per_t[name] = l_t
        legit = _wiretap_rate(p, spec.legitimate[idx])
        j_exponents.append(legit - np.log2(l_t) / n - rate_margin)
    j_exponent = n * min(j_exponents)
    if j_exponent > np.log2(ENUM_CAP):
        raise CapExceededError(f"message count 2^{j_exponent:.4g} exceeds the cap")
    j_raw = 2 ** j_exponent
    degenerate = j_raw < 1.0
    j = max(1, int(np.floor(j_raw)))
    return j, l_per_t, degenerate


def _enumerable(ch: ClassicalChannel, n: int) -> bool:
    """Whether the n-letter outputs of a classical channel are enumerated exactly."""
    return len(ch.output_alphabet) ** n <= CLASSICAL_EXACT_CAP


def _one_output_dimension(spec: CompoundWiretapSpec) -> None:
    """Refuse cq legitimate states of different output dimensions: one
    measurement, on one space, decodes every state's outputs."""
    dims = sorted({ch.d_out for ch in spec.legitimate if isinstance(ch, CQChannel)})
    if len(dims) > 1:
        raise QcoreError(f"legitimate cq states must share one output dimension, not {dims}")


def plan_simulation(spec: CompoundWiretapSpec, n: int, J: int, L: int) -> dict:
    """Every cap decision of a simulation run, taken from its sizes alone.

    The checks come in the order the run meets them: codebook sampling
    (typical-set enumeration and the J·L·n codebook entries), the decoder
    of the first state, the error per state (exact or Monte-Carlo; the
    first state's also sizes the pretty-good decoder) and the leakage per
    state.  A refused size raises CapExceededError here, and cq legitimate
    states of different output dimensions QcoreError, before any codebook
    is sampled; the same checks inside the run stay as they are.  Returns
    the decisions, with every cap and the size it was held against, as a
    JSON-ready record.
    """
    if J < 1 or L < 1:
        raise QcoreError("J and L must be >= 1")
    _one_output_dimension(spec)
    caps = []

    def within(check, t, size, cap) -> bool:
        caps.append({"check": check, "t": t, "size": size, "cap": cap})
        return size <= cap

    def dim_cap(check, t, ch: CQChannel) -> None:
        dim = ch.d_out ** n
        within(check, t, dim, hilbert_dim_cap())
        check_dim_cap(dim, check)

    a = len(spec.legitimate[0].input_alphabet)
    if not within("typical-set enumeration", None, a ** n, ENUM_CAP):
        raise CapExceededError(f"typical-set enumeration {a}^{n} exceeds the cap")
    if not within("codebook entries", None, J * L * n, ENUM_CAP):
        raise CapExceededError(f"codebook of {J}·{L}·{n} entries exceeds the cap")
    error, leakage = {}, {}
    for name, legit in zip(spec.names, spec.legitimate):
        if isinstance(legit, ClassicalChannel):
            b = len(legit.output_alphabet)
            within("classical error enumeration", name, b ** n, CLASSICAL_EXACT_CAP)
            error[name] = "exact" if _enumerable(legit, n) else "mc"
        elif isinstance(legit, CQChannel):
            dim_cap("cq word output", name, legit)
            error[name] = "exact"
        else:
            raise QcoreError("unsupported legitimate channel kind")
    for name, wire in zip(spec.names, spec.wiretap):
        if isinstance(wire, ClassicalChannel):
            z = len(wire.output_alphabet)
            if not within("classical leakage enumeration", name, z ** n, CLASSICAL_EXACT_CAP):
                raise CapExceededError("classical leakage enumeration exceeds the cap")
        elif isinstance(wire, CQChannel):
            dim_cap("wiretap block state", name, wire)
        else:
            raise QcoreError("unsupported wiretap channel kind")
        leakage[name] = "exact"
    return {"error": error, "leakage": leakage, "caps": caps}


# ---------------------------------------------------------------------------
# decoders


_DECODE_BLOCK_ENTRIES = 1 << 18  # count-tensor entries (2 MB) per block of output words


@dataclass
class TypicalityDecoder:
    """Joint-typicality decoding sets for a classical legitimate channel.

    y decodes to the smallest message with a conditionally typical codeword;
    anything left over is an error.
    """

    channel: ClassicalChannel
    codebook: Codebook
    delta: float

    def decide(self, y_words) -> np.ndarray:
        """Decisions for output words (one per row); -1 where none decodes.

        Joint-type counts counts[y, c, a, b] of every word against every
        codeword come from one product of one-hot encodings, in blocks of
        words that keep the tensor at a few MB.
        """
        w = self.channel.matrix
        a, b = w.shape
        cb = self.codebook
        n_code = cb.J * cb.L
        y_words = np.asarray(y_words, dtype=int)
        x = cb.words.reshape(n_code, cb.n)
        x_hot = (x[:, None, :] == np.arange(a)[None, :, None]).astype(float)  # (c, a, i)
        row_tot = x_hot.sum(axis=2)[None, :, :, None]  # occurrences of a in codeword c
        filled = row_tot > 0
        safe_tot = np.where(filled, row_tot, 1.0)
        x_flat = x_hot.reshape(n_code * a, cb.n)
        block = max(1, _DECODE_BLOCK_ENTRIES // (n_code * a * b))
        out = np.empty(len(y_words), dtype=int)
        for start in range(0, len(y_words), block):
            y = y_words[start:start + block]
            m = len(y)
            y_hot = (y.T[:, :, None] == np.arange(b)).astype(float).reshape(cb.n, m * b)  # (i, y b)
            counts = (x_flat @ y_hot).reshape(n_code, a, m, b).transpose(2, 0, 1, 3)
            emp = counts / safe_tot
            bad = ((emp > 0) & (w <= 0)) | (np.abs(emp - w) > self.delta + 1e-12)
            typical = ~np.any(bad & filled, axis=(2, 3))
            first = np.argmax(typical, axis=1)
            out[start:start + block] = np.where(typical.any(axis=1), first // cb.L, -1)
        return out


def _sandwich_terms(channel: CQChannel, words, prior, params: TypicalParams):
    """Per word, (A, B, mu, G): the halves of the word's Kronecker eigenbasis
    U = A (x) B (its first n // 2 letters and the rest), the raw letter
    eigenvalue products on the eigen-words Pc keeps (0 elsewhere), so that
    Pc rho Pc = U diag(mu) U^dag, and a factor G of the sandwiched output
    Pa Pc rho Pc Pa = G G^dag: U's kept columns scaled by sqrt(mu) when Pa
    keeps every eigen-word, and Ua (Ua^dag F) of those columns F otherwise,
    Ua the kept columns of Pa's eigenbasis.  G is None where the halves are
    cheaper: Pa keeps every eigen-word and rank Pc exceeds d^h + d^(n-h)."""
    avg = None
    for word in words:
        cond = conditional_typical_projector(channel, word, prior, params)
        if avg is None:
            avg = averaged_output_projector(prior, channel, params)
            ua = None if avg.kept.all() else kron_columns(
                *kron_halves(avg.spectrum.letter_unitaries), avg.kept)
        a, b = kron_halves(cond.spectrum.letter_unitaries)
        mu = cond.kept * accumulate_products(
            [np.clip(channel.letter_eigensystems[x][0], 0.0, None) for x in word])
        if ua is None and cond.rank > len(a) + len(b):
            yield a, b, mu, None
            continue
        g = kron_columns(a, b, cond.kept) * np.sqrt(mu[cond.kept])
        yield a, b, mu, g if ua is None else ua @ (ua.conj().T @ g)


@dataclass
class PrettyGoodDecoder:
    """Square-root measurement over the per-message means of the sandwiched
    codeword outputs, projected with the prior the codebook was drawn from,
    in factor form.

    With G_w from ``_sandwich_terms``, S = (1/L) sum_w G_w G_w^dag and
    H_w = S^-1/2 G_w, message j's element is E_j = (1/L) sum_l H_jl H_jl^dag,
    and ``factors[j]`` is [H_j1 | ... | H_jL]: no element, projector matrix
    or word state is formed.  Where G_w is None, S's term U mu U^dag and
    S^-1/2 U are each two batched products over U's halves, D² (d^h +
    d^(n-h)) multiplications instead of D² rank Pc, and H_w is the kept
    columns of S^-1/2 U scaled by sqrt(mu).
    """

    factors: list  # per message j, the (D, R_j) factor [H_j1 | ... | H_jL]

    @classmethod
    def build(cls, channel: CQChannel, codebook: Codebook, params: TypicalParams):
        dim = channel.d_out ** codebook.n
        check_dim_cap(dim, "sandwiched output")
        terms = list(_sandwich_terms(channel, codebook.words.reshape(-1, codebook.n),
                                     codebook.source["p"], params))
        s = np.zeros((dim, dim), dtype=complex)
        for a, b, mu, g in terms:  # U diag(mu) U^dag = kron(A, B) @ (kron(A^dag, B^dag) * mu)
            s += g @ g.conj().T if g is not None else kron_matmul(
                a, b, kron_chain([a.conj().T, b.conj().T]) * mu[:, None])
        s /= codebook.L
        inv_sqrt = pgm_inverse_sqrt(s)
        del s
        factors = []
        while terms:  # S^-1/2 U = (kron(A^T, B^T) @ S^-1/2^T)^T
            block, terms = terms[:codebook.L], terms[codebook.L:]
            factors.append(np.hstack([inv_sqrt @ g if g is not None else (
                kron_matmul(a.T, b.T, inv_sqrt.T).T[:, mu > 0] * np.sqrt(mu[mu > 0]))
                for a, b, mu, g in block]))
        return cls(factors)


def build_decoder(spec: CompoundWiretapSpec, codebook: Codebook, delta: float = 0.15,
                  params: TypicalParams | None = None, t_index: int = 0):
    """Decoder for the legitimate channel of the given state index."""
    legit = spec.legitimate[t_index]
    if isinstance(legit, ClassicalChannel):
        return TypicalityDecoder(legit, codebook, delta)
    if isinstance(legit, CQChannel):
        if params is None:
            # project with the slack the codewords were drawn with
            delta = codebook.source.get("delta", TypicalParams.delta)
            params = TypicalParams(n=codebook.n, delta=delta)
        return PrettyGoodDecoder.build(legit, codebook, params)
    raise QcoreError("unsupported legitimate channel kind")


# ---------------------------------------------------------------------------
# error evaluation


def eval_error(
    spec: CompoundWiretapSpec,
    codebook: Codebook,
    decoder,
    trials: int = 2000,
    seed: int = 0,
) -> SimReport:
    """Per-state max-over-message average decoding error of the codebook.

    Classical outputs are enumerated exactly when |B|^n is under the cap;
    otherwise the error is estimated by Monte-Carlo with a standard error.
    Quantum receivers are always evaluated exactly.
    """
    if trials < 1:
        raise QcoreError("trials must be >= 1")
    per_t = {}
    for idx, name in enumerate(spec.names):
        legit = spec.legitimate[idx]
        if isinstance(legit, ClassicalChannel):
            if _enumerable(legit, codebook.n):
                per_t[name] = _exact_classical_error(legit, codebook, decoder)
            else:
                per_t[name] = _mc_classical_error(legit, codebook, decoder, trials, seed, idx)
        elif isinstance(legit, CQChannel):
            per_t[name] = _exact_quantum_error(legit, codebook, decoder)
        else:
            raise QcoreError("unsupported legitimate channel kind")
    return SimReport(
        kind="error",
        per_t=per_t,
        stats={"max_over_t": max(v["max_error"] for v in per_t.values())},
        seed=seed,
        trials=trials,
        params={"J": codebook.J, "L": codebook.L, "n": codebook.n},
    )


def _exact_classical_error(legit: ClassicalChannel, codebook: Codebook, decoder) -> dict:
    b = len(legit.output_alphabet)
    y_words = enumerate_words(b, codebook.n, 0, b ** codebook.n)
    decisions = decoder.decide(y_words)
    per_j = []
    for j in range(codebook.J):
        wrong_mask = decisions != j
        err = 0.0
        for l in range(codebook.L):
            probs = accumulate_products(legit.matrix[codebook.words[j, l]])
            err += probs[wrong_mask].sum() / codebook.L
        per_j.append(float(err))
    return {"max_error": float(max(per_j)), "per_j": per_j, "method": "exact"}


_MC_BLOCK_TRIALS = 1 << 11  # Monte-Carlo trials drawn and decoded together


def _mc_classical_error(
    legit: ClassicalChannel, codebook: Codebook, decoder, trials: int, seed: int, t_idx: int
) -> dict:
    """Trial k of message j draws ``integers(L)`` and one uniform per letter
    from the stream (seed, error, t, j, k), in blocks of ``_MC_BLOCK_TRIALS``."""
    cdf = choice_cdf(legit.matrix)
    per_j = []
    per_j_se = []
    for j in range(codebook.J):
        wrong = 0
        for start in range(0, trials, _MC_BLOCK_TRIALS):
            keys = np.arange(start, min(trials, start + _MC_BLOCK_TRIALS))[:, None]
            l, u = counter_draws(seed, (_STREAM_ERROR, t_idx, j), keys, (codebook.L,), codebook.n)
            y = np.count_nonzero(cdf[codebook.words[j, l[:, 0]]] <= u[..., None], axis=-1)
            wrong += int(np.count_nonzero(decoder.decide(y) != j))
        p_hat = wrong / trials
        per_j.append(float(p_hat))
        per_j_se.append(float(np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / trials)))
    worst = int(np.argmax(per_j))
    return {
        "max_error": per_j[worst],
        "per_j": per_j,
        "stderr": per_j_se[worst],
        "method": "mc",
    }


def _exact_quantum_error(legit: CQChannel, codebook: Codebook, decoder) -> dict:
    """1 - (1/L) sum_l tr(E_j rho(x_jl)) per message, read off the decoder's
    factor H_j: tr(E_j rho) = vdot(H_j, rho H_j) / L, and rho H_j is
    (P (x) Q) H_j, two batched products with the Kronecker products P and Q
    of the word's two halves of letters, so neither an element nor a D × D
    word state is formed."""
    per_j = []
    for factor, words in zip(decoder.factors, codebook.words):
        hit = sum(np.vdot(factor, kron_matmul(*kron_halves(legit.letters[w]), factor)).real
                  for w in words)
        per_j.append(float(1.0 - hit / codebook.L / codebook.L))
    return {"max_error": float(max(per_j)), "per_j": per_j, "method": "exact"}


# ---------------------------------------------------------------------------
# leakage


def eval_leakage(spec: CompoundWiretapSpec, codebook: Codebook) -> SimReport:
    """Exact leakage of the uniform message through each wiretap channel."""
    per_t = {}
    for idx, name in enumerate(spec.names):
        wire = spec.wiretap[idx]
        if isinstance(wire, ClassicalChannel):
            per_t[name] = {"leakage": _classical_leakage(wire, codebook)}
        elif isinstance(wire, CQChannel):
            per_t[name] = {"leakage": _quantum_leakage(wire, codebook)}
        else:
            raise QcoreError("unsupported wiretap channel kind")
    return SimReport(
        kind="leakage",
        per_t=per_t,
        stats={"max_over_t": max(v["leakage"] for v in per_t.values()),
               "log2_J": float(np.log2(codebook.J))},
        seed=int(codebook.source.get("seed", 0)),
        trials=0,
        params={"J": codebook.J, "L": codebook.L, "n": codebook.n},
    )


def _classical_leakage(wire: ClassicalChannel, codebook: Codebook) -> float:
    if not _enumerable(wire, codebook.n):
        raise CapExceededError("classical leakage enumeration exceeds the cap")
    dists = np.stack([sum(accumulate_products(wire.matrix[x]) for x in words) / codebook.L
                      for words in codebook.words])
    h = entropy_rows(np.vstack([dists.mean(axis=0), dists]))
    return max(0.0, float(h[0] - np.mean(h[1:])))


def _quantum_leakage(wire: CQChannel, codebook: Codebook) -> float:
    """S(rho_bar) - (1/J) sum_j S(rho_j), each term a mixture of word states."""
    check_dim_cap(wire.d_out ** codebook.n, "wiretap block state")
    s_avg = _mixture_entropy(wire, codebook.words.reshape(-1, codebook.n))
    s_msg = [_mixture_entropy(wire, words) for words in codebook.words]
    return max(0.0, s_avg - float(np.mean(s_msg)))


def _differing(words: np.ndarray) -> np.ndarray:
    """Mask of the positions where the (K, n) words do not all carry one letter."""
    return (words != words[:1]).any(axis=0)


def _mixture_entropy(ch: CQChannel, words) -> float:
    """von Neumann entropy of the uniform mixture of the word states of (K, n) words.

    The positions where all K words carry the same letter are a product
    factor of the mixture.  Its spectrum is therefore the outer product of
    those letters' spectra with the spectrum of the mixture restricted to
    the differing positions, a d^(#differing) matrix summed word by word
    (no matrix at all when no position differs).  The floor of
    ``entropy_rows`` applies once, to the full product spectrum.
    """
    differ = _differing(words)
    spectrum = accumulate_products(np.linalg.eigvalsh(ch.letters)[words[0, ~differ]])
    if differ.any():
        mix = 0.0
        for word in words[:, differ]:
            mix += cq_word_state(ch, word)
        spectrum = np.outer(spectrum, np.linalg.eigvalsh(mix / len(words))).reshape(-1)
    return float(entropy_rows(np.clip(spectrum, 0.0, None)))


def leakage_dims(spec: CompoundWiretapSpec, codebook: Codebook) -> dict:
    """Per cq wiretap state, the dimension that ``eval_leakage`` diagonalises
    for the average state and for the largest message state (1 when no
    position differs); None for a classical wiretapper."""
    average = int(_differing(codebook.words.reshape(-1, codebook.n)).sum())
    message = max(int(_differing(words).sum()) for words in codebook.words)
    return {name: {"average": wire.d_out ** average,
                   "max_message": wire.d_out ** message}
            if isinstance(wire, CQChannel) else None
            for name, wire in zip(spec.names, spec.wiretap)}


# ---------------------------------------------------------------------------
# covering concentration


def covering_concentration(
    v: CQChannel,
    p,
    n: int,
    l_schedule: Sequence[int],
    trials: int,
    seed: int,
    params: TypicalParams | None = None,
    epsilon: float = 0.1,
) -> SimReport:
    """Distribution of the trace-norm gap between the depth-L empirical
    average of sandwiched outputs and their exact truncated-typical
    expectation, over i.i.d. draws.

    The expectation is computed exactly from the enumerated typical words; deviations are reported per randomization depth together with
    the empirical exceedance frequency at the given epsilon.
    """
    if params is None:
        params = TypicalParams(n=n)
    if trials < 1:
        raise QcoreError("trials must be >= 1")
    prior = np.asarray(p, dtype=float)
    words, probs = truncated_typical(prior, n, params.delta)
    q_ops = sandwiched_outputs(v, words, prior, params)
    mean_op = np.einsum("w,wjk->jk", probs, q_ops)
    cdf = choice_cdf(probs)
    keys = np.arange(trials)[:, None]
    per_l = {}
    for l_depth in l_schedule:
        # trial k's picks are choice(size=l_depth, p=probs) on (seed, covering, l_depth, k)
        _, u = counter_draws(seed, (_STREAM_COVERING, l_depth), keys, (), l_depth)
        picks = np.searchsorted(cdf, u, side="right")
        avgs = np.empty((trials,) + mean_op.shape, dtype=q_ops.dtype)
        for k in range(trials):
            avgs[k] = q_ops[picks[k]].mean(axis=0)
        devs = trace_norm(avgs - mean_op)
        per_l[int(l_depth)] = {
            "median": _median(devs),
            "mean": float(devs.mean()),
            "exceed_frac": float((devs > epsilon).mean()),
        }
    return SimReport(
        kind="covering",
        per_t={},
        stats={"per_L": per_l, "epsilon": epsilon,
               "medians_decreasing": _strictly_decreasing([per_l[int(l)]["median"] for l in l_schedule])},
        seed=seed,
        trials=trials,
        params={"n": n, "L_schedule": [int(x) for x in l_schedule], "p": list(prior)},
    )


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, to the bit: the middle of the
    sorted values, or the mean of the middle two.  numpy's own median
    imports ``numpy.ma`` for its NaN check."""
    s = np.sort(values)
    m = len(s) // 2
    if np.isnan(s[-1]):  # the sort puts NaNs last; the median of any is NaN
        return float(s[-1])
    return float(s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2)


def _strictly_decreasing(vals) -> bool:
    return all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# two-part protocol: state report first, then the state-specific code


def _min_rate_over_states(spec: CompoundWiretapSpec, resolution: int = 16) -> float:
    """Best worst-state single-letter rate of the legitimate family."""
    a = len(spec.legitimate[0].input_alphabet)
    best = 0.0
    for q in simplex_grid(resolution, a):
        best = max(best, min(_wiretap_rate(q, w) for w in spec.legitimate))
    return best


def _two_part_exact(spec, t_idx, block1_words, codebook, decoder) -> dict:
    """cq receivers: the pretty-good measurement over the per-state block-1
    word states fails with probability 1 - tr(E_t rho_t); block 2 is then
    decoded with the exact error of the true state's code."""
    b1_fail = 0.0
    if len(spec) > 1:
        states = np.stack([cq_word_state(ch, w)
                           for ch, w in zip(spec.legitimate, block1_words)])
        povm_t = pretty_good_measurement(states)[t_idx]
        b1_fail = float(1.0 - np.vdot(povm_t, states[t_idx]).real)
    b2_given = _exact_quantum_error(spec.legitimate[t_idx], codebook, decoder)["max_error"]
    return {
        "block1_fail_rate": b1_fail,
        "block2_fail_given_success": b2_given,
        "total_error_rate": b1_fail + b2_given * (1 - b1_fail),
    }


def _two_part_mc(spec, t_idx, block1_words, codebook, decoder, trials, seed) -> dict:
    """Classical receivers, by Monte Carlo: a maximum-likelihood state
    decision on the block-1 output, then typicality decoding of block 2.
    Trial k draws ``integers(J)``, ``integers(L)`` and one uniform per
    letter of block 1 (when there is a state to decide) and of block 2 from
    the stream (seed, protocol, 1, k), in blocks of ``_MC_BLOCK_TRIALS``."""
    cdf = choice_cdf(spec.legitimate[t_idx].matrix)
    n1 = block1_words.shape[1] if len(spec) > 1 else 0
    block1_words = block1_words[:, :n1]  # one state decides itself on no letters
    b1_fail = b2_fail = 0
    for start in range(0, trials, _MC_BLOCK_TRIALS):
        keys = np.arange(start, min(trials, start + _MC_BLOCK_TRIALS))[:, None]
        jl, u = counter_draws(seed, (_STREAM_PROTOCOL, 1), keys, (codebook.J, codebook.L),
                              n1 + codebook.n)
        y1 = np.count_nonzero(cdf[block1_words[t_idx]] <= u[:, :n1, None], axis=-1)
        t_hat, best = np.zeros(len(keys), dtype=int), np.full(len(keys), -np.inf)
        for ti, (ch, word) in enumerate(zip(spec.legitimate, block1_words)):
            ll = np.sum(np.log(np.clip(ch.matrix[word, y1], 1e-300, None)), axis=1)
            better = ll > best + 1e-12
            t_hat[better], best[better] = ti, ll[better]
        ok = t_hat == t_idx
        b1_fail += int(np.count_nonzero(~ok))
        j, l = jl[ok].T
        y2 = np.count_nonzero(cdf[codebook.words[j, l]] <= u[ok, n1:, None], axis=-1)
        b2_fail += int(np.count_nonzero(decoder.decide(y2) != j))
    successes = trials - b1_fail
    return {
        "block1_fail_rate": b1_fail / trials,
        "block2_fail_given_success": b2_fail / successes if successes else 0.0,
        "total_error_rate": (b1_fail + b2_fail) / trials,
    }


def two_part_protocol(
    spec: CompoundWiretapSpec,
    t_true,
    n1: int,
    n2: int,
    J: int,
    L: int,
    trials: int,
    seed: int,
    delta: float = 0.15,
    p=None,
) -> SimReport:
    """Send the channel state with a short first block, then the message
    with that state's code.

    Only the true state's codebook is sampled and only its decoder built: a
    mis-decoded state counts as an error whatever block 2 would give, so no
    other state's code is ever used.  cq receivers are evaluated exactly;
    classical receivers by Monte Carlo over ``trials`` runs.  The first block
    is not required to be secure; leakage is evaluated on the second block
    only.
    """
    for arg, value, least in (("trials", trials, 1), ("n1", n1, 0), ("n2", n2, 1)):
        if value < least:
            raise QcoreError(f"{arg} must be >= {least}")
    if t_true not in spec.names:
        raise QcoreError(f"t_true {t_true!r} is not a state of the spec")
    _one_output_dimension(spec)
    t_idx = spec.names.index(t_true)
    a = len(spec.legitimate[0].input_alphabet)
    if p is None:
        p = np.full(a, 1.0 / a)
    p = np.asarray(p, dtype=float)
    if _min_rate_over_states(spec) <= 1e-9:
        return SimReport(
            kind="two-part",
            per_t={},
            stats={"degenerate": True},
            seed=seed,
            trials=0,
            params={"reason": "state information cannot be transmitted"},
        )
    states = np.arange(len(spec))[:, None]
    block1_words, _ = counter_draws(seed, (_STREAM_PROTOCOL, 0), states, (a,) * n1, 0)
    codebook = sample_codebook(p, n2, J, L, seed + 1000 + t_idx, delta=delta)
    decoder = build_decoder(spec, codebook, delta=delta, params=TypicalParams(n=n2, delta=delta),
                            t_index=t_idx)
    if isinstance(spec.legitimate[t_idx], CQChannel):
        stats = {**_two_part_exact(spec, t_idx, block1_words, codebook, decoder),
                 "t_true": str(t_true), "method": "exact"}
        trials = 0
    else:
        stats = {**_two_part_mc(spec, t_idx, block1_words, codebook, decoder, trials, seed),
                 "t_true": str(t_true)}
    leak = eval_leakage(spec, codebook)
    return SimReport(
        kind="two-part",
        per_t={name: {"leakage": leak.per_t[name]["leakage"]} for name in spec.names},
        stats={"degenerate": False, **stats},
        seed=seed,
        trials=trials,
        params={"n1": n1, "n2": n2, "J": J, "L": L, "delta": delta},
    )
