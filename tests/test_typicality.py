import dataclasses
import itertools
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwk.channels import CQChannel
from qwk.qcore import (
    CapExceededError,
    DensityOperator,
    QcoreError,
    accumulate_products,
    kron_chain,
    kron_columns,
    kron_matmul,
    psd_sqrt,
    random_density,
    random_unitary,
    trace_norm,
)
from qwk.typicality import (
    BoundCheck,
    TypicalParams,
    TypicalProjector,
    averaged_output_projector,
    averaged_output_projectors,
    conditional_typical_projector,
    conditional_typical_projectors,
    sandwiched_output,
    sandwiched_outputs,
    averaged_trace_checks,
    truncated_typical,
    typical_projector,
    typical_projectors,
    typical_set,
)

A = 2


def former_averaged_trace_check(proj, v, word, params):
    """Reference: the former one-projector check, which formed the word's
    weights and sorted its spectrum's offsets afresh for every projector."""
    n, alpha = params.n, params.alpha
    a, d = len(v.input_alphabet), v.d_out
    u = proj.spectrum.letter_unitaries[0]
    diagonals = {x: np.clip(np.real(np.diag(u.conj().T @ v.letters[x] @ u)), 0.0, None)
                 for x in set(word)}
    weights = accumulate_products([diagonals[x] for x in word])
    lhs = float(weights[proj.kept].sum())
    rhs = 1.0 - a * d / (4 * n * alpha ** 2)
    unit = d * (alpha * np.sqrt(a)) * np.sqrt(n)
    order = np.argsort(proj.spectrum.offsets)
    offsets, cum = proj.spectrum.offsets[order], np.cumsum(weights[order])
    idx = np.searchsorted(cum, rhs - 1e-15)
    min_k = float("inf") if idx >= len(offsets) else float(offsets[idx] / unit)
    return BoundCheck("avg-trace", lhs, rhs, lhs >= rhs - 1e-12, min_k)


def word_probability(p, word) -> float:
    """Product probability of a word, letter by letter from 1.0."""
    out = 1.0
    for x in word:
        out *= p[x]
    return out


class TestTypicalSet:
    def test_uniform_large_delta_keeps_everything(self):
        words = typical_set([0.5, 0.5], 2, 0.5)
        assert len(words) == 4

    def test_point_mass_keeps_only_constant_word(self):
        words = typical_set([1.0, 0.0], 5, 0.2)
        assert words.tolist() == [[0, 0, 0, 0, 0]]

    def test_balanced_words_enumeration(self):
        words = typical_set([0.5, 0.5], 4, 0.1)
        # oracle: exhaustive enumeration of exactly balanced words
        oracle = [list(w) for w in itertools.product(range(2), repeat=4) if sum(w) == 2]
        assert words.tolist() == oracle
        assert words.shape == (6, 4) and words.dtype == np.int64

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            typical_set([0.5, 0.5], 30, 0.1)

    def test_peak_memory_holds_one_copy_of_the_words(self):
        # kept rows and their concatenation coexisting would peak at 2x
        tracemalloc.start()
        try:
            words = typical_set([0.5, 0.5], 18, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert words.shape == (136136, 18)
        assert peak < 1.5 * words.nbytes


class TestTruncatedTypical:
    def test_point_mass(self):
        words, probs = truncated_typical([1.0, 0.0], 4, 0.1)
        assert words.tolist() == [[0, 0, 0, 0]]
        assert probs[0] == pytest.approx(1.0)

    def test_uniform_large_delta(self):
        words, probs = truncated_typical([0.5, 0.5], 3, 0.6)
        assert len(words) == 8
        assert np.allclose(probs, 1 / 8)

    def test_weighted_masses_sum_to_one(self):
        words, probs = truncated_typical([0.8, 0.2], 5, 0.1)
        # with this slack only words with exactly one '1' qualify
        assert all(sum(w) == 1 for w in words)
        assert len(words) == 5
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        raw = np.array([word_probability([0.8, 0.2], w) for w in words])
        assert np.allclose(probs, raw / raw.sum())

    def test_empty_typical_set_rejected(self):
        with pytest.raises(QcoreError):
            truncated_typical([0.5, 0.5], 3, 0.01)


class TestTypicalProjector:
    def test_maximally_mixed_gives_identity(self):
        params = TypicalParams(n=3, alpha=1.0)
        proj = typical_projector(DensityOperator(np.eye(2) / 2), params)
        assert proj.rank == 8
        assert proj.trace_with_reference() == pytest.approx(1.0)
        assert np.allclose(proj.matrix, np.eye(8))

    def test_pure_state_gives_rank_one(self):
        params = TypicalParams(n=4, alpha=1.0)
        proj = typical_projector(DensityOperator(np.diag([1.0, 0.0])), params)
        assert proj.rank == 1
        assert proj.trace_with_reference() == pytest.approx(1.0)

    def test_diag_07_03_all_bounds_pass_at_k1(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        params = TypicalParams(n=8, alpha=1.0, k_const=1.0)
        proj = typical_projector(rho, params)
        assert all(c.passed for c in proj.checks)
        assert proj.rank >= 1

    def test_projector_is_projector_and_commutes(self):
        rng = np.random.default_rng(0)
        rho = random_density(A, rng)
        params = TypicalParams(n=4, alpha=0.7)
        proj = typical_projector(rho, params)
        p = proj.matrix
        assert np.max(np.abs(p @ p - p)) < 1e-8
        assert np.max(np.abs(p - p.conj().T)) < 1e-10
        ref = rho.matrix
        full = np.array([[1.0 + 0j]])
        for _ in range(4):
            full = np.kron(full, ref)
        assert np.max(np.abs(p @ full - full @ p)) < 1e-8

    def test_trace_matches_dense_computation(self):
        rng = np.random.default_rng(1)
        rho = random_density(A, rng)
        params = TypicalParams(n=3, alpha=0.5)
        proj = typical_projector(rho, params)
        full = np.array([[1.0 + 0j]])
        for _ in range(3):
            full = np.kron(full, rho.matrix)
        dense = np.trace(full @ proj.matrix).real
        assert proj.trace_with_reference() == pytest.approx(dense, abs=1e-10)

    def test_spectrum_is_stored_and_computed_once(self, monkeypatch):
        import qwk.typicality as ty

        rng = np.random.default_rng(5)
        rho = random_density(A, rng)
        v = CQChannel((0, 1), A, {0: rho.matrix, 1: np.diag([0.4, 0.6])})
        calls = []
        products = ty.accumulate_products

        def counted(per_letter):
            calls.append(len(per_letter))
            return products(per_letter)

        monkeypatch.setattr(ty, "accumulate_products", counted)
        params = TypicalParams(n=4, alpha=1.0)
        state = typical_projector(rho, params)
        cond = conditional_typical_projector(v, (0, 1, 1, 0), [0.5, 0.5], params)
        assert calls == [4, 4]
        full = np.array([[1.0 + 0j]])
        for _ in range(4):
            full = np.kron(full, rho.matrix)
        assert np.allclose(np.sort(state.spectrum.probs), np.linalg.eigvalsh(full), atol=1e-12)
        for proj in (state, cond):
            live = proj.spectrum.probs > 1e-12
            assert np.allclose(proj.spectrum.neglogs[live], -np.log2(proj.spectrum.probs[live]))
            assert proj.trace_with_reference() == float(proj.spectrum.probs[proj.kept].sum())

    def test_bound_suite_qubits(self):
        rng = np.random.default_rng(2)
        states = [DensityOperator(np.diag([0.7, 0.3]))]
        states += [random_density(A, rng) for _ in range(10)]
        for rho in states:
            for n in (4, 6, 8, 10):
                for alpha in (0.5, 1.0, 2.0):
                    proj = typical_projector(rho, TypicalParams(n=n, alpha=alpha))
                    for c in proj.checks:
                        assert c.passed, (
                            f"{c.bound_id} failed: lhs={c.lhs} rhs={c.rhs} "
                            f"n={n} alpha={alpha} eigs={np.linalg.eigvalsh(rho.matrix)}"
                        )

    def test_report_records(self):
        proj = typical_projector(DensityOperator(np.eye(2) / 2), TypicalParams(n=2))
        recs = [c.as_record() for c in proj.checks]
        assert {r["bound_id"] for r in recs} == {"state-trace", "state-rank", "state-peak"}
        for r in recs:
            assert set(r) == {"bound_id", "lhs", "rhs", "pass", "min_k"}


def binary_cq(m0, m1):
    return CQChannel((0, 1), A, {0: np.asarray(m0, dtype=complex), 1: np.asarray(m1, dtype=complex)})


class TestConditionalProjector:
    def test_pure_outputs_rank_one(self):
        v = binary_cq(np.diag([1.0, 0.0]), [[0.5, 0.5], [0.5, 0.5]])
        params = TypicalParams(n=4, alpha=1.0)
        word = (0, 1, 0, 1)
        proj = conditional_typical_projector(v, word, [0.5, 0.5], params)
        assert proj.rank == 1
        assert proj.checks[0].lhs == pytest.approx(1.0)

    def test_constant_mixed_output_identity(self):
        v = binary_cq(np.eye(2) / 2, np.eye(2) / 2)
        params = TypicalParams(n=4, alpha=1.0)
        proj = conditional_typical_projector(v, (0, 0, 1, 1), [0.5, 0.5], params)
        assert proj.rank == 16

    def test_binary_channel_bounds_pass(self):
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        params = TypicalParams(n=6, alpha=1.0)
        proj = conditional_typical_projector(v, (0, 0, 0, 1, 1, 1), [0.5, 0.5], params)
        assert all(c.passed for c in proj.checks)

    def test_atypical_word_rejected(self):
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        params = TypicalParams(n=6, alpha=1.0, delta=0.1)
        with pytest.raises(QcoreError):
            conditional_typical_projector(v, (0, 0, 0, 0, 0, 0), [0.5, 0.5], params)

    def test_commutes_with_word_state(self):
        v = binary_cq(np.diag([0.7, 0.3]), [[0.6, 0.2], [0.2, 0.4]])
        params = TypicalParams(n=4, alpha=0.5)
        word = (0, 1, 1, 0)
        proj = conditional_typical_projector(v, word, [0.5, 0.5], params)
        state = np.array([[1.0 + 0j]])
        for x in word:
            state = np.kron(state, v.state_matrix(x))
        p = proj.matrix
        assert np.max(np.abs(p @ p - p)) < 1e-8
        assert np.max(np.abs(p @ state - state @ p)) < 1e-8


class TestAveragedProjector:
    def test_single_symbol_reduces_to_state_projector(self):
        v = CQChannel((0,), A, {0: np.diag([0.7, 0.3])})
        params = TypicalParams(n=4, alpha=1.0)
        proj = averaged_output_projector([1.0], v, params)
        base = typical_projector(
            DensityOperator(np.diag([0.7, 0.3])),
            TypicalParams(n=4, alpha=1.0),
        )
        assert proj.rank == base.rank

    def test_pure_common_output_rank_one(self):
        v = binary_cq(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        proj = averaged_output_projector([0.5, 0.5], v, TypicalParams(n=3, alpha=1.0))
        assert proj.rank == 1

    def test_te7_passes_on_test_channel(self):
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        for n in (4, 6, 8):
            for alpha in (0.5, 1.0, 2.0):
                params = TypicalParams(n=n, alpha=alpha)
                word = tuple(i % 2 for i in range(n))
                proj = averaged_output_projector([0.5, 0.5], v, params)
                check = averaged_trace_checks([proj], v, word, [params])[0]
                assert check.passed, f"te7 failed at n={n} alpha={alpha}"


class TestSandwich:
    def test_deviation_within_bound_random_words(self):
        rng = np.random.default_rng(3)
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        for n in (4, 6, 8):
            params = TypicalParams(n=n, alpha=1.0)
            words = typical_set([0.5, 0.5], n, params.delta)
            pick = [words[i] for i in rng.choice(len(words), size=3, replace=False)]
            for word in pick:
                q, dev, bound = sandwiched_output(v, word, [0.5, 0.5], params)
                assert dev <= bound + 1e-9
                assert np.max(np.abs(q - q.conj().T)) < 1e-10

    def test_gentle_measurement_lemma_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rho = random_density(3, rng)
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = g @ g.conj().T
            x = h / (np.linalg.eigvalsh(h).max() + rng.uniform(0.0, 1.0))
            lam = 1.0 - np.trace(rho.matrix @ x).real
            sx = psd_sqrt(x)
            dev = trace_norm(rho.matrix - sx @ rho.matrix @ sx)
            assert dev <= np.sqrt(8 * max(lam, 0.0)) + 1e-9


class TestTypicalityByCounts:
    """The block-vectorised set and the count test against the word loop."""

    @staticmethod
    def loop_typical_set(p, n, delta):
        p = np.asarray(p, dtype=float)
        out = []
        for word in itertools.product(range(len(p)), repeat=n):
            counts = np.bincount(word, minlength=len(p)) / n
            if np.all(counts[p <= 0] == 0) and np.all(np.abs(counts - p)[p > 0] <= delta + 1e-12):
                out.append(word)
        return out

    @pytest.mark.parametrize("p,n,delta", [
        ([0.5, 0.5], 9, 0.1), ([0.6, 0.0, 0.4], 7, 0.2), ([0.2, 0.3, 0.5], 6, 1 / 6),
        ([0.25, 0.25, 0.25, 0.25], 5, 0.3),
    ])
    def test_set_and_probabilities_match_word_loop(self, p, n, delta, monkeypatch):
        import qwk.typicality as ty

        monkeypatch.setattr(ty, "_WORD_BLOCK", 50)  # several blocks, one partial
        ref = self.loop_typical_set(p, n, delta)
        assert typical_set(p, n, delta).tolist() == [list(w) for w in ref]
        words, probs = truncated_typical(p, n, delta)
        raw = np.array([word_probability(p, w) for w in ref])
        assert words.tolist() == [list(w) for w in ref]
        assert np.array_equal(probs, raw / raw.sum())

    def test_conditional_membership_by_counts(self):
        v = CQChannel((0, 1, 2), A, {0: np.diag([1.0, 0.0]), 1: np.eye(2) / 2,
                                      2: np.diag([0.0, 1.0])})
        prior = [0.5, 0.0, 0.5]
        params = TypicalParams(n=4, delta=0.25)
        members = set(self.loop_typical_set(prior, 4, 0.25))
        for word in itertools.product(range(3), repeat=4):
            if word in members:
                assert conditional_typical_projector(v, word, prior, params).rank >= 1
            else:
                with pytest.raises(QcoreError):
                    conditional_typical_projector(v, word, prior, params)


class TestWordStateValidation:
    def test_product_spectrum_gives_the_psd_minimum(self):
        from qwk.channels import cq_word_state

        rng = np.random.default_rng(3)
        v = CQChannel((0, 1), A, {0: random_density(A, rng).matrix,
                                   1: np.diag([0.0, 1.0])})
        word = [0, 1, 1, 0, 1]
        state = cq_word_state(v, word)
        assert np.linalg.eigvalsh(state).min() == pytest.approx(0.0, abs=1e-12)
        assert np.trace(state).real == pytest.approx(1.0)


class TestSandwichedOutputs:
    def test_stack_equals_per_word_sandwiches(self):
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        params = TypicalParams(n=6, alpha=1.0)
        words = typical_set([0.5, 0.5], 6, params.delta)[::5]
        stacked = sandwiched_outputs(v, words, [0.5, 0.5], params)
        expect = np.stack([sandwiched_output(v, w, [0.5, 0.5], params)[0] for w in words])
        assert np.array_equal(stacked, expect)

    def test_out_view_is_filled_and_returned(self):
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        params = TypicalParams(n=4, alpha=1.0)
        words = typical_set([0.5, 0.5], 4, params.delta)[:3]
        fresh = sandwiched_outputs(v, words, [0.5, 0.5], params)
        big = np.zeros((3,) + fresh.shape, dtype=complex)
        got = sandwiched_outputs(v, words, [0.5, 0.5], params, out=big[1])
        assert got is not None and got.base is big
        assert np.array_equal(big[1], fresh)
        assert not big[0].any() and not big[2].any()

    def test_atypical_word_rejected(self):
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        params = TypicalParams(n=4)
        with pytest.raises(QcoreError, match="not typical"):
            sandwiched_outputs(v, [(0, 1, 0, 1), (0, 0, 0, 0)], [0.5, 0.5], params)


def _kept_columns(unitaries, kept) -> np.ndarray:
    """Reference: the former factor columns, built letter by letter from
    the kept columns' digits."""
    digits = np.unravel_index(np.flatnonzero(kept), [u.shape[1] for u in unitaries])
    cols = kron_chain([u.T[idx][:, :, None] for u, idx in zip(unitaries, digits)])
    return cols[:, :, 0].T


class TestSandwichFactors:
    """The pretty-good decoder's per-word terms against the dense
    Pa Pc rho Pc Pa, word by word: G G^dag where the decoder keeps the
    factor G, and U diag(mu) U^dag where it works with U's halves."""

    @staticmethod
    def dense(v, word, prior, params):
        from qwk.channels import cq_word_state
        from qwk.typicality import _sandwich

        pa = averaged_output_projector(prior, v, params).matrix
        pc = conditional_typical_projector(v, word, prior, params).matrix
        return _sandwich(pa, pc, cq_word_state(v, word))

    def check(self, v, prior, params, words):
        """Compares every word's term and returns (max width of G or 0 when
        no word keeps G, rank Pa)."""
        from qwk.wiretapsim import _sandwich_terms

        ranks = [0]
        for word, (a, b, mu, g) in zip(words, _sandwich_terms(v, words, prior, params), strict=True):
            cond = conditional_typical_projector(v, word, prior, params)
            f = kron_columns(a, b, cond.kept)
            assert np.allclose(f, _kept_columns(cond.spectrum.letter_unitaries, cond.kept),
                               rtol=0, atol=1e-15)
            if g is None:
                u = kron_chain([a, b])
                term = kron_matmul(a, b, (u * mu).conj().T)
                assert np.allclose(term, (u * mu) @ u.conj().T, rtol=0, atol=1e-13)
            else:
                assert g.shape[0] == v.d_out ** params.n
                term = g @ g.conj().T
                ranks.append(g.shape[1])
            assert np.allclose(term, self.dense(v, word, prior, params), rtol=0, atol=1e-12)
        return max(ranks), averaged_output_projector(prior, v, params).rank

    @pytest.mark.parametrize("d, n, seed", [(2, 5, 1), (2, 6, 2), (3, 3, 3), (3, 4, 4)])
    def test_random_mixed_letters(self, d, n, seed):
        rng = np.random.default_rng(seed)
        v = CQChannel((0, 1), d, {0: random_density(d, rng), 1: random_density(d, rng)})
        words = truncated_typical([0.5, 0.5], n, 0.2)[0][::3]
        # alpha 0.1 narrows Pa below full rank, alpha 4 keeps every eigen-word
        _, rank = self.check(v, [0.5, 0.5], TypicalParams(n=n, delta=0.2, alpha=0.1), words)
        assert rank < d ** n
        _, rank = self.check(v, [0.5, 0.5], TypicalParams(n=n, delta=0.2, alpha=4.0), words)
        assert rank == d ** n

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_pure_letters_give_rank_one_factors(self, alpha):
        rng = np.random.default_rng(5)
        v = CQChannel((0, 1, 2), 3, {x: random_density(3, rng, rank=1) for x in range(3)})
        prior = [0.4, 0.3, 0.3]
        words = truncated_typical(prior, 4, 0.3)[0][::7]
        width, _ = self.check(v, prior, TypicalParams(n=4, delta=0.3, alpha=alpha), words)
        assert width == 1

    @pytest.mark.parametrize("split", [0.0, 4e-11])
    def test_degenerate_letter(self, split):
        # eigenvalues 1/2 ± split form one group: its mean would move the
        # products of a six-letter word by ~1e-11, so mu takes the raw ones
        rng = np.random.default_rng(6)
        u = random_unitary(A, rng)
        v = binary_cq(u @ np.diag([0.5 + split, 0.5 - split]) @ u.conj().T, random_density(A, rng).matrix)
        words = truncated_typical([0.5, 0.5], 6, 0.2)[0][::4]
        for alpha in (0.3, 1.0):
            self.check(v, [0.5, 0.5], TypicalParams(n=6, delta=0.2, alpha=alpha), words)

    def test_cap_checked_at_the_call(self):
        # refused before any projector or the D × D normaliser is formed
        from qwk.wiretapsim import Codebook, PrettyGoodDecoder

        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        cb = Codebook(np.zeros((1, 1, 15), dtype=int), 1, 1, 15, {"p": [0.5, 0.5]})
        with pytest.raises(CapExceededError):
            PrettyGoodDecoder.build(v, cb, TypicalParams(n=15))

    def test_atypical_word_rejected(self):
        from qwk.wiretapsim import _sandwich_terms

        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        stream = _sandwich_terms(v, [(0, 1, 0, 1), (0, 0, 0, 0)], [0.5, 0.5], TypicalParams(n=4))
        next(stream)
        with pytest.raises(QcoreError, match="word is not typical for the prior"):
            next(stream)


# ---------------------------------------------------------------------------
# sweeps against their one-entry constructors


def _same_projector(swept, single):
    for name in ("kept", "spectrum.neglogs", "spectrum.probs", "matrix"):
        assert np.array_equal(attrgetter(name)(swept), attrgetter(name)(single)), name
    assert swept.checks == single.checks


def _qubit_state(p, theta, phi):
    u = np.array([[np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
                  [np.exp(1j * phi) * np.sin(theta), np.cos(theta)]])
    return u @ np.diag([p, 1.0 - p]) @ u.conj().T


_qubit_states = st.builds(_qubit_state, st.floats(0.0, 1.0), st.floats(0.0, np.pi),
                          st.floats(0.0, 2 * np.pi))
_alpha_lists = st.lists(st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.5]), min_size=1, max_size=4)


class TestSweeps:
    @settings(max_examples=25, deadline=None)
    @given(_qubit_states, _qubit_states, _alpha_lists)
    def test_every_entry_equals_its_one_entry_constructor(self, m0, m1, alphas):
        rho = DensityOperator(m0)
        v = binary_cq(m0, m1)
        prior = [0.5, 0.5]
        grid = [TypicalParams(n=n, alpha=alpha, delta=0.6) for n in (1, 4, 7) for alpha in alphas]
        for params, proj in zip(grid, typical_projectors(rho, grid)):
            _same_projector(proj, typical_projector(rho, params))
        for params, proj in zip(grid, averaged_output_projectors(prior, v, grid)):
            _same_projector(proj, averaged_output_projector(prior, v, params))
        for n in (1, 4, 7):
            word = tuple(i % 2 for i in range(n))
            sweep = [params for params in grid if params.n == n]
            for params, proj in zip(sweep, conditional_typical_projectors(v, word, prior, sweep)):
                _same_projector(proj, conditional_typical_projector(v, word, prior, params))

    def test_sweep_spectra_are_read_only(self):
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        sweep = [TypicalParams(n=4, alpha=alpha) for alpha in (0.5, 2.0)]
        projs = conditional_typical_projectors(v, (0, 1, 0, 1), [0.5, 0.5], sweep)
        assert projs[0].spectrum.probs is projs[1].spectrum.probs
        with pytest.raises(ValueError):
            projs[0].spectrum.neglogs[0] = 0.0

    def test_projectors_of_a_sweep_share_one_spectrum(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        grid = [TypicalParams(n=n, alpha=alpha) for n in (4, 6) for alpha in (0.5, 1.0, 2.0)]
        for projs in (typical_projectors(rho, grid), averaged_output_projectors([0.5, 0.5], v, grid)):
            assert {id(p.spectrum) for p in projs[:3]} == {id(projs[0].spectrum)}
            assert {id(p.spectrum) for p in projs[3:]} == {id(projs[3].spectrum)}
            assert projs[0].spectrum is not projs[3].spectrum
        conds = conditional_typical_projectors(v, (0, 1, 0, 1), [0.5, 0.5], grid[:3])
        assert {id(p.spectrum) for p in conds} == {id(conds[0].spectrum)}

    def test_a_projector_is_a_window_on_its_spectrum(self):
        fields = [f.name for f in dataclasses.fields(TypicalProjector)]
        assert fields == ["spectrum", "kept", "half_width", "checks"]
        assert not hasattr(TypicalProjector, "total_dim")

    def test_a_sweep_checks_every_entry(self):
        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        word = (0, 0, 0, 1)
        with pytest.raises(QcoreError, match="word length"):
            conditional_typical_projectors(v, word, [0.5, 0.5],
                                           [TypicalParams(n=4), TypicalParams(n=5)])
        with pytest.raises(QcoreError, match="not typical"):
            conditional_typical_projectors(v, word, [0.5, 0.5],
                                           [TypicalParams(n=4, delta=0.3), TypicalParams(n=4)])

    @settings(max_examples=25, deadline=None)
    @given(_qubit_states, _qubit_states, _alpha_lists)
    def test_averaged_trace_sweep_equals_the_former_checks(self, m0, m1, alphas):
        v = binary_cq(m0, m1)
        for n in (1, 4, 7):
            word = tuple(i % 2 for i in range(n))
            sweep = [TypicalParams(n=n, alpha=alpha, delta=0.6) for alpha in alphas]
            projs = averaged_output_projectors([0.5, 0.5], v, sweep)
            for params, proj, check in zip(sweep, projs, averaged_trace_checks(projs, v, word, sweep)):
                assert check == former_averaged_trace_check(proj, v, word, params)

    def test_averaged_trace_sweep_forms_the_weights_once_and_sorts_nothing(self, monkeypatch):
        import qwk.typicality

        v = binary_cq(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]))
        sweep = [TypicalParams(n=6, alpha=alpha) for alpha in (0.5, 1.0, 2.0)]
        projs = averaged_output_projectors([0.5, 0.5], v, sweep)
        calls = []
        real_products, real_sort = accumulate_products, np.argsort
        monkeypatch.setattr(qwk.typicality, "accumulate_products",
                            lambda factors: calls.append("weights") or real_products(factors))
        monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: calls.append("argsort")
                            or real_sort(*args, **kwargs))
        checks = averaged_trace_checks(projs, v, (0, 1) * 3, sweep)
        assert len(checks) == 3
        assert calls == ["weights"]


@pytest.mark.parametrize("field", ["delta", "alpha", "k_const"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_params_refuse_a_non_positive_or_nan_constant(field, value):
    with pytest.raises(QcoreError, match="must be positive"):
        TypicalParams(n=4, **{field: value})
