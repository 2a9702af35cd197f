import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwk.channels import (
    CQChannel,
    KrausChannel,
    bsc,
    classical_to_cq,
    depolarizing_kraus,
    identity_kraus,
)
from qwk.infotheory import (
    binary_entropy,
    coherent_information,
    conditional_channel_entropy,
    conditional_qentropy,
    cq_mutual_information,
    entropy_rows,
    fannes_bound,
    holevo_chi,
    mutual_information,
    shannon_entropy,
    von_neumann_entropy,
)
from qwk.qcore import (
    TOL_PSD,
    DensityOperator,
    QcoreError,
    hermitian_eigensystem,
    random_density,
    random_unitary,
    trace_norm,
)

A = 2
B = 2


def _purification(rho, anc_dim):
    """Unit vector on the input (x) an ancilla of ``anc_dim`` whose reduction
    to the input is ``rho``: the former ``qcore.purify``, kept as an oracle."""
    w, v = hermitian_eigensystem(rho.matrix)
    support = np.nonzero(w > TOL_PSD)[0]
    assert anc_dim >= len(support)
    vec = np.zeros(rho.dim * anc_dim, dtype=complex)
    for slot, i in enumerate(support):
        anc = np.zeros(anc_dim)
        anc[slot] = 1.0
        vec += np.sqrt(w[i]) * np.kron(v[:, i], anc)
    return vec / np.linalg.norm(vec)


def _partial_trace(m, dims, kept):
    """Reduction of the matrix ``m`` on factors of dimensions ``dims`` to the
    factors ``kept``: the former ``qcore.partial_trace``, kept as an oracle."""
    dims = list(dims)
    n = len(dims)
    m = m.reshape(dims + dims)
    traced = [i for i in range(n) if i not in kept]
    for offset, i in enumerate(sorted(traced, reverse=True)):
        m = np.trace(m, axis1=i, axis2=i + n - offset)
    d = int(np.prod([dims[i] for i in kept]))
    return m.reshape(d, d)


class TestShannon:
    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0)

    def test_skewed_frozen_value(self):
        assert shannon_entropy([0.9, 0.1]) == pytest.approx(0.468996, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(QcoreError):
            shannon_entropy([1.2, -0.2])


def _compacted_entropy(p):
    """The former 1-D entropy: a sum over the entries above the floor only."""
    vals = p[p > 1e-12]
    return float(-(vals * np.log2(vals)).sum())


@st.composite
def distributions(draw, max_len=40):
    """A probability row with some exact zeros and some entries below the floor."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, max_len))
    p = rng.random(k) ** draw(st.sampled_from([1, 4, 16]))
    p[rng.random(k) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    p[rng.random(k) < 0.1] = 1e-14
    p[rng.integers(k)] = 1.0  # at least one entry survives
    return p / p.sum()


class TestEntropyRows:
    """Properties of the one Shannon sum every entropy goes through."""

    @staticmethod
    def _support_bound(p):
        """Largest entropy of k entries holding mass s: s log2 k - s log2 s,
        over the k entries above the floor; log2 k when s = 1."""
        kept = p[p > 1e-12]
        s = float(kept.sum())
        return s * math.log2(len(kept)) - s * math.log2(s)

    @settings(max_examples=200, deadline=None)
    @given(distributions())
    def test_bounded_by_log_of_the_support(self, p):
        h = float(entropy_rows(p))
        assert 0.0 <= h <= self._support_bound(p) + 1e-12

    def test_mass_below_the_floor_raises_the_bound(self):
        # one entry above the floor, yet h exceeds log2 1 + 1e-12: the
        # surviving entry alone holds mass s = 1 - 9.9e-13 < 1
        p = np.array([9.77e-13, 0.0, 1e-14, 3.0e-21, 0.0, 0.0, 1 - 9.9e-13, 0.0])
        h = float(entropy_rows(p))
        assert h > math.log2(1) + 1e-12
        assert 0.0 <= h <= self._support_bound(p) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(distributions(), st.integers(0, 2 ** 32 - 1))
    def test_permutation_invariant(self, p, seed):
        q = np.random.default_rng(seed).permutation(p)
        assert float(entropy_rows(q)) == pytest.approx(float(entropy_rows(p)), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_stacked_equals_row_by_row(self, k, rows, seed):
        rng = np.random.default_rng(seed)
        p = rng.random((2, rows, k)) ** 4
        p[rng.random(p.shape) < 0.3] = 0.0
        p /= np.maximum(p.sum(axis=-1, keepdims=True), 1e-300)
        stacked = entropy_rows(p)
        assert stacked.shape == (2, rows)
        for idx in np.ndindex(2, rows):
            assert stacked[idx] == entropy_rows(p[idx])

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 20])
    def test_one_hot_gives_positive_zero(self, k):
        for i in range(k):
            h = float(entropy_rows(np.eye(k)[i]))
            assert h == 0.0 and math.copysign(1, h) == 1

    @settings(max_examples=300, deadline=None)
    @given(distributions())
    def test_matches_the_compacted_sum(self, p):
        h = float(entropy_rows(p))
        if len(p) <= 7:
            assert h == _compacted_entropy(p)
        else:
            assert h == pytest.approx(_compacted_entropy(p), abs=1e-12)


class TestMutualInformation:
    def test_identity_channel(self):
        ident = bsc(0.0)
        assert mutual_information([0.5, 0.5], ident) == pytest.approx(1.0)

    def test_constant_channel(self):
        from qwk.channels import ClassicalChannel

        const = ClassicalChannel((0, 1), (0, 1), [[1, 0], [1, 0]])
        assert mutual_information([0.3, 0.7], const) == pytest.approx(0.0)

    def test_bsc_closed_form(self):
        expect = 1.0 - binary_entropy(0.1)
        assert mutual_information([0.5, 0.5], bsc(0.1)) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(0.531004, abs=1e-6)


class TestVonNeumann:
    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityOperator(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_pure_state(self):
        assert von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0]))) == pytest.approx(0.0)

    def test_diag_frozen_value(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        assert von_neumann_entropy(rho) == pytest.approx(0.881291, abs=1e-6)

    def test_additive_on_products(self):
        rng = np.random.default_rng(0)
        rho, sigma = random_density(A, rng), random_density(B, rng)
        joint = DensityOperator(np.kron(rho.matrix, sigma.matrix))
        assert von_neumann_entropy(joint) == pytest.approx(
            von_neumann_entropy(rho) + von_neumann_entropy(sigma), abs=1e-9
        )


class TestConditionalEntropy:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        rho, sigma = random_density(A, rng), random_density(B, rng)
        joint = DensityOperator(np.kron(rho.matrix, sigma.matrix))
        assert conditional_qentropy(joint, (2, 2), 0) == pytest.approx(
            von_neumann_entropy(sigma), abs=1e-9
        )

    def test_maximally_entangled_is_minus_one(self):
        v = np.eye(2).reshape(-1) / np.sqrt(2)
        bell = DensityOperator(np.outer(v, v.conj()))
        assert conditional_qentropy(bell, (2, 2), 0) == pytest.approx(-1.0, abs=1e-9)

    def test_random_state_matches_eigen_oracle(self):
        rng = np.random.default_rng(2)
        joint = random_density(4, rng)
        oracle = von_neumann_entropy(joint) - von_neumann_entropy(_partial_trace(joint.matrix, (2, 2), [0]))
        assert conditional_qentropy(joint, (2, 2), 0) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("keep", [0, 1, 2])
    def test_three_factors_match_eigen_oracle(self, keep):
        rng = np.random.default_rng(3)
        dims = (2, 3, 2)
        joint = random_density(12, rng)
        oracle = von_neumann_entropy(joint) - von_neumann_entropy(_partial_trace(joint.matrix, dims, [keep]))
        assert conditional_qentropy(joint, dims, keep) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("dims, keep", [((2, 3), 0), ((2, 2), 2), ((2, 2), -1)])
    def test_refuses_factors_that_do_not_fit(self, dims, keep):
        with pytest.raises(QcoreError):
            conditional_qentropy(random_density(4, np.random.default_rng(4)), dims, keep)


class TestHolevo:
    def test_orthogonal_pure_states(self):
        states = [DensityOperator(np.diag([1.0, 0.0])), DensityOperator(np.diag([0.0, 1.0]))]
        assert holevo_chi([0.5, 0.5], states) == pytest.approx(1.0)

    def test_equal_states_zero(self):
        rng = np.random.default_rng(3)
        rho = random_density(A, rng)
        assert holevo_chi([0.4, 0.6], [rho, rho]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_plus_frozen_value(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        z0 = np.diag([1.0, 0.0])
        assert holevo_chi([0.5, 0.5], [z0, plus]) == pytest.approx(0.600876, abs=1e-6)

    def test_bounded_by_prior_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            prior = rng.dirichlet([1, 1, 1])
            states = [random_density(A, rng) for _ in range(3)]
            chi = holevo_chi(prior, states)
            assert -1e-12 <= chi <= shannon_entropy(prior) + 1e-9

    def test_matches_classical_mi_for_diagonal_states(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = bsc(rng.uniform(0.05, 0.45))
            prior = rng.dirichlet([1, 1])
            cq = classical_to_cq(w)
            chi = cq_mutual_information(prior, cq)
            assert chi == pytest.approx(mutual_information(prior, w), abs=1e-9)

    @pytest.mark.parametrize("prior, states", [
        ([0.7, 0.7], [np.eye(2) / 2, np.eye(2) / 2]),
        ([1.2, -0.2], [np.eye(2) / 2, np.eye(2) / 2]),
        ([0.5, 0.5], [np.eye(2) / 2]),
        ([0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3]),
    ])
    def test_refuses_a_bad_ensemble(self, prior, states):
        with pytest.raises(QcoreError):
            holevo_chi(prior, states)


class TestCoherentInformation:
    def test_identity_channel(self):
        assert coherent_information(DensityOperator(np.eye(2) / 2), identity_kraus()) == pytest.approx(1.0)

    def test_fully_depolarizing(self):
        assert coherent_information(DensityOperator(np.eye(2) / 2), depolarizing_kraus(1.0)) == pytest.approx(
            -1.0, abs=1e-9
        )

    def test_independent_of_purification_dim(self):
        # the internal reference always matches the input dim; cross-check via
        # a manual larger-ancilla computation
        rng = np.random.default_rng(6)
        rho = random_density(A, rng)
        chan = depolarizing_kraus(0.3)
        base = coherent_information(rho, chan)
        psi = _purification(rho, 3)
        joint = np.outer(psi, psi.conj())
        lifted = np.zeros((2 * 3, 2 * 3), dtype=complex)
        for a in chan.kraus_ops:
            op = np.kron(a, np.eye(3))
            lifted += op @ joint @ op.conj().T
        oracle = von_neumann_entropy(chan.apply_matrix(rho.matrix)) - von_neumann_entropy(lifted)
        assert base == pytest.approx(oracle, abs=1e-8)


class TestChannelConditionalEntropy:
    def test_pure_outputs(self):
        states = {0: np.diag([1.0, 0.0]), 1: np.array([[0.5, 0.5], [0.5, 0.5]])}
        v = CQChannel((0, 1), A, states)
        assert conditional_channel_entropy([0.5, 0.5], v) == pytest.approx(0.0, abs=1e-12)

    def test_constant_mixed_output(self):
        states = {0: np.eye(2) / 2, 1: np.eye(2) / 2}
        v = CQChannel((0, 1), A, states)
        assert conditional_channel_entropy([0.2, 0.8], v) == pytest.approx(1.0)

    def test_average_of_two_entropies(self):
        states = {0: np.diag([0.7, 0.3]), 1: np.eye(2) / 2}
        v = CQChannel((0, 1), A, states)
        assert conditional_channel_entropy([0.5, 0.5], v) == pytest.approx(0.940645, abs=1e-6)


class TestFannes:
    def test_fannes_inequality_on_random_pairs(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            rho = random_density(A, rng)
            mix = random_density(A, rng)
            t = rng.uniform(0.0, 0.25)
            sigma = DensityOperator((1 - t) * rho.matrix + t * mix.matrix)
            dist = trace_norm(rho.matrix - sigma.matrix)
            if not 0 < dist < 1 / np.e:
                continue
            gap = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
            assert gap <= fannes_bound(dist, 2) + 1e-12
            checked += 1


def _coherent_information_reference(rho, kraus):
    """The former purification-based computation, kept as an oracle."""
    out_entropy = von_neumann_entropy(kraus.apply_matrix(rho.matrix))
    psi = _purification(rho, rho.dim)
    joint = np.outer(psi, psi.conj())
    dref, dout = rho.dim, kraus.d_out
    lifted = np.zeros((dout * dref, dout * dref), dtype=complex)
    for a in kraus.kraus_ops:
        op = np.kron(a, np.eye(dref))
        lifted += op @ joint @ op.conj().T
    return out_entropy - von_neumann_entropy(lifted)


class TestCoherentInformationAgainstPurification:
    def _random_two_operator_channel(self, rng):
        iso = random_unitary(4, rng)[:, :2]
        return KrausChannel(A, A, [iso[:2], iso[2:]])

    @pytest.mark.parametrize("rank", [None, 1])
    def test_matches_reference(self, rank):
        rng = np.random.default_rng(21)
        channels = [depolarizing_kraus(0.3), self._random_two_operator_channel(rng)]
        for chan in channels:
            for _ in range(3):
                rho = random_density(A, rng, rank=rank)
                assert coherent_information(rho, chan) == pytest.approx(
                    _coherent_information_reference(rho, chan), abs=1e-12
                )

    def test_stinespring_form_and_checks(self):
        rho = random_density(A, np.random.default_rng(22))
        chan = depolarizing_kraus(0.3)
        assert coherent_information(rho, KrausChannel.from_isometry(A, A, 4, chan.isometry)) == pytest.approx(
            coherent_information(rho, chan), abs=1e-12
        )
        with pytest.raises(QcoreError):
            coherent_information(rho, bsc(0.1))
        with pytest.raises(QcoreError):
            coherent_information(random_density(3, np.random.default_rng(0)), chan)



def _kron_loop_reference(rho_m, kraus):
    """The former one-matrix coherent information (one np.kron per
    eigenvector, entropies through von_neumann_entropy), kept as an oracle."""
    din = kraus.d_in
    w, v = np.linalg.eigh(rho_m)
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    psi = np.zeros((din * din,), dtype=complex)
    for i in range(len(w)):
        ref = np.zeros(din)
        ref[i] = 1.0
        psi += np.sqrt(w[i]) * np.kron(v[:, i], ref)
    joint = np.outer(psi, psi.conj())
    out = None
    for a in kraus.kraus_ops:
        op = np.kron(a, np.eye(din))
        term = op @ joint @ op.conj().T
        out = term if out is None else out + term
    return von_neumann_entropy(kraus.apply_matrix(rho_m)) - von_neumann_entropy(out)


class TestStackedCoherentInformation:
    @pytest.mark.parametrize("n", [1, 3])
    def test_stack_matches_per_matrix_calls(self, n):
        from qwk.channels import n_fold
        from qwk.infotheory import coherent_information_matrix

        rng = np.random.default_rng(23)
        iso = random_unitary(6, rng)[:, :2]
        three_op = KrausChannel(A, A, [iso[:2], iso[2:4], iso[4:]])
        # at n=3 the 64-dimensional joint state keeps 27 nonzero eigenvalues,
        # enough for the pairwise summation to depend on which terms are summed
        chan = n_fold(three_op, n) if n > 1 else three_op
        d = chan.d_in
        mats = [random_density(d, rng, rank=1).matrix]
        mats += [random_density(d, rng).matrix for _ in range(3)]
        stack = np.stack(mats).reshape(2, 2, d, d)
        stacked = coherent_information_matrix(stack, chan)
        assert stacked.shape == (2, 2)
        per_matrix = [coherent_information_matrix(m, chan) for m in mats]
        assert all(isinstance(v, float) for v in per_matrix)
        assert np.array_equal(stacked.reshape(-1), per_matrix)
        # the environment form moves the last bits of the former joint-state form
        reference = [_kron_loop_reference(m, chan) for m in mats]
        np.testing.assert_allclose(per_matrix, reference, rtol=0, atol=1e-12)


class TestEnvironmentForm:
    """S(N(rho)) - S(E) with the environment state E against the
    purification form on random Kraus channels."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 4), st.sampled_from([None, 1]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_purification_form(self, d, k, rank, seed):
        rng = np.random.default_rng(seed)
        iso = random_unitary(k * d, rng)[:, :d]
        chan = KrausChannel(d, d, [iso[i * d:(i + 1) * d] for i in range(k)])
        rho = random_density(d, rng, rank=rank)
        assert coherent_information(rho, chan) == pytest.approx(
            _coherent_information_reference(rho, chan), abs=1e-12
        )


# ---------------------------------------------------------------------------
# qubit spectra in closed form against eigvalsh

from qwk.infotheory import _qubit_eigvals, eig_entropies
from qwk.qcore import ginibre_factor, ginibre_states


def _lapack_entropies(mats):
    """Entropies through ``eigvalsh`` for every d: the reference for the
    closed-form qubit branch."""
    return entropy_rows(np.clip(np.linalg.eigvalsh(mats), 0.0, None))


def _qubit_states(rng, shape, rank=None):
    """A shape + (2, 2) stack of random qubit density matrices."""
    k = 2 if rank is None else rank
    return ginibre_states(rng.normal(size=shape + (2, k)) + 1j * rng.normal(size=shape + (2, k)))


@st.composite
def qubit_stacks(draw):
    """A (s, 2, 2) Hermitian stack of one kind, at trace 1 or another trace."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["mixed", "rank1", "real", "diagonal", "degenerate",
                                 "tiny_offdiag"]))
    if kind == "mixed":
        m = _qubit_states(rng, (s,))
    elif kind == "rank1":
        m = _qubit_states(rng, (s,), rank=1)
    elif kind == "real":
        m = ginibre_states(rng.normal(size=(s, 2, 2)))
    elif kind == "degenerate":
        m = np.broadcast_to(np.eye(2, dtype=complex) / 2, (s, 2, 2))
    else:
        m = np.zeros((s, 2, 2), dtype=complex)
        m[:, 0, 0] = rng.random(s)
        m[:, 1, 1] = 1.0 - m[:, 0, 0]
        if kind == "tiny_offdiag":
            b = 1e-17 * (rng.normal(size=s) + 1j * rng.normal(size=s))
            m[:, 1, 0], m[:, 0, 1] = b, b.conj()
    return m * draw(st.sampled_from([1.0, 0.25, 3.5]))


class TestQubitSpectra:
    """The closed-form branch of ``eig_entropies`` on (..., 2, 2) stacks."""

    @settings(max_examples=200, deadline=None)
    @given(qubit_stacks())
    def test_eigenvalues_and_entropies_match_eigvalsh(self, m):
        np.testing.assert_allclose(_qubit_eigvals(m), np.linalg.eigvalsh(m), rtol=0, atol=1e-12)
        np.testing.assert_allclose(eig_entropies(m), _lapack_entropies(m), rtol=0, atol=1e-12)

    def test_reads_the_lower_triangle_as_eigvalsh_does(self):
        m = _qubit_states(np.random.default_rng(9), ())
        m[0, 1] = 0.3 - 4.0j  # ignored by eigvalsh's default UPLO='L'
        np.testing.assert_allclose(_qubit_eigvals(m), np.linalg.eigvalsh(m), rtol=0, atol=1e-15)

    def test_runs_without_eigvalsh(self, monkeypatch):
        # the qubit branch must not fall back to LAPACK; other d still use it
        mats = _qubit_states(np.random.default_rng(10), (3, 4))
        expected = _lapack_entropies(mats)

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        got = eig_entropies(mats)
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        with pytest.raises(AssertionError, match="eigvalsh called"):
            eig_entropies(np.eye(3) / 3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([None, 1]), st.integers(0, 2 ** 32 - 1))
    def test_holevo_chi_of_qubits_is_within_zero_and_log_d(self, k, rank, seed):
        rng = np.random.default_rng(seed)
        prior = rng.dirichlet(np.ones(k))
        chi = holevo_chi(prior, list(_qubit_states(rng, (k,), rank=rank)))
        assert 0.0 <= chi <= math.log2(2) + 1e-12
