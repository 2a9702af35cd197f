import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwk import channels as ch
from qwk.channels import (
    ChannelError,
    ClassicalChannel,
    CQChannel,
    CompoundWiretapSpec,
    KrausChannel,
    bsc,
    build_tau_net,
    choi_matrix,
    complementary_channel,
    classical_to_cq,
    depolarizing_kraus,
    diamond_distance,
    identity_kraus,
    kraus_equivalent,
    n_fold,
    tau_net_cardinality_bound,
)
from qwk.capacity import SolverConfig, entgen_csi_capacity, entgen_lower_bound
from qwk.entgen import build_entgen_code
from qwk.infotheory import coherent_information, von_neumann_entropy
from qwk.qcore import (
    DensityOperator,
    hermitian_eigensystem,
    random_density,
    random_unitary,
    trace_norm,
)

Q = 2


def random_kraus_channel(rng, d=2, k=2):
    """Random CPTP map from a Haar-ish isometry."""
    g = rng.normal(size=(d * k, d)) + 1j * rng.normal(size=(d * k, d))
    q, _ = np.linalg.qr(g)
    ops = [q[i * d : (i + 1) * d, :] for i in range(k)]
    return KrausChannel(d, d, ops)


def pad_kraus(k: KrausChannel, count: int) -> KrausChannel:
    """Append zero operators so the list has exactly ``count`` entries."""
    zero = np.zeros((k.d_out, k.d_in))
    return KrausChannel(k.d_in, k.d_out, list(k.kraus_ops) + [zero] * (count - len(k.kraus_ops)))


def mix_kraus(k: KrausChannel, unitary: np.ndarray) -> KrausChannel:
    """Equivalent Kraus list B_i = sum_j u_ij A_j (unitary freedom)."""
    ops = np.tensordot(np.asarray(unitary, dtype=complex), np.stack(k.kraus_ops), axes=1)
    return KrausChannel(k.d_in, k.d_out, list(ops))


class TestApplyAndNFold:
    def test_identity_kraus_apply(self):
        rho = DensityOperator(np.eye(2) / 2)
        out = identity_kraus().apply_matrix(rho.matrix)
        assert np.allclose(out, rho.matrix)

    def test_bsc_row(self):
        out = bsc(0.1).row(0)
        assert np.allclose(out, [0.9, 0.1])

    def test_fully_depolarizing_sends_to_maximally_mixed(self):
        rng = np.random.default_rng(0)
        rho = random_density(Q, rng)
        out = depolarizing_kraus(1.0).apply_matrix(rho.matrix)
        # oracle: explicit Kraus sum with the four scaled Paulis
        oracle = sum(a @ rho.matrix @ a.conj().T for a in depolarizing_kraus(1.0).kraus_ops)
        assert np.allclose(out, oracle)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_n_fold_one_is_same_channel(self):
        c = depolarizing_kraus(0.1)
        assert n_fold(c, 1) is c

    def test_n_fold_rejects_classical_and_cq_channels(self):
        for c in (bsc(0.1), classical_to_cq(bsc(0.1))):
            for n in (1, 2):
                with pytest.raises(ChannelError, match="quantum channels"):
                    n_fold(c, n)

    def test_n_fold_quantum_acts_as_tensor_power(self):
        rng = np.random.default_rng(1)
        chan = random_kraus_channel(rng)
        c2 = n_fold(chan, 2)
        rho = random_density(Q, rng)
        sigma = random_density(Q, rng)
        joint = np.kron(rho.matrix, sigma.matrix)
        out2 = c2.apply_matrix(joint)
        expect = np.kron(chan.apply_matrix(rho.matrix), chan.apply_matrix(sigma.matrix))
        assert np.max(np.abs(out2 - expect)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1))
    def test_stacked_word_states_are_the_letters_kron_chain(self, a, d, n, seed):
        from qwk.channels import cq_word_state

        rng = np.random.default_rng(seed)
        chan = CQChannel(tuple(range(a)), d, {x: random_density(d, rng).matrix for x in range(a)})
        words = rng.integers(a, size=(2, 3, n))

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("a word state was diagonalised")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", no_eigvalsh)
            stacked = cq_word_state(chan, words)
            per_word = [cq_word_state(chan, w) for w in words.reshape(-1, n)]
        assert stacked.shape == (2, 3, d ** n, d ** n)
        for word, got, state in zip(words.reshape(-1, n), stacked.reshape(-1, d ** n, d ** n),
                                    per_word):
            ref = chan.letters[word[0]]
            for x in word[1:]:
                ref = np.kron(ref, chan.letters[x])
            assert np.array_equal(got, state) and np.array_equal(state, ref)

    def test_letters_follow_a_non_integer_alphabet(self):
        from qwk.channels import cq_word_state

        rng = np.random.default_rng(4)
        rho_a, rho_b = random_density(Q, rng).matrix, random_density(Q, rng).matrix
        chan = CQChannel(("a", "b"), Q, {"b": rho_b, "a": rho_a})
        assert chan.letters.shape == (2, 2, 2) and not chan.letters.flags.writeable
        assert np.array_equal(chan.letters[0], rho_a) and np.array_equal(chan.letters[1], rho_b)
        assert np.array_equal(chan.state_matrix("b"), rho_b)
        state = cq_word_state(chan, [0, 1])
        assert state.shape == (4, 4)
        assert np.array_equal(state, np.kron(rho_a, rho_b))

    def test_building_leaves_the_callers_arrays_writable(self):
        # the stored copies are frozen, the caller's own arrays are not
        rho = np.diag([0.7, 0.3]).astype(complex)
        sigma = np.eye(2, dtype=complex) / 2
        stochastic = np.array([[0.9, 0.1], [0.2, 0.8]])
        state = DensityOperator(rho)
        chan = CQChannel((0, 1), Q, {0: rho, 1: sigma})
        classical = ClassicalChannel((0, 1), (0, 1), stochastic)
        assert rho.flags.writeable and sigma.flags.writeable and stochastic.flags.writeable
        for stored in (state.matrix, chan.letters, classical.matrix):
            assert not stored.flags.writeable

    @pytest.mark.parametrize("d, k", [(2, 1), (2, 3), (3, 2)])
    def test_basis_outputs_are_the_per_column_outputs(self, d, k):
        rng = np.random.default_rng(d * 10 + k)
        s = random_kraus_channel(rng, d, k)
        for u in (np.eye(d, dtype=complex), random_unitary(d, rng)):
            rhos = [np.outer(u[:, x], u[:, x].conj()) for x in range(d)]
            rec, env = s.basis_outputs(u)
            dilated = [(s.isometry @ r @ s.isometry.conj().T).reshape(d, k, d, k) for r in rhos]
            assert np.array_equal(rec, np.stack([np.trace(g, axis1=1, axis2=3) for g in dilated]))
            assert np.array_equal(env, np.stack([env_output(s, r) for r in rhos]))


def dilation_output(s, rho):
    """Receiver output as the partial trace of U rho U* over the environment."""
    do, de = s.d_out, s.env_dim
    big = s.isometry @ rho @ s.isometry.conj().T
    return np.trace(big.reshape(do, de, do, de), axis1=1, axis2=3)


def env_output(s, rho):
    """Environment output as the partial trace of U rho U* over the receiver."""
    do, de = s.d_out, s.env_dim
    big = s.isometry @ rho @ s.isometry.conj().T
    return np.trace(big.reshape(do, de, do, de), axis1=0, axis2=2)


class TestKrausStinespring:
    def test_identity_dilation(self):
        s = identity_kraus()
        assert s.env_dim == 1
        assert np.allclose(s.isometry, np.eye(2))

    def test_kraus_ops_are_read_only_views_of_the_isometry(self):
        s = random_kraus_channel(np.random.default_rng(1), d=3, k=2)
        assert s.isometry.shape == (6, 3) and not s.isometry.flags.writeable
        for i, a in enumerate(s.kraus_ops):
            assert a.base is not None and np.shares_memory(a, s.isometry)
            assert not a.flags.writeable
            assert np.array_equal(a, s.isometry[i::2])

    def test_bit_flip_round_trip_on_states(self):
        rng = np.random.default_rng(2)
        flip = KrausChannel(
            Q, Q, [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.array([[0, 1], [1, 0]])]
        )
        assert flip.env_dim == 2
        for _ in range(10):
            rho = random_density(Q, rng)
            assert np.max(np.abs(dilation_output(flip, rho.matrix) - flip.apply_matrix(rho.matrix))) < 1e-10

    def test_two_kraus_isometry_property(self):
        rng = np.random.default_rng(3)
        u = random_kraus_channel(rng).isometry
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10

    def test_round_trip_equivalence_100_random(self):
        rng = np.random.default_rng(4)
        for i in range(100):
            d = 2 if i % 3 else 3
            chan = random_kraus_channel(rng, d=d, k=2)
            back = KrausChannel.from_isometry(chan.d_in, chan.d_out, 2, chan.isometry)
            assert kraus_equivalent(chan, back)

    def test_from_isometry_refusals(self):
        u = random_kraus_channel(np.random.default_rng(5)).isometry
        with pytest.raises(ChannelError, match="shape"):
            KrausChannel.from_isometry(Q, Q, 3, u)
        with pytest.raises(ChannelError, match="isometry"):
            KrausChannel.from_isometry(Q, Q, 2, 2 * u)
        with pytest.raises(ChannelError, match="must be >= 1"):
            KrausChannel.from_isometry(Q, Q, 0, np.zeros((0, 2)))
        # d_in^2 d_out = 8 slots suffice for a qubit channel; 9 zero-padded ones do not
        padded = np.zeros((18, 2), dtype=complex)
        padded[::9] = np.eye(2)
        with pytest.raises(ChannelError, match="unnecessarily large"):
            KrausChannel.from_isometry(Q, Q, 9, padded)
        assert KrausChannel.from_isometry(Q, Q, 8, padded[np.r_[0:8, 9:17]]).env_dim == 8

    @pytest.mark.parametrize("d_in, d_out", [(0, 2), (2, 0), (-1, 2)])
    def test_a_dimension_below_one_is_refused(self, d_in, d_out):
        with pytest.raises(ChannelError, match="must be >= 1"):
            KrausChannel(d_in, d_out, [np.eye(2)])
        with pytest.raises(ChannelError, match="must be >= 1"):
            KrausChannel.from_isometry(d_in, d_out, 2, np.eye(4)[:, :2])

    @pytest.mark.parametrize("d_out", [0, -1])
    def test_a_cq_output_dimension_below_one_is_refused(self, d_out):
        with pytest.raises(ChannelError, match="must be >= 1"):
            CQChannel((0, 1), d_out, {0: np.eye(2) / 2, 1: np.eye(2) / 2})

    def test_long_kraus_list_is_accepted(self):
        # the environment-size rule applies to isometry input alone
        chan = pad_kraus(identity_kraus(), 9)
        assert chan.env_dim == 9 and chan.isometry.shape == (18, 2)
        assert kraus_equivalent(chan, identity_kraus())

    def test_complementary_identity_channel(self):
        comp = complementary_channel(identity_kraus())
        rng = np.random.default_rng(5)
        rho = random_density(Q, rng)
        env = comp.apply_matrix(rho.matrix)
        assert np.allclose(env, [[1.0]])

    def test_complementary_depolarizing_env_entropy(self):
        env = env_output(depolarizing_kraus(1.0), np.eye(2) / 2)
        assert von_neumann_entropy(env) == pytest.approx(2.0, abs=1e-9)

    def test_coherent_information_identity_on_outputs(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            chan = random_kraus_channel(rng)
            comp = complementary_channel(chan)
            rho = random_density(Q, rng)
            lhs = von_neumann_entropy(chan.apply_matrix(rho.matrix)) - von_neumann_entropy(
                comp.apply_matrix(rho.matrix)
            )
            assert lhs == pytest.approx(coherent_information(rho, chan), abs=1e-8)

    def test_reshapes_match_row_copy_loops(self):
        # the row-by-row forms that the (dout, denv, din) reshapes replaced
        def loop_kraus_to_stinespring(k):
            denv = len(k.kraus_ops)
            u = np.zeros((k.d_out * denv, k.d_in), dtype=complex)
            for j, a in enumerate(k.kraus_ops):
                for o in range(k.d_out):
                    u[o * denv + j, :] = a[o, :]
            return u

        def loop_stinespring_to_kraus(s):
            de = s.env_dim
            ops = []
            for j in range(de):
                a = np.zeros((s.d_out, s.d_in), dtype=complex)
                for o in range(s.d_out):
                    a[o, :] = s.isometry[o * de + j, :]
                ops.append(a)
            return ops

        def loop_complementary(s):
            de, do = s.env_dim, s.d_out
            ops = []
            for o in range(do):
                b = np.zeros((de, s.d_in), dtype=complex)
                for e in range(de):
                    b[e, :] = s.isometry[o * de + e, :]
                ops.append(b)
            return ops

        for chan in (n_fold(depolarizing_kraus(0.3), 2),
                     random_kraus_channel(np.random.default_rng(7), d=3, k=2)):
            assert np.array_equal(chan.isometry, loop_kraus_to_stinespring(chan))
            back = KrausChannel.from_isometry(chan.d_in, chan.d_out, chan.env_dim,
                                              chan.isometry)
            for got, want in ((chan, loop_stinespring_to_kraus(chan)),
                              (back, loop_stinespring_to_kraus(chan)),
                              (complementary_channel(chan), loop_complementary(chan))):
                assert len(got.kraus_ops) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got.kraus_ops, want))


# every public function that takes a quantum channel, called on a classical one
NON_CHANNEL_CALLS = {
    "coherent_information": lambda c: coherent_information(DensityOperator(np.eye(2) / 2), c),
    "choi_matrix": choi_matrix,
    "complementary_channel": complementary_channel,
    "diamond_distance": lambda c: diamond_distance(identity_kraus(), c),
    "n_fold": lambda c: n_fold(c, 2),
    "entgen_lower_bound": lambda c: entgen_lower_bound(_quantum_spec(c), SolverConfig()),
    "entgen_csi_capacity": lambda c: entgen_csi_capacity(_quantum_spec(c), SolverConfig()),
    "build_entgen_code": lambda c: build_entgen_code([identity_kraus(), c], [0.5, 0.5], 1, 2, 1, 5),
}
# the capacity formulas take a spec, and the spec is what refuses the channel
SPEC_REFUSED = {"entgen_lower_bound", "entgen_csi_capacity"}


def _quantum_spec(c):
    members = (identity_kraus(), c)
    return CompoundWiretapSpec("quantum", ("t1", "t2"), members, members)


@pytest.mark.parametrize("name", sorted(NON_CHANNEL_CALLS))
def test_classical_channel_is_refused(name):
    message = ("variant 'quantum' does not take a ClassicalChannel" if name in SPEC_REFUSED
               else "only quantum channels .* not a ClassicalChannel")
    with pytest.raises(ChannelError, match=message):
        NON_CHANNEL_CALLS[name](bsc(0.1))


class TestKrausEquivalence:
    def test_identity_equivalent_to_itself(self):
        assert kraus_equivalent(identity_kraus(), identity_kraus())

    def test_unitary_mixing_preserves_channel(self):
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        k1 = KrausChannel(Q, Q, [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * z])
        u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        k2 = mix_kraus(k1, u)
        assert kraus_equivalent(k1, k2)

    def test_identity_vs_bit_flip_not_equivalent(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        flip = KrausChannel(Q, Q, [x])
        assert not kraus_equivalent(identity_kraus(), flip)

    def test_padding_keeps_channel(self):
        k = identity_kraus()
        padded = pad_kraus(k, 3)
        assert len(padded.kraus_ops) == 3
        assert kraus_equivalent(k, padded)

    def test_random_unitary_mixing(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            chan = random_kraus_channel(rng, k=3)
            u = random_unitary(3, rng)
            assert kraus_equivalent(chan, mix_kraus(chan, u))


class TestDiamondDistance:
    def test_self_distance_zero(self):
        assert diamond_distance(identity_kraus(), identity_kraus()) == pytest.approx(0.0, abs=1e-9)

    def test_identity_vs_bit_flip_is_two(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        flip = KrausChannel(Q, Q, [x])
        d = diamond_distance(identity_kraus(), flip, restarts=4, seed=1)
        assert d == pytest.approx(2.0, abs=1e-8)

    def test_identity_vs_depolarizing_in_band_and_reproducible(self):
        d1 = diamond_distance(identity_kraus(), depolarizing_kraus(1.0), restarts=6, seed=0)
        d2 = diamond_distance(identity_kraus(), depolarizing_kraus(1.0), restarts=6, seed=99)
        assert 1.0 <= d1 <= 2.0
        assert abs(d1 - d2) < 1e-6
        # known value 1.5 for identity vs fully depolarizing on a qubit
        assert d1 == pytest.approx(1.5, abs=1e-6)

    def test_lower_bounds_single_state_distances(self):
        rng = np.random.default_rng(8)
        n1 = random_kraus_channel(rng)
        n2 = random_kraus_channel(rng)
        est = diamond_distance(n1, n2, restarts=8, seed=3)
        for _ in range(20):
            rho = random_density(Q, rng)
            assert est + 1e-9 >= trace_norm(n1.apply_matrix(rho.matrix) - n2.apply_matrix(rho.matrix))

    def test_never_exceeds_two(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n1, n2 = random_kraus_channel(rng), random_kraus_channel(rng)
            assert diamond_distance(n1, n2, restarts=2, seed=0) <= 2.0 + 1e-12


class TestTauNet:
    def test_cardinality_bound_value(self):
        assert tau_net_cardinality_bound(2, 1.0) == pytest.approx(3.0 ** 32)

    def test_large_tau_singleton(self):
        net = build_tau_net(2, 2, 2.0, budget=10)
        assert len(net.elements) == 1

    def test_budget_zero_rejected(self):
        with pytest.raises(ChannelError):
            build_tau_net(2, 2, 0.5, budget=0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ChannelError):
            build_tau_net(2, 2, 0.5, budget=-3)

    def test_zero_input_dimension_rejected(self):
        with pytest.raises(ChannelError):
            build_tau_net(0, 2, 0.5, budget=4)

    def test_zero_output_dimension_rejected(self):
        with pytest.raises(ChannelError):
            build_tau_net(2, 0, 0.5, budget=4)

    def test_budget_200_gives_200_cptp_elements(self):
        net = build_tau_net(2, 2, 0.5, budget=200)
        assert len(net.elements) == 200
        for elem in net.elements:
            comp = sum(a.conj().T @ a for a in elem.kraus_ops)
            assert np.max(np.abs(comp - np.eye(2))) < 1e-8

    @pytest.mark.parametrize("d_in, d_out, budget, size, reason", [
        (2, 1, 10, 2, "offsets_exhausted"),
        (1, 1, 3, 2, "offsets_exhausted"),
        (1, 3, 60, 36, "cardinality_bound"),
        (2, 2, 22, 22, None),
    ])
    def test_short_reason(self, d_in, d_out, budget, size, reason):
        net = build_tau_net(d_in, d_out, 0.5, budget)
        assert (len(net.elements), net.short_reason) == (size, reason)

    def test_large_tau_singleton_is_not_short(self):
        assert build_tau_net(2, 2, 2.0, budget=10).short_reason is None

    def test_lattice_record(self):
        net = build_tau_net(2, 2, 0.5, budget=22)
        assert (net.offsets_projected, net.duplicates_dropped, net.last_shell) == (26, 4, 1)
        net = build_tau_net(1, 2, 0.5, budget=30)
        assert (net.offsets_projected, net.duplicates_dropped, net.last_shell) == (41, 11, 3)
        assert len(net.elements) == net.offsets_projected - net.duplicates_dropped

    def test_net_elements_are_cptp(self):
        net = build_tau_net(2, 2, 0.5, budget=6)
        assert 1 <= len(net.elements) <= 6
        for elem in net.elements:
            comp = sum(a.conj().T @ a for a in elem.kraus_ops)
            assert np.max(np.abs(comp - np.eye(2))) < 1e-8

    def test_net_is_deterministic(self):
        n1 = build_tau_net(2, 2, 0.5, budget=4)
        n2 = build_tau_net(2, 2, 0.5, budget=4)
        for e1, e2 in zip(n1.elements, n2.elements):
            assert np.max(np.abs(choi_matrix(e1) - choi_matrix(e2))) < 1e-12

    def test_nearest_with_identity_in_net(self):
        net = ch.TauNet(1.0, (identity_kraus(), depolarizing_kraus(1.0)), 3.0 ** 32, 2, 2)
        dists = [diamond_distance(e, identity_kraus(), restarts=2, seed=0) for e in net.elements]
        assert min(dists) == pytest.approx(0.0, abs=1e-9)
        assert kraus_equivalent(net.elements[int(np.argmin(dists))], identity_kraus())

    def test_singleton_net_returns_its_element(self):
        net = ch.TauNet(2.0, (depolarizing_kraus(0.3),), 1.0, 2, 2)
        dists = [diamond_distance(e, identity_kraus()) for e in net.elements]
        assert min(dists) <= net.tau
        assert kraus_equivalent(net.elements[int(np.argmin(dists))], depolarizing_kraus(0.3))

    def test_hand_built_net_covers_nearby_target(self):
        # lattice of targets built from mixtures of net members: nearest element
        # must sit within the declared radius
        tau = 1.0
        members = (
            identity_kraus(),
            depolarizing_kraus(0.5),
            depolarizing_kraus(1.0),
            KrausChannel(Q, Q, [np.array([[0, 1], [1, 0]], dtype=complex)]),
        )
        net = ch.TauNet(tau, members, tau_net_cardinality_bound(2, tau), 2, 2)
        for p in [0.05, 0.45, 0.95]:
            target = depolarizing_kraus(p)
            dist = min(diamond_distance(e, target, restarts=2, seed=0) for e in net.elements)
            assert dist <= tau + 1e-9


def scan_offsets(n_params, budget):
    """The former enumeration: rescan the whole product once per L1 shell."""
    yield (0,) * n_params
    produced = 1
    shell = 1
    while produced < budget:
        found = False
        for signs in itertools.product((0, 1, -1), repeat=n_params):
            if sum(abs(s) for s in signs) == shell:
                found = True
                yield signs
                produced += 1
                if produced >= budget:
                    return
        if not found:
            return
        shell += 1


class TestLatticeOffsets:
    @settings(max_examples=80, deadline=None)
    @example((8, 3 ** 8 + 5))
    @example((8, 3 ** 8))
    @example((8, 40))
    @given(st.integers(0, 8).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(0, 3 ** p + 5))))
    def test_matches_product_scan(self, case):
        p, budget = case
        assert list(ch._lattice_offsets(p, budget)) == list(scan_offsets(p, budget))

    @pytest.mark.parametrize("p", range(9))
    def test_each_shell_lists_every_vector_once(self, p):
        offsets = list(ch._lattice_offsets(p, 3 ** p + 1))
        assert len(offsets) == len(set(offsets)) == 3 ** p
        norms = [sum(map(abs, v)) for v in offsets]
        assert norms == sorted(norms)
        for s in range(p + 1):
            assert norms.count(s) == math.comb(p, s) * 2 ** s

    def test_large_parameter_count_needs_no_deep_recursion(self):
        # d_in = d_out = 6: 1296 parameters, beyond the default recursion limit
        offsets = list(ch._lattice_offsets(1296, 3000))
        assert len(offsets) == 3000
        assert sum(map(abs, offsets[-1])) == 2


class TestCompoundSpec:
    def test_variant_checked(self):
        with pytest.raises(ChannelError):
            CompoundWiretapSpec("bogus", ("t1",), (bsc(0.1),), (bsc(0.3),))

    def test_repeated_state_name_rejected(self):
        # per_t rows are keyed by name: a repeated name would lose a row
        with pytest.raises(ChannelError, match="state names must be distinct"):
            CompoundWiretapSpec("classical", ("t1", "t1"), (bsc(0.1), bsc(0.2)),
                                (bsc(0.3), bsc(0.3)))

    @pytest.mark.parametrize("role", ["legitimate", "wiretap"])
    def test_missing_member_rejected(self, role):
        legit, wire = (None, bsc(0.3)) if role == "legitimate" else (bsc(0.1), None)
        with pytest.raises(ChannelError, match=f"does not take a NoneType as a {role} channel"):
            CompoundWiretapSpec("classical", ("t1",), (legit,), (wire,))

    def test_alphabet_mismatch_rejected(self):
        other = ClassicalChannel((0, 1, 2), (0, 1), [[1, 0], [0, 1], [0.5, 0.5]])
        with pytest.raises(ChannelError):
            CompoundWiretapSpec("classical", ("a", "b"), (bsc(0.1), other), (bsc(0.3), bsc(0.3)))

    def test_classical_embedding(self):
        cq = classical_to_cq(bsc(0.1))
        assert isinstance(cq, CQChannel)
        assert np.allclose(cq.state_matrix(0), np.diag([0.9, 0.1]))


class TestLetterEigensystems:
    def test_computed_once_read_only_and_equal_to_each_letters(self, eigensystem_calls):
        rng = np.random.default_rng(4)
        letters = [random_density(Q, rng).matrix for _ in range(3)]
        v = CQChannel((0, 1, 2), Q, dict(enumerate(letters)))
        assert v.letter_eigensystems is v.letter_eigensystems
        assert eigensystem_calls == [Q] * 3
        for (w, u), m in zip(v.letter_eigensystems, letters):
            w_ref, u_ref = hermitian_eigensystem(m)
            assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)
            assert not w.flags.writeable and not u.flags.writeable
