import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwk import qcore
from qwk.qcore import (
    DensityOperator,
    QcoreError,
    check_density,
    fidelity,
    degenerate_runs,
    ginibre_factor,
    ginibre_states,
    hermitian_eigensystem,
    kron_chain,
    pgm_inverse_sqrt,
    pretty_good_measurement,
    psd_sqrt,
    random_density,
    trace_norm,
)

A = 2


def test_density_validation_rejects_nonhermitian():
    with pytest.raises(QcoreError):
        DensityOperator([[0.5, 0.5], [0.0, 0.5]])


def test_density_validation_rejects_bad_trace():
    with pytest.raises(QcoreError):
        DensityOperator([[0.6, 0], [0, 0.6]])


def test_density_validation_rejects_negative():
    with pytest.raises(QcoreError):
        DensityOperator([[1.2, 0], [0, -0.2]])


@pytest.mark.parametrize("matrix", [np.zeros((0, 0)), np.zeros((0,)), [[1.0, 0.0]],
                                    np.eye(2).reshape(1, 2, 2) / 2, np.ones(1)])
def test_density_validation_rejects_an_empty_or_non_square_matrix(matrix):
    with pytest.raises(QcoreError):
        DensityOperator(matrix)


def test_eigensystem_identity():
    w, _ = hermitian_eigensystem(np.eye(2))
    assert np.allclose(w, [1, 1])


def test_eigensystem_diag():
    w, _ = hermitian_eigensystem(np.diag([0.7, 0.3]))
    assert np.allclose(w, [0.7, 0.3])


def test_eigensystem_reconstruction():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (g + g.conj().T) / 2
    w, v = hermitian_eigensystem(h)
    recon = (v * w) @ v.conj().T
    assert np.max(np.abs(recon - h)) < 1e-10
    # descending order and phase convention
    assert np.all(np.diff(w) <= 1e-12)
    for i in range(5):
        nz = np.nonzero(np.abs(v[:, i]) > 1e-12)[0][0]
        assert abs(np.angle(v[nz, i])) < 1e-9


def test_degenerate_runs_are_anchored_at_their_first_entry():
    # 1 - 0.6e-10 joins the run of 1; 1 - 1.2e-10 is past the anchor, so it starts a run
    w = np.array([1.0, 1.0 - 0.6e-10, 1.0 - 1.2e-10, 0.5, 0.5, 0.0])
    assert degenerate_runs(w) == [(0, 2), (2, 3), (3, 5), (5, 6)]
    assert degenerate_runs(np.array([])) == []


def _eigensystem_reference(m):
    """The column-by-column form of ``hermitian_eigensystem``: each column's
    phase fixed in a loop, every run of the spectrum sorted by its key."""
    w, v = np.linalg.eigh(np.asarray(m, dtype=complex))
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    cols = []
    for i in range(v.shape[1]):
        col = v[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size:
            col = col * np.exp(-1j * np.angle(col[nz[0]]))
        cols.append(col)

    def lex_key(c):
        r = np.round(c, 10)
        return tuple(x for pair in zip(r.real, r.imag) for x in pair)

    ordered = [k for i, j in degenerate_runs(w)
               for k in sorted(range(i, j), key=lambda k: lex_key(cols[k]))]
    return w[ordered], np.column_stack([cols[k] for k in ordered])


def test_eigensystem_equals_the_column_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    for t in range(600):
        d = int(rng.integers(1, 7))
        if t % 4 == 0:  # generic spectrum
            g = ginibre_factor(d, rng)
            h = g + g.conj().T
        elif t % 4 == 1:  # planted degeneracies in a random basis
            u = qcore.random_unitary(d, rng)
            h = (u * (rng.integers(0, 3, size=d) / 2)) @ u.conj().T
            h = (h + h.conj().T) / 2
        elif t % 4 == 2:  # a multiple of the identity
            h = np.eye(d) * rng.uniform(-1.0, 1.0)
        else:  # degenerate and diagonal
            h = np.diag(rng.integers(0, 2, size=d).astype(float))
        w, v = hermitian_eigensystem(h)
        w_ref, v_ref = _eigensystem_reference(h)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
        assert v.flags.c_contiguous  # as the stacked columns were


def test_eigensystem_rejects_nonhermitian():
    with pytest.raises(QcoreError):
        hermitian_eigensystem([[0, 1], [0, 0]])


def test_trace_norm_of_state_is_one():
    rng = np.random.default_rng(13)
    rho = random_density(A, rng)
    assert trace_norm(rho.matrix) == pytest.approx(1.0, abs=1e-10)


def test_trace_norm_diag():
    assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_matches_eigenvalue_sum_for_hermitian():
    rng = np.random.default_rng(17)
    rho = random_density(A, rng).matrix
    sigma = random_density(A, rng).matrix
    diff = rho - sigma
    oracle = np.abs(np.linalg.eigvalsh(diff)).sum()
    assert trace_norm(diff) == pytest.approx(oracle, abs=1e-10)


def test_fidelity_self_is_one():
    rng = np.random.default_rng(19)
    rho = random_density(A, rng)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_orthogonal_is_zero():
    z0 = DensityOperator(np.diag([1.0, 0.0]))
    z1 = DensityOperator(np.diag([0.0, 1.0]))
    assert fidelity(z0, z1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_zero_plus():
    v = np.array([1, 1]) / np.sqrt(2)
    plus = DensityOperator(np.outer(v, v))
    z0 = DensityOperator(np.diag([1.0, 0.0]))
    assert fidelity(z0, plus) == pytest.approx(0.5, abs=1e-10)


def test_fidelity_symmetry():
    rng = np.random.default_rng(23)
    rho, sigma = random_density(A, rng), random_density(A, rng)
    assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)


def test_fuchs_van_de_graaf_band():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho, sigma = random_density(A, rng), random_density(A, rng)
        f = fidelity(rho, sigma)
        t = trace_norm(rho.matrix - sigma.matrix) / 2
        assert 1 - f <= t + 1e-9
        assert t <= np.sqrt(max(0.0, 1 - f ** 2)) + 1e-9


def test_constructed_states_are_valid():
    rng = np.random.default_rng(37)
    for _ in range(20):
        rho = random_density(3, rng)
        ev = np.linalg.eigvalsh(rho.matrix)
        assert ev.min() > -1e-9
        assert ev.sum() == pytest.approx(1.0, abs=1e-9)


def test_dimension_cap_env_override(monkeypatch):
    monkeypatch.setenv("QWK_CAP_DIM", "8")
    assert qcore.hilbert_dim_cap() == 8
    with pytest.raises(qcore.CapExceededError):
        qcore.check_dim_cap(9)
    monkeypatch.delenv("QWK_CAP_DIM")
    assert qcore.hilbert_dim_cap() == 2 ** 14


def test_pgm_inverse_sqrt_is_pseudo_inverse_square_root_on_rank_deficient_sum():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    states = [np.outer(c, c.conj()) for c in g.T]
    total = sum(states)  # rank 2 on a 4-dimensional space
    inv_sqrt = pgm_inverse_sqrt(total)
    assert np.allclose(inv_sqrt, psd_sqrt(np.linalg.pinv(total, hermitian=True)), atol=1e-10)
    support = total @ np.linalg.pinv(total, hermitian=True)
    assert np.allclose(inv_sqrt @ total @ inv_sqrt, support, atol=1e-10)



@st.composite
def psd_stacks(draw):
    """(K, D, D) stacks of unit-trace PSD operators, K <= 5 and D <= 8, all
    supported on a random ``span``-dimensional subspace: the sum is rank
    deficient whenever span < D, and a state whenever its rank is below D."""
    k, d = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    span = draw(st.integers(1, d))
    ranks = draw(st.lists(st.integers(1, span), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def ginibre(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    frame = np.linalg.qr(ginibre(d, span))[0]
    states = []
    for r in ranks:
        g = frame @ ginibre(span, r)
        s = g @ g.conj().T
        states.append(s / np.trace(s).real)
    return np.stack(states)


class TestPrettyGoodMeasurement:
    @settings(max_examples=60, deadline=None)
    @given(stack=psd_stacks())
    def test_elements_against_former_forms(self, stack):
        w = np.linalg.eigvalsh(sum(stack))
        # rounding in S^-1/2 s S^-1/2 grows with the condition number of the
        # sum's support; the 1e-12 comparison below needs it bounded
        assume(w[w > 1e-9].min() > 1e-2)
        povm = pretty_good_measurement(stack)
        assert povm.shape == stack.shape
        for e in povm:
            assert np.max(np.abs(e - e.conj().T)) <= 1e-9
            assert np.linalg.eigvalsh(e).min() >= -1e-9
        assert np.linalg.eigvalsh(np.eye(stack.shape[1]) - povm.sum(axis=0)).min() >= -1e-9
        # the per-matrix products of the former decoders, and the former
        # stacked product, bit for bit
        inv_sqrt = pgm_inverse_sqrt(sum(stack))
        assert np.array_equal(povm, np.stack([inv_sqrt @ s @ inv_sqrt for s in stack]))
        assert np.array_equal(povm, inv_sqrt @ stack @ inv_sqrt)
        # in place: element k overwrites s_k, bit for bit the fresh output
        work = stack.copy()
        assert pretty_good_measurement(work, out=work) is work
        assert np.array_equal(work, povm)
        # the former three-operand einsum of the entanglement code (reference)
        ref = np.einsum("ab,kbc,cd->kad", inv_sqrt, stack, inv_sqrt)
        assert np.max(np.abs(povm - ref)) <= 1e-12


# a few exact values (zeros of both signs among them) plus arbitrary floats
_KRON_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                          st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def kron_factors(draw):
    """1 to 4 factors of shape batch + (r, c), r, c <= 3, complex or real; each
    factor takes a common batch shape with some of its axes set to 1."""
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    is_complex = draw(st.booleans())
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        shape = tuple(b if draw(st.booleans()) else 1 for b in batch)
        shape += (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        size = int(np.prod(shape))
        re = np.array(draw(st.lists(_KRON_ENTRIES, min_size=size, max_size=size)))
        if is_complex:
            im = np.array(draw(st.lists(_KRON_ENTRIES, min_size=size, max_size=size)))
            factors.append((re + 1j * im).reshape(shape))
        else:
            factors.append(re.reshape(shape))
    return factors


class TestKronChain:
    @settings(max_examples=150, deadline=None)
    @given(factors=kron_factors())
    def test_bit_equal_to_the_kron_loop(self, factors):
        batch = np.broadcast_shapes(*(f.shape[:-2] for f in factors))
        out = kron_chain(factors)
        rows = int(np.prod([f.shape[-2] for f in factors]))
        cols = int(np.prod([f.shape[-1] for f in factors]))
        assert out.shape == batch + (rows, cols)
        for idx in np.ndindex(*batch):
            ref = np.ones((1, 1), dtype=factors[0].dtype)
            for f in factors:
                ref = np.kron(ref, f[tuple(i if f.shape[k] > 1 else 0 for k, i in enumerate(idx))])
            assert out[idx].tobytes() == ref.tobytes()


@st.composite
def state_stacks(draw):
    """(N, d, d) stacks of random states, N <= 6 and d <= 4, each of a random
    rank (the Ginibre factor's later columns set to zero)."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = np.stack([ginibre_factor(d, rng) for _ in range(n)])
    for g in factors:
        g[:, draw(st.integers(1, d)):] = 0.0
    return ginibre_states(factors)


class TestStackedKernels:
    """A stack through ``psd_sqrt``, ``trace_norm``, ``fidelity`` or
    ``check_density`` gives, bit for bit, what each matrix gives alone."""

    @settings(max_examples=120, deadline=None)
    @given(stack=state_stacks())
    def test_bit_equal_to_per_matrix_calls(self, stack):
        check_density(stack)
        states = [DensityOperator(m) for m in stack]
        roots = psd_sqrt(stack)
        for root, m in zip(roots, stack):
            assert root.tobytes() == psd_sqrt(m).tobytes()
        other = stack[::-1]
        norms = trace_norm(stack - other)
        assert norms.shape == stack.shape[:1]
        assert norms.tobytes() == np.array([trace_norm(a - b) for a, b in zip(stack, other)]).tobytes()
        fids = fidelity(roots, roots[::-1])
        assert fids.shape == stack.shape[:1]
        assert fids.tobytes() == np.array(
            [fidelity(a, b) for a, b in zip(states, states[::-1])]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4), n=st.integers(1, 6))
    def test_ginibre_stack_equals_random_density(self, seed, d, n):
        rng = np.random.default_rng(seed)
        stack = ginibre_states(np.stack([ginibre_factor(d, rng) for _ in range(n)]))
        rng = np.random.default_rng(seed)
        for m in stack:
            assert m.tobytes() == random_density(d, rng).matrix.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(stack=state_stacks(), data=st.data(),
           fault=st.sampled_from(["hermitian", "negative", "trace"]))
    def test_one_bad_matrix_raises_what_density_operator_raises(self, stack, data, fault):
        d = stack.shape[-1]
        i = data.draw(st.integers(0, len(stack) - 1))
        stack = stack.copy()
        if fault == "hermitian":
            stack[i, 0, d - 1] += 1e-3j if d == 1 else 1e-3
        elif fault == "negative":
            stack[i] -= 2.0 * np.eye(d)
        else:
            stack[i] *= 1.5
        with pytest.raises(QcoreError) as alone:
            DensityOperator(stack[i])
        with pytest.raises(QcoreError) as stacked:
            check_density(stack)
        assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("d", [8, 32, 64])
def test_stacked_psd_sqrt_is_bit_equal_at_entanglement_code_sizes(d):
    rng = np.random.default_rng(d)
    stack = ginibre_states(np.stack([ginibre_factor(d, rng, rank=d // 2) for _ in range(3)]))
    roots = psd_sqrt(stack)
    for root, m in zip(roots, stack):
        assert root.tobytes() == psd_sqrt(m).tobytes()
