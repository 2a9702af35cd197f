import numpy as np
import pytest

from qwk.capacity import (
    CapacityReport,
    SolverConfig,
    _ascend_simplices,
    _ClassicalTerm,
    _cq_block_terms,
    _objective,
    SolverError,
    classical_csi_capacity,
    classical_nocsi_lower,
    cq_csi_capacity,
    cq_nocsi_capacity,
    entgen_csi_capacity,
    entgen_lower_bound,
    project_simplex,
    qwiretap_csi_capacity,
    qwiretap_nocsi_lower,
    simplex_grid,
)
from qwk.channels import (
    CQChannel,
    ClassicalChannel,
    CompoundWiretapSpec,
    bsc,
    classical_to_cq,
    depolarizing_kraus,
    identity_kraus,
)
from qwk.infotheory import binary_entropy

Z = 2

FAST = SolverConfig(grid_resolution=16, refine_iters=15, restarts=2, seed=0)


def classical_spec(pairs):
    names = tuple(f"t{i+1}" for i in range(len(pairs)))
    return CompoundWiretapSpec(
        "classical", names, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    )


def cq_wiretap_spec(pairs):
    names = tuple(f"t{i+1}" for i in range(len(pairs)))
    return CompoundWiretapSpec(
        "classical-quantum-wiretap",
        names,
        tuple(p[0] for p in pairs),
        tuple(p[1] for p in pairs),
    )


def cq_spec(pairs):
    names = tuple(f"t{i+1}" for i in range(len(pairs)))
    return CompoundWiretapSpec(
        "cq", names, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    )


def quantum_spec(members):
    names = tuple(f"t{i+1}" for i in range(len(members)))
    return CompoundWiretapSpec("quantum", names, members, members)


def constant_cq():
    return CQChannel((0, 1), Z, {0: np.eye(2) / 2, 1: np.eye(2) / 2})


def orthogonal_cq():
    return CQChannel((0, 1), Z, {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})


class TestSimplexUtilities:
    def test_grid_points_are_distributions(self):
        g = simplex_grid(8, 3)
        assert np.allclose(g.sum(axis=1), 1.0)
        assert g.min() >= 0

    def test_grid_contains_vertices_and_centers(self):
        g = simplex_grid(8, 2)
        assert any(np.allclose(p, [1, 0]) for p in g)
        assert any(np.allclose(p, [0.5, 0.5]) for p in g)

    def test_projection_idempotent_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(v), v)

    def test_projection_clips_negatives(self):
        p = project_simplex(np.array([1.4, -0.4]))
        assert np.allclose(p, [1.0, 0.0])


class TestClassicalCsi:
    def test_degraded_bsc_closed_form(self):
        spec = classical_spec([(bsc(0.1), bsc(0.3))])
        cfg = SolverConfig(grid_resolution=64, refine_iters=50, restarts=2, seed=0)
        rep = classical_csi_capacity(spec, cfg)
        expect = binary_entropy(0.3) - binary_entropy(0.1)
        assert expect == pytest.approx(0.412295, abs=1e-6)
        assert rep.value == pytest.approx(expect, abs=1e-3)

    def test_wiretap_equals_legitimate_gives_zero(self):
        spec = classical_spec([(bsc(0.15), bsc(0.15))])
        rep = classical_csi_capacity(spec, FAST)
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    def test_duplicate_state_same_as_singleton(self):
        single = classical_spec([(bsc(0.1), bsc(0.3))])
        double = classical_spec([(bsc(0.1), bsc(0.3)), (bsc(0.1), bsc(0.3))])
        r1 = classical_csi_capacity(single, FAST)
        r2 = classical_csi_capacity(double, FAST)
        assert r1.value == pytest.approx(r2.value, abs=1e-9)

    def test_report_value_matches_per_t_min(self):
        spec = classical_spec([(bsc(0.1), bsc(0.3)), (bsc(0.05), bsc(0.2))])
        rep = classical_csi_capacity(spec, FAST)
        mins = min(v["value"] for v in rep.per_t.values())
        assert rep.value_raw == pytest.approx(mins, abs=1e-12)

    def test_variant_mismatch_rejected(self):
        spec = cq_wiretap_spec([(bsc(0.1), constant_cq())])
        with pytest.raises(SolverError):
            classical_csi_capacity(spec, FAST)


class TestClassicalNoCsi:
    def test_singleton_matches_csi(self):
        spec = classical_spec([(bsc(0.1), bsc(0.3))])
        r_csi = classical_csi_capacity(spec, FAST)
        r_no = classical_nocsi_lower(spec, FAST)
        assert r_no.value == pytest.approx(r_csi.value, abs=1e-3)

    def test_duplicate_reduction(self):
        single = classical_spec([(bsc(0.1), bsc(0.3))])
        double = classical_spec([(bsc(0.1), bsc(0.3)), (bsc(0.1), bsc(0.3))])
        r1 = classical_nocsi_lower(single, FAST)
        r2 = classical_nocsi_lower(double, FAST)
        assert r1.value == pytest.approx(r2.value, abs=1e-9)

    def test_dominated_wiretapper_gives_zero(self):
        spec = classical_spec([(bsc(0.1), bsc(0.3)), (bsc(0.3), bsc(0.1))])
        rep = classical_nocsi_lower(spec, FAST)
        assert rep.value == pytest.approx(0.0, abs=1e-6)

    def test_nocsi_below_csi(self):
        spec = classical_spec([(bsc(0.1), bsc(0.3)), (bsc(0.12), bsc(0.25))])
        r_csi = classical_csi_capacity(spec, FAST)
        r_no = classical_nocsi_lower(spec, FAST)
        assert r_no.value <= r_csi.value + 1e-6


class TestQuantumWiretap:
    def test_constant_wiretap_reduces_to_legitimate_capacity(self):
        spec = cq_wiretap_spec([(bsc(0.0), constant_cq())])
        rep = qwiretap_csi_capacity(spec, FAST)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_classical_embedding_matches_classical_solver(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            pw = rng.uniform(0.05, 0.45)
            pv = rng.uniform(0.05, 0.45)
            cspec = classical_spec([(bsc(pw), bsc(pv))])
            qspec = cq_wiretap_spec([(bsc(pw), classical_to_cq(bsc(pv)))])
            r_c = classical_csi_capacity(cspec, FAST)
            r_q = qwiretap_csi_capacity(qspec, FAST)
            assert r_q.value == pytest.approx(r_c.value, abs=1e-6)

    def test_nocsi_singleton_and_duplicate(self):
        single = cq_wiretap_spec([(bsc(0.1), orthogonal_cq())])
        double = cq_wiretap_spec(
            [(bsc(0.1), orthogonal_cq()), (bsc(0.1), orthogonal_cq())]
        )
        r1 = qwiretap_nocsi_lower(single, FAST)
        r2 = qwiretap_nocsi_lower(double, FAST)
        assert r1.value == pytest.approx(r2.value, abs=1e-9)

    def test_nocsi_dominated_zero(self):
        spec = cq_wiretap_spec(
            [
                (bsc(0.1), classical_to_cq(bsc(0.3))),
                (bsc(0.3), classical_to_cq(bsc(0.1))),
            ]
        )
        rep = qwiretap_nocsi_lower(spec, FAST)
        assert rep.value == pytest.approx(0.0, abs=1e-6)


class TestCqSolvers:
    def test_orthogonal_legit_constant_wiretap(self):
        spec = cq_spec([(orthogonal_cq(), constant_cq())])
        rep = cq_csi_capacity(spec, FAST)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_wiretap_equals_legitimate_zero(self):
        spec = cq_spec([(orthogonal_cq(), orthogonal_cq())])
        rep = cq_csi_capacity(spec, FAST)
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    def test_zero_plus_ensemble_frozen_optimum(self):
        legit = CQChannel(
            (0, 1), Z, {0: np.diag([1.0, 0.0]), 1: np.array([[0.5, 0.5], [0.5, 0.5]])}
        )
        spec = cq_spec([(legit, constant_cq())])
        cfg = SolverConfig(grid_resolution=64, refine_iters=40, restarts=2, seed=0)
        rep = cq_csi_capacity(spec, cfg)
        assert rep.value == pytest.approx(0.600876, abs=1e-4)
        assert rep.argmax["t1"]["word_prior"][0] == pytest.approx(0.5, abs=1e-2)

    def test_nocsi_singleton_reduces_to_csi(self):
        spec = cq_spec([(orthogonal_cq(), constant_cq())])
        r_csi = cq_csi_capacity(spec, FAST)
        r_no = cq_nocsi_capacity(spec, FAST)
        assert r_no.value == pytest.approx(r_csi.value, abs=1e-3)

    def test_nocsi_dominated_zero(self):
        noisy = CQChannel(
            (0, 1), Z, {0: np.diag([0.7, 0.3]), 1: np.diag([0.3, 0.7])}
        )
        spec = cq_spec([(noisy, orthogonal_cq()), (orthogonal_cq(), orthogonal_cq())])
        rep = cq_nocsi_capacity(spec, FAST)
        assert rep.value == pytest.approx(0.0, abs=1e-6)

    def test_fixed_n_two_runs_consistent(self):
        spec = cq_spec([(orthogonal_cq(), constant_cq())])
        cfg = SolverConfig(n=2, grid_resolution=8, refine_iters=10, restarts=1, seed=0)
        rep = cq_csi_capacity(spec, cfg)
        assert rep.n == 2
        assert rep.value == pytest.approx(1.0, abs=1e-3)

    def test_useless_legitimate_family_gives_zero(self):
        # when no prior carries information to the receiver, the rate is zero
        spec = cq_spec([(constant_cq(), orthogonal_cq())])
        rep = cq_csi_capacity(spec, FAST)
        assert rep.value == pytest.approx(0.0, abs=1e-12)


class TestEntgenSolvers:
    def test_identity_family_rate_one(self):
        rep = entgen_lower_bound(quantum_spec([identity_kraus()]), FAST)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_fully_depolarizing_clamped_zero(self):
        rep = entgen_lower_bound(quantum_spec([depolarizing_kraus(1.0)]), FAST)
        assert rep.value == pytest.approx(0.0, abs=1e-6)
        assert rep.value_raw <= 1e-6

    def test_duplicate_identity(self):
        rep = entgen_lower_bound(quantum_spec([identity_kraus(), identity_kraus()]), FAST)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_csi_identity(self):
        rep = entgen_csi_capacity(quantum_spec([identity_kraus()]), FAST)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_csi_fully_depolarizing_raw_max_is_zero(self):
        # max over rho of the coherent information of the fully depolarizing
        # channel is 0, attained at pure inputs (at the maximally mixed input
        # the value is -1); grid oracle over the Bloch ball:
        from qwk.infotheory import coherent_information
        from qwk.qcore import DensityOperator

        best = -np.inf
        chan = depolarizing_kraus(1.0)
        for r in np.linspace(0, 1, 9):
            for theta in np.linspace(0, np.pi, 7):
                rho = DensityOperator(
                    0.5 * (np.eye(2) + r * np.cos(theta) * np.diag([1, -1])
                           + r * np.sin(theta) * np.array([[0, 1], [1, 0]])),
                )
                best = max(best, coherent_information(rho, chan))
        assert best == pytest.approx(0.0, abs=1e-9)
        rep = entgen_csi_capacity(quantum_spec([depolarizing_kraus(1.0)]), FAST)
        assert rep.value_raw == pytest.approx(0.0, abs=1e-4)

    def test_csi_min_over_family(self):
        rep = entgen_csi_capacity(quantum_spec([identity_kraus(), depolarizing_kraus(1.0)]),
                                  FAST)
        assert rep.value == pytest.approx(0.0, abs=1e-4)


class TestStructureProperties:
    def test_theta_monotonicity(self):
        base = classical_spec([(bsc(0.1), bsc(0.3))])
        bigger = classical_spec([(bsc(0.1), bsc(0.3)), (bsc(0.2), bsc(0.25))])
        assert (
            classical_csi_capacity(bigger, FAST).value
            <= classical_csi_capacity(base, FAST).value + 1e-9
        )

    def test_aux_card_monotonicity(self):
        spec = classical_spec([(bsc(0.1), bsc(0.3))])
        vals = []
        for aux in (1, 2, 3):
            cfg = SolverConfig(
                aux_card=aux, grid_resolution=16, refine_iters=10, restarts=1, seed=0
            )
            vals.append(classical_csi_capacity(spec, cfg).value)
        assert vals[0] <= vals[1] + 1e-9
        assert vals[1] <= vals[2] + 1e-9

    def test_determinism(self):
        spec = classical_spec([(bsc(0.1), bsc(0.3)), (bsc(0.2), bsc(0.25))])
        r1 = classical_nocsi_lower(spec, FAST)
        r2 = classical_nocsi_lower(spec, FAST)
        assert r1.to_json_dict() == r2.to_json_dict()


# ---------------------------------------------------------------------------
# the shared simplex ascent against the two loops it replaced


def _refine_reference(objective, q0, e0, iters, tol):
    """The former prior-and-prefix ascent, kept as an oracle."""
    m, a = e0.shape
    q, e = q0.copy(), e0.copy()

    def val(q, e):
        return float(objective(q[None, :], e)[0])

    best = val(q, e)
    step = 0.25
    h = 1e-5
    for _ in range(iters):
        grad_q = np.zeros(m)
        for i in range(m):
            qp = q.copy()
            qp[i] += h
            qp = project_simplex(qp)
            grad_q[i] = (val(qp, e) - best) / h
        grad_e = np.zeros((m, a))
        for u in range(m):
            for x in range(a):
                ep = e.copy()
                ep[u, x] += h
                ep[u] = project_simplex(ep[u])
                grad_e[u, x] = (val(q, ep) - best) / h
        improved = False
        while step > 1e-6:
            q_new = project_simplex(q + step * grad_q)
            e_new = np.vstack([project_simplex(e[u] + step * grad_e[u]) for u in range(m)])
            cand = val(q_new, e_new)
            if cand > best + tol:
                q, e, best = q_new, e_new, cand
                improved = True
                break
            step /= 2.0
        if not improved:
            break
    return best, q, e


def _prior_ascent_reference(objective, q0, iters, tol):
    """The former inner loop of the prior-only maximizer, kept as an oracle."""
    a = len(q0)
    eye = np.eye(a)

    def val(q):
        return float(objective(q[None, :], eye)[0])

    q = np.asarray(q0, dtype=float)
    cur = val(q)
    step, h = 0.25, 1e-5
    for _ in range(iters):
        grad = np.zeros(a)
        for i in range(a):
            qp = project_simplex(q + h * eye[i])
            grad[i] = (val(qp) - cur) / h
        improved = False
        while step > 1e-6:
            q_new = project_simplex(q + step * grad)
            cand = val(q_new)
            if cand > cur + tol:
                q, cur = q_new, cand
                improved = True
                break
            step /= 2.0
        if not improved:
            break
    return cur, q


def _qubit_state(top, angle):
    c, s = np.cos(angle), np.sin(angle)
    v = np.array([[c, -s], [s, c]])
    return v @ np.diag([top, 1.0 - top]) @ v.T


class TestSimplexAscent:
    ITERS, TOL = 40, 1e-9

    def test_prior_and_prefix_ascent_matches_reference(self):
        spec = classical_spec([(bsc(0.1), bsc(0.3)), (bsc(0.15), bsc(0.22))])
        legit = _ClassicalTerm([w.matrix for w in spec.legitimate])
        wire = _ClassicalTerm([v.matrix for v in spec.wiretap])
        objective = _objective(legit, wire)
        a = 2
        rng = np.random.default_rng(11)
        rows = simplex_grid(4, a)
        for m in (1, 2, 3):
            grid_starts = [(q, rows[(np.arange(m) + j) % len(rows)])
                           for j, q in enumerate(simplex_grid(4, m)[:3])]
            dirichlet_starts = [(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(a), size=m))
                                for _ in range(3)]
            blocks = [slice(0, m)] + [slice(m + u * a, m + (u + 1) * a) for u in range(m)]

            def val(xs, m=m):
                return objective(xs[:, None, :m], xs[:, m:].reshape(-1, m, a))[:, 0]

            starts = grid_starts + dirichlet_starts
            x0s = np.array([np.concatenate([q0, e0.reshape(-1)]) for q0, e0 in starts])
            vs, xs, _ = _ascend_simplices(val, x0s, blocks, self.ITERS, self.TOL)
            for (q0, e0), v, x in zip(starts, vs, xs):
                ref_v, ref_q, ref_e = _refine_reference(objective, q0, e0, self.ITERS, self.TOL)
                assert v == ref_v
                assert np.array_equal(x[:m], ref_q)
                assert np.array_equal(x[m:].reshape(m, a), ref_e)

    def test_prior_ascent_matches_reference(self):
        # pure legitimate states: steep enough that steps are halved and then taken
        legit_cq = CQChannel((0, 1), Z, {0: _qubit_state(1.0, 0.0), 1: _qubit_state(1.0, 1.2)})
        wire_cq = CQChannel((0, 1), Z, {0: _qubit_state(0.8, 0.3), 1: _qubit_state(0.8, 1.2)})
        legit, wire, n_words = _cq_block_terms(cq_spec([(legit_cq, wire_cq)]), 2)
        objective = _objective(legit, wire)
        eye = np.eye(n_words)

        def val(qs):
            return objective(qs[:, None, :], eye)[:, 0]

        rng = np.random.default_rng(12)
        starts = list(simplex_grid(3, n_words)[::4]) + [rng.dirichlet(np.ones(n_words))
                                                         for _ in range(4)]
        vs, qs, _ = _ascend_simplices(val, np.array(starts), [slice(0, n_words)],
                                      self.ITERS, self.TOL)
        for q0, v, q in zip(starts, vs, qs):
            ref_v, ref_q = _prior_ascent_reference(objective, q0, self.ITERS, self.TOL)
            assert v == ref_v
            assert np.array_equal(q, ref_q)

    def test_objective_matches_stacked_min_and_max(self):
        spec = classical_spec([(bsc(0.1), bsc(0.3)), (bsc(0.15), bsc(0.22)), (bsc(0.05), bsc(0.4))])
        legit = _ClassicalTerm([w.matrix for w in spec.legitimate])
        wire = _ClassicalTerm([v.matrix for v in spec.wiretap])
        qs = simplex_grid(8, 2)
        e = np.array([[0.9, 0.1], [0.3, 0.7]])
        per_state = (np.stack([legit.at(t).batch(qs, e)[..., 0] for t in range(3)]).min(axis=0)
                     - np.stack([wire.at(t).batch(qs, e)[..., 0] for t in range(3)]).max(axis=0))
        assert np.array_equal(_objective(legit, wire)(qs, e), per_state)
        single = legit.at(0).batch(qs, e)[..., 0] - wire.at(0).batch(qs, e)[..., 0]
        assert np.array_equal(_objective(legit.at(0), wire.at(0))(qs, e), single)


# ---------------------------------------------------------------------------
# stacked evaluation against per-point and per-matrix references

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from qwk import capacity
from qwk.capacity import (
    _ascend_unconstrained,
    _ChiMixTerm,
    _ChiPowerTerm,
    _coherent_objective,
    _maximize_aux,
)
from qwk.channels import n_fold
from qwk.cli import load_spec
from qwk.infotheory import coherent_information_matrix
from qwk.qcore import kron_chain

SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")

# a few repeated values so that rows have ties, plus negatives and arbitrary floats
_ENTRIES = st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.25, 0.5, 1.0]),
                     st.floats(-3.0, 3.0, allow_nan=False))


def _unconstrained_reference(objective, p0, iters):
    """The former one-point-per-call ascent of propo1, kept as an oracle."""
    p = p0.copy()
    best = objective(p)
    step = 0.2
    h = 1e-5
    for _ in range(iters):
        grad = np.zeros_like(p)
        for i in range(len(p)):
            pp = p.copy()
            pp[i] += h
            grad[i] = (objective(pp) - best) / h
        norm = np.linalg.norm(grad)
        if norm < 1e-12:
            break
        improved = False
        while step > 1e-7:
            cand = p + step * grad / norm
            cv = objective(cand)
            if cv > best + 1e-12:
                p, best = cand, cv
                improved = True
                break
            step /= 2.0
        if not improved:
            break
    return best, p


class TestStackedSolver:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda k: st.lists(st.lists(_ENTRIES, min_size=k, max_size=k), min_size=1, max_size=8)))
    def test_projection_rows_match_one_dimensional_calls(self, rows):
        v = np.array(rows)
        rowwise = np.stack([project_simplex(r) for r in v])
        assert np.array_equal(project_simplex(v), rowwise)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kron_power_matches_kron_loop(self, n):
        # the n-th tensor power of a letter stack, as the chi-power term forms it
        rng = np.random.default_rng(31)
        stack = rng.normal(size=(3, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2))
        powered = kron_chain([stack] * n)
        for b in range(3):
            for u in range(2):
                ref = np.array([[1.0 + 0j]])
                for _ in range(n):
                    ref = np.kron(ref, stack[b, u])
                assert np.array_equal(powered[b, u], ref)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unconstrained_ascent_matches_reference(self, n):
        family = load_spec(os.path.join(SPECS, "two_channel_family.json")).legitimate
        kraus = family[1]
        folded = n_fold(kraus, n) if n > 1 else kraus
        dim = folded.d_in
        objective = _coherent_objective(folded)

        def scalar_objective(params):
            m = params[: dim * dim].reshape(dim, dim) + 1j * params[dim * dim :].reshape(dim, dim)
            g = m @ m.conj().T
            tr = np.trace(g).real
            if tr < 1e-14:
                return -np.inf
            return coherent_information_matrix(g / tr, folded)

        rng = np.random.default_rng(32)
        starts = [np.concatenate([np.eye(dim).reshape(-1) / np.sqrt(dim), np.zeros(dim * dim)])]
        starts += [rng.normal(size=2 * dim * dim) for _ in range(2)]
        vs, ps, _ = _ascend_unconstrained(objective, np.array(starts), 40)
        for p0, v, p in zip(starts, vs, ps):
            ref_v, ref_p = _unconstrained_reference(scalar_objective, p0, 40)
            assert v == ref_v
            assert np.array_equal(p, ref_p)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_grid_scan_chunk_invariance(self, chunk, monkeypatch):
        b1 = load_spec(os.path.join(SPECS, "bsc_dominated.json"))
        csi = load_spec(os.path.join(SPECS, "qwiretap_orthogonal.json"))
        cases = [
            (_objective(_ClassicalTerm([b1.legitimate[0].matrix]),
                        _ClassicalTerm([b1.wiretap[0].matrix])), SolverConfig(grid_resolution=8)),
            (_objective(_ClassicalTerm([csi.legitimate[0].matrix]),
                        _ChiPowerTerm([csi.wiretap[0].letters], 2)),
             SolverConfig(n=2, grid_resolution=8, restarts=2)),
        ]
        for objective, cfg in cases:
            default = _maximize_aux(objective, 2, cfg, tag=0)
            monkeypatch.setattr(capacity, "_GRID_CHUNK", chunk)
            patched = _maximize_aux(objective, 2, cfg, tag=0)
            monkeypatch.undo()
            assert patched[0] == default[0] and patched[3] == default[3]
            assert np.array_equal(patched[1], default[1])
            assert np.array_equal(patched[2], default[2])


class TestLockstepAscent:
    """Every start of a lockstep run follows the trajectory it follows alone."""

    ITERS, TOL = 40, 1e-9

    def _b1prime_val(self, m):
        b1p = load_spec(os.path.join(SPECS, "bsc_two_state.json"))
        objective = _objective(_ClassicalTerm([w.matrix for w in b1p.legitimate]),
                               _ClassicalTerm([v.matrix for v in b1p.wiretap]))

        def val(xs):
            return objective(xs[:, None, :m], xs[:, m:].reshape(-1, m, 2))[:, 0]

        return val

    @staticmethod
    def _assert_rows_match_one_row_runs(ascend, val, x0s, *args):
        vs, xs, run = ascend(val, x0s, *args)
        alone = [ascend(val, x0[None], *args) for x0 in x0s]
        for k, (v1, x1, _) in enumerate(alone):
            assert vs[k] == v1[0]
            assert np.array_equal(xs[k], x1[0])
        assert run["iterations"] == max(r["iterations"] for _, _, r in alone)
        assert run["stalled"] == sum(r["stalled"] for _, _, r in alone)
        assert run["stalled"] + run["at_limit"] == len(x0s)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_simplex_rows_match_one_row_runs(self, m):
        a = 2
        rng = np.random.default_rng(40 + m)
        x0s = np.array([np.concatenate([rng.dirichlet(np.ones(m)),
                                        rng.dirichlet(np.ones(a), size=m).reshape(-1)])
                        for _ in range(9)])
        blocks = [slice(0, m)] + [slice(m + u * a, m + (u + 1) * a) for u in range(m)]
        self._assert_rows_match_one_row_runs(_ascend_simplices, self._b1prime_val(m), x0s,
                                             blocks, self.ITERS, self.TOL)

    def test_prior_rows_match_one_row_runs(self):
        legit_cq = CQChannel((0, 1), Z, {0: _qubit_state(1.0, 0.0), 1: _qubit_state(1.0, 1.2)})
        wire_cq = CQChannel((0, 1), Z, {0: _qubit_state(0.8, 0.3), 1: _qubit_state(0.8, 1.2)})
        legit, wire, n_words = _cq_block_terms(cq_spec([(legit_cq, wire_cq)]), 2)
        objective = _objective(legit, wire)
        eye = np.eye(n_words)

        def val(qs):
            return objective(qs[:, None, :], eye)[:, 0]

        x0s = np.random.default_rng(44).dirichlet(np.ones(n_words), size=9)
        self._assert_rows_match_one_row_runs(_ascend_simplices, val, x0s,
                                             [slice(0, n_words)], self.ITERS, self.TOL)

    def test_unconstrained_rows_match_one_row_runs(self):
        family = load_spec(os.path.join(SPECS, "two_channel_family.json")).legitimate
        folded = n_fold(family[1], 2)
        objective = _coherent_objective(folded)
        rng = np.random.default_rng(43)
        p0s = rng.normal(size=(9, 2 * 16))
        p0s[0] = np.concatenate([np.eye(4).reshape(-1) / 2.0, np.zeros(16)])
        self._assert_rows_match_one_row_runs(_ascend_unconstrained, objective, p0s, self.ITERS)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_ascent_chunk_invariance(self, chunk, monkeypatch):
        b1 = load_spec(os.path.join(SPECS, "bsc_dominated.json"))
        objective = _objective(_ClassicalTerm([b1.legitimate[0].matrix]),
                               _ClassicalTerm([b1.wiretap[0].matrix]))
        cfg = SolverConfig(grid_resolution=8, restarts=2)
        propo1_spec = load_spec(os.path.join(SPECS, "two_channel_family.json"))
        propo1_cfg = SolverConfig(n=2, grid_resolution=8, restarts=2)
        default = _maximize_aux(objective, 2, cfg, tag=0)
        default_propo1 = entgen_csi_capacity(propo1_spec, propo1_cfg)
        monkeypatch.setattr(capacity, "_ASCENT_CHUNK", chunk)
        patched = _maximize_aux(objective, 2, cfg, tag=0)
        patched_propo1 = entgen_csi_capacity(propo1_spec, propo1_cfg)
        monkeypatch.undo()
        assert patched[0] == default[0] and patched[3] == default[3]
        assert np.array_equal(patched[1], default[1])
        assert np.array_equal(patched[2], default[2])
        assert patched[4] == default[4]
        assert patched_propo1.to_json_dict() == default_propo1.to_json_dict()
        assert patched_propo1.solver == default_propo1.solver


# ---------------------------------------------------------------------------
# the state axis: one term object per role, state t in column t


def _stochastic_rows(rng, a, o):
    return rng.dirichlet(np.ones(o), size=a)


def _random_letters(rng, a, d):
    """An (a, d, d) stack of random d x d density matrices."""
    g = rng.normal(size=(a, d, d)) + 1j * rng.normal(size=(a, d, d))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


class TestStateAxis:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(2, 4), min_size=1, max_size=4),
           st.integers(2, 4))
    def test_adding_a_state_never_raises_the_nocsi_objective(self, seed, outs, m):
        rng = np.random.default_rng(seed)
        a = 2
        legit = [_stochastic_rows(rng, a, o) for o in outs]
        wire = [_stochastic_rows(rng, a, o) for o in reversed(outs)]
        extra_l, extra_w = _stochastic_rows(rng, a, 3), _stochastic_rows(rng, a, 2)
        qs = rng.dirichlet(np.ones(m), size=5)
        e = rng.dirichlet(np.ones(a), size=(3, m))
        base = _objective(_ClassicalTerm(legit), _ClassicalTerm(wire))(qs, e)
        grown = _objective(_ClassicalTerm(legit + [extra_l]), _ClassicalTerm(wire + [extra_w]))
        assert np.all(grown(qs, e) <= base)

    @pytest.mark.parametrize("formula, spec_name", [
        ("b1prime", "bsc_two_state.json"), ("noCSIcap", "qubit_wiretap.json"),
        ("qnocsie1q", "cq_pair.json"), ("entheorem", "two_channel_family.json"),
        ("propo1", "two_channel_family.json"),
    ])
    def test_reversing_theta_reverses_per_t_only(self, formula, spec_name):
        spec = load_spec(os.path.join(SPECS, spec_name))
        if len(spec) == 1:
            # a second state, so that the order of theta matters
            spec = CompoundWiretapSpec(spec.variant, ("t1", "t2"), spec.legitimate * 2,
                                       spec.wiretap[:1] + (_other_wiretap(spec),))
        flipped = CompoundWiretapSpec(spec.variant, spec.names[::-1], spec.legitimate[::-1],
                                      spec.wiretap[::-1])
        # propo1 keys its restart draws by state position: no restarts, so
        # that each state's starts do not depend on the order of theta
        restarts = 0 if formula == "propo1" else 1
        cfg = SolverConfig(grid_resolution=6, refine_iters=10, restarts=restarts)
        solver = capacity.FORMULAS[formula.lower()]
        fwd, rev = solver(spec, cfg), solver(flipped, cfg)
        assert list(rev.per_t) == list(fwd.per_t)[::-1]
        assert rev.value_raw == fwd.value_raw
        assert rev.argmax == fwd.argmax
        assert list(rev.per_t.values()) == list(fwd.per_t.values())[::-1]

    @pytest.mark.parametrize("kind", ["classical", "chi_power", "chi_mix"])
    def test_mixed_shape_columns_equal_single_state_terms(self, kind):
        rng = np.random.default_rng(61)
        sizes = [2, 3, 2, 4, 3]
        if kind == "classical":
            term = _ClassicalTerm([_stochastic_rows(rng, 2, o) for o in sizes])
        elif kind == "chi_power":
            term = _ChiPowerTerm([_random_letters(rng, 2, d) for d in sizes], 2)
        else:
            term = _ChiMixTerm([_random_letters(rng, 4, d) for d in sizes], 2)
        assert len(term.stacks) == 3
        m, a = 3, (4 if kind == "chi_mix" else 2)
        for qs, e in [(rng.dirichlet(np.ones(m), size=4), rng.dirichlet(np.ones(a), size=(5, m))),
                      (rng.dirichlet(np.ones(a), size=(6, 1)), np.eye(a))]:
            cols = term.batch(qs, e)
            assert cols.shape[-1] == len(sizes)
            for t in range(len(sizes)):
                assert np.array_equal(cols[..., t], term.at(t).batch(qs, e)[..., 0])


def _other_wiretap(spec):
    """A second wiretap channel of the kind of the spec's first."""
    v = spec.wiretap[0]
    if isinstance(v, ClassicalChannel):
        return bsc(0.35)
    d = v.d_out
    return CQChannel(v.input_alphabet, v.d_out,
                     {x: 0.5 * v.letters[i] + 0.5 * np.eye(d) / d
                      for i, x in enumerate(v.input_alphabet)})


# ---------------------------------------------------------------------------
# n S(z_u) for the i.i.d. letter terms, and the prior grid in chunks

import tracemalloc

from qwk.infotheory import entropy_rows


def _chi_power_reference(qs, e, letters, n):
    """The former Kronecker-power Holevo: every member z_u^(x n) is
    diagonalised through ``eigvalsh``, as is the prior mixture."""
    zn = kron_chain([np.einsum("...ua,adk->...udk", e, letters)] * n)
    avg = np.einsum("...qu,...ujk->...qjk", qs, zn)

    def ent(m):
        return entropy_rows(np.clip(np.linalg.eigvalsh(m), 0.0, None))

    return (ent(avg) - (qs @ ent(zn)[..., None])[..., 0]) / n


class TestChiPowerTerm:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([2, 3]), st.integers(2, 3), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_batch_matches_the_kronecker_power_reference(self, n, d, a, m, seed):
        # qubit letters take the closed-form spectra, qutrit letters eigvalsh
        rng = np.random.default_rng(seed)
        letters = _random_letters(rng, a, d)
        qs = rng.dirichlet(np.ones(m), size=4)
        e = rng.dirichlet(np.ones(a), size=(3, m))
        got = _ChiPowerTerm([letters], n).batch(qs, e)[..., 0]
        np.testing.assert_allclose(got, _chi_power_reference(qs, e, letters, n),
                                   rtol=0, atol=1e-12)


def test_e1q_prior_grid_peak_memory():
    # the resolution-4 grid over 16 words has 3,876 points: scored in one
    # batch, its 16 x 16 mixtures take about 17 MB; in chunks, about 5 MB
    spec = load_spec(os.path.join(SPECS, "cq_pair.json"))
    cfg = SolverConfig(n=4, grid_resolution=4, refine_iters=1, restarts=0)
    tracemalloc.start()
    try:
        report = cq_csi_capacity(spec, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.solver["grid_used"] == {"prior": 4}
    assert peak < 8 * 2**20
