"""The typicality suite against its former per-alpha loop."""

import numpy as np
import pytest

from qwk import typicality
from qwk.channels import CQChannel
from qwk.qcore import DensityOperator, QcoreError, random_density
from qwk.typicality import (
    TypicalParams,
    averaged_output_projector,
    averaged_trace_check,
    conditional_typical_projector,
    sandwiched_output,
    typical_projector,
)
from qwk.verify import _QUBIT, _record, suite_typicality


def _suite_typicality_reference(seed: int = 0, n_random: int = 10) -> list[dict]:
    """The suite as it was: every alpha rebuilds both projectors and the
    word state through ``sandwiched_output``."""
    rng = np.random.default_rng(seed)
    states = [DensityOperator((_QUBIT,), np.diag([0.7, 0.3]))]
    states += [random_density(_QUBIT, rng) for _ in range(n_random)]
    records = []
    for si, rho in enumerate(states):
        for n in (4, 6, 8, 10):
            for alpha in (0.5, 1.0, 2.0):
                proj = typical_projector(rho, TypicalParams(n=n, alpha=alpha))
                for c in proj.checks:
                    records.append(
                        _record(f"{c.bound_id}[s{si},n{n},a{alpha}]", c.lhs, c.rhs, c.passed,
                                min_k=c.min_k)
                    )
    second = np.diag([0.4, 0.6]).astype(complex)
    for si, rho in enumerate(states):
        v = CQChannel((0, 1), _QUBIT, {0: rho.matrix, 1: second})
        prior = [0.5, 0.5]
        for n in (4, 6, 8):
            word = tuple(i % 2 for i in range(n))
            for alpha in (0.5, 1.0, 2.0):
                params = TypicalParams(n=n, alpha=alpha)
                proj = conditional_typical_projector(v, word, prior, params)
                for c in proj.checks:
                    records.append(
                        _record(f"{c.bound_id}[s{si},n{n},a{alpha}]", c.lhs, c.rhs, c.passed,
                                min_k=c.min_k)
                    )
                avg = averaged_output_projector(prior, v, params)
                c7 = averaged_trace_check(avg, v, word, params)
                records.append(
                    _record(f"avg-trace[s{si},n{n},a{alpha}]", c7.lhs, c7.rhs, c7.passed,
                            min_k=c7.min_k)
                )
                _, dev, bound = sandwiched_output(v, word, prior, params)
                records.append(
                    _record(f"sandwich[s{si},n{n},a{alpha}]", dev, bound, dev <= bound + 1e-9)
                )
    return records


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_matches_per_alpha_reference(seed):
    # raw floats, not the 12-digit canonical payload
    assert suite_typicality(seed, n_random=3) == _suite_typicality_reference(seed, n_random=3)


def test_repeated_mask_pairs_share_one_sandwich(monkeypatch):
    calls = []
    real = typicality.trace_norm

    def counting(m):
        calls.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(typicality, "trace_norm", counting)
    records = suite_typicality(0, n_random=3)
    assert sum(r["bound_id"].startswith("sandwich[") for r in records) == 4 * 3 * 3
    # at most one sandwich per (state, n, alpha), and some alphas share one
    assert 4 * 3 <= len(calls) < 4 * 3 * 3


def test_dense_projector_matches_out_of_place_formula():
    rng = np.random.default_rng(3)
    v = CQChannel((0, 1), _QUBIT, {0: random_density(_QUBIT, rng).matrix,
                                   1: np.diag([0.4, 0.6])})
    for n in (1, 4, 7):
        word = tuple(i % 2 for i in range(n)) if n > 1 else (0,)
        for alpha in (0.5, 2.0):
            params = TypicalParams(n=n, alpha=alpha, delta=0.6)
            for proj in (typical_projector(random_density(_QUBIT, rng), params),
                         conditional_typical_projector(v, word, [0.5, 0.5], params),
                         averaged_output_projector([0.5, 0.5], v, params)):
                u = np.array([[1.0 + 0j]])
                for ul in proj.letter_unitaries:
                    u = np.kron(u, ul)
                expect = (u * proj.kept.astype(float)) @ u.conj().T
                assert np.array_equal(proj.matrix, expect)


def test_atypical_word_still_raises():
    v = CQChannel((0, 1), _QUBIT, {0: np.diag([0.7, 0.3]), 1: np.diag([0.4, 0.6])})
    params = TypicalParams(n=4, alpha=1.0)
    with pytest.raises(QcoreError, match="word is not typical for the prior"):
        sandwiched_output(v, (0, 0, 0, 0), [0.5, 0.5], params)
    with pytest.raises(QcoreError, match="word is not typical for the prior"):
        conditional_typical_projector(v, (0, 0, 0, 0), [0.5, 0.5], params)
