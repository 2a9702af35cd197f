"""The verify suites against their former loops, their validation and their
memory.

Each reference below is a suite as it was before it ran on stacks: the
typicality suite's per-alpha loop, and the per-sample loops of the gentle,
fannes and fidelity suites and of the covering trials.  The stacked suites
make the same random draws in the same order, so their records are equal to
the references' raw floats.
"""

import tracemalloc

import numpy as np
import pytest

from qwk import typicality, verify
from qwk.channels import CQChannel
from qwk.infotheory import fannes_bound, von_neumann_entropy
from qwk.qcore import (
    DensityOperator,
    QcoreError,
    fidelity,
    psd_sqrt,
    random_density,
    trace_norm,
)
from qwk.streams import counter_rng
from qwk.typicality import (
    TypicalParams,
    averaged_output_projector,
    averaged_trace_checks,
    conditional_typical_projector,
    sandwiched_output,
    sandwiched_outputs,
    truncated_typical,
    typical_projector,
)
from qwk.verify import (
    _record,
    suite_covering,
    suite_fannes,
    suite_fidelity,
    suite_gentle,
    suite_typicality,
)
from qwk.wiretapsim import _STREAM_COVERING, covering_concentration

_QUBIT = 2


def _suite_typicality_reference(seed: int = 0, n_random: int = 10) -> list[dict]:
    """The suite as it was: every alpha rebuilds both projectors and the
    word state through ``sandwiched_output``."""
    rng = np.random.default_rng(seed)
    states = [DensityOperator(np.diag([0.7, 0.3]))]
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
                c7 = averaged_trace_checks([avg], v, word, [params])[0]
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


def test_each_state_diagonalises_at_most_nine_times(eigensystem_calls):
    # per state: its typical sweep, the two letters of its channel once, and
    # one averaged output per n; every word and alpha reuses them
    suite_typicality(0, n_random=3)
    assert len(eigensystem_calls) <= 9 * 4


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
                for ul in proj.spectrum.letter_unitaries:
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


def _suite_gentle_reference(seed: int = 0, count: int = 1000) -> list[dict]:
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        rho = random_density(3, rng)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = g @ g.conj().T
        x = h / (np.linalg.eigvalsh(h).max() + rng.uniform(0.0, 1.0))
        lam = max(0.0, 1.0 - np.trace(rho.matrix @ x).real)
        sx = psd_sqrt(x)
        dev = trace_norm(rho.matrix - sx @ rho.matrix @ sx)
        records.append(_record(f"gentle[{i}]", dev, np.sqrt(8 * lam), dev <= np.sqrt(8 * lam) + 1e-9))
    return records


def _suite_fannes_reference(seed: int = 0, count: int = 1000) -> list[dict]:
    rng = np.random.default_rng(seed)
    records = []
    made = 0
    while made < count:
        rho = random_density(_QUBIT, rng)
        mix = random_density(_QUBIT, rng)
        t = rng.uniform(0.0, 0.22)
        sigma = DensityOperator((1 - t) * rho.matrix + t * mix.matrix)
        dist = trace_norm(rho.matrix - sigma.matrix)
        if not 0 < dist < 1 / np.e:
            continue
        gap = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
        records.append(_record(f"fannes[{made}]", gap, fannes_bound(dist, 2), gap <= fannes_bound(dist, 2) + 1e-12))
        made += 1
    return records


def _suite_fidelity_reference(seed: int = 0, count: int = 200) -> list[dict]:
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        rho = random_density(_QUBIT, rng)
        sigma = random_density(_QUBIT, rng)
        tau = random_density(_QUBIT, rng)
        f = fidelity(rho, sigma)
        t = trace_norm(rho.matrix - sigma.matrix) / 2
        records.append(_record(f"fvg_lower[{i}]", 1 - f, t, 1 - f <= t + 1e-9))
        records.append(
            _record(f"fvg_upper[{i}]", t, np.sqrt(max(0.0, 1 - f * f)), t <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9)
        )
        f_rt = fidelity(rho, tau)
        f_ts = fidelity(tau, sigma)
        lhs = 1 - np.sqrt(max(0.0, 1 - f_rt ** 2)) - np.sqrt(max(0.0, 1 - f_ts ** 2))
        records.append(_record(f"triangle[{i}]", lhs, f, f >= lhs - 1e-9))
    return records


@pytest.mark.parametrize("seed", [0, 4, 7])
@pytest.mark.parametrize("suite, reference", [
    (suite_gentle, _suite_gentle_reference),
    (suite_fannes, _suite_fannes_reference),
    (suite_fidelity, _suite_fidelity_reference),
])
def test_stacked_suite_matches_per_sample_reference(suite, reference, seed):
    # raw floats, not the 12-digit canonical payload
    assert suite(seed) == reference(seed)


def _covering_setup():
    def rotated(theta):
        c, s = np.cos(theta), np.sin(theta)
        u = np.array([[c, -s], [s, c]])
        return u @ np.diag([0.8, 0.2]) @ u.T

    v = CQChannel((0, 1), _QUBIT, {0: rotated(0.0), 1: rotated(0.35)})
    return v, [0.5, 0.5], 4, [1, 4, 16, 64], TypicalParams(n=4, delta=0.3)


def _covering_stats_reference(seed: int, trials: int = 100, epsilon: float = 0.1) -> dict:
    """``covering_concentration``'s stats with one trace norm per trial."""
    v, p, n, l_schedule, params = _covering_setup()
    prior = np.asarray(p, dtype=float)
    words, probs = truncated_typical(prior, n, params.delta)
    q_ops = sandwiched_outputs(v, words, prior, params)
    mean_op = np.einsum("w,wjk->jk", probs, q_ops)
    per_l = {}
    for l_depth in l_schedule:
        devs = np.zeros(trials)
        for k in range(trials):
            rng = counter_rng(seed, _STREAM_COVERING, l_depth, k)
            picks = rng.choice(len(words), size=l_depth, p=probs)
            avg = q_ops[picks].mean(axis=0)
            devs[k] = trace_norm(avg - mean_op)
        per_l[int(l_depth)] = {
            "median": float(np.median(devs)),
            "mean": float(devs.mean()),
            "exceed_frac": float((devs > epsilon).mean()),
        }
    meds = [per_l[int(l)]["median"] for l in l_schedule]
    return {"per_L": per_l, "epsilon": epsilon,
            "medians_decreasing": all(b < a for a, b in zip(meds, meds[1:]))}


@pytest.mark.parametrize("seed", [11, 0])
def test_covering_stats_match_per_trial_reference(seed):
    v, p, n, l_schedule, params = _covering_setup()
    rep = covering_concentration(v, p, n, l_schedule, trials=100, seed=seed, params=params)
    assert rep.stats == _covering_stats_reference(seed)


_SAMPLED = [(suite_gentle, 1), (suite_fannes, 2), (suite_fidelity, 3)]


@pytest.mark.parametrize("suite, per_sample", _SAMPLED)
def test_every_drawn_state_is_validated(monkeypatch, suite, per_sample):
    drawn, checked = [], []
    real_states, real_check = verify.ginibre_states, verify.check_density

    def states(g):
        drawn.append(int(np.prod(g.shape[:-2])))
        return real_states(g)

    def check(m, *args):
        checked.append(int(np.prod(m.shape[:-2])))
        return real_check(m, *args)

    monkeypatch.setattr(verify, "ginibre_states", states)
    monkeypatch.setattr(verify, "check_density", check)
    suite(3, count=40)
    assert sum(drawn) >= 40 * per_sample
    # fannes also checks each attempt's mixture of its two drawn states
    assert sum(checked) == sum(drawn) * (3 if suite is suite_fannes else 2) // 2


@pytest.mark.parametrize("suite", [suite for suite, _ in _SAMPLED])
def test_a_bad_drawn_state_is_refused(monkeypatch, suite):
    real_states = verify.ginibre_states

    def off_trace(g):
        out = real_states(g)
        out.reshape((-1,) + out.shape[-2:])[-1] *= 1.5
        return out

    monkeypatch.setattr(verify, "ginibre_states", off_trace)
    with pytest.raises(QcoreError, match="deviates from 1"):
        suite(3, count=40)


@pytest.mark.parametrize("suite", [suite_gentle, suite_fannes, suite_fidelity, suite_covering])
def test_suite_peaks_below_4mb(suite):
    # a (trials, L, D, D) gather of covering's picks would peak near 26 MB
    suite()
    tracemalloc.start()
    try:
        suite()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
