"""Named verification suites behind the ``verify`` CLI command.

Each suite returns a list of {bound_id, lhs, rhs, pass} records (plus a
min_k field where a width constant is in play) so results serialize
uniformly.
"""

from __future__ import annotations

import numpy as np

from .channels import CQChannel, cq_word_state
from .infotheory import fannes_bound, von_neumann_entropy
from .qcore import (
    DensityOperator,
    HilbertLabel,
    fidelity,
    psd_sqrt,
    random_density,
    trace_norm,
)
from .typicality import (
    TypicalParams,
    averaged_output_projector,
    conditional_typical_projector,
    averaged_trace_check,
    sandwich_bound,
    sandwich_deviation,
    typical_projector,
)

_QUBIT = HilbertLabel("q", 2)


def _record(bound_id, lhs, rhs, passed, **extra):
    rec = {"bound_id": bound_id, "lhs": float(lhs), "rhs": float(rhs), "pass": bool(passed)}
    rec.update(extra)
    return rec


def suite_typicality(seed: int = 0, n_random: int = 10) -> list[dict]:
    """State and conditional projector bounds plus the sandwich deviation.

    Each (state, n) builds its word's output state once; each alpha's
    sandwich reuses the conditional and averaged projectors of its checks,
    and equal pairs of kept masks share one deviation.
    """
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
            state = cq_word_state(v, word).matrix
            deviations = {}
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
                key = (avg.kept.tobytes(), proj.kept.tobytes())
                if key not in deviations:
                    deviations[key] = sandwich_deviation(avg, proj, state)
                dev, bound = deviations[key], sandwich_bound(v, params)
                records.append(
                    _record(f"sandwich[s{si},n{n},a{alpha}]", dev, bound, dev <= bound + 1e-9)
                )
    return records


def suite_gentle(seed: int = 0, count: int = 1000) -> list[dict]:
    """Trace-norm disturbance of a weak measurement against sqrt(8 lambda)."""
    rng = np.random.default_rng(seed)
    label = HilbertLabel("x", 3)
    records = []
    for i in range(count):
        rho = random_density(label, rng)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = g @ g.conj().T
        x = h / (np.linalg.eigvalsh(h).max() + rng.uniform(0.0, 1.0))
        lam = max(0.0, 1.0 - np.trace(rho.matrix @ x).real)
        sx = psd_sqrt(x)
        dev = trace_norm(rho.matrix - sx @ rho.matrix @ sx)
        records.append(_record(f"gentle[{i}]", dev, np.sqrt(8 * lam), dev <= np.sqrt(8 * lam) + 1e-9))
    return records


def suite_fannes(seed: int = 0, count: int = 1000) -> list[dict]:
    """Entropy continuity on nearby random pairs."""
    rng = np.random.default_rng(seed)
    records = []
    made = 0
    while made < count:
        rho = random_density(_QUBIT, rng)
        mix = random_density(_QUBIT, rng)
        t = rng.uniform(0.0, 0.22)
        sigma = DensityOperator((_QUBIT,), (1 - t) * rho.matrix + t * mix.matrix)
        dist = trace_norm(rho.matrix - sigma.matrix)
        if not 0 < dist < 1 / np.e:
            continue
        gap = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
        records.append(_record(f"fannes[{made}]", gap, fannes_bound(dist, 2), gap <= fannes_bound(dist, 2) + 1e-12))
        made += 1
    return records


def suite_covering(seed: int = 11, trials: int = 100) -> list[dict]:
    """Monotone decay of the covering deviation medians in the depth."""
    from .wiretapsim import covering_concentration

    def rotated(theta):
        c, s = np.cos(theta), np.sin(theta)
        u = np.array([[c, -s], [s, c]])
        return u @ np.diag([0.8, 0.2]) @ u.T

    v = CQChannel((0, 1), _QUBIT, {0: rotated(0.0), 1: rotated(0.35)})
    rep = covering_concentration(
        v, [0.5, 0.5], 4, [1, 4, 16, 64], trials=trials, seed=seed,
        params=TypicalParams(n=4, delta=0.3),
    )
    meds = [rep.stats["per_L"][l]["median"] for l in (1, 4, 16, 64)]
    records = []
    for (la, a), (lb, b) in zip(zip((1, 4, 16), meds), zip((4, 16, 64), meds[1:])):
        records.append(_record(f"covering[L{la}->L{lb}]", b, a, b < a))
    return records


def suite_fidelity(seed: int = 0, count: int = 200) -> list[dict]:
    """Fidelity / trace-norm band and the three-state triangle property."""
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


SUITES = {
    "typicality": suite_typicality,
    "gentle": suite_gentle,
    "fannes": suite_fannes,
    "covering": suite_covering,
    "fidelity": suite_fidelity,
}


def run_suite(suite_id: str) -> list[dict]:
    if suite_id == "all":
        return [rec for suite in SUITES.values() for rec in suite()]
    if suite_id not in SUITES:
        raise KeyError(suite_id)
    return SUITES[suite_id]()
