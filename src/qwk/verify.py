"""Named verification suites behind the ``verify`` CLI command.

Each suite returns a list of {bound_id, lhs, rhs, pass} records (plus a
min_k field where a width constant is in play) so results serialize
uniformly.

The sampled suites (gentle, fannes, fidelity, and covering's trials) draw
per sample and evaluate per stack: a loop makes each sample's random draws
in order into preallocated arrays, then the states are normalised,
validated, diagonalised and measured on the whole stack at once.
"""

from __future__ import annotations

import numpy as np

from .channels import CQChannel, cq_word_state
from .infotheory import eig_entropies, fannes_bound
from .qcore import (
    DensityOperator,
    check_density,
    fidelity,
    ginibre_factor,
    ginibre_states,
    psd_sqrt,
    random_density,
    trace_norm,
)
from .typicality import (
    TypicalParams,
    averaged_output_projectors,
    averaged_trace_checks,
    conditional_typical_projectors,
    sandwich_bound,
    sandwich_deviation,
    typical_projectors,
)


def _record(bound_id, lhs, rhs, passed, **extra):
    rec = {"bound_id": bound_id, "lhs": float(lhs), "rhs": float(rhs), "pass": bool(passed)}
    rec.update(extra)
    return rec


def suite_typicality(seed: int = 0, n_random: int = 10) -> list[dict]:
    """State and conditional projector bounds plus the sandwich deviation.

    Each state sweeps its (n, alpha) grid once for its typical projectors;
    each (state, n) sweeps its alphas once for its conditional and averaged
    projectors and their averaged trace checks, and builds its word's
    output state once.  Each alpha's
    sandwich reuses the conditional and averaged projectors of its checks,
    and equal pairs of kept masks share one deviation.
    """
    rng = np.random.default_rng(seed)
    states = [DensityOperator(np.diag([0.7, 0.3]))]
    states += [random_density(2, rng) for _ in range(n_random)]
    alphas = (0.5, 1.0, 2.0)
    records = []
    state_sweep = [TypicalParams(n=n, alpha=alpha) for n in (4, 6, 8, 10) for alpha in alphas]
    for si, rho in enumerate(states):
        for params, proj in zip(state_sweep, typical_projectors(rho, state_sweep)):
            tag = f"[s{si},n{params.n},a{params.alpha}]"
            records += [{**c.as_record(), "bound_id": c.bound_id + tag} for c in proj.checks]
    second = np.diag([0.4, 0.6]).astype(complex)
    for si, rho in enumerate(states):
        v = CQChannel((0, 1), 2, {0: rho.matrix, 1: second})
        prior = [0.5, 0.5]
        for n in (4, 6, 8):
            word = tuple(i % 2 for i in range(n))
            state = cq_word_state(v, word)
            sweep = [TypicalParams(n=n, alpha=alpha) for alpha in alphas]
            conds = conditional_typical_projectors(v, word, prior, sweep)
            avgs = averaged_output_projectors(prior, v, sweep)
            c7s = averaged_trace_checks(avgs, v, word, sweep)
            deviations = {}
            for alpha, params, proj, avg, c7 in zip(alphas, sweep, conds, avgs, c7s):
                records += [{**c.as_record(), "bound_id": f"{c.bound_id}[s{si},n{n},a{alpha}]"}
                            for c in proj.checks]
                records.append({**c7.as_record(), "bound_id": f"avg-trace[s{si},n{n},a{alpha}]"})
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
    factors = np.empty((count, 2, 3, 3), dtype=complex)
    shifts = np.empty(count)
    for i in range(count):
        factors[i, 0] = ginibre_factor(3, rng)
        factors[i, 1] = ginibre_factor(3, rng)
        shifts[i] = rng.uniform(0.0, 1.0)
    rho = ginibre_states(factors[:, 0])
    check_density(rho)
    g = factors[:, 1]
    h = g @ g.conj().swapaxes(-1, -2)
    x = h / (np.linalg.eigvalsh(h).max(axis=-1) + shifts)[:, None, None]
    lam = np.maximum(0.0, 1.0 - np.trace(rho @ x, axis1=-2, axis2=-1).real)
    sx = psd_sqrt(x)
    devs = trace_norm(rho - sx @ rho @ sx)
    bounds = np.sqrt(8 * lam)
    return [_record(f"gentle[{i}]", dev, bound, dev <= bound + 1e-9)
            for i, (dev, bound) in enumerate(zip(devs.tolist(), bounds.tolist()))]


def suite_fannes(seed: int = 0, count: int = 1000) -> list[dict]:
    """Entropy continuity on nearby random pairs.

    Attempts are drawn a chunk at a time, as many as the samples still
    missing, so no attempt past the last kept one is drawn.
    """
    rng = np.random.default_rng(seed)
    records = []
    while len(records) < count:
        chunk = count - len(records)
        factors = np.empty((chunk, 2, 2, 2), dtype=complex)
        t = np.empty((chunk, 1, 1))
        for i in range(chunk):
            factors[i, 0] = ginibre_factor(2, rng)
            factors[i, 1] = ginibre_factor(2, rng)
            t[i] = rng.uniform(0.0, 0.22)
        pairs = ginibre_states(factors)
        check_density(pairs)
        rho, mix = pairs[:, 0], pairs[:, 1]
        sigma = (1 - t) * rho + t * mix
        check_density(sigma)
        dists = trace_norm(rho - sigma)
        gaps = np.abs(eig_entropies(rho) - eig_entropies(sigma))
        for dist, gap in zip(dists.tolist(), gaps.tolist()):
            if 0 < dist < 1 / np.e:
                bound = fannes_bound(dist, 2)
                records.append(_record(f"fannes[{len(records)}]", gap, bound, gap <= bound + 1e-12))
    return records


def suite_covering(seed: int = 11, trials: int = 100) -> list[dict]:
    """Monotone decay of the covering deviation medians in the depth."""
    from .wiretapsim import covering_concentration

    def rotated(theta):
        c, s = np.cos(theta), np.sin(theta)
        u = np.array([[c, -s], [s, c]])
        return u @ np.diag([0.8, 0.2]) @ u.T

    v = CQChannel((0, 1), 2, {0: rotated(0.0), 1: rotated(0.35)})
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
    factors = np.empty((count, 3, 2, 2), dtype=complex)
    for i in range(count):
        for k in range(3):  # rho, sigma, tau
            factors[i, k] = ginibre_factor(2, rng)
    states = ginibre_states(factors)
    check_density(states)
    roots = psd_sqrt(states)
    # F(rho, sigma), F(rho, tau), F(tau, sigma)
    fids = fidelity(roots[:, [0, 0, 2]], roots[:, [1, 2, 1]]).tolist()
    halves = (trace_norm(states[:, 0] - states[:, 1]) / 2).tolist()
    records = []
    for i, ((f, f_rt, f_ts), t) in enumerate(zip(fids, halves)):
        records.append(_record(f"fvg_lower[{i}]", 1 - f, t, 1 - f <= t + 1e-9))
        records.append(
            _record(f"fvg_upper[{i}]", t, np.sqrt(max(0.0, 1 - f * f)), t <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9)
        )
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
