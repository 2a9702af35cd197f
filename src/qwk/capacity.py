"""Fixed-block-length solvers for the secrecy and entanglement rate formulas.

Every multi-letter expression is evaluated at a user-chosen finite block
length (default 1) and reports carry the formula id and the block length so
no value can be mistaken for a true asymptotic limit.  Objectives are
differences of entropies and are not concave, so each solver combines a
deterministic simplex grid with projected-gradient refinement and random
restarts; identical (spec, config, seed) inputs give bit-identical reports.

Negative optima are reported raw and clamped at zero (the trivial code
achieves rate zero).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .channels import CompoundWiretapSpec, KrausChannel, cq_word_state, n_fold
from .infotheory import coherent_information_matrix, eig_entropies, entropy_rows
from .qcore import check_dim_cap, kron_chain, random_unitary
from .typicality import enumerate_words

_GRID_BUDGET = 300_000
# (prefix-row combination, prior point) pairs scored per grid-scan call
_GRID_CHUNK = 1024
# points scored per objective call in the ascents, whatever the number of starts
_ASCENT_CHUNK = 1024


class SolverError(ValueError):
    """A solver was invoked on an incompatible spec."""


@dataclass(frozen=True)
class SolverConfig:
    n: int = 1
    aux_card: int | None = None
    grid_resolution: int = 16
    refine_iters: int = 40
    restarts: int = 8
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.aux_card is not None and self.aux_card < 1:
            raise SolverError("aux_card must be >= 1")
        if self.grid_resolution < 2:
            raise SolverError("grid_resolution must be >= 2")
        if self.n < 1:
            raise SolverError("n must be >= 1")


@dataclass
class CapacityReport:
    formula_id: str
    value: float
    value_raw: float
    n: int
    per_t: dict
    argmax: dict
    config: dict
    flags: dict = field(default_factory=dict)
    # what the solver did (the grid after shrinking): manifest only, not payload
    solver: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The payload: every field but the solver record."""
        return {k: v for k, v in asdict(self).items() if k != "solver"}


# ---------------------------------------------------------------------------
# simplex utilities


def simplex_grid(resolution: int, dim: int) -> np.ndarray:
    """All points k/resolution on the (dim-1)-simplex, lexicographic order."""
    pts = []
    for comp in itertools.combinations(range(resolution + dim - 1), dim - 1):
        parts = []
        prev = -1
        for c in comp:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + dim - 2 - prev)
        pts.append(parts)
    return np.asarray(pts, dtype=float) / resolution


def simplex_grid_size(resolution: int, dim: int) -> int:
    from math import comb

    return comb(resolution + dim - 1, dim - 1)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, row by row along
    the last axis."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    k = v.shape[-1]
    idx = np.arange(1, k + 1)
    cond = u - css / idx > 0
    rho = k - np.argmax(cond[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, (rho - 1)[..., None], axis=-1) / rho[..., None]
    return np.clip(v - theta, 0.0, None)


# ---------------------------------------------------------------------------
# objective terms: each maps priors q over U, shape (..., Q, m), and prefix
# channels E (rows U->A), shape (..., m, a), to rate terms of shape (..., Q, T),
# one column per state


def _holevo(qs: np.ndarray, z: np.ndarray, s_u: np.ndarray) -> np.ndarray:
    """chi of the ensembles (qs, z) whose members have entropies s_u: qs is
    (..., Q, m), z is (..., m, D, D) and s_u is (..., m)."""
    avg = np.einsum("...qu,...ujk->...qjk", qs, z)
    return eig_entropies(avg) - (qs @ s_u[..., None])[..., 0]


class _StateTerm:
    """One rate term for every state of theta, batched over priors.

    The per-state arrays are kept as one stack per distinct shape, never
    padded, so a family whose members share their output sizes has one
    stack.  ``batch`` returns (..., Q, T), state t in column t; ``at(t)``
    is the term of state t alone.
    """

    def __init__(self, arrays, n: int = 1):
        self.n = n
        self.count = len(arrays)
        shapes: dict[tuple, list[int]] = {}
        for t, arr in enumerate(arrays):
            shapes.setdefault(np.shape(arr), []).append(t)
        self.stacks = [(ts, np.stack([arrays[t] for t in ts])) for ts in shapes.values()]

    def at(self, t: int) -> "_StateTerm":
        ts, stack = next((ts, stack) for ts, stack in self.stacks if t in ts)
        return type(self)([stack[ts.index(t)]], self.n)

    def batch(self, qs: np.ndarray, e: np.ndarray) -> np.ndarray:
        cols = [(ts, self._stacked(qs, e, stack).swapaxes(-1, -2)) for ts, stack in self.stacks]
        if len(cols) == 1:
            return cols[0][1]
        out = np.empty(cols[0][1].shape[:-1] + (self.count,))
        for ts, vals in cols:
            out[..., ts] = vals
        return out


class _ClassicalTerm(_StateTerm):
    """I(U;Y) through stochastic matrices following the prefix channel E."""

    def _stacked(self, qs, e, m):
        rows = e[..., None, :, :] @ m
        qs = qs[..., None, :, :]
        return entropy_rows(qs @ rows) - (qs @ entropy_rows(rows)[..., None])[..., 0]


class _ChiPowerTerm(_StateTerm):
    """(1/n) chi(U; Z^(x n)) where, given u, letters are i.i.d. E(.|u); the
    arrays are (a, d, d) letter stacks.  S(z_u^(x n)) = n S(z_u), so only
    the prior mixture is formed as a Kronecker power."""

    def _stacked(self, qs, e, states):
        z = np.einsum("...ua,tadk->...tudk", e, states)
        s_u = self.n * eig_entropies(z)
        return _holevo(qs[..., None, :, :], kron_chain([z] * self.n), s_u) / self.n


class _ChiMixTerm(_StateTerm):
    """(1/n) chi(U; .) over fixed (W, D, D) word states mixed by E."""

    def _stacked(self, qs, e, word_states):
        z = np.einsum("...uw,twjk->...tujk", e, word_states)
        return _holevo(qs[..., None, :, :], z, eig_entropies(z)) / self.n


def _objective(legit: _StateTerm, wire: _StateTerm):
    """Worst legitimate term minus largest leakage term, batched over priors.
    For one state of each kind this is the single-state difference itself."""
    return lambda qs, e: legit.batch(qs, e).min(-1) - wire.batch(qs, e).max(-1)


# ---------------------------------------------------------------------------
# the aux-channel maximizer


def _grid_resolutions(g: int, m: int, a: int) -> tuple[int, int]:
    """Shrink per-simplex resolutions until the product grid fits the budget."""
    gq, ge = g, g

    def total(gq, ge):
        return simplex_grid_size(gq, m) * simplex_grid_size(ge, a) ** m

    while total(gq, ge) > _GRID_BUDGET:
        if ge > 2:
            ge = max(2, int(ge * 0.7))
        elif gq > 2:
            gq = max(2, int(gq * 0.7))
        else:
            break
    return gq, ge


def _special_prefixes(m: int, a: int) -> list[np.ndarray]:
    """Deterministic prefix-channel starts: identity-like and uniform rows."""
    outs = []
    e = np.zeros((m, a))
    for u in range(m):
        e[u, u % a] = 1.0
    outs.append(e)
    outs.append(np.full((m, a), 1.0 / a))
    return outs


def _step_ladder(step: float, floor: float) -> np.ndarray:
    """step, step/2, step/4, ... while above ``floor``."""
    steps = []
    while step > floor:
        steps.append(step)
        step /= 2.0
    return np.array(steps)


def _chunked(val, rows: np.ndarray) -> np.ndarray:
    """``val`` on a (B, dim) stack, at most ``_ASCENT_CHUNK`` rows per call."""
    return np.concatenate(
        [val(rows[r : r + _ASCENT_CHUNK]) for r in range(0, len(rows), _ASCENT_CHUNK)]
    )


def _simplex_groups(blocks: list[slice], dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Simplex blocks grouped by width: per group the (blocks, width) table of
    coordinates and, per coordinate, its row in that table (-1 outside)."""
    widths: dict[int, list[np.ndarray]] = {}
    for blk in blocks:
        idx = np.arange(dim)[blk]
        widths.setdefault(len(idx), []).append(idx)
    groups = []
    for rows in widths.values():
        cols = np.array(rows)
        where = np.full(dim, -1)
        where[cols] = np.arange(len(cols))[:, None]
        groups.append((cols, where))
    return groups


def _forward_differences(val, xs: np.ndarray, best: np.ndarray, groups) -> np.ndarray:
    """Forward differences (h = 1e-5) of ``val`` at every row of ``xs``.

    The probes of all rows are built and scored ``_ASCENT_CHUNK`` at a time.
    A probe re-projects only the simplex block that holds its perturbed
    coordinate.
    """
    h = 1e-5
    n_rows, dim = xs.shape
    vals = np.empty(n_rows * dim)
    for r0 in range(0, len(vals), _ASCENT_CHUNK):
        row, coord = np.divmod(np.arange(r0, min(r0 + _ASCENT_CHUNK, len(vals))), dim)
        probes = xs[row]
        probes[np.arange(len(coord)), coord] += h
        for cols, where in groups:
            sel = np.flatnonzero(where[coord] >= 0)[:, None]
            idx = cols[where[coord[sel[:, 0]]]]
            probes[sel, idx] = project_simplex(probes[sel, idx])
        vals[r0 : r0 + len(coord)] = val(probes)
    return (vals.reshape(n_rows, dim) - best[:, None]) / h


def _lockstep_ascent(val, x0s, iters, step, floor, tol, groups=(), normalise=False):
    """Forward-difference ascent of every row of ``x0s`` together.

    ``val`` maps a (B, dim) stack of points to their (B,) values.  Each start
    carries its own step.  Per iteration all live starts' probes are one
    (chunked) call and all their ladders ``step, step/2, ...`` above
    ``floor`` another; a start takes the first candidate of its ladder that
    beats its value by more than ``tol`` and stops when none does.  The
    blocks in ``groups`` (see ``_simplex_groups``) stay on simplices.  With
    ``normalise`` the step runs along grad / |grad| and a start whose
    gradient norm is below 1e-12 stops.  Each row follows exactly the
    trajectory it follows alone.

    Returns the values, the points and a record of the run for the report's
    manifest: starts, lockstep iterations, starts that stopped without an
    improving step, and starts still improving when the iterations ran out.
    """
    xs = np.array(x0s, dtype=float)
    best = _chunked(val, xs)
    steps_now = np.full(len(xs), step)
    alive = np.ones(len(xs), dtype=bool)
    iterations = 0
    while iterations < iters and alive.any():
        iterations += 1
        live = np.flatnonzero(alive)
        grad = _forward_differences(val, xs[live], best[live], groups)
        if normalise:
            norm = np.array([np.linalg.norm(g) for g in grad])
            flat = norm < 1e-12
            alive[live[flat]] = False
            live, grad, norm = live[~flat], grad[~flat], norm[~flat]
            if len(live) == 0:
                continue
        ladders = [_step_ladder(s, floor) for s in steps_now[live]]
        owner = np.repeat(np.arange(len(live)), [len(lad) for lad in ladders])
        steps = np.concatenate(ladders)
        delta = steps[:, None] * grad[owner]
        if normalise:
            delta = delta / norm[owner, None]
        cands = xs[live][owner] + delta
        for cols, _ in groups:
            cands[:, cols] = project_simplex(cands[:, cols])
        vals = _chunked(val, cands)
        hit = np.flatnonzero(vals > best[live][owner] + tol)
        moved, first = np.unique(owner[hit], return_index=True)
        alive[live] = False
        k, live = hit[first], live[moved]
        alive[live] = True
        xs[live], best[live], steps_now[live] = cands[k], vals[k], steps[k]
    at_limit = int(alive.sum())
    run = {"starts": len(xs), "iterations": iterations, "stalled": len(xs) - at_limit,
           "at_limit": at_limit}
    return best, xs, run


def _ascend_simplices(val, x0s: np.ndarray, blocks: list[slice], iters: int, tol: float):
    """Forward-difference projected ascent of the (S, dim) starts ``x0s``.

    Each slice in ``blocks`` stays on a probability simplex; equal-width
    blocks are projected as one stack.  The step starts at 0.25 and halves
    down to 1e-6; a step must raise ``val`` by more than ``tol``.
    """
    groups = _simplex_groups(blocks, np.shape(x0s)[1])
    return _lockstep_ascent(val, x0s, iters, 0.25, 1e-6, tol, groups)


def _ascend_unconstrained(objective, p0s: np.ndarray, iters: int):
    """Forward-difference ascent of the (S, dim) starts ``p0s`` along
    normalised gradients.  The step starts at 0.2 and halves down to 1e-7;
    a step must raise the value by more than 1e-12."""
    return _lockstep_ascent(objective, p0s, iters, 0.2, 1e-7, 1e-12, normalise=True)


def _first_best(vals, floor: float = -np.inf, margin: float = 1e-15):
    """Start-order winner: a start replaces the best so far only when it beats
    it by more than ``margin``; None when no start beats ``floor``."""
    k = None
    for i, v in enumerate(vals):
        if v > floor + margin:
            k, floor = i, v
    return k


def _prior_resolution(g: int, a: int) -> int:
    """Shrink the prior-grid resolution until the grid fits the budget."""
    res = g
    while simplex_grid_size(res, a) > _GRID_BUDGET and res > 2:
        res = max(2, int(res * 0.7))
    return res


def _maximize_prior(objective, a: int, cfg: SolverConfig, tag: int):
    """Maximize a batched objective over a single prior (no prefix channel).

    Returns the value, the prior and the record of the ascent."""
    q_grid = simplex_grid(_prior_resolution(cfg.grid_resolution, a), a)
    eye = np.eye(a)

    def val(qs):
        return objective(qs[:, None, :], eye)[:, 0]

    vals = _chunked(val, q_grid)
    order = np.argsort(-vals)
    starts = [q_grid[k] for k in order[:6]]
    starts.append(np.full(a, 1.0 / a))
    rng = np.random.default_rng([cfg.seed, tag])
    for _ in range(cfg.restarts):
        starts.append(rng.dirichlet(np.ones(a)))
    vals, qs, run = _ascend_simplices(
        val, np.array(starts), [slice(0, a)], cfg.refine_iters, cfg.tolerance
    )
    k = _first_best(vals)
    return float(vals[k]), qs[k], {**run, "winner": k}


def _prior_grid_used(cfg: SolverConfig, a: int) -> dict:
    return {"grid_used": {"prior": _prior_resolution(cfg.grid_resolution, a)}}


def _aux_cards(cfg: SolverConfig, a: int) -> range:
    """Aux cardinalities the maximizer scans: 2 up to aux_card (default a + 1)."""
    return range(2, (cfg.aux_card if cfg.aux_card is not None else a + 1) + 1)


def _maximize_aux(objective, a: int, cfg: SolverConfig, tag: int):
    """Maximize over prior and prefix channel, scanning aux cardinalities.

    The grid scores every combination of prefix rows against the whole prior
    grid, in chunks of at most ``_GRID_CHUNK`` (combination, prior) pairs.
    The ascent runs on the flat vectors (q, rows of E) of all starts of an
    aux cardinality together.  At aux cardinality 1, U is constant and
    every term is exactly 0, so the scan starts at 2 from that point (value
    0, the last unit vector as prefix row, which the grid scan of size 1
    ranked first); keeping the best makes the optimum monotone in aux_card
    by construction.  Returns the value, prior, prefix rows, aux cardinality
    and one ascent record per aux cardinality scanned.
    """
    best = (0.0, np.ones(1), np.eye(a)[-1:], 1)
    runs = []
    for m in _aux_cards(cfg, a):
        gq, ge = _grid_resolutions(cfg.grid_resolution, m, a)
        q_grid = simplex_grid(gq, m)
        row_grid = simplex_grid(ge, a)
        combos = np.indices((len(row_grid),) * m).reshape(m, -1).T
        chunk = max(1, _GRID_CHUNK // len(q_grid))
        candidates = []
        for c0 in range(0, len(combos), chunk):
            es = row_grid[combos[c0 : c0 + chunk]]
            vals = objective(q_grid, es)
            for e, v, k in zip(es, vals, np.argmax(vals, axis=1)):
                candidates.append((float(v[k]), q_grid[k], e))
        candidates.sort(key=lambda c: -c[0])
        starts = [(c[1], c[2]) for c in candidates[:6]]
        for e in _special_prefixes(m, a):
            starts.append((np.full(m, 1.0 / m), e))
        rng = np.random.default_rng([cfg.seed, tag, m])
        for _ in range(cfg.restarts):
            starts.append((rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(a), size=m)))
        blocks = [slice(0, m)] + [slice(m + u * a, m + (u + 1) * a) for u in range(m)]

        def val(xs, m=m):
            return objective(xs[:, None, :m], xs[:, m:].reshape(-1, m, a))[:, 0]

        x0s = np.array([np.concatenate([q0, e0.reshape(-1)]) for q0, e0 in starts])
        vals, xs, run = _ascend_simplices(val, x0s, blocks, cfg.refine_iters, cfg.tolerance)
        runs.append({"aux_card": m, **run, "winner": _first_best(vals)})
        k = _first_best(vals, best[0])
        if k is not None:
            best = (float(vals[k]), xs[k, :m], xs[k, m:].reshape(m, a), m)
    return (*best, runs)


def _aux_grid_used(cfg: SolverConfig, a: int) -> dict:
    """The (prior, row) resolutions the aux maximizer scans, per aux size."""
    used = [(m, *_grid_resolutions(cfg.grid_resolution, m, a)) for m in _aux_cards(cfg, a)]
    return {"grid_used": {"aux": [{"aux_card": m, "q": gq, "row": ge} for m, gq, ge in used]}}


# ---------------------------------------------------------------------------
# spec plumbing


def _require_variant(spec: CompoundWiretapSpec, variant: str, formula: str):
    if spec.variant != variant:
        raise SolverError(
            f"formula {formula} needs variant {variant!r}, spec is {spec.variant!r}"
        )


def _clamped_report(formula_id, raw, n, per_t, argmax, cfg, solver):
    return CapacityReport(
        formula_id=formula_id,
        value=float(max(0.0, raw)),
        value_raw=float(raw),
        n=n,
        per_t=per_t,
        argmax=argmax,
        config=asdict(cfg),
        flags={"fixed_n_evaluation": True, "clamped": bool(raw < 0)},
        solver=solver,
    )


def _prefix_argmax(q: np.ndarray, e: np.ndarray, m: int) -> dict:
    return {"prior": q.tolist(), "prefix_rows": e.tolist(), "aux_card_used": m}


def _per_state(names, legit: _StateTerm, wire: _StateTerm, q: np.ndarray, e: np.ndarray):
    """Both terms of every state at one prior and prefix, one batch call each."""
    lv, wv = legit.batch(q[None, :], e)[0], wire.batch(q[None, :], e)[0]
    return {name: {"legit": float(x), "wiretap": float(y)} for name, x, y in zip(names, lv, wv)}


def _csi_report(formula_id, spec, legit, wire, a, n, cfg, words=False) -> CapacityReport:
    """Sender knows the state: the worst state of the per-state best of
    legitimate minus leakage term.  Each state is maximized on its own over
    prior and prefix, or with ``words`` over a prior on the a input words."""
    per_t, argmax, runs = {}, {}, []
    for t, name in enumerate(spec.names):
        legit_t, wire_t = legit.at(t), wire.at(t)
        if words:
            v, q, run = _maximize_prior(_objective(legit_t, wire_t), a, cfg, tag=t)
            e, argmax[name], state_runs = np.eye(a), {"word_prior": q.tolist()}, [run]
        else:
            v, q, e, m, state_runs = _maximize_aux(_objective(legit_t, wire_t), a, cfg, tag=t)
            argmax[name] = _prefix_argmax(q, e, m)
        per_t[name] = {**_per_state([name], legit_t, wire_t, q, e)[name], "value": v}
        runs += [{"state": name, **run} for run in state_runs]
    raw = min(row["value"] for row in per_t.values())
    grid = _prior_grid_used(cfg, a) if words else _aux_grid_used(cfg, a)
    return _clamped_report(formula_id, raw, n, per_t, argmax, cfg, {**grid, "ascent": runs})


def _nocsi_report(formula_id, spec, legit, wire, a, n, cfg) -> CapacityReport:
    """One prior and prefix for all states: the worst legitimate term minus
    the largest leakage term."""
    raw, q, e, m, runs = _maximize_aux(_objective(legit, wire), a, cfg, tag=0)
    per_t = _per_state(spec.names, legit, wire, q, e)
    solver = {**_aux_grid_used(cfg, a), "ascent": runs}
    return _clamped_report(formula_id, raw, n, per_t, _prefix_argmax(q, e, m), cfg, solver)


# ---------------------------------------------------------------------------
# classical compound wiretap


def _classical_term(channels) -> _ClassicalTerm:
    return _ClassicalTerm([ch.matrix for ch in channels])


def classical_csi_capacity(spec: CompoundWiretapSpec, cfg: SolverConfig) -> CapacityReport:
    """Worst state of the per-state best prefix rates (sender knows the state)."""
    _require_variant(spec, "classical", "b1")
    a = len(spec.legitimate[0].input_alphabet)
    legit, wire = _classical_term(spec.legitimate), _classical_term(spec.wiretap)
    return _csi_report("b1", spec, legit, wire, a, 1, cfg)


def classical_nocsi_lower(spec: CompoundWiretapSpec, cfg: SolverConfig) -> CapacityReport:
    """One prefix for all states: min legitimate rate minus max leakage rate."""
    _require_variant(spec, "classical", "b1prime")
    a = len(spec.legitimate[0].input_alphabet)
    legit, wire = _classical_term(spec.legitimate), _classical_term(spec.wiretap)
    return _nocsi_report("b1prime", spec, legit, wire, a, 1, cfg)


# ---------------------------------------------------------------------------
# classical compound channel with quantum wiretapper


def qwiretap_csi_capacity(spec: CompoundWiretapSpec, cfg: SolverConfig) -> CapacityReport:
    """Classical legitimate term, quantum leakage term at block length n."""
    _require_variant(spec, "classical-quantum-wiretap", "CSIcap")
    a = len(spec.legitimate[0].input_alphabet)
    # the largest member's d^n, before any term is built
    check_dim_cap(max(v.d_out for v in spec.wiretap) ** cfg.n, "wiretap block state")
    wire = _ChiPowerTerm([v.letters for v in spec.wiretap], cfg.n)
    return _csi_report("CSIcap", spec, _classical_term(spec.legitimate), wire, a, cfg.n, cfg)


def qwiretap_nocsi_lower(spec: CompoundWiretapSpec, cfg: SolverConfig) -> CapacityReport:
    """Single-letter quantum leakage exactly as the formula prints it."""
    _require_variant(spec, "classical-quantum-wiretap", "noCSIcap")
    a = len(spec.legitimate[0].input_alphabet)
    wire = _ChiPowerTerm([v.letters for v in spec.wiretap], 1)
    return _nocsi_report("noCSIcap", spec, _classical_term(spec.legitimate), wire, a, 1, cfg)


# ---------------------------------------------------------------------------
# compound classical-quantum wiretap channel


def _cq_block_terms(spec: CompoundWiretapSpec, n: int):
    """Holevo terms over n-fold input words, after the block-dimension caps
    on the largest member's d^n."""
    for role, members in (("legitimate", spec.legitimate), ("wiretap", spec.wiretap)):
        check_dim_cap(max(ch.d_out for ch in members) ** n, f"{role} block state")
    a = len(spec.legitimate[0].input_alphabet)
    words = enumerate_words(a, n, 0, a ** n)

    def term(members) -> _ChiMixTerm:
        return _ChiMixTerm([cq_word_state(ch, words) for ch in members], n)
    return term(spec.legitimate), term(spec.wiretap), len(words)


def cq_csi_capacity(spec: CompoundWiretapSpec, cfg: SolverConfig) -> CapacityReport:
    """Per-state best prior over n-fold input words, then the worst state."""
    _require_variant(spec, "cq", "e1q")
    legit, wire, n_words = _cq_block_terms(spec, cfg.n)
    return _csi_report("e1q", spec, legit, wire, n_words, cfg.n, cfg, words=True)


def cq_nocsi_capacity(spec: CompoundWiretapSpec, cfg: SolverConfig) -> CapacityReport:
    """One auxiliary variable for all states over n-fold input words."""
    _require_variant(spec, "cq", "qnocsie1q")
    legit, wire, n_words = _cq_block_terms(spec, cfg.n)
    return _nocsi_report("qnocsie1q", spec, legit, wire, n_words, cfg.n, cfg)


# ---------------------------------------------------------------------------
# entanglement generation


def entgen_lower_bound(spec: CompoundWiretapSpec, cfg: SolverConfig) -> CapacityReport:
    """Worst-state receiver Holevo rate minus best-state environment rate,
    maximized over priors and orthonormal input bases."""
    _require_variant(spec, "quantum", "entheorem")
    d = spec.legitimate[0].d_in
    rng = np.random.default_rng([cfg.seed, 77])
    bases = [np.eye(d, dtype=complex)]
    for _ in range(cfg.restarts):
        bases.append(random_unitary(d, rng))
    best = (-np.inf, None, None, None, None)
    runs = []
    for i, u in enumerate(bases):
        rec, env = zip(*(ch.basis_outputs(u) for ch in spec.legitimate))
        legit, wire = _ChiMixTerm(rec), _ChiMixTerm(env)
        v, q, run = _maximize_prior(_objective(legit, wire), d, cfg, tag=99)
        runs.append({"basis": i, **run})
        if v > best[0] + 1e-15:
            best = (v, q, u, legit, wire)
    raw, prior, u, legit, wire = best
    per_t = _per_state(spec.names, legit, wire, prior, np.eye(d))
    argmax = {
        "prior": prior.tolist(),
        "basis_real": u.real.tolist(),
        "basis_imag": u.imag.tolist(),
    }
    solver = {**_prior_grid_used(cfg, d), "ascent": runs}
    return _clamped_report("entheorem", raw, 1, per_t, argmax, cfg, solver)


def _coherent_objective(folded: KrausChannel):
    """Coherent information of rho = M M* / tr(M M*) for a (B, 2 dim^2) stack
    of (Re M, Im M) parameter rows; -inf where the trace vanishes."""
    dim = folded.d_in

    def objective(params):
        re, im = params[:, : dim * dim], params[:, dim * dim :]
        m = re.reshape(-1, dim, dim) + 1j * im.reshape(-1, dim, dim)
        g = m @ m.conj().swapaxes(-1, -2)
        tr = np.trace(g, axis1=-2, axis2=-1).real
        ok = tr >= 1e-14
        out = np.full(len(params), -np.inf)
        if ok.any():
            out[ok] = coherent_information_matrix(g[ok] / tr[ok, None, None], folded)
        return out

    return objective


def entgen_csi_capacity(spec: CompoundWiretapSpec, cfg: SolverConfig) -> CapacityReport:
    """Worst state of the per-state best coherent information at block n."""
    _require_variant(spec, "quantum", "propo1")
    dim = spec.legitimate[0].d_in ** cfg.n
    # dim^2 bounds each start's 2 dim^2 parameters and each probe's matrix
    check_dim_cap(dim * dim, "propo1 parameter matrix")
    check_dim_cap(max(ch.env_dim for ch in spec.legitimate) ** cfg.n, "environment state")
    per_t, argmax, values, runs = {}, {}, [], []
    for idx, (kraus, name) in enumerate(zip(spec.legitimate, spec.names)):
        folded = n_fold(kraus, cfg.n)
        objective = _coherent_objective(folded)
        rng = np.random.default_rng([cfg.seed, 88, idx])
        starts = []
        eye = np.eye(dim) / np.sqrt(dim)
        starts.append(np.concatenate([eye.reshape(-1), np.zeros(dim * dim)]))
        for b in range(dim):
            m0 = np.zeros((dim, dim))
            m0[b, b] = 1.0
            starts.append(np.concatenate([m0.reshape(-1), np.zeros(dim * dim)]))
        for _ in range(cfg.restarts):
            starts.append(rng.normal(size=2 * dim * dim))
        vals, ps, run = _ascend_unconstrained(objective, np.array(starts), cfg.refine_iters)
        k = _first_best(vals, margin=0.0)
        runs.append({"state": name, **run, "winner": k})
        best_v, best_p = vals[k], ps[k]
        m = best_p[: dim * dim].reshape(dim, dim) + 1j * best_p[dim * dim :].reshape(dim, dim)
        g = m @ m.conj().T
        rho = g / np.trace(g).real
        per_t[name] = {"coherent_information": best_v / cfg.n, "value": best_v / cfg.n}
        argmax[name] = {"rho_real": rho.real.tolist(), "rho_imag": rho.imag.tolist()}
        values.append(best_v / cfg.n)
    raw = min(values)
    return _clamped_report("propo1", raw, cfg.n, per_t, argmax, cfg, {"ascent": runs})


FORMULAS: dict[str, Callable] = {
    "b1": classical_csi_capacity,
    "b1prime": classical_nocsi_lower,
    "csicap": qwiretap_csi_capacity,
    "nocsicap": qwiretap_nocsi_lower,
    "e1q": cq_csi_capacity,
    "qnocsie1q": cq_nocsi_capacity,
    "entheorem": entgen_lower_bound,
    "propo1": entgen_csi_capacity,
}
