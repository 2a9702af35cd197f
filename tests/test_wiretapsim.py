import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qwk.channels import CQChannel, ClassicalChannel, CompoundWiretapSpec, bsc, cq_word_state
from qwk.cli import canonical_payload_bytes, load_spec, parse_spec
from qwk.qcore import (
    CapExceededError,
    QcoreError,
    accumulate_products,
    ginibre_factor,
    ginibre_states,
    pgm_inverse_sqrt,
    pretty_good_measurement,
)
from qwk.streams import choice_cdf, counter_draws, counter_rng
from qwk.typicality import TypicalParams, sandwiched_outputs
from qwk.wiretapsim import (
    Codebook,
    PrettyGoodDecoder,
    _median,
    build_decoder,
    covering_concentration,
    eval_error,
    eval_leakage,
    sample_codebook,
    sizes_from_rates,
    two_part_protocol,
)

Z = 2
DATA = os.path.join(os.path.dirname(__file__), "data")
SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")


def qubit_wiretap(theta0=0.0, theta1=0.35):
    """cq wiretap with two slightly rotated mixed outputs."""

    def state(theta):
        c, s = np.cos(theta), np.sin(theta)
        u = np.array([[c, -s], [s, c]])
        return u @ np.diag([0.8, 0.2]) @ u.T

    return CQChannel((0, 1), Z, {0: state(theta0), 1: state(theta1)})


def classical_pair_spec(pw=0.1, pv=0.3):
    return CompoundWiretapSpec("classical", ("t1",), (bsc(pw),), (bsc(pv),))


def cqw_spec(wiretap=None):
    wiretap = wiretap or qubit_wiretap()
    return CompoundWiretapSpec("classical-quantum-wiretap", ("t1",), (bsc(0.1),), (wiretap,))


class TestSampleCodebook:
    def test_point_mass_gives_all_zero_words(self):
        cb = sample_codebook([1.0, 0.0], 4, J=3, L=2, seed=0)
        assert np.all(cb.words == 0)

    def test_single_word(self):
        cb = sample_codebook([0.5, 0.5], 4, J=1, L=1, seed=0)
        assert cb.words.shape == (1, 1, 4)

    def test_letter_frequencies_near_half(self):
        cb = sample_codebook([0.5, 0.5], 8, J=4, L=4, seed=7, delta=0.25)
        freq = cb.words.mean()
        assert abs(freq - 0.5) <= 0.25

    def test_reproducible_per_index(self):
        cb1 = sample_codebook([0.5, 0.5], 6, J=2, L=2, seed=3)
        cb2 = sample_codebook([0.5, 0.5], 6, J=2, L=2, seed=3)
        assert np.array_equal(cb1.words, cb2.words)
        # a single (j, l) entry is reproducible in isolation via the keyed rng
        rng = counter_rng(3, 0, 1, 1)
        from qwk.typicality import truncated_typical

        words, probs = truncated_typical([0.5, 0.5], 6, 0.1)
        expect = np.asarray(words)[rng.choice(len(words), p=probs)]
        assert np.array_equal(cb1.words[1, 1], expect)


class TestSizesFromRates:
    def test_zero_chi_case(self):
        const = ClassicalChannel((0, 1), (0,), [[1.0], [1.0]])
        ident = ClassicalChannel((0, 1), (0, 1), [[1, 0], [0, 1]])
        spec = CompoundWiretapSpec("classical", ("t1",), (ident,), (const,))
        j, l_per_t, degenerate = sizes_from_rates(spec, [0.5, 0.5], 4, rate_margin=0.25, leak_margin=0.0)
        assert l_per_t["t1"] == 1
        assert j == 8
        assert not degenerate

    def test_zero_rate_flagged(self):
        const = ClassicalChannel((0, 1), (0,), [[1.0], [1.0]])
        spec = CompoundWiretapSpec("classical", ("t1",), (const,), (const,))
        j, _, degenerate = sizes_from_rates(spec, [0.5, 0.5], 4, rate_margin=0.25)
        assert j == 1
        assert degenerate

    def test_l_formula_arithmetic(self):
        # wiretap rate 0.5 at uniform prior: identity on one bit with erasures
        half = ClassicalChannel(
            (0, 1), (0, 1, 2), [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
        )
        from qwk.infotheory import mutual_information

        assert mutual_information([0.5, 0.5], half) == pytest.approx(0.5)
        ident = ClassicalChannel((0, 1), (0, 1), [[1, 0], [0, 1]])
        spec = CompoundWiretapSpec("classical", ("t1",), (ident,), (half,))
        _, l_per_t, _ = sizes_from_rates(spec, [0.5, 0.5], 10, leak_margin=0.1)
        assert l_per_t["t1"] == 128

    def test_depth_past_the_entry_cap_refused(self):
        # exponent n(chi + 2 margin) = 4(0 + 2 * 3.5) = 28 > log2 ENUM_CAP = 24
        const = ClassicalChannel((0, 1), (0,), [[1.0], [1.0]])
        ident = ClassicalChannel((0, 1), (0, 1), [[1, 0], [0, 1]])
        spec = CompoundWiretapSpec("classical", ("t1",), (ident,), (const,))
        assert sizes_from_rates(spec, [0.5, 0.5], 4, leak_margin=3.0)[1]["t1"] == 2 ** 24
        for margin in (3.5, 1e6):
            with pytest.raises(CapExceededError):
                sizes_from_rates(spec, [0.5, 0.5], 4, leak_margin=margin)

    def test_depth_is_at_least_one_and_a_message_count_past_the_cap_is_refused(self):
        const = ClassicalChannel((0, 1), (0,), [[1.0], [1.0]])
        ident = ClassicalChannel((0, 1), (0, 1), [[1, 0], [0, 1]])
        spec = CompoundWiretapSpec("classical", ("t1",), (ident,), (const,))
        # 2^(4(0 - 2000)) underflows to 0; the depth stays 1
        assert sizes_from_rates(spec, [0.5, 0.5], 4, leak_margin=-1000.0)[1] == {"t1": 1}
        # J exponent 4(1 - 0 - margin): 23.6 at margin -4.9, past log2 ENUM_CAP = 24 at -5.25
        assert 2 ** 23 < sizes_from_rates(spec, [0.5, 0.5], 4, rate_margin=-4.9)[0] < 2 ** 24
        for margin in (-5.25, -1000.0):
            with pytest.raises(CapExceededError, match="message count"):
                sizes_from_rates(spec, [0.5, 0.5], 4, rate_margin=margin)


class TestDecodingAndError:
    def test_noiseless_channel_zero_error(self):
        spec = classical_pair_spec(pw=0.0)
        cb = sample_codebook([0.5, 0.5], 6, J=2, L=1, seed=5, delta=0.34)
        # distinct codewords under this seed
        assert not np.array_equal(cb.words[0, 0], cb.words[1, 0])
        dec = build_decoder(spec, cb, delta=0.15)
        rep = eval_error(spec, cb, dec, trials=10, seed=0)
        assert rep.per_t["t1"]["max_error"] == pytest.approx(0.0, abs=1e-12)

    def test_single_message_zero_error(self):
        spec = classical_pair_spec(pw=0.0)
        cb = sample_codebook([0.5, 0.5], 4, J=1, L=1, seed=1, delta=0.3)
        dec = build_decoder(spec, cb, delta=0.3)
        rep = eval_error(spec, cb, dec, trials=10, seed=0)
        assert rep.per_t["t1"]["max_error"] == pytest.approx(0.0, abs=1e-12)

    def test_decision_partition_is_exhaustive(self):
        # D_j and its complement split every output word: probabilities sum to 1
        spec = classical_pair_spec(pw=0.1)
        cb = sample_codebook([0.5, 0.5], 4, J=2, L=1, seed=2, delta=0.3)
        dec = build_decoder(spec, cb, delta=0.2)
        probs = accumulate_products(bsc(0.1).matrix[cb.words[0, 0]])
        assert len(probs) == 2 ** 4
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bsc_n16_monte_carlo_error_low(self):
        spec = classical_pair_spec(pw=0.1)
        rng_words = np.array(
            [[0] * 16, [1] * 16]
        )
        cb = Codebook(rng_words.reshape(2, 1, 16), 2, 1, 16, {"seed": 7})
        dec = build_decoder(spec, cb, delta=0.15)
        rep = eval_error(spec, cb, dec, trials=2000, seed=7)
        assert rep.per_t["t1"]["method"] == "mc"
        assert rep.per_t["t1"]["max_error"] <= 0.2

    def test_exact_vs_monte_carlo_agreement_n12(self):
        spec = classical_pair_spec(pw=0.1)
        words = np.array([[0] * 12, [1] * 12]).reshape(2, 1, 12)
        cb = Codebook(words, 2, 1, 12, {"seed": 11})
        dec = build_decoder(spec, cb, delta=0.15)
        exact = eval_error(spec, cb, dec, trials=1, seed=0)
        assert exact.per_t["t1"]["method"] == "exact"
        mc = _force_mc_error(spec, cb, dec, trials=2000, seed=11)
        se = max(mc["stderr"], 1e-4)
        assert abs(exact.per_t["t1"]["max_error"] - mc["max_error"]) <= 3 * se

    def test_pgm_decoder_orthogonal_outputs(self):
        legit = CQChannel((0, 1), Z, {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})
        wire = CQChannel((0, 1), Z, {0: np.eye(2) / 2, 1: np.eye(2) / 2})
        spec = CompoundWiretapSpec("cq", ("t1",), (legit,), (wire,))
        words = np.array([[0, 0], [1, 1]]).reshape(2, 1, 2)
        cb = Codebook(words, 2, 1, 2, {"seed": 0, "p": [0.5, 0.5]})
        dec = build_decoder(spec, cb, params=TypicalParams(n=2, alpha=2.0, delta=0.6))
        rep = eval_error(spec, cb, dec, trials=1, seed=0)
        assert rep.per_t["t1"]["max_error"] <= 0.2


def _stacked_mean_povm(legit, cb, params=None):
    """Reference: the former dense decoder build.  Every sandwiched output
    in one (J, L, D, D) stack, numpy's mean over L, then the stacked
    square-root measurement."""
    params = params or TypicalParams(n=cb.n, delta=cb.source["delta"])
    outs = sandwiched_outputs(legit, cb.words.reshape(-1, cb.n), cb.source["p"], params)
    means = outs.reshape(cb.J, cb.L, *outs.shape[1:]).mean(axis=1)
    inv_sqrt = pgm_inverse_sqrt(means.sum(axis=0))
    return inv_sqrt @ means @ inv_sqrt


def _elements(dec, L):
    """The decoder's elements E_j = H_j H_j^dag / L, rebuilt from its factors."""
    return np.stack([h @ h.conj().T / L for h in dec.factors])


class TestPrettyGoodDecoder:
    @pytest.mark.parametrize("J, L", [(1, 1), (4, 2), (2, 3), (3, 5)])
    def test_povm_equals_the_stacked_mean_build(self, J, L):
        spec = load_spec(os.path.join(SPECS, "cq_pair.json"))
        cb = sample_codebook([0.5, 0.5], 6, J, L, seed=3, delta=0.1)
        assert np.allclose(_elements(build_decoder(spec, cb), L),
                           _stacked_mean_povm(spec.legitimate[0], cb), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("J, L", [(1, 1), (4, 2), (3, 5)])
    def test_build_diagonalises_each_letter_once(self, J, L, eigensystem_calls):
        # the a letters once for every codeword, and the averaged output once
        spec = load_spec(os.path.join(SPECS, "cq_pair.json"))
        cb = sample_codebook([0.5, 0.5], 6, J, L, seed=2, delta=0.1)
        PrettyGoodDecoder.build(spec.legitimate[0], cb, TypicalParams(n=6, delta=0.1))
        assert len(eigensystem_calls) <= 2 + 1

    @pytest.mark.parametrize("alpha", [0.1, 4.0])
    def test_build_forms_no_projector_matrix_or_word_state(self, alpha, monkeypatch):
        # mixed letters in a random basis; alpha 0.1 keeps 41 of Pa's 64
        # eigen-words, 4.0 all of them, and the normaliser's smallest kept
        # eigenvalue (3e-3) leaves the two forms' rounding below 1e-12
        import qwk.channels
        import qwk.typicality
        import qwk.wiretapsim
        from qwk.typicality import TypicalProjector

        formed = []
        matrix = TypicalProjector.matrix.fget
        monkeypatch.setattr(TypicalProjector, "matrix",
                            property(lambda proj: formed.append("projector") or matrix(proj)))
        for module in (qwk.channels, qwk.typicality, qwk.wiretapsim):
            monkeypatch.setattr(module, "cq_word_state",
                                lambda *args, _fn=module.cq_word_state: formed.append("state") or _fn(*args))
        rng = np.random.default_rng(11)
        legit = CQChannel((0, 1), Z, {x: ginibre_states(ginibre_factor(Z, rng)) for x in (0, 1)})
        cb = sample_codebook([0.5, 0.5], 6, 3, 2, seed=1, delta=0.2)
        params = TypicalParams(n=6, delta=0.2, alpha=alpha)
        povm = _elements(PrettyGoodDecoder.build(legit, cb, params), 2)
        assert formed == []
        monkeypatch.undo()
        outs = sandwiched_outputs(legit, cb.words.reshape(-1, 6), [0.5, 0.5], params)
        ref = pretty_good_measurement(outs.reshape(3, 2, *outs.shape[1:]).mean(axis=1))
        assert np.allclose(povm, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("J, L", [(4, 2), (2, 4)])
    def test_build_peak_memory(self, J, L):
        # the normaliser, its inverse square root, a few D x D work matrices
        # and the J factors; a build that stacks all J*L outputs needs
        # 2JL + J + 5 D x D matrices
        n = 8
        spec = load_spec(os.path.join(SPECS, "cq_pair.json"))
        cb = sample_codebook([0.5, 0.5], n, J, L, seed=1, delta=0.1)
        tracemalloc.start()
        try:
            build_decoder(spec, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (J + 8) * 4 ** n * 16


def _message_states(ch, cb):
    """Reference: the former per-message output states (1/L) sum_l rho(x_jl)."""
    rhos = []
    for j in range(cb.J):
        acc = None
        for l in range(cb.L):
            m = cq_word_state(ch, cb.words[j, l])
            acc = m if acc is None else acc + m
        rhos.append(acc / cb.L)
    return rhos


class TestExactQuantumError:
    @pytest.mark.parametrize("seed", range(6))
    def test_per_j_against_dense_message_states(self, seed):
        # random mixed qubit letters: the outputs overlap, so no error is 0 or 1
        rng = np.random.default_rng(seed)
        letters = ginibre_states(np.stack([ginibre_factor(Z, rng) for _ in range(2)]))
        legit = CQChannel((0, 1), Z, dict(enumerate(letters)))
        spec = CompoundWiretapSpec("cq", ("t1",), (legit,), (qubit_wiretap(),))
        n, J, L = int(rng.integers(2, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        cb = sample_codebook([0.5, 0.5], n, J, L, seed=seed, delta=0.25)
        dec = build_decoder(spec, cb)
        got = eval_error(spec, cb, dec, trials=1, seed=0).per_t["t1"]["per_j"]
        povm = _stacked_mean_povm(legit, cb)
        ref = [1.0 - np.trace(e @ rho).real for e, rho in zip(povm, _message_states(legit, cb))]
        assert np.allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_error_forms_no_word_state(self, n, monkeypatch):
        # the largest Kronecker product formed is one half of a word
        import qwk.qcore
        import qwk.wiretapsim

        spec = load_spec(os.path.join(SPECS, "cq_pair.json"))
        cb = sample_codebook([0.5, 0.5], n, 2, 2, seed=1, delta=0.5)
        dec = build_decoder(spec, cb)
        dims = []
        kron = qwk.qcore.kron_chain
        monkeypatch.setattr(qwk.qcore, "kron_chain", lambda f: dims.append(len(kron(f))) or kron(f))
        monkeypatch.setattr(qwk.wiretapsim, "kron_chain", None)
        monkeypatch.setattr(qwk.wiretapsim, "cq_word_state", None)
        eval_error(spec, cb, dec, trials=1, seed=0)
        assert dims and max(dims) == 2 ** (n - n // 2)

    @pytest.mark.parametrize("J, L", [(4, 2), (2, 4)])
    def test_error_peak_memory(self, J, L):
        # one factor's image under the word's two half states at a time; the
        # former dense message states and E rho products needed 4.5-6 D^2
        n = 8
        spec = load_spec(os.path.join(SPECS, "cq_pair.json"))
        cb = sample_codebook([0.5, 0.5], n, J, L, seed=1, delta=0.1)
        dec = build_decoder(spec, cb)
        tracemalloc.start()
        try:
            eval_error(spec, cb, dec, trials=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 4 ** n * 16


def _force_mc_error(spec, cb, dec, trials, seed):
    from qwk.wiretapsim import _mc_classical_error

    return _mc_classical_error(spec.legitimate[0], cb, dec, trials, seed, 0)


class TestLeakage:
    def test_constant_wiretap_zero(self):
        const = CQChannel((0, 1), Z, {0: np.eye(2) / 2, 1: np.eye(2) / 2})
        spec = cqw_spec(const)
        cb = sample_codebook([0.5, 0.5], 4, J=2, L=2, seed=0, delta=0.3)
        rep = eval_leakage(spec, cb)
        assert rep.per_t["t1"]["leakage"] == pytest.approx(0.0, abs=1e-10)

    def test_single_message_zero(self):
        spec = cqw_spec()
        cb = sample_codebook([0.5, 0.5], 4, J=1, L=4, seed=0, delta=0.3)
        rep = eval_leakage(spec, cb)
        assert rep.per_t["t1"]["leakage"] == pytest.approx(0.0, abs=1e-10)

    def test_leakage_bounded_by_log_j(self):
        spec = cqw_spec()
        for seed in (0, 1, 2):
            cb = sample_codebook([0.5, 0.5], 5, J=4, L=2, seed=seed, delta=0.25)
            rep = eval_leakage(spec, cb)
            assert rep.per_t["t1"]["leakage"] <= np.log2(4) + 1e-9

    def test_orthogonal_wiretap_leakage_decreases_with_l(self):
        wire = CQChannel((0, 1), Z, {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})
        spec = cqw_spec(wire)
        cb_small = sample_codebook([0.5, 0.5], 6, J=2, L=2, seed=11, delta=0.2)
        cb_big = sample_codebook([0.5, 0.5], 6, J=2, L=4, seed=11, delta=0.2)
        leak_small = eval_leakage(spec, cb_small).per_t["t1"]["leakage"]
        leak_big = eval_leakage(spec, cb_big).per_t["t1"]["leakage"]
        assert leak_small < np.log2(2) + 1e-12
        assert leak_big <= leak_small + 1e-9

    def test_classical_wiretap_leakage(self):
        spec = classical_pair_spec()
        cb = sample_codebook([0.5, 0.5], 6, J=2, L=2, seed=3, delta=0.2)
        rep = eval_leakage(spec, cb)
        assert 0.0 <= rep.per_t["t1"]["leakage"] <= 1.0


class TestCovering:
    def test_constant_output_channel_zero_deviation(self):
        const = CQChannel((0, 1), Z, {0: np.eye(2) / 2, 1: np.eye(2) / 2})
        rep = covering_concentration(const, [0.5, 0.5], 3, [1, 4], trials=20, seed=0,
                                     params=TypicalParams(n=3, delta=0.4))
        for l_stats in rep.stats["per_L"].values():
            assert l_stats["median"] == pytest.approx(0.0, abs=1e-9)

    def test_medians_decrease_with_l(self):
        rep = covering_concentration(
            qubit_wiretap(), [0.5, 0.5], 4, [1, 4, 16, 64],
            trials=200, seed=11, params=TypicalParams(n=4, delta=0.3),
        )
        meds = [rep.stats["per_L"][l]["median"] for l in (1, 4, 16, 64)]
        assert all(b < a for a, b in zip(meds, meds[1:]))
        assert rep.stats["medians_decreasing"]

    @pytest.mark.parametrize("size", [1, 2, 7, 100, 201])
    def test_median_equals_numpys_to_the_bit(self, size):
        rng = np.random.default_rng(size)
        for values in (rng.random(size), rng.normal(size=size) * 1e-3,
                       np.round(rng.random(size), 1)):
            assert _median(values) == np.median(values)
        values = rng.random(size)
        values[size // 2] = np.nan
        assert np.isnan(_median(values)) and np.isnan(np.median(values))

    def test_verify_covering_leaves_numpy_ma_unloaded(self, tmp_path):
        code = ("import sys\n"
                "from qwk.cli import main\n"
                f"assert main(['verify', 'covering', '--out', {str(tmp_path / 'v.json')!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.path.join(SPECS, "..", "src")}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_large_l_median_below_epsilon(self):
        rep = covering_concentration(
            qubit_wiretap(), [0.5, 0.5], 4, [64],
            trials=100, seed=11, params=TypicalParams(n=4, delta=0.3), epsilon=0.1,
        )
        assert rep.stats["per_L"][64]["median"] < 0.1


def _twopart_golden_cases():
    """Two-part reports made before the protocol's two forks were merged."""
    with open(os.path.join(DATA, "golden_twopart.json")) as fh:
        return {case["name"]: case for case in json.load(fh)["cases"]}


class TestTwoPartProtocol:
    def two_state_spec(self):
        # identity-like and flipped channels: easy to tell apart from block 1
        w1, w2 = bsc(0.03), ClassicalChannel((0, 1), (0, 1), [[0.03, 0.97], [0.97, 0.03]])
        v = bsc(0.45)
        return CompoundWiretapSpec("classical", ("t1", "t2"), (w1, w2), (v, v))

    def test_singleton_reduces_to_plain_run(self):
        spec = classical_pair_spec(pw=0.05)
        rep = two_part_protocol(spec, "t1", n1=4, n2=8, J=2, L=1, trials=300, seed=3,
                                delta=0.2)
        assert rep.stats["block1_fail_rate"] == 0.0
        assert rep.stats["total_error_rate"] <= 0.2

    def test_two_distinguishable_channels_low_error(self):
        spec = self.two_state_spec()
        rep = two_part_protocol(spec, "t1", n1=8, n2=12, J=2, L=1, trials=400, seed=3,
                                delta=0.25)
        assert rep.stats["total_error_rate"] <= 0.05

    def test_error_accounting_identity(self):
        spec = self.two_state_spec()
        rep = two_part_protocol(spec, "t2", n1=6, n2=10, J=2, L=1, trials=250, seed=9,
                                delta=0.15)
        s = rep.stats
        recomputed = s["block1_fail_rate"] + s["block2_fail_given_success"] * (
            1 - s["block1_fail_rate"]
        )
        assert s["total_error_rate"] == pytest.approx(recomputed, abs=1e-12)

    def test_degenerate_family_flagged(self):
        const = ClassicalChannel((0, 1), (0,), [[1.0], [1.0]])
        spec = CompoundWiretapSpec("classical", ("t1",), (const,), (const,))
        rep = two_part_protocol(spec, "t1", n1=4, n2=4, J=2, L=1, trials=10, seed=0)
        assert rep.stats["degenerate"]

    def test_cq_receivers_exact_path(self):
        # orthogonal-output receivers: block 1 and block 2 decode exactly
        legit1 = CQChannel((0, 1), Z, {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})
        legit2 = CQChannel((0, 1), Z, {0: np.diag([0.0, 1.0]), 1: np.diag([1.0, 0.0])})
        wire = CQChannel((0, 1), Z, {0: np.eye(2) / 2, 1: np.eye(2) / 2})
        spec = CompoundWiretapSpec("cq", ("t1", "t2"), (legit1, legit2), (wire, wire))
        rep = two_part_protocol(spec, "t1", n1=2, n2=2, J=2, L=1, trials=10, seed=4,
                                delta=0.6)
        assert rep.stats["method"] == "exact"
        assert rep.stats["total_error_rate"] <= 0.35
        s = rep.stats
        recomputed = s["block1_fail_rate"] + s["block2_fail_given_success"] * (
            1 - s["block1_fail_rate"]
        )
        assert s["total_error_rate"] == pytest.approx(recomputed, abs=1e-12)
        assert rep.per_t["t1"]["leakage"] == pytest.approx(0.0, abs=1e-10)

    def test_cq_states_of_different_output_dimensions_refused(self, monkeypatch):
        # block 1's measurement needs every state's output in one space
        import qwk.wiretapsim as ws

        qutrit = CQChannel((0, 1), 3, {0: np.diag([0.8, 0.2, 0.0]), 1: np.diag([0.0, 0.3, 0.7])})
        spec = CompoundWiretapSpec("cq", ("t1", "t2"), (qubit_wiretap(), qutrit),
                                   (qubit_wiretap(), qubit_wiretap()))
        monkeypatch.setattr(ws, "sample_codebook", None)
        with pytest.raises(QcoreError, match=r"one output dimension, not \[2, 3\]"):
            two_part_protocol(spec, "t1", n1=2, n2=4, J=2, L=1, trials=10, seed=1)

    def test_cq_decoder_projects_with_the_codebook_prior(self):
        # words drawn from (0.8, 0.2) are not typical for the uniform prior
        spec = load_spec(os.path.join(SPECS, "cq_pair.json"))
        rep = two_part_protocol(spec, "t1", 4, 6, 2, 1, 10, 3, delta=0.15, p=[0.8, 0.2])
        assert rep.stats["method"] == "exact"
        cb = sample_codebook([0.8, 0.2], 6, 2, 1, 1003, delta=0.15)
        outs = sandwiched_outputs(spec.legitimate[0], cb.words.reshape(2, 6), [0.8, 0.2],
                                  TypicalParams(n=6, delta=0.15))
        assert np.allclose(_elements(build_decoder(spec, cb), 1), pretty_good_measurement(outs),
                           rtol=0, atol=1e-12)

    def test_golden_reports_rerun_byte_identically(self):
        cases = _twopart_golden_cases()
        assert len(cases) >= 7
        for case in cases.values():
            rep = two_part_protocol(parse_spec(case["spec"]), case["t_true"], **case["kwargs"])
            assert canonical_payload_bytes(rep.to_json_dict()) == canonical_payload_bytes(
                case["payload"]), case["name"]

    @pytest.mark.parametrize("case", ["three_state_cq", "three_state_classical"])
    def test_only_the_true_states_code_is_built(self, case, monkeypatch):
        import qwk.wiretapsim as ws

        calls = {"sample_codebook": 0, "build_decoder": 0}

        def counted(name):
            fn = getattr(ws, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ws, name, counted(name))
        golden = _twopart_golden_cases()[case]
        spec = parse_spec(golden["spec"])
        assert len(spec) == 3
        two_part_protocol(spec, golden["t_true"], **golden["kwargs"])
        assert calls == {"sample_codebook": 1, "build_decoder": 1}

    def test_no_block_one_letters_decide_the_first_state(self):
        # with n1 = 0 every state's likelihood is 1, so the first state is
        # chosen: the second is always missed, the first never
        spec = load_spec(os.path.join(SPECS, "bsc_two_state.json"))
        for t_true, fail in (("t2", 1.0), ("t1", 0.0)):
            rep = two_part_protocol(spec, t_true, n1=0, n2=6, J=2, L=1, trials=50, seed=1)
            assert rep.stats["block1_fail_rate"] == fail
            assert rep.params["n1"] == 0

    @pytest.mark.parametrize("kwargs, message", [
        ({"t_true": "nope"}, "t_true 'nope' is not a state"),
        ({"n1": -1}, "n1 must be >= 0"),
        ({"n2": 0}, "n2 must be >= 1"),
    ])
    def test_bad_arguments_refused_before_any_work(self, kwargs, message, monkeypatch):
        import qwk.wiretapsim as ws

        def no_work(*args):
            raise AssertionError("work began before the arguments were checked")

        monkeypatch.setattr(ws, "_min_rate_over_states", no_work)
        args = {"t_true": "t1", "n1": 4, "n2": 6, "J": 2, "L": 1, "trials": 10, "seed": 0}
        with pytest.raises(QcoreError, match=message):
            two_part_protocol(self.two_state_spec(), **{**args, **kwargs})

    @pytest.mark.parametrize("case", ["three_state_cq", "three_state_classical"])
    def test_zero_trials_rejected_for_both_receiver_kinds(self, case):
        golden = _twopart_golden_cases()[case]
        kwargs = {**golden["kwargs"], "trials": 0}
        with pytest.raises(QcoreError, match="trials must be >= 1"):
            two_part_protocol(parse_spec(golden["spec"]), golden["t_true"], **kwargs)


# ---------------------------------------------------------------------------
# batched decoding and sampling against per-word references

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwk.typicality import enumerate_words
from qwk.wiretapsim import TypicalityDecoder, plan_simulation


def _reference_decide(channel, codebook, delta, y):
    """Per-word, per-pair joint-typicality decision (the loop form)."""
    w = channel.matrix
    a, b = w.shape
    for j in range(codebook.J):
        for l in range(codebook.L):
            counts = np.zeros((a, b))
            for xi, yi in zip(codebook.words[j, l], y):
                counts[xi, yi] += 1
            row_tot = counts.sum(axis=1)
            typical = True
            for ai in range(a):
                if row_tot[ai] == 0:
                    continue
                emp = counts[ai] / row_tot[ai]
                if np.any(emp[w[ai] <= 0] > 0) or np.max(np.abs(emp - w[ai])) > delta + 1e-12:
                    typical = False
                    break
            if typical:
                return j
    return None


def _reference_mc_error(legit, codebook, decoder, trials, seed, t_idx):
    """Monte-Carlo error with one rng.choice call per output letter."""
    per_j, per_j_se = [], []
    for j in range(codebook.J):
        wrong = 0
        for k in range(trials):
            rng = counter_rng(seed, 1, t_idx, j, k)
            l = int(rng.integers(codebook.L))
            x = codebook.words[j, l]
            y = np.array([rng.choice(legit.matrix.shape[1], p=legit.matrix[xi]) for xi in x])
            if _reference_decide(legit, codebook, decoder.delta, y) != j:
                wrong += 1
        p_hat = wrong / trials
        per_j.append(float(p_hat))
        per_j_se.append(float(np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / trials)))
    worst = int(np.argmax(per_j))
    return {"max_error": per_j[worst], "per_j": per_j, "stderr": per_j_se[worst], "method": "mc"}


@st.composite
def _decoding_cases(draw):
    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    J = draw(st.integers(1, 3))
    L = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # quarter-grid entries put empirical frequencies exactly on the slack
        m = rng.integers(0, 5, size=(a, b)).astype(float)
    else:
        m = rng.random((a, b)) * (rng.random((a, b)) > 0.3)
    m[m.sum(axis=1) == 0, 0] = 1.0
    m = m / m.sum(axis=1, keepdims=True)
    channel = ClassicalChannel(tuple(range(a)), tuple(range(b)), m)
    words = rng.integers(0, a, size=(J, L, n))
    delta = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 1 / 3]) | st.floats(0.01, 0.9))
    return channel, Codebook(words, J, L, n, {"seed": 0}), delta


class TestBatchedDecoding:
    @settings(max_examples=150, deadline=None)
    @given(_decoding_cases())
    @example((  # |1 - 0.7| rounds above the slack 0.3; only the 1e-12 margin keeps it
        ClassicalChannel((0, 1), (0, 1), [[0.7, 0.3], [0.3, 0.7]]),
        Codebook(np.array([[[0, 0]], [[1, 1]]]), 2, 1, 2, {"seed": 0}),
        0.3,
    ))
    def test_batch_matches_per_word_reference(self, case):
        channel, cb, delta = case
        dec = TypicalityDecoder(channel, cb, delta)
        b = len(channel.output_alphabet)
        y_words = enumerate_words(b, cb.n, 0, b ** cb.n)
        ref = [_reference_decide(channel, cb, delta, y) for y in y_words]
        got = dec.decide(y_words)
        assert [None if d < 0 else int(d) for d in got] == ref

    def test_blocks_do_not_change_decisions(self, monkeypatch):
        import qwk.wiretapsim as ws

        spec = classical_pair_spec(pw=0.1)
        cb = sample_codebook([0.5, 0.5], 8, J=3, L=2, seed=4, delta=0.25)
        dec = build_decoder(spec, cb, delta=0.25)
        y_words = enumerate_words(2, 8, 0, 256)
        whole = dec.decide(y_words)
        monkeypatch.setattr(ws, "_DECODE_BLOCK_ENTRIES", 7)
        assert np.array_equal(dec.decide(y_words), whole)

    def test_monte_carlo_matches_per_letter_choice(self):
        # ternary outputs at n=8: 3^8 > 4096 outputs, so the Monte-Carlo path runs
        legit = ClassicalChannel((0, 1), (0, 1, 2), [[0.86, 0.1, 0.04], [0.0, 0.1, 0.9]])
        spec = CompoundWiretapSpec("classical", ("t1",), (legit,), (bsc(0.3),))
        cb = sample_codebook([0.5, 0.5], 8, J=4, L=2, seed=13, delta=0.25)
        dec = build_decoder(spec, cb, delta=0.25)
        rep = eval_error(spec, cb, dec, trials=150, seed=5)
        assert rep.per_t["t1"]["method"] == "mc"
        assert rep.per_t["t1"] == _reference_mc_error(legit, cb, dec, 150, 5, 0)

    def test_sampled_letters_match_per_letter_choice(self):
        # the letters of one rng.choice call per letter under the same key
        w = np.array([[0.7, 0.0, 0.3], [0.2, 0.5, 0.3]])
        x = np.array([0, 1, 1, 0, 1, 0, 0])
        _, u = counter_draws(3, (3, 1), np.arange(20)[:, None], (), len(x))
        letters = np.count_nonzero(choice_cdf(w)[x] <= u[..., None], axis=-1)
        for key in range(20):
            rng = counter_rng(3, 3, 1, key)
            assert letters[key].tolist() == [rng.choice(3, p=w[xi]) for xi in x]


class TestResourcePlan:
    def test_methods_and_sizes_recorded(self):
        legit = ClassicalChannel((0, 1), (0, 1, 2), [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
        spec = CompoundWiretapSpec("classical", ("a", "b"), (bsc(0.1), legit), (bsc(0.3),) * 2)
        plan = plan_simulation(spec, 8, 4, 2)
        assert plan["error"] == {"a": "exact", "b": "mc"}
        assert plan["leakage"] == {"a": "exact", "b": "exact"}
        sizes = {(c["check"], c["t"]): c["size"] for c in plan["caps"]}
        assert sizes[("classical error enumeration", "b")] == 3 ** 8
        assert sizes[("typical-set enumeration", None)] == 2 ** 8

    @pytest.mark.parametrize("b, n", [(2, 12), (2, 13), (3, 7), (3, 8)])
    def test_error_method_matches_eval_error(self, b, n):
        # either side of the 4096-word cap on the legitimate outputs
        rows = [[0.9] + [0.1 / (b - 1)] * (b - 1), [0.1 / (b - 1)] * (b - 1) + [0.9]]
        legit = ClassicalChannel((0, 1), tuple(range(b)), rows)
        blind = ClassicalChannel((0, 1), (0,), [[1.0], [1.0]])
        spec = CompoundWiretapSpec("classical", ("t1",), (legit,), (blind,))
        cb = sample_codebook([0.5, 0.5], n, J=2, L=1, seed=1, delta=0.25)
        dec = build_decoder(spec, cb, delta=0.25)
        method = eval_error(spec, cb, dec, trials=20, seed=1).per_t["t1"]["method"]
        assert plan_simulation(spec, n, 2, 1)["error"]["t1"] == method
        assert method == ("exact" if b ** n <= 4096 else "mc")

    def test_refusals_before_sampling(self):
        with pytest.raises(CapExceededError):
            plan_simulation(classical_pair_spec(), 13, 2, 1)
        with pytest.raises(CapExceededError, match="codebook"):
            plan_simulation(classical_pair_spec(), 4, 2 ** 20, 5)
        sizes = {c["check"]: c["size"] for c in plan_simulation(classical_pair_spec(), 4, 2 ** 20, 4)["caps"]}
        assert sizes["codebook entries"] == 2 ** 24
        with pytest.raises(CapExceededError):
            plan_simulation(cqw_spec(), 15, 2, 1)
        with pytest.raises(QcoreError):
            plan_simulation(classical_pair_spec(), 4, 2, 0)

    def test_pgm_decoder_uses_codebook_slack(self):
        # words drawn with slack 0.25 are atypical at TypicalParams' default 0.1
        legit = CQChannel((0, 1), Z, {0: np.diag([0.9, 0.1]), 1: np.diag([0.1, 0.9])})
        spec = CompoundWiretapSpec("cq", ("t1",), (legit,), (qubit_wiretap(),))
        cb = sample_codebook([0.5, 0.5], 6, J=2, L=2, seed=1, delta=0.25)
        dec = build_decoder(spec, cb)
        rep = eval_error(spec, cb, dec, trials=1, seed=0)
        assert 0.0 <= rep.per_t["t1"]["max_error"] <= 1.0


class TestLeakageEmbedding:
    @settings(max_examples=40, deadline=None)
    @given(
        crossovers=st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)),
        n=st.integers(1, 5),
        J=st.integers(1, 4),
        L=st.integers(1, 3),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_classical_leakage_equals_its_cq_embedding(self, crossovers, n, J, L, seed):
        from qwk.channels import classical_to_cq

        a, b = crossovers
        wire = ClassicalChannel((0, 1), (0, 1), [[1 - a, a], [b, 1 - b]])
        words = np.random.default_rng(seed).integers(0, 2, size=(J, L, n))
        cb = Codebook(words, J, L, n, {"seed": 0})
        classical = CompoundWiretapSpec("classical", ("t1",), (bsc(0.1),), (wire,))
        embedded = CompoundWiretapSpec("classical-quantum-wiretap", ("t1",), (bsc(0.1),),
                                       (classical_to_cq(wire),))
        leak = eval_leakage(classical, cb).per_t["t1"]["leakage"]
        assert eval_leakage(embedded, cb).per_t["t1"]["leakage"] == pytest.approx(leak, abs=1e-9)
        assert 0.0 <= leak <= np.log2(J) + 1e-12


# ---------------------------------------------------------------------------
# cq leakage from the differing positions against dense message states

from qwk.infotheory import von_neumann_entropy
from qwk.wiretapsim import _mixture_entropy


def _dense_mixture_entropy(ch, words):
    """S of the mean of the dense word states: the reference for the kernel."""
    return von_neumann_entropy(sum(cq_word_state(ch, w) for w in words) / len(words))


def _dense_leakage(ch, codebook):
    msgs = [sum(cq_word_state(ch, w) for w in words) / codebook.L
            for words in codebook.words]
    avg = sum(msgs) / codebook.J
    return max(0.0, von_neumann_entropy(avg) - float(np.mean([von_neumann_entropy(r) for r in msgs])))


def _wiretap_spec(ch):
    """ch as the wiretapper, behind a uniform classical legitimate channel."""
    a = len(ch.input_alphabet)
    legit = ClassicalChannel(ch.input_alphabet, (0, 1), [[0.5, 0.5]] * a)
    return CompoundWiretapSpec("classical-quantum-wiretap", ("t1",), (legit,), (ch,))


@st.composite
def _mixture_cases(draw):
    """A cq wiretapper with mixed or pure letters and a (J, L, n) codebook
    drawn at random, with all words equal, or with no position shared."""
    a, d, n = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    J, L = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = 1 if draw(st.booleans()) else None
    letters = ginibre_states(np.stack([ginibre_factor(d, rng, rank) for _ in range(a)]))
    ch = CQChannel(tuple(range(a)), d, dict(enumerate(letters)))
    words = rng.integers(0, a, size=(J, L, n))
    layout = draw(st.sampled_from(["random", "equal", "no_shared"]))
    if layout == "equal":
        words[:] = words[0, 0]
    elif layout == "no_shared" and J * L > 1:
        flat = words.reshape(J * L, n)
        flat[1] = (flat[0] + 1) % a
    return ch, Codebook(words, J, L, n, {"seed": 0})


class TestMixtureEntropy:
    @settings(max_examples=100, deadline=None)
    @given(_mixture_cases())
    @example((qubit_wiretap(), Codebook(np.zeros((1, 1, 6), dtype=int), 1, 1, 6, {"seed": 0})))
    def test_kernel_and_leakage_match_dense_states(self, case):
        ch, cb = case
        flat = cb.words.reshape(-1, cb.n)
        assert _mixture_entropy(ch, flat) == pytest.approx(
            _dense_mixture_entropy(ch, flat), abs=1e-12)
        for words in cb.words:
            assert _mixture_entropy(ch, words) == pytest.approx(
                _dense_mixture_entropy(ch, words), abs=1e-12)
        spec = _wiretap_spec(ch)
        leak = eval_leakage(spec, cb).per_t["t1"]["leakage"]
        assert leak == pytest.approx(_dense_leakage(ch, cb), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_mixture_cases(), st.integers(0, 2 ** 32 - 1))
    def test_position_permutation_leaves_leakage(self, case, perm_seed):
        ch, cb = case
        perm = np.random.default_rng(perm_seed).permutation(cb.n)
        moved = Codebook(cb.words[..., perm], cb.J, cb.L, cb.n, cb.source)
        spec = _wiretap_spec(ch)
        assert eval_leakage(spec, moved).per_t["t1"]["leakage"] == pytest.approx(
            eval_leakage(spec, cb).per_t["t1"]["leakage"], abs=1e-12)

    def test_leakage_peak_memory(self):
        # one dense 1024 x 1024 complex state alone is 16 MB
        spec = load_spec(os.path.join(SPECS, "qubit_wiretap.json"))
        cb = sample_codebook([0.5, 0.5], 10, J=4, L=1, seed=1, delta=0.25)
        tracemalloc.start()
        try:
            eval_leakage(spec, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# classical word output probabilities against the per-letter loop


def _per_letter_output_probs(w, x, y_words):
    """W^n(y|x) over enumerated output words, one letter at a time: the
    reference for the products that ``accumulate_products`` forms."""
    probs = np.ones(len(y_words))
    for i, xi in enumerate(x):
        probs *= w[xi, y_words[:, i]]
    return probs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_word_output_probs_are_the_per_letter_products(a, b, n, seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(b), size=a)
    x = rng.integers(a, size=n)
    y_words = enumerate_words(b, n, 0, b ** n)
    assert np.array_equal(accumulate_products(w[x]), _per_letter_output_probs(w, x, y_words))


# ---------------------------------------------------------------------------
# samplers that draw their keyed streams in one numpy pass, against the
# former one-generator-per-key loops

import qwk.wiretapsim as ws  # noqa: E402
from qwk.qcore import trace_norm  # noqa: E402


def _reference_codebook(p, n, J, L, seed, delta):
    """Reference: the former sampler, one ``rng.choice`` per (j, l)."""
    from qwk.typicality import truncated_typical

    words, probs = truncated_typical(p, n, delta)
    out = np.zeros((J, L, n), dtype=int)
    for j in range(J):
        for l in range(L):
            rng = counter_rng(seed, 0, j, l)
            out[j, l] = words[rng.choice(len(words), p=probs)]
    return out


@pytest.mark.parametrize("p, n, J, L, seed, delta", [
    ([0.5, 0.5], 8, 4, 2, 3, 0.1),
    ([0.3, 0.7], 12, 8, 4, 2 ** 40 + 1, 0.2),
    ([0.2, 0.5, 0.3], 6, 5, 3, 17, 0.15),
    ([1.0, 0.0], 4, 3, 2, 0, 0.1),
    ([0.5, 0.5], 5, 1, 1, 9, 0.25),
])
def test_sample_codebook_equals_the_per_key_loop(p, n, J, L, seed, delta):
    cb = sample_codebook(p, n, J, L, seed, delta=delta)
    assert np.array_equal(cb.words, _reference_codebook(p, n, J, L, seed, delta))


def _reference_covering_stats(v, p, n, l_schedule, trials, seed, params, epsilon=0.1):
    """Reference: the former covering loop, one ``rng.choice`` per trial."""
    from qwk.typicality import truncated_typical

    prior = np.asarray(p, dtype=float)
    words, probs = truncated_typical(prior, n, params.delta)
    q_ops = sandwiched_outputs(v, words, prior, params)
    mean_op = np.einsum("w,wjk->jk", probs, q_ops)
    per_l = {}
    for l_depth in l_schedule:
        avgs = np.empty((trials,) + mean_op.shape, dtype=q_ops.dtype)
        for k in range(trials):
            rng = counter_rng(seed, 2, l_depth, k)
            avgs[k] = q_ops[rng.choice(len(words), size=l_depth, p=probs)].mean(axis=0)
        devs = trace_norm(avgs - mean_op)
        per_l[int(l_depth)] = {"median": _median(devs), "mean": float(devs.mean()),
                               "exceed_frac": float((devs > epsilon).mean())}
    return per_l


@pytest.mark.parametrize("seed, l_schedule", [(11, [1, 3, 5, 9]), (2 ** 33, [2, 4, 16])])
def test_covering_equals_the_per_key_loop(seed, l_schedule):
    params = TypicalParams(n=4, delta=0.3)
    rep = covering_concentration(qubit_wiretap(), [0.4, 0.6], 4, l_schedule, trials=40,
                                 seed=seed, params=params)
    ref = _reference_covering_stats(qubit_wiretap(), [0.4, 0.6], 4, l_schedule, 40, seed, params)
    assert rep.stats["per_L"] == ref


def _reference_two_part(spec, t_true, n1, n2, J, L, trials, seed, delta):
    """Reference: the former two-part Monte Carlo, one ``counter_rng`` per
    state for block 1 and one per trial, one ``rng.choice`` per output
    letter and one per-word decision."""
    t_idx = spec.names.index(t_true)
    legit = spec.legitimate[t_idx]
    a, b = legit.matrix.shape
    block1_words = np.stack([counter_rng(seed, 3, 0, ti).integers(a, size=n1)
                             for ti in range(len(spec))])
    cb = sample_codebook(np.full(a, 1.0 / a), n2, J, L, seed + 1000 + t_idx, delta=delta)
    b1_fail = b2_fail = 0
    for k in range(trials):
        rng = counter_rng(seed, 3, 1, k)
        j = int(rng.integers(J))
        l = int(rng.integers(L))
        if len(spec) > 1:
            y1 = np.array([rng.choice(b, p=legit.matrix[xi]) for xi in block1_words[t_idx]],
                          dtype=int)
            t_hat, best_ll = 0, -np.inf
            for ti, (ch, word) in enumerate(zip(spec.legitimate, block1_words)):
                ll = np.sum(np.log(np.clip(ch.matrix[word, y1], 1e-300, None)))
                if ll > best_ll + 1e-12:
                    t_hat, best_ll = ti, ll
            if t_hat != t_idx:
                b1_fail += 1
                continue
        y2 = [rng.choice(b, p=legit.matrix[xi]) for xi in cb.words[j, l]]
        if _reference_decide(legit, cb, delta, y2) != j:
            b2_fail += 1
    successes = trials - b1_fail
    return {
        "block1_fail_rate": b1_fail / trials,
        "block2_fail_given_success": b2_fail / successes if successes else 0.0,
        "total_error_rate": (b1_fail + b2_fail) / trials,
    }


def _two_part_specs():
    w3 = ClassicalChannel((0, 1, 2), (0, 1), [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    w3r = ClassicalChannel((0, 1, 2), (0, 1), [[0.1, 0.9], [0.8, 0.2], [0.5, 0.5]])
    w3e = ClassicalChannel((0, 1, 2), (0, 1), [[0.6, 0.4], [0.4, 0.6], [0.5, 0.5]])
    return {
        "one": classical_pair_spec(pw=0.05),
        "two": load_spec(os.path.join(SPECS, "bsc_two_state.json")),
        "three": CompoundWiretapSpec("classical", ("a", "b", "c"), (w3, w3r, w3e),
                                     (w3e, w3e, w3e)),
    }


@pytest.mark.parametrize("spec_name, t_true, n1, n2, J, L, trials, seed, delta", [
    ("one", "t1", 4, 8, 2, 1, 150, 3, 0.2),
    ("one", "t1", 0, 6, 3, 2, 100, 2 ** 33 + 1, 0.25),
    ("two", "t1", 4, 8, 4, 2, 150, 1, 0.15),
    ("two", "t2", 3, 6, 3, 3, 150, 7, 0.2),
    ("two", "t2", 0, 6, 2, 1, 60, 1, 0.15),
    ("three", "b", 5, 6, 3, 2, 150, 4, 0.25),
    ("three", "c", 2, 5, 2, 2, 150, 0, 0.3),
])
def test_two_part_mc_equals_the_per_trial_loop(spec_name, t_true, n1, n2, J, L, trials, seed,
                                               delta, monkeypatch):
    spec = _two_part_specs()[spec_name]
    ref = _reference_two_part(spec, t_true, n1, n2, J, L, trials, seed, delta)
    rep = two_part_protocol(spec, t_true, n1, n2, J, L, trials, seed, delta=delta)
    assert {key: rep.stats[key] for key in ref} == ref
    monkeypatch.setattr(ws, "_MC_BLOCK_TRIALS", 7)
    assert two_part_protocol(spec, t_true, n1, n2, J, L, trials, seed, delta=delta).stats == rep.stats


class TestMonteCarloBlocks:
    def _setup(self):
        legit = ClassicalChannel((0, 1), (0, 1, 2), [[0.86, 0.1, 0.04], [0.0, 0.1, 0.9]])
        spec = CompoundWiretapSpec("classical", ("t1",), (legit,), (bsc(0.3),))
        cb = sample_codebook([0.5, 0.5], 8, J=4, L=2, seed=13, delta=0.25)
        return spec, cb, build_decoder(spec, cb, delta=0.25)

    def test_blocks_do_not_change_the_estimate(self, monkeypatch):
        spec, cb, dec = self._setup()
        whole = eval_error(spec, cb, dec, trials=300, seed=5)
        monkeypatch.setattr(ws, "_MC_BLOCK_TRIALS", 7)
        assert eval_error(spec, cb, dec, trials=300, seed=5) == whole

    def test_peak_memory_does_not_grow_with_trials(self):
        spec, cb, dec = self._setup()
        peaks = {}
        for trials in (2_000, 20_000):
            tracemalloc.start()
            try:
                eval_error(spec, cb, dec, trials=trials, seed=5)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # unblocked, the 20,000 trials peaked 7.6 MB above the 2,000; blocks
        # of 2,048 against one of 2,000 leave about 0.1 MB
        assert peaks[20_000] <= peaks[2_000] + 512 * 1024


# ---------------------------------------------------------------------------
# the factor-form pretty-good decoder against the dense one


@st.composite
def _cq_codes(draw):
    """A binary-input cq channel with random mixed (possibly rank-deficient)
    qubit or qutrit letters, a codebook of J·L words drawn from a pool that
    may repeat them, and a width alpha under which Pa keeps every
    eigen-word (4) or drops some (0.1, 0.5).  delta 0.5 makes every word
    typical for the uniform prior."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6 if d == 2 else 5))
    J, L = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ranks = [draw(st.integers(1, d)) for _ in range(2)]
    legit = CQChannel((0, 1), d, {x: ginibre_states(ginibre_factor(d, rng, rank))
                                  for x, rank in enumerate(ranks)})
    pool = rng.integers(0, 2, size=(draw(st.integers(1, J * L)), n))
    words = pool[rng.integers(0, len(pool), size=(J, L))]
    params = TypicalParams(n=n, delta=0.5, alpha=draw(st.sampled_from([0.1, 0.5, 4.0])))
    return legit, Codebook(words, J, L, n, {"p": [0.5, 0.5], "delta": 0.5}), params


class TestFactorDecoderAgainstDense:
    @settings(max_examples=60, deadline=None)
    @given(_cq_codes())
    def test_elements_and_per_j(self, case):
        # per_j to 1e-12 always.  The elements carry the rounding of S^-1/2,
        # which grows as 1 / lam, lam the normaliser's smallest kept
        # eigenvalue: they agree to 1e-12 from lam = 1e-3 and within
        # 1e-14 / lam below it (400 random families gave at most 4.5e-14
        # and 7.5e-16 / lam, e.g. 9.4e-11 at lam = 1.8e-7)
        from qwk.wiretapsim import _exact_quantum_error

        legit, cb, params = case
        dec = PrettyGoodDecoder.build(legit, cb, params)
        ref = _stacked_mean_povm(legit, cb, params)
        got = _exact_quantum_error(legit, cb, dec)["per_j"]
        states = [[cq_word_state(legit, w) for w in words] for words in cb.words]
        expect = [1.0 - sum(np.vdot(e, rho).real for rho in rhos) / cb.L
                  for e, rhos in zip(ref, states)]
        assert np.allclose(got, expect, rtol=0, atol=1e-12)
        outs = sandwiched_outputs(legit, cb.words.reshape(-1, cb.n), [0.5, 0.5], params)
        lam = np.linalg.eigvalsh(outs.sum(axis=0) / cb.L)
        lam = lam[lam > 1e-12].min(initial=1.0)  # 1 where a window keeps nothing
        assert np.abs(_elements(dec, cb.L) - ref).max() <= (1e-12 if lam >= 1e-3 else 1e-14 / lam)
