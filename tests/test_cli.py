import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qwk.cli import (
    EXIT_CAP,
    EXIT_FLAG,
    EXIT_SCHEMA,
    EXIT_SEMANTIC,
    canonical_payload_bytes,
    load_spec,
    main,
    parse_channel,
)
from qwk.verify import run_suite
from qwk.channels import KrausChannel, depolarizing_kraus

SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")
DATA = os.path.join(os.path.dirname(__file__), "data")


def spec_path(name):
    return os.path.join(SPECS, name)


def run_cli(args):
    return main(args)


class TestChannelSchema:
    def test_parse_stochastic(self):
        ch = parse_channel(
            {"kind": "stochastic", "input_alphabet": [0, 1], "output_alphabet": [0, 1],
             "matrix": [[0.9, 0.1], [0.1, 0.9]]}
        )
        assert np.allclose(ch.matrix, [[0.9, 0.1], [0.1, 0.9]])

    def test_parse_kraus_complex_pairs(self):
        ch = parse_channel(
            {"kind": "kraus", "dim_in": 2, "dim_out": 2,
             "operators": [[[[0, 0], [0, -1]], [[0, 1], [0, 0]]]]}
        )
        op = ch.kraus_ops[0]
        assert op[0, 1] == pytest.approx(-1j)
        assert op[1, 0] == pytest.approx(1j)

    def test_missing_kind_rejected(self):
        from qwk.cli import SchemaError

        with pytest.raises(SchemaError):
            parse_channel({"matrix": [[1.0]]})

    def test_load_spec_files(self):
        for name in ("bsc_pair.json", "qubit_wiretap.json", "cq_pair.json"):
            spec = load_spec(spec_path(name))
            assert len(spec) >= 1


class TestCapacityCommand:
    def test_b1_on_bsc_pair(self, tmp_path):
        out = tmp_path / "cap.json"
        rc = run_cli(["capacity", "--formula", "b1", "--spec", spec_path("bsc_pair.json"),
                      "--grid", "64", "--refine", "50", "--seed", "0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["value"] == pytest.approx(0.412295, abs=1e-3)

    def test_e1q_singleton_identity(self, tmp_path):
        out = tmp_path / "cap.json"
        rc = run_cli(["capacity", "--formula", "e1q", "--spec", spec_path("cq_pair.json"),
                      "--grid", "16", "--refine", "10", "--restarts", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["value"] == pytest.approx(1.0, abs=1e-6)

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run_cli(["capacity", "--formula", "b1", "--spec", str(bad)])
        assert rc == EXIT_SCHEMA

    def test_variant_mismatch_exits_3(self):
        rc = run_cli(["capacity", "--formula", "b1", "--spec", spec_path("cq_pair.json")])
        assert rc == EXIT_SEMANTIC

    def test_unknown_formula_exits_4(self):
        rc = run_cli(["capacity", "--formula", "bogus", "--spec", spec_path("bsc_pair.json")])
        assert rc == EXIT_FLAG

    def test_classical_spec_of_cq_channels_exits_2(self, tmp_path, capsys):
        spec = json.load(open(spec_path("cq_pair.json")))
        spec["variant"] = "classical"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = run_cli(["capacity", "--formula", "b1", "--spec", str(path)])
        assert rc == EXIT_SCHEMA
        assert "does not take a CQChannel" in capsys.readouterr().err

    def test_cq_spec_of_kraus_channels_exits_2(self, tmp_path, capsys):
        spec = json.load(open(spec_path("two_channel_family.json")))
        spec["variant"] = "cq"
        spec["theta"] = [dict(entry, V=entry["W"]) for entry in spec["theta"]]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = run_cli(["capacity", "--formula", "e1q", "--spec", str(path)])
        assert rc == EXIT_SCHEMA
        assert "does not take a KrausChannel" in capsys.readouterr().err

    def test_repeated_state_name_exits_2(self, tmp_path, capsys):
        # per_t is keyed by name: two states named t1 would report one row
        spec = json.load(open(spec_path("bsc_two_state.json")))
        spec["theta"][1]["t"] = spec["theta"][0]["t"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = run_cli(["capacity", "--formula", "b1", "--spec", str(path)])
        assert rc == EXIT_SCHEMA
        assert "state names must be distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["capacity", "entangle"])
    def test_quantum_wiretap_channel_exits_2(self, command, tmp_path, capsys):
        # no quantum formula and no entangle stage reads a V: the
        # environment is the dilation's
        spec = json.load(open(spec_path("two_channel_family.json")))
        spec["theta"][0]["V"] = spec["theta"][0]["W"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = (["capacity", "--formula", "entheorem", "--spec", str(path)]
                if command == "capacity" else ["entangle", "--family", str(path), "--seed", "1"])
        assert run_cli(argv) == EXIT_SCHEMA
        assert "the environment is the dilation's" in capsys.readouterr().err

    @pytest.mark.parametrize("theta, message", [
        (5, "theta must be a list"),
        ({"t": "t1"}, "theta must be a list"),
        ([5], "theta entries need fields"),
        (["tW"], "theta entries need fields"),
    ])
    @pytest.mark.parametrize("command", ["capacity", "entangle"])
    def test_malformed_theta_exits_2(self, command, theta, message, tmp_path, capsys):
        variant = "classical" if command == "capacity" else "quantum"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"variant": variant, "theta": theta}))
        argv = (["capacity", "--formula", "b1", "--spec", str(path)]
                if command == "capacity" else ["entangle", "--family", str(path), "--seed", "1"])
        assert run_cli(argv) == EXIT_SCHEMA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("formula", ["entheorem", "propo1"])
    def test_quantum_formulas_key_per_t_by_state_name(self, formula, tmp_path):
        spec = json.load(open(spec_path("two_channel_family.json")))
        spec["theta"][0]["t"], spec["theta"][1]["t"] = "b", "a"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "cap.json"
        rc = run_cli(["capacity", "--formula", formula, "--spec", str(path), "--grid", "4",
                      "--refine", "5", "--restarts", "0", "--out", str(out)])
        assert rc == 0
        assert set(json.loads(out.read_text())["payload"]["per_t"]) == {"a", "b"}


class TestSimulateCommand:
    def test_trials_zero_exits_4(self):
        rc = run_cli(["simulate", "--spec", spec_path("bsc_pair.json"), "--n", "4",
                      "--trials", "0", "--seed", "1"])
        assert rc == EXIT_FLAG

    def test_missing_seed_exits_4(self):
        rc = run_cli(["simulate", "--spec", spec_path("bsc_pair.json"), "--n", "4"])
        assert rc == EXIT_FLAG

    def test_quantum_spec_exits_3(self, capsys):
        rc = run_cli(["simulate", "--spec", spec_path("two_channel_family.json"), "--n", "2",
                      "--seed", "1"])
        assert rc == EXIT_SEMANTIC
        assert "variant 'quantum'" in capsys.readouterr().err

    def test_auto_l(self, tmp_path):
        out = tmp_path / "sim.json"
        rc = run_cli(["simulate", "--spec", spec_path("bsc_pair.json"), "--n", "6",
                      "--J", "2", "--L", "auto", "--trials", "50", "--seed", "2",
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["sizes"]["auto"]

    def test_cap_exceeded_exits_5(self):
        rc = run_cli(["simulate", "--spec", spec_path("qubit_wiretap.json"), "--n", "20",
                      "--J", "2", "--trials", "2", "--seed", "1"])
        assert rc == EXIT_CAP

    def test_golden_instances_rerun_bit_identically(self, tmp_path):
        for name in ("golden_sim1", "golden_sim2", "golden_sim3", "golden_entangle1",
                     "golden_capacity1", "golden_capacity2", "golden_capacity3",
                     "golden_capacity4", "golden_capacity5", "golden_capacity6",
                     "golden_capacity7", "golden_capacity8", "golden_capacity9",
                     "golden_capacity10", "golden_verify1", "golden_net1",
                     "golden_net2"):
            golden = json.load(open(os.path.join(DATA, f"{name}.json")))
            argv = list(golden["manifest"]["argv"])
            # rerun from the recorded manifest into a fresh output location
            out = tmp_path / f"{name}.json"
            idx = argv.index("--out")
            argv[idx + 1] = str(out)
            rc = run_cli(argv)
            assert rc == 0
            fresh = json.loads(out.read_text())
            assert canonical_payload_bytes(fresh["payload"]) == canonical_payload_bytes(
                golden["payload"]
            )


class TestNetCommand:
    def test_bound_printed_exactly(self, tmp_path):
        out = tmp_path / "net.json"
        rc = run_cli(["net", "--tau", "1.0", "--budget", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["cardinality_bound"] == 3 ** 32

    def test_budget_zero_exits_4(self):
        rc = run_cli(["net", "--tau", "1.0", "--budget", "0"])
        assert rc == EXIT_FLAG

    def test_d_in_zero_exits_4(self):
        assert run_cli(["net", "--tau", "0.5", "--budget", "3", "--d-in", "0"]) == EXIT_FLAG

    def test_d_out_zero_exits_4(self):
        assert run_cli(["net", "--tau", "0.5", "--budget", "3", "--d-out", "0"]) == EXIT_FLAG

    def test_negative_d_in_exits_4(self):
        assert run_cli(["net", "--tau", "0.5", "--budget", "3", "--d-in", "-1"]) == EXIT_FLAG

    def test_lattice_record_in_manifest_only(self, tmp_path):
        out = tmp_path / "net.json"
        rc = run_cli(["net", "--tau", "0.5", "--budget", "22", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["manifest"]["net"] == {
            "offsets_projected": 26, "duplicates_dropped": 4, "last_shell": 1}
        assert "offsets_projected" not in json.dumps(doc["payload"])

    @pytest.mark.parametrize("d_in, d_out, budget", [(2, 1, 10), (1, 1, 3)])
    def test_short_net_is_reported(self, d_in, d_out, budget, tmp_path, capsys):
        out = tmp_path / "net.json"
        rc = run_cli(["net", "--d-in", str(d_in), "--d-out", str(d_out), "--tau", "0.5",
                      "--budget", str(budget), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["n_elements"] == 2
        assert doc["manifest"]["net"]["short"] == {"budget": budget, "reason": "offsets_exhausted"}
        assert capsys.readouterr().err == f"net: 2 of {budget} elements (offsets_exhausted)\n"

    def test_singleton_for_large_tau(self, tmp_path):
        out = tmp_path / "net.json"
        rc = run_cli(["net", "--tau", "2.0", "--budget", "5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["n_elements"] == 1


class TestEntangleCommand:
    def test_identity_family_fidelity_one(self, tmp_path):
        out = tmp_path / "ent.json"
        rc = run_cli(["entangle", "--family", spec_path("identity_family.json"),
                      "--n", "1", "--J", "2", "--seed", "5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["min_fidelity"] >= 1 - 1e-9

    def test_two_channel_bound_satisfied(self, tmp_path):
        out = tmp_path / "ent.json"
        rc = run_cli(["entangle", "--family", spec_path("two_channel_family.json"),
                      "--n", "2", "--J", "2", "--L", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["bound_satisfied"]

    def test_bad_family_exits_2(self, tmp_path):
        bad = tmp_path / "fam.json"
        bad.write_text(json.dumps({"theta": [{"W": {"kind": "stochastic"}}]}))
        rc = run_cli(["entangle", "--family", str(bad), "--seed", "1"])
        assert rc == EXIT_SCHEMA

    def test_missing_seed_exits_4(self):
        rc = run_cli(["entangle", "--family", spec_path("identity_family.json")])
        assert rc == EXIT_FLAG

    @pytest.mark.parametrize("edit", ["classical", "no variant"])
    def test_family_must_be_a_quantum_spec(self, edit, tmp_path, capsys):
        if edit == "classical":
            spec = json.load(open(spec_path("bsc_pair.json")))
            message = "needs variant 'quantum'"
        else:
            spec = json.load(open(spec_path("identity_family.json")))
            del spec["variant"]
            message = "missing field 'variant'"
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(spec))
        assert run_cli(["entangle", "--family", str(path), "--seed", "1"]) == EXIT_SCHEMA
        assert message in capsys.readouterr().err

    def test_truncated_environment_mass_in_manifest_only(self, tmp_path):
        from qwk.channels import depolarizing_kraus

        # unitary channels have a one-dimensional environment: nothing to cut
        out = tmp_path / "ent.json"
        rc = run_cli(["entangle", "--family", spec_path("two_channel_family.json"),
                      "--n", "2", "--J", "2", "--L", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["manifest"]["entangle"] == {"env_avg_truncated_mass": [0.0, 0.0],
                                               "bound_vacuous": True}
        # a depolarizing qubit's four-dimensional environment state has more
        # eigenvalues than the two slots of [Q, L] at n=1, L=1
        ops = [[[[z.real, z.imag] for z in row] for row in a]
               for a in depolarizing_kraus(0.3).kraus_ops]
        fam = tmp_path / "depol.json"
        fam.write_text(json.dumps({"variant": "quantum", "theta": [{"t": "t1", "W": {
            "kind": "kraus", "dim_in": 2, "dim_out": 2, "operators": ops}}]}))
        rc = run_cli(["entangle", "--family", str(fam), "--n", "1", "--J", "2", "--seed", "3",
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        [mass] = doc["manifest"]["entangle"]["env_avg_truncated_mass"]
        assert 0.0 < mass < 1.0
        assert "truncated" not in json.dumps(doc["payload"])

    @pytest.mark.parametrize("golden, argv, vacuous", [
        ("golden_entangle1", None, True),
        (None, ["entangle", "--family", spec_path("identity_family.json"), "--n", "1",
                "--seed", "1"], False),
    ])
    def test_bound_vacuous_in_manifest_only(self, tmp_path, golden, argv, vacuous):
        if golden is not None:
            doc = json.load(open(os.path.join(DATA, f"{golden}.json")))
            argv = list(doc["manifest"]["argv"])
            argv = argv[:argv.index("--out")]
        out = tmp_path / "ent.json"
        assert run_cli(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["manifest"]["entangle"]["bound_vacuous"] is vacuous
        assert (doc["payload"]["bound_rhs"] <= 0) is vacuous
        assert "vacuous" not in json.dumps(doc["payload"])


def _complex_pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return KrausChannel(2, 2, [[[c, -s], [s, c]]])


class TestStinespringKind:
    """A ``stinespring`` channel object is read into the same channel as the
    Kraus list its environment slots hold."""

    FAMILIES = {
        "rotation": lambda: [_rotation(0.3), _rotation(1.1)],
        "depolarizing": lambda: [depolarizing_kraus(0.1), depolarizing_kraus(0.3)],
    }
    RUNS = {
        "entheorem": (["capacity", "--formula", "entheorem", "--grid", "8", "--restarts", "2",
                       "--seed", "2"], "solver"),
        "propo1": (["capacity", "--formula", "propo1", "--n", "2", "--grid", "8",
                    "--restarts", "1", "--refine", "10", "--seed", "2"], "solver"),
        "entangle": (["entangle", "--n", "2", "--J", "2", "--L", "2", "--seed", "3"], "entangle"),
    }

    @staticmethod
    def _write(path, members):
        path.write_text(json.dumps({"variant": "quantum", "theta": [
            {"t": f"t{i + 1}", "W": w} for i, w in enumerate(members)]}))
        return str(path)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_both_forms_give_identical_reports(self, family, run, tmp_path):
        channels = self.FAMILIES[family]()
        kraus = self._write(tmp_path / "kraus.json", [
            {"kind": "kraus", "dim_in": 2, "dim_out": 2,
             "operators": [_complex_pairs(a) for a in ch.kraus_ops]} for ch in channels])
        stine = self._write(tmp_path / "stinespring.json", [
            {"kind": "stinespring", "dim_in": 2, "dim_out": 2, "dim_env": len(ch.kraus_ops),
             "isometry": _complex_pairs(np.stack(ch.kraus_ops, axis=1).reshape(-1, 2))}
            for ch in channels])
        argv, section = self.RUNS[run]
        source = "--family" if argv[0] == "entangle" else "--spec"
        docs = []
        for form, path in (("kraus", kraus), ("stinespring", stine)):
            out = tmp_path / f"{form}-out.json"
            assert run_cli(argv + [source, path, "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        assert canonical_payload_bytes(docs[0]["payload"]) == canonical_payload_bytes(
            docs[1]["payload"])
        assert docs[0]["manifest"][section] == docs[1]["manifest"][section]

    @pytest.mark.parametrize("dim_env, isometry, message", [
        (2, np.eye(2), "shape"),  # a (2, 2) matrix where 2 * 2 rows are needed
        (2, np.vstack([np.eye(2), np.eye(2)]), "not an isometry"),  # columns of norm sqrt 2
        # an isometry, but 9 slots > d_in^2 d_out = 8
        (9, np.vstack([np.eye(2), np.zeros((16, 2))]), "unnecessarily large"),
    ])
    @pytest.mark.parametrize("command", ["capacity", "entangle"])
    def test_invalid_isometry_exits_2(self, command, dim_env, isometry, message, tmp_path,
                                      capsys):
        path = self._write(tmp_path / "bad.json", [
            {"kind": "stinespring", "dim_in": 2, "dim_out": 2, "dim_env": dim_env,
             "isometry": _complex_pairs(isometry)}])
        argv = (["capacity", "--formula", "entheorem", "--spec", path] if command == "capacity"
                else ["entangle", "--family", path, "--seed", "1"])
        assert run_cli(argv) == EXIT_SCHEMA
        assert message in capsys.readouterr().err


class TestDimensionRefusal:
    """A dimension below 1 in a channel object is a schema error."""

    QUBIT = _complex_pairs(np.eye(2) / 2)
    CHANNELS = {
        "cq dim 0": ("cq", {"kind": "cq", "input_alphabet": [0, 1], "dim": 0,
                            "states": {"0": QUBIT, "1": QUBIT}}),
        "kraus dim_in 0": ("quantum", {"kind": "kraus", "dim_in": 0, "dim_out": 2,
                                       "operators": [_complex_pairs(np.eye(2))]}),
        "kraus dim_in -1": ("quantum", {"kind": "kraus", "dim_in": -1, "dim_out": 2,
                                        "operators": [_complex_pairs(np.eye(2))]}),
        "stinespring dim_in 0": ("quantum", {"kind": "stinespring", "dim_in": 0, "dim_out": 2,
                                             "dim_env": 2,
                                             "isometry": _complex_pairs(np.eye(4)[:, :2])}),
    }

    @pytest.mark.parametrize("case", sorted(CHANNELS))
    @pytest.mark.parametrize("command", ["capacity", "entangle"])
    def test_non_positive_dimension_exits_2(self, command, case, tmp_path, capsys):
        variant, channel = self.CHANNELS[case]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"variant": variant,
                                    "theta": [{"t": "t1", "W": channel, "V": channel}]}))
        formula = "e1q" if variant == "cq" else "entheorem"
        argv = (["capacity", "--formula", formula, "--spec", str(path)] if command == "capacity"
                else ["entangle", "--family", str(path), "--seed", "1"])
        assert run_cli(argv) == EXIT_SCHEMA
        assert "must be >= 1" in capsys.readouterr().err


SIZE_FLAG_ARGS = {
    "simulate": ["simulate", "--spec", spec_path("bsc_pair.json"), "--seed", "1"],
    "entangle": ["entangle", "--family", spec_path("two_channel_family.json"), "--seed", "1"],
}


@pytest.mark.parametrize("command", sorted(SIZE_FLAG_ARGS))
@pytest.mark.parametrize("flag", ["--n", "--J", "--L"])
def test_size_flag_below_one_exits_4_without_a_report(command, flag, tmp_path, monkeypatch):
    import qwk.cli

    def no_work(path):
        raise AssertionError("the input file was read before the flags were checked")

    monkeypatch.setattr(qwk.cli, "load_spec", no_work)
    monkeypatch.setattr(qwk.cli, "load_family", no_work)
    sizes = {"--n": "2", "--J": "2", "--L": "1", flag: "0"}
    out = tmp_path / "report.json"
    argv = SIZE_FLAG_ARGS[command] + [x for kv in sizes.items() for x in kv] + ["--out", str(out)]
    assert run_cli(argv) == EXIT_FLAG
    assert not out.exists()


NON_FINITE_FLAGS = {
    "entangle --alpha nan": ["entangle", "--family", spec_path("identity_family.json"),
                             "--seed", "1", "--alpha", "nan"],
    "entangle --delta nan": ["entangle", "--family", spec_path("identity_family.json"),
                             "--seed", "1", "--delta", "nan"],
    "simulate --decode-delta nan": SIZE_FLAG_ARGS["simulate"] + ["--n", "4", "--decode-delta", "nan"],
    "simulate --delta nan": SIZE_FLAG_ARGS["simulate"] + ["--n", "4", "--delta", "nan"],
    "simulate --rate-margin nan": SIZE_FLAG_ARGS["simulate"] + ["--n", "4", "--L", "auto",
                                                                "--rate-margin", "nan"],
    "simulate --leak-margin inf": SIZE_FLAG_ARGS["simulate"] + ["--n", "4", "--L", "auto",
                                                                "--leak-margin", "inf"],
    "net --tau nan": ["net", "--tau", "nan", "--budget", "5"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_FLAGS))
def test_nan_or_infinite_float_flag_exits_4_without_a_report(case, tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(NON_FINITE_FLAGS[case] + ["--out", str(out)]) == EXIT_FLAG
    assert not out.exists()


def _edited(name, **fields):
    spec = json.load(open(spec_path(name)))
    spec["theta"][0]["W"].update(fields)
    return spec


def test_simulate_refuses_cq_states_of_different_output_dimensions(tmp_path, capsys):
    # one decoder measures every state's outputs; the rates need no common space
    spec = json.load(open(spec_path("cq_pair.json")))
    qutrit = {"0": np.diag([0.8, 0.2, 0.0]), "1": np.diag([0.0, 0.3, 0.7])}
    spec["theta"].append({"t": "t2", "V": spec["theta"][0]["V"], "W": {
        "kind": "cq", "dim": 3, "input_alphabet": [0, 1],
        "states": {x: [[[float(v), 0.0] for v in row] for row in m] for x, m in qutrit.items()}}})
    path, out = tmp_path / "spec.json", tmp_path / "sim.json"
    path.write_text(json.dumps(spec))
    argv = ["simulate", "--spec", str(path), "--n", "4", "--J", "2", "--L", "1", "--seed", "1"]
    assert run_cli(argv + ["--out", str(out)]) == EXIT_SEMANTIC
    assert not out.exists()
    assert "one output dimension, not [2, 3]" in capsys.readouterr().err
    assert run_cli(["capacity", "--formula", "e1q", "--spec", str(path), "--grid", "4",
                    "--restarts", "0", "--out", str(tmp_path / "cap.json")]) == 0


MALFORMED_CHANNELS = {
    "non-numeric matrix entry": ("b1", _edited("bsc_pair.json", matrix=[[0.9, "x"], [0.1, 0.9]])),
    "stochastic alphabet 5": ("b1", _edited("bsc_pair.json", input_alphabet=5)),
    "cq alphabet 5": ("e1q", _edited("cq_pair.json", input_alphabet=5)),
    "dim_in two": ("entangle", _edited("identity_family.json", dim_in="two")),
    "operators 5": ("entangle", _edited("identity_family.json", operators=5)),
    # a Latin-1 state name
    "not UTF-8": ("b1", open(spec_path("bsc_pair.json"), "rb").read().replace(b'"t1"', b'"t\xe9"')),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHANNELS))
def test_malformed_channel_value_exits_2(case, tmp_path, capsys):
    command, spec = MALFORMED_CHANNELS[case]
    path = tmp_path / "spec.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        path.write_text(json.dumps(spec))
    argv = (["entangle", "--family", str(path), "--seed", "1"] if command == "entangle"
            else ["capacity", "--formula", command, "--spec", str(path)])
    assert run_cli(argv) == EXIT_SCHEMA
    assert "schema error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_unknown_suite_exits_4(self):
        rc = run_cli(["verify", "nonsense"])
        assert rc == EXIT_FLAG

    def test_fidelity_suite_passes(self, tmp_path):
        out = tmp_path / "ver.json"
        rc = run_cli(["verify", "fidelity", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["n_fail"] == 0

    def test_gentle_suite_passes(self, tmp_path):
        out = tmp_path / "ver.json"
        rc = run_cli(["verify", "gentle", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["payload"]["n_fail"] == 0

    def test_records_go_to_stderr_in_one_write(self, tmp_path, monkeypatch):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stderr", Recorder())
        assert run_cli(["verify", "fidelity", "--out", str(tmp_path / "ver.json")]) == 0
        records = run_suite("fidelity")
        width = max(len(r["bound_id"]) for r in records)
        expect = "".join(
            f"{r['bound_id']:<{width}}  lhs={r['lhs']:.6g}  rhs={r['rhs']:.6g}  pass\n"
            for r in records) + f"fidelity: {len(records)}/{len(records)} checks passed\n"
        assert writes == [expect]

    def test_all_aggregates_and_jobs_flag(self, tmp_path):
        out1 = tmp_path / "v1.json"
        out2 = tmp_path / "v2.json"
        assert run_cli(["verify", "all", "--out", str(out1)]) == 0
        assert run_cli(["--jobs", "2", "verify", "all", "--out", str(out2)]) == 0
        p1 = json.loads(out1.read_text())["payload"]
        p2 = json.loads(out2.read_text())["payload"]
        assert p1["n_fail"] == 0
        # --jobs is accepted and ignored: same records either way
        assert canonical_payload_bytes(p1["records"]) == canonical_payload_bytes(p2["records"])


class TestManifestElapsed:
    @pytest.mark.parametrize("argv", [
        ["net", "--tau", "0.5", "--budget", "4"],
        ["capacity", "--formula", "b1", "--spec", spec_path("bsc_pair.json"), "--grid", "4",
         "--refine", "2", "--restarts", "0"],
        ["simulate", "--spec", spec_path("bsc_pair.json"), "--n", "4", "--J", "2",
         "--trials", "20", "--seed", "1"],
        ["entangle", "--family", spec_path("identity_family.json"), "--n", "1", "--seed", "1"],
        ["verify", "gentle"],
    ], ids=lambda argv: argv[0])
    def test_every_command_records_elapsed_seconds(self, tmp_path, argv):
        out = tmp_path / "report.json"
        t0 = time.perf_counter()
        assert run_cli(argv + ["--out", str(out)]) == 0
        took = time.perf_counter() - t0
        manifest = json.loads(out.read_text())["manifest"]
        assert 0 < manifest["elapsed_s"] <= took
        assert "wallclock_s" in manifest


class TestDeterminism:
    def test_capacity_payload_bytes_stable(self, tmp_path):
        outs = []
        for i in (0, 1):
            out = tmp_path / f"cap{i}.json"
            rc = run_cli(["capacity", "--formula", "b1prime",
                          "--spec", spec_path("bsc_dominated.json"),
                          "--grid", "8", "--refine", "5", "--restarts", "1",
                          "--seed", "4", "--out", str(out)])
            assert rc == 0
            outs.append(json.loads(out.read_text())["payload"])
        assert canonical_payload_bytes(outs[0]) == canonical_payload_bytes(outs[1])

    def test_entangle_payload_bytes_stable(self, tmp_path):
        outs = []
        for i in (0, 1):
            out = tmp_path / f"ent{i}.json"
            rc = run_cli(["entangle", "--family", spec_path("two_channel_family.json"),
                          "--n", "2", "--J", "2", "--L", "2", "--seed", "9",
                          "--out", str(out)])
            assert rc == 0
            outs.append(json.loads(out.read_text())["payload"])
        assert canonical_payload_bytes(outs[0]) == canonical_payload_bytes(outs[1])

    def test_console_entry_point(self):
        # the subprocess does not see pytest's pythonpath setting, so pass src on
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qwk.cli", "net", "--tau", "2.0", "--budget", "1"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0


class TestSimulatePlan:
    def test_capped_request_refused_before_sampling(self, monkeypatch):
        import qwk.cli

        def no_sampling(*args, **kwargs):
            raise AssertionError("a capped request sampled a codebook")

        monkeypatch.setattr(qwk.cli, "sample_codebook", no_sampling)
        for spec, n in (("qubit_wiretap.json", "15"), ("bsc_pair.json", "14")):
            rc = run_cli(["simulate", "--spec", spec_path(spec), "--n", n, "--J", "4",
                          "--L", "2", "--trials", "250", "--seed", "1"])
            assert rc == EXIT_CAP

    @pytest.mark.parametrize("margin", ["5", "100"])
    def test_auto_depth_past_the_cap_exits_5_without_a_report(self, margin, tmp_path, monkeypatch):
        # depth 2^(4(chi + 2 margin)): 2^40 entries, or past int64 at margin 100
        import qwk.cli

        def no_sampling(*args, **kwargs):
            raise AssertionError("a capped request sampled a codebook")

        monkeypatch.setattr(qwk.cli, "sample_codebook", no_sampling)
        out = tmp_path / "sim.json"
        rc = run_cli(["simulate", "--spec", spec_path("bsc_pair.json"), "--n", "4", "--seed", "1",
                      "--L", "auto", "--leak-margin", margin, "--out", str(out)])
        assert rc == EXIT_CAP
        assert not out.exists()

    def test_very_negative_margins_keep_one_depth_or_refuse_the_message_count(self, tmp_path,
                                                                             monkeypatch):
        # a leak margin of -1000 underflows the depth 2^(4(chi - 2000)) to 0,
        # and a rate margin of -1000 asks for 2^4001 messages
        import qwk.cli

        args = ["simulate", "--spec", spec_path("bsc_pair.json"), "--n", "4", "--seed", "1",
                "--L", "auto"]
        out = tmp_path / "deep.json"
        assert run_cli(args + ["--leak-margin", "-1000", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["payload"]["sizes"]["L_per_t"] == {"t1": 1}

        def no_sampling(*args, **kwargs):
            raise AssertionError("a capped request sampled a codebook")

        monkeypatch.setattr(qwk.cli, "sample_codebook", no_sampling)
        out = tmp_path / "wide.json"
        assert run_cli(args + ["--rate-margin", "-1000", "--out", str(out)]) == EXIT_CAP
        assert not out.exists()

    def test_plan_recorded_in_manifest_only(self, tmp_path):
        out = tmp_path / "sim.json"
        rc = run_cli(["simulate", "--spec", spec_path("qubit_wiretap.json"), "--n", "6",
                      "--J", "2", "--L", "2", "--trials", "300", "--seed", "11",
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        plan = doc["manifest"]["plan"]
        assert plan["error"] == {"t1": "exact"}
        assert plan["leakage"] == {"t1": "exact"}
        assert {c["check"] for c in plan["caps"]} == {
            "typical-set enumeration", "codebook entries", "classical error enumeration",
            "wiretap block state"}
        assert "plan" not in doc["payload"]

    def test_leakage_dims_in_manifest_only(self, tmp_path):
        out = tmp_path / "sim.json"
        rc = run_cli(["simulate", "--spec", spec_path("qubit_wiretap.json"), "--n", "6",
                      "--J", "4", "--L", "1", "--trials", "300", "--seed", "11",
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        dims = doc["manifest"]["leakage_dims"]["t1"]
        # one word per message: no message state is ever diagonalised
        assert dims["max_message"] == 1
        assert dims["average"] in [2 ** k for k in range(7)]
        assert "leakage_dims" not in json.dumps(doc["payload"])
        rc = run_cli(["simulate", "--spec", spec_path("bsc_pair.json"), "--n", "4",
                      "--trials", "10", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["manifest"]["leakage_dims"] == {"t1": None}

    def test_cq_default_delta_exits_0(self, tmp_path):
        out = tmp_path / "sim.json"
        rc = run_cli(["simulate", "--spec", spec_path("cq_pair.json"), "--n", "6", "--J", "2",
                      "--L", "2", "--seed", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())["payload"]
        assert 0.0 <= payload["error"]["per_t"]["t1"]["max_error"] <= 1.0


class TestVerifyExitCode:
    def test_failed_check_exits_3(self, monkeypatch, tmp_path):
        import qwk.verify

        record = {"bound_id": "stub", "lhs": 2.0, "rhs": 1.0, "pass": False, "min_k": 0.0}
        monkeypatch.setattr(qwk.verify, "run_suite", lambda suite, jobs=1: [record])
        out = tmp_path / "ver.json"
        assert run_cli(["verify", "gentle", "--out", str(out)]) == EXIT_SEMANTIC
        assert json.loads(out.read_text())["payload"]["n_fail"] == 1


class TestCapacitySolverManifest:
    # sha256 of the canonical payload bytes of this request before the solver
    # recorded its grid; the record must go to the manifest only
    B1_GRID64_SHA256 = "943357dcca5bf92078c7bba1bef1d869138f24de69ce6d326062c6168fcfc561"

    def test_shrunk_grid_reported_in_manifest_only(self, tmp_path):
        import hashlib

        out = tmp_path / "cap.json"
        rc = run_cli(["capacity", "--formula", "b1", "--spec", spec_path("bsc_dominated.json"),
                      "--grid", "64", "--refine", "50", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        used = doc["manifest"]["solver"]["grid_used"]["aux"]
        assert [u["aux_card"] for u in used] == [2, 3]
        assert used[1] == {"aux_card": 3, "q": 64, "row": 4}
        assert doc["payload"]["config"]["grid_resolution"] == 64
        digest = hashlib.sha256(canonical_payload_bytes(doc["payload"])).hexdigest()
        assert digest == self.B1_GRID64_SHA256

    def test_prior_grid_reported(self, tmp_path):
        out = tmp_path / "cap.json"
        rc = run_cli(["capacity", "--formula", "e1q", "--spec", spec_path("cq_pair.json"),
                      "--grid", "16", "--refine", "10", "--restarts", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        # six grid starts, the uniform prior and two restarts, all stopped
        # without an improving step by the ninth iteration
        ascent = {"state": "t1", "starts": 9, "iterations": 9, "stalled": 9, "at_limit": 0,
                  "winner": 0}
        assert doc["manifest"]["solver"] == {"grid_used": {"prior": 16}, "ascent": [ascent]}
        assert "solver" not in doc["payload"]

    @staticmethod
    def _check_runs(runs, refine):
        for run in runs:
            assert run["stalled"] + run["at_limit"] == run["starts"]
            assert 0 <= run["winner"] < run["starts"]
            assert 1 <= run["iterations"] <= refine

    def test_ascent_diagnostics_in_manifest_only(self, tmp_path):
        out = tmp_path / "cap.json"
        rc = run_cli(["capacity", "--formula", "b1", "--spec", spec_path("bsc_dominated.json"),
                      "--grid", "8", "--restarts", "2", "--refine", "30", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        runs = doc["manifest"]["solver"]["ascent"]
        # six grid starts, two special prefixes and two restarts per aux cardinality
        assert [(r["state"], r["aux_card"], r["starts"]) for r in runs] == [
            (t, m, 10) for t in ("t1", "t2") for m in (2, 3)]
        self._check_runs(runs, 30)
        assert "ascent" not in json.dumps(doc["payload"])

    def test_propo1_diagnostics_per_state(self, tmp_path):
        out = tmp_path / "cap.json"
        rc = run_cli(["capacity", "--formula", "propo1", "--spec",
                      spec_path("two_channel_family.json"), "--n", "2", "--grid", "8",
                      "--restarts", "2", "--out", str(out)])
        assert rc == 0
        runs = json.loads(out.read_text())["manifest"]["solver"]["ascent"]
        # the maximally mixed start, one start per basis vector, two restarts
        assert [(r["state"], r["starts"]) for r in runs] == [("t1", 7), ("t2", 7)]
        self._check_runs(runs, 40)


class TestCapacityCaps:
    def test_propo1_parameter_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("QWK_CAP_DIM", "32")
        rc = run_cli(["capacity", "--formula", "propo1", "--spec",
                      spec_path("two_channel_family.json"), "--n", "3"])
        assert rc == EXIT_CAP
        assert "propo1 parameter matrix needs dimension 64" in capsys.readouterr().err

    def test_propo1_environment_cap(self, tmp_path, monkeypatch, capsys):
        # five Kraus operators sqrt(1/5) I: a five-dimensional environment on a qubit
        op = [[[0.2 ** 0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2 ** 0.5, 0.0]]]
        ch = {"kind": "kraus", "dim_in": 2, "dim_out": 2, "operators": [op] * 5}
        spec = tmp_path / "five.json"
        spec.write_text(json.dumps({"variant": "quantum", "theta": [{"t": "t1", "W": ch}]}))
        monkeypatch.setenv("QWK_CAP_DIM", "4")
        rc = run_cli(["capacity", "--formula", "propo1", "--spec", str(spec)])
        assert rc == EXIT_CAP
        assert "environment state needs dimension 5" in capsys.readouterr().err
        monkeypatch.setenv("QWK_CAP_DIM", "5")
        assert run_cli(["capacity", "--formula", "propo1", "--spec", str(spec),
                        "--out", str(tmp_path / "cap.json")]) == 0


def _cq_letters(dim):
    """Two letter states of a dim-dimensional cq channel, as spec JSON."""
    first, second = np.zeros((dim, dim)), np.eye(dim) / dim
    first[0, 0] = 1.0
    return {"kind": "cq", "input_alphabet": [0, 1], "dim": dim,
            "states": {"0": [[[x, 0.0] for x in row] for row in first],
                       "1": [[[x, 0.0] for x in row] for row in second]}}


MIXED_SIZE_SPECS = {
    # the larger member comes second, so a cap read from member 0 misses it
    "CSIcap": {"variant": "classical-quantum-wiretap", "theta": [
        {"t": "t1", "W": {"kind": "stochastic", "input_alphabet": [0, 1],
                          "output_alphabet": [0, 1], "matrix": [[0.9, 0.1], [0.1, 0.9]]},
         "V": _cq_letters(2)},
        {"t": "t2", "W": {"kind": "stochastic", "input_alphabet": [0, 1],
                          "output_alphabet": [0, 1], "matrix": [[0.8, 0.2], [0.2, 0.8]]},
         "V": _cq_letters(4)}]},
    "cq": {"variant": "cq", "theta": [
        {"t": "t1", "W": _cq_letters(2), "V": _cq_letters(2)},
        {"t": "t2", "W": _cq_letters(3), "V": _cq_letters(3)}]},
}


class TestMixedSizeCaps:
    @pytest.mark.parametrize("formula, family, cap, message", [
        ("CSIcap", "CSIcap", "8", "wiretap block state needs dimension 16 > cap 8"),
        ("e1q", "cq", "8", "legitimate block state needs dimension 9 > cap 8"),
        ("qnocsie1q", "cq", "8", "legitimate block state needs dimension 9 > cap 8"),
    ])
    def test_largest_member_capped_before_any_term(self, formula, family, cap, message,
                                                   tmp_path, monkeypatch, capsys):
        import qwk.capacity

        def no_terms(*args, **kwargs):
            raise AssertionError("a rate term was built before the cap check")

        for name in ("_ChiPowerTerm", "_ChiMixTerm", "cq_word_state"):
            monkeypatch.setattr(qwk.capacity, name, no_terms)
        spec = tmp_path / "mixed.json"
        spec.write_text(json.dumps(MIXED_SIZE_SPECS[family]))
        monkeypatch.setenv("QWK_CAP_DIM", cap)
        rc = run_cli(["capacity", "--formula", formula, "--spec", str(spec), "--n", "2"])
        assert rc == EXIT_CAP
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("formula, family", [("CSIcap", "CSIcap"), ("noCSIcap", "CSIcap"),
                                                 ("e1q", "cq"), ("qnocsie1q", "cq")])
    def test_mixed_sizes_run_under_the_default_cap(self, formula, family, tmp_path):
        spec = tmp_path / "mixed.json"
        spec.write_text(json.dumps(MIXED_SIZE_SPECS[family]))
        out = tmp_path / "cap.json"
        assert run_cli(["capacity", "--formula", formula, "--spec", str(spec), "--grid", "4",
                        "--refine", "3", "--restarts", "0", "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["payload"]["per_t"]) == ["t1", "t2"]


class TestCapacityCsv:
    @pytest.mark.parametrize("formula, spec, fields", [
        ("b1", "bsc_two_state.json", ["legit", "wiretap", "value"]),
        ("b1prime", "bsc_two_state.json", ["legit", "wiretap"]),
        ("propo1", "two_channel_family.json", ["coherent_information", "value"]),
    ])
    def test_csv_holds_the_per_state_rows(self, formula, spec, fields, tmp_path):
        import csv

        out, table = tmp_path / "cap.json", tmp_path / "cap.csv"
        assert run_cli(["capacity", "--formula", formula, "--spec", spec_path(spec), "--grid", "4",
                        "--refine", "3", "--restarts", "0", "--out", str(out),
                        "--csv", str(table)]) == 0
        per_t = json.loads(out.read_text())["payload"]["per_t"]
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["t", *fields]
        assert [row["t"] for row in rows] == list(per_t)
        for row in rows:
            for f in fields:
                assert float(row[f]) == pytest.approx(per_t[row["t"]][f], rel=1e-11, abs=1e-15)


class TestSimulateCsv:
    @pytest.mark.parametrize("names", [("t1", "t2"), ("a,b", 'say "hi"')])
    def test_csv_holds_the_per_state_rows(self, names, tmp_path):
        import csv

        doc = json.load(open(spec_path("bsc_two_state.json")))
        for entry, name in zip(doc["theta"], names):
            entry["t"] = name
        spec, out, table = tmp_path / "spec.json", tmp_path / "sim.json", tmp_path / "sim.csv"
        spec.write_text(json.dumps(doc))
        assert run_cli(["simulate", "--spec", str(spec), "--n", "4", "--J", "2", "--seed", "1",
                        "--out", str(out), "--csv", str(table)]) == 0
        payload = json.loads(out.read_text())["payload"]
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [list(row) for row in rows] == [["t", "max_error", "leakage"]] * 2
        assert [row["t"] for row in rows] == list(names)
        for row in rows:
            assert float(row["max_error"]) == pytest.approx(
                payload["error"]["per_t"][row["t"]]["max_error"], rel=1e-11, abs=1e-15)
            assert float(row["leakage"]) == pytest.approx(
                payload["leakage"]["per_t"][row["t"]]["leakage"], rel=1e-11, abs=1e-15)
        if names == ("t1", "t2"):
            # plain names are written unquoted, one comma-joined row per state
            assert table.read_text() == "t,max_error,leakage\n" + "".join(
                f"{r['t']},{r['max_error']},{r['leakage']}\n" for r in rows)


NEGATIVE_FLAG_ARGS = {
    "capacity": ["capacity", "--formula", "b1", "--spec", spec_path("bsc_pair.json")],
    "simulate": ["simulate", "--spec", spec_path("bsc_pair.json"), "--n", "2"],
    "entangle": ["entangle", "--family", spec_path("two_channel_family.json")],
}


@pytest.mark.parametrize("command, flag, value", [
    ("capacity", "--seed", "-1"), ("capacity", "--restarts", "-2"),
    ("capacity", "--refine", "-1"), ("simulate", "--seed", "-1"), ("entangle", "--seed", "-1"),
])
def test_negative_flag_exits_4_without_a_report(command, flag, value, tmp_path, monkeypatch):
    import qwk.cli

    def no_work(path):
        raise AssertionError("the input file was read before the flags were checked")

    monkeypatch.setattr(qwk.cli, "load_spec", no_work)
    monkeypatch.setattr(qwk.cli, "load_family", no_work)
    out = tmp_path / "report.json"
    extra = [] if flag == "--seed" else ["--seed", "1"]
    argv = NEGATIVE_FLAG_ARGS[command] + extra + [flag, value, "--out", str(out)]
    assert run_cli(argv) == EXIT_FLAG
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--grid", "1"), ("--aux-card", "0")])
def test_capacity_size_flag_exits_4_before_the_spec(flag, value, tmp_path, capsys):
    # the spec path does not exist: reading it would exit 2, not 4
    missing = tmp_path / "missing.json"
    out = tmp_path / "report.json"
    argv = ["capacity", "--formula", "b1", "--spec", str(missing), flag, value,
            "--out", str(out)]
    assert run_cli(argv) == EXIT_FLAG
    assert f"{flag} must be >= " in capsys.readouterr().err
    assert not out.exists()


POSITIVE_FLAG_ARGS = {
    "simulate": ["simulate", "--n", "2", "--seed", "1"],
    "entangle": ["entangle", "--seed", "1"],
    "net": ["net", "--budget", "3"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("entangle", "--delta", "0"), ("entangle", "--alpha", "-1"),
    ("simulate", "--delta", "-0.1"), ("simulate", "--decode-delta", "-1"), ("net", "--tau", "0"),
])
def test_positive_flag_exits_4_before_the_input(command, flag, value, tmp_path, capsys):
    # the input path does not exist: reading it would exit 2, not 4
    missing = str(tmp_path / "missing.json")
    source = {"simulate": ["--spec", missing], "entangle": ["--family", missing]}.get(command, [])
    out = tmp_path / "report.json"
    argv = POSITIVE_FLAG_ARGS[command] + source + [flag, value, "--out", str(out)]
    assert run_cli(argv) == EXIT_FLAG
    assert f"{flag} must be > 0" in capsys.readouterr().err
    assert not out.exists()


def _drifting_cq_spec(path):
    """A cq spec whose letters have trace 1 + 8e-10, inside the tolerance
    for one letter but not for the n = 2 product computed densely."""
    letters = [np.diag([0.7 + 8e-10, 0.3]), np.diag([0.2, 0.8 + 8e-10])]
    ch = {"kind": "cq", "input_alphabet": [0, 1], "dim": 2,
          "states": {str(x): [[[v, 0.0] for v in row] for row in m] for x, m in enumerate(letters)}}
    path.write_text(json.dumps({"variant": "cq", "theta": [{"t": "t1", "W": ch, "V": ch}]}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["capacity", "--formula", "e1q", "--n", "2"],
    ["capacity", "--formula", "qnocsie1q", "--n", "2"],
    ["simulate", "--n", "4", "--J", "2", "--seed", "1", "--delta", "0.5", "--decode-delta", "0.5"],
])
def test_letter_trace_inside_tolerance_runs_at_every_n(argv, tmp_path):
    spec = _drifting_cq_spec(tmp_path / "drift.json")
    assert run_cli(argv + ["--spec", spec, "--out", str(tmp_path / "report.json")]) == 0


def test_solver_records_match_golden(tmp_path):
    """``manifest.solver`` of the capacity goldens' commands and of b1 and
    b1prime on a family with a binary and a ternary output, as recorded
    in golden_solver_records.json."""
    golden = json.load(open(os.path.join(DATA, "golden_solver_records.json")))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(golden["mixed_classical"]))
    for record in golden["records"]:
        out = tmp_path / "cap.json"
        argv = [str(mixed) if a == "{mixed}" else a for a in record["argv"]]
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["manifest"]["solver"] == record["solver"], argv


class TestBlasThreads:
    def _child(self, extra_env):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env.update(extra_env)
        proc = subprocess.run(
            [sys.executable, "-m", "qwk.cli", "net", "--tau", "2.0", "--budget", "1"],
            capture_output=True, env=env, text=True, check=True,
        )
        return json.loads(proc.stdout)["manifest"]["blas_threads"]

    def test_one_thread_by_default_and_user_value_wins(self):
        assert self._child({}) == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                   "MKL_NUM_THREADS": "1"}
        assert self._child({"OPENBLAS_NUM_THREADS": "2"})["OPENBLAS_NUM_THREADS"] == "2"
