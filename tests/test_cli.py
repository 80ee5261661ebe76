import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from pqc_lens import (Gate, ParamRef, PauliSum, make_circuit, qaoa_builder,
                      serialize_circuit_spec, simulator)
from pqc_lens import analyzers, cli, trainer
from pqc_lens.cli import run
from pqc_lens.library import max_cut_size


@pytest.fixture()
def two_qubit_spec(tmp_path):
    gates = [
        Gate("RY", (0,), ParamRef("a")),
        Gate("RY", (1,), ParamRef("b")),
        Gate("CX", (0, 1)),
    ]
    cost = PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {1: "Z"})])
    circuit = make_circuit(2, gates, ["a", "b"], cost)
    path = tmp_path / "two_qubit.spec.json"
    path.write_text(serialize_circuit_spec(circuit), encoding="utf-8")
    return str(path)


@pytest.fixture()
def one_qubit_spec(tmp_path):
    circuit = make_circuit(
        1,
        [Gate("H", (0,)), Gate("RZ", (0,), ParamRef("a"))],
        ["a"],
        PauliSum.from_terms([(1.0, {0: "Z"})]),
    )
    path = tmp_path / "one_qubit.spec.json"
    path.write_text(serialize_circuit_spec(circuit), encoding="utf-8")
    return str(path)


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulate_map called")


def _report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _number(text: str):
    return int(text) if text.lstrip("-").isdigit() else float(text)


def _table(out_dir, name):
    """A CSV artifact's header and its columns, keyed by header, of ints and floats."""
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, {h: [_number(v) for v in column] for h, column in zip(header, zip(*rows))}


def _check_grid_csv(out_dir, name, grid):
    """The CSV holds the report's grid, one row per (phi0, phi1) point, phi1 fastest."""
    header, columns = _table(out_dir, name)
    assert header == ["phi0", "phi1", "value"]
    phi = grid["phi"]
    assert columns["phi0"] == [a for a in phi for _ in phi]
    assert columns["phi1"] == [b for _ in phi for b in phi]
    assert columns["value"] == [v for row in grid["values"] for v in row]


def _check_report_envelope(out_dir, command):
    doc = _report(out_dir)
    assert doc["schema"] == "pqc-lens/1"
    assert doc["command"] == command
    assert isinstance(doc["manifest"]["seed"], int)
    listed = doc["artifacts"]
    assert listed == sorted(listed)
    assert "report.json" in listed
    on_disk = sorted(os.listdir(out_dir))
    assert listed == on_disk
    return doc


class TestSubcommands:
    def test_expressibility(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["expressibility", "--circuit", two_qubit_spec,
                    "--samples", "40", "--seed", "1", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "expressibility")
        result = doc["result"]
        assert result["value"] >= 0.0
        header, columns = _table(out, "fidelity_histogram.csv")
        assert header == ["bin_lo", "bin_hi", "observed", "haar"]
        hist = result["fidelity_histogram"]
        assert len(hist["masses"]) == 75
        assert columns["bin_lo"] == hist["bin_edges"][:-1]
        assert columns["bin_hi"] == hist["bin_edges"][1:]
        assert columns["observed"] == hist["masses"]
        assert columns["haar"] == result["baseline_histogram"]["masses"]
        assert sum(columns["observed"]) == pytest.approx(1.0)

    def test_entanglement(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["entanglement", "--circuit", two_qubit_spec,
                    "--samples", "25", "--seed", "2", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "entanglement")
        assert 0.0 <= doc["result"]["q"] <= 1.0

    def test_entanglement_scott_measure(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["entanglement", "--circuit", two_qubit_spec,
                    "--samples", "10", "--measure", "scott",
                    "--seed", "2", "--out", out])
        assert code == 0
        assert isinstance(_report(out)["result"]["q"], list)

    def test_spectrum(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["spectrum", "--circuit", two_qubit_spec,
                    "--samples", "20", "--seed", "3", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "spectrum")
        result = doc["result"]
        assert result["subsystem_size"] == 1
        header, columns = _table(out, "spectrum_profile.csv")
        assert header == ["rank", "xi_mean", "xi_reference"]
        assert columns["rank"] == [1, 2]
        assert columns["xi_mean"] == result["profile"]
        assert columns["xi_reference"] == result["reference_profile"]

    def test_train(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["train", "--circuit", two_qubit_spec, "--steps", "15",
                    "--restarts", "2", "--seed", "4", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "train")
        result = doc["result"]
        assert result["restarts"] == 2
        assert result["steps"] == 15
        assert len(result["final_losses"]) == 2
        assert result["best_loss"] <= min(result["final_losses"]) + 1e-12
        for name in ("trace_0.csv", "trace_1.csv", "loss_curves.svg"):
            assert name in doc["artifacts"]
        for r in range(2):
            header, columns = _table(out, f"trace_{r}.csv")
            assert header == ["step", "loss", "theta_0", "theta_1"]
            # one row per step and the initial point; steps are written as integers
            assert columns["step"] == list(range(16))
            assert all(type(step) is int for step in columns["step"])
            assert columns["loss"][-1] == result["final_losses"][r]
        _, columns = _table(out, f"trace_{result['best_restart']}.csv")
        at = columns["loss"].index(result["best_loss"])
        assert [columns["theta_0"][at], columns["theta_1"][at]] == result["best_theta"]

    def test_landscape_with_explicit_theta(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["landscape", "--circuit", two_qubit_spec,
                    "--theta", "0.3,1.1", "--points", "5",
                    "--seed", "5", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "landscape")
        assert len(doc["result"]["values"]) == 5
        _check_grid_csv(out, "landscape.csv", doc["result"])

    def test_landscape_pca_basis_trains_first(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["landscape", "--circuit", two_qubit_spec,
                    "--basis", "pca", "--steps", "10", "--points", "3",
                    "--seed", "6", "--out", out])
        assert code == 0
        doc = _report(out)
        assert doc["result"]["basis"]["origin"] is not None
        _check_grid_csv(out, "landscape.csv", doc["result"])

    def test_landscape_pca_basis_centres_on_the_best_restart(self, two_qubit_spec, tmp_path):
        # at seed 0 restart 1 of 3 reaches the lowest loss; the landscape is
        # then the one path --overlay draws from the same training
        training = ["--circuit", two_qubit_spec, "--steps", "10", "--restarts", "3",
                    "--seed", "0"]
        assert run(["train", *training, "--out", str(tmp_path / "t")]) == 0
        assert _report(str(tmp_path / "t"))["result"]["best_restart"] == 1
        assert run(["landscape", "--basis", "pca", "--points", "3", *training,
                    "--out", str(tmp_path / "l")]) == 0
        assert run(["path", "--overlay", "--points", "3", *training,
                    "--out", str(tmp_path / "p")]) == 0
        landscape = _report(str(tmp_path / "l"))["result"]
        assert landscape == _report(str(tmp_path / "p"))["result"]["overlay"]

    def test_path_with_overlay(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["path", "--circuit", two_qubit_spec, "--steps", "12",
                    "--restarts", "2", "--overlay", "--points", "3",
                    "--seed", "7", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "path")
        for name in ("path.csv", "path.svg", "overlay.csv"):
            assert name in doc["artifacts"]
        result = doc["result"]
        header, columns = _table(out, "path.csv")
        assert header == ["restart", "step", "loss", "x", "y"]
        assert len(columns["x"]) == 2 * 13
        for column in header:
            assert columns[column] == result[column]
        _check_grid_csv(out, "overlay.csv", result["overlay"])

    def test_path_tsne_mode(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["path", "--circuit", two_qubit_spec, "--steps", "20",
                    "--restarts", "2", "--mode", "tsne",
                    "--perplexity", "5", "--iters", "60",
                    "--seed", "8", "--out", out])
        assert code == 0
        doc = _report(out)
        assert doc["result"]["mode"] == "tsne"

    def test_histogram(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["histogram", "--circuit", two_qubit_spec, "--steps", "8",
                    "--restarts", "3", "--bins", "10",
                    "--seed", "9", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "histogram")
        for name in ("parameter_histograms.csv", "param_0.svg", "param_1.svg"):
            assert name in doc["artifacts"]
        header, columns = _table(out, "parameter_histograms.csv")
        assert header == ["step", "param", "bin_lo", "bin_hi", "mass"]
        # step, then parameter, then bin, as in the report's masses
        params = doc["result"]["parameters"]
        assert list(zip(*columns.values())) == [
            (t, p["index"], p["bin_edges"][b], p["bin_edges"][b + 1], p["masses"][t][b])
            for t in range(9) for p in params for b in range(10)
        ]

    def test_reachability(self, one_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["reachability", "--circuit", one_qubit_spec,
                    "--samples", "100", "--restarts", "2", "--steps", "30",
                    "--seed", "10", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "reachability")
        result = doc["result"]
        assert result["f_r"] == pytest.approx(
            result["haar_minimum"] - result["pqc_minimum"], abs=1e-12
        )

    def test_qaoa_triangle(self, tmp_path):
        out = str(tmp_path / "o")
        code = run(["qaoa", "--nodes", "3", "--edges", "3", "--p", "1",
                    "--steps", "30", "--restarts", "2", "--points", "3",
                    "--seed", "11", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "qaoa")
        result = doc["result"]
        assert result["optimum_cut"] == 2
        assert 0.0 <= result["sampled_mean_cut"] <= 3.0
        assert result["expected_cut_at_best"] == pytest.approx(
            1.5 - result["training"]["best_loss"], abs=1e-9
        )
        for name in ("circuit.spec.json", "trace_0.csv", "landscape.csv",
                     "path.csv"):
            assert name in doc["artifacts"]

    def test_qaoa_optimum_matches_brute_force(self, tmp_path):
        edges = ((0, 1), (1, 2), (0, 2))
        assert max_cut_size(edges, 3) == 2


class TestExitCodes:
    def test_missing_circuit_file_is_usage_error(self, tmp_path):
        out = str(tmp_path / "o")
        code = run(["expressibility", "--circuit",
                    str(tmp_path / "nope.json"), "--samples", "5",
                    "--out", out])
        assert code == 2

    def test_malformed_spec_is_spec_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_qubits": 1}', encoding="utf-8")
        code = run(["expressibility", "--circuit", str(bad),
                    "--samples", "5", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_integer_axis_is_spec_error(self, tmp_path, capsys):
        # a cost axis is a string; the JSON integer 0 does not read as P0
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_qubits": 1, "gates": [], "cost": [{"coeff": 1.0, "paulis": {"0": 0}}]}',
                       encoding="utf-8")
        code = run(["train", "--circuit", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "cost term 0: unknown Pauli axis '0'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["expressibility", "train"])
    def test_negative_seed_is_usage_error_naming_the_seed(self, two_qubit_spec, tmp_path,
                                                          capsys, command):
        out = tmp_path / "o"
        code = run([command, "--circuit", two_qubit_spec, "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_single_qubit_entanglement_is_usage_error(self, one_qubit_spec,
                                                      tmp_path):
        code = run(["entanglement", "--circuit", one_qubit_spec,
                    "--samples", "5", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_divergent_training_exits_four(self, two_qubit_spec, tmp_path):
        code = run(["train", "--circuit", two_qubit_spec, "--steps", "5",
                    "--lr", "1e308", "--method", "adam", "--seed", "1",
                    "--out", str(tmp_path / "o")])
        assert code == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_training_prints_no_numpy_warning(self, two_qubit_spec, tmp_path):
        # the overflowing update is reported by the exit-4 message alone
        code = run(["train", "--circuit", two_qubit_spec, "--steps", "5",
                    "--lr", "1e308", "--method", "adam", "--seed", "1",
                    "--out", str(tmp_path / "o")])
        assert code == 4

    def test_overflowing_angle_names_the_overflow(self, tmp_path, capsys):
        spec = tmp_path / "qaoa.spec.json"
        spec.write_text(serialize_circuit_spec(qaoa_builder([(0, 1), (1, 2)], p=1)),
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["landscape", "--circuit", str(spec), "--theta", "0.1,1e308",
                        "--points", "3", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: a rotation angle overflowed to inf" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["path", "--restarts", "2"], "magnitude"),
        (["path", "--restarts", "3", "--mode", "tsne", "--perplexity", "1", "--iters", "20"],
         "magnitude"),
        (["histogram", "--restarts", "2"], "magnitude"),
        (["landscape", "--lr", "0.05", "--range", "1e308"], "scan grid overflows"),
    ], ids=["path-pca", "path-tsne", "histogram", "landscape-range"])
    def test_values_beyond_the_float_range_are_usage_errors(self, two_qubit_spec, tmp_path,
                                                            capsys, argv, message):
        # one Adam step at rate 1e308 leaves finite parameters near 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv[:1] + ["--circuit", two_qubit_spec, "--steps", "1", "--lr", "1e308",
                                   "--seed", "0", "--out", str(tmp_path / "o")] + argv[1:])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_nan_learning_rate_is_usage_error(self, two_qubit_spec, tmp_path):
        code = run(["train", "--circuit", two_qubit_spec, "--steps", "2",
                    "--lr", "nan", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_infinite_learning_rate_is_usage_error(self, two_qubit_spec, tmp_path):
        code = run(["train", "--circuit", two_qubit_spec, "--steps", "2",
                    "--lr", "inf", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, tmp_path):
        assert run(["polish"]) == 2

    def test_no_arguments_is_usage_error(self):
        assert run([]) == 2

    def test_spec_without_cost_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "no_cost.spec.json"
        spec.write_text(serialize_circuit_spec(make_circuit(1, [Gate("H", (0,))], [])),
                        encoding="utf-8")
        code = run(["histogram", "--circuit", str(spec), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "the histogram command needs a circuit spec with a cost observable" in (
            capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "o")

    def test_unparsable_theta_is_usage_error(self, two_qubit_spec, tmp_path, capsys):
        code = run(["landscape", "--circuit", two_qubit_spec, "--theta", "0.1,x",
                    "--points", "3", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cannot parse --theta value '0.1,x'" in capsys.readouterr().err

    def test_oversized_qaoa_graph_fails_before_training(self, tmp_path, monkeypatch, capsys):
        # the brute-force optimum is capped at 20 nodes, so a 21-node run
        # must stop before its first simulation
        def no_training(*args, **kwargs):
            raise AssertionError("ensemble_train called")

        monkeypatch.setattr(cli, "ensemble_train", no_training)
        out = tmp_path / "o"
        code = run(["qaoa", "--nodes", "21", "--edges", "21", "--steps", "2",
                    "--restarts", "1", "--points", "2", "--shots", "1", "--seed", "0",
                    "--out", str(out)])
        assert code == 2
        assert "brute force capped at 20 nodes" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("shots, message", [
        ("20000000000", "a draw of 20000000000 shots on 3 qubit(s) takes"),
        ("0", "shots must be positive"),
    ], ids=["oversized", "zero"])
    def test_unusable_shot_count_fails_before_training(self, tmp_path, monkeypatch, capsys,
                                                       shots, message):
        def no_training(*args, **kwargs):
            raise AssertionError("ensemble_train called")

        monkeypatch.setattr(cli, "ensemble_train", no_training)
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**30)
        out = tmp_path / "o"
        code = run(["qaoa", "--nodes", "3", "--edges", "2", "--steps", "1",
                    "--restarts", "1", "--points", "2", "--shots", shots, "--seed", "0",
                    "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["path", "--circuit", "SPEC"],
        ["qaoa", "--nodes", "3", "--edges", "2", "--points", "2", "--shots", "1"],
    ], ids=["path", "qaoa"])
    def test_oversized_tsne_path_fails_before_training(self, two_qubit_spec, tmp_path,
                                                       monkeypatch, capsys, argv):
        # 1 GiB: the trace of 2 x 10 001 points fits, their t-SNE does not
        def no_training(*args, **kwargs):
            raise AssertionError("ensemble_train called")

        monkeypatch.setattr(cli, "ensemble_train", no_training)
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**30)
        out = tmp_path / "o"
        argv = [two_qubit_spec if arg == "SPEC" else arg for arg in argv]
        code = run(argv + ["--steps", "10000", "--restarts", "2", "--mode", "tsne",
                           "--seed", "0", "--out", str(out)])
        assert code == 2
        assert "t-SNE of 20002 points takes" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv, message", [
        (["qaoa", "--nodes", "3", "--edges", "2", "--points", "2", "--shots", "1",
          "--steps", "2", "--restarts", "2", "--mode", "tsne", "--perplexity", "1000"],
         "perplexity 1000.0 too large for 6 points"),
        (["qaoa", "--nodes", "3", "--edges", "2", "--points", "2", "--shots", "1",
          "--steps", "2", "--restarts", "2", "--mode", "tsne", "--perplexity", "1",
          "--iters", "0"],
         "iters must be positive"),
        (["path", "--circuit", "SPEC", "--steps", "0", "--restarts", "2"],
         "need at least 3 pooled points"),
        (["path", "--circuit", "SPEC", "--steps", "1", "--restarts", "1", "--mode", "tsne"],
         "need at least 3 pooled points"),
        (["histogram", "--circuit", "SPEC", "--steps", "2", "--restarts", "1"],
         "need at least 2 ensemble members"),
        (["histogram", "--circuit", "SPEC", "--steps", "2", "--restarts", "2", "--bins", "0"],
         "bins must be positive"),
        (["landscape", "--circuit", "SPEC", "--basis", "pca", "--points", "1"],
         "points must be at least 2"),
        (["landscape", "--circuit", "SPEC", "--basis", "pca", "--range", "0"],
         "scan_range must be finite and positive"),
        (["landscape", "--circuit", "SPEC", "--basis", "pca", "--range", "-1"],
         "scan_range must be finite and positive"),
        (["landscape", "--circuit", "SPEC", "--basis", "pca", "--range", "nan"],
         "scan_range must be finite and positive"),
        (["landscape", "--circuit", "SPEC", "--basis", "pca", "--range", "1e308"],
         "the scan grid overflows"),
        (["landscape", "--circuit", "SPEC", "--basis", "pca", "--theta", "0.1"],
         "theta_star has length 1, circuit declares 2"),
        (["path", "--circuit", "SPEC", "--overlay", "--points", "1"],
         "points must be at least 2"),
        (["path", "--circuit", "SPEC", "--overlay", "--range", "0"],
         "scan_range must be finite and positive"),
        (["path", "--circuit", "SPEC", "--overlay", "--mode", "tsne"],
         "an overlay needs the pca mode"),
        (["qaoa", "--nodes", "3", "--edges", "2", "--shots", "1", "--points", "1"],
         "points must be at least 2"),
        (["qaoa", "--nodes", "3", "--edges", "2", "--shots", "1", "--points", "2",
          "--range", "1e308"],
         "the scan grid overflows"),
    ], ids=["qaoa-perplexity", "qaoa-iters", "path-points", "path-tsne-points",
            "histogram-members", "histogram-bins", "landscape-pca-points",
            "landscape-pca-range-zero", "landscape-pca-range-negative",
            "landscape-pca-range-nan", "landscape-pca-range-overflow", "landscape-pca-theta",
            "path-overlay-points", "path-overlay-range", "path-overlay-tsne", "qaoa-points",
            "qaoa-range-overflow"])
    def test_unusable_path_and_histogram_flags_fail_before_training(
            self, two_qubit_spec, tmp_path, monkeypatch, capsys, argv, message):
        # the same check, and message, as the library function reached after training
        def no_training(*args, **kwargs):
            raise AssertionError("ensemble_train called")

        monkeypatch.setattr(cli, "ensemble_train", no_training)
        out = tmp_path / "o"
        argv = [two_qubit_spec if arg == "SPEC" else arg for arg in argv]
        code = run(argv + ["--seed", "0", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, value, message", [
        ("--restarts", "0", "restarts must be positive, got 0"),
        ("--steps", "-1", "steps must be non-negative, got -1"),
    ], ids=["restarts", "steps"])
    @pytest.mark.parametrize("argv", [
        ["train", "--circuit", "SPEC"],
        ["landscape", "--circuit", "SPEC", "--basis", "pca"],
        ["path", "--circuit", "SPEC"],
        ["histogram", "--circuit", "SPEC"],
        ["reachability", "--circuit", "SPEC"],
        ["qaoa", "--nodes", "4", "--edges", "4"],
    ], ids=["train", "landscape-pca", "path", "histogram", "reachability", "qaoa"])
    def test_training_flags_are_checked_before_any_other_flag(
            self, two_qubit_spec, tmp_path, monkeypatch, capsys, argv, flag, value, message):
        # each training command checks its run before its own flags, so the
        # message names the training flag and nothing is simulated
        for module in (simulator, trainer, analyzers):
            monkeypatch.setattr(module, "simulate_map", _no_simulation)
        out = tmp_path / "o"
        argv = [two_qubit_spec if arg == "SPEC" else arg for arg in argv]
        code = run(argv + [flag, value, "--seed", "0", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["expressibility", "entanglement", "spectrum"])
    def test_oversized_sample_counts_fail_before_drawing(self, two_qubit_spec, tmp_path,
                                                         monkeypatch, capsys, command):
        # 64 KiB: the results of 10 000 samples, at least one float each, do not fit
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**16)
        out = tmp_path / "o"
        code = run([command, "--circuit", two_qubit_spec, "--samples", "10000",
                    "--seed", "0", "--out", str(out)])
        assert code == 2
        assert "the results of 10000 samples takes" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv, message", [
        (["reachability", "--samples", "10000", "--restarts", "1", "--steps", "1"],
         "the Haar cost array of 10000 samples takes"),
        (["histogram", "--steps", "1000", "--restarts", "2"],
         "a trace of 2 restart(s) over 1000 steps takes"),
    ], ids=["reachability", "histogram"])
    def test_oversized_haar_draws_and_traces_fail_before_the_first_draw(
            self, two_qubit_spec, tmp_path, monkeypatch, capsys, argv, message):
        # 64 KiB: 10 000 Haar costs, or 1 001 steps of two restarts' two
        # parameters and loss, do not fit
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**16)
        out = tmp_path / "o"
        code = run(argv[:1] + ["--circuit", two_qubit_spec, "--seed", "0",
                               "--out", str(out)] + argv[1:])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["expressibility", "--samples", "4", "--bins", "2000000000"],
        ["spectrum", "--samples", "2", "--bins", "2000000000"],
        ["histogram", "--steps", "1", "--restarts", "2", "--bins", "2000000000"],
        ["landscape", "--points", "2000000000"],
        ["landscape", "--basis", "pca", "--steps", "1", "--points", "100000"],
        ["path", "--steps", "1", "--restarts", "2", "--overlay", "--points", "100000"],
    ], ids=["expressibility", "spectrum", "histogram", "landscape", "landscape-pca",
            "path-overlay"])
    def test_oversized_bins_and_grids_fail_before_allocation(self, two_qubit_spec, tmp_path,
                                                             monkeypatch, capsys, argv):
        # and, for the commands that train, before training
        def no_training(*args, **kwargs):
            raise AssertionError("ensemble_train called")

        monkeypatch.setattr(cli, "ensemble_train", no_training)
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**30)
        code = run(argv[:1] + ["--circuit", two_qubit_spec, "--seed", "0",
                               "--out", str(tmp_path / "o")] + argv[1:])
        assert code == 2
        assert "more than half of physical memory" in capsys.readouterr().err

    def test_tsne_overlay_is_usage_error(self, two_qubit_spec, tmp_path):
        code = run(["path", "--circuit", two_qubit_spec, "--steps", "10",
                    "--mode", "tsne", "--overlay",
                    "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unusable_out_directory_is_usage_error(self, two_qubit_spec,
                                                   tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("", encoding="utf-8")
        code = run(["entanglement", "--circuit", two_qubit_spec,
                    "--samples", "2", "--seed", "1", "--out", str(blocker)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


_EDGE_FLOATS = st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308])


@st.composite
def _typed_columns(draw):
    """One to four equal-length columns, each a list of Python ints or floats
    paired with the dtype of the array the CLI would hold them in."""
    n_rows = draw(st.integers(0, 5))
    columns = []
    for is_int in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        values = st.integers(-2**63, 2**63 - 1) if is_int else st.floats() | _EDGE_FLOATS
        columns.append((draw(st.lists(values, min_size=n_rows, max_size=n_rows)),
                        np.int64 if is_int else np.float64))
    return columns


class TestCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(columns=_typed_columns())
    def test_matches_the_row_writer(self, columns):
        header = [f"c{i}" for i in range(len(columns))]
        arrays = [np.array(values, dtype=dtype) for values, dtype in columns]
        rows = zip(*(values for values, _ in columns))
        assert cli._csv(header, *arrays) == oracles.row_csv(header, rows)

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            cli._csv(["a", "b"], np.arange(2), np.zeros(3))


class TestDeterminism:
    def test_same_manifest_reproduces_report_bytes(self, two_qubit_spec,
                                                   tmp_path):
        out = str(tmp_path / "o")
        argv = ["train", "--circuit", two_qubit_spec, "--steps", "10",
                "--restarts", "2", "--seed", "21", "--out", out]
        assert run(argv) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            first = fh.read()
        assert run(argv) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            assert fh.read() == first

    def test_chunk_size_does_not_change_bytes(self, two_qubit_spec,
                                              tmp_path, monkeypatch):
        out = str(tmp_path / "o")
        argv = ["expressibility", "--circuit", two_qubit_spec,
                "--samples", "30", "--seed", "22", "--out", out]
        assert run(argv) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            whole = fh.read()
        monkeypatch.setattr(simulator, "CHUNK_BYTES", 1)  # one row per chunk
        assert run(argv) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            assert fh.read() == whole

    def test_unseeded_runs_draw_fresh_seeds(self, two_qubit_spec, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run(["entanglement", "--circuit", two_qubit_spec, "--samples", "5",
             "--out", out_a])
        run(["entanglement", "--circuit", two_qubit_spec, "--samples", "5",
             "--out", out_b])
        assert (_report(out_a)["manifest"]["seed"]
                != _report(out_b)["manifest"]["seed"])


class TestEntryPoint:
    def test_module_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pqc_lens.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "expressibility" in proc.stdout

    def test_module_with_no_args_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pqc_lens.cli"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_csv_floats_round_trip(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        run(["train", "--circuit", two_qubit_spec, "--steps", "3",
             "--seed", "30", "--out", out])
        doc = _report(out)
        with open(os.path.join(out, "trace_0.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        final_loss = float(rows[-1][1])
        assert final_loss == doc["result"]["final_losses"][0]


# ---------------------------------------------------------------------------
# fuzzing: generated argv must end in a documented exit code, never raise

_GARBAGE = st.sampled_from(["abc", "", "1e", "--", "0x1f", "1,2"])


def _mostly(good, edge):
    """``good`` five times in six, else an edge value: deep paths stay reachable."""
    return st.integers(0, 5).flatmap(lambda k: edge if k == 0 else good)


def _ints(cap: int):
    return _mostly(st.integers(1, cap).map(str),
                   st.one_of(st.sampled_from(["0", "-1", "-2", "nan", "inf"]), _GARBAGE))


def _floats(*good: str):
    return _mostly(st.sampled_from(good), st.one_of(
        st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e308"]), _GARBAGE))


def _choices(*good: str):
    return _mostly(st.sampled_from(good), st.sampled_from(["x", ""]))


_SIZES = {"--samples": 8, "--steps": 3, "--restarts": 3, "--iters": 20,
          "--points": 4, "--nodes": 5}
_OPTIONAL = {
    "--seed": _mostly(st.sampled_from(["0", "7", str(2**40)]),
                      st.one_of(st.just("-1"), _GARBAGE)),
    "--bins": _ints(6),
    "--measure": _choices("kld", "jsd", "meyer-wallach", "scott"),
    "--lr": _floats("0.05", "0.5"),
    "--method": _choices("gd", "adam"),
    "--basis": _choices("random", "pca"),
    "--theta": st.sampled_from(["0,0", "1", "nan,inf", "a,b", ",", "0.1,0.2,0.3"]),
    "--range": _floats("0.5", "3.14"),
    "--perplexity": _floats("1", "2.5"),
    "--mode": _choices("pca", "tsne"),
    "--edges": _ints(12),
    "--p": _ints(3),
    "--shots": _ints(8),
}
_COMMAND_FLAGS = {
    "expressibility": ("--samples", "--measure", "--bins"),
    "entanglement": ("--samples", "--measure"),
    "spectrum": ("--samples", "--measure", "--bins"),
    "train": ("--steps", "--restarts", "--lr", "--method"),
    "landscape": ("--steps", "--restarts", "--lr", "--method", "--basis", "--theta",
                  "--points", "--range"),
    "path": ("--steps", "--restarts", "--lr", "--method", "--mode", "--overlay",
             "--points", "--range", "--perplexity", "--iters"),
    "histogram": ("--steps", "--restarts", "--lr", "--method", "--bins"),
    "reachability": ("--steps", "--restarts", "--lr", "--method", "--samples"),
    "qaoa": ("--nodes", "--edges", "--p", "--steps", "--restarts", "--lr", "--method",
             "--shots", "--mode", "--points", "--range", "--perplexity", "--iters"),
}


@st.composite
def _argv(draw, spec: str, out: str):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    if command != "qaoa":
        argv += ["--circuit", draw(_mostly(st.just(spec), st.just(spec + ".missing")))]
    for flag in _COMMAND_FLAGS[command] + ("--seed",):
        if flag in _SIZES:
            # a size flag is always given, so no default makes a run slow
            argv += [flag, draw(_ints(_SIZES[flag]))]
        elif flag == "--overlay":
            argv += [flag] if draw(st.booleans()) else []
        elif draw(st.booleans()):
            argv += [flag, draw(_OPTIONAL[flag])]
    return argv + ["--out", out]


class TestCliFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_generated_argv_ends_in_a_documented_exit_code(self, tmp_path_factory, data):
        base = tmp_path_factory.mktemp("fuzz")
        spec = base / "two_qubit.spec.json"
        spec.write_text(serialize_circuit_spec(make_circuit(
            2, [Gate("RY", (0,), ParamRef("a")), Gate("RY", (1,), ParamRef("b")),
                Gate("CX", (0, 1))], ["a", "b"],
            PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {1: "Z"})]))),
            encoding="utf-8")
        argv = data.draw(_argv(str(spec), str(base / "out")))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        assert code in (0, 2, 3, 4), argv
