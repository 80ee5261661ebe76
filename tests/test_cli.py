import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqc_lens import Gate, ParamRef, PauliSum, make_circuit, qaoa_builder, serialize_circuit_spec
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


def _report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


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
        assert doc["result"]["value"] >= 0.0
        with open(os.path.join(out, "fidelity_histogram.csv"),
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "observed", "haar"]
        assert len(rows) == 76
        assert sum(float(r[2]) for r in rows[1:]) == pytest.approx(1.0)

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
        assert doc["result"]["subsystem_size"] == 1
        with open(os.path.join(out, "spectrum_profile.csv"),
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "xi_mean", "xi_reference"]
        assert len(rows) == 3

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
        with open(os.path.join(out, "trace_0.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "loss", "theta_0", "theta_1"]
        assert len(rows) == 17

    def test_landscape_with_explicit_theta(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["landscape", "--circuit", two_qubit_spec,
                    "--theta", "0.3,1.1", "--points", "5",
                    "--seed", "5", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "landscape")
        assert len(doc["result"]["values"]) == 5
        with open(os.path.join(out, "landscape.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phi0", "phi1", "value"]
        assert len(rows) == 26

    def test_landscape_pca_basis_trains_first(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["landscape", "--circuit", two_qubit_spec,
                    "--basis", "pca", "--steps", "10", "--points", "3",
                    "--seed", "6", "--out", out])
        assert code == 0
        doc = _report(out)
        assert doc["result"]["basis"]["origin"] is not None

    def test_path_with_overlay(self, two_qubit_spec, tmp_path):
        out = str(tmp_path / "o")
        code = run(["path", "--circuit", two_qubit_spec, "--steps", "12",
                    "--restarts", "2", "--overlay", "--points", "3",
                    "--seed", "7", "--out", out])
        assert code == 0
        doc = _check_report_envelope(out, "path")
        for name in ("path.csv", "path.svg", "overlay.csv"):
            assert name in doc["artifacts"]
        with open(os.path.join(out, "path.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["restart", "step", "loss", "x", "y"]
        assert len(rows) == 1 + 2 * 13

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
        with open(os.path.join(out, "parameter_histograms.csv"),
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "param", "bin_lo", "bin_hi", "mass"]
        assert len(rows) == 1 + 9 * 2 * 10

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

    def test_thread_count_does_not_change_bytes(self, two_qubit_spec,
                                                tmp_path, monkeypatch):
        out = str(tmp_path / "o")
        argv = ["expressibility", "--circuit", two_qubit_spec,
                "--samples", "30", "--seed", "22", "--out", out]
        monkeypatch.setenv("PQC_LENS_THREADS", "1")
        assert run(argv) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            serial = fh.read()
        monkeypatch.setenv("PQC_LENS_THREADS", "4")
        assert run(argv) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            threaded = fh.read()
        assert serial == threaded

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
    @given(data=st.data(),
           threads=_mostly(st.sampled_from(["1", "2", "4"]), st.sampled_from(["0", "x"])))
    def test_generated_argv_ends_in_a_documented_exit_code(self, tmp_path_factory,
                                                           data, threads):
        base = tmp_path_factory.mktemp("fuzz")
        spec = base / "two_qubit.spec.json"
        spec.write_text(serialize_circuit_spec(make_circuit(
            2, [Gate("RY", (0,), ParamRef("a")), Gate("RY", (1,), ParamRef("b")),
                Gate("CX", (0, 1))], ["a", "b"],
            PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {1: "Z"})]))),
            encoding="utf-8")
        argv = data.draw(_argv(str(spec), str(base / "out")))
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            mp.setenv("PQC_LENS_THREADS", threads)
            code = run(argv)
        assert code in (0, 2, 3, 4), argv
