"""Every report, and every result the command line writes, is plain JSON data."""
import json

import numpy as np
import pytest

from pqc_lens import (
    Gate,
    OptimizerConfig,
    ParamRef,
    PauliSum,
    barren_plateau_scan,
    cli,
    ensemble_train,
    entanglement_capability,
    entanglement_spectrum,
    expressibility,
    loss_landscape,
    make_circuit,
    parameter_histogram,
    reachability,
    training_path,
)

_PLAIN = (dict, list, str, int, float, bool, type(None))
# numpy integers where the analyzers take counts and seeds
SAMPLES, SEED, BINS, POINTS = np.int64(12), np.int64(3), np.int64(6), np.int64(3)


def _circuit():
    gates = [Gate("RY", (0,), ParamRef("a")), Gate("RY", (1,), ParamRef("b")),
             Gate("CX", (0, 1))]
    cost = PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {1: "Z"})])
    return make_circuit(2, gates, ["a", "b"], cost)


def _traces():
    return ensemble_train(_circuit(), OptimizerConfig(steps=4, seed=1), restarts=2)


def _overlay_path():
    traces = _traces()
    grid = loss_landscape(_circuit(), traces[0].thetas[-1], basis_mode="pca",
                          points=POINTS, seed=SEED, trace=traces[0])
    return training_path(traces, overlay=grid)


def _qaoa_result():
    args = cli.build_parser().parse_args(
        ["qaoa", "--nodes", "3", "--edges", "2", "--steps", "2", "--restarts", "2",
         "--points", "3", "--shots", "16"])
    return cli._cmd_qaoa(args, 0)[0]


DOCUMENTS = {
    "expressibility": lambda: expressibility(_circuit(), SAMPLES, bins=BINS,
                                             seed=SEED).to_dict(),
    "meyer-wallach": lambda: entanglement_capability(_circuit(), SAMPLES,
                                                     seed=SEED).to_dict(),
    "scott": lambda: entanglement_capability(_circuit(), SAMPLES, "scott",
                                             seed=SEED).to_dict(),
    "spectrum": lambda: entanglement_spectrum(_circuit(), SAMPLES, cutoff=-30,
                                              bins=BINS, seed=SEED).to_dict(),
    "landscape": lambda: loss_landscape(_circuit(), np.zeros(2), points=POINTS,
                                        seed=SEED).to_dict(),
    "barren-plateau-scan": lambda: barren_plateau_scan(_circuit(), points=POINTS).to_dict(),
    "training-path": lambda: _overlay_path().to_dict(),
    "tsne-path": lambda: training_path(_traces(), "tsne", perplexity=2.0, iters=5,
                                       seed=SEED).to_dict(),
    "parameter-histograms": lambda: parameter_histogram(_traces(), bins=BINS).to_dict(),
    "reachability": lambda: reachability(_circuit(), SAMPLES, np.int64(2),
                                         OptimizerConfig(steps=2, seed=4),
                                         seed=SEED).to_dict(),
    "training": lambda: cli._training_summary(_traces()),
    "qaoa": _qaoa_result,
}


def _assert_plain(node, where="doc"):
    # type(), not isinstance: np.float64 subclasses float
    assert type(node) in _PLAIN, f"{where} is a {type(node).__name__}"
    if isinstance(node, dict):
        for key, value in node.items():
            assert type(key) is str, f"{where} has the key {key!r}"
            _assert_plain(value, f"{where}[{key!r}]")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _assert_plain(value, f"{where}[{i}]")


@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_document_is_plain_json(name):
    doc = DOCUMENTS[name]()
    _assert_plain(doc)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["schema"] == "pqc-lens/1"


@pytest.mark.parametrize("name, key", [
    ("expressibility", "samples"), ("expressibility", "seed"),
    ("spectrum", "samples"), ("spectrum", "seed"),
    ("meyer-wallach", "samples"), ("landscape", "seed"),
    ("parameter-histograms", "bins"), ("reachability", "haar_samples"),
    ("reachability", "restarts"),
])
def test_numpy_integer_arguments_come_out_as_python_ints(name, key):
    value = DOCUMENTS[name]()[key]
    assert type(value) is int


def test_an_integer_cutoff_comes_out_as_a_float():
    cutoff = DOCUMENTS["spectrum"]()["cutoff"]
    assert cutoff == -30.0 and type(cutoff) is float


def test_a_tuple_of_edges_comes_out_as_lists():
    assert all(type(edge) is list for edge in _qaoa_result()["edges"])


def test_the_histograms_keep_their_bins():
    doc = DOCUMENTS["expressibility"]()
    assert len(doc["fidelity_histogram"]["bin_edges"]) == BINS + 1
    assert type(doc["fidelity_histogram"]["total_samples"]) is int
