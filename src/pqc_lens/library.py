"""Ready-made circuit templates, cost observables, and small graph helpers.

Everything here is a plain CircuitDescriptor builder; nothing is special to
the analyzers. Parameter names follow the theta_{i} convention so tabular
output stays aligned with parameter indices.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .circuit import (
    ROTATION_KINDS,
    CircuitDescriptor,
    Gate,
    ParamRef,
    PauliSum,
    _check_choice,
    _check_count,
    _check_edges,
    _check_integer,
    _resolve_seed,
    make_circuit,
)

_ENTANGLERS = {"chain": lambda n: zip(range(n - 1), range(1, n)),
               "full": lambda n: combinations(range(n), 2), "none": lambda n: ()}
ENTANGLER_STYLES = tuple(_ENTANGLERS)


def _rotation_block(qubit: int, names: list[str], gates: list[Gate]) -> None:
    for kind in ("RX", "RZ", "RX"):
        name = f"theta_{len(names)}"
        names.append(name)
        gates.append(Gate(kind, (qubit,), ParamRef(name)))


def layered_ansatz(n_qubits: int, layers: int,
                   entangler: str = "chain") -> CircuitDescriptor:
    """L layers of per-qubit RX,RZ,RX rotations plus an entangling block.

    entangler selects the block: "chain" couples neighbours with
    CX(i, i+1), "full" couples every pair CX(i, j) with i < j, "none"
    leaves the layer as bare rotations. Every rotation gets its own fresh
    parameter, 3 * n_qubits * layers in total.
    """
    _check_choice(entangler, "entangler", ENTANGLER_STYLES)
    _check_integer(n_qubits, "n_qubits")
    _check_count(layers, "layers")
    names: list[str] = []
    gates: list[Gate] = []
    for _ in range(layers):
        for q in range(n_qubits):
            _rotation_block(q, names, gates)
        gates += [Gate("CX", pair) for pair in _ENTANGLERS[entangler](n_qubits)]
    return make_circuit(n_qubits, gates, names)


def rotation_ansatz(n_qubits: int) -> CircuitDescriptor:
    """Single layer of RX,RZ,RX per qubit with no entanglers at all."""
    return layered_ansatz(n_qubits, 1, entangler="none")


def append_pairwise_cx(circuit: CircuitDescriptor, count: int) -> CircuitDescriptor:
    """Append the first `count` CX(i, j) gates, pairs ordered i < j.

    The pair sequence for n qubits is (0,1), (0,2), ..., (n-2,n-1); count
    may run up to n*(n-1)/2.
    """
    pairs = list(combinations(range(circuit.n_qubits), 2))
    _check_count(count, "count", 0, len(pairs))
    gates = list(circuit.gates) + [Gate("CX", pair) for pair in pairs[:count]]
    return make_circuit(circuit.n_qubits, gates,
                        circuit.parameter_names, circuit.cost)


def idle_circuit(n_qubits: int = 1) -> CircuitDescriptor:
    """No gates, no parameters; always prepares |0...0>."""
    return make_circuit(n_qubits, [], [])


def single_qubit_chain(rotations) -> CircuitDescriptor:
    """H followed by the given rotation kinds, one fresh parameter each.

    single_qubit_chain(["RZ", "RX"]) builds H, RZ(theta_0), RX(theta_1).
    """
    names: list[str] = []
    gates: list[Gate] = [Gate("H", (0,))]
    for kind in rotations:
        _check_choice(kind, "rotation kind", ROTATION_KINDS)
        name = f"theta_{len(names)}"
        names.append(name)
        gates.append(Gate(kind, (0,), ParamRef(name)))
    return make_circuit(1, gates, names)


def bell_circuit() -> CircuitDescriptor:
    """H(0), CX(0,1): parameter-free maximally entangled pair."""
    return make_circuit(2, [Gate("H", (0,)), Gate("CX", (0, 1))], [])


def paired_blocks_circuit() -> CircuitDescriptor:
    """Two independent entangled pairs on 4 qubits.

    RX, RZ on qubits 0 and 2, then CX(0,1) and CX(2,3), so qubits {0,1}
    and {2,3} each form their own block with no correlation across blocks.
    """
    gates = [
        Gate("RX", (0,), ParamRef("theta_0")),
        Gate("RZ", (0,), ParamRef("theta_1")),
        Gate("RX", (2,), ParamRef("theta_2")),
        Gate("RZ", (2,), ParamRef("theta_3")),
        Gate("CX", (0, 1)),
        Gate("CX", (2, 3)),
    ]
    return make_circuit(4, gates, [f"theta_{i}" for i in range(4)])


def identity_learning_ansatz(n_qubits: int = 2) -> CircuitDescriptor:
    """Two-parameter ansatz whose target is to do nothing to |0...0>.

    RX(theta_0) on qubit 0, RX(theta_1) on qubit 1, then a CZ chain.
    With n_qubits=2 this is exactly RX(0), RX(1), CZ(0,1). Larger n adds
    qubits carrying a fixed RX(pi/2), the halfway angle, so each one
    damps the all-zeros overlap by its average factor of 1/2 while the
    parameter count stays 2. That keeps a (theta_0, theta_1) grid scan
    meaningful and lets the global cost flatten with width where the
    local cost does not.
    """
    _check_count(n_qubits, "n_qubits", 2)
    gates = [Gate("RX", (0,), ParamRef("theta_0")),
             Gate("RX", (1,), ParamRef("theta_1"))]
    for q in range(2, n_qubits):
        gates.append(Gate("RX", (q,), math.pi / 2))
    for q in range(n_qubits - 1):
        gates.append(Gate("CZ", (q, q + 1)))
    return make_circuit(n_qubits, gates, ["theta_0", "theta_1"])


def all_zeros_infidelity_cost(n_qubits: int) -> PauliSum:
    """1 - p(every qubit reads 0): the identity minus the projector onto
    |0...0>, written as one P0 factor per qubit, so two terms at any width."""
    _check_count(n_qubits, "n_qubits")
    return PauliSum.from_terms([(1.0, {}), (-1.0, {q: "P0" for q in range(n_qubits)})])


def mean_excitation_cost(n_qubits: int) -> PauliSum:
    """1 - mean over qubits of p(qubit reads 0), i.e. the average
    excitation probability: 1/2 - (1/2n) sum_j Z_j."""
    _check_count(n_qubits, "n_qubits")
    terms = [(0.5, {})]
    terms += [(-0.5 / n_qubits, {q: "Z"}) for q in range(n_qubits)]
    return PauliSum.from_terms(terms)


def random_gnm_edges(n_nodes: int, n_edges: int, seed=None) -> tuple:
    """Uniform simple graph with exactly n_edges edges, in combinations order."""
    _check_integer(n_nodes, "n_nodes")
    _check_integer(n_edges, "n_edges")
    n_pairs = math.comb(max(n_nodes, 0), 2)
    if not 1 <= n_edges <= n_pairs:
        raise ValueError(f"n_edges must be in [1, {n_pairs}] for {n_nodes} nodes, "
                         f"got {n_edges!r}")
    rng = np.random.default_rng(_resolve_seed(seed))
    edges = []
    for k in map(int, sorted(rng.choice(n_pairs, size=n_edges, replace=False))):
        # pair k without listing the pairs: rows i = n - 2, n - 3, ... hold 1, 2, ...
        i = n_nodes - 2 - (math.isqrt(8 * (n_pairs - 1 - k) + 1) - 1) // 2
        edges.append((i, k - i * (2 * n_nodes - i - 3) // 2 + 1))
    return tuple(edges)


def _cuts(edges, bits: np.ndarray) -> np.ndarray:
    """Per row of a (rows, n_nodes) 0/1 matrix, the edges its labels cut, as floats."""
    crossings = np.zeros(bits.shape[0])
    for u, v in edges:
        crossings += bits[:, u] != bits[:, v]
    return crossings


def max_cut_size(edges, n_nodes: int) -> int:
    """Brute-force MaxCut value: the largest cut over all 2^n assignments,
    enumerated in numpy as one (2^n, n) uint8 matrix; capped at 20 nodes.
    Every edge joins two distinct nodes in [0, n_nodes)."""
    edges = tuple(edges)
    _check_edges(edges, n_nodes)
    if n_nodes > 20:
        raise ValueError(f"brute force capped at 20 nodes, got {n_nodes!r}")
    assignments = np.arange(2**n_nodes)
    bits = np.empty((assignments.size, n_nodes), dtype=np.uint8, order="F")
    for q in range(n_nodes):  # one contiguous column at a time: 2^n int64 words, not 2^n * n
        bits[:, q] = (assignments >> (n_nodes - 1 - q)) & 1
    return int(_cuts(edges, bits).max())


def mean_cut_scorer(edges):
    """Scoring rule for sampled bitstring ensembles: mean cut size.

    Returns a callable taking a (shots, n_qubits) 0/1 matrix, as produced
    by ShotCounts.bit_matrix, and averaging the cut over rows. The edges
    are checked when the scorer is built, and against the matrix's width
    when it scores.
    """
    edge_list = tuple(edges)
    _check_edges(edge_list)
    width = max((max(u, v) + 1 for u, v in edge_list), default=0)

    def score(bit_matrix) -> float:
        bits = np.asarray(bit_matrix)
        if bits.ndim != 2:
            raise ValueError("expected a (shots, n_qubits) matrix")
        _check_count(bits.shape[1], "bit matrix width", width)
        return float(_cuts(edge_list, bits).mean())

    return score
