"""Property tests for the batched simulation core.

A batch must give every row exactly what a lone simulation of that row
gives, agree with the dense oracles, and not depend on how rows are
split into chunks.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pqc_lens import (Gate, MetricSpec, ParamRef, PauliSum, bind, entanglement_capability,
                      entanglement_spectrum, expressibility, loss_landscape, make_circuit,
                      simulate)
from pqc_lens import simulator
from pqc_lens.circuit import BoundCircuit, CircuitSpecError, compile_program
from pqc_lens.library import layered_ansatz
from pqc_lens.simulator import simulate_batch
from pqc_lens.trainer import cost_batch, gradient_batch


def _circuit_and_thetas(seed: int, rows: int, with_cost: bool = False):
    rng = np.random.default_rng(seed)
    circuit = oracles.random_circuit(rng, max_qubits=6, max_gates=40,
                                     with_cost=with_cost)
    thetas = rng.uniform(0, 2 * np.pi, (rows, circuit.n_params))
    return circuit, thetas


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 9))
def test_batch_rows_match_lone_and_dense_simulation(seed, rows):
    circuit, thetas = _circuit_and_thetas(seed, rows)
    program = compile_program(circuit)
    states = simulate_batch(program, program.angles(thetas))
    assert states.shape == (rows, 2**circuit.n_qubits)
    for theta, row in zip(thetas, states):
        bound = bind(circuit, theta)
        assert np.array_equal(row, simulate(bound).amplitudes)
        assert np.max(np.abs(row - oracles.dense_simulate(bound))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_batched_gradient_matches_finite_differences(seed, points):
    circuit, thetas = _circuit_and_thetas(seed, points, with_cost=True)
    grads = gradient_batch(circuit, thetas)
    assert grads.shape == (points, circuit.n_params)
    for theta, grad in zip(thetas, grads):
        assert grad == pytest.approx(oracles.fd_gradient(circuit, theta), abs=1e-6)


def _simulate_map_outputs(circuit, thetas, samples, seed) -> list:
    """What every caller of simulate_map returns for these inputs, as lists."""
    spread = MetricSpec("from_samples", lambda bits: bits.mean(), shots=16)
    out = [expressibility(circuit, samples, seed=seed).to_dict(),
           cost_batch(circuit, thetas).tolist()]
    if circuit.n_params:
        for metric in (None, spread):
            out.append(loss_landscape(circuit, thetas[0], metric=metric, points=3,
                                      seed=seed).to_dict())
    if circuit.n_qubits > 1:
        out.append(entanglement_capability(circuit, samples, "scott", seed=seed).to_dict())
        out.append(entanglement_spectrum(circuit, samples, seed=seed).to_dict())
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 40))
def test_chunk_boundaries_do_not_change_expressibility(seed, samples):
    # expressibility, Scott and the spectrum, the cost, and both landscape
    # metric modes: one big range versus one item per range
    circuit, thetas = _circuit_and_thetas(seed, samples, with_cost=True)
    whole = _simulate_map_outputs(circuit, thetas, samples, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "CHUNK_BYTES", 1)
        assert _simulate_map_outputs(circuit, thetas, samples, seed) == whole


# Circuits built as runs of single-qubit gates on one qubit, the shapes
# compile_program fuses: diagonal-only runs, mixed runs, runs with literal,
# shared and scaled angles, gates on other qubits inside a run, and
# two-qubit gates cutting a run.

_SINGLE = ("H", "X", "Y", "Z", "RX", "RY", "RZ")
_DIAGONAL = ("Z", "RZ")
_ROTATIONS = ("RX", "RY", "RZ")


@st.composite
def fusable_circuits(draw):
    n = draw(st.integers(1, 5))
    names = [f"p{i}" for i in range(draw(st.integers(0, 3)))]
    used: set[str] = set()
    gates = []

    def angle():
        if not names or draw(st.booleans()):
            return draw(st.floats(-3.0, 3.0))
        name = draw(st.sampled_from(names))
        used.add(name)
        return ParamRef(name, draw(st.sampled_from([1.0, 2.0, -0.5, 1.7])))

    for _ in range(draw(st.integers(1, 6))):
        q = draw(st.integers(0, n - 1))
        pool = draw(st.sampled_from([_DIAGONAL, _SINGLE, ("X",), ("H", "Y")]))
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(pool))
            gates.append(Gate(kind, (q,), angle() if kind in _ROTATIONS else None))
            if n > 1 and draw(st.integers(0, 3)) == 0:
                other = draw(st.integers(0, n - 2))
                other += other >= q
                if draw(st.booleans()):
                    gates.append(Gate(draw(st.sampled_from(_SINGLE[:4])), (other,)))
                else:
                    pair = (q, other) if draw(st.booleans()) else (other, q)
                    gates.append(Gate(draw(st.sampled_from(("CX", "CZ"))), pair))
    for name in names:
        if name not in used:
            gates.append(Gate("RZ", (0,), ParamRef(name)))
    cost = PauliSum.from_terms(
        [(draw(st.floats(-1.0, 1.0)), {q: draw(st.sampled_from("XYZ"))})
         for q in range(n)])
    circuit = make_circuit(n, gates, names, cost)
    rows = draw(st.integers(1, 5))
    thetas = np.random.default_rng(draw(st.integers(0, 10**9))).uniform(
        -2 * np.pi, 2 * np.pi, (rows, circuit.n_params))
    return circuit, thetas


@settings(max_examples=80, deadline=None)
@given(fusable_circuits())
def test_fused_rows_match_lone_and_dense_simulation(case):
    circuit, thetas = case
    program = compile_program(circuit)
    states = simulate_batch(program, program.angles(thetas))
    for theta, row in zip(thetas, states):
        bound = bind(circuit, theta)
        assert np.array_equal(row, simulate(bound).amplitudes)
        assert np.max(np.abs(row - oracles.dense_simulate(bound))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(fusable_circuits())
def test_fused_gradient_matches_finite_differences(case):
    circuit, thetas = case
    for theta, grad in zip(thetas, gradient_batch(circuit, thetas)):
        assert grad == pytest.approx(oracles.fd_gradient(circuit, theta), abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(fusable_circuits())
def test_bind_keeps_one_gate_per_circuit_gate(case):
    circuit, thetas = case
    bound = bind(circuit, thetas[0])
    assert [(g.kind, g.targets) for g in bound.gates] == \
        [(g.kind, g.targets) for g in circuit.gates]
    assert all((g.angle is None) == (b.angle is None)
               for g, b in zip(circuit.gates, bound.gates))


@pytest.mark.parametrize("rows", [2, 3, 5, 8])
def test_batched_row_is_bit_identical_to_lone_row(rows):
    # RX, RZ, RX runs on parameter columns: per-row products of 2 x 2 matrices
    circuit = layered_ansatz(4, 2, "chain")
    thetas = np.random.default_rng(rows).uniform(0, 2 * np.pi, (rows, circuit.n_params))
    program = compile_program(circuit)
    angles = program.angles(thetas)
    states = simulate_batch(program, angles)
    for i, theta in enumerate(thetas):
        assert np.array_equal(states[i], simulate_batch(program, angles[i:i + 1])[0])
        assert np.array_equal(states[i], simulate(bind(circuit, theta)).amplitudes)


def test_row_blocks_of_a_deep_circuit_match_one_block(monkeypatch):
    # a row costs its state plus one 2 x 2 rotation matrix per angle column
    ansatz = layered_ansatz(3, 6, "chain")
    circuit = make_circuit(3, ansatz.gates, [p.name for p in ansatz.parameters],
                           PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {2: "X"})]))
    thetas = np.random.default_rng(0).uniform(0, 2 * np.pi, (7, circuit.n_params))
    whole = cost_batch(circuit, thetas)
    blocks = []

    def counted(program, angles):
        blocks.append(angles.shape[0])
        return simulate_batch(program, angles)

    monkeypatch.setattr(simulator, "simulate_batch", counted)
    monkeypatch.setattr(simulator, "CHUNK_BYTES",
                        3 * 16 * (2**3 + 4 * circuit.program.kinds.size))
    assert np.array_equal(cost_batch(circuit, thetas), whole)
    assert blocks == [3, 3, 1]


def test_layer_of_rotations_fuses_to_one_op_per_qubit():
    program = compile_program(layered_ansatz(18, 1, "chain"))
    assert len(program.ops) == 18 + 17
    assert [form for form, *_ in program.ops].count("dense") == 18
    assert len(program.params) == 3 * 18  # one angle column per rotation


@pytest.mark.parametrize("gates, form", [
    ([Gate("RZ", (0,), 0.3), Gate("Z", (0,)), Gate("RZ", (0,), 1.1)], "diag"),
    ([Gate("X", (0,))], "perm"),
    ([Gate("H", (0,))], "dense"),
    ([Gate("Y", (0,))], "dense"),
    ([Gate("X", (0,)), Gate("X", (0,))], "dense"),
    ([Gate("RZ", (0,), 0.3), Gate("RX", (0,), 0.2)], "dense"),
])
def test_run_form(gates, form):
    ops = compile_program(make_circuit(1, gates)).ops
    assert [op[0] for op in ops] == [form]


@pytest.mark.parametrize("gate", [
    Gate("RX", (0, 1), 0.3),
    Gate("CX", (0,)),
    Gate("CZ", (1, 1)),
    Gate("H", (2,)),
    Gate("T", (0,)),
    Gate("RX", (0,), float("nan")),
    Gate("RY", (1,), float("inf")),
    Gate("RX", (0,)),
    Gate("H", (0,), 0.3),
    Gate("CX", (0, 1), 0.3),
])
def test_malformed_bound_gate_is_rejected(gate):
    with pytest.raises(CircuitSpecError):
        simulate(BoundCircuit(2, (gate,)))
