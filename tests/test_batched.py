"""Property tests for the batched simulation core.

A batch must give every row exactly what a lone simulation of that row
gives, agree with the dense oracles, and not depend on how rows are
split into chunks.
"""
import tracemalloc
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from pqc_lens import (Gate, MetricSpec, OptimizerConfig, ParamRef, PauliSum, bind,
                      entanglement_capability, entanglement_spectrum, expressibility,
                      loss_landscape, make_circuit, simulate)
from pqc_lens import analyzers, simulator
from pqc_lens.baselines import xi_profiles
from pqc_lens.circuit import (CircuitDescriptor, CircuitSpecError, compile_program,
                              qaoa_builder)
from pqc_lens.library import layered_ansatz, random_gnm_edges
from pqc_lens.simulator import StateVector, expectation_batch, sample, simulate_batch
from pqc_lens.trainer import _loss_and_gradient, cost_batch, ensemble_train


def _circuit_and_thetas(seed: int, rows: int, with_cost: bool = False):
    rng = np.random.default_rng(seed)
    circuit = oracles.random_circuit(rng, max_qubits=6, max_gates=40,
                                     with_cost=with_cost)
    thetas = rng.uniform(0, 2 * np.pi, (rows, circuit.n_params))
    return circuit, thetas


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 9))
# a 2-qubit circuit of 2-qubit blocks: with its Kronecker matrices passed to
# matmul as strided views, numpy took its own loop at B = 1 and BLAS at
# B = 2, and the rows differed
@example(2759, 2)
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
    grads = _loss_and_gradient(circuit, thetas)[1]
    assert grads.shape == (points, circuit.n_params)
    for theta, grad in zip(thetas, grads):
        assert grad == pytest.approx(oracles.fd_gradient(circuit, theta), abs=1e-6)


def _simulate_map_outputs(circuit, thetas, samples, seed) -> list:
    """What every caller of simulate_map returns for these inputs, as lists."""
    spread = MetricSpec(lambda bits: bits.mean(), shots=16)
    loss, grad = _loss_and_gradient(circuit, thetas)
    traces = ensemble_train(circuit, OptimizerConfig(steps=2, seed=seed), 2)
    out = [expressibility(circuit, samples, seed=seed).to_dict(),
           cost_batch(circuit, thetas).tolist(), loss.tolist(), grad.tolist(),
           [(t.thetas.tolist(), t.losses.tolist()) for t in traces]]
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
    # expressibility, Scott and the spectrum, the cost, the shifted rows of
    # a gradient and of two restarts' training, and both landscape metric
    # modes: one big range versus one item per range
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
    for theta, grad in zip(thetas, _loss_and_gradient(circuit, thetas)[1]):
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
    # every angle column is read by a dense op here, and each of the five
    # layers after the opening is one 3-qubit block; a chunk of three rows
    ansatz = layered_ansatz(3, 6, "chain")
    circuit = make_circuit(3, ansatz.gates, [p.name for p in ansatz.parameters],
                           PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {2: "X"})]))
    program = circuit.program
    assert program.dense_columns.tolist() == list(range(program.kinds.size))
    assert [(op[1], len(op[2])) for op in program.ops[program.opening:]
            if op[0] == "dense"] == [(0, 3)] * 5
    thetas = np.random.default_rng(0).uniform(0, 2 * np.pi, (7, circuit.n_params))
    whole = cost_batch(circuit, thetas)
    blocks = []

    def counted(program, angles):
        blocks.append(angles.shape[0])
        return simulate_batch(program, angles)

    monkeypatch.setattr(simulator, "simulate_batch", counted)
    monkeypatch.setattr(simulator, "CHUNK_BYTES", 3 * simulator._row_bytes(3, program))
    assert np.array_equal(cost_batch(circuit, thetas), whole)
    assert blocks == [3, 3, 1]


def test_layer_of_rotations_fuses_to_one_op_per_qubit():
    # each qubit's RX, RZ, RX is one dense op; each layer's CX block one mono op
    program = compile_program(layered_ansatz(19, 1, "chain"))
    assert [form for form, *_ in program.ops] == ["dense"] * 19 + ["mono"]
    assert len(program.params) == 3 * 19  # one angle column per rotation
    assert [len(factors) for _, _, (factors,) in program.ops[:19]] == [3] * 19
    program = compile_program(layered_ansatz(8, 4, "full"))
    # after the opening, each layer's 8 runs form 3 blocks
    assert [form for form, *_ in program.ops] == \
        ["dense"] * 8 + ["mono"] + (["dense"] * 3 + ["mono"]) * 3


def _blocks(program) -> list:
    """(first qubit, width) of each dense op after the opening."""
    return [(op[1], len(op[2])) for op in program.ops[program.opening:] if op[0] == "dense"]


def _has_block(program) -> bool:
    return any(len(op[2]) > 1 for op in program.ops[program.opening:] if op[0] == "dense")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([1, 2, 5]))
def test_block_rows_match_lone_and_dense_simulation(seed, rows):
    rng = np.random.default_rng(seed)
    circuit = oracles.random_circuit(rng, max_qubits=7, max_gates=40, min_qubits=2)
    assume(_has_block(circuit.program))
    program = circuit.program
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (rows, circuit.n_params))
    angles = program.angles(thetas)
    states = simulate_batch(program, angles)
    for i, theta in enumerate(thetas):
        assert np.array_equal(states[i], simulate_batch(program, angles[i:i + 1])[0])
        assert np.max(np.abs(states[i] - oracles.dense_simulate(bind(circuit, theta)))) <= 1e-12


def test_layer_after_the_opening_compiles_to_three_qubit_blocks():
    program = compile_program(layered_ansatz(8, 2, "full"))
    assert _blocks(program) == [(0, 3), (3, 3), (6, 2)]
    # each run keeps its RX, RZ, RX columns
    runs = [factors for op in program.ops[program.opening:] if op[0] == "dense"
            for factors in op[2]]
    assert [len(factors) for factors in runs] == [3] * 8
    assert _blocks(compile_program(layered_ansatz(5, 2, "chain"))) == [(0, 3), (3, 2)]


def test_runs_on_qubits_that_are_not_adjacent_stay_one_qubit_ops():
    # the 19-qubit layer, CX chain and lone RY on qubits 2, 9 and 17: each RY
    # keeps the elementwise 2 x 2 pass
    gates = [Gate("RY", (q,), 0.1 * q) for q in range(19)]
    gates += [Gate("CX", (q, q + 1)) for q in range(18)]
    gates += [Gate("RY", (q,), 0.3) for q in (17, 2, 9)]
    assert _blocks(make_circuit(19, gates).program) == [(2, 1), (9, 1), (17, 1)]
    # runs on qubits 1, 2, 3, 4 and 6: a block of three, then 4 and 6 alone
    gates = [Gate("CZ", (0, 6)), Gate("CZ", (1, 4)), Gate("CZ", (2, 3))]
    gates += [Gate("H", (q,)) for q in (6, 4, 3, 2, 1)]
    assert _blocks(make_circuit(7, gates).program) == [(1, 3), (4, 1), (6, 1)]


@pytest.mark.parametrize("gates, form", [
    ([Gate("RZ", (0,), 0.3), Gate("Z", (0,)), Gate("RZ", (0,), 1.1)], "mono"),
    ([Gate("X", (0,))], "mono"),
    ([Gate("H", (0,))], "dense"),
    ([Gate("Y", (0,))], "dense"),
    ([Gate("X", (0,)), Gate("X", (0,))], "mono"),
    ([Gate("RZ", (0,), 0.3), Gate("RX", (0,), 0.2)], "dense"),
    ([Gate("X", (0,)), Gate("RZ", (0,), 0.3)], "mono"),
    ([Gate("Z", (0,)), Gate("X", (0,))], "mono"),
])
def test_run_form(gates, form):
    # a run after a CX joins its mono op when every gate of it is X, Z or RZ
    ops = compile_program(make_circuit(2, [Gate("CX", (1, 0))] + gates)).ops
    assert [op[0] for op in ops] == (["mono"] if form == "mono" else ["mono", "dense"])


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
        simulate(CircuitDescriptor(2, (gate,)))


# The opening of a circuit: every qubit's first op, when it is a single-qubit
# op, hoisted to the front of the program and written as a product state.

def test_opening_of_a_layer_of_rotations_is_every_qubit_run():
    program = compile_program(layered_ansatz(19, 1, "chain"))
    assert program.opening == 19
    assert [op[:2] for op in program.ops[:19]] == [("dense", q) for q in range(19)]
    (form, mono), = program.ops[19:]
    # the CX chain leaves qubit q holding the XOR of qubits 0..q, so source
    # qubit q is output qubit q XOR output qubit q - 1 (qubit q is bit 18 - q)
    assert form == "mono" and (mono.constant, mono.signs, mono.angles.size) == (0, 0, 0)
    assert mono.columns == (1,) + tuple(3 * 2**(j - 1) for j in range(1, 19))


def test_opening_of_qaoa_is_its_hadamard_layer():
    edges = [(q, (q + 1) % 8) for q in range(8)]
    program = compile_program(qaoa_builder(edges, 1))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert program.opening == 8
    for q, (form, qubit, (factors,)) in enumerate(program.ops[:8]):
        assert (form, qubit, len(factors)) == ("dense", q, 1)
        assert np.array_equal(factors[0][..., 0], hadamard)
    # the cost layer is one phase with no gather: RZ k reads the parity of
    # its edge's two bits (qubit q is bit 7 - q)
    form, mono = program.ops[8]
    assert form == "mono" and mono.columns is None and mono.signs == 0
    assert mono.angles.tolist() == list(range(8))
    assert [np.flatnonzero(row[::-1]).tolist() for row in mono.masks] == \
        [sorted(edge) for edge in edges]
    assert not mono.flips.any()
    # the RX mixer layer: blocks over qubits 0-2, 3-5 and 6-7
    assert _blocks(program) == [(0, 3), (3, 3), (6, 2)] and len(program.ops) == 12


def test_no_opening_at_or_after_a_two_qubit_gate():
    # qubits 0 and 1 open with a CX; qubit 2's RX is hoisted, its Y after the
    # CZ is not. The CX and the CZ then meet and become one mono op
    circuit = make_circuit(3, [Gate("CX", (0, 1)), Gate("H", (0,)), Gate("RX", (2,), 0.3),
                               Gate("CZ", (1, 2)), Gate("Y", (2,))])
    program = compile_program(circuit)
    assert program.opening == 1
    assert [op[0] for op in program.ops] == ["dense", "mono", "dense", "dense"]
    assert [program.ops[i][1] for i in (0, 2, 3)] == [2, 0, 2]
    mono = program.ops[1][1]
    assert (mono.columns, mono.constant, mono.signs) == ((1, 2, 6), 0, 1)
    assert compile_program(make_circuit(2, [Gate("CX", (0, 1)), Gate("H", (1,))])).opening == 0


def test_empty_circuit_has_no_opening_and_stays_at_zero():
    program = compile_program(make_circuit(2, []))
    assert (program.ops, program.opening) == ((), 0)
    states = simulate_batch(program, np.empty((3, 0)))
    assert np.array_equal(states, np.eye(1, 4, dtype=complex).repeat(3, axis=0))


_OPENINGS = ((), ("X",), ("H",), ("Y",), ("H", "Y"), ("Z",), ("Z", "Z"), ("RZ",),
             ("Z", "RZ"), ("RX", "RZ", "RX"), ("RY", "X"))


@st.composite
def opening_circuits(draw):
    """Circuits whose qubits open with the runs that are hoisted as "dense"
    ops: a lone X, H or Y, a constant diagonal (Z, or Z Z whose product is
    the identity), rotations, or nothing, in any qubit order, with
    two-qubit gates between the openings; some qubits never meet a
    two-qubit gate."""
    n = draw(st.integers(1, 8))
    names = ["a", "b"]
    lonely = draw(st.sets(st.integers(0, n - 1)))
    paired = [q for q in range(n) if q not in lonely]
    gates = []

    def single(kind, q):
        angle = None
        if kind in _ROTATIONS:
            angle = ParamRef(draw(st.sampled_from(names)), draw(st.sampled_from([1.0, -0.5])))
        gates.append(Gate(kind, (q,), angle))

    def maybe_pair():
        if len(paired) > 1 and draw(st.booleans()):
            a, b = draw(st.permutations(paired))[:2]
            gates.append(Gate(draw(st.sampled_from(("CX", "CZ"))), (a, b)))

    for q in draw(st.permutations(range(n))):
        for kind in draw(st.sampled_from(_OPENINGS)):
            single(kind, q)
        maybe_pair()
    for _ in range(draw(st.integers(0, 6))):
        single(draw(st.sampled_from(_SINGLE)), draw(st.integers(0, n - 1)))
        maybe_pair()
    gates += [Gate("RZ", (0,), ParamRef(name)) for name in names]
    circuit = make_circuit(n, gates, names)
    thetas = np.random.default_rng(draw(st.integers(0, 10**9))).uniform(
        -2 * np.pi, 2 * np.pi, (draw(st.sampled_from([1, 2, 5, 8])), 2))
    return circuit, thetas


@settings(max_examples=80, deadline=None)
@given(opening_circuits())
def test_opening_rows_match_lone_and_dense_simulation(case):
    circuit, thetas = case
    program = compile_program(circuit)
    first = {}
    for g in circuit.gates:
        for q in g.targets:
            first.setdefault(q, len(g.targets) == 1)
    opening = program.ops[:program.opening]
    assert {form for form, *_ in opening} <= {"dense"}
    # in ascending qubit order
    assert [qubit for _, qubit, _ in opening] == \
        sorted(q for q, single in first.items() if single)
    angles = program.angles(thetas)
    states = simulate_batch(program, angles)
    for i, theta in enumerate(thetas):
        assert np.array_equal(states[i], simulate_batch(program, angles[i:i + 1])[0])
        dense = oracles.dense_simulate(bind(circuit, theta))
        assert np.max(np.abs(states[i] - dense)) <= 1e-12


@pytest.mark.parametrize("chunk_bytes", [simulator.CHUNK_BYTES, 1])
@pytest.mark.parametrize("rows", [1, 2, 5, 33])
def test_opening_rows_are_bit_identical_to_lone_rows(monkeypatch, rows, chunk_bytes):
    circuits = [layered_ansatz(5, 2, ent) for ent in ("chain", "full", "none")]
    circuits.append(qaoa_builder([(q, (q + 1) % 6) for q in range(6)], 2))
    circuits.append(make_circuit(4, [
        Gate("X", (0,)), Gate("Z", (1,)), Gate("H", (2,)), Gate("RY", (2,), ParamRef("a")),
        Gate("Y", (3,)), Gate("CX", (0, 2)), Gate("RX", (1,), ParamRef("b", 2.0))], ["a", "b"]))
    # the opening places qubit 1, then 2, with 0 and 3 held at 0: the slices
    # written and read interleave in memory
    circuits.append(make_circuit(4, [
        Gate("RX", (1,), ParamRef("a")), Gate("RZ", (1,), ParamRef("b")),
        Gate("RY", (2,), ParamRef("b")), Gate("RZ", (2,), ParamRef("a")),
        Gate("CZ", (0, 3)), Gate("CX", (1, 2))], ["a", "b"]))
    monkeypatch.setattr(simulator, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(rows)
    for circuit in circuits:
        program = compile_program(circuit)
        angles = program.angles(rng.uniform(-2 * np.pi, 2 * np.pi, (rows, circuit.n_params)))
        states = simulator.simulate_map(lambda states, _: states, program,
                                        lambda r: angles[r.start:r.stop], rows)
        for i in range(rows):
            assert np.array_equal(states[i], simulate_batch(program, angles[i:i + 1])[0])


# The ensemble runner: a sample's results do not depend on how many samples
# follow it, so S' samples are the first S' of S.


@pytest.mark.parametrize("chunk_bytes", [simulator.CHUNK_BYTES, 1])
@pytest.mark.parametrize("circuit", [layered_ansatz(6, 2, "full"), layered_ansatz(7, 2, "chain")],
                         ids=["6q-2l-full", "7q-2l-chain"])
def test_ensemble_results_are_prefix_stable(monkeypatch, circuit, chunk_bytes):
    monkeypatch.setattr(simulator, "CHUNK_BYTES", chunk_bytes)
    n = circuit.n_qubits
    k = (n + 1) // 2
    reductions = [(analyzers._pair_fidelities, 2),
                  (partial(analyzers._block_impurities, n=n, m_values=range(1, n // 2 + 1)), 1),
                  (partial(xi_profiles, k=k, cutoff=-30.0,
                           rank=analyzers._schmidt_rank_bound(circuit, k)), 1)]
    for reduce, draws in reductions:
        base, results = analyzers._ensemble(circuit, 9, 11, reduce, draws)
        assert base == 11 and results.shape[0] == 9
        for prefix in (1, 4, 8):
            _, head = analyzers._ensemble(circuit, prefix, 11, reduce, draws)
            assert np.array_equal(head, results[:prefix])


# Scott's level scheme: Gram matrices for the top-level blocks only, every
# smaller block traced out of one of them.


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**9))
def test_block_impurities_match_traced_density_matrices(n, seed):
    rng = np.random.default_rng(seed)
    circuit = oracles.random_circuit(rng, max_qubits=n, max_gates=30, min_qubits=n)
    program = compile_program(circuit)
    states = simulate_batch(program, program.angles(rng.uniform(-np.pi, np.pi,
                                                                (3, circuit.n_params))))
    m_values = range(1, n // 2 + 1)
    for psi, row in zip(states, analyzers._block_impurities(states, n, m_values)):
        for m, impurity in zip(m_values, row):
            purity = np.mean([np.sum(np.abs(oracles.kron_and_trace(psi, block, n)) ** 2)
                              for block in combinations(range(n), m)])
            scale = 2.0**m / (2.0**m - 1.0)
            assert abs(scale * impurity - scale * (1.0 - purity)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_meyer_wallach_columns_equal_the_exhaustive_loop(n):
    circuit = layered_ansatz(n, 2, "full")
    program = circuit.program
    thetas = np.random.default_rng(n).uniform(0, 2 * np.pi, (5, circuit.n_params))
    states = simulate_batch(program, program.angles(thetas))
    assert np.array_equal(analyzers._block_impurities(states, n, range(1, 2)),
                          oracles.exhaustive_block_impurities(states, n, range(1, 2)))


@pytest.mark.parametrize("chunk_bytes", [simulator.CHUNK_BYTES, 1])
@pytest.mark.parametrize("circuit", [layered_ansatz(6, 2, "full"), layered_ansatz(7, 2, "chain"),
                                     layered_ansatz(8, 1, "full")],
                         ids=["6q-2l-full", "7q-2l-chain", "8q-1l-full"])
def test_scott_rows_equal_their_lone_runs(monkeypatch, circuit, chunk_bytes):
    # sample i of base seed s is sample 0 of base seed s + i
    monkeypatch.setattr(simulator, "CHUNK_BYTES", chunk_bytes)
    n = circuit.n_qubits
    reduce = partial(analyzers._block_impurities, n=n, m_values=range(1, n // 2 + 1))
    lone = [analyzers._ensemble(circuit, 1, 5 + i, reduce)[1][0] for i in range(33)]
    for rows in (2, 3, 5, 8, 33):
        _, results = analyzers._ensemble(circuit, rows, 5, reduce)
        for i in range(rows):
            assert np.array_equal(results[i], lone[i])


# Monomial blocks: stretches of X, Z, RZ, CX and CZ, which compile to one
# gather-and-phase op each, between the dense gates that end them.

_MONOMIAL = ("X", "Z", "RZ", "CX", "CZ")


@st.composite
def monomial_circuits(draw):
    n = draw(st.integers(1, 6))
    names = ["a", "b", "c"]
    gates = []

    def angle():
        if draw(st.integers(0, 3)) == 0:
            return draw(st.floats(-3.0, 3.0))
        return ParamRef(draw(st.sampled_from(names)), draw(st.sampled_from([1.0, 2.0, -0.5])))

    for _ in range(draw(st.integers(1, 5))):
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(("H", "Y", "RX", "RY")))
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),),
                              angle() if kind in _ROTATIONS else None))
        for _ in range(draw(st.integers(1, 12))):
            kind = draw(st.sampled_from(_MONOMIAL if n > 1 else _MONOMIAL[:3]))
            if kind in ("CX", "CZ"):
                gates.append(Gate(kind, tuple(draw(st.permutations(range(n)))[:2])))
            else:
                gates.append(Gate(kind, (draw(st.integers(0, n - 1)),),
                                  angle() if kind == "RZ" else None))
    gates += [Gate("RZ", (0,), ParamRef(name)) for name in names]
    circuit = make_circuit(n, gates, names)
    thetas = np.random.default_rng(draw(st.integers(0, 10**9))).uniform(
        -2 * np.pi, 2 * np.pi, (draw(st.sampled_from([1, 2, 3, 8])), 3))
    return circuit, thetas


@settings(max_examples=120, deadline=None)
@given(monomial_circuits())
def test_monomial_rows_match_dense_simulation(case):
    circuit, thetas = case
    program = compile_program(circuit)
    assert {op[0] for op in program.ops[program.opening:]} <= {"dense", "mono"}
    angles = program.angles(thetas)
    states = simulate_batch(program, angles)
    for i, theta in enumerate(thetas):
        assert np.array_equal(states[i], simulate_batch(program, angles[i:i + 1])[0])
        dense = oracles.dense_simulate(bind(circuit, theta))
        assert np.max(np.abs(states[i] - dense)) <= 1e-12
    # blocks of two basis indices: tables over one low bit, the rest per block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_BLOCK", 2)
        assert np.array_equal(simulate_batch(program, angles), states)


@pytest.mark.parametrize("chunk_bytes", [simulator.CHUNK_BYTES, 1])
@pytest.mark.parametrize("rows", [2, 3, 5, 8, 33])
def test_monomial_rows_are_bit_identical_to_lone_rows(monkeypatch, rows, chunk_bytes):
    # the layered ansatzes, the QAOA mixers and the last circuit also put
    # Kronecker blocks after their mono ops: of two and three qubits, at the
    # front, in the middle and holding the last qubit, with constant factors
    circuits = [layered_ansatz(6, 2, "full"), qaoa_builder([(0, 1), (1, 2), (2, 3), (0, 3)], 2),
                layered_ansatz(8, 3, "full"), layered_ansatz(5, 2, "chain"),
                make_circuit(6, [Gate("CZ", (0, 5)), Gate("CZ", (1, 4)), Gate("H", (1,)),
                                 Gate("RY", (2,), ParamRef("a")), Gate("Y", (3,)),
                                 Gate("RX", (3,), ParamRef("b", 2.0)), Gate("H", (4,)),
                                 Gate("H", (5,))], ["a", "b"]),
                make_circuit(3, [
                    Gate("H", (0,)), Gate("RY", (1,), ParamRef("a")), Gate("CX", (0, 2)),
                    Gate("RZ", (2,), ParamRef("b", -0.5)), Gate("CZ", (1, 2)), Gate("X", (1,)),
                    Gate("RZ", (1,), 0.7), Gate("Z", (0,)), Gate("CX", (2, 1)),
                    Gate("RX", (2,), ParamRef("a", 2.0)), Gate("RZ", (0,), ParamRef("b"))],
                    ["a", "b"])]
    monkeypatch.setattr(simulator, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(rows)
    for circuit in circuits:
        program = compile_program(circuit)
        assert "mono" in [op[0] for op in program.ops]
        angles = program.angles(rng.uniform(-2 * np.pi, 2 * np.pi, (rows, circuit.n_params)))
        states = simulator.simulate_map(lambda states, _: states, program,
                                        lambda r: angles[r.start:r.stop], rows)
        for i in range(rows):
            assert np.array_equal(states[i], simulate_batch(program, angles[i:i + 1])[0])


def test_gather_scratch_is_at_most_half_the_batch():
    # a gather goes in halves of the rows, or in its one row, so its scratch
    # takes at most half the batch, or one state for one row
    assert simulator._parts(0) == []
    assert simulator._parts(1) == [range(0, 1)]
    assert simulator._parts(2) == [range(0, 1), range(1, 2)]
    assert simulator._parts(5) == [range(0, 3), range(3, 5)]
    assert simulator._parts(33) == [range(0, 17), range(17, 33)]


def test_phase_block_smaller_than_the_state_matches_dense_simulation():
    # at 10 qubits a whole state's exponent, terms and factors (24 bytes per
    # amplitude) do not fit in the room the row rule leaves beside a state,
    # so a phase block holds half of it and its high bits pick the signs;
    # the first mono op has no gather, the second has one
    n = 10
    assert 24 * 2**n > simulator._row_bytes(n) - 16 * 2**n
    gates = [Gate("H", (q,)) for q in range(n)]
    gates += [Gate("CX", (0, 9)), Gate("RZ", (9,), ParamRef("a")), Gate("CX", (0, 9)),
              Gate("CZ", (1, 6)), Gate("RZ", (4,), ParamRef("b", 2.0)), Gate("Z", (7,))]
    gates += [Gate("RY", (1,), ParamRef("c")), Gate("RY", (6,), ParamRef("a"))]
    gates += [Gate("CX", (1, 6)), Gate("RZ", (6,), ParamRef("c", -0.5)), Gate("CZ", (3, 8)),
              Gate("X", (2,)), Gate("RZ", (0,), 0.4)]
    circuit = make_circuit(n, gates, ["a", "b", "c"])
    program = circuit.program
    monos = [op[1] for op in program.ops if op[0] == "mono"]
    assert [m.columns is None for m in monos] == [True, False]
    assert all(m.angles.size and m.signs for m in monos)
    thetas = np.random.default_rng(10).uniform(-2 * np.pi, 2 * np.pi, (5, 3))
    angles = program.angles(thetas)
    for rows in (2, 3, 5):
        states = simulate_batch(program, angles[:rows])
        for i in range(rows):
            assert np.array_equal(states[i], simulate_batch(program, angles[i:i + 1])[0])
    for state, theta in zip(states, thetas):
        assert np.max(np.abs(state - oracles.dense_simulate(bind(circuit, theta)))) <= 1e-12


def test_blocks_the_gather_leaves_in_place_match_dense_simulation():
    # at 14 qubits, four blocks of 4096 indices, CX(0, 1) reads the two
    # blocks with qubit 0 at 0 from themselves and swaps the other two; the
    # one row is gathered whole into scratch before any block is written
    angles = np.random.default_rng(14).uniform(-np.pi, np.pi, 14)
    ry = [Gate("RY", (q,), a) for q, a in enumerate(angles)]
    state = simulate(make_circuit(14, ry + [Gate("CX", (0, 1))])).amplitudes
    want = oracles.dense_simulate(make_circuit(2, ry[:2] + [Gate("CX", (0, 1))]))
    for angle in angles[2:]:
        want = np.kron(want, oracles.dense_simulate(make_circuit(1, [Gate("RY", (0,), angle)])))
    assert np.max(np.abs(state - want)) <= 1e-12


def test_circuits_too_wide_to_simulate_still_compile():
    # index masks past 63 bits stay Python ints; only simulating is refused
    circuit = make_circuit(70, [Gate("RY", (0,), ParamRef("a")), Gate("CX", (0, 69)),
                                Gate("CZ", (1, 68)), Gate("RZ", (69,), ParamRef("a"))], ["a"])
    (_, mono), = [op for op in circuit.program.ops if op[0] == "mono"]
    assert mono.columns[69] == 2**69 + 1 and mono.masks.shape == (3, 70)
    assert bind(circuit, [0.3]).n_qubits == 70
    with pytest.raises(ValueError, match="a 70-qubit state takes"):
        simulate(bind(circuit, [0.3]))


def test_circuits_too_wide_to_format_their_size_are_refused():
    # a pair of rows of two 20 000-qubit states, 64 * 2**20000 bytes, has
    # more digits than Python formats
    circuit = make_circuit(20_000, [Gate("RY", (0,), ParamRef("a")), Gate("CX", (0, 1))], ["a"])
    with pytest.raises(ValueError, match="at least 2\\*\\*20006 bytes, more than half "
                                         "of physical memory"):
        expressibility(circuit, 10, seed=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 70), st.integers(0, 10**9))
def test_gather_columns_are_the_bit_transpose_of_the_index_masks(n, seed):
    # a CZ on every qubit first leaves no opening: all gates form one "mono" op
    rng = np.random.default_rng(seed)
    gates = [Gate("CZ", (q, q + 1)) for q in range(n - 1)]
    for _ in range(int(rng.integers(1, 3 * n))):
        kind = str(rng.choice(["X", "Z", "RZ", "CX", "CZ"]))
        if kind in ("CX", "CZ"):
            gates.append(Gate(kind, tuple(int(q) for q in rng.choice(n, 2, replace=False))))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),), 0.3 if kind == "RZ" else None))
    (form, mono), = compile_program(make_circuit(n, gates)).ops
    # qubit q's bit before the gates is the parity of mask[q] & y, with flip[q]
    mask, flip = [1 << (n - 1 - q) for q in range(n)], [0] * n
    for g in reversed(gates):
        if g.kind == "X":
            flip[g.targets[0]] ^= 1
        elif g.kind == "CX":
            control, target = g.targets
            mask[target] ^= mask[control]
            flip[target] ^= flip[control]
    identity = not any(flip) and mask == [1 << (n - 1 - q) for q in range(n)]
    transpose = tuple(sum(((mask[q] >> j) & 1) << (n - 1 - q) for q in range(n))
                      for j in range(n))
    assert form == "mono" and mono.columns == (None if identity else transpose)


# The working-set rule: a chunk of rows, simulated and then reduced by an
# analyzer, holds at most the bytes simulator._row_bytes counts for it.


def _reductions(circuit):
    """(name, rows per group, fn(states, rows)) for the reduction of every
    analyzer, an X/Y cost and a Z cost; at most 8 qubits, Scott at every
    block size too, a root rho and its partial traces held beside the
    states."""
    n = circuit.n_qubits
    k = (n + 1) // 2
    rank = analyzers._schmidt_rank_bound(circuit, k)
    z_cost = circuit.cost or PauliSum.from_terms(
        [(0.5, {q: "Z", q + 1: "Z"}) for q in range(n - 1)])
    xy_cost = PauliSum.from_terms([(1.0, {0: "X", 1: "Y"}), (0.5, {n - 1: "Z"}),
                                   (0.25, {1: "X"})])
    reductions = [
        ("expressibility", 2, lambda s, rows: analyzers._pair_fidelities(s)),
        ("meyer-wallach", 1, lambda s, rows: analyzers._block_impurities(s, n, range(1, 2))),
        ("scott", 1, lambda s, rows: analyzers._block_impurities(
            s, n, range(1, min(2, n // 2) + 1))),
        ("spectrum", 1, lambda s, rows: xi_profiles(s, k, -30.0, rank)),
        ("full spectrum", 1, lambda s, rows: xi_profiles(s, k)),
        ("z cost", 1, lambda s, rows: expectation_batch(s, z_cost)),
        ("x/y cost", 1, lambda s, rows: expectation_batch(s, xy_cost)),
        ("sampled metric", 1, lambda s, rows: [sample(StateVector(n, psi), 64, r).shots
                                               for r, psi in zip(rows, s)]),
    ]
    if n <= 8:
        reductions.append(("scott at every m", 1, lambda s, rows: analyzers._block_impurities(
            s, n, range(1, n // 2 + 1))))
    return reductions


@pytest.mark.parametrize("circuit", [
    qaoa_builder(random_gnm_edges(12, 30, seed=0), 2, n_nodes=12),
    layered_ansatz(14, 2, "chain"), layered_ansatz(12, 3, "full"),
    layered_ansatz(8, 4, "full"), layered_ansatz(6, 3, "chain"),
    layered_ansatz(3, 40, "chain"),
], ids=["qaoa-12-30-p2", "14q-2l-chain", "12q-3l-full", "8q-4l-full", "6q-3l-chain",
        "3q-40l-chain"])
def test_one_chunk_holds_at_most_the_bytes_the_rule_counts(circuit):
    program = circuit.program
    rule = simulator._row_bytes(circuit.n_qubits, program)
    assert rule == 32 * 2**circuit.n_qubits + 96 * program.dense_columns.size + 2048
    for name, group, reduce in _reductions(circuit):
        rows = max(1, simulator.CHUNK_BYTES // (group * rule)) * group
        thetas = np.random.default_rng(rows).uniform(0, 2 * np.pi, (rows, circuit.n_params))
        first = program.angles(thetas[:group])
        reduce(simulate_batch(program, first), range(group))  # fills the caches
        tracemalloc.start()
        try:
            # one chunk, its angle rows built inside the trace
            simulator.simulate_map(
                reduce, program, lambda r: program.angles(thetas[group * r.start:group * r.stop]),
                rows // group, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows * rule, name


def test_a_row_whose_two_states_do_not_fit_is_refused_before_allocating(monkeypatch):
    # 1 MiB: one 15-qubit state, 512 KiB, fits in half of it; two do not
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**20)
    circuit = make_circuit(15, [Gate("H", (0,)), Gate("CX", (0, 14))])
    circuit.program  # compiled outside the trace
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"the simulation of 1 row\(s\) of a 15-qubit "
                                             r"state takes \d+ bytes, more than half"):
            simulate(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**15  # not a sixteenth of a state
    assert simulate(make_circuit(13, [Gate("H", (0,)), Gate("CX", (0, 12))])).n_qubits == 13
