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
from pqc_lens import bind, expressibility, simulate
from pqc_lens.circuit import compile_program
from pqc_lens.simulator import simulate_batch
from pqc_lens.trainer import gradient_batch


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
        assert np.max(np.abs(row - simulate(bound).amplitudes)) <= 1e-12
        assert np.max(np.abs(row - oracles.dense_simulate(bound))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_batched_gradient_matches_finite_differences(seed, points):
    circuit, thetas = _circuit_and_thetas(seed, points, with_cost=True)
    grads = gradient_batch(circuit, thetas)
    assert grads.shape == (points, circuit.n_params)
    for theta, grad in zip(thetas, grads):
        assert grad == pytest.approx(oracles.fd_gradient(circuit, theta), abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 40), st.integers(2, 4))
def test_chunk_boundaries_do_not_change_expressibility(seed, samples, threads):
    circuit, _ = _circuit_and_thetas(seed, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PQC_LENS_THREADS", "1")
        serial = expressibility(circuit, samples, seed=seed).to_dict()
        mp.setenv("PQC_LENS_THREADS", str(threads))
        threaded = expressibility(circuit, samples, seed=seed).to_dict()
    assert threaded == serial
