import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pqc_lens import (
    DensityMatrix,
    Gate,
    NoiseModel,
    ParamRef,
    PauliSum,
    PauliTerm,
    ShotCounts,
    StateVector,
    bind,
    expectation,
    make_circuit,
    qaoa_builder,
    reduced_density_matrix,
    serialize_circuit_spec,
    sample,
    simulate,
    simulate_noisy,
    subsystem_purity,
)
from pqc_lens import analyzers, simulator
from pqc_lens.cli import run
from pqc_lens.library import (all_zeros_infidelity_cost, bell_circuit, layered_ansatz,
                              mean_excitation_cost, random_gnm_edges)
from pqc_lens.trainer import _loss_and_gradient, cost_batch

INV_SQRT2 = 1.0 / math.sqrt(2)


def _simulate_gates(n, gates, theta=()):
    names = sorted({g.angle.name for g in gates
                    if getattr(g.angle, "name", None) is not None})
    return simulate(bind(make_circuit(n, gates, names), theta))


class TestStatevector:
    def test_initial_state_is_all_zeros(self):
        psi = _simulate_gates(2, [Gate("Z", (0,))])
        assert psi.amplitudes == pytest.approx([1, 0, 0, 0])

    def test_bell_amplitudes(self):
        psi = simulate(bind(bell_circuit(), []))
        assert psi.amplitudes == pytest.approx(
            [INV_SQRT2, 0, 0, INV_SQRT2], abs=1e-12
        )

    def test_qubit_zero_is_most_significant(self):
        # flipping qubit 0 of two must populate |10> = index 2
        psi = _simulate_gates(2, [Gate("X", (0,))])
        assert np.argmax(np.abs(psi.amplitudes)) == 2

    def test_rx_half_turn_phase(self):
        psi = _simulate_gates(1, [Gate("RX", (0,), math.pi)])
        assert psi.amplitudes == pytest.approx([0, -1j], abs=1e-12)

    def test_matches_dense_oracle_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            c = oracles.random_circuit(rng, max_qubits=4)
            b = bind(c, rng.uniform(0, 2 * np.pi, c.n_params))
            fast = simulate(b).amplitudes
            slow = oracles.dense_simulate(b)
            assert np.max(np.abs(fast - slow)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_norm_is_preserved(self, seed):
        rng = np.random.default_rng(seed)
        c = oracles.random_circuit(rng, max_qubits=6, max_gates=40)
        psi = simulate(bind(c, rng.uniform(0, 2 * np.pi, c.n_params)))
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_circuit_with_parameters_must_be_bound_first(self):
        c = make_circuit(1, [Gate("RX", (0,), ParamRef("a"))], ["a"])
        with pytest.raises(ValueError, match="bind"):
            simulate(c)
        with pytest.raises(ValueError, match="bind"):
            simulate_noisy(c, NoiseModel(p1=1.0), seed=0)

    @pytest.mark.parametrize("amplitudes", [[math.nan, 0.0], [1.0, complex(0.0, math.nan)]])
    def test_rejects_non_finite_state(self, amplitudes):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, amplitudes)

    def test_norm_check_fails_on_nan_rows(self, monkeypatch):
        def run_to_nan(psi, *_):
            psi.reshape(psi.shape[0], -1)[-1, 0] = math.nan

        monkeypatch.setattr(simulator, "_run", run_to_nan)
        program = make_circuit(1, [Gate("H", (0,))]).program
        with pytest.raises(ValueError, match="not normalized"):
            simulator.simulate_batch(program, np.empty((2, 0)))

    def test_zero_row_batch_is_empty(self):
        # a layer of blocks and a mono op with a gather, run on no rows
        program = layered_ansatz(5, 2, "chain").program
        states = simulator.simulate_batch(program, np.empty((0, program.kinds.size)))
        assert states.shape == (0, 2**5) and states.dtype == complex

    def test_infinite_angle_is_rejected_before_any_gate(self):
        program = make_circuit(1, [Gate("RX", (0,), ParamRef("a"))], ["a"]).program
        with pytest.raises(ValueError, match="overflowed to inf"):
            simulator.simulate_batch(program, np.array([[math.inf]]))

    @pytest.mark.parametrize("matrix", [
        [[math.nan, 0.0], [0.0, 1.0]],
        [[0.5, math.nan], [math.nan, 0.5]],
    ])
    def test_rejects_non_finite_density_matrix(self, matrix):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, matrix)


class TestExpectation:
    def test_z_on_basis_states(self):
        obs = PauliSum.from_terms([(1.0, {0: "Z"})])
        assert expectation(_simulate_gates(1, [Gate("Z", (0,))]), obs) == pytest.approx(1.0)
        assert expectation(_simulate_gates(1, [Gate("X", (0,))]), obs) == pytest.approx(-1.0)

    def test_identity_term_contributes_its_coefficient(self):
        obs = PauliSum.from_terms([(0.75, {}), (1.0, {0: "Z"})])
        psi = _simulate_gates(1, [Gate("H", (0,))])
        assert expectation(psi, obs) == pytest.approx(0.75, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            c = oracles.random_circuit(rng, max_qubits=4, with_cost=True)
            psi = simulate(bind(c, rng.uniform(0, 2 * np.pi, c.n_params)))
            want = oracles.dense_expectation(psi.amplitudes, c.cost, c.n_qubits)
            assert expectation(psi, c.cost) == pytest.approx(want, abs=1e-9)


def _random_states(rng, rows, n):
    states = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


@st.composite
def pauli_sums(draw):
    """(n, PauliSum) with X/Y/Z mixes, identity terms, zero and cancelling
    coefficients, repeated strings and several strings per X/Y flip mask."""
    n = draw(st.integers(1, 6))
    strings = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), max_size=n)
    pool = draw(st.lists(strings, min_size=1, max_size=4))
    coeffs = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0)
    terms = []
    for _ in range(draw(st.integers(1, 12))):
        paulis = dict(draw(st.sampled_from(pool) | strings))
        if draw(st.booleans()):
            # the same flip mask: swap X and Y, toggle Z on idle qubits
            for q in range(n):
                axis = paulis.get(q)
                if axis in ("X", "Y"):
                    paulis[q] = draw(st.sampled_from("XY"))
                elif draw(st.booleans()):
                    if axis == "Z":
                        del paulis[q]
                    else:
                        paulis[q] = "Z"
        coeff = draw(coeffs)
        terms.append((coeff, paulis))
        if draw(st.booleans()):
            terms.append((-coeff, paulis))
    return n, PauliSum.from_terms(terms)


class TestCompiledObservable:
    """Observables compile into flip-mask groups; values equal the dense matrices."""

    @settings(max_examples=150, deadline=None)
    @given(pauli_sums(), st.integers(0, 10**9))
    def test_matches_dense_matrix(self, case, seed):
        n, obs = case
        states = _random_states(np.random.default_rng(seed), 3, n)
        got = simulator.expectation_batch(states, obs)
        want = [oracles.dense_expectation(row, obs, n) for row in states]
        assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(pauli_sums())
    def test_groups_are_the_dense_matrix_entries(self, case):
        # group flip holds d_i = <i ^ flip|O|i>, the Walsh-Hadamard transform
        # of its coefficients; together the groups rebuild the whole matrix
        n, obs = case
        dim = 2**n
        rebuilt = np.zeros((dim, dim), dtype=complex)
        for flip, weights in simulator._compiled_observable(obs, n):
            re, minus_im = weights.reshape(dim, 2).T
            if not flip:
                assert np.array_equal(re, minus_im)
                minus_im = np.zeros(dim)
            rebuilt[np.arange(dim) ^ flip, np.arange(dim)] = re - 1j * minus_im
        assert np.max(np.abs(rebuilt - oracles.pauli_sum_matrix(obs, n))) <= 1e-12

    @pytest.mark.parametrize("obs, n", [
        *[(qaoa_builder(random_gnm_edges(8, 20, seed), 1).cost, 8) for seed in range(3)],
        *[(qaoa_builder(random_gnm_edges(6, 9, seed), 1).cost, 6) for seed in range(3)],
        (all_zeros_infidelity_cost(8), 8),
        (mean_excitation_cost(8), 8),
    ])
    def test_dyadic_costs_compile_to_the_exact_diagonal(self, obs, n):
        ((flip, weights),) = simulator._compiled_observable(obs, n)
        diagonal = np.diag(oracles.pauli_sum_matrix(obs, n)).real
        assert flip == 0
        assert np.array_equal(weights.reshape(-1, 2), np.stack([diagonal, diagonal], 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_library_costs_match_closed_forms(self, n):
        states = _random_states(np.random.default_rng(n), 4, n)
        probs = np.abs(states) ** 2
        global_cost = simulator.expectation_batch(states, all_zeros_infidelity_cost(n))
        assert np.max(np.abs(global_cost - (1.0 - probs[:, 0]))) <= 1e-12
        # bit n - 1 - q of a basis index is qubit q
        ones = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        local_cost = simulator.expectation_batch(states, mean_excitation_cost(n))
        assert np.max(np.abs(local_cost - (probs @ ones).mean(axis=1))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(pauli_sums(), st.integers(0, 10**9))
    def test_rows_do_not_depend_on_batch_size(self, case, seed):
        n, obs = case
        rng = np.random.default_rng(seed)
        for rows in (2, 3, 5, 8, 33):
            states = _random_states(rng, rows, n)
            batch = simulator.expectation_batch(states, obs)
            for i in range(rows):
                alone = simulator.expectation_batch(states[i:i + 1].copy(), obs)
                assert np.array_equal(batch[i], alone[0])

    @pytest.mark.parametrize("rows", [64, 69, 100])
    def test_flip_groups_of_large_batches(self, rows):
        # numpy may lay the gathered states out column by column for such
        # batches; the flip group must still be evaluated row by row
        obs = PauliSum.from_terms([(0.7, {0: "X", 2: "Y"}), (0.3, {1: "Y"}), (-0.4, {0: "Z"})])
        states = _random_states(np.random.default_rng(rows), rows, 8)
        got = simulator.expectation_batch(states, obs)
        for row, value in zip(states, got):
            assert np.array_equal(value, simulator.expectation_batch(row[None], obs)[0])
            assert abs(value - oracles.dense_expectation(row, obs, 8)) <= 1e-12

    def test_equal_sums_are_hashed_once_and_share_a_cache_entry(self, monkeypatch):
        hashed = []
        term_hash = PauliTerm.__hash__
        monkeypatch.setattr(PauliTerm, "__hash__", lambda t: hashed.append(t) or term_hash(t))
        a, b = all_zeros_infidelity_cost(3), all_zeros_infidelity_cost(3)
        assert a is not b and a == b and hash(a) == hash(b)
        # each sum hashed its 8 terms when it was built, and never again
        assert len(hashed) == 16
        simulator._compiled_observable.cache_clear()
        states = _random_states(np.random.default_rng(0), 2, 3)
        assert np.array_equal(simulator.expectation_batch(states, a),
                              simulator.expectation_batch(states, b))
        info = simulator._compiled_observable.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert len(hashed) == 16

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 9))
    def test_costs_and_gradients_do_not_depend_on_chunk_size(self, seed, points):
        rng = np.random.default_rng(seed)
        circuit = oracles.random_circuit(rng, max_qubits=6, max_gates=30, with_cost=True)
        thetas = rng.uniform(0, 2 * np.pi, (points, circuit.n_params))
        cost, grad = cost_batch(circuit, thetas), _loss_and_gradient(circuit, thetas)[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "CHUNK_BYTES", 1)  # one row per chunk
            assert np.array_equal(cost_batch(circuit, thetas), cost)
            assert np.array_equal(_loss_and_gradient(circuit, thetas)[1], grad)


class TestSampling:
    def test_deterministic_given_seed(self):
        psi = _simulate_gates(2, [Gate("H", (0,)), Gate("H", (1,))])
        a = sample(psi, shots=500, seed=42)
        b = sample(psi, shots=500, seed=42)
        assert a.counts == b.counts

    def test_frequencies_track_probabilities(self):
        psi = _simulate_gates(1, [Gate("H", (0,))])
        counts = sample(psi, shots=20000, seed=0).counts
        assert counts["0"] / 20000 == pytest.approx(0.5, abs=0.02)

    def test_definite_state_gives_single_key(self):
        psi = _simulate_gates(2, [Gate("X", (0,))])
        counts = sample(psi, shots=100, seed=1).counts
        assert counts == {"10": 100}

    def test_readout_flip_rate(self):
        psi = _simulate_gates(1, [Gate("Z", (0,))])
        counts = sample(psi, shots=20000, seed=3, readout_flip_prob=0.3).counts
        assert counts["1"] / 20000 == pytest.approx(0.3, abs=0.02)

    def test_bit_matrix_shape_and_order(self):
        psi = _simulate_gates(2, [Gate("H", (0,))])
        counts = sample(psi, shots=64, seed=5)
        m = counts.bit_matrix()
        assert m.shape == (64, 2)
        assert m.dtype == np.uint8
        keys = ["".join(str(b) for b in row) for row in m]
        assert keys == sorted(keys)

    def test_rejects_nonpositive_shots(self):
        psi = _simulate_gates(1, [Gate("H", (0,))])
        with pytest.raises(ValueError):
            sample(psi, shots=0)

    def test_shot_total_is_the_sum_of_the_counts(self):
        assert ShotCounts({"01": 3, "10": 2}).shots == 5
        zero = ShotCounts({"0": np.int64(0), "1": 2})
        assert zero.shots == 2 and np.array_equal(zero.bit_matrix(), [[1], [1]])
        with pytest.raises(ValueError, match="shots must be positive"):
            ShotCounts({"0": 0})
        with pytest.raises(ValueError, match="inconsistent lengths"):
            ShotCounts({"0": 1, "01": 1})

    @pytest.mark.parametrize("counts, message", [
        ({"0": 2.5}, "2.5 of '0' is not a non-negative integer"),
        ({"0": 5, "1": -3}, "-3 of '1' is not a non-negative integer"),
        ({"0": True}, "True of '0' is not a non-negative integer"),
        ({"2": 3}, "bitstring '2' is not a string of 0s and 1s"),
        ({"": 3}, "bitstring '' is not"),
        ({0: 3}, "bitstring 0 is not"),
    ])
    def test_counts_and_bitstrings_are_checked_when_built(self, counts, message):
        with pytest.raises(ValueError, match=message):
            ShotCounts(counts)

    def test_oversized_draw_fails_before_drawing(self, monkeypatch):
        # 1 MiB: half of it holds 24 bytes per one-qubit shot for 21 845 shots
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**20)
        psi = _simulate_gates(1, [Gate("H", (0,))])
        with pytest.raises(ValueError, match="a draw of 30000 shots on 1 qubit"):
            sample(psi, shots=30000, seed=0)
        assert sample(psi, shots=20000, seed=0).shots == 20000

    def test_counts_and_bit_matrix_match_the_shot_loop(self):
        rng = np.random.default_rng(17)
        for case in range(320):
            n = int(rng.integers(1, 9))
            amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            if case % 4 == 0:  # few outcomes, some of them certain
                amps[rng.random(2**n) < 0.8] = 0.0
                amps[0] += 1.0
            psi = StateVector(n, amps / np.linalg.norm(amps))
            shots = int(rng.choice([1, 2, 7, 100, 1024, 3000]))
            flip = float(rng.choice([0.0, 0.0, 0.01, 0.3, 1.0]))
            seed = int(rng.integers(2**31))
            counts = sample(psi, shots, seed, readout_flip_prob=flip)
            reference = oracles.loop_sample_counts(psi, shots, seed, flip)
            assert counts.counts == reference
            assert list(counts.counts) == sorted(reference)
            assert np.array_equal(counts.bit_matrix(), oracles.tiled_bit_matrix(reference))


class TestNoise:
    def test_zero_rates_reproduce_ideal_state(self):
        rng = np.random.default_rng(2)
        c = oracles.random_circuit(rng, max_qubits=3)
        b = bind(c, rng.uniform(0, 2 * np.pi, c.n_params))
        noisy = simulate_noisy(b, NoiseModel(), seed=9)
        assert np.allclose(noisy.amplitudes, simulate(b).amplitudes)

    def test_forced_insertion_after_x(self):
        # with p1 = 1 the trajectory state is P X|0> for P in {X, Y, Z}
        circuit = make_circuit(1, [Gate("X", (0,))], [])
        b = bind(circuit, [])
        allowed = [np.array([1, 0]), np.array([-1j, 0]), np.array([0, -1])]
        seen = set()
        for seed in range(30):
            psi = simulate_noisy(b, NoiseModel(p1=1.0), seed=seed).amplitudes
            hits = [i for i, ref in enumerate(allowed)
                    if np.max(np.abs(psi - ref)) < 1e-12]
            assert len(hits) == 1
            seen.add(hits[0])
        assert seen == {0, 1, 2}

    def test_trajectories_stay_normalized(self):
        rng = np.random.default_rng(4)
        c = oracles.random_circuit(rng, max_qubits=4, max_gates=30)
        b = bind(c, rng.uniform(0, 2 * np.pi, c.n_params))
        for seed in range(20):
            psi = simulate_noisy(b, NoiseModel(p1=0.3, p2=0.4), seed=seed)
            assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_bell_average_matches_channel_oracle(self):
        b = bind(bell_circuit(), [])
        noise = NoiseModel(p1=0.05, p2=0.05)
        obs = PauliSum.from_terms([(1.0, {0: "Z", 1: "Z"})])
        total = 0.0
        for seed in range(2000):
            total += expectation(simulate_noisy(b, noise, seed=seed), obs)
        rho = oracles.dense_noisy_rho(b, 0.05, 0.05)
        dense = float(np.real(np.trace(rho @ oracles.pauli_sum_matrix(obs, 2))))
        assert total / 2000 == pytest.approx(dense, abs=0.02)

    def test_rejects_rates_outside_unit_interval(self):
        with pytest.raises(ValueError):
            NoiseModel(p1=1.5)
        psi = _simulate_gates(1, [Gate("X", (0,))])
        for rate in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="readout_flip_prob"):
                sample(psi, shots=10, seed=0, readout_flip_prob=rate)


class TestReducedStates:
    def test_bell_half_is_maximally_mixed(self):
        psi = simulate(bind(bell_circuit(), []))
        rho = reduced_density_matrix(psi, (0,))
        assert rho.matrix == pytest.approx(0.5 * np.eye(2), abs=1e-12)
        assert rho.purity() == pytest.approx(0.5, abs=1e-12)
        assert subsystem_purity(psi, (0,)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_kron_and_trace_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            c = oracles.random_circuit(rng, max_qubits=4, min_qubits=2)
            psi = simulate(bind(c, rng.uniform(0, 2 * np.pi, c.n_params)))
            n = c.n_qubits
            size = int(rng.integers(1, n))
            keep = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            want = oracles.kron_and_trace(psi.amplitudes, keep, n)
            got = reduced_density_matrix(psi, keep)
            assert np.max(np.abs(got.matrix - want)) < 1e-9
            assert subsystem_purity(psi, keep) == pytest.approx(
                float(np.real(np.trace(want @ want))), abs=1e-9
            )

    def test_eigenvalues_ascending_and_normalized(self):
        rng = np.random.default_rng(37)
        c = oracles.random_circuit(rng, max_qubits=4, min_qubits=3)
        psi = simulate(bind(c, rng.uniform(0, 2 * np.pi, c.n_params)))
        rho = reduced_density_matrix(psi, (0, 1))
        ev = rho.eigenvalues()
        assert np.all(np.diff(ev) >= 0)
        assert float(ev.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_keep_sets(self):
        psi = simulate(bind(bell_circuit(), []))
        with pytest.raises(ValueError):
            reduced_density_matrix(psi, ())
        with pytest.raises(ValueError):
            reduced_density_matrix(psi, (0, 0))
        with pytest.raises(ValueError):
            reduced_density_matrix(psi, (2,))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 7))
    def test_schmidt_spectrum_matches_reduced_density_eigenvalues(self, seed, n):
        # a Haar row and a circuit row, which is often weakly entangled
        rng = np.random.default_rng(seed)
        haar = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        c = oracles.random_circuit(rng, max_qubits=n, min_qubits=n)
        circuit_state = simulate(bind(c, rng.uniform(0, 2 * np.pi, c.n_params)))
        states = np.stack([haar / np.linalg.norm(haar), circuit_state.amplitudes])
        for k in range(1, n):
            got = simulator.schmidt_spectrum(states, k)
            assert got.shape == (2, 2**k)
            for row, amps in zip(got, states):
                rho = reduced_density_matrix(StateVector(n, amps), range(k))
                assert np.max(np.abs(row - np.linalg.eigvalsh(rho.matrix))) <= 1e-12

    @pytest.mark.parametrize("keep", [(), (-1,), (0, 0), (5,)])
    def test_purity_rejects_bad_keep_sets(self, keep):
        psi = simulate(bind(bell_circuit(), []))
        with pytest.raises(ValueError, match="keep"):
            subsystem_purity(psi, keep)


@st.composite
def cut_circuits(draw):
    """A cut k and a circuit of every gate kind with literal angles, after a
    layer of RY on every qubit so that a CX or CZ across the cut usually
    does raise the Schmidt rank. CX and CZ take ordered qubit pairs, so they
    cross the cut in both directions."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 10**9)))
    gates = [Gate("RY", (q,), float(rng.uniform(-3, 3))) for q in range(n)]
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(oracles._GATE_POOL))
        if kind in ("CX", "CZ"):
            gates.append(Gate(kind, tuple(draw(st.permutations(range(n)))[:2])))
        else:
            angle = float(rng.uniform(-3, 3)) if kind.startswith("R") else None
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), angle))
    return make_circuit(n, gates), draw(st.integers(1, n - 1))


class TestRankedSchmidtSpectrum:
    """schmidt_spectrum at the Schmidt rank bound the spectrum analyzer uses."""

    @settings(max_examples=150, deadline=None)
    @given(cut_circuits())
    def test_rank_bound_holds_and_the_range_finder_reaches_it(self, case):
        circuit, k = case
        rank = analyzers._schmidt_rank_bound(circuit, k)
        states = simulate(bind(circuit, [])).amplitudes[None]
        full = oracles.svd_schmidt_spectrum(states, k)
        assert np.count_nonzero(full > 1e-20) <= rank
        assert np.max(np.abs(simulator.schmidt_spectrum(states, k, rank) - full)) <= 1e-12
        m = states.reshape(2**k, -1)
        if rank < min(m.shape):
            q = np.linalg.qr(m @ simulator._sketch(m.shape[1], rank))[0]
            assert np.linalg.norm(m - q @ (q.conj().T @ m)) <= 1e-13
        else:
            assert np.array_equal(simulator.schmidt_spectrum(states, k, rank), full)

    @pytest.mark.parametrize("n, layers", [(8, 1), (9, 2), (12, 1), (13, 3)])
    def test_chain_spectra_match_the_full_svd(self, n, layers):
        # a chain of L layers crosses the cut L times and generically reaches
        # Schmidt rank 2**L, so every one of the r values is nonzero
        circuit = layered_ansatz(n, layers, "chain")
        k = (n + 1) // 2
        rank = analyzers._schmidt_rank_bound(circuit, k)
        assert rank == 2**layers
        program = circuit.program
        states = simulator.simulate_batch(program, analyzers._sampled_angles(program, n, 3))
        full = oracles.svd_schmidt_spectrum(states, k)
        assert np.all(full[:, -rank:] > 1e-6)
        assert np.max(np.abs(simulator.schmidt_spectrum(states, k, rank) - full)) <= 1e-12

    @pytest.mark.parametrize("chunk_bytes", [simulator.CHUNK_BYTES, 1])
    @pytest.mark.parametrize("rows", [2, 3, 5, 8, 33])
    def test_ranked_rows_are_bit_identical_to_lone_rows(self, monkeypatch, rows, chunk_bytes):
        circuits = [layered_ansatz(8, 1, "chain"), layered_ansatz(7, 2, "chain"),
                    make_circuit(6, [Gate("H", (q,)) for q in range(6)]
                                 + [Gate("CZ", (4, 1)), Gate("RY", (2,), ParamRef("a")),
                                    Gate("CX", (1, 2)), Gate("CX", (0, 5))], ["a"])]
        monkeypatch.setattr(simulator, "CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(rows)
        for circuit in circuits:
            k = (circuit.n_qubits + 1) // 2
            rank = analyzers._schmidt_rank_bound(circuit, k)
            assert rank < 2 ** (circuit.n_qubits - k)
            program = circuit.program
            angles = program.angles(rng.uniform(0, 2 * np.pi, (rows, circuit.n_params)))
            got = simulator.simulate_map(
                lambda states, _: simulator.schmidt_spectrum(states, k, rank), program, angles)
            for i in range(rows):
                lone = simulator.simulate_batch(program, angles[i:i + 1])
                assert np.array_equal(got[i], simulator.schmidt_spectrum(lone, k, rank)[0])

    @pytest.mark.parametrize("rank", [0, -1, 5])
    def test_rejects_a_rank_outside_the_smaller_side(self, rank):
        with pytest.raises(ValueError, match=f"rank {rank} must lie in \\[1, 4\\]"):
            simulator.schmidt_spectrum(np.eye(1, 2**5, dtype=complex), 3, rank)


class TestWidthGuard:
    """A state larger than half of physical memory fails before allocation."""

    @pytest.fixture()
    def small_memory(self, monkeypatch):
        # 64 KiB: a 12-qubit state (64 KiB) exceeds half of it, 11 qubits fit
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**16)

    def test_chunk_ranges_follow_the_item_budget(self):
        def sizes(n_items, item_bytes):
            chunks = []

            def record(items: range) -> np.ndarray:
                chunks.append(items)
                return np.arange(items.start, items.stop)

            out = simulator.map_chunks(record, n_items, item_bytes)
            assert np.array_equal(out, np.arange(n_items))  # consecutive, in order
            return [len(r) for r in chunks]

        state = 16 * 2**8
        assert sizes(2500, state) == [1024, 1024, 452]
        assert sizes(3, 16 * 2**18) == [1, 1, 1]
        assert sizes(2, 16 * 2**19) == [1, 1]
        assert sizes(1200, 2 * state) == [512, 512, 176]  # pairs of 8-qubit states

    def test_simulate_rejects_too_wide_registers(self, small_memory):
        circuit = make_circuit(12, [Gate("H", (0,))], [])
        with pytest.raises(ValueError, match="physical memory"):
            simulate(bind(circuit, []))
        narrower = make_circuit(11, [Gate("H", (0,))], [])
        assert simulate(bind(narrower, [])).n_qubits == 11

    def test_expectation_rejects_observables_too_large_to_compile(self, small_memory):
        # on 11 qubits one group of terms takes 32 KiB, all the budget allows
        simulator._compiled_observable.cache_clear()
        states = np.zeros((1, 2**11), dtype=complex)
        states[0, 0] = 1.0
        z_only = PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {1: "Z"})])
        assert simulator.expectation_batch(states, z_only)[0] == 1.5
        with_flip = PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {1: "X"})])
        with pytest.raises(ValueError, match="physical memory"):
            simulator.expectation_batch(states, with_flip)

    def test_cli_maps_the_width_error_to_exit_code_2(self, small_memory, tmp_path):
        spec = tmp_path / "wide.spec.json"
        spec.write_text(serialize_circuit_spec(layered_ansatz(12, 1)), encoding="utf-8")
        argv = ["expressibility", "--circuit", str(spec), "--samples", "4",
                "--seed", "1", "--out", str(tmp_path / "o")]
        assert run(argv) == 2
