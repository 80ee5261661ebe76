import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from pqc_lens import (
    Gate,
    MetricSpec,
    NoiseModel,
    OptimizerConfig,
    ParamRef,
    PauliSum,
    StateVector,
    TrainingTrace,
    barren_plateau_scan,
    ensemble_train,
    entanglement_capability,
    entanglement_spectrum,
    evaluate_cost,
    expressibility,
    loss_landscape,
    make_circuit,
    parameter_histogram,
    pca,
    random_basis,
    reachability,
    sample,
    simulate_noisy,
    train,
    training_path,
    tsne,
)
from pqc_lens import analyzers, baselines, simulator, trainer
from pqc_lens.baselines import haar_fidelity_baseline, haar_fidelity_cdf, mp_reference_spectrum
from pqc_lens.library import (
    bell_circuit,
    idle_circuit,
    identity_learning_ansatz,
    layered_ansatz,
    paired_blocks_circuit,
    random_gnm_edges,
    single_qubit_chain,
)

LN75 = math.log(75.0)
Z0 = PauliSum.from_terms([(1.0, {0: "Z"})])


def _rx_cost():
    return make_circuit(1, [Gate("RX", (0,), ParamRef("a"))], ["a"], Z0)


def _two_param_cost():
    gates = [
        Gate("RY", (0,), ParamRef("a")),
        Gate("RY", (1,), ParamRef("b")),
        Gate("CX", (0, 1)),
    ]
    cost = PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {1: "Z"})])
    return make_circuit(2, gates, ["a", "b"], cost)


def _ghz3():
    gates = [Gate("H", (0,)), Gate("CX", (0, 1)), Gate("CX", (1, 2))]
    return make_circuit(3, gates, [])


class TestExpressibility:
    def test_idle_circuit_hits_log_bins(self):
        report = expressibility(idle_circuit(1), 200, seed=3)
        assert report.value == pytest.approx(LN75, abs=1e-6)
        assert report.fidelity_histogram.masses[-1] == pytest.approx(1.0)

    def test_js_measure_stays_below_its_bound(self):
        report = expressibility(idle_circuit(1), 100, measure="jsd", seed=3)
        assert 0.5 < report.value <= math.sqrt(math.log(2.0)) + 1e-12

    def test_deeper_single_qubit_chains_are_more_expressive(self):
        shallow = expressibility(single_qubit_chain(["RZ"]), 600, seed=11)
        deep = expressibility(single_qubit_chain(["RZ", "RX", "RZ"]), 600, seed=11)
        assert deep.value < shallow.value < LN75

    def test_deterministic_under_seed(self):
        c = single_qubit_chain(["RZ", "RX"])
        a = expressibility(c, 50, seed=9)
        b = expressibility(c, 50, seed=9)
        assert a.to_dict() == b.to_dict()
        other = expressibility(c, 50, seed=10)
        assert other.value != a.value

    def test_report_dict_shape(self):
        doc = expressibility(single_qubit_chain(["RX"]), 30, seed=1).to_dict()
        assert doc["kind"] == "expressibility"
        assert doc["samples"] == 30
        assert len(doc["fidelity_histogram"]["masses"]) == 75
        assert sum(doc["baseline_histogram"]["masses"]) == pytest.approx(1.0)

    def test_custom_bins(self):
        report = expressibility(single_qubit_chain(["RX"]), 30, bins=10, seed=1)
        assert report.fidelity_histogram.masses.shape == (10,)

    def test_rejects_bad_arguments(self):
        c = single_qubit_chain(["RX"])
        with pytest.raises(ValueError):
            expressibility(c, 1)
        with pytest.raises(ValueError, match="measure"):
            expressibility(c, 10, measure="tvd")


class TestEntanglementCapability:
    def test_bell_pair_is_maximal(self):
        report = entanglement_capability(bell_circuit(), 5, seed=0)
        assert report.q == pytest.approx(1.0, abs=1e-12)

    def test_ghz_is_maximal_for_meyer_wallach(self):
        report = entanglement_capability(_ghz3(), 5, seed=0)
        assert report.q == pytest.approx(1.0, abs=1e-9)

    def test_idle_circuit_has_no_entanglement(self):
        report = entanglement_capability(idle_circuit(2), 5, seed=0)
        assert report.q == pytest.approx(0.0, abs=1e-12)

    def test_paired_blocks_reference_values(self):
        mw = entanglement_capability(paired_blocks_circuit(), 500, seed=0)
        scott = entanglement_capability(
            paired_blocks_circuit(), 500, measure="scott", seed=0
        )
        assert mw.q == pytest.approx(0.5096, abs=1e-3)
        assert scott.q[0] == pytest.approx(mw.q, abs=1e-9)
        assert scott.q[1] == pytest.approx(0.3956, abs=1e-3)

    def test_scott_order_one_equals_meyer_wallach(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 10:
            c = oracles.random_circuit(rng, max_qubits=5, min_qubits=2)
            mw = entanglement_capability(c, 6, seed=checked)
            scott = entanglement_capability(c, 6, measure="scott", seed=checked)
            assert scott.q[0] == pytest.approx(mw.q, abs=1e-9)
            assert len(scott.q) == c.n_qubits // 2
            checked += 1

    def test_report_dict_serializes_scott_as_list(self):
        doc = entanglement_capability(
            paired_blocks_circuit(), 3, measure="scott", seed=2
        ).to_dict()
        assert doc["kind"] == "entanglement"
        assert isinstance(doc["q"], list) and len(doc["q"]) == 2

    def test_rejects_single_qubit_circuits(self):
        with pytest.raises(ValueError, match="2 qubits"):
            entanglement_capability(idle_circuit(1), 5)

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError, match="measure"):
            entanglement_capability(bell_circuit(), 5, measure="negativity")


class TestEntanglementSpectrum:
    def test_bell_profile_is_two_ln2(self):
        report = entanglement_spectrum(bell_circuit(), 20, seed=2)
        assert report.profile == pytest.approx([math.log(2)] * 2, abs=1e-9)
        assert report.subsystem_size == 1
        assert report.esd > 0.5

    def test_product_state_profile_saturates_cutoff(self):
        prod = make_circuit(
            2,
            [Gate("RX", (0,), ParamRef("a")), Gate("RX", (1,), ParamRef("b"))],
            ["a", "b"],
        )
        report = entanglement_spectrum(prod, 40, seed=1)
        assert report.profile[0] == pytest.approx(30.0, abs=1e-9)
        assert report.profile[1] == pytest.approx(0.0, abs=1e-9)
        assert report.esd > 5.0

    def test_subsystem_is_first_half_rounded_up(self):
        report = entanglement_spectrum(_ghz3(), 4, seed=5)
        assert report.subsystem_size == 2
        assert report.profile.shape == (4,)

    def test_histogram_grid_spans_cutoff(self):
        report = entanglement_spectrum(bell_circuit(), 10, seed=3)
        assert report.xi_histogram.bin_edges[0] == 0.0
        assert report.xi_histogram.bin_edges[-1] == 30.0
        assert float(report.xi_histogram.masses.sum()) == pytest.approx(1.0)

    def test_reference_defaults_to_sample_count(self):
        report = entanglement_spectrum(bell_circuit(), 15, seed=4)
        assert report.reference.samples == 15

    def test_deterministic_under_seed(self):
        a = entanglement_spectrum(paired_blocks_circuit(), 10, seed=8)
        b = entanglement_spectrum(paired_blocks_circuit(), 10, seed=8)
        assert a.esd == b.esd
        assert np.array_equal(a.profile, b.profile)

    def test_rank_bound_counts_cx_and_cz_across_the_cut(self):
        circuit = make_circuit(4, [Gate("CX", (0, 3)), Gate("CZ", (3, 1)), Gate("H", (0,)),
                                   Gate("CX", (0, 1)), Gate("CZ", (2, 3))])
        # k = 1 is crossed by CX(0, 3) and CX(0, 1), k = 2 by CX(0, 3) and
        # CZ(3, 1), and k = 3 by all but CX(0, 1); the smaller side caps it
        assert [analyzers._schmidt_rank_bound(circuit, k) for k in (1, 2, 3)] == [2, 4, 2]
        assert analyzers._schmidt_rank_bound(layered_ansatz(19, 1, "chain"), 10) == 2
        assert analyzers._schmidt_rank_bound(idle_circuit(4), 2) == 1

    @pytest.mark.parametrize("n, layers, entangler", [(8, 4, "full"), (6, 2, "full")])
    def test_saturated_rank_bound_keeps_the_full_svd(self, n, layers, entangler):
        circuit = layered_ansatz(n, layers, entangler)
        k = (n + 1) // 2
        assert analyzers._schmidt_rank_bound(circuit, k) == 2 ** (n - k)
        _, states = analyzers._ensemble(circuit, 25, 3, lambda states: states)
        want = baselines.spectral_xi(oracles.svd_schmidt_spectrum(states, k))
        want = np.sort(want, axis=1)[:, ::-1]
        assert np.array_equal(entanglement_spectrum(circuit, 25, seed=3).profile,
                              want.mean(axis=0))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="2 qubits"):
            entanglement_spectrum(idle_circuit(1), 5)
        with pytest.raises(ValueError, match="cutoff"):
            entanglement_spectrum(bell_circuit(), 5, cutoff=1.0)

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, 0.0, 1.0])
    def test_bad_cutoff_fails_before_any_simulation(self, monkeypatch, cutoff):
        calls = []
        monkeypatch.setattr(analyzers, "simulate_map", lambda *args: calls.append(args))
        monkeypatch.setattr(baselines, "_haar_batch", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="cutoff"):
            entanglement_spectrum(bell_circuit(), 5, cutoff=cutoff)
        assert not calls


class TestLossLandscape:
    def test_single_parameter_cosine_slice(self):
        grid = loss_landscape(_rx_cost(), [math.pi], points=9, seed=6)
        want = -np.cos(grid.phi_values)
        for j in range(9):
            assert grid.values[:, j] == pytest.approx(want, abs=1e-9)
        assert grid.center_value == pytest.approx(-1.0, abs=1e-12)

    def test_grid_indexing_follows_the_returned_basis(self):
        c = _two_param_cost()
        grid = loss_landscape(c, [0.3, 1.1], points=5, seed=7)
        for i in (0, 2, 4):
            for j in (1, 3):
                theta = grid.basis.expand([grid.phi_values[i], grid.phi_values[j]])
                assert grid.values[i, j] == pytest.approx(
                    evaluate_cost(c, theta), abs=1e-12
                )

    def test_center_value_is_exact_for_expectation_metric(self):
        c = _two_param_cost()
        theta = [0.4, -0.9]
        grid = loss_landscape(c, theta, points=3, seed=8)
        assert grid.center_value == pytest.approx(evaluate_cost(c, theta), abs=1e-12)

    def test_pca_basis_mode_uses_trace_axes(self):
        c = _two_param_cost()
        trace = train(c, OptimizerConfig(steps=30, seed=4))
        theta_star = trace.thetas[-1]
        grid = loss_landscape(c, theta_star, basis_mode="pca", points=3,
                              seed=9, trace=trace)
        assert grid.basis.origin == pytest.approx(theta_star)
        _, ref_basis, _ = pca(trace.thetas, dims=2)
        assert np.abs(grid.basis.axes) == pytest.approx(np.abs(ref_basis.axes),
                                                        abs=1e-9)

    def test_pca_mode_requires_a_trace(self):
        with pytest.raises(ValueError, match="trace"):
            loss_landscape(_two_param_cost(), [0.0, 0.0], basis_mode="pca")
        # of 3 points: PCA onto 2 axes needs them
        short = TrainingTrace(0, np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match=re.escape(
                "steps must be at least 2 for a pca basis (a trace of at least 3 points), "
                "got 1")):
            loss_landscape(_two_param_cost(), [0.0, 0.0], basis_mode="pca", trace=short)

    def test_sampling_metric_is_deterministic_per_seed(self):
        c = _two_param_cost()
        metric = MetricSpec(scorer=lambda bits: float(bits.mean()), shots=64)
        a = loss_landscape(c, [0.2, 0.5], metric=metric, points=3, seed=10)
        b = loss_landscape(c, [0.2, 0.5], metric=metric, points=3, seed=10)
        assert np.array_equal(a.values, b.values)
        assert a.metric_mode == "from_samples"

    def test_phi_grid_is_symmetric(self):
        grid = loss_landscape(_rx_cost(), [0.0], points=7,
                              scan_range=2.0, seed=11)
        assert grid.phi_values[0] == -2.0
        assert grid.phi_values[-1] == 2.0
        assert grid.phi_values == pytest.approx(-grid.phi_values[::-1])

    def test_rejects_bad_arguments(self):
        c = _rx_cost()
        with pytest.raises(ValueError, match="scan_range"):
            loss_landscape(c, [0.0], scan_range=0.0)
        with pytest.raises(ValueError, match="points"):
            loss_landscape(c, [0.0], points=1)
        with pytest.raises(ValueError, match="length"):
            loss_landscape(c, [0.0, 1.0])
        with pytest.raises(ValueError, match="basis_mode"):
            loss_landscape(c, [0.0], basis_mode="hessian")

    @pytest.mark.parametrize("scan_range", [math.inf, math.nan])
    def test_rejects_non_finite_range_up_front(self, scan_range):
        with pytest.raises(ValueError, match="scan_range must be finite"):
            loss_landscape(_rx_cost(), [0.0], scan_range=scan_range)

    def test_metric_spec_validation(self):
        with pytest.raises(ValueError, match="scorer must be callable"):
            MetricSpec("from_samples")
        for shots, message in ((0, "shots must be positive, got 0"),
                               (2.5, "shots must be an integer, got 2.5"),
                               (True, "shots must be an integer, got True")):
            with pytest.raises(ValueError, match=re.escape(message)):
                MetricSpec(len, shots=shots)

    def test_metric_mode_follows_the_scorer(self):
        assert MetricSpec().mode == MetricSpec.EXPECTATION == "expectation"
        assert MetricSpec(len).mode == MetricSpec.FROM_SAMPLES == "from_samples"

    def test_rows_and_seeds_are_the_listed_nodes(self, monkeypatch):
        # the chunks' angle rows are those of node 0, theta_star, then of node
        # 1 + i * points + j, grid point (i, j); a sampling metric seeds node r base + r
        seen = {"rows": [], "seeds": []}
        simulate_map, draw = analyzers.simulate_map, analyzers.sample
        default_chunk = simulator.CHUNK_BYTES

        def record_rows(fn, program, rows, items, group=1):
            def logged(r):
                seen["rows"].append(rows(r))
                return seen["rows"][-1]
            return simulate_map(fn, program, logged, items, group)

        def record_seed(state, shots, seed):
            seen["seeds"].append(seed)
            return draw(state, shots, seed)

        monkeypatch.setattr(analyzers, "simulate_map", record_rows)
        monkeypatch.setattr(analyzers, "sample", record_seed)
        rng = np.random.default_rng(21)
        for case in range(300):
            ansatz = layered_ansatz(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            c = make_circuit(ansatz.n_qubits, ansatz.gates, ansatz.parameter_names, Z0)
            theta_star = rng.uniform(-10.0, 10.0, c.n_params)
            points, scan_range = int(rng.integers(2, 8)), float(rng.uniform(0.1, 5.0))
            seed = int(rng.integers(2**31))
            sampling = case % 2 == 1
            metric = MetricSpec(lambda bits: float(bits.sum()), shots=1) if sampling else None
            monkeypatch.setattr(simulator, "CHUNK_BYTES",
                                default_chunk if case % 3 == 0 else int(rng.integers(1, 2**15)))
            seen["rows"].clear()
            seen["seeds"].clear()
            grid = loss_landscape(c, theta_star, metric=metric, points=points,
                                  scan_range=scan_range, seed=seed)
            phi, axes = np.linspace(-scan_range, scan_range, points), grid.basis.axes
            nodes = [theta_star + phi[i] * axes[0] + phi[j] * axes[1]
                     for i in range(points) for j in range(points)]
            assert np.array_equal(np.concatenate(seen["rows"]),
                                  c.program.angles(np.array([theta_star] + nodes)))
            assert seen["seeds"] == (list(range(seed, seed + points * points + 1))
                                     if sampling else [])

    def test_oversized_grid_fails_before_allocation(self, monkeypatch):
        # 1 MiB: the 720 008 bytes of values of a 300 x 300 grid exceed half of
        # it, those of a 200 x 200 grid fit, and its nodes come a chunk at a time
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**20)
        c = _two_param_cost()
        with monkeypatch.context() as mp:
            mp.setattr(analyzers, "simulate_map", _no_work)
            with pytest.raises(ValueError, match="the values of a 300 x 300 landscape "
                                                 "takes 720008 bytes"):
                loss_landscape(c, [0.0, 0.0], points=300, seed=0)
        assert loss_landscape(c, [0.0, 0.0], points=200, seed=0).values.shape == (200, 200)

    def test_memory_is_the_values_and_one_chunk(self, monkeypatch):
        # 61 x 61 nodes of 480 parameters: built whole, the nodes and their angle
        # table took 68 MiB, more than the physical memory the check was given
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 64 * 2**20)
        ansatz = layered_ansatz(4, 40)
        c = make_circuit(4, ansatz.gates, ansatz.parameter_names, Z0)
        c.program  # compiled outside the trace
        tracemalloc.start()
        try:
            grid = loss_landscape(c, np.zeros(c.n_params), points=61, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.values.shape == (61, 61)
        assert peak < 8 * 2**20

    def test_a_circuit_without_a_cost_fails_before_simulating(self, monkeypatch):
        c, theta = layered_ansatz(2, 1), np.zeros(6)
        with monkeypatch.context() as mp:
            mp.setattr(simulator, "simulate_batch", _no_work)
            with pytest.raises(ValueError, match="circuit has no cost observable attached"):
                loss_landscape(c, theta, points=3, seed=0)
        # a sampling metric needs no cost
        metric = MetricSpec(lambda bits: float(bits.mean()), shots=4)
        assert loss_landscape(c, theta, metric=metric, points=3, seed=0).values.shape == (3, 3)


class TestBarrenPlateauScan:
    def test_origin_is_a_zero_of_both_costs(self):
        c = identity_learning_ansatz(2)
        for kind in ("global", "local"):
            scan = barren_plateau_scan(c, kind, points=3)
            assert scan.loss[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_full_flip_maximizes_global_cost(self):
        scan = barren_plateau_scan(identity_learning_ansatz(2), "global",
                                   points=3)
        assert scan.loss[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert scan.loss[2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_gradient_grid_matches_finite_differences(self):
        from pqc_lens.library import all_zeros_infidelity_cost

        c = identity_learning_ansatz(3)
        scan = barren_plateau_scan(c, "global", points=5)
        scored = make_circuit(3, c.gates, [p.name for p in c.parameters],
                              all_zeros_infidelity_cost(3))
        theta = (scan.theta1_values[1], scan.theta2_values[3])
        want = oracles.fd_gradient(scored, theta)[1]
        assert scan.grad_theta2[1, 3] == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("scan_range", [math.inf, math.nan])
    def test_rejects_non_finite_range_up_front(self, scan_range):
        with pytest.raises(ValueError, match="scan_range must be finite"):
            barren_plateau_scan(identity_learning_ansatz(2), "global",
                                points=3, scan_range=scan_range)

    def test_local_cost_has_larger_mean_gradient_at_four_qubits(self):
        c = identity_learning_ansatz(4)
        g = barren_plateau_scan(c, "global", points=11)
        l = barren_plateau_scan(c, "local", points=11)
        assert l.mean_abs_grad > g.mean_abs_grad

    def test_mean_abs_grad_matches_grid(self):
        scan = barren_plateau_scan(identity_learning_ansatz(2), "local",
                                   points=5)
        assert scan.mean_abs_grad == pytest.approx(
            float(np.mean(np.abs(scan.grad_theta2)))
        )

    def test_to_dict_carries_both_grids(self):
        scan = barren_plateau_scan(identity_learning_ansatz(2), "local", points=3)
        doc = json.loads(json.dumps(scan.to_dict()))
        assert doc["kind"] == "barren-plateau-scan" and doc["cost_kind"] == "local"
        assert doc["theta1"] == doc["theta2"] == scan.theta1_values.tolist()
        assert doc["loss"] == scan.loss.tolist()
        assert doc["grad_theta2"] == scan.grad_theta2.tolist()
        assert doc["mean_abs_grad"] == scan.mean_abs_grad

    def test_rejects_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="2 parameters"):
            barren_plateau_scan(_rx_cost())

    def test_rejects_unknown_cost_kind(self):
        with pytest.raises(ValueError, match="cost_kind"):
            barren_plateau_scan(identity_learning_ansatz(2), "goldilocks")

    def test_rows_are_the_listed_nodes(self, monkeypatch):
        seen = []

        def record(circuit, thetas):
            seen.append(thetas)
            return np.zeros(thetas.shape[0]), np.zeros(thetas.shape)

        monkeypatch.setattr(analyzers, "_loss_and_gradient", record)
        for points in (2, 3, 8, 21):
            scan = barren_plateau_scan(identity_learning_ansatz(2), points=points,
                                       scan_range=1.3)
            axis = scan.theta1_values
            nodes = [(axis[i], axis[j]) for i in range(points) for j in range(points)]
            assert np.array_equal(seen[-1], np.array(nodes))

    def test_oversized_grid_fails_before_allocation(self, monkeypatch):
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**20)
        c = identity_learning_ansatz(2)
        with pytest.raises(ValueError, match=r"the parameter-shift costs and gradients "
                                             r"of 10000 point\(s\) takes"):
            barren_plateau_scan(c, points=100)
        assert barren_plateau_scan(c, points=10).loss.shape == (10, 10)
        # a grid whose nodes alone do not fit is refused before it is built
        monkeypatch.setattr(analyzers, "_loss_and_gradient", _no_work)
        with pytest.raises(ValueError, match="a 200 x 200 scan grid takes"):
            barren_plateau_scan(c, points=200)


class TestTrainingPath:
    def test_single_descent_is_monotone_along_first_axis(self):
        # second parameter feeds an RZ that cannot move <Z0>, so the path
        # is a straight line traversed monotonically
        c = make_circuit(
            1,
            [Gate("RX", (0,), ParamRef("a")), Gate("RZ", (0,), ParamRef("b"))],
            ["a", "b"],
            Z0,
        )
        trace = train(c, OptimizerConfig(
            method="gd", learning_rate=0.3, steps=40, init=[0.5, 1.0]))
        path = training_path([trace])
        deltas = np.diff(path.coords[:, 0])
        assert np.all(deltas > 0) or np.all(deltas < 0)
        assert path.coords[:, 1] == pytest.approx(np.zeros(41), abs=1e-9)

    def test_pooling_keeps_per_restart_tags(self):
        traces = ensemble_train(_two_param_cost(),
                                OptimizerConfig(steps=10, seed=3), restarts=3)
        path = training_path(traces)
        assert path.coords.shape == (33, 2)
        assert list(path.restarts[:11]) == [0] * 11
        assert list(path.steps[:11]) == list(range(11))
        assert path.final_losses == tuple(float(t.losses[-1]) for t in traces)
        assert path.losses[11] == pytest.approx(float(traces[1].losses[0]))

    def test_pca_mode_reports_basis_and_variance(self):
        traces = ensemble_train(_two_param_cost(),
                                OptimizerConfig(steps=8, seed=5), restarts=2)
        path = training_path(traces)
        assert path.mode == "pca"
        assert path.basis is not None
        assert path.explained is not None
        assert np.all(np.diff(path.explained) <= 1e-12)

    def test_pca_report_carries_the_explained_variance(self):
        traces = ensemble_train(_two_param_cost(),
                                OptimizerConfig(steps=8, seed=5), restarts=2)
        path = training_path(traces)
        doc = json.loads(json.dumps(path.to_dict()))
        assert doc["explained_variance_ratio"] == path.explained.tolist()
        assert doc["basis"]["axes"] == path.basis.axes.tolist()

    def test_overlay_frame_does_the_projection(self):
        c = _two_param_cost()
        traces = ensemble_train(c, OptimizerConfig(steps=12, seed=6), restarts=2)
        best = min(traces, key=lambda t: float(t.losses.min()))
        grid = loss_landscape(c, best.thetas[-1], basis_mode="pca",
                              points=3, seed=7, trace=best)
        path = training_path(traces, overlay=grid)
        pooled = np.vstack([t.thetas for t in traces])
        assert np.array_equal(path.coords, grid.basis.project(pooled))
        assert path.overlay is grid
        assert path.basis is grid.basis

    def test_tsne_mode_runs_and_is_seeded(self):
        traces = ensemble_train(_two_param_cost(),
                                OptimizerConfig(steps=25, seed=8), restarts=2)
        a = training_path(traces, mode="tsne", perplexity=6.0, iters=120, seed=9)
        b = training_path(traces, mode="tsne", perplexity=6.0, iters=120, seed=9)
        assert np.array_equal(a.coords, b.coords)
        assert a.explained is None and a.basis is None

    def test_duplicate_traces_embed_deterministically(self):
        trace = train(_two_param_cost(), OptimizerConfig(steps=6, seed=10))
        a = training_path([trace, trace])
        b = training_path([trace, trace])
        assert np.array_equal(a.coords, b.coords)

    def test_overlay_with_tsne_is_rejected(self):
        c = _two_param_cost()
        trace = train(c, OptimizerConfig(steps=5, seed=11))
        grid = loss_landscape(c, trace.thetas[-1], points=3, seed=12)
        with pytest.raises(ValueError, match="pca"):
            training_path([trace], mode="tsne", overlay=grid)

    def test_rejects_empty_or_tiny_input(self):
        with pytest.raises(ValueError, match="trace"):
            training_path([])
        tiny = train(_rx_cost(), OptimizerConfig(steps=1, seed=1))
        with pytest.raises(ValueError, match="3 pooled"):
            training_path([tiny])

    def test_traces_of_different_widths_are_rejected(self):
        narrow = train(_rx_cost(), OptimizerConfig(steps=3, seed=1))
        wide = train(_two_param_cost(), OptimizerConfig(steps=3, seed=2))
        with pytest.raises(ValueError, match="2 parameters, trace 0 has 1"):
            training_path([narrow, wide])

    def test_overlay_of_another_dimension_is_rejected(self):
        c = _two_param_cost()
        grid = loss_landscape(c, np.zeros(2), points=3, seed=12)
        narrow = train(_rx_cost(), OptimizerConfig(steps=3, seed=1))
        with pytest.raises(ValueError, match="frame has 2 parameters, the traces have 1"):
            training_path([narrow], overlay=grid)


class TestParameterHistogram:
    def _ensemble(self, members=32, steps=150):
        # plain GD settles all the way into the cosine minimum, so the
        # terminal spread is far below one bin width
        return ensemble_train(
            _rx_cost(),
            OptimizerConfig(method="gd", learning_rate=0.4,
                            steps=steps, seed=40),
            restarts=members,
        )

    def test_shapes_and_normalization(self):
        series = parameter_histogram(self._ensemble(members=6, steps=10),
                                     bins=20)
        assert series.masses.shape == (11, 1, 20)
        assert series.n_steps == 11
        assert series.n_params == 1
        assert series.n_members == 6
        sums = series.masses.sum(axis=2)
        assert sums == pytest.approx(np.ones((11, 1)))

    def test_converged_ensemble_concentrates_mass(self):
        series = parameter_histogram(self._ensemble(), bins=75)
        final = series.masses[-1, 0]
        assert float(final.max()) >= 0.8
        spike_center = 0.5 * (series.bin_edges[0][np.argmax(final)]
                              + series.bin_edges[0][np.argmax(final) + 1])
        assert spike_center == pytest.approx(math.pi, abs=0.15)

    def test_initial_step_is_spread_out(self):
        series = parameter_histogram(self._ensemble(), bins=75)
        assert float(series.masses[0, 0].max()) < 0.5

    def test_histogram_at_returns_valid_histogram(self):
        series = parameter_histogram(self._ensemble(members=4, steps=5),
                                     bins=10)
        h = series.histogram_at(2, 0)
        assert h.total_samples == 4
        assert float(h.masses.sum()) == pytest.approx(1.0)

    def test_constant_parameter_gets_padded_range(self):
        c = _rx_cost()
        frozen = [train(c, OptimizerConfig(steps=0, init=[1.0], seed=s))
                  for s in range(3)]
        series = parameter_histogram(frozen, bins=5)
        lo, hi = series.ranges[0]
        assert lo < 1.0 < hi
        assert float(series.masses[0, 0].max()) == pytest.approx(1.0)

    def test_rejects_ragged_or_tiny_ensembles(self):
        c = _rx_cost()
        a = train(c, OptimizerConfig(steps=3, seed=1))
        b = train(c, OptimizerConfig(steps=4, seed=2))
        with pytest.raises(ValueError, match="ragged"):
            parameter_histogram([a, b])
        with pytest.raises(ValueError, match="2 ensemble"):
            parameter_histogram([a])

    def test_dict_layout(self):
        doc = parameter_histogram(self._ensemble(members=3, steps=4),
                                  bins=8).to_dict()
        assert doc["kind"] == "parameter-histograms"
        assert doc["members"] == 3
        assert len(doc["parameters"]) == 1
        assert len(doc["parameters"][0]["masses"]) == 5


class TestReachability:
    def test_fixed_state_against_haar_floor(self):
        c = make_circuit(1, [], [], Z0)
        report = reachability(c, haar_samples=2000, restarts=1,
                              config=OptimizerConfig(steps=0), seed=14)
        assert report.pqc_minimum == pytest.approx(1.0, abs=1e-12)
        assert report.haar_minimum == pytest.approx(-1.0, abs=0.01)
        assert report.f_r == pytest.approx(-2.0, abs=0.01)
        assert report.f_r == pytest.approx(
            report.haar_minimum - report.pqc_minimum, abs=1e-15
        )

    def test_expressive_single_qubit_closes_the_gap(self):
        cfg = OptimizerConfig(method="adam", learning_rate=0.1, steps=150)
        report = reachability(_rx_cost(), haar_samples=800, restarts=2,
                              config=cfg, seed=15)
        assert abs(report.f_r) < 0.05

    def test_deterministic_under_seed(self):
        cfg = OptimizerConfig(steps=5)
        a = reachability(_rx_cost(), 50, 2, config=cfg, seed=16)
        b = reachability(_rx_cost(), 50, 2, config=cfg, seed=16)
        assert a.to_dict() == b.to_dict()

    def test_rejects_missing_cost_or_bad_counts(self):
        no_cost = make_circuit(1, [Gate("H", (0,))], [])
        with pytest.raises(ValueError, match="cost"):
            reachability(no_cost, 10, 1)
        with pytest.raises(ValueError):
            reachability(_rx_cost(), 0, 1)
        with pytest.raises(ValueError):
            reachability(_rx_cost(), 10, 0)

    def test_wrong_length_init_fails_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(analyzers, "_haar_batch", lambda *args: draws.append(args))
        config = OptimizerConfig(init=[0.0, 0.0], steps=1)
        with pytest.raises(ValueError, match="init vector has length 2, circuit declares 1"):
            reachability(_rx_cost(), 300_000, 2, config=config, seed=0)
        assert len(draws) == 0

    def test_non_finite_init_fails_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(analyzers, "_haar_batch", lambda *args: draws.append(args))
        config = OptimizerConfig(init=[math.nan], steps=1)
        with pytest.raises(ValueError, match="init vector holds a non-finite value"):
            reachability(_rx_cost(), 300_000, 2, config=config, seed=0)
        assert len(draws) == 0

    def test_oversized_trace_fails_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(analyzers, "_haar_batch", _no_work)
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**30)
        config = OptimizerConfig(steps=2_000_000_000)
        with pytest.raises(ValueError, match="a trace of 2 restart"
                                             r"\(s\) over 2000000000 steps takes"):
            reachability(_rx_cost(), 300_000, 2, config=config, seed=0)


@pytest.mark.parametrize("analyze", [expressibility, entanglement_capability,
                                     entanglement_spectrum])
def test_oversized_sample_counts_fail_before_drawing(monkeypatch, analyze):
    # 64 KiB: the results of 10 000 samples, at least one float each, do not
    # fit, those of 100 do
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**16)
    circuit = layered_ansatz(2, 1)
    with pytest.raises(ValueError, match="the results of 10000 samples takes"):
        analyze(circuit, 10_000, seed=0)
    assert analyze(circuit, 100, seed=0).samples == 100


def _no_work(*args, **kwargs):
    raise AssertionError("simulated or drew before checking the arguments")


_BINNED = {
    "expressibility": lambda bins: expressibility(layered_ansatz(3, 1), 50, bins=bins, seed=0),
    "entanglement_spectrum": lambda bins: entanglement_spectrum(layered_ansatz(3, 1), 50,
                                                                bins=bins, seed=0),
    "mp_reference_spectrum": lambda bins: mp_reference_spectrum(3, 1, 50, rng=0, bins=bins),
    "haar_fidelity_baseline": lambda bins: haar_fidelity_baseline(bins, 4),
}


@pytest.mark.parametrize("bins, message", [
    (0, "bins must be positive"),
    (-3, "bins must be positive"),
    (2_000_000_000, "a {} of 2000000000 bins takes"),
])
@pytest.mark.parametrize("name", _BINNED)
def test_bins_are_checked_before_any_simulation_or_draw(monkeypatch, name, bins, message):
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**30)
    for module, attr in ((simulator, "simulate_map"), (analyzers, "simulate_map"),
                         (baselines, "_haar_batch")):
        monkeypatch.setattr(module, attr, _no_work)
    what = "baseline" if name == "haar_fidelity_baseline" else "histogram"
    with pytest.raises(ValueError, match=message.format(what)):
        _BINNED[name](bins)


_ANALYZER_NO_WORK = ((simulator, "simulate_map"), (analyzers, "simulate_map"),
                     (trainer, "simulate_map"), (trainer, "_initial_theta"),
                     (analyzers, "_haar_batch"), (baselines, "_haar_batch"),
                     (analyzers, "pca"), (analyzers, "tsne"))


def _flat_trace():
    return TrainingTrace(0, np.zeros((3, 2)), np.zeros(3))


@pytest.mark.parametrize("message, call", [
    ("samples must be an integer, got 2.5",
     lambda: expressibility(layered_ansatz(2, 1), 2.5, seed=0)),
    ("samples must be an integer, got True",
     lambda: expressibility(layered_ansatz(2, 1), True, seed=0)),
    ("samples must be an integer, got 1.5",
     lambda: entanglement_capability(layered_ansatz(2, 1), 1.5, seed=0)),
    ("samples must be an integer, got 2.5",
     lambda: entanglement_spectrum(layered_ansatz(2, 1), 2.5, seed=0)),
    ("bins must be an integer, got 10.5",
     lambda: expressibility(layered_ansatz(2, 1), 10, bins=10.5, seed=0)),
    ("bins must be an integer, got 10.0",
     lambda: entanglement_spectrum(layered_ansatz(2, 1), 10, bins=10.0, seed=0)),
    ("points must be an integer, got 3.5",
     lambda: loss_landscape(_two_param_cost(), [0.0, 0.0], points=3.5, seed=0)),
    ("points must be an integer, got 3.5",
     lambda: barren_plateau_scan(identity_learning_ansatz(2), points=3.5)),
    ("haar_samples must be an integer, got 2.5", lambda: reachability(_rx_cost(), 2.5, 1, seed=0)),
    ("restarts must be an integer, got 1.5", lambda: reachability(_rx_cost(), 10, 1.5, seed=0)),
    ("samples must be an integer, got 2.5", lambda: mp_reference_spectrum(4, 2, 2.5, rng=0)),
    ("bins must be an integer, got 7.5", lambda: mp_reference_spectrum(4, 2, 3, rng=0, bins=7.5)),
    ("k must be an integer, got 1.5", lambda: mp_reference_spectrum(4, 1.5, 2, rng=0)),
    ("n_qubits must be an integer, got 4.0", lambda: mp_reference_spectrum(4.0, 2, 2, rng=0)),
    # below the floor
    ("samples must be at least 2, got 1", lambda: expressibility(layered_ansatz(2, 1), 1, seed=0)),
    ("samples must be positive, got 0",
     lambda: entanglement_capability(layered_ansatz(2, 1), 0, seed=0)),
    ("samples must be positive, got -1",
     lambda: entanglement_spectrum(layered_ansatz(2, 1), -1, seed=0)),
    ("bins must be positive, got 0",
     lambda: expressibility(layered_ansatz(2, 1), 10, bins=0, seed=0)),
    ("points must be at least 2, got 1",
     lambda: loss_landscape(_two_param_cost(), [0.0, 0.0], points=1, seed=0)),
    ("points must be at least 2, got 1",
     lambda: barren_plateau_scan(identity_learning_ansatz(2), points=1)),
    ("haar_samples must be positive, got 0", lambda: reachability(_rx_cost(), 0, 1, seed=0)),
    ("restarts must be positive, got 0", lambda: reachability(_rx_cost(), 10, 0, seed=0)),
    ("samples must be positive, got 0", lambda: mp_reference_spectrum(4, 2, 0, rng=0)),
    ("k must be in [1, 3], got 4", lambda: mp_reference_spectrum(4, 4, 2, rng=0)),
    ("k must be in [1, 3], got 0", lambda: mp_reference_spectrum(4, 0, 2, rng=0)),
    ("n_qubits must be at least 2, got 1", lambda: mp_reference_spectrum(1, 1, 2, rng=0)),
    ("dim must be an integer, got 2.5", lambda: haar_fidelity_cdf(0.5, 2.5)),
    ("dim must be at least 2, got 1", lambda: haar_fidelity_cdf(0.5, 1)),
    ("restarts must be positive, got 0",
     lambda: ensemble_train(_rx_cost(), OptimizerConfig(steps=1, seed=0), 0)),
    ("steps must be non-negative, got -1", lambda: OptimizerConfig(steps=-1)),
    # outside the choices
    ("measure must be one of ('kld', 'jsd'), got 'kl'",
     lambda: expressibility(layered_ansatz(2, 1), 10, "kl", seed=0)),
    ("measure must be one of ('meyer-wallach', 'scott'), got 'mw'",
     lambda: entanglement_capability(layered_ansatz(2, 1), 10, "mw", seed=0)),
    ("measure must be one of ('kld', 'jsd'), got 'esd'",
     lambda: entanglement_spectrum(layered_ansatz(2, 1), 10, "esd", seed=0)),
    ("basis_mode must be one of ('random', 'pca'), got 'grid'",
     lambda: loss_landscape(_two_param_cost(), [0.0, 0.0], basis_mode="grid", seed=0)),
    ("cost_kind must be one of ('global', 'local'), got 'mean'",
     lambda: barren_plateau_scan(identity_learning_ansatz(2), "mean")),
    ("mode must be one of ('pca', 'tsne'), got 'umap'",
     lambda: training_path([_flat_trace()], mode="umap")),
    ("method must be one of ('gd', 'adam'), got 'sgd'", lambda: OptimizerConfig(method="sgd")),
    ("init must be one of ('uniform', 'zeros'), got 'zero'", lambda: OptimizerConfig(init="zero")),
], ids=["expressibility-samples", "expressibility-bool-samples", "entanglement-samples",
        "spectrum-samples", "expressibility-bins", "spectrum-bins", "landscape-points",
        "plateau-points", "reachability-haar-samples", "reachability-restarts",
        "reference-samples", "reference-bins", "reference-k", "reference-n-qubits",
        "expressibility-one-sample", "entanglement-zero-samples", "spectrum-negative-samples",
        "expressibility-zero-bins", "landscape-one-point", "plateau-one-point",
        "reachability-zero-haar-samples", "reachability-zero-restarts",
        "reference-zero-samples", "reference-k-whole-register", "reference-zero-k",
        "reference-one-qubit", "cdf-dim", "cdf-one-dim", "ensemble-zero-restarts", "config-negative-steps",
        "expressibility-measure", "entanglement-measure", "spectrum-measure",
        "landscape-basis-mode", "plateau-cost-kind", "path-mode", "config-method",
        "config-init"])
def test_counts_that_are_not_integers_fail_before_any_work(monkeypatch, message, call):
    for module, attr in _ANALYZER_NO_WORK:
        monkeypatch.setattr(module, attr, _no_work)
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_numpy_counts_at_their_floor_are_accepted():
    two, one = np.int64(2), np.int64(1)
    assert (json.dumps(expressibility(layered_ansatz(2, 1), two, bins=one, seed=0).to_dict())
            == json.dumps(expressibility(layered_ansatz(2, 1), 2, bins=1, seed=0).to_dict()))
    assert (entanglement_capability(layered_ansatz(2, 1), one, seed=0)
            == entanglement_capability(layered_ansatz(2, 1), 1, seed=0))
    by_numpy = mp_reference_spectrum(two, one, one, rng=0, bins=one)
    by_int = mp_reference_spectrum(2, 1, 1, rng=0, bins=1)
    assert by_numpy.profile.tolist() == by_int.profile.tolist()
    assert (reachability(_rx_cost(), one, one, OptimizerConfig(steps=np.int64(0)), seed=0)
            == reachability(_rx_cost(), 1, 1, OptimizerConfig(steps=0), seed=0))


_BAD_SEEDS = [1.9, True, "7", -1]
_BAD_SEED_MESSAGES = ["seed must be an integer, got 1.9", "seed must be an integer, got True",
                      "seed must be an integer, got '7'", "seed must be non-negative, got -1"]


@pytest.mark.parametrize("seed, message", zip(_BAD_SEEDS, _BAD_SEED_MESSAGES),
                         ids=["float", "bool", "string", "negative"])
@pytest.mark.parametrize("call", [
    lambda seed: expressibility(layered_ansatz(2, 1), 5, seed=seed),
    lambda seed: ensemble_train(_rx_cost(), OptimizerConfig(steps=1, seed=seed), 2),
    lambda seed: OptimizerConfig(seed=seed),
    lambda seed: reachability(_rx_cost(), 5, 1, seed=seed),
    lambda seed: loss_landscape(_two_param_cost(), [0.0, 0.0], points=3, seed=seed),
    lambda seed: sample(StateVector(1, np.array([1.0, 0.0])), 4, seed=seed),
    lambda seed: simulate_noisy(bell_circuit(), NoiseModel(p1=0.5), seed=seed),
    lambda seed: random_basis(3, 2, seed=seed),
    lambda seed: tsne(np.arange(12.0).reshape(6, 2), perplexity=1.0, iters=1, seed=seed),
    lambda seed: random_gnm_edges(4, 2, seed=seed),
], ids=["expressibility", "ensemble-train", "config", "reachability", "landscape", "sample",
        "noisy", "random-basis", "tsne", "gnm-edges"])
def test_seeds_are_never_truncated(monkeypatch, call, seed, message):
    for module, attr in _ANALYZER_NO_WORK:
        monkeypatch.setattr(module, attr, _no_work)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(seed)


def test_a_numpy_seed_gives_the_bytes_of_the_int_seed():
    circuit = layered_ansatz(2, 1)
    assert (json.dumps(expressibility(circuit, 5, seed=np.int64(5)).to_dict())
            == json.dumps(expressibility(circuit, 5, seed=5).to_dict()))
    [by_numpy] = ensemble_train(_rx_cost(), OptimizerConfig(steps=2, seed=np.int64(5)), 1)
    [by_int] = ensemble_train(_rx_cost(), OptimizerConfig(steps=2, seed=5), 1)
    assert by_numpy.thetas.tobytes() == by_int.thetas.tobytes()


_ZERO_STATE = StateVector(1, np.array([1.0, 0.0]))


@pytest.mark.parametrize("message, call", [
    # a bool is not 1.0
    ("learning_rate must be a real number, got True", lambda: OptimizerConfig(learning_rate=True)),
    ("scan_range must be a real number, got True",
     lambda: loss_landscape(_two_param_cost(), [0.0, 0.0], points=3, scan_range=True, seed=0)),
    ("scan_range must be a real number, got True",
     lambda: barren_plateau_scan(identity_learning_ansatz(2), scan_range=True)),
    ("perplexity must be a real number, got True",
     lambda: tsne(np.arange(12.0).reshape(6, 2), perplexity=True, iters=1, seed=0)),
    ("p1 must be a real number, got True", lambda: NoiseModel(p1=True)),
    ("readout_flip_prob must be a real number, got True",
     lambda: sample(_ZERO_STATE, 4, seed=0, readout_flip_prob=True)),
    # nor is a string or None
    ("learning_rate must be a real number, got '0.1'",
     lambda: OptimizerConfig(learning_rate="0.1")),
    ("learning_rate must be a real number, got None", lambda: OptimizerConfig(learning_rate=None)),
    ("scan_range must be a real number, got '1'",
     lambda: loss_landscape(_two_param_cost(), [0.0, 0.0], points=3, scan_range="1", seed=0)),
    ("cutoff must be a real number, got 'x'",
     lambda: entanglement_spectrum(layered_ansatz(2, 1), 5, cutoff="x", seed=0)),
    ("readout_flip_prob must be a real number, got None",
     lambda: sample(_ZERO_STATE, 4, seed=0, readout_flip_prob=None)),
    # an int beyond the float range is not finite
    ("learning_rate must be finite and positive, got 1000",
     lambda: OptimizerConfig(learning_rate=10**400)),
    # the baselines' fidelities and value ranges
    ("fidelity must be a real number, got '0.5'", lambda: haar_fidelity_cdf("0.5", 4)),
    ("fidelity must be a real number, got True", lambda: haar_fidelity_cdf(True, 4)),
    ("fidelity must be finite, got nan", lambda: haar_fidelity_cdf(math.nan, 4)),
    ("fidelity must be a real number or an array of finite reals",
     lambda: haar_fidelity_cdf(np.array([0.5, math.nan]), 4)),
    ("fidelity must be a real number or an array of finite reals",
     lambda: haar_fidelity_cdf(["0.5"], 4)),
    ("value_range[0] must be a real number, got True",
     lambda: baselines.histogram([0.5], 2, (True, 2))),
    ("value_range[0] must be a real number, got '0'",
     lambda: baselines.histogram([0.5], 2, ("0", "1"))),
    ("value_range[1] must be finite, got nan",
     lambda: baselines.histogram([0.5], 2, (0.0, math.nan))),
], ids=["bool-learning-rate", "bool-scan-range", "bool-plateau-scan-range", "bool-perplexity",
        "bool-p1", "bool-readout", "string-learning-rate", "none-learning-rate",
        "string-scan-range", "string-cutoff", "none-readout", "huge-learning-rate",
        "string-fidelity", "bool-fidelity", "nan-fidelity", "nan-fidelity-array",
        "string-fidelity-list", "bool-value-range", "string-value-range", "nan-value-range"])
def test_real_arguments_are_checked_by_one_rule(monkeypatch, message, call):
    for module, attr in _ANALYZER_NO_WORK:
        monkeypatch.setattr(module, attr, _no_work)
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_ints_and_numpy_reals_are_accepted_as_reals():
    assert NoiseModel(p1=np.float32(0.5), p2=1) == NoiseModel(0.5, 1.0)
    assert OptimizerConfig(learning_rate=np.int64(1)) == OptimizerConfig(learning_rate=1.0)
    assert (sample(_ZERO_STATE, 8, seed=0, readout_flip_prob=np.float32(0.25))
            == sample(_ZERO_STATE, 8, seed=0, readout_flip_prob=0.25))
    assert (json.dumps(entanglement_spectrum(layered_ansatz(2, 1), 3, cutoff=-30, seed=0)
                       .to_dict())
            == json.dumps(entanglement_spectrum(layered_ansatz(2, 1), 3, seed=0).to_dict()))
    assert haar_fidelity_cdf(np.float32(0.5), 2) == haar_fidelity_cdf(0.5, 2) == 0.5
    assert np.array_equal(haar_fidelity_cdf(np.linspace(0.0, 1.0, 5), 2), np.linspace(0.0, 1.0, 5))
    assert (baselines.histogram([0.5], 2, (np.int64(0), 1)).masses
            == baselines.histogram([0.5], 2, (0.0, 1.0)).masses).all()
