import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pqc_lens import (
    DivergenceError,
    Gate,
    OptimizerConfig,
    ParamRef,
    PauliSum,
    all_zeros_infidelity_cost,
    ensemble_train,
    evaluate_cost,
    gradient,
    identity_learning_ansatz,
    layered_ansatz,
    loss_landscape,
    make_circuit,
    mean_excitation_cost,
    qaoa_builder,
    random_gnm_edges,
    simulator,
    train,
    trainer,
)
from pqc_lens.trainer import _loss_and_gradient, cost_batch

Z0 = PauliSum.from_terms([(1.0, {0: "Z"})])


def _rx_cost():
    return make_circuit(1, [Gate("RX", (0,), ParamRef("a"))], ["a"], Z0)


def _shared_param_circuit():
    # one parameter driving three occurrences with different prefactors
    gates = [
        Gate("RX", (0,), ParamRef("a")),
        Gate("RY", (1,), ParamRef("a", 2.0)),
        Gate("CX", (0, 1)),
        Gate("RZ", (1,), ParamRef("a", -0.5)),
        Gate("RY", (0,), ParamRef("b", 1.5)),
    ]
    cost = PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {1: "X"})])
    return make_circuit(2, gates, ["a", "b"], cost)


class TestEvaluateCost:
    def test_rx_gives_cosine(self):
        c = _rx_cost()
        for theta in (0.0, 0.7, 2.4):
            assert evaluate_cost(c, [theta]) == pytest.approx(math.cos(theta), abs=1e-12)

    def test_requires_cost_observable(self):
        c = make_circuit(1, [Gate("H", (0,))], [])
        with pytest.raises(ValueError, match="cost"):
            evaluate_cost(c, [])

    def test_zero_row_batch_is_empty(self):
        c = qaoa_builder([(0, 1), (1, 2), (2, 3), (0, 3)], 2)
        costs = cost_batch(c, np.empty((0, c.n_params)))
        assert costs.shape == (0,) and costs.dtype == float


class TestGradient:
    def test_rx_gradient_is_minus_sine(self):
        c = _rx_cost()
        for theta in (0.0, 0.7, 2.4):
            assert gradient(c, [theta])[0] == pytest.approx(-math.sin(theta), abs=1e-12)

    def test_shared_parameters_accumulate_occurrences(self):
        c = _shared_param_circuit()
        theta = np.array([0.8, -0.3])
        got = gradient(c, theta)
        want = oracles.fd_gradient(c, theta)
        assert got == pytest.approx(want, abs=1e-6)

    def test_matches_finite_differences_on_random_circuits(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 25:
            c = oracles.random_circuit(rng, max_qubits=4, with_cost=True)
            if c.n_params == 0:
                continue
            theta = rng.uniform(0, 2 * np.pi, c.n_params)
            assert gradient(c, theta) == pytest.approx(
                oracles.fd_gradient(c, theta), abs=1e-6
            )
            checked += 1

    def test_parameter_free_circuit_has_empty_gradient(self):
        c = make_circuit(1, [Gate("H", (0,))], [], Z0)
        assert gradient(c, []).shape == (0,)


@pytest.mark.parametrize("call", [
    lambda c, theta: cost_batch(c, theta[None]),
    gradient,
    lambda c, theta: loss_landscape(c, theta, points=3, seed=0),
], ids=["cost_batch", "gradient", "loss_landscape"])
def test_overflowing_angle_is_a_value_error(call):
    # theta is finite, but the mixer angle 2 * beta overflows to inf
    c = qaoa_builder([(0, 1), (1, 2)], p=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflowed to inf"):
            call(c, np.array([0.1, 1e308]))


class TestOptimizerConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="lbfgs")

    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=-0.1)

    def test_rejects_nan_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            OptimizerConfig(learning_rate=math.nan)

    def test_rejects_infinite_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            OptimizerConfig(learning_rate=math.inf)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            OptimizerConfig(steps=-1)

    def test_rejects_unknown_init_mode_when_built(self):
        with pytest.raises(ValueError,
                           match="init must be one of \\('uniform', 'zeros'\\), got 'zero'"):
            OptimizerConfig(init="zero")

    @pytest.mark.parametrize("steps", [2.5, 3.0, True])
    def test_rejects_step_counts_that_are_not_integers(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            OptimizerConfig(steps=steps)
        assert OptimizerConfig(steps=np.int64(3)).steps == 3

    @pytest.mark.parametrize("restarts", [1.5, 2.0, True])
    def test_ensemble_rejects_restart_counts_that_are_not_integers(self, monkeypatch, restarts):
        def no_work(*args):
            raise AssertionError("trained before checking the restart count")

        monkeypatch.setattr(trainer, "_initial_theta", no_work)
        with pytest.raises(ValueError, match="restarts must be an integer"):
            ensemble_train(_rx_cost(), OptimizerConfig(steps=1, seed=0), restarts)


class TestTrain:
    def test_gd_single_step_update_rule(self):
        c = _rx_cost()
        cfg = OptimizerConfig(method="gd", learning_rate=0.3, steps=1, init=[0.7])
        trace = train(c, cfg)
        want = 0.7 - 0.3 * (-math.sin(0.7))
        assert trace.thetas[1, 0] == pytest.approx(want, abs=1e-12)
        assert trace.losses[1] == pytest.approx(math.cos(want), abs=1e-12)

    def test_gd_converges_to_cosine_minimum(self):
        c = _rx_cost()
        cfg = OptimizerConfig(method="gd", learning_rate=0.4, steps=120, init=[0.5])
        trace = train(c, cfg)
        assert trace.losses[-1] == pytest.approx(-1.0, abs=1e-6)
        assert trace.thetas[-1, 0] == pytest.approx(math.pi, abs=1e-3)

    def test_adam_converges_to_cosine_minimum(self):
        c = _rx_cost()
        cfg = OptimizerConfig(method="adam", learning_rate=0.1, steps=200, init=[0.5])
        trace = train(c, cfg)
        assert trace.losses[-1] == pytest.approx(-1.0, abs=1e-4)

    def test_trace_shapes_include_initial_point(self):
        c = _shared_param_circuit()
        trace = train(c, OptimizerConfig(steps=7, seed=3))
        assert trace.thetas.shape == (8, 2)
        assert trace.losses.shape == (8,)
        assert trace.restart_id == 0

    def test_zeros_init_starts_at_the_origin(self):
        trace = train(_shared_param_circuit(), OptimizerConfig(steps=2, init="zeros", seed=3))
        assert np.array_equal(trace.thetas[0], np.zeros(2))

    def test_zero_steps_records_only_initial_point(self):
        c = _rx_cost()
        trace = train(c, OptimizerConfig(steps=0, init=[1.1]))
        assert trace.thetas.shape == (1, 1)
        assert trace.losses[0] == pytest.approx(math.cos(1.1), abs=1e-12)

    def test_deterministic_under_seed(self):
        c = _shared_param_circuit()
        a = train(c, OptimizerConfig(steps=10, seed=21))
        b = train(c, OptimizerConfig(steps=10, seed=21))
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.losses, b.losses)

    def test_explicit_init_vector(self):
        c = _shared_param_circuit()
        trace = train(c, OptimizerConfig(steps=0, init=[0.1, 0.2]))
        assert trace.thetas[0] == pytest.approx([0.1, 0.2])

    def test_rejects_wrong_init_length(self):
        c = _shared_param_circuit()
        with pytest.raises(ValueError, match="length"):
            train(c, OptimizerConfig(steps=0, init=[0.1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_init_before_training(self, bad):
        c = qaoa_builder([(0, 1), (1, 2)], 1)
        with pytest.raises(ValueError, match="init vector holds a non-finite value"):
            train(c, OptimizerConfig(steps=2, init=[bad, 0.1]))

    def test_divergence_raises(self):
        c = _rx_cost()
        cfg = OptimizerConfig(
            method="adam", learning_rate=1e308, steps=3, init=[0.5]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="parameters became non-finite at step 3"):
                train(c, cfg)

    def test_overflowing_angle_diverges_without_numpy_warning(self):
        # QAOA's mixer angle is 2 * beta; the first Adam step puts beta near
        # 1e308, so the angle overflows although the parameters stay finite
        c = qaoa_builder([(0, 1), (1, 2)], p=1)
        cfg = OptimizerConfig(method="adam", learning_rate=1e308, steps=5, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="overflowed at step 1"):
                train(c, cfg)


class TestEnsemble:
    def test_restart_seeds_are_base_plus_index(self):
        c = _shared_param_circuit()
        cfg = OptimizerConfig(steps=4, seed=100)
        traces = ensemble_train(c, cfg, restarts=3)
        assert [t.restart_id for t in traces] == [0, 1, 2]
        for r, trace in enumerate(traces):
            solo = train(c, OptimizerConfig(steps=4, seed=100 + r))
            assert np.array_equal(trace.thetas, solo.thetas)

    def test_unseeded_ensembles_differ(self):
        c = _rx_cost()
        cfg = OptimizerConfig(steps=1)
        a = ensemble_train(c, cfg, restarts=1)[0]
        b = ensemble_train(c, cfg, restarts=1)[0]
        assert not np.array_equal(a.thetas, b.thetas)

    def test_rejects_nonpositive_restarts(self):
        c = _rx_cost()
        with pytest.raises(ValueError):
            ensemble_train(c, OptimizerConfig(), restarts=0)

    def test_shifted_rows_are_built_a_chunk_at_a_time(self, monkeypatch):
        # 480 rotations, so a point is 961 rows: 20 restarts' shifted angles
        # alone would take 70 MiB, more than the 32 MiB the patched memory
        # allows; built a chunk at a time they stay well within it
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 64 * 2**20)
        ansatz = layered_ansatz(4, 40)
        c = make_circuit(4, ansatz.gates, ansatz.parameter_names, mean_excitation_cost(4))
        c.program  # compiled outside the trace
        tracemalloc.start()
        try:
            ensemble_train(c, OptimizerConfig(steps=1, seed=0), restarts=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def _training_circuit(family: str, seed: int):
    """A circuit with a cost from one of the three families the lockstep
    trainer is checked on: QAOA MaxCut, the library ansatzes, random."""
    rng = np.random.default_rng(seed)
    if family == "qaoa":
        n = int(rng.integers(3, 6))
        edges = random_gnm_edges(n, int(rng.integers(2, n * (n - 1) // 2 + 1)), seed=seed)
        return qaoa_builder(edges, int(rng.integers(1, 3)), n_nodes=n)
    if family == "library":
        n = int(rng.integers(2, 4))
        ansatz = (identity_learning_ansatz(n) if rng.random() < 0.3 else
                  layered_ansatz(n, int(rng.integers(1, 3)),
                                 str(rng.choice(("chain", "full", "none")))))
        cost = all_zeros_infidelity_cost(n) if rng.random() < 0.5 else mean_excitation_cost(n)
        return make_circuit(n, ansatz.gates, ansatz.parameter_names, cost)
    return oracles.random_circuit(rng, max_qubits=4, with_cost=True)


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(("qaoa", "library", "random")), st.integers(0, 10**9),
           st.sampled_from((1, 2, 3, 5)), st.sampled_from(("gd", "adam")))
    def test_traces_match_the_sequential_oracle(self, family, seed, restarts, method):
        c = _training_circuit(family, seed)
        cfg = OptimizerConfig(method=method, learning_rate=0.1, steps=3, seed=seed)
        want = oracles.sequential_train(c, cfg, restarts)
        with pytest.MonkeyPatch.context() as mp:
            for chunk_bytes in (simulator.CHUNK_BYTES, 1):
                mp.setattr(simulator, "CHUNK_BYTES", chunk_bytes)
                traces = ensemble_train(c, cfg, restarts)
                assert [t.restart_id for t in traces] == list(range(restarts))
                for trace, (thetas, losses) in zip(traces, want):
                    assert np.array_equal(trace.thetas, thetas)
                    assert np.array_equal(trace.losses, losses)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 9))
    def test_loss_column_is_the_cost_batch(self, seed, points):
        rng = np.random.default_rng(seed)
        c = oracles.random_circuit(rng, max_qubits=5, max_gates=30, with_cost=True)
        thetas = rng.uniform(0, 2 * np.pi, (points, c.n_params))
        loss, _ = _loss_and_gradient(c, thetas)
        assert np.array_equal(loss, cost_batch(c, thetas))

    def test_one_batch_per_step(self, monkeypatch):
        calls = []
        simulate_map = trainer.simulate_map
        monkeypatch.setattr(trainer, "simulate_map", lambda fn, program, rows, items: (
            calls.append(items) or simulate_map(fn, program, rows, items)))
        c = _shared_param_circuit()
        ensemble_train(c, OptimizerConfig(steps=4, seed=2), restarts=3)
        # 4 occurrences: 3 restarts x (8 shifted + 1 unshifted) rows per
        # step, and the final losses alone
        assert calls == [27] * 4 + [3]

    def test_divergence_of_any_restart_raises(self):
        # with this rate only the restart seeded 2 overflows at step 1
        c = make_circuit(1, [Gate("RX", (0,), ParamRef("a"))], ["a"],
                         PauliSum.from_terms([(2.0, {0: "Z"})]))
        cfg = OptimizerConfig(method="gd", learning_rate=1e308, steps=3, seed=0)
        with np.errstate(over="ignore"):
            for r in (0, 1):
                train(c, replace(cfg, seed=r))
            with pytest.raises(DivergenceError, match="parameters became non-finite at step 1"):
                oracles.sequential_train(c, cfg, restarts=3)
            with pytest.raises(DivergenceError, match="parameters became non-finite at step 1"):
                ensemble_train(c, cfg, restarts=3)
