"""Gradient-based training of circuit costs.

Gradients come from the parameter-shift rule, applied per gate occurrence:
a rotation with angle s * theta_v contributes
(s/2) * [C(occurrence at +pi/2) - C(occurrence at -pi/2)] to component v,
where the shift moves only that one gate's angle by +-pi/2. Summing
occurrences implements the chain rule for parameters shared across gates
(QAOA reuses each gamma on every edge). For this gate set the rule is
exact, not a finite-difference approximation. All shifted circuits of a
gradient, or of a batch of gradients, are simulated as one batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import CircuitDescriptor
from .simulator import expectation_batch, map_chunks, simulate_batch


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter vector."""


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "adam"  # "gd" or "adam"
    learning_rate: float = 0.05
    steps: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    init: object = "uniform"  # "uniform", "zeros", or an explicit vector
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.method not in ("gd", "adam"):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        # an infinite rate is accepted and ends in DivergenceError at the
        # first step; NaN is rejected here
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")


@dataclass(frozen=True)
class TrainingTrace:
    """Per-step parameter vectors and losses, including the initial point."""

    restart_id: int
    thetas: np.ndarray  # (steps + 1, n_params)
    losses: np.ndarray  # (steps + 1,)

    def table(self) -> tuple[list[str], list[list[float]]]:
        """Header and rows for tabular serialization: step, loss, theta_i."""
        n_params = self.thetas.shape[1]
        header = ["step", "loss"] + [f"theta_{i}" for i in range(n_params)]
        rows = []
        for step in range(self.losses.shape[0]):
            rows.append([step, float(self.losses[step])] +
                        [float(v) for v in self.thetas[step]])
        return header, rows


def _require_cost(circuit: CircuitDescriptor) -> None:
    if circuit.cost is None:
        raise ValueError("circuit has no cost observable attached")


def _costs(circuit: CircuitDescriptor, program, angles: np.ndarray) -> np.ndarray:
    """The cost after running the program once per row of angles."""
    def chunk(rows: range) -> np.ndarray:
        states = simulate_batch(program, angles[rows.start:rows.stop])
        return expectation_batch(states, circuit.cost)

    return np.concatenate(map_chunks(chunk, angles.shape[0], circuit.n_qubits))


def cost_batch(circuit: CircuitDescriptor, thetas) -> np.ndarray:
    """C(theta) for every row of a (B, n_params) parameter batch."""
    _require_cost(circuit)
    program = circuit.program
    return _costs(circuit, program, program.angles(thetas))


def evaluate_cost(circuit: CircuitDescriptor, theta) -> float:
    """C(theta) = <psi(theta)| cost |psi(theta)>."""
    theta = np.asarray(theta, dtype=float).reshape(1, -1)
    return float(cost_batch(circuit, theta)[0])


def gradient_batch(circuit: CircuitDescriptor, thetas) -> np.ndarray:
    """Parameter-shift gradients at every row of a (B, n_params) batch."""
    _require_cost(circuit)
    program = circuit.program
    base = program.angles(thetas)
    points = base.shape[0]
    grad = np.zeros((points, circuit.n_params))
    occurrences = np.flatnonzero(program.params >= 0)
    if occurrences.size == 0:
        return grad
    # per point, rows 2k and 2k + 1 shift occurrence k by +pi/2 and -pi/2
    shifted = np.repeat(base, 2 * occurrences.size, axis=0)
    rows = np.arange(shifted.shape[0])
    shifted[rows, np.tile(np.repeat(occurrences, 2), points)] += np.where(
        rows % 2 == 0, math.pi / 2.0, -math.pi / 2.0)
    values = _costs(circuit, program, shifted).reshape(points, occurrences.size, 2)
    # accumulate in occurrence order: the chain rule for shared parameters
    for k, column in enumerate(occurrences):
        s = program.prefactors[column]
        grad[:, program.params[column]] += (s / 2.0) * (values[:, k, 0] - values[:, k, 1])
    return grad


def gradient(circuit: CircuitDescriptor, theta) -> np.ndarray:
    """Parameter-shift gradient of the attached cost at theta."""
    theta = np.asarray(theta, dtype=float).reshape(1, -1)
    return gradient_batch(circuit, theta)[0]


def _initial_theta(circuit: CircuitDescriptor, config: OptimizerConfig,
                   rng: np.random.Generator) -> np.ndarray:
    init = config.init
    if isinstance(init, str):
        if init == "uniform":
            return rng.uniform(0.0, 2.0 * math.pi, circuit.n_params)
        if init == "zeros":
            return np.zeros(circuit.n_params)
        raise ValueError(f"unknown init mode {init!r}")
    theta = np.asarray(init, dtype=float).reshape(-1)
    if theta.shape[0] != circuit.n_params:
        raise ValueError(
            f"init vector has length {theta.shape[0]}, "
            f"circuit declares {circuit.n_params}"
        )
    return theta.copy()


def _checked_cost(circuit: CircuitDescriptor, theta, step: int) -> float:
    if not np.all(np.isfinite(theta)):
        raise DivergenceError(f"parameters became non-finite at step {step}")
    loss = evaluate_cost(circuit, theta)
    if not math.isfinite(loss):
        raise DivergenceError(f"loss became non-finite at step {step}")
    return loss


def train(circuit: CircuitDescriptor, config: OptimizerConfig,
          observers=(), restart_id: int = 0) -> TrainingTrace:
    """Minimize the circuit cost with GD or Adam.

    Observers are called as observer(step, theta, loss) for the initial
    point and after every update, in step order. Non-finite losses abort
    with DivergenceError; convergence itself is not guaranteed on these
    non-convex surfaces.
    """
    rng = np.random.default_rng(config.seed)
    theta = _initial_theta(circuit, config, rng)

    thetas = np.empty((config.steps + 1, circuit.n_params))
    losses = np.empty(config.steps + 1)
    thetas[0] = theta
    losses[0] = _checked_cost(circuit, theta, 0)
    for obs in observers:
        obs(0, thetas[0].copy(), float(losses[0]))

    m = np.zeros(circuit.n_params)
    v = np.zeros(circuit.n_params)
    for step in range(1, config.steps + 1):
        g = gradient(circuit, theta)
        if config.method == "gd":
            theta = theta - config.learning_rate * g
        else:
            m = config.beta1 * m + (1.0 - config.beta1) * g
            v = config.beta2 * v + (1.0 - config.beta2) * g * g
            m_hat = m / (1.0 - config.beta1**step)
            v_hat = v / (1.0 - config.beta2**step)
            theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
        thetas[step] = theta
        losses[step] = _checked_cost(circuit, theta, step)
        for obs in observers:
            obs(step, thetas[step].copy(), float(losses[step]))

    return TrainingTrace(restart_id, thetas, losses)


def ensemble_train(circuit: CircuitDescriptor, config: OptimizerConfig,
                   restarts: int) -> list[TrainingTrace]:
    """Independent restarts seeded base + r so runs are reproducible."""
    if restarts < 1:
        raise ValueError("restarts must be positive")
    base = config.seed
    if base is None:
        base = int(np.random.default_rng().integers(2**31))
    traces = []
    for r in range(restarts):
        cfg = replace(config, seed=base + r)
        traces.append(train(circuit, cfg, restart_id=r))
    return traces
