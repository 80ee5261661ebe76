"""Gradient-based training of circuit costs.

Gradients come from the parameter-shift rule, applied per gate occurrence:
a rotation with angle s * theta_v contributes
(s/2) * [C(occurrence at +pi/2) - C(occurrence at -pi/2)] to component v,
where the shift moves only that one gate's angle by +-pi/2. Summing
occurrences implements the chain rule for parameters shared across gates
(QAOA reuses each gamma on every edge). For this gate set the rule is
exact, not a finite-difference approximation. The shifted circuits of a
batch of points are simulated as one batch with the unshifted ones, which
give the losses there. Training advances every restart of an ensemble in
lockstep, one such batch per optimizer step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitDescriptor, GateProgram
from .simulator import _fits, expectation_batch, simulate_map

METHODS = ("gd", "adam")
# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


def _resolve_seed(seed) -> int:
    if seed is None:
        return int(np.random.default_rng().integers(2**31))
    return int(seed)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter vector."""


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "adam"  # one of METHODS
    learning_rate: float = 0.05
    steps: int = 100
    init: object = "uniform"  # "uniform", "zeros", or an explicit vector
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if isinstance(self.init, str) and self.init not in ("uniform", "zeros"):
            raise ValueError(f"unknown init mode {self.init!r}")


@dataclass(frozen=True)
class TrainingTrace:
    """Per-step parameter vectors and losses, including the initial point."""

    restart_id: int
    thetas: np.ndarray  # (steps + 1, n_params)
    losses: np.ndarray  # (steps + 1,)


def _costs(circuit: CircuitDescriptor, angles: np.ndarray) -> np.ndarray:
    """The cost after running the circuit's program once per row of angles."""
    if circuit.cost is None:
        raise ValueError("circuit has no cost observable attached")
    return simulate_map(lambda states, rows: expectation_batch(states, circuit.cost),
                        circuit.program, angles)


def cost_batch(circuit: CircuitDescriptor, thetas) -> np.ndarray:
    """C(theta) for every row of a (B, n_params) parameter batch."""
    return _costs(circuit, circuit.program.angles(thetas))


def evaluate_cost(circuit: CircuitDescriptor, theta) -> float:
    """C(theta) = <psi(theta)| cost |psi(theta)>."""
    return float(cost_batch(circuit, np.reshape(theta, (1, -1)))[0])


def _loss_and_gradient(circuit: CircuitDescriptor, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Costs and parameter-shift gradients at every row of a (B, n_params) batch."""
    program = circuit.program
    base = program.angles(thetas)
    points = base.shape[0]
    occurrences = np.flatnonzero(program.params >= 0)
    # per point, rows 2k, 2k + 1 shift occurrence k by +-pi/2; unshifted rows go last
    shifted = np.repeat(base, 2 * occurrences.size, axis=0)
    rows = np.arange(shifted.shape[0])
    shifted[rows, np.tile(np.repeat(occurrences, 2), points)] += np.where(
        rows % 2 == 0, math.pi / 2.0, -math.pi / 2.0)
    values = _costs(circuit, np.concatenate([shifted, base]))
    shifts = values[:rows.size].reshape(points, occurrences.size, 2)
    grad = np.zeros((points, circuit.n_params))
    # accumulate in occurrence order: the chain rule for shared parameters
    for k, column in enumerate(occurrences):
        s = program.prefactors[column]
        grad[:, program.params[column]] += (s / 2.0) * (shifts[:, k, 0] - shifts[:, k, 1])
    return values[rows.size:], grad


def _rows_per_point(program: GateProgram) -> int:
    """The states ``_loss_and_gradient`` simulates per point: two per rotation
    occurrence of a parameter, and the point itself."""
    return 2 * np.count_nonzero(program.params >= 0) + 1


def gradient(circuit: CircuitDescriptor, theta) -> np.ndarray:
    """Parameter-shift gradient of the attached cost at theta."""
    return _loss_and_gradient(circuit, np.reshape(theta, (1, -1)))[1][0]


def _check_init(init, n_params: int) -> None:
    """ValueError if an explicit init vector does not hold n_params finite values."""
    if isinstance(init, str):
        return
    if np.size(init) != n_params:
        raise ValueError(f"init vector has length {np.size(init)}, circuit declares {n_params}")
    if not np.all(np.isfinite(init)):
        raise ValueError("init vector holds a non-finite value")


def _initial_theta(circuit: CircuitDescriptor, config: OptimizerConfig, seed) -> np.ndarray:
    init = config.init
    _check_init(init, circuit.n_params)
    if isinstance(init, str):
        if init == "zeros":
            return np.zeros(circuit.n_params)
        return np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, circuit.n_params)
    return np.array(init, dtype=float).reshape(-1)


def _check_trace(n_params: int, steps: int, restarts: int) -> None:
    """ValueError if the parameters and losses of ``restarts`` traces of
    ``steps`` steps take more than half of physical memory."""
    _fits(8 * (steps + 1) * restarts * (n_params + 1),
          f"a trace of {restarts} restart(s) over {steps} steps")


def _train_lockstep(circuit: CircuitDescriptor, config: OptimizerConfig,
                    seeds) -> tuple[np.ndarray, np.ndarray]:
    """(R, steps + 1, n_params) parameters and (R, steps + 1) losses of the
    restarts seeded seeds[r]. A batched row gets the arithmetic it gets alone
    and the updates are elementwise, so each restart is bit for bit as if alone.
    ValueError, before the first step, if those arrays take more than half of
    physical memory."""
    _check_trace(circuit.n_params, config.steps, len(seeds))
    theta = np.stack([_initial_theta(circuit, config, seed) for seed in seeds])
    thetas, losses = [], []
    m = v = np.zeros_like(theta)
    for step in range(config.steps + 1):
        if not np.all(np.isfinite(theta)):
            raise DivergenceError(f"parameters became non-finite at step {step}")
        if not np.all(np.isfinite(circuit.program.angles(theta))):
            raise DivergenceError(f"a rotation angle overflowed at step {step}")
        if step < config.steps:
            loss, g = _loss_and_gradient(circuit, theta)
        else:
            loss = cost_batch(circuit, theta)
        if not np.all(np.isfinite(loss)):
            raise DivergenceError(f"loss became non-finite at step {step}")
        thetas.append(theta)
        losses.append(loss)
        if step == config.steps:
            break
        # an update that overflows is reported by the next step's check
        with np.errstate(over="ignore", invalid="ignore"):
            if config.method == "gd":
                theta = theta - config.learning_rate * g
            else:
                m = _BETA1 * m + (1.0 - _BETA1) * g
                v = _BETA2 * v + (1.0 - _BETA2) * g * g
                m_hat = m / (1.0 - _BETA1**(step + 1))
                v_hat = v / (1.0 - _BETA2**(step + 1))
                theta = theta - (config.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON))
    return np.stack(thetas, axis=1), np.stack(losses, axis=1)


def train(circuit: CircuitDescriptor, config: OptimizerConfig) -> TrainingTrace:
    """Minimize the circuit cost with GD or Adam; the trace is restart 0.

    Its rows are the initial point and every update. Non-finite parameters
    or losses, and angles that overflow, abort with DivergenceError;
    convergence itself is not guaranteed on these non-convex surfaces. A
    trace beyond half of physical memory is a ValueError before any step.
    """
    thetas, losses = _train_lockstep(circuit, config, [config.seed])
    return TrainingTrace(0, thetas[0], losses[0])


def ensemble_train(circuit: CircuitDescriptor, config: OptimizerConfig,
                   restarts: int) -> list[TrainingTrace]:
    """Independent restarts seeded base + r, trained in lockstep; each trace is
    bit for bit ``train`` with the seed base + r. A DivergenceError names the
    earliest step at which any restart is non-finite."""
    if restarts < 1:
        raise ValueError("restarts must be positive")
    base = _resolve_seed(config.seed)
    thetas, losses = _train_lockstep(circuit, config, [base + r for r in range(restarts)])
    return [TrainingTrace(r, thetas[r], losses[r]) for r in range(restarts)]
