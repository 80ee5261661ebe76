"""Gradient-based training of circuit costs.

Gradients come from the parameter-shift rule, applied per gate occurrence:
a rotation with angle s * theta_v contributes
(s/2) * [C(occurrence at +pi/2) - C(occurrence at -pi/2)] to component v,
where the shift moves only that one gate's angle by +-pi/2. Summing
occurrences implements the chain rule for parameters shared across gates
(QAOA reuses each gamma on every edge). For this gate set the rule is
exact, not a finite-difference approximation. A batch of points is one
simulate_map call over each point's shifted circuits and the point itself,
whose cost is the loss there; it builds their angles a chunk at a time.
Training advances every restart of an ensemble in lockstep, one per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (CircuitDescriptor, _check_choice, _check_count, _check_real,
                      _resolve_seed)
from .simulator import _fits, expectation_batch, simulate_map

METHODS = ("gd", "adam")
# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter vector."""


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "adam"  # one of METHODS
    learning_rate: float = 0.05
    steps: int = 100
    init: object = "uniform"  # "uniform", "zeros", or an explicit vector
    seed: int | None = None  # None, or a non-negative integer

    def __post_init__(self) -> None:
        _check_choice(self.method, "method", METHODS)
        _check_real(self.learning_rate, "learning_rate")
        _check_count(self.steps, "steps", 0)
        if isinstance(self.init, str):
            _check_choice(self.init, "init", ("uniform", "zeros"))
        if self.seed is not None:
            _check_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class TrainingTrace:
    """Per-step parameter vectors and losses, including the initial point."""

    restart_id: int
    thetas: np.ndarray  # (steps + 1, n_params)
    losses: np.ndarray  # (steps + 1,)


def cost_batch(circuit: CircuitDescriptor, thetas) -> np.ndarray:
    """C(theta) for every row of a (B, n_params) parameter batch."""
    angles = circuit.program.angles(thetas)
    if circuit.cost is None:
        raise ValueError("circuit has no cost observable attached")
    return simulate_map(lambda states, _: expectation_batch(states, circuit.cost),
                        circuit.program, lambda r: angles[r.start:r.stop], angles.shape[0])


def evaluate_cost(circuit: CircuitDescriptor, theta) -> float:
    """C(theta) = <psi(theta)| cost |psi(theta)>."""
    return float(cost_batch(circuit, np.reshape(theta, (1, -1)))[0])


def _loss_and_gradient(circuit: CircuitDescriptor, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Costs and parameter-shift gradients at every row of a (B, n_params) batch;
    ValueError, before any simulation, if they exceed half of physical memory."""
    program = circuit.program
    base = program.angles(thetas)
    points = base.shape[0]
    occurrences = np.flatnonzero(program.params >= 0)
    per_point = 2 * occurrences.size + 1
    _fits(8 * points * (per_point + circuit.n_params),
          f"the parameter-shift costs and gradients of {points} point(s)")
    if circuit.cost is None:
        raise ValueError("circuit has no cost observable attached")

    def rows(r: range) -> np.ndarray:
        # per point, rows 2k, 2k + 1 shift occurrence k by +-pi/2; the last is the point
        point, j = np.divmod(np.arange(r.start, r.stop), per_point)
        angles, shifted = base[point], j < per_point - 1
        angles[shifted, occurrences[j[shifted] // 2]] += np.where(
            j[shifted] % 2, -math.pi / 2.0, math.pi / 2.0)
        return angles

    values = simulate_map(lambda states, _: expectation_batch(states, circuit.cost),
                          program, rows, points * per_point).reshape(points, per_point)
    grad = np.zeros((points, circuit.n_params))
    # accumulate in occurrence order: the chain rule for shared parameters
    np.add.at(grad.T, program.params[occurrences],
              program.prefactors[occurrences, None] / 2.0 * (values[:, :-1:2] - values[:, 1::2]).T)
    return values[:, -1].copy(), grad


def gradient(circuit: CircuitDescriptor, theta) -> np.ndarray:
    """Parameter-shift gradient of the attached cost at theta."""
    return _loss_and_gradient(circuit, np.reshape(theta, (1, -1)))[1][0]


def _check_run(circuit: CircuitDescriptor, config: OptimizerConfig, restarts: int) -> None:
    """ValueError unless a run of ``restarts`` restarts can take its first step:
    the circuit has a cost, restarts is a positive integer, the parameters and
    losses of the traces fit in half of physical memory, and an explicit init
    vector holds n_params finite values."""
    if circuit.cost is None:
        raise ValueError("circuit has no cost observable attached")
    _check_count(restarts, "restarts")
    _fits(8 * (config.steps + 1) * restarts * (circuit.n_params + 1),
          f"a trace of {restarts} restart(s) over {config.steps} steps")
    if not isinstance(config.init, str):
        if np.size(config.init) != circuit.n_params:
            raise ValueError(f"init vector has length {np.size(config.init)}, "
                             f"circuit declares {circuit.n_params}")
        if not np.all(np.isfinite(config.init)):
            raise ValueError("init vector holds a non-finite value")


def _initial_theta(circuit: CircuitDescriptor, config: OptimizerConfig, seed: int) -> np.ndarray:
    init = config.init
    if isinstance(init, str):
        if init == "zeros":
            return np.zeros(circuit.n_params)
        return np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, circuit.n_params)
    return np.array(init, dtype=float).reshape(-1)


def train(circuit: CircuitDescriptor, config: OptimizerConfig) -> TrainingTrace:
    """Minimize the circuit cost with GD or Adam: restart 0 of ``ensemble_train``."""
    return ensemble_train(circuit, config, 1)[0]


def ensemble_train(circuit: CircuitDescriptor, config: OptimizerConfig,
                   restarts: int) -> list[TrainingTrace]:
    """Independent restarts seeded base + r, trained in lockstep with GD or Adam.

    A trace's rows are the initial point and every update. A batched row gets
    the arithmetic it gets alone and the updates are elementwise, so each
    restart is bit for bit as if trained alone. Non-finite parameters or
    losses, and angles that overflow, abort with a DivergenceError naming the
    earliest step at which any restart is non-finite; convergence itself is
    not guaranteed on these non-convex surfaces. What ``_check_run`` refuses
    is a ValueError before the first step.
    """
    _check_run(circuit, config, restarts)
    base = _resolve_seed(config.seed)
    theta = np.stack([_initial_theta(circuit, config, base + r) for r in range(restarts)])
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
    thetas, losses = np.stack(thetas, axis=1), np.stack(losses, axis=1)
    return [TrainingTrace(r, thetas[r], losses[r]) for r in range(restarts)]
