"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: full 2^n x 2^n matrices, explicit
kron chains, density-matrix channel evolution, and an iterative
trace-out. None of it shares code with the package kernels, so agreement
is meaningful evidence. Sizes are capped by the callers (n <= 6). The
t-SNE reference is the exception: it reuses the package's perplexity
calibration, so that its embedding can be compared bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from pqc_lens import CircuitDescriptor, Gate, ParamRef, make_circuit
from pqc_lens.circuit import BoundCircuit

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

PAULI_BY_INDEX = (_I, _X, _Y, _Z)
PAULI_BY_AXIS = {"X": _X, "Y": _Y, "Z": _Z}


def single_gate_matrix(kind: str, angle) -> np.ndarray:
    if kind == "H":
        return _H
    if kind == "X":
        return _X
    if kind == "Y":
        return _Y
    if kind == "Z":
        return _Z
    half = 0.5 * float(angle)
    c, s = math.cos(half), math.sin(half)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]])
    if kind == "RZ":
        return np.diag([np.exp(-1j * half), np.exp(1j * half)])
    raise ValueError(f"not a single-qubit kind: {kind}")


def embed(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    """kron chain with the given per-qubit operators, identity elsewhere.

    Qubit 0 is the leftmost (most significant) factor.
    """
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, ops.get(q, _I))
    return out


def gate_unitary(kind: str, targets, angle, n: int) -> np.ndarray:
    if kind in ("H", "X", "Y", "Z", "RX", "RY", "RZ"):
        return embed({targets[0]: single_gate_matrix(kind, angle)}, n)
    control, target = targets
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    tail = _X if kind == "CX" else _Z
    return embed({control: p0}, n) + embed({control: p1, target: tail}, n)


def dense_simulate(bound: BoundCircuit) -> np.ndarray:
    """Matrix-chain statevector: multiply every gate's full unitary."""
    n = bound.n_qubits
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for g in bound.gates:
        psi = gate_unitary(g.kind, g.targets, g.angle, n) @ psi
    return psi


def pauli_sum_matrix(obs, n: int) -> np.ndarray:
    total = np.zeros((2**n, 2**n), dtype=complex)
    for term in obs.terms:
        ops = {q: PAULI_BY_AXIS[axis] for q, axis in term.paulis}
        total += term.coeff * embed(ops, n)
    return total


def dense_expectation(psi: np.ndarray, obs, n: int) -> float:
    return float(np.real(np.vdot(psi, pauli_sum_matrix(obs, n) @ psi)))


def kron_and_trace(psi: np.ndarray, keep, n: int) -> np.ndarray:
    """Reduced density matrix by building the full rho and tracing out
    dropped qubits one at a time."""
    rho = np.outer(psi, psi.conj()).reshape([2] * (2 * n))
    remaining = list(range(n))
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        pos = remaining.index(q)
        m = len(remaining)
        rho = np.trace(rho, axis1=pos, axis2=m + pos)
        remaining.pop(pos)
    d = 2 ** len(remaining)
    return rho.reshape(d, d)


def dense_noisy_rho(bound: BoundCircuit, p1: float, p2: float) -> np.ndarray:
    """Exact density-matrix evolution of the stochastic Pauli channel:
    each gate's unitary, then with probability p1 (p2) a uniformly chosen
    non-identity Pauli on its target(s)."""
    n = bound.n_qubits
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for g in bound.gates:
        u = gate_unitary(g.kind, g.targets, g.angle, n)
        rho = u @ rho @ u.conj().T
        if g.kind in ("CX", "CZ"):
            if p2 > 0:
                mix = np.zeros_like(rho)
                for idx in range(1, 16):
                    a, b = divmod(idx, 4)
                    k = embed({g.targets[0]: PAULI_BY_INDEX[a],
                               g.targets[1]: PAULI_BY_INDEX[b]}, n)
                    mix += k @ rho @ k.conj().T
                rho = (1 - p2) * rho + (p2 / 15.0) * mix
        elif p1 > 0:
            mix = np.zeros_like(rho)
            for pauli in (_X, _Y, _Z):
                k = embed({g.targets[0]: pauli}, n)
                mix += k @ rho @ k.conj().T
            rho = (1 - p1) * rho + (p1 / 3.0) * mix
    return rho


def fd_gradient(circuit: CircuitDescriptor, theta, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the cost, evaluated densely."""
    from pqc_lens import bind

    theta = np.asarray(theta, dtype=float)
    n = circuit.n_qubits
    grad = np.empty(theta.shape[0])
    for v in range(theta.shape[0]):
        up = theta.copy()
        up[v] += h
        down = theta.copy()
        down[v] -= h
        c_up = dense_expectation(dense_simulate(bind(circuit, up)),
                                 circuit.cost, n)
        c_down = dense_expectation(dense_simulate(bind(circuit, down)),
                                   circuit.cost, n)
        grad[v] = (c_up - c_down) / (2.0 * h)
    return grad


def sequential_train(circuit: CircuitDescriptor, config, restarts: int) -> list:
    """The ensemble trained one restart at a time, restart r seeded
    config.seed + r, with one cost call and one gradient call per point.

    Returns one (thetas, losses) pair per restart and raises the
    DivergenceError of the first restart, in restart order, to diverge.
    """
    from pqc_lens import DivergenceError, evaluate_cost, gradient

    def checked_cost(theta, step):
        if not np.all(np.isfinite(theta)):
            raise DivergenceError(f"parameters became non-finite at step {step}")
        loss = evaluate_cost(circuit, theta)
        if not math.isfinite(loss):
            raise DivergenceError(f"loss became non-finite at step {step}")
        return loss

    runs = []
    for r in range(restarts):
        rng = np.random.default_rng(config.seed + r)
        if isinstance(config.init, str):
            theta = (rng.uniform(0.0, 2.0 * math.pi, circuit.n_params)
                     if config.init == "uniform" else np.zeros(circuit.n_params))
        else:
            theta = np.array(config.init, dtype=float)
        thetas = [theta]
        losses = [checked_cost(theta, 0)]
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
            thetas.append(theta)
            losses.append(checked_cost(theta, step))
        runs.append((np.array(thetas), np.array(losses)))
    return runs


def tsne_with_history(points, dims: int = 2, perplexity: float = 30.0,
                      iters: int = 1000, seed=None):
    """Reference t-SNE: ``projection.tsne``'s optimisation written out in one
    loop, plus KL(P || Q) after every iteration. Returns (embedding, kl).

    Distances come from one unblocked pass over coordinate differences with
    the diagonal zeroed; the affinities are ``projection._affinities``.
    """
    from pqc_lens.projection import _affinities

    def sq_dists(pts):
        diff = pts[:, None, :] - pts[None, :, :]
        out = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(out, 0.0)
        return out

    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    cond = _affinities(sq_dists(pts), perplexity)
    P = np.maximum((cond + cond.T) / (2.0 * n), 1e-12)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((n, dims)) * 1e-4
    increment = np.zeros((n, dims))
    gains = np.ones((n, dims))
    kl = []
    for it in range(iters):
        num = 1.0 / (1.0 + sq_dists(Y))
        np.fill_diagonal(num, 0.0)
        Q = np.maximum(num / num.sum(), 1e-12)
        W = ((P * 12.0 if it < 250 else P) - Q) * num
        grad = 4.0 * (W.sum(axis=1)[:, None] * Y - W @ Y)
        same_sign = (grad > 0) == (increment > 0)
        gains = np.maximum(np.where(same_sign, gains * 0.8, gains + 0.2), 0.01)
        increment = (0.5 if it < 250 else 0.8) * increment - 200.0 * gains * grad
        Y = Y + increment
        Y = Y - Y.mean(axis=0)
        kl.append(float(np.sum(P * np.log(P / Q))))
    return Y, kl


def haar_fidelity_inverse_cdf(u, dim: int):
    """Sample F with law (N-1)(1-F)^(N-2) from uniform u."""
    return 1.0 - (1.0 - np.asarray(u)) ** (1.0 / (dim - 1))


_GATE_POOL = ("H", "X", "Y", "Z", "RX", "RY", "RZ", "CX", "CZ")


def random_circuit(rng: np.random.Generator, max_qubits: int = 4,
                   max_gates: int = 20, with_cost: bool = False,
                   min_qubits: int = 1) -> CircuitDescriptor:
    """Random well-formed circuit; parameters may be shared and scaled.

    Every declared parameter is attached to at least one rotation so the
    descriptor validates. Rotations flip a coin between a literal angle
    and a (prefactor, parameter) reference.
    """
    n = int(rng.integers(min_qubits, max_qubits + 1))
    n_gates = int(rng.integers(1, max_gates + 1))
    n_params = int(rng.integers(0, 4))
    names = [f"p{i}" for i in range(n_params)]
    pending = list(range(n_params))
    gates = []
    for _ in range(n_gates):
        kind = str(rng.choice(_GATE_POOL))
        if kind in ("CX", "CZ"):
            if n < 2:
                kind = "X"
            else:
                pair = rng.choice(n, size=2, replace=False)
                gates.append(Gate(kind, (int(pair[0]), int(pair[1]))))
                continue
        q = int(rng.integers(n))
        if kind in ("RX", "RY", "RZ"):
            if pending:
                idx = pending.pop()
            elif n_params and rng.random() < 0.5:
                idx = int(rng.integers(n_params))
            else:
                idx = None
            if idx is None:
                gates.append(Gate(kind, (q,), float(rng.uniform(-3, 3))))
            else:
                pre = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 2.5))
                gates.append(Gate(kind, (q,), ParamRef(names[idx], pre)))
        else:
            gates.append(Gate(kind, (q,)))
    for idx in pending:
        q = int(rng.integers(n))
        gates.append(Gate("RY", (q,), ParamRef(names[idx])))
    cost = None
    if with_cost:
        from pqc_lens import PauliSum

        terms = []
        for q in range(n):
            axis = str(rng.choice(("X", "Y", "Z")))
            terms.append((float(rng.uniform(-1, 1)), {q: axis}))
        cost = PauliSum.from_terms(terms)
    return make_circuit(n, gates, names, cost)
