"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: full 2^n x 2^n matrices, explicit
kron chains, density-matrix channel evolution, and an iterative
trace-out. None of it shares code with the package kernels, so agreement
is meaningful evidence. Sizes are capped by the callers (n <= 7). Two
references are exceptions, so that results can be compared bit for bit:
the t-SNE reference reuses the package's perplexity calibration, and the
exhaustive block impurities run ``purity_batch`` once per block (n <= 10).
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from pqc_lens import CircuitDescriptor, Gate, ParamRef, PauliSum, make_circuit
from pqc_lens.simulator import purity_batch

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)

PAULI_BY_INDEX = (_I, _X, _Y, _Z)
PAULI_BY_AXIS = {"X": _X, "Y": _Y, "Z": _Z, "P0": _P0, "P1": _P1}


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
    tail = _X if kind == "CX" else _Z
    return embed({control: _P0}, n) + embed({control: _P1, target: tail}, n)


def dense_simulate(bound: CircuitDescriptor) -> np.ndarray:
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


def all_zeros_infidelity_expansion(n: int):
    """1 - |0...0><0...0| as 2^n Pauli-Z strings: the identity weighted
    1 - 2^-n and every non-empty Z string weighted -2^-n."""
    scale = 1.0 / 2**n
    terms = [(1.0 - scale, {})]
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            terms.append((-scale, {q: "Z" for q in subset}))
    return PauliSum.from_terms(terms)


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


def exhaustive_block_impurities(states: np.ndarray, n: int, m_values) -> np.ndarray:
    """Per row, one column per m: 1 - the mean of ``purity_batch`` over every
    size-m block, in ``combinations`` order (the per-block loop that the
    level scheme of ``analyzers._block_impurities`` replaced)."""
    return np.stack([1.0 - sum(purity_batch(states, block)
                               for block in combinations(range(n), m)) / math.comb(n, m)
                     for m in m_values], axis=1)


def dense_noisy_rho(bound: CircuitDescriptor, p1: float, p2: float) -> np.ndarray:
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
                m = 0.9 * m + (1.0 - 0.9) * g
                v = 0.999 * v + (1.0 - 0.999) * g * g
                m_hat = m / (1.0 - 0.9**step)
                v_hat = v / (1.0 - 0.999**step)
                theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
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


def loop_sample_counts(state, shots: int, seed, readout_flip_prob: float = 0.0) -> dict:
    """The counts dict of ``sample``, one shot at a time: the same draws,
    each outcome formatted into its bitstring and counted in draw order."""
    rng = np.random.default_rng(seed)
    n = state.n_qubits
    probs = state.probabilities()
    probs = probs / probs.sum()
    outcomes = rng.choice(len(probs), size=shots, p=probs)
    if readout_flip_prob > 0.0:
        flips = rng.random((shots, n)) < readout_flip_prob
        weights = 1 << np.arange(n - 1, -1, -1)
        outcomes = outcomes ^ (flips @ weights)
    counts: dict[str, int] = {}
    for v in outcomes:
        key = format(int(v), f"0{n}b")
        counts[key] = counts.get(key, 0) + 1
    return counts


def tiled_bit_matrix(counts: dict) -> np.ndarray:
    """ShotCounts.bit_matrix by parsing every key and tiling it count times."""
    rows = []
    for key in sorted(counts):
        row = np.fromiter((int(c) for c in key), dtype=np.uint8)
        rows.append(np.tile(row, (counts[key], 1)))
    return np.concatenate(rows, axis=0)


def listed_gnm_edges(n_nodes: int, n_edges: int, seed) -> tuple:
    """random_gnm_edges drawing from the materialised list of node pairs."""
    pairs = list(combinations(range(n_nodes), 2))
    chosen = np.random.default_rng(seed).choice(len(pairs), size=n_edges, replace=False)
    return tuple(pairs[i] for i in sorted(chosen))


def max_cut_brute_force(edges, n_nodes: int) -> int:
    """max_cut_size by decoding every assignment's bits and counting its cut
    edges one at a time."""
    best = 0
    for assignment in range(2**n_nodes):
        bits = [(assignment >> (n_nodes - 1 - q)) & 1 for q in range(n_nodes)]
        best = max(best, sum(1 for u, v in edges if bits[u] != bits[v]))
    return best


def loop_mean_cut(edges, bit_matrix) -> float:
    """mean_cut_scorer's score: a float cut count per row, summed edge by edge."""
    bits = np.asarray(bit_matrix)
    crossings = np.zeros(bits.shape[0])
    for u, v in edges:
        crossings += bits[:, u] != bits[:, v]
    return float(crossings.mean())


def svd_schmidt_spectrum(states: np.ndarray, k: int) -> np.ndarray:
    """schmidt_spectrum by the full SVD of every row's (2**k, 2**(n-k))
    amplitude matrix, squared, ascending and padded with leading zeros."""
    rows = states.shape[0]
    sv = np.linalg.svd(states.reshape(rows, 2**k, -1), compute_uv=False)
    lam = np.zeros((rows, 2**k))
    lam[:, 2**k - sv.shape[1]:] = sv[:, ::-1] ** 2
    return lam


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def row_csv(header, rows) -> str:
    """The CLI's CSV text written row by row, floats as repr, other values as str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


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
        terms = []
        for q in range(n):
            axis = str(rng.choice(("X", "Y", "Z")))
            terms.append((float(rng.uniform(-1, 1)), {q: axis}))
        cost = PauliSum.from_terms(terms)
    return make_circuit(n, gates, names, cost)
