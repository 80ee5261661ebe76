"""Independent dense-matrix reference simulator for small circuits.

Shares no code with ``pqc_lens.simulator``: every gate is expanded into a
full 2^n x 2^n operator by Kronecker products and applied as a matrix
product, and reduced states come from the full density matrix by an einsum
partial trace. That costs O(4^n) memory per gate, so it is only meant for
the narrow (at most 8 qubit) circuits. Qubit 0 is the most significant bit
of a basis index, the convention pqc_lens documents.
"""
from __future__ import annotations

import math

import numpy as np

_I = np.eye(2, dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_FIXED = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _rotation(kind: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.diag([complex(c, -s), complex(c, s)])
    raise ValueError(f"unknown rotation {kind!r}")


def _embed(factors: dict[int, np.ndarray], n: int) -> np.ndarray:
    op = np.ones((1, 1), dtype=complex)
    for q in range(n):
        op = np.kron(op, factors.get(q, _I))
    return op


def _operator(kind: str, targets, angle, n: int) -> np.ndarray:
    if kind == "CX":
        c, t = targets
        return _embed({c: _P0}, n) + _embed({c: _P1, t: _FIXED["X"]}, n)
    if kind == "CZ":
        a, b = targets
        return _embed({a: _P0}, n) + _embed({a: _P1, b: _FIXED["Z"]}, n)
    if kind in _FIXED:
        return _embed({targets[0]: _FIXED[kind]}, n)
    return _embed({targets[0]: _rotation(kind, angle)}, n)


def final_state(circuit, theta) -> np.ndarray:
    """Amplitudes of ``circuit`` run from |0...0> at parameter vector ``theta``.

    Angles are resolved here from the descriptor's ``ParamRef`` records
    (prefactor times the named parameter), not through ``pqc_lens.bind``.
    """
    position = {p.name: i for i, p in enumerate(circuit.parameters)}
    n = circuit.n_qubits
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for gate in circuit.gates:
        angle = gate.angle
        if hasattr(angle, "prefactor"):
            angle = angle.prefactor * float(theta[position[angle.name]])
        psi = _operator(gate.kind, gate.targets, angle, n) @ psi
    return psi


def single_qubit_purity(psi: np.ndarray, n: int, qubit: int) -> float:
    """Tr[rho_q^2] from the full density matrix, tracing out every other qubit."""
    rho = np.outer(psi, psi.conj()).reshape([2] * (2 * n))
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows = list(letters[:n])
    cols = list(letters[n:2 * n])
    for q in range(n):
        if q != qubit:
            cols[q] = rows[q]
    reduced = np.einsum("".join(rows + cols) + "->" + rows[qubit] + cols[qubit], rho)
    return float(np.real(np.trace(reduced @ reduced)))


def meyer_wallach(circuit, thetas) -> float:
    """Q = 2 * mean over thetas of (1 - mean single-qubit purity)."""
    n = circuit.n_qubits
    impurities = []
    for theta in thetas:
        psi = final_state(circuit, theta)
        impurities.append(1.0 - sum(single_qubit_purity(psi, n, q) for q in range(n)) / n)
    return 2.0 * float(np.mean(impurities))
