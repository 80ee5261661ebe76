"""Dense statevector simulation, batched.

Amplitudes are stored as a complex vector of length 2**n where qubit 0 is
the most significant bit of the basis index, so |q0 q1 ... q_{n-1}> lives at
index q0*2**(n-1) + ... + q_{n-1}. Gates are applied by pairwise amplitude
updates on the state reshaped to a rank-n tensor, never by building the
2**n x 2**n unitary.

The core simulates a batch: a compiled GateProgram (circuit.compile_program)
runs on a (B, 2, ..., 2) array of B states, row i driven by row i of a
(B, columns) angle matrix. Compiling fuses every run of single-qubit gates
on one qubit into one operation, so a layer of RX, RZ, RX rotations costs
one pass over the state per qubit, not three. Three kernels apply the
operations: a dense 2 x 2 update of the two amplitude slices a qubit
splits the state into (fused runs, H, Y, RX, RY), a diagonal scaling of
one or both slices (runs of RZ and Z only, and CZ), and a swap of the two
slices (X and CX). Every rotation, a literal one too, reads its angle
from a column, and a fused matrix that depends on angles is formed per
row, entry by entry in a fixed order, so every row gets exactly the
arithmetic it gets alone, as a bound circuit: results depend neither on
how rows are batched nor on the thread count. The norm of every row is
checked once, after the last operation, and a drift beyond 1e-10 raises
ValueError; it is not asserted gate by gate. ``simulate``,
``simulate_noisy``, ``expectation``, ``subsystem_purity`` and
``reduced_density_matrix`` are the B = 1 entry points.

Every simulation of many rows goes through ``simulate_map``, which alone
decides how many rows run at once: ranges of at most CHUNK_BYTES = 4 MiB, a
row costing its state (16 * 2**n bytes) plus 64 bytes of rotation matrix
per angle column, no more than an even share per PQC_LENS_THREADS worker
thread (default 1), gathered in order. A state, a chunk item or a compiled
observable larger than half of physical memory is rejected with ValueError
before anything is allocated.

Observables are never applied as gates. Each PauliSum is compiled once per
(PauliSum, n), and a few compiled forms stay cached, into groups of terms
that share an X/Y flip mask. The Z strings and the identity form one real
diagonal, whose expectation is the probabilities dotted with it; every
other group is a gather index plus a phase vector. An expectation costs one
pass over the batch per group, whatever the number of terms, and each row
is reduced on its own.

Sampling and the stochastic Pauli noise channel take explicit seeds; a
trajectory average over seeds estimates the channel output.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import (CircuitDescriptor, Gate, GateProgram, PauliSum, matrix_product,
                      rotation_matrices)

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if self.n_qubits < 1:
            raise ValueError("state needs at least one qubit")
        if amps.shape[0] != 2**self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, "
                f"expected {2 ** self.n_qubits}"
            )
        norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        d = 2**self.n_qubits
        if m.shape != (d, d):
            raise ValueError(f"density matrix shape {m.shape}, expected {(d, d)}")
        if not np.max(np.abs(m - m.conj().T)) <= _NORM_TOL:  # NaN fails too
            raise ValueError("density matrix is not Hermitian")
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= _NORM_TOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order."""
        return np.linalg.eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic Pauli insertion rates plus a readout bit-flip probability."""

    p1: float = 0.0
    p2: float = 0.0
    readout_flip_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "readout_flip_prob"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class ShotCounts:
    """Measurement outcome histogram: bitstring (qubit 0 leftmost) to count."""

    counts: dict[str, int]
    shots: int

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to the shot total")
        lengths = {len(k) for k in self.counts}
        if len(lengths) > 1:
            raise ValueError("bitstrings have inconsistent lengths")

    def n_qubits(self) -> int:
        return len(next(iter(self.counts)))

    def bit_matrix(self) -> np.ndarray:
        """Expand to a (shots, n) 0/1 array, bitstrings in sorted order."""
        rows = []
        for key in sorted(self.counts):
            row = np.fromiter((int(c) for c in key), dtype=np.uint8)
            rows.append(np.tile(row, (self.counts[key], 1)))
        return np.concatenate(rows, axis=0)


CHUNK_BYTES = 4 * 2**20
_AMPLITUDE_BYTES = 16  # complex128


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _fits(size: int, what: str) -> None:
    """ValueError if ``what``, taking size bytes, exceeds half of physical memory."""
    limit = _physical_memory() // 2
    if size > limit:
        raise ValueError(
            f"{what} takes {size} bytes, more than half of physical memory "
            f"({limit} bytes)"
        )


def _worker_count() -> int:
    raw = os.environ.get("PQC_LENS_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"PQC_LENS_THREADS must be an integer, got {raw!r}")
    return max(1, count)


def chunk_ranges(n_items: int, item_bytes: int, workers: int = 1) -> list[range]:
    """Consecutive ranges covering range(n_items), each of as many items of
    item_bytes as fit in CHUNK_BYTES (at least one) and at most an even share
    per worker. ValueError if one item exceeds half of physical memory."""
    _fits(item_bytes, "one chunk item")
    size = max(1, min(CHUNK_BYTES // item_bytes, -(-n_items // workers)))
    return [range(s, min(s + size, n_items)) for s in range(0, n_items, size)]


def map_chunks(fn, n_items: int, item_bytes: int) -> list:
    """[fn(r) for r in chunk_ranges(n_items, item_bytes, workers)], in order,
    run on PQC_LENS_THREADS (default 1) worker threads."""
    workers = _worker_count()
    chunks = chunk_ranges(n_items, item_bytes, workers)
    if workers <= 1 or len(chunks) <= 1:
        return [fn(chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def simulate_map(fn, program: GateProgram, angles: np.ndarray,
                 group: int = 1) -> np.ndarray:
    """np.concatenate of fn(states, rows), in order, over the map_chunks ranges
    of rows of the (B, columns) angles, states being those rows' final states.
    A range holds whole groups of ``group`` rows; a row costs its state plus
    64 bytes of rotation matrix per angle column."""
    row_bytes = _AMPLITUDE_BYTES * (2**program.n_qubits + 4 * program.kinds.size)

    def chunk(items: range):
        rows = range(group * items.start, group * items.stop)
        return fn(simulate_batch(program, angles[rows.start:rows.stop]), rows)

    return np.concatenate(map_chunks(chunk, angles.shape[0] // group, group * row_bytes))


# ---------------------------------------------------------------------------
# kernels on a (B, 2, ..., 2) batch; a selector fixes qubit axes, axis 0 is
# the batch


@lru_cache(maxsize=1024)
def _selector(n: int, fixed: tuple[tuple[int, int], ...]) -> tuple:
    sel = [slice(None)] * (n + 1)
    for qubit, bit in fixed:
        sel[qubit + 1] = bit
    return tuple(sel)


def _swap(psi, lo, hi) -> None:
    a = psi[lo].copy()
    psi[lo] = psi[hi]
    psi[hi] = a


def _scale(psi, sel, factor) -> None:
    view = psi[sel]
    view *= factor


def _mix(psi, lo, hi, u00, u01, u10, u11) -> None:
    """(lo, hi) <- (u00 lo + u01 hi, u10 lo + u11 hi), per-row coefficients.

    Operand order matters: numpy's vectorised complex product is not
    commutative to the last bit.
    """
    top, bottom = psi[lo], psi[hi]
    cross = u01 * bottom
    np.multiply(u11, bottom, out=bottom)
    bottom += u10 * top
    np.multiply(u00, top, out=top)
    top += cross


def _op_matrix(factors, rotations) -> np.ndarray:
    """The (2, 2, B) product of an op's factors, B = 1 if all are constant."""
    matrix = None
    for factor in factors:
        if not isinstance(factor, np.ndarray):
            factor = rotations[:, :, factor]
        matrix = factor if matrix is None else matrix_product(factor, matrix)
    return matrix


def _run(psi: np.ndarray, ops, rotations) -> None:
    """Apply compiled ops to a (B, 2, ..., 2) batch.

    ``rotations`` holds the (2, 2, columns, B) matrices of the angle
    columns, row i's in rotations[..., i].
    """
    n = psi.ndim - 1
    for form, lo_bits, hi_bits, factors in ops:
        lo = None if lo_bits is None else _selector(n, lo_bits)
        hi = _selector(n, hi_bits)
        if form == "perm":
            _swap(psi, lo, hi)
            continue
        # one coefficient per row, broadcast over the slice's qubit axes
        m = _op_matrix(factors, rotations).reshape((2, 2, -1) + (1,) * (n - len(hi_bits)))
        if form == "dense":
            _mix(psi, lo, hi, m[0, 0], m[0, 1], m[1, 0], m[1, 1])
            continue
        if lo is not None:
            _scale(psi, lo, m[0, 0])
        _scale(psi, hi, m[1, 1])


def _norms(states: np.ndarray) -> np.ndarray:
    """|psi|^2 per row of a (B, 2**n) batch."""
    flat = states.reshape(states.shape[0], -1).view(np.float64)
    return (flat[:, None, :] @ flat[:, :, None])[:, 0, 0]


def simulate_batch(program: GateProgram, angles: np.ndarray,
                   initial: np.ndarray | None = None) -> np.ndarray:
    """Final states, shape (B, 2**n), one per row of the (B, columns) angles.

    Every row starts from |0...0>, or from the amplitudes ``initial``. An
    infinite angle (a parameter times its prefactor overflowed, see
    ``GateProgram.angles``) is a ValueError, raised before any gate runs.
    """
    if not np.all(np.isfinite(angles)):
        raise ValueError("a rotation angle overflowed to inf: a parameter times "
                         "its prefactor exceeds the float range")
    n = program.n_qubits
    # one qubit leaves no amplitude axis to broadcast a per-row coefficient
    # over, and numpy rounds a vector-by-vector complex product differently
    # from a row-by-row one
    if n == 1 and angles.shape[0] > 1:
        return np.concatenate([simulate_batch(program, angles[r:r + 1], initial)
                               for r in range(angles.shape[0])])
    _fits(_AMPLITUDE_BYTES * 2**n, f"a {n}-qubit state")
    states = np.zeros((angles.shape[0], 2**n), dtype=complex)
    if initial is None:
        states[:, 0] = 1.0
    else:
        states[:] = initial
    _run(states.reshape((-1,) + (2,) * n), program.ops,
         rotation_matrices(program.kinds, angles))
    drift = np.abs(_norms(states) - 1.0)
    if not np.all(drift <= _NORM_TOL):  # NaN fails too
        raise ValueError(f"state is not normalized: ||psi|^2 - 1| = {drift.max()}")
    return states


def simulate(bound: CircuitDescriptor, initial: StateVector | None = None) -> StateVector:
    """Run a bound circuit (``bind``) and return the final state.

    A circuit that still declares parameters is a ValueError. Starts from
    |0...0> unless an initial state on the same register is given.
    """
    n = bound.n_qubits
    if bound.parameters:
        raise ValueError("circuit declares parameters; simulate bind(circuit, theta)")
    if initial is not None and initial.n_qubits != n:
        raise ValueError(
            f"initial state has {initial.n_qubits} qubit(s), circuit has {n}"
        )
    program = bound.program
    states = simulate_batch(program, program.angles(np.empty((1, 0))),
                            None if initial is None else initial.amplitudes)
    return StateVector(n, states[0])


def row_vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot(a[i], b[i]) for every row of two (B, N) batches."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _add_signs(out: np.ndarray, value: float, zmask: int, scratch: np.ndarray) -> None:
    """out[i] += value * (-1)**popcount(i & zmask), the signs built by doubling."""
    scratch[0] = value
    size = 1
    while size < scratch.size:
        np.multiply(scratch[:size], -1.0 if zmask & size else 1.0,
                    out=scratch[size:2 * size])
        size *= 2
    out += scratch


@lru_cache(maxsize=8)
def _compiled_observable(obs: PauliSum, n: int) -> tuple:
    """obs on n qubits as ((flip, weights), ...), one pair per X/Y flip mask.

    A term maps |i> to i**#Y (-1)**popcount(i & zmask) |i ^ flip>, flip
    marking its X and Y qubits, zmask its Y and Z qubits; qubit q is bit
    n - 1 - q. A group's terms sum to one phase vector d, stored as a
    read-only column of interleaved (Re d, -Im d), to be dotted with the re
    and im parts of conj(psi[i ^ flip]) psi[i]. The flip-0 group's d is the
    real diagonal, stored as (d, d) for the squared re and im parts of psi.
    """
    if obs.max_qubit() >= n:
        raise ValueError(
            f"observable touches qubit {obs.max_qubit()}, state has {n}"
        )
    groups: dict[int, list] = {}
    for term in obs.terms:
        if term.coeff == 0.0:
            continue
        flip = zmask = n_y = 0
        for q, axis in term.paulis:
            bit = 1 << (n - 1 - q)
            flip |= 0 if axis == "Z" else bit
            zmask |= 0 if axis == "X" else bit
            n_y += axis == "Y"
        groups.setdefault(flip, []).append((term.coeff, zmask, n_y))
    dim = 2**n
    _fits(16 * dim * len(groups), f"the observable compiled on {n} qubits")
    scratch = np.empty(dim)
    compiled = []
    for flip, terms in groups.items():
        d = np.zeros((dim, 2))
        for coeff, zmask, n_y in terms:
            # coeff * i**n_y goes to Re d for even n_y, to -Im d for odd
            value = coeff if n_y % 4 in (0, 3) else -coeff
            _add_signs(d[:, n_y % 2], value, zmask, scratch)
        if not flip:
            d[:, 1] = d[:, 0]
        d.flags.writeable = False
        compiled.append((flip, d.reshape(-1, 1)))
    return tuple(compiled)


def expectation_batch(states: np.ndarray, obs: PauliSum) -> np.ndarray:
    """<psi|O|psi> for every row of a (B, 2**n) batch; always real.

    The observable is compiled once per (obs, n) into groups of terms that
    share an X/Y flip mask: one real diagonal for the Z strings and the
    identity, one gather index i ^ flip and phase vector per other mask.
    Each group costs one pass over the batch, whatever its number of terms,
    and every row is reduced on its own, so a row's value does not depend
    on B.
    """
    rows, dim = states.shape
    states = np.ascontiguousarray(states, dtype=complex)
    total = np.zeros(rows)
    for flip, weights in _compiled_observable(obs, dim.bit_length() - 1):
        if flip:
            w = np.conj(states[:, np.arange(dim) ^ flip]) * states
        else:
            w = np.square(states.view(np.float64))
        total += (w.view(np.float64)[:, None, :] @ weights)[:, 0, 0]
    return total


def expectation(state: StateVector, obs: PauliSum) -> float:
    """<psi|O|psi> for a Hermitian Pauli sum; always real."""
    return float(expectation_batch(state.amplitudes[None], obs)[0])


def sample(state: StateVector, shots: int = 1024, seed=None,
           readout_flip_prob: float = 0.0) -> ShotCounts:
    """Draw measurement outcomes in the computational basis.

    Readout error, when nonzero, flips each measured bit independently
    after the ideal outcome is drawn.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
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
    return ShotCounts(counts, shots)


_PAULI_LETTERS = ("I", "X", "Y", "Z")


def simulate_noisy(bound: CircuitDescriptor, noise: NoiseModel, seed=None,
                   initial: StateVector | None = None) -> StateVector:
    """One stochastic Pauli trajectory of a bound circuit (see ``simulate``).

    After each single-qubit gate a uniformly chosen non-identity Pauli is
    inserted on its target with probability p1; after each two-qubit gate,
    with probability p2, one of the 15 non-identity two-qubit Paulis lands
    on the gate's targets. Averaging expectations over many seeds converges
    to the corresponding mixing channel. The insertions are drawn before
    simulating, as extra gates of the circuit; no draw depends on the state.
    Like any single-qubit gate, an inserted Pauli is fused with its
    neighbours on the same qubit when the circuit is compiled.
    """
    rng = np.random.default_rng(seed)
    gates = []
    for gate in bound.gates:
        gates.append(gate)
        if len(gate.targets) == 1:
            if noise.p1 > 0.0 and rng.random() < noise.p1:
                letter = _PAULI_LETTERS[rng.integers(1, 4)]
                gates.append(Gate(letter, gate.targets))
        else:
            if noise.p2 > 0.0 and rng.random() < noise.p2:
                pair = int(rng.integers(1, 16))
                a, b = divmod(pair, 4)
                if a:
                    gates.append(Gate(_PAULI_LETTERS[a], (gate.targets[0],)))
                if b:
                    gates.append(Gate(_PAULI_LETTERS[b], (gate.targets[1],)))
    return simulate(CircuitDescriptor(bound.n_qubits, gates, bound.parameters), initial)


def _checked_keep(keep, n: int) -> tuple[int, ...]:
    keep = tuple(sorted(int(q) for q in keep))
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep has repeated qubits: {keep}")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep {keep} out of range for {n} qubit(s)")
    return keep


def _gram_batch(states: np.ndarray, keep) -> np.ndarray:
    """m m^dagger per row, m the state as a (2**k, 2**(n-k)) kept-by-rest matrix."""
    rows, dim = states.shape
    n = dim.bit_length() - 1
    keep = _checked_keep(keep, n)
    tensor = states.reshape((rows,) + (2,) * n)
    tensor = np.moveaxis(tensor, [q + 1 for q in keep], range(1, len(keep) + 1))
    m = tensor.reshape(rows, 2 ** len(keep), -1)
    return m @ m.conj().transpose(0, 2, 1)


def purity_batch(states: np.ndarray, keep) -> np.ndarray:
    """Tr[rho_keep^2] for every row of a (B, 2**n) batch."""
    g = _gram_batch(states, keep)
    return np.sum(np.abs(g.reshape(g.shape[0], -1)) ** 2, axis=1)


def reduced_density_matrix(state: StateVector, keep) -> DensityMatrix:
    """Trace out everything but ``keep`` (ascending qubit order on output)."""
    rho = _gram_batch(state.amplitudes[None], keep)[0]
    # symmetrize away the last-bit rounding so the Hermiticity check is exact
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho.shape[0].bit_length() - 1, rho)


def subsystem_purity(state: StateVector, keep) -> float:
    """Tr[rho_keep^2] without materializing a validated DensityMatrix."""
    return float(purity_batch(state.amplitudes[None], keep)[0])


def schmidt_spectrum(states: np.ndarray, k: int) -> np.ndarray:
    """Ascending eigenvalues of rho over the first k qubits, per row of a (B, 2**n) batch.

    They are the squared singular values of the (2**k, 2**(n-k)) amplitude
    matrix, padded with leading zeros to 2**k values when k > n - k.
    """
    rows = states.shape[0]
    sv = np.linalg.svd(states.reshape(rows, 2**k, -1), compute_uv=False)
    lam = np.zeros((rows, 2**k))
    lam[:, 2**k - sv.shape[1]:] = sv[:, ::-1] ** 2
    return lam
