"""Dense statevector simulation, batched.

Amplitudes are stored as a complex vector of length 2**n where qubit 0 is
the most significant bit of the basis index, so |q0 q1 ... q_{n-1}> lives at
index q0*2**(n-1) + ... + q_{n-1}. Gates are applied on the state viewed
as (2**q, 2**k, 2**(n-q-k)), whose middle axis holds the bits of the k
adjacent qubits q, ..., q + k - 1, never by building the 2**n x 2**n
unitary.

The core simulates a batch: a compiled GateProgram
(circuit.compile_program) runs on a flat (B, 2**n) array of B states, row
i driven by row i of a (B, columns) angle matrix. Compiling fuses every
run of single-qubit gates on one qubit into one 2 x 2 operation, so a
layer of RX, RZ, RX rotations is one operation per qubit, not three. A
program holds operations of two forms, each with its kernel. A "dense" op
holds the fused runs, each with an H, Y, RX or RY, of k <= 3 adjacent
qubits. With k = 1 it is an elementwise 2 x 2 update that mixes the two
amplitude slices its qubit splits the state into. With k = 2 or 3 each
row's 2**k x 2**k Kronecker product of the runs' matrices (16 * 4**k
bytes) is formed and applied as one stacked np.matmul on the (B, 2**q,
2**k, 2**(n-q-k)) view, so a layer of n single-qubit runs after the
opening costs ceil(n / 3) passes, each about one pass's memory traffic
plus 2**k complex multiply-adds per amplitude, and one output buffer the
size of the batch. A "mono" op is a stretch of X, Z, RZ, CX and CZ gates
between them, which maps each basis state to one basis state times a phase
(Amy, Maslov and Mosca 2014, arXiv:1303.2042), and costs one gather and
one phase pass, whatever its length: a GF(2)-affine gather of the source
amplitudes into a scratch buffer of about half the batch, then one
multiply by the ±1 signs of its Z and CZ and by the per-row phase exp(i
sum_c theta_c (b_c - 1/2)) of its RZ, b_c a parity of index bits. The
gather index and the parity tables are built per call, by doubling, in
blocks of at most 4096 entries; no 2**n-sized table is kept. The opening
of a program (``GateProgram.opening``: each qubit's first run, when no
two-qubit gate on the qubit comes before it, hoisted to the front as a
one-qubit "dense" op, in ascending qubit order) runs through neither
kernel: it acts on |0> of qubits nothing has touched, so ``_open`` writes
it into the zeroed rows as the product of the ops' first columns, built in
place by doubling, with about as many writes as two passes over the state.
Every rotation, a literal one too, reads its angle from a column. A fused
matrix that depends on angles is formed per row, entry by entry in a fixed
order, a Kronecker matrix reaches np.matmul C-contiguous, so that every
row goes through the same BLAS call, and a phase exponent is summed one
angle column at a time, elementwise, so every row gets exactly the
arithmetic it gets alone, as a bound circuit, however rows are batched.
The norm of every row is checked once, after the last operation, and a
drift beyond 1e-10 raises ValueError; it is not asserted gate by gate.
``simulate``, ``simulate_noisy``, ``expectation``, ``subsystem_purity`` and
``reduced_density_matrix`` are the B = 1 entry points.

Every simulation of many rows goes through ``simulate_map``, which runs
them through ``map_chunks``, the one chunk runner: consecutive ranges of at
most CHUNK_BYTES = 4 MiB, a row costing its state (16 * 2**n bytes), 64
bytes of rotation matrix per angle column a dense op reads (a mono op reads
its RZ angles alone) and 16 * 4**k bytes of matrix per k-qubit dense op
after the opening, run one after another in order. A batch of no rows gives
an empty result.
A state, a chunk item or a compiled observable larger than half of physical
memory is rejected with ValueError before anything is allocated.

Observables are never applied as gates. Each PauliSum is compiled once per
(PauliSum, n), and a few compiled forms stay cached, into groups of terms
that share an X/Y flip mask. The Z strings and the identity form one real
diagonal, whose expectation is the probabilities dotted with it; every
other group is a gather index plus a phase vector. Each group's vector is
one Walsh-Hadamard transform of its terms' coefficients, O(n 2**n) to
compile. An expectation costs one pass over the batch per group, whatever
the number of terms, and each row is reduced on its own.

Sampling and the stochastic Pauli noise channel take explicit seeds; a
trajectory average over seeds estimates the channel output.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import (CircuitDescriptor, Gate, GateProgram, Monomial, PauliSum,
                      _is_integer, matrix_product, rotation_matrices)

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
    """Stochastic Pauli insertion rates after one- (p1) and two-qubit (p2)
    gates. Readout flips are an argument of ``sample``."""

    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class ShotCounts:
    """Measurement outcome histogram: bitstring (qubit 0 leftmost) to count;
    ``sample`` inserts the bitstrings in ascending order."""

    counts: dict[str, int]

    @property
    def shots(self) -> int:
        return sum(self.counts.values())

    def __post_init__(self) -> None:
        for key, count in self.counts.items():
            if not (isinstance(key, str) and key and set(key) <= {"0", "1"}):
                raise ValueError(f"bitstring {key!r} is not a string of 0s and 1s")
            if not (_is_integer(count) and count >= 0):
                raise ValueError(f"count {count!r} of {key!r} is not a non-negative integer")
        if self.shots < 1:
            raise ValueError("shots must be positive")
        lengths = {len(k) for k in self.counts}
        if len(lengths) > 1:
            raise ValueError("bitstrings have inconsistent lengths")

    def bit_matrix(self) -> np.ndarray:
        """Expand to a (shots, n) 0/1 uint8 array, bitstrings in sorted order."""
        keys = sorted(self.counts)
        shifts = np.arange(len(keys[0]) - 1, -1, -1)
        bits = (np.array([int(key, 2) for key in keys])[:, None] >> shifts) & 1
        return np.repeat(bits.astype(np.uint8), [self.counts[key] for key in keys], axis=0)


CHUNK_BYTES = 4 * 2**20
_AMPLITUDE_BYTES = 16  # complex128


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _fits(size: int, what: str) -> None:
    """ValueError if ``what``, taking size bytes, exceeds half of physical memory."""
    limit = _physical_memory() // 2
    if size > limit:
        # Python formats no int of over 4300 digits, so a huge size is bounded
        count = size if size < 2**64 else f"at least 2**{size.bit_length() - 1}"
        raise ValueError(
            f"{what} takes {count} bytes, more than half of physical memory "
            f"({limit} bytes)"
        )


def map_chunks(fn, n_items: int, item_bytes: int) -> np.ndarray:
    """np.concatenate of fn(r), in order, over consecutive ranges r covering
    range(n_items), each of as many items of item_bytes as fit in CHUNK_BYTES
    (at least one). ValueError if one item exceeds half of physical memory."""
    _fits(item_bytes, "one chunk item")
    size = max(1, CHUNK_BYTES // item_bytes)
    return np.concatenate([fn(range(s, min(s + size, n_items)))
                           for s in range(0, max(n_items, 1), size)])


def simulate_map(fn, program: GateProgram, angles: np.ndarray,
                 group: int = 1) -> np.ndarray:
    """map_chunks of fn(states, rows) over the rows of the (B, columns) angles,
    states being those rows' final states. A range holds whole groups of
    ``group`` rows; a row costs its state, 64 bytes of rotation matrix per
    angle column a dense op reads, and 16 * 4**k bytes of Kronecker matrix
    per k-qubit dense op after the opening."""
    kron = sum(4 ** len(op[2]) for op in program.ops[program.opening:] if op[0] == "dense")
    row_bytes = _AMPLITUDE_BYTES * (2**program.n_qubits + 4 * program.dense_columns.size + kron)

    def chunk(items: range):
        rows = range(group * items.start, group * items.stop)
        return fn(simulate_batch(program, angles[rows.start:rows.stop]), rows)

    return map_chunks(chunk, angles.shape[0] // group, group * row_bytes)


# ---------------------------------------------------------------------------
# kernels on a (B, 2**n) batch; axis 0 is the batch


def _pair(states: np.ndarray, qubit: int, k: int = 1) -> np.ndarray:
    """The (B, 2**q, 2**k, 2**(n-q-k)) view of a (B, 2**n) batch; axis 2 holds
    the bits of qubits q, ..., q + k - 1, qubit q's the most significant."""
    rows, dim = states.shape
    return states.reshape(rows, 1 << qubit, 1 << k, dim >> (qubit + k))


def _mix(pair, u00, u01, u10, u11) -> None:
    """(lo, hi) <- (u00 lo + u01 hi, u10 lo + u11 hi), per-row coefficients.

    Operand order matters: numpy's vectorised complex product is not
    commutative to the last bit.
    """
    top, bottom = pair[:, :, 0], pair[:, :, 1]
    cross = u01 * bottom
    np.multiply(u11, bottom, out=bottom)
    bottom += u10 * top
    np.multiply(u00, top, out=top)
    top += cross


def _op_matrix(factors, rotations) -> np.ndarray:
    """The (2, 2, B) product of a run's factors, B = 1 if all are constant."""
    matrix = None
    for factor in factors:
        if not isinstance(factor, np.ndarray):
            factor = rotations[:, :, factor]
        matrix = factor if matrix is None else matrix_product(factor, matrix)
    return matrix


def _kron(matrices) -> np.ndarray:
    """The C-contiguous (B, 2**k, 2**k) Kronecker products of k (2, 2, B)
    matrices, the first the most significant; B = 1 if all are constant.

    Each entry is a product of one entry per matrix, taken elementwise in
    matrix order, so one row's product does not depend on B.
    """
    kron = matrices[0]
    for m in matrices[1:]:
        size = 2 * kron.shape[0]
        kron = (kron[:, None, :, None] * m[None, :, None, :]).reshape(size, size, -1)
    return np.ascontiguousarray(np.moveaxis(kron, -1, 0))


def _block(states: np.ndarray, qubit: int, matrices) -> None:
    """Apply the Kronecker product U of k >= 2 per-row (2, 2, B) matrices to
    qubits qubit, ..., qubit + k - 1 of a (B, 2**n) batch, in place.

    U is one stacked np.matmul on the ``_pair`` view: U times each
    (2**k, 2**(n-q-k)) slice, or, when the block holds the last qubit, the
    (2**q, 2**k) slice times U^T. The matmul goes into one fresh buffer
    that is copied back. numpy hands each matrix of a stacked matmul to
    BLAS only when its rows are contiguous, and a (2**k, 2**k, B) product
    viewed as (B, 2**k, 2**k) has them so only at B = 1; its own loop rounds
    sums differently, so U and U^T are copied C-contiguous.
    """
    view = _pair(states, qubit, len(matrices))
    if view.shape[3] == 1:
        view[..., 0] = np.matmul(view[..., 0], _kron([m.transpose(1, 0, 2) for m in matrices]))
    else:
        view[...] = np.matmul(_kron(matrices)[:, None], view)


_BLOCK = 2**12  # basis indices per block of a "mono" op


def _xor_table(values: np.ndarray, size: int) -> np.ndarray:
    """t[..., y] = XOR of values[..., j] over the set bits j of y, for every
    y < size (a power of two), built by doubling."""
    table = np.zeros(values.shape[:-1] + (size,), dtype=values.dtype)
    step = 1
    while step < size:
        j = step.bit_length() - 1
        np.bitwise_xor(table[..., :step], values[..., j, None], out=table[..., step:2 * step])
        step *= 2
    return table


def _parts(mono: Monomial, rows: int, blocks: int) -> list[tuple[range, range]]:
    """The (rows, blocks) ranges a "mono" op is applied to, one after another.

    An op that gathers nothing is one part, applied in place. Otherwise a
    part is gathered whole before it is written back, so it must not read
    what an earlier part wrote. Halves of the rows are such parts. So are
    equal runs of blocks when the op keeps the qubits that select them:
    with qubits 0..k-1 each read from itself, the 2**k ranges of indices
    they split the state into each read only themselves, and the gather
    needs a scratch of 2**-k of the batch.
    """
    if mono.columns is None:
        return [(range(rows), range(blocks))]
    split = 0
    top = len(mono.columns) - 1  # the bit of qubit 0
    while 1 << split < blocks and not (mono.constant >> (top - split)) & 1 and \
            [j for j, c in enumerate(mono.columns) if c >> (top - split) & 1] == [top - split]:
        split += 1
    if split:
        length = blocks >> split
        return [(range(rows), range(b, b + length)) for b in range(0, blocks, length)]
    step = max(1, -(-rows // 2))
    return [(range(r0, min(r0 + step, rows)), range(blocks)) for r0 in range(0, rows, step)]


def _mono(flat: np.ndarray, angles: np.ndarray, mono: Monomial) -> None:
    """Apply a "mono" op to a (B, 2**n) batch: y <- sign(y) phase(y) psi[src(y)].

    Indices go in blocks of at most _BLOCK: the gather index and the
    parities of a block are tables over its low bits, built per call, XORed
    with values for its high bits. An op with a gather gathers each part
    (``_parts``) into one scratch buffer, at most about half the batch, and
    writes it back times its sign and phase; an op without one multiplies
    the batch by them in place. A row's phase exponent is summed one angle
    column at a time, elementwise, so it does not depend on B.
    """
    rows, dim = flat.shape
    size = min(dim, _BLOCK)
    low = size.bit_length() - 1
    blocks = dim // size
    pairs = 2 * mono.signs
    low_parities = _xor_table(mono.masks[:, :low], size)
    high_parities = _xor_table(mono.masks[:, low:], blocks) ^ mono.flips[:, None]
    halves = low_parities[pairs:] - 0.5  # b_c - 1/2 over the low bits
    parts = _parts(mono, rows, blocks)
    gathers = mono.columns is not None
    if gathers:
        columns = np.array(mono.columns, dtype=np.intp)
        index = _xor_table(columns[:low], size)
        bases = _xor_table(columns[low:], blocks) ^ mono.constant
        scratch = np.empty(max([len(r) * len(b) for r, b in parts], default=0) * size,
                           dtype=complex)
    for part_rows, part_blocks in parts:
        part = flat[part_rows.start:part_rows.stop]
        theta = angles[part_rows.start:part_rows.stop, mono.angles]
        if gathers:
            stage = scratch[:len(part_rows) * len(part_blocks) * size].reshape(
                len(part_blocks), len(part_rows), size)
            for block, b in zip(stage, part_blocks):
                np.take(part, index ^ bases[b], axis=1, out=block, mode="clip")
        for i, b in enumerate(part_blocks):
            target = part[:, b * size:(b + 1) * size]
            source = stage[i] if gathers else target
            factor, high = None, high_parities[:, b]
            if mono.angles.size:
                exponent = np.zeros(target.shape)
                term = np.empty(target.shape)
                for c in range(mono.angles.size):
                    np.multiply(theta[:, c, None], halves[c], out=term)
                    (np.subtract if high[pairs + c] else np.add)(exponent, term, out=exponent)
                factor = np.empty(target.shape, dtype=complex)
                np.cos(exponent, out=factor.real)
                np.sin(exponent, out=factor.imag)
            if pairs:
                signs = (low_parities[:pairs] ^ high[:pairs, None]).reshape(-1, 2, size)
                negative = np.bitwise_xor.reduce(signs[:, 0] & signs[:, 1], axis=0)
                sign = 1.0 - 2.0 * negative
                factor = sign if factor is None else np.multiply(factor, sign, out=factor)
            if factor is None:
                target[...] = source
            else:
                np.multiply(factor, source, out=target)


def _run(states: np.ndarray, ops, rotations, angles) -> None:
    """Apply compiled ops after the opening to a (B, 2**n) batch.

    ``rotations`` holds the (2, 2, m, B) matrices of the program's m
    ``dense_columns``, row i's in rotations[..., i]; ``angles`` is the
    (B, columns) angle batch the mono ops read. A one-qubit dense op is an
    elementwise pass (``_mix``); a k-qubit one forms each row's 2**k x 2**k
    Kronecker matrix and applies it with one stacked matmul (``_block``),
    so a layer of n single-qubit runs costs ceil(n / 3) passes.
    """
    for op in ops:
        if op[0] == "mono":
            _mono(states, angles, op[1])
            continue
        _, qubit, runs = op  # "dense"
        matrices = [_op_matrix(factors, rotations) for factors in runs]
        if len(matrices) > 1:
            _block(states, qubit, matrices)
            continue
        m = matrices[0][..., None, None]  # one coefficient per row
        _mix(_pair(states, qubit), m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def _open(states: np.ndarray, ops, rotations) -> None:
    """Spread |0...0> of a (B, 2**n) batch into the product of the opening
    ops' first columns (m00, m10), their action on |0>, in place.

    The ops come in ascending qubit order, so before qubit q is placed only
    the ``[..., 0]`` slice of its ``_pair`` view can be nonzero, and of that
    slice only the first 2**(q - lead) entries, lead being the first op's
    qubit: the qubits below lead stay |0>. That part's half lo doubles onto
    hi = m10 lo, then lo = m00 lo, coefficient first as in ``_mix``. hi is
    formed as a fresh product and copied in: written with out=hi, whose
    memory interleaves with lo's, numpy rounds some rows differently as the
    batch grows. An idle qubit between two opened ones still has its zeros
    written.
    """
    lead = ops[0][1] if ops else 0
    for _, qubit, (factors,) in ops:
        first = _pair(states, qubit)[:, :1 << (qubit - lead), :, 0]
        lo, hi = first[:, :, 0], first[:, :, 1]
        m = _op_matrix(factors, rotations)[..., None]
        hi[...] = m[1, 0] * lo
        np.multiply(m[0, 0], lo, out=lo)


def _norms(states: np.ndarray) -> np.ndarray:
    """|psi|^2 per row of a (B, 2**n) batch."""
    flat = states.view(np.float64)
    return (flat[:, None, :] @ flat[:, :, None])[:, 0, 0]


def simulate_batch(program: GateProgram, angles: np.ndarray) -> np.ndarray:
    """Final states, shape (B, 2**n), one per row of the (B, columns) angles.

    Every row starts from |0...0>. The program's opening (its first
    ``program.opening`` ops, single-qubit ops on untouched qubits in
    ascending qubit order) is written into the zeroed rows as a product
    state, built in place by doubling (``_open``); the remaining ops then
    run as passes over the state. An infinite angle (a parameter times its
    prefactor overflowed, see ``GateProgram.angles``) is a ValueError,
    raised before any gate runs.
    """
    if not np.all(np.isfinite(angles)):
        raise ValueError("a rotation angle overflowed to inf: a parameter times "
                         "its prefactor exceeds the float range")
    n = program.n_qubits
    _fits(_AMPLITUDE_BYTES * 2**n, f"a {n}-qubit state")
    states = np.zeros((angles.shape[0], 2**n), dtype=complex)
    states[:, 0] = 1.0
    read = program.dense_columns
    rotations = rotation_matrices(program.kinds[read], angles[:, read])
    _open(states, program.ops[:program.opening], rotations)
    _run(states, program.ops[program.opening:], rotations, angles)
    drift = np.abs(_norms(states) - 1.0)
    if not np.all(drift <= _NORM_TOL):  # NaN fails too
        raise ValueError(f"state is not normalized: ||psi|^2 - 1| = {drift.max()}")
    return states


def simulate(bound: CircuitDescriptor) -> StateVector:
    """Run a bound circuit (``bind``) from |0...0> and return the final state.

    A circuit that still declares parameters is a ValueError.
    """
    if bound.parameters:
        raise ValueError("circuit declares parameters; simulate bind(circuit, theta)")
    program = bound.program
    states = simulate_batch(program, program.angles(np.empty((1, 0))))
    return StateVector(bound.n_qubits, states[0])


def row_vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot(a[i], b[i]) for every row of two (B, N) batches."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


@lru_cache(maxsize=8)
def _compiled_observable(obs: PauliSum, n: int) -> tuple:
    """obs on n qubits as ((flip, weights), ...), one pair per X/Y flip mask.

    A term maps |i> to i**#Y (-1)**popcount(i & zmask) |i ^ flip>, flip
    marking its X and Y qubits, zmask its Y and Z qubits; qubit q is bit
    n - 1 - q. A group's terms sum to one phase vector d, stored as a
    read-only column of interleaved (Re d, -Im d), to be dotted with the re
    and im parts of conj(psi[i ^ flip]) psi[i]. The flip-0 group's d is the
    real diagonal, stored as (d, d) for the squared re and im parts of psi.

    d is the Walsh-Hadamard transform of the group's coefficient table c,
    d_i = sum_z c_z (-1)**popcount(i & z): each term's phased coefficient
    is added to c at its zmask, then one butterfly pass per index bit turns
    c into d in place, O(n 2**n) per group whatever its number of terms.
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
    compiled = []
    for flip, terms in groups.items():
        d = np.zeros((dim, 2))
        for coeff, zmask, n_y in terms:
            # coeff * i**n_y goes to Re d for even n_y, to -Im d for odd
            d[zmask, n_y % 2] += coeff if n_y % 4 in (0, 3) else -coeff
        for bit in range(n):
            pairs = d.reshape(-1, 2, 1 << bit, 2)
            lo, hi = pairs[:, 0], pairs[:, 1]
            lo[...], hi[...] = lo + hi, lo - hi
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
            # np.take, not states[:, index]: the latter may come back in column
            # order, and then w has no float64 view
            w = np.conj(np.take(states, np.arange(dim) ^ flip, axis=1)) * states
        else:
            w = np.square(states.view(np.float64))
        total += (w.view(np.float64)[:, None, :] @ weights)[:, 0, 0]
    return total


def expectation(state: StateVector, obs: PauliSum) -> float:
    """<psi|O|psi> for a Hermitian Pauli sum; always real."""
    return float(expectation_batch(state.amplitudes[None], obs)[0])


def _check_shots(shots: int, n_qubits: int) -> None:
    """ValueError unless shots is positive and a draw of that many shots fits:
    8 bytes per shot for the outcomes, their sorted copy and each qubit's
    readout flip."""
    if shots < 1:
        raise ValueError("shots must be positive")
    _fits(8 * shots * (2 + n_qubits), f"a draw of {shots} shots on {n_qubits} qubit(s)")


def sample(state: StateVector, shots: int = 1024, seed=None,
           readout_flip_prob: float = 0.0) -> ShotCounts:
    """Draw measurement outcomes in the computational basis.

    Readout error, when nonzero, flips each measured bit independently
    after the ideal outcome is drawn; its probability must lie in [0, 1].
    A draw larger than half of physical memory is a ValueError, raised
    before anything is drawn.
    """
    _check_shots(shots, state.n_qubits)
    if not 0.0 <= readout_flip_prob <= 1.0:  # NaN fails too
        raise ValueError(f"readout_flip_prob must lie in [0, 1], got {readout_flip_prob}")
    rng = np.random.default_rng(seed)
    n = state.n_qubits
    probs = state.probabilities()
    probs = probs / probs.sum()
    outcomes = rng.choice(len(probs), size=shots, p=probs)
    if readout_flip_prob > 0.0:
        flips = rng.random((shots, n)) < readout_flip_prob
        weights = 1 << np.arange(n - 1, -1, -1)
        outcomes = outcomes ^ (flips @ weights)
    values, counts = np.unique(outcomes, return_counts=True)
    return ShotCounts({format(int(v), f"0{n}b"): int(c) for v, c in zip(values, counts)})


_PAULI_LETTERS = ("I", "X", "Y", "Z")


def simulate_noisy(bound: CircuitDescriptor, noise: NoiseModel, seed=None) -> StateVector:
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
    return simulate(CircuitDescriptor(bound.n_qubits, gates, bound.parameters))


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


@lru_cache(maxsize=8)
def _sketch(dim: int, rank: int) -> np.ndarray:
    """The fixed, read-only (dim, rank) complex Gaussian test matrix."""
    rng = np.random.default_rng(217)  # a constant: no caller's seed reaches it
    omega = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    omega.flags.writeable = False
    return omega


def schmidt_spectrum(states: np.ndarray, k: int, rank: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of rho over the first k qubits, per row of a (B, 2**n) batch.

    They are the squared singular values of the (2**k, 2**(n-k)) amplitude
    matrix M, padded with leading zeros to 2**k values. ``rank`` bounds every
    row's Schmidt rank and defaults to the smaller side of M, which takes
    M's full SVD. Below that side, a randomized range finder (Halko,
    Martinsson and Tropp 2011, SIAM Rev. 53, 217) first replaces M by
    Q^dagger M, Q = qr(M Omega), Omega a fixed complex Gaussian of ``rank``
    columns; the SVD of that smaller matrix gives every nonzero value in
    O(2**k * 2**(n-k) * rank) work. Each step is a stacked per-row matmul,
    qr or svd, so a row gets the arithmetic it gets alone.
    """
    rows = states.shape[0]
    m = states.reshape(rows, 2**k, -1)
    side = min(m.shape[1:])
    rank = side if rank is None else rank
    if not 1 <= rank <= side:
        raise ValueError(f"rank {rank} must lie in [1, {side}]")
    if rank < side:
        q = np.linalg.qr(m @ _sketch(m.shape[2], rank))[0]
        m = q.conj().transpose(0, 2, 1) @ m
    sv = np.linalg.svd(m, compute_uv=False)
    lam = np.zeros((rows, 2**k))
    lam[:, 2**k - sv.shape[1]:] = sv[:, ::-1] ** 2
    return lam
