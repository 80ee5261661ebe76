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
amplitudes, half the rows at a time, through a scratch buffer of half the
batch (one state for one row), then one multiply in place by the ±1 signs
of its Z and CZ and by the per-row phase exp(i sum_c theta_c (b_c - 1/2))
of its RZ, b_c a parity of index bits. The gather index and the parity
tables are built per call, by doubling, in blocks of at most 4096
entries; no 2**n-sized table is kept. The opening of a program
(``GateProgram.opening``: each qubit's first run, when no two-qubit gate
on the qubit comes before it, hoisted to the front as a one-qubit "dense"
op, in ascending qubit order) runs through neither kernel: it acts on |0>
of qubits nothing has touched, so ``_open`` writes it into the zeroed rows
as the product of the ops' first columns, built in place by doubling,
with about as many writes as two passes over the state.
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
most CHUNK_BYTES = 4 MiB (and half of physical memory), run one after
another in order, each range's angle rows built, by the caller's row
builder, as the range is run. One rule, ``_row_bytes``, sizes a row: two
states (32 * 2**n bytes), its own and one pass's output or scratch, plus 96
bytes per angle column a dense op reads (a mono op reads its RZ angles
alone) and 2048 bytes of workspace. The kernels, the reductions the
analyzers run on a chunk and the chunks of Haar states stay within it, but
for per-call tables and the one case ``_row_bytes`` names. A batch of no
rows gives an empty result. A batch whose rows take more than half of
physical memory by that rule, a chunk item or a compiled observable that
does, is rejected with ValueError before anything is allocated.

Observables are never applied as gates. A PauliSum is compiled once per
register width n into groups of terms that share an X/Y flip mask, and
keeps them for as long as it lives. The Z strings and the identity form
one real diagonal, whose expectation is the probabilities dotted with it;
every other group is a gather index plus a phase vector. Each group's
vector is one Walsh-Hadamard transform of its terms' coefficients,
O(n 2**n) to compile. An expectation costs one pass over the batch per
group, whatever the number of terms, and each row is reduced on its own.

Sampling and the stochastic Pauli noise channel take explicit seeds; a
trajectory average over seeds estimates the channel output.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .circuit import (CircuitDescriptor, Gate, GateProgram, Monomial, PauliSum,
                      _check_count, _check_real, _is_integer, _resolve_seed, matrix_product,
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
    """Stochastic Pauli insertion rates after one- (p1) and two-qubit (p2)
    gates. Readout flips are an argument of ``sample``."""

    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            _check_real(getattr(self, name), name, "in [0, 1]")
            object.__setattr__(self, name, float(getattr(self, name)))


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


def _row_bytes(n_qubits: int, program: GateProgram | None = None) -> int:
    """Bytes per row of n-qubit states: the one rule that sizes and checks
    every chunk. Two states of 16 * 2**n bytes, the row's own and one
    pass's output or scratch (a ``_block`` product, a ``_mono`` gather or
    phase buffers, a reduction's copy, a Haar draw's normals); 2048 bytes of
    workspace (a 3-qubit block's 8 x 8 Kronecker product and its contiguous
    copy, or a reduction's results); and, with ``program``, 96 bytes per
    angle column a dense op reads (its complex rotation matrix, 64, and the
    angle, half angle or cosine, and sine it is formed from, 24). Tables a
    kernel builds per call over one block of at most _BLOCK indices come on
    top where its buffers fill the room (a gather of one row, a phase over
    all rows of at most 8 qubits); ``_gram_batch`` checks the third state
    one row over qubits that do not lead takes.
    """
    row = 2 * _AMPLITUDE_BYTES * 2**n_qubits + 2048
    if program is not None:
        row += 96 * program.dense_columns.size
    return row


def map_chunks(fn, n_items: int, item_bytes: int) -> np.ndarray:
    """np.concatenate of fn(r), in order, over consecutive ranges r covering
    range(n_items), each of as many items of item_bytes as fit in CHUNK_BYTES
    and in half of physical memory (at least one). ValueError if one item
    exceeds half of physical memory."""
    _fits(item_bytes, "one chunk item")
    size = max(1, min(CHUNK_BYTES, _physical_memory() // 2) // item_bytes)
    return np.concatenate([fn(range(s, min(s + size, n_items)))
                           for s in range(0, max(n_items, 1), size)])


def simulate_map(fn, program: GateProgram, rows, items: int, group: int = 1) -> np.ndarray:
    """map_chunks of fn(states, r) over ranges r of range(items), states being
    the final states of rows(r), the angle rows of the items in r, built once
    per range; an item is ``group`` rows, each costing ``_row_bytes``."""
    return map_chunks(lambda r: fn(simulate_batch(program, rows(r)), r), items,
                      group * _row_bytes(program.n_qubits, program))


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


def _parts(rows: int) -> list[range]:
    """The ranges of rows a "mono" op gathers, one after another: the halves
    of a batch, or its one row. A part reads only its own rows, so it can
    be gathered whole into scratch before it is written back, and its
    scratch takes at most half the batch, or one state for one row."""
    step = max(1, -(-rows // 2))
    return [range(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def _gather(flat: np.ndarray, mono: Monomial, size: int) -> None:
    """y <- psi[src(y)] for a (B, 2**n) batch, part by part (``_parts``), a
    block of ``size`` indices at a time, through one scratch buffer."""
    rows, dim = flat.shape
    low = size.bit_length() - 1
    blocks = dim // size
    columns = np.array(mono.columns, dtype=np.intp)
    index = _xor_table(columns[:low], size)
    bases = _xor_table(columns[low:], blocks) ^ mono.constant
    parts = _parts(rows)
    scratch = np.empty(len(parts[0]) * dim if parts else 0, dtype=complex)
    for part_rows in parts:
        part = flat[part_rows.start:part_rows.stop]
        stage = scratch[:part.size].reshape(blocks, len(part_rows), size)
        for b, block in enumerate(stage):
            np.take(part, index ^ bases[b], axis=1, out=block, mode="clip")
        for b, block in enumerate(stage):
            part[:, b * size:(b + 1) * size] = block


def _mono(flat: np.ndarray, angles: np.ndarray, mono: Monomial) -> None:
    """Apply a "mono" op to a (B, 2**n) batch: y <- sign(y) phase(y) psi[src(y)].

    The gather (``_gather``) runs first, a block of at most _BLOCK indices at
    a time. Then each phase block is multiplied in place by its signs and
    phases, read from parity tables over its low bits, built per call, XORed
    with values for its high bits. A row's phase exponent is summed one angle
    column at a time, elementwise, so it does not depend on B or on the block
    size. A block's exponent, one column's terms and its complex factors take
    24 bytes per amplitude, so a phase block is the largest power of two, at
    most _BLOCK, whose buffers fit in the room ``_row_bytes`` gives a row
    beside its state, and all rows go at once.
    """
    rows, dim = flat.shape
    if mono.columns is not None:
        _gather(flat, mono, min(dim, _BLOCK))
    pairs = 2 * mono.signs
    if not (pairs or mono.angles.size):
        return
    room = _row_bytes(dim.bit_length() - 1) - _AMPLITUDE_BYTES * dim
    size = min(dim, _BLOCK, 1 << ((room // 24).bit_length() - 1))
    low = size.bit_length() - 1
    blocks = dim // size
    low_parities = _xor_table(mono.masks[:, :low], size)
    high_parities = _xor_table(mono.masks[:, low:], blocks) ^ mono.flips[:, None]
    steps = low_parities[pairs:].view(np.int8)  # (-1)**b_c, in the parities' place
    steps *= -2
    steps += 1
    # theta_c (b_c - 1/2) is -theta_c / 2 times (-1)**b_c, exactly
    theta = angles[:, mono.angles] * -0.5
    k = rows * size if mono.angles.size else 0
    buffer = np.empty(3 * k)
    exponent = buffer[:k].reshape(-1, size)
    term = buffer[k:2 * k].reshape(-1, size)
    phases = buffer[k:].view(complex).reshape(-1, size)
    for b in range(blocks):
        target = flat[:, b * size:(b + 1) * size]
        factor, high = None, high_parities[:, b]
        if mono.angles.size:
            exponent[...] = 0.0
            for c in range(mono.angles.size):
                np.multiply(theta[:, c, None], steps[c], out=term)
                (np.subtract if high[pairs + c] else np.add)(exponent, term, out=exponent)
            np.cos(exponent, out=phases.real)
            np.sin(exponent, out=phases.imag)
            factor = phases
        if pairs:
            signs = (low_parities[:pairs] ^ high[:pairs, None]).reshape(-1, 2, size)
            negative = np.bitwise_xor.reduce(signs[:, 0] & signs[:, 1], axis=0)
            sign = 1.0 - 2.0 * negative
            factor = sign if factor is None else np.multiply(factor, sign, out=factor)
        np.multiply(factor, target, out=target)


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
    n, rows = program.n_qubits, angles.shape[0]
    _fits(rows * _row_bytes(n, program), f"the simulation of {rows} row(s) of a {n}-qubit state")
    states = np.zeros((rows, 2**n), dtype=complex)
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
    A projector is (I + Z)/2 (P0) or (I - Z)/2 (P1), so a term with
    projectors on the qubits P adds its coefficient times 2**-|P| at the
    zmask of each subset S of P joined to its own, negated when S holds an
    odd number of P1 qubits: one scatter of 2**|P| entries.
    The result is kept on obs, one entry per n, for as long as obs lives.
    """
    if n in obs._compiled:
        return obs._compiled[n]
    if obs.max_qubit() >= n:
        raise ValueError(
            f"observable touches qubit {obs.max_qubit()}, state has {n}"
        )
    groups: dict[int, list] = {}
    # the temporaries of the largest projector scatter: per entry its mask
    # (8 bytes), sign parity (1), signed weight (8) and the table entries
    # it adds to (8); a term without projectors adds one entry, as a scalar
    scatter = 0
    for term in obs.terms:
        if term.coeff == 0.0:
            continue
        flip = zmask = n_y = 0
        bits, ones = [], []  # the projector qubits' bits, and which are P1
        for q, axis in term.paulis:
            bit = 1 << (n - 1 - q)
            if axis in ("P0", "P1"):
                bits.append(bit)
                ones.append(axis == "P1")
                continue
            flip |= 0 if axis == "Z" else bit
            zmask |= 0 if axis == "X" else bit
            n_y += axis == "Y"
        groups.setdefault(flip, []).append((term.coeff, zmask, n_y, bits, ones))
        if bits:
            scatter = max(scatter, 25 * 2**len(bits))
    dim = 2**n
    _fits(16 * dim * len(groups) + scatter, f"the observable compiled on {n} qubits")
    compiled = []
    for flip, terms in groups.items():
        d = np.zeros((dim, 2))
        for coeff, zmask, n_y, bits, ones in terms:
            entries = 2**len(bits)
            masks = _xor_table(np.array(bits, dtype=np.int64), entries)
            masks |= zmask
            odd = _xor_table(np.array(ones, dtype=bool), entries)
            # coeff * i**n_y goes to Re d for even n_y, to -Im d for odd
            weight = (coeff if n_y % 4 in (0, 3) else -coeff) / entries
            d[masks, n_y % 2] += np.where(odd, -weight, weight)
        for bit in range(n):
            pairs = d.reshape(-1, 2, 1 << bit, 2)
            lo, hi = pairs[:, 0], pairs[:, 1]
            lo[...], hi[...] = lo + hi, lo - hi
        if not flip:
            d[:, 1] = d[:, 0]
        d.flags.writeable = False
        compiled.append((flip, d.reshape(-1, 1)))
    obs._compiled[n] = tuple(compiled)
    return obs._compiled[n]


def _flipped(states: np.ndarray, flip: int) -> np.ndarray:
    """The view of a (B, 2**n) batch whose entry (r, i) is states[r, i ^ flip]:
    one axis per qubit, reversed along the qubits flip marks."""
    n = states.shape[1].bit_length() - 1
    return states.reshape((-1,) + (2,) * n)[(slice(None),) + tuple(
        slice(None, None, 1 - 2 * (flip >> (n - 1 - q) & 1)) for q in range(n))]


def expectation_batch(states: np.ndarray, obs: PauliSum) -> np.ndarray:
    """<psi|O|psi> for every row of a (B, 2**n) batch; always real.

    The observable is compiled once per width n, and kept on obs, into
    groups of terms that share an X/Y flip mask: one real diagonal for the
    Z strings and the identity, one gather psi[i ^ flip] and phase vector
    per other mask.
    Each group costs one pass over the batch, whatever its number of terms,
    and every row is reduced on its own, so a row's value does not depend
    on B. Every group fills one buffer of a state per row: with the squared
    re and im parts of psi, or with psi[i ^ flip], copied through a view
    (``_flipped``), then conjugated and multiplied by psi[i] in place.
    """
    rows, dim = states.shape
    states = np.ascontiguousarray(states, dtype=complex)
    total = np.zeros(rows)
    w = np.empty_like(states)
    for flip, weights in _compiled_observable(obs, dim.bit_length() - 1):
        if flip:
            flipped = _flipped(states, flip)
            np.copyto(w.reshape(flipped.shape), flipped)
            np.conjugate(w, out=w)
            np.multiply(w, states, out=w)
        else:
            np.square(states.view(np.float64), out=w.view(np.float64))
        total += (w.view(np.float64)[:, None, :] @ weights)[:, 0, 0]
    return total


def expectation(state: StateVector, obs: PauliSum) -> float:
    """<psi|O|psi> for a Hermitian Pauli sum; always real."""
    return float(expectation_batch(state.amplitudes[None], obs)[0])


def _check_shots(shots: int, n_qubits: int) -> None:
    """ValueError unless shots is positive and a draw of that many shots fits:
    8 bytes per shot for the outcomes, their sorted copy and each qubit's
    readout flip."""
    _check_count(shots, "shots")
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
    _check_real(readout_flip_prob, "readout_flip_prob", "in [0, 1]")
    rng = np.random.default_rng(_resolve_seed(seed))
    n = state.n_qubits
    probs = state.probabilities()
    probs /= probs.sum()
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
    rng = np.random.default_rng(_resolve_seed(seed))
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
    if not np.iterable(keep):
        raise ValueError(f"keep must be a sequence of qubit indices, got {keep!r}")
    keep = tuple(keep)
    if not all(_is_integer(q) for q in keep):
        raise ValueError(f"keep must hold integer qubit indices, got {keep}")
    keep = tuple(sorted(int(q) for q in keep))
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep has repeated qubits: {keep}")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep {keep} out of range for {n} qubit(s)")
    return keep


def _gram_batch(states: np.ndarray, keep) -> np.ndarray:
    """m m^dagger per row, m the state as a (2**k, 2**(n-k)) kept-by-rest matrix.

    m is a view when the kept qubits lead, else a copy, and m^dagger a copy:
    the rows go in the fewest groups of one size (the last may be smaller)
    whose copies fit in the room ``_row_bytes`` gives the B rows beside
    their states, so in one group or ``_parts``' two halves when those fit
    (one row, and three states, for B = 1). ValueError, before anything is
    allocated, if the matrices and a group's copies exceed half of physical memory.
    """
    rows, dim = states.shape
    n = dim.bit_length() - 1
    keep = _checked_keep(keep, n)
    k = len(keep)
    copies = 1 if keep == tuple(range(k)) else 2
    room = _row_bytes(n) - _AMPLITUDE_BYTES * dim
    fit = max(1, rows * room // (copies * _AMPLITUDE_BYTES * dim))  # rows whose copies fit
    step = -(-rows // max(1, -(-rows // fit)))  # ceil(rows / groups), groups = ceil(rows / fit)
    _fits(_AMPLITUDE_BYTES * (rows * 4**k + copies * step * dim),
          f"the reduced density matrices of {rows} row(s) on {k} of {n} qubits")
    rest = tuple(q + 1 for q in range(n) if q not in keep)
    tensor = states.reshape((rows,) + (2,) * n).transpose((0,) + tuple(q + 1 for q in keep) + rest)
    gram = np.empty((rows, 2**k, 2**k), dtype=complex)
    for r in range(0, rows, step):
        m = tensor[r:r + step].reshape(-1, 2**k, dim >> k)
        np.matmul(m, m.conj().transpose(0, 2, 1), out=gram[r:r + step])
    return gram


def _gram_purity(g: np.ndarray) -> np.ndarray:
    """Tr[g^2] per row of a (B, d, d) batch of Hermitian g: the sum of |g_ij|^2."""
    return np.sum(np.abs(g.reshape(g.shape[0], -1)) ** 2, axis=1)


def purity_batch(states: np.ndarray, keep) -> np.ndarray:
    """Tr[rho_keep^2] for every row of a (B, 2**n) batch."""
    return _gram_purity(_gram_batch(states, keep))


def reduced_density_matrix(state: StateVector, keep) -> DensityMatrix:
    """Trace out everything but ``keep`` (ascending qubit order on output)."""
    rho = _gram_batch(state.amplitudes[None], keep)[0]
    # symmetrize away the last-bit rounding so the Hermiticity check is exact
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho.shape[0].bit_length() - 1, rho)


def subsystem_purity(state: StateVector, keep) -> float:
    """Tr[rho_keep^2] without materializing a validated DensityMatrix."""
    return float(purity_batch(state.amplitudes[None], keep)[0])


def _sketch(dim: int, rank: int) -> np.ndarray:
    """The fixed (dim, rank) complex Gaussian test matrix."""
    rng = np.random.default_rng(217)  # a constant: no caller's seed reaches it
    return rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))


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
