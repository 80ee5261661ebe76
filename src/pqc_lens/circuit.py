"""Parameterized circuit descriptions and their JSON wire format.

A circuit is an ordered gate list over a fixed vocabulary (H, X, Y, Z, RX,
RY, RZ, CX, CZ). Rotation angles are either literal radians or a reference
to a declared parameter scaled by a real prefactor, so an angle like
``2 * beta`` stays a single trainable parameter. Descriptors are immutable
and validated when built; binding a parameter vector gives a descriptor
whose angles are all literals and which declares no parameters.

Qubit indices follow the simulator convention: qubit 0 is the most
significant bit of a basis-state index.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby

import numpy as np

GATE_KINDS = ("H", "X", "Y", "Z", "RX", "RY", "RZ", "CX", "CZ")
ROTATION_KINDS = ("RX", "RY", "RZ")
PAULI_AXES = ("X", "Y", "Z", "P0", "P1")  # P0 = |0><0|, P1 = |1><1|


class CircuitSpecError(ValueError):
    """A circuit-spec document failed to parse or validate."""


@dataclass(frozen=True)
class ParameterId:
    """A named circuit parameter; its position in ``parameters`` is its index."""

    name: str


@dataclass(frozen=True)
class ParamRef:
    """A symbolic angle: ``prefactor * theta[name]``."""

    name: str
    prefactor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefactor",
                           _number(self.prefactor, f"prefactor of parameter {self.name!r}"))


def _is_integer(value) -> bool:
    # int() would truncate 0.9 to 0; bool is an int subclass
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # float() would also read "1.5" and True
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """A real number (``_is_real``) as a float; else a CircuitSpecError naming what."""
    if not _is_real(value):
        raise CircuitSpecError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise CircuitSpecError(f"{what} is too large for a float") from None


def _check_integer(value, name: str) -> None:
    """ValueError unless value is an int or numpy integer (a bool is not)."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_count(value, name: str, least: int = 1, most: int | None = None) -> None:
    """ValueError unless value is an integer (not a bool) in [least, most];
    the message names the argument, the bound and the value received."""
    _check_integer(value, name)
    if value < least or (most is not None and value > most):
        bound = (f"in [{least}, {most}]" if most is not None else
                 {0: "non-negative", 1: "positive"}.get(least, f"at least {least}"))
        raise ValueError(f"{name} must be {bound}, got {value!r}")


_REAL_BOUNDS = {"positive": lambda v: v > 0, "negative": lambda v: v < 0,
                "in [0, 1]": lambda v: 0 <= v <= 1}


def _check_real(value, name: str, bound: str | None = "positive") -> None:
    """ValueError unless value is a real number (an int, float or numpy real,
    not a bool or a string) that is finite and ``bound``: "positive",
    "negative", "in [0, 1]" or, for None, no bound; the message names the
    argument, the bound and the value received."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not (finite and (bound is None or _REAL_BOUNDS[bound](value))):
        rule = "finite" if bound is None else f"finite and {bound}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _resolve_seed(seed) -> int:
    """A fresh random seed for None; else seed, which must be a non-negative
    integer (a bool, float or string is a ValueError, never rounded)."""
    if seed is None:
        return int(np.random.default_rng().integers(2**31))
    _check_count(seed, "seed", 0)
    return int(seed)


def _check_choice(value, name: str, choices: tuple) -> None:
    """ValueError unless value is one of choices."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _check_edges(edges, n_nodes: int | None = None) -> None:
    """ValueError unless each edge joins two distinct integer nodes in
    [0, n_nodes), or in [0, infinity) when n_nodes is None."""
    if n_nodes is not None:
        _check_count(n_nodes, "n_nodes")
    highest = None if n_nodes is None else n_nodes - 1
    for u, v in edges:
        _check_count(u, "edge endpoint", 0, highest)
        _check_count(v, "edge endpoint", 0, highest)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    angle: float | ParamRef | None = None

    def __post_init__(self) -> None:
        targets = tuple(self.targets)
        for t in targets:
            if not _is_integer(t):
                raise CircuitSpecError(f"gate targets must be integers, got {t!r}")
        object.__setattr__(self, "targets", tuple(int(t) for t in targets))
        if self.angle is not None and not isinstance(self.angle, ParamRef):
            object.__setattr__(self, "angle", _number(self.angle, "gate angle"))


@dataclass(frozen=True)
class PauliTerm:
    """One weighted product of single-qubit factors; ``paulis`` pairs each
    qubit index, once, with an axis: "X", "Y" or "Z", or a projector, "P0"
    for |0><0| or "P1" for |1><1| (a mapping of qubit to axis is accepted
    too)."""

    coeff: float
    paulis: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", _number(self.coeff, "Pauli term coefficient"))
        items = tuple(self.paulis.items() if isinstance(self.paulis, Mapping) else self.paulis)
        for q, _ in items:
            if not _is_integer(q):
                raise CircuitSpecError(f"Pauli term qubit indices must be integers, got {q!r}")
        pairs = tuple(sorted((int(q), str(a)) for q, a in items))
        object.__setattr__(self, "paulis", pairs)
        if not math.isfinite(self.coeff):
            raise CircuitSpecError("Pauli term coefficient must be finite")
        # a product of two Paulis on one qubit is not a Pauli string with a
        # real weight (XZ = -iY), so a repeated qubit is an error, not a merge
        qubits = [q for q, _ in pairs]
        if len(set(qubits)) < len(qubits):
            raise CircuitSpecError(f"Pauli term names a qubit more than once: {pairs}")
        for q, axis in pairs:
            if q < 0:
                raise CircuitSpecError(f"Pauli term qubit index {q} is negative")
            if axis not in PAULI_AXES:
                raise CircuitSpecError(
                    f"unknown Pauli axis {axis!r} (expected X, Y, Z, P0 or P1)")


@dataclass(frozen=True)
class PauliSum:
    """A real-weighted sum of Pauli strings, whose factors may include the
    projectors P0 and P1. Every factor is Hermitian and each string names a
    qubit once, so real coefficients keep the sum Hermitian."""

    terms: tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not isinstance(t, PauliTerm):
                raise CircuitSpecError("PauliSum terms must be PauliTerm instances")
        # simulator._compiled_observable's groups, per register width
        object.__setattr__(self, "_compiled", {})

    def __reduce__(self):
        # rebuild through __init__, so pickles and copies carry no compiled groups
        return PauliSum, (self.terms,)

    @classmethod
    def from_terms(cls, terms) -> "PauliSum":
        """Build from an iterable of ``(coeff, {qubit: axis})`` pairs."""
        return cls(tuple(PauliTerm(c, p) for c, p in terms))

    def max_qubit(self) -> int:
        """Largest qubit index referenced, or -1 for identity-only sums."""
        qubits = [q for t in self.terms for q, _ in t.paulis]
        return max(qubits) if qubits else -1


@dataclass(frozen=True)
class CircuitDescriptor:
    """Immutable circuit: qubit count, gate list, declared parameters, optional cost."""

    n_qubits: int
    gates: tuple[Gate, ...]
    parameters: tuple[ParameterId, ...] = ()
    cost: PauliSum | None = None

    def __post_init__(self) -> None:
        if not _is_integer(self.n_qubits) or self.n_qubits < 1:
            raise CircuitSpecError(f"n_qubits must be a positive integer, got {self.n_qubits!r}")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        _validate_descriptor(self)

    @property
    def n_params(self) -> int:
        return len(self.parameters)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @cached_property
    def program(self) -> GateProgram:
        """The compiled circuit (``compile_program``), built on first use and kept."""
        return compile_program(self)


def _validate_descriptor(desc: CircuitDescriptor) -> None:
    seen: set[str] = set()
    for pid in desc.parameters:
        if not isinstance(pid, ParameterId):
            raise CircuitSpecError("parameters must be ParameterId instances")
        if not pid.name or not isinstance(pid.name, str):
            raise CircuitSpecError("parameter names must be non-empty strings")
        if pid.name in seen:
            raise CircuitSpecError(f"duplicate parameter name {pid.name!r}")
        seen.add(pid.name)

    referenced: set[str] = set()
    for i, g in enumerate(desc.gates):
        if g.kind not in GATE_KINDS:
            raise CircuitSpecError(f"gate {i}: unknown gate kind {g.kind!r}")
        arity = 2 if g.kind in ("CX", "CZ") else 1
        if len(g.targets) != arity:
            raise CircuitSpecError(
                f"gate {i}: {g.kind} expects {arity} target(s), got {len(g.targets)}"
            )
        if arity == 2 and g.targets[0] == g.targets[1]:
            raise CircuitSpecError(f"gate {i}: {g.kind} targets must be distinct, got {g.targets}")
        for t in g.targets:
            if not 0 <= t < desc.n_qubits:
                raise CircuitSpecError(
                    f"gate {i}: gate target {t} out of range for {desc.n_qubits} qubit(s)"
                )
        if g.kind in ROTATION_KINDS:
            if g.angle is None:
                raise CircuitSpecError(f"gate {i}: {g.kind} gate needs an angle")
            if isinstance(g.angle, ParamRef):
                if g.angle.name not in seen:
                    raise CircuitSpecError(f"gate {i}: undeclared parameter {g.angle.name!r}")
                if not math.isfinite(g.angle.prefactor) or g.angle.prefactor == 0.0:
                    raise CircuitSpecError(f"gate {i}: prefactor for parameter "
                                           f"{g.angle.name!r} must be finite and nonzero")
                referenced.add(g.angle.name)
            elif not math.isfinite(g.angle):
                raise CircuitSpecError(f"gate {i}: literal angles must be finite")
        elif g.angle is not None:
            raise CircuitSpecError(f"gate {i}: {g.kind} gate takes no angle")

    unused = seen - referenced
    if unused:
        raise CircuitSpecError(f"declared but unreferenced parameter(s): {sorted(unused)}")

    if desc.cost is not None:
        if not isinstance(desc.cost, PauliSum):
            raise CircuitSpecError("cost must be a PauliSum")
        for i, t in enumerate(desc.cost.terms):
            if t.paulis and t.paulis[-1][0] >= desc.n_qubits:  # pairs sort by qubit
                raise CircuitSpecError(f"cost term {i}: cost references qubit "
                                       f"{t.paulis[-1][0]}, circuit has {desc.n_qubits}")


def make_circuit(n_qubits, gates, parameter_names=(), cost=None) -> CircuitDescriptor:
    """Convenience constructor turning an ordered name list into ParameterIds."""
    params = tuple(ParameterId(name) for name in parameter_names)
    return CircuitDescriptor(n_qubits, tuple(gates), params, cost)


_SQ2 = 1.0 / math.sqrt(2.0)


def _fixed(rows) -> np.ndarray:
    """A read-only (2, 2, 1) matrix: one trailing batch entry that broadcasts."""
    matrix = np.array(rows, dtype=complex)[..., None]
    matrix.flags.writeable = False
    return matrix


_FIXED_MATRICES = {
    "H": _fixed([[_SQ2, _SQ2], [_SQ2, -_SQ2]]),
    "X": _fixed([[0, 1], [1, 0]]),
    "Y": _fixed([[0, -1j], [1j, 0]]),
    "Z": _fixed([[1, 0], [0, -1]]),
}
# gates that map every basis state to one basis state times a phase
_MONOMIAL_KINDS = ("X", "Z", "RZ", "CX", "CZ")


def rotation_matrices(kinds: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The (2, 2, columns, B) matrices of a (B, columns) angle batch.

    Column c holds a rotation of kind ``kinds[c]`` (RX, RY or RZ). All
    columns are formed by the same few array operations, whatever their
    number.
    """
    half = angles.T / 2.0
    s = np.sin(half)
    c = np.cos(half, out=half)
    m = np.zeros((2, 2) + half.shape, dtype=complex)
    m.real[0, 0] = m.real[1, 1] = c
    rx, ry, rz = ((kinds == kind)[:, None] for kind in ROTATION_KINDS)
    np.copyto(m.real[1, 0], s, where=ry)
    np.copyto(m.imag[1, 1], s, where=rz)
    np.negative(s, out=s)
    np.copyto(m.imag[0, 1], s, where=rx)
    np.copyto(m.imag[1, 0], s, where=rx)
    np.copyto(m.real[0, 1], s, where=ry)
    np.copyto(m.imag[0, 0], s, where=rz)
    return m


def matrix_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2 x 2 matrices, shape (2, 2, B) or (2, 2, 1).

    Each entry is formed elementwise in a fixed order, so one matrix's
    result does not depend on how many others share its stack.
    """
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


@dataclass(frozen=True)
class Monomial:
    """A run of X, Z, RZ, CX and CZ gates as one map of basis states.

    The run sends the amplitude at source index ``src(y)`` to output index
    y, times a sign and a phase. ``src`` is affine over GF(2): it is
    ``constant`` XOR ``columns[j]`` for every set bit j of y (bit j has
    value 2**j), and ``columns`` is None when ``src`` is the identity.

    Signs and phases are read from affine parities of y: row i of the
    (M, n) bool ``masks`` marks the bits of y whose XOR, with ``flips[i]``,
    is parity i. The first ``2 * signs`` parities come in pairs, and each
    pair contributes -1 where both are 1 (a Z, or a CZ). Each further
    parity b_c belongs to the angle column ``angles[c]`` of an RZ and adds
    theta_c * (b_c - 1/2) to the phase exponent.
    """

    columns: tuple[int, ...] | None
    constant: int
    masks: np.ndarray
    flips: np.ndarray
    signs: int
    angles: np.ndarray


@dataclass(frozen=True)
class GateProgram:
    """A circuit compiled once for simulating many parameter vectors.

    Column c of the angle matrix built by ``angles`` belongs to the c-th
    rotation gate of the circuit, of kind ``kinds[c]``: it is
    ``prefactors[c] * theta[params[c]]``, or the literal angle
    ``literals[c]`` where ``params[c]`` is -1.

    ``ops`` is what the simulator applies, in order, in one of two forms.
    ``("dense", qubit, runs)`` acts on the k = len(runs) adjacent qubits
    qubit, ..., qubit + k - 1. Each run is a maximal run of single-qubit
    gates on one of them, fused into one 2 x 2 operation and applied where
    the next two-qubit gate on that qubit needs it or at the end; gates on
    other qubits commute with it. A run lists the matrices to multiply, in
    the order applied: constant (2, 2, 1) arrays, or the int index i of the
    rotation matrix of angle column ``dense_columns[i]``
    (``rotation_matrices``). ``("mono", Monomial)`` is a maximal stretch of
    CX, CZ and of runs whose every gate is X, Z or RZ. Before such a
    stretch, the dense runs pending on the qubits of its CX and CZ are
    applied. The runs between two mono ops act on distinct qubits and
    commute; they are cut into blocks of at most three adjacent qubits,
    which the simulator applies as one 2**k x 2**k Kronecker matrix each.
    A layer of rotations and its entangling gates on n qubits compile to
    ceil(n / 3) dense ops and one mono op. Only the ``dense_columns`` are
    read as matrices; a mono op reads its RZ angles alone.

    The first ``opening`` ops, in ascending qubit order, are the opening of
    the circuit: every qubit's first run, when no two-qubit gate on the qubit
    comes before it, hoisted to the front as a one-qubit "dense" op, whatever
    its gates (a lone X is the X matrix). No op before it touches its qubit, so
    it commutes with them all, and it acts on |0> of its qubit: the
    simulator writes the opening as a product state, not as passes over
    the state.
    """

    n_qubits: int
    n_params: int
    ops: tuple[tuple, ...]
    opening: int
    params: np.ndarray
    prefactors: np.ndarray
    literals: np.ndarray
    kinds: np.ndarray
    dense_columns: np.ndarray

    def angles(self, thetas) -> np.ndarray:
        """The (B, columns) rotation angles for a (B, n_params) parameter batch.

        A finite parameter times a prefactor above 1 can overflow; its angle
        is then inf, silently. ``simulate_batch`` rejects such an angle,
        training ends in DivergenceError and ``bind`` in CircuitSpecError.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.n_params:
            raise ValueError(
                f"theta has shape {thetas.shape}, circuit declares "
                f"{self.n_params} parameter(s) per row"
            )
        if thetas.size and not np.all(np.isfinite(thetas)):
            raise ValueError("theta must be finite")
        angles = np.repeat(self.literals[None], thetas.shape[0], axis=0)
        symbolic = self.params >= 0
        with np.errstate(over="ignore"):
            angles[:, symbolic] = thetas[:, self.params[symbolic]] * self.prefactors[symbolic]
        return angles


def _is_monomial(run) -> bool:
    """Whether every gate of a run of ``(kind, factor)`` gates is X, Z, RZ,
    CX or CZ: then the run maps each basis state to one basis state times
    a phase."""
    return all(kind in _MONOMIAL_KINDS for kind, _ in run)


_BLOCK_QUBITS = 3  # the widest "dense" op after the opening


def _factors(run, matrix: dict) -> tuple:
    """The factors of a run of ``(kind, factor)`` single-qubit gates, in
    order: each stretch of constant matrices is multiplied into one, and a
    rotation's angle column c becomes its matrix's index ``matrix[c]``."""
    factors: list = []
    for constant, group in groupby([f for _, f in run], lambda f: isinstance(f, np.ndarray)):
        factors += [reduce(lambda m, f: matrix_product(f, m), group)] if constant else \
            [matrix[c] for c in group]
    return tuple(factors)


def _blocks(steps, matrix: dict) -> list:
    """The "dense" ops of single-qubit runs on distinct qubits, which
    commute: ascending qubits, each stretch of adjacent ones cut into blocks
    of at most _BLOCK_QUBITS."""
    ops: list = []
    for (qubit,), run in sorted(steps):
        last = ops[-1] if ops else None
        if last and last[1] + len(last[2]) == qubit and len(last[2]) < _BLOCK_QUBITS:
            ops[-1] = ("dense", last[1], last[2] + (_factors(run, matrix),))
        else:
            ops.append(("dense", qubit, (_factors(run, matrix),)))
    return ops


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False  # a descriptor's program is shared by every caller
    return array


def _monomial(n: int, steps) -> Monomial | None:
    """The Monomial of consecutive ``(targets, run)`` steps whose gates are
    all monomial; None if it does nothing.

    The gates are walked backwards from the output index y. Qubit q's bit
    before the current gate is parity(y & mask[q]) ^ flip[q]; qubit q is
    bit n - 1 - q of an index.
    """
    mask = [1 << (n - 1 - q) for q in range(n)]
    flip = [0] * n
    signs, phases = [], []  # collected backwards
    for targets, run in reversed(steps):
        a = targets[0]
        for kind, factor in reversed(run):
            if kind == "X":
                flip[a] ^= 1
            elif kind == "CX":  # the target's bit was target ^ control
                mask[targets[1]] ^= mask[a]
                flip[targets[1]] ^= flip[a]
            elif kind == "RZ":
                phases.append((factor, (mask[a], flip[a])))
            elif kind == "Z":  # -1 where the bit is 1: paired with a constant 1
                signs.append([(mask[a], flip[a]), (0, 1)])
            else:  # CZ: -1 where both bits are 1
                signs.append([(mask[q], flip[q]) for q in targets])
    identity = not any(flip) and mask == [1 << (n - 1 - q) for q in range(n)]
    if identity and not signs and not phases:
        return None
    parities = [p for pair in signs[::-1] for p in pair] + [p for _, p in phases[::-1]]
    # Python ints: a circuit too wide to simulate still compiles. columns is
    # mask's bit transpose, built from its set bits, in near-linear time
    columns = [0] * n
    for q, m in enumerate(mask):
        while m:
            columns[(m & -m).bit_length() - 1] |= 1 << (n - 1 - q)
            m &= m - 1
    masks = np.array([[(m >> j) & 1 for j in range(n)] for m, _ in parities], dtype=bool)
    return Monomial(None if identity else tuple(columns),
                    sum(f << (n - 1 - q) for q, f in enumerate(flip)),
                    _read_only(masks.reshape(-1, n)),
                    _read_only(np.array([f for _, f in parities], dtype=bool)),
                    len(signs), _read_only(np.array([c for c, _ in phases[::-1]], dtype=int)))


def compile_program(circuit: CircuitDescriptor) -> GateProgram:
    """Resolve every gate's angle to a parameter column or a literal, and fuse.

    A bound circuit (``bind``) compiles to literal angles only and takes no
    parameters. Fixed gates become constant matrices here; every rotation,
    literal or not, is left to be formed per row from its angle column, so
    a bound circuit runs the arithmetic of the batched row it was bound from.
    The circuit is first cut into steps: every maximal run of single-qubit
    gates on one qubit, and every CX and CZ. Every qubit's first step that
    is a single-qubit run then moves to the front as a one-qubit "dense" op,
    in ascending qubit order (``GateProgram.opening``); after it, each stretch
    of steps whose gates are all X, Z, RZ, CX or CZ becomes one "mono" op, and
    the other runs between two of them become "dense" ops over blocks of at
    most three adjacent qubits, in ascending qubit order.
    """
    index = {p.name: i for i, p in enumerate(circuit.parameters)}
    steps, params, prefactors, literals, kinds = [], [], [], [], []
    runs: dict[int, list] = {}

    def flush(qubit: int) -> None:
        if qubit in runs:
            steps.append(((qubit,), runs.pop(qubit)))

    for monomial, block in groupby(circuit.gates, lambda g: g.kind in _MONOMIAL_KINDS):
        block = tuple(block)
        if monomial:  # flush now the dense runs its CX and CZ would flush into it
            for q in (q for g in block if len(g.targets) == 2 for q in g.targets):
                if q in runs and not _is_monomial(runs[q]):
                    flush(q)
        for g in block:
            if len(g.targets) == 2:
                for q in g.targets:
                    flush(q)
                steps.append((g.targets, ((g.kind, None),)))
                continue
            factor = _FIXED_MATRICES.get(g.kind)
            if g.angle is not None:
                factor = len(params)
                kinds.append(g.kind)
                named = isinstance(g.angle, ParamRef)
                params.append(index[g.angle.name] if named else -1)
                prefactors.append(g.angle.prefactor if named else 0.0)
                literals.append(0.0 if named else g.angle)
            runs.setdefault(g.targets[0], []).append((g.kind, factor))
    for qubit in list(runs):
        flush(qubit)
    opening, rest, touched = [], [], set()
    for targets, run in steps:
        single = len(targets) == 1 and targets[0] not in touched
        (opening if single else rest).append((targets, run))
        touched.update(targets)
    stretches = [(monomial, tuple(group))
                 for monomial, group in groupby(rest, lambda step: _is_monomial(step[1]))]
    dense = opening + [step for monomial, group in stretches if not monomial for step in group]
    read = sorted(f for _, run in dense for _, f in run if isinstance(f, int))
    matrix = {c: i for i, c in enumerate(read)}
    program = [("dense", qubit, (_factors(run, matrix),)) for (qubit,), run in sorted(opening)]
    for monomial, group in stretches:
        if not monomial:
            program += _blocks(group, matrix)
        elif (mono := _monomial(circuit.n_qubits, group)) is not None:
            program.append(("mono", mono))
    columns = (np.array(params, dtype=int), np.array(prefactors, dtype=float),
               np.array(literals, dtype=float), np.array(kinds, dtype=str),
               np.array(read, dtype=int))
    return GateProgram(circuit.n_qubits, len(index), tuple(program), len(opening),
                       *map(_read_only, columns))


def bind(circuit: CircuitDescriptor, theta) -> CircuitDescriptor:
    """The circuit's qubits and gates with theta substituted: every angle a
    float, no parameters, no cost. It is validated like any descriptor; a
    parameter times its prefactor that overflows to inf is a CircuitSpecError
    naming the parameter.
    """
    columns = iter(circuit.program.angles(np.asarray(theta, dtype=float).reshape(1, -1))[0])
    bound = tuple(Gate(g.kind, g.targets, None if g.angle is None else next(columns))
                  for g in circuit.gates)
    for g, b in zip(circuit.gates, bound):
        if b.angle is not None and not math.isfinite(b.angle):  # literals and theta are finite
            raise CircuitSpecError(
                f"a rotation angle overflowed to inf: parameter {g.angle.name!r} times "
                f"its prefactor {g.angle.prefactor} exceeds the float range")
    return CircuitDescriptor(circuit.n_qubits, bound)


# ---------------------------------------------------------------------------
# wire format


def _record(value, what: str, required: tuple, optional: tuple = ()) -> dict:
    """value, if it is a JSON object with every required field and no field outside
    required and optional; else a CircuitSpecError naming what and the field."""
    if not isinstance(value, dict):
        raise CircuitSpecError(f"{what} must be a JSON object")
    if unknown := sorted(set(value) - set(required) - set(optional)):
        raise CircuitSpecError(f"{what} has unknown field(s): {unknown}")
    for field in required:
        if field not in value:
            raise CircuitSpecError(f"{what} is missing {field}")
    return value


def parse_circuit_spec(text: str) -> CircuitDescriptor:
    """Parse a JSON circuit-spec document.

    The document carries ``n_qubits``, an ordered ``parameters`` name list,
    ``gates`` records ``{kind, targets, angle?}`` where ``angle`` is a number
    or ``{param, prefactor?}``, and an optional ``cost`` list of
    ``{coeff, paulis}`` terms. Syntax errors report line and column. Only the
    JSON shape is checked here; the descriptor types check what it means.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CircuitSpecError(
            f"syntax error in circuit spec: {e.msg} (line {e.lineno}, column {e.colno})"
        ) from None
    except ValueError:  # an integer literal beyond Python's int() digit limit
        raise CircuitSpecError("circuit spec holds an integer too large to decode") from None
    except RecursionError:
        raise CircuitSpecError("circuit spec nests too deeply to decode") from None

    doc = _record(doc, "circuit spec", ("n_qubits", "gates"), ("parameters", "cost"))
    names = doc.get("parameters", [])
    if not isinstance(names, list):
        raise CircuitSpecError("parameters must be a list of names")
    if not isinstance(doc["gates"], list):
        raise CircuitSpecError("gates must be a list")
    gates = []
    for i, rec in enumerate(doc["gates"]):
        rec = _record(rec, f"gate {i}", ("kind", "targets"), ("angle",))
        if not isinstance(rec["targets"], list):
            raise CircuitSpecError(f"gate {i} targets must be a list")
        angle = rec.get("angle")
        if isinstance(angle, dict):
            angle = _record(angle, f"gate {i} angle", ("param",), ("prefactor",))
            if not isinstance(angle["param"], str):  # a list would fail a set lookup
                raise CircuitSpecError(f"gate {i} angle needs a param name")
        try:
            if isinstance(angle, dict):
                angle = ParamRef(angle["param"], angle.get("prefactor", 1))
            gates.append(Gate(str(rec["kind"]), tuple(rec["targets"]), angle))
        except CircuitSpecError as e:
            raise CircuitSpecError(f"gate {i}: {e}") from None

    cost = None
    if doc.get("cost") is not None:
        if not isinstance(doc["cost"], list):
            raise CircuitSpecError("cost must be a list of terms")
        terms = []
        for i, rec in enumerate(doc["cost"]):
            rec = _record(rec, f"cost term {i}", ("coeff", "paulis"))
            if not isinstance(rec["paulis"], dict):
                raise CircuitSpecError(f"cost term {i} paulis must be an object")
            pairs = {}
            for key, axis in rec["paulis"].items():
                # ASCII digits alone: int() also reads "1_0", " 1", "+1" and non-ASCII digits
                try:
                    if not (key.isascii() and key.isdigit()):
                        raise ValueError(key)
                    q = int(key)
                except ValueError:
                    raise CircuitSpecError(
                        f"cost term {i} pauli key {key!r} is not a qubit index"
                    ) from None
                if q in pairs:
                    raise CircuitSpecError(f"cost term {i} names qubit {q} more than once")
                pairs[q] = axis
            try:
                terms.append(PauliTerm(rec["coeff"], pairs))
            except CircuitSpecError as e:
                raise CircuitSpecError(f"cost term {i}: {e}") from None
        cost = PauliSum(tuple(terms))

    return make_circuit(doc["n_qubits"], gates, names, cost)


def serialize_circuit_spec(circuit: CircuitDescriptor) -> str:
    """Inverse of parse_circuit_spec; round-trips to an equal descriptor."""
    gates = []
    for g in circuit.gates:
        rec: dict = {"kind": g.kind, "targets": list(g.targets)}
        if isinstance(g.angle, ParamRef):
            if g.angle.prefactor == 1.0:
                rec["angle"] = {"param": g.angle.name}
            else:
                rec["angle"] = {"param": g.angle.name, "prefactor": g.angle.prefactor}
        elif g.angle is not None:
            rec["angle"] = g.angle
        gates.append(rec)
    doc: dict = {
        "n_qubits": circuit.n_qubits,
        "parameters": list(circuit.parameter_names),
        "gates": gates,
    }
    if circuit.cost is not None:
        doc["cost"] = [
            {"coeff": t.coeff, "paulis": {str(q): a for q, a in t.paulis}}
            for t in circuit.cost.terms
        ]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# builders


def qaoa_builder(edges, p: int, n_nodes: int | None = None) -> CircuitDescriptor:
    """Build a MaxCut QAOA circuit for an edge list.

    Layer i applies exp(-i gamma_i/2 Z Z) per edge (compiled as CX, RZ on the
    edge's second node, CX) and then RX(2 beta_i) on every qubit, after an
    initial Hadamard layer. The attached cost is sum over edges of
    (1/2) Z_u Z_v, so minimizing it maximizes the cut.

    Parameters are interleaved as [gamma0, beta0, gamma1, beta1, ...], which
    puts gamma_i at index 2i and beta_i at 2i + 1.
    """
    edges = list(edges)
    if not edges:
        raise ValueError("QAOA needs at least one edge")
    _check_count(p, "QAOA layer count p")
    _check_edges(edges, n_nodes)
    if n_nodes is None:
        n_nodes = max(max(u, v) for u, v in edges) + 1

    names = []
    for i in range(p):
        names += [f"gamma{i}", f"beta{i}"]

    gates = [Gate("H", (q,)) for q in range(n_nodes)]
    for i in range(p):
        gamma, beta = names[2 * i], names[2 * i + 1]
        for u, v in edges:
            gates.append(Gate("CX", (u, v)))
            gates.append(Gate("RZ", (v,), ParamRef(gamma)))
            gates.append(Gate("CX", (u, v)))
        for q in range(n_nodes):
            gates.append(Gate("RX", (q,), ParamRef(beta, 2.0)))

    cost = PauliSum.from_terms([(0.5, {u: "Z", v: "Z"}) for u, v in edges])
    return make_circuit(n_nodes, gates, names, cost)
