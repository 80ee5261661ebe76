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
from functools import cached_property

import numpy as np

GATE_KINDS = ("H", "X", "Y", "Z", "RX", "RY", "RZ", "CX", "CZ")
ROTATION_KINDS = ("RX", "RY", "RZ")
PAULI_AXES = ("X", "Y", "Z")


class CircuitSpecError(ValueError):
    """A circuit-spec document failed to parse or validate."""


@dataclass(frozen=True)
class ParameterId:
    """A named circuit parameter and its position in the parameter vector."""

    name: str
    index: int


@dataclass(frozen=True)
class ParamRef:
    """A symbolic angle: ``prefactor * theta[name]``."""

    name: str
    prefactor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefactor", float(self.prefactor))


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    angle: float | ParamRef | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.angle is not None and not isinstance(self.angle, ParamRef):
            object.__setattr__(self, "angle", float(self.angle))


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string; ``paulis`` pairs each qubit index, once, with an
    axis letter (a mapping of qubit to letter is accepted too)."""

    coeff: float
    paulis: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", float(self.coeff))
        items = self.paulis.items() if isinstance(self.paulis, Mapping) else self.paulis
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
                raise CircuitSpecError(f"unknown Pauli axis {axis!r} (expected X, Y or Z)")


@dataclass(frozen=True)
class PauliSum:
    """A real-weighted sum of Pauli strings. Real coefficients keep it Hermitian."""

    terms: tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not isinstance(t, PauliTerm):
                raise CircuitSpecError("PauliSum terms must be PauliTerm instances")
        # hashed once: the compiled-observable cache hashes its key per call
        object.__setattr__(self, "_hash", hash(self.terms))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__, so the hash is taken in the new process
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


# a bound circuit is a descriptor with literal angles only and no parameters
BoundCircuit = CircuitDescriptor


def _validate_descriptor(desc: CircuitDescriptor) -> None:
    if not isinstance(desc.n_qubits, int) or desc.n_qubits < 1:
        raise CircuitSpecError(f"n_qubits must be a positive integer, got {desc.n_qubits!r}")

    seen: set[str] = set()
    for pos, pid in enumerate(desc.parameters):
        if not isinstance(pid, ParameterId):
            raise CircuitSpecError("parameters must be ParameterId instances")
        if not pid.name or not isinstance(pid.name, str):
            raise CircuitSpecError("parameter names must be non-empty strings")
        if pid.name in seen:
            raise CircuitSpecError(f"duplicate parameter name {pid.name!r}")
        if pid.index != pos:
            raise CircuitSpecError(
                f"parameter {pid.name!r} has index {pid.index}, expected {pos}"
            )
        seen.add(pid.name)

    referenced: set[str] = set()
    for g in desc.gates:
        if g.kind not in GATE_KINDS:
            raise CircuitSpecError(f"unknown gate kind {g.kind!r}")
        arity = 2 if g.kind in ("CX", "CZ") else 1
        if len(g.targets) != arity:
            raise CircuitSpecError(
                f"{g.kind} expects {arity} target(s), got {len(g.targets)}"
            )
        if arity == 2 and g.targets[0] == g.targets[1]:
            raise CircuitSpecError(f"{g.kind} targets must be distinct, got {g.targets}")
        for t in g.targets:
            if not 0 <= t < desc.n_qubits:
                raise CircuitSpecError(
                    f"gate target {t} out of range for {desc.n_qubits} qubit(s)"
                )
        if g.kind in ROTATION_KINDS:
            if g.angle is None:
                raise CircuitSpecError(f"{g.kind} gate needs an angle")
            if isinstance(g.angle, ParamRef):
                if g.angle.name not in seen:
                    raise CircuitSpecError(f"undeclared parameter {g.angle.name!r}")
                if not math.isfinite(g.angle.prefactor) or g.angle.prefactor == 0.0:
                    raise CircuitSpecError(
                        f"prefactor for parameter {g.angle.name!r} must be finite and nonzero"
                    )
                referenced.add(g.angle.name)
            elif not math.isfinite(g.angle):
                raise CircuitSpecError("literal angles must be finite")
        elif g.angle is not None:
            raise CircuitSpecError(f"{g.kind} gate takes no angle")

    unused = seen - referenced
    if unused:
        raise CircuitSpecError(f"declared but unreferenced parameter(s): {sorted(unused)}")

    if desc.cost is not None:
        if not isinstance(desc.cost, PauliSum):
            raise CircuitSpecError("cost must be a PauliSum")
        if desc.cost.max_qubit() >= desc.n_qubits:
            raise CircuitSpecError(
                f"cost references qubit {desc.cost.max_qubit()}, "
                f"circuit has {desc.n_qubits}"
            )


def make_circuit(n_qubits, gates, parameter_names=(), cost=None) -> CircuitDescriptor:
    """Convenience constructor turning an ordered name list into ParameterIds."""
    params = tuple(ParameterId(name, i) for i, name in enumerate(parameter_names))
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
_DIAGONAL_KINDS = ("Z", "RZ")


def rotation_matrices(kinds: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The (2, 2, columns, B) matrices of a (B, columns) angle batch.

    Column c holds a rotation of kind ``kinds[c]`` (RX, RY or RZ). All
    columns are formed by the same few array operations, whatever their
    number.
    """
    half = angles.T / 2.0
    c, s = np.cos(half), np.sin(half)
    m = np.zeros((2, 2) + half.shape, dtype=complex)
    m.real[0, 0] = m.real[1, 1] = c
    rx, ry, rz = (kinds == kind for kind in ROTATION_KINDS)
    m.imag[0, 1, rx] = m.imag[1, 0, rx] = -s[rx]
    m.real[0, 1, ry] = -s[ry]
    m.real[1, 0, ry] = s[ry]
    m.imag[0, 0, rz] = -s[rz]
    m.imag[1, 1, rz] = s[rz]
    return m


def matrix_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2 x 2 matrices, shape (2, 2, B) or (2, 2, 1).

    Each entry is formed elementwise in a fixed order, so one matrix's
    result does not depend on how many others share its stack.
    """
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


@dataclass(frozen=True)
class GateProgram:
    """A circuit compiled once for simulating many parameter vectors.

    Column c of the angle matrix built by ``angles`` belongs to the c-th
    rotation gate of the circuit, of kind ``kinds[c]``: it is
    ``prefactors[c] * theta[params[c]]``, or the literal angle
    ``literals[c]`` where ``params[c]`` is -1.

    ``ops`` is what the simulator applies, one ``(form, lo, hi, factors)``
    entry per operation. ``lo`` and ``hi`` fix ``(qubit, bit)`` pairs and
    select the two amplitude slices the operation mixes; ``form`` is
    "perm" (swap them), "diag" (scale them; ``lo`` is None when its factor
    is exactly 1) or "dense" (a 2 x 2 matrix). ``factors`` lists the
    matrices to multiply, in the order applied: constant (2, 2, 1) arrays,
    or the int column of a rotation (``rotation_matrices``). Every maximal
    run of single-qubit gates on one qubit is fused into one operation,
    applied where the next two-qubit gate on that qubit needs it or at the
    end; gates on other qubits commute with it.
    """

    n_qubits: int
    n_params: int
    ops: tuple[tuple[str, tuple | None, tuple, tuple], ...]
    params: np.ndarray
    prefactors: np.ndarray
    literals: np.ndarray
    kinds: np.ndarray

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


def _fused_op(qubit: int, run: list) -> tuple:
    """One op for a run of ``(kind, factor)`` single-qubit gates, in order."""
    lo, hi = ((qubit, 0),), ((qubit, 1),)
    if len(run) == 1 and run[0][0] == "X":
        return ("perm", lo, hi, ())
    factors: list = []
    diagonal = True
    for kind, factor in run:
        diagonal = diagonal and kind in _DIAGONAL_KINDS
        if factors and isinstance(factor, np.ndarray) and isinstance(factors[-1], np.ndarray):
            factors[-1] = matrix_product(factor, factors[-1])
        else:
            factors.append(factor)
    if not diagonal:
        return ("dense", lo, hi, tuple(factors))
    if len(factors) == 1 and isinstance(factors[0], np.ndarray) and factors[0][0, 0, 0] == 1:
        lo = None
    return ("diag", lo, hi, tuple(factors))


def compile_program(circuit: CircuitDescriptor) -> GateProgram:
    """Resolve every gate's angle to a parameter column or a literal, and fuse.

    A bound circuit (``bind``) compiles to literal angles only and takes no
    parameters. Fixed gates become constant matrices here; every rotation,
    literal or not, is left to be formed per row from its angle column, so
    a bound circuit runs the arithmetic of the batched row it was bound from.
    """
    index = {p.name: p.index for p in circuit.parameters}
    ops, params, prefactors, literals, kinds = [], [], [], [], []
    runs: dict[int, list] = {}

    def flush(qubit: int) -> None:
        if qubit in runs:
            ops.append(_fused_op(qubit, runs.pop(qubit)))

    for g in circuit.gates:
        if len(g.targets) == 2:
            a, b = g.targets
            flush(a)
            flush(b)
            if g.kind == "CX":
                ops.append(("perm", ((a, 1), (b, 0)), ((a, 1), (b, 1)), ()))
            else:  # CZ
                ops.append(("diag", None, ((a, 1), (b, 1)), (_FIXED_MATRICES["Z"],)))
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
    columns = (np.array(params, dtype=int), np.array(prefactors, dtype=float),
               np.array(literals, dtype=float), np.array(kinds, dtype=str))
    for array in columns:  # a descriptor's program is shared by every caller
        array.flags.writeable = False
    return GateProgram(circuit.n_qubits, len(index), tuple(ops), *columns)


def bind(circuit: CircuitDescriptor, theta) -> CircuitDescriptor:
    """The circuit's qubits and gates with theta substituted: every angle a
    float, no parameters, no cost. It is validated like any descriptor, so
    an angle that overflows to inf is a CircuitSpecError.
    """
    columns = iter(circuit.program.angles(np.asarray(theta, dtype=float).reshape(1, -1))[0])
    bound = tuple(
        Gate(g.kind, g.targets, None if g.angle is None else next(columns))
        for g in circuit.gates
    )
    return CircuitDescriptor(circuit.n_qubits, bound)


# ---------------------------------------------------------------------------
# wire format


def _as_float(number, what: str) -> float:
    """float() of a JSON number; integers beyond the float range are rejected."""
    try:
        return float(number)
    except OverflowError:
        raise CircuitSpecError(f"{what} is too large for a float") from None


def parse_circuit_spec(text: str) -> CircuitDescriptor:
    """Parse a JSON circuit-spec document.

    The document carries ``n_qubits``, an ordered ``parameters`` name list,
    ``gates`` records ``{kind, targets, angle?}`` where ``angle`` is a number
    or ``{param, prefactor?}``, and an optional ``cost`` list of
    ``{coeff, paulis}`` terms. Syntax errors report line and column.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CircuitSpecError(
            f"syntax error in circuit spec: {e.msg} (line {e.lineno}, column {e.colno})"
        ) from None
    except RecursionError:
        raise CircuitSpecError("circuit spec nests too deeply to decode") from None

    if not isinstance(doc, dict):
        raise CircuitSpecError("circuit spec must be a JSON object at top level")
    allowed = {"n_qubits", "parameters", "gates", "cost"}
    extra = set(doc) - allowed
    if extra:
        raise CircuitSpecError(f"unknown top-level field(s): {sorted(extra)}")
    if "n_qubits" not in doc:
        raise CircuitSpecError("circuit spec is missing n_qubits")
    if "gates" not in doc:
        raise CircuitSpecError("circuit spec is missing gates")

    n_qubits = doc["n_qubits"]
    if isinstance(n_qubits, bool) or not isinstance(n_qubits, int):
        raise CircuitSpecError("n_qubits must be an integer")

    names = doc.get("parameters", [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise CircuitSpecError("parameters must be a list of names")

    raw_gates = doc["gates"]
    if not isinstance(raw_gates, list):
        raise CircuitSpecError("gates must be a list")
    gates = []
    for i, rec in enumerate(raw_gates):
        if not isinstance(rec, dict):
            raise CircuitSpecError(f"gate {i} is not an object")
        extra = set(rec) - {"kind", "targets", "angle"}
        if extra:
            raise CircuitSpecError(f"gate {i} has unknown field(s): {sorted(extra)}")
        if "kind" not in rec or "targets" not in rec:
            raise CircuitSpecError(f"gate {i} needs kind and targets")
        kind = rec["kind"]
        targets = rec["targets"]
        if not isinstance(targets, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in targets
        ):
            raise CircuitSpecError(f"gate {i} targets must be a list of integers")
        angle = rec.get("angle")
        if isinstance(angle, dict):
            extra = set(angle) - {"param", "prefactor"}
            if extra:
                raise CircuitSpecError(f"gate {i} angle has unknown field(s): {sorted(extra)}")
            if "param" not in angle or not isinstance(angle["param"], str):
                raise CircuitSpecError(f"gate {i} angle needs a param name")
            pref = angle.get("prefactor", 1.0)
            if isinstance(pref, bool) or not isinstance(pref, (int, float)):
                raise CircuitSpecError(f"gate {i} prefactor must be a number")
            angle = ParamRef(angle["param"], _as_float(pref, f"gate {i} prefactor"))
        elif angle is not None:
            if isinstance(angle, bool) or not isinstance(angle, (int, float)):
                raise CircuitSpecError(f"gate {i} angle must be a number or a param record")
            angle = _as_float(angle, f"gate {i} angle")
        gates.append(Gate(str(kind), tuple(targets), angle))

    cost = None
    if doc.get("cost") is not None:
        raw_cost = doc["cost"]
        if not isinstance(raw_cost, list):
            raise CircuitSpecError("cost must be a list of terms")
        terms = []
        for i, rec in enumerate(raw_cost):
            if not isinstance(rec, dict) or set(rec) != {"coeff", "paulis"}:
                raise CircuitSpecError(f"cost term {i} needs exactly coeff and paulis")
            coeff = rec["coeff"]
            if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
                raise CircuitSpecError(f"cost term {i} coeff must be a number")
            paulis = rec["paulis"]
            if not isinstance(paulis, dict):
                raise CircuitSpecError(f"cost term {i} paulis must be an object")
            pairs = {}
            for key, axis in paulis.items():
                try:
                    q = int(key)
                except ValueError:
                    raise CircuitSpecError(
                        f"cost term {i} pauli key {key!r} is not a qubit index"
                    ) from None
                if q in pairs:
                    raise CircuitSpecError(f"cost term {i} names qubit {q} more than once")
                pairs[q] = axis
            terms.append((_as_float(coeff, f"cost term {i} coeff"), pairs))
        cost = PauliSum.from_terms(terms)

    return make_circuit(n_qubits, gates, names, cost)


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
    edges = [(int(u), int(v)) for u, v in edges]
    if not edges:
        raise ValueError("QAOA needs at least one edge")
    if p < 1:
        raise ValueError("QAOA layer count p must be >= 1")
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
        if u < 0 or v < 0:
            raise ValueError("edge endpoints must be non-negative")
    highest = max(max(u, v) for u, v in edges)
    if n_nodes is None:
        n_nodes = highest + 1
    if n_nodes < 2:
        raise ValueError("QAOA graph needs at least 2 nodes")
    if highest >= n_nodes:
        raise ValueError(f"edge endpoint {highest} out of range for {n_nodes} nodes")

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
