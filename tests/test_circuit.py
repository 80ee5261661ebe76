import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import listed_gnm_edges, loop_mean_cut, max_cut_brute_force, random_circuit
from pqc_lens import (
    CircuitDescriptor,
    CircuitSpecError,
    Gate,
    ParamRef,
    PauliSum,
    PauliTerm,
    bind,
    make_circuit,
    parse_circuit_spec,
    qaoa_builder,
    serialize_circuit_spec,
)
from pqc_lens.library import (all_zeros_infidelity_cost, append_pairwise_cx,
                              identity_learning_ansatz, layered_ansatz, max_cut_size,
                              mean_cut_scorer, mean_excitation_cost, random_gnm_edges,
                              single_qubit_chain)


def _rx_chain(n_params=2):
    gates = [Gate("H", (0,))]
    names = [f"a{i}" for i in range(n_params)]
    gates += [Gate("RX", (0,), ParamRef(name)) for name in names]
    return make_circuit(1, gates, names)


class TestMakeCircuit:
    def test_basic_fields(self):
        c = _rx_chain()
        assert c.n_qubits == 1
        assert c.n_params == 2
        assert len(c.gates) == 3

    def test_rejects_unknown_kind(self):
        with pytest.raises(CircuitSpecError, match="kind"):
            make_circuit(1, [Gate("SWAP", (0, 0))], [])

    def test_rejects_target_out_of_range(self):
        with pytest.raises(CircuitSpecError):
            make_circuit(1, [Gate("H", (1,))], [])
        with pytest.raises(CircuitSpecError):
            make_circuit(2, [Gate("CX", (0, 2))], [])

    def test_rejects_non_integer_targets(self):
        # int() would turn these into H(0) and CX(0, 1)
        for kind, targets in (("H", (0.9,)), ("CX", (0.2, 1.7)), ("X", (True,))):
            with pytest.raises(CircuitSpecError, match="integers"):
                make_circuit(2, [Gate(kind, targets)], [])

    def test_accepts_numpy_integer_targets(self):
        gate = Gate("CX", (np.int64(1), np.uint8(0)))
        assert gate.targets == (1, 0) and type(gate.targets[0]) is int

    def test_rejects_bool_width(self):
        # bool is an int subclass, rejected here as it is for targets
        with pytest.raises(CircuitSpecError, match="n_qubits must be a positive integer"):
            make_circuit(True, [Gate("H", (0,))])

    def test_accepts_numpy_integer_width(self):
        c = layered_ansatz(np.int64(4), 1)
        assert c.n_qubits == 4 and type(c.n_qubits) is int

    def test_rejects_duplicate_two_qubit_targets(self):
        with pytest.raises(CircuitSpecError, match="distinct"):
            make_circuit(2, [Gate("CX", (1, 1))], [])

    def test_rejects_wrong_arity(self):
        with pytest.raises(CircuitSpecError):
            make_circuit(2, [Gate("H", (0, 1))], [])
        with pytest.raises(CircuitSpecError):
            make_circuit(2, [Gate("CZ", (0,))], [])

    def test_rejects_unused_parameter(self):
        with pytest.raises(CircuitSpecError, match="unreferenced"):
            make_circuit(1, [Gate("H", (0,))], ["a"])

    def test_rejects_undeclared_parameter(self):
        with pytest.raises(CircuitSpecError, match="undeclared"):
            make_circuit(1, [Gate("RX", (0,), ParamRef("ghost"))], [])

    def test_rejects_missing_angle(self):
        with pytest.raises(CircuitSpecError, match="angle"):
            make_circuit(1, [Gate("RX", (0,))], [])

    def test_rejects_angle_on_fixed_gate(self):
        with pytest.raises(CircuitSpecError, match="no angle"):
            make_circuit(1, [Gate("H", (0,), 0.3)], [])

    def test_rejects_cost_on_missing_qubit(self):
        cost = PauliSum.from_terms([(1.0, {3: "Z"})])
        with pytest.raises(CircuitSpecError):
            make_circuit(2, [Gate("H", (0,))], [], cost)

    def test_pauli_term_rejects_a_repeated_qubit(self):
        # X then Z on one qubit is -iY, not a real-weighted Pauli string
        with pytest.raises(CircuitSpecError, match="more than once"):
            PauliTerm(1.0, ((0, "X"), (0, "Z")))
        with pytest.raises(CircuitSpecError, match="more than once"):
            PauliSum.from_terms([(1.0, [(0, "X"), (0, "Z")])])

    @pytest.mark.parametrize("qubit", [True, 1.7, 1.0, "1"])
    def test_pauli_term_rejects_a_qubit_index_that_is_not_an_integer(self, qubit):
        with pytest.raises(CircuitSpecError, match="qubit indices must be integers"):
            PauliTerm(1.0, {qubit: "Z"})
        with pytest.raises(CircuitSpecError, match="qubit indices must be integers"):
            PauliSum.from_terms([(1.0, [(0, "X"), (qubit, "Z")])])

    def test_pauli_term_takes_numpy_integer_indices(self):
        assert PauliTerm(1.0, {np.int64(2): "Z", np.uint8(0): "X"}).paulis == ((0, "X"), (2, "Z"))

    @pytest.mark.parametrize("message, make", [
        ("gate angle must be a number", lambda: Gate("RX", (0,), "1.5")),
        ("gate angle must be a number", lambda: Gate("RX", (0,), True)),
        ("gate angle must be a number", lambda: Gate("RX", (0,), [1.0])),
        ("gate angle is too large for a float", lambda: Gate("RX", (0,), 10**400)),
        ("prefactor of parameter 'a' must be a number", lambda: ParamRef("a", "2")),
        ("prefactor of parameter 'a' must be a number", lambda: ParamRef("a", True)),
        ("Pauli term coefficient must be a number", lambda: PauliTerm("2", {0: "Z"})),
        ("Pauli term coefficient must be a number", lambda: PauliTerm(None, {0: "Z"})),
    ], ids=["string-angle", "bool-angle", "list-angle", "huge-angle", "string-prefactor",
            "bool-prefactor", "string-coeff", "none-coeff"])
    def test_descriptor_numbers_must_be_real(self, message, make):
        # float() would read "1.5" and True, and a list was a TypeError
        with pytest.raises(CircuitSpecError, match=re.escape(message)):
            make()

    def test_descriptor_numbers_take_numpy_reals(self):
        angle = Gate("RX", (0,), np.float32(1.5)).angle
        assert angle == 1.5 and type(angle) is float
        assert ParamRef("a", np.int64(2)) == ParamRef("a", 2.0)
        assert PauliTerm(np.float64(0.5), {0: "Z"}) == PauliTerm(0.5, {0: "Z"})

    def test_rejects_nonpositive_width(self):
        with pytest.raises(CircuitSpecError):
            make_circuit(0, [], [])


class TestBind:
    def test_literal_and_scaled_angles(self):
        c = make_circuit(
            1,
            [Gate("RX", (0,), 0.25), Gate("RZ", (0,), ParamRef("a", 2.0))],
            ["a"],
        )
        b = bind(c, [0.5])
        assert b.gates[0].angle == 0.25
        assert b.gates[1].angle == pytest.approx(1.0)

    def test_shared_parameter_binds_every_occurrence(self):
        c = _rx_chain(1)
        c = make_circuit(
            1,
            [Gate("RX", (0,), ParamRef("a")), Gate("RY", (0,), ParamRef("a", 3.0))],
            ["a"],
        )
        b = bind(c, [0.2])
        assert b.gates[0].angle == pytest.approx(0.2)
        assert b.gates[1].angle == pytest.approx(0.6)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            bind(_rx_chain(2), [0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            bind(_rx_chain(2), [0.1, math.inf])

    def test_bound_circuit_is_a_descriptor_without_parameters_or_cost(self):
        c = qaoa_builder([(0, 1), (1, 2)], p=2)
        b = bind(c, [0.1, 0.2, 0.3, 0.4])
        assert type(b) is CircuitDescriptor
        assert b.parameters == () and b.cost is None
        assert b.n_qubits == c.n_qubits
        assert [(g.kind, g.targets) for g in b.gates] == [(g.kind, g.targets) for g in c.gates]
        assert all(isinstance(g.angle, float) for g in b.gates if g.angle is not None)

    def test_angle_that_overflows_is_rejected(self):
        c = make_circuit(1, [Gate("RX", (0,), ParamRef("a", 2.0))], ["a"])
        with np.errstate(over="ignore"), pytest.raises(
                CircuitSpecError, match="overflowed to inf: parameter 'a' times its prefactor 2.0"):
            bind(c, [1e308])


class TestSpecFormat:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_serialize_parse_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, max_qubits=5, with_cost=bool(seed % 2))
        assert parse_circuit_spec(serialize_circuit_spec(c)) == c

    def test_round_trip_preserves_projector_factors(self):
        cost = PauliSum.from_terms([(1.0, {}), (-1.0, {0: "P0", 1: "P1"}),
                                    (0.5, {0: "X", 1: "P0"})])
        c = make_circuit(2, [Gate("H", (0,))], [], cost)
        text = serialize_circuit_spec(c)
        assert json.loads(text)["cost"][1]["paulis"] == {"0": "P0", "1": "P1"}
        assert parse_circuit_spec(text) == c

    def test_round_trip_preserves_qaoa(self):
        c = qaoa_builder([(0, 1), (1, 2), (0, 2)], p=2)
        assert parse_circuit_spec(serialize_circuit_spec(c)) == c

    def test_serialized_form_is_json(self):
        doc = json.loads(serialize_circuit_spec(_rx_chain()))
        assert set(doc) >= {"n_qubits", "gates"}

    def test_syntax_error_reports_line_and_column(self):
        bad = '{\n  "n_qubits": 1,\n  "gates": [}\n}'
        with pytest.raises(CircuitSpecError) as err:
            parse_circuit_spec(bad)
        assert "line 3" in str(err.value)
        assert "column" in str(err.value)

    def test_rejects_unknown_top_level_field(self):
        doc = json.loads(serialize_circuit_spec(_rx_chain()))
        doc["flavor"] = "mint"
        with pytest.raises(CircuitSpecError, match="flavor"):
            parse_circuit_spec(json.dumps(doc))

    def test_rejects_missing_required_fields(self):
        with pytest.raises(CircuitSpecError, match="n_qubits"):
            parse_circuit_spec('{"gates": []}')
        with pytest.raises(CircuitSpecError, match="gates"):
            parse_circuit_spec('{"n_qubits": 1}')

    def test_rejects_malformed_gate_record(self):
        with pytest.raises(CircuitSpecError, match="gate 0"):
            parse_circuit_spec('{"n_qubits": 1, "gates": [{"kind": "H"}]}')

    def test_rejects_bad_cost_term(self):
        doc = {
            "n_qubits": 1,
            "gates": [{"kind": "H", "targets": [0]}],
            "cost": [{"coeff": 1.0}],
        }
        with pytest.raises(CircuitSpecError, match="cost term 0"):
            parse_circuit_spec(json.dumps(doc))

    def test_rejects_cost_term_naming_a_qubit_twice(self):
        # "0" and "00" are both qubit 0
        doc = {
            "n_qubits": 1,
            "gates": [{"kind": "H", "targets": [0]}],
            "cost": [{"coeff": 1.0, "paulis": {"0": "Z", "00": "X"}}],
        }
        with pytest.raises(CircuitSpecError, match="cost term 0 names qubit 0 more than once"):
            parse_circuit_spec(json.dumps(doc))

    @pytest.mark.parametrize("key", ["1_0", "\u0661", " 1", "1 ", "+1", "-1", "", "0x1", "1.0"])
    def test_rejects_cost_keys_that_are_not_ascii_digits(self, key):
        doc = {
            "n_qubits": 11,
            "gates": [{"kind": "H", "targets": [0]}],
            "cost": [{"coeff": 1.0, "paulis": {key: "Z"}}],
        }
        message = re.escape(f"cost term 0 pauli key {key!r} is not a qubit index")
        with pytest.raises(CircuitSpecError, match=message):
            parse_circuit_spec(json.dumps(doc))

    @pytest.mark.parametrize("key, qubit", [("0", 0), ("00", 0), ("07", 7), ("10", 10)])
    def test_cost_keys_of_ascii_digits_are_qubit_indices(self, key, qubit):
        doc = {
            "n_qubits": 11,
            "gates": [{"kind": "H", "targets": [0]}],
            "cost": [{"coeff": 1.0, "paulis": {key: "Z"}}],
        }
        assert parse_circuit_spec(json.dumps(doc)).cost.terms[0].paulis == ((qubit, "Z"),)

    @pytest.mark.parametrize("text", [
        json.dumps({"n_qubits": 1, "gates": [{"kind": "RX", "targets": [0], "angle": 10**400}]}),
        json.dumps({"n_qubits": 1, "parameters": ["a"], "gates": [
            {"kind": "RX", "targets": [0], "angle": {"param": "a", "prefactor": 10**400}}]}),
        json.dumps({"n_qubits": 1, "gates": [{"kind": "H", "targets": [0]}],
                    "cost": [{"coeff": 10**400, "paulis": {"0": "Z"}}]}),
        # beyond the digit limit of int(), which json.loads raises as a ValueError
        '{"n_qubits": 1' + "0" * 4999 + ', "gates": []}',
    ], ids=["angle", "prefactor", "coeff", "5000-digit-integer"])
    def test_rejects_numbers_too_large_for_a_float(self, text):
        with pytest.raises(CircuitSpecError, match="too large"):
            parse_circuit_spec(text)

    @pytest.mark.parametrize("message, doc", [
        ("circuit spec must be a JSON object", []),
        ("circuit spec is missing gates", {"n_qubits": 1}),
        ("circuit spec has unknown field(s): ['flavor']",
         {"n_qubits": 1, "gates": [], "flavor": "mint"}),
        ("gate 0 must be a JSON object", {"n_qubits": 1, "gates": ["H"]}),
        ("gate 0 is missing targets", {"n_qubits": 1, "gates": [{"kind": "H"}]}),
        ("gate 0 has unknown field(s): ['angel']",
         {"n_qubits": 1, "gates": [{"kind": "H", "targets": [0], "angel": 1.0}]}),
        ("gate 0: gate angle must be a number",
         {"n_qubits": 1, "gates": [{"kind": "RX", "targets": [0], "angle": True}]}),
        ("gate 0 angle is missing param", {"n_qubits": 1, "parameters": ["a"], "gates": [
            {"kind": "RX", "targets": [0], "angle": {"prefactor": 2.0}}]}),
        ("gate 0: prefactor of parameter 'a' must be a number",
         {"n_qubits": 1, "parameters": ["a"], "gates": [
             {"kind": "RX", "targets": [0], "angle": {"param": "a", "prefactor": "2"}}]}),
        ("cost term 0 is missing paulis", {"n_qubits": 1, "gates": [], "cost": [{"coeff": 1}]}),
        ("cost term 0: Pauli term coefficient must be a number",
         {"n_qubits": 1, "gates": [], "cost": [{"coeff": None, "paulis": {}}]}),
        # what a value means is checked by the descriptor types it builds
        ("n_qubits must be a positive integer, got 1.5", {"n_qubits": 1.5, "gates": []}),
        ("gate targets must be integers, got 0.5",
         {"n_qubits": 1, "gates": [{"kind": "H", "targets": [0.5]}]}),
        ("parameter names must be non-empty strings",
         {"n_qubits": 1, "parameters": [7], "gates": []}),
        # and a gate's errors name its index
        ("gate 1: gate targets must be integers, got 0.5",
         {"n_qubits": 1, "gates": [{"kind": "H", "targets": [0]},
                                   {"kind": "H", "targets": [0.5]}]}),
        ("gate 0: unknown gate kind 'SWAP'",
         {"n_qubits": 2, "gates": [{"kind": "SWAP", "targets": [0, 1]}]}),
        ("gate 1: gate target 5 out of range for 2 qubit(s)",
         {"n_qubits": 2, "gates": [{"kind": "H", "targets": [0]}, {"kind": "H", "targets": [5]}]}),
        ("gate 2: CX targets must be distinct",
         {"n_qubits": 2, "gates": [{"kind": "H", "targets": [0]}, {"kind": "H", "targets": [1]},
                                   {"kind": "CX", "targets": [1, 1]}]}),
        ("gate 0: undeclared parameter 'b'", {"n_qubits": 1, "parameters": ["a"], "gates": [
            {"kind": "RX", "targets": [0], "angle": {"param": "b"}}]}),
        # and so do a cost term's
        ("cost term 1: unknown Pauli axis 'W'", {"n_qubits": 2, "gates": [], "cost": [
            {"coeff": 1.0, "paulis": {"0": "Z"}}, {"coeff": 1.0, "paulis": {"1": "W"}}]}),
        ("cost term 1: cost references qubit 5, circuit has 2", {"n_qubits": 2, "gates": [],
         "cost": [{"coeff": 1.0, "paulis": {"0": "Z"}},
                  {"coeff": 0.5, "paulis": {"1": "X", "5": "Z"}}]}),
        # an axis is a string: the JSON integer 0 is not the projector P0
        ("cost term 0: unknown Pauli axis '0' (expected X, Y, Z, P0 or P1)",
         {"n_qubits": 1, "gates": [], "cost": [{"coeff": 1.0, "paulis": {"0": 0}}]}),
    ], ids=["top-level", "missing-gates", "unknown-field", "gate-not-object",
            "gate-missing-targets", "gate-unknown-field", "bool-angle", "angle-missing-param",
            "string-prefactor", "term-missing-paulis", "null-coeff", "float-n-qubits",
            "float-target", "integer-name", "indexed-target", "indexed-kind", "indexed-range",
            "indexed-distinct", "indexed-parameter", "indexed-axis", "indexed-cost-qubit",
            "integer-axis"])
    def test_messages_name_the_record_or_field(self, message, doc):
        with pytest.raises(CircuitSpecError, match=re.escape(message)):
            parse_circuit_spec(json.dumps(doc))

    def test_rejects_nesting_too_deep_to_decode(self):
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(CircuitSpecError, match="too deeply"):
            parse_circuit_spec('{"n_qubits": 1, "gates": ' + deep + "}")


# JSON values, numbers included that are not finite or too large for a float
_JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=6) | st.integers()
                 | st.integers(2**1024, 2**1030) | st.floats())
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _json_paths(doc, prefix=()):
    """Every path of keys and indices into a parsed JSON document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _parses_or_rejects(doc) -> None:
    try:
        parse_circuit_spec(json.dumps(doc))
    except CircuitSpecError:
        pass


class TestSpecFuzz:
    """parse_circuit_spec raises nothing but CircuitSpecError."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    def test_arbitrary_json(self, doc):
        _parses_or_rejects(doc)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.data())
    def test_field_mutations_of_a_valid_spec(self, seed, data):
        # one mutation at every field of the document, one field at a time
        rng = np.random.default_rng(seed)
        text = serialize_circuit_spec(random_circuit(rng, max_qubits=4, with_cost=True))
        for path in list(_json_paths(json.loads(text)))[1:]:
            doc = json.loads(text)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            action = data.draw(st.sampled_from(("replace", "delete", "add")))
            if action == "delete":
                del parent[path[-1]]
            elif action == "add" and isinstance(parent, dict):
                parent[data.draw(st.text(max_size=6))] = data.draw(_JSON)
            else:
                parent[path[-1]] = data.draw(_JSON_SCALARS | _JSON)
            _parses_or_rejects(doc)


class TestQaoaBuilder:
    def test_gate_count_formula(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        for p in (1, 2, 3):
            c = qaoa_builder(edges, p=p)
            assert c.n_qubits == 4
            assert len(c.gates) == 4 + p * (3 * len(edges) + 4)

    def test_parameter_layout(self):
        c = qaoa_builder([(0, 1)], p=2)
        names = [pid.name for pid in c.parameters]
        assert names == ["gamma0", "beta0", "gamma1", "beta1"]

    def test_cost_is_half_zz_per_edge(self):
        edges = [(0, 1), (1, 2)]
        c = qaoa_builder(edges, p=1)
        assert len(c.cost.terms) == len(edges)
        for term in c.cost.terms:
            assert term.coeff == pytest.approx(0.5)
            assert [axis for _, axis in term.paulis] == ["Z", "Z"]

    def test_mixer_angle_is_twice_beta(self):
        c = qaoa_builder([(0, 1)], p=1)
        rx = [g for g in c.gates if g.kind == "RX"]
        assert len(rx) == 2
        for g in rx:
            assert g.angle.prefactor == pytest.approx(2.0)

    def test_explicit_node_count_pads_width(self):
        c = qaoa_builder([(0, 1)], p=1, n_nodes=4)
        assert c.n_qubits == 4

    def test_rejects_bad_graphs(self):
        with pytest.raises(ValueError):
            qaoa_builder([], p=1)
        with pytest.raises(ValueError):
            qaoa_builder([(0, 0)], p=1)
        with pytest.raises(ValueError):
            qaoa_builder([(0, 1)], p=0)
        with pytest.raises(ValueError):
            qaoa_builder([(0, 5)], p=1, n_nodes=3)

    def test_takes_numpy_integer_edges(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        assert qaoa_builder(np.array(edges), 2) == qaoa_builder(edges, 2)


@pytest.mark.parametrize("message, call", [
    ("edge endpoint must be an integer, got 1.7", lambda: qaoa_builder([(0, 1.7)], 1)),
    ("edge endpoint must be an integer, got True",
     lambda: qaoa_builder([(0, 1), (True, 2)], 1)),
    ("QAOA layer count p must be an integer, got True",
     lambda: qaoa_builder([(0, 1), (1, 2)], True)),
    ("QAOA layer count p must be an integer, got 1.0",
     lambda: qaoa_builder([(0, 1), (1, 2)], 1.0)),
    ("n_nodes must be an integer, got 3.0", lambda: qaoa_builder([(0, 1)], 1, n_nodes=3.0)),
    ("layers must be an integer, got 2.0", lambda: layered_ansatz(3, 2.0)),
    ("n_qubits must be an integer, got 3.0", lambda: layered_ansatz(3.0, 2)),
    ("n_qubits must be an integer, got 3.0", lambda: identity_learning_ansatz(3.0)),
    ("n_nodes must be an integer, got 4.0", lambda: random_gnm_edges(4.0, 2)),
    ("n_edges must be an integer, got 2.0", lambda: random_gnm_edges(4, 2.0)),
    ("n_nodes must be an integer, got 4.5", lambda: max_cut_size([(0, 1), (1, 2)], 4.5)),
    ("count must be an integer, got 1.5", lambda: append_pairwise_cx(layered_ansatz(3, 1), 1.5)),
    ("n_qubits must be an integer, got 2.0", lambda: all_zeros_infidelity_cost(2.0)),
    ("n_qubits must be an integer, got 2.0", lambda: mean_excitation_cost(2.0)),
    # below the floor, or outside the range
    ("QAOA layer count p must be positive, got 0", lambda: qaoa_builder([(0, 1)], 0)),
    ("edge endpoint must be non-negative, got -1", lambda: qaoa_builder([(0, -1)], 1)),
    ("edge endpoint must be in [0, 2], got 5", lambda: qaoa_builder([(0, 5)], 1, n_nodes=3)),
    ("n_nodes must be positive, got 0", lambda: qaoa_builder([(0, 1)], 1, n_nodes=0)),
    ("self-loop (1, 1) is not a valid edge", lambda: qaoa_builder([(0, 1), (1, 1)], 1)),
    ("layers must be positive, got 0", lambda: layered_ansatz(3, 0)),
    ("n_qubits must be at least 2, got 1", lambda: identity_learning_ansatz(1)),
    ("n_edges must be in [1, 6] for 4 nodes, got 0", lambda: random_gnm_edges(4, 0)),
    ("count must be in [0, 3], got -1", lambda: append_pairwise_cx(layered_ansatz(3, 1), -1)),
    ("count must be in [0, 3], got 4", lambda: append_pairwise_cx(layered_ansatz(3, 1), 4)),
    ("n_qubits must be positive, got 0", lambda: all_zeros_infidelity_cost(0)),
    ("n_qubits must be positive, got 0", lambda: mean_excitation_cost(0)),
    ("edge endpoint must be in [0, 2], got -1", lambda: max_cut_size([(0, -1)], 3)),
    ("edge endpoint must be in [0, 2], got 5", lambda: max_cut_size([(0, 5)], 3)),
    ("edge endpoint must be an integer, got 1.0", lambda: max_cut_size([(0, 1.0)], 3)),
    ("n_nodes must be positive, got 0", lambda: max_cut_size([], 0)),
    ("n_nodes must be positive, got -2", lambda: max_cut_size([], -2)),
    ("self-loop (2, 2) is not a valid edge", lambda: max_cut_size([(2, 2)], 3)),
    ("brute force capped at 20 nodes, got 21", lambda: max_cut_size([(0, 1)], 21)),
    ("edge endpoint must be non-negative, got -1", lambda: mean_cut_scorer([(0, -1)])),
    ("edge endpoint must be an integer, got 1.0", lambda: mean_cut_scorer([(0, 1.0)])),
    ("self-loop (0, 0) is not a valid edge", lambda: mean_cut_scorer([(0, 0)])),
    ("bit matrix width must be at least 6, got 3",
     lambda: mean_cut_scorer([(0, 5)])(np.zeros((2, 3), dtype=np.uint8))),
    # outside the choices
    ("entangler must be one of ('chain', 'full', 'none'), got 'ring'",
     lambda: layered_ansatz(3, 1, "ring")),
    ("rotation kind must be one of ('RX', 'RY', 'RZ'), got 'H'",
     lambda: single_qubit_chain(["RX", "H"])),
], ids=["qaoa-float-endpoint", "qaoa-bool-endpoint", "qaoa-bool-p", "qaoa-float-p",
        "qaoa-n-nodes", "layered-layers", "layered-width", "identity-learning", "gnm-nodes",
        "gnm-edges", "max-cut", "pairwise-cx", "global-cost", "local-cost",
        "qaoa-zero-p", "qaoa-negative-endpoint", "qaoa-endpoint-past-nodes", "qaoa-zero-nodes",
        "qaoa-self-loop", "layered-zero-layers", "identity-learning-one-qubit",
        "gnm-zero-edges", "pairwise-cx-negative", "pairwise-cx-past-pairs", "global-cost-empty",
        "local-cost-empty", "max-cut-negative-endpoint", "max-cut-endpoint-past-nodes",
        "max-cut-float-endpoint", "max-cut-zero-nodes", "max-cut-negative-nodes",
        "max-cut-self-loop", "max-cut-past-cap", "scorer-negative-endpoint",
        "scorer-float-endpoint", "scorer-self-loop", "scorer-endpoint-past-width",
        "layered-entangler", "chain-rotation-kind"])
def test_builder_counts_and_indices_must_be_integers(message, call):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_numpy_counts_at_their_floor_are_accepted():
    one, two = np.int64(1), np.int64(2)
    edges = [(np.int64(0), np.int64(1))]
    assert qaoa_builder(edges, one, n_nodes=two) == qaoa_builder([(0, 1)], 1, n_nodes=2)
    assert layered_ansatz(2, one) == layered_ansatz(2, 1)
    assert identity_learning_ansatz(two) == identity_learning_ansatz(2)
    assert append_pairwise_cx(layered_ansatz(2, 1), np.int64(0)) == layered_ansatz(2, 1)
    assert mean_excitation_cost(one) == mean_excitation_cost(1)
    assert max_cut_size(edges, two) == 1
    assert mean_cut_scorer(edges)(np.array([[0, 1]])) == 1.0


class TestRandomGraph:
    def test_matches_the_listed_pairs(self):
        for n in range(2, 13):
            for m in range(1, n * (n - 1) // 2 + 1):
                for seed in range(3):
                    edges = random_gnm_edges(n, m, seed=seed)
                    assert edges == listed_gnm_edges(n, m, seed)
                    assert all(type(v) is int for edge in edges for v in edge)

    @pytest.mark.parametrize("n_nodes, n_edges", [(30, 435), (300, 2000), (1500, 1), (1500, 40)])
    def test_wide_graphs_match_the_listed_pairs(self, n_nodes, n_edges):
        assert random_gnm_edges(n_nodes, n_edges, seed=3) == listed_gnm_edges(n_nodes, n_edges, 3)

    @pytest.mark.parametrize("n_nodes, n_edges", [(1, 1), (0, 1), (-3, 1), (4, 0), (4, 7)])
    def test_rejects_edge_counts_outside_the_pair_count(self, n_nodes, n_edges):
        with pytest.raises(ValueError, match="n_edges must be in"):
            random_gnm_edges(n_nodes, n_edges, seed=0)


@st.composite
def graphs(draw, max_nodes=12):
    """(edges, n_nodes) of a simple graph on up to max_nodes nodes; nodes no
    edge touches are kept, and an edge list may be empty."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return edges, n


class TestMaxCut:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_matches_the_assignment_loop(self, graph):
        edges, n = graph
        assert max_cut_size(edges, n) == max_cut_brute_force(edges, n)

    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.integers(1, 40), st.integers(0, 10**9))
    def test_mean_cut_matches_the_edge_loop(self, graph, rows, seed):
        edges, n = graph
        bits = np.random.default_rng(seed).integers(0, 2, (rows, n), dtype=np.uint8)
        assert mean_cut_scorer(edges)(bits) == loop_mean_cut(edges, bits)

    def test_caps_the_brute_force_at_20_nodes(self):
        with pytest.raises(ValueError, match="brute force capped at 20 nodes"):
            max_cut_size([(0, 1)], 21)
