import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_circuit
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
        with np.errstate(over="ignore"), pytest.raises(CircuitSpecError, match="finite"):
            bind(c, [1e308])


class TestSpecFormat:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_serialize_parse_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, max_qubits=5, with_cost=bool(seed % 2))
        assert parse_circuit_spec(serialize_circuit_spec(c)) == c

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

    @pytest.mark.parametrize("doc", [
        {"n_qubits": 1, "gates": [{"kind": "RX", "targets": [0], "angle": 10**400}]},
        {"n_qubits": 1, "parameters": ["a"], "gates": [
            {"kind": "RX", "targets": [0], "angle": {"param": "a", "prefactor": 10**400}}]},
        {"n_qubits": 1, "gates": [{"kind": "H", "targets": [0]}],
         "cost": [{"coeff": 10**400, "paulis": {"0": "Z"}}]},
    ], ids=["angle", "prefactor", "coeff"])
    def test_rejects_numbers_too_large_for_a_float(self, doc):
        with pytest.raises(CircuitSpecError, match="too large"):
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
