"""Decomposition rules and the transpilation pass."""
import math

import numpy as np
import pytest

import oracle
from corpus_util import SWAP_TEST_QASM, build, circuits_equal
from qcover.ir import CONTROLLED_KINDS, SPECS, GateKind
from qcover.qasm import parse
from qcover.transpiler import (
    CSWAP_LAMBDA,
    CSWAP_THETA,
    RULES,
    Origin,
    provenance_report,
    transpile,
)

_ANGLE_SETS = [(-2.3, 0.4, 1.1, 2.9), (0.0, 0.0, 0.0, 0.0),
               (math.pi, -math.pi / 2, math.pi / 4, -0.7)]


@pytest.mark.parametrize("kind", CONTROLLED_KINDS)
def test_rule_unitary_matches_definition(kind):
    """Brute-force Kronecker oracle: expansion product == defining unitary
    up to global phase, within 1e-10 max-norm, for every rule."""
    rule = RULES[kind]
    spec = SPECS[kind]
    n = spec.num_qubits
    operands = tuple(range(n))
    for angles in _ANGLE_SETS if spec.num_params else [()]:
        params = tuple(angles[: spec.num_params])
        expected = oracle.gate_matrix(kind, params)
        got = oracle.circuit_unitary(rule.expand(params, operands), n)
        assert oracle.phase_distance(got, expected) < 1e-10, kind


def test_cswap_rule_has_exactly_seven_cx():
    rule = RULES[GateKind.CSWAP]
    cx_count = sum(1 for op in rule.template if op.kind is GateKind.CX)
    assert cx_count == 7


def test_cswap_angle_constraint():
    # the free angles of the 7-cx realization must sum to pi/2
    assert abs(CSWAP_LAMBDA + CSWAP_THETA - math.pi / 2) < 1e-15


def test_cswap_expansion_sequence():
    circuit = build(3, 0, [(GateKind.CSWAP, (0, 1, 2))])
    t = transpile(circuit)
    kinds = [i.kind.value for i in t.circuit.instructions]
    assert kinds == ["u", "u", "cx", "u", "u", "cx", "p", "cx", "p", "p",
                     "cx", "cx", "p", "p", "cx", "u", "cx"]
    cx_controls = [i.qubits[0] for i in t.circuit.instructions
                   if i.kind is GateKind.CX]
    assert cx_controls == [1, 0, 1, 0, 0, 0, 2]


def test_transpile_passthrough():
    circuit = build(2, 0, [(GateKind.H, (0,)), (GateKind.X, (1,)),
                           (GateKind.U, (0,), (0.1, 0.2, 0.3))])
    t = transpile(circuit)
    assert circuits_equal(t.circuit, circuit)
    assert t.origins == ()


def test_transpile_bare_cx_is_its_own_expansion():
    circuit = build(2, 0, [(GateKind.H, (0,)), (GateKind.CX, (0, 1))])
    t = transpile(circuit)
    assert circuits_equal(t.circuit, circuit)
    assert t.origins == (Origin(1, GateKind.CX, (0,), (1,), 2,
                                (("cx_1_cx_1_value", "cx_1_cx_1_probability"),),
                                (("cx_1_value_1", "cx_1_probability_1"),)),)


def test_transpile_ccx_counts():
    circuit = build(3, 0, [(GateKind.CCX, (0, 1, 2))])
    t = transpile(circuit)
    (origin,) = t.origins
    assert (origin.id, origin.controls, len(origin.cx_positions)) == (0, (0, 1), 6)
    # every controlled kind has a rule, so no controlled kind other than cx remains
    assert set(RULES) == set(CONTROLLED_KINDS)
    for instr in t.circuit.instructions:
        spec = SPECS[instr.kind]
        assert not spec.controlled or instr.kind is GateKind.CX


def test_transpile_preserves_unitary():
    rng = np.random.default_rng(5)
    for _ in range(10):
        from corpus_util import random_circuit

        circuit = random_circuit(rng, num_qubits=3, num_gates=8)
        t = transpile(circuit)
        before = oracle.circuit_unitary(
            [(i.kind, i.params, i.qubits) for i in circuit.instructions
             if i.kind is not GateKind.BARRIER], 3)
        after = oracle.circuit_unitary(
            [(i.kind, i.params, i.qubits) for i in t.circuit.instructions
             if i.kind is not GateKind.BARRIER], 3)
        assert oracle.phase_distance(after, before) < 1e-9


def test_provenance_complete_and_contiguous():
    circuit = build(4, 0, [
        (GateKind.CSWAP, (0, 1, 2)),
        (GateKind.CX, (3, 0)),
        (GateKind.CCX, (1, 2, 3)),
        (GateKind.DCX, (0, 1)),
    ])
    t = transpile(circuit)
    cx_positions = [pos for pos, i in enumerate(t.circuit.instructions)
                    if i.kind is GateKind.CX]
    # transpiled ids are positions
    assert [t.circuit.instructions[pos].id for pos in cx_positions] == cx_positions
    # every cx but dcx's two belongs to exactly one origin, in program order
    tracked = [pos for o in t.origins for pos in o.cx_positions]
    assert tracked == cx_positions[:-2]
    # each origin's cx gates lie inside its block, which starts where the
    # previous block ends; dcx is expanded but carries no tracked controls
    start = 0
    for o in t.origins:
        assert all(start <= pos < o.block_end for pos in o.cx_positions)
        start = o.block_end
    assert [(o.id, o.kind, len(o.cx_positions)) for o in t.origins] == [
        (0, GateKind.CSWAP, 7), (1, GateKind.CX, 1), (2, GateKind.CCX, 6)]
    assert t.circuit.instructions[-1].kind is GateKind.CX
    assert len(t.circuit.instructions) == t.origins[-1].block_end + 2


def test_transpile_deterministic():
    circuit = parse(SWAP_TEST_QASM)
    t1, t2 = transpile(circuit), transpile(circuit)
    assert t1.circuit == t2.circuit
    assert t1.origins == t2.origins


def test_block_end_points_past_expansion():
    circuit = parse(SWAP_TEST_QASM)
    t = transpile(circuit)
    (origin,) = t.origins
    end = origin.block_end
    # the instruction just before block_end is the expansion's last cx
    assert t.circuit.instructions[end - 1].kind is GateKind.CX
    assert t.circuit.instructions[end].kind is GateKind.H


def test_provenance_report_lists_origins():
    t = transpile(parse(SWAP_TEST_QASM))
    report = provenance_report(t)
    assert "cswap" in report
    assert report.count("\n") > 8


def test_cu_full_pipeline():
    # cu sees no use in typical corpora, so it gets an end-to-end exercise
    circuit = build(2, 0, [(GateKind.H, (0,)),
                           (GateKind.CU, (0, 1), (1.1, 0.4, -0.7, 0.3))])
    t = transpile(circuit)
    assert [(o.id, len(o.cx_positions)) for o in t.origins] == [(1, 2)]
    before = oracle.circuit_unitary(
        [(i.kind, i.params, i.qubits) for i in circuit.instructions], 2)
    after = oracle.circuit_unitary(
        [(i.kind, i.params, i.qubits) for i in t.circuit.instructions], 2)
    assert oracle.phase_distance(after, before) < 1e-10


def test_c3sx_full_pipeline():
    circuit = build(4, 0, [(GateKind.X, (0,)), (GateKind.X, (1,)),
                           (GateKind.X, (2,)), (GateKind.C3SX, (0, 1, 2, 3))])
    t = transpile(circuit)
    (origin,) = t.origins
    assert (origin.id, origin.controls, len(origin.cx_positions)) == (3, (0, 1, 2), 20)
    before = oracle.circuit_unitary(
        [(i.kind, i.params, i.qubits) for i in circuit.instructions], 4)
    after = oracle.circuit_unitary(
        [(i.kind, i.params, i.qubits) for i in t.circuit.instructions], 4)
    assert oracle.phase_distance(after, before) < 1e-10
