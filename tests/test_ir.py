"""IR types, metadata, inventory, and validation."""
import pytest

from qcover.ir import (
    CONTROLLED_KINDS,
    SPECS,
    Circuit,
    GateInstruction,
    GateKind,
    Probe,
    validate,
)
from corpus_util import SWAP_TEST_QASM, build, renumber
from qcover.qasm import parse
from qcover.transpiler import TranspileError, transpile


def test_twenty_two_controlled_kinds():
    assert len(CONTROLLED_KINDS) == 22
    names = {k.value for k in CONTROLLED_KINDS}
    assert names == {
        "cx", "cy", "cz", "ch", "csx", "crz", "crx", "cry", "cu1", "cu3",
        "cp", "cs", "csdg", "ccx", "rccx", "rcccx", "c3sx", "ccz", "cu",
        "cswap", "dcx", "ecr",
    }


def test_control_counts_match_name_convention():
    # number of controls equals the number of 'c's in the name, with the
    # documented exceptions (c3sx spells its three controls, dcx/ecr have none)
    exceptions = {GateKind.C3SX: 3, GateKind.DCX: 0, GateKind.ECR: 0}
    for kind in CONTROLLED_KINDS:
        spec = SPECS[kind]
        expected = exceptions.get(kind, kind.value.count("c"))
        assert len(spec.controls) == expected, kind


def test_arity_enforced_at_construction():
    with pytest.raises(ValueError):
        GateInstruction(0, GateKind.CX, (0,))
    with pytest.raises(ValueError):
        GateInstruction(0, GateKind.U, (0,), params=(1.0, 2.0))


def test_inventory_swap_test():
    circuit = parse(SWAP_TEST_QASM)
    (origin,) = transpile(circuit).origins
    assert origin.kind is GateKind.CSWAP
    assert origin.controls == (0,)
    assert circuit.instructions[1].id == origin.id


def test_inventory_sequential_circuit_is_empty():
    circuit = build(2, 0, [(GateKind.H, (0,)), (GateKind.X, (1,))])
    assert transpile(circuit).origins == ()


def test_inventory_ccx_then_cx():
    circuit = build(3, 0, [(GateKind.CCX, (0, 1, 2)), (GateKind.CX, (2, 0))])
    origins = transpile(circuit).origins
    assert [(o.kind, o.controls) for o in origins] == [
        (GateKind.CCX, (0, 1)), (GateKind.CX, (2,))]


def test_inventory_skips_no_control_kinds():
    circuit = build(2, 0, [(GateKind.DCX, (0, 1)), (GateKind.ECR, (0, 1))])
    assert transpile(circuit).origins == ()


def test_inventory_rejects_probes():
    circuit = parse(SWAP_TEST_QASM)
    probed = Circuit(3, 1, circuit.instructions + (
        Probe(99, "expectation", 0, "x_1_value_1"),))
    with pytest.raises(TranspileError, match="probe-free"):
        transpile(probed)


def test_validate_ok():
    assert validate(parse(SWAP_TEST_QASM)) == []


def test_validate_duplicate_operand():
    circuit = Circuit(2, 0, (GateInstruction(0, GateKind.CX, (0, 0)),))
    messages = [v.message for v in validate(circuit)]
    assert any("duplicate operand" in m for m in messages)


def test_validate_out_of_range_qubit():
    circuit = Circuit(1, 0, (GateInstruction(0, GateKind.H, (3,)),))
    messages = [v.message for v in validate(circuit)]
    assert any("out of range" in m for m in messages)


def test_validate_catches_corrupted_param_count():
    # construction rejects bad counts, so corrupt an instance to exercise the
    # validator's own param-count check
    instr = GateInstruction(0, GateKind.U, (0,), (0.1, 0.2, 0.3))
    object.__setattr__(instr, "params", (0.1, 0.2))
    messages = [v.message for v in validate(Circuit(1, 0, (instr,)))]
    assert any("param count" in m for m in messages)


def test_validate_duplicate_ids_and_labels():
    circuit = Circuit(2, 0, (
        GateInstruction(0, GateKind.CX, (0, 1)),
        Probe(0, "expectation", 0, "lbl"),
        Probe(2, "probabilities", 0, "lbl"),
    ))
    messages = [v.message for v in validate(circuit)]
    assert any("duplicate instruction id" in m for m in messages)
    assert any("duplicate probe label" in m for m in messages)


def test_renumber_assigns_dense_ids():
    circuit = parse(SWAP_TEST_QASM)
    shuffled = renumber(list(circuit.instructions)[::-1])
    assert [i.id for i in shuffled] == [0, 1, 2, 3]
