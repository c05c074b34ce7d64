"""Probe insertion: labels, placement, counts, and stripping."""
import gc
import weakref

import numpy as np

from corpus_util import SWAP_TEST_QASM, build, circuits_equal, random_circuit
from qcover.coverage import analyze
from qcover.probes import instrument, strip_probes, render
from qcover.ir import GateKind, Probe, validate
from qcover.qasm import parse
from qcover.simulator import run
from qcover.transpiler import transpile


def _labels(circuit):
    return [i.label for i in circuit.probes]


def test_swap_test_probe_count_and_labels():
    t = transpile(parse(SWAP_TEST_QASM))
    probed = instrument(t)
    # 7 cx pairs + 1 control pair
    assert len(probed.probes) == 16
    assert _labels(probed) == [
        "cswap_1_cx_1_value", "cswap_1_cx_1_probability",
        "cswap_1_cx_2_value", "cswap_1_cx_2_probability",
        "cswap_1_cx_3_value", "cswap_1_cx_3_probability",
        "cswap_1_cx_4_value", "cswap_1_cx_4_probability",
        "cswap_1_cx_5_value", "cswap_1_cx_5_probability",
        "cswap_1_cx_6_value", "cswap_1_cx_6_probability",
        "cswap_1_cx_7_value", "cswap_1_cx_7_probability",
        "cswap_1_value_1", "cswap_1_probability_1",
    ]


def test_probes_follow_their_cx():
    t = transpile(parse(SWAP_TEST_QASM))
    probed = instrument(t)
    instructions = list(probed.instructions)
    for pos, instr in enumerate(instructions):
        if isinstance(instr, Probe) and "_cx_" in instr.label and instr.label.endswith("value"):
            before = instructions[pos - 1]
            assert before.kind is GateKind.CX
            assert before.qubits[0] == instr.qubit  # control qubit probed


def test_decision_probe_after_block():
    t = transpile(parse(SWAP_TEST_QASM))
    probed = instrument(t)
    labels = _labels(probed)
    assert labels.index("cswap_1_value_1") == labels.index("cswap_1_cx_7_value") + 2


def test_no_controlled_gates_unchanged():
    circuit = build(2, 0, [(GateKind.H, (0,)), (GateKind.X, (1,))])
    probed = instrument(transpile(circuit))
    assert circuits_equal(probed, circuit)
    assert len(probed.probes) == 0


def test_two_ccx_label_scheme():
    circuit = build(3, 0, [(GateKind.CCX, (0, 1, 2)), (GateKind.CCX, (1, 2, 0))])
    probed = instrument(transpile(circuit))
    labels = _labels(probed)
    assert "ccx_1_cx_1_value" in labels
    assert "ccx_2_cx_1_value" in labels
    for expected in ("ccx_1_value_1", "ccx_1_value_2",
                     "ccx_2_value_1", "ccx_2_value_2"):
        assert expected in labels
    assert "ccx_1_probability_2" in labels


def test_bare_cx_probed_at_both_levels():
    circuit = build(2, 0, [(GateKind.H, (0,)), (GateKind.CX, (0, 1))])
    probed = instrument(transpile(circuit))
    assert _labels(probed) == [
        "cx_1_cx_1_value", "cx_1_cx_1_probability",
        "cx_1_value_1", "cx_1_probability_1",
    ]


def test_no_probes_for_dcx_ecr():
    circuit = build(2, 0, [(GateKind.DCX, (0, 1)), (GateKind.ECR, (0, 1))])
    probed = instrument(transpile(circuit))
    assert len(probed.probes) == 0


def test_strip_probes_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(15):
        t = transpile(random_circuit(rng, with_measure=bool(rng.integers(2))))
        probed = instrument(t)
        assert strip_probes(probed) == t.circuit


def test_probe_count_formula():
    rng = np.random.default_rng(4)
    for _ in range(15):
        t = transpile(random_circuit(rng))
        probed = instrument(t)
        conditions = sum(len(o.cx_positions) for o in t.origins)
        controls = sum(len(o.controls) for o in t.origins)
        assert len(probed.probes) == 2 * conditions + 2 * controls


def test_labels_unique_and_valid():
    rng = np.random.default_rng(5)
    for _ in range(15):
        probed = instrument(transpile(random_circuit(rng)))
        labels = _labels(probed)
        assert len(labels) == len(set(labels))
        assert validate(probed) == []


def test_gate_order_unchanged():
    rng = np.random.default_rng(6)
    for _ in range(10):
        circuit = random_circuit(rng)
        t = transpile(circuit)
        probed = instrument(t)
        gate_ids = [i.id for i in probed.instructions if not isinstance(i, Probe)]
        assert gate_ids == [i.id for i in t.circuit.instructions]


def test_render_marks_probes_as_comments():
    probed = instrument(transpile(parse(SWAP_TEST_QASM)))
    text = render(probed)
    assert text.count("// probe") == 16
    assert "label=cswap_1_cx_1_value" in text


def test_probes_carry_the_origins_labels_and_go_with_the_circuit():
    circuit = parse(SWAP_TEST_QASM + "ccx q[0],q[1],q[2];\ncx q[1],q[2];\ncx q[2],q[0];\n")
    t = transpile(circuit)
    # name with its per-kind ordinal, conditions, controls
    expected = [("cswap_1", 7, 1), ("ccx_1", 6, 2), ("cx_1", 1, 1), ("cx_2", 1, 1)]
    assert len(t.origins) == len(expected)
    for o, (name, conditions, controls) in zip(t.origins, expected):
        assert o.cx_labels == tuple((f"{name}_cx_{j}_value", f"{name}_cx_{j}_probability")
                                    for j in range(1, conditions + 1))
        assert o.control_labels == tuple((f"{name}_value_{k}", f"{name}_probability_{k}")
                                         for k in range(1, controls + 1))
    # instrument() emits exactly these labels: conditions then controls,
    # origin by origin
    assert _labels(instrument(t)) == [label for o in t.origins
                                      for pair in o.cx_labels + o.control_labels
                                      for label in pair]
    # the labels live in the circuit's origins, so nothing outlives it
    analyze(run(instrument(t)).probes, t)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
