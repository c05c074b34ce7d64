"""Statevector engine: kernels, probes, measurement, oracle parity."""
import math

import numpy as np
import pytest

import oracle
from corpus_util import SWAP_TEST_QASM, build, random_circuit
from qcover.probes import instrument, strip_probes
from qcover.ir import Circuit, GateInstruction, GateKind, Probe
from qcover.qasm import parse
from qcover import simulator
from qcover.simulator import (
    SimulationError,
    apply_gate,
    fidelity,
    marginal,
    run,
    statevector_of,
    zero_state,
)
from qcover.transpiler import transpile


def test_h_statevector():
    state = statevector_of(build(1, 0, [(GateKind.H, (0,))]))
    np.testing.assert_allclose(state, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_x_expectation_probe():
    circuit = build(1, 0, [(GateKind.X, (0,))])
    probed = instrument(transpile(circuit))  # no probes (no controlled gate)
    result = run(probed)
    assert len(result.probes) == 0
    p0, p1 = marginal(result.state, 0)
    assert p0 - p1 == pytest.approx(-1.0, abs=1e-12)
    assert (p0, p1) == pytest.approx((0.0, 1.0), abs=1e-12)


def test_direct_probe_on_flipped_qubit():
    from qcover.ir import Probe

    circuit = Circuit(1, 0, (
        GateInstruction(0, GateKind.X, (0,)),
        Probe(1, "expectation", 0, "v"),
        Probe(2, "probabilities", 0, "p"),
    ))
    result = run(circuit)
    assert result.probes["v"] == pytest.approx(-1.0, abs=1e-12)
    assert result.probes["p"][0] == pytest.approx(0.0, abs=1e-12)
    assert result.probes["p"][1] == pytest.approx(1.0, abs=1e-12)


def test_ghz_marginal_matches_dense_oracle():
    circuit = build(3, 0, [(GateKind.H, (0,)), (GateKind.CX, (0, 1)),
                           (GateKind.CX, (1, 2))])
    state = statevector_of(circuit)
    expected, _ = oracle.simulate(circuit)
    np.testing.assert_allclose(state, expected, atol=1e-10)
    p0, p1 = marginal(state, 1)
    assert (p0, p1) == pytest.approx((0.5, 0.5), abs=1e-12)
    assert p0 - p1 == pytest.approx(0.0, abs=1e-12)


def test_toffoli_truth_table():
    circuit = build(3, 0, [(GateKind.X, (0,)), (GateKind.X, (1,)),
                           (GateKind.CCX, (0, 1, 2))])
    state = statevector_of(circuit)
    expected = zero_state(3)
    expected[0] = 0
    expected[7] = 1.0  # |111>
    np.testing.assert_allclose(state, expected, atol=1e-12)


def test_swap_test_statevector_equal_inputs():
    # equal target states leave the ancilla certainly |0> before measurement
    circuit = parse(SWAP_TEST_QASM)
    state = statevector_of(circuit)
    p0, p1 = marginal(state, 0)
    assert p0 == pytest.approx(1.0, abs=1e-12)


def test_run_norm_preserved_after_every_gate():
    rng = np.random.default_rng(0)
    circuit = random_circuit(rng, num_qubits=4, num_gates=25)
    state = zero_state(4)
    for instr in circuit.instructions:
        apply_gate(state, instr.kind, instr.params, instr.qubits)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_probe_values_consistent():
    # expectation probe equals p0 - p1 of the co-located probability probe
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = transpile(random_circuit(rng))
        result = run(instrument(t))
        for label, value in result.probes.items():
            if label.endswith("_value") or "_value_" in label:
                probs = result.probes[label.replace("value", "probability")]
                assert value == pytest.approx(probs[0] - probs[1], abs=1e-12)
                assert probs[0] + probs[1] == pytest.approx(1.0, abs=1e-10)


def test_probe_transparency_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = transpile(random_circuit(rng))
        probed = instrument(t)
        with_probes = run(probed, seed=11).state
        without = run(strip_probes(probed), seed=11).state
        assert np.array_equal(with_probes, without)


def test_measurement_collapse_and_determinism():
    circuit = build(1, 1, [(GateKind.H, (0,)),
                           (GateKind.MEASURE, (0,), (), (0,))])
    first = run(circuit, seed=0)
    again = run(circuit, seed=0)
    assert first.measurements == again.measurements
    bit = first.measurements[0]
    expected = zero_state(1)
    expected[:] = 0
    expected[bit] = 1.0
    np.testing.assert_allclose(np.abs(first.state), np.abs(expected), atol=1e-12)


def _counts_by_full_runs(circuit, shots, seed):
    counts = {}
    for shot in range(shots):
        measured = run(circuit, seed=seed + shot).measurements
        key = "".join(str(measured.get(c, 0))
                      for c in reversed(range(circuit.num_clbits)))
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def test_measurement_statistics():
    circuit = build(1, 1, [(GateKind.H, (0,)),
                           (GateKind.MEASURE, (0,), (), (0,))])
    counts = _counts_by_full_runs(circuit, 200, seed=0)
    assert set(counts) <= {"0", "1"}
    assert sum(counts.values()) == 200
    assert 60 < counts.get("0", 0) < 140


def test_duplicate_probe_label_across_a_measurement_raises():
    # the probe log is one per run: a measurement does not start a new one
    circuit = Circuit(1, 1, (Probe(0, "expectation", 0, "v"),
                             GateInstruction(1, GateKind.MEASURE, (0,), (), (0,)),
                             Probe(2, "expectation", 0, "v")))
    with pytest.raises(SimulationError, match="duplicate probe label"):
        run(circuit)


def test_initial_state_validation():
    circuit = build(1, 0, [(GateKind.H, (0,))])
    with pytest.raises(SimulationError, match="not normalized"):
        run(circuit, initial=np.array([1.0, 1.0]))
    with pytest.raises(SimulationError, match="amplitudes"):
        run(circuit, initial=np.array([1.0, 0.0, 0.0]))


def test_qubit_limit():
    circuit = build(5, 0, [(GateKind.H, (0,))])
    with pytest.raises(SimulationError, match="exceeds"):
        run(circuit, qubit_limit=4)
    with pytest.raises(SimulationError, match="exceeds"):
        statevector_of(circuit, qubit_limit=4)


def test_statevector_of_rejects_probes():
    probed = instrument(transpile(parse(SWAP_TEST_QASM)))
    with pytest.raises(SimulationError, match="probe-free"):
        statevector_of(probed)


def test_statevector_of_ignores_measurement():
    state = statevector_of(parse(SWAP_TEST_QASM))
    # pre-measurement state of the swap test on |000> is exactly |000>
    expected = zero_state(3)
    np.testing.assert_allclose(state, expected, atol=1e-12)


def test_custom_initial_state():
    circuit = build(1, 0, [(GateKind.H, (0,))])
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    result = run(circuit, initial=minus)
    np.testing.assert_allclose(np.abs(result.state), [0.0, 1.0], atol=1e-12)


def test_oracle_equivalence_broad():
    rng = np.random.default_rng(42)
    for _ in range(40):
        circuit = random_circuit(rng)
        expected, _ = oracle.simulate(circuit)
        got = statevector_of(circuit)
        np.testing.assert_allclose(got, expected, atol=1e-10)


def test_fidelity_global_phase_invariant():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.exp(1j * 0.7) * a
    assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


def _counting_kernel(monkeypatch) -> list:
    """Patch simulator.kernel to record the arguments of every step it builds."""
    built = []
    real = simulator.kernel

    def kernel(kind, params, qubits, num_qubits):
        built.append((kind, params, qubits))
        return real(kind, params, qubits, num_qubits)

    monkeypatch.setattr(simulator, "kernel", kernel)
    return built


def test_run_builds_one_step_per_distinct_gate(monkeypatch):
    source = ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
              + "h q[0];\ncx q[0],q[1];\nrz(0.5) q[2];\ncx q[0],q[1];\n" * 4
              + "cx q[1],q[0];\nrz(0.25) q[2];\nh q[0];\n")
    t = transpile(parse(source))
    built = _counting_kernel(monkeypatch)
    result = run(instrument(t))
    circuit = t.circuit
    ops = [(i.kind, i.params, i.qubits) for i in circuit.instructions]
    assert len(ops) > len(set(ops))
    assert sorted(built, key=repr) == sorted(set(ops), key=repr)
    assert result.state.tobytes() == statevector_of(circuit).tobytes()


def test_run_keeps_the_steps_of_zero_and_negative_zero_apart(monkeypatch):
    # 0.0 == -0.0, but u(-0, 0, pi) leaves -0.0 where u(0, 0, pi) leaves 0.0
    source = ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\n"
              "u(0,0,pi) q[0];\nu(-0,0,pi) q[0];\n")
    built = _counting_kernel(monkeypatch)
    for repeats in (1, 3):
        built.clear()
        circuit = parse(source + "u(-0,0,pi) q[0];\n" * (repeats - 1))
        state = run(circuit).state
        assert len(built) == 2
        assert state.tobytes() == statevector_of(circuit).tobytes()
    assert math.copysign(1.0, run(parse(source)).state[1].real) == -1.0


@pytest.mark.parametrize("past_the_tiles", [False, True])
def test_run_keeps_no_step_on_tiled_states(past_the_tiles, monkeypatch):
    # past 2 * _BLOCK amplitudes a one-qubit step holds its tiles: there
    # each gate builds its step anew
    n = (2 * simulator._BLOCK).bit_length() - 1 + past_the_tiles
    circuit = build(n, 0, [(GateKind.H, (0,)), (GateKind.CX, (0, n - 1))] * 3)
    built = _counting_kernel(monkeypatch)
    run(circuit)
    assert len(built) == (6 if past_the_tiles else 2)
