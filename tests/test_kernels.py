"""Simulator kernels and the probe loop against their earlier versions in
kernel_oracle: the same amplitudes, probe logs and measurements."""
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kernel_oracle
from corpus_util import SWAP_TEST_QASM, random_circuit
from qcover import simulator
from qcover.ir import SPECS, Circuit, GateInstruction, GateKind, Probe
from qcover.probes import instrument
from qcover.qasm import parse, parse_file
from qcover.transpiler import transpile

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
WIDTH = 8
KINDS = [k for k in GateKind if k not in (GateKind.MEASURE, GateKind.BARRIER)]


def _random_state(rng: np.random.Generator, width: int = WIDTH) -> np.ndarray:
    state = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    state[rng.random(state.size) < 0.15] = 0.0
    state.real[rng.random(state.size) < 0.1] = 0.0
    state.imag[rng.random(state.size) < 0.1] = -0.0
    norm = np.linalg.norm(state)
    # a state of one or two qubits can draw all zeros: draw again
    return state / norm if norm else _random_state(rng, width)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_kernel_matches_oracle_on_every_operand_tuple(kind):
    # values, not bytes: the sign of an exact zero may differ.  Each step is
    # built once and replayed on two states, as judge() replays the
    # original's steps for every mutant.
    rng = np.random.default_rng(list(GateKind).index(kind))
    states = (_random_state(rng), _random_state(rng))
    spec = SPECS[kind]
    params = tuple(float(v) for v in rng.uniform(-np.pi, np.pi, spec.num_params))
    for qubits in itertools.permutations(range(WIDTH), spec.num_qubits):
        step = simulator.kernel(kind, params, qubits, WIDTH)
        for state in states:
            got, want, wrapped = state.copy(), state.copy(), state.copy()
            step(got)
            kernel_oracle.apply_gate(want, kind, params, qubits)
            simulator.apply_gate(wrapped, kind, params, qubits)
            assert np.array_equal(got, want), (kind, qubits)
            assert got.tobytes() == wrapped.tobytes(), (kind, qubits)
            if kind is GateKind.ID:
                assert got.tobytes() == state.tobytes(), qubits


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_tiled_kernel_matches_oracle_on_every_operand_tuple(kind, monkeypatch):
    # eight amplitudes a tile: every sector of an 8-qubit state spans 2 to 16
    # tiles.  Not one: numpy can round an in-place product of a one-element
    # array differently from its vector loop.
    monkeypatch.setattr(simulator, "_BLOCK", 8)
    test_kernel_matches_oracle_on_every_operand_tuple(kind)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_kernel_matches_oracle_on_one_to_three_qubits(kind):
    rng = np.random.default_rng(100 + list(GateKind).index(kind))
    spec = SPECS[kind]
    for width in range(spec.num_qubits, 4):
        for qubits in itertools.permutations(range(width), spec.num_qubits):
            for _ in range(20):
                params = tuple(float(v) for v in
                               rng.uniform(-np.pi, np.pi, spec.num_params))
                state = _random_state(rng, width)
                got, want, wrapped = state.copy(), state.copy(), state.copy()
                simulator.kernel(kind, params, qubits, width)(got)
                kernel_oracle.apply_gate(want, kind, params, qubits)
                simulator.apply_gate(wrapped, kind, params, qubits)
                assert got.tobytes() == wrapped.tobytes(), (kind, width, qubits)
                assert np.array_equal(got, want), (kind, width, qubits)


def test_wide_circuit_with_the_default_tiles_matches_oracle():
    circuit = random_circuit(np.random.default_rng(15), num_qubits=15, num_gates=300)
    assert {i.kind for i in circuit.instructions} == set(KINDS)
    want = kernel_oracle.run(circuit).state
    assert np.array_equal(simulator.statevector_of(circuit), want)


def test_monomial_kinds_are_the_unit_permutations():
    assert set(simulator._MONOMIAL) == {
        GateKind.X, GateKind.Y, GateKind.Z, GateKind.SWAP, GateKind.CX,
        GateKind.CY, GateKind.CZ, GateKind.CCX, GateKind.CCZ, GateKind.CSWAP,
        GateKind.DCX, GateKind.RCCX, GateKind.RCCCX}
    # a phase of exp(i*pi/2) or a 1/sqrt(2) entry is no unit: not exact
    for kind in (GateKind.S, GateKind.SDG, GateKind.T, GateKind.CS,
                 GateKind.CSDG, GateKind.ECR):
        assert kind not in simulator._MONOMIAL, kind


@pytest.mark.parametrize("kind, qubits, params, tiles", [
    (GateKind.U, (5,), (0.3, -1.2, 2.0), 4),
    (GateKind.CX, (3, 11), (), 2),
], ids=["u", "cx"])
def test_tiled_step_allocates_only_its_tiles(kind, qubits, params, tiles):
    # a 16-qubit half-state is 8 tiles, so a half-state temporary fails this
    n = 16
    step = simulator.kernel(kind, params, qubits, n)
    state = simulator.zero_state(n)
    tracemalloc.start()
    try:
        step(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tile_bytes = simulator._BLOCK * state.itemsize
    # 4 KiB for the views and lists of one call
    assert peak <= tiles * tile_bytes + 4096, peak


def test_kernel_of_barrier_and_measure():
    state = _random_state(np.random.default_rng(4))
    for qubits in ((0,), (0, 1, 2), tuple(range(WIDTH))):
        got = state.copy()
        simulator.kernel(GateKind.BARRIER, (), qubits, WIDTH)(got)
        assert got.tobytes() == state.tobytes(), qubits
    with pytest.raises(simulator.SimulationError, match="cannot process measurements"):
        simulator.kernel(GateKind.MEASURE, (), (0,), WIDTH)


def test_marginal_matches_oracle_bitwise():
    state = _random_state(np.random.default_rng(3))
    for qubit in range(WIDTH):
        assert simulator.marginal(state, qubit) == kernel_oracle.marginal(state, qubit)


def _circuits():
    for path in sorted(CORPUS.glob("*.qasm")):
        yield path.stem, parse_file(str(path))
    rng = np.random.default_rng(2024)
    for i in range(200):
        yield f"random{i}", random_circuit(rng, with_measure=bool(i % 2))


@pytest.mark.parametrize("probed", [False, True], ids=["bare", "probed"])
def test_run_matches_oracle_on_corpus_and_random_circuits(probed):
    for name, circuit in _circuits():
        if probed:
            circuit = instrument(transpile(circuit))
        got = simulator.run(circuit, seed=5)
        want = kernel_oracle.run(circuit, seed=5)
        assert got.probes == want.probes, name
        assert got.measurements == want.measurements, name
        assert np.array_equal(got.state, want.state), name


def _distinct_reads(circuit: Circuit) -> int:
    """Distinct qubits per run of adjacent probes, summed over the runs."""
    reads, group = 0, set()
    for instr in circuit.instructions:
        if isinstance(instr, Probe):
            group.add(instr.qubit)
        else:
            reads, group = reads + len(group), set()
    return reads + len(group)


@pytest.fixture
def marginal_calls(monkeypatch):
    """Qubits of the simulator's marginal reads, in order."""
    calls = []
    real = simulator.marginal

    def counting(state, qubit):
        calls.append(qubit)
        return real(state, qubit)

    monkeypatch.setattr(simulator, "marginal", counting)
    return calls


def test_adjacent_probes_share_one_marginal_per_qubit(marginal_calls):
    probed = instrument(transpile(parse(SWAP_TEST_QASM)))
    labels = sum(isinstance(i, Probe) for i in probed.instructions)
    result = simulator.run(probed)
    # the final measurement of q[0] reads one more marginal
    assert len(marginal_calls) == _distinct_reads(probed) + 1
    assert _distinct_reads(probed) < labels
    assert result.probes == kernel_oracle.run(probed).probes


def test_read_reuse_stops_at_any_gate(marginal_calls):
    # an x on another qubit between the probes still forces a fresh read
    circuit = Circuit(2, 0, (
        Probe(0, "expectation", 0, "a"),
        GateInstruction(1, GateKind.X, (1,)),
        Probe(2, "expectation", 0, "b"),
        Probe(3, "probabilities", 0, "c"),
        Probe(4, "probabilities", 1, "d"),
    ))
    simulator.run(circuit)
    assert marginal_calls == [0, 0, 1]


def test_duplicate_label_still_raises():
    circuit = Circuit(1, 0, (
        Probe(0, "expectation", 0, "v"),
        Probe(1, "probabilities", 0, "v"),
    ))
    with pytest.raises(simulator.SimulationError, match="duplicate probe label 'v'"):
        simulator.run(circuit)
