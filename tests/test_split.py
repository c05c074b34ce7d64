"""Wide runs split on their top qubits, in the loop every run takes
(simulator._Live.play).

Once no qubit is held in |0>, a run of at least _SPLIT_MIN qubits plays its
gates off the top qubit and its probe reads on pieces of the state, which
the calling thread and a helper thread take as they become ready.  Against
kernel_oracle's full-width loop it must give the same probe logs (by repr),
the same measurements and equal states; against the same run unsplit, the
same bytes, however the pieces fall to the threads.  Barrier, id and the
measurements statevector_of() skips must not end the runs gathered.  The
helper thread must be gone when run() returns or raises.  A run splits
however many CPUs the process may use, one included, so its bytes come
from one schedule on every host; a run that holds a qubit in |0> to its
end does not split and starts no helper.
"""
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

import kernel_oracle
import test_live_qubits
from corpus_util import random_circuit, renumber
from test_kernels import KINDS
from qcover import cli, simulator
from qcover.ir import SPECS, Circuit, GateInstruction, GateKind, Probe
from qcover.probes import instrument, strip_probes
from qcover.transpiler import transpile


def _split_circuit(rng: np.random.Generator, n: int, count: int,
                   with_measure: bool) -> Circuit:
    """h on every qubit, so the split starts early; then kinds drawn
    uniformly, a third of them on the top qubit, with probes on the top
    qubit and on others, and measurements of both mid-circuit."""
    instructions = [GateInstruction(q, GateKind.H, (q,)) for q in range(n)]
    for i in range(count):
        kind = KINDS[rng.integers(len(KINDS))]
        spec = SPECS[kind]
        qubits = [int(q) for q in rng.choice(n, spec.num_qubits, replace=False)]
        if rng.random() < 0.3 and n - 1 not in qubits:
            qubits[rng.integers(len(qubits))] = n - 1
        params = tuple(float(v) for v in rng.uniform(-np.pi, np.pi, spec.num_params))
        instructions.append(GateInstruction(0, kind, tuple(qubits), params))
        if rng.random() < 0.3:
            for q in (n - 1, int(rng.integers(n)), n - 1):
                mode = ("expectation", "probabilities")[int(rng.integers(2))]
                instructions.append(Probe(0, mode, q, f"p{len(instructions)}"))
        if with_measure and rng.random() < 0.05:
            q = n - 1 if rng.random() < 0.5 else int(rng.integers(n))
            instructions.append(GateInstruction(0, GateKind.MEASURE, (q,), (), (q,)))
    return Circuit(n, n if with_measure else 0, renumber(instructions))


@pytest.fixture
def split_at(monkeypatch):
    """Lower the split threshold to a width; returns a list that counts the
    pieces played.  No run may hold more than _SEGMENT steps and reads."""
    played = [0]
    real = simulator._play

    def counting(piece, items):
        assert len(items) <= simulator._SEGMENT
        played[0] += 1
        return real(piece, items)

    monkeypatch.setattr(simulator, "_play", counting)

    def lower(n: int) -> list[int]:
        monkeypatch.setattr(simulator, "_SPLIT_MIN", n)
        return played
    return lower


def _count_pools(monkeypatch) -> list:
    """Patch the helper's pool to record every one made."""
    made = []
    real = simulator.ThreadPoolExecutor

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", counting)
    return made


def _check(circuit: Circuit, monkeypatch, seed: int = 3) -> None:
    """The full-width loop's probe logs, measurements and state, and
    statevector_of's bytes (test_live_qubits._check); the unsplit run's
    bytes."""
    test_live_qubits._check(circuit, seed)
    got = simulator.run(circuit, seed=seed)
    with monkeypatch.context() as m:
        m.setattr(simulator, "_SPLIT_MIN", 1 << 10)
        plain = simulator.run(circuit, seed=seed)
    assert repr(got.probes) == repr(plain.probes)
    assert got.measurements == plain.measurements
    assert got.state.tobytes() == plain.state.tobytes()


@pytest.mark.parametrize("n", [14, 15, 16])
def test_split_runs_match_the_full_width_loop(n, split_at, monkeypatch):
    played = split_at(n)
    rng = np.random.default_rng(200 + n)
    for with_measure in (False, True):
        circuit = _split_circuit(rng, n, 60, with_measure)
        _check(circuit, monkeypatch)
        _check(instrument(transpile(random_circuit(rng, num_qubits=n, num_gates=50,
                                                   with_measure=with_measure))),
               monkeypatch)
    assert played[0] > 0


def test_split_at_the_default_width(split_at, monkeypatch):
    played = split_at(simulator._SPLIT_MIN)
    n = simulator._SPLIT_MIN
    _check(_split_circuit(np.random.default_rng(17), n, 40, True), monkeypatch)
    assert played[0] > 0


def test_split_with_tiny_tiles(split_at, monkeypatch):
    # 8 amplitudes a tile and a split from 8 + _LEVELS qubits, the fewest
    # whose pieces' reads numpy's pairwise sum splits at their midpoints
    monkeypatch.setattr(simulator, "_BLOCK", 8)
    low = 8 + simulator._LEVELS
    played = split_at(low)
    rng = np.random.default_rng(9)
    for i in range(12):
        n = int(rng.integers(low, low + 3))
        _check(_split_circuit(rng, n, 40, bool(i % 2)), monkeypatch)
    assert played[0] > 0


def test_one_allowed_cpu_still_splits(split_at, monkeypatch):
    # a process allowed one CPU plays the same pieces and gives the same
    # bytes as one allowed every CPU
    played = split_at(14)
    rng = np.random.default_rng(141)
    circuits = [_split_circuit(rng, 14, 60, bool(i)) for i in range(2)]
    wanted = [simulator.run(c, seed=2) for c in circuits]
    pieces = played[0]
    assert pieces > 0
    played[0] = 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for circuit, want in zip(circuits, wanted):
        got = simulator.run(circuit, seed=2)
        assert repr(got.probes) == repr(want.probes)
        assert got.measurements == want.measurements
        assert got.state.tobytes() == want.state.tobytes()
    assert played[0] == pieces


def test_reads_end_a_full_segment(split_at, monkeypatch):
    # ten steps, then a read of every qubit: the reads past the sixteenth
    # item go into the next segment
    played = split_at(14)
    n = 14
    instructions = [GateInstruction(q, GateKind.H, (q,)) for q in range(n)]
    instructions += [GateInstruction(0, GateKind.RX, (q,), (0.1 * q + 0.1,)) for q in range(10)]
    instructions += [Probe(0, mode, q, f"{mode}{q}")
                     for mode in ("expectation", "probabilities") for q in range(n)]
    _check(Circuit(n, 0, renumber(instructions)), monkeypatch)
    assert played[0] >= 4


def _with_no_ops(circuit: Circuit) -> Circuit:
    """circuit with a barrier on every qubit and an id after each gate."""
    instructions = []
    every = tuple(range(circuit.num_qubits))
    for instr in circuit.instructions:
        instructions.append(instr)
        if isinstance(instr, GateInstruction) and instr.kind is not GateKind.MEASURE:
            instructions += [GateInstruction(0, GateKind.BARRIER, every),
                             GateInstruction(0, GateKind.ID, instr.qubits[:1])]
    return Circuit(circuit.num_qubits, circuit.num_clbits, renumber(instructions))


def _bare(circuit: Circuit) -> Circuit:
    """A probe-free circuit without its measurements."""
    return Circuit(circuit.num_qubits, circuit.num_clbits, renumber(
        [i for i in circuit.instructions if i.kind is not GateKind.MEASURE]))


def test_no_ops_leave_the_runs_gathering(split_at, monkeypatch):
    # barrier, id and a measurement statevector_of skips end no segment:
    # the same pieces played as without them, and the same bytes
    played = split_at(14)
    rng = np.random.default_rng(77)
    for with_measure in (False, True):
        circuit = _split_circuit(rng, 14, 60, with_measure)
        for plain, padded, play in [
                (circuit, _with_no_ops(circuit), lambda c: simulator.run(c, seed=4)),
                (_bare(strip_probes(circuit)), strip_probes(_with_no_ops(circuit)),
                 lambda c: simulator.RunResult(simulator.statevector_of(c), {}))]:
            played[0] = 0
            want = play(plain)
            pieces = played[0]
            played[0] = 0
            got = play(padded)
            assert played[0] == pieces > 0
            assert repr(got.probes) == repr(want.probes)
            assert got.measurements == want.measurements
            assert got.state.tobytes() == want.state.tobytes()


def test_a_qubit_held_in_zero_keeps_the_run_whole(split_at, monkeypatch):
    # qubit n - 1 stays in |0> throughout, read by probes: the run never
    # splits, so it makes no pool and plays no piece, and its bytes are the
    # unsplit run's
    n = 14
    played = split_at(n)
    made = _count_pools(monkeypatch)
    narrow = _split_circuit(np.random.default_rng(143), n - 1, 60, True).instructions
    held = [Probe(0, mode, n - 1, f"held {mode}") for mode in ("expectation", "probabilities")]
    half = len(narrow) // 2
    circuit = Circuit(n, n - 1, renumber(narrow[:half] + (held[0],) + narrow[half:] + (held[1],)))
    _check(circuit, monkeypatch)
    _check(_bare(strip_probes(circuit)), monkeypatch)
    assert made == []
    assert played[0] == 0


def test_duplicate_label_in_a_segment(split_at, monkeypatch):
    played = split_at(14)
    n = 14
    instructions = [GateInstruction(q, GateKind.H, (q,)) for q in range(n)]
    instructions += [Probe(0, "expectation", 3, "twice"), GateInstruction(0, GateKind.X, (2,)),
                     Probe(0, "probabilities", n - 1, "twice")]
    circuit = Circuit(n, 0, renumber(instructions))
    with pytest.raises(simulator.SimulationError) as got:
        simulator.run(circuit)
    with pytest.raises(simulator.SimulationError) as want:
        kernel_oracle.run(circuit)
    assert str(got.value) == str(want.value) == "duplicate probe label 'twice'"
    # raised as the runs were gathered, before any piece was played
    assert played[0] == 0


def test_a_returned_run_leaves_no_thread(split_at, monkeypatch):
    split_at(14)
    made = _count_pools(monkeypatch)
    before = threading.active_count()
    simulator.run(_split_circuit(np.random.default_rng(5), 14, 30, True))
    assert threading.active_count() == before
    assert len(made) == 1


@pytest.mark.parametrize("side", ["caller", "helper"])
def test_a_raising_step_leaves_no_thread(side, split_at, monkeypatch):
    split_at(14)
    real = simulator.kernel
    real_play = simulator._play
    helper_side = side == "helper"

    def named() -> bool:
        return (threading.current_thread() is not threading.main_thread()) == helper_side

    def failing(kind, params, qubits, num_qubits, block=None):
        step = real(kind, params, qubits, num_qubits, block)
        if num_qubits == 14 or kind is not GateKind.CX:
            return step

        def raising(state):
            # a piece kernel's step, in the thread named by side
            if named():
                raise RuntimeError(f"step failed in the {side} thread")
            step(state)
        return raising

    def holding_up(piece, items):
        # the other thread waits before each task, so the named one takes
        # tasks with a cx step whichever thread is quicker to start
        if not named():
            time.sleep(0.005)
        return real_play(piece, items)

    monkeypatch.setattr(simulator, "kernel", failing)
    monkeypatch.setattr(simulator, "_play", holding_up)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=side):
        simulator.run(_split_circuit(np.random.default_rng(6), 14, 60, False))
    assert threading.active_count() == before


def test_a_held_up_thread_leaves_its_pieces_to_the_other(split_at, monkeypatch):
    # the helper sleeps before each piece it takes: the calling thread plays
    # the upper half's pieces too, and the bytes stay those of one thread
    split_at(14)
    real = simulator._play
    by_thread = {"caller": 0, "helper": 0}

    def held_up(piece, items):
        if threading.current_thread() is threading.main_thread():
            by_thread["caller"] += 1
        else:
            by_thread["helper"] += 1
            time.sleep(0.005)
        return real(piece, items)

    monkeypatch.setattr(simulator, "_play", held_up)
    circuit = _split_circuit(np.random.default_rng(8), 14, 60, True)
    _check(circuit, monkeypatch)
    assert by_thread["caller"] > 2 * by_thread["helper"] > 0


def test_a_time_limit_leaves_no_thread(tmp_path, split_at, monkeypatch, capsys):
    # the alarm goes off inside the split: the helper finishes the one run
    # it holds on one piece, and the circuit is skipped
    played = split_at(16)
    n = 16
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    lines += [f"h q[{q}];" for q in range(n)]
    lines += [f"rx(0.{i % 9 + 1}) q[{i % n}];\ncx q[{i % n}],q[{(i + 5) % n}];"
              for i in range(3000)]
    path = tmp_path / "long.qasm"
    path.write_text("\n".join(lines) + "\n")
    before = threading.active_count()
    code = cli.main(["cover", str(path), "--time-limit", "0.5"])
    assert threading.active_count() == before
    assert code == 0
    assert "time limit" in capsys.readouterr().err
    assert played[0] > 0


@pytest.mark.parametrize("n", [13, 16])
def test_narrower_runs_start_no_thread(n, monkeypatch):
    assert n < simulator._SPLIT_MIN
    made = _count_pools(monkeypatch)
    rng = np.random.default_rng(n)
    before = threading.active_count()
    simulator.run(instrument(transpile(random_circuit(rng, num_qubits=n, num_gates=40))))
    simulator.statevector_of(strip_probes(_split_circuit(rng, n, 30, False)))
    assert threading.active_count() == before
    assert made == []


def _ecr_circuit(rng: np.random.Generator, n: int, count: int) -> Circuit:
    """h on every qubit, then ecr, the dense two-qubit kind with no
    control (transpile rewrites it), and probes on random qubits."""
    instructions = [GateInstruction(q, GateKind.H, (q,)) for q in range(n)]
    for i in range(count):
        qubits = tuple(int(q) for q in rng.choice(n, 2, replace=False))
        instructions.append(GateInstruction(0, GateKind.ECR, qubits))
        instructions.append(Probe(0, "expectation", int(rng.integers(n)), f"p{i}"))
    return Circuit(n, 0, renumber(instructions))


@pytest.mark.parametrize("n, raw", [(16, False), (17, True)])
def test_split_run_holds_one_state(n, raw, split_at):
    # as test_wide_run_holds_one_state, split: both threads' tiles and reads
    # and numpy's own buffers take no more than one thread's did.  A raw
    # circuit keeps ecr, whose tensor step stages 4-row operands; past 16
    # qubits its piece tiles are larger than _BLOCK
    played = split_at(n)
    rng = np.random.default_rng(61)
    probed = (_ecr_circuit(rng, n, 40) if raw else
              instrument(transpile(random_circuit(rng, num_qubits=n, num_gates=80))))
    tracemalloc.start()
    try:
        simulator.run(probed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * (16 << n)
    assert played[0] > 0
