"""Wide runs hold apart the qubits still in |0> (simulator._Live).

Against kernel_oracle's full-width loop they must give the same probe logs
(by repr), the same measurements and equal states (only the sign of an
exact zero may differ), and run(probed).state must be byte-equal to
statevector_of(strip_probes(probed)).
"""
import tracemalloc

import numpy as np
import pytest

import kernel_oracle
from corpus_util import build, random_circuit, renumber
from test_kernels import KINDS, _circuits
from qcover import gates, simulator
from qcover.ir import SPECS, Circuit, GateInstruction, GateKind
from qcover.probes import instrument, strip_probes
from qcover.transpiler import transpile


def _uniform_circuit(rng: np.random.Generator, n: int, count: int,
                     with_measure: bool = False) -> Circuit:
    """Kinds drawn uniformly, so most gates are controlled, monomial or
    diagonal and meet classical operands."""
    instructions = []
    for i in range(count):
        kind = KINDS[rng.integers(len(KINDS))]
        spec = SPECS[kind]
        qubits = tuple(int(q) for q in rng.choice(n, spec.num_qubits, replace=False))
        params = tuple(float(v) for v in rng.uniform(-np.pi, np.pi, spec.num_params))
        instructions.append(GateInstruction(i, kind, qubits, params))
    if with_measure:
        for q in (0, n - 1):
            instructions.append(GateInstruction(len(instructions), GateKind.MEASURE,
                                                (q,), (), (q,)))
    return Circuit(n, n if with_measure else 0, tuple(instructions))


def _ghz_like(n: int, with_measure: bool) -> Circuit:
    """Phases and flips on basis states, then a GHZ chain: the final state
    has two nonzero amplitudes."""
    ops = [(GateKind.X, (3,), ()), (GateKind.T, (3,), ()), (GateKind.P, (3,), (0.7,)),
           (GateKind.CH, (3, 0), ()), (GateKind.CCX, (0, 3, 5), ()),
           (GateKind.CP, (4, 0), (0.4,)), (GateKind.CSWAP, (3, 5, 6), ()),
           (GateKind.RZ, (6,), (0.3,)), (GateKind.Y, (6,), ())]
    ops += [(GateKind.CX, (q, q + 1), ()) for q in range(n - 1)]
    instructions = [GateInstruction(i, kind, qubits, params)
                    for i, (kind, qubits, params) in enumerate(ops)]
    if with_measure:
        instructions.append(GateInstruction(len(instructions), GateKind.MEASURE,
                                            (n - 1,), (), (0,)))
    return Circuit(n, 1 if with_measure else 0, tuple(instructions))


def _check(circuit: Circuit, seed: int = 5) -> None:
    got = simulator.run(circuit, seed=seed)
    want = kernel_oracle.run(circuit, seed=seed)
    assert repr(got.probes) == repr(want.probes)
    assert got.measurements == want.measurements
    assert np.array_equal(got.state, want.state)
    bare = strip_probes(circuit)
    if not any(i.kind is GateKind.MEASURE for i in bare.instructions):
        assert got.state.tobytes() == simulator.statevector_of(bare).tobytes()


@pytest.fixture
def held(monkeypatch):
    """How many gates left their |0> operands there, with no kernel() step."""
    count = [0]
    real = simulator._Live._keeps_zero

    def counting(self, kind, params, qubits):
        done = real(self, kind, params, qubits)
        count[0] += done
        return done

    monkeypatch.setattr(simulator._Live, "_keeps_zero", counting)
    return count


@pytest.mark.parametrize("n", [14, 15, 16])
def test_wide_runs_match_the_full_width_loop(n, held):
    rng = np.random.default_rng(n)
    for with_measure in (False, True):
        circuit = random_circuit(rng, num_qubits=n, num_gates=40,
                                 with_measure=with_measure)
        _check(circuit)
        _check(instrument(transpile(circuit)))
    assert held[0] > 0


def test_runs_up_to_thirteen_qubits_hold_no_bits(held):
    # on small states the bookkeeping costs more than it saves: they keep
    # every qubit live from the start
    rng = np.random.default_rng(13)
    circuit = _uniform_circuit(rng, 13, 60, with_measure=True)
    _check(circuit)
    _check(instrument(transpile(circuit)))
    assert held[0] == 0


def test_uniform_kinds_at_fourteen_qubits(held):
    rng = np.random.default_rng(140)
    for i in range(4):
        circuit = _uniform_circuit(rng, 14, 80, with_measure=bool(i % 2))
        _check(circuit)
        _check(instrument(transpile(circuit)))
    assert held[0] > 0


@pytest.mark.parametrize("with_measure", [False, True])
def test_ghz_like_state_of_exact_zeros(with_measure):
    circuit = _ghz_like(15, with_measure)
    _check(circuit)
    _check(instrument(transpile(circuit)))
    state = simulator.run(circuit).state
    assert np.count_nonzero(state) <= 2


def test_small_widths_with_tiny_tiles(monkeypatch, held):
    # eight amplitudes a tile: the live-qubit engine runs from 5 qubits up
    monkeypatch.setattr(simulator, "_BLOCK", 8)
    rng = np.random.default_rng(8)
    circuits = [circuit for _, circuit in _circuits()]
    circuits += [_uniform_circuit(rng, int(rng.integers(5, 8)), 40, bool(i % 2))
                 for i in range(100)]
    for circuit in circuits:
        _check(circuit)
        _check(instrument(transpile(circuit)))
    assert held[0] > 0


def test_expansion_moves_the_block_in_place():
    # block row r moves to row 2r, and zeros fill the half where qubit 9
    # reads 1, over what lay past the old block
    n = 16
    rng = np.random.default_rng(16)
    state = simulator.zero_state(n)
    live = simulator._Live(state, n, True)
    for q in range(n):
        if q != 9:
            live._expand(q)
    block = rng.normal(size=1 << (n - 1)) + 1j * rng.normal(size=1 << (n - 1))
    state[:block.size] = block
    state[block.size:] = 7.0
    tracemalloc.start()
    try:
        live._expand(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4096, peak
    want = np.zeros((1 << (n - 10), 2, 1 << 9), complex)
    want[:, 0, :] = block.reshape(-1, 1 << 9)
    assert state.tobytes() == want.reshape(-1).tobytes()


# gates on |0> operands that leave them there: rz scales the block, the
# others leave it as it is; u, rx and ry at angle 0 take a dense kernel at
# full width
_KEEPING = [(GateKind.U, (0.0, 0.8, -1.3)), (GateKind.RX, (0.0,)),
            (GateKind.RY, (0.0,)), (GateKind.RZ, (0.9,)), (GateKind.P, (-0.4,)),
            (GateKind.Z, ()), (GateKind.SWAP, ()), (GateKind.DCX, ()),
            (GateKind.RCCX, ()), (GateKind.RCCCX, ())]
# controlled kinds met with their controls flipped to 1 by an x or a y
_FLIPPED = [(GateKind.CX, ()), (GateKind.CH, ()), (GateKind.CCX, ()),
            (GateKind.CSWAP, ()), (GateKind.CRY, (0.7,)), (GateKind.CZ, ())]


def _zero_prefix_circuit(rng: np.random.Generator, i: int, n: int = 15,
                         with_measure: bool = False) -> Circuit:
    """Every _KEEPING gate on |0> operands, then three _FLIPPED patterns on
    fresh qubits, then random_circuit gates."""
    ops = []
    for j in rng.permutation(len(_KEEPING)):
        kind, params = _KEEPING[j]
        qubits = [int(q) for q in rng.choice(n, SPECS[kind].num_qubits, replace=False)]
        ops.append((kind, qubits, params))
    fresh = [int(q) for q in rng.permutation(n)]
    for j in range(i, i + 3):
        kind, params = _FLIPPED[j % len(_FLIPPED)]
        spec = SPECS[kind]
        qubits, fresh = fresh[:spec.num_qubits], fresh[spec.num_qubits:]
        for c in spec.controls:
            ops.append(((GateKind.X, GateKind.Y)[int(rng.integers(2))], (qubits[c],)))
        ops.append((kind, qubits, params))
    tail = random_circuit(rng, num_qubits=n, num_gates=30, with_measure=with_measure)
    return Circuit(n, tail.num_clbits,
                   renumber(build(n, 0, ops).instructions + tail.instructions))


def test_gates_that_keep_zero_match_the_full_width_loop(held):
    rng = np.random.default_rng(21)
    for i in range(60):
        circuit = _zero_prefix_circuit(rng, i, with_measure=bool(i % 2))
        _check(circuit)
        _check(instrument(transpile(circuit)))
    assert held[0] > 0


def test_gates_that_keep_zero_build_no_step(monkeypatch):
    built = []
    real = simulator.kernel

    def counting(*args):
        built.append(args[0])
        return real(*args)

    monkeypatch.setattr(simulator, "kernel", counting)
    n = 15
    ops = [(GateKind.P, (3,), (0.5,)), (GateKind.RZ, (4,), (0.3,)),
           (GateKind.S, (5,), ()), (GateKind.Z, (6,), ()), (GateKind.SWAP, (7, 8), ()),
           (GateKind.CZ, (9, 10), ()), (GateKind.CH, (11, 2), ())]
    live = simulator._Live(simulator.zero_state(n), n, True)
    for kind, qubits, params in ops:
        live.apply(kind, params, qubits)
    assert built == []
    # rz scaled the block, widened to _SPARE live qubits first
    assert live.live == [0, 1]
    live.apply(GateKind.X, (), (5,))
    assert built == [GateKind.X]
    assert live.live == [0, 1, 5] and 5 not in live.zero
    want = kernel_oracle.run(build(n, 0, ops + [(GateKind.X, (5,))])).state
    assert np.array_equal(live.expanded(), want)


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_run_holds_one_state():
    # the state, marginal's half-size float buffer and a kernel's tiles
    n = 16
    rng = np.random.default_rng(61)
    probed = instrument(transpile(random_circuit(rng, num_qubits=n, num_gates=80)))
    assert _peak(lambda: simulator.run(probed)) <= 1.6 * (16 << n)


def test_controlled_kinds_take_no_state_size_temporary():
    n = 16
    instructions = [GateInstruction(q, GateKind.H, (q,)) for q in range(n)]
    for i in range(24):
        kind, params = (GateKind.CH, ()) if i % 2 else (GateKind.CP, (0.3 * i,))
        instructions.append(GateInstruction(n + i, kind, (i % n, (i + 5) % n), params))
    circuit = Circuit(n, 0, tuple(instructions))
    assert _peak(lambda: simulator.statevector_of(circuit)) < 2.0 * (16 << n)
    assert np.array_equal(simulator.statevector_of(circuit),
                          kernel_oracle.run(circuit).state)


def _complex(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_blas_gives_a_column_the_same_bits_in_any_multiple_of_four():
    # the tiles and the live block (widened by _SPARE) multiply fewer columns
    # than the full-width kernel, always a power of two: they keep its bits
    # only while a column's product does not depend on the column count.
    # The count's last c % 4 columns take another path and round apart.
    rng = np.random.default_rng(4)
    counts = sorted(set(range(4, 257, 4)) | set(range(260, simulator._BLOCK, 244))
                    | {simulator._BLOCK})
    for k in range(1, 5):
        m = _complex(rng, (1 << k, 1 << k))
        x = _complex(rng, (1 << k, simulator._BLOCK))
        whole = m @ x
        for c in counts:
            part = m @ np.ascontiguousarray(x[:, :c])
            assert part.tobytes() == np.ascontiguousarray(whole[:, :c]).tobytes(), (k, c)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def test_numpy_sums_a_power_of_two_as_its_two_halves_added():
    # a split run's read: each piece's part of what marginal() sums is summed
    # apart, and the sums are added pairwise (simulator._combine).  numpy's
    # pairwise sum of more than 128 contiguous floats makes that same
    # addition at the midpoint, and again in each half down to the pieces.
    rng = np.random.default_rng(20)
    for k in range(8, 21):
        a = np.square(np.abs(_complex(rng, (1 << k,))))
        h = a.size // 2
        assert _bits(a.sum()) == _bits(a[:h].sum() + a[h:].sum()), k
        # marginal()'s (high, low) buffer: the rows where the top qubit
        # reads 0 come first
        for low in (1, 1 << 3, 1 << (k - 1)):
            buf = a.reshape(-1, low)
            rows = len(buf) // 2
            assert _bits(buf.sum()) == _bits(buf[:rows].sum() + buf[rows:].sum()), (k, low)


@pytest.mark.parametrize("kind", sorted(simulator._SECTOR, key=lambda kind: kind.value))
def test_blas_gives_a_sector_row_the_bits_of_the_full_matrix(kind):
    # the sector kernel multiplies the controls-one rows alone; off them the
    # full matrix's row holds exact zeros
    rng = np.random.default_rng(len(kind.value))
    spec = SPECS[kind]
    mat = gates.matrix(kind, tuple(rng.uniform(-np.pi, np.pi, spec.num_params)))
    rows = simulator._fixed_rows(spec.num_qubits, spec.controls)[0].reshape(-1)
    for c in (4, 8, 64, simulator._BLOCK):
        x = _complex(rng, (len(mat), c))
        sector = simulator._fix(mat, spec.controls) @ x[rows]
        assert sector.tobytes() == (mat @ x)[rows].tobytes(), c


def test_sector_kinds_are_the_plainly_controlled_ones():
    assert set(simulator._SECTOR) == {
        kind for kind, spec in SPECS.items() if spec.controls} - {
        GateKind.RCCX, GateKind.RCCCX}
    for kind, controls in simulator._SECTOR.items():
        assert controls == SPECS[kind].controls
