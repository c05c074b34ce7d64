"""
Dense statevector simulator with non-collapsing probes.

State layout is little-endian: amplitude index bit q holds the basis value of
qubit q.  kernel() binds one gate to its operands and a state width: it
works out the matrix or scalar factors, the view shapes, the sector indices
and the axis orders once and returns a step that applies the gate in place
(barrier and id share one that does nothing; measure has none).  gate_ops()
is a circuit's gate list, the kernel() arguments of every instruction but
measurements and barriers; statevector_of() applies it, and the mutation
judge reads it once per circuit.  Steps apply gates through stride-based
views:

- cx and swap exchange two sectors of a (high, low) qubit pair, and x
  exchanges the two halves of its qubit, moving data without arithmetic;
- p, z, s, sdg, t, tdg and rz scale the half (or halves) whose diagonal
  entry is not 1;
- every other one-qubit kind takes a dense 2x2 kernel;
- every other multi-qubit kind takes a generic tensor kernel (BLAS matmul).

Probes read Z-basis marginals without touching the amplitudes; probes with
no instruction between them share one marginal read per qubit.  Measurement
collapses its qubit using a seeded generator.  The kernels give the same
amplitudes as the plain 2x2 and tensor products they replace
(tests/kernel_oracle.py), equal in value (only the sign of an exact zero
may differ), so no output depends on which path a gate took.

A run is single-shot: probe values come from the simulated state itself, so
repeated sampling adds nothing to coverage.  sample_counts() exists for
measurement histograms only; its shots share the state before the first
measurement.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .ir import Circuit, GateInstruction, GateKind, Instruction, Probe

DEFAULT_QUBIT_LIMIT = 26

ProbeValue = float | tuple[float, float]
ProbeLog = dict[str, ProbeValue]


class SimulationError(Exception):
    pass


@dataclass
class RunResult:
    state: np.ndarray
    probes: ProbeLog
    measurements: dict[int, int] = field(default_factory=dict)


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def marginal(state: np.ndarray, qubit: int) -> tuple[float, float]:
    """Z-basis probabilities (p0, p1) of one qubit."""
    view = state.reshape(-1, 2, 1 << qubit)
    buf = np.empty(view[:, 0, :].shape)
    probs = []
    for half in (view[:, 0, :], view[:, 1, :]):
        np.abs(half, out=buf)
        np.square(buf, out=buf)
        probs.append(float(buf.sum()))
    return probs[0], probs[1]


# one-qubit kinds with a diagonal matrix: each half is scaled, never mixed
_DIAGONAL = frozenset((GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T,
                       GateKind.TDG, GateKind.RZ))

Step = Callable[[np.ndarray], None]

# index tuples into a (high, 2, low) view: the half where the qubit reads 0 or 1
_HALF = ((slice(None), 0, slice(None)), (slice(None), 1, slice(None)))


# kernel() arguments of one gate: kind, params, qubits
Op = tuple[GateKind, tuple[float, ...], tuple[int, ...]]


def _no_op(state: np.ndarray) -> None:
    """The step of barrier and id."""


def kernel(kind: GateKind, params: tuple[float, ...], qubits: tuple[int, ...],
           num_qubits: int) -> Step:
    """One gate bound to its operands: a step that applies it in place to
    any state of num_qubits qubits (barrier and id do nothing).

    The matrix or scalar factors, view shapes, sector indices and axis
    orders are worked out here, once, so replaying a step costs only its
    numpy calls.  Raises SimulationError for a measurement.
    """
    if kind in (GateKind.BARRIER, GateKind.ID):
        return _no_op
    if kind is GateKind.MEASURE:
        raise SimulationError("apply_gate cannot process measurements")
    if kind is GateKind.CX:
        return _swap_sectors(qubits[0], qubits[1], (1, 0), (1, 1))
    if kind is GateKind.SWAP:
        return _swap_sectors(qubits[0], qubits[1], (1, 0), (0, 1))
    if kind is GateKind.X:
        return _flip(qubits[0])
    if kind is GateKind.P:
        return _phase(qubits[0], np.exp(1j * params[0]))
    mat = gates.matrix(kind, params)
    if kind in _DIAGONAL:
        return _diagonal(mat, qubits[0])
    if len(qubits) == 1:
        return _dense_1q(mat, qubits[0])
    return _dense_kq(mat, qubits, num_qubits)


def apply_gate(state: np.ndarray, kind: GateKind,
               params: tuple[float, ...], qubits: tuple[int, ...]) -> None:
    """Apply one gate in place.  Barriers and id are no-ops."""
    kernel(kind, params, qubits, state.size.bit_length() - 1)(state)


def _flip(qubit: int) -> Step:
    shape = (-1, 2, 1 << qubit)
    lo_half, hi_half = _HALF

    def step(state: np.ndarray) -> None:
        view = state.reshape(shape)
        lo = view[lo_half].copy()
        view[lo_half] = view[hi_half]
        view[hi_half] = lo
    return step


def _phase(qubit: int, factor: complex) -> Step:
    shape = (-1, 2, 1 << qubit)
    hi_half = _HALF[1]

    def step(state: np.ndarray) -> None:
        half = state.reshape(shape)[hi_half]
        half *= factor
    return step


def _diagonal(mat: np.ndarray, qubit: int) -> Step:
    # mat[b, b] * half with the scalar first, as the dense kernel multiplies;
    # `half *= mat[b, b]` can round differently in numpy's SIMD loops
    shape = (-1, 2, 1 << qubit)
    scaled = [(_HALF[b], mat[b, b]) for b in (0, 1) if mat[b, b] != 1]

    def step(state: np.ndarray) -> None:
        view = state.reshape(shape)
        for index, factor in scaled:
            half = view[index]
            np.multiply(factor, half, out=half)
    return step


def _dense_1q(mat: np.ndarray, qubit: int) -> Step:
    shape = (-1, 2, 1 << qubit)
    lo_half, hi_half = _HALF
    m00, m01, m10, m11 = mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1]

    def step(state: np.ndarray) -> None:
        view = state.reshape(shape)
        lo = view[lo_half]
        hi = view[hi_half]
        # mat[i, j] * half in that operand order, into two half-size buffers
        new_lo = np.multiply(m00, lo)
        buf = np.multiply(m01, hi)
        np.add(new_lo, buf, out=new_lo)
        np.multiply(m10, lo, out=buf)
        np.multiply(m11, hi, out=hi)
        np.add(buf, hi, out=hi)
        lo[...] = new_lo
    return step


def _swap_sectors(qa: int, qb: int, first: tuple[int, int],
                  second: tuple[int, int]) -> Step:
    """Exchange the amplitudes where (qa, qb) read `first` with those reading `second`."""
    if qa < qb:
        qa, qb = qb, qa
        first, second = first[::-1], second[::-1]
    shape = (-1, 2, 1 << (qa - qb - 1), 2, 1 << qb)
    every = slice(None)
    index_a = (every, first[0], every, first[1], every)
    index_b = (every, second[0], every, second[1], every)

    def step(state: np.ndarray) -> None:
        view = state.reshape(shape)
        a = view[index_a]
        b = view[index_b]
        tmp = a.copy()
        a[...] = b
        b[...] = tmp
    return step


def _dense_kq(mat: np.ndarray, qubits: tuple[int, ...], n: int) -> Step:
    k = len(qubits)
    tensor = (2,) * n
    flat = (1 << k, -1)
    # operand i lives on tensor axis n-1-qubits[i]; bring the operand axes to
    # the front most-significant-first, so the flattened index is
    # little-endian in i, and put them back with the inverse order
    front = [n - 1 - qubits[i] for i in reversed(range(k))]
    order = front + [axis for axis in range(n) if axis not in front]
    inverse = [order.index(axis) for axis in range(n)]

    def step(state: np.ndarray) -> None:
        psi = state.reshape(tensor)
        result = mat @ psi.transpose(order).reshape(flat)
        np.copyto(psi, result.reshape(tensor).transpose(inverse))
    return step


def _measure(state: np.ndarray, qubit: int, rng: np.random.Generator) -> int:
    p0, p1 = marginal(state, qubit)
    outcome = 1 if rng.random() < p1 else 0
    view = state.reshape(-1, 2, 1 << qubit)
    view[:, 1 - outcome, :] = 0.0
    norm = np.sqrt(p1 if outcome else p0)
    if norm > 1e-12:
        state /= norm
    return outcome


def _check_initial(initial: np.ndarray, num_qubits: int) -> np.ndarray:
    state = np.asarray(initial, dtype=np.complex128).reshape(-1).copy()
    if state.size != 1 << num_qubits:
        raise SimulationError(
            f"initial state has {state.size} amplitudes, expected {1 << num_qubits}")
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise SimulationError("initial state is not normalized")
    return state


def _check_width(num_qubits: int, qubit_limit: int) -> None:
    if num_qubits > qubit_limit:
        raise SimulationError(f"{num_qubits} qubits exceeds the limit of {qubit_limit}")


def _check_norm(state: np.ndarray) -> None:
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise SimulationError("statevector norm drifted beyond 1e-10")


def _execute(instructions: tuple[Instruction, ...], state: np.ndarray,
             rng: np.random.Generator | None, log: ProbeLog,
             measurements: dict[int, int]) -> None:
    """Run instructions on state in place, adding to log and measurements."""
    # marginals read since the last non-probe instruction, by qubit
    reads: dict[int, tuple[float, float]] = {}
    for instr in instructions:
        if isinstance(instr, Probe):
            if instr.label in log:
                raise SimulationError(f"duplicate probe label {instr.label!r}")
            if instr.qubit not in reads:
                reads[instr.qubit] = marginal(state, instr.qubit)
            p0, p1 = reads[instr.qubit]
            log[instr.label] = (p0 - p1) if instr.mode == "expectation" else (p0, p1)
            continue
        reads.clear()
        if instr.kind is GateKind.MEASURE:
            measurements[instr.clbits[0]] = _measure(state, instr.qubits[0], rng)
            continue
        apply_gate(state, instr.kind, instr.params, instr.qubits)


def run(circuit: Circuit, initial: np.ndarray | None = None, *,
        seed: int = 0, qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> RunResult:
    """Execute a circuit in one pass, recording probe values and measurements.

    Probes never modify the state; stripping them from the circuit yields a
    bitwise-identical final statevector.
    """
    n = circuit.num_qubits
    _check_width(n, qubit_limit)
    state = zero_state(n) if initial is None else _check_initial(initial, n)
    log: ProbeLog = {}
    measurements: dict[int, int] = {}
    _execute(circuit.instructions, state, np.random.default_rng(seed), log,
             measurements)
    _check_norm(state)
    return RunResult(state, log, measurements)


def gate_ops(circuit: Circuit, qubit_limit: int) -> list[Op]:
    """kernel() arguments of every instruction except measurements and
    barriers, in order: what statevector_of applies.

    Raises SimulationError for a circuit with probes, then for one wider
    than qubit_limit.
    """
    ops: list[Op] = []
    for instr in circuit.instructions:
        if isinstance(instr, Probe):
            raise SimulationError("statevector_of expects a probe-free circuit")
        if instr.kind not in (GateKind.MEASURE, GateKind.BARRIER):
            ops.append((instr.kind, instr.params, instr.qubits))
    _check_width(circuit.num_qubits, qubit_limit)
    return ops


def statevector_of(circuit: Circuit, *,
                   qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> np.ndarray:
    """Final pre-measurement statevector from the all-zero input.

    Measurements are skipped (the state is taken before any collapse);
    probes are not allowed.
    """
    ops = gate_ops(circuit, qubit_limit)
    state = zero_state(circuit.num_qubits)
    for op in ops:
        kernel(*op, circuit.num_qubits)(state)
    return state


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|: equals 1.0 iff the states are equal up to global phase."""
    return float(abs(np.vdot(a, b)))


def sample_counts(circuit: Circuit, shots: int, *, seed: int = 0,
                  qubit_limit: int = DEFAULT_QUBIT_LIMIT,
                  check: Callable[[], None] | None = None) -> dict[str, int]:
    """Measurement histogram over repeated seeded runs (clbit 0 rightmost).

    Shot i equals run(circuit, seed=seed + i).  Nothing draws from the
    generator before the first measurement, so the instructions before it
    are simulated once, on the first shot, and every shot continues from a
    copy of that pre-measurement state (and its probe log).  `check`, when
    given, is called before every shot; an exception from it stops the
    sampling.
    """
    if not circuit.num_clbits:
        return {}
    instructions = circuit.instructions
    first = next((pos for pos, instr in enumerate(instructions)
                  if isinstance(instr, GateInstruction)
                  and instr.kind is GateKind.MEASURE), len(instructions))
    counts: dict[str, int] = {}
    head: RunResult | None = None
    for shot in range(shots):
        if check is not None:
            check()
        if head is None:
            _check_width(circuit.num_qubits, qubit_limit)
            head = RunResult(zero_state(circuit.num_qubits), {})
            _execute(instructions[:first], head.state, None, head.probes,
                     head.measurements)
        state, log = head.state.copy(), dict(head.probes)
        measurements: dict[int, int] = {}
        _execute(instructions[first:], state, np.random.default_rng(seed + shot),
                 log, measurements)
        _check_norm(state)
        bits = ["0"] * circuit.num_clbits
        for clbit, value in measurements.items():
            bits[circuit.num_clbits - 1 - clbit] = str(value)
        key = "".join(bits)
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
