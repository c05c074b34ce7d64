"""
Dense statevector simulator with non-collapsing probes.

State layout is little-endian: amplitude index bit q holds the basis value of
qubit q.  Gates are applied in place through stride-based views:

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
measurement histograms only.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .ir import Circuit, GateKind, Probe

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


def apply_gate(state: np.ndarray, kind: GateKind,
               params: tuple[float, ...], qubits: tuple[int, ...]) -> None:
    """Apply one gate in place.  Barriers and id are no-ops."""
    if kind in (GateKind.BARRIER, GateKind.ID):
        return
    if kind is GateKind.MEASURE:
        raise SimulationError("apply_gate cannot process measurements")

    if kind is GateKind.CX:
        _swap_sectors(state, qubits[0], qubits[1], (1, 0), (1, 1))
        return
    if kind is GateKind.SWAP:
        _swap_sectors(state, qubits[0], qubits[1], (1, 0), (0, 1))
        return
    if kind is GateKind.X:
        view = state.reshape(-1, 2, 1 << qubits[0])
        lo = view[:, 0, :].copy()
        view[:, 0, :] = view[:, 1, :]
        view[:, 1, :] = lo
        return
    if kind is GateKind.P:
        view = state.reshape(-1, 2, 1 << qubits[0])
        view[:, 1, :] *= np.exp(1j * params[0])
        return
    mat = gates.matrix(kind, params)
    if kind in _DIAGONAL:
        _apply_diagonal(state, mat, qubits[0])
    elif len(qubits) == 1:
        _apply_1q(state, mat, qubits[0])
    else:
        _apply_kq(state, mat, qubits)


def _apply_diagonal(state: np.ndarray, mat: np.ndarray, qubit: int) -> None:
    # mat[b, b] * half with the scalar first, as the dense kernel multiplies;
    # `half *= mat[b, b]` can round differently in numpy's SIMD loops
    view = state.reshape(-1, 2, 1 << qubit)
    for b in (0, 1):
        if mat[b, b] != 1:
            half = view[:, b, :]
            np.multiply(mat[b, b], half, out=half)


def _apply_1q(state: np.ndarray, mat: np.ndarray, qubit: int) -> None:
    view = state.reshape(-1, 2, 1 << qubit)
    lo = view[:, 0, :]
    hi = view[:, 1, :]
    # mat[i, j] * half in that operand order, into two half-size buffers
    new_lo = np.multiply(mat[0, 0], lo)
    buf = np.multiply(mat[0, 1], hi)
    np.add(new_lo, buf, out=new_lo)
    np.multiply(mat[1, 0], lo, out=buf)
    np.multiply(mat[1, 1], hi, out=hi)
    np.add(buf, hi, out=hi)
    lo[...] = new_lo


def _swap_sectors(state: np.ndarray, qa: int, qb: int,
                  first: tuple[int, int], second: tuple[int, int]) -> None:
    """Exchange the amplitudes where (qa, qb) read `first` with those reading `second`."""
    if qa < qb:
        qa, qb = qb, qa
        first, second = first[::-1], second[::-1]
    view = state.reshape(-1, 2, 1 << (qa - qb - 1), 2, 1 << qb)
    a = view[:, first[0], :, first[1], :]
    b = view[:, second[0], :, second[1], :]
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def _apply_kq(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...]) -> None:
    n = state.size.bit_length() - 1
    k = len(qubits)
    psi = state.reshape((2,) * n)
    # operand i lives on tensor axis n-1-qubits[i]; flatten the operand axes
    # most-significant-first so the flattened index is little-endian in i
    front = [n - 1 - qubits[i] for i in reversed(range(k))]
    moved = np.moveaxis(psi, front, range(k))
    tail_shape = moved.shape[k:]
    flat = moved.reshape(1 << k, -1)
    result = (mat @ flat).reshape((2,) * k + tail_shape)
    np.copyto(psi, np.moveaxis(result, range(k), front))


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


def run(circuit: Circuit, initial: np.ndarray | None = None, *,
        seed: int = 0, qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> RunResult:
    """Execute a circuit in one pass, recording probe values and measurements.

    Probes never modify the state; stripping them from the circuit yields a
    bitwise-identical final statevector.
    """
    n = circuit.num_qubits
    if n > qubit_limit:
        raise SimulationError(f"{n} qubits exceeds the limit of {qubit_limit}")
    state = zero_state(n) if initial is None else _check_initial(initial, n)
    rng = np.random.default_rng(seed)
    log: ProbeLog = {}
    measurements: dict[int, int] = {}
    # marginals read since the last non-probe instruction, by qubit
    reads: dict[int, tuple[float, float]] = {}

    for instr in circuit.instructions:
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

    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise SimulationError("statevector norm drifted beyond 1e-10")
    return RunResult(state, log, measurements)


def check_statevector_input(circuit: Circuit, qubit_limit: int) -> None:
    """Raise SimulationError unless statevector_of accepts the circuit."""
    if circuit.has_probes():
        raise SimulationError("statevector_of expects a probe-free circuit")
    n = circuit.num_qubits
    if n > qubit_limit:
        raise SimulationError(f"{n} qubits exceeds the limit of {qubit_limit}")


def statevector_of(circuit: Circuit, *,
                   qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> np.ndarray:
    """Final pre-measurement statevector from the all-zero input.

    Measurements are skipped (the state is taken before any collapse);
    probes are not allowed.
    """
    check_statevector_input(circuit, qubit_limit)
    state = zero_state(circuit.num_qubits)
    for instr in circuit.instructions:
        if instr.kind is GateKind.MEASURE:
            continue
        apply_gate(state, instr.kind, instr.params, instr.qubits)
    return state


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|: equals 1.0 iff the states are equal up to global phase."""
    return float(abs(np.vdot(a, b)))


def sample_counts(circuit: Circuit, shots: int, *, seed: int = 0,
                  qubit_limit: int = DEFAULT_QUBIT_LIMIT,
                  check: Callable[[], None] | None = None) -> dict[str, int]:
    """Measurement histogram over repeated seeded runs (clbit 0 rightmost).

    Shot i runs with seed + i.  `check`, when given, is called before every
    shot; an exception from it stops the sampling.
    """
    if not circuit.num_clbits:
        return {}
    counts: dict[str, int] = {}
    for shot in range(shots):
        if check is not None:
            check()
        result = run(circuit, seed=seed + shot, qubit_limit=qubit_limit)
        bits = ["0"] * circuit.num_clbits
        for clbit, value in result.measurements.items():
            bits[circuit.num_clbits - 1 - clbit] = str(value)
        key = "".join(bits)
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
