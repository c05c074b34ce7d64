"""
Dense statevector simulator with non-collapsing probes.

State layout is little-endian: amplitude index bit q holds the basis value of
qubit q.  Gates are applied in place through stride-based views (1-qubit,
diagonal-phase, and cx fast paths) with a generic tensor kernel for every
other arity; probes read Z-basis marginals without touching the amplitudes;
measurement collapses its qubit using a seeded generator.

A run is single-shot: probe values come from the simulated state itself, so
repeated sampling adds nothing to coverage.  sample_counts() exists for
measurement histograms only.
"""
from __future__ import annotations

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
    p0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
    p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    return p0, p1


def apply_gate(state: np.ndarray, kind: GateKind,
               params: tuple[float, ...], qubits: tuple[int, ...]) -> None:
    """Apply one gate in place.  Barriers and id are no-ops."""
    if kind in (GateKind.BARRIER, GateKind.ID):
        return
    if kind is GateKind.MEASURE:
        raise SimulationError("apply_gate cannot process measurements")

    if kind is GateKind.CX:
        _apply_cx(state, qubits[0], qubits[1])
        return
    if kind is GateKind.P:
        view = state.reshape(-1, 2, 1 << qubits[0])
        view[:, 1, :] *= np.exp(1j * params[0])
        return
    mat = gates.matrix(kind, params)
    if len(qubits) == 1:
        _apply_1q(state, mat, qubits[0])
    else:
        _apply_kq(state, mat, qubits)


def _apply_1q(state: np.ndarray, mat: np.ndarray, qubit: int) -> None:
    view = state.reshape(-1, 2, 1 << qubit)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = mat[0, 0] * lo + mat[0, 1] * hi
    view[:, 1, :] = mat[1, 0] * lo + mat[1, 1] * hi


def _apply_cx(state: np.ndarray, control: int, target: int) -> None:
    n = state.size.bit_length() - 1
    psi = state.reshape((2,) * n)
    sel0 = [slice(None)] * n
    sel0[n - 1 - control] = 1
    sel1 = list(sel0)
    sel0[n - 1 - target] = 0
    sel1[n - 1 - target] = 1
    tmp = psi[tuple(sel0)].copy()
    psi[tuple(sel0)] = psi[tuple(sel1)]
    psi[tuple(sel1)] = tmp


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

    for instr in circuit.instructions:
        if isinstance(instr, Probe):
            if instr.label in log:
                raise SimulationError(f"duplicate probe label {instr.label!r}")
            p0, p1 = marginal(state, instr.qubit)
            log[instr.label] = (p0 - p1) if instr.mode == "expectation" else (p0, p1)
            continue
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
                  qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> dict[str, int]:
    """Measurement histogram over repeated seeded runs (clbit 0 rightmost)."""
    if not circuit.num_clbits:
        return {}
    counts: dict[str, int] = {}
    for shot in range(shots):
        result = run(circuit, seed=seed + shot, qubit_limit=qubit_limit)
        bits = ["0"] * circuit.num_clbits
        for clbit, value in result.measurements.items():
            bits[circuit.num_clbits - 1 - clbit] = str(value)
        key = "".join(bits)
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
