"""The simulator's earlier kernels and probe loop, kept as the differential
oracle for the data-move, phase and dense kernels in qcover.simulator.

Every one-qubit kind other than p takes the dense 2x2 path here, cx and
swap move amplitudes by n-dimensional tuple indexing or through the tensor
kernel, the tensor kernel moves the operand axes with np.moveaxis on every
call, and every probe label reads its own marginal.  The fast kernels
must give states equal to these in value (the sign of an exact zero may
differ) and the same probe logs.
"""
from __future__ import annotations

import numpy as np

from qcover import gates
from qcover.ir import Circuit, GateKind, Probe
from qcover.simulator import RunResult, SimulationError, _check_initial, zero_state


def marginal(state: np.ndarray, qubit: int) -> tuple[float, float]:
    view = state.reshape(-1, 2, 1 << qubit)
    p0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
    p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    return p0, p1


def apply_gate(state: np.ndarray, kind: GateKind,
               params: tuple[float, ...], qubits: tuple[int, ...]) -> None:
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


def _apply_kq(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...]) -> None:
    n = state.size.bit_length() - 1
    k = len(qubits)
    psi = state.reshape((2,) * n)
    front = [n - 1 - qubits[i] for i in reversed(range(k))]
    moved = np.moveaxis(psi, front, range(k))
    tail_shape = moved.shape[k:]
    flat = moved.reshape(1 << k, -1)
    result = (mat @ flat).reshape((2,) * k + tail_shape)
    np.copyto(psi, np.moveaxis(result, range(k), front))


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


def _measure(state: np.ndarray, qubit: int, rng: np.random.Generator) -> int:
    p0, p1 = marginal(state, qubit)
    outcome = 1 if rng.random() < p1 else 0
    view = state.reshape(-1, 2, 1 << qubit)
    view[:, 1 - outcome, :] = 0.0
    norm = np.sqrt(p1 if outcome else p0)
    if norm > 1e-12:
        state /= norm
    return outcome


def run(circuit: Circuit, initial: np.ndarray | None = None, *,
        seed: int = 0) -> RunResult:
    """simulator.run with one marginal read per probe label."""
    n = circuit.num_qubits
    state = zero_state(n) if initial is None else _check_initial(initial, n)
    rng = np.random.default_rng(seed)
    log = {}
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
    return RunResult(state, log, measurements)
