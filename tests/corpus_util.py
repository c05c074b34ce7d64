"""Helpers for building circuits in tests: a literal builder, dense
renumbering, and a seeded random-circuit generator used by the
oracle-equivalence and property suites."""
from __future__ import annotations

import math

import numpy as np

from qcover.ir import (SPECS, Circuit, GateInstruction, GateKind, Instruction,
                       Probe)

SWAP_TEST_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[1];
h q[0];
cswap q[0],q[1],q[2];
h q[0];
measure q[0] -> c[0];
"""


def build(num_qubits: int, num_clbits: int, ops) -> Circuit:
    """ops: iterable of (kind, qubits) or (kind, qubits, params) or
    (kind, qubits, params, clbits)."""
    instructions = []
    for i, op in enumerate(ops):
        kind, qubits = op[0], tuple(op[1])
        params = tuple(op[2]) if len(op) > 2 else ()
        clbits = tuple(op[3]) if len(op) > 3 else ()
        instructions.append(GateInstruction(i, kind, qubits, params, clbits))
    return Circuit(num_qubits, num_clbits, tuple(instructions))


def renumber(instructions: list[Instruction] | tuple[Instruction, ...],
             start: int = 0) -> tuple[Instruction, ...]:
    """Reassign instruction ids densely in list order, from `start`."""
    out: list[Instruction] = []
    for new_id, instr in enumerate(instructions, start):
        if isinstance(instr, GateInstruction):
            out.append(GateInstruction(new_id, instr.kind, instr.qubits,
                                       instr.params, instr.clbits))
        else:
            out.append(Probe(new_id, instr.mode, instr.qubit, instr.label))
    return tuple(out)


def circuits_equal(a: Circuit, b: Circuit, angle_tol: float = 1e-12) -> bool:
    """Instruction-by-instruction structural equality with an angle tolerance."""
    if (a.num_qubits, a.num_clbits) != (b.num_qubits, b.num_clbits):
        return False
    if len(a.instructions) != len(b.instructions):
        return False
    for x, y in zip(a.instructions, b.instructions):
        if type(x) is not type(y):
            return False
        if isinstance(x, Probe):
            if (x.mode, x.qubit, x.label) != (y.mode, y.qubit, y.label):
                return False
            continue
        if (x.kind, x.qubits, x.clbits) != (y.kind, y.qubits, y.clbits):
            return False
        if len(x.params) != len(y.params):
            return False
        if any(abs(p - q) > angle_tol for p, q in zip(x.params, y.params)):
            return False
    return True


# gate pool for random circuits, weighted toward common kinds
_FIXED_1Q = (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S,
             GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.SX, GateKind.ID)
_PARAM_1Q = (GateKind.U, GateKind.P, GateKind.RX, GateKind.RY, GateKind.RZ)
_CTRL_2Q = (GateKind.CX, GateKind.CX, GateKind.CX, GateKind.CY, GateKind.CZ,
            GateKind.CH, GateKind.CSX, GateKind.CS, GateKind.CSDG,
            GateKind.CRX, GateKind.CRY, GateKind.CRZ, GateKind.CP,
            GateKind.CU1, GateKind.CU3, GateKind.CU, GateKind.DCX,
            GateKind.ECR)
_CTRL_3Q = (GateKind.CCX, GateKind.CCZ, GateKind.RCCX, GateKind.CSWAP)
_CTRL_4Q = (GateKind.RCCCX, GateKind.C3SX)


def random_circuit(rng: np.random.Generator, num_qubits: int | None = None,
                   num_gates: int | None = None,
                   with_measure: bool = False) -> Circuit:
    n = int(num_qubits if num_qubits is not None else rng.integers(2, 7))
    count = int(num_gates if num_gates is not None else rng.integers(5, 41))
    ops = []
    for _ in range(count):
        bucket = rng.random()
        if bucket < 0.35:
            kind = _FIXED_1Q[rng.integers(len(_FIXED_1Q))]
        elif bucket < 0.55:
            kind = _PARAM_1Q[rng.integers(len(_PARAM_1Q))]
        elif bucket < 0.62 and n >= 2:
            kind = GateKind.SWAP
        elif bucket < 0.9 or n < 3:
            kind = _CTRL_2Q[rng.integers(len(_CTRL_2Q))]
        elif n >= 4 and bucket > 0.97:
            kind = _CTRL_4Q[rng.integers(len(_CTRL_4Q))]
        else:
            kind = _CTRL_3Q[rng.integers(len(_CTRL_3Q))]
        spec = SPECS[kind]
        qubits = tuple(int(q) for q in
                       rng.choice(n, size=spec.num_qubits, replace=False))
        params = tuple(float(v) for v in
                       rng.uniform(-math.pi, math.pi, spec.num_params))
        ops.append((kind, qubits, params))
    circuit = build(n, n if with_measure else 0, ops)
    if with_measure:
        extra = list(circuit.instructions)
        next_id = len(extra)
        for q in range(n):
            extra.append(GateInstruction(next_id, GateKind.MEASURE, (q,), (), (q,)))
            next_id += 1
        circuit = Circuit(n, n, tuple(extra))
    return circuit
