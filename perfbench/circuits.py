"""Seeded random circuits for the benchmark workloads.

The gate pool and the draw of operands and angles follow the seeded
generator in tests/corpus_util.py.  One thing differs: the gate kinds of a
circuit are not drawn one by one but dealt from a fixed deck, the
largest-remainder apportionment of the gate count to the generator's kind
probabilities, shuffled by the seed.  A circuit of a given size therefore
always has the same kinds, so the same primitives after transpilation, the
same probes and the same mutants.  The first operand of each gate is dealt
the same way, from shuffled rounds of all qubits, because a kernel's cost
depends on the qubit it acts on (up to 10x at 18 qubits).  The seed moves
the remaining operands, the angles and the order.  Without the decks, the
work in a 300-gate circuit varies by several percent from seed to seed,
which would hide a change of that size.
"""
from __future__ import annotations

import math

import numpy as np

from qcover.ir import SPECS, Circuit, GateInstruction, GateKind
from qcover.qasm import serialize

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

# bucket probabilities of random_circuit for circuits of four or more qubits
_BUCKETS = ((_FIXED_1Q, 0.35), (_PARAM_1Q, 0.20), ((GateKind.SWAP,), 0.07),
            (_CTRL_2Q, 0.28), (_CTRL_3Q, 0.07), (_CTRL_4Q, 0.03))


def _kind_weights() -> dict[GateKind, float]:
    weights: dict[GateKind, float] = {}
    for kinds, share in _BUCKETS:
        for kind in kinds:
            weights[kind] = weights.get(kind, 0.0) + share / len(kinds)
    return weights


def deck(num_gates: int) -> list[GateKind]:
    """Gate kinds of a num_gates circuit, in canonical order."""
    weights = _kind_weights()
    quotas = {kind: num_gates * w for kind, w in weights.items()}
    counts = {kind: math.floor(q) for kind, q in quotas.items()}
    order = list(weights)
    by_remainder = sorted(order, key=lambda k: (-(quotas[k] - counts[k]), order.index(k)))
    for kind in by_remainder[:num_gates - sum(counts.values())]:
        counts[kind] += 1
    return [kind for kind in order for _ in range(counts[kind])]


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int,
                   with_measure: bool = False) -> Circuit:
    if num_qubits < 4:
        raise ValueError("benchmark circuits need at least 4 qubits")
    kinds = deck(num_gates)
    # the first operand (the target of a one-qubit gate, the first control
    # of a controlled one) walks through shuffled rounds of all qubits
    firsts: dict[bool, list[int]] = {False: [], True: []}
    instructions = []
    for i, pick in enumerate(rng.permutation(len(kinds))):
        kind = kinds[pick]
        spec = SPECS[kind]
        pool = firsts[spec.num_qubits > 1]
        if not pool:
            pool.extend(int(q) for q in rng.permutation(num_qubits))
        first = pool.pop()
        others = [q for q in range(num_qubits) if q != first]
        qubits = (first, *(others[int(j)] for j in
                           rng.choice(len(others), size=spec.num_qubits - 1, replace=False)))
        params = tuple(float(v) for v in
                       rng.uniform(-math.pi, math.pi, spec.num_params))
        instructions.append(GateInstruction(i, kind, qubits, params))
    num_clbits = 0
    if with_measure:
        num_clbits = num_qubits
        for q in range(num_qubits):
            instructions.append(GateInstruction(len(instructions), GateKind.MEASURE,
                                                (q,), (), (q,)))
    return Circuit(num_qubits, num_clbits, tuple(instructions))


def random_qasm(rng: np.random.Generator, num_qubits: int, num_gates: int,
                with_measure: bool = False) -> str:
    return serialize(random_circuit(rng, num_qubits, num_gates, with_measure))
