"""Full re-simulation judge, kept as the differential oracle for judge().

This is judge() in cost mode as it was before the original's run was shared
across calls and before a mutant became an edit record: the mutant's whole
circuit is rebuilt from its operator, site and detail (never from its `at`,
`drop` and `insert`), the original and that circuit are each simulated from
|0...0> on every call, and the mutant is simulated even when it times out.
It times a mutant out by counting the gates of that rebuilt circuit and of
the original itself, so the oracle shares no code with the gate list it
checks.
"""
from __future__ import annotations

from corpus_util import renumber
from qcover.ir import Circuit, GateInstruction, GateKind
from qcover.mutation import (DEFAULT_TIMEOUT_FACTOR, DEFAULT_TOLERANCE, Mutant,
                             MutantVerdict)
from qcover.simulator import DEFAULT_QUBIT_LIMIT, fidelity, statevector_of


def mutant_circuit(original: Circuit, mutant: Mutant) -> Circuit:
    """The mutant as a whole circuit: the original with the edit its
    operator, site and detail name, renumbered densely."""
    instructions = list(original.instructions)
    pos = [i.id for i in instructions].index(mutant.site)
    site = instructions[pos]
    if mutant.operator == "qgd":
        body = instructions[:pos] + instructions[pos + 1:]
    else:
        kind = GateKind(mutant.detail.split("->")[1] if mutant.operator == "qgr"
                        else mutant.detail.split()[1])
        edit = GateInstruction(0, kind, site.qubits, site.params)
        keep = pos if mutant.operator == "qgr" else pos + 1
        body = instructions[:keep] + [edit] + instructions[pos + 1:]
    return Circuit(original.num_qubits, original.num_clbits, renumber(body))


def _gate_count(circuit: Circuit) -> int:
    """The gates a run applies: every gate but measurements and barriers."""
    return sum(1 for i in circuit.gates
               if i.kind not in (GateKind.MEASURE, GateKind.BARRIER))


def judge_full(original: Circuit, mutant: Mutant,
               tolerance: float = DEFAULT_TOLERANCE,
               timeout_factor: float = DEFAULT_TIMEOUT_FACTOR, *,
               qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> MutantVerdict:
    try:
        ref_state = statevector_of(original, qubit_limit=qubit_limit)
        circuit = mutant_circuit(original, mutant)
        mut_state = statevector_of(circuit, qubit_limit=qubit_limit)
    except Exception:
        return MutantVerdict(mutant.mutant_id, "error", None)

    if _gate_count(circuit) > timeout_factor * _gate_count(original):
        return MutantVerdict(mutant.mutant_id, "timeout", None)
    fid = fidelity(ref_state, mut_state)
    status = "survived" if fid >= 1.0 - tolerance else "killed"
    return MutantVerdict(mutant.mutant_id, status, fid)
