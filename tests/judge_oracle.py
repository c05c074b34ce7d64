"""Full re-simulation judge, kept as the differential oracle for judge().

This is judge() in cost mode as it was before the original's run was shared
across calls: the original and the mutant are each simulated from |0...0>
on every call, and the mutant is simulated even when it times out.  It
counts cost units with its own copy of judge()'s earlier _cost_units, so
the oracle shares no code with the gate list it checks.
"""
from __future__ import annotations

from qcover.ir import Circuit, GateKind
from qcover.mutation import (DEFAULT_TIMEOUT_FACTOR, DEFAULT_TOLERANCE, Mutant,
                             MutantVerdict)
from qcover.simulator import DEFAULT_QUBIT_LIMIT, fidelity, statevector_of


def _cost_units(circuit: Circuit) -> float:
    """Deterministic runtime proxy: executed gates times state size."""
    gate_count = sum(1 for i in circuit.gates
                     if i.kind not in (GateKind.MEASURE, GateKind.BARRIER))
    return float(gate_count * (1 << circuit.num_qubits))


def judge_full(original: Circuit, mutant: Mutant,
               tolerance: float = DEFAULT_TOLERANCE,
               timeout_factor: float = DEFAULT_TIMEOUT_FACTOR, *,
               qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> MutantVerdict:
    try:
        ref_state = statevector_of(original, qubit_limit=qubit_limit)
        ref_time = _cost_units(original)
        mut_state = statevector_of(mutant.circuit, qubit_limit=qubit_limit)
        mut_time = _cost_units(mutant.circuit)
    except Exception:
        return MutantVerdict(mutant.mutant_id, "error", None, 0.0, 0.0)

    if mut_time > timeout_factor * ref_time:
        return MutantVerdict(mutant.mutant_id, "timeout", None, ref_time, mut_time)
    fid = fidelity(ref_state, mut_state)
    status = "survived" if fid >= 1.0 - tolerance else "killed"
    return MutantVerdict(mutant.mutant_id, status, fid, ref_time, mut_time)
