"""
Probe insertion for transpiled circuits.

Two probes (expectation value and Z-basis probability pair) go on the control
qubit of every tracked cx, immediately after it, and two more per control
qubit of every origin gate at the end of that gate's expansion block.  Labels
follow the scheme

    <kind>_<gi>_cx_<j>_value / _probability      condition level
    <kind>_<gi>_value_<k> / _probability_<k>     decision level

where gi is the 1-based ordinal of the origin among same-kind origins in
program order, j the cx ordinal within the origin's expansion, and k the
control-qubit ordinal.  A bare cx is probed at both levels: it is a one-cx
expansion of itself, so its condition and decision values coincide.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

from .ir import Circuit, GateInstruction, GateKind, Probe
from .transpiler import Origin, TranspiledCircuit


@dataclass(frozen=True)
class ProbePoint:
    """One planned probe pair: the j-th cx condition or the k-th control."""

    index: int             # j for a condition, k for a decision (1-based)
    qubit: int
    value_label: str
    prob_label: str


@dataclass(frozen=True)
class OriginProbeSet:
    """All probe points belonging to one origin controlled gate."""

    origin: Origin
    cx_points: tuple[ProbePoint, ...]        # one per origin.cx_positions entry
    decision_points: tuple[ProbePoint, ...]  # one per origin.controls entry


# the last circuit planned and its plan, which instrument() and analyze()
# share; the plan goes with its circuit, as mutation._shared_prefix's run does
_last: tuple[weakref.ref, tuple[OriginProbeSet, ...]] | None = None


def _forget(ref: weakref.ref) -> None:
    global _last
    if _last is not None and _last[0] is ref:
        _last = None


def probe_plan(t: TranspiledCircuit) -> tuple[OriginProbeSet, ...]:
    """Deterministic probe layout for a transpiled circuit.

    Shared by instrument() and the coverage analyzer so the label scheme has
    a single source of truth; the last circuit object's plan is kept for them.
    """
    global _last
    last = _last
    if last is not None and last[0]() is t:
        return last[1]
    sets: list[OriginProbeSet] = []
    kind_counts: dict[GateKind, int] = {}
    for origin in t.origins:
        gi = kind_counts.get(origin.kind, 0) + 1
        kind_counts[origin.kind] = gi
        name = f"{origin.kind.value}_{gi}"
        cx_points = tuple(
            ProbePoint(j, t.circuit.instructions[pos].qubits[0],
                       f"{name}_cx_{j}_value", f"{name}_cx_{j}_probability")
            for j, pos in enumerate(origin.cx_positions, start=1))
        decision_points = tuple(
            ProbePoint(k, q, f"{name}_value_{k}", f"{name}_probability_{k}")
            for k, q in enumerate(origin.controls, start=1))
        sets.append(OriginProbeSet(origin, cx_points, decision_points))
    plan = tuple(sets)
    _last = weakref.ref(t, _forget), plan
    return plan


def instrument(t: TranspiledCircuit) -> Circuit:
    """Insert probes into a transpiled circuit.

    Gate instructions keep their ids and order; probes get fresh ids.  The
    result satisfies: strip_probes(instrument(t)) == t.circuit.
    """
    # position -> probe points read right after the instruction there; an
    # expansion block's last position gets its decision points after any
    # condition point, and blocks never share a position
    after: dict[int, list[ProbePoint]] = {}
    for origin_set in probe_plan(t):
        origin = origin_set.origin
        for pos, pt in zip(origin.cx_positions, origin_set.cx_points):
            after.setdefault(pos, []).append(pt)
        after.setdefault(origin.block_end - 1, []).extend(origin_set.decision_points)

    out: list = []
    next_id = len(t.circuit.instructions)
    for pos, instr in enumerate(t.circuit.instructions):
        out.append(instr)
        for pt in after.get(pos, ()):
            out.append(Probe(next_id, "expectation", pt.qubit, pt.value_label))
            out.append(Probe(next_id + 1, "probabilities", pt.qubit, pt.prob_label))
            next_id += 2

    return Circuit(t.circuit.num_qubits, t.circuit.num_clbits, tuple(out))


def strip_probes(circuit: Circuit) -> Circuit:
    """Remove every probe, leaving gate instructions untouched."""
    kept = tuple(i for i in circuit.instructions if isinstance(i, GateInstruction))
    return Circuit(circuit.num_qubits, circuit.num_clbits, kept)


def render(circuit: Circuit) -> str:
    """Pretty-print an instrumented circuit, probes as comment lines."""
    lines = []
    for instr in circuit.instructions:
        if isinstance(instr, Probe):
            lines.append(f"// probe {instr.mode} q[{instr.qubit}] label={instr.label}")
            continue
        if instr.kind is GateKind.MEASURE:
            lines.append(f"measure q[{instr.qubits[0]}] -> c[{instr.clbits[0]}];")
            continue
        name = instr.kind.value
        if instr.params:
            name += "(" + ",".join(repr(v) for v in instr.params) + ")"
        lines.append(f"{name} " + ",".join(f"q[{q}]" for q in instr.qubits) + ";")
    return "\n".join(lines) + "\n"
