"""
Circuit intermediate representation shared by every stage of the pipeline.

Contains:
    - GateKind: enum of every supported gate, measurement, and barrier
    - GateSpec / SPECS: per-kind arity, parameter count, control positions
    - GateInstruction, Probe: the instruction types
    - Circuit: immutable ordered instruction list over flat qubit/clbit spaces
    - validate()

Qubit indices are flat (registers are resolved by the frontend) and the
statevector convention downstream is little-endian: qubit 0 is the least
significant bit of a basis-state index.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class GateKind(Enum):
    """Every gate mnemonic the toolchain understands."""

    # single-qubit primitives
    U = "u"
    P = "p"
    ID = "id"
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    SX = "sx"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    # two-qubit, not controlled
    SWAP = "swap"
    # controlled kinds
    CX = "cx"
    CY = "cy"
    CZ = "cz"
    CH = "ch"
    CSX = "csx"
    CRZ = "crz"
    CRX = "crx"
    CRY = "cry"
    CU1 = "cu1"
    CU3 = "cu3"
    CP = "cp"
    CS = "cs"
    CSDG = "csdg"
    CCX = "ccx"
    RCCX = "rccx"
    RCCCX = "rcccx"
    C3SX = "c3sx"
    CCZ = "ccz"
    CU = "cu"
    CSWAP = "cswap"
    DCX = "dcx"
    ECR = "ecr"
    # non-unitary / structural
    MEASURE = "measure"
    BARRIER = "barrier"

    def __str__(self) -> str:
        return self.value

    # members are singletons, equal only to themselves: a C-level hash will do
    __hash__ = object.__hash__


@dataclass(frozen=True)
class GateSpec:
    """Static metadata for one gate kind.

    num_qubits is None for barrier (variable arity).  controls lists the
    operand positions acting as computational-basis controls; kinds in the
    controlled family with no such control (dcx, ecr) have controls == ()
    and are excluded from coverage bookkeeping.
    """

    num_qubits: int | None
    num_params: int
    controlled: bool = False
    controls: tuple[int, ...] = ()


SPECS: dict[GateKind, GateSpec] = {
    GateKind.U: GateSpec(1, 3),
    GateKind.P: GateSpec(1, 1),
    GateKind.ID: GateSpec(1, 0),
    GateKind.H: GateSpec(1, 0),
    GateKind.X: GateSpec(1, 0),
    GateKind.Y: GateSpec(1, 0),
    GateKind.Z: GateSpec(1, 0),
    GateKind.S: GateSpec(1, 0),
    GateKind.SDG: GateSpec(1, 0),
    GateKind.T: GateSpec(1, 0),
    GateKind.TDG: GateSpec(1, 0),
    GateKind.SX: GateSpec(1, 0),
    GateKind.RX: GateSpec(1, 1),
    GateKind.RY: GateSpec(1, 1),
    GateKind.RZ: GateSpec(1, 1),
    GateKind.SWAP: GateSpec(2, 0),
    GateKind.CX: GateSpec(2, 0, controlled=True, controls=(0,)),
    GateKind.CY: GateSpec(2, 0, controlled=True, controls=(0,)),
    GateKind.CZ: GateSpec(2, 0, controlled=True, controls=(0,)),
    GateKind.CH: GateSpec(2, 0, controlled=True, controls=(0,)),
    GateKind.CSX: GateSpec(2, 0, controlled=True, controls=(0,)),
    GateKind.CRZ: GateSpec(2, 1, controlled=True, controls=(0,)),
    GateKind.CRX: GateSpec(2, 1, controlled=True, controls=(0,)),
    GateKind.CRY: GateSpec(2, 1, controlled=True, controls=(0,)),
    GateKind.CU1: GateSpec(2, 1, controlled=True, controls=(0,)),
    GateKind.CU3: GateSpec(2, 3, controlled=True, controls=(0,)),
    GateKind.CP: GateSpec(2, 1, controlled=True, controls=(0,)),
    GateKind.CS: GateSpec(2, 0, controlled=True, controls=(0,)),
    GateKind.CSDG: GateSpec(2, 0, controlled=True, controls=(0,)),
    GateKind.CCX: GateSpec(3, 0, controlled=True, controls=(0, 1)),
    GateKind.RCCX: GateSpec(3, 0, controlled=True, controls=(0, 1)),
    GateKind.RCCCX: GateSpec(4, 0, controlled=True, controls=(0, 1, 2)),
    GateKind.C3SX: GateSpec(4, 0, controlled=True, controls=(0, 1, 2)),
    GateKind.CCZ: GateSpec(3, 0, controlled=True, controls=(0, 1)),
    GateKind.CU: GateSpec(2, 4, controlled=True, controls=(0,)),
    GateKind.CSWAP: GateSpec(3, 0, controlled=True, controls=(0,)),
    # dcx and ecr belong to the controlled family but act unconditionally:
    # no computational-basis control qubit exists for them.
    GateKind.DCX: GateSpec(2, 0, controlled=True),
    GateKind.ECR: GateSpec(2, 0, controlled=True),
    GateKind.MEASURE: GateSpec(1, 0),
    GateKind.BARRIER: GateSpec(None, 0),
}

CONTROLLED_KINDS: tuple[GateKind, ...] = tuple(
    k for k, s in SPECS.items() if s.controlled
)


@dataclass(frozen=True)
class GateInstruction:
    """One gate application, measurement, or barrier."""

    id: int
    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        spec = SPECS[self.kind]
        if spec.num_qubits is not None and len(self.qubits) != spec.num_qubits:
            raise ValueError(
                f"{self.kind} takes {spec.num_qubits} qubit(s), got {len(self.qubits)}"
            )
        if len(self.params) != spec.num_params:
            raise ValueError(
                f"{self.kind} takes {spec.num_params} parameter(s), got {len(self.params)}"
            )


@dataclass(frozen=True)
class Probe:
    """Non-collapsing simulator directive recording <Z> or the Z-basis
    probability pair of one qubit under a unique label."""

    id: int
    mode: str  # "expectation" | "probabilities"
    qubit: int
    label: str


Instruction = GateInstruction | Probe


@dataclass(frozen=True)
class Circuit:
    """Immutable circuit over flat qubit/clbit index spaces."""

    num_qubits: int
    num_clbits: int
    instructions: tuple[Instruction, ...] = ()

    @property
    def gates(self) -> tuple[GateInstruction, ...]:
        return tuple(i for i in self.instructions if isinstance(i, GateInstruction))

    @property
    def probes(self) -> tuple[Probe, ...]:
        return tuple(i for i in self.instructions if isinstance(i, Probe))

    def has_probes(self) -> bool:
        return any(isinstance(i, Probe) for i in self.instructions)


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate()."""

    instruction_id: int | None
    message: str

    def __str__(self) -> str:
        where = f"instruction {self.instruction_id}: " if self.instruction_id is not None else ""
        return where + self.message


def validate(circuit: Circuit) -> list[Violation]:
    """Check every IR invariant; an empty list means the circuit is valid."""
    violations: list[Violation] = []
    seen_ids: set[int] = set()
    seen_labels: set[str] = set()

    if circuit.num_qubits < 0 or circuit.num_clbits < 0:
        violations.append(Violation(None, "negative register size"))

    for instr in circuit.instructions:
        if instr.id in seen_ids:
            violations.append(Violation(instr.id, "duplicate instruction id"))
        seen_ids.add(instr.id)

        if isinstance(instr, Probe):
            if instr.mode not in ("expectation", "probabilities"):
                violations.append(Violation(instr.id, f"unknown probe mode {instr.mode!r}"))
            if not 0 <= instr.qubit < circuit.num_qubits:
                violations.append(Violation(instr.id, f"probe qubit {instr.qubit} out of range"))
            if not instr.label:
                violations.append(Violation(instr.id, "empty probe label"))
            elif instr.label in seen_labels:
                violations.append(Violation(instr.id, f"duplicate probe label {instr.label!r}"))
            seen_labels.add(instr.label)
            continue

        spec = SPECS[instr.kind]
        if spec.num_qubits is not None and len(instr.qubits) != spec.num_qubits:
            violations.append(Violation(
                instr.id, f"{instr.kind} arity mismatch: got {len(instr.qubits)} qubits"))
        if len(instr.params) != spec.num_params:
            violations.append(Violation(
                instr.id,
                f"{instr.kind} param count mismatch: got {len(instr.params)}, "
                f"expected {spec.num_params}"))
        for q in instr.qubits:
            if not 0 <= q < circuit.num_qubits:
                violations.append(Violation(instr.id, f"qubit {q} out of range"))
        if len(set(instr.qubits)) != len(instr.qubits):
            violations.append(Violation(instr.id, "duplicate operand"))
        if instr.kind is GateKind.MEASURE:
            if len(instr.clbits) != 1:
                violations.append(Violation(instr.id, "measure needs exactly one clbit"))
            for c in instr.clbits:
                if not 0 <= c < circuit.num_clbits:
                    violations.append(Violation(instr.id, f"clbit {c} out of range"))
        elif instr.clbits:
            violations.append(Violation(instr.id, f"{instr.kind} takes no clbits"))
        if instr.kind is GateKind.BARRIER and not instr.qubits:
            violations.append(Violation(instr.id, "barrier needs at least one qubit"))

    return violations
