"""
Rewrites controlled gates into the {u, p, cx} primitive basis and records,
for each controlled gate with control qubits, one Origin: its controls,
where its cx gates landed and the labels of the probes that read them, so
instrument() and coverage attribute each condition back to the controlled
gate it came from.

RULES maps every controlled kind to a fixed DecompositionRule, built once at
import.  The rules are not re-checked at run time: the test suite checks
each expansion against an independent unitary oracle (up to global phase,
1e-10 max-norm).  Non-controlled gates pass through unchanged; a bare cx
goes through RULES like every other kind and is its own one-cx expansion
with a single condition.
No cross-gate optimization is performed: expansions are emitted verbatim so
condition counts stay deterministic.

The cswap rule uses a 7-cx realization.  Its two free angles satisfy
lambda + theta = pi/2, the constraint under which this gate pattern equals
an exact controlled-swap; 0.1 and pi/2 - 0.1 are the representatives used.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Callable

from .ir import SPECS, Circuit, GateInstruction, GateKind, Instruction


class TranspileError(Exception):
    pass


ParamFn = Callable[[tuple[float, ...]], float]


@dataclass(frozen=True)
class TemplateOp:
    """One primitive gate application inside a decomposition template.

    operands index into the original gate's qubit list (controls first);
    params entries are fixed floats or functions of the original parameters.
    """

    kind: GateKind
    operands: tuple[int, ...]
    params: tuple[float | ParamFn, ...] = ()


@dataclass(frozen=True)
class DecompositionRule:
    kind: GateKind
    template: tuple[TemplateOp, ...]

    def expand(self, params: tuple[float, ...],
               qubits: tuple[int, ...]) -> list[tuple[GateKind, tuple[float, ...], tuple[int, ...]]]:
        return [(op.kind, tuple([p(params) if callable(p) else p for p in op.params]),
                 tuple([qubits[i] for i in op.operands])) for op in self.template]


# ---------------------------------------------------------------------------
# Templates.  Operand roles: controls first, then targets.
# ---------------------------------------------------------------------------

def _t(kind: GateKind, operands: tuple[int, ...], *params) -> TemplateOp:
    return TemplateOp(kind, operands, tuple(params))


_U, _P, _CX, _HK = GateKind.U, GateKind.P, GateKind.CX, GateKind.H

CSWAP_LAMBDA = 0.1
CSWAP_THETA = pi / 2 - CSWAP_LAMBDA


def _cp_ops(lam: float | ParamFn, c: int, t: int) -> list[TemplateOp]:
    half = (lambda ps: lam(ps) / 2) if callable(lam) else lam / 2
    neg_half = (lambda ps: -lam(ps) / 2) if callable(lam) else -lam / 2
    return [
        _t(_P, (c,), half),
        _t(_CX, (c, t)),
        _t(_P, (t,), neg_half),
        _t(_CX, (c, t)),
        _t(_P, (t,), half),
    ]


def _ccx_ops(a: int, b: int, t: int) -> list[TemplateOp]:
    return [
        _t(_HK, (t,)),
        _t(_CX, (b, t)), _t(_P, (t,), -pi / 4),
        _t(_CX, (a, t)), _t(_P, (t,), pi / 4),
        _t(_CX, (b, t)), _t(_P, (t,), -pi / 4),
        _t(_CX, (a, t)),
        _t(_P, (b,), pi / 4), _t(_P, (t,), pi / 4), _t(_HK, (t,)),
        _t(_CX, (a, b)), _t(_P, (a,), pi / 4), _t(_P, (b,), -pi / 4),
        _t(_CX, (a, b)),
    ]


def _rzx_ops(theta: float, a: int, b: int) -> list[TemplateOp]:
    return [
        _t(_HK, (b,)), _t(_CX, (a, b)), _t(_P, (b,), theta),
        _t(_CX, (a, b)), _t(_HK, (b,)),
    ]


def _c3sx_ops() -> list[TemplateOp]:
    a, b, c, t = 0, 1, 2, 3
    seq: list[TemplateOp] = []

    def ladder(lam: float, ctrl: int) -> None:
        seq.append(_t(_HK, (t,)))
        seq.extend(_cp_ops(lam, ctrl, t))
        seq.append(_t(_HK, (t,)))

    ladder(pi / 8, a)
    seq.append(_t(_CX, (a, b)))
    ladder(-pi / 8, b)
    seq.append(_t(_CX, (a, b)))
    ladder(pi / 8, b)
    seq.append(_t(_CX, (b, c)))
    ladder(-pi / 8, c)
    seq.append(_t(_CX, (a, c)))
    ladder(pi / 8, c)
    seq.append(_t(_CX, (b, c)))
    ladder(-pi / 8, c)
    seq.append(_t(_CX, (a, c)))
    ladder(pi / 8, c)
    return seq


def _builtin_templates() -> dict[GateKind, list[TemplateOp]]:
    p0 = lambda ps: ps[0]
    return {
        GateKind.CX: [_t(_CX, (0, 1))],
        GateKind.CY: [
            _t(_P, (1,), -pi / 2), _t(_CX, (0, 1)), _t(_P, (1,), pi / 2)],
        GateKind.CZ: [
            _t(_HK, (1,)), _t(_CX, (0, 1)), _t(_HK, (1,))],
        GateKind.CH: [
            _t(_P, (1,), pi / 2), _t(_HK, (1,)), _t(_P, (1,), pi / 4),
            _t(_CX, (0, 1)),
            _t(_P, (1,), -pi / 4), _t(_HK, (1,)), _t(_P, (1,), -pi / 2)],
        GateKind.CSX: [
            _t(_HK, (1,)), *_cp_ops(pi / 2, 0, 1), _t(_HK, (1,))],
        GateKind.CS: _cp_ops(pi / 2, 0, 1),
        GateKind.CSDG: _cp_ops(-pi / 2, 0, 1),
        GateKind.CP: _cp_ops(p0, 0, 1),
        GateKind.CU1: _cp_ops(p0, 0, 1),
        GateKind.CRZ: [
            _t(_P, (1,), lambda ps: ps[0] / 2),
            _t(_CX, (0, 1)),
            _t(_P, (1,), lambda ps: -ps[0] / 2),
            _t(_CX, (0, 1))],
        GateKind.CRX: [
            _t(_P, (1,), pi / 2),
            _t(_CX, (0, 1)),
            _t(_U, (1,), lambda ps: -ps[0] / 2, 0.0, 0.0),
            _t(_CX, (0, 1)),
            _t(_U, (1,), lambda ps: ps[0] / 2, -pi / 2, 0.0)],
        GateKind.CRY: [
            _t(_U, (1,), lambda ps: ps[0] / 2, 0.0, 0.0),
            _t(_CX, (0, 1)),
            _t(_U, (1,), lambda ps: -ps[0] / 2, 0.0, 0.0),
            _t(_CX, (0, 1))],
        GateKind.CU3: [
            _t(_P, (0,), lambda ps: (ps[2] + ps[1]) / 2),
            _t(_P, (1,), lambda ps: (ps[2] - ps[1]) / 2),
            _t(_CX, (0, 1)),
            _t(_U, (1,), lambda ps: -ps[0] / 2, 0.0, lambda ps: -(ps[1] + ps[2]) / 2),
            _t(_CX, (0, 1)),
            _t(_U, (1,), lambda ps: ps[0] / 2, lambda ps: ps[1], 0.0)],
        GateKind.CU: [
            _t(_P, (0,), lambda ps: ps[3]),
            _t(_P, (0,), lambda ps: (ps[2] + ps[1]) / 2),
            _t(_P, (1,), lambda ps: (ps[2] - ps[1]) / 2),
            _t(_CX, (0, 1)),
            _t(_U, (1,), lambda ps: -ps[0] / 2, 0.0, lambda ps: -(ps[1] + ps[2]) / 2),
            _t(_CX, (0, 1)),
            _t(_U, (1,), lambda ps: ps[0] / 2, lambda ps: ps[1], 0.0)],
        GateKind.CCX: _ccx_ops(0, 1, 2),
        GateKind.CCZ: [
            _t(_HK, (2,)), *_ccx_ops(0, 1, 2), _t(_HK, (2,))],
        GateKind.RCCX: [
            _t(_U, (2,), pi / 2, 0.0, pi), _t(_P, (2,), pi / 4),
            _t(_CX, (1, 2)), _t(_P, (2,), -pi / 4),
            _t(_CX, (0, 2)), _t(_P, (2,), pi / 4),
            _t(_CX, (1, 2)), _t(_P, (2,), -pi / 4),
            _t(_U, (2,), pi / 2, 0.0, pi)],
        GateKind.RCCCX: [
            _t(_U, (3,), pi / 2, 0.0, pi), _t(_P, (3,), pi / 4),
            _t(_CX, (2, 3)), _t(_P, (3,), -pi / 4), _t(_U, (3,), pi / 2, 0.0, pi),
            _t(_CX, (0, 3)), _t(_P, (3,), pi / 4),
            _t(_CX, (1, 3)), _t(_P, (3,), -pi / 4),
            _t(_CX, (0, 3)), _t(_P, (3,), pi / 4),
            _t(_CX, (1, 3)), _t(_P, (3,), -pi / 4),
            _t(_U, (3,), pi / 2, 0.0, pi), _t(_P, (3,), pi / 4),
            _t(_CX, (2, 3)), _t(_P, (3,), -pi / 4), _t(_U, (3,), pi / 2, 0.0, pi)],
        GateKind.C3SX: _c3sx_ops(),
        GateKind.CSWAP: [
            _t(_U, (1,), pi / 2, pi / 2, -pi / 2),
            _t(_U, (2,), pi / 2, 0.0, CSWAP_LAMBDA),
            _t(_CX, (1, 2)),
            _t(_U, (1,), pi / 2, -pi / 2, pi / 2),
            _t(_U, (2,), CSWAP_THETA, -3 * pi / 4, pi / 2),
            _t(_CX, (0, 2)),
            _t(_P, (2,), pi / 4),
            _t(_CX, (1, 2)),
            _t(_P, (1,), pi / 4),
            _t(_P, (2,), -pi / 4),
            _t(_CX, (0, 2)),
            _t(_CX, (0, 1)),
            _t(_P, (0,), pi / 4),
            _t(_P, (1,), -pi / 4),
            _t(_CX, (0, 1)),
            _t(_U, (2,), pi / 2, 0.0, -3 * pi / 4),
            _t(_CX, (2, 1))],
        GateKind.DCX: [_t(_CX, (0, 1)), _t(_CX, (1, 0))],
        GateKind.ECR: [
            *_rzx_ops(pi / 4, 0, 1), _t(GateKind.X, (0,)), *_rzx_ops(-pi / 4, 0, 1)],
    }


RULES: dict[GateKind, DecompositionRule] = {
    kind: DecompositionRule(kind, tuple(template))
    for kind, template in _builtin_templates().items()
}


# ---------------------------------------------------------------------------
# Transpilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Origin:
    """One tracked controlled gate, where its expansion landed and its probes.

    id is the gate's instruction id in the input circuit and controls its
    control qubits.  cx_positions index the expansion's cx gates in the
    transpiled instruction list, in program order: the j-th is condition j.
    block_end is the position just past the expansion's last instruction.

    cx_labels holds one (value, probability) label pair per condition, read
    on its cx's control right after that cx; control_labels one pair per
    control, read at the end of the block.  The labels follow the scheme

        <kind>_<gi>_cx_<j>_value / _probability      condition level
        <kind>_<gi>_value_<k> / _probability_<k>     decision level

    where gi is the 1-based ordinal of the origin among same-kind origins in
    program order, j the condition and k the control ordinal.  A bare cx is
    labelled at both levels: it is a one-cx expansion of itself, so its
    condition and decision values coincide.
    """

    id: int
    kind: GateKind
    controls: tuple[int, ...]
    cx_positions: tuple[int, ...]
    block_end: int
    cx_labels: tuple[tuple[str, str], ...]
    control_labels: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class TranspiledCircuit:
    """Primitive-basis circuit plus one Origin per gate with control qubits,
    in program order.  Kinds without one (dcx, ecr) are expanded but not
    tracked."""

    circuit: Circuit
    origins: tuple[Origin, ...]


def transpile(circuit: Circuit) -> TranspiledCircuit:
    """Expand every controlled gate; everything else passes through unchanged."""
    if circuit.has_probes():
        raise TranspileError("transpile expects a probe-free circuit")

    # every output instruction is built once, with its position as its id
    out: list[Instruction] = []
    origins: list[Origin] = []
    ordinals: dict[GateKind, int] = {}
    for instr in circuit.instructions:
        assert isinstance(instr, GateInstruction)
        spec = SPECS[instr.kind]
        if not spec.controlled:
            if instr.id != len(out):
                instr = GateInstruction(len(out), instr.kind, instr.qubits,
                                        instr.params, instr.clbits)
            out.append(instr)
            continue
        start = len(out)
        for kind, values, qubits in RULES[instr.kind].expand(instr.params, instr.qubits):
            out.append(GateInstruction(len(out), kind, qubits, values))
        if spec.controls:
            gi = ordinals[instr.kind] = ordinals.get(instr.kind, 0) + 1
            name = f"{instr.kind.value}_{gi}"
            cx = tuple(pos for pos in range(start, len(out)) if out[pos].kind is _CX)
            origins.append(Origin(
                instr.id, instr.kind, tuple(instr.qubits[i] for i in spec.controls),
                cx, len(out),
                tuple((f"{name}_cx_{j}_value", f"{name}_cx_{j}_probability")
                      for j in range(1, len(cx) + 1)),
                tuple((f"{name}_value_{k}", f"{name}_probability_{k}")
                      for k in range(1, len(spec.controls) + 1))))

    result = Circuit(circuit.num_qubits, circuit.num_clbits, tuple(out))
    return TranspiledCircuit(result, tuple(origins))


def provenance_report(t: TranspiledCircuit) -> str:
    """Human-readable table of every tracked cx and its origin gate."""
    lines = ["origin  kind    controls      conditions"]
    for o in t.origins:
        lines.append(f"{o.id:>6}  {o.kind.value:<7} {str(list(o.controls)):<13} "
                     f"{len(o.cx_positions)}")
    lines.append("")
    lines.append("cx id   origin  index")
    # transpiled ids are positions, and the origins' blocks follow each other
    for o in t.origins:
        for j, pos in enumerate(o.cx_positions, start=1):
            lines.append(f"{pos:>5}  {o.id:>7}  {j:>5}")
    return "\n".join(lines) + "\n"
