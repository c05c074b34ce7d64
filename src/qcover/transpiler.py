"""
Rewrites controlled gates into the {u, p, cx} primitive basis, tracking the
origin of every emitted cx so coverage can attribute each condition back to
the controlled gate it came from.

RULES maps every controlled kind to a fixed DecompositionRule, built once at
import.  The rules are not re-checked at run time: the test suite checks
each expansion against an independent unitary oracle (up to global phase,
1e-10 max-norm).  Non-controlled gates and bare cx gates pass through
unchanged; a bare cx counts as its own expansion with a single condition.
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

from .ir import (
    SPECS,
    Circuit,
    GateInstruction,
    GateKind,
    Instruction,
    renumber,
)


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
        out = []
        for op in self.template:
            values = tuple(p(params) if callable(p) else p for p in op.params)
            out.append((op.kind, values, tuple(qubits[i] for i in op.operands)))
        return out


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
class TranspiledCircuit:
    """Primitive-basis circuit plus the provenance needed for coverage.

    cx_provenance maps each emitted cx instruction id to (origin gate id,
    1-based index within that gate's expansion).  origin_controls lists, in
    program order, every origin gate that has control qubits; kinds without
    one (dcx, ecr) are expanded but never tracked here.  block_end gives the
    position just past the last instruction of each origin's expansion.
    """

    circuit: Circuit
    cx_provenance: dict[int, tuple[int, int]]
    origin_controls: dict[int, tuple[int, ...]]
    origin_kinds: dict[int, GateKind]
    block_end: dict[int, int]


def transpile(circuit: Circuit) -> TranspiledCircuit:
    """Expand every controlled gate; everything else passes through unchanged."""
    if circuit.has_probes():
        raise TranspileError("transpile expects a probe-free circuit")

    out: list[Instruction] = []
    # expansion bookkeeping keyed by origin (original instruction id)
    cx_prov_positions: list[tuple[int, int, int]] = []  # (position, origin, j)
    origin_controls: dict[int, tuple[int, ...]] = {}
    origin_kinds: dict[int, GateKind] = {}
    block_end: dict[int, int] = {}

    for instr in circuit.instructions:
        assert isinstance(instr, GateInstruction)
        spec = SPECS[instr.kind]
        if not spec.controlled:
            out.append(instr)
            continue

        origin = instr.id
        if not spec.no_control:
            origin_controls[origin] = tuple(instr.qubits[i] for i in spec.controls)
            origin_kinds[origin] = instr.kind

        if instr.kind is GateKind.CX:
            cx_prov_positions.append((len(out), origin, 1))
            out.append(instr)
            block_end[origin] = len(out)
            continue

        j = 0
        for kind, values, qubits in RULES[instr.kind].expand(instr.params, instr.qubits):
            if kind is GateKind.CX:
                j += 1
                cx_prov_positions.append((len(out), origin, j))
            out.append(GateInstruction(0, kind, qubits, values))
        block_end[origin] = len(out)

    numbered = renumber(out)
    cx_provenance = {numbered[pos].id: (origin, j)
                     for pos, origin, j in cx_prov_positions}
    result = Circuit(circuit.num_qubits, circuit.num_clbits, numbered)
    return TranspiledCircuit(result, cx_provenance, origin_controls,
                             origin_kinds, block_end)


def condition_counts(t: TranspiledCircuit) -> dict[int, int]:
    """Number of conditions (decomposed cx gates) per tracked origin gate."""
    counts: dict[int, int] = {origin: 0 for origin in t.origin_controls}
    for origin, _ in t.cx_provenance.values():
        if origin in counts:
            counts[origin] += 1
    return counts


def provenance_report(t: TranspiledCircuit) -> str:
    """Human-readable table of every tracked cx and its origin gate."""
    counts = condition_counts(t)
    lines = ["origin  kind    controls      conditions"]
    for origin, controls in t.origin_controls.items():
        kind = t.origin_kinds[origin]
        lines.append(f"{origin:>6}  {kind.value:<7} {str(list(controls)):<13} "
                     f"{counts[origin]}")
    lines.append("")
    lines.append("cx id   origin  index")
    for cx_id, (origin, j) in sorted(t.cx_provenance.items()):
        if origin in t.origin_controls:
            lines.append(f"{cx_id:>5}  {origin:>7}  {j:>5}")
    return "\n".join(lines) + "\n"
