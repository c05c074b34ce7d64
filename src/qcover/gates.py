"""
Defining unitaries for every gate kind.

Matrix convention is little-endian over the operand list: operand i of a gate
is bit i of the matrix index.  Controlled kinds therefore place their control
bits in the low positions, matching the operand order (controls first).

dcx, ecr, rccx, and rcccx are defined by fixed matrices (frozen from their
standard circuit realizations) rather than by a controlled() construction:
the first two have no computational-basis control, the last two are
relative-phase variants whose defining unitaries are not plain controlled-X.
"""
from __future__ import annotations

from math import cos, pi, sin

import numpy as np

from .ir import GateKind

_SQ2 = 1.0 / np.sqrt(2.0)


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    return np.array(
        [[cos(theta / 2), -np.exp(1j * lam) * sin(theta / 2)],
         [np.exp(1j * phi) * sin(theta / 2), np.exp(1j * (phi + lam)) * cos(theta / 2)]],
        dtype=complex)


def p_matrix(lam: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * lam)]], dtype=complex)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0.0],
                     [0.0, np.exp(1j * theta / 2)]], dtype=complex)


_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
_DCX = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]],
                dtype=complex)
_ECR = _SQ2 * np.array(
    [[0, 1, 0, 1j], [1, 0, -1j, 0], [0, 1j, 0, 1], [-1j, 0, 1, 0]],
    dtype=complex)
# Toffoli-like with relative phases: |011> <-> i|111>, |101> -> -|101>
_RCCX = np.eye(8, dtype=complex)
_RCCX[3, 3] = _RCCX[7, 7] = 0
_RCCX[7, 3] = 1j
_RCCX[3, 7] = -1j
_RCCX[5, 5] = -1
# 3-control analogue: phases on the control-pattern sectors, X on the full one
_RCCCX = np.eye(16, dtype=complex)
_RCCCX[3, 3] = 1j
_RCCCX[11, 11] = -1j
_RCCCX[7, 7] = _RCCCX[15, 15] = 0
_RCCCX[15, 7] = -1
_RCCCX[7, 15] = 1


def controlled(base: np.ndarray, num_controls: int) -> np.ndarray:
    """Controlled-U with controls on the low operand bits."""
    t_dim = base.shape[0]
    dim = (1 << num_controls) * t_dim
    out = np.eye(dim, dtype=complex)
    cmask = (1 << num_controls) - 1
    for a in range(t_dim):
        for b in range(t_dim):
            out[cmask | (a << num_controls), cmask | (b << num_controls)] = base[a, b]
    return out


_FIXED: dict[GateKind, np.ndarray] = {
    GateKind.ID: _I,
    GateKind.H: _H,
    GateKind.X: _X,
    GateKind.Y: _Y,
    GateKind.Z: _Z,
    GateKind.S: p_matrix(pi / 2),
    GateKind.SDG: p_matrix(-pi / 2),
    GateKind.T: p_matrix(pi / 4),
    GateKind.TDG: p_matrix(-pi / 4),
    GateKind.SX: _SX,
    GateKind.SWAP: _SWAP,
    GateKind.CX: controlled(_X, 1),
    GateKind.CY: controlled(_Y, 1),
    GateKind.CZ: controlled(_Z, 1),
    GateKind.CH: controlled(_H, 1),
    GateKind.CSX: controlled(_SX, 1),
    GateKind.CS: controlled(p_matrix(pi / 2), 1),
    GateKind.CSDG: controlled(p_matrix(-pi / 2), 1),
    GateKind.CCX: controlled(_X, 2),
    GateKind.CCZ: controlled(_Z, 2),
    GateKind.C3SX: controlled(_SX, 3),
    GateKind.CSWAP: controlled(_SWAP, 1),
    GateKind.RCCX: _RCCX,
    GateKind.RCCCX: _RCCCX,
    GateKind.DCX: _DCX,
    GateKind.ECR: _ECR,
}

_PARAMETRIC = {
    GateKind.U: lambda ps: u_matrix(*ps),
    GateKind.P: lambda ps: p_matrix(*ps),
    GateKind.RX: lambda ps: rx_matrix(*ps),
    GateKind.RY: lambda ps: ry_matrix(*ps),
    GateKind.RZ: lambda ps: rz_matrix(*ps),
    GateKind.CRZ: lambda ps: controlled(rz_matrix(*ps), 1),
    GateKind.CRX: lambda ps: controlled(rx_matrix(*ps), 1),
    GateKind.CRY: lambda ps: controlled(ry_matrix(*ps), 1),
    GateKind.CU1: lambda ps: controlled(p_matrix(*ps), 1),
    GateKind.CP: lambda ps: controlled(p_matrix(*ps), 1),
    GateKind.CU3: lambda ps: controlled(u_matrix(*ps), 1),
    GateKind.CU: lambda ps: controlled(np.exp(1j * ps[3]) * u_matrix(*ps[:3]), 1),
}


def matrix(kind: GateKind, params: tuple[float, ...] = ()) -> np.ndarray:
    """Defining unitary of a gate kind (little-endian operand order)."""
    if kind in _FIXED:
        return _FIXED[kind]
    if kind in _PARAMETRIC:
        return _PARAMETRIC[kind](params)
    raise ValueError(f"{kind} has no defining unitary")
