"""
Dense statevector simulator with non-collapsing probes.

State layout is little-endian: amplitude index bit q holds the basis value of
qubit q.  kernel() binds one gate to its operands and a state width: it
works out the matrix or scalar factors, the view shapes, the sector indices,
the axis orders and the tiles once and returns a step that applies the gate
in place (barrier and id share one that does nothing; measure has none).
gate_ops() is a circuit's gate list, the kernel() arguments of every
instruction but measurements and barriers; only the mutation judge reads
it, once per circuit.  run() and statevector_of() play a circuit's
instructions through one loop, _Live.play; they build one step per
distinct gate of a circuit and reuse it while the state is too small for
tiles.  Steps apply gates through stride-based views:

- the monomial kinds, whose matrix has one nonzero entry per row, each in
  {1, -1, 1j, -1j} (x, y, z, swap, cx, cy, cz, ccx, ccz, cswap, dcx, rccx
  and rcccx, found from gates.matrix at import), move whole operand sectors
  around the permutation's cycles, multiplying by the unit where it is not
  1; a sector that maps to itself is scaled in place;
- p, s, sdg, t, tdg and rz scale the half whose diagonal entry is not 1
  (rz both halves);
- every other one-qubit kind takes a dense 2x2 kernel;
- every other multi-qubit kind takes a tensor kernel (BLAS matmul) over a
  view with one axis per operand and one per gap between operands; a
  controlled kind whose matrix is the identity off its controls-one rows
  (_SECTOR: all but rccx and rcccx) multiplies only that sector by the
  target block of its matrix.

The monomial kernel is exact: each amplitude the 2x2 or tensor product made
for such a kind was one product with a unit plus exact zeros, and the
kernel makes that product alone (a copy for the unit 1), so at most the
sign of an exact zero differs.  s, cs and the like stay out:
exp(i*pi/2) is not exactly 1j.  The sector kernel gives each row the bits
of the full matrix's row, whose other terms are exact zeros; the diagonal
controlled kinds (cs, cp, cu1, crz) take it too, not an elementwise
product, which rounds apart.  A gate that spans the whole state keeps the
full matrix: numpy multiplies one column by another path.

The dense 2x2 kernel, the monomial cycles and the tensor kernel make
several passes over a sector.  When a sector holds more than _BLOCK
amplitudes (a one-qubit gate on more than 13 qubits), or a tensor operand
more than _BLOCK columns, they go tile by tile: each tile is copied into
contiguous scratch, which stays in the cache for all its passes, and the
results are copied back.  The dense kernel makes the same six numpy calls
in the same operand order on a tile as on a whole half, and BLAS gives a
column the same bits whatever the column count, as long as the count is a
multiple of 4 (so seen with OpenBLAS on x86-64; tests/test_live_qubits.py
checks it), so the amplitudes are the same bit for bit; a monomial cycle
is exact either way.  Every count a kernel multiplies is a power of two.
Scratch is allocated per call, so a step may run on several states at once
(the mutation judge replays steps outside its lock), and a tiled step
allocates a few tiles, not a half-state temporary.

run() and statevector_of() hold their state in a _Live.  Past 2 * _BLOCK
amplitudes the qubits still in |0> are held apart: the amplitudes over the
other, live, qubits form a block, the prefix of the run's one 2^n buffer.
A gate that leaves its operands in |0> builds no kernel: a control still
in |0> skips a sector kind, and a gate on operands all in |0> whose matrix
maps |0...0> to f|0...0> (p, s, t, z, swap, dcx, rccx and the like) scales
the block by f, or leaves it as it is when f is 1.  Any other gate first
makes its operands in |0> live, in place: block rows move top-first to make
room and zeros fill the new half, with no second state allocated.  Then the
unchanged kernel() step runs on the block with renumbered operands and
makes, on each live amplitude, the numpy or BLAS call its full-width
kernel makes.  A probe read or a measurement with some qubit in |0>
squares the live amplitudes into their places in a zeroed buffer of the
full layout, which sums the way marginal() sums (_held, which marginal()
itself calls on a wide state, with no qubit held), so probe values,
measurements and final states are those of the full-width loop.  Only the
sign of an exact zero may differ from it: amplitudes no live qubit reaches
are never computed, so their +0 or -0 is not tracked.  A smaller state
keeps every qubit live from the start: on states that small the
bookkeeping costs more than it saves.

Once no qubit is held in |0>, a run of _SPLIT_MIN (17) qubits or more
plays the rest split on its top qubits, on any number of CPUs, in the
loop every run takes (_Live.play): probe reads and gates off the top
qubits gather into runs played on pieces of the state, and barrier, id and
skipped measurements leave them gathering.  A gate off the top L qubits
acts on the 2^L pieces of the state in which they are fixed apart, so its
kernel() step for n - L qubits runs on each piece; L is 2 (_LEVELS) for a
gate below qubit n - 2 and 1 for one on it.  The calling thread and one
helper thread take the pieces' tasks as they become ready, each its own
half first (_Segment), so a thread slowed by another process on its CPU
hands its remaining pieces to the other thread rather than stalling it
until both are done.  A gate on the top qubit or a measurement first has
the gathered runs played, then runs on the whole state.  Every
amplitude goes through the numpy calls of the whole-state step (only the
tiles are larger), so the state is the same bit for bit, whichever thread
played a piece.  A probe read is marginal() of each piece, and the pieces'
sums are added pairwise (for a qubit above the pieces, their totals):
numpy's pairwise sum of more than 128 contiguous floats makes those very
additions at the midpoints of marginal()'s buffer for the whole state
(tests/test_live_qubits.py checks it), so probe values are the same bit for
bit too.  Each thread reads into a buffer at most half the size of the
whole state's, and the tiles of both threads' kernels take half the
state's bytes.  A task plays a run of at most _SEGMENT steps and reads on
one piece, so an exception (a time limit) waits for one such task at most.
The helper starts when the first gathered runs are played, so a run that
never splits makes none, and is joined before run() returns or raises.
Which path plays a run depends on the circuit alone, not on the host: on
one CPU the two threads took as long as the unsplit loop.

Probes read Z-basis marginals without touching the amplitudes; probes with
no instruction between them share one marginal read per qubit.  Measurement
collapses its qubit using a seeded generator.  The kernels give the same
amplitudes as the plain 2x2 and tensor products they replace
(tests/kernel_oracle.py), equal in value (only the sign of an exact zero
may differ), so no output depends on which path a gate took.

A run is single-shot: probe values come from the simulated state itself, so
repeated sampling adds nothing to coverage.
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .ir import SPECS, Circuit, GateKind, Instruction, Probe

DEFAULT_QUBIT_LIMIT = 26

ProbeValue = float | tuple[float, float]
ProbeLog = dict[str, ProbeValue]


class SimulationError(Exception):
    pass


@dataclass
class RunResult:
    state: np.ndarray
    probes: ProbeLog
    measurements: dict[int, int] = field(default_factory=dict)


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def marginal(state: np.ndarray, qubit: int) -> tuple[float, float]:
    """Z-basis probabilities (p0, p1) of one qubit."""
    if state.size <= 2 * _BLOCK:
        # both halves in one abs and one square, into a (2, high, low) buffer
        # in C order: each half sums as one contiguous row, as _held does
        halves = state.reshape(-1, 2, 1 << qubit).transpose(1, 0, 2)
        buf = np.abs(halves, out=np.empty(halves.shape))
        np.square(buf, out=buf)
        return tuple(np.add.reduce(buf.reshape(2, -1), axis=1).tolist())
    return _held(state, state.size.bit_length() - 1, qubit, set())


def _held(block: np.ndarray, n: int, qubit: int, zero: set[int]) -> tuple[float, float]:
    """(p0, p1) of one qubit of an n-qubit state whose qubits in zero are
    held in |0> and whose other qubits' amplitudes fill block, little-endian
    in them.  One half at a time, |a|^2 of the block's amplitudes goes into
    their places in a buffer of the half-state shape (zeroed where no
    amplitude lands), which then sums as one contiguous row: the bits do not
    depend on which qubits are held."""
    # views with an axis per qubit in zero and one for qubit, and one per
    # run of other qubits between them: the half-state buffer has none for
    # qubit, the block none for a qubit in zero
    half_shape, half_index, block_shape, axis = [], [], [], None
    above = n
    for q in sorted(zero | {qubit}, reverse=True):
        gap = 1 << (above - q - 1)
        half_shape.append(gap)
        half_index.append(slice(None))
        block_shape.append(gap)
        if q != qubit:
            half_shape.append(2)
            half_index.append(0)
        elif q not in zero:
            axis = len(block_shape)
            block_shape.append(2)
        above = q
    half_shape.append(1 << above)
    half_index.append(slice(None))
    block_shape.append(1 << above)
    buf = (np.zeros if zero else np.empty)((1 << (n - 1 - qubit), 1 << qubit))
    dst = buf.reshape(half_shape)[tuple(half_index)]
    block = block.reshape(block_shape)
    if axis is None:
        np.abs(block, out=dst)
        np.square(dst, out=dst)
        return float(buf.sum()), 0.0
    probs = []
    for value in (0, 1):
        np.abs(block[(slice(None),) * axis + (value,)], out=dst)
        np.square(dst, out=dst)
        probs.append(float(buf.sum()))
    return probs[0], probs[1]


# amplitudes per sector tile: a multi-pass kernel on a larger sector stages
# one tile at a time through contiguous scratch, so its passes hit the cache
_BLOCK = 1 << 12

# one-qubit kinds with a diagonal matrix other than z (a monomial kind): each
# half is scaled, never mixed
_DIAGONAL = (GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.RZ)

Step = Callable[[np.ndarray], None]

# index tuples into a (high, 2, low) view: the half where the qubit reads 0 or 1
_HALF = ((slice(None), 0, slice(None)), (slice(None), 1, slice(None)))


Cycles = tuple[tuple[tuple[int, ...], tuple[complex, ...]], ...]


def _cycles(mat: np.ndarray) -> Cycles | None:
    """The cycles (rows, units) of a matrix with one nonzero entry per row,
    each in {1, -1, 1j, -1j}: rows[j] takes units[j] (its entry) times the
    amplitude of rows[j + 1], the last row that of rows[0].  A row that
    maps to itself with entry 1 is left out.  None for any other matrix."""
    nonzero = mat != 0
    if (nonzero.sum(axis=1) != 1).any():
        return None
    cols = nonzero.argmax(axis=1).tolist()
    entries = mat[np.arange(len(cols)), cols].tolist()
    if any(entry not in (1, -1, 1j, -1j) for entry in entries):
        return None
    cycles, seen = [], set()
    for start in range(len(cols)):
        if start in seen:
            continue
        rows, row = [], start
        while row not in seen:
            seen.add(row)
            rows.append(row)
            row = cols[row]
        units = tuple(entries[row] for row in rows)
        if len(rows) > 1 or units[0] != 1:
            cycles.append((tuple(rows), units))
    return tuple(cycles)


def _sector_cycles(cycles: Cycles, axes: tuple[int, ...]) -> tuple:
    """cycles as (first sector index, the others' indices, units) into an
    operand view (see _operand_view) whose operands have these axes, None
    standing for the unit 1."""
    every = [slice(None)] * (2 * len(axes) + 1)

    def sector(row: int) -> tuple:
        for i, axis in enumerate(axes):
            every[axis] = (row >> i) & 1
        return tuple(every)

    return tuple((sector(rows[0]), tuple(sector(row) for row in rows[1:]),
                  tuple(None if unit == 1 else unit for unit in units))
                 for rows, units in cycles)


def _monomial_kinds() -> dict[GateKind, dict[tuple[int, ...], tuple]]:
    """The kinds whose matrix has one nonzero entry per row, each in {1, -1,
    1j, -1j}, each with the _sector_cycles of its cycles for every order of
    operand axes."""
    kinds = {}
    for kind, spec in SPECS.items():
        if spec.num_params or kind in (GateKind.ID, GateKind.MEASURE,
                                       GateKind.BARRIER):
            continue
        cycles = _cycles(gates.matrix(kind))
        if cycles is not None:
            orders = itertools.permutations(range(1, 2 * spec.num_qubits, 2))
            kinds[kind] = {axes: _sector_cycles(cycles, axes) for axes in orders}
    return kinds


# x, y, z, swap, cx, cy, cz, ccx, ccz, cswap, dcx, rccx and rcccx.  s and its
# relatives stay out: exp(i*pi/2) is not exactly 1j.  On a small state
# working out the sector indices costs about as much as applying a cx, so it
# is done here, once.
_MONOMIAL = _monomial_kinds()


@functools.cache
def _fixed_rows(k: int, fixed: tuple[int, ...]) -> tuple:
    rest = [i for i in range(k) if i not in fixed]
    base = sum(1 << i for i in fixed)
    index = [base + sum(((j >> m) & 1) << i for m, i in enumerate(rest))
             for j in range(1 << len(rest))]
    return np.ix_(index, index)


def _fix(mat: np.ndarray, fixed: tuple[int, ...]) -> np.ndarray:
    """The rows and columns of mat where every operand in fixed reads 1, as
    a matrix over the other operands in their order (little-endian)."""
    return mat[_fixed_rows(mat.shape[0].bit_length() - 1, fixed)]


def _sector_kinds() -> dict[GateKind, tuple[int, ...]]:
    """The kinds with controls whose matrix is the identity off the rows and
    columns where every control reads 1 (all but rccx and rcccx), each with
    its controls' operand positions."""
    kinds = {}
    for kind, spec in SPECS.items():
        if not spec.controls:
            continue
        mat = gates.matrix(kind, (0.5,) * spec.num_params)
        on = _fixed_rows(spec.num_qubits, spec.controls)
        want = np.eye(len(mat), dtype=complex)
        want[on] = mat[on]
        if np.array_equal(mat, want):
            kinds[kind] = spec.controls
    return kinds


# the gate is the identity unless all of its controls read 1: a control still
# in |0> skips it, and its kernel acts on the controls-one sector only
_SECTOR = _sector_kinds()


# kernel() arguments of one gate: kind, params, qubits
Op = tuple[GateKind, tuple[float, ...], tuple[int, ...]]


# a tuple, not a set: `in` finds a member by identity, without hashing
_NO_OP = (GateKind.BARRIER, GateKind.ID)

# the kinds gate_ops() leaves out of a circuit's gate list, which a
# mutant's position (mutation.Mutant.at) indexes
NOT_GATE_OPS = (GateKind.MEASURE, GateKind.BARRIER)

# bound once: looking up an enum member takes about 0.1 us (Python 3.11),
# and kernel() and _Live.play test them for every instruction
_P, _MEASURE = GateKind.P, GateKind.MEASURE


def _no_op(state: np.ndarray) -> None:
    """The step of barrier and id."""


def kernel(kind: GateKind, params: tuple[float, ...], qubits: tuple[int, ...],
           num_qubits: int, block: int | None = None) -> Step:
    """One gate bound to its operands: a step that applies it in place to
    any state of num_qubits qubits (barrier and id do nothing).

    The matrix or scalar factors, view shapes, sector indices, axis orders
    and tiles (of block amplitudes, _BLOCK by default) are worked out here,
    once, so replaying a step costs only its numpy calls.  Raises
    SimulationError for a measurement.
    """
    block = block or _BLOCK
    if kind is _P:
        return _phase(qubits[0], np.exp(1j * params[0]))
    if kind in _NO_OP:
        return _no_op
    if kind is _MEASURE:
        raise SimulationError("apply_gate cannot process measurements")
    plans = _MONOMIAL.get(kind)
    if plans is not None:
        return _monomial(plans, qubits, num_qubits, block)
    mat = gates.matrix(kind, params)
    # not on one qubit, where each half is one amplitude: see _dense_1q
    if kind in _DIAGONAL and num_qubits > 1:
        return _diagonal(mat, qubits[0])
    if len(qubits) == 1:
        return _dense_1q(mat, qubits[0], num_qubits, block)
    # on the controls-one sector; not where the gate spans the state, whose
    # one column numpy multiplies by another path than the full matrix
    controls = _SECTOR.get(kind, ()) if num_qubits > len(qubits) else ()
    return _tensor(mat, qubits, num_qubits, block, controls)


def apply_gate(state: np.ndarray, kind: GateKind,
               params: tuple[float, ...], qubits: tuple[int, ...]) -> None:
    """Apply one gate in place.  Barriers and id are no-ops."""
    kernel(kind, params, qubits, state.size.bit_length() - 1)(state)


def _tiles(shape: tuple[int, ...],
           block: int) -> tuple[tuple[int, ...], list[tuple]]:
    """Cover an array of this shape (powers of two, more than block
    elements in all) in C order with tiles of block elements.

    A tile fixes the leading axes, takes a run of one axis and all of the
    axes after it.  Returns the tiles' shape and their index tuples.
    """
    inner, axis = 1, len(shape)
    while inner * shape[axis - 1] <= block:
        axis -= 1
        inner *= shape[axis]
    run = block // inner
    lead = itertools.product(*(range(size) for size in shape[:axis - 1]))
    tiles = [index + (slice(start, start + run),)
             for index in lead for start in range(0, shape[axis - 1], run)]
    return (run,) + shape[axis:], tiles


def _operand_view(qubits: tuple[int, ...],
                  n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (high, 2, gap, 2, ..., 2, low) shape of an n-qubit state that
    gives each operand an axis of its own, and each operand's axis."""
    top = sorted(qubits, reverse=True)
    shape, above = [], n
    for qubit in top:
        shape.append(1 << (above - qubit - 1))
        shape.append(2)
        above = qubit
    shape.append(1 << above)
    return tuple(shape), tuple([2 * top.index(qubit) + 1 for qubit in qubits])


def _monomial(plans: dict[tuple[int, ...], tuple], qubits: tuple[int, ...],
              n: int, block: int) -> Step:
    """A monomial kind's cycles (plans: its _MONOMIAL entry) on the operand
    sectors: sector j of a cycle takes units[j] times sector j + 1, the last
    sector the first's.  A sector that maps to itself is scaled in place in
    one pass, as _diagonal does; staging it through tiles is slower."""
    shape, axes = _operand_view(qubits, n)
    cycles = plans[axes]
    tiles = None
    if 1 << (n - len(qubits)) > block:
        tile_shape, tiles = _tiles(tuple(size for axis, size in enumerate(shape)
                                         if axis not in axes), block)

    def step(state: np.ndarray) -> None:
        view = state.reshape(shape)
        for first, rest, units in cycles:
            dst = view[first]
            if not rest:
                np.multiply(units[0], dst, out=dst)
            elif tiles is None:
                # the first sector, saved before it is overwritten
                kept = dst.copy()
                for index, unit in zip(rest + (None,), units):
                    src = kept if index is None else view[index]
                    if unit is None:
                        dst[...] = src
                    else:
                        np.multiply(unit, src, out=dst)
                    dst = src
            else:
                # each tile of the cycle's sectors is copied out whole, scaled
                # in the scratch and copied back one sector on
                parts = [dst] + [view[index] for index in rest]
                staged = [np.empty(tile_shape, complex) for _ in parts]
                for tile in tiles:
                    blocks = [part[tile] for part in parts]
                    for block, buf in zip(blocks, staged):
                        np.copyto(buf, block)
                    for j, unit in enumerate(units):
                        buf = staged[(j + 1) % len(units)]
                        if unit is not None:
                            np.multiply(unit, buf, out=buf)
                        np.copyto(blocks[j], buf)
    return step


def _phase(qubit: int, factor: complex) -> Step:
    shape = (-1, 2, 1 << qubit)
    hi_half = _HALF[1]

    def step(state: np.ndarray) -> None:
        half = state.reshape(shape)[hi_half]
        half *= factor
    return step


def _diagonal(mat: np.ndarray, qubit: int) -> Step:
    # mat[b, b] * half with the scalar first, as the dense kernel multiplies;
    # `half *= mat[b, b]` can round differently in numpy's SIMD loops
    shape = (-1, 2, 1 << qubit)
    scaled = [(_HALF[b], mat[b, b]) for b in (0, 1) if mat[b, b] != 1]

    def step(state: np.ndarray) -> None:
        view = state.reshape(shape)
        for index, factor in scaled:
            half = view[index]
            np.multiply(factor, half, out=half)
    return step


def _dense_1q(mat: np.ndarray, qubit: int, n: int, block: int) -> Step:
    shape = (-1, 2, 1 << qubit)
    lo_half, hi_half = _HALF
    m00, m01, m10, m11 = mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1]
    if 1 << (n - 1) <= block:
        def step(state: np.ndarray) -> None:
            view = state.reshape(shape)
            lo = view[lo_half]
            hi = view[hi_half]
            # mat[i, j] * half in that operand order, into two half-size buffers
            new_lo = np.multiply(m00, lo)
            buf = np.multiply(m01, hi)
            np.add(new_lo, buf, out=new_lo)
            np.multiply(m10, lo, out=buf)
            # not in place: numpy rounds an in-place product of one element apart
            np.add(buf, np.multiply(m11, hi), out=hi)
            lo[...] = new_lo
        return step

    tile_shape, tiles = _tiles((1 << (n - 1 - qubit), 1 << qubit), block)

    def tiled(state: np.ndarray) -> None:
        view = state.reshape(shape)
        lo_all, hi_all = view[lo_half], view[hi_half]
        lo, hi, new_lo, buf = (np.empty(tile_shape, complex) for _ in range(4))
        # the same six calls on contiguous copies of one tile of each half
        for tile in tiles:
            np.copyto(lo, lo_all[tile])
            np.copyto(hi, hi_all[tile])
            np.multiply(m00, lo, out=new_lo)
            np.multiply(m01, hi, out=buf)
            np.add(new_lo, buf, out=new_lo)
            np.multiply(m10, lo, out=buf)
            np.multiply(m11, hi, out=hi)
            np.add(buf, hi, out=hi)
            np.copyto(lo_all[tile], new_lo)
            np.copyto(hi_all[tile], hi)
    return tiled


def _tensor(mat: np.ndarray, qubits: tuple[int, ...], n: int, block: int,
            controls: tuple[int, ...] = ()) -> Step:
    """mat by BLAS matmul over a view with one axis per operand and one per
    gap; with controls (operand positions), only _fix(mat, controls) on the
    sector where they all read 1, the rest of the state left as it is.

    More columns than max(_BLOCK, 2 * block / rows) go through tiles of that
    many columns, so a step allocates no state-size temporaries; past
    _BLOCK columns an operand tile holds 2 * block amplitudes whatever its
    rows, so operand and result stage what the dense 2x2 kernel's four tiles
    do.  BLAS gives each column the same bits whatever the column count, in
    multiples of 4: the tiles, a smaller state and the sector all match the
    full matrix on the whole state.
    """
    shape, axes = _operand_view(qubits, n)
    sector = [slice(None)] * len(shape)
    for c in controls:
        sector[axes[c]] = 1
    kept = [axis for axis in range(len(shape))
            if axis not in [axes[c] for c in controls]]
    sub = _fix(mat, controls) if controls else mat
    rows = len(sub)
    columns = max(_BLOCK, block * 2 // rows)
    # bring the target axes to the front most-significant-first, so the
    # flattened index is little-endian in the targets, and put them back
    # with the inverse order; the other axes keep their order, so the
    # flattened operand is the same as over a (2,) * n view
    front = [kept.index(axes[i]) for i in range(len(qubits))
             if i not in controls][::-1]
    order = front + [axis for axis in range(len(kept)) if axis not in front]
    inverse = [order.index(axis) for axis in range(len(kept))]
    moved = tuple(shape[kept[axis]] for axis in order)
    sector = tuple(sector)
    if 1 << (n - len(qubits)) <= columns:
        def step(state: np.ndarray) -> None:
            psi = state.reshape(shape)[sector]
            result = sub @ psi.transpose(order).reshape(rows, -1)
            np.copyto(psi, result.reshape(moved).transpose(inverse))
        return step

    tile_shape, tiles = _tiles(moved[len(front):], columns)
    lead = (slice(None),) * len(front)
    staged_shape = moved[:len(front)] + tile_shape

    def tiled(state: np.ndarray) -> None:
        psi = state.reshape(shape)[sector].transpose(order)
        operand = np.empty(staged_shape, complex)
        result = np.empty(staged_shape, complex)
        flat_operand = operand.reshape(rows, -1)
        flat_result = result.reshape(rows, -1)
        for tile in tiles:
            part = psi[lead + tile]
            np.copyto(operand, part)
            np.matmul(sub, flat_operand, out=flat_result)
            np.copyto(part, result)
    return tiled


# an operation on the block that spans k operands first makes room for
# k + _SPARE live qubits, where the state has them: BLAS rounds a product of
# fewer than 4 columns apart, and numpy an in-place product of one element
_SPARE = 2


class _Live:
    """A run's state; past 2 * _BLOCK amplitudes the qubits still in |0>
    are held apart.

    The amplitudes over the other, live, qubits fill the block: the first
    2^len(live) entries of the run's one 2^n buffer, little-endian in the
    live qubits taken in increasing order.  The full-layout state is the
    block with a 0 spliced into the index for each qubit in zero, and zeros
    everywhere else.
    """

    def __init__(self, state: np.ndarray, num_qubits: int, basis: bool):
        """basis: the state is |0...0>; past 2 * _BLOCK amplitudes its
        qubits then start in zero.  A smaller state keeps every qubit live:
        there the bookkeeping costs more than it saves."""
        self.state = state
        self.n = num_qubits
        wide = 1 << num_qubits > 2 * _BLOCK
        # the qubits still in |0>; block axis i is live qubit live[i]
        self.zero: set[int] = set(range(num_qubits)) if basis and wide else set()
        self.live: list[int] = [q for q in range(num_qubits) if q not in self.zero]
        self.pos = {q: i for i, q in enumerate(self.live)}
        # on a small state, a step per distinct gate (tiles take memory);
        # params with a zero go by repr: 0.0 == -0.0, yet they round apart
        self.steps: dict[tuple, Step] | None = None if wide else {}

    def _block(self) -> np.ndarray:
        return self.state[:1 << len(self.live)]

    def _expand(self, qubit: int) -> None:
        """Make a qubit in zero live, in place: block row r (the amplitudes
        over the live qubits below it) moves to row 2r, the top rows first,
        each move onto rows already moved or past the old block."""
        self.zero.remove(qubit)
        rank = bisect.bisect(self.live, qubit)
        size, low = 1 << len(self.live), 1 << rank
        old = self.state[:size].reshape(-1, low)
        new = self.state[:2 * size].reshape(-1, 2, low)
        top = size // low
        while top > 1:
            mid = top // 2
            new[mid:top, 0] = old[mid:top]
            top = mid
        new[:, 1] = 0.0
        self.live.insert(rank, qubit)
        self.pos = {q: i for i, q in enumerate(self.live)}

    def _widen(self, k: int) -> None:
        while len(self.live) < min(self.n, k + _SPARE):
            self._expand(min(self.zero))

    def apply(self, kind: GateKind, params: tuple[float, ...],
              qubits: tuple[int, ...]) -> None:
        """Apply one gate other than barrier and id: kernel() on the block,
        with its operands made live and renumbered, unless _keeps_zero
        applies it."""
        steps = self.steps
        if steps is not None:
            key = (kind, repr(params) if 0.0 in params else params, qubits)
            step = steps.get(key)
            if step is None:
                step = steps[key] = kernel(kind, params, qubits, self.n)
            step(self.state)
            return
        zero = self.zero
        if zero:
            if any(q in zero for q in qubits) and self._keeps_zero(kind, params, qubits):
                return
            self._widen(len(qubits))
            pos = self.pos
            qubits = tuple(pos[q] for q in qubits)
        kernel(kind, params, qubits, len(self.live))(self._block())

    def _keeps_zero(self, kind: GateKind, params: tuple[float, ...],
                    qubits: tuple[int, ...]) -> bool:
        """Apply a gate that leaves its operands in zero there and return
        True; otherwise make its operands live and return False.

        A control in zero skips a _SECTOR kind.  A gate on operands all in
        zero whose matrix maps |0...0> to f|0...0> scales the block by f.
        Only rz has an f other than 1, scaled with the np.multiply its
        _diagonal kernel makes; where f is 1 the full-width kernel gives
        the live amplitudes back equal in value.
        """
        zero = self.zero
        controls = _SECTOR.get(kind, ())
        if any(qubits[c] in zero for c in controls):
            return True
        if all(q in zero for q in qubits):
            mat = gates.matrix(kind, params)
            if not mat[1:, 0].any():
                factor = mat[0, 0]
                if factor != 1:
                    self._widen(0)
                    block = self._block()
                    np.multiply(factor, block, out=block)
                return True
        for q in qubits:
            if q in zero:
                self._expand(q)
        return False

    def marginal(self, qubit: int) -> tuple[float, float]:
        """marginal() of the full-layout state, bit for bit."""
        if not self.zero:
            return marginal(self.state, qubit)
        return _held(self._block(), self.n, qubit, self.zero)

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Measure a qubit: draw the outcome from the seeded generator by
        its marginal, zero the other half and renormalise.  A qubit in zero
        reads p1 = 0.0, so it measures 0."""
        p0, p1 = self.marginal(qubit)
        outcome = 1 if rng.random() < p1 else 0
        if qubit not in self.zero:
            view = self._block().reshape(-1, 2, 1 << self.pos[qubit])
            view[:, 1 - outcome, :] = 0.0
        norm = np.sqrt(p1 if outcome else p0)
        if norm > 1e-12:
            self._widen(0)
            block = self._block()
            block /= norm
        return outcome

    def expanded(self) -> np.ndarray:
        """The full-layout state, in the run's buffer."""
        self._widen(self.n)
        return self.state

    def play(self, instructions: Iterable[Instruction],
             rng: np.random.Generator | None) -> tuple[ProbeLog, dict[int, int]]:
        """Run instructions in order; returns the probe log and the
        measurements (skipped when rng is None).

        Once a run of _SPLIT_MIN qubits or more holds no qubit in zero, on
        any number of CPUs, it is split: gates and probe reads gather into
        runs of at most _SEGMENT steps and reads, each run on the pieces of
        one level.  At level L the 2^L pieces of 2^(n - L) amplitudes are
        those in which the top L qubits are fixed, with kernel() steps for
        n - L qubits.  A gate takes the highest level up to _LEVELS that
        leaves its qubits inside a piece; a read joins the run before it.
        Barrier, id and skipped measurements leave the runs gathering.  A
        gate on the top qubit or a measurement first has the gathered runs
        played (_Segment), then runs on the whole state, as every gate and
        measurement of a run that is not split does.
        """
        n = self.n
        log: ProbeLog = {}
        measurements: dict[int, int] = {}
        splits = n >= _SPLIT_MIN
        # fewer, larger tiles than _BLOCK take fewer numpy calls, each of
        # which takes the GIL; the four dense 2x2 tiles of both threads (1/16
        # of the state each, as much as a tensor step stages) then take half
        # the state's bytes, which keeps a split run under 1.6 states
        # (tests/test_split.py).  Only where it splits: n may be under 4
        block = max(_BLOCK, 1 << (n - 4)) if splits else _BLOCK
        # (level, kernel() steps and marginal() reads for n - level qubits)
        runs: list[tuple[int, list[Callable]]] = []
        # the probes gathered, each with the run and the index of its read
        probes: list[tuple[Probe, int, int]] = []
        # reads since the last non-probe instruction, by qubit read: the
        # marginal, or once split the run and the index of the read
        reads: dict[int, tuple] = {}

        def add(level: int, item: Callable) -> tuple[int, int]:
            if not runs or runs[-1][0] != level or len(runs[-1][1]) >= _SEGMENT:
                runs.append((level, []))
            runs[-1][1].append(item)
            return len(runs) - 1, len(runs[-1][1]) - 1

        # the helper thread starts with the first runs played, and is
        # joined before play() returns or raises
        with contextlib.ExitStack() as stack:
            helper = None

            def flush() -> None:
                nonlocal helper
                helper = helper or stack.enter_context(ThreadPoolExecutor(1))
                played = _Segment(self.state, runs).play(helper)
                for probe, r, i in probes:
                    _record(log, probe, _combine(probe.qubit, n - runs[r][0],
                                                 [got[i] for got in played[r]]))
                runs.clear()
                probes.clear()

            for instr in instructions:
                split = splits and not self.zero
                if isinstance(instr, Probe):
                    _check_label(log, instr)
                    if not split:
                        if instr.qubit not in reads:
                            reads[instr.qubit] = self.marginal(instr.qubit)
                        _record(log, instr, reads[instr.qubit])
                        continue
                    level = runs[-1][0] if runs else _LEVELS
                    # a piece's top qubit reads every qubit above it too
                    qubit = min(instr.qubit, n - level - 1)
                    if qubit not in reads:
                        reads[qubit] = add(level, functools.partial(marginal, qubit=qubit))
                    probes.append((instr, *reads[qubit]))
                    log[instr.label] = None  # its place; flush() fills it in
                    continue
                reads.clear()
                kind = instr.kind
                measure = kind is _MEASURE
                if kind in _NO_OP or (measure and rng is None):
                    continue
                if split and not measure:
                    level = min(_LEVELS, n - 1 - max(instr.qubits))
                    if level:
                        add(level, kernel(kind, instr.params, instr.qubits, n - level, block))
                        if sum(len(items) for _, items in runs) >= _GATHER:
                            flush()
                        continue
                if runs:
                    flush()
                if measure:
                    measurements[instr.clbits[0]] = self.measure(instr.qubits[0], rng)
                else:
                    self.apply(kind, instr.params, instr.qubits)
            if runs:
                flush()
        return log, measurements


# the fewest qubits a run splits at.  Below 17 a piece's numpy calls are too
# short to gain on the GIL hand-offs between the threads: on two x86-64 CPUs
# (2 MiB of L2 each) cover_wide-like runs at 15 and 16 qubits took 1.13 to
# 1.28 times as long split, at 17 qubits about 0.76 times and at 18 and 19
# 0.66 to 0.73 times (BENCH_26.json, its run_by_width lines).  Pinned to one
# CPU, cover_wide's 18-qubit runs took as long split as unsplit, so a run
# splits whatever CPUs it may use.  The reads need n >= 8 + _LEVELS
# (_combine).
_SPLIT_MIN = 17

# the most top qubits a split run fixes: four pieces, so that a thread that
# finishes early takes over pieces of the other's half
_LEVELS = 2

# the most steps and reads in one run: an exception (a time limit) leaves
# run() once the helper has played the run it holds on one piece
_SEGMENT = 16

# the most steps and reads gathered before they are played: their kernel()
# steps hold tile indices, which a long stretch off the top qubit would
# otherwise add up
_GATHER = 4 * _SEGMENT


class _Segment:
    """Runs to play on the pieces of a state, by the calling thread and a
    helper.  A task plays one run on one piece; it is ready once the run
    before has been played on every piece that overlaps it.  Each thread
    takes ready tasks on its own half of the state first, in run order (the
    caller the lower half, the helper the upper), then the other half's:
    a thread held up (by another process on its CPU) leaves its tasks to the
    other thread instead of stalling it at every run.  The pieces hold the
    same amplitudes however the tasks fall, so the bytes do not depend on
    the timing."""

    def __init__(self, state: np.ndarray, runs: list[tuple[int, list[Callable]]]):
        self.runs = runs
        self.pieces = {level: np.split(state, 1 << level) for level, _ in runs}
        self.played: list[list] = [[None] * (1 << level) for level, _ in runs]
        self.done: list[set[int]] = [set() for _ in runs]
        self.todo = [(r, p) for r, (level, _) in enumerate(runs) for p in range(1 << level)]
        self.changed = threading.Condition()

    def play(self, helper: ThreadPoolExecutor) -> list[list]:
        """What each item of each run returned, by run and piece."""
        pending = helper.submit(self._work, 1)
        self._work(0)
        pending.result()
        return self.played

    def _ready(self, r: int, p: int) -> bool:
        if r == 0:
            return True
        level, before = self.runs[r][0], self.runs[r - 1][0]
        if before <= level:
            return p >> (level - before) in self.done[r - 1]
        shift = before - level
        return all(q in self.done[r - 1] for q in range(p << shift, (p + 1) << shift))

    def _claim(self, side: int) -> tuple[int, int] | None:
        def order(task: tuple[int, int]) -> tuple[bool, int, int]:
            r, p = task
            level = self.runs[r][0]
            return (p >> (level - 1) != side, r, p if side == 0 else -p)
        ready = [task for task in self.todo if self._ready(*task)]
        if not ready:
            return None
        task = min(ready, key=order)
        self.todo.remove(task)
        return task

    def _work(self, side: int) -> None:
        try:
            while True:
                with self.changed:
                    task = self._claim(side)
                    while task is None:
                        if not self.todo:
                            return
                        # every task left waits on one the other thread holds
                        self.changed.wait()
                        task = self._claim(side)
                r, p = task
                level, items = self.runs[r]
                self.played[r][p] = _play(self.pieces[level][p], items)
                with self.changed:
                    self.done[r].add(p)
                    self.changed.notify()
        except BaseException:
            # the other thread stops after the task it holds
            with self.changed:
                self.todo.clear()
                self.changed.notify()
            raise


def _combine(qubit: int, top: int, reads: list[tuple[float, float]]) -> tuple[float, float]:
    """The whole state's marginal() of a qubit from each piece's marginal()
    of min(qubit, top - 1), for pieces of top qubits each.

    marginal() sums a buffer of 2^(n - 1) floats, and numpy sums more than
    128 contiguous floats pairwise: the first half, then the second, then
    the two added (tests/test_live_qubits.py).  Split down to 2^(top - 1)
    floats, that is the pairwise addition of the pieces' sums in order:
    of their (p0, p1) for a qubit below the pieces' top; for a qubit above,
    of their totals p0 + p1 (the same split once more), over the pieces
    where the qubit reads 0 and over those where it reads 1."""
    if qubit < top:
        return _pairwise([r[0] for r in reads]), _pairwise([r[1] for r in reads])
    totals = [p0 + p1 for p0, p1 in reads]
    bit = 1 << (qubit - top)
    return (_pairwise([t for i, t in enumerate(totals) if not i & bit]),
            _pairwise([t for i, t in enumerate(totals) if i & bit]))


def _pairwise(sums: list[float]) -> float:
    """Add a power-of-two count of sums as numpy's pairwise sum adds the
    halves of its buffer."""
    while len(sums) > 1:
        sums = [sums[i] + sums[i + 1] for i in range(0, len(sums), 2)]
    return sums[0]


def _play(piece: np.ndarray, items: list[Callable]) -> list:
    """Apply a run's steps and reads to one piece, in order: what each
    returned (None for a step)."""
    return [item(piece) for item in items]


def _check_label(log: ProbeLog, probe: Probe) -> None:
    if probe.label in log:
        raise SimulationError(f"duplicate probe label {probe.label!r}")


def _record(log: ProbeLog, probe: Probe, read: tuple[float, float]) -> None:
    p0, p1 = read
    log[probe.label] = (p0 - p1) if probe.mode == "expectation" else (p0, p1)


def _check_initial(initial: np.ndarray, num_qubits: int) -> np.ndarray:
    state = np.asarray(initial, dtype=np.complex128).reshape(-1).copy()
    if state.size != 1 << num_qubits:
        raise SimulationError(
            f"initial state has {state.size} amplitudes, expected {1 << num_qubits}")
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise SimulationError("initial state is not normalized")
    return state


def _check_width(num_qubits: int, qubit_limit: int) -> None:
    if num_qubits > qubit_limit:
        raise SimulationError(f"{num_qubits} qubits exceeds the limit of {qubit_limit}")


def _check_norm(state: np.ndarray) -> None:
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise SimulationError("statevector norm drifted beyond 1e-10")


def run(circuit: Circuit, initial: np.ndarray | None = None, *,
        seed: int = 0, qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> RunResult:
    """Execute a circuit in one pass, recording probe values and measurements.

    Probes never modify the state; stripping them from the circuit yields a
    bitwise-identical final statevector.
    """
    state, log, measurements = _simulate(circuit, initial, seed, qubit_limit)
    _check_norm(state)
    return RunResult(state, log, measurements)


def _simulate(circuit: Circuit, initial: np.ndarray | None, seed: int | None,
              qubit_limit: int) -> tuple[np.ndarray, ProbeLog, dict[int, int]]:
    """The final state, the probe log and the measurements of one run from
    initial (|0...0> when None); measurements are skipped when seed is
    None."""
    n = circuit.num_qubits
    _check_width(n, qubit_limit)
    state = zero_state(n) if initial is None else _check_initial(initial, n)
    live = _Live(state, n, initial is None)
    rng = None if seed is None else np.random.default_rng(seed)
    log, measurements = live.play(circuit.instructions, rng)
    return live.expanded(), log, measurements


def gate_ops(circuit: Circuit, qubit_limit: int) -> list[Op]:
    """kernel() arguments of every instruction except measurements and
    barriers, in order: the gate list the mutation judge replays.

    Raises SimulationError for a circuit with probes, then for one wider
    than qubit_limit.
    """
    ops: list[Op] = []
    for instr in circuit.instructions:
        if isinstance(instr, Probe):
            raise SimulationError("gate_ops expects a probe-free circuit")
        if instr.kind not in NOT_GATE_OPS:
            ops.append((instr.kind, instr.params, instr.qubits))
    _check_width(circuit.num_qubits, qubit_limit)
    return ops


def statevector_of(circuit: Circuit, *,
                   qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> np.ndarray:
    """Final pre-measurement statevector from the all-zero input.

    Measurements are skipped (the state is taken before any collapse);
    probes are not allowed.
    """
    if circuit.has_probes():
        raise SimulationError("statevector_of expects a probe-free circuit")
    return _simulate(circuit, None, None, qubit_limit)[0]


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|: equals 1.0 iff the states are equal up to global phase."""
    return float(abs(np.vdot(a, b)))
