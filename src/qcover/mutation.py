"""
First-order mutation of circuits and statevector-based kill classification.

Three operators act on probe-free circuits:
    qgr  replace a gate with another kind from its syntactic class
    qgd  delete a gate
    qgi  insert a gate from the site's syntactic class right after it

Syntactic classes keep the edit well-formed (same qubit and parameter
counts):
    A  parameterless single-qubit      h x y z s sdg t tdg sx id
    B  one-parameter single-qubit      rx ry rz p
    C  parameterless single-control    cx cy cz ch csx
    D  one-parameter single-control    crx cry crz cp cu1

A mutant is an edit record, not a circuit: at the index `at` of the
original's gate list (simulator.gate_ops: every instruction but
measurements and barriers) it drops `drop` gates, 0 or 1, and puts the
gates `insert` there.  It is judged against the original by comparing
pre-measurement statevectors: |<orig|mut>| >= 1 - tolerance means the
mutant survived (states equal up to global phase), anything less means it
was killed.  A mutant whose gate list (the original's, less `drop`, plus
`insert`) is longer than timeout_factor times the original's counts as a
timeout instead: a gate-count ratio, not a clock, so campaign CSV output is
byte-stable across runs.

judge() shares one forward run of the original across calls.  The first
call for an original reads its gate list in one pass, which also rejects
probes and too many qubits, builds one kernel step per entry of the list
(simulator.kernel), runs those steps once for its final state, and keeps
both and a cursor: the original's state after some number of the steps.
Each call moves the cursor to the edit's index `at` (starting again from
|0...0> when the cursor is already past it), copies it, applies kernels
for the gates of `insert`, and compares the copy with the cursor
(np.array_equal).  If they differ, or the edit drops more than one gate,
it replays the original's prebuilt steps after the dropped ones.  If they
are equal, the mutant ends where the original without its dropped gates
ends, and it replays no suffix of its own:
    drop 0  the original's own final state: fidelity(final, final),
            computed once per original;
    drop 1  the original without gate `at`, whose fidelity is stored per
            site on first use: the copy tries that gate, and only if the
            gate changes it is the cursor copied back and the suffix after
            the gate replayed.  Later mutants at the site reuse the value.
Every replayed amplitude goes through the same kernels in the same order
as in full runs, kernels and fidelity read amplitudes only by value, and
the one difference np.array_equal ignores is the sign of an exact zero;
so fidelities and verdicts are bit-identical to full re-simulation of the
edited circuit.  A mutant that times out is not simulated at all.  A call
cut short by an exception that judge() does not make an error verdict
(the CLI's time limit is one) leaves the shared run usable: a cursor
caught mid-sweep is marked, and the next call starts it again.  The price
is memory: while the original circuit is alive, two extra states of 2^n
amplitudes each stay held (one original at a time; judging another
original frees them), and one working copy per call in progress.
The shortcut holds no further state, only one float per site.

Measurements and barriers are never mutation sites: deleting a measurement
cannot change the pre-measurement state this comparison looks at.
"""
from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .coverage import CoverageReport
from .ir import Circuit, GateKind
from .simulator import (DEFAULT_QUBIT_LIMIT, NOT_GATE_OPS, Op, fidelity,
                        gate_ops, kernel, zero_state)

OPERATORS = ("qgr", "qgd", "qgi")
DEFAULT_TOLERANCE = 1e-8
DEFAULT_TIMEOUT_FACTOR = 1.10

SYNTACTIC_CLASSES: tuple[tuple[GateKind, ...], ...] = (
    (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.SDG,
     GateKind.T, GateKind.TDG, GateKind.SX, GateKind.ID),
    (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.P),
    (GateKind.CX, GateKind.CY, GateKind.CZ, GateKind.CH, GateKind.CSX),
    (GateKind.CRX, GateKind.CRY, GateKind.CRZ, GateKind.CP, GateKind.CU1),
)

_CLASS_OF: dict[GateKind, tuple[GateKind, ...]] = {
    kind: cls for cls in SYNTACTIC_CLASSES for kind in cls
}


class MutationError(Exception):
    pass


@dataclass(frozen=True)
class Mutant:
    mutant_id: int
    operator: str
    site: int        # instruction id in the original circuit
    detail: str
    at: int          # index in the original's gate_ops where the edit starts
    drop: int        # original gates removed at `at`: 0 or 1
    insert: tuple[Op, ...]  # gates put at `at`


@dataclass(frozen=True)
class MutantVerdict:
    mutant_id: int
    status: str      # killed | survived | timeout | error
    fidelity: float | None


def generate_mutants(circuit: Circuit, operators: tuple[str, ...] = OPERATORS,
                     seed: int = 0, budget: int | None = None) -> list[Mutant]:
    """Enumerate first-order mutants, optionally subsampled to a budget.

    Enumeration is deterministic: operators in canonical order, sites in
    program order, replacement kinds in class order.  The seed only matters
    when a budget forces subsampling; a negative budget raises
    MutationError.  Each mutant is an edit of the circuit's gate list:
    qgr drops the site's gate and inserts the replacement, qgd drops it,
    and qgi inserts the new gate after it.
    """
    if budget is not None and budget < 0:
        raise MutationError(f"budget must not be negative, got {budget}")
    if circuit.has_probes():
        raise MutationError("mutation expects a probe-free circuit")
    for op in operators:
        if op not in OPERATORS:
            raise MutationError(f"unknown mutation operator {op!r}")

    # the gate list gate_ops gives; without probes every instruction is a gate
    sites = [instr for instr in circuit.instructions if instr.kind not in NOT_GATE_OPS]
    mutants: list[Mutant] = []

    def add(operator: str, site: int, detail: str, at: int, drop: int,
            insert: tuple[Op, ...]) -> None:
        mutants.append(Mutant(len(mutants), operator, site, detail, at, drop, insert))

    for operator in OPERATORS:
        if operator not in operators:
            continue
        for at, site in enumerate(sites):
            was = site.kind.value
            if operator == "qgd":
                add("qgd", site.id, f"delete {was}", at, 1, ())
                continue
            for kind in _CLASS_OF.get(site.kind, ()):
                insert = ((kind, site.params, site.qubits),)
                if operator == "qgi":
                    add("qgi", site.id, f"insert {kind.value} after {was}", at + 1, 0, insert)
                elif kind is not site.kind:
                    add("qgr", site.id, f"{was}->{kind.value}", at, 1, insert)

    if budget is not None and budget < len(mutants):
        rng = np.random.default_rng(seed)
        keep = sorted(rng.choice(len(mutants), size=budget, replace=False))
        mutants = [replace(mutants[i], mutant_id=new_id)
                   for new_id, i in enumerate(keep)]
    return mutants


# -- judging -----------------------------------------------------------------

class _SharedPrefix:
    """One forward run of an original circuit, reused by judge().

    steps are the kernels of the original's gate list, built once; final
    is its statevector and unchanged is fidelity(final, final); cursor is
    its state after the first `position` steps; deleted maps a gate index
    to the fidelity of the original without that gate, once a mutant has
    needed it.
    """

    def __init__(self, original: Circuit, qubit_limit: int):
        self.original = weakref.ref(original, _forget)
        self.qubit_limit = qubit_limit
        self.num_qubits = original.num_qubits
        self.steps = [kernel(*op, self.num_qubits)
                      for op in gate_ops(original, qubit_limit)]
        self.final = zero_state(self.num_qubits)
        for step in self.steps:
            step(self.final)
        self.unchanged = fidelity(self.final, self.final)
        self.deleted: dict[int, float] = {}
        self.cursor = zero_state(self.num_qubits)
        self.position = 0
        self.lock = threading.Lock()

    def fidelity_of(self, mutant: Mutant) -> float:
        """fidelity(final, state), bit for bit, where state is the
        statevector_of the original with the mutant's edit applied to its
        gate list, from the shared run; an edit that leaves the cursor's
        state as it was replays no suffix (see the module docstring)."""
        at, drop = mutant.at, mutant.drop
        with self.lock:
            if not 0 <= self.position <= at:
                self.cursor = zero_state(self.num_qubits)
                self.position = 0
            # -1 marks the cursor unusable until the sweep completes, so an
            # interrupted sweep forces a restart instead of a bad state
            start, self.position = self.position, -1
            for step in self.steps[start:at]:
                step(self.cursor)
            self.position = at
            state = self.cursor.copy()
            for op in mutant.insert:
                kernel(*op, self.num_qubits)(state)
            fill = False
            if drop < 2 and np.array_equal(state, self.cursor):
                if drop == 0:
                    return self.unchanged
                if at in self.deleted:
                    return self.deleted[at]
                # the mutant is the original without gate `at`
                self.steps[at](state)
                if np.array_equal(state, self.cursor):
                    self.deleted[at] = self.unchanged
                    return self.unchanged
                np.copyto(state, self.cursor)
                fill = True
        for step in self.steps[at + drop:]:
            step(state)
        fid = fidelity(self.final, state)
        if fill:
            with self.lock:
                self.deleted[at] = fid
        return fid


# The one original whose run is shared.  Replacing it from another thread
# only costs a rebuild: each call keeps the _SharedPrefix it started with.
_slot: _SharedPrefix | None = None


def _forget(ref: weakref.ref) -> None:
    global _slot
    if _slot is not None and _slot.original is ref:
        _slot = None


def _shared_prefix(original: Circuit, qubit_limit: int) -> _SharedPrefix:
    global _slot
    slot = _slot
    if (slot is None or slot.original() is not original
            or slot.qubit_limit != qubit_limit):
        slot = _slot = _SharedPrefix(original, qubit_limit)
    return slot


def _check_thresholds(tolerance: float, timeout_factor: float) -> None:
    # written as "not (valid)" so that a NaN is rejected too
    if not 0.0 <= tolerance < 1.0:
        raise MutationError(f"tolerance must lie in [0, 1), got {tolerance!r}")
    if not timeout_factor > 0.0:
        raise MutationError(f"timeout_factor must be positive, got {timeout_factor!r}")


def judge(original: Circuit, mutant: Mutant,
          tolerance: float = DEFAULT_TOLERANCE,
          timeout_factor: float = DEFAULT_TIMEOUT_FACTOR, *,
          timing: str = "cost",
          qubit_limit: int = DEFAULT_QUBIT_LIMIT) -> MutantVerdict:
    """Classify one mutant as killed, survived, or timeout.

    Simulation failures yield an 'error' verdict rather than raising, so a
    campaign can keep going.  The original's run is shared with the
    previous call when `original` is the same object and `qubit_limit` is
    unchanged, as the module docstring describes.  A mutant times out when
    its gate list is longer than timeout_factor times the original's;
    `timing` accepts only "cost", this gate count.  Raises MutationError
    for a tolerance outside [0, 1), a timeout_factor that is not positive,
    or an edit that does not fit the original's gate list.
    """
    if timing != "cost":
        raise MutationError(f"unknown timing mode {timing!r}")
    _check_thresholds(tolerance, timeout_factor)
    error = MutantVerdict(mutant.mutant_id, "error", None)
    try:
        prefix = _shared_prefix(original, qubit_limit)
    except Exception:
        return error
    gates = len(prefix.steps)
    if not 0 <= mutant.at <= mutant.at + mutant.drop <= gates:
        raise MutationError(
            f"mutant {mutant.mutant_id} edits gates {mutant.at} to "
            f"{mutant.at + mutant.drop} of a gate list of {gates}")
    if gates - mutant.drop + len(mutant.insert) > timeout_factor * gates:
        return MutantVerdict(mutant.mutant_id, "timeout", None)
    try:
        fid = prefix.fidelity_of(mutant)
    except Exception:
        return error
    status = "survived" if fid >= 1.0 - tolerance else "killed"
    return MutantVerdict(mutant.mutant_id, status, fid)


def mutation_score(verdicts: list[MutantVerdict]) -> float:
    """Killed mutants over all generated mutants, timeouts included."""
    if not verdicts:
        raise MutationError("mutation_score needs at least one verdict")
    counted = [v for v in verdicts if v.status in ("killed", "survived", "timeout")]
    if not counted:
        raise MutationError("no judged mutants to score")
    killed = sum(1 for v in counted if v.status == "killed")
    return killed / len(counted)


# -- campaign ---------------------------------------------------------------

CSV_COLUMNS = ("circuit", "qubits", "operator", "mutants", "killed", "survived",
               "timeout", "score", "condition_cov", "decision_cov", "path_cov",
               "prob_condition", "prob_decision", "prob_path")


@dataclass(frozen=True)
class CampaignResult:
    circuit_name: str
    num_qubits: int
    operators: tuple[str, ...]
    mutants: int
    killed: int
    survived: int
    timeout: int
    errors: int
    score: float | None
    per_operator: dict[str, tuple[int, int, int, int]]  # op -> (total, k, s, t)
    verdicts: tuple[MutantVerdict, ...]
    report: CoverageReport

    def csv_row(self) -> str:
        score = "" if self.score is None else repr(self.score)
        cells = [self.circuit_name, str(self.num_qubits),
                 "+".join(self.operators), str(self.mutants), str(self.killed),
                 str(self.survived), str(self.timeout), score,
                 repr(self.report.condition), repr(self.report.decision),
                 repr(self.report.path), repr(self.report.prob_condition),
                 repr(self.report.prob_decision), repr(self.report.prob_path)]
        return ",".join(cells)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def campaign(circuit: Circuit, report: CoverageReport,
             operators: tuple[str, ...] = OPERATORS, *,
             circuit_name: str = "", seed: int = 0, budget: int | None = None,
             tolerance: float = DEFAULT_TOLERANCE,
             timeout_factor: float = DEFAULT_TIMEOUT_FACTOR,
             qubit_limit: int = DEFAULT_QUBIT_LIMIT,
             mutants: list[Mutant] | None = None,
             verdicts: list[MutantVerdict] | None = None) -> CampaignResult:
    """Generate, judge, and tally every mutant of one circuit.

    Pre-generated mutants may be supplied, and then seed and budget go
    unused; so may their verdicts, and then nothing is judged here and
    tolerance, timeout_factor and qubit_limit go unused.  Engine errors on
    individual mutants are tallied without aborting; the caller decides how
    to surface them (the CLI exits nonzero).  Raises MutationError for the
    argument values that judge() and generate_mutants() reject.
    """
    _check_thresholds(tolerance, timeout_factor)
    operators = tuple(sorted(set(operators)))
    if mutants is None:
        mutants = generate_mutants(circuit, operators, seed=seed, budget=budget)
    if verdicts is None:
        verdicts = [judge(circuit, mutant, tolerance, timeout_factor,
                          qubit_limit=qubit_limit)
                    for mutant in mutants]
    if len(verdicts) != len(mutants):
        raise MutationError("verdict list does not match the mutant list")
    # per operator: total, killed, survived, timeout, error
    per_operator: dict[str, list[int]] = {op: [0] * 5 for op in operators}
    for mutant, verdict in zip(mutants, verdicts):
        tally = per_operator.get(mutant.operator)
        if tally is None:
            raise MutationError(
                f"mutant {mutant.mutant_id} has operator {mutant.operator!r}, "
                f"not one of {'+'.join(operators)}")
        tally[0] += 1
        tally[1 + ("killed", "survived", "timeout", "error").index(verdict.status)] += 1
    killed, survived, timeouts, errors = (
        sum(tally[column] for tally in per_operator.values()) for column in range(1, 5))
    judged = killed + survived + timeouts
    # the same division as mutation_score(verdicts)
    score = killed / judged if judged else None

    return CampaignResult(
        circuit_name=circuit_name,
        num_qubits=circuit.num_qubits,
        operators=operators,
        mutants=len(mutants),
        killed=killed,
        survived=survived,
        timeout=timeouts,
        errors=errors,
        score=score,
        per_operator={op: tuple(v[:4]) for op, v in per_operator.items()},
        verdicts=tuple(verdicts),
        report=report,
    )
