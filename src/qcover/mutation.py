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

A mutant is judged against the original by comparing pre-measurement
statevectors: |<orig|mut>| >= 1 - tolerance means the mutant survived
(states equal up to global phase), anything less means it was killed.  A
mutant whose run costs more than timeout_factor times the original's counts
as a timeout instead.  Runtime is charged in deterministic cost units:
the length of the circuit's gate list (simulator.gate_ops: every
instruction but measurements and barriers) times 2^n, so campaign CSV
output is byte-stable across runs.

judge() reads a mutant's gate list in one pass, which also rejects probes
and too many qubits; that list gives the cost and the match against the
original's.  judge() shares one forward run of the original across calls.
The first call for an original builds one kernel step per entry of its list
(simulator.kernel), runs those steps once for its final state, and keeps
both and a cursor: the original's state after some number of the steps.
Each later call finds the prefix and the suffix of the gate list that the
mutant shares with the original (the suffix never overlaps the prefix),
moves the cursor to the end of the prefix (starting again from |0...0> when
the cursor is already past it), copies it, applies kernels for only the
mutant's own gates between the two, and then replays the original's
prebuilt steps for the suffix.  A generated mutant edits one gate, so it
applies at most one kernel of its own.  Every amplitude goes through the
same kernels in the same order as in two full runs, so states, fidelities
and verdicts are bit-identical to full re-simulation.  A mutant that times
out by cost is not simulated at all.  The price is memory: while the
original circuit is alive, two extra states of 2^n amplitudes each stay
held (one original at a time; judging another original frees them).

Measurements and barriers are never mutation sites: deleting a measurement
cannot change the pre-measurement state this comparison looks at.
"""
from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .coverage import CoverageReport
from .ir import Circuit, GateInstruction, GateKind, renumber
from .simulator import (DEFAULT_QUBIT_LIMIT, Op, fidelity, gate_ops, kernel,
                        zero_state)

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
    circuit: Circuit


@dataclass(frozen=True)
class MutantVerdict:
    mutant_id: int
    status: str      # killed | survived | timeout | error
    fidelity: float | None
    original_runtime: float
    mutant_runtime: float


def _splice(instructions: tuple, pos: int, drop: int, insert: tuple) -> tuple:
    """renumber(instructions with `drop` of them at pos replaced by insert).

    Every id must equal its position, and each inserted id its new
    position: the instructions whose id does not move are reused and only
    the shifted tail is rebuilt.
    """
    spliced = instructions[:pos] + insert + instructions[pos + drop:]
    if len(insert) == drop:
        return spliced
    end = pos + len(insert)
    return spliced[:end] + renumber(spliced[end:], start=end)


def generate_mutants(circuit: Circuit, operators: tuple[str, ...] = OPERATORS,
                     seed: int = 0, budget: int | None = None) -> list[Mutant]:
    """Enumerate first-order mutants, optionally subsampled to a budget.

    Enumeration is deterministic: operators in canonical order, sites in
    program order, replacement kinds in class order.  The seed only matters
    when a budget forces subsampling; a negative budget raises
    MutationError.  Mutant instruction ids are dense in program order.
    """
    if budget is not None and budget < 0:
        raise MutationError(f"budget must not be negative, got {budget}")
    if circuit.has_probes():
        raise MutationError("mutation expects a probe-free circuit")
    for op in operators:
        if op not in OPERATORS:
            raise MutationError(f"unknown mutation operator {op!r}")

    instructions = tuple(circuit.instructions)
    if not all(instr.id == pos for pos, instr in enumerate(instructions)):
        instructions = renumber(instructions)
    # (position, instruction); without probes every instruction is a gate
    sites = [(pos, instr) for pos, instr in enumerate(circuit.instructions)
             if instr.kind not in (GateKind.MEASURE, GateKind.BARRIER)]
    mutants: list[Mutant] = []

    def add(operator: str, site: int, detail: str, pos: int, drop: int,
            insert: tuple) -> None:
        body = _splice(instructions, pos, drop, insert)
        mutants.append(Mutant(len(mutants), operator, site, detail,
                              Circuit(circuit.num_qubits, circuit.num_clbits, body)))

    for operator in OPERATORS:
        if operator not in operators:
            continue
        if operator == "qgr":
            for pos, site in sites:
                cls = _CLASS_OF.get(site.kind)
                if cls is None:
                    continue
                for kind in cls:
                    if kind is site.kind:
                        continue
                    replaced = GateInstruction(pos, kind, site.qubits, site.params)
                    add("qgr", site.id, f"{site.kind.value}->{kind.value}",
                        pos, 1, (replaced,))
        elif operator == "qgd":
            for pos, site in sites:
                add("qgd", site.id, f"delete {site.kind.value}", pos, 1, ())
        else:  # qgi
            for pos, site in sites:
                cls = _CLASS_OF.get(site.kind)
                if cls is None:
                    continue
                for kind in cls:
                    inserted = GateInstruction(pos + 1, kind, site.qubits, site.params)
                    add("qgi", site.id, f"insert {kind.value} after {site.kind.value}",
                        pos + 1, 0, (inserted,))

    if budget is not None and budget < len(mutants):
        rng = np.random.default_rng(seed)
        keep = sorted(rng.choice(len(mutants), size=budget, replace=False))
        mutants = [Mutant(new_id, mutants[i].operator, mutants[i].site,
                          mutants[i].detail, mutants[i].circuit)
                   for new_id, i in enumerate(keep)]
    return mutants


# -- judging -----------------------------------------------------------------

class _SharedPrefix:
    """One forward run of an original circuit, reused by judge().

    keys is the original's gate list and cost its cost units; final is its
    statevector and steps the kernels of keys, built once; cursor is its
    state after the first `position` steps.
    """

    def __init__(self, original: Circuit, qubit_limit: int):
        self.original = weakref.ref(original, _forget)
        self.qubit_limit = qubit_limit
        self.num_qubits = original.num_qubits
        self.keys = gate_ops(original, qubit_limit)
        self.cost = float(len(self.keys) << self.num_qubits)
        self.steps = [kernel(*key, self.num_qubits) for key in self.keys]
        self.final = zero_state(self.num_qubits)
        for step in self.steps:
            step(self.final)
        self.cursor = zero_state(self.num_qubits)
        self.position = 0
        self.lock = threading.Lock()

    def statevector_of(self, ops: list[Op]) -> np.ndarray:
        """statevector_of, bit for bit, of a circuit of the original's width
        whose gate_ops are ops, from the shared run."""
        k = s = 0
        for mine, theirs in zip(self.keys, ops):
            if mine != theirs:
                break
            k += 1
        # the shared suffix starts after the shared prefix in both circuits
        limit = min(len(ops), len(self.keys)) - k
        while s < limit and ops[-1 - s] == self.keys[-1 - s]:
            s += 1
        if k == 0:
            state = zero_state(self.num_qubits)
        else:
            with self.lock:
                if not 0 <= self.position <= k:
                    self.cursor = zero_state(self.num_qubits)
                    self.position = 0
                # -1 marks the cursor unusable until the sweep completes, so
                # an interrupted sweep forces a restart instead of a bad state
                start, self.position = self.position, -1
                for step in self.steps[start:k]:
                    step(self.cursor)
                self.position = k
                state = self.cursor.copy()
        for op in ops[k:len(ops) - s]:
            kernel(*op, self.num_qubits)(state)
        for step in self.steps[len(self.steps) - s:]:
            step(state)
        return state


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

    Simulation failures, and a mutant whose qubit count differs from the
    original's, yield an 'error' verdict rather than raising, so a campaign
    can keep going.  The original's run is shared with the previous call
    when `original` is the same object and `qubit_limit` is unchanged: only
    the mutant's gates between its common prefix and its common suffix with
    the original are applied, and the suffix replays the original's prebuilt
    kernels.  This holds two extra states of the original's size for as long
    as the original circuit lives.  Runtimes are cost units; `timing`
    accepts only "cost".  Raises MutationError for a tolerance outside
    [0, 1) or a timeout_factor that is not positive.
    """
    if timing != "cost":
        raise MutationError(f"unknown timing mode {timing!r}")
    _check_thresholds(tolerance, timeout_factor)
    error = MutantVerdict(mutant.mutant_id, "error", None, 0.0, 0.0)
    # generated mutants keep the width; a hand-built one may not
    if mutant.circuit.num_qubits != original.num_qubits:
        return error
    try:
        prefix = _shared_prefix(original, qubit_limit)
        ops = gate_ops(mutant.circuit, qubit_limit)
    except Exception:
        return error
    ref_time, mut_time = prefix.cost, float(len(ops) << prefix.num_qubits)
    if mut_time > timeout_factor * ref_time:
        return MutantVerdict(mutant.mutant_id, "timeout", None, ref_time, mut_time)
    try:
        mut_state = prefix.statevector_of(ops)
    except Exception:
        return error
    fid = fidelity(prefix.final, mut_state)
    status = "survived" if fid >= 1.0 - tolerance else "killed"
    return MutantVerdict(mutant.mutant_id, status, fid, ref_time, mut_time)


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

    Pre-generated mutants and verdicts may be supplied (the CLI judges them
    itself so it can enforce a time limit); then seed, budget, tolerance,
    timeout_factor and qubit_limit go unused.  Engine errors on individual
    mutants are tallied without aborting; the caller decides how to surface
    them (the CLI exits nonzero).  Raises MutationError for the argument
    values that judge() and generate_mutants() reject.
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
    per_operator: dict[str, list[int]] = {op: [0, 0, 0, 0] for op in operators}
    for mutant, verdict in zip(mutants, verdicts):
        tally = per_operator[mutant.operator]
        tally[0] += 1
        if verdict.status == "killed":
            tally[1] += 1
        elif verdict.status == "survived":
            tally[2] += 1
        elif verdict.status == "timeout":
            tally[3] += 1

    killed = sum(1 for v in verdicts if v.status == "killed")
    survived = sum(1 for v in verdicts if v.status == "survived")
    timeouts = sum(1 for v in verdicts if v.status == "timeout")
    errors = sum(1 for v in verdicts if v.status == "error")
    score = mutation_score(verdicts) if killed + survived + timeouts else None

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
        per_operator={op: tuple(v) for op, v in per_operator.items()},
        verdicts=tuple(verdicts),
        report=report,
    )
