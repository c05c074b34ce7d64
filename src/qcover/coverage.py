"""
Classifies probe values into exercised outcomes and computes the coverage
metrics: condition, decision, and path coverage, each with a fairness index
and a probabilistic variant.

A controlled gate behaves like a branch: its operation runs on the |1>
component of the controls and is skipped on the |0> component.  The control
qubit's Z expectation tells which outcomes a run exercised: -1 means only the
triggered branch, +1 only the skipped branch, anything in between both.

Structural metrics (percent):
    decision  = exercised outcomes over original controlled gates
    condition = exercised outcomes over the decomposed cx gates
    path      = exercised outcome combinations over all cx conditions

Each structural metric is paired with a balance index (Jain fairness of the
branch probabilities: (sum x)^2 / (n * sum x^2)) and a probabilistic variant,
the product of the metric with its index.  The index equals 1 exactly when
every branch pair is (0.5, 0.5) and drops toward 0 as exercise skews.

Path quantities are products over every condition, so they are accumulated in
log2 space; denominators like 2^(number of conditions) overflow any float
long before a circuit becomes unusual.  Underflow clamps to 0.

Fully sequential circuits (no controlled gates) report 100 on all nine
metrics: there is no branch left unexercised.

A report has one JSON writer, CoverageReport.to_json_text(), a fixed
template; to_json_dict() reads that text back.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .simulator import ProbeLog
from .transpiler import TranspiledCircuit

DEFAULT_EPSILON = 1e-9

# p0 and p1 of a probabilities probe value
_P0, _P1 = itemgetter(0), itemgetter(1)


class AnalysisError(Exception):
    pass


def _seq(items: list[str], pad: str) -> str:
    """Items as a list laid out by json.dumps(indent=2), each at this padding."""
    if not items:
        return "[]"
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


# the report's objects, keys sorted, one %s per value, laid out as indent=2
# lays them out; _GATE_REST follows a gate's "controls" list
_FAMILY = '{\n    "condition": %s,\n    "decision": %s,\n    "path": %s\n  }'
_CX = ('{\n      "cx_index": %s,\n      "false": %s,\n      "origin": %s,\n'
       '      "pfalse": %s,\n      "ptrue": %s,\n      "true": %s\n    }')
_GATE_REST = (',\n      "false": %s,\n      "origin": %s,\n      "pfalse": %s,\n'
         '      "ptrue": %s,\n      "true": %s\n    }')


@dataclass(frozen=True)
class ConditionOutcome:
    """Outcome record for one decomposed cx condition."""

    origin_gate_id: int
    cx_index: int
    true_hit: int
    false_hit: int
    ptrue: float
    pfalse: float


@dataclass(frozen=True)
class DecisionOutcome:
    """Outcome record for one original controlled gate."""

    origin_gate_id: int
    true_hit: int
    false_hit: int
    ptrue: float
    pfalse: float
    controls: tuple[float, ...]  # per-control expectation values


@dataclass(frozen=True)
class CoverageReport:
    circuit: str
    num_qubits: int
    controlled_gates: int    # M
    cx_conditions: int       # sum over gates of |C(g')|
    control_qubits: int      # sum over gates of |L(g)|
    condition: float
    decision: float
    path: float
    jain_condition: float
    jain_decision: float
    jain_path: float
    prob_condition: float
    prob_decision: float
    prob_path: float
    per_gate: tuple[DecisionOutcome, ...] = ()
    per_cx: tuple[ConditionOutcome, ...] = ()

    def metric(self, family: str, name: str) -> float:
        key = {"coverage": "", "jain": "jain_", "probabilistic": "prob_"}[family]
        return getattr(self, key + name)

    def to_json_text(self) -> str:
        """The `--json` report: the text json.dumps(..., indent=2,
        sort_keys=True) gives for the report's dict, from a fixed template;
        json's C encoder spells all the numbers (NaN too) in one call."""
        values = [self.control_qubits, self.controlled_gates, self.condition, self.decision,
                  self.path, self.cx_conditions, self.jain_condition, self.jain_decision,
                  self.jain_path, self.num_qubits]
        for c in self.per_cx:
            values += (c.cx_index, c.false_hit, c.origin_gate_id, c.pfalse,
                       c.ptrue, c.true_hit)
        gates = []
        for g in self.per_gate:
            values += g.controls
            values += (g.false_hit, g.origin_gate_id, g.pfalse, g.ptrue, g.true_hit)
            gates.append('{\n      "controls": '
                         + _seq(["%s"] * len(g.controls), " " * 8) + _GATE_REST)
        values += (self.prob_condition, self.prob_decision, self.prob_path)
        template = (
            '{\n  "circuit": %s,\n  "control_qubits": %s,\n'
            f'  "controlled_gates": %s,\n  "coverage": {_FAMILY},\n'
            f'  "cx_conditions": %s,\n  "jain": {_FAMILY},\n  "num_qubits": %s,\n'
            f'  "per_cx": {_seq([_CX] * len(self.per_cx), " " * 4)},\n'
            f'  "per_gate": {_seq(gates, " " * 4)},\n'
            f'  "probabilistic": {_FAMILY},\n  "schema_version": 1\n}}')
        numbers = json.dumps(values)[1:-1].split(", ")  # no number holds ", "
        return template % (encode_basestring_ascii(self.circuit), *numbers)

    def to_json_dict(self) -> dict:
        """The report as a dict: to_json_text() read back."""
        return json.loads(self.to_json_text())


def classify_condition(expectation: float, probs: tuple[float, float],
                       epsilon: float = DEFAULT_EPSILON) -> tuple[int, int, float, float]:
    """Hit pattern and branch probabilities for one cx condition: the
    decision of its one control.

    Returns (true_hit, false_hit, ptrue, pfalse).  ptrue is the probability
    of the control being |1> (the branch that triggers the gate), the p1 of
    probs as given; pfalse is its p0.
    """
    true_hit, false_hit, _, _ = classify_decision([expectation], [probs], epsilon)
    return true_hit, false_hit, probs[1], probs[0]


def classify_decision(expectations: list[float],
                      probs: list[tuple[float, float]],
                      epsilon: float = DEFAULT_EPSILON) -> tuple[int, int, float, float]:
    """Hit pattern and summed branch probabilities over all control qubits.

    The triggered branch needs every control certainly |1>; one control
    certainly |0> forces the skipped branch; anything else exercises both.
    """
    if not expectations:
        raise AnalysisError("decision classification needs at least one control")
    for e in expectations:
        if not -1.0 - epsilon <= e <= 1.0 + epsilon:
            raise AnalysisError(f"expectation {e} outside [-1, 1]")
    # no NaN is left, so the largest expectation decides both tests: all
    # certainly |1> (e <= -1 + epsilon) and any certainly |0>
    top = max(expectations)
    if top <= -1.0 + epsilon:
        hits = (1, 0)
    elif top >= 1.0 - epsilon:
        hits = (0, 1)
    else:
        hits = (1, 1)
    return hits[0], hits[1], sum(map(_P1, probs)), sum(map(_P0, probs))


def _lookup(log: ProbeLog, label: str):
    try:
        return log[label]
    except KeyError:
        raise AnalysisError(f"probe label {label!r} missing from log") from None


def analyze(log: ProbeLog, t: TranspiledCircuit, *,
            epsilon: float = DEFAULT_EPSILON, circuit_name: str = "") -> CoverageReport:
    """Compute the full report from a probe log and the transpiled origins."""
    if not 0.0 < epsilon < 0.5:
        raise AnalysisError("epsilon must lie in (0, 0.5)")
    per_gate: list[DecisionOutcome] = []
    per_cx: list[ConditionOutcome] = []

    for o in t.origins:
        for j, (value, prob) in enumerate(o.cx_labels, start=1):
            th, fh, ptrue, pfalse = classify_condition(
                _lookup(log, value), _lookup(log, prob), epsilon)
            per_cx.append(ConditionOutcome(o.id, j, th, fh, ptrue, pfalse))
        expectations = [_lookup(log, value) for value, _ in o.control_labels]
        probs_list = [_lookup(log, prob) for _, prob in o.control_labels]
        th, fh, ptrue, pfalse = classify_decision(expectations, probs_list, epsilon)
        per_gate.append(DecisionOutcome(o.id, th, fh, ptrue, pfalse, tuple(expectations)))

    num_gates = len(per_gate)
    num_cx = len(per_cx)
    num_controls = sum(len(o.controls) for o in t.origins)

    if num_gates == 0:
        hundred = 100.0
        return CoverageReport(circuit_name, t.circuit.num_qubits, 0, 0, 0,
                              hundred, hundred, hundred, hundred, hundred,
                              hundred, hundred, hundred, hundred)

    decision_cov = 100.0 * sum(g.true_hit + g.false_hit for g in per_gate) / (2 * num_gates)
    condition_cov = 100.0 * sum(c.true_hit + c.false_hit for c in per_cx) / (2 * num_cx)
    # every factor is 1 or 2, so the product is 2^(number of both-hit cx)
    both = sum(1 for c in per_cx if c.true_hit and c.false_hit)
    path_cov = 100.0 * 2.0 ** (both - num_cx)

    decision_sq = sum(g.ptrue ** 2 + g.pfalse ** 2 for g in per_gate)
    jain_decision = 100.0 * num_controls ** 2 / (2 * num_gates * decision_sq)
    condition_sq = sum(c.ptrue ** 2 + c.pfalse ** 2 for c in per_cx)
    jain_condition = 100.0 * num_cx ** 2 / (2 * num_cx * condition_sq)
    # product of per-cx (ptrue^2 + pfalse^2) underflows for big circuits
    log2_product = sum(math.log2(c.ptrue ** 2 + c.pfalse ** 2) for c in per_cx)
    jain_path = 100.0 * 2.0 ** (-(num_cx + log2_product))
    # probe rounding can push an index a few ulp past 100; keep the contract
    jain_decision = min(jain_decision, 100.0)
    jain_condition = min(jain_condition, 100.0)
    jain_path = min(jain_path, 100.0)

    return CoverageReport(
        circuit=circuit_name,
        num_qubits=t.circuit.num_qubits,
        controlled_gates=num_gates,
        cx_conditions=num_cx,
        control_qubits=num_controls,
        condition=condition_cov,
        decision=decision_cov,
        path=path_cov,
        jain_condition=jain_condition,
        jain_decision=jain_decision,
        jain_path=jain_path,
        prob_condition=condition_cov * jain_condition / 100.0,
        prob_decision=decision_cov * jain_decision / 100.0,
        prob_path=path_cov * jain_path / 100.0,
        per_gate=tuple(per_gate),
        per_cx=tuple(per_cx),
    )
