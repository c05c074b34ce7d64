"""Outcome classification and the nine metrics."""
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_util import SWAP_TEST_QASM, build, random_circuit
from qcover.coverage import (
    AnalysisError,
    ConditionOutcome,
    CoverageReport,
    DecisionOutcome,
    analyze,
    classify_condition,
    classify_decision,
)
from qcover.probes import instrument
from qcover.ir import GateKind
from qcover.qasm import parse, parse_file
from qcover.simulator import run
from qcover.transpiler import transpile
from report_oracle import report_dict

EPS = 1e-9
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _report_for(circuit, name="c", seed=0):
    t = transpile(circuit)
    result = run(instrument(t), seed=seed)
    return analyze(result.probes, t, circuit_name=name)


# -- classification ----------------------------------------------------------

def test_classify_condition_balanced():
    assert classify_condition(0.0, (0.5, 0.5), EPS) == (1, 1, 0.5, 0.5)


def test_classify_condition_certain_zero():
    # control certainly |0>: only the skipped branch ran
    assert classify_condition(1.0, (1.0, 0.0), EPS) == (0, 1, 0.0, 1.0)


def test_classify_condition_certain_one():
    assert classify_condition(-1.0, (0.0, 1.0), EPS) == (1, 0, 1.0, 0.0)


def test_classify_condition_biased_hits_both():
    th, fh, pt, pf = classify_condition(0.7, (0.85, 0.15), EPS)
    assert (th, fh) == (1, 1)
    assert (pt, pf) == (0.15, 0.85)


def test_classify_condition_epsilon_window():
    assert classify_condition(1.0 - 1e-12, (1.0, 0.0), EPS)[:2] == (0, 1)
    assert classify_condition(1.0 - 1e-6, (1.0, 0.0), EPS)[:2] == (1, 1)


def test_classify_condition_out_of_range():
    with pytest.raises(AnalysisError, match="outside"):
        classify_condition(1.5, (1.0, 0.0), EPS)


def test_classify_decision_single_control():
    assert classify_decision([0.0], [(0.5, 0.5)], EPS) == (1, 1, 0.5, 0.5)


def test_classify_decision_all_ones():
    th, fh, pt, pf = classify_decision([-1.0, -1.0], [(0.0, 1.0), (0.0, 1.0)], EPS)
    assert (th, fh) == (1, 0)
    assert pt == pytest.approx(2.0)
    assert pf == pytest.approx(0.0)


def test_classify_decision_one_certain_zero():
    th, fh, _, _ = classify_decision([-1.0, 1.0], [(0.0, 1.0), (1.0, 0.0)], EPS)
    assert (th, fh) == (0, 1)


def test_classify_decision_sum_rule():
    th, fh, pt, pf = classify_decision(
        [0.2, -0.6], [(0.6, 0.4), (0.2, 0.8)], EPS)
    assert (th, fh) == (1, 1)
    assert pt + pf == pytest.approx(2.0, abs=1e-10)


def test_classify_decision_empty_rejected():
    with pytest.raises(AnalysisError):
        classify_decision([], [], EPS)


# -- generic fairness index --------------------------------------------------

def jain_index(values: list[float]) -> float:
    """Fairness of an allocation: (sum x)^2 / (n * sum x^2), in [0, 1].

    The generic index, kept as the reference for the closed forms that
    analyze() computes its three Jain indices with.
    """
    if not values:
        raise ValueError("jain_index needs at least one value")
    if any(v < 0 for v in values):
        raise ValueError("jain_index values must be non-negative")
    top = max(values)
    if top == 0.0:
        raise ValueError("jain_index values must not all be zero")
    # dividing by the largest value keeps tiny inputs from squaring into
    # subnormals, where the ratio loses precision and can exceed 1
    values = [v / top for v in values]
    square_sum = sum(v * v for v in values)
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def test_jain_perfect_fairness():
    assert jain_index([0.5, 0.5]) == pytest.approx(1.0)


def test_jain_single_winner():
    assert jain_index([1.0, 0.0]) == pytest.approx(0.5)


def test_jain_swap_test_condition_probabilities():
    values = [0.5] * 10 + [1.0, 0.0, 1.0, 0.0]
    assert jain_index(values) == pytest.approx(49 / 63)


def test_jain_errors():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([0.0, 0.0])
    with pytest.raises(ValueError):
        jain_index([-0.1, 0.5])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40)
       .filter(lambda xs: sum(x * x for x in xs) > 0))
def test_jain_bounds_and_scale_invariance(values):
    index = jain_index(values)
    assert 1.0 / len(values) - 1e-12 <= index <= 1.0 + 1e-12
    scaled = jain_index([3.5 * v for v in values])
    assert scaled == pytest.approx(index, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30))
def test_jain_equal_allocation_is_one(n):
    assert jain_index([0.7] * n) == pytest.approx(1.0)


# -- analyze -----------------------------------------------------------------

def test_swap_test_metrics():
    report = _report_for(parse(SWAP_TEST_QASM), "swap_test")
    assert report.controlled_gates == 1
    assert report.cx_conditions == 7
    assert report.control_qubits == 1
    assert report.decision == pytest.approx(100.0)
    assert report.condition == pytest.approx(100 * 12 / 14)
    assert report.path == pytest.approx(100 * 32 / 128)
    assert report.jain_decision == pytest.approx(100.0)
    assert report.jain_condition == pytest.approx(100 * 49 / 63)
    assert report.jain_path == pytest.approx(25.0)
    assert report.prob_decision == pytest.approx(100.0)
    assert report.prob_condition == pytest.approx(100 * (12 / 14) * (49 / 63))
    assert report.prob_path == pytest.approx(6.25)


def test_no_controlled_gates_all_hundred():
    report = _report_for(build(2, 0, [(GateKind.H, (0,)), (GateKind.X, (1,))]))
    for family in ("coverage", "jain", "probabilistic"):
        for metric in ("condition", "decision", "path"):
            assert report.metric(family, metric) == 100.0
    assert report.controlled_gates == 0


def test_certain_control_single_cx():
    # x q0; cx q0,q1: the one condition only ever takes the triggered branch
    report = _report_for(build(2, 0, [(GateKind.X, (0,)), (GateKind.CX, (0, 1))]))
    assert report.condition == pytest.approx(50.0)
    assert report.decision == pytest.approx(50.0)
    assert report.path == pytest.approx(50.0)
    assert report.jain_condition == pytest.approx(50.0)
    assert report.prob_condition == pytest.approx(25.0)
    (outcome,) = report.per_cx
    assert (outcome.true_hit, outcome.false_hit) == (1, 0)
    assert outcome.ptrue == pytest.approx(1.0)


def test_missing_label_raises():
    t = transpile(parse(SWAP_TEST_QASM))
    result = run(instrument(t))
    log = dict(result.probes)
    log.pop("cswap_1_cx_3_value")
    with pytest.raises(AnalysisError, match="missing"):
        analyze(log, t)


def test_epsilon_validation():
    t = transpile(parse(SWAP_TEST_QASM))
    result = run(instrument(t))
    with pytest.raises(AnalysisError, match="epsilon"):
        analyze(result.probes, t, epsilon=0.7)


def test_closed_forms_match_generic_jain():
    """The per-family indices are the generic fairness index applied to the
    branch-probability multisets (conditions, decisions, enumerated paths)."""
    report = _report_for(parse(SWAP_TEST_QASM))
    cond_values = [v for c in report.per_cx for v in (c.ptrue, c.pfalse)]
    assert report.jain_condition == pytest.approx(100 * jain_index(cond_values))
    dec_values = [v for g in report.per_gate for v in (g.ptrue, g.pfalse)]
    assert report.jain_decision == pytest.approx(100 * jain_index(dec_values))
    path_probs = [math.prod(pair)
                  for pair in itertools.product(
                      *[(c.ptrue, c.pfalse) for c in report.per_cx])]
    assert report.jain_path == pytest.approx(100 * jain_index(path_probs), rel=1e-9)


def test_deep_circuit_path_metrics_underflow_to_zero():
    # hundreds of certain conditions: 2^-N underflows cleanly to 0, not an error
    ops = [(GateKind.X, (0,))] + [(GateKind.CCX, (0, 1, 2))] * 200
    report = _report_for(build(3, 0, ops))
    assert report.path == 0.0
    assert 0.0 <= report.jain_path <= 100.0
    assert report.prob_path == 0.0


def test_analyze_deterministic():
    t = transpile(parse(SWAP_TEST_QASM))
    log = run(instrument(t)).probes
    a = analyze(log, t, circuit_name="s")
    b = analyze(log, t, circuit_name="s")
    assert a == b


# -- property suite over random circuits --------------------------------------

def test_metrics_bounds_and_product_identity():
    rng = np.random.default_rng(9)
    for _ in range(30):
        report = _report_for(random_circuit(rng))
        for family in ("coverage", "jain", "probabilistic"):
            for metric in ("condition", "decision", "path"):
                value = report.metric(family, metric)
                assert 0.0 <= value <= 100.0 + 1e-9, (family, metric)
        for metric in ("condition", "decision", "path"):
            cov = report.metric("coverage", metric)
            jain = report.metric("jain", metric)
            prob = report.metric("probabilistic", metric)
            assert prob == pytest.approx(cov * jain / 100.0, abs=1e-9)
            assert prob <= cov + 1e-9
            assert prob <= jain + 1e-9


def test_single_outcome_cx_caps_path_at_fifty():
    rng = np.random.default_rng(10)
    seen = 0
    for _ in range(40):
        report = _report_for(random_circuit(rng))
        if any(c.true_hit + c.false_hit == 1 for c in report.per_cx):
            seen += 1
            assert report.path <= 50.0 + 1e-9
    assert seen > 5


def test_bare_cx_circuits_condition_equals_decision_exactly():
    rng = np.random.default_rng(11)
    one_q = (GateKind.H, GateKind.X, GateKind.T, GateKind.SX, GateKind.RY)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        ops = []
        for _ in range(int(rng.integers(4, 20))):
            if rng.random() < 0.5:
                kind = one_q[rng.integers(len(one_q))]
                params = (float(rng.uniform(-math.pi, math.pi)),) if kind is GateKind.RY else ()
                ops.append((kind, (int(rng.integers(n)),), params))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                ops.append((GateKind.CX, (int(a), int(b)), ()))
        report = _report_for(build(n, 0, ops))
        assert report.condition == report.decision
        assert report.jain_condition == report.jain_decision
        assert report.prob_condition == report.prob_decision


def test_balanced_control_superposition_gives_full_jain():
    """One single-control two-qubit gate with its control prepared by an
    initial Hadamard: every probed branch pair is (0.5, 0.5), so every
    fairness index is 100."""
    kinds = (GateKind.CX, GateKind.CY, GateKind.CZ, GateKind.CH, GateKind.CSX,
             GateKind.CS, GateKind.CSDG, GateKind.CRX, GateKind.CRY,
             GateKind.CRZ, GateKind.CP, GateKind.CU1, GateKind.CU3, GateKind.CU)
    rng = np.random.default_rng(12)
    from qcover.ir import SPECS

    for kind in kinds:
        params = tuple(float(v) for v in rng.uniform(-math.pi, math.pi,
                                                     SPECS[kind].num_params))
        ops = [(GateKind.H, (0,), ()),
               (GateKind.RY, (1,), (float(rng.uniform(0, math.pi)),)),
               (kind, (0, 1), params)]
        report = _report_for(build(2, 0, ops))
        assert report.jain_condition == pytest.approx(100.0, abs=1e-6), kind
        assert report.jain_decision == pytest.approx(100.0, abs=1e-6), kind
        assert report.jain_path == pytest.approx(100.0, abs=1e-6), kind


# -- the --json writer ---------------------------------------------------------

def _json_dumps(report) -> str:
    return json.dumps(report_dict(report), indent=2, sort_keys=True)


def _corpus_and_random_reports() -> list[CoverageReport]:
    reports = [_report_for(parse_file(str(path)), path.name)
               for path in sorted(CORPUS.glob("*.qasm"))]
    rng = np.random.default_rng(19)
    reports += [_report_for(random_circuit(rng), f"r{i}.qasm") for i in range(200)]
    assert sum(bool(r.per_cx) for r in reports) > 150
    return reports


def _odd_report() -> CoverageReport:
    """Every float spelling json has: NaN, both infinities, -0.0, subnormals."""
    inf, nan = math.inf, math.nan
    return CoverageReport(
        "odd.qasm", 2, 2, 2, 3, nan, inf, -inf, 0.0, -0.0, 1e-320, 1e300,
        100.0, 5e-324,
        per_gate=(DecisionOutcome(0, 1, 1, nan, inf, (-inf, nan, 0.5)),
                  DecisionOutcome(4, 0, 1, 0.0, 1.0, ())),
        per_cx=(ConditionOutcome(0, 1, 1, 0, -inf, nan),
                ConditionOutcome(4, 1, 0, 1, 1 / 3, 2 / 3)))


def test_json_text_matches_json_dumps_on_corpus_and_random_circuits():
    for report in _corpus_and_random_reports():
        assert report.to_json_text() == _json_dumps(report), report.circuit


def test_json_text_of_a_sequential_circuit_has_empty_lists():
    report = _report_for(build(2, 0, [(GateKind.H, (0,)), (GateKind.X, (1,))]))
    assert report.per_gate == report.per_cx == ()
    assert '"per_cx": [],' in report.to_json_text()
    assert report.to_json_text() == _json_dumps(report)


def test_json_text_escapes_the_circuit_name():
    name = 'quote " back \\ tab \t é ☃ 𝒬.qasm'
    report = _report_for(parse(SWAP_TEST_QASM), name)
    text = report.to_json_text()
    assert text == _json_dumps(report)
    assert text.isascii() and json.loads(text)["circuit"] == name


def test_json_text_spells_nan_and_infinities_as_json_does():
    report = _odd_report()
    text = report.to_json_text()
    assert text == _json_dumps(report)
    for word in ("NaN", "Infinity", "-Infinity", '"controls": []'):
        assert word in text


def test_json_dict_is_the_oracles_dict():
    """to_json_dict() reads the template back; compared as json.dumps
    bytes, since NaN != NaN."""
    for report in _corpus_and_random_reports() + [_odd_report()]:
        assert (json.dumps(report.to_json_dict(), sort_keys=True)
                == json.dumps(report_dict(report), sort_keys=True)), report.circuit
