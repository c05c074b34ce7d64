"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Golden values for the bundled-corpus summary were computed once by
this implementation while it was cross-checked against the dense-matrix
oracle, then frozen here.
"""
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
from corpus_util import SWAP_TEST_QASM, build, random_circuit
from qcover.coverage import analyze
from qcover.probes import instrument, strip_probes
from qcover.ir import CONTROLLED_KINDS, SPECS, GateKind
from qcover.mutation import Mutant, campaign, generate_mutants, judge, mutation_score
from qcover.qasm import parse, parse_file
from qcover.simulator import run, statevector_of
from qcover.transpiler import RULES, transpile

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _ok(number: int, text: str) -> None:
    print(f"\n[acceptance] criterion {number}: PASS - {text}")


def _pipeline(circuit, seed=0, name=""):
    t = transpile(circuit)
    result = run(instrument(t), seed=seed)
    return t, result, analyze(result.probes, t, circuit_name=name)


# -- criterion 1: swap-test golden probe trace --------------------------------

def test_criterion_1_swap_test_golden_trace():
    start = time.perf_counter()
    _, result, _ = _pipeline(parse(SWAP_TEST_QASM))
    elapsed = time.perf_counter() - start

    expectations = [result.probes[f"cswap_1_cx_{j}_value"] for j in range(1, 8)]
    golden = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    for got, want in zip(expectations, golden):
        assert got == pytest.approx(want, abs=1e-9)

    golden_probs = [(0.5, 0.5), (0.5, 0.5), (1.0, 0.0), (0.5, 0.5),
                    (0.5, 0.5), (0.5, 0.5), (1.0, 0.0)]
    for j, want in enumerate(golden_probs, start=1):
        got = result.probes[f"cswap_1_cx_{j}_probability"]
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)

    assert result.probes["cswap_1_value_1"] == pytest.approx(0.0, abs=1e-9)
    decision_probs = result.probes["cswap_1_probability_1"]
    assert decision_probs[0] == pytest.approx(0.5, abs=1e-9)
    assert decision_probs[1] == pytest.approx(0.5, abs=1e-9)

    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"
    _ok(1, f"probe trace matches the golden values; runtime {elapsed * 1e3:.1f} ms")


# -- criterion 2: swap-test golden metrics ------------------------------------

def test_criterion_2_swap_test_golden_metrics():
    _, _, report = _pipeline(parse(SWAP_TEST_QASM))
    golden = {
        "decision": 100.0,
        "condition": 100.0 * 12 / 14,
        "path": 100.0 * 32 / 128,
        "jain_decision": 100.0,
        "jain_condition": 100.0 * 49 / 63,
        "jain_path": 25.0,
        "prob_decision": 100.0,
        "prob_condition": 100.0 * (12 / 14) * (49 / 63),
        "prob_path": 6.25,
    }
    for field, want in golden.items():
        got = getattr(report, field)
        assert got == pytest.approx(want, rel=1e-6), field
    _ok(2, "decision 100, condition 85.714, path 25, jain 100/77.778/25, "
           "probabilistic 100/66.667/6.25 (rel 1e-6)")


# -- criterion 3: decomposition fidelity --------------------------------------

def test_criterion_3_decomposition_fidelity():
    angle_sets = [(-2.3, 0.4, 1.1, 2.9), (0.6, -1.8, 0.2, -0.9),
                  (math.pi / 3, math.pi, -math.pi / 2, 0.0)]
    checked = 0
    for kind in CONTROLLED_KINDS:
        spec = SPECS[kind]
        assert spec.num_qubits <= 4
        rule = RULES[kind]
        operands = tuple(range(spec.num_qubits))
        for angles in angle_sets if spec.num_params else [()]:
            params = tuple(angles[: spec.num_params])
            target = oracle.gate_matrix(kind, params)
            got = oracle.circuit_unitary(rule.expand(params, operands),
                                         spec.num_qubits)
            dev = oracle.phase_distance(got, target)
            assert dev < 1e-10, f"{kind}: deviation {dev:.2e}"
            checked += 1
    cswap_cx = sum(1 for op in RULES[GateKind.CSWAP].template
                   if op.kind is GateKind.CX)
    assert cswap_cx == 7
    _ok(3, f"{checked} expansions within 1e-10 of their unitaries; cswap uses 7 cx")


# -- criterion 4: simulator oracle equivalence --------------------------------

def test_criterion_4_simulator_oracle_equivalence():
    rng = np.random.default_rng(2024)
    circuits = [random_circuit(rng) for _ in range(200)]
    for circuit in circuits:
        expected, _ = oracle.simulate(circuit)
        got = statevector_of(circuit)
        np.testing.assert_allclose(got, expected, atol=1e-10)
    # probe transparency, bitwise, on the transpiled+instrumented forms
    for circuit in circuits[:60]:
        probed = instrument(transpile(circuit))
        with_probes = run(probed, seed=7).state
        without = run(strip_probes(probed), seed=7).state
        assert np.array_equal(with_probes, without)
    _ok(4, "200 random circuits match the dense-matrix oracle at 1e-10; "
           "probe transparency is bitwise on 60 of them")


# -- criterion 5: coverage property suite --------------------------------------

def test_criterion_5_coverage_properties():
    rng = np.random.default_rng(77)
    for _ in range(60):
        _, _, report = _pipeline(random_circuit(rng))
        for metric in ("condition", "decision", "path"):
            for family in ("coverage", "jain", "probabilistic"):
                value = report.metric(family, metric)
                assert 0.0 <= value <= 100.0
            cov = report.metric("coverage", metric)
            jain = report.metric("jain", metric)
            prob = report.metric("probabilistic", metric)
            assert prob == pytest.approx(cov * jain / 100.0, abs=1e-9)

    # circuits whose only controlled gates are bare cx: condition == decision
    one_q = (GateKind.H, GateKind.X, GateKind.SX, GateKind.T)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        ops = []
        for _ in range(int(rng.integers(4, 16))):
            if rng.random() < 0.5:
                ops.append((one_q[rng.integers(len(one_q))],
                            (int(rng.integers(n)),), ()))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                ops.append((GateKind.CX, (int(a), int(b)), ()))
        _, _, report = _pipeline(build(n, 0, ops))
        assert report.condition == report.decision
        assert report.jain_condition == report.jain_decision
        assert report.prob_condition == report.prob_decision

    # hadamard on the control of a lone single-control gate: full fairness
    single_control = (GateKind.CX, GateKind.CY, GateKind.CH, GateKind.CSX,
                      GateKind.CRZ, GateKind.CP, GateKind.CU3)
    for kind in single_control:
        params = tuple(float(v) for v in
                       rng.uniform(-math.pi, math.pi, SPECS[kind].num_params))
        _, _, report = _pipeline(build(2, 0, [
            (GateKind.H, (0,), ()), (kind, (0, 1), params)]))
        assert report.jain_condition == pytest.approx(100.0, abs=1e-6)
        assert report.jain_decision == pytest.approx(100.0, abs=1e-6)
        assert report.jain_path == pytest.approx(100.0, abs=1e-6)
    _ok(5, "bounds, product identity, bare-cx equality, and balanced-"
           "superposition fairness all hold on the randomized corpus")


# -- criterion 6: mutation pipeline sanity -------------------------------------

def test_criterion_6_mutation_pipeline():
    rng = np.random.default_rng(4242)
    for index in range(50):
        circuit = random_circuit(rng, num_qubits=int(rng.integers(2, 5)),
                                 num_gates=int(rng.integers(5, 15)))
        clone = Mutant(index, "qgd", 0, "self", 0, 0, ())  # the null edit
        verdict = judge(circuit, clone, timing="cost")
        assert verdict.status == "survived", "self-comparison must survive"
        assert verdict.fidelity == pytest.approx(1.0, abs=1e-12)

    swap_test = parse(SWAP_TEST_QASM)
    h_deletions = [m for m in generate_mutants(swap_test, ("qgd",))
                   if "delete h" in m.detail]
    assert len(h_deletions) == 2
    for mutant in h_deletions:
        verdict = judge(swap_test, mutant, timing="cost")
        assert verdict.status == "killed"

    from qcover.mutation import MutantVerdict

    verdicts = ([MutantVerdict(i, "killed", 0.5) for i in range(3)]
                + [MutantVerdict(3, "survived", 1.0)])
    assert mutation_score(verdicts) == pytest.approx(0.75)

    # 10-circuit mini-campaign, twice, byte-identical CSV, well under 10 min
    paths = sorted(CORPUS.glob("*.qasm"))[:10]
    start = time.perf_counter()
    csv_runs = []
    for _ in range(2):
        rows = []
        for path in paths:
            circuit = parse_file(str(path))
            t = transpile(circuit)
            report = analyze(run(instrument(t), seed=0).probes, t,
                             circuit_name=path.name)
            rows.append(campaign(circuit, report, circuit_name=path.name,
                                 seed=0).csv_row())
        csv_runs.append("\n".join(rows))
    elapsed = time.perf_counter() - start
    assert csv_runs[0] == csv_runs[1], "campaign CSV must be seed-stable"
    assert elapsed < 600.0, f"mini-campaign took {elapsed:.1f}s"
    total_mutants = sum(int(row.split(",")[3]) for row in csv_runs[0].splitlines())
    _ok(6, f"self-judgements survive, superposition hadamard deletions kill, "
           f"score arithmetic checks out; {total_mutants}-mutant mini-campaign "
           f"twice in {elapsed:.1f}s with identical CSVs")


# -- criterion 7: frozen bundled-corpus summary --------------------------------

_SUMMARY_GOLDEN = {
    ("condition", "coverage"): (50.0, 100.0, 100.0, 88.83928571428571),
    ("condition", "jain"): (50.0, 100.0, 97.80184481743365, 85.86309431098687),
    ("condition", "probabilistic"): (25.0, 100.0, 97.80184481743365, 79.59528804318059),
    ("decision", "coverage"): (50.0, 100.0, 100.0, 90.83333333333333),
    ("decision", "jain"): (50.0, 100.0, 100.0, 88.06966911656191),
    ("decision", "probabilistic"): (25.0, 100.0, 100.0, 83.22800244989523),
    ("path", "coverage"): (5.9604644775390625e-06, 100.0, 100.0, 72.92073617378871),
    ("path", "jain"): (5.9604644775394e-06, 100.0, 75.0, 60.85285394649355),
    ("path", "probabilistic"): (3.552713678800702e-13, 100.0, 69.8923129996196,
                                57.202953092859694),
}


def test_criterion_7_summary_goldens():
    reports = []
    for path in sorted(CORPUS.glob("*.qasm")):
        circuit = parse_file(str(path))
        t = transpile(circuit)
        result = run(instrument(t), seed=0)
        reports.append(analyze(result.probes, t, circuit_name=path.name))
    assert len(reports) == 12
    for (metric, family), want in _SUMMARY_GOLDEN.items():
        values = [r.metric(family, metric) for r in reports]
        got = (min(values), max(values), statistics.median(values),
               statistics.mean(values))
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12), (metric, family)
    _ok(7, "min/max/median/avg of all nine metrics match the frozen goldens")


# -- criterion 8: degenerate handling ------------------------------------------

def test_criterion_8_degenerate_handling():
    _, _, sequential = _pipeline(build(2, 0, [
        (GateKind.H, (0,), ()), (GateKind.X, (1,), ())]))
    for metric in ("condition", "decision", "path"):
        for family in ("coverage", "jain", "probabilistic"):
            assert sequential.metric(family, metric) == 100.0

    _, _, certain = _pipeline(build(2, 0, [
        (GateKind.X, (0,), ()), (GateKind.CX, (0, 1), ())]))
    assert certain.condition == pytest.approx(50.0, abs=1e-9)
    assert certain.decision == pytest.approx(50.0, abs=1e-9)
    assert certain.path == pytest.approx(50.0, abs=1e-9)
    assert certain.jain_condition == pytest.approx(50.0, abs=1e-9)
    assert certain.prob_condition == pytest.approx(25.0, abs=1e-9)
    _ok(8, "no-controlled-gate circuit reports all 100; certain |1> control "
           "reports 50/50/50 with probabilistic condition 25")
