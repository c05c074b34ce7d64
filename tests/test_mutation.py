"""Mutant generation, judging, scoring, and campaign determinism."""
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from corpus_util import SWAP_TEST_QASM, build, random_circuit, renumber
from judge_oracle import judge_full, mutant_circuit
from qcover import mutation
from qcover.coverage import analyze
from qcover.probes import instrument
from qcover.ir import Circuit, GateInstruction, GateKind
from qcover.mutation import (
    Mutant,
    MutationError,
    SYNTACTIC_CLASSES,
    campaign,
    generate_mutants,
    judge,
    mutation_score,
)
from qcover.qasm import parse, parse_file
from qcover.simulator import DEFAULT_QUBIT_LIMIT, gate_ops, run
from qcover.transpiler import transpile

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _single_h():
    return build(1, 0, [(GateKind.H, (0,))])


def test_qgd_single_gate():
    mutants = generate_mutants(_single_h(), ("qgd",))
    assert len(mutants) == 1
    assert mutant_circuit(_single_h(), mutants[0]).instructions == ()
    assert (mutants[0].at, mutants[0].drop, mutants[0].insert) == (0, 1, ())


def test_qgr_class_size():
    mutants = generate_mutants(_single_h(), ("qgr",))
    # replacement stays inside the 10-kind parameterless single-qubit class
    assert len(mutants) == 9
    kinds = {mutant_circuit(_single_h(), m).instructions[0].kind for m in mutants}
    assert GateKind.H not in kinds
    assert GateKind.X in kinds and GateKind.ID in kinds


def test_qgi_inserts_full_class():
    mutants = generate_mutants(_single_h(), ("qgi",))
    assert len(mutants) == 10
    for m in mutants:
        instructions = mutant_circuit(_single_h(), m).instructions
        assert len(instructions) == 2
        assert instructions[0].kind is GateKind.H
        assert (m.at, m.drop) == (1, 0)


def test_swap_test_qgd_excludes_measure():
    mutants = generate_mutants(parse(SWAP_TEST_QASM), ("qgd",))
    assert len(mutants) == 3  # h, cswap, h


def test_unclassed_kinds_have_no_qgr():
    circuit = build(3, 0, [(GateKind.CSWAP, (0, 1, 2)),
                           (GateKind.U, (0,), (0.1, 0.2, 0.3))])
    assert generate_mutants(circuit, ("qgr",)) == []
    assert generate_mutants(circuit, ("qgi",)) == []
    assert len(generate_mutants(circuit, ("qgd",))) == 2


def test_parameter_preserved_by_replacement():
    circuit = build(2, 0, [(GateKind.CRZ, (0, 1), (0.7,))])
    mutants = generate_mutants(circuit, ("qgr",))
    assert len(mutants) == 4
    for m in mutants:
        assert mutant_circuit(circuit, m).instructions[0].params == (0.7,)
        assert [params for _, params, _ in m.insert] == [(0.7,)]


def test_exactly_one_edit():
    rng = np.random.default_rng(1)
    for _ in range(8):
        circuit = random_circuit(rng, num_qubits=3, num_gates=10)
        originals = list(circuit.instructions)
        for m in generate_mutants(circuit):
            mutated = list(mutant_circuit(circuit, m).instructions)
            if m.operator == "qgd":
                assert len(mutated) == len(originals) - 1
            elif m.operator == "qgi":
                assert len(mutated) == len(originals) + 1
            else:
                assert len(mutated) == len(originals)
                diffs = [
                    (a, b) for a, b in zip(originals, mutated)
                    if (a.kind, a.qubits, a.params, a.clbits)
                    != (b.kind, b.qubits, b.params, b.clbits)]
                assert len(diffs) == 1


def _with_ids_shifted(circuit):
    return Circuit(circuit.num_qubits, circuit.num_clbits, tuple(
        GateInstruction(i.id + 100, i.kind, i.qubits, i.params, i.clbits)
        for i in circuit.instructions))


def _count_paths(monkeypatch):
    """Counts of the ways judge() reaches a fidelity: "unchanged" for an edit
    that drops nothing and leaves the state at its index as it was,
    "deleted" for one that drops a gate and does the same (the original
    without that gate, stored per site), "replay" for a replayed suffix."""
    paths = dict.fromkeys(("unchanged", "deleted", "replay"), 0)
    replays = [0]
    real_fidelity = mutation.fidelity
    real_fidelity_of = mutation._SharedPrefix.fidelity_of

    def fidelity(final, state):
        replays[0] += 1
        return real_fidelity(final, state)

    def fidelity_of(prefix, mutant):
        stored, before = len(prefix.deleted), replays[0]
        value = real_fidelity_of(prefix, mutant)
        if len(prefix.deleted) > stored or (mutant.drop == 1 and replays[0] == before):
            paths["deleted"] += 1
        else:
            paths["unchanged" if replays[0] == before else "replay"] += 1
        return value

    monkeypatch.setattr(mutation, "fidelity", fidelity)
    monkeypatch.setattr(mutation._SharedPrefix, "fidelity_of", fidelity_of)
    return paths


def test_mutants_equal_full_renumbering(monkeypatch):
    """Each edit record is the edit its operator, site and detail name, and
    judging it equals full re-simulation of the rebuilt, renumbered circuit,
    through each of judge()'s ways to a fidelity.

    With shifted ids the rebuilt circuits and the gate lists equal those of
    the unshifted original, so its verdicts must equal the checked ones."""
    paths = _count_paths(monkeypatch)
    circuits = [parse_file(str(path)) for path in sorted(CORPUS.glob("*.qasm"))]
    rng = np.random.default_rng(22)
    circuits += [random_circuit(rng, num_gates=int(rng.integers(3, 13)),
                               with_measure=i % 2 == 1) for i in range(200)]
    for circuit in circuits:
        shifted = _with_ids_shifted(circuit)
        ops = gate_ops(circuit, DEFAULT_QUBIT_LIMIT)
        mutants = generate_mutants(circuit)
        checked = []
        for mutant in mutants:
            rebuilt = mutant_circuit(circuit, mutant)
            edited = ops[:mutant.at] + list(mutant.insert) + ops[mutant.at + mutant.drop:]
            assert edited == gate_ops(rebuilt, DEFAULT_QUBIT_LIMIT), mutant
            got = judge(circuit, mutant, timeout_factor=1e9)
            want = judge_full(circuit, mutant, timeout_factor=1e9)
            assert (got, repr(got.fidelity)) == (want, repr(want.fidelity)), mutant
            checked.append((rebuilt, got, repr(got.fidelity)))
        # judged after the unshifted ones: judge() shares one original's run
        for mutant, moved, (rebuilt, *verdict) in zip(
                mutants, generate_mutants(shifted), checked, strict=True):
            assert mutant_circuit(shifted, moved) == rebuilt, moved
            assert (moved.at, moved.drop, moved.insert) == (mutant.at, mutant.drop,
                                                            mutant.insert)
            again = judge(shifted, moved, timeout_factor=1e9)
            assert [again, repr(again.fidelity)] == verdict, moved
    assert all(paths.values()), paths


@pytest.mark.parametrize("at, drop", [(-1, 0), (-1, 1), (0, -1), (3, 1), (4, 0),
                                      (2, 2)])
def test_judge_rejects_an_edit_that_does_not_fit(at, drop):
    circuit = parse(SWAP_TEST_QASM)  # three gates and a measurement
    mutant = Mutant(0, "qgd", 0, "edit", at, drop, ())
    with pytest.raises(MutationError, match="gate list of 3"):
        judge(circuit, mutant)


def test_generation_deterministic_and_budget():
    circuit = parse(SWAP_TEST_QASM)
    all_mutants = generate_mutants(circuit, seed=5)
    again = generate_mutants(circuit, seed=5)
    assert [(m.operator, m.site, m.detail) for m in all_mutants] == \
           [(m.operator, m.site, m.detail) for m in again]
    capped = generate_mutants(circuit, seed=5, budget=3)
    assert len(capped) == 3
    assert [m.mutant_id for m in capped] == [0, 1, 2]
    details_all = {(m.operator, m.site, m.detail) for m in all_mutants}
    assert all((m.operator, m.site, m.detail) in details_all for m in capped)


# sha256 over repr(generate_mutants(...)) for every non-empty operator
# subset and every (seed, budget) below; change only for a deliberate change
# of the mutants generated
MUTANTS_CORPUS_DIGEST = "493b61b26a0e0678f7494d0ee75e30681c945280f4ef9ca460966d382010e0a3"
MUTANTS_RANDOM_DIGEST = "9371a2219e12cca835ec9c371bee3872fce3043bcbe46b81bbf8aade271d7545"


def _mutants_digest(circuits) -> str:
    subsets = [ops for r in (1, 2, 3) for ops in itertools.combinations(mutation.OPERATORS, r)]
    h = hashlib.sha256()
    for circuit in circuits:
        for operators in subsets:
            for seed, budget in ((0, None), (3, 7), (11, 0), (5, 40)):
                h.update(repr(generate_mutants(circuit, operators, seed=seed,
                                               budget=budget)).encode())
    return h.hexdigest()


def test_generated_mutants_are_frozen():
    corpus = [parse_file(str(path)) for path in sorted(CORPUS.glob("*.qasm"))]
    assert _mutants_digest(corpus) == MUTANTS_CORPUS_DIGEST
    # random circuits, half with measurements, each with a full-width barrier
    # somewhere, so sites and instruction ids part ways
    rng = np.random.default_rng(27)
    suite = []
    for i in range(40):
        base = random_circuit(rng, with_measure=bool(i % 2))
        body = list(base.instructions)
        body.insert(int(rng.integers(len(body) + 1)),
                    GateInstruction(0, GateKind.BARRIER, tuple(range(base.num_qubits))))
        suite.append(Circuit(base.num_qubits, base.num_clbits, renumber(body)))
    assert _mutants_digest(suite) == MUTANTS_RANDOM_DIGEST


def test_judge_self_is_survived():
    circuit = parse(SWAP_TEST_QASM)
    mutants = generate_mutants(circuit, ("qgd",), seed=0)
    self_mutant = mutants[0]
    # judge the circuit against the null edit
    clone = Mutant(0, "qgd", 0, "identity", self_mutant.at, 0, ())
    verdict = judge(circuit, clone, timing="cost")
    assert verdict.status == "survived"
    assert verdict.fidelity == pytest.approx(1.0, abs=1e-12)


def test_judge_h_to_id_killed():
    original = _single_h()
    (mutant,) = (m for m in generate_mutants(original, ("qgr",))
                 if mutant_circuit(original, m).instructions[0].kind is GateKind.ID)
    verdict = judge(original, mutant, timing="cost")
    assert verdict.status == "killed"
    assert verdict.fidelity == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_judge_global_phase_survives():
    # x then z only changes |1> by a global phase: statevectors equivalent
    original = build(1, 0, [(GateKind.X, (0,))])
    mutants = generate_mutants(original, ("qgi",))
    (z_insert,) = (m for m in mutants
                   if mutant_circuit(original, m).instructions[1].kind is GateKind.Z)
    verdict = judge(original, z_insert, timing="cost", timeout_factor=100.0)
    assert verdict.status == "survived"
    assert verdict.fidelity == pytest.approx(1.0, abs=1e-12)


def test_judge_deleting_id_survives():
    original = build(2, 0, [(GateKind.H, (0,)), (GateKind.ID, (1,)),
                            (GateKind.CX, (0, 1))])
    mutants = generate_mutants(original, ("qgd",))
    id_delete = next(m for m in mutants if "id" in m.detail)
    verdict = judge(original, id_delete, timing="cost", timeout_factor=100.0)
    assert verdict.status == "survived"


def test_judge_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = random_circuit(rng, num_qubits=3, num_gates=8)
        b_mutants = generate_mutants(a, ("qgr",), seed=0, budget=1)
        if not b_mutants:
            continue
        b = b_mutants[0]
        forward = judge(a, b, timing="cost", timeout_factor=1e9)
        # the inverse qgr edit puts a's gate back at b's site
        old, new = b.detail.split("->")
        inverse = Mutant(0, "qgr", b.site, f"{new}->{old}", b.at, 1,
                         (gate_ops(a, DEFAULT_QUBIT_LIMIT)[b.at],))
        backward = judge(mutant_circuit(a, b), inverse, timing="cost",
                         timeout_factor=1e9)
        assert forward.status == backward.status


def test_judge_timeout_by_cost():
    # +1 gate on a 4-gate circuit is a 25% cost increase: past the 1.10 bar
    original = build(2, 0, [(GateKind.H, (0,)), (GateKind.H, (1,)),
                            (GateKind.X, (0,)), (GateKind.X, (1,))])
    mutants = generate_mutants(original, ("qgi",), budget=1, seed=0)
    verdict = judge(original, mutants[0], timing="cost")
    assert verdict.status == "timeout"
    assert verdict.fidelity is None


@settings(max_examples=500, deadline=None)
@given(gates=st.integers(1, 1 << 26), drop=st.integers(0, 2), inserted=st.integers(0, 3),
       n=st.integers(0, 26), data=st.data())
def test_gate_count_timeout_equals_the_cost_unit_timeout(gates, drop, inserted, n, data):
    # judge() once timed a mutant out by cost units, gate count times 2^n, in
    # floats; scaling both sides by 2^n is exact while (gates + 1) * 2^n < 2^53
    drop = min(drop, gates)
    edited = gates - drop + inserted
    factor = data.draw(st.sampled_from([
        mutation.DEFAULT_TIMEOUT_FACTOR, 1e9, 5e-324, 1e-300, edited / gates,
        (edited - 1) / gates, (edited + 1) / gates]) | st.floats(0.5, 2.0))
    assume(factor > 0)
    by_cost = float(edited << n) > factor * float(gates << n)
    assert (edited > factor * gates) == by_cost


def test_mutation_score():
    from qcover.mutation import MutantVerdict

    verdicts = ([MutantVerdict(i, "killed", 0.0) for i in range(3)]
                + [MutantVerdict(3, "survived", 1.0)])
    assert mutation_score(verdicts) == pytest.approx(0.75)
    assert mutation_score([MutantVerdict(0, "survived", 1.0)]) == 0.0
    big = ([MutantVerdict(i, "killed", 0.0) for i in range(271845)]
           + [MutantVerdict(0, "survived", 1.0)] * 14604
           + [MutantVerdict(0, "timeout", None)] * 858)
    assert mutation_score(big) == pytest.approx(0.9462, abs=5e-5)


def test_mutation_score_empty_rejected():
    with pytest.raises(MutationError):
        mutation_score([])


def test_score_monotonicity():
    from qcover.mutation import MutantVerdict

    verdicts = [MutantVerdict(0, "killed", 0.0),
                MutantVerdict(1, "survived", 1.0)]
    base = mutation_score(verdicts)
    assert mutation_score(verdicts + [MutantVerdict(2, "killed", 0.0)]) >= base
    assert mutation_score(verdicts + [MutantVerdict(2, "timeout", None)]) <= base


def _campaign_for(circuit, name, operators=("qgd",), seed=0):
    t = transpile(circuit)
    report = analyze(run(instrument(t), seed=seed).probes, t, circuit_name=name)
    return campaign(circuit, report, operators, circuit_name=name, seed=seed)


def test_campaign_swap_test_qgd():
    result = _campaign_for(parse(SWAP_TEST_QASM), "swap_test.qasm")
    assert result.mutants == 3
    assert result.killed + result.survived + result.timeout == 3
    assert result.score == pytest.approx(result.killed / 3)
    assert result.per_operator["qgd"][0] == 3


def test_campaign_zero_gate_circuit():
    circuit = build(1, 0, [])
    result = _campaign_for(circuit, "empty.qasm")
    assert result.mutants == 0
    assert result.score is None
    assert result.csv_row().split(",")[7] == ""


def test_campaign_csv_deterministic():
    circuit = parse(SWAP_TEST_QASM)
    a = _campaign_for(circuit, "swap_test.qasm", ("qgd", "qgr", "qgi"), seed=3)
    b = _campaign_for(circuit, "swap_test.qasm", ("qgd", "qgr", "qgi"), seed=3)
    assert a.csv_row() == b.csv_row()
    assert a.csv_row().startswith("swap_test.qasm,3,qgd+qgi+qgr,")


def test_campaign_rejects_a_mutant_it_cannot_tally():
    circuit = parse(SWAP_TEST_QASM)
    t = transpile(circuit)
    report = analyze(run(instrument(t)).probes, t, circuit_name="swap_test.qasm")
    mutants = generate_mutants(circuit)
    verdicts = [judge(circuit, m) for m in mutants]
    with pytest.raises(MutationError, match="operator 'qgr'"):
        campaign(circuit, report, ("qgd",), mutants=mutants, verdicts=verdicts)


def test_probed_circuit_rejected():
    probed = instrument(transpile(parse(SWAP_TEST_QASM)))
    with pytest.raises(MutationError, match="probe-free"):
        generate_mutants(probed)


def test_classes_are_disjoint():
    seen = set()
    for cls in SYNTACTIC_CLASSES:
        for kind in cls:
            assert kind not in seen
            seen.add(kind)


def test_judge_engine_failure_becomes_error_verdict():
    circuit = build(3, 0, [(GateKind.H, (0,)), (GateKind.CX, (0, 1))])
    (mutant,) = generate_mutants(circuit, ("qgd",), budget=1)
    verdict = judge(circuit, mutant, timing="cost", qubit_limit=2)
    assert verdict.status == "error"
    assert verdict.fidelity is None


def test_campaign_counts_errors_without_aborting():
    circuit = build(3, 0, [(GateKind.H, (0,)), (GateKind.CX, (0, 1))])
    t = transpile(circuit)
    report = analyze(run(instrument(t)).probes, t, circuit_name="x")
    result = campaign(circuit, report, ("qgd",), circuit_name="x",
                      qubit_limit=2)
    assert result.errors == result.mutants == 2
    assert result.score is None


def test_judge_accepts_only_cost_timing():
    circuit = parse(SWAP_TEST_QASM)
    mutant = generate_mutants(circuit, ("qgd",))[0]
    assert judge(circuit, mutant, timing="cost").status == "killed"
    with pytest.raises(MutationError, match="timing"):
        judge(circuit, mutant, timing="wall")


_BAD_THRESHOLDS = [
    {"tolerance": 1.0}, {"tolerance": -1.0}, {"tolerance": math.nan},
    {"timeout_factor": 0.0}, {"timeout_factor": -1.0},
    {"timeout_factor": math.nan},
]
_BAD_THRESHOLD_IDS = ["tolerance-one", "tolerance-negative", "tolerance-nan",
                      "timeout-zero", "timeout-negative", "timeout-nan"]


@pytest.mark.parametrize("kwargs", _BAD_THRESHOLDS, ids=_BAD_THRESHOLD_IDS)
def test_judge_rejects_bad_thresholds(kwargs):
    # the CLI's rules: tolerance in [0, 1), timeout factor above 0
    circuit = parse(SWAP_TEST_QASM)
    mutant = generate_mutants(circuit, ("qgd",))[0]
    with pytest.raises(MutationError):
        judge(circuit, mutant, **kwargs)


@pytest.mark.parametrize("kwargs", _BAD_THRESHOLDS + [{"budget": -1}],
                         ids=_BAD_THRESHOLD_IDS + ["budget-negative"])
def test_campaign_rejects_bad_arguments(kwargs):
    # a negative budget is refused by generate_mutants, not by numpy
    circuit = parse(SWAP_TEST_QASM)
    t = transpile(circuit)
    report = analyze(run(instrument(t)).probes, t, circuit_name="swap_test.qasm")
    with pytest.raises(MutationError):
        campaign(circuit, report, ("qgd",), **kwargs)
