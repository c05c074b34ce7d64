"""Shared-prefix judging in cost mode against full re-simulation.

judge() reuses one forward run of the original across calls; these tests
hold its verdicts, fidelities (by == and repr) and states bit for bit to the
full re-simulation oracle in judge_oracle.py, and check when the shared run
is kept, rebuilt and freed.
"""
import gc
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from corpus_util import build, random_circuit
from judge_oracle import judge_full
from qcover import mutation
from qcover.probes import instrument
from qcover.ir import Circuit, GateKind
from qcover.mutation import Mutant, generate_mutants, judge
from qcover.qasm import parse_file
from qcover.simulator import gate_ops, statevector_of
from qcover.transpiler import transpile

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# a factor this large times nothing out, so every mutant reaches the fidelity
NO_TIMEOUT = 1e9


def _outcome(judge_fn, original, mutant, **kwargs):
    try:
        verdict = judge_fn(original, mutant, **kwargs)
    except Exception as exc:
        return "raises", type(exc)
    return verdict, repr(verdict.fidelity)


def _assert_matches_oracle(original, mutants, **kwargs):
    for mutant in mutants:
        got = _outcome(lambda o, m, **kw: judge(o, m, timing="cost", **kw),
                       original, mutant, **kwargs)
        assert got == _outcome(judge_full, original, mutant, **kwargs), mutant


def _as_mutant(circuit, mutant_id=0):
    return Mutant(mutant_id, "qgr", 0, "hand-built", circuit)


@pytest.mark.parametrize("timeout_factor",
                         [mutation.DEFAULT_TIMEOUT_FACTOR, NO_TIMEOUT],
                         ids=["default", "no-timeout"])
def test_corpus_mutants_match_full_resimulation(timeout_factor):
    for path in sorted(CORPUS.glob("*.qasm")):
        original = parse_file(str(path))
        mutants = generate_mutants(original)
        _assert_matches_oracle(original, mutants, timeout_factor=timeout_factor)
        prefix = mutation._shared_prefix(original, mutation.DEFAULT_QUBIT_LIMIT)
        for mutant in mutants:
            ops = gate_ops(mutant.circuit, mutation.DEFAULT_QUBIT_LIMIT)
            assert (prefix.statevector_of(ops).tobytes()
                    == statevector_of(mutant.circuit).tobytes()), mutant


def test_random_circuit_mutants_match_full_resimulation():
    rng = np.random.default_rng(20)
    for index in range(20):
        original = random_circuit(rng, num_gates=int(rng.integers(5, 16)),
                                  with_measure=index % 2 == 1)
        mutants = generate_mutants(original)
        _assert_matches_oracle(original, mutants)
        _assert_matches_oracle(original, mutants, timeout_factor=NO_TIMEOUT)


def test_hand_built_mutants_match_full_resimulation():
    rng = np.random.default_rng(7)
    original = random_circuit(rng, num_qubits=3, num_gates=12)
    clone = Circuit(3, 0, original.instructions)
    unrelated = random_circuit(rng, num_qubits=3, num_gates=12)
    narrower = random_circuit(rng, num_qubits=2, num_gates=6)
    wider = random_circuit(rng, num_qubits=4, num_gates=12)
    for factor in (mutation.DEFAULT_TIMEOUT_FACTOR, NO_TIMEOUT):
        for candidate in (original, clone, unrelated):
            _assert_matches_oracle(original, [_as_mutant(candidate)],
                                   timeout_factor=factor)
        # a state of another width has no fidelity to the original's
        for candidate in (narrower, wider):
            verdict = judge(original, _as_mutant(candidate), timing="cost",
                            timeout_factor=factor)
            assert verdict == mutation.MutantVerdict(0, "error", None, 0.0, 0.0)


def test_measurements_and_barriers_match_full_resimulation():
    ops = [(GateKind.H, (0,)), (GateKind.CX, (0, 1)),
           (GateKind.BARRIER, (0, 1, 2)),
           (GateKind.MEASURE, (0,), (), (0,)),
           (GateKind.H, (0,)), (GateKind.RY, (2,), (0.4,)),
           (GateKind.CZ, (2, 1)), (GateKind.BARRIER, (1,)),
           (GateKind.MEASURE, (1,), (), (1,)), (GateKind.X, (2,))]
    original = build(3, 2, ops)
    without_measures = build(3, 2, [op for op in ops
                                    if op[0] is not GateKind.MEASURE])
    without_barriers = build(3, 2, [op for op in ops
                                    if op[0] is not GateKind.BARRIER])
    hand_built = [_as_mutant(without_measures, 0), _as_mutant(without_barriers, 1)]
    mutants = generate_mutants(original) + hand_built
    _assert_matches_oracle(original, mutants)
    _assert_matches_oracle(original, mutants, timeout_factor=NO_TIMEOUT)


def test_probes_and_qubit_limit_give_error_verdicts():
    rng = np.random.default_rng(8)
    original = random_circuit(rng, num_qubits=3, num_gates=10)
    probed = instrument(transpile(original))
    mutants = generate_mutants(original, ("qgd",))
    for orig, mutant in ((probed, mutants[0]), (original, _as_mutant(probed))):
        assert judge(orig, mutant, timing="cost").status == "error"
        _assert_matches_oracle(orig, [mutant])
    assert judge(original, mutants[0], timing="cost",
                 qubit_limit=2).status == "error"
    _assert_matches_oracle(original, mutants, qubit_limit=2)


def test_alternating_originals_match_judging_each_alone():
    rng = np.random.default_rng(9)
    a = random_circuit(rng, num_qubits=4, num_gates=15)
    b = random_circuit(rng, num_qubits=3, num_gates=15)
    mutants_a = generate_mutants(a)
    mutants_b = generate_mutants(b)
    alone_a = [judge(a, m, timing="cost") for m in mutants_a]
    alone_b = [judge(b, m, timing="cost") for m in mutants_b]
    for i, (ma, mb) in enumerate(zip(mutants_a, mutants_b)):
        assert judge(a, ma, timing="cost") == alone_a[i]
        assert judge(b, mb, timing="cost") == alone_b[i]
        assert judge(a, ma, timing="cost") == alone_a[i]


def test_shared_run_is_freed_with_the_original():
    rng = np.random.default_rng(10)
    original = random_circuit(rng, num_qubits=3, num_gates=10)
    mutants = generate_mutants(original, ("qgd",))
    judge(original, mutants[0], timing="cost")
    final = weakref.ref(mutation._slot.final)
    cursor = weakref.ref(mutation._slot.cursor)
    del original
    gc.collect()
    assert mutation._slot is None
    assert final() is None and cursor() is None


def test_new_qubit_limit_rechecks_the_limit():
    rng = np.random.default_rng(11)
    original = random_circuit(rng, num_qubits=3, num_gates=10)
    (mutant, *_) = generate_mutants(original, ("qgd",))
    first = judge(original, mutant, timing="cost", qubit_limit=3)
    assert first.status != "error"
    assert judge(original, mutant, timing="cost", qubit_limit=2).status == "error"
    assert judge(original, mutant, timing="cost", qubit_limit=3) == first


def test_out_of_order_mutants_reset_the_cursor():
    rng = np.random.default_rng(12)
    original = random_circuit(rng, num_qubits=4, num_gates=20)
    subsample = generate_mutants(original, seed=3, budget=40)
    shuffled = [subsample[i] for i in rng.permutation(len(subsample))]
    for order in (subsample, subsample[::-1], shuffled):
        _assert_matches_oracle(original, order, timeout_factor=NO_TIMEOUT)


def _count_cursor_gates(monkeypatch):
    """Counts of the kernel steps judge() applies, to the cursor or not;
    steps count only when built after this call."""
    counts = {"cursor": 0, "other": 0}
    real = mutation.kernel

    def counting_kernel(*args):
        step = real(*args)

        def counting(state):
            slot = mutation._slot
            counts["cursor" if slot is not None and state is slot.cursor
                   else "other"] += 1
            step(state)
        return counting

    monkeypatch.setattr(mutation, "kernel", counting_kernel)
    return counts


def test_site_ordered_sweep_applies_each_prefix_gate_once(monkeypatch):
    rng = np.random.default_rng(13)
    original = random_circuit(rng, num_qubits=4, num_gates=25)
    mutants = generate_mutants(original, ("qgr",))
    counts = _count_cursor_gates(monkeypatch)
    for mutant in mutants:
        judge(original, mutant, timing="cost", timeout_factor=NO_TIMEOUT)
    assert 0 < counts["cursor"] <= len(original.instructions)


def test_cost_timeout_skips_the_mutant_simulation(monkeypatch):
    original = build(2, 0, [(GateKind.H, (0,)), (GateKind.CX, (0, 1))])
    mutants = generate_mutants(original, ("qgi",))
    counts = _count_cursor_gates(monkeypatch)
    judge(original, mutants[0], timing="cost")  # builds the shared run
    for mutant in mutants:
        assert judge(original, mutant, timing="cost").status == "timeout"
    # only the original's two steps ran, once each, for its final state
    assert counts == {"cursor": 0, "other": 2}
    monkeypatch.undo()
    _assert_matches_oracle(original, mutants)


def test_concurrent_judges_match_the_oracle():
    rng = np.random.default_rng(14)
    originals = [random_circuit(rng, num_qubits=4, num_gates=15) for _ in range(2)]
    work = [(o, m) for o in originals for m in generate_mutants(o, ("qgr", "qgd"))]
    expected = [judge_full(o, m, timeout_factor=NO_TIMEOUT) for o, m in work]
    results: dict[int, list] = {}

    def worker(index):
        results[index] = [judge(o, m, timing="cost", timeout_factor=NO_TIMEOUT)
                          for o, m in work[index % 2::2]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for index in range(4):
        assert results[index] == expected[index % 2::2]


def _gates(circuit):
    return [(i.kind, i.qubits, i.params) for i in circuit.instructions]


def test_hand_built_suffix_mutants_match_full_resimulation(monkeypatch):
    rng = np.random.default_rng(15)
    original = random_circuit(rng, num_qubits=3, num_gates=12)
    ops = _gates(original)
    head = (GateKind.SX, (2,), ()) if ops[0][0] is not GateKind.SX else (GateKind.H, (2,), ())
    unrelated = random_circuit(rng, num_qubits=3, num_gates=12)
    assert _gates(unrelated)[0] != ops[0] and _gates(unrelated)[-1] != ops[-1]
    narrower = random_circuit(rng, num_qubits=2, num_gates=6)
    wider = build(4, 0, ops)

    # (mutant, kernels it builds itself); judge() returns error for another
    # width before it builds any
    cases = {
        "suffix only": (build(3, 0, [head] + ops[1:]), 1),
        # every gate, an id too: it builds a step that does nothing
        "nothing shared": (unrelated, len(unrelated.instructions)),
        "equal": (Circuit(3, 0, original.instructions), 0),
        "longer": (build(3, 0, [head, head] + ops), 2),
        "shorter": (build(3, 0, ops[4:]), 0),
        "wider": (wider, None),
        "narrower": (narrower, None),
    }
    prefix = mutation._shared_prefix(original, mutation.DEFAULT_QUBIT_LIMIT)
    for name, (candidate, own) in cases.items():
        if candidate.num_qubits != original.num_qubits:
            # a state of another width has no fidelity to the original's
            assert judge(original, _as_mutant(candidate), timing="cost",
                         timeout_factor=NO_TIMEOUT).status == "error"
            continue
        _assert_matches_oracle(original, [_as_mutant(candidate)],
                               timeout_factor=NO_TIMEOUT)
        # the shared run's steps were built before counting began
        counts = _count_cursor_gates(monkeypatch)
        state = prefix.statevector_of(gate_ops(candidate, mutation.DEFAULT_QUBIT_LIMIT))
        monkeypatch.undo()
        assert state.tobytes() == statevector_of(candidate).tobytes(), name
        assert counts == {"cursor": 0, "other": own}, name


def test_overlapping_prefix_and_suffix_match_full_resimulation(monkeypatch):
    # a gate repeated back to back: deleting or doubling one copy leaves a
    # prefix and a suffix that would overlap if the suffix were not capped
    rng = np.random.default_rng(16)
    ops = _gates(random_circuit(rng, num_qubits=3, num_gates=8))
    original = build(3, 0, ops[:4] + [ops[3], ops[3]] + ops[4:])
    mutants = generate_mutants(original, ("qgd", "qgi"))
    mutants += [_as_mutant(build(3, 0, ops[:4] + [ops[3]] * k + ops[4:]), k)
                for k in (0, 4)]
    prefix = mutation._shared_prefix(original, mutation.DEFAULT_QUBIT_LIMIT)
    for mutant in mutants:
        _assert_matches_oracle(original, [mutant], timeout_factor=NO_TIMEOUT)
        ops = gate_ops(mutant.circuit, mutation.DEFAULT_QUBIT_LIMIT)
        assert (prefix.statevector_of(ops).tobytes()
                == statevector_of(mutant.circuit).tobytes()), mutant
