"""Shared-prefix judging in cost mode against full re-simulation.

judge() reuses one forward run of the original across calls and applies
each mutant's edit at its index; these tests hold its verdicts and
fidelities (by == and repr) to the full re-simulation oracle in
judge_oracle.py, hold the states of hand-built edits bit for bit to full
runs of the edited circuits, count the steps that edits leaving the state
unchanged skip, bound the memory judging holds, and check when the shared
run is kept, rebuilt and freed.
"""
import gc
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from corpus_util import build, random_circuit
from judge_oracle import judge_full
from qcover import mutation, simulator
from qcover.cli import _TimeLimit
from qcover.probes import instrument
from qcover.ir import GateKind
from qcover.mutation import Mutant, generate_mutants, judge
from qcover.qasm import parse_file
from qcover.simulator import DEFAULT_QUBIT_LIMIT, fidelity, gate_ops, statevector_of
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


def _edit(at, drop, insert):
    return Mutant(0, "qgr", 0, "hand-built", at, drop, tuple(insert))


@pytest.mark.parametrize("timeout_factor",
                         [mutation.DEFAULT_TIMEOUT_FACTOR, NO_TIMEOUT],
                         ids=["default", "no-timeout"])
def test_corpus_mutants_match_full_resimulation(timeout_factor):
    for path in sorted(CORPUS.glob("*.qasm")):
        original = parse_file(str(path))
        mutants = generate_mutants(original)
        _assert_matches_oracle(original, mutants, timeout_factor=timeout_factor)


def test_random_circuit_mutants_match_full_resimulation():
    rng = np.random.default_rng(20)
    for index in range(20):
        original = random_circuit(rng, num_gates=int(rng.integers(5, 16)),
                                  with_measure=index % 2 == 1)
        mutants = generate_mutants(original)
        _assert_matches_oracle(original, mutants)
        _assert_matches_oracle(original, mutants, timeout_factor=NO_TIMEOUT)


def test_measurements_and_barriers_match_full_resimulation():
    ops = [(GateKind.H, (0,)), (GateKind.CX, (0, 1)),
           (GateKind.BARRIER, (0, 1, 2)),
           (GateKind.MEASURE, (0,), (), (0,)),
           (GateKind.H, (0,)), (GateKind.RY, (2,), (0.4,)),
           (GateKind.CZ, (2, 1)), (GateKind.BARRIER, (1,)),
           (GateKind.MEASURE, (1,), (), (1,)), (GateKind.X, (2,))]
    original = build(3, 2, ops)
    mutants = generate_mutants(original)
    _assert_matches_oracle(original, mutants)
    _assert_matches_oracle(original, mutants, timeout_factor=NO_TIMEOUT)


def test_probes_and_qubit_limit_give_error_verdicts():
    rng = np.random.default_rng(8)
    original = random_circuit(rng, num_qubits=3, num_gates=10)
    probed = instrument(transpile(original))
    mutants = generate_mutants(original, ("qgd",))
    assert judge(probed, mutants[0], timing="cost").status == "error"
    _assert_matches_oracle(probed, [mutants[0]])
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


def test_concurrent_judges_match_the_oracle_on_tiled_states(monkeypatch):
    # two amplitudes a tile, so a one- or two-qubit gate on these 4-qubit
    # states goes tile by tile: each replay must stage through its own scratch
    monkeypatch.setattr(simulator, "_BLOCK", 2)
    test_concurrent_judges_match_the_oracle()


def _full_run(num_qubits, ops):
    return statevector_of(build(num_qubits, 0, [(kind, qubits, params)
                                                for kind, params, qubits in ops]))


def _judge_hand_built(monkeypatch, original, cases):
    """Judges each edit in turn and holds it to a full run of the edited
    circuit: repr(fidelity), the timeout by the edited gate list's length,
    and bit for bit every state judge() replays; it builds kernels for the
    inserted gates only.  A replayed state stands for the edited circuit
    or, when the edit drops one gate and leaves the state at its index as
    it was, for the original without that gate.  Returns, per edit, how many of the original's steps went to
    a state other than the cursor."""
    n = original.num_qubits
    ops = gate_ops(original, DEFAULT_QUBIT_LIMIT)
    reference = statevector_of(original)
    counts = _count_cursor_gates(monkeypatch)
    replayed = []
    real_fidelity = mutation.fidelity
    monkeypatch.setattr(mutation, "fidelity",
                        lambda final, state: replayed.append(state)
                        or real_fidelity(final, state))
    mutation._shared_prefix(original, DEFAULT_QUBIT_LIMIT)  # counted steps
    built = []
    counting_kernel = mutation.kernel
    monkeypatch.setattr(mutation, "kernel",
                        lambda *args: built.append(args) or counting_kernel(*args))
    applied = {}
    for name, mutant in cases.items():
        at, drop, insert = mutant.at, mutant.drop, list(mutant.insert)
        edited = ops[:at] + insert + ops[at + drop:]
        full = _full_run(n, edited)
        before = counts["other"]
        replayed.clear()
        built.clear()
        verdict = judge(original, mutant, timing="cost", timeout_factor=NO_TIMEOUT)
        assert repr(verdict.fidelity) == repr(fidelity(reference, full)), name
        assert verdict.status != "timeout", name
        # the edit builds a kernel for each gate it inserts and no other
        assert built == [(*op, n) for op in insert], name
        applied[name] = counts["other"] - before - len(insert)
        unchanged = np.array_equal(_full_run(n, ops[:at] + insert),
                                   _full_run(n, ops[:at]))
        stands_for = ops[:at] + ops[at + 1:] if unchanged and drop == 1 else edited
        for state in replayed:
            assert state.tobytes() == _full_run(n, stands_for).tobytes(), name
        # a factor half a gate short of the edited length times it out
        if edited:
            short = judge(original, mutant, timing="cost",
                          timeout_factor=(len(edited) - 0.5) / len(ops))
            assert short.status == "timeout", name
    monkeypatch.undo()
    return applied


def test_hand_built_mutants_match_full_resimulation(monkeypatch):
    # edits the generator never makes: none at all, several gates, every gate
    rng = np.random.default_rng(15)
    original = random_circuit(rng, num_qubits=3, num_gates=12)
    other = gate_ops(random_circuit(rng, num_qubits=3, num_gates=12),
                     DEFAULT_QUBIT_LIMIT)
    cases = {
        "null": _edit(5, 0, ()),
        "null at the end": _edit(12, 0, ()),
        "insert at the start": _edit(0, 0, other[:1]),
        "insert two": _edit(4, 0, other[:2]),
        "append": _edit(12, 0, other[-1:]),
        "drop the first": _edit(0, 1, ()),
        "drop the last": _edit(11, 1, ()),
        "drop two": _edit(3, 2, ()),
        "replace every gate": _edit(0, 12, other),
    }
    # the original leaves |000> as it is up to gate 10, so most of these
    # edits leave the state at their index unchanged and replay nothing; a
    # dropped gate is tried once on the working copy
    assert _judge_hand_built(monkeypatch, original, cases) == {
        "null": 0, "null at the end": 0, "insert at the start": 0,
        "insert two": 12 - 4, "append": 0, "drop the first": 1,
        "drop the last": 1, "drop two": 12 - 3 - 2, "replace every gate": 0}
    # a gate on a qubit the original does not have cannot be simulated
    outside = _edit(1, 0, [(GateKind.X, (), (3,))])
    assert judge(original, outside, timing="cost").status == "error"


def test_edits_that_leave_the_state_unchanged_skip_the_suffix(monkeypatch):
    original = build(3, 0, [(GateKind.H, (0,)), (GateKind.CX, (0, 1)),
                            (GateKind.RY, (1,), (0.4,)),
                            (GateKind.H, (2,)),  # qubit 2 is exactly |0> here
                            (GateKind.CZ, (2, 0)), (GateKind.RX, (0,), (0.9,)),
                            (GateKind.CX, (1, 2)), (GateKind.T, (2,))])
    by_detail = {(m.site, m.detail): m for m in generate_mutants(original)}
    cases = {
        "null in the middle": _edit(4, 0, ()),
        "insert id": _edit(2, 0, [(GateKind.ID, (), (1,))]),
        "h->z on |0>": by_detail[(3, "h->z")],
        "delete that h": by_detail[(3, "delete h")],
        "drop two, z on |0>": _edit(3, 2, [(GateKind.Z, (), (2,))]),
    }
    applied = _judge_hand_built(monkeypatch, original, cases)
    assert applied["null in the middle"] == applied["insert id"] == 0
    # h->z tries the h it drops once, then replays steps[4:] for the deleted
    # gate; the qgd at the same site reuses that fidelity
    assert applied["h->z on |0>"] == 1 + 8 - 4
    assert applied["delete that h"] == 0
    # an edit that drops two gates never uses the deleted-gate fidelity
    assert applied["drop two, z on |0>"] == 8 - 5


def test_judging_holds_no_extra_state():
    # the shared run's final state and cursor, the working copy, and the
    # tensor kernel's temporaries: about five states of 2^n amplitudes
    rng = np.random.default_rng(16)
    original = random_circuit(rng, num_qubits=14, num_gates=30)
    mutants = generate_mutants(original)
    tracemalloc.start()
    try:
        for mutant in mutants:
            judge(original, mutant, timing="cost", timeout_factor=NO_TIMEOUT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.25 * (16 << 14)


def test_interrupted_sweep_leaves_the_shared_run_usable():
    # the CLI's time limit raises from whatever is running: here a kernel
    # step halfway along the cursor's sweep to the last gate
    rng = np.random.default_rng(17)
    original = random_circuit(rng, num_qubits=4, num_gates=20)
    mutants = generate_mutants(original, ("qgd",))
    last = mutants[-1]
    prefix = mutation._shared_prefix(original, DEFAULT_QUBIT_LIMIT)
    middle = last.at // 2
    step = prefix.steps[middle]

    def interrupted(state):
        prefix.steps[middle] = step
        raise _TimeLimit("time limit of 1.0s exceeded")

    prefix.steps[middle] = interrupted
    with pytest.raises(_TimeLimit):
        judge(original, last, timing="cost", timeout_factor=NO_TIMEOUT)
    assert prefix.position == -1 and not prefix.lock.locked()
    for mutant in (last, *mutants):
        assert (judge(original, mutant, timing="cost", timeout_factor=NO_TIMEOUT)
                == judge_full(original, mutant, timeout_factor=NO_TIMEOUT)), mutant
    assert mutation._slot is prefix
