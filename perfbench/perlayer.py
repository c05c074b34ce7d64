"""Per-layer figures of a traced run.

Times come from the spans of a traced pass (self time, summed per layer
operation).  The kernel split by gate kind comes from a replay of `run`'s
loop through the public `simulator.apply_gate` and `simulator.marginal`,
which must end in the same state as `run`, bit for bit.  Byte figures are
computed from the state size, not measured.
"""
from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

from qcover import run, statevector_of, strip_probes
from qcover import simulator
from qcover.ir import Circuit, GateKind, Probe

from tracing import Tracer
from workloads import Pass, state_digest

# every kind a transpiled circuit can contain; anything else counts as "other"
KINDS = ("u", "p", "id", "h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx",
         "rx", "ry", "rz", "swap", "cx", "other")
_NO_OPS = (GateKind.ID, GateKind.BARRIER)

# span name -> metric name for the layer self times
SPAN_METRICS = {
    "qasm.parse": "qasm.parse_s",
    "ir.validate": "ir.validate_s",
    "transpiler.transpile": "transpiler.transpile_s",
    "instrument.instrument": "instrument.instrument_s",
    "simulator.run": "simulator.run_s",
    "coverage.analyze": "coverage.analyze_s",
    "mutation.generate": "mutation.generate_s",
    "mutation.judge": "mutation.judge_s",
    "mutation.campaign": "mutation.campaign_s",
    "cli.main": "cli.main_s",
    "bench.collect": "bench.collect_s",
}
# the layers that cli.main calls into
LIBRARY_LAYERS = ("qasm.", "ir.", "transpiler.", "instrument.", "simulator.",
                  "coverage.", "mutation.")

METRICS: dict[str, str] = {
    "qasm.parse_s": "s",
    "qasm.source_kib": "KiB",
    "ir.validate_s": "s",
    "transpiler.transpile_s": "s",
    "transpiler.primitives_out": "count",
    "instrument.instrument_s": "s",
    "instrument.probes_inserted": "count",
    "simulator.run_s": "s",
    "simulator.run_noprobe_s": "s",
    "simulator.probe_reads": "count",
    "simulator.marginal_s": "s",
    **{f"simulator.apply_gate_s.{k}": "s" for k in KINDS},
    **{f"simulator.apply_gate_calls.{k}": "count" for k in KINDS},
    "simulator.state_bytes": "B",
    "simulator.bytes_moved": "B",
    "simulator.peak_alloc_mib": "MiB",
    "coverage.analyze_s": "s",
    "mutation.generate_s": "s",
    "mutation.mutants": "count",
    "mutation.judge_s": "s",
    "mutation.campaign_s": "s",
    "mutation.verdicts.killed": "count",
    "mutation.verdicts.survived": "count",
    "mutation.verdicts.timeout": "count",
    "mutation.verdicts.error": "count",
    "mutation.sim_equiv_per_mutant": "ratio",
    "mutation.mutants_per_s": "1/s",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "bench.collect_s": "s",
    "bench.uncovered_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def without_measurements(circuit: Circuit) -> Circuit:
    kept = tuple(i for i in circuit.instructions
                 if isinstance(i, Probe) or i.kind is not GateKind.MEASURE)
    return Circuit(circuit.num_qubits, circuit.num_clbits, kept)


@dataclass
class Replay:
    gate_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(KINDS, 0.0))
    gate_calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    marginal_s: float = 0.0
    reads: int = 0
    bytes_moved: int = 0


def replay(probed: Circuit, into: Replay):
    """run()'s loop through apply_gate and marginal, each call timed; returns the state."""
    state = simulator.zero_state(probed.num_qubits)
    state_bytes = state.nbytes
    clock = time.perf_counter
    for instr in probed.instructions:
        if isinstance(instr, Probe):
            start = clock()
            simulator.marginal(state, instr.qubit)
            into.marginal_s += clock() - start
            into.reads += 1
            into.bytes_moved += state_bytes
            continue
        kind = instr.kind.value if instr.kind.value in KINDS else "other"
        start = clock()
        simulator.apply_gate(state, instr.kind, instr.params, instr.qubits)
        into.gate_s[kind] += clock() - start
        into.gate_calls[kind] += 1
        if instr.kind not in _NO_OPS:
            into.bytes_moved += 2 * state_bytes   # computed: read and write the state once
    return state


def zero_metrics() -> dict[str, float]:
    return dict.fromkeys(METRICS, 0.0)


def span_metrics(tracer: Tracer, elapsed_s: float) -> dict[str, float]:
    """Layer self times of one traced pass, and the part no span covers."""
    self_times = tracer.self_times()
    out = {metric: self_times.get(name, 0.0) for name, metric in SPAN_METRICS.items()}
    out["bench.uncovered_s"] = elapsed_s - sum(self_times.values())
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def count_metrics(p: Pass, source_bytes: int) -> dict[str, float]:
    """Work counts of a pass: source size, primitives, probes, mutants."""
    return {
        "qasm.source_kib": source_bytes / 1024,
        "transpiler.primitives_out": sum(len(probed.gates) for _, _, probed, _ in p.runs),
        "instrument.probes_inserted": sum(len(probed.probes) for _, _, probed, _ in p.runs),
        "simulator.state_bytes": max((16 << probed.num_qubits for _, _, probed, _ in p.runs),
                                     default=0),
        "mutation.mutants": p.mutants,
    }


def verdict_metrics(p: Pass) -> dict[str, float]:
    return {f"mutation.verdicts.{s}": p.verdicts.get(s, 0)
            for s in ("killed", "survived", "timeout", "error")}


def kernel_metrics(p: Pass, checks) -> dict[str, float]:
    """Replay every circuit of a pass; check each replay against run()."""
    total = Replay()
    for name, _, probed, digest in p.runs:
        bare = without_measurements(probed)
        state = replay(bare, total)
        if len(bare.instructions) != len(probed.instructions):
            digest = state_digest(run(bare, seed=0).state)
        checks.check(state_digest(state) == digest,
                     f"{name}: replay through apply_gate differs from run()")
    out = {f"simulator.apply_gate_s.{k}": v for k, v in total.gate_s.items()}
    out.update({f"simulator.apply_gate_calls.{k}": v for k, v in total.gate_calls.items()})
    out["simulator.marginal_s"] = total.marginal_s
    out["simulator.probe_reads"] = total.reads
    out["simulator.bytes_moved"] = total.bytes_moved
    return out


def noprobe_metrics(p: Pass, checks) -> dict[str, float]:
    """run() of each circuit after strip_probes: its time, and the same final state."""
    elapsed = 0.0
    for name, _, probed, digest in p.runs:
        bare = strip_probes(probed)
        start = time.perf_counter()
        result = run(bare, seed=0)
        elapsed += time.perf_counter() - start
        checks.check(state_digest(result.state) == digest,
                     f"{name}: probes changed the final state")
    return {"simulator.run_noprobe_s": elapsed}


def peak_alloc_mib(p: Pass) -> float:
    """tracemalloc peak over one run() of the widest circuit of the pass."""
    if not p.runs:
        return 0.0
    probed = max((probed for _, _, probed, _ in p.runs), key=lambda c: c.num_qubits)
    tracemalloc.start()
    try:
        run(probed, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (1 << 20)


def sim_equiv_per_mutant(p: Pass, tracer: Tracer) -> float:
    """Judge time per mutant over one statevector_of of the original."""
    judge_s: dict[str, float] = {}
    judged: dict[str, int] = {}
    for name, start, end, _, circuit in tracer.spans:
        if name == "mutation.judge":
            judge_s[circuit] = judge_s.get(circuit, 0.0) + end - start
            judged[circuit] = judged.get(circuit, 0) + 1
    if not judged:
        return 0.0
    originals = {name: original for name, original, _, _ in p.runs}
    baseline = 0.0
    for circuit, count in judged.items():
        # judge() simulates the circuit without measurements and barriers
        original = originals[circuit]
        bare = Circuit(original.num_qubits, original.num_clbits,
                       tuple(i for i in original.instructions
                             if i.kind not in (GateKind.MEASURE, GateKind.BARRIER)))
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            statevector_of(bare)
            samples.append(time.perf_counter() - start)
        baseline += count * statistics.median(samples)
    return sum(judge_s.values()) / baseline
