"""The three benchmark workloads.

Each workload makes its inputs from the seed and runs passes over them with
qcover's public functions.  A pass reports every call to a recorder from
tracing.py, an `OpTimer` in the untraced passes or a `Tracer` in the traced
ones, so both kinds of pass make the same calls.

cover_wide   3 circuits, 18 qubits, 300 gates each: parse -> validate ->
             transpile -> instrument -> run -> analyze.  Loads simulator
             (4 MiB states, 1026 probe reads a circuit); bypasses mutation
             and cli.
mutate_mid   3 circuits at 10/11/12 qubits with 50/55/60 gates: the cover
             pipeline, then generate_mutants with all three operators,
             judge for every mutant with cost timing, and campaign.  Loads
             mutation (each judge re-simulates the original); bypasses cli.
cli_batch    qcover.cli.main in-process: `cover DIR --summary --json OUT`
             over the 12 corpus files plus 300 generated 4-8 qubit circuits
             with measurements, then `mutate corpus --csv OUT`.  Loads the
             per-circuit front end (parse, transpile, instrument, analyze)
             and cli; small states keep simulator bandwidth out of it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qcover import (analyze, campaign, generate_mutants, instrument, judge,
                    parse, parse_file, run, transpile, validate)
from qcover import cli
from qcover.ir import Circuit

from circuits import random_qasm
from tracing import OpTimer

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


@dataclass
class Pass:
    """What one pass did and produced."""

    ops: list[tuple[str, object, float]] = field(default_factory=list)  # name, circuit, s
    circuits: int = 0
    mutants: int = 0
    verdicts: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    outputs: list[tuple[str, bytes]] = field(default_factory=list)
    # per circuit: (name, original, probed, sha256 of run()'s final state)
    runs: list[tuple[str, Circuit, Circuit, str]] = field(default_factory=list)
    frozen_digest: str | None = None
    elapsed_s: float = 0.0     # the whole pass, benchmark bookkeeping included

    def digest(self) -> str:
        if self.frozen_digest is not None:
            return self.frozen_digest
        h = hashlib.sha256()
        for name, data in self.outputs:
            h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        return h.hexdigest()

    def compact(self) -> None:
        """Keep the digest, drop the outputs: held passes must not grow the RSS."""
        self.frozen_digest = self.digest()
        self.outputs, self.runs = [], []

    def count_verdicts(self, verdicts) -> None:
        for v in verdicts:
            self.verdicts[v.status] = self.verdicts.get(v.status, 0) + 1


def report_bytes(report) -> bytes:
    """A report serialized exactly as `qcover cover --json` writes it."""
    return (json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n").encode()


def state_digest(state: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(state).tobytes()).hexdigest()


def cover_circuit(load, name: str, rec):
    """parse -> validate -> transpile -> instrument -> run -> analyze."""
    with rec.span("qasm.parse", name):
        circuit = load()
    with rec.span("ir.validate", name):
        problems = validate(circuit)
    if problems:
        raise ValueError("; ".join(str(v) for v in problems))
    with rec.span("transpiler.transpile", name):
        transpiled = transpile(circuit)
    with rec.span("instrument.instrument", name):
        probed = instrument(transpiled)
    with rec.span("simulator.run", name):
        result = run(probed, seed=0)
    with rec.span("coverage.analyze", name):
        report = analyze(result.probes, transpiled, circuit_name=name)
    return circuit, probed, result, report


def mutate_circuit(circuit: Circuit, report, name: str, rec):
    """generate_mutants, judge each mutant with cost timing, tally a campaign."""
    with rec.span("mutation.generate", name):
        mutants = generate_mutants(circuit)
    verdicts = []
    for mutant in mutants:
        with rec.span("mutation.judge", name):
            verdicts.append(judge(circuit, mutant, timing="cost"))
    with rec.span("mutation.campaign", name):
        result = campaign(circuit, report, circuit_name=name,
                          mutants=mutants, verdicts=verdicts)
    return mutants, result


def _keep_run(p: Pass, rec, name: str, circuit: Circuit, probed: Circuit, result) -> None:
    with rec.span("bench.collect", name):
        p.runs.append((name, circuit, probed, state_digest(result.state)))


class _Generated:
    """A workload over generated QASM sources held in memory."""

    name = ""
    sizes: tuple[tuple[int, int], ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.sources = [(f"{self.name}_{i}.qasm",
                         random_qasm(np.random.default_rng([seed, i]), n, g))
                        for i, (n, g) in enumerate(self.sizes)]

    def source_bytes(self) -> int:
        return sum(len(src) for _, src in self.sources)

    def circuits_in(self, op_circuit) -> int:
        """How many circuits the operations tagged op_circuit serve."""
        return 1

    def close(self) -> None:
        pass

    def run_pass(self, rec) -> Pass:
        p = Pass()
        for name, src in self.sources:
            try:
                self.one(p, rec, name, src)
            except Exception as exc:
                p.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        p.ops = rec.ops()
        return p


class CoverWide(_Generated):
    name = "cover_wide"
    sizes = ((18, 300),) * 3

    def warm_up(self) -> None:
        src = random_qasm(np.random.default_rng([self.seed, 1 << 20]), 12, 300)
        cover_circuit(lambda: parse(src), "warm", OpTimer())

    def one(self, p: Pass, rec, name: str, src: str) -> None:
        circuit, probed, result, report = cover_circuit(
            lambda: parse(src, filename=name), name, rec)
        p.circuits += 1
        with rec.span("bench.collect", name):
            p.outputs.append((name, report_bytes(report)))
        _keep_run(p, rec, name, circuit, probed, result)


class MutateMid(_Generated):
    name = "mutate_mid"
    sizes = ((10, 50), (11, 55), (12, 60))

    def warm_up(self) -> None:
        src = random_qasm(np.random.default_rng([self.seed, 1 << 20]), 8, 30)
        circuit, _, _, report = cover_circuit(lambda: parse(src), "warm", OpTimer())
        mutate_circuit(circuit, report, "warm", OpTimer())

    def one(self, p: Pass, rec, name: str, src: str) -> None:
        circuit, probed, result, report = cover_circuit(
            lambda: parse(src, filename=name), name, rec)
        mutants, outcome = mutate_circuit(circuit, report, name, rec)
        p.circuits += 1
        p.mutants += len(mutants)
        p.count_verdicts(outcome.verdicts)
        if outcome.errors:
            p.errors.append(f"{name}: {outcome.errors} engine-error verdict(s)")
        with rec.span("bench.collect", name):
            lines = [outcome.csv_row()]
            lines += [f"[{m.mutant_id}] {m.operator} {m.detail} @ {m.site} -> "
                      f"{v.status} {v.fidelity!r}"
                      for m, v in zip(mutants, outcome.verdicts)]
            p.outputs.append((name, report_bytes(report)))
            p.outputs.append((name + ".verdicts", "\n".join(lines).encode()))
        _keep_run(p, rec, name, circuit, probed, result)


class CliBatch:
    name = "cli_batch"
    generated = 300

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.inputs = workdir / "in"
        self.json_dir = workdir / "json"
        self.csv_path = workdir / "campaign.csv"
        self.inputs.mkdir(parents=True)
        for path in sorted(CORPUS.glob("*.qasm")):
            shutil.copyfile(path, self.inputs / path.name)
        for i in range(self.generated):
            n = 4 + i % 5
            g = 40 + (i * 80) // (self.generated - 1)
            src = random_qasm(np.random.default_rng([seed, i]), n, g, with_measure=True)
            (self.inputs / f"gen_{i:03d}.qasm").write_text(src, encoding="utf-8")
        self.files = sorted(self.inputs.glob("*.qasm"))
        self.corpus_files = sorted(CORPUS.glob("*.qasm"))

    def source_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.files)

    def circuits_in(self, op_circuit) -> int:
        # circuit_p50_s is the cover call's time per circuit; mutate is left out
        return len(self.files) if op_circuit == "cover" else 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["cover", str(CORPUS), "--summary", "--quiet", "--jobs", "1"])
            cli.main(["mutate", str(CORPUS / "swap_test.qasm"), "--quiet", "--jobs", "1"])

    def run_pass(self, rec) -> Pass:
        p = Pass()
        shutil.rmtree(self.json_dir, ignore_errors=True)
        self.csv_path.unlink(missing_ok=True)
        commands = (
            ["cover", str(self.inputs), "--summary", "--json", str(self.json_dir),
             "--jobs", "1"],
            ["mutate", str(CORPUS), "--csv", str(self.csv_path), "--jobs", "1"],
        )
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    with rec.span("cli.main", argv[0]):
                        code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # argparse exits on bad flags
                p.errors.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
                continue
            if code != 0:
                p.errors.append(f"{argv[0]}: exit code {code}: {err.getvalue()[-500:]}")
            p.circuits += len(self.files) if argv[0] == "cover" else len(self.corpus_files)
            p.outputs.append((f"{argv[0]}.exit", str(code).encode()))
            p.outputs.append((f"{argv[0]}.stdout", out.getvalue().encode()))
            p.outputs.append((f"{argv[0]}.stderr", err.getvalue().encode()))
        with rec.span("bench.collect", "files"):
            for path in sorted(self.json_dir.glob("*.json")):
                p.outputs.append((f"json/{path.name}", path.read_bytes()))
            if self.csv_path.exists():
                csv = self.csv_path.read_bytes()
                p.outputs.append(("campaign.csv", csv))
                p.mutants = sum(int(row.split(",")[3])
                                for row in csv.decode().splitlines()[1:])
        p.ops = rec.ops()
        return p

    def library_pass(self, rec) -> Pass:
        """The library calls that a pass's `cli.main` calls make, on the same files."""
        p = Pass()
        jobs = [(path, False) for path in self.files]
        jobs += [(path, True) for path in self.corpus_files]
        for path, mutate in jobs:
            try:
                circuit, probed, result, report = cover_circuit(
                    lambda: parse_file(str(path)), path.name, rec)
                p.circuits += 1
                if mutate:
                    mutants, outcome = mutate_circuit(circuit, report, path.name, rec)
                    p.mutants += len(mutants)
                    p.count_verdicts(outcome.verdicts)
                else:
                    with rec.span("bench.collect", path.name):
                        p.outputs.append((f"json/{path.stem}.json", report_bytes(report)))
                _keep_run(p, rec, path.name, circuit, probed, result)
            except Exception as exc:
                p.errors.append(f"{path.name}: {type(exc).__name__}: {exc}")
        p.ops = rec.ops()
        return p


WORKLOADS = {"cover_wide": CoverWide, "mutate_mid": MutateMid, "cli_batch": CliBatch}


def make(name: str, seed: int, workdir: Path):
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is CliBatch else cls(seed)
