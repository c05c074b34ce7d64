"""Frozen transpile and instrument output.

The transpiled and instrumented forms of every corpus circuit and of seeded
random circuits (with dcx, ecr, barriers and mid-circuit measurements) are
hashed: the instrumented instruction list, the provenance table, and the
stdout of `qcover instrument` at both stages, with and without
`--provenance`.  A refactor of the provenance bookkeeping must leave every
digest unchanged; change a digest only for a deliberate change of output.
"""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from corpus_util import random_circuit, renumber
from qcover import instrument, transpile
from qcover.cli import main
from qcover.ir import Circuit, GateInstruction, GateKind, Probe
from qcover.qasm import parse_file, serialize
from qcover.transpiler import provenance_report

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

CORPUS_DIGEST = "f59ba6cfc034c3fd31486aed720383163cb92dad8ae721fe1c477ef5c86b01e1"
RANDOM_DIGEST = "c9c3a161650c30c8681ce776f41d131ee92bb453f58fba738472527d57774f0b"


def _spliced_circuit(rng: np.random.Generator) -> Circuit:
    """A random circuit with a dcx, an ecr, barriers and a mid-circuit measure."""
    base = random_circuit(rng, num_qubits=int(rng.integers(2, 6)),
                          with_measure=bool(rng.integers(2)))
    n = base.num_qubits
    instructions = list(base.instructions)
    extra = [
        GateInstruction(0, GateKind.DCX, tuple(int(q) for q in rng.choice(n, 2, replace=False))),
        GateInstruction(0, GateKind.ECR, tuple(int(q) for q in rng.choice(n, 2, replace=False))),
        GateInstruction(0, GateKind.BARRIER, tuple(range(n))),
        GateInstruction(0, GateKind.BARRIER, (int(rng.integers(n)),)),
        GateInstruction(0, GateKind.MEASURE, (0,), (), (0,)),
    ]
    for instr in extra:
        instructions.insert(int(rng.integers(len(instructions) + 1)), instr)
    return Circuit(n, max(base.num_clbits, 1), renumber(instructions))


def _instruction_lines(circuit: Circuit) -> str:
    lines = []
    for instr in circuit.instructions:
        if isinstance(instr, Probe):
            lines.append(f"{instr.id} probe {instr.mode} {instr.qubit} {instr.label}")
        else:
            lines.append(f"{instr.id} {instr.kind.value} {instr.qubits} "
                         f"{instr.params!r} {instr.clbits}")
    return "\n".join(lines) + "\n"


def _outputs(circuit: Circuit, path: Path, capsys) -> str:
    t = transpile(circuit)
    parts = [_instruction_lines(instrument(t)), provenance_report(t)]
    for stage in ("transpiled", "instrumented"):
        for flags in ([], ["--provenance"]):
            assert main(["instrument", str(path), "--stage", stage, *flags]) == 0
            parts.append(capsys.readouterr().out)
    return "\f".join(parts)


def _digest(texts: list[str]) -> str:
    return hashlib.sha256("\v".join(texts).encode()).hexdigest()


def test_corpus_output_is_frozen(capsys):
    texts = [_outputs(parse_file(str(path)), path, capsys)
             for path in sorted(CORPUS.glob("*.qasm"))]
    assert len(texts) == 12
    assert _digest(texts) == CORPUS_DIGEST


def test_random_output_is_frozen(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    texts = []
    for index in range(40):
        circuit = _spliced_circuit(rng)
        path = tmp_path / f"random_{index}.qasm"
        path.write_text(serialize(circuit))
        texts.append(_outputs(circuit, path, capsys))
    assert _digest(texts) == RANDOM_DIGEST
