"""
Probe insertion for transpiled circuits.

Two probes (expectation value and Z-basis probability pair) go on the control
qubit of every tracked cx, immediately after it, and two more per control
qubit of every origin gate at the end of that gate's expansion block.  Each
transpiler.Origin carries their labels; its docstring gives the scheme.
render() writes gates through qasm.statement(), the serializer's own
statement writer, with parameters by repr.
"""
from __future__ import annotations

from .ir import Circuit, Probe
from .qasm import statement
from .transpiler import TranspiledCircuit


def instrument(t: TranspiledCircuit) -> Circuit:
    """Insert probes into a transpiled circuit.

    Gate instructions keep their ids and order; probes get fresh ids.  The
    result satisfies: strip_probes(instrument(t)) == t.circuit.
    """
    gates = t.circuit.instructions
    out: list = []
    done = 0  # gates[:done] are in out
    next_id = len(gates)
    for o in t.origins:
        # origins and their positions come in program order; a block's last
        # position gets its decision probes after any condition probe
        points = [(pos, gates[pos].qubits[0], labels)
                  for pos, labels in zip(o.cx_positions, o.cx_labels)]
        points += [(o.block_end - 1, q, labels)
                   for q, labels in zip(o.controls, o.control_labels)]
        for pos, qubit, (value, prob) in points:
            out += gates[done:pos + 1]
            done = pos + 1
            out.append(Probe(next_id, "expectation", qubit, value))
            out.append(Probe(next_id + 1, "probabilities", qubit, prob))
            next_id += 2
    out += gates[done:]
    return Circuit(t.circuit.num_qubits, t.circuit.num_clbits, tuple(out))


def strip_probes(circuit: Circuit) -> Circuit:
    """Remove every probe, leaving gate instructions untouched."""
    return Circuit(circuit.num_qubits, circuit.num_clbits, circuit.gates)


def render(circuit: Circuit) -> str:
    """Pretty-print an instrumented circuit, probes as comment lines and
    parameters by repr."""
    lines = [f"// probe {i.mode} q[{i.qubit}] label={i.label}" if isinstance(i, Probe)
             else statement(i, repr) for i in circuit.instructions]
    return "\n".join(lines) + "\n"
