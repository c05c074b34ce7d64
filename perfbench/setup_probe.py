"""Set-up cost of a fresh process: `import qcover` plus the first call into
each layer (the transpiler's first call builds the rule registry and checks
every rule against its unitary).  Prints the seconds taken."""
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcover import (analyze, campaign, instrument, parse, run,  # noqa: E402
                    serialize, transpile, validate)
from qcover import cli  # noqa: E402

SOURCE = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[1];
h q[0];
cswap q[0],q[1],q[2];
h q[0];
measure q[0] -> c[0];
"""

circuit = parse(SOURCE)
if validate(circuit):
    raise SystemExit("setup probe: the built-in circuit does not validate")
transpiled = transpile(circuit)
result = run(instrument(transpiled))
report = analyze(result.probes, transpiled, circuit_name="setup")
campaign(circuit, report, ("qgd",))  # generate_mutants and judge inside
serialize(circuit)
cli.build_parser()
print(repr(time.perf_counter() - start))
