"""Controlled-gate coverage and mutation analysis for OpenQASM 2 circuits."""

from .coverage import (
    AnalysisError,
    ConditionOutcome,
    CoverageReport,
    DecisionOutcome,
    analyze,
    classify_condition,
    classify_decision,
)
from .probes import instrument, strip_probes
from .ir import (
    Circuit,
    GateInstruction,
    GateKind,
    Probe,
    Violation,
    validate,
)
from .mutation import (
    Mutant,
    MutantVerdict,
    campaign,
    generate_mutants,
    judge,
    mutation_score,
)
from .qasm import QasmError, SerializationError, SourceSpan, parse, parse_file, serialize
from .simulator import RunResult, SimulationError, run, statevector_of
from .transpiler import (
    DecompositionRule,
    Origin,
    TemplateOp,
    TranspiledCircuit,
    TranspileError,
    transpile,
)

__version__ = "0.1.0"
