"""OpenQASM 2.0 frontend: parsing, serialization, diagnostics, fuzz totality."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexer_oracle
from corpus_util import SWAP_TEST_QASM, build, circuits_equal, random_circuit
import numpy as np

from qcover import qasm
from qcover.ir import GateKind, validate
from qcover.qasm import QasmError, SerializationError, parse, parse_file, serialize

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_swap_test_parses():
    circuit = parse(SWAP_TEST_QASM)
    assert circuit.num_qubits == 3
    assert circuit.num_clbits == 1
    kinds = [i.kind for i in circuit.instructions]
    assert kinds == [GateKind.H, GateKind.CSWAP, GateKind.H, GateKind.MEASURE]
    assert circuit.instructions[1].qubits == (0, 1, 2)
    assert circuit.instructions[3].clbits == (0,)
    # ids are assigned densely in parse order
    assert [i.id for i in circuit.instructions] == [0, 1, 2, 3]


def test_declarations_only():
    circuit = parse('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\ncreg c[2];\n')
    assert circuit.num_qubits == 4
    assert circuit.num_clbits == 2
    assert circuit.instructions == ()


def test_ccx_controls():
    circuit = parse('OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n')
    (instr,) = circuit.instructions
    assert instr.kind is GateKind.CCX
    assert instr.qubits == (0, 1, 2)


def test_parameter_expressions_fold():
    circuit = parse(
        'OPENQASM 2.0;\nqreg q[1];\n'
        'u(pi/2,pi/2,-pi/2) q[0];\n'
        'p(-3*pi/4) q[0];\n'
        'rz(2^3) q[0];\n'
        'rx(cos(0)) q[0];\n')
    assert circuit.instructions[0].params == (math.pi / 2, math.pi / 2, -math.pi / 2)
    assert circuit.instructions[1].params == (-3 * math.pi / 4,)
    assert circuit.instructions[2].params == (8.0,)
    assert circuit.instructions[3].params == (1.0,)


def test_register_broadcast():
    circuit = parse('OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n'
                    'h q;\nmeasure q -> c;\n')
    kinds = [i.kind for i in circuit.instructions]
    assert kinds[:3] == [GateKind.H] * 3
    assert [i.qubits[0] for i in circuit.instructions[:3]] == [0, 1, 2]
    assert [(i.qubits[0], i.clbits[0]) for i in circuit.instructions[3:]] == [
        (0, 0), (1, 1), (2, 2)]


def test_two_register_broadcast():
    circuit = parse('OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncx a,b;\n')
    assert [i.qubits for i in circuit.instructions] == [(0, 2), (1, 3)]


def test_single_qubit_broadcast_against_register():
    circuit = parse('OPENQASM 2.0;\nqreg a[1];\nqreg b[2];\ncx a[0],b;\n')
    assert [i.qubits for i in circuit.instructions] == [(0, 1), (0, 2)]


def test_barrier_whole_register():
    circuit = parse('OPENQASM 2.0;\nqreg q[3];\nbarrier q;\n')
    (instr,) = circuit.instructions
    assert instr.kind is GateKind.BARRIER
    assert instr.qubits == (0, 1, 2)


def test_user_gate_inlined():
    src = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
           'gate bell a,b { h a; cx a,b; }\n'
           'qreg q[2];\nbell q[0],q[1];\n')
    circuit = parse(src)
    assert [i.kind for i in circuit.instructions] == [GateKind.H, GateKind.CX]
    assert circuit.instructions[1].qubits == (0, 1)


def test_user_gate_with_params_and_nesting():
    src = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
           'gate half(t) a { rz(t/2) a; }\n'
           'gate wrap(t) a, b { half(t) a; cx a,b; half(2*t) b; }\n'
           'qreg q[2];\nwrap(pi) q[0],q[1];\n')
    circuit = parse(src)
    kinds = [i.kind for i in circuit.instructions]
    assert kinds == [GateKind.RZ, GateKind.CX, GateKind.RZ]
    assert circuit.instructions[0].params == (math.pi / 2,)
    assert circuit.instructions[2].params == (math.pi,)


def test_u_cx_builtin_and_legacy_aliases():
    src = ('OPENQASM 2.0;\nqreg q[2];\n'
           'U(0.1,0.2,0.3) q[0];\nCX q[0],q[1];\n'
           'u1(0.5) q[0];\nu2(0.1,0.2) q[0];\nu3(0.1,0.2,0.3) q[0];\n')
    circuit = parse(src)
    kinds = [i.kind for i in circuit.instructions]
    assert kinds == [GateKind.U, GateKind.CX, GateKind.P, GateKind.U, GateKind.U]
    assert circuit.instructions[3].params == (math.pi / 2, 0.1, 0.2)


def test_overflowing_parameter_is_a_diagnostic():
    for expr in ("2^999999999", "0^(0-1)", "exp(1000)"):
        with pytest.raises(QasmError, match="math error"):
            parse(f'OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n')


@pytest.mark.parametrize("call, col, name", [
    ("rz(1e400) q[0];", 1, "rz"),
    ("rz(1e308*10) q[0];", 1, "rz"),
    ("rz(1e400-1e400) q[0];", 1, "rz"),
    ("u1(-1e400) q[0];", 1, "u1"),
    ("u2(1e400,0) q[0];", 1, "u2"),
    ("U(1e400,0,0) q[0];", 1, "U"),
    ("gate g(t) a { rz(t*10) a; }\ng(1e308) q[0];", 15, "rz"),
], ids=["inf", "overflow", "nan", "alias", "u2", "U", "gate-body"])
def test_parameter_that_is_not_finite_is_a_diagnostic(call, col, name):
    # the diagnostic names the gate as the source wrote it at the call
    with pytest.raises(QasmError, match=f": {name} parameter .* is not finite") as info:
        parse(f"OPENQASM 2.0;\nqreg q[1];\n{call}\n", filename="f.qasm")
    span = info.value.span
    assert (span.file, span.line, span.col_start) == ("f.qasm", 3, col)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_serialize_rejects_a_parameter_that_is_not_finite(value):
    circuit = build(1, 0, [(GateKind.RZ, (0,), (value,))])
    with pytest.raises(SerializationError, match="no OpenQASM form"):
        serialize(circuit)


@pytest.mark.parametrize("body", [
    "rz(" + "(" * 3000 + "1" + ")" * 3000 + ") q[0];",
    "rz(" + "-" * 3000 + "1) q[0];",
    "gate g0 a { h a; }\n"
    + "".join(f"gate g{i} a {{ g{i - 1} a; }}\n" for i in range(1, 1000))
    + "g999 q[0];",
], ids=["parentheses", "unary-minus", "gate-chain"])
def test_deep_nesting_is_a_diagnostic(body):
    with pytest.raises(QasmError, match="nest too deeply") as info:
        parse(f"OPENQASM 2.0;\nqreg q[1];\n{body}\n")
    assert info.value.span is not None


def test_version_errors():
    with pytest.raises(QasmError, match="version"):
        parse("OPENQASM 3.0;\nqubit q;\n")
    with pytest.raises(QasmError):
        parse("qreg q[1];")


def test_unsupported_gate_is_named():
    with pytest.raises(QasmError, match="rxx"):
        parse('OPENQASM 2.0;\nqreg q[2];\nrxx(0.1) q[0],q[1];\n')


@pytest.mark.parametrize("decls", [
    "gate g a { g a; }\ng q[0];",
    "gate a x { b x; }\ngate b x { a x; }\na q[0];",
], ids=["self", "mutual"])
def test_recursive_gate_is_a_diagnostic(decls):
    # a body may call only builtins and earlier gates; the span is the
    # first body op that breaks this, on line 3
    with pytest.raises(QasmError, match="not a builtin or previously defined") as info:
        parse(f"OPENQASM 2.0;\nqreg q[1];\n{decls}\n", filename="r.qasm")
    span = info.value.span
    assert (span.file, span.line, span.col_start, span.col_end) == ("r.qasm", 3, 12, 13)


def test_reset_opaque_if_rejected():
    for body in ("reset q[0];", "opaque magic a;", "if (c==1) x q[0];"):
        with pytest.raises(QasmError):
            parse(f'OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n{body}\n')


def test_syntax_error_has_span():
    try:
        parse('OPENQASM 2.0;\nqreg q[1];\nh q[0\n', filename="f.qasm")
    except QasmError as exc:
        assert exc.span is not None
        assert exc.span.file == "f.qasm"
        assert exc.span.line >= 3
    else:
        pytest.fail("expected QasmError")


def test_unterminated_gate_body_barrier_is_a_diagnostic():
    # the skip loop over a body barrier once spun forever at the end of the
    # input; parse in a child process so a regression fails, not hangs
    code = ("from qcover.qasm import QasmError, parse\n"
            "try:\n"
            "    parse('OPENQASM 2.0;\\nqreg q[1];\\ngate g a { barrier a', 'g.qasm')\n"
            "except QasmError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(qasm.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60, check=True, env=env)
    assert result.stdout == "g.qasm:3:21: expected ';', found ''\n"


def test_out_of_range_index():
    with pytest.raises(QasmError, match="out of range"):
        parse('OPENQASM 2.0;\nqreg q[2];\nh q[5];\n')


def test_duplicate_operand_rejected():
    with pytest.raises(QasmError, match="duplicate"):
        parse('OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];\n')


def test_roundtrip_swap_test():
    circuit = parse(SWAP_TEST_QASM)
    again = parse(serialize(circuit))
    assert circuits_equal(circuit, again)


def test_roundtrip_angle_formatting():
    circuit = build(1, 0, [(GateKind.U, (0,), (math.pi / 2, math.pi / 2, -math.pi / 2))])
    text = serialize(circuit)
    assert "u(pi/2,pi/2,-pi/2) q[0];" in text
    assert circuits_equal(parse(text), circuit)


def test_roundtrip_register_wide_barrier_measurements_and_parameters():
    circuit = parse("""OPENQASM 2.0;
include "qelib1.inc";
qreg a[2];
qreg b[1];
creg ca[2];
creg cb[1];
h a[0];
rz(pi/4) a[1];
u(0.1,-pi/2,3*pi/8) b[0];
barrier a;
cu1(1.25) a[0],b[0];
barrier a[1],b;
measure a -> ca;
measure b[0] -> cb[0];
""")
    text = serialize(circuit)
    for line in ("barrier q[0],q[1];", "barrier q[1],q[2];", "rz(pi/4) q[1];",
                 "u(0.1,-pi/2,3*pi/8) q[2];", "cu1(1.25) q[0],q[2];",
                 "measure q[1] -> c[1];", "measure q[2] -> c[2];"):
        assert line in text.splitlines()
    assert parse(text) == circuit
    assert serialize(parse(text)) == text


def test_roundtrip_random_circuits():
    rng = np.random.default_rng(7)
    for _ in range(25):
        circuit = random_circuit(rng, with_measure=bool(rng.integers(2)))
        again = parse(serialize(circuit))
        assert circuits_equal(circuit, again, angle_tol=1e-12)
        assert validate(again) == []


def test_serialize_rejects_probes():
    from qcover.probes import instrument
    from qcover.transpiler import transpile

    probed = instrument(transpile(parse(SWAP_TEST_QASM)))
    with pytest.raises(SerializationError, match="probes not serializable"):
        serialize(probed)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parser_total_on_fuzz(text):
    # every input must either parse or raise a QasmError diagnostic
    try:
        parse(text)
    except QasmError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="OPENQASM2.0;qregc[]hxu(),->pibarier \n", max_size=200))
def test_parser_total_on_structured_fuzz(text):
    try:
        parse(text)
    except QasmError:
        pass


_EXPR_TOKENS = (*"0123456789", ".", "e", "+", "-", "*", "/", "^", "(", ")",
                "pi", "sin", "cos", "tan", "exp", "ln", "sqrt")
_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")

# well-formed expressions over the same tokens, so that large literals,
# exp() of them and products of them come up often; and free token strings
_NUMBER = st.builds("{}{}{}".format, st.integers(0, 9999),
                    st.sampled_from(("", ".", ".5")),
                    st.one_of(st.just(""), st.integers(0, 999).map("e{}".format)))
_WELL_FORMED = st.recursive(
    st.one_of(_NUMBER, st.just("pi")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map("".join),
        st.tuples(st.sampled_from(_FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda e: f"-({e})"),
    ),
    max_leaves=6)
_TOKEN_SOUP = st.lists(st.sampled_from(_EXPR_TOKENS), min_size=1, max_size=24).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_WELL_FORMED, _TOKEN_SOUP))
def test_parameter_expression_fuzz_is_a_diagnostic_or_finite(expr):
    # overflow, inf and nan must surface as diagnostics, never as values
    try:
        circuit = parse(f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n")
    except QasmError:
        return
    assert all(math.isfinite(v) for i in circuit.instructions for v in i.params)


def test_successful_parse_builds_no_span(monkeypatch):
    # spans exist only for diagnostics
    def no_span(*args):
        raise AssertionError("a successful parse built a SourceSpan")

    monkeypatch.setattr(qasm, "SourceSpan", no_span)
    for path in sorted(CORPUS.glob("*.qasm")):
        parse_file(str(path))


def test_non_ascii_decimal_digits_are_numbers():
    # \d matches any decimal digit, so these lex as numbers, as in the oracle
    source = 'OPENQASM 2.0;\nqreg q[\u0663];\nrx(\u0661) q[0];\nrz(\u0661.\u0665) q[2];\n'
    assert qasm._tokenize(source, "m.qasm") == [
        t.text for t in lexer_oracle.tokenize(source, "m.qasm")]
    circuit = parse(source)
    assert circuit.num_qubits == 3
    assert [i.params for i in circuit.instructions] == [(1.0,), (1.5,)]


def _mutated_corpus_sources(seed: int, count: int):
    """Corpus files with a few characters inserted, deleted or replaced."""
    rng = np.random.default_rng(seed)
    sources = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.qasm"))]
    alphabet = ' \t\r\n/"@$.eE-+>;,[](){}0123456789xq\u00a0\u00e9'
    for _ in range(count):
        chars = list(sources[rng.integers(len(sources))])
        for _ in range(rng.integers(1, 6)):
            i = int(rng.integers(len(chars)))
            new = alphabet[rng.integers(len(alphabet))]
            op = rng.integers(3)
            if op == 0:
                chars.insert(i, new)
            elif op == 1:
                del chars[i]
            else:
                chars[i] = new
        yield "".join(chars)


def _lex_outcome(tokenize, source: str):
    try:
        return tokenize(source)
    except QasmError as exc:
        return str(exc), exc.span


def _kind_read(text: str) -> str:
    """The kind the parser reads a token as, from its text alone."""
    for kind in ("id", "int", "string", "arrow"):
        if qasm._KIND[kind](text):
            return kind.upper()
    if not text:
        return "EOF"
    return "REAL" if qasm._KIND["number"](text) else "SYM"


def test_lexer_matches_oracle():
    # the one-pass lexer gives the oracle's tokens, the parser reads each as
    # the oracle's kind, and the offsets of the scan that diagnostics make
    # again give the oracle's lines and columns
    def oracle(source):
        return [(t.type, t.text, t.line, t.col)
                for t in lexer_oracle.tokenize(source, "m.qasm")]

    def one_pass(source):
        tokens = qasm._tokenize(source, "m.qasm")
        offsets = [m.start(1) for m in qasm._TOKEN_RE.finditer(source)]
        return [(_kind_read(text), text, source.count("\n", 0, pos) + 1,
                 pos - source.rfind("\n", 0, pos))
                for text, pos in zip(tokens, offsets)]

    failures = 0
    for source in _mutated_corpus_sources(seed=11, count=600):
        want = _lex_outcome(oracle, source)
        assert _lex_outcome(one_pass, source) == want, source
        failures += isinstance(want, tuple)
    assert 0 < failures < 600


_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'


def test_barrier_rejects_a_repeated_operand():
    for stmt in ("barrier q[0], q[0];", "barrier q, q[1];"):
        with pytest.raises(QasmError, match="duplicate qubit operand in barrier") as info:
            parse(_HEADER + stmt + "\n", "b.qasm")
        assert (info.value.span.line, info.value.span.col_start) == (4, 1)
    assert len(parse(_HEADER + "barrier q[1], q[0];\n").instructions) == 1


def test_gate_rejects_a_repeated_qubit_argument():
    # both operands would bind to one name, and q[0] would be dropped
    with pytest.raises(QasmError, match="duplicate qubit argument 'a' in gate 'g'") as info:
        parse(_HEADER + "gate g a, a { x a; }\ng q[0], q[1];\n", "g.qasm")
    assert (info.value.span.line, info.value.span.col_start) == (4, 11)


def test_gate_rejects_a_repeated_parameter():
    # rz(t) would take whichever value was bound to t last
    with pytest.raises(QasmError, match="duplicate parameter 't' in gate 'g'") as info:
        parse(_HEADER + "gate g(t, t) a { rz(t) a; }\ng(1, 2) q[0];\n", "g.qasm")
    assert (info.value.span.line, info.value.span.col_start) == (4, 11)


def test_every_circuit_parse_accepts_passes_validate():
    # the CLI loads a file with parse alone: whatever parse accepts must
    # already meet every check of ir.validate
    from test_frozen_diagnostics import CASES
    sources = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.qasm"))]
    sources += [source for source, _, _ in CASES.values()]
    sources += list(_mutated_corpus_sources(11, 300))
    # a repeated barrier operand, alone and through a whole register
    sources += [_HEADER + stmt for stmt in ("barrier q[0], q[0];\n",
                                             "barrier q, q[1];\n", "barrier q[1], q;\n")]
    accepted = 0
    for source in sources:
        try:
            circuit = parse(source)
        except QasmError:
            continue
        accepted += 1
        assert validate(circuit) == [], source
    assert accepted > len(list(CORPUS.glob("*.qasm")))
    rng = np.random.default_rng(20)
    for _ in range(500):
        circuit = random_circuit(rng, with_measure=bool(rng.integers(2)))
        assert validate(parse(serialize(circuit))) == []
