"""
OpenQASM 2.0 frontend: text -> Circuit and Circuit -> text.

The parser is a hand-rolled lexer + recursive descent over the OpenQASM 2.0
grammar, restricted to the gate vocabulary in ir.GateKind:

    program   := "OPENQASM" real ";" include? statement*
    include   := "include" string ";"
    statement := regdecl | gatedecl | qop | "barrier" anylist ";"
    regdecl   := ("qreg" | "creg") id "[" nnint "]" ";"
    gatedecl  := "gate" id ("(" idlist? ")")? idlist "{" bodyop* "}"
    qop       := uop | "measure" argument "->" argument ";"
    uop       := id ("(" explist ")")? anylist ";"
    argument  := id | id "[" nnint "]"
    exp       := additive expression over reals, ints, "pi", parameters,
                 + - * / ^, unary -, and sin/cos/tan/exp/ln/sqrt

The lexer makes one pass over the text.  A token is (type, text, pos), pos
being its offset in the source; a diagnostic's line and column are computed
from that offset when the QasmError is built, so a parse that succeeds
builds no SourceSpan.

User-defined `gate` bodies are inlined at call time with parameters folded to
64-bit floats.  A body may call only builtins and gates declared before it,
so no gate can call itself.  Registers map to flat qubit/clbit index spaces
in declaration order.  `opaque`, `reset`, and `if` are rejected with
diagnostics, as is any non-2.0 version header.

Aliases accepted for compatibility with older emitters: U -> u, CX -> cx,
u1 -> p, u3 -> u, u2(phi,lam) -> u(pi/2, phi, lam).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .ir import Circuit, GateInstruction, GateKind, Instruction, SPECS


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token or construct in the source text."""

    file: str
    line: int
    col_start: int
    col_end: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col_start}"


class QasmError(Exception):
    """Any diagnostic produced while parsing OpenQASM source."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.message = message
        self.span = span
        super().__init__(f"{span}: {message}" if span else message)


class SerializationError(Exception):
    pass


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<SKIP>     [ \t\r\n]+ | //[^\n]*)
    | (?P<REAL>     (\d+\.\d*|\.\d+)([eE][+-]?\d+)? | \d+[eE][+-]?\d+)
    | (?P<INT>      \d+)
    | (?P<ID>       [a-zA-Z_][a-zA-Z0-9_]*)
    | (?P<STRING>   "[^"\n]*")
    | (?P<ARROW>    ->)
    | (?P<SYM>      [{}\[\]();,+\-*/^=<>!])
    | (?P<BAD>      [\s\S])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    type: str
    text: str
    pos: int  # offset of the token's first character in the source


def _error(source: str, filename: str, message: str, tok: _Token) -> QasmError:
    """A diagnostic at tok, with its line and column found from tok.pos."""
    line_start = source.rfind("\n", 0, tok.pos)  # -1 on the first line
    col = tok.pos - line_start
    span = SourceSpan(filename, source.count("\n", 0, tok.pos) + 1,
                      col, col + max(len(tok.text), 1))
    return QasmError(message, span)


def _tokenize(source: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        tok = _Token(kind, m.group(), m.start())
        if kind == "BAD":
            raise _error(source, filename, f"unexpected character {tok.text!r}", tok)
        tokens.append(tok)
    tokens.append(_Token("EOF", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parameter expressions
# ---------------------------------------------------------------------------

_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
}


@dataclass(frozen=True)
class _Reg:
    name: str
    size: int
    offset: int
    is_qreg: bool


@dataclass(frozen=True)
class _GateDef:
    name: str
    params: tuple[str, ...]
    qargs: tuple[str, ...]
    # body ops hold unevaluated parameter ASTs so angles fold per call site
    body: tuple[tuple[str, tuple["_Expr", ...], tuple[str, ...], _Token], ...]


_Expr = tuple  # small AST tuples: ("num", v) ("param", name) ("bin", op, l, r) ...


class _Parser:
    def __init__(self, source: str, filename: str):
        self.source = source
        self.filename = filename
        self.tokens = _tokenize(source, filename)
        self.pos = 0
        self.qregs: dict[str, _Reg] = {}
        self.cregs: dict[str, _Reg] = {}
        self.gate_defs: dict[str, _GateDef] = {}
        self.instructions: list[Instruction] = []
        self.num_qubits = 0
        self.num_clbits = 0
        self.next_id = 0

    # -- token helpers ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> QasmError:
        return _error(self.source, self.filename, message, tok or self.peek())

    def expect(self, type_: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.type != type_ or (text is not None and tok.text != text):
            want = text or type_.lower()
            raise self.error(f"expected {want!r}, found {tok.text!r}")
        return self.advance()

    def accept(self, type_: str, text: str | None = None) -> _Token | None:
        tok = self.peek()
        if tok.type == type_ and (text is None or tok.text == text):
            return self.advance()
        return None

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Circuit:
        tok = self.expect("ID", "OPENQASM")
        ver = self.peek()
        if ver.type not in ("REAL", "INT"):
            raise self.error("expected version number after OPENQASM")
        self.advance()
        if ver.text != "2.0":
            raise self.error(
                f"unsupported OpenQASM version {ver.text}; only 2.0 is accepted", ver)
        self.expect("SYM", ";")

        while self.peek().type != "EOF":
            self.statement()

        return Circuit(self.num_qubits, self.num_clbits, tuple(self.instructions))

    def statement(self) -> None:
        tok = self.peek()
        if tok.type != "ID":
            raise self.error(f"expected statement, found {tok.text!r}")
        word = tok.text
        if word == "include":
            self.include()
        elif word in ("qreg", "creg"):
            self.regdecl()
        elif word == "gate":
            self.gatedecl()
        elif word == "opaque":
            raise self.error("opaque gates are not supported")
        elif word == "reset":
            raise self.error("unsupported gate 'reset'")
        elif word == "if":
            raise self.error("classical control flow ('if') is not supported")
        elif word == "measure":
            self.measure()
        elif word == "barrier":
            self.barrier()
        else:
            self.uop()

    def include(self) -> None:
        self.advance()
        tok = self.expect("STRING")
        if tok.text != '"qelib1.inc"':
            raise self.error(f"unsupported include {tok.text}; only \"qelib1.inc\"", tok)
        self.expect("SYM", ";")

    def regdecl(self) -> None:
        kw = self.advance()
        name_tok = self.expect("ID")
        name = name_tok.text
        if name in self.qregs or name in self.cregs:
            raise self.error(f"register {name!r} already declared", name_tok)
        self.expect("SYM", "[")
        size_tok = self.expect("INT")
        size = int(size_tok.text)
        if size < 1:
            raise self.error("register size must be positive", size_tok)
        self.expect("SYM", "]")
        self.expect("SYM", ";")
        if kw.text == "qreg":
            self.qregs[name] = _Reg(name, size, self.num_qubits, True)
            self.num_qubits += size
        else:
            self.cregs[name] = _Reg(name, size, self.num_clbits, False)
            self.num_clbits += size

    def gatedecl(self) -> None:
        self.advance()
        name_tok = self.expect("ID")
        name = name_tok.text
        params: list[str] = []
        if self.accept("SYM", "("):
            if not self.accept("SYM", ")"):
                params.append(self.expect("ID").text)
                while self.accept("SYM", ","):
                    params.append(self.expect("ID").text)
                self.expect("SYM", ")")
        qargs = [self.expect("ID").text]
        while self.accept("SYM", ","):
            qargs.append(self.expect("ID").text)
        self.expect("SYM", "{")
        body: list[tuple[str, tuple, tuple[str, ...], _Token]] = []
        while not self.accept("SYM", "}"):
            op_tok = self.expect("ID")
            if op_tok.text == "barrier":
                # barriers inside gate bodies are dropped (no circuit effect)
                while not self.accept("SYM", ";"):
                    if self.peek().type == "EOF":
                        self.expect("SYM", ";")  # raises: the input ended
                    self.advance()
                continue
            # OpenQASM 2.0 bodies call only builtins and earlier gates, which
            # also rules out recursion through the gate being declared
            if not self.is_gate(op_tok.text):
                raise self.error(f"gate body calls {op_tok.text!r}, which is not a "
                                 "builtin or previously defined gate", op_tok)
            op_params: list = []
            if self.accept("SYM", "("):
                if not self.accept("SYM", ")"):
                    op_params.append(self.expr_ast(params))
                    while self.accept("SYM", ","):
                        op_params.append(self.expr_ast(params))
                    self.expect("SYM", ")")
            op_qargs = [self.expect("ID").text]
            while self.accept("SYM", ","):
                op_qargs.append(self.expect("ID").text)
            self.expect("SYM", ";")
            for qa in op_qargs:
                if qa not in qargs:
                    raise self.error(f"unknown qubit argument {qa!r} in gate body", op_tok)
            body.append((op_tok.text, tuple(op_params), tuple(op_qargs), op_tok))
        if name in self.gate_defs:
            raise self.error(f"gate {name!r} already defined", name_tok)
        self.gate_defs[name] = _GateDef(name, tuple(params), tuple(qargs), tuple(body))

    def is_gate(self, name: str) -> bool:
        """Whether apply_single accepts this name (operand counts aside)."""
        if name in self._ALIASES or name in self.gate_defs:
            return True
        try:
            return GateKind(name) not in (GateKind.MEASURE, GateKind.BARRIER)
        except ValueError:
            return False

    # -- expressions ------------------------------------------------------

    def expr_ast(self, param_names: list[str] | tuple[str, ...]) -> _Expr:
        return self._additive(param_names)

    def _additive(self, pn) -> _Expr:
        node = self._multiplicative(pn)
        while True:
            if self.accept("SYM", "+"):
                node = ("bin", "+", node, self._multiplicative(pn))
            elif self.accept("SYM", "-"):
                node = ("bin", "-", node, self._multiplicative(pn))
            else:
                return node

    def _multiplicative(self, pn) -> _Expr:
        node = self._unary(pn)
        while True:
            if self.accept("SYM", "*"):
                node = ("bin", "*", node, self._unary(pn))
            elif self.accept("SYM", "/"):
                node = ("bin", "/", node, self._unary(pn))
            else:
                return node

    def _unary(self, pn) -> _Expr:
        if self.accept("SYM", "-"):
            return ("neg", self._unary(pn))
        if self.accept("SYM", "+"):
            return self._unary(pn)
        return self._power(pn)

    def _power(self, pn) -> _Expr:
        node = self._atom(pn)
        if self.accept("SYM", "^"):
            return ("bin", "^", node, self._unary(pn))
        return node

    def _atom(self, pn) -> _Expr:
        tok = self.peek()
        if tok.type in ("REAL", "INT"):
            self.advance()
            return ("num", float(tok.text))
        if tok.type == "ID":
            self.advance()
            if tok.text == "pi":
                return ("num", math.pi)
            if tok.text in _FUNCS:
                self.expect("SYM", "(")
                arg = self.expr_ast(pn)
                self.expect("SYM", ")")
                return ("fun", tok.text, arg)
            if tok.text in pn:
                return ("param", tok.text)
            raise self.error(f"unknown identifier {tok.text!r} in expression", tok)
        if self.accept("SYM", "("):
            node = self.expr_ast(pn)
            self.expect("SYM", ")")
            return node
        raise self.error(f"expected expression, found {tok.text!r}", tok)

    def eval_expr(self, node: _Expr, env: dict[str, float], tok: _Token) -> float:
        tag = node[0]
        if tag == "num":
            return node[1]
        if tag == "param":
            return env[node[1]]
        if tag == "neg":
            return -self.eval_expr(node[1], env, tok)
        if tag == "fun":
            try:
                return _FUNCS[node[1]](self.eval_expr(node[2], env, tok))
            except (ValueError, OverflowError) as exc:
                raise self.error(f"math error in parameter: {exc}", tok) from None
        _, op, left, right = node
        a = self.eval_expr(left, env, tok)
        b = self.eval_expr(right, env, tok)
        try:
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0.0:
                    raise self.error("division by zero in parameter", tok)
                return a / b
            value = a ** b
            if isinstance(value, complex):  # negative base, fractional power
                raise self.error("parameter expression is not real", tok)
            return value
        except (OverflowError, ZeroDivisionError) as exc:
            raise self.error(f"math error in parameter: {exc}", tok) from None

    # -- quantum operations -----------------------------------------------

    def argument(self, want_qreg: bool) -> list[int]:
        """Resolve `reg` or `reg[i]` to a list of flat indices."""
        name_tok = self.expect("ID")
        regs = self.qregs if want_qreg else self.cregs
        reg = regs.get(name_tok.text)
        if reg is None:
            what = "quantum" if want_qreg else "classical"
            raise self.error(f"undeclared {what} register {name_tok.text!r}", name_tok)
        if self.accept("SYM", "["):
            idx_tok = self.expect("INT")
            idx = int(idx_tok.text)
            if idx >= reg.size:
                raise self.error(
                    f"index {idx} out of range for {reg.name}[{reg.size}]", idx_tok)
            self.expect("SYM", "]")
            return [reg.offset + idx]
        return [reg.offset + i for i in range(reg.size)]

    def measure(self) -> None:
        tok = self.advance()
        src = self.argument(want_qreg=True)
        self.expect("ARROW")
        dst = self.argument(want_qreg=False)
        self.expect("SYM", ";")
        if len(src) != len(dst):
            raise self.error("measure arguments have mismatched sizes", tok)
        for q, c in zip(src, dst):
            self.emit(GateKind.MEASURE, (), (q,), (c,), tok)

    def barrier(self) -> None:
        tok = self.advance()
        qubits = self.argument(want_qreg=True)
        while self.accept("SYM", ","):
            qubits.extend(self.argument(want_qreg=True))
        self.expect("SYM", ";")
        self.emit(GateKind.BARRIER, (), tuple(qubits), (), tok)

    _ALIASES = {"U": ("u", 3), "CX": ("cx", 0), "u1": ("p", 1),
                "u2": ("u2", 2), "u3": ("u", 3)}

    def uop(self) -> None:
        name_tok = self.advance()
        name = name_tok.text
        params: list[float] = []
        if self.accept("SYM", "("):
            if not self.accept("SYM", ")"):
                params.append(self.eval_expr(self.expr_ast(()), {}, name_tok))
                while self.accept("SYM", ","):
                    params.append(self.eval_expr(self.expr_ast(()), {}, name_tok))
                self.expect("SYM", ")")
        args = [self.argument(want_qreg=True)]
        while self.accept("SYM", ","):
            args.append(self.argument(want_qreg=True))
        self.expect("SYM", ";")
        self.apply_named(name, params, args, name_tok)

    def apply_named(self, name: str, params: list[float],
                    args: list[list[int]], tok: _Token) -> None:
        """Apply a gate by name to (possibly register-wide) argument lists."""
        # OpenQASM broadcast rule: whole registers must share one length and
        # single qubits repeat across it.
        length = 1
        for a in args:
            if len(a) > 1:
                if length not in (1, len(a)):
                    raise self.error("mismatched register sizes in gate operands", tok)
                length = len(a)
        for i in range(length):
            operands = tuple(a[i] if len(a) > 1 else a[0] for a in args)
            self.apply_single(name, params, operands, tok)

    def apply_single(self, name: str, params: list[float],
                     qubits: tuple[int, ...], tok: _Token) -> None:
        if name in self._ALIASES:
            target, nparams = self._ALIASES[name]
            if len(params) != nparams:
                raise self.error(
                    f"{name} takes {nparams} parameter(s), got {len(params)}", tok)
            if target == "u2":
                self.apply_single("u", [math.pi / 2, params[0], params[1]], qubits, tok)
            else:
                self.apply_single(target, params, qubits, tok)
            return
        if name in self.gate_defs:
            self.inline_call(self.gate_defs[name], params, qubits, tok)
            return
        try:
            kind = GateKind(name)
        except ValueError:
            raise self.error(f"unsupported gate {name!r}", tok) from None
        if kind in (GateKind.MEASURE, GateKind.BARRIER):
            raise self.error(f"unsupported gate {name!r}", tok)
        spec = SPECS[kind]
        if len(params) != spec.num_params:
            raise self.error(
                f"{name} takes {spec.num_params} parameter(s), got {len(params)}", tok)
        if len(qubits) != spec.num_qubits:
            raise self.error(
                f"{name} takes {spec.num_qubits} qubit(s), got {len(qubits)}", tok)
        if len(set(qubits)) != len(qubits):
            raise self.error(f"duplicate qubit operand in {name}", tok)
        self.emit(kind, tuple(params), qubits, (), tok)

    def inline_call(self, gd: _GateDef, params: list[float],
                    qubits: tuple[int, ...], tok: _Token) -> None:
        if len(params) != len(gd.params):
            raise self.error(
                f"{gd.name} takes {len(gd.params)} parameter(s), got {len(params)}", tok)
        if len(qubits) != len(gd.qargs):
            raise self.error(
                f"{gd.name} takes {len(gd.qargs)} qubit(s), got {len(qubits)}", tok)
        env = dict(zip(gd.params, params))
        qmap = dict(zip(gd.qargs, qubits))
        for op_name, op_params, op_qargs, op_tok in gd.body:
            values = [self.eval_expr(ast, env, op_tok) for ast in op_params]
            operands = tuple(qmap[qa] for qa in op_qargs)
            self.apply_single(op_name, values, operands, op_tok)

    def emit(self, kind: GateKind, params: tuple[float, ...],
             qubits: tuple[int, ...], clbits: tuple[int, ...],
             tok: _Token) -> None:
        # the one check for every call: top-level, alias or inlined body
        for value in params:
            if not math.isfinite(value):
                raise self.error(f"{tok.text} parameter {value!r} is not finite", tok)
        try:
            instr = GateInstruction(self.next_id, kind, qubits, params, clbits)
        except ValueError as exc:
            raise self.error(str(exc), tok) from None
        self.instructions.append(instr)
        self.next_id += 1


def parse(source: str, filename: str = "<input>") -> Circuit:
    """Parse OpenQASM 2.0 source into a Circuit.

    Raises QasmError with a SourceSpan for any syntax problem, unsupported
    gate, parameter that is not a finite real, nesting too deep for the
    recursive descent, or non-2.0 version header; never raises anything
    else on text input.
    """
    parser = _Parser(source, filename)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error("expression or gate calls nest too deeply") from None


def parse_file(path: str) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read(), filename=path)


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

def _format_angle(value: float) -> str:
    """Render an angle, preferring exact small fractions of pi."""
    if not math.isfinite(value):
        raise SerializationError(f"parameter {value!r} has no OpenQASM form")
    if value == 0.0:
        return "0"
    for den in (1, 2, 4, 3, 8, 6, 16, 32):
        num = value * den / math.pi
        rounded = round(num)
        if rounded != 0 and abs(num - rounded) < 1e-12:
            # must re-evaluate exactly like the parser: (num*pi)/den
            if abs((rounded * math.pi) / den - value) < 1e-12:
                mag = f"pi" if abs(rounded) == 1 else f"{abs(rounded)}*pi"
                if den != 1:
                    mag += f"/{den}"
                return ("-" if rounded < 0 else "") + mag
    return repr(value)


def serialize(circuit: Circuit) -> str:
    """Emit OpenQASM 2.0 that parses back to an identical circuit.

    Probes are simulator directives with no QASM form; circuits containing
    them, or a parameter that is inf or nan, are rejected.
    """
    if circuit.has_probes():
        raise SerializationError("probes not serializable")
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    if circuit.num_qubits:
        lines.append(f"qreg q[{circuit.num_qubits}];")
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for instr in circuit.instructions:
        if instr.kind is GateKind.MEASURE:
            lines.append(f"measure q[{instr.qubits[0]}] -> c[{instr.clbits[0]}];")
            continue
        if instr.kind is GateKind.BARRIER:
            operands = ",".join(f"q[{q}]" for q in instr.qubits)
            lines.append(f"barrier {operands};")
            continue
        name = instr.kind.value
        if instr.params:
            name += "(" + ",".join(_format_angle(v) for v in instr.params) + ")"
        operands = ",".join(f"q[{q}]" for q in instr.qubits)
        lines.append(f"{name} {operands};")
    return "\n".join(lines) + "\n"
