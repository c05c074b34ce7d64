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

The lexer is one regex scan (findall) that keeps each token as its text;
the parser reads a token's kind from its text.  A diagnostic names a token
by its index, and its line and column come from scanning again up to that
token when the QasmError is built, so a parse that succeeds builds no
SourceSpan and keeps no offsets.

User-defined `gate` bodies are inlined at call time with parameters folded to
64-bit floats.  A body may call only builtins and gates declared before it,
so no gate can call itself.  Registers map to flat qubit/clbit index spaces
in declaration order.  `opaque`, `reset`, and `if` are rejected with
diagnostics, as is any non-2.0 version header.

Aliases accepted for compatibility with older emitters: U -> u, CX -> cx,
u1 -> p, u3 -> u, u2(phi,lam) -> u(pi/2, phi, lam).
"""
from __future__ import annotations

import itertools
import math
import re
from collections.abc import Callable
from dataclasses import dataclass

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

# every token but an unexpected character: real, int, id, string, arrow, symbol
_GOOD = (r"""(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+"""
         r"""|[a-zA-Z_][a-zA-Z0-9_]*|"[^"\n]*"|->|[{}\[\]();,+\-*/^=<>!]""")
# whitespace and comments, then one token: a good one, any other character
# (an error), or "" at the end of the source
_TOKEN_RE = re.compile(rf"(?:[ \t\r\n]+|//[^\n]*)*({_GOOD}|[\s\S]|\Z)")
_GOOD_RE = re.compile(_GOOD)

# token kinds a parser step can ask for by name; a good token's text tells it
# (a number starts with "." or with any decimal digit, all of which \d takes)
_KIND = {"id": str.isidentifier, "int": str.isdigit,
         "number": lambda tok: tok[:1].isdecimal() or tok[:1] == ".",
         "string": lambda tok: tok.startswith('"'), "arrow": "->".__eq__}


def _error(source: str, filename: str, message: str, tokens: list[str],
           at: int) -> QasmError:
    """A diagnostic at token `at`, placed by scanning the source again up to it."""
    pos = next(itertools.islice(_TOKEN_RE.finditer(source), at, None)).start(1)
    line_start = source.rfind("\n", 0, pos)  # -1 on the first line
    col = pos - line_start
    span = SourceSpan(filename, source.count("\n", 0, pos) + 1,
                      col, col + max(len(tokens[at]), 1))
    return QasmError(message, span)


def _tokenize(source: str, filename: str) -> list[str]:
    """The source's tokens, each as its text, the last "" (the end)."""
    tokens = _TOKEN_RE.findall(source)
    if len(tokens) > 1 and not tokens[-2]:
        del tokens[-1]  # trailing whitespace ended in "", then the end matched
    # an unexpected character is a one-character token that is not a good one
    bad = [tok for tok in set(tokens) if len(tok) == 1 and not _GOOD_RE.fullmatch(tok)]
    if bad:
        at = min(map(tokens.index, bad))
        raise _error(source, filename, f"unexpected character {tokens[at]!r}",
                     tokens, at)
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


@dataclass(frozen=True)
class _GateDef:
    name: str
    params: tuple[str, ...]
    qargs: tuple[str, ...]
    # body ops hold unevaluated parameter ASTs so angles fold per call site,
    # and the index of the op's name token for diagnostics
    body: tuple[tuple[str, tuple["_Expr", ...], tuple[str, ...], int], ...]


_Expr = tuple  # small AST tuples: ("num", v) ("param", name) ("bin", op, l, r) ...

# gate names that map straight to a kind
_GATES = {kind.value: kind for kind in GateKind
          if kind not in (GateKind.MEASURE, GateKind.BARRIER)}


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

    # -- token helpers: a token is its text, and a diagnostic names a token
    # -- by its index ("at"), the current one by default -----------------

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        if tok:  # the end stays put
            self.pos += 1
        return tok

    def error(self, message: str, at: int | None = None) -> QasmError:
        return _error(self.source, self.filename, message, self.tokens,
                      self.pos if at is None else at)

    def expect(self, text: str) -> str:
        tok = self.tokens[self.pos]
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok!r}")
        self.pos += 1
        return tok

    def expect_a(self, kind: str) -> str:
        """The current token if it is of this _KIND."""
        tok = self.tokens[self.pos]
        if not _KIND[kind](tok):
            raise self.error(f"expected {kind!r}, found {tok!r}")
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Circuit:
        self.expect("OPENQASM")
        at = self.pos
        ver = self.advance()
        if not _KIND["number"](ver):
            raise self.error("expected version number after OPENQASM", at)
        if ver != "2.0":
            raise self.error(
                f"unsupported OpenQASM version {ver}; only 2.0 is accepted", at)
        self.expect(";")

        while self.tokens[self.pos]:
            self.statement()

        return Circuit(self.num_qubits, self.num_clbits, tuple(self.instructions))

    def statement(self) -> None:
        word = self.tokens[self.pos]
        if not word.isidentifier():
            raise self.error(f"expected statement, found {word!r}")
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
        tok = self.expect_a("string")
        if tok != '"qelib1.inc"':
            raise self.error(f"unsupported include {tok}; only \"qelib1.inc\"",
                             self.pos - 1)
        self.expect(";")

    def regdecl(self) -> None:
        kw = self.advance()
        name_at = self.pos
        name = self.expect_a("id")
        if name in self.qregs or name in self.cregs:
            raise self.error(f"register {name!r} already declared", name_at)
        self.expect("[")
        size = int(self.expect_a("int"))
        if size < 1:
            raise self.error("register size must be positive", self.pos - 1)
        self.expect("]")
        self.expect(";")
        if kw == "qreg":
            self.qregs[name] = _Reg(name, size, self.num_qubits)
            self.num_qubits += size
        else:
            self.cregs[name] = _Reg(name, size, self.num_clbits)
            self.num_clbits += size

    def gatedecl(self) -> None:
        self.advance()
        name_at = self.pos
        name = self.expect_a("id")
        params: list[str] = []
        if self.accept("(") and not self.accept(")"):
            params = self.formals("parameter", name)
            self.expect(")")
        qargs = self.formals("qubit argument", name)
        self.expect("{")
        body: list[tuple[str, tuple, tuple[str, ...], int]] = []
        while not self.accept("}"):
            op_at = self.pos
            op = self.expect_a("id")
            if op == "barrier":
                # barriers inside gate bodies are dropped (no circuit effect)
                while not self.accept(";"):
                    if not self.tokens[self.pos]:
                        self.expect(";")  # raises: the input ended
                    self.advance()
                continue
            # OpenQASM 2.0 bodies call only builtins and earlier gates, which
            # also rules out recursion through the gate being declared
            if not (op in self._ALIASES or op in self.gate_defs or op in _GATES):
                raise self.error(f"gate body calls {op!r}, which is not a "
                                 "builtin or previously defined gate", op_at)
            op_params: list = []
            if self.accept("("):
                if not self.accept(")"):
                    op_params.append(self.expr_ast(params))
                    while self.accept(","):
                        op_params.append(self.expr_ast(params))
                    self.expect(")")
            op_qargs = [self.expect_a("id")]
            while self.accept(","):
                op_qargs.append(self.expect_a("id"))
            self.expect(";")
            for qa in op_qargs:
                if qa not in qargs:
                    raise self.error(f"unknown qubit argument {qa!r} in gate body", op_at)
            body.append((op, tuple(op_params), tuple(op_qargs), op_at))
        if name in self.gate_defs:
            raise self.error(f"gate {name!r} already defined", name_at)
        self.gate_defs[name] = _GateDef(name, tuple(params), tuple(qargs), tuple(body))

    def formals(self, what: str, gate: str) -> list[str]:
        """The comma-separated names a gate declares, each at most once."""
        names = [self.expect_a("id")]
        while self.accept(","):
            if self.tokens[self.pos] in names:
                raise self.error(f"duplicate {what} {self.tokens[self.pos]!r} in gate {gate!r}")
            names.append(self.expect_a("id"))
        return names

    # -- expressions ------------------------------------------------------

    def expr_ast(self, pn: list[str] | tuple[str, ...]) -> _Expr:
        """An additive expression over the parameter names pn."""
        node = self._multiplicative(pn)
        while True:
            if self.accept("+"):
                node = ("bin", "+", node, self._multiplicative(pn))
            elif self.accept("-"):
                node = ("bin", "-", node, self._multiplicative(pn))
            else:
                return node

    def _multiplicative(self, pn) -> _Expr:
        node = self._unary(pn)
        while True:
            if self.accept("*"):
                node = ("bin", "*", node, self._unary(pn))
            elif self.accept("/"):
                node = ("bin", "/", node, self._unary(pn))
            else:
                return node

    def _unary(self, pn) -> _Expr:
        if self.accept("-"):
            return ("neg", self._unary(pn))
        if self.accept("+"):
            return self._unary(pn)
        return self._power(pn)

    def _power(self, pn) -> _Expr:
        node = self._atom(pn)
        if self.accept("^"):
            return ("bin", "^", node, self._unary(pn))
        return node

    def _atom(self, pn) -> _Expr:
        at = self.pos
        tok = self.tokens[at]
        if _KIND["number"](tok):
            self.pos += 1
            return ("num", float(tok))
        if tok.isidentifier():
            self.pos += 1
            if tok == "pi":
                return ("num", math.pi)
            if tok in _FUNCS:
                self.expect("(")
                arg = self.expr_ast(pn)
                self.expect(")")
                return ("fun", tok, arg)
            if tok in pn:
                return ("param", tok)
            raise self.error(f"unknown identifier {tok!r} in expression", at)
        if self.accept("("):
            node = self.expr_ast(pn)
            self.expect(")")
            return node
        raise self.error(f"expected expression, found {tok!r}")

    def eval_expr(self, node: _Expr, env: dict[str, float], at: int) -> float:
        tag = node[0]
        if tag == "num":
            return node[1]
        if tag == "param":
            return env[node[1]]
        if tag == "neg":
            return -self.eval_expr(node[1], env, at)
        if tag == "fun":
            try:
                return _FUNCS[node[1]](self.eval_expr(node[2], env, at))
            except (ValueError, OverflowError) as exc:
                raise self.error(f"math error in parameter: {exc}", at) from None
        _, op, left, right = node
        a = self.eval_expr(left, env, at)
        b = self.eval_expr(right, env, at)
        try:
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0.0:
                    raise self.error("division by zero in parameter", at)
                return a / b
            value = a ** b
            if isinstance(value, complex):  # negative base, fractional power
                raise self.error("parameter expression is not real", at)
            return value
        except (OverflowError, ZeroDivisionError) as exc:
            raise self.error(f"math error in parameter: {exc}", at) from None

    # -- quantum operations -----------------------------------------------

    def argument(self, want_qreg: bool) -> list[int]:
        """Resolve `reg` or `reg[i]` to a list of flat indices."""
        name_at = self.pos
        name = self.expect_a("id")
        reg = (self.qregs if want_qreg else self.cregs).get(name)
        if reg is None:
            what = "quantum" if want_qreg else "classical"
            raise self.error(f"undeclared {what} register {name!r}", name_at)
        if self.accept("["):
            idx = int(self.expect_a("int"))
            if idx >= reg.size:
                raise self.error(
                    f"index {idx} out of range for {reg.name}[{reg.size}]", self.pos - 1)
            self.expect("]")
            return [reg.offset + idx]
        return [reg.offset + i for i in range(reg.size)]

    def measure(self) -> None:
        at = self.pos
        self.advance()
        src = self.argument(want_qreg=True)
        self.expect_a("arrow")
        dst = self.argument(want_qreg=False)
        self.expect(";")
        if len(src) != len(dst):
            raise self.error("measure arguments have mismatched sizes", at)
        for q, c in zip(src, dst):
            self.emit(GateKind.MEASURE, (), (q,), (c,), at)

    def barrier(self) -> None:
        at = self.pos
        self.advance()
        qubits = self.argument(want_qreg=True)
        while self.accept(","):
            qubits.extend(self.argument(want_qreg=True))
        self.expect(";")
        if len(set(qubits)) != len(qubits):
            raise self.error("duplicate qubit operand in barrier", at)
        self.emit(GateKind.BARRIER, (), tuple(qubits), (), at)

    _ALIASES = {"U": ("u", 3), "CX": ("cx", 0), "u1": ("p", 1),
                "u2": ("u2", 2), "u3": ("u", 3)}

    def uop(self) -> None:
        at = self.pos
        name = self.advance()
        params: list[float] = []
        if self.accept("("):
            if not self.accept(")"):
                params.append(self.eval_expr(self.expr_ast(()), {}, at))
                while self.accept(","):
                    params.append(self.eval_expr(self.expr_ast(()), {}, at))
                self.expect(")")
        args = [self.argument(want_qreg=True)]
        while self.accept(","):
            args.append(self.argument(want_qreg=True))
        self.expect(";")
        self.apply_named(name, params, args, at)

    def apply_named(self, name: str, params: list[float],
                    args: list[list[int]], at: int) -> None:
        """Apply a gate by name to (possibly register-wide) argument lists."""
        # OpenQASM broadcast rule: whole registers must share one length and
        # single qubits repeat across it.
        length = 1
        for a in args:
            if len(a) > 1:
                if length not in (1, len(a)):
                    raise self.error("mismatched register sizes in gate operands", at)
                length = len(a)
        for i in range(length):
            operands = tuple(a[i] if len(a) > 1 else a[0] for a in args)
            self.apply_single(name, params, operands, at)

    def apply_single(self, name: str, params: list[float],
                     qubits: tuple[int, ...], at: int) -> None:
        if name in self._ALIASES:
            target, nparams = self._ALIASES[name]
            if len(params) != nparams:
                raise self.error(
                    f"{name} takes {nparams} parameter(s), got {len(params)}", at)
            if target == "u2":
                self.apply_single("u", [math.pi / 2, params[0], params[1]], qubits, at)
            else:
                self.apply_single(target, params, qubits, at)
            return
        if name in self.gate_defs:
            self.inline_call(self.gate_defs[name], params, qubits, at)
            return
        kind = _GATES.get(name)
        if kind is None:
            raise self.error(f"unsupported gate {name!r}", at)
        spec = SPECS[kind]
        if len(params) != spec.num_params:
            raise self.error(
                f"{name} takes {spec.num_params} parameter(s), got {len(params)}", at)
        if len(qubits) != spec.num_qubits:
            raise self.error(
                f"{name} takes {spec.num_qubits} qubit(s), got {len(qubits)}", at)
        if len(set(qubits)) != len(qubits):
            raise self.error(f"duplicate qubit operand in {name}", at)
        self.emit(kind, tuple(params), qubits, (), at)

    def inline_call(self, gd: _GateDef, params: list[float],
                    qubits: tuple[int, ...], at: int) -> None:
        if len(params) != len(gd.params):
            raise self.error(
                f"{gd.name} takes {len(gd.params)} parameter(s), got {len(params)}", at)
        if len(qubits) != len(gd.qargs):
            raise self.error(
                f"{gd.name} takes {len(gd.qargs)} qubit(s), got {len(qubits)}", at)
        env = dict(zip(gd.params, params))
        qmap = dict(zip(gd.qargs, qubits))
        for op_name, op_params, op_qargs, op_at in gd.body:
            values = [self.eval_expr(ast, env, op_at) for ast in op_params]
            operands = tuple(qmap[qa] for qa in op_qargs)
            self.apply_single(op_name, values, operands, op_at)

    def emit(self, kind: GateKind, params: tuple[float, ...],
             qubits: tuple[int, ...], clbits: tuple[int, ...], at: int) -> None:
        # the one check for every call: top-level, alias or inlined body
        for value in params:
            if not math.isfinite(value):
                raise self.error(
                    f"{self.tokens[at]} parameter {value!r} is not finite", at)
        try:
            instr = GateInstruction(self.next_id, kind, qubits, params, clbits)
        except ValueError as exc:
            raise self.error(str(exc), at) from None
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


def statement(instr: GateInstruction, angle: Callable[[float], str]) -> str:
    """A gate, barrier or measurement as one OpenQASM statement, each
    parameter spelled by angle."""
    if instr.kind is GateKind.MEASURE:
        return f"measure q[{instr.qubits[0]}] -> c[{instr.clbits[0]}];"
    name = instr.kind.value
    if instr.params:
        name += "(" + ",".join(map(angle, instr.params)) + ")"
    return f"{name} " + ",".join(f"q[{q}]" for q in instr.qubits) + ";"


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
    lines += [statement(instr, _format_angle) for instr in circuit.instructions]
    return "\n".join(lines) + "\n"
