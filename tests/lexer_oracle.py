"""Reference lexer: the character-counting tokenizer that `qcover.qasm`
used before tokens carried source offsets.

It matches one token at a time and keeps running line and column counters.
The differential test in `test_qasm.py` checks that the one-pass lexer
gives the same tokens, with line and column derived from each offset, and
the same diagnostics.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from qcover.qasm import QasmError, SourceSpan

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>       [ \t\r]+)
    | (?P<NEWLINE>  \n)
    | (?P<COMMENT>  //[^\n]*)
    | (?P<REAL>     (\d+\.\d*|\.\d+)([eE][+-]?\d+)? | \d+[eE][+-]?\d+)
    | (?P<INT>      \d+)
    | (?P<ID>       [a-zA-Z_][a-zA-Z0-9_]*)
    | (?P<STRING>   "[^"\n]*")
    | (?P<ARROW>    ->)
    | (?P<SYM>      [{}\[\]();,+\-*/^=<>!])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    type: str
    text: str
    line: int
    col: int


def tokenize(source: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise QasmError(
                f"unexpected character {source[pos]!r}",
                SourceSpan(filename, line, col, col + 1),
            )
        kind = m.lastgroup
        text = m.group()
        if kind == "NEWLINE":
            line += 1
            col = 1
        elif kind in ("WS", "COMMENT"):
            col += len(text)
        else:
            tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens
