"""Frozen parser diagnostics for malformed OpenQASM sources.

For each source the test records the sha256 of `str(QasmError)` and the
error's span, (file, line, col_start, col_end).  A change to the lexer or
the parser must leave every entry unchanged; change one only for a
deliberate change of a diagnostic.
"""
import hashlib

import pytest

from qcover.qasm import QasmError, parse

H = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'

# name -> (source, (file, line, col_start, col_end), sha256 of str(exc))
CASES = {
    "bad_char_later_line": (
        H + "h q[0];\ncx q[0],q[1]; $\n",
        ("d.qasm", 5, 15, 16),
        "14aafe0db12305e3fa4187e0903f16fa9c350dfec0a663bde5742fa21929b3b3"),
    "bad_char_nbsp": (
        H + "h\u00a0q[0];\n",
        ("d.qasm", 4, 2, 3),
        "2e8dd1dabb6063aa0f1ac8910e9b279c2be5f86a734f881ee0b4b666a23208ce"),
    "unterminated_string": (
        'OPENQASM 2.0;\ninclude "qelib1.inc;\n',
        ("d.qasm", 2, 9, 10),
        "9456d53fbb9ebebb3468fcc9fcc8edf8da0b12c2c455be8cc9a35b2db74ce238"),
    "tab_indentation": (
        "OPENQASM 2.0;\n\tqreg q[1];\n\t\th q[3];\n",
        ("d.qasm", 3, 7, 8),
        "0c7a5d9ebf17ffeef4ab5507c1a427fad9271eedfb274260a83bb58737302f07"),
    "crlf_line_endings": (
        "OPENQASM 2.0;\r\nqreg q[1];\r\nh q[0]\r\nx q[0];\r\n",
        ("d.qasm", 4, 1, 2),
        "876d4a27a173dc0d8dab5f70cf8530e9441eb66b4ce4647295c7b5c7f4cf304e"),
    "comment_before_error": (
        "OPENQASM 2.0;\n// a comment with ; and @\nqreg q[1]; // trailing\n"
        "  foo q[0];\n",
        ("d.qasm", 4, 3, 6),
        "588dfb14ec2cb65080f82a2633ebfdfc978f3f4a5f168d3c93f02ebfb40501a9"),
    "eof_with_newline": (
        H + "h q[0]\n",
        ("d.qasm", 5, 1, 2),
        "4d7c8ca2c42160bfa00ee408e7ae3245707371ab410718832ab56f660846fc04"),
    "eof_without_newline": (
        H + "h q[0]",
        ("d.qasm", 4, 7, 8),
        "6e777da10431a096481e5eb86eae8db061afd7317176cc991147f108099e35fb"),
    "empty_source": (
        "",
        ("d.qasm", 1, 1, 2),
        "fe910de947513cc2849e4737e5cb9b72c3d6a216bf51b51775f115a4b1ddcced"),
    "body_math_error": (
        H + "gate g(t) a {\n  h a;\n  rz(ln(t)) a;\n}\ng(-1) q[0];\n",
        ("d.qasm", 6, 3, 5),
        "47883177b5bb95da0508f35289b488b0e0fc999ba87ad8992d3305dc3d681e76"),
    "body_arity_error": (
        H + "gate g a, b { h a; cx a; }\ng q[0],q[1];\n",
        ("d.qasm", 4, 20, 22),
        "bfc0277998e5b814d3e07ee4709250271128b9a49d5b4955c67e2c669aef9e5d"),
    "nested_body_division": (
        H + "gate inner(t) a { rz(1/t) a; }\ngate outer(t) a { inner(t) a; }\n"
        "outer(0) q[1];\n",
        ("d.qasm", 4, 19, 21),
        "912e85fe3099e49af4ecff1698b056da885708adb3682e891320c1f7f7f0abf0"),
    "unknown_identifier": (
        H + "rz(theta) q[0];\n",
        ("d.qasm", 4, 4, 9),
        "cca219ef8cce3ccb3dfd28d5f059b2c57869ba94127dd3b51d83b30fc7ba7a1c"),
    "not_real": (
        H + "rz((0-1)^0.5) q[0];\n",
        ("d.qasm", 4, 1, 3),
        "3f190815932e7e3d2c94a68ccd4aaa929681200754ec1ccda3957678c841a432"),
    "undeclared_register": (
        H + "h r[0];\n",
        ("d.qasm", 4, 3, 4),
        "708be0ef4cbc674dc5d3defc6316260890b71129784dd0e53f8ba0a61c6f50c6"),
    "register_redeclared": (
        H + "creg q[1];\n",
        ("d.qasm", 4, 6, 7),
        "e578c9ecd16d87e3c2224354f2a257cc25b1c8fe4b10fb5f748611f305d772a2"),
    "register_size_zero": (
        "OPENQASM 2.0;\nqreg q[0];\n",
        ("d.qasm", 2, 8, 9),
        "41fbadcc1c41ca528768a480e37ab54080a5530f3f510c7b37880ae4f1a24831"),
    "index_out_of_range": (
        H + "x q[2];\n",
        ("d.qasm", 4, 5, 6),
        "1c65d7e83100b0ce8d92f57a22b9d89b554e1cb43853191cb5e8c685296655be"),
    "broadcast_mismatch": (
        H + "qreg r[3];\ncx q,r;\n",
        ("d.qasm", 5, 1, 3),
        "69b9ecdb93a6f5dc45c9cead9155290eaaa96b555613b53f1622b8672f29c606"),
    "measure_mismatch": (
        H + "creg c[1];\nmeasure q -> c;\n",
        ("d.qasm", 5, 1, 8),
        "280981411cb6d149c174363b462cc0238efe801acd9e149eb32ef0d9e41d36a3"),
    "duplicate_operand": (
        H + "cx q[1],q[1];\n",
        ("d.qasm", 4, 1, 3),
        "ed68aa78a56402119c187ab6a249fb2aeefaf5f9dce9bd424206b3efa34b7cf3"),
    "version": (
        "OPENQASM 3.0;\nqubit q;\n",
        ("d.qasm", 1, 10, 13),
        "9f33213c881070f321ab55890f122a08718cd97efa0b5a546e1acfbf5bd8a643"),
    "missing_header": (
        "qreg q[1];\n",
        ("d.qasm", 1, 1, 5),
        "addf40dae7621ac27df221d36a6374d202456158190c868b3ffa5261904d980b"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_diagnostic_is_frozen(name):
    source, span, digest = CASES[name]
    with pytest.raises(QasmError) as info:
        parse(source, filename="d.qasm")
    exc = info.value
    got = (exc.span.file, exc.span.line, exc.span.col_start, exc.span.col_end)
    assert (got, hashlib.sha256(str(exc).encode()).hexdigest()) == (span, digest)
