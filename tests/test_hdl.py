"""Tests for the SCALD HDL: expressions, parser, and macro expander."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.expander import ExpansionError, MacroExpander, expand_source
from repro.hdl.expr import ExpressionError, evaluate, evaluate_int
from repro.hdl.parser import ScaldSyntaxError, parse, tokenize


class TestExpressions:
    def test_arithmetic(self):
        assert evaluate("2+3*4") == 14
        assert evaluate("(2+3)*4") == 20
        assert evaluate("10/4") == 2.5
        assert evaluate("-3+5") == 2

    def test_parameters(self):
        """The SIZE-1 of Figure 3-5's I<0:SIZE-1> parameter declaration."""
        assert evaluate("SIZE-1", {"SIZE": 32}) == 31

    def test_integer_required(self):
        assert evaluate_int("SIZE/2", {"SIZE": 8}) == 4
        with pytest.raises(ExpressionError):
            evaluate_int("SIZE/3", {"SIZE": 8})

    def test_unknown_parameter(self):
        with pytest.raises(ExpressionError, match="unknown parameter"):
            evaluate("WIDTH", {})

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError):
            evaluate("1/0")

    def test_malformed(self):
        with pytest.raises(ExpressionError):
            evaluate("2+")
        with pytest.raises(ExpressionError):
            evaluate("(2")
        with pytest.raises(ExpressionError):
            evaluate("2 3")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2+", "unexpected end of expression"),
            ("(2", "unexpected end of expression"),
            ("2 3", "trailing input in expression '2 3'"),
            ("2 $", "bad character in expression '2 $' at 1"),
            ("WIDTH", "unknown parameter 'WIDTH'"),
            ("1/0", "division by zero in expression"),
        ],
    )
    def test_malformed_messages(self, text, message):
        with pytest.raises(ExpressionError) as exc:
            evaluate(text)
        assert str(exc.value) == message

    def test_not_an_integer_message(self):
        with pytest.raises(ExpressionError) as exc:
            evaluate_int("SIZE/3", {"SIZE": 8})
        assert str(exc.value) == "expression 'SIZE/3' is not an integer"


# Expression trees for the evaluate() property: a leaf is its own source
# text; a node is ("neg", x) or (op, lhs, rhs).
_ENV = {"SIZE": 32, "HALF": 0.5, "ZERO": 0}
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

_LEAVES = st.one_of(
    st.integers(0, 99).map(str),
    st.builds(lambda i, f: f"{i}.{f}", st.integers(0, 9), st.integers(0, 99)),
    st.sampled_from(sorted(_ENV)),
)
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from(sorted(_PRECEDENCE)), sub, sub),
    ),
    max_leaves=12,
)


def _render(tree, extra_parens) -> str:
    """Source text for ``tree``, parenthesized where the grammar needs it
    (and wherever ``extra_parens`` draws True)."""
    if isinstance(tree, str):
        return tree
    if tree[0] == "neg":
        inner = _render(tree[1], extra_parens)
        if not isinstance(tree[1], str) and tree[1][0] != "neg":
            inner = f"( {inner} )"
        return f"- {inner}"
    op, lhs, rhs = tree
    parts = []
    for side, child in (("lhs", lhs), ("rhs", rhs)):
        text = _render(child, extra_parens)
        needed = not isinstance(child, str) and child[0] != "neg" and (
            _PRECEDENCE[child[0]] < _PRECEDENCE[op]
            or (side == "rhs" and _PRECEDENCE[child[0]] == _PRECEDENCE[op])
        )
        if needed or extra_parens():
            text = f"( {text} )"
        parts.append(text)
    return f"{parts[0]} {op} {parts[1]}"


def _tree_value(tree):
    """Reference semantics: true division, an integral quotient becomes an
    ``int``, division by zero raises ExpressionError."""
    if isinstance(tree, str):
        if tree in _ENV:
            return _ENV[tree]
        return float(tree) if "." in tree else int(tree)
    if tree[0] == "neg":
        return -_tree_value(tree[1])
    op, lhs, rhs = tree
    a, b = _tree_value(lhs), _tree_value(rhs)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise ExpressionError("division by zero in expression")
    quotient = a / b
    return int(quotient) if quotient.is_integer() else quotient


class TestExpressionProperty:
    @given(_TREES, st.data())
    @settings(max_examples=300, deadline=None)
    def test_evaluate_matches_tree_semantics(self, tree, data):
        text = _render(tree, lambda: data.draw(st.booleans()))
        try:
            want = _tree_value(tree)
        except ExpressionError as exc:
            with pytest.raises(ExpressionError) as got:
                evaluate(text, _ENV)
            assert str(got.value) == str(exc)
            return
        got = evaluate(text, _ENV)
        assert got == want and type(got) is type(want), text


class TestTokenizer:
    SOURCE = (
        "-- header comment\n"
        "design T;  -- trailing comment\n"
        "\n"
        "\t\n"
        'wire "MULTI\n'
        'LINE \\"Q\\"" 0.5:2;\n'
        "-- between\n"
        "prim BUF b (I=-\"A\"/P<0:SIZE-1>)&x;\n"
    )

    def test_tokens_and_lines(self):
        got = [(t.kind, t.text, t.line) for t in tokenize(self.SOURCE)]
        assert got == [
            ("ident", "design", 2),
            ("ident", "T", 2),
            ("sym", ";", 2),
            ("ident", "wire", 5),
            ("string", 'MULTI\nLINE "Q"', 5),
            ("number", "0.5", 6),
            ("sym", ":", 6),
            ("number", "2", 6),
            ("sym", ";", 6),
            ("ident", "prim", 8),
            ("ident", "BUF", 8),
            ("ident", "b", 8),
            ("sym", "(", 8),
            ("ident", "I", 8),
            ("sym", "=", 8),
            ("sym", "-", 8),
            ("string", "A", 8),
            ("sym", "/", 8),
            ("ident", "P", 8),
            ("sym", "<", 8),
            ("number", "0", 8),
            ("sym", ":", 8),
            ("ident", "SIZE", 8),
            ("sym", "-", 8),
            ("number", "1", 8),
            ("sym", ">", 8),
            ("sym", ")", 8),
            ("sym", "&", 8),
            ("ident", "x", 8),
            ("sym", ";", 8),
        ]

    def test_bad_character_line(self):
        with pytest.raises(ScaldSyntaxError) as exc:
            tokenize(self.SOURCE + "\n-- x\n  $ design;\n", "f.scald")
        assert exc.value.line == 11
        assert str(exc.value) == "f.scald:11: unexpected character '$'"

    def test_trailing_comment_without_newline(self):
        got = [(t.kind, t.text, t.line) for t in tokenize("a -- end")]
        assert got == [("ident", "a", 1)]
        assert tokenize("  \n-- only a comment") == []


HEADER = "design T; period 50 ns; clock_unit 6.25 ns;\n"


class TestParser:
    def test_header(self):
        d = parse(HEADER)
        assert d.name == "T"
        assert d.period_ns == 50.0
        assert d.clock_unit_ns == 6.25

    def test_comments_ignored(self):
        d = parse("-- a comment\n" + HEADER + "-- another\n")
        assert d.name == "T"

    def test_prim_statement(self):
        d = parse(HEADER + 'prim REG r (CLOCK="CK", DATA="D", OUT="Q") delay=1.5:4.5;')
        (stmt,) = d.top
        assert stmt.prim == "REG"
        assert dict(stmt.props)["delay"] == "1.5:4.5"
        assert [p for p, _ in stmt.pins] == ["CLOCK", "DATA", "OUT"]

    def test_quoted_primitive_name(self):
        d = parse(HEADER + 'prim "SETUP HOLD CHK" s (I="D", CK="CK") setup=2.5 hold=1.5;')
        assert d.top[0].prim == "SETUP HOLD CHK"

    def test_sigref_features(self):
        d = parse(HEADER + 'prim BUF b (I=-"WE .S0-6"<0:7>&HZ, OUT="X");')
        ref = dict(d.top[0].pins)["I"]
        assert ref.invert
        assert ref.name == "WE .S0-6"
        assert ref.subscript == ("0", "7")
        assert ref.directives == "HZ"

    def test_macro_definition(self):
        d = parse(
            HEADER
            + 'macro "M" (SIZE); param "A"<0:SIZE-1>; '
            + 'prim BUF b (I="A"/P, OUT="X"/M); endmacro;'
        )
        macro = d.macros["M"]
        assert macro.size_params == ("SIZE",)
        assert macro.pin_decls[0][0] == "A"
        assert len(macro.body) == 1

    def test_use_statement(self):
        d = parse(HEADER + 'use "M" u1 (A="SIG"<0:31>) SIZE=32;')
        (stmt,) = d.top
        assert stmt.macro == "M"
        assert dict(stmt.params)["SIZE"] == "32"

    def test_wire_statement(self):
        d = parse(HEADER + 'wire "ADR" 0.0:6.0;')
        assert d.wires == [("ADR", 0.0, 6.0)]

    def test_case_statement(self):
        d = parse(HEADER + 'case "A"=0, "B"=1;\ncase "A"=1, "B"=0;')
        assert d.cases == [{"A": 0, "B": 1}, {"A": 1, "B": 0}]

    def test_case_value_validated(self):
        with pytest.raises(ScaldSyntaxError, match="0 or 1"):
            parse(HEADER + 'case "A"=3;')

    def test_duplicate_macro_rejected(self):
        src = HEADER + 'macro "M" (); endmacro;\nmacro "M" (); endmacro;'
        with pytest.raises(ScaldSyntaxError, match="duplicate"):
            parse(src)

    def test_syntax_error_carries_line(self):
        with pytest.raises(ScaldSyntaxError, match=":2"):
            parse("design T;\n???")

    def test_unterminated_macro(self):
        with pytest.raises(ScaldSyntaxError):
            parse(HEADER + 'macro "M" (); prim BUF b (I="A", OUT="B");')

    def test_multiple_props_parse(self):
        d = parse(HEADER + 'prim REG r (CLOCK="C", DATA="D", OUT="Q") delay=1.5:4.5 width=SIZE-1;')
        props = dict(d.top[0].props)
        assert props == {"delay": "1.5:4.5", "width": "SIZE - 1"}


RAM_MACRO = """
macro "16W RAM 10145A" (SIZE);
  param "I"<0:SIZE-1>, "A"<0:3>, "CS", "WE", "O"<0:SIZE-1>;
  prim CHG dchg (I1="I"/P<0:SIZE-1>, OUT="DCHG"/M<0:SIZE-1>) delay=1.5:3.0 width=SIZE;
  prim CHG achg (I1="A"/P<0:3>, I2="CS"/P, I3="WE"/P, OUT="ACHG"/M<0:SIZE-1>)
       delay=3.0:6.0 width=SIZE;
  prim CHG outc (I1="DCHG"/M<0:SIZE-1>, I2="ACHG"/M<0:SIZE-1>, OUT="O"/P<0:SIZE-1>)
       width=SIZE;
  prim "SETUP HOLD CHK" dsu (I="I"/P, CK=-"WE"/P) setup=4.5 hold=-1.0 width=SIZE;
  prim "SETUP RISE HOLD FALL CHK" asu (I="A"/P, CK="WE"/P) setup=3.5 hold=1.0;
  prim "MIN PULSE WIDTH" mpw (I="WE"/P) min_high=4.0;
endmacro;
"""


class TestExpander:
    def test_figure_3_5_ram_macro_expands(self):
        src = (
            HEADER
            + RAM_MACRO
            + 'use "16W RAM 10145A" rf (I="W DATA .S0-6"<0:31>, A="ADR"<0:3>, '
            + 'CS="CS .S0-8", WE="RAM WE", O="RAM OUT"<0:31>) SIZE=32;'
        )
        circuit, stats = expand_source(src)
        assert len(circuit.components) == 6
        assert circuit.nets["W DATA .S0-6"].width == 32
        assert circuit.nets["rf/DCHG"].width == 32
        assert stats.macro_calls == 1
        assert stats.primitives == 6

    def test_size_parameter_arithmetic(self):
        src = (
            HEADER
            + 'macro "M" (SIZE); param "A"<0:SIZE-1>; '
            + 'prim BUF b (I="A"/P, OUT="X"/M<0:SIZE/2-1>) width=SIZE/2; endmacro;'
            + 'use "M" u (A="SIG"<0:15>) SIZE=16;'
        )
        circuit, _ = expand_source(src)
        assert circuit.nets["u/X"].width == 8

    def test_nested_macros_and_locals(self):
        src = (
            HEADER
            + 'macro "INNER" (); param "X"; prim BUF b (I="X"/P, OUT="Y"/M); endmacro;'
            + 'macro "OUTER" (); param "IN"; '
            + 'use "INNER" i1 (X="IN"/P); use "INNER" i2 (X="L"/M); endmacro;'
            + 'use "OUTER" o (IN="TOP");'
        )
        circuit, stats = expand_source(src)
        # Locals are mangled per instance path.
        assert "o/i1/Y" in circuit.nets
        assert "o/i2/Y" in circuit.nets
        assert "o/L" in circuit.nets
        assert stats.max_depth == 2

    def test_macro_locals_are_on_die(self):
        """/M signals live inside the chip the macro describes: they carry
        no default interconnection delay (the macro's pin signals do)."""
        src = (
            HEADER
            + 'macro "M" (); param "A"; '
            + 'prim BUF b1 (I="A"/P, OUT="MID"/M); '
            + 'prim BUF b2 (I="MID"/M, OUT="EXTERNAL"); endmacro;'
            + 'use "M" u (A="IN .S0-6");'
        )
        circuit, _ = expand_source(src)
        assert circuit.nets["u/MID"].wire_delay_ps == (0, 0)
        assert circuit.nets["EXTERNAL"].wire_delay_ps is None

    def test_wire_statement_overrides_internal_default(self):
        src = (
            HEADER
            + 'macro "M" (); param "A"; prim BUF b (I="A"/P, OUT="MID"/M); '
            + 'prim BUF b2 (I="MID"/M, OUT="Q"); endmacro;'
            + 'use "M" u (A="IN .S0-6");'
            + 'wire "u/MID" 0.0:3.0;'
        )
        circuit, _ = expand_source(src)
        assert circuit.nets["u/MID"].wire_delay_ps == (0, 3_000)

    def test_synonyms_recorded(self):
        src = (
            HEADER
            + 'macro "M" (); param "A"; prim BUF b (I="A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A="REAL SIGNAL");'
        )
        expander = MacroExpander.from_source(src)
        expander.expand()
        assert ("u/A", "REAL SIGNAL") in expander.synonyms

    def test_complement_composition(self):
        """A '-' on the actual and a '-' inside the macro cancel."""
        src = (
            HEADER
            + 'macro "M" (); param "A"; prim BUF b (I=-"A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A=-"SIG .S0-6");'
        )
        circuit, _ = expand_source(src)
        conn = circuit.components["u/b"].pins["I"]
        assert not conn.invert

    def test_directive_from_actual_flows_in(self):
        src = (
            HEADER
            + 'macro "M" (); param "CK"; '
            + 'prim AND g (I1="CK"/P, I2="EN", OUT="Q"); endmacro;'
            + 'use "M" u (CK="CLK .P2-3"&H);'
        )
        circuit, _ = expand_source(src)
        assert circuit.components["u/g"].pins["I1"].directives == "H"

    def test_width_mismatch_rejected(self):
        src = (
            HEADER
            + 'macro "M" (SIZE); param "A"<0:SIZE-1>; '
            + 'prim BUF b (I="A"/P, OUT="Q"/M); endmacro;'
            + 'use "M" u (A="SIG"<0:7>) SIZE=32;'
        )
        with pytest.raises(ExpansionError, match="bits"):
            expand_source(src)

    def test_unbound_parameter_rejected(self):
        src = (
            HEADER
            + 'macro "M" (); param "A", "B"; prim BUF b (I="A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A="SIG");'
        )
        with pytest.raises(ExpansionError, match="without binding"):
            expand_source(src)

    def test_unknown_formal_rejected(self):
        src = (
            HEADER
            + 'macro "M" (); param "A"; prim BUF b (I="A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A="SIG", ZZZ="OTHER");'
        )
        with pytest.raises(ExpansionError, match="no\\s+parameter"):
            expand_source(src)

    def test_missing_size_param_rejected(self):
        src = (
            HEADER
            + 'macro "M" (SIZE); param "A"; prim BUF b (I="A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A="SIG");'
        )
        with pytest.raises(ExpansionError, match="requires"):
            expand_source(src)

    def test_unknown_macro_rejected(self):
        with pytest.raises(ExpansionError, match="no macro"):
            expand_source(HEADER + 'use "NOPE" u (A="SIG");')

    def test_recursion_guard(self):
        src = (
            HEADER
            + 'macro "M" (); param "A"; use "M" again (A="A"/P); endmacro;'
            + 'use "M" u (A="SIG");'
        )
        with pytest.raises(ExpansionError, match="recursive"):
            expand_source(src)

    def test_p_outside_macro_rejected(self):
        with pytest.raises(ExpansionError, match="/P"):
            expand_source(HEADER + 'prim BUF b (I="A"/P, OUT="Q");')

    def test_missing_period_rejected(self):
        with pytest.raises(ExpansionError, match="period"):
            expand_source('design T; prim BUF b (I="A", OUT="Q");')

    def test_wires_and_cases_applied(self):
        src = (
            HEADER
            + 'prim BUF b (I="A .S0-6", OUT="Q");'
            + 'wire "A .S0-6" 0.0:6.0; case "A .S0-6"=1;'
        )
        circuit, _ = expand_source(src)
        assert circuit.nets["A .S0-6"].wire_delay_ps == (0, 6_000)
        assert circuit.cases == [{"A .S0-6": 1}]

    def test_expanded_circuit_verifies(self):
        """End to end: text in, violations out."""
        from repro import TimingVerifier

        src = (
            HEADER
            + 'prim REG r (CLOCK="CK .P2-3", DATA="D .S3-6", OUT="Q") delay=1.5:4.5;'
            + 'prim "SETUP HOLD CHK" s (I="D .S3-6", CK="CK .P2-3") setup=2.5 hold=1.5;'
        )
        circuit, _ = expand_source(src)
        result = TimingVerifier(circuit).verify()
        assert any(v.kind.value == "setup" for v in result.violations)
