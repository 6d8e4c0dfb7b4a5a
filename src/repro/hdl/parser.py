"""Parser for the textual SCALD hardware description language.

The original SCALD was graphics-based (SUDS drawings); the Timing Verifier,
however, consumed a *textual* expanded design produced by the Macro
Expander.  This module defines an equivalent text source format carrying
every semantic feature the thesis describes — macros with size parameters,
``/P``/``/M`` signal scoping, bit-vector subscripts, assertions inside
signal names, complement markers, and ``&`` evaluation directives:

.. code-block:: text

    design EXAMPLE;
    period 50 ns;
    clock_unit 6.25 ns;

    macro "REG 100141" (SIZE);
      param "I"<0:SIZE-1>, "CK", "Q"<0:SIZE-1>;
      prim REG r (CLOCK="CK"/P, DATA="I"/P<0:SIZE-1>, OUT="Q"/P<0:SIZE-1>)
           delay=1.5:4.5 width=SIZE;
      prim "SETUP HOLD CHK" su (I="I"/P, CK="CK"/P)
           setup=2.5 hold=1.5 width=SIZE;
    endmacro;

    use "REG 100141" rega (I="W DATA .S0-6"<0:31>, CK="CLK A .P2-3",
                           Q="R DATA"<0:31>) SIZE=32;

    wire "ADR" 0.0:6.0;
    case "CONTROL SIGNAL .S0-8" = 0;

Comments run from ``--`` to end of line.  Statements end with ``;``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple


class ScaldSyntaxError(ValueError):
    """Raised with line/column context on malformed input."""

    def __init__(self, message: str, line: int, source: str = "") -> None:
        where = f"{source or '<input>'}:{line}"
        super().__init__(f"{where}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigRef:
    """A reference to a signal inside a connection.

    Attributes:
        name: the quoted signal name (may embed an assertion).
        invert: leading ``-`` — use the complement (Figure 3-5's ``- WE``).
        scope: ``"P"`` (macro parameter), ``"M"`` (macro local) or ``""``
            (global) — the ``/P`` and ``/M`` markers of section 3.1.
        subscript: ``(low_expr, high_expr)`` bit-range text, or None.
        directives: evaluation-directive letters after ``&``.
    """

    name: str
    invert: bool = False
    scope: str = ""
    subscript: tuple[str, str] | None = None
    directives: str = ""


@dataclass(frozen=True)
class PrimStmt:
    """A primitive instantiation.

    ``line``/``source_file`` locate the statement in its source text (the
    *span*), so later pipeline stages — notably the ``repro.lint`` static
    analyzer — can report diagnostics as ``file:line``.
    """

    prim: str
    inst: str
    pins: tuple[tuple[str, SigRef], ...]
    props: tuple[tuple[str, str], ...]  # name -> expression / a:b pair text
    line: int = 0
    source_file: str = ""


@dataclass(frozen=True)
class UseStmt:
    """A macro call."""

    macro: str
    inst: str
    bindings: tuple[tuple[str, SigRef], ...]  # formal name -> actual
    params: tuple[tuple[str, str], ...]  # SIZE=32 style
    line: int = 0
    source_file: str = ""


@dataclass
class MacroDef:
    """A macro definition: parameters, declared pins, and a body."""

    name: str
    size_params: tuple[str, ...]
    pin_decls: list[tuple[str, tuple[str, str] | None]] = field(default_factory=list)
    body: list["PrimStmt | UseStmt"] = field(default_factory=list)
    line: int = 0
    source_file: str = ""


@dataclass
class Design:
    """A parsed source file (plus anything it included)."""

    name: str = "UNNAMED"
    period_ns: float | None = None
    clock_unit_ns: float | None = None
    macros: dict[str, MacroDef] = field(default_factory=dict)
    top: list["PrimStmt | UseStmt"] = field(default_factory=list)
    wires: list[tuple[str, float, float]] = field(default_factory=list)
    cases: list[dict[str, int]] = field(default_factory=list)
    files_read: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

#: One match per token: the leading run of whitespace and ``--`` comments
#: is consumed inside the match.  The token group is optional, so a match
#: without one marks the end of input or a character no token starts with.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*)*
    (?:
        (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<sym>[;,()<>:=&/\-+*])
    )?
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "string" | "number" | "ident" | "sym"
    text: str
    line: int


def tokenize(source: str, filename: str = "") -> list[Token]:
    tokens: list[Token] = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        start = m.start(kind) if kind else m.end()
        line += source.count("\n", pos, start)
        if kind is None:
            if start < len(source):
                raise ScaldSyntaxError(
                    f"unexpected character {source[start]!r}", line, filename
                )
            break
        text = m.group(kind)
        if kind == "string":
            tokens.append(Token(kind, text[1:-1].replace('\\"', '"'), line))
            line += text.count("\n")
        else:
            tokens.append(Token(kind, text, line))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class Parser:
    """Recursive-descent parser producing a :class:`Design`."""

    def __init__(self, source: str, filename: str = "") -> None:
        self.tokens = tokenize(source, filename)
        self.pos = 0
        self.filename = filename

    # -- token helpers ---------------------------------------------------

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> Token:
        tok = self._peek()
        if tok is None:
            last_line = self.tokens[-1].line if self.tokens else 1
            raise ScaldSyntaxError("unexpected end of input", last_line, self.filename)
        self.pos += 1
        return tok

    def _expect(self, kind: str, text: str | None = None) -> Token:
        tok = self._take()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ScaldSyntaxError(
                f"expected {want!r}, found {tok.text!r}", tok.line, self.filename
            )
        return tok

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self._peek()
        if tok and tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def _keyword(self) -> str | None:
        tok = self._peek()
        return tok.text if tok and tok.kind == "ident" else None

    # -- grammar ----------------------------------------------------------

    def parse(self, design: Design | None = None) -> Design:
        """Parse this source, optionally splicing into an existing design
        (used by ``include``).  Header statements (design/period/clock
        unit) from included files only apply where not already set."""
        if design is None:
            design = Design()
            if self.filename:
                design.files_read.append(self.filename)
        while self._peek() is not None:
            kw = self._keyword()
            tok = self._peek()
            assert tok is not None
            if kw == "design":
                self._take()
                name = self._take().text
                if design.name == "UNNAMED":
                    design.name = name
                self._expect("sym", ";")
            elif kw == "period":
                self._take()
                period = float(self._expect("number").text)
                if design.period_ns is None:
                    design.period_ns = period
                self._accept("ident", "ns")
                self._expect("sym", ";")
            elif kw == "clock_unit":
                self._take()
                unit = float(self._expect("number").text)
                if design.clock_unit_ns is None:
                    design.clock_unit_ns = unit
                self._accept("ident", "ns")
                self._expect("sym", ";")
            elif kw == "macro":
                macro = self._parse_macro()
                if macro.name in design.macros:
                    raise ScaldSyntaxError(
                        f"duplicate macro {macro.name!r}", macro.line, self.filename
                    )
                design.macros[macro.name] = macro
            elif kw == "prim":
                design.top.append(self._parse_prim())
            elif kw == "use":
                design.top.append(self._parse_use())
            elif kw == "wire":
                self._take()
                name = self._expect("string").text
                lo = float(self._expect("number").text)
                self._expect("sym", ":")
                hi = float(self._expect("number").text)
                self._expect("sym", ";")
                design.wires.append((name, lo, hi))
            elif kw == "include":
                # 'include "file.scald";' splices another source file's
                # macros and statements — the thesis's Expander read a set
                # of input files (Table 3-1's "reading input files").
                inc_tok = self._take()
                path_tok = self._expect("string")
                self._expect("sym", ";")
                self._include(design, path_tok.text, inc_tok.line)
            elif kw == "case":
                self._take()
                case: dict[str, int] = {}
                while True:
                    name = self._expect("string").text
                    self._expect("sym", "=")
                    value = self._expect("number").text
                    if value not in ("0", "1"):
                        raise ScaldSyntaxError(
                            f"case value must be 0 or 1, got {value}",
                            tok.line,
                            self.filename,
                        )
                    case[name] = int(value)
                    if not self._accept("sym", ","):
                        break
                self._expect("sym", ";")
                design.cases.append(case)
            else:
                raise ScaldSyntaxError(
                    f"unexpected token {tok.text!r}", tok.line, self.filename
                )
        return design

    def _include(self, design: Design, path: str, line: int) -> None:
        import os

        base = os.path.dirname(self.filename) if self.filename else "."
        full = path if os.path.isabs(path) else os.path.join(base, path)
        full = os.path.normpath(full)
        if full in design.files_read:
            raise ScaldSyntaxError(
                f"circular include of {path!r}", line, self.filename
            )
        try:
            with open(full, encoding="utf-8") as f:
                source = f.read()
        except OSError as exc:
            raise ScaldSyntaxError(
                f"cannot include {path!r}: {exc}", line, self.filename
            ) from exc
        design.files_read.append(full)
        Parser(source, filename=full).parse(design)

    def _parse_macro(self) -> MacroDef:
        start = self._expect("ident", "macro")
        name = self._expect("string").text
        size_params: list[str] = []
        if self._accept("sym", "("):
            if not self._accept("sym", ")"):
                while True:
                    size_params.append(self._expect("ident").text)
                    if self._accept("sym", ")"):
                        break
                    self._expect("sym", ",")
        self._expect("sym", ";")
        macro = MacroDef(
            name=name,
            size_params=tuple(size_params),
            line=start.line,
            source_file=self.filename,
        )
        while True:
            kw = self._keyword()
            if kw == "endmacro":
                self._take()
                self._expect("sym", ";")
                return macro
            if kw == "param":
                self._take()
                while True:
                    pname = self._expect("string").text
                    sub = self._parse_subscript()
                    macro.pin_decls.append((pname, sub))
                    if not self._accept("sym", ","):
                        break
                self._expect("sym", ";")
            elif kw == "prim":
                macro.body.append(self._parse_prim())
            elif kw == "use":
                macro.body.append(self._parse_use())
            else:
                tok = self._peek()
                raise ScaldSyntaxError(
                    f"unexpected {tok.text!r} in macro body"
                    if tok
                    else "unterminated macro",
                    tok.line if tok else macro.line,
                    self.filename,
                )

    def _parse_subscript(self) -> tuple[str, str] | None:
        if not self._accept("sym", "<"):
            return None
        lo = self._parse_expr_text(stop={":"})
        self._expect("sym", ":")
        hi = self._parse_expr_text(stop={">"})
        self._expect("sym", ">")
        return (lo, hi)

    def _parse_expr_text(self, stop: set[str]) -> str:
        """Collect raw expression text up to (not including) a stop symbol."""
        parts: list[str] = []
        depth = 0
        allowed_syms = set("+-*/()")
        while True:
            tok = self._peek()
            if tok is None:
                raise ScaldSyntaxError("unterminated expression", 0, self.filename)
            if tok.kind == "sym":
                if depth == 0 and tok.text in stop:
                    break
                if tok.text not in allowed_syms:
                    break
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    if depth == 0:
                        break
                    depth -= 1
            elif tok.kind not in ("number", "ident"):
                break
            parts.append(tok.text)
            self._take()
        if not parts:
            tok = self._peek()
            raise ScaldSyntaxError(
                f"expected expression before {tok.text if tok else 'EOF'!r}",
                tok.line if tok else 0,
                self.filename,
            )
        return " ".join(parts)

    def _parse_sigref(self) -> SigRef:
        invert = bool(self._accept("sym", "-"))
        name = self._expect("string").text
        scope = ""
        if self._accept("sym", "/"):
            marker = self._expect("ident").text
            if marker not in ("P", "M"):
                raise ScaldSyntaxError(
                    f"signal scope must be /P or /M, got /{marker}",
                    self.tokens[self.pos - 1].line,
                    self.filename,
                )
            scope = marker
        subscript = self._parse_subscript()
        directives = ""
        if self._accept("sym", "&"):
            directives = self._expect("ident").text
        return SigRef(
            name=name,
            invert=invert,
            scope=scope,
            subscript=subscript,
            directives=directives,
        )

    def _parse_prop_value(self) -> str:
        """An expression that also stops before the next ``name =`` prop."""
        parts: list[str] = []
        depth = 0
        allowed_syms = set("+-*/()")
        while True:
            tok = self._peek()
            if tok is None:
                raise ScaldSyntaxError("unterminated property", 0, self.filename)
            if tok.kind == "sym":
                if depth == 0 and tok.text in (";", ":", ","):
                    break
                if tok.text not in allowed_syms:
                    break
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    if depth == 0:
                        break
                    depth -= 1
            elif tok.kind == "ident":
                nxt = (
                    self.tokens[self.pos + 1]
                    if self.pos + 1 < len(self.tokens)
                    else None
                )
                if parts and nxt and nxt.kind == "sym" and nxt.text == "=":
                    break  # this ident starts the next property
            elif tok.kind != "number":
                break
            parts.append(tok.text)
            self._take()
        if not parts:
            tok = self._peek()
            raise ScaldSyntaxError(
                f"expected property value before {tok.text if tok else 'EOF'!r}",
                tok.line if tok else 0,
                self.filename,
            )
        return " ".join(parts)

    def _parse_props(self) -> tuple[tuple[str, str], ...]:
        props: list[tuple[str, str]] = []
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "ident":
                break
            name = self._take().text
            self._expect("sym", "=")
            value = self._parse_prop_value()
            if self._accept("sym", ":"):
                value = f"{value}:{self._parse_prop_value()}"
            props.append((name, value))
        return tuple(props)

    def _parse_prim(self) -> PrimStmt:
        start = self._expect("ident", "prim")
        tok = self._take()
        if tok.kind not in ("ident", "string"):
            raise ScaldSyntaxError(
                f"expected primitive name, found {tok.text!r}", tok.line, self.filename
            )
        prim = tok.text
        inst = self._take().text
        self._expect("sym", "(")
        pins: list[tuple[str, SigRef]] = []
        if not self._accept("sym", ")"):
            while True:
                pin = self._expect("ident").text
                self._expect("sym", "=")
                pins.append((pin, self._parse_sigref()))
                if self._accept("sym", ")"):
                    break
                self._expect("sym", ",")
        props = self._parse_props()
        self._expect("sym", ";")
        return PrimStmt(
            prim=prim, inst=inst, pins=tuple(pins), props=props, line=start.line,
            source_file=self.filename,
        )

    def _parse_use(self) -> UseStmt:
        start = self._expect("ident", "use")
        macro = self._expect("string").text
        inst = self._take().text
        self._expect("sym", "(")
        bindings: list[tuple[str, SigRef]] = []
        if not self._accept("sym", ")"):
            while True:
                formal = self._take()
                if formal.kind not in ("ident", "string"):
                    raise ScaldSyntaxError(
                        f"expected formal parameter name, found {formal.text!r}",
                        formal.line,
                        self.filename,
                    )
                self._expect("sym", "=")
                bindings.append((formal.text, self._parse_sigref()))
                if self._accept("sym", ")"):
                    break
                self._expect("sym", ",")
        params = self._parse_props()
        self._expect("sym", ";")
        return UseStmt(
            macro=macro, inst=inst, bindings=tuple(bindings), params=params,
            line=start.line, source_file=self.filename,
        )


def parse(source: str, filename: str = "") -> Design:
    """Parse SCALD text into a :class:`Design`."""
    return Parser(source, filename).parse()


def parse_file(path: str) -> Design:
    """Parse a ``.scald`` source file."""
    with open(path, encoding="utf-8") as f:
        return parse(f.read(), filename=path)
