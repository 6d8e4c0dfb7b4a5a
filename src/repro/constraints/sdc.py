"""Tokenizer and parser for the SDC subset (``.sdc`` constraint files).

The grammar is a small, line-oriented slice of Tcl, which is all SDC is:
one command per line (``\\`` continues a line, ``;`` separates commands,
``#`` starts a comment), words separated by whitespace, ``"..."`` quoting
for names with spaces (SCALD signal names have them), ``{...}`` for word
lists, and ``[get_ports ...]`` / ``[get_clocks ...]`` style selectors.

Parsing is total: malformed input produces :class:`Finding` records under
the ``sdc.syntax-error`` / ``sdc.unknown-command`` pseudo-rules (the same
diagnostics discipline as the lint pipeline's ``syntax-error``) and the
parser keeps going, so one bad line never hides the rest of the file.

Values are nanoseconds on the SDC surface (the API-boundary unit).
Resolution converts them to integer picoseconds with the exact
``core.timeline.ns_to_ps`` that ``.scald`` times go through, so one
literal means the same time in both files and nothing downstream ever
sees a float.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Selector commands allowed inside ``[...]``; all resolve to name lists.
_SELECTOR_KINDS = frozenset(
    {"get_ports", "get_pins", "get_nets", "get_clocks", "get_cells"}
)

#: Flags that consume the following token as their value.
_VALUE_FLAGS = frozenset(
    {
        "-period",
        "-name",
        "-waveform",
        "-source",
        "-divide_by",
        "-multiply_by",
        "-clock",
        "-from",
        "-to",
        "-through",
    }
)

#: Flags that stand alone.
_BARE_FLAGS = frozenset(
    {"-setup", "-hold", "-min", "-max", "-rise", "-fall", "-add", "-add_delay"}
)

#: The command vocabulary this subset understands.
KNOWN_COMMANDS = frozenset(
    {
        "create_clock",
        "create_generated_clock",
        "set_input_delay",
        "set_output_delay",
        "set_multicycle_path",
        "set_false_path",
        "set_clock_uncertainty",
        "set_clock_latency",
        "set_recovery",
        "set_removal",
        "set_max_time_borrow",
    }
)


class SdcError(ValueError):
    """Raised by helpers when a single token cannot be interpreted."""


@dataclass(frozen=True)
class Selector:
    """A ``[get_ports {A B}]`` style object selector: a kind plus names."""

    kind: str
    names: tuple[str, ...]


@dataclass(frozen=True)
class SdcCommand:
    """One parsed constraint command with source provenance.

    ``flags`` maps ``-flag`` to its value (``True`` for bare flags; a
    string, number, tuple or :class:`Selector` otherwise); ``args`` holds
    the positional operands in order.
    """

    name: str
    line: int
    file: str = ""
    flags: dict = field(default_factory=dict)
    args: tuple = ()

    def flag_names(self, flag: str) -> tuple[str, ...]:
        """The name list carried by ``flag`` (selector, list or word)."""
        return _as_names(self.flags.get(flag))

    def target_names(self) -> tuple[str, ...]:
        """Every positional operand flattened into a name list."""
        out: list[str] = []
        for arg in self.args:
            out.extend(_as_names(arg))
        return tuple(out)


@dataclass(frozen=True)
class Finding:
    """One front-end finding, in the shape of a lint diagnostic.

    ``rule`` is the ``sdc.*`` rule id; ``severity`` is the default the
    rule registry also declares (carried here so non-lint consumers such
    as ``scald-tv --sdc`` can render findings without the registry).
    """

    rule: str
    severity: str
    message: str
    file: str = ""
    line: int = 0
    net: str | None = None
    component: str | None = None

    def __str__(self) -> str:
        loc = f"{self.file}:{self.line}: " if self.file and self.line else ""
        subject = self.component or self.net
        return (
            loc
            + f"{self.severity}[{self.rule}]: {self.message}"
            + (f" [{subject}]" if subject else "")
        )


def _as_names(value) -> tuple[str, ...]:
    if value is None or value is True:
        return ()
    if isinstance(value, Selector):
        return value.names
    if isinstance(value, tuple):
        out: list[str] = []
        for item in value:
            out.extend(_as_names(item))
        return tuple(out)
    return (str(value),)


# ---------------------------------------------------------------------------
# tokenizing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(
        "[^"]*"        |   # quoted word (may contain spaces)
        [\[\]{}]       |   # structural single characters
        [^\s\[\]{}"]+      # bare word
    )
    """,
    re.VERBOSE,
)


def _tokenize(line: str) -> list[str]:
    """Split one logical line into tokens; ``#`` comments already removed."""
    out: list[str] = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            rest = line[pos:].strip()
            if rest:
                raise SdcError(f"cannot tokenize {rest!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment, respecting double quotes."""
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def _logical_lines(source: str) -> list[tuple[int, str]]:
    """``(first line number, joined text)`` per logical line.

    A trailing backslash continues the line; ``;`` splits one physical
    line into several commands sharing the line number.
    """
    out: list[tuple[int, str]] = []
    pending = ""
    pending_line = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = _strip_comment(raw)
        if pending:
            text = pending + " " + text
            lineno0 = pending_line
            pending = ""
        else:
            lineno0 = lineno
        stripped = text.rstrip()
        if stripped.endswith("\\"):
            pending = stripped[:-1]
            pending_line = lineno0
            continue
        for piece in stripped.split(";"):
            if piece.strip():
                out.append((lineno0, piece.strip()))
    if pending.strip():
        out.append((pending_line, pending.strip()))
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _unquote(token: str) -> str:
    if len(token) >= 2 and token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    return token


class _TokenStream:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SdcError("unexpected end of command")
        self.pos += 1
        return tok


def _parse_operand(ts: _TokenStream) -> object:
    """One operand: a selector, a braced list, or a (possibly quoted) word."""
    tok = ts.next()
    if tok == "[":
        kind = ts.next()
        if kind not in _SELECTOR_KINDS:
            raise SdcError(f"unknown selector {kind!r} (expected get_ports/...)")
        names: list[str] = []
        while True:
            inner = ts.peek()
            if inner is None:
                raise SdcError("unterminated [ ... ] selector")
            if inner == "]":
                ts.next()
                break
            names.extend(_as_names(_parse_operand(ts)))
        return Selector(kind=kind, names=tuple(names))
    if tok == "{":
        items: list[str] = []
        while True:
            inner = ts.peek()
            if inner is None:
                raise SdcError("unterminated { ... } list")
            if inner == "}":
                ts.next()
                break
            items.append(_unquote(ts.next()))
        return tuple(items)
    if tok in ("]", "}"):
        raise SdcError(f"unbalanced {tok!r}")
    return _unquote(tok)


def _parse_command(lineno: int, text: str, filename: str) -> SdcCommand:
    ts = _TokenStream(_tokenize(text))
    name = ts.next()
    flags: dict = {}
    args: list[object] = []
    while ts.peek() is not None:
        tok = ts.peek()
        if tok is not None and tok.startswith("-") and not _is_number(tok):
            ts.next()
            if tok in _VALUE_FLAGS:
                flags[tok] = _parse_operand(ts)
            elif tok in _BARE_FLAGS:
                flags[tok] = True
            else:
                raise SdcError(f"unknown option {tok!r}")
        else:
            args.append(_parse_operand(ts))
    return SdcCommand(
        name=name, line=lineno, file=filename, flags=flags, args=tuple(args)
    )


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def parse_sdc(
    source: str, filename: str = ""
) -> tuple[list[SdcCommand], list[Finding]]:
    """Parse an ``.sdc`` source string into commands plus findings.

    Never raises on malformed input: bad lines produce
    ``sdc.syntax-error`` findings, commands outside :data:`KNOWN_COMMANDS`
    produce ``sdc.unknown-command`` findings, and parsing continues.
    """
    commands: list[SdcCommand] = []
    findings: list[Finding] = []
    for lineno, text in _logical_lines(source):
        try:
            cmd = _parse_command(lineno, text, filename)
        except SdcError as exc:
            findings.append(
                Finding(
                    rule="sdc.syntax-error",
                    severity="error",
                    message=str(exc),
                    file=filename,
                    line=lineno,
                )
            )
            continue
        if cmd.name not in KNOWN_COMMANDS:
            findings.append(
                Finding(
                    rule="sdc.unknown-command",
                    severity="warning",
                    message=f"unknown constraint command {cmd.name!r} (ignored)",
                    file=filename,
                    line=lineno,
                )
            )
            continue
        commands.append(cmd)
    return commands, findings
