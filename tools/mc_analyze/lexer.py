"""C++ tokenizer for the uparse frontend.

Produces a flat token stream (identifiers, numbers, punctuators) with
line numbers, plus the comment list (for ``// ckpt:`` annotations).
Preprocessor lines are consumed whole; ``#include`` targets and the
header-guard ``#ifndef``/``#define`` pair are kept. String/char
literals collapse to single STR/CHR tokens; a STR token carries the
literal's contents in ``value`` (fopen modes). Raw strings,
line continuations, and digit separators are handled. This is a
lexer, not a preprocessor: macros are not expanded, which is fine for
the declaration/expression shapes the analyzer extracts (the repo
convention bans function-like macros outside MC_ASSERT/logging).
"""

from __future__ import annotations

import re

# Token kinds.
IDENT = "ident"
NUMBER = "number"
PUNCT = "punct"
STR = "str"
CHR = "chr"

# Multi-char punctuators, longest first so maximal munch works.
_PUNCTS = [
    "<<=", ">>=", "...", "->*", "<=>",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"(?:0[xXbB])?[0-9a-fA-F']*(?:\.[0-9']*)?"
                     r"(?:[eEpP][+-]?[0-9]+)?[uUlLzZfF]*")
_INCLUDE_RE = re.compile(r'#\s*include\s+(["<])([^">]+)[">]')
_GUARD_RE = re.compile(r"#\s*(ifndef|define)\s+(\w+)")


class Token:
    __slots__ = ("kind", "text", "line", "value")

    def __init__(self, kind: str, text: str, line: int,
                 value: str = ""):
        self.kind = kind
        self.text = text
        self.line = line
        self.value = value

    def __repr__(self) -> str:  # debug aid
        return f"Token({self.kind!r}, {self.text!r}, L{self.line})"


class LexResult:
    def __init__(self) -> None:
        self.tokens: list[Token] = []
        #: (line, text-after-slashes) for every // and /* comment.
        self.comments: list[tuple[int, str]] = []
        #: (line, kind, target) for #include directives.
        self.includes: list[tuple[int, str, str]] = []
        #: (ifndef name, define name) of the first #ifndef directly
        #: followed by a #define (the header guard), else None.
        self.guard: tuple[str, str] | None = None


def lex(text: str) -> LexResult:
    res = LexResult()
    # Splice line continuations but keep line numbering by counting
    # the backslash-newlines we removed per position. Simpler: scan
    # manually and treat "\\\n" as whitespace.
    i, n = 0, len(text)
    line = 1
    at_line_start = True
    ifndef: str | None = None  # guard candidate awaiting its #define
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "\\" and i + 1 < n and text[i + 1] == "\n":
            line += 1
            i += 2
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            res.comments.append((line, text[i + 2:j].strip()))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                j = n
            body = text[i + 2:j]
            res.comments.append((line, body.strip()))
            line += body.count("\n")
            i = j + 2
            continue
        if at_line_start and c == "#":
            # Preprocessor directive: consume to unescaped newline.
            j = i
            while j < n:
                if text[j] == "\n" and text[j - 1] != "\\":
                    break
                j += 1
            directive = text[i:j]
            m = _INCLUDE_RE.match(directive)
            if m:
                res.includes.append((line, m.group(1), m.group(2)))
            g = _GUARD_RE.match(directive)
            if res.guard is None and g and g.group(1) == "define" \
                    and ifndef is not None:
                res.guard = (ifndef, g.group(2))
            ifndef = g.group(2) if g and g.group(1) == "ifndef" \
                else None
            line += directive.count("\n")
            i = j
            continue
        at_line_start = False
        ifndef = None
        if c == '"':
            j = _scan_string(text, i)
            res.tokens.append(Token(STR, "", line, text[i + 1:j - 1]))
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "R" and i + 1 < n and text[i + 1] == '"':
            j = _scan_raw_string(text, i + 1)
            res.tokens.append(Token(STR, "", line))
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "'":
            # Char literal (or digit separator handled in numbers).
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            res.tokens.append(Token(CHR, "", line))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            m = _IDENT_RE.match(text, i)
            assert m is not None
            word = m.group(0)
            if word == "R" and m.end() < n and text[m.end()] == '"':
                j = _scan_raw_string(text, m.end())
                res.tokens.append(Token(STR, "", line))
                line += text.count("\n", i, j)
                i = j
                continue
            res.tokens.append(Token(IDENT, word, line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and
                           text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            assert m is not None and m.end() > i
            res.tokens.append(Token(NUMBER, m.group(0), line))
            i = m.end()
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                res.tokens.append(Token(PUNCT, p, line))
                i += len(p)
                break
        else:
            res.tokens.append(Token(PUNCT, c, line))
            i += 1
    return res


def _scan_string(text: str, i: int) -> int:
    """Return index just past the closing quote of a "..." literal."""
    n = len(text)
    j = i + 1
    while j < n:
        if text[j] == "\\":
            j += 2
            continue
        if text[j] == '"':
            return j + 1
        j += 1
    return n


def _scan_raw_string(text: str, quote: int) -> int:
    """`quote` indexes the opening '"' after R; return past the end."""
    n = len(text)
    j = quote + 1
    while j < n and text[j] not in "(\"":
        j += 1
    delim = text[quote + 1:j]
    end = text.find(")" + delim + '"', j)
    if end < 0:
        return n
    return end + len(delim) + 2
