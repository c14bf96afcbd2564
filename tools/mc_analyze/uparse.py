"""Built-in C++ frontend: token stream -> semantic model.

A declaration/expression extractor, not a full parser: it recognizes
exactly the shapes the passes consume -- namespaces, class bodies
with member declarations and ``// ckpt:`` annotations, function
definitions (in-class, out-of-line, lambdas), local/param
declarations with types, call expressions, subtraction/decrement
sites, container iteration, writes to non-local names, lock guard
scopes, namespace-scope variables, includes and the header guard.
Calls outside any function body (initializers, default arguments,
constructor initializer lists) land in the file's synthetic
``<file-scope>``; a lambda there is parsed as a function of its own.
Unknown constructs degrade to "no fact extracted",
never to a crash: the analyzer's contract is that seeded-bug
fixtures (tests/analyze_fixtures) prove the facts it *does* extract
are sound.

Used when no clang driver is installed (the container CI path) and
as the per-file fallback when a clang AST dump fails.
"""

from __future__ import annotations

import re

from lexer import IDENT, NUMBER, PUNCT, STR, Token, lex
from model import (ClassModel, FileModel, FuncModel, GlobalVar,
                   GuardSite, LoopSite, Member, SubSite, WriteSite)

_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "sizeof", "alignof",
    "new", "delete", "throw", "try", "catch", "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "this",
    "true", "false", "nullptr", "operator", "template", "typename",
    "class", "struct", "union", "enum", "namespace", "using",
    "typedef", "friend", "public", "private", "protected", "static",
    "inline", "constexpr", "consteval", "constinit", "const",
    "volatile", "mutable", "virtual", "override", "final",
    "noexcept", "explicit", "extern", "auto", "decltype",
    "co_await", "co_return", "co_yield", "requires", "concept",
    "static_assert", "thread_local", "export",
}

_TYPE_QUALIFIERS = {"const", "volatile", "static", "inline",
                    "constexpr", "mutable", "virtual", "explicit",
                    "typename", "extern", "thread_local", "friend",
                    "consteval", "constinit", "register"}

_GUARD_TYPES = re.compile(
    r"\b(lock_guard|unique_lock|scoped_lock|shared_lock)\b")

_MUTATING_METHODS = {
    "push_back", "emplace_back", "emplace", "emplace_front",
    "push_front", "pop_back", "pop_front", "clear", "insert",
    "erase", "assign", "resize", "reserve", "swap", "store",
    "fetch_add", "fetch_sub", "exchange", "push", "pop",
}

_CKPT_ANNOT = re.compile(
    r"ckpt:\s*(derived|transient)\s*(?:\(([^)]*)\))?")


class Parser:
    def __init__(self, path: str, text: str):
        res = lex(text)
        self.toks: list[Token] = res.tokens
        self.n = len(self.toks)
        self.model = FileModel(path, "uparse")
        self.model.includes = res.includes
        self.model.guard = res.guard
        # line -> annotation (kind, arg) from // ckpt: comments.
        self.annots: dict[int, tuple[str, str | None]] = {}
        for line, comment in res.comments:
            m = _CKPT_ANNOT.search(comment)
            if m:
                self.annots[line] = (m.group(1), m.group(2))
        # Matching brace/paren/bracket indices, precomputed.
        self.match: dict[int, int] = {}
        stack: list[int] = []
        pairs = {"{": "}", "(": ")", "[": "]"}
        openers = {}
        for i, t in enumerate(self.toks):
            if t.kind != PUNCT:
                continue
            if t.text in pairs:
                stack.append(i)
                openers[i] = t.text
            elif t.text in ("}", ")", "]"):
                # Pop until the matching opener kind (tolerates
                # unbalanced streams from macro soup).
                while stack:
                    j = stack.pop()
                    if pairs[openers[j]] == t.text:
                        self.match[j] = i
                        self.match[i] = j
                        break

    # ---- small token utilities ---------------------------------

    def tx(self, i: int) -> str:
        return self.toks[i].text if 0 <= i < self.n else ""

    def kind(self, i: int) -> str:
        return self.toks[i].kind if 0 <= i < self.n else ""

    def line(self, i: int) -> int:
        return self.toks[i].line if 0 <= i < self.n else 0

    def skip_template_intro(self, i: int) -> int:
        """Skip `template < ... >` at i, if present."""
        if self.tx(i) == "template" and self.tx(i + 1) == "<":
            depth = 0
            j = i + 1
            while j < self.n:
                if self.tx(j) == "<":
                    depth += 1
                elif self.tx(j) == ">":
                    depth -= 1
                    if depth == 0:
                        return j + 1
                elif self.tx(j) == ">>":
                    depth -= 2
                    if depth <= 0:
                        return j + 1
                j += 1
        return i

    def skip_attr(self, i: int) -> int:
        """Skip [[...]] attribute sequences."""
        while self.tx(i) == "[" and self.tx(i + 1) == "[":
            inner = self.match.get(i + 1)
            if inner is None or self.tx(inner + 1) != "]":
                return i
            i = inner + 2
        return i

    def try_angle(self, i: int) -> int | None:
        """If toks[i] == '<' opens a plausible template argument
        list, return the index of the closing '>'; else None."""
        if self.tx(i) != "<":
            return None
        depth = 0
        j = i
        allowed_punct = {"<", ">", ">>", "::", ",", "*", "&", "(",
                         ")", "[", "]", "...", ":"}
        while j < self.n and j - i < 64:
            t = self.toks[j]
            if t.kind == PUNCT:
                if t.text == "<":
                    depth += 1
                elif t.text == ">":
                    depth -= 1
                    if depth == 0:
                        return j
                elif t.text == ">>":
                    depth -= 2
                    if depth <= 0:
                        return j
                elif t.text == ";" or t.text not in allowed_punct:
                    return None
            j += 1
        return None

    # ---- type / name parsing -----------------------------------

    def parse_type(self, i: int, stop: int) -> tuple[str, int] | None:
        """Parse a type starting at i (bounded by stop). Returns
        (normalized type text, index past the type) or None."""
        parts: list[str] = []
        j = i
        saw_name = False
        while j < stop:
            t = self.toks[j]
            if t.kind == IDENT:
                if t.text in _TYPE_QUALIFIERS:
                    if t.text == "const":
                        parts.append("const")
                    j += 1
                    continue
                builtins = ("auto", "unsigned", "signed", "long",
                            "short", "int", "char", "bool", "float",
                            "double", "void", "wchar_t")
                if t.text in _KEYWORDS and t.text not in builtins \
                        and t.text != "decltype":
                    break
                if saw_name and self.tx(j - 1) != "::":
                    # Two adjacent words: the second is the
                    # declarator unless both are builtin combiners
                    # (`unsigned long`, `long double`, ...).
                    if not (parts and parts[-1].split()[-1] in
                            ("unsigned", "signed", "long", "short")
                            and t.text in ("unsigned", "signed",
                                           "long", "short", "int",
                                           "char", "double")):
                        break
                parts.append(t.text)
                saw_name = True
                j += 1
                # template args?
                close = self.try_angle(j)
                if close is not None:
                    parts.append(self.text_range(j, close + 1))
                    j = close + 1
                continue
            if t.kind == PUNCT and t.text == "::":
                parts.append("::")
                j += 1
                continue
            if t.kind == PUNCT and t.text in ("*", "&", "&&"):
                parts.append(t.text)
                j += 1
                continue
            break
        if not saw_name:
            return None
        return self.normalize(parts), j

    def text_range(self, i: int, j: int) -> str:
        return self.normalize(
            [self.toks[k].text for k in range(i, min(j, self.n))])

    @staticmethod
    def normalize(parts: list[str]) -> str:
        """Join token texts compactly: no spaces except between two
        word tokens (so `std::vector<Addr>` and `const Foo&`)."""
        out: list[str] = []
        word = re.compile(r"[A-Za-z0-9_]$")
        for p in parts:
            if not p:
                continue
            if out and word.search(out[-1]) and \
                    re.match(r"[A-Za-z0-9_]", p):
                out.append(" ")
            out.append(p)
        return "".join(out)

    # ---- top level ---------------------------------------------

    def parse(self) -> FileModel:
        self.scan_scope(0, self.n, None)
        return self.model

    def scan_scope(self, i: int, end: int,
                   cls: ClassModel | None) -> None:
        """Scan declarations between i and end. cls is the enclosing
        class when scanning a class body."""
        stmt_start = i
        while i < end:
            t = self.toks[i]
            if t.kind == PUNCT and t.text == ";":
                self.handle_stmt(stmt_start, i, cls, body=None)
                i += 1
                stmt_start = i
                continue
            if t.kind == PUNCT and t.text in ("(", "["):
                # Braces inside parentheses (`f(T{x})`) never open
                # a scope.
                i = self.match.get(i, i) + 1
                continue
            if t.kind == PUNCT and t.text == "{":
                close = self.match.get(i)
                if close is None:
                    return
                first = self.first_word(stmt_start, i)
                if first == "namespace":
                    self.scan_scope(i + 1, close, cls)
                elif first in ("class", "struct", "union"):
                    self.parse_class(stmt_start, i, close)
                elif first == "enum":
                    pass  # no facts from enums
                elif self.param_list(stmt_start, i) is not None:
                    self.handle_stmt(stmt_start, i, cls,
                                     body=(i, close))
                else:
                    # Braced initializer or a lambda body inside an
                    # initializer: the declaration runs on to ';'.
                    i = close + 1
                    continue
                i = close + 1
                stmt_start = i
                continue
            if t.kind == PUNCT and t.text == "}":
                return  # tolerate; caller mismatch
            i += 1
        self.handle_stmt(stmt_start, end, cls, body=None)

    def first_word(self, i: int, end: int) -> str:
        i = self.skip_template_intro(self.skip_attr(i))
        while i < end:
            t = self.toks[i]
            if t.kind == IDENT:
                if t.text in ("inline", "static", "friend",
                              "constexpr", "extern", "export"):
                    i += 1
                    continue
                return t.text
            if t.kind == PUNCT and t.text in ("[",):
                i = self.skip_attr(i)
                continue
            return ""
        return ""

    def param_list(self, i: int, end: int) -> int | None:
        """The '(' opening the parameter list when [i, end) declares
        a function, None when it declares variables: the first
        top-level '(', '=' or '{' decides (`int x = f();` is a
        variable, `int f(int a = g());` a function). Template
        arguments, brackets, decltype/alignas operands and operator
        names are skipped."""
        j = self.skip_template_intro(self.skip_attr(i))
        while j < end:
            t = self.tx(j)
            if t in ("=", "{"):
                return None
            if t == "(":
                return j
            if t == "operator":
                return self.find_top_paren(j, end)
            if t in ("decltype", "alignas") and self.tx(j + 1) == "(":
                j = self.match.get(j + 1, j + 1)
            elif t == "[":
                j = self.match.get(j, j)
            elif t == "<":
                close = self.try_angle(j)
                if close is not None:
                    j = close
            j += 1
        return None

    # ---- classes -----------------------------------------------

    def parse_class(self, head: int, open_brace: int,
                    close: int, outer: str | None = None) -> None:
        head = self.skip_template_intro(self.skip_attr(head))
        # head: class/struct [attr] [alignas(N)] NAME [final] [: bases]
        j = head + 1
        j = self.skip_attr(j)
        if self.tx(j) == "alignas" and self.tx(j + 1) == "(":
            j = self.skip_attr(self.match.get(j + 1, j) + 1)
        if self.kind(j) != IDENT:
            return  # anonymous
        name = self.tx(j)
        cm = ClassModel(name, self.line(j), outer)
        # bases: after ':' collect identifiers (last component).
        k = j + 1
        while k < open_brace:
            if self.tx(k) == ":":
                while k < open_brace:
                    if self.kind(k) == IDENT and self.tx(k) not in (
                            "public", "private", "protected",
                            "virtual") and self.tx(k + 1) != "::":
                        base = self.tx(k)
                        close_a = self.try_angle(k + 1)
                        cm.bases.append(base)
                        if close_a is not None:
                            k = close_a
                    k += 1
                break
            k += 1
        self.model.classes.append(cm)
        self.scan_class_body(open_brace + 1, close, cm)

    def scan_class_body(self, i: int, end: int,
                        cm: ClassModel) -> None:
        stmt_start = i
        while i < end:
            t = self.toks[i]
            if t.kind == IDENT and t.text in (
                    "public", "private", "protected") and \
                    self.tx(i + 1) == ":":
                i += 2
                stmt_start = i
                continue
            if t.kind == PUNCT and t.text == ";":
                self.class_stmt(stmt_start, i, cm, body=None)
                i += 1
                stmt_start = i
                continue
            if t.kind == PUNCT and t.text in ("(", "["):
                i = self.match.get(i, i) + 1
                continue
            if t.kind == PUNCT and t.text == "{":
                close = self.match.get(i)
                if close is None:
                    return
                first = self.first_word(stmt_start, i)
                if first in ("class", "struct", "union"):
                    self.parse_class(stmt_start, i, close, cm.name)
                elif first == "enum":
                    pass
                elif self.param_list(stmt_start, i) is not None:
                    self.class_stmt(stmt_start, i, cm,
                                    body=(i, close))
                else:
                    # Braced initializer (`int x{0};`) or a lambda
                    # body inside one: the member runs on to ';'.
                    i = close + 1
                    continue
                i = close + 1
                # skip the optional trailing ';'
                if self.tx(i) == ";":
                    i += 1
                stmt_start = i
                continue
            i += 1

    def class_stmt(self, i: int, end: int, cm: ClassModel,
                   body: tuple[int, int] | None) -> None:
        """One class-body statement: member decl, method decl, or
        method definition (body != None)."""
        i = self.skip_template_intro(self.skip_attr(i))
        if i >= end:
            return
        first = self.first_word(i, end)
        if first in ("using", "typedef", "friend", "static_assert",
                     "enum", "class", "struct", "union"):
            if first == "using":
                self.parse_alias(i, end)
            return
        p = self.param_list(i, end)
        if p is not None:
            # Method (decl or def). Name: ident before the '('.
            self.scan_signature(p, body[0] if body else end, cm.name)
            name = self.method_name(p)
            if name:
                if name not in cm.methods:
                    cm.methods.append(name)
                if body is not None:
                    fn = self.parse_function(i, p, cm.name,
                                             name, body)
                    self.model.functions.append(fn)
            return
        # Member declaration(s).
        static = any(self.tx(k) == "static"
                     for k in range(i, min(i + 3, end)))
        parsed = self.parse_type(i, end)
        if not parsed:
            return
        type_text, j = parsed
        self.scan_initializers(j, end, cm.name)
        for k in self.declarators(j, end):
            line = self.line(k)
            annot = self.annots.get(line) or \
                self.annots.get(line - 1)
            cm.members.append(Member(
                self.tx(k), type_text, line, static,
                annot[0] if annot else None,
                annot[1] if annot else None))

    def declarators(self, j: int, end: int):
        """Indices of the names in `NAME [array]* [init] (, NAME
        ...)*` starting at j."""
        while j < end:
            if self.kind(j) != IDENT or self.tx(j) in _KEYWORDS:
                return
            yield j
            # Skip array bounds and initializer to a top-level ','.
            depth = 0
            j += 1
            while j < end:
                t = self.tx(j)
                if depth == 0 and t == ",":
                    j += 1
                    break
                if t in ("(", "[", "{"):
                    depth += 1
                elif t in (")", "]", "}"):
                    depth -= 1
                j += 1

    def parse_alias(self, i: int, end: int) -> None:
        # using NAME = TYPE ;
        j = i
        while j < end and self.tx(j) != "using":
            j += 1
        if self.kind(j + 1) == IDENT and self.tx(j + 2) == "=":
            name = self.tx(j + 1)
            self.model.aliases[name] = self.text_range(j + 3, end)

    def find_top_paren(self, i: int, end: int) -> int | None:
        depth = 0
        j = i
        while j < end:
            t = self.tx(j)
            if t == "(" and depth == 0:
                return j
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == "<":
                close = self.try_angle(j)
                if close is not None:
                    j = close
            j += 1
        return None

    def method_name(self, paren: int) -> str:
        """Name of the function whose parameter list opens at
        `paren`."""
        j = paren - 1
        if j < 0:
            return ""
        # operator overloads: operator<op> or operator()
        k = j
        while k >= 0 and k > paren - 5:
            if self.tx(k) == "operator":
                return "operator" + "".join(
                    self.toks[m].text for m in range(k + 1, paren))
            k -= 1
        if self.kind(j) == IDENT:
            return self.tx(j)
        if self.tx(j) == ">":
            # templated name f<...>( -- walk back
            while j >= 0 and self.tx(j) != "<":
                j -= 1
            j -= 1
            if self.kind(j) == IDENT:
                return self.tx(j)
        if self.tx(j) == "~" or (self.kind(j) == IDENT and
                                 self.tx(j - 1) == "~"):
            return "~"
        return ""

    # ---- free / out-of-line functions --------------------------

    def handle_stmt(self, i: int, end: int,
                    cls: ClassModel | None,
                    body: tuple[int, int] | None) -> None:
        i = self.skip_template_intro(self.skip_attr(i))
        if i >= end:
            return
        first = self.first_word(i, end)
        if first == "using":
            self.parse_alias(i, end)
            return
        if first in ("typedef", "static_assert", "class", "struct",
                     "union", "enum", "friend"):
            return
        p = self.param_list(i, end)
        if p is None:
            self.parse_globals(i, end)
            return
        name = self.method_name(p)
        # Qualifier: Class :: name (
        qual: str | None = cls.name if cls else None
        j = p - 2  # token before name
        if name.startswith("operator"):
            j = p - 1
            while j >= i and self.tx(j) != "operator":
                j -= 1
            j -= 1
        if self.tx(j) == "~":
            j -= 1
        if self.tx(j) == "::" and self.kind(j - 1) == IDENT:
            qual = self.tx(j - 1)
        self.scan_signature(p, body[0] if body else end, qual)
        if body is None:
            return  # function declaration
        fn = self.parse_function(i, p, qual, name, body)
        self.model.functions.append(fn)

    def parse_function(self, sig_start: int, paren: int,
                       cls: str | None, name: str,
                       body: tuple[int, int]) -> FuncModel:
        open_b, close_b = body
        fn = FuncModel(name, cls, self.line(sig_start),
                       self.line(close_b))
        # Return type: tokens from sig_start up to the name
        # (best-effort; constructors have none).
        rt = self.parse_type(sig_start, paren)
        if rt and rt[0] != name and not rt[0].endswith("::" + name):
            fn.ret_type = rt[0]
        # Parameters.
        close_p = self.match.get(paren)
        if close_p is not None:
            self.parse_params(paren + 1, close_p, fn)
        self.parse_body(open_b + 1, close_b, fn)
        return fn

    def parse_params(self, i: int, end: int, fn: FuncModel) -> None:
        start = i
        depth = 0
        segs: list[tuple[int, int]] = []
        j = i
        while j < end:
            t = self.tx(j)
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == "<":
                close = self.try_angle(j)
                if close is not None:
                    j = close
            elif t == "," and depth == 0:
                segs.append((start, j))
                start = j + 1
            j += 1
        if start < end:
            segs.append((start, end))
        for a, b in segs:
            parsed = self.parse_type(a, b)
            if not parsed:
                continue
            ptype, k = parsed
            # Strip default argument.
            name = ""
            if k < b and self.kind(k) == IDENT:
                name = self.tx(k)
            if name:
                fn.params.append((name, ptype))

    # ---- outside function bodies -------------------------------

    def parse_globals(self, i: int, end: int) -> None:
        """Namespace-scope variable definitions in [i, end)."""
        if any(self.tx(k) == "extern" for k in range(i, end)):
            return  # a declaration; the definition lives elsewhere
        parsed = self.parse_type(i, end)
        if not parsed:
            return
        type_text, j = parsed
        init = self.scan_initializers(j, end, None)
        const = any(self.tx(k) in ("const", "constexpr", "constinit")
                    for k in range(i, init))
        for k in self.declarators(j, end):
            self.model.globals.append(
                GlobalVar(self.line(k), self.tx(k), type_text, const))

    def scan_initializers(self, i: int, end: int,
                          cls: str | None) -> int:
        """Record the calls in the initializers of a variable or
        member declaration whose declarators start at i; returns
        the index where the first initializer starts (end if
        none)."""
        init = i
        while init < end and self.tx(init) not in ("=", "{", "("):
            if self.tx(init) == "[":
                init = self.match.get(init, init)
            init += 1
        self.scan_calls(init, end, cls, min_depth=0)
        return init

    def scan_signature(self, paren: int, end: int,
                       cls: str | None) -> None:
        """Calls in a function declarator outside its body: default
        arguments in the parameter list, and everything parenthesized
        after it up to `end` (constructor initializer arguments,
        noexcept operands) -- but not the member names themselves."""
        close = self.match.get(paren)
        if close is None:
            return
        self.scan_calls(paren + 1, close, cls, min_depth=0)
        self.scan_calls(close + 1, end, cls, min_depth=1)

    def scan_calls(self, i: int, end: int, cls: str | None,
                   min_depth: int) -> None:
        """Record into the file scope every call in [i, end) at
        bracket depth >= min_depth; lambdas become functions."""
        scope = self.model.file_scope
        depth = 0
        j = i
        while j < end:
            t = self.toks[j]
            if t.kind == PUNCT:
                if t.text == "[" and self.is_lambda_intro(j):
                    j = self.parse_lambda(j, scope, cls)
                    continue
                if t.text in ("(", "[", "{"):
                    depth += 1
                elif t.text in (")", "]", "}"):
                    depth -= 1
            elif t.kind == IDENT and depth >= min_depth:
                call = self.call_site(j)
                if call:
                    scope.calls.append(call)
            j += 1

    def call_site(self, j: int) -> tuple | None:
        """(callee, line, arg0, mode) when the identifier at j names
        a call (or is `cout`), else None."""
        name = self.tx(j)
        if name == "cout":
            return ("std::cout", self.line(j), "", None)
        if self.tx(j + 1) != "(" or (name in _KEYWORDS and
                                     name not in ("this", "operator")):
            return None
        arg0 = self.tx(j + 2) if self.kind(j + 2) == IDENT else ""
        return (self.call_chain_text(j), self.line(j), arg0,
                self.string_arg(j + 1, 1))

    def string_arg(self, paren: int, n: int) -> str | None:
        """Contents of argument n of the call opening at `paren`
        when that argument is one string literal, else None."""
        close = self.match.get(paren)
        if close is None:
            return None
        start, depth, idx = paren + 1, 0, 0
        for k in range(paren + 1, close + 1):
            t = self.tx(k)
            if k == close or (t == "," and depth == 0):
                if idx == n:
                    if k == start + 1 and self.kind(start) == STR:
                        return self.toks[start].value
                    return None
                idx += 1
                start = k + 1
            elif t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
        return None

    # ---- function bodies ---------------------------------------

    def parse_body(self, i: int, end: int, fn: FuncModel) -> None:
        """Extract facts from a body token range [i, end)."""
        depth = 0
        open_lines: dict[int, int] = {}
        pending_guards: list[tuple[GuardSite, int]] = []
        stmt_start = i
        j = i
        while j < end:
            t = self.toks[j]
            if t.kind == PUNCT:
                if t.text == "{":
                    depth += 1
                    open_lines[depth] = t.line
                    stmt_start = j + 1
                    j += 1
                    continue
                if t.text == "}":
                    for g, d in pending_guards:
                        if d == depth and g.end_line == 0:
                            g.end_line = t.line
                    depth -= 1
                    stmt_start = j + 1
                    j += 1
                    continue
                if t.text == ";":
                    stmt_start = j + 1
                    j += 1
                    continue
                if t.text == "[" and self.is_lambda_intro(j):
                    j = self.parse_lambda(j, fn, fn.cls)
                    continue
                if t.text in ("-", "-=", "--"):
                    self.record_sub(j, fn)
                    j += 1
                    continue
                if t.text in ("=", "+=", "|=", "&=", "^=", "<<=",
                              ">>=", "*=", "/=", "%="):
                    self.record_write_assign(j, fn, depth)
                    j += 1
                    continue
                if t.text == "++":
                    self.record_incdec(j, fn, depth)
                    j += 1
                    continue
                j += 1
                continue
            if t.kind == IDENT:
                fn.idents.add(t.text)
                if self.tx(j - 1) in (".", "->"):
                    fn.member_idents.add(t.text)
                nxt = self.tx(j + 1)
                if t.text == "for" and nxt == "(":
                    j = self.parse_for_header(j + 1, fn, depth)
                    continue
                if t.text in _KEYWORDS and t.text not in (
                        "this", "operator"):
                    j += 1
                    continue
                call = self.call_site(j)
                if call:
                    fn.calls.append(call)
                    self.maybe_mut_call(j, call[0], fn, depth)
                    j += 1
                    continue
                # Local declaration attempt at statement start.
                if j == stmt_start or (
                        self.tx(j - 1) in (";", "{", "}")):
                    decl = self.try_local_decl(j, end)
                    if decl:
                        dname, dtype, after = decl
                        fn.locals.append((dname, dtype))
                        fn.idents.add(dname)
                        if _GUARD_TYPES.search(dtype):
                            g = GuardSite(t.line, 0, depth)
                            fn.guards.append(g)
                            pending_guards.append((g, depth))
                        j = after
                        continue
                j += 1
                continue
            j += 1
        for g, _ in pending_guards:
            if g.end_line == 0:
                g.end_line = self.line(end - 1)

    def is_lambda_intro(self, j: int) -> bool:
        if self.tx(j + 1) == "[":
            return False  # [[attribute]]
        prev = self.tx(j - 1)
        pk = self.kind(j - 1)
        if pk in (IDENT, NUMBER) and prev not in ("return",):
            return False  # subscript
        if prev in ("]", ")"):
            return False  # subscript on expr
        close = self.match.get(j)
        if close is None:
            return False
        after = self.tx(close + 1)
        return after in ("(", "{") or after == "mutable"

    def parse_lambda(self, j: int, enclosing: FuncModel,
                     cls: str | None) -> int:
        close_cap = self.match[j]
        # Find the body '{': after optional (params) [specs].
        k = close_cap + 1
        params: tuple[int, int] | None = None
        if self.tx(k) == "(":
            close_p = self.match.get(k)
            if close_p is None:
                return close_cap + 1
            params = (k + 1, close_p)
            k = close_p + 1
        while k < self.n and self.tx(k) != "{":
            if self.tx(k) in (";", ")", ","):
                return close_cap + 1  # not a lambda after all
            k += 1
        close_b = self.match.get(k)
        if close_b is None:
            return close_cap + 1
        fn = FuncModel(f"<lambda:{self.line(j)}>", cls,
                       self.line(j), self.line(close_b))
        ctx_start = max(0, j - 8)
        fn.entry_ctx = self.text_range(ctx_start, j)
        if re.search(r"\b(thread|submit|async)\b", fn.entry_ctx):
            fn.thread_entry = True
        # Captured names matter to the concurrency pass: surface
        # them as params of the synthetic function so by-reference
        # captures resolve against the enclosing scope.
        if params:
            self.parse_params(*params, fn)
        self.parse_body(k + 1, close_b, fn)
        # The enclosing function "calls" the lambda (call-graph
        # reachability for the concurrency pass).
        enclosing.calls.append((fn.name, self.line(j), "", None))
        # Names visible from the enclosing scope resolve captured
        # identifiers, but stay distinct from the lambda's own
        # locals: a by-reference capture is shared state.
        fn.captures.extend(enclosing.locals)
        fn.captures.extend(enclosing.params)
        fn.captures.extend(enclosing.captures)
        self.model.functions.append(fn)
        return close_b + 1

    def parse_for_header(self, paren: int, fn: FuncModel,
                         depth: int) -> int:
        """Handle `for (...)`: range-for loop sites + the init
        declaration. Returns index past the header."""
        close = self.match.get(paren)
        if close is None:
            return paren + 1
        # Top-level ':' => range-for.
        j = paren + 1
        d = 0
        colon = None
        while j < close:
            t = self.tx(j)
            if t in ("(", "[", "{"):
                d += 1
            elif t in (")", "]", "}"):
                d -= 1
            elif t == "<":
                a = self.try_angle(j)
                if a is not None and a < close:
                    j = a
            elif t == ":" and d == 0 and self.tx(j - 1) != ":":
                colon = j
                break
            j += 1
        if colon is not None:
            expr = self.text_range(colon + 1, close)
            base = self.chain_base(colon + 1, close)
            fn.loops.append(LoopSite(self.line(colon), expr, base))
            decl = self.try_local_decl(paren + 1, colon)
            if decl:
                fn.locals.append((decl[0], decl[1]))
            # Record idents in the range expression.
            for k in range(colon + 1, close):
                if self.kind(k) == IDENT:
                    fn.idents.add(self.tx(k))
                    if self.tx(k - 1) in (".", "->"):
                        fn.member_idents.add(self.tx(k))
            return close + 1
        # Classic for: try the init decl, and detect `.begin()`.
        decl = self.try_local_decl(paren + 1, close)
        if decl:
            fn.locals.append((decl[0], decl[1]))
        for k in range(paren + 1, close):
            if self.kind(k) == IDENT and \
                    self.tx(k) in ("begin", "cbegin") and \
                    self.tx(k + 1) == "(" and \
                    self.tx(k - 1) in (".", "->"):
                recv_start = self.chain_start(k - 2)
                expr = self.text_range(recv_start, k - 1)
                fn.loops.append(
                    LoopSite(self.line(k), expr,
                             self.tx(recv_start)))
        # Don't skip the header body tokens: scan them normally.
        return paren + 1

    # ---- expression helpers ------------------------------------

    def chain_start(self, j: int) -> int:
        """Given j at the *last* token of a postfix chain
        (identifier or closing bracket), return the index of the
        chain's first token."""
        while j >= 0:
            t = self.tx(j)
            if t in ("]", ")"):
                j = self.match.get(j, j)
                j -= 1
                continue
            if self.kind(j) == IDENT and self.tx(j) != "this":
                prev = self.tx(j - 1)
                if prev in (".", "->", "::"):
                    j -= 2
                    continue
                return j
            if t == "this":
                return j
            return j + 1
        return 0

    def chain_base(self, i: int, end: int) -> str:
        """First identifier of the expression at i."""
        for k in range(i, end):
            if self.kind(k) == IDENT and \
                    self.tx(k) not in _KEYWORDS:
                return self.tx(k)
            if self.tx(k) == "this":
                continue
        return ""

    def call_chain_text(self, j: int) -> str:
        """Full dotted chain for a call whose name token is at j."""
        start = self.chain_start(j)
        return self.text_range(start, j + 1)

    def maybe_mut_call(self, j: int, callee: str, fn: FuncModel,
                       depth: int) -> None:
        name = self.tx(j)
        if name not in _MUTATING_METHODS:
            return
        if self.tx(j - 1) not in (".", "->"):
            return
        start = self.chain_start(j)
        target = self.text_range(start, j - 1)
        base = self.tx(start) if self.kind(start) == IDENT else \
            self.tx(start + 1)
        if base:
            fn.writes.append(WriteSite(self.line(j), target, base,
                                       "mutcall", depth))

    def record_write_assign(self, j: int, fn: FuncModel,
                            depth: int) -> None:
        # LHS chain ends at j-1.
        k = j - 1
        if self.kind(k) not in (IDENT,) and self.tx(k) != "]":
            return
        start = self.chain_start(k)
        if start > k:
            return
        # Exclude declarations (`Type x = ...`): if the token before
        # the chain is an identifier or '>', this is a declarator.
        before = self.tx(start - 1)
        if self.kind(start - 1) == IDENT or before in (">", "&",
                                                       "*"):
            return
        target = self.text_range(start, k + 1)
        base = self.tx(start) if self.kind(start) == IDENT else ""
        if base == "this":
            nb = self.tx(start + 2)
            base = nb
        if base and base not in _KEYWORDS:
            fn.writes.append(WriteSite(self.line(j), target, base,
                                       "assign", depth))

    def record_incdec(self, j: int, fn: FuncModel,
                      depth: int) -> None:
        # ++x or x++
        if self.kind(j + 1) == IDENT:
            start = j + 1
            # walk chain forward to get full target
            k = start
            while True:
                nxt = self.tx(k + 1)
                if nxt in (".", "->", "::") and \
                        self.kind(k + 2) == IDENT:
                    k += 2
                    continue
                if nxt == "[":
                    c = self.match.get(k + 1)
                    if c is None:
                        break
                    k = c
                    continue
                break
            target = self.text_range(start, k + 1)
            base = self.tx(start)
        elif self.kind(j - 1) == IDENT or self.tx(j - 1) == "]":
            start = self.chain_start(j - 1)
            target = self.text_range(start, j)
            base = self.tx(start)
        else:
            return
        if base == "this":
            base = target.split("->")[1].split(".")[0] \
                if "->" in target else base
        if base and base not in _KEYWORDS:
            fn.writes.append(WriteSite(self.line(j), target, base,
                                       "incdec", depth))

    def operand_backward(self, j: int) -> tuple[str, str]:
        """Primary expression ending at token j (inclusive).
        Returns (normalized text, cast type or '')."""
        t = self.tx(j)
        if t == ")":
            open_p = self.match.get(j)
            if open_p is None:
                return "", ""
            before = open_p - 1
            if self.tx(before) == ">":
                # static_cast<T>(...) or templated call
                k = before
                while k >= 0 and self.tx(k) != "<":
                    k -= 1
                if self.tx(k - 1) in ("static_cast", "const_cast",
                                      "reinterpret_cast"):
                    return (self.text_range(open_p, j + 1),
                            self.text_range(k + 1, before))
                return self.text_range(self.chain_start(j), j + 1), ""
            if self.kind(before) == IDENT:
                start = self.chain_start(before)
                return self.text_range(start, j + 1), ""
            # parenthesized subexpression: use inner chain
            return self.text_range(open_p, j + 1), ""
        if t == "]" or self.kind(j) == IDENT or self.tx(j) == "this":
            start = self.chain_start(j)
            return self.text_range(start, j + 1), ""
        if self.kind(j) == NUMBER:
            return self.tx(j), "<literal>"
        return "", ""

    def operand_forward(self, j: int) -> tuple[str, str]:
        """Primary expression starting at token j."""
        t = self.tx(j)
        if self.kind(j) == NUMBER:
            return t, "<literal>"
        if t in ("static_cast", "const_cast", "reinterpret_cast"):
            k = j + 1
            close_a = self.try_angle(k)
            if close_a is None:
                return "", ""
            cast_t = self.text_range(k + 1, close_a)
            close_p = self.match.get(close_a + 1)
            if close_p is None:
                return "", ""
            return self.text_range(j, close_p + 1), cast_t
        if t == "(":
            close = self.match.get(j)
            if close is None:
                return "", ""
            return self.text_range(j, close + 1), ""
        if self.kind(j) == IDENT or t == "this":
            k = j
            while True:
                nxt = self.tx(k + 1)
                if nxt in (".", "->", "::") and \
                        self.kind(k + 2) == IDENT:
                    k += 2
                    continue
                if nxt in ("[", "("):
                    c = self.match.get(k + 1)
                    if c is None:
                        break
                    k = c
                    continue
                break
            return self.text_range(j, k + 1), ""
        return "", ""

    def record_sub(self, j: int, fn: FuncModel) -> None:
        op = self.tx(j)
        if op == "-":
            prev_k = self.kind(j - 1)
            prev_t = self.tx(j - 1)
            if not (prev_k in (IDENT, NUMBER) or
                    prev_t in (")", "]")):
                return  # unary minus
            if prev_t in _KEYWORDS and prev_t != "this":
                return
            lhs, lhs_cast = self.operand_backward(j - 1)
            rhs, rhs_cast = self.operand_forward(j + 1)
            if not lhs or not rhs:
                return
            fn.subs.append(SubSite(self.line(j), "-", lhs, rhs,
                                   lhs_cast, rhs_cast))
        elif op == "-=":
            lhs, lhs_cast = self.operand_backward(j - 1)
            rhs, rhs_cast = self.operand_forward(j + 1)
            if not lhs:
                return
            fn.subs.append(SubSite(self.line(j), "-=", lhs, rhs,
                                   lhs_cast, rhs_cast))
        elif op == "--":
            if self.kind(j + 1) == IDENT:
                lhs, cast = self.operand_forward(j + 1)
            elif self.kind(j - 1) == IDENT or self.tx(j - 1) == "]":
                lhs, cast = self.operand_backward(j - 1)
            else:
                return
            if not lhs:
                return
            fn.subs.append(SubSite(self.line(j), "--", lhs, "",
                                   cast, ""))
            # also a write for the concurrency pass
            self.record_incdec(j, fn, 0)

    def try_local_decl(self, i: int, end: int) \
            -> tuple[str, str, int] | None:
        """Try parsing `Type name [= init| {init} | (init)]` at i.
        Returns (name, type, index-past-declarator) or None."""
        first = self.tx(i)
        if first in _KEYWORDS and first not in (
                "const", "auto", "unsigned", "signed", "long",
                "short", "int", "char", "bool", "float", "double",
                "static", "constexpr"):
            return None
        parsed = self.parse_type(i, end)
        if not parsed:
            return None
        dtype, j = parsed
        if self.kind(j) != IDENT or self.tx(j) in _KEYWORDS:
            return None
        name = self.tx(j)
        nxt = self.tx(j + 1)
        if nxt in ("=", ";", "{", ",", ":", ")"):
            return name, dtype, j + 1
        if nxt == "(":
            # Could be a function declaration or paren-init; treat
            # paren-init as a local (rare; good enough).
            close = self.match.get(j + 1)
            if close is not None and self.tx(close + 1) == ";":
                return name, dtype, j + 1
        return None


def parse_file(path: str, text: str) -> FileModel:
    return Parser(path, text).parse()
