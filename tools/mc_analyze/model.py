"""Frontend-agnostic semantic model.

One ``FileModel`` per source file, produced by either frontend
(``uparse`` or ``clang``) and serialized to JSON for the cache. The
model is deliberately a *projection* of the AST: only the facts the
passes consume are kept, so both frontends can realistically produce
identical models and the cache stays small.
"""

from __future__ import annotations

from typing import Any


class Member:
    """Non-static data member of a class."""

    def __init__(self, name: str, type_: str, line: int,
                 static: bool = False,
                 annot: str | None = None,
                 annot_arg: str | None = None):
        self.name = name
        self.type = type_
        self.line = line
        self.static = static
        #: None | "derived" | "transient" (// ckpt: annotations).
        self.annot = annot
        self.annot_arg = annot_arg

    def to_json(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.type,
                "line": self.line, "static": self.static,
                "annot": self.annot, "annotArg": self.annot_arg}

    @staticmethod
    def from_json(d: dict[str, Any]) -> "Member":
        return Member(d["name"], d["type"], d["line"], d["static"],
                      d["annot"], d["annotArg"])


class ClassModel:
    def __init__(self, name: str, line: int, outer: str | None = None):
        self.name = name
        self.line = line
        #: Name of the class this one is declared inside, or None.
        self.outer = outer
        self.members: list[Member] = []
        #: Names of member functions (defined inline or declared).
        self.methods: list[str] = []
        #: Base-class names (public inheritance chain, unqualified).
        self.bases: list[str] = []

    def to_json(self) -> dict[str, Any]:
        return {"name": self.name, "line": self.line,
                "outer": self.outer,
                "members": [m.to_json() for m in self.members],
                "methods": self.methods, "bases": self.bases}

    @staticmethod
    def from_json(d: dict[str, Any]) -> "ClassModel":
        c = ClassModel(d["name"], d["line"], d["outer"])
        c.members = [Member.from_json(m) for m in d["members"]]
        c.methods = d["methods"]
        c.bases = d["bases"]
        return c


class SubSite:
    """An unsigned-wrap candidate: ``a - b``, ``a -= b``, ``--a``."""

    def __init__(self, line: int, op: str, lhs: str, rhs: str,
                 lhs_type: str, rhs_type: str):
        self.line = line
        self.op = op  # "-" | "-=" | "--"
        self.lhs = lhs  # normalized expression text ("" if unknown)
        self.rhs = rhs
        self.lhs_type = lhs_type  # resolved type ("" if unknown)
        self.rhs_type = rhs_type

    def to_json(self) -> list[Any]:
        return [self.line, self.op, self.lhs, self.rhs,
                self.lhs_type, self.rhs_type]

    @staticmethod
    def from_json(v: list[Any]) -> "SubSite":
        return SubSite(*v)


class LoopSite:
    """Iteration over a container (range-for or .begin() loop)."""

    def __init__(self, line: int, expr: str, expr_type: str):
        self.line = line
        self.expr = expr
        self.expr_type = expr_type

    def to_json(self) -> list[Any]:
        return [self.line, self.expr, self.expr_type]

    @staticmethod
    def from_json(v: list[Any]) -> "LoopSite":
        return LoopSite(*v)


class WriteSite:
    """A mutation of a non-local name inside a function body."""

    def __init__(self, line: int, target: str, base: str, kind: str,
                 depth: int):
        self.line = line
        #: Full normalized target ("ctx.completed", "queue_").
        self.target = target
        #: Leading identifier ("ctx", "queue_").
        self.base = base
        self.kind = kind  # "assign" | "incdec" | "mutcall"
        self.depth = depth  # brace depth within the function body

    def to_json(self) -> list[Any]:
        return [self.line, self.target, self.base, self.kind,
                self.depth]

    @staticmethod
    def from_json(v: list[Any]) -> "WriteSite":
        return WriteSite(*v)


class GuardSite:
    """A lock guard object's scope interval inside a function."""

    def __init__(self, line: int, end_line: int, depth: int):
        self.line = line
        self.end_line = end_line
        self.depth = depth

    def to_json(self) -> list[Any]:
        return [self.line, self.end_line, self.depth]

    @staticmethod
    def from_json(v: list[Any]) -> "GuardSite":
        return GuardSite(*v)


class FuncModel:
    """A function or method definition with a body."""

    def __init__(self, name: str, cls: str | None, line: int,
                 end_line: int, ret_type: str = ""):
        self.name = name
        self.cls = cls  # enclosing/owning class name or None
        self.line = line
        self.end_line = end_line
        self.ret_type = ret_type
        self.params: list[tuple[str, str]] = []  # (name, type)
        self.locals: list[tuple[str, str]] = []  # (name, type)
        #: For lambdas: names visible from the enclosing scope
        #: (captured locals/params). Used for type resolution but
        #: NOT for thread-locality: a by-reference capture written
        #: from a thread entry is shared state.
        self.captures: list[tuple[str, str]] = []
        self.idents: set[str] = set()
        #: Identifiers read as members: right after ``.`` or ``->``.
        self.member_idents: set[str] = set()
        #: (callee, line, arg0, mode): arg0 is the first argument when
        #: it is a bare identifier (``stdout``), mode the contents of
        #: a string-literal second argument (fopen's), else None.
        self.calls: list[tuple] = []
        self.subs: list[SubSite] = []
        self.loops: list[LoopSite] = []
        self.writes: list[WriteSite] = []
        self.guards: list[GuardSite] = []
        #: True for lambdas handed to std::thread / pool submit.
        self.thread_entry = False
        #: For lambdas: normalized text of the tokens immediately
        #: preceding the capture list (the spawn context), e.g.
        #: "std::thread heartbeat(" or "workers_.emplace_back(".
        #: The concurrency pass resolves receiver types from the
        #: merged model to classify entries the frontend could not.
        self.entry_ctx = ""

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name, "cls": self.cls, "line": self.line,
            "endLine": self.end_line, "retType": self.ret_type,
            "params": self.params, "locals": self.locals,
            "captures": self.captures,
            "idents": sorted(self.idents),
            "memberIdents": sorted(self.member_idents),
            "calls": self.calls,
            "subs": [s.to_json() for s in self.subs],
            "loops": [s.to_json() for s in self.loops],
            "writes": [s.to_json() for s in self.writes],
            "guards": [s.to_json() for s in self.guards],
            "threadEntry": self.thread_entry,
            "entryCtx": self.entry_ctx,
        }

    @staticmethod
    def from_json(d: dict[str, Any]) -> "FuncModel":
        f = FuncModel(d["name"], d["cls"], d["line"], d["endLine"],
                      d["retType"])
        f.params = [tuple(p) for p in d["params"]]
        f.locals = [tuple(p) for p in d["locals"]]
        f.captures = [tuple(p) for p in d.get("captures", [])]
        f.idents = set(d["idents"])
        f.member_idents = set(d["memberIdents"])
        f.calls = [tuple(c) for c in d["calls"]]
        f.subs = [SubSite.from_json(s) for s in d["subs"]]
        f.loops = [LoopSite.from_json(s) for s in d["loops"]]
        f.writes = [WriteSite.from_json(s) for s in d["writes"]]
        f.guards = [GuardSite.from_json(s) for s in d["guards"]]
        f.thread_entry = d["threadEntry"]
        f.entry_ctx = d.get("entryCtx", "")
        return f


class GlobalVar:
    """A namespace-scope variable definition."""

    def __init__(self, line: int, name: str, type_: str,
                 const: bool):
        self.line = line
        self.name = name
        self.type = type_
        #: Declared const/constexpr/constinit (anywhere before the
        #: initializer).
        self.const = const

    def to_json(self) -> list[Any]:
        return [self.line, self.name, self.type, self.const]

    @staticmethod
    def from_json(v: list[Any]) -> "GlobalVar":
        return GlobalVar(*v)


#: Name of the synthetic scope holding calls outside function bodies.
FILE_SCOPE = "<file-scope>"


class FileModel:
    def __init__(self, path: str, frontend: str):
        self.path = path  # repo-root-relative, forward slashes
        self.frontend = frontend  # "uparse" | "clang"
        self.aliases: dict[str, str] = {}  # using X = Y;
        self.classes: list[ClassModel] = []
        self.functions: list[FuncModel] = []
        #: Calls outside any function body: namespace-scope and
        #: in-class initializers, default arguments, constructor
        #: initializer lists. Not in `functions`: only the
        #: determinism and structure passes read it.
        self.file_scope = FuncModel(FILE_SCOPE, None, 0, 0)
        self.globals: list[GlobalVar] = []
        #: (line, '"' | '<', target) per #include.
        self.includes: list[tuple[int, str, str]] = []
        #: (#ifndef name, #define name) of the header guard, or None.
        self.guard: tuple[str, str] | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "path": self.path, "frontend": self.frontend,
            "aliases": self.aliases,
            "classes": [c.to_json() for c in self.classes],
            "functions": [f.to_json() for f in self.functions],
            "fileScope": self.file_scope.to_json(),
            "globals": [g.to_json() for g in self.globals],
            "includes": self.includes,
            "guard": self.guard,
        }

    @staticmethod
    def from_json(d: dict[str, Any]) -> "FileModel":
        fm = FileModel(d["path"], d["frontend"])
        fm.aliases = d["aliases"]
        fm.classes = [ClassModel.from_json(c) for c in d["classes"]]
        fm.functions = [FuncModel.from_json(f)
                        for f in d["functions"]]
        fm.file_scope = FuncModel.from_json(d["fileScope"])
        fm.globals = [GlobalVar.from_json(g) for g in d["globals"]]
        fm.includes = [tuple(i) for i in d["includes"]]
        fm.guard = tuple(d["guard"]) if d["guard"] else None
        return fm


class Finding:
    def __init__(self, path: str, line: int, check: str,
                 message: str, site: str):
        self.path = path
        self.line = line
        self.check = check
        self.message = message
        #: Stable allowlist key (check:path:site).
        self.site = site

    def key(self) -> str:
        return f"{self.check}:{self.path}:{self.site}"

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: [{self.check}] "
                f"{self.message} (site: {self.site})")
