"""Merged-model index and heuristic type resolution.

The passes see one ``Index`` built from every file's model: classes
by name, function definitions by (class, name), and the union of
type aliases. ``resolve_chain`` walks a normalized postfix chain
("ctx.results", "b[phase].allocBytes", "x.size()") through that
index the way name lookup would: locals, then parameters, then
captures, then enclosing-class members (including bases), then
member/element/return types step by step.

Resolution is best-effort: an unresolvable step yields "" and the
passes treat unknown types conservatively (each pass documents in
which direction it stays quiet). The clang frontend short-circuits
all of this by recording precise types in the model.
"""

from __future__ import annotations

import re

from model import FILE_SCOPE, ClassModel, FileModel, FuncModel

_UNSIGNED = re.compile(
    r"\b(uint8_t|uint16_t|uint32_t|uint64_t|uintptr_t|size_t|"
    r"unsigned|uint_fast\d+_t|uint_least\d+_t)\b")

#: vector<T>, array<T, N>, deque<T>: operator[] yields T.
_ELEM = re.compile(
    r"\b(?:std::)?(?:vector|array|deque|span)<(.+?)(?:,[^<>]*)?>$")

_CHAIN_TOKEN = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|\[[^\[\]]*\]|\([^()]*\)|\.|->|::|<.*?>")


def norm(text: str) -> str:
    return re.sub(r"\s+", "", text)


def receiverless(callee: str) -> str | None:
    """Last component if the call has no object receiver (allows
    std:: and global :: qualification), else None."""
    if "." in callee or "->" in callee:
        return None
    parts = callee.split("::")
    if len(parts) > 1 and parts[0] not in ("", "std"):
        return None
    return parts[-1]


def scopes(fm: FileModel):
    """(site prefix, class, calls, [(declared type, line)]) for every
    function body of `fm`, then for its file scope, whose types come
    from namespace-scope variables and class members."""
    for fn in fm.functions:
        yield fn.name, fn.cls, fn.calls, \
            [(t, fn.line) for _, t in fn.locals + fn.params]
    typed = [(g.type, g.line) for g in fm.globals]
    typed += [(m.type, m.line) for cm in fm.classes
              for m in cm.members]
    yield FILE_SCOPE, None, fm.file_scope.calls, typed


def strip_cv_ref(t: str) -> str:
    t = re.sub(r"\bconst\b|\bvolatile\b", "", t)
    return t.replace("&&", "").replace("&", "").strip().strip("*")


class Index:
    def __init__(self, models: list[FileModel]):
        self.models = models
        self.classes: dict[str, ClassModel] = {}
        self.class_path: dict[str, str] = {}
        #: (cls or "", name) -> [FuncModel]; name-only fallback map.
        self.funcs: dict[tuple[str, str], list[FuncModel]] = {}
        self.funcs_by_name: dict[str, list[FuncModel]] = {}
        self.func_path: dict[int, str] = {}
        self.aliases: dict[str, str] = {}
        for fm in models:
            for cm in fm.classes:
                self.classes.setdefault(cm.name, cm)
                self.class_path.setdefault(cm.name, fm.path)
            for fn in fm.functions:
                key = (fn.cls or "", fn.name)
                self.funcs.setdefault(key, []).append(fn)
                self.funcs_by_name.setdefault(fn.name, []).append(fn)
                self.func_path[id(fn)] = fm.path
            self.aliases.update(fm.aliases)

    def path_of(self, fn: FuncModel) -> str:
        return self.func_path.get(id(fn), "")

    def resolve_alias(self, type_text: str) -> str:
        """Map through `using` aliases (transitively, bounded)."""
        t = strip_cv_ref(type_text)
        for _ in range(6):
            base = t.split("<")[0].replace("std::", "").strip()
            nxt = self.aliases.get(base) or self.aliases.get(t)
            if not nxt or nxt == t:
                return t
            t = strip_cv_ref(nxt)
        return t

    def is_unsigned(self, type_text: str) -> bool:
        if not type_text:
            return False
        t = self.resolve_alias(type_text)
        return bool(_UNSIGNED.search(t)) and "*" not in type_text

    def class_members(self, cls_name: str) \
            -> dict[str, str]:
        """name -> type for a class including its bases."""
        out: dict[str, str] = {}
        seen: set[str] = set()
        stack = [cls_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            cm = self.classes.get(name)
            if not cm:
                continue
            for m in cm.members:
                out.setdefault(m.name, m.type)
            stack.extend(cm.bases)
        return out

    def has_method(self, cls_name: str, method: str) -> bool:
        """Whether the class or one of its bases declares `method`."""
        seen: set[str] = set()
        stack = [cls_name]
        while stack:
            name = stack.pop()
            cm = self.classes.get(name)
            if name in seen or not cm:
                continue
            seen.add(name)
            if method in cm.methods:
                return True
            stack.extend(cm.bases)
        return False

    def method_ret(self, cls_name: str, method: str) -> str:
        for fn in self.funcs.get((cls_name, method), []):
            if fn.ret_type:
                return fn.ret_type
        cm = self.classes.get(cls_name)
        if cm:
            for base in cm.bases:
                r = self.method_ret(base, method)
                if r:
                    return r
        return ""

    def scope_type(self, fn: FuncModel, name: str) -> str:
        """Type of `name` as seen from inside fn ('' if unknown)."""
        for n, t in reversed(fn.locals):
            if n == name:
                return t
        for n, t in fn.params:
            if n == name:
                return t
        for n, t in fn.captures:
            if n == name:
                return t
        if fn.cls:
            members = self.class_members(fn.cls)
            if name in members:
                return members[name]
        return ""

    def resolve_chain(self, fn: FuncModel, chain: str) -> str:
        """Resolve the type of a normalized postfix chain."""
        if not chain:
            return ""
        m = re.match(r"(?:static_cast|const_cast|reinterpret_cast)"
                     r"<(.+?)>\(", chain)
        if m:
            return m.group(1)
        chain = re.sub(r"^this->", "", chain)
        toks = _CHAIN_TOKEN.findall(chain)
        if not toks:
            return ""
        # Qualified names (std::foo, Class::member): not resolvable
        # as value chains; bail unless it's a known-class static.
        cur = ""
        i = 0
        # First segment: identifier (maybe followed by call/index).
        if not re.match(r"[A-Za-z_]", toks[0]):
            return ""
        name = toks[0]
        i = 1
        if i < len(toks) and toks[i] == "::":
            return ""  # qualified: leave unresolved
        if i < len(toks) and toks[i].startswith("("):
            # Free/member-of-self call.
            cur = ""
            for f in self.funcs.get((fn.cls or "", name), []) + \
                    self.funcs_by_name.get(name, []):
                if f.ret_type:
                    cur = f.ret_type
                    break
            i += 1
        else:
            cur = self.scope_type(fn, name)
        while i < len(toks) and cur:
            t = toks[i]
            if t in (".", "->"):
                i += 1
                if i >= len(toks):
                    break
                field = toks[i]
                i += 1
                cls = strip_cv_ref(self.resolve_alias(cur))
                cls_base = cls.split("<")[0].replace("std::", "")
                is_call = i < len(toks) and toks[i].startswith("(")
                if is_call:
                    cur = self.method_ret(cls_base, field) or \
                        self.method_ret(cls, field)
                    i += 1
                else:
                    members = self.class_members(cls_base) or \
                        self.class_members(cls)
                    cur = members.get(field, "")
                continue
            if t.startswith("["):
                m2 = _ELEM.search(strip_cv_ref(
                    self.resolve_alias(cur)))
                cur = m2.group(1).strip() if m2 else ""
                i += 1
                continue
            if t.startswith("("):
                i += 1
                continue
            break
        return cur

    def chain_terminal(self, chain: str) -> str:
        """Last field/identifier name in a chain (for the semantic
        name heuristics)."""
        names = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", chain)
        skip = {"static_cast", "const_cast", "reinterpret_cast",
                "std", "this"}
        names = [n for n in names if n not in skip]
        return names[-1] if names else ""

    def chain_base(self, chain: str) -> str:
        chain = re.sub(r"^this->", "", chain)
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", chain)
        return m.group(0) if m else ""
