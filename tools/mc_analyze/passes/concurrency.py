"""Pass 4: concurrency discipline in the runner.

``src/runner`` is the only multi-threaded corner of the repo (the
campaign executor fans out claim/run/heartbeat threads;
``parallelMap`` fans out the bench rows). The discipline the code
review enforces by hand is mechanical:

  mutable state reachable from a thread entry point must be
    (a) atomic (std::atomic<...> member / local),
    (b) mutex-guarded — a lock_guard/unique_lock/scoped_lock is
        live in an enclosing scope at the write, or
    (c) confined — a local of the thread body itself, or a
        by-value parameter.

The pass finds thread entry points (lambdas handed to
``std::thread``, pool ``submit``/``async`` sites, and lambdas
appended to a ``std::thread`` container), walks the call graph
reachable from them, and classifies every write. Writes through
by-reference *captures* and *class members* are shared; writes
through by-reference **parameters** are the caller's confinement
responsibility (out-params like ``LeaseInfo &mine`` or
``std::string &out`` bind to per-thread locals at every call site
in this repo — the thread-sharing boundary is where an object
enters a closure or lives on the object, not how helpers thread it
through). Anything shared and not provably (a)/(b)/(c) is a
finding. Unresolvable bases stay silent — the pass under-reports
rather than spraying noise, and the mutation fixtures pin the
cases it must catch.
"""

from __future__ import annotations

import re

from model import Finding, FuncModel
from passes.common import Index, strip_cv_ref

_SYNC_TYPES = re.compile(
    r"\b(atomic|mutex|condition_variable|once_flag|stop_token|"
    r"latch|barrier|semaphore)\b")

#: `<receiver>.emplace_back(` at the end of a lambda's entry
#: context — entry when the receiver is a container of threads.
_APPEND_CTX = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*(?:emplace_back|push_back)\($")


def _norm(text: str) -> str:
    return re.sub(r"\s+", "", text)


def _last_component(callee: str) -> str:
    return re.split(r"\.|->|::", callee)[-1]


def _is_entry(index: Index, fn: FuncModel) -> bool:
    if fn.thread_entry:
        return True
    m = _APPEND_CTX.search(fn.entry_ctx)
    if m:
        recv = index.resolve_alias(
            strip_cv_ref(index.scope_type(fn, m.group(1))))
        return "thread" in recv or "future" in recv
    return False


def _param_kinds(fn: FuncModel) -> dict[str, str]:
    """param name -> 'value' | 'ref'"""
    out = {}
    for n, t in fn.params:
        out[n] = "ref" if ("&" in t or "*" in t) else "value"
    return out


def _guarded(fn: FuncModel, line: int) -> bool:
    return any(g.line <= line <= g.end_line for g in fn.guards)


def run_concurrency(index: Index, scope) -> list[Finding]:
    findings: list[Finding] = []
    in_scope = [fm for fm in index.models
                if scope(fm.path, "concurrency")]
    if not in_scope:
        return findings
    # Name -> definitions, restricted to the scoped files (the call
    # graph must not escape into unrelated same-named functions).
    local_defs: dict[str, list[FuncModel]] = {}
    fn_path: dict[int, str] = {}
    for fm in in_scope:
        for fn in fm.functions:
            local_defs.setdefault(fn.name, []).append(fn)
            fn_path[id(fn)] = fm.path

    entries = [fn for fm in in_scope for fn in fm.functions
               if _is_entry(index, fn)]
    reachable: list[FuncModel] = []
    seen: set[int] = set()
    work = list(entries)
    while work:
        fn = work.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        reachable.append(fn)
        for call in fn.calls:
            for cand in local_defs.get(_last_component(call[0]), []):
                if id(cand) not in seen:
                    work.append(cand)

    for fn in reachable:
        path = fn_path[id(fn)]
        locals_ = {n for n, _ in fn.locals}
        params = _param_kinds(fn)
        captures = {n for n, _ in fn.captures}
        members = index.class_members(fn.cls) if fn.cls else {}
        for w in fn.writes:
            if w.base in locals_:
                continue  # confined to the thread body
            if w.base in params:
                continue  # by-value: private copy; by-ref:
                #           caller's confinement (see docstring)
            shared = w.base in captures or w.base in members
            if not shared:
                continue  # unknown base: stay silent
            t = index.resolve_chain(fn, w.target) or \
                index.scope_type(fn, w.base)
            t = index.resolve_alias(strip_cv_ref(t))
            if _SYNC_TYPES.search(t):
                continue  # atomic / sync primitive
            if _guarded(fn, w.line):
                continue  # mutex held in enclosing scope
            # Lambdas are named by line for call-graph identity;
            # strip that from the site key so edits above the
            # lambda don't churn the allowlist.
            stable = re.sub(r"<lambda:\d+>", "<lambda>", fn.name)
            findings.append(Finding(
                path, w.line, "concurrency",
                f"write to shared '{w.target}' ({w.kind}) from "
                f"thread-reachable '{fn.name}' is neither atomic, "
                "mutex-guarded in an enclosing scope, nor confined "
                "to the thread",
                f"{stable}:{_norm(w.target)}"))
    return findings
