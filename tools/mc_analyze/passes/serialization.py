"""Pass 2: serialization coverage.

The checkpoint subsystem's resume≡uninterrupted byte-identity
contract (DESIGN.md §11) is only as strong as saveState/loadState
field coverage: a member added to a class but not to its checkpoint
sections diverges a resume with no test that knows to look. This
pass proves, for every class defining both ``saveState`` and
``loadState``, that every non-static data member is either

  * referenced in the saveState AND loadState bodies (transitively
    through same-class helper methods), or
  * annotated on its declaration line (or the line above):
      ``// ckpt: derived(<site>)``  — reconstructed after load; the
        named site (a function/method/class visible to the
        analyzer) is where the reconstruction happens, and the
        annotation is broken if that site does not exist;
      ``// ckpt: transient(<why>)`` — intentionally ephemeral
        (telemetry, caches rebuilt lazily, wiring pointers).

The same holds for every field of a record declared inside such a
class (``struct Row { ... };`` in a store) that the class holds
through an unannotated member and that has no saveState/loadState
pair of its own: the enclosing class writes the record's fields, so
each must be read as a member (``row.f``, ``row->f``) in the
enclosing class's saveState AND loadState closures, or carry an
annotation. A bare name does not count for a field: a local variable
of the same name would hide an unwritten one. A record the class
only returns or takes (no member holds it) is not state, and one
held only through annotated members shares their annotation.

A class with a declared-but-nowhere-defined pair (e.g. an abstract
interface) is skipped: the contract lands on the classes with
bodies.
"""

from __future__ import annotations

import re

from model import Finding, FuncModel
from passes.common import Index


def _bodies(index: Index, cls: str, method: str) -> list[FuncModel]:
    return [f for f in index.funcs.get((cls, method), [])]


def _closure_idents(index: Index, cls: str, start: str) -> \
        tuple[set[str], set[str]] | None:
    """Identifier references across `start` and every same-class
    method it (transitively) calls: every name, and the names read as
    members. None when no body for `start` exists anywhere."""
    cm = index.classes.get(cls)
    methods = set(cm.methods) if cm else set()
    seen: set[str] = set()
    idents: set[str] = set()
    members: set[str] = set()
    work = [start]
    found_any = False
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        for fn in _bodies(index, cls, name):
            found_any = True
            idents |= fn.idents
            members |= fn.member_idents
            for call in fn.calls:
                callee = call[0].split(".")[-1].split(":")[-1]
                if callee in methods and callee not in seen:
                    work.append(callee)
    return (idents, members) if found_any else None


def _known_site(index: Index, arg: str) -> bool:
    m = re.search(r"[A-Za-z_][A-Za-z0-9_]*", arg or "")
    if not m:
        return False
    name = m.group(0)
    if name in index.classes:
        return True
    if name in index.funcs_by_name:
        return True
    # Method of any class (declared, possibly not defined).
    return any(name in cm.methods for cm in index.classes.values())


def _checkpointed(cm) -> bool:
    return "saveState" in cm.methods and "loadState" in cm.methods


def _held_records(fm, cm) -> list:
    """Records declared inside `cm`, without a checkpoint of their
    own, that an unannotated member of `cm` holds."""
    held = []
    for rec in fm.classes:
        if rec.outer != cm.name or _checkpointed(rec):
            continue
        word = re.compile(rf"\b{re.escape(rec.name)}\b")
        if any(not m.static and m.annot is None and word.search(m.type)
               for m in cm.members):
            held.append(rec)
    return held


def run_serialization(index: Index, scope) -> list[Finding]:
    findings: list[Finding] = []
    for fm in index.models:
        if not scope(fm.path, "serialization"):
            continue
        for cm in fm.classes:
            if not _checkpointed(cm):
                continue
            save = _closure_idents(index, cm.name, "saveState")
            load = _closure_idents(index, cm.name, "loadState")
            if save is None or load is None:
                continue  # interface: no body anywhere
            save_names, save_members = save
            load_names, load_members = load
            # The class's own members, matched by name, then the fields
            # of the records declared inside it that it writes itself,
            # matched only as member reads.
            fields = [(m, f"{cm.name}.{m.name}", m.name, save_names,
                       load_names) for m in cm.members]
            for rec in _held_records(fm, cm):
                fields += [(m, f"{cm.name}.{rec.name}.{m.name}",
                            f"{rec.name}::{m.name}", save_members,
                            load_members) for m in rec.members]
            for m, site, shown, saved, loaded in fields:
                if m.static:
                    continue
                if m.annot == "transient":
                    continue
                if m.annot == "derived":
                    if not m.annot_arg or \
                            not _known_site(index, m.annot_arg):
                        findings.append(Finding(
                            fm.path, m.line, "serialization",
                            f"member '{m.name}' is annotated "
                            "'ckpt: derived' but names no "
                            "reconstruction site the analyzer can "
                            "see; use // ckpt: derived(<function "
                            "or class>)",
                            site + ":annot"))
                    continue
                missing = []
                if m.name not in saved:
                    missing.append("saveState")
                if m.name not in loaded:
                    missing.append("loadState")
                if missing:
                    findings.append(Finding(
                        fm.path, m.line, "serialization",
                        f"member '{cm.name}::{shown}' is not "
                        f"referenced in {' or '.join(missing)}; "
                        "serialize it or annotate "
                        "// ckpt: derived(<site>) | "
                        "// ckpt: transient(<why>)",
                        site))
    return findings
