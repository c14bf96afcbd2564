"""Pass 5: structural conventions.

``write-path``
    Every durable byte in ``src/`` and ``tools/`` moves through the
    Vfs seam (``src/io/vfs.hh``) -- ``vfs()``, ``atomicWriteFile``,
    ``vfsWriteWholeFile`` -- so ``FaultyVfs`` can interpose on it
    and ``mc_iofuzz`` can fault-inject it (DESIGN.md section 15).
    Flagged at the call level, bodies and file scope alike: a call
    without a receiver to a raw primitive that places, mutates,
    publishes or flushes bytes (``open``/``write``/``fsync``/
    ``truncate``/``unlink``/``mkdir``/``rename``/``link``/``fwrite``
    and friends), an ``fopen``/``freopen``/``fdopen`` whose mode
    literal writes (``w``, ``a`` or ``+``) or is not a literal, and
    any ``std::ofstream``/``std::fstream``. Read-side calls stay
    allowed (``fopen(path, "rb")``, ``ifstream``): they cannot tear
    a file, and an unqualified call that resolves to a method of the
    enclosing class (a static ``write()`` helper) is not the syscall.
    The seam itself, ``src/io/vfs.cc``, is exempt.

``globals``
    No mutable namespace-scope variable in ``src/``: shared mutable
    globals are how -jN stops being -j1, so state lives in a
    per-cell object (DESIGN.md section 9 rule 2). A declaration
    spelling const/constexpr/constinit counts as immutable; the
    sanctioned process-wide registries are allowlisted per variable.

``includes``
    Include hygiene in ``src/``: quoted includes resolve under
    ``src/``, a header's guard is ``MORPHCACHE_<PATH>_HH`` for its
    ``src/``-relative path, a ``.cc`` includes its own header first
    (proving the header self-contained), and ``<bits/stdc++.h>``
    never appears.
"""

from __future__ import annotations

import os
import re

from model import Finding
from passes.common import Index, norm, receiverless, scopes

#: The one translation unit that may name raw write-path I/O.
VFS_SEAM = "src/io/vfs.cc"

_RAW_WRITES = {
    "open", "openat", "creat", "write", "pwrite", "pwritev", "fwrite",
    "fputs", "fputc", "fsync", "fdatasync", "ftruncate", "truncate",
    "unlink", "unlinkat", "mkdir", "mkdirat", "rename", "renameat",
    "renameat2", "link", "linkat",
}
_FOPENS = {"fopen", "freopen", "fdopen"}
_STREAMS = re.compile(r"\b(?:std::)?o?fstream\b")


def run_structure(index: Index, scope) -> list[Finding]:
    findings: list[Finding] = []
    for fm in index.models:
        if scope(fm.path, "write-path") and fm.path != VFS_SEAM:
            _write_path(index, fm, findings)
        if scope(fm.path, "globals"):
            _globals(fm, findings)
        if scope(fm.path, "includes"):
            _includes(scope, fm, findings)
    return findings


def _write_path(index, fm, findings):
    for site, cls, calls, typed in scopes(fm):
        for callee, line, _, mode in calls:
            name = receiverless(callee)
            if callee == name and cls and index.has_method(cls, name):
                continue  # this->name(...), not the libc call
            if name in _RAW_WRITES:
                what = f"raw {name}()"
            elif name in _FOPENS and mode is None:
                what = f"{name}() with a non-literal mode"
            elif name in _FOPENS and set(mode) & set("wa+"):
                what = f'{name}(..., "{mode}")'
            elif name in ("ofstream", "fstream"):
                what = f"std::{name}"
            else:
                continue
            findings.append(Finding(
                fm.path, line, "write-path",
                f"{what} outside the Vfs seam; write through vfs(), "
                "atomicWriteFile or vfsWriteWholeFile (src/io/vfs.hh)"
                " so mc_iofuzz can inject faults at this site "
                "(DESIGN.md section 15)",
                f"{site}:{name}"))
        for t, line in typed:
            if _STREAMS.search(t):
                findings.append(Finding(
                    fm.path, line, "write-path",
                    f"{t} writes a file outside the Vfs seam "
                    "(src/io/vfs.hh)",
                    f"{site}:{norm(t)}"))


def _globals(fm, findings):
    for g in fm.globals:
        if not g.const:
            findings.append(Finding(
                fm.path, g.line, "globals",
                f"mutable namespace-scope variable '{g.name}'; move "
                "it into a per-cell object or allowlist a sanctioned "
                "process-wide registry (DESIGN.md section 9 rule 2)",
                g.name))


def _includes(scope, fm, findings):
    rel = scope.src_path(fm.path)
    root = scope.src_root(fm.path)
    quoted = []
    for line, kind, target in fm.includes:
        if target == "bits/stdc++.h":
            findings.append(Finding(
                fm.path, line, "includes",
                "<bits/stdc++.h> is non-standard and defeats "
                "include-what-you-use", "bits/stdc++.h"))
        elif kind == '"':
            quoted.append(target)
            if not os.path.isfile(os.path.join(root, target)):
                findings.append(Finding(
                    fm.path, line, "includes",
                    f'"{target}" does not resolve under src/ '
                    "(project includes are src/-relative)",
                    f"unresolved:{target}"))
    if rel.endswith(".hh"):
        guard = "MORPHCACHE_" + re.sub(r"[^A-Z0-9]", "_", rel.upper())
        if fm.guard != (guard, guard):
            findings.append(Finding(
                fm.path, 1, "includes",
                f"header guard must be '{guard}' (#ifndef/#define "
                "pair)", "guard"))
    elif rel.endswith(".cc"):
        own = rel[:-len(".cc")] + ".hh"
        if os.path.isfile(os.path.join(root, own)) and \
                quoted[:1] != [own]:
            findings.append(Finding(
                fm.path, fm.includes[0][0] if fm.includes else 1,
                "includes",
                f'first include must be "{own}" (own header first '
                "proves it is self-contained)", "own-header-first"))
