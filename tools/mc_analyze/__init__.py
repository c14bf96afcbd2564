"""mc_analyze -- AST-level semantic analyzer for MorphCache.

Five whole-repo passes over a per-file semantic model extracted from
C++ sources (DESIGN.md section 14). It is the repo's only analyzer:

``wrap-safety``
    Unsigned subtraction / ``-=`` / decrement on cycle/byte/count
    typed expressions must route through the saturating helpers in
    ``src/common/bitops.hh`` (``satSub``/``satDec``) or carry an
    audited allowlist entry.

``serialization``
    Every class defining both ``saveState`` and ``loadState`` must
    reference every non-static data member in both (transitively
    through same-class helpers), or annotate the member
    ``// ckpt: derived(<site>)`` / ``// ckpt: transient(<reason>)``.

``determinism``
    No iteration over ``unordered_map``/``unordered_set`` in
    simulation code (ordered sinks -- stats dumps, trace emits,
    manifest appends -- must never observe hash order), and the
    entropy/wall-clock/stdout bans resolved at the call level, in
    function bodies and outside them (initializers, default
    arguments).

``concurrency``
    Mutable state shared with thread entry points in ``src/runner``
    must be ``std::atomic``, written under a visible lock guard, or
    confined to the pre-fan-out phase (allowlisted as such).

``structure``
    Write-path I/O only through the Vfs seam, no mutable
    namespace-scope state in ``src/``, and include hygiene (guards,
    own header first, ``src/``-relative includes).

The model comes from one of two frontends: ``clang`` (driven by
``compile_commands.json`` and ``clang -Xclang -ast-dump=json``) when
a clang driver is installed, else the built-in ``uparse`` frontend
(a stdlib-only C++ tokenizer + declaration/expression extractor).
Both produce the same model schema, so pass logic is frontend
agnostic. Models are cached keyed on file-content hash.

Sanctioned exceptions are per-site entries, each with its
justification, in ``tools/mc_analyze_allow.txt``.

Stdlib only; no third-party dependencies.
"""
