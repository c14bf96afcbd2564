"""Pass 3: determinism at AST level.

Two layers:

  * **Unordered iteration**: a range-for (or explicit .begin()
    loop) over ``unordered_map``/``unordered_set`` state inside
    simulation code. Hash-order iteration feeding any ordered sink
    (stats dump, trace emit, manifest append, checkpoint bytes) is
    exactly how -jN stops being -j1; the repo convention is to copy
    to a vector and sort (see AcfActiveLines::saveState). Flagged
    unconditionally in ``src/`` — an order-insensitive reduction is
    allowlisted with its justification.

  * **Entropy / wall-clock / stdout bans** resolved at the call
    level: a call to ``rand()``, ``time()``, ``clock_gettime()``
    etc. is flagged as a *call*, so accessor methods named
    ``time()`` or comments need no pattern gymnastics. Calls outside
    function bodies (namespace-scope and in-class initializers,
    default arguments, constructor initializer lists) are read from
    the file's synthetic ``<file-scope>``; declared types there come
    from namespace-scope variables and class members. The clock shim
    ``src/perf/clock.cc`` is the one file that may read a clock;
    every other sanctioned site is an allowlist entry.
"""

from __future__ import annotations

import re

from model import Finding
from passes.common import Index, norm, receiverless, scopes, \
    strip_cv_ref

#: The sanctioned clock shim (DESIGN.md section 13).
CLOCK_SEAM = "src/perf/clock.cc"

_UNORDERED = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")
_CLOCKS = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock)\b")
_CLOCK_CALLS = {"gettimeofday", "clock_gettime", "timespec_get"}
_ENTROPY_CALLS = {"rand", "srand"}
_TIME_CALLS = {"time", "clock"}


def run_determinism(index: Index, scope) -> list[Finding]:
    findings: list[Finding] = []
    for fm in index.models:
        in_src = scope(fm.path, "det-src")
        clocks = scope(fm.path, "det-all") and fm.path != CLOCK_SEAM
        if in_src:
            for fn in fm.functions:
                _unordered_loops(index, fm.path, fn, findings)
        for site, _, calls, typed in scopes(fm):
            if in_src:
                _entropy(fm.path, site, calls, typed, findings)
                _stats_bypass(fm.path, site, calls, findings)
            if clocks:
                _wall_clock(fm.path, site, calls, typed, findings)
    return findings


def _unordered_loops(index, path, fn, findings):
    for lp in fn.loops:
        t = index.resolve_chain(fn, lp.expr)
        if not t:
            t = index.scope_type(fn, lp.expr_type)
        t = index.resolve_alias(strip_cv_ref(t))
        if not _UNORDERED.search(t):
            continue
        findings.append(Finding(
            path, lp.line, "determinism",
            f"iteration over unordered container '{lp.expr}' "
            f"({t}): hash order must not reach an ordered sink; "
            "copy to a vector and sort, or allowlist an "
            "order-insensitive reduction",
            f"{fn.name}:{norm(lp.expr)}"))


def _entropy(path, site, calls, typed, findings):
    for call in calls:
        callee, line = call[0], call[1]
        name = receiverless(callee)
        if name in _ENTROPY_CALLS:
            findings.append(Finding(
                path, line, "determinism",
                f"call to {name}(): simulation code derives values "
                "from seeds/cycles (DESIGN.md section 9)",
                f"{site}:{name}"))
        elif name in _TIME_CALLS:
            findings.append(Finding(
                path, line, "determinism",
                f"call to libc {name}(): wall time must not feed "
                "simulation state (DESIGN.md section 9)",
                f"{site}:{name}"))
    for t, line in typed:
        if "random_device" in t:
            findings.append(Finding(
                path, line, "determinism",
                "std::random_device: nondeterministic entropy "
                "source in simulation code",
                f"{site}:random_device"))


def _wall_clock(path, site, calls, typed, findings):
    for call in calls:
        callee, line = call[0], call[1]
        name = receiverless(callee)
        if name in _CLOCK_CALLS or (name and _CLOCKS.search(callee)):
            findings.append(Finding(
                path, line, "wall-clock",
                f"wall-clock read '{callee}' outside the sanctioned "
                "clock sites; call perfNowNs()/unixNowSec() "
                "(src/perf/clock.hh)",
                f"{site}:{norm(callee)}"))
    for t, line in typed:
        if _CLOCKS.search(t):
            findings.append(Finding(
                path, line, "wall-clock",
                f"wall-clock typed declaration ({t}) outside the "
                "sanctioned clock sites (src/perf/clock.hh)",
                f"{site}:{norm(t)}"))


def _stats_bypass(path, site, calls, findings):
    for call in calls:
        callee, line, arg0 = call[0], call[1], call[2]
        name = receiverless(callee)
        if callee == "std::cout" or name in ("puts", "putchar") or \
                name == "printf" or \
                (name == "fprintf" and arg0 == "stdout"):
            what = callee if callee == "std::cout" else f"{name}()"
            findings.append(Finding(
                path, line, "stats-bypass",
                f"{what} bypasses StatsRegistry/logging; stdout "
                "carries only registry-reported bytes",
                f"{site}:{name or 'cout'}"))
