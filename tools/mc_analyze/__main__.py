"""mc_analyze CLI — semantic whole-repo analyzer.

    python3 tools/mc_analyze [paths...] [options]

With no paths, analyzes src/, tools/, bench/. Exit codes: 0 clean,
1 findings, 2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

import uparse
import clang_front
from allowlist import Allowlist
from cache import ModelCache
from model import FileModel, Finding
from passes import ALL_PASSES, Index

_EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")
_DEFAULT_ROOTS = ("src", "tools", "bench")
_SKIP_DIRS = {"build", ".git", ".cache", "__pycache__"}


def collect_files(repo_root: str, paths: list[str]) -> list[str]:
    """Repo-relative paths of analyzable sources."""
    out: list[str] = []
    roots = paths or [r for r in _DEFAULT_ROOTS
                      if os.path.isdir(os.path.join(repo_root, r))]
    for root in roots:
        full = os.path.join(repo_root, root)
        if os.path.isfile(full):
            out.append(os.path.relpath(full, repo_root))
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in _SKIP_DIRS and
                not d.startswith("build-"))
            for name in sorted(filenames):
                if name.endswith(_EXTS):
                    out.append(os.path.relpath(
                        os.path.join(dirpath, name), repo_root))
    return out


class Scope:
    """scope(path, kind) -> bool: which check applies where.

      wrap          src/ tools/ bench/  (everything scanned)
      serialization everything scanned
      det-src       src/ only (unordered iteration, entropy,
                    stats-bypass)
      det-all       everything scanned (wall-clock)
      concurrency   src/runner/ only
      write-path    src/ and tools/
      globals       src/ only
      includes      src/ only

    Fixture mode applies every check to every file and checks a
    fixture as if its directory were src/.
    """

    _ROOTS = {"det-src": ("src/",), "concurrency": ("src/runner/",),
              "write-path": ("src/", "tools/"), "globals": ("src/",),
              "includes": ("src/",)}

    def __init__(self, repo_root: str, fixture_mode: bool):
        self.repo_root = repo_root
        self.fixture_mode = fixture_mode

    def __call__(self, path: str, kind: str) -> bool:
        roots = self._ROOTS.get(kind)
        return self.fixture_mode or roots is None or \
            path.startswith(roots)

    def src_path(self, path: str) -> str:
        """`path` relative to its src/ root."""
        if self.fixture_mode:
            return os.path.basename(path)
        return path[len("src/"):]

    def src_root(self, path: str) -> str:
        return os.path.join(self.repo_root,
                            os.path.dirname(path)
                            if self.fixture_mode else "src")


def parse_one(repo_root: str, rel: str, frontend: str,
              cache: ModelCache, clang: str | None,
              flags: dict) -> FileModel:
    full = os.path.join(repo_root, rel)
    with open(full, "rb") as f:
        content = f.read()
    fe = "clang" if (frontend == "clang" or
                     (frontend == "auto" and clang)) else "uparse"
    cached = cache.get(content, fe)
    if cached is not None:
        cached.path = rel  # key is content-based; path may move
        return cached
    text = content.decode("utf-8", errors="replace")
    if fe == "clang" and clang:
        fm = clang_front.parse_file(full, rel, text, clang, flags)
    else:
        fm = uparse.parse_file(rel, text)
    cache.put(content, fe, fm)
    return fm


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="mc_analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to analyze (default: "
                         "src/ tools/ bench/)")
    ap.add_argument("--repo-root", default=".")
    ap.add_argument("--cache-dir", default=None,
                    help="AST/model cache dir (default: "
                         "<repo>/.cache/mc_analyze; '' disables)")
    ap.add_argument("--frontend", default="auto",
                    choices=("auto", "clang", "uparse"),
                    help="decl-fact frontend (auto: clang when a "
                         "driver is on PATH, else uparse)")
    ap.add_argument("--checks", default=",".join(ALL_PASSES),
                    help="comma-separated pass subset")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: "
                         "tools/mc_analyze_allow.txt when present)")
    ap.add_argument("--fixture-mode", action="store_true",
                    help="apply every pass to every file "
                         "regardless of path (test fixtures)")
    ap.add_argument("--selftest-clang-extract", default=None,
                    metavar="DUMP.json",
                    help="parse a clang -ast-dump=json file and "
                         "print extracted decl facts (no clang "
                         "binary needed)")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.selftest_clang_extract:
        import json
        with open(args.selftest_clang_extract,
                  encoding="utf-8") as f:
            dump = json.load(f)
        facts = clang_front.extract_decls(
            dump, args.selftest_clang_extract)
        for section in ("aliases", "members", "params", "rets"):
            for k, v in sorted(facts[section].items(),
                               key=lambda kv: str(kv[0])):
                key = ".".join(k) if isinstance(k, tuple) else k
                print(f"{section}: {key} -> {v}")
        return 0

    repo_root = os.path.abspath(args.repo_root)
    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = os.path.join(repo_root, ".cache", "mc_analyze")
    cache = ModelCache(cache_dir or None)

    clang = clang_front.clang_binary() \
        if args.frontend in ("auto", "clang") else None
    if args.frontend == "clang" and not clang:
        print("mc_analyze: --frontend clang but no clang driver "
              "on PATH", file=sys.stderr)
        return 2
    flags = clang_front.load_compile_flags(repo_root) if clang \
        else {}

    files = collect_files(repo_root, args.paths)
    models = [parse_one(repo_root, rel, args.frontend, cache,
                        clang, flags) for rel in files]
    index = Index(models)
    scope = Scope(repo_root, args.fixture_mode)

    allow_path = args.allowlist
    if allow_path is None:
        cand = os.path.join(repo_root, "tools",
                            "mc_analyze_allow.txt")
        allow_path = cand if os.path.exists(cand) else ""
    allow = Allowlist(allow_path or None)

    findings: list[Finding] = []
    for name in args.checks.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in ALL_PASSES:
            print(f"mc_analyze: unknown check '{name}' (have: "
                  f"{', '.join(ALL_PASSES)})", file=sys.stderr)
            return 2
        findings.extend(ALL_PASSES[name](index, scope))
    findings = [f for f in findings if not allow.permits(f)]
    findings.extend(allow.residual_findings())
    findings.sort(key=lambda f: (f.path, f.line, f.check))

    for f in findings:
        print(f)
    if not args.quiet or findings:
        fe = "clang" if clang else "uparse"
        print(f"mc_analyze: {len(files)} files "
              f"({cache.hits} cached, {cache.misses} parsed) "
              f"frontend={fe} findings={len(findings)}")
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"mc_analyze: internal error: {exc}",
              file=sys.stderr)
        sys.exit(2)
