#!/usr/bin/env python3
"""xo_lint: repo-specific static checks clang-tidy cannot express.

Deterministic, dependency-free (stdlib only). Scans first-party C++
sources and enforces the XOntoRank contract invariants:

  raw-sync        std:: synchronization primitives (mutex, lock_guard,
                  condition_variable, ...) may appear only in
                  src/common/sync.h; everything else must use the
                  annotated wrappers so Clang thread-safety analysis
                  sees every lock.                      [scope: src/]
  bare-assert     assert() compiles out under NDEBUG, silently dropping
                  the invariant in Release; use XO_CHECK* (always-on)
                  or XO_DCHECK* (explicitly debug-only) from
                  src/common/check.h.                   [scope: src/]
  new-delete      raw new/delete expressions bypass RAII ownership; use
                  std::make_unique/std::make_shared or a container.
                  Leaked singletons and private-constructor factories
                  are the sanctioned exceptions — suppress those sites
                  explicitly.                           [scope: src/]
  include-guard   headers must guard with XONTORANK_<PATH>_H_ (path
                  relative to src/, or the full path for tests/, bench/,
                  examples/), uppercased, '/'->'_'.
                                    [scope: src/ tests/ bench/ examples/]
  voided-status   casting a Status/Result-returning call to (void)
                  launders the [[nodiscard]] build error into a silently
                  dropped failure; check it, propagate it
                  (XONTO_RETURN_IF_ERROR), or XO_CHECK_OK it.
                                    [scope: src/ tests/ bench/ examples/]
  posting-by-value  range-for iterating DilPosting by value in the query
                  layer copies a heap-owned DeweyId per posting; iterate
                  by const reference, or use DilCursor/DeweyRef on the
                  serving path.                      [scope: src/core/]
  raw-mmap        mmap/munmap/madvise may appear only in
                  src/storage/segment_file.* — the single RAII owner of
                  every mapping; everywhere else takes views through
                  SegmentFile so lifetime and advice policy stay in one
                  auditable place.                      [scope: src/]
  legacy-search   the pre-SearchOptions query surface — SearchRanked()
                  and the Search(query, <integer top_k>) convenience
                  overloads — was removed when the API was finalized;
                  call Search(query, SearchOptions) so execution options
                  (pruning, strategy, cache) stay on one struct.
                                    [scope: src/ tests/ bench/ examples/]
  untrusted-decode  reinterpreting raw bytes as typed data
                  (reinterpret_cast, C-style scalar-pointer casts) is how
                  wire/mapped input reaches typed code, so it is confined
                  to the audited+fuzzed decode layer: segment_file.*,
                  coding.*, flat_dil.cc. Everywhere else must go through
                  Decoder or a SegmentFile view; the sanctioned
                  exceptions (SIMD register loads over in-memory arrays,
                  the encode direction) carry explicit suppressions.
                                                        [scope: src/]

Suppression: a comment `// xo-lint: allow(rule)` (comma-separated list
accepted) suppresses those rules on its own line and on the next line.

Usage: tools/xo_lint.py [--root DIR] [--list-rules] [files...]
Exit:  0 clean · 1 violations found · 2 usage/internal error
"""

import argparse
import os
import re
import sys

# Functions whose Status/Result return must never be (void)-discarded.
# Keep in sync with the [[nodiscard]] surface in src/ headers.
FALLIBLE_FUNCTIONS = [
    "AddIsA",
    "AddRelationship",
    "CheckCda",
    "ConvertEmrToCda",
    "DecodeManifest",
    "ExplainOntoScore",
    "ExplainResult",
    "LoadEngineDir",
    "LoadManifest",
    "LoadOntology",
    "ParseOntologyText",
    "ParseXml",
    "SaveEngineDir",
    "SaveManifest",
    "SaveOntology",
    "SaveSegment",
    "SaveSnapshot",
    "Validate",
]

SCAN_ROOTS = ("src", "tests", "bench", "examples", "fuzz")

# The audited decode layer: the only src/ files allowed to reinterpret
# wire or mapped bytes as typed data (rule: untrusted-decode). Every one
# of them is covered by a fuzz/ harness.
UNTRUSTED_DECODE_OWNERS = (
    "src/storage/segment_file.",
    "src/storage/coding.",
    "src/core/flat_dil.cc",
)
CXX_EXTENSIONS = (".h", ".cc", ".cpp")

RAW_SYNC_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?"
    r"(?:mutex|condition_variable(?:_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock)\b"
)
BARE_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
NEW_RE = re.compile(r"(?<![A-Za-z0-9_])new(?![A-Za-z0-9_])")
DELETE_RE = re.compile(r"(?<![A-Za-z0-9_])delete(?![A-Za-z0-9_])")
DELETED_FN_RE = re.compile(r"=\s*delete\b")
OPERATOR_NEWDEL_RE = re.compile(r"\boperator\s+(?:new|delete)\b")
VOIDED_STATUS_RE = re.compile(
    r"\(\s*void\s*\)\s*"
    r"(?:[A-Za-z_][A-Za-z0-9_]*\s*(?:::|\.|->)\s*)*"
    r"(?:" + "|".join(FALLIBLE_FUNCTIONS) + r")\s*\("
)
POSTING_BY_VALUE_RE = re.compile(
    r"for\s*\(\s*(?:const\s+)?DilPosting\s+[A-Za-z_][A-Za-z0-9_]*\s*:"
)
RAW_MMAP_RE = re.compile(r"\b(?:mmap|munmap|madvise)\s*\(")
# The finalized-API rule: SearchRanked is gone, and a Search(...) call
# whose last argument is an integer literal is the removed top_k
# convenience shape (Search(query, 5)). The unified surface takes a
# SearchOptions struct, never a bare count.
LEGACY_SEARCH_RANKED_RE = re.compile(r"\bSearchRanked\s*\(")
LEGACY_SEARCH_TOPK_RE = re.compile(
    r"\bSearch\s*\(\s*[^()]*,\s*\d+[uUlL]*\s*\)"
)
REINTERPRET_CAST_RE = re.compile(r"\breinterpret_cast\s*<")
# A C-style cast to pointer-to-scalar ((const uint32_t*)p, (char*)buf):
# the other spelling of byte reinterpretation. Parameter declarations
# carry a name between '*' and ')' and don't match; abstract declarators
# are excluded by requiring an operand after the ')'.
CSTYLE_BYTE_CAST_RE = re.compile(
    r"\(\s*(?:const\s+)?(?:unsigned\s+|signed\s+)?"
    r"(?:u?int(?:8|16|32|64)_t|char|float|double)\s*\*+\s*\)\s*[A-Za-z_(&]"
)
SUPPRESS_RE = re.compile(r"xo-lint:\s*allow\(([^)]*)\)")

RULE_DOCS = {
    "raw-sync": "std:: sync primitives outside src/common/sync.h",
    "bare-assert": "assert() in src/ (use XO_CHECK*/XO_DCHECK*)",
    "new-delete": "raw new/delete expression in src/",
    "include-guard": "header guard must be XONTORANK_<PATH>_H_",
    "voided-status": "(void)-cast of a Status/Result-returning call",
    "posting-by-value": "DilPosting iterated by value in src/core",
    "raw-mmap": "mmap/munmap/madvise outside src/storage/segment_file.*",
    "legacy-search": "removed SearchRanked/Search(query, top_k) call shape",
    "untrusted-decode": "byte-reinterpreting cast outside the audited "
                        "decode layer (segment_file.*, coding.*, "
                        "flat_dil.cc)",
}


def strip_comments_and_strings(text):
    """Returns (stripped_text, {line_number: comment_text}).

    Comment and string/char-literal contents are replaced by spaces
    (newlines preserved) so rule regexes never fire inside them. Raw
    string literals R"delim(...)delim" are handled. Comment text is
    collected per line for suppression parsing.
    """
    out = []
    comments = {}
    i = 0
    n = len(text)
    line = 1

    def record_comment(lineno, chunk):
        comments[lineno] = comments.get(lineno, "") + chunk

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            record_comment(line, text[i:j])
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            for k, part in enumerate(chunk.split("\n")):
                record_comment(line + k, part)
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            line += chunk.count("\n")
            i = j
        elif c == "R" and nxt == '"':
            j = text.find("(", i + 2)
            if j == -1:
                out.append(c)
                i += 1
                continue
            delim = text[i + 2 : j]
            end = text.find(")" + delim + '"', j + 1)
            end = n if end == -1 else end + len(delim) + 2
            chunk = text[i:end]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            line += chunk.count("\n")
            i = end
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            closing = quote if j - i >= 2 else ""
            out.append(quote + " " * (j - i - 2) + closing)
            i = j
        else:
            out.append(c)
            if c == "\n":
                line += 1
            i += 1
    return "".join(out), comments


def parse_suppressions(comments):
    """{line: set(rules)} — a suppression covers its line and the next."""
    allowed = {}
    for lineno, chunk in comments.items():
        for match in SUPPRESS_RE.finditer(chunk):
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            for covered in (lineno, lineno + 1):
                allowed.setdefault(covered, set()).update(rules)
    return allowed


def expected_guard(relpath):
    path = relpath[len("src/") :] if relpath.startswith("src/") else relpath
    stem = os.path.splitext(path)[0]
    return "XONTORANK_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []

    def report(self, relpath, lineno, rule, message, allowed):
        if rule in allowed.get(lineno, set()):
            return
        self.findings.append((relpath, lineno, rule, message))

    def lint_file(self, relpath):
        path = os.path.join(self.root, relpath)
        try:
            text = open(path, encoding="utf-8", errors="replace").read()
        except OSError as err:
            print(f"xo_lint: cannot read {relpath}: {err}", file=sys.stderr)
            return
        stripped, comments = strip_comments_and_strings(text)
        allowed = parse_suppressions(comments)
        lines = stripped.split("\n")
        in_src = relpath.startswith("src/")
        in_core = relpath.startswith("src/core/")
        is_sync_header = relpath == "src/common/sync.h"
        is_mapping_owner = relpath.startswith("src/storage/segment_file.")
        is_decode_owner = relpath.startswith(UNTRUSTED_DECODE_OWNERS)

        for idx, code in enumerate(lines, start=1):
            if in_src and not is_sync_header and RAW_SYNC_RE.search(code):
                self.report(
                    relpath, idx, "raw-sync",
                    "raw std:: synchronization primitive; use the annotated "
                    "wrappers in common/sync.h", allowed)
            if in_src and BARE_ASSERT_RE.search(code):
                self.report(
                    relpath, idx, "bare-assert",
                    "assert() vanishes under NDEBUG; use XO_CHECK* or "
                    "XO_DCHECK* from common/check.h", allowed)
            if in_src and not OPERATOR_NEWDEL_RE.search(code):
                if NEW_RE.search(code):
                    self.report(
                        relpath, idx, "new-delete",
                        "raw new expression; use std::make_unique/"
                        "make_shared", allowed)
                if DELETE_RE.search(code) and not DELETED_FN_RE.search(code):
                    self.report(
                        relpath, idx, "new-delete",
                        "raw delete expression; prefer RAII ownership",
                        allowed)
            if VOIDED_STATUS_RE.search(code):
                self.report(
                    relpath, idx, "voided-status",
                    "(void)-cast discards a Status/Result; check it, "
                    "XONTO_RETURN_IF_ERROR it, or XO_CHECK_OK it", allowed)
            if in_src and not is_mapping_owner and RAW_MMAP_RE.search(code):
                self.report(
                    relpath, idx, "raw-mmap",
                    "raw mmap/munmap/madvise call; SegmentFile "
                    "(src/storage/segment_file.h) is the single owner of "
                    "file mappings — take a view through it", allowed)
            if LEGACY_SEARCH_RANKED_RE.search(code) or \
                    LEGACY_SEARCH_TOPK_RE.search(code):
                self.report(
                    relpath, idx, "legacy-search",
                    "the SearchRanked/Search(query, top_k) overloads were "
                    "removed; call Search(query, SearchOptions) — set "
                    "top_k (and pruning, strategy, cache) on the options "
                    "struct", allowed)
            if in_src and not is_decode_owner and (
                    REINTERPRET_CAST_RE.search(code) or
                    CSTYLE_BYTE_CAST_RE.search(code)):
                self.report(
                    relpath, idx, "untrusted-decode",
                    "byte-reinterpreting cast outside the audited decode "
                    "layer; parse through Decoder (storage/coding.h) or a "
                    "SegmentFile view so every wire-byte interpretation "
                    "stays in the fuzzed files", allowed)
            if in_core and POSTING_BY_VALUE_RE.search(code):
                self.report(
                    relpath, idx, "posting-by-value",
                    "DilPosting iterated by value copies a heap DeweyId "
                    "per posting; iterate by const reference or use "
                    "DilCursor", allowed)

        if relpath.endswith(".h"):
            self.lint_include_guard(relpath, lines, allowed)

    def lint_include_guard(self, relpath, lines, allowed):
        want = expected_guard(relpath)
        ifndef_line = 0
        guard = None
        for idx, code in enumerate(lines, start=1):
            stripped = code.strip()
            if not stripped:
                continue
            match = re.match(r"#\s*ifndef\s+([A-Za-z0-9_]+)\s*$", stripped)
            if match:
                ifndef_line, guard = idx, match.group(1)
            break
        if guard is None:
            self.report(relpath, 1, "include-guard",
                        f"missing include guard; expected #ifndef {want}",
                        allowed)
            return
        if guard != want:
            self.report(relpath, ifndef_line, "include-guard",
                        f"guard is {guard}; expected {want}", allowed)
            return
        define = lines[ifndef_line].strip() if ifndef_line < len(lines) else ""
        if not re.match(r"#\s*define\s+" + re.escape(want) + r"\s*$", define):
            self.report(relpath, ifndef_line + 1, "include-guard",
                        f"#ifndef {want} must be followed by #define {want}",
                        allowed)


def collect_files(root):
    files = []
    for scan_root in SCAN_ROOTS:
        top = os.path.join(root, scan_root)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(
                        os.path.relpath(os.path.join(dirpath, name), root))
    return files


def main(argv):
    parser = argparse.ArgumentParser(prog="xo_lint.py", add_help=True)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("files", nargs="*",
                        help="paths relative to root (default: full scan)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULE_DOCS):
            print(f"{rule:16} {RULE_DOCS[rule]}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(root)
    if not os.path.isdir(root):
        print(f"xo_lint: no such root: {root}", file=sys.stderr)
        return 2

    if args.files:
        files = []
        for f in args.files:
            rel = os.path.relpath(os.path.abspath(f), root) \
                if os.path.isabs(f) else f
            files.append(rel.replace(os.sep, "/"))
    else:
        files = collect_files(root)

    linter = Linter(root)
    for relpath in sorted(files):
        linter.lint_file(relpath.replace(os.sep, "/"))

    for relpath, lineno, rule, message in linter.findings:
        print(f"{relpath}:{lineno}: [{rule}] {message}")
    if linter.findings:
        print(f"xo_lint: {len(linter.findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"xo_lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
