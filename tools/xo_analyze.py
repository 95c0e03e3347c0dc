#!/usr/bin/env python3
"""xo_analyze: AST-grounded lifetime & invariant analysis for src/.

Where tools/xo_lint.py matches single lines, this tool parses real
declarations, scopes, types and statement order, and enforces the
zero-copy serving path's lifetime and concurrency invariants as named
rules:

  view-escape         a function whose return type is a non-owning view
                      (string_view, span, DeweyRef, DilListRef) returns —
                      or a method stores into a view member — data derived
                      from a local owning object or by-value parameter;
                      the storage dies with the frame and the view
                      dangles.                            [scope: src/]
  backing-before-view a class holding (directly or transitively) a member
                      that can alias external mapped memory —
                      FlatDil::Sections, or a class that itself holds one
                      without pinning it — must also hold a backing
                      member (shared_ptr<const void>, SegmentFile, or a
                      smart pointer to one) declared BEFORE the first
                      such member: members destroy in reverse order, so
                      the mapping outlives every view (FlatDil's pin_
                      before its Sections v_, DESIGN.md §11).
                                                          [scope: src/]
  snapshot-pin        calling .get() directly on a shared_ptr returned by
                      value (XOntoRank::snapshot(), make_shared, ...) and
                      storing the raw pointer: the temporary shared_ptr
                      dies at the end of the statement, so nothing pins
                      the snapshot the raw pointer addresses. Requests
                      must hold the shared_ptr itself.    [scope: src/]
  lock-order          cross-TU partial-order check over the named
                      process-wide locks (engine_store SaveMutex before
                      the file_io DurableFileMutex):
                      while one is held, no direct or
                      transitive callee may acquire a lock of lower or
                      equal level (DESIGN.md §9).         [scope: src/]
  view-outlives-unmap a view into a SegmentFile's metadata (sections())
                      is used after the SegmentFile local is reset,
                      reassigned, moved from, or destroyed by scope exit
                      — use-after-unmap. MakeView() views are exempt:
                      they pin the file.                  [scope: src/]
  unjustified-allow   every `xo-analyze: allow(rule)` suppression must
                      name a known rule and carry a one-line
                      justification after the closing parenthesis.

Frontends. Rules run over a small neutral IR (classes with ordered typed
members, functions with typed locals, statements, calls and returns)
that two frontends can produce:

  builtin   a dependency-free C++ tokenizer + declaration/statement
            parser tuned to this repo's style. Always available; the
            default gate everywhere, including GCC-only machines.
  clang     libclang via the Python `clang.cindex` bindings, driven by
            build/compile_commands.json — the ground-truth AST. Used
            automatically when importable (CI pins it); skips gracefully
            when absent, mirroring run_lint.sh's contract.

Suppression: `// xo-analyze: allow(rule)` (comma-separated list) covers
its own line, any directly following comment-only lines, and the first
code line after them; it must carry a justification.

Usage: tools/xo_analyze.py [--root DIR] [--frontend auto|builtin|clang]
                           [--compile-commands PATH] [--baseline PATH]
                           [--write-baseline PATH] [--list-rules]
                           [--self-test] [files...]
Exit:  0 clean (or frontend skipped) · 1 findings · 2 usage/internal error
"""

import argparse
import json
import os
import re
import sys
import tempfile

# ---------------------------------------------------------------------------
# Configuration: the type vocabulary the rules reason about.
# ---------------------------------------------------------------------------

# Return types that are non-owning views over someone else's storage.
VIEW_RETURN_TYPES = {"string_view", "span", "DeweyRef", "DilListRef"}

# Local/parameter types that own their storage (frame-lifetime when local).
OWNING_TYPES = {
    "string", "vector", "array", "deque", "map", "set", "unordered_map",
    "unordered_set", "ostringstream", "stringstream",
    "FlatDil", "DeweyId", "Corpus",
}

# Types that can alias external mapped memory when held by value. Holding
# one (transitively) obliges the holder to pin a backing member first.
# FlatDil is not a root: it holds Sections after its own pin, so it is
# checked like any other holder.
MAPPED_VIEW_ROOTS = {"Sections"}

# Member types that count as the backing keep-alive.
BACKING_MEMBER_MARKERS = ("SegmentFile",)  # by value or smart pointer
SMART_PTRS = {"shared_ptr", "unique_ptr", "weak_ptr"}

# Raw (non-propagating) view member types: ordering is checked when a
# backing member coexists, but they do not by themselves demand one
# (cursors and refs are transient by design).
RAW_VIEW_MEMBER_TYPES = {"string_view", "span", "DeweyRef", "DilListRef",
                         "DilCursor"}

# The documented partial order over the named process-wide locks: a lock
# may only be acquired while holding locks of strictly LOWER level.
LOCK_LEVELS = {
    "SaveMutex": (1, "engine_store.cc whole-directory save lock"),
    "DurableFileMutex": (2, "file_io.cc temp+fsync+rename file lock"),
}

# shared_ptr factories that are always pin sources for snapshot-pin.
PTR_FACTORIES = {"make_shared", "make_unique"}

# SegmentFile methods whose results alias the mapping without pinning it
# (view-outlives-unmap). MakeView() is not one: its FlatDil shares
# ownership of the SegmentFile.
VIEW_MAKERS = {"sections"}

RULE_DOCS = {
    "view-escape": "view return/store derived from frame-local owning "
                   "storage",
    "backing-before-view": "mapped-view-capable member without a backing "
                           "member declared before it",
    "snapshot-pin": ".get() on a temporary shared_ptr stored as a raw "
                    "pointer (unpinned snapshot)",
    "lock-order": "named lock acquired under a lock of equal or higher "
                  "level (SaveMutex < DurableFileMutex)",
    "view-outlives-unmap": "SegmentFile sections() view used after "
                           "reset/move/scope death of its mapping",
    "unjustified-allow": "xo-analyze suppression without a justification "
                         "or naming an unknown rule",
}

SUPPRESS_RE = re.compile(r"xo-analyze:\s*allow\(([^)]*)\)(.*)")

CXX_EXTENSIONS = (".h", ".cc", ".cpp")

# ---------------------------------------------------------------------------
# Token layer.
# ---------------------------------------------------------------------------

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
    "class", "const", "constexpr", "consteval", "constinit", "continue",
    "decltype", "default", "delete", "do", "double", "else", "enum",
    "explicit", "export", "extern", "false", "final", "float", "for",
    "friend", "goto", "if", "inline", "int", "long", "mutable", "namespace",
    "new", "noexcept", "nullptr", "operator", "override", "private",
    "protected", "public", "register", "return", "short", "signed",
    "sizeof", "static", "static_assert", "static_cast", "const_cast",
    "dynamic_cast", "reinterpret_cast", "struct", "switch", "template",
    "this", "thread_local", "throw", "true", "try", "typedef", "typeid",
    "typename", "union", "unsigned", "using", "virtual", "void",
    "volatile", "while",
}

# Fundamental type keywords usable as the first token of a declaration.
TYPE_KEYWORDS = {"auto", "bool", "char", "double", "float", "int", "long",
                 "short", "signed", "unsigned", "void", "size_t"}

MULTI_PUNCT = ("->*", "...", "::", "->", "==", "!=", "<=", ">=", "+=",
               "-=", "*=", "/=", "%=", "&=", "|=", "^=", "&&", "||",
               "++", "--")

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Attribute-macro heuristic: ALL_CAPS with an underscore (XO_GUARDED_BY,
# XO_CAPABILITY, ...). Requiring the underscore keeps single-letter and
# plain-caps class names (C, DAG) parsing as ordinary identifiers.
ALLCAPS_RE = re.compile(r"^[A-Z][A-Z0-9]*_[A-Z0-9_]*$")


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


def tokenize(text):
    """Returns (tokens, comments) — comments is {line: concatenated text}.

    Strings/chars become empty-literal tokens, comments are recorded for
    suppression parsing, preprocessor lines (with continuations) are
    dropped, raw strings handled.
    """
    tokens = []
    comments = {}
    i, n, line = 0, len(text), 1
    line_has_token = False

    def record_comment(lineno, chunk):
        comments[lineno] = comments.get(lineno, "") + chunk

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            line += 1
            line_has_token = False
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            record_comment(line, text[i:j])
            i = j
            continue
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            for k, part in enumerate(chunk.split("\n")):
                record_comment(line + k, part)
            line += chunk.count("\n")
            i = j
            continue
        if c == "#" and not line_has_token:
            # Preprocessor directive: skip to end of line, honoring
            # backslash continuations.
            while i < n:
                j = text.find("\n", i)
                if j == -1:
                    i = n
                    break
                # A continuation ends the line with a backslash.
                k = j - 1
                while k >= 0 and text[k] in " \t\r":
                    k -= 1
                line += 1
                i = j + 1
                if k < 0 or text[k] != "\\":
                    break
            line_has_token = False
            continue
        if c == "R" and nxt == '"':
            j = text.find("(", i + 2)
            if j != -1:
                delim = text[i + 2:j]
                end = text.find(")" + delim + '"', j + 1)
                end = n if end == -1 else end + len(delim) + 2
                chunk = text[i:end]
                tokens.append(Token("str", '""', line))
                line += chunk.count("\n")
                line_has_token = True
                i = end
                continue
        if c == '"' or c == "'":
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
            tokens.append(Token("str" if quote == '"' else "chr",
                                quote + quote, line))
            line_has_token = True
            i = j
            continue
        m = IDENT_RE.match(text, i)
        if m:
            tokens.append(Token("id", m.group(0), line))
            line_has_token = True
            i = m.end()
            continue
        if c.isdigit() or (c == "." and nxt.isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._'+-"
                             and text[j - 1] in "eEpP"):
                if text[j] in "+-" and text[j - 1] not in "eEpP":
                    break
                j += 1
            tokens.append(Token("num", text[i:j], line))
            line_has_token = True
            i = j
            continue
        matched = False
        for p in MULTI_PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                matched = True
                break
        if not matched:
            tokens.append(Token("punct", c, line))
            i += 1
        line_has_token = True
    return tokens, comments


OPEN_TO_CLOSE = {"(": ")", "[": "]", "{": "}"}


def match_balanced(toks, i):
    """toks[i] is an opener; returns index one past its matching closer."""
    opener = toks[i].text
    closer = OPEN_TO_CLOSE[opener]
    depth = 0
    j = i
    n = len(toks)
    while j < n:
        t = toks[j].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return j + 1
        j += 1
    return n


def idents(toks):
    return {t.text for t in toks if t.kind == "id" and t.text not in KEYWORDS}


def calls(toks):
    """(name, line) for every identifier directly followed by '('. Skips
    C++ keywords and ALL_CAPS macro invocations."""
    out = []
    for i, t in enumerate(toks[:-1]):
        if (t.kind == "id" and t.text not in KEYWORDS
                and not ALLCAPS_RE.match(t.text)
                and toks[i + 1].text == "("):
            out.append((t.text, t.line))
    return out


def find_subseq(toks, texts):
    """Index of the first occurrence of the exact token-text sequence."""
    n, m = len(toks), len(texts)
    for i in range(n - m + 1):
        if all(toks[i + k].text == texts[k] for k in range(m)):
            return i
    return -1


# ---------------------------------------------------------------------------
# IR.
# ---------------------------------------------------------------------------

class Member:
    __slots__ = ("name", "type_tokens", "line")

    def __init__(self, name, type_tokens, line):
        self.name = name
        self.type_tokens = type_tokens  # list of token texts
        self.line = line


class ClassDecl:
    __slots__ = ("name", "qualified", "members", "line", "path")

    def __init__(self, name, qualified, line, path):
        self.name = name
        self.qualified = qualified
        self.members = []
        self.line = line
        self.path = path


class Stmt:
    """kind: 'decl' | 'expr' | 'return' | 'block'."""
    __slots__ = ("kind", "line", "tokens", "type_tokens", "name", "init",
                 "children")

    def __init__(self, kind, line, tokens=None, type_tokens=None, name=None,
                 init=None, children=None):
        self.kind = kind
        self.line = line
        self.tokens = tokens or []
        self.type_tokens = type_tokens or []
        self.name = name
        self.init = init or []
        self.children = children or []


class FunctionDecl:
    __slots__ = ("name", "qualified", "class_name", "return_type", "params",
                 "body", "line", "path")

    def __init__(self, name, qualified, class_name, return_type, params,
                 body, line, path):
        self.name = name
        self.qualified = qualified
        self.class_name = class_name  # enclosing class qualified name or None
        self.return_type = return_type  # list of token texts
        self.params = params  # list of (type_texts, name_or_None)
        self.body = body  # list of Stmt, or None for a pure declaration
        self.line = line
        self.path = path


class FileIR:
    __slots__ = ("path", "classes", "functions", "suppressions",
                 "allow_issues")

    def __init__(self, path):
        self.path = path
        self.classes = []
        self.functions = []
        self.suppressions = {}  # line -> set(rules)
        self.allow_issues = []  # (line, message)


# ---------------------------------------------------------------------------
# Suppressions (textual layer, shared by both frontends).
# ---------------------------------------------------------------------------

def parse_suppressions(comments, token_lines=frozenset()):
    """Returns ({line: set(rules)}, [(line, message)]) — the second item
    lists unjustified or unknown-rule allow() comments.

    Coverage: the allow() line, any immediately-following comment-only
    lines (so a multi-line justification stays one suppression), and the
    first code line after the comment block."""
    allowed = {}
    issues = []
    for lineno in sorted(comments):
        for match in SUPPRESS_RE.finditer(comments[lineno]):
            rules = {r.strip() for r in match.group(1).split(",")
                     if r.strip()}
            unknown = sorted(r for r in rules if r not in RULE_DOCS)
            if unknown:
                issues.append(
                    (lineno, "allow() names unknown rule(s): "
                     + ", ".join(unknown)))
            justification = match.group(2).strip(" -—:;.\t")
            if len(re.sub(r"[^A-Za-z0-9]", "", justification)) < 3:
                issues.append(
                    (lineno, "allow() without a one-line justification "
                     "after the closing parenthesis"))
            end = lineno
            while end + 1 in comments and end + 1 not in token_lines:
                end += 1
            for covered in range(lineno, end + 2):
                allowed.setdefault(covered, set()).update(rules)
    return allowed, issues


# ---------------------------------------------------------------------------
# Builtin frontend: a recursive-descent parser for the repo's C++ subset.
# ---------------------------------------------------------------------------

DECL_QUALIFIERS = {"static", "const", "constexpr", "mutable", "inline",
                   "thread_local", "volatile", "register", "explicit",
                   "virtual", "extern", "typename"}

NON_TYPE_STARTERS = {"return", "delete", "throw", "goto", "break",
                     "continue", "new", "case", "default", "else", "do",
                     "try", "catch", "sizeof", "this", "operator",
                     "static_cast", "const_cast", "dynamic_cast",
                     "reinterpret_cast", "co_return", "co_await",
                     "co_yield"}


def consume_type(toks, i):
    """Consumes a type at toks[i]: qualified id chain with balanced
    template args, then ptr/ref/const suffixes. Returns the index one past
    the type, or None when toks[i] cannot start a type."""
    n = len(toks)
    if i >= n:
        return None
    if toks[i].text == "::":
        i += 1
    if i >= n or toks[i].kind != "id":
        return None
    if toks[i].text in NON_TYPE_STARTERS:
        return None
    if toks[i].text in KEYWORDS and toks[i].text not in TYPE_KEYWORDS:
        return None
    # Fundamental-type keyword runs: `unsigned long long`, `const char`.
    if toks[i].text in TYPE_KEYWORDS:
        i += 1
        while i < n and toks[i].text in TYPE_KEYWORDS:
            i += 1
    else:
        i += 1
    while True:
        if i < n and toks[i].text == "<":
            j = close_angle(toks, i)
            if j is None:
                break
            i = j
        if i + 1 < n and toks[i].text == "::" and toks[i + 1].kind == "id":
            i += 2
            continue
        break
    while i < n and toks[i].text in ("*", "&", "const", "volatile"):
        i += 1
    return i


def close_angle(toks, i):
    """toks[i] == '<'; finds the matching '>' treating (),[],{} as opaque.
    Returns the index one past it, or None when this '<' is not a
    template-argument list."""
    depth = 0
    j = i
    n = len(toks)
    while j < n:
        t = toks[j].text
        if t in OPEN_TO_CLOSE and t != "{":
            j = match_balanced(toks, j)
            continue
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t in (";", "{", "}", "&&", "||"):
            return None
        j += 1
    return None


def try_parse_decl(toks):
    """Parses `quals Type name [array][MACRO(..)] [= init | {init} | (init)]`.
    Returns (type_texts, name, init_tokens, is_static) or None."""
    i = 0
    n = len(toks)
    is_static = False
    while i < n and toks[i].text in DECL_QUALIFIERS:
        is_static |= toks[i].text == "static"
        i += 1
    start = i
    j = consume_type(toks, i)
    if j is None or j >= n:
        return None
    type_end = j
    if toks[j].kind != "id" or toks[j].text in KEYWORDS:
        return None
    name = toks[j].text
    j += 1
    while j < n and toks[j].text == "[":
        j = match_balanced(toks, j)
    # Trailing attribute macros: XO_GUARDED_BY(x) etc.
    while j < n and toks[j].kind == "id" and ALLCAPS_RE.match(toks[j].text):
        j += 1
        if j < n and toks[j].text == "(":
            j = match_balanced(toks, j)
    type_texts = [t.text for t in toks[start:type_end]]
    if j == n:
        return (type_texts, name, [], is_static)
    if toks[j].text == "=":
        return (type_texts, name, toks[j + 1:], is_static)
    if toks[j].text in ("{", "("):
        return (type_texts, name, toks[j:], is_static)
    return None


CONTROL_KEYWORDS = {"if", "while", "switch", "for"}


def parse_block(toks):
    """Token slice of a function body (without outer braces) -> [Stmt]."""
    stmts = []
    i = 0
    n = len(toks)
    pending = []

    def flush():
        if not pending:
            return
        decl = try_parse_decl(pending)
        line = pending[0].line
        if decl is not None:
            type_texts, name, init, is_static = decl
            if not is_static:
                stmts.append(Stmt("decl", line, tokens=list(pending),
                                  type_tokens=type_texts, name=name,
                                  init=list(init)))
                del pending[:]
                return
        stmts.append(Stmt("expr", line, tokens=list(pending)))
        del pending[:]

    while i < n:
        t = toks[i]
        if not pending:
            if t.text == "{":
                j = match_balanced(toks, i)
                stmts.append(Stmt("block", t.line,
                                  children=parse_block(toks[i + 1:j - 1])))
                i = j
                continue
            if t.text in CONTROL_KEYWORDS:
                j = i + 1
                while j < n and toks[j].text != "(":
                    j += 1
                if j < n:
                    k = match_balanced(toks, j)
                    stmts.append(Stmt("expr", t.line, tokens=toks[i:k]))
                    i = k
                    continue
                i += 1
                continue
            if t.text in ("else", "do", "try"):
                i += 1
                continue
            if t.text == "catch":
                j = i + 1
                if j < n and toks[j].text == "(":
                    j = match_balanced(toks, j)
                i = j
                continue
            if t.text == "case":
                while i < n and toks[i].text != ":":
                    i += 1
                i += 1
                continue
            if t.text == "default" and i + 1 < n and toks[i + 1].text == ":":
                i += 2
                continue
            if t.text == "return":
                j = i + 1
                while j < n and toks[j].text != ";":
                    if toks[j].text in OPEN_TO_CLOSE:
                        j = match_balanced(toks, j)
                        continue
                    j += 1
                stmts.append(Stmt("return", t.line, tokens=toks[i + 1:j]))
                i = j + 1
                continue
            if t.text == ";":
                i += 1
                continue
        if t.text in OPEN_TO_CLOSE:
            j = match_balanced(toks, i)
            pending.extend(toks[i:j])
            i = j
            continue
        if t.text == ";":
            flush()
            i += 1
            continue
        pending.append(t)
        i += 1
    flush()
    return stmts


class BuiltinParser:
    """Parses one file's token stream into FileIR classes/functions."""

    def __init__(self, toks, path, ir):
        self.toks = toks
        self.path = path
        self.ir = ir

    def parse(self):
        self.parse_decls(0, len(self.toks), [], None)

    # -- declaration scope --------------------------------------------------

    def parse_decls(self, i, end, class_stack, class_decl):
        toks = self.toks
        while i < end:
            t = toks[i]
            text = t.text
            if text == "namespace":
                j = i + 1
                while j < end and toks[j].text != "{":
                    if toks[j].text in (";", "="):  # alias / decl
                        break
                    j += 1
                if j < end and toks[j].text == "{":
                    k = match_balanced(toks, j)
                    self.parse_decls(j + 1, k - 1, class_stack, class_decl)
                    i = k
                else:
                    i = self.skip_to_semicolon(j, end)
                continue
            if text in ("using", "typedef", "static_assert", "extern"):
                i = self.skip_to_semicolon(i, end)
                continue
            if text == "template":
                j = i + 1
                if j < end and toks[j].text == "<":
                    k = close_angle(toks, j)
                    i = k if k is not None else j + 1
                else:
                    i = j
                continue
            if text == "friend":
                i = self.skip_to_semicolon(i, end)
                continue
            if text == "enum":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    j = match_balanced(toks, j)
                i = self.skip_to_semicolon(j, end)
                continue
            if text in ("class", "struct", "union"):
                i = self.parse_class(i, end, class_stack, class_decl)
                continue
            if text in ("public", "private", "protected") and \
                    i + 1 < end and toks[i + 1].text == ":":
                i += 2
                continue
            if text in (";", "}"):
                i += 1
                continue
            i = self.parse_entry(i, end, class_stack, class_decl)

    def skip_to_semicolon(self, i, end):
        toks = self.toks
        while i < end:
            if toks[i].text in OPEN_TO_CLOSE:
                i = match_balanced(toks, i)
                continue
            if toks[i].text == ";":
                return i + 1
            i += 1
        return end

    def parse_class(self, i, end, class_stack, class_decl):
        toks = self.toks
        j = i + 1
        name = None
        while j < end and toks[j].text not in ("{", ";", ":"):
            if toks[j].kind == "id" and not ALLCAPS_RE.match(toks[j].text):
                name = toks[j].text
            if toks[j].text == "<":  # specialization — skip args
                k = close_angle(toks, j)
                if k is None:
                    break
                j = k
                continue
            j += 1
        if j >= end or toks[j].text == ";":
            return self.skip_to_semicolon(i, end)  # forward declaration
        if toks[j].text == ":":  # base clause
            while j < end and toks[j].text != "{":
                j += 1
        if j >= end or toks[j].text != "{":
            return self.skip_to_semicolon(j, end)
        k = match_balanced(toks, j)
        if name is not None:
            qualified = "::".join(class_stack + [name])
            decl = ClassDecl(name, qualified, toks[i].line, self.path)
            self.ir.classes.append(decl)
            self.parse_decls(j + 1, k - 1, class_stack + [name], decl)
        return self.skip_to_semicolon(k, end)

    # -- generic entry: member, prototype, or function definition -----------

    def parse_entry(self, i, end, class_stack, class_decl):
        toks = self.toks
        j = i
        first_paren = None
        saw_assign = False
        while j < end:
            text = toks[j].text
            if text == "(" and first_paren is None and not saw_assign:
                first_paren = j
                j = match_balanced(toks, j)
                continue
            if text in OPEN_TO_CLOSE and text != "{":
                j = match_balanced(toks, j)
                continue
            if text == "=" and first_paren is None:
                saw_assign = True
                j += 1
                continue
            if text == "{":
                if first_paren is not None and not saw_assign:
                    return self.parse_function(i, first_paren, j, end,
                                               class_stack, class_decl)
                j = match_balanced(toks, j)
                continue
            if text == ":" and first_paren is not None and not saw_assign:
                # Constructor initializer list: scan to the body brace.
                k = j + 1
                while k < end and toks[k].text != "{":
                    if toks[k].text in OPEN_TO_CLOSE:
                        k = match_balanced(toks, k)
                        continue
                    if toks[k].text == ";":  # bit-field, not a ctor
                        break
                    k += 1
                if k < end and toks[k].text == "{":
                    return self.parse_function(i, first_paren, k, end,
                                               class_stack, class_decl)
                j = k
                continue
            if text == ";":
                self.finish_simple_entry(i, j, first_paren, class_stack,
                                         class_decl)
                return j + 1
            j += 1
        return end

    def finish_simple_entry(self, i, semi, first_paren, class_stack,
                            class_decl):
        toks = self.toks
        entry = toks[i:semi]
        if first_paren is not None:
            # Prototype / deleted / defaulted signature: record for the
            # cross-TU return-type tables.
            fn = self.make_function(i, first_paren, None, class_stack,
                                    class_decl)
            if fn is not None:
                self.ir.functions.append(fn)
            return
        if class_decl is None:
            return  # namespace-scope variable: not interesting
        decl = try_parse_decl(entry)
        if decl is None:
            return
        type_texts, name, _init, is_static = decl
        if is_static:
            return
        class_decl.members.append(
            Member(name, type_texts, entry[0].line))

    # -- functions ----------------------------------------------------------

    def make_function(self, i, paren, body_stmts, class_stack, class_decl):
        toks = self.toks
        pre = toks[i:paren]
        # Strip leading qualifiers/attribute macros.
        s = 0
        while s < len(pre) and (pre[s].text in DECL_QUALIFIERS
                                or (pre[s].kind == "id"
                                    and ALLCAPS_RE.match(pre[s].text)
                                    and pre[s].text not in ("XO",))):
            if (s + 1 < len(pre) and pre[s].kind == "id"
                    and ALLCAPS_RE.match(pre[s].text)
                    and pre[s + 1].text == "("):
                # macro with args before the return type
                e = match_balanced(pre, s + 1)
                s = e
                continue
            s += 1
        pre = pre[s:]
        if not pre:
            return None
        if pre[-1].kind != "id":
            if pre[-1].text == "~" or "operator" in [t.text for t in pre]:
                return None
            return None
        # Walk the trailing qualified-name chain backwards.
        chain = [pre[-1].text]
        k = len(pre) - 1
        while k - 2 >= 0 and pre[k - 1].text == "::" \
                and pre[k - 2].kind == "id":
            chain.insert(0, pre[k - 2].text)
            k -= 2
        if pre[-1].text in KEYWORDS:
            return None
        name = chain[-1]
        ret = [t.text for t in pre[:k]]
        if not ret and class_decl is None and len(chain) < 2:
            return None  # a call, not a definition
        class_name = None
        if len(chain) >= 2:
            class_name = "::".join(chain[:-1])
        elif class_decl is not None:
            class_name = class_decl.qualified
            if not ret and name != class_decl.name:
                return None  # macro line, not a constructor
        params = self.parse_params(paren)
        qualified = (class_name + "::" + name) if class_name else name
        return FunctionDecl(name, qualified, class_name, ret, params,
                            body_stmts, toks[i].line, self.path)

    def parse_params(self, paren):
        toks = self.toks
        endp = match_balanced(toks, paren)
        inner = toks[paren + 1:endp - 1]
        params = []
        depth_split = []
        cur = []
        j = 0
        while j < len(inner):
            t = inner[j]
            if t.text in OPEN_TO_CLOSE:
                k = match_balanced(inner, j)
                cur.extend(inner[j:k])
                j = k
                continue
            if t.text == "<":
                k = close_angle(inner, j)
                if k is not None:
                    cur.extend(inner[j:k])
                    j = k
                    continue
            if t.text == ",":
                depth_split.append(cur)
                cur = []
                j += 1
                continue
            cur.append(t)
            j += 1
        if cur:
            depth_split.append(cur)
        for ptoks in depth_split:
            # Drop default argument.
            for j, t in enumerate(ptoks):
                if t.text == "=":
                    ptoks = ptoks[:j]
                    break
            if not ptoks:
                continue
            if ptoks[-1].kind == "id" and len(ptoks) > 1:
                params.append(([t.text for t in ptoks[:-1]],
                               ptoks[-1].text))
            else:
                params.append(([t.text for t in ptoks], None))
        return params

    def parse_function(self, i, paren, brace, end, class_stack, class_decl):
        toks = self.toks
        close = match_balanced(toks, brace)
        body = parse_block(toks[brace + 1:close - 1])
        # Constructor initializer lists run between ')' and '{': surface
        # them as one expression statement so calls stay visible.
        endp = match_balanced(toks, paren)
        init_list = toks[endp:brace]
        if any(t.text == ":" for t in init_list):
            body.insert(0, Stmt("expr",
                                init_list[0].line if init_list
                                else toks[brace].line,
                                tokens=init_list))
        fn = self.make_function(i, paren, body, class_stack, class_decl)
        if fn is not None:
            self.ir.functions.append(fn)
        return close


def parse_file_builtin(path, relpath):
    try:
        text = open(path, encoding="utf-8", errors="replace").read()
    except OSError as err:
        print(f"xo_analyze: cannot read {relpath}: {err}", file=sys.stderr)
        return None
    toks, comments = tokenize(text)
    ir = FileIR(relpath)
    ir.suppressions, ir.allow_issues = parse_suppressions(
        comments, {t.line for t in toks})
    BuiltinParser(toks, relpath, ir).parse()
    return ir


# ---------------------------------------------------------------------------
# Program model: cross-TU indexes.
# ---------------------------------------------------------------------------

class Program:
    def __init__(self, files):
        self.files = files  # {relpath: FileIR}
        self.classes = {}   # qualified -> ClassDecl (first definition wins)
        self.classes_by_name = {}  # last component -> [ClassDecl]
        self.functions = []
        self.fn_by_name = {}  # simple name -> [FunctionDecl]
        for relpath in sorted(files):
            ir = files[relpath]
            for c in ir.classes:
                if c.members and c.qualified not in self.classes:
                    self.classes[c.qualified] = c
                self.classes.setdefault(c.qualified, c)
                self.classes_by_name.setdefault(c.name, []).append(c)
            for f in ir.functions:
                self.functions.append(f)
                self.fn_by_name.setdefault(f.name, []).append(f)

    def suppressed(self, relpath, line, rule):
        ir = self.files.get(relpath)
        return ir is not None and rule in ir.suppressions.get(line, set())


def walk_stmts(stmts):
    """Depth-first statement iterator."""
    for s in stmts:
        yield s
        if s.kind == "block":
            yield from walk_stmts(s.children)


def type_has(type_tokens, names):
    return any(t in names for t in type_tokens)


def type_is_indirect(type_tokens):
    return "*" in type_tokens or "&" in type_tokens


# ---------------------------------------------------------------------------
# Rule: backing-before-view.
# ---------------------------------------------------------------------------

def member_is_backing(m):
    # shared_ptr<const void> (the type-erased keep-alive) ...
    texts = m.type_tokens
    if "shared_ptr" in texts and "void" in texts:
        return True
    # ... or a SegmentFile held by value / smart pointer.
    if type_has(texts, BACKING_MEMBER_MARKERS) and "*" not in texts \
            and "&" not in texts:
        return True
    return False


def member_view_reference(m, capable):
    """Does member m hold (by value) a type that can alias mapped memory?
    `capable` is the current set of view-capable class names."""
    texts = m.type_tokens
    if type_is_indirect(texts):
        return False
    if any(t in SMART_PTRS for t in texts):
        return False
    return any(t in MAPPED_VIEW_ROOTS or t in capable for t in texts)


def member_is_raw_view(m):
    texts = m.type_tokens
    if type_is_indirect(texts):
        return False
    return type_has(texts, RAW_VIEW_MEMBER_TYPES)


def check_backing_before_view(program):
    findings = []
    # Fixpoint: a class is view-capable (its holder must provide backing)
    # when it holds a mapped-view-capable member by value and does not pin
    # a backing member itself.
    capable = set()
    changed = True
    while changed:
        changed = False
        for c in program.classes.values():
            if c.name in capable:
                continue
            has_backing = any(member_is_backing(m) for m in c.members)
            needs = [m for m in c.members
                     if member_view_reference(m, capable)]
            if needs and not has_backing and c.name not in capable:
                capable.add(c.name)
                changed = True
    seen = set()
    for qualified in sorted(program.classes):
        c = program.classes[qualified]
        if (c.path, c.qualified) in seen:
            continue
        seen.add((c.path, c.qualified))
        backing_members = [m for m in c.members if member_is_backing(m)]
        needs = [m for m in c.members if member_view_reference(m, capable)]
        if needs and not backing_members:
            m = needs[0]
            findings.append((
                c.path, c.line, "backing-before-view",
                f"class {c.qualified} holds mapped-view-capable member "
                f"'{m.name}' ({' '.join(m.type_tokens)}) but no backing "
                "member (shared_ptr<const void> or SegmentFile); add one "
                "declared before it, or suppress with a justification if "
                "every instance owns its columns"))
            continue
        if not backing_members:
            continue
        first_backing = min(c.members.index(m) for m in backing_members)
        ordered_views = needs + [m for m in c.members
                                 if member_is_raw_view(m)]
        for m in ordered_views:
            if c.members.index(m) < first_backing:
                findings.append((
                    c.path, m.line, "backing-before-view",
                    f"member '{m.name}' of {c.qualified} may alias the "
                    "backing mapping but is declared before backing "
                    f"member '{c.members[first_backing].name}': members "
                    "destroy in reverse order, so the mapping would die "
                    "first — declare the backing member earlier"))
    return findings


# ---------------------------------------------------------------------------
# Rule: view-escape.
# ---------------------------------------------------------------------------

def is_view_return(ret_tokens):
    if not ret_tokens:
        return False
    if "&" in ret_tokens or "*" in ret_tokens:
        return False  # references/pointers are the caller's problem
    return type_has(ret_tokens, VIEW_RETURN_TYPES)


def owning_value_type(type_tokens):
    if type_is_indirect(type_tokens):
        return False
    if type_has(type_tokens, VIEW_RETURN_TYPES | {"string_view"}):
        return False
    return type_has(type_tokens, OWNING_TYPES)


def view_typed(type_tokens):
    return type_has(type_tokens, VIEW_RETURN_TYPES) or \
        type_tokens == ["auto"]


def check_view_escape(program):
    findings = []
    member_types = {}  # class qualified -> {member name: type tokens}
    for c in program.classes.values():
        member_types.setdefault(c.qualified, {})
        for m in c.members:
            member_types[c.qualified][m.name] = m.type_tokens
    for fn in program.functions:
        if fn.body is None:
            continue
        ret_is_view = is_view_return(fn.return_type)
        # Frame-owned storage: owning locals and by-value owning params.
        tainted = {}
        for ptype, pname in fn.params:
            if pname and owning_value_type(ptype):
                tainted[pname] = f"by-value parameter '{pname}'"
        stores_checked = fn.class_name in member_types
        for s in walk_stmts(fn.body):
            if s.kind == "decl":
                if owning_value_type(s.type_tokens):
                    tainted[s.name] = f"local '{s.name}'"
                elif view_typed(s.type_tokens) and s.init:
                    hit = idents(s.init) & set(tainted)
                    if hit:
                        src = tainted[sorted(hit)[0]]
                        tainted[s.name] = src
            elif s.kind == "return" and ret_is_view:
                hit = idents(s.tokens) & set(tainted)
                if hit:
                    name = sorted(hit)[0]
                    findings.append((
                        fn.path, s.line, "view-escape",
                        f"{fn.qualified} returns a "
                        f"{' '.join(fn.return_type)} derived from "
                        f"{tainted[name]}, whose storage dies when the "
                        "function returns"))
            elif s.kind == "expr" and stores_checked and len(s.tokens) > 2:
                # this->member = ... / member = ... storing a view.
                t = s.tokens
                base = 0
                if t[0].text == "this" and t[1].text == "->":
                    base = 2
                if len(t) > base + 1 and t[base].kind == "id" \
                        and t[base + 1].text == "=":
                    mname = t[base].text
                    mtype = member_types[fn.class_name].get(mname)
                    if mtype is not None and \
                            type_has(mtype, VIEW_RETURN_TYPES):
                        hit = idents(t[base + 2:]) & set(tainted)
                        if hit:
                            name = sorted(hit)[0]
                            findings.append((
                                fn.path, s.line, "view-escape",
                                f"{fn.qualified} stores a view derived "
                                f"from {tainted[name]} into member "
                                f"'{mname}', which outlives the frame"))
    return findings


# ---------------------------------------------------------------------------
# Rule: snapshot-pin.
# ---------------------------------------------------------------------------

def shared_ptr_factories(program):
    """Simple names of functions returning a shared_ptr BY VALUE."""
    names = set(PTR_FACTORIES)
    for fn in program.functions:
        ret = fn.return_type
        if "shared_ptr" in ret and "&" not in ret and "*" not in ret:
            names.add(fn.name)
    return names


def find_unpinned_get(toks, factories):
    """Position of `<factory>(...).get()` — .get() called on a temporary
    shared_ptr returned by value. Returns (line, factory) or None."""
    for j in range(2, len(toks) - 2):
        if toks[j].text != "get" or toks[j - 1].text != ".":
            continue
        if toks[j + 1].text != "(":
            continue
        if toks[j - 2].text != ")":
            continue
        # Walk back to the '(' matching toks[j-2].
        depth = 0
        k = j - 2
        while k >= 0:
            if toks[k].text == ")":
                depth += 1
            elif toks[k].text == "(":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        if k <= 0:
            continue
        callee = k - 1
        if toks[callee].text == ">":
            depth = 0
            while callee >= 0:
                if toks[callee].text == ">":
                    depth += 1
                elif toks[callee].text == "<":
                    depth -= 1
                    if depth == 0:
                        break
                callee -= 1
            callee -= 1
        if callee >= 0 and toks[callee].kind == "id" \
                and toks[callee].text in factories:
            return (toks[j].line, toks[callee].text)
    return None


def check_snapshot_pin(program):
    findings = []
    factories = shared_ptr_factories(program)
    for fn in program.functions:
        if fn.body is None:
            continue
        pointer_locals = set()
        for s in walk_stmts(fn.body):
            hit = None
            if s.kind == "decl":
                if "*" in s.type_tokens:
                    pointer_locals.add(s.name)
                stored = ("*" in s.type_tokens
                          or s.type_tokens == ["auto"]
                          or s.type_tokens == ["const", "auto"])
                if stored and s.init:
                    hit = find_unpinned_get(s.init, factories)
            elif s.kind == "expr" and len(s.tokens) > 2 \
                    and s.tokens[0].kind == "id" \
                    and s.tokens[0].text in pointer_locals \
                    and s.tokens[1].text == "=":
                hit = find_unpinned_get(s.tokens[2:], factories)
            if hit is not None:
                line, factory = hit
                findings.append((
                    fn.path, line, "snapshot-pin",
                    f"{fn.qualified} stores {factory}(...).get(): the "
                    "temporary shared_ptr dies at the end of the "
                    "statement, leaving the raw pointer unpinned — hold "
                    "the shared_ptr for the life of the use"))
    return findings


# ---------------------------------------------------------------------------
# Rule: lock-order.
# ---------------------------------------------------------------------------

def direct_lock_regions(fn):
    """[(mutex, line, stmts_under)] — stmts_under is every statement after
    the MutexLock declaration inside its enclosing block (the RAII scope)."""
    regions = []

    def scan(stmts):
        for i, s in enumerate(stmts):
            if s.kind == "block":
                scan(s.children)
                continue
            if s.kind == "decl" and type_has(s.type_tokens, {"MutexLock"}):
                mutex = next((t.text for t in s.init
                              if t.text in LOCK_LEVELS), None)
                if mutex is not None:
                    regions.append((mutex, s.line, stmts[i + 1:]))
    scan(fn.body or [])
    return regions


def transitive_locks(program):
    """{simple fn name: {mutex: witness path tuple}} over the call graph."""
    direct = {}
    callees = {}
    for fn in program.functions:
        if fn.body is None:
            continue
        dl = direct.setdefault(fn.name, {})
        for mutex, line, _under in direct_lock_regions(fn):
            dl.setdefault(mutex, ())
        calls_here = callees.setdefault(fn.name, set())
        for s in walk_stmts(fn.body):
            for cname, _ln in calls(s.tokens + s.init):
                calls_here.add(cname)
    memo = {}

    def resolve(name, stack):
        if name in memo:
            return memo[name]
        if name in stack:
            return {}
        result = dict(direct.get(name, {}))
        stack.add(name)
        for callee in sorted(callees.get(name, ())):
            if callee == name or callee not in direct and \
                    callee not in callees:
                continue
            for mutex, path in resolve(callee, stack).items():
                if mutex not in result:
                    result[mutex] = (callee,) + path
        stack.discard(name)
        memo[name] = result
        return result

    for name in sorted(set(direct) | set(callees)):
        resolve(name, set())
    return memo


def check_lock_order(program):
    findings = []
    acquired_by = transitive_locks(program)
    for fn in program.functions:
        if fn.body is None:
            continue
        for held, held_line, under in direct_lock_regions(fn):
            held_level = LOCK_LEVELS[held][0]
            reported = set()
            for s in walk_stmts(under):
                # Nested direct acquisition under the held lock.
                inner = []
                if s.kind == "decl" and \
                        type_has(s.type_tokens, {"MutexLock"}):
                    m = next((t.text for t in s.init
                              if t.text in LOCK_LEVELS), None)
                    if m is not None:
                        inner.append((m, (), s.line))
                for cname, cline in calls(s.tokens + s.init):
                    for mutex, path in sorted(
                            acquired_by.get(cname, {}).items()):
                        inner.append((mutex, (cname,) + path, cline))
                for mutex, path, line in inner:
                    level = LOCK_LEVELS[mutex][0]
                    key = (mutex, path)
                    if key in reported:
                        continue
                    via = " -> ".join(path) if path else "this function"
                    if mutex == held:
                        reported.add(key)
                        findings.append((
                            fn.path, line, "lock-order",
                            f"{fn.qualified} re-acquires {mutex} (via "
                            f"{via}) while already holding it (acquired "
                            f"line {held_line}): self-deadlock"))
                    elif level <= held_level:
                        reported.add(key)
                        findings.append((
                            fn.path, line, "lock-order",
                            f"{fn.qualified} acquires {mutex} (level "
                            f"{level}, via {via}) while holding {held} "
                            f"(level {held_level}, acquired line "
                            f"{held_line}); the documented order is "
                            "SaveMutex before DurableFileMutex and "
                            "same-level locks never nest"))
    return findings


# ---------------------------------------------------------------------------
# Rule: view-outlives-unmap.
# ---------------------------------------------------------------------------

def check_view_outlives_unmap(program):
    findings = []
    for fn in program.functions:
        if fn.body is None:
            continue
        owners = set()
        for ptype, pname in fn.params:
            # By-value / smart-pointer SegmentFile parameters are owners
            # too; references are the caller's lifetime.
            if pname and type_has(ptype, {"SegmentFile"}) \
                    and "&" not in ptype and "*" not in ptype:
                owners.add(pname)
        view_of = {}   # view local -> owner local
        killed = {}    # owner -> (line, how)
        flagged = set()

        def mentions_maker(toks):
            return any(t.text in VIEW_MAKERS and t.kind == "id"
                       for t in toks)

        def scan(stmts):
            local_owners = []
            for s in stmts:
                if s.kind == "block":
                    scan(s.children)
                    continue
                toks = s.tokens + s.init
                # Use-after-kill?
                used = idents(toks)
                for v, owner in sorted(view_of.items()):
                    if v in used and owner in killed and v not in flagged:
                        line, how = killed[owner]
                        findings.append((
                            fn.path, s.line, "view-outlives-unmap",
                            f"{fn.qualified} uses view '{v}' after its "
                            f"SegmentFile backing '{owner}' was {how} "
                            f"(line {line}): the mapping may be gone"))
                        flagged.add(v)
                if s.kind == "decl":
                    viewish = ("auto" in s.type_tokens
                               or type_has(s.type_tokens,
                                           MAPPED_VIEW_ROOTS
                                           | RAW_VIEW_MEMBER_TYPES))
                    if type_has(s.type_tokens, {"SegmentFile"}) or \
                            any(t.text == "SegmentFile" for t in s.init):
                        owners.add(s.name)
                        local_owners.append((s.name, s.line))
                    elif s.init and viewish:
                        src = idents(s.init) & owners
                        if src and mentions_maker(s.init):
                            view_of[s.name] = sorted(src)[0]
                        else:
                            via = idents(s.init) & set(view_of)
                            if via:
                                view_of[s.name] = view_of[sorted(via)[0]]
                # Kill events.
                for owner in sorted(owners):
                    if owner in killed:
                        continue
                    if find_subseq(toks, [owner, ".", "reset", "("]) >= 0 \
                            or find_subseq(toks,
                                           [owner, "->", "reset", "("]) >= 0:
                        killed[owner] = (s.line, "reset")
                    elif find_subseq(toks, ["move", "(", owner, ")"]) >= 0:
                        killed[owner] = (s.line, "moved from")
                    elif s.kind == "expr" and len(s.tokens) > 1 \
                            and s.tokens[0].text == owner \
                            and s.tokens[1].text == "=":
                        killed[owner] = (s.line, "reassigned")
                # Assignment re-binding an existing local to a view.
                if s.kind == "expr" and len(s.tokens) > 2 \
                        and s.tokens[0].kind == "id" \
                        and s.tokens[1].text == "=":
                    rhs = s.tokens[2:]
                    src = idents(rhs) & owners
                    if src and mentions_maker(rhs):
                        view_of[s.tokens[0].text] = sorted(src)[0]
            # Scope exit destroys owners declared in this block.
            for owner, line in local_owners:
                if owner not in killed:
                    killed[owner] = (line, "destroyed at scope exit")

        scan(fn.body)
    return findings


# ---------------------------------------------------------------------------
# Rule: unjustified-allow (textual).
# ---------------------------------------------------------------------------

def check_unjustified_allow(program):
    findings = []
    for relpath in sorted(program.files):
        for line, message in program.files[relpath].allow_issues:
            findings.append((relpath, line, "unjustified-allow", message))
    return findings


RULES = [
    ("backing-before-view", check_backing_before_view),
    ("lock-order", check_lock_order),
    ("snapshot-pin", check_snapshot_pin),
    ("unjustified-allow", check_unjustified_allow),
    ("view-escape", check_view_escape),
    ("view-outlives-unmap", check_view_outlives_unmap),
]


# ---------------------------------------------------------------------------
# Source collection.
# ---------------------------------------------------------------------------

def find_compile_commands(root, explicit):
    if explicit:
        return explicit if os.path.isfile(explicit) else None
    for rel in ("build/compile_commands.json",
                "build-lint/compile_commands.json",
                "compile_commands.json"):
        path = os.path.join(root, rel)
        if os.path.isfile(path):
            return path
    return None


def collect_sources(root, files, compile_commands):
    """Absolute paths of the sources to analyze, sorted by relpath.
    Explicit `files` win; otherwise every .h/.cc under src/ (the
    compile-commands database only adds flags for the clang frontend —
    headers carry most of the invariants, so we never restrict to TUs)."""
    if files:
        out = []
        for f in files:
            path = os.path.abspath(f)
            if not os.path.isfile(path):
                raise SystemExit(f"xo_analyze: no such file: {f}")
            out.append(path)
        return sorted(out, key=lambda p: os.path.relpath(p, root))
    src = os.path.join(root, "src")
    out = []
    if os.path.isdir(src):
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    _ = compile_commands  # TU list intentionally not used to narrow scope
    return out


def compile_flags_for(compile_commands, root):
    """Representative include/define flags from the database, for the
    clang frontend. One TU's flags are enough: the repo compiles every
    TU with a uniform flag set."""
    flags = ["-std=c++20", "-I" + os.path.join(root, "src")]
    if not compile_commands:
        return flags
    try:
        with open(compile_commands, "r", encoding="utf-8") as fh:
            db = json.load(fh)
    except (OSError, ValueError):
        return flags
    for entry in db:
        cmd = entry.get("command")
        if cmd is None and "arguments" in entry:
            cmd = " ".join(entry["arguments"])
        if not cmd or "/src/" not in entry.get("file", ""):
            continue
        picked = ["-std=c++20"]
        toks = cmd.split()
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.startswith("-I") or t.startswith("-D"):
                picked.append(t if len(t) > 2 else t + toks[i + 1])
                if len(t) == 2:
                    i += 1
            elif t in ("-isystem", "-include"):
                picked.extend([t, toks[i + 1]])
                i += 1
            elif t.startswith("-std="):
                picked[0] = t
            i += 1
        return picked + ["-I" + os.path.join(root, "src")]
    return flags


# ---------------------------------------------------------------------------
# Clang frontend (libclang via clang.cindex). Optional; used when
# importable. Produces the same IR the builtin frontend does, so the
# rules are frontend-agnostic. Suppressions always come from the
# textual layer (comments are not in the clang AST).
# ---------------------------------------------------------------------------

def load_cindex():
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError:
        return None
    lib = os.environ.get("XO_LIBCLANG")
    try:
        if lib:
            if os.path.isdir(lib):
                cindex.Config.set_library_path(lib)
            else:
                cindex.Config.set_library_file(lib)
        cindex.Index.create()
    except Exception:  # cindex raises LibclangError and friends
        return None
    return cindex


def clang_type_tokens(ctype):
    """Flatten a clang type spelling into builtin-style type tokens."""
    spelling = ctype.spelling
    toks, _ = tokenize(spelling)
    return [t.text for t in toks]


def clang_stmt_from_extent(cursor, kind="expr"):
    toks = []
    for t in cursor.get_tokens():
        toks.append(Token("id" if t.kind.name == "IDENTIFIER" else
                          ("kw" if t.kind.name == "KEYWORD" else "punct"),
                          t.spelling, t.extent.start.line))
    line = cursor.location.line
    return Stmt(kind, line, tokens=toks)


def parse_file_clang(cindex, path, relpath, flags):
    """Build a FileIR from the libclang AST. Defensive: any liblang
    hiccup falls back to the builtin parser for that file so a clang
    packaging quirk can never weaken the gate below builtin coverage."""
    try:
        index = cindex.Index.create()
        tu = index.parse(path, args=flags,
                         options=cindex.TranslationUnit
                         .PARSE_DETAILED_PROCESSING_RECORD)
    except Exception:
        return parse_file_builtin(path, relpath)
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    toks, comments = tokenize(text)
    suppressions, allow_issues = parse_suppressions(
        comments, {t.line for t in toks})
    ir = FileIR(relpath)
    ir.suppressions = suppressions
    ir.allow_issues = allow_issues
    K = cindex.CursorKind

    def qualified_name(cursor):
        parts = []
        c = cursor
        while c is not None and c.kind not in (K.TRANSLATION_UNIT,):
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts)) or cursor.spelling

    def visit(cursor, class_stack):
        for child in cursor.get_children():
            loc = child.location
            if loc.file is None or \
                    os.path.abspath(loc.file.name) != os.path.abspath(path):
                # Do not descend into includes.
                continue
            kind = child.kind
            if kind in (K.CLASS_DECL, K.STRUCT_DECL) and \
                    child.is_definition():
                cname = child.spelling or "<anon>"
                qual = "::".join([c.name for c in class_stack] + [cname])
                cd = ClassDecl(cname, qual, loc.line, relpath)
                for m in child.get_children():
                    if m.kind == K.FIELD_DECL:
                        cd.members.append(Member(
                            m.spelling, clang_type_tokens(m.type),
                            m.location.line))
                ir.classes.append(cd)
                visit(child, class_stack + [cd])
            elif kind in (K.NAMESPACE, K.LINKAGE_SPEC,
                          K.UNEXPOSED_DECL):
                visit(child, class_stack)
            elif kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                          K.DESTRUCTOR, K.FUNCTION_TEMPLATE):
                body = None
                params = []
                for p in child.get_children():
                    if p.kind == K.PARM_DECL:
                        params.append((clang_type_tokens(p.type),
                                       p.spelling))
                    elif p.kind == K.COMPOUND_STMT:
                        body = p
                if body is None:
                    fn = FunctionDecl(
                        child.spelling, qualified_name(child),
                        class_stack[-1].name if class_stack else None,
                        clang_type_tokens(child.result_type),
                        params, None, loc.line, relpath)
                    ir.functions.append(fn)
                    continue
                stmts = clang_body(body)
                class_name = class_stack[-1].name if class_stack else None
                if class_name is None and child.semantic_parent is not None \
                        and child.semantic_parent.kind in (
                            K.CLASS_DECL, K.STRUCT_DECL):
                    class_name = child.semantic_parent.spelling
                fn = FunctionDecl(
                    child.spelling, qualified_name(child), class_name,
                    clang_type_tokens(child.result_type), params,
                    stmts, loc.line, relpath)
                ir.functions.append(fn)

    def clang_body(compound):
        stmts = []
        for child in compound.get_children():
            k = child.kind
            if k == K.DECL_STMT:
                for d in child.get_children():
                    if d.kind != K.VAR_DECL:
                        continue
                    init_tokens = []
                    for sub in d.get_children():
                        if sub.kind.is_expression():
                            init_tokens.extend(
                                clang_stmt_from_extent(sub).tokens)
                    stmts.append(Stmt(
                        "decl", d.location.line,
                        type_tokens=clang_type_tokens(d.type),
                        name=d.spelling, init=init_tokens))
            elif k == K.RETURN_STMT:
                stmts.append(clang_stmt_from_extent(child, "return"))
            elif k == K.COMPOUND_STMT:
                blk = Stmt("block", child.location.line)
                blk.children = clang_body(child)
                stmts.append(blk)
            elif k in (K.IF_STMT, K.FOR_STMT, K.WHILE_STMT, K.DO_STMT,
                       K.CXX_FOR_RANGE_STMT, K.SWITCH_STMT,
                       K.CXX_TRY_STMT):
                blk = Stmt("block", child.location.line)
                children = []
                for sub in child.get_children():
                    if sub.kind == K.COMPOUND_STMT:
                        children.extend(clang_body(sub))
                    elif sub.kind.is_expression() or \
                            sub.kind == K.DECL_STMT:
                        children.append(clang_stmt_from_extent(sub))
                blk.children = children
                stmts.append(blk)
            else:
                stmts.append(clang_stmt_from_extent(child))
        return stmts

    try:
        visit(tu.cursor, [])
    except Exception:
        return parse_file_builtin(path, relpath)
    if not ir.classes and not ir.functions:
        # Header parsed to nothing (e.g. missing includes): builtin
        # coverage is strictly better than an empty IR.
        return parse_file_builtin(path, relpath)
    return ir


# ---------------------------------------------------------------------------
# Analysis driver.
# ---------------------------------------------------------------------------

def analyze(root, sources, frontend, compile_commands):
    files = {}
    cindex = None
    flags = None
    if frontend == "clang":
        cindex = load_cindex()
        flags = compile_flags_for(compile_commands, root)
    for path in sources:
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        if cindex is not None:
            files[relpath] = parse_file_clang(cindex, path, relpath, flags)
        else:
            files[relpath] = parse_file_builtin(path, relpath)
    program = Program(files)
    findings = []
    for _rule, check in RULES:
        findings.extend(check(program))
    out = []
    for path, line, rule, message in findings:
        if program.suppressed(path, line, rule):
            continue
        out.append((path, line, rule, message))
    out.sort(key=lambda f: (f[0], f[1], f[2], f[3]))
    return out


# ---------------------------------------------------------------------------
# Baseline: a committed findings ledger. CI fails on findings NOT in the
# baseline; stale baseline entries are reported as warnings so the
# ledger ratchets down, never silently up.
# ---------------------------------------------------------------------------

def finding_key(f):
    path, line, rule, _message = f
    return f"{path}:{line}: [{rule}]"

def load_baseline(path):
    keys = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                keys.append(line)
    return keys


def apply_baseline(findings, baseline_keys):
    allowed = set(baseline_keys)
    new = [f for f in findings if finding_key(f) not in allowed]
    present = {finding_key(f) for f in findings}
    stale = [k for k in baseline_keys if k not in present]
    return new, stale


def write_baseline(findings, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# xo_analyze findings baseline. One `path:line: [rule]`"
                 " per line.\n"
                 "# CI fails on findings not listed here; regenerate with"
                 " tools/xo_analyze.py --write-baseline <path>.\n")
        for f in findings:
            fh.write(finding_key(f) + "\n")


# ---------------------------------------------------------------------------
# Self-test: seeded violations per rule, plus a clean file. Run with
# --self-test; the test suite (tests/xo_analyze_test.py) goes further.
# ---------------------------------------------------------------------------

SELF_TEST_FIXTURES = {
    "src/fixture_view_escape.cc": (
        "#include <string>\n"
        "#include <string_view>\n"
        "std::string_view Leak() {\n"
        "  std::string local = \"abc\";\n"
        "  return std::string_view(local);\n"
        "}\n",
        [("view-escape", 5)],
    ),
    "src/fixture_backing.h": (
        "#pragma once\n"
        "#include \"flat_dil.h\"\n"
        "class View {\n"
        " private:\n"
        "  FlatDil::Sections v_;\n"
        "};\n",
        [("backing-before-view", 3)],
    ),
    "src/fixture_pin.cc": (
        "#include <memory>\n"
        "struct Snap { int Search() const { return 1; } };\n"
        "int Use() {\n"
        "  const Snap* raw = std::make_shared<Snap>().get();\n"
        "  return raw->Search();\n"
        "}\n",
        [("snapshot-pin", 4)],
    ),
    "src/fixture_lock.cc": (
        "#include \"sync.h\"\n"
        "void Inner() {\n"
        "  MutexLock lock(SaveMutex());\n"
        "}\n"
        "void Outer() {\n"
        "  MutexLock lock(DurableFileMutex());\n"
        "  Inner();\n"
        "}\n",
        [("lock-order", 7)],
    ),
    "src/fixture_unmap.cc": (
        "#include \"segment_file.h\"\n"
        "size_t Use(SegmentFile file) {\n"
        "  const auto& infos = file.sections();\n"
        "  file.reset();\n"
        "  return infos.size();\n"
        "}\n",
        [("view-outlives-unmap", 5)],
    ),
    "src/fixture_allow.cc": (
        "#include <string>\n"
        "// xo-analyze: allow(view-escape)\n"
        "int x = 1;\n",
        [("unjustified-allow", 2)],
    ),
    "src/fixture_clean.cc": (
        "#include <string>\n"
        "#include <string_view>\n"
        "std::string_view Fine(std::string_view in) {\n"
        "  return in.substr(1);\n"
        "}\n"
        "class Pinned {\n"
        " private:\n"
        "  std::shared_ptr<const void> backing_;\n"
        "  FlatDil flat_;\n"
        "};\n",
        [],
    ),
}


def run_self_test(frontend):
    failures = []
    with tempfile.TemporaryDirectory(prefix="xo_analyze_selftest_") as tmp:
        for relpath, (content, _expected) in SELF_TEST_FIXTURES.items():
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        sources = collect_sources(tmp, [], None)
        findings = analyze(tmp, sources, frontend, None)
        got = {}
        for path, line, rule, _message in findings:
            got.setdefault(path, []).append((rule, line))
        for relpath, (_content, expected) in \
                sorted(SELF_TEST_FIXTURES.items()):
            actual = sorted(got.get(relpath, []))
            if sorted(expected) != actual:
                failures.append(
                    f"{relpath}: expected {sorted(expected)}, got {actual}")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    n = len(SELF_TEST_FIXTURES)
    print(f"xo_analyze: self-test ok ({n} fixtures, frontend={frontend})",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="xo_analyze.py",
        description="AST-grounded lifetime & invariant analysis for src/")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "builtin", "clang"),
                        help="auto: clang when importable, else builtin")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json for the clang frontend")
    parser.add_argument("--baseline", default=None,
                        help="fail only on findings absent from this file")
    parser.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="write current findings as the baseline")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("files", nargs="*",
                        help="specific files (default: src/ tree)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULE_DOCS):
            print(f"{rule}: {RULE_DOCS[rule]}")
        return 0

    frontend = args.frontend
    if frontend == "auto":
        frontend = "clang" if load_cindex() is not None else "builtin"
    elif frontend == "clang" and load_cindex() is None:
        # Graceful skip, mirroring run_analyze.sh: a GCC-only machine
        # must not fail; the builtin frontend and CI carry the gate.
        print("xo_analyze: libclang (python clang.cindex) not available; "
              "skipping clang frontend (builtin gate still applies via "
              "--frontend builtin)", file=sys.stderr)
        return 0

    if args.self_test:
        return run_self_test(frontend)

    root = os.path.abspath(args.root) if args.root else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    compile_commands = find_compile_commands(root, args.compile_commands)
    sources = collect_sources(root, args.files, compile_commands)
    if not sources:
        print("xo_analyze: no sources found", file=sys.stderr)
        return 2
    findings = analyze(root, sources, frontend, compile_commands)

    if args.write_baseline:
        write_baseline(findings, args.write_baseline)
        print(f"xo_analyze: wrote {len(findings)} finding key(s) to "
              f"{args.write_baseline}", file=sys.stderr)
        return 0

    stale = []
    if args.baseline and os.path.isfile(args.baseline):
        findings, stale = apply_baseline(findings, load_baseline(args.baseline))

    for path, line, rule, message in findings:
        print(f"{path}:{line}: [{rule}] {message}")
    for key in stale:
        print(f"xo_analyze: stale baseline entry (fixed? remove it): {key}",
              file=sys.stderr)
    if findings:
        label = "new finding(s)" if args.baseline else "finding(s)"
        print(f"xo_analyze: {len(findings)} {label} "
              f"(frontend={frontend}, {len(sources)} files)",
              file=sys.stderr)
        return 1
    print(f"xo_analyze: clean (frontend={frontend}, {len(sources)} files)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
