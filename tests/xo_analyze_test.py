#!/usr/bin/env python3
"""Fixture tests for tools/xo_analyze.py.

Each test seeds a temporary tree with a deliberate lifetime or
lock-discipline violation and asserts that exactly the expected rule
fires (exit 1) and that the conforming variant passes (exit 0) — i.e.
every rule has a fixture that fails without the rule and passes with it.
The FlatDil pin scenarios (pin deleted, pin declared after the views
it keeps alive) are reproduced on a miniature copy of the real class
chain. The final tests run the analyzer over the
real repo tree, which must be clean, and exercise the self-test and
baseline machinery. Stdlib only; uses the builtin frontend so the suite
is deterministic on GCC-only machines (the clang frontend shares the IR
and rules; CI additionally runs it when libclang is pinned).
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
XO_ANALYZE = os.path.join(REPO_ROOT, "tools", "xo_analyze.py")

# A miniature copy of the real serving chain: FlatDil holds its column
# views (Sections, the mapped-view root) after the pin that keeps their
# mapping alive, so CorpusIndex and IndexSegment hold it by value with no
# backing of their own.
MINI_FLAT_DIL = """\
#pragma once
#include <memory>
#include <string_view>
class FlatDil {
 public:
  struct Sections { std::string_view keyword_arena; };
 private:
  std::shared_ptr<const void> pin_;
  Sections v_;
};
"""

MINI_FLAT_DIL_NO_PIN = """\
#pragma once
#include <string_view>
class FlatDil {
 public:
  struct Sections { std::string_view keyword_arena; };
 private:
  Sections v_;
};
"""

MINI_FLAT_DIL_REORDERED = """\
#pragma once
#include <memory>
#include <string_view>
class FlatDil {
 public:
  struct Sections { std::string_view keyword_arena; };
 private:
  Sections v_;
  std::shared_ptr<const void> pin_;
};
"""

MINI_INDEX = """\
#pragma once
#include "flat_dil.h"
class CorpusIndex {
 private:
  FlatDil flat_;
};
"""

MINI_SEGMENT = """\
#pragma once
#include <memory>
#include "corpus_index.h"
class IndexSegment {
 private:
  std::unique_ptr<const CorpusIndex> index_;
};
"""

# A view holder that owns the mapping itself (like SegmentFile), so its
# own finding is suppressed; holders of it still need a backing.
MINI_MAPPING = """\
#pragma once
#include "flat_dil.h"
// xo-analyze: allow(backing-before-view) the mapping owner itself.
class Mapping {
 private:
  FlatDil::Sections view_;
};
"""


def run_analyze(root, *extra):
    proc = subprocess.run(
        [sys.executable, XO_ANALYZE, "--root", root,
         "--frontend", "builtin", *extra],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


class XoAnalyzeFixtureTest(unittest.TestCase):
    def analyze_tree(self, files, *extra):
        """Writes {relpath: content} into a temp root and analyzes it."""
        with tempfile.TemporaryDirectory() as root:
            for relpath, content in files.items():
                path = os.path.join(root, relpath)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as fh:
                    fh.write(content)
            return run_analyze(root, *extra)

    def assert_fires(self, files, rule, count=1):
        code, out = self.analyze_tree(files)
        self.assertEqual(code, 1, f"expected a finding, got:\n{out}")
        self.assertEqual(out.count(f"[{rule}]"), count, out)

    def assert_clean(self, files):
        code, out = self.analyze_tree(files)
        self.assertEqual(code, 0, f"expected clean, got:\n{out}")

    # --- view-escape ----------------------------------------------------

    def test_view_of_local_string_returned_fires(self):
        self.assert_fires(
            {"src/core/w.cc":
                 "#include <string>\n"
                 "#include <string_view>\n"
                 "std::string_view F() {\n"
                 "  std::string local = \"abc\";\n"
                 "  return std::string_view(local);\n"
                 "}\n"},
            "view-escape")

    def test_view_of_byvalue_param_returned_fires(self):
        self.assert_fires(
            {"src/core/w.cc":
                 "#include <string>\n"
                 "#include <string_view>\n"
                 "std::string_view F(std::string s) { return s; }\n"},
            "view-escape")

    def test_view_tainted_through_intermediate_fires(self):
        self.assert_fires(
            {"src/core/w.cc":
                 "#include <string>\n"
                 "#include <string_view>\n"
                 "std::string_view F() {\n"
                 "  std::string local = \"abc\";\n"
                 "  std::string_view v = local;\n"
                 "  return v;\n"
                 "}\n"},
            "view-escape")

    def test_view_stored_into_member_fires(self):
        self.assert_fires(
            {"src/core/w.cc":
                 "#include <string>\n"
                 "#include <string_view>\n"
                 "class C {\n"
                 " public:\n"
                 "  void Set() {\n"
                 "    std::string local = \"abc\";\n"
                 "    view_ = local;\n"
                 "  }\n"
                 " private:\n"
                 "  std::string_view view_;\n"
                 "};\n"},
            "view-escape")

    def test_view_of_reference_param_is_clean(self):
        self.assert_clean(
            {"src/core/w.cc":
                 "#include <string>\n"
                 "#include <string_view>\n"
                 "std::string_view F(const std::string& s) {"
                 " return s; }\n"})

    def test_owning_return_type_is_clean(self):
        self.assert_clean(
            {"src/core/w.cc":
                 "#include <string>\n"
                 "std::string F() {\n"
                 "  std::string local = \"abc\";\n"
                 "  return local;\n"
                 "}\n"})

    # --- backing-before-view -------------------------------------------

    def test_mini_segment_chain_is_clean(self):
        self.assert_clean(
            {"src/core/flat_dil.h": MINI_FLAT_DIL,
             "src/core/corpus_index.h": MINI_INDEX,
             "src/core/index_segment.h": MINI_SEGMENT})

    def test_deleting_flat_dil_pin_fires(self):
        # Without its pin, FlatDil holds unpinned views, and CorpusIndex,
        # which holds FlatDil by value with no backing, inherits that.
        self.assert_fires(
            {"src/core/flat_dil.h": MINI_FLAT_DIL_NO_PIN,
             "src/core/corpus_index.h": MINI_INDEX,
             "src/core/index_segment.h": MINI_SEGMENT},
            "backing-before-view", count=2)

    def test_declaring_flat_dil_pin_after_views_fires(self):
        # The pin declared after v_ dies first: the views outlive it.
        self.assert_fires(
            {"src/core/flat_dil.h": MINI_FLAT_DIL_REORDERED,
             "src/core/corpus_index.h": MINI_INDEX,
             "src/core/index_segment.h": MINI_SEGMENT},
            "backing-before-view")

    def test_suppression_does_not_break_propagation(self):
        # The mapping owner's own finding is suppressed (as SegmentFile's
        # is), but the capability still propagates: an unpinned holder of
        # it is caught regardless.
        self.assert_fires(
            {"src/core/flat_dil.h": MINI_FLAT_DIL,
             "src/core/mapping.h": MINI_MAPPING,
             "src/core/holder.h":
                 "#pragma once\n"
                 "#include \"mapping.h\"\n"
                 "class Holder {\n"
                 " private:\n"
                 "  Mapping mapping_;\n"
                 "};\n"},
            "backing-before-view")

    def test_smart_ptr_and_reference_members_do_not_propagate(self):
        self.assert_clean(
            {"src/core/flat_dil.h": MINI_FLAT_DIL,
             "src/core/mapping.h": MINI_MAPPING,
             "src/core/holder.h":
                 "#pragma once\n"
                 "#include <memory>\n"
                 "#include \"mapping.h\"\n"
                 "class Holder {\n"
                 " private:\n"
                 "  std::shared_ptr<const Mapping> mapping_;\n"
                 "  const Mapping* raw_;\n"
                 "};\n"})

    def test_segment_file_backing_counts(self):
        holder = ("#pragma once\n"
                  "#include \"flat_dil.h\"\n"
                  "class SegmentHolder {\n"
                  " private:\n"
                  "%s"
                  "  FlatDil::Sections view_;\n"
                  "};\n")
        self.assert_clean(
            {"src/core/flat_dil.h": MINI_FLAT_DIL,
             "src/core/holder.h": holder % "  SegmentFile file_;\n"})
        self.assert_fires(
            {"src/core/flat_dil.h": MINI_FLAT_DIL,
             "src/core/holder.h": holder % ""},
            "backing-before-view")

    # --- snapshot-pin ---------------------------------------------------

    PIN_FACADE = (
        "#pragma once\n"
        "#include <memory>\n"
        "struct IndexSnapshot { int Search() const; };\n"
        "class XOntoRank {\n"
        " public:\n"
        "  std::shared_ptr<const IndexSnapshot> snapshot() const;\n"
        "  const std::shared_ptr<const IndexSnapshot>& context() const;\n"
        "};\n")

    def test_get_on_temporary_snapshot_fires(self):
        self.assert_fires(
            {"src/core/xontorank.h": self.PIN_FACADE,
             "src/core/w.cc":
                 "#include \"xontorank.h\"\n"
                 "int F(const XOntoRank& engine) {\n"
                 "  const IndexSnapshot* raw = engine.snapshot().get();\n"
                 "  return raw->Search();\n"
                 "}\n"},
            "snapshot-pin")

    def test_get_on_make_shared_temporary_fires(self):
        self.assert_fires(
            {"src/core/w.cc":
                 "#include <memory>\n"
                 "struct S { int x; };\n"
                 "int F() {\n"
                 "  auto* raw = std::make_shared<S>().get();\n"
                 "  return raw->x;\n"
                 "}\n"},
            "snapshot-pin")

    def test_pinned_snapshot_then_get_is_clean(self):
        self.assert_clean(
            {"src/core/xontorank.h": self.PIN_FACADE,
             "src/core/w.cc":
                 "#include \"xontorank.h\"\n"
                 "int F(const XOntoRank& engine) {\n"
                 "  auto snap = engine.snapshot();\n"
                 "  const IndexSnapshot* raw = snap.get();\n"
                 "  return raw->Search();\n"
                 "}\n"})

    def test_reference_returning_accessor_is_clean(self):
        # context() returns the shared_ptr by reference: no temporary.
        self.assert_clean(
            {"src/core/xontorank.h": self.PIN_FACADE,
             "src/core/w.cc":
                 "#include \"xontorank.h\"\n"
                 "int F(const XOntoRank& engine) {\n"
                 "  const IndexSnapshot* raw = engine.context().get();\n"
                 "  return raw->Search();\n"
                 "}\n"})

    # --- lock-order -----------------------------------------------------

    def test_save_mutex_under_durable_file_mutex_fires(self):
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"sync.h\"\n"
                 "void F() {\n"
                 "  MutexLock lock(DurableFileMutex());\n"
                 "  MutexLock save(SaveMutex());\n"
                 "}\n"},
            "lock-order")

    def test_transitive_inversion_through_callee_fires(self):
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"sync.h\"\n"
                 "void TakesSave() {\n"
                 "  MutexLock lock(SaveMutex());\n"
                 "}\n"
                 "void F() {\n"
                 "  MutexLock lock(DurableFileMutex());\n"
                 "  TakesSave();\n"
                 "}\n"},
            "lock-order")

    def test_same_level_nesting_fires(self):
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"sync.h\"\n"
                 "void F() {\n"
                 "  MutexLock a(DurableFileMutex());\n"
                 "  MutexLock b(DurableFileMutex());\n"
                 "}\n"},
            "lock-order")

    def test_self_reacquisition_fires(self):
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"sync.h\"\n"
                 "void Inner() { MutexLock lock(SaveMutex()); }\n"
                 "void F() {\n"
                 "  MutexLock lock(SaveMutex());\n"
                 "  Inner();\n"
                 "}\n"},
            "lock-order")

    def test_save_under_durable_file_mutex_in_nested_block_fires(self):
        # The inverted save shape: the file lock is level 2, so nothing
        # under it — however deeply scoped — may take the save lock.
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"sync.h\"\n"
                 "void F() {\n"
                 "  MutexLock lock(DurableFileMutex());\n"
                 "  {\n"
                 "    MutexLock save(SaveMutex());\n"
                 "  }\n"
                 "}\n"},
            "lock-order")

    def test_durable_write_under_durable_write_fires(self):
        # A durable write calling another durable write re-acquires the
        # one per-file lock through its callee: a self-deadlock.
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"sync.h\"\n"
                 "void WriteFileDurableLike() {\n"
                 "  MutexLock lock(DurableFileMutex());\n"
                 "}\n"
                 "void F() {\n"
                 "  MutexLock lock(DurableFileMutex());\n"
                 "  WriteFileDurableLike();\n"
                 "}\n"},
            "lock-order")

    def test_manifest_publish_under_save_is_clean(self):
        # The real SaveSnapshot -> SaveManifest -> WriteFileDurable shape:
        # SaveMutex (level 1) held across the durable write (level 2).
        self.assert_clean(
            {"src/storage/w.cc":
                 "#include \"sync.h\"\n"
                 "void WriteFileDurableLike() {\n"
                 "  MutexLock lock(DurableFileMutex());\n"
                 "}\n"
                 "void SaveManifestLike() { WriteFileDurableLike(); }\n"
                 "void F() {\n"
                 "  MutexLock lock(SaveMutex());\n"
                 "  SaveManifestLike();\n"
                 "}\n"})

    def test_documented_order_is_clean(self):
        # SaveMutex (level 1) before DurableFileMutex (level 2).
        self.assert_clean(
            {"src/storage/w.cc":
                 "#include \"sync.h\"\n"
                 "void F() {\n"
                 "  MutexLock lock(SaveMutex());\n"
                 "  MutexLock file(DurableFileMutex());\n"
                 "}\n"})

    def test_sequential_scopes_are_clean(self):
        self.assert_clean(
            {"src/storage/w.cc":
                 "#include \"sync.h\"\n"
                 "void F() {\n"
                 "  { MutexLock lock(DurableFileMutex()); }\n"
                 "  { MutexLock lock(SaveMutex()); }\n"
                 "}\n"})

    # --- view-outlives-unmap -------------------------------------------

    def test_sections_used_after_reset_fires(self):
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"segment_file.h\"\n"
                 "size_t F(SegmentFile file) {\n"
                 "  const auto& infos = file.sections();\n"
                 "  file.reset();\n"
                 "  return infos.size();\n"
                 "}\n"},
            "view-outlives-unmap")

    def test_sections_used_after_move_fires(self):
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"segment_file.h\"\n"
                 "#include <utility>\n"
                 "SegmentFile G(SegmentFile file) {\n"
                 "  const auto& infos = file.sections();\n"
                 "  SegmentFile other = std::move(file);\n"
                 "  infos.size();\n"
                 "  return other;\n"
                 "}\n"},
            "view-outlives-unmap")

    def test_sections_used_after_owner_scope_exit_fires(self):
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"segment_file.h\"\n"
                 "size_t F() {\n"
                 "  std::span<const SectionInfo> infos;\n"
                 "  {\n"
                 "    SegmentFile file = OpenSegmentFile();\n"
                 "    infos = file.sections();\n"
                 "  }\n"
                 "  return infos.size();\n"
                 "}\n"},
            "view-outlives-unmap")

    def test_sections_used_after_reassignment_fires(self):
        self.assert_fires(
            {"src/storage/w.cc":
                 "#include \"segment_file.h\"\n"
                 "size_t F(SegmentFile file) {\n"
                 "  const auto& infos = file.sections();\n"
                 "  file = OpenSegmentFile();\n"
                 "  return infos.size();\n"
                 "}\n"},
            "view-outlives-unmap")

    def test_make_view_used_after_reset_is_clean(self):
        # A MakeView() FlatDil shares ownership of its SegmentFile.
        self.assert_clean(
            {"src/storage/w.cc":
                 "#include \"segment_file.h\"\n"
                 "int F(SegmentFile file) {\n"
                 "  auto view = file.MakeView();\n"
                 "  file.reset();\n"
                 "  return view.num_keywords();\n"
                 "}\n"})

    def test_make_view_used_after_move_is_clean(self):
        self.assert_clean(
            {"src/storage/w.cc":
                 "#include \"segment_file.h\"\n"
                 "#include <utility>\n"
                 "SegmentFile G(SegmentFile file) {\n"
                 "  auto view = file.MakeView();\n"
                 "  SegmentFile other = std::move(file);\n"
                 "  view.num_keywords();\n"
                 "  return other;\n"
                 "}\n"})

    def test_make_view_used_after_owner_scope_exit_is_clean(self):
        self.assert_clean(
            {"src/storage/w.cc":
                 "#include \"segment_file.h\"\n"
                 "int F() {\n"
                 "  FlatDil view;\n"
                 "  {\n"
                 "    SegmentFile file = OpenSegmentFile();\n"
                 "    view = file.MakeView();\n"
                 "  }\n"
                 "  return view.num_keywords();\n"
                 "}\n"})

    def test_use_before_reset_is_clean(self):
        self.assert_clean(
            {"src/storage/w.cc":
                 "#include \"segment_file.h\"\n"
                 "size_t F(SegmentFile file) {\n"
                 "  const auto& infos = file.sections();\n"
                 "  size_t n = infos.size();\n"
                 "  file.reset();\n"
                 "  return n;\n"
                 "}\n"})

    def test_reference_param_owner_is_callers_problem(self):
        self.assert_clean(
            {"src/storage/w.cc":
                 "#include \"segment_file.h\"\n"
                 "size_t F(const SegmentFile& file) {\n"
                 "  const auto& infos = file.sections();\n"
                 "  return infos.size();\n"
                 "}\n"})

    # --- suppressions and unjustified-allow -----------------------------

    def test_justified_suppression_silences_finding(self):
        self.assert_clean(
            {"src/core/w.cc":
                 "#include <string>\n"
                 "#include <string_view>\n"
                 "std::string_view F() {\n"
                 "  std::string local = \"abc\";\n"
                 "  // xo-analyze: allow(view-escape) fixture: caller"
                 " copies immediately\n"
                 "  return std::string_view(local);\n"
                 "}\n"})

    def test_multiline_justification_extends_coverage(self):
        # The allow() line, following comment-only lines, and the first
        # code line after them are all covered.
        self.assert_clean(
            {"src/core/w.cc":
                 "#include <string>\n"
                 "#include <string_view>\n"
                 "std::string_view F() {\n"
                 "  std::string local = \"abc\";\n"
                 "  // xo-analyze: allow(view-escape) fixture: the caller\n"
                 "  // copies the bytes out before the frame unwinds.\n"
                 "  return std::string_view(local);\n"
                 "}\n"})

    def test_unjustified_allow_fires(self):
        self.assert_fires(
            {"src/core/w.cc":
                 "// xo-analyze: allow(view-escape)\n"
                 "int x = 1;\n"},
            "unjustified-allow")

    def test_unknown_rule_in_allow_fires(self):
        self.assert_fires(
            {"src/core/w.cc":
                 "// xo-analyze: allow(no-such-rule) justification here\n"
                 "int x = 1;\n"},
            "unjustified-allow")

    def test_suppression_does_not_cover_unrelated_rule(self):
        self.assert_fires(
            {"src/core/w.cc":
                 "#include <string>\n"
                 "#include <string_view>\n"
                 "std::string_view F() {\n"
                 "  std::string local = \"abc\";\n"
                 "  // xo-analyze: allow(lock-order) wrong rule named\n"
                 "  return std::string_view(local);\n"
                 "}\n"},
            "view-escape")

    # --- baseline machinery ---------------------------------------------

    def test_baseline_gates_only_new_findings(self):
        files = {"src/core/w.cc":
                     "#include <string>\n"
                     "#include <string_view>\n"
                     "std::string_view F() {\n"
                     "  std::string local = \"abc\";\n"
                     "  return std::string_view(local);\n"
                     "}\n"}
        with tempfile.TemporaryDirectory() as root:
            for relpath, content in files.items():
                path = os.path.join(root, relpath)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as fh:
                    fh.write(content)
            baseline = os.path.join(root, "baseline.txt")
            code, out = run_analyze(root, "--write-baseline", baseline)
            self.assertEqual(code, 0, out)
            # Same findings + baseline: gate passes.
            code, out = run_analyze(root, "--baseline", baseline)
            self.assertEqual(code, 0, out)
            # A new violation is NOT covered by the baseline.
            extra = os.path.join(root, "src", "core", "w2.cc")
            with open(extra, "w") as fh:
                fh.write("#include <string>\n"
                         "#include <string_view>\n"
                         "std::string_view G(std::string s) {"
                         " return s; }\n")
            code, out = run_analyze(root, "--baseline", baseline)
            self.assertEqual(code, 1, out)
            self.assertIn("w2.cc", out)

    # --- whole-tool gates -----------------------------------------------

    def test_self_test_passes(self):
        proc = subprocess.run(
            [sys.executable, XO_ANALYZE, "--self-test",
             "--frontend", "builtin"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_list_rules_names_all_six(self):
        proc = subprocess.run(
            [sys.executable, XO_ANALYZE, "--list-rules"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        for rule in ("view-escape", "backing-before-view", "snapshot-pin",
                     "lock-order", "view-outlives-unmap",
                     "unjustified-allow"):
            self.assertIn(rule, proc.stdout)

    def test_repo_tree_is_clean(self):
        code, out = run_analyze(REPO_ROOT)
        self.assertEqual(
            code, 0,
            f"the repo tree must analyze clean (fix or suppress with a "
            f"justification):\n{out}")


if __name__ == "__main__":
    unittest.main()
