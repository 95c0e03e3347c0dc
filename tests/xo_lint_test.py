#!/usr/bin/env python3
"""Fixture tests for tools/xo_lint.py.

Each test seeds a temporary tree with a deliberate violation and asserts
that exactly the expected rule fires (exit 1), and that conforming code
passes (exit 0). The final test runs the linter over the real repo tree,
which must be clean. Stdlib only; registered with ctest as xo_lint_test.
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
XO_LINT = os.path.join(REPO_ROOT, "tools", "xo_lint.py")

CLEAN_HEADER = """\
#ifndef XONTORANK_CORE_WIDGET_H_
#define XONTORANK_CORE_WIDGET_H_

namespace xontorank {
int WidgetCount();
}  // namespace xontorank

#endif  // XONTORANK_CORE_WIDGET_H_
"""


def run_lint(root):
    proc = subprocess.run(
        [sys.executable, XO_LINT, "--root", root],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


class XoLintFixtureTest(unittest.TestCase):
    def lint_tree(self, files):
        """Writes {relpath: content} into a temp root and lints it."""
        with tempfile.TemporaryDirectory() as root:
            for relpath, content in files.items():
                path = os.path.join(root, relpath)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as fh:
                    fh.write(content)
            return run_lint(root)

    def assert_fires(self, files, rule, count=1):
        code, out = self.lint_tree(files)
        self.assertEqual(code, 1, f"expected a finding, got clean:\n{out}")
        self.assertEqual(out.count(f"[{rule}]"), count, out)

    def assert_clean(self, files):
        code, out = self.lint_tree(files)
        self.assertEqual(code, 0, f"expected clean, got:\n{out}")

    # --- raw-sync -------------------------------------------------------

    def test_raw_mutex_in_src_fires(self):
        self.assert_fires(
            {"src/core/widget.cc": "#include <mutex>\nstd::mutex m;\n"},
            "raw-sync")

    def test_raw_lock_guard_and_condvar_fire(self):
        self.assert_fires(
            {"src/core/widget.cc":
                 "void F() { std::lock_guard<std::mutex> l(m); }\n"
                 "std::condition_variable cv;\n"},
            "raw-sync", count=2)  # findings are per line, not per token

    def test_sync_header_itself_is_exempt(self):
        self.assert_clean(
            {"src/common/sync.h":
                 "#ifndef XONTORANK_COMMON_SYNC_H_\n"
                 "#define XONTORANK_COMMON_SYNC_H_\n"
                 "#include <mutex>\n"
                 "using RawMutex = std::mutex;\n"
                 "#endif  // XONTORANK_COMMON_SYNC_H_\n"})

    def test_mutex_in_comment_does_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc": "// handing a std::mutex out is UB\n"})

    def test_mutex_outside_src_does_not_fire(self):
        self.assert_clean(
            {"tests/widget_test.cc": "#include <mutex>\nstd::mutex m;\n"})

    # --- bare-assert ----------------------------------------------------

    def test_bare_assert_fires(self):
        self.assert_fires(
            {"src/core/widget.cc":
                 "#include <cassert>\nvoid F(int n) { assert(n > 0); }\n"},
            "bare-assert")

    def test_static_assert_does_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "static_assert(sizeof(int) == 4, \"ILP32/LP64 only\");\n"})

    def test_xo_check_does_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "#include \"common/check.h\"\n"
                 "void F(int n) { XO_CHECK_GT(n, 0); }\n"})

    def test_assert_in_string_literal_does_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "const char* kHelp = \"assert(x) is banned here\";\n"})

    # --- new-delete -----------------------------------------------------

    def test_raw_new_fires(self):
        self.assert_fires(
            {"src/core/widget.cc": "int* Leak() { return new int(7); }\n"},
            "new-delete")

    def test_raw_delete_fires(self):
        self.assert_fires(
            {"src/core/widget.cc": "void Free(int* p) { delete p; }\n"},
            "new-delete")

    def test_deleted_function_does_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "struct W { W(const W&) = delete; };\n"})

    def test_new_delete_suppression_comment(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "// xo-lint: allow(new-delete) — leaked singleton\n"
                 "static int* kTable = new int(7);\n"})

    # --- include-guard --------------------------------------------------

    def test_conforming_guard_passes(self):
        self.assert_clean({"src/core/widget.h": CLEAN_HEADER})

    def test_wrong_guard_name_fires(self):
        bad = CLEAN_HEADER.replace("XONTORANK_CORE_WIDGET_H_", "WIDGET_H")
        self.assert_fires({"src/core/widget.h": bad}, "include-guard")

    def test_missing_guard_fires(self):
        self.assert_fires(
            {"src/core/widget.h": "namespace xontorank {}\n"},
            "include-guard")

    def test_guard_without_matching_define_fires(self):
        self.assert_fires(
            {"src/core/widget.h":
                 "#ifndef XONTORANK_CORE_WIDGET_H_\n"
                 "#define XONTORANK_CORE_OTHER_H_\n"
                 "#endif\n"},
            "include-guard")

    def test_tests_header_keeps_full_path_prefix(self):
        self.assert_clean(
            {"tests/test_util.h":
                 "#ifndef XONTORANK_TESTS_TEST_UTIL_H_\n"
                 "#define XONTORANK_TESTS_TEST_UTIL_H_\n"
                 "#endif  // XONTORANK_TESTS_TEST_UTIL_H_\n"})

    # --- voided-status --------------------------------------------------

    def test_voided_fallible_call_fires(self):
        self.assert_fires(
            {"tests/helper.cc":
                 "void Seed() { (void)SaveSegment(dil, \"/tmp/i\"); }\n"},
            "voided-status")

    def test_voided_member_call_fires(self):
        self.assert_fires(
            {"src/core/widget.cc":
                 "void F(Ontology& o) { (void)o.Validate(); }\n"},
            "voided-status")

    def test_voiding_a_variable_does_not_fire(self):
        self.assert_clean(
            {"tests/helper.cc": "void F(int result) { (void)result; }\n"})

    def test_checked_call_does_not_fire(self):
        self.assert_clean(
            {"tests/helper.cc":
                 "void Seed() { XO_CHECK_OK(SaveSegment(dil, \"/tmp/i\")); }\n"})

    def test_voided_manifest_decoders_fire(self):
        self.assert_fires(
            {"tests/helper.cc":
                 "void Seed() { (void)LoadManifest(\"/tmp/m\"); }\n"
                 "void Peek() { (void)DecodeManifest(blob); }\n"},
            "voided-status", count=2)

    # --- raw-thread -----------------------------------------------------

    def test_raw_thread_in_src_fires(self):
        self.assert_fires(
            {"src/core/widget.cc":
                 "#include <thread>\n"
                 "void Build() {\n"
                 "  std::vector<std::thread> workers;\n"
                 "  workers.emplace_back([] {});\n"
                 "}\n"},
            "raw-thread")

    def test_jthread_async_and_hardware_query_fire(self):
        self.assert_fires(
            {"src/ir/widget.cc":
                 "std::jthread worker([] {});\n"
                 "auto f = std::async(std::launch::async, [] {});\n"
                 "size_t n = std::thread::hardware_concurrency();\n"},
            "raw-thread", count=3)

    def test_thread_pool_is_exempt(self):
        self.assert_clean(
            {"src/common/thread_pool.cc":
                 "std::vector<std::thread> workers_;\n"
                 "size_t n = std::thread::hardware_concurrency();\n"})

    def test_this_thread_and_threads_outside_src_do_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "void Nap() { std::this_thread::yield(); }\n"
                 "// a std::thread per keyword used to run here\n",
             "tests/widget_test.cc":
                 "std::thread reader([] {});\n"})

    def test_raw_thread_suppression_comment(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "// xo-lint: allow(raw-thread) — a reason\n"
                 "std::thread watchdog([] {});\n"})

    # --- raw-mmap -------------------------------------------------------

    def test_raw_mmap_in_src_fires(self):
        self.assert_fires(
            {"src/core/widget.cc":
                 "#include <sys/mman.h>\n"
                 "void* Map(size_t n) {\n"
                 "  return mmap(nullptr, n, PROT_READ, MAP_PRIVATE, -1, 0);\n"
                 "}\n"},
            "raw-mmap")

    def test_raw_munmap_and_madvise_fire(self):
        self.assert_fires(
            {"src/storage/other_store.cc":
                 "void Drop(void* p, size_t n) { ::munmap(p, n); }\n"
                 "void Hint(void* p, size_t n) { ::madvise(p, n, 1); }\n"},
            "raw-mmap", count=2)

    def test_segment_file_is_exempt(self):
        self.assert_clean(
            {"src/storage/segment_file.cc":
                 "#include <sys/mman.h>\n"
                 "void* Map(size_t n) {\n"
                 "  return mmap(nullptr, n, PROT_READ, MAP_PRIVATE, -1, 0);\n"
                 "}\n"
                 "void Unmap(void* p, size_t n) { ::munmap(p, n); }\n"})

    def test_mmap_outside_src_does_not_fire(self):
        self.assert_clean(
            {"bench/bench_widget.cc":
                 "void* Map(size_t n) {\n"
                 "  return mmap(nullptr, n, PROT_READ, MAP_PRIVATE, -1, 0);\n"
                 "}\n"})

    def test_mmap_in_comment_does_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "// the old design called mmap() here; see segment_file.h\n"})

    def test_raw_mmap_suppression_comment(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "void Hint(void* p, size_t n) {\n"
                 "  ::madvise(p, n, 1);  // xo-lint: allow(raw-mmap)\n"
                 "}\n"})

    # --- best-first-queue -----------------------------------------------

    def test_priority_queue_in_src_fires(self):
        self.assert_fires(
            {"src/core/explain.cc":
                 "#include <queue>\n"
                 "void Walk() {\n"
                 "  std::priority_queue<QueueEntry> queue;\n"
                 "}\n"},
            "best-first-queue")

    def test_unqualified_priority_queue_fires(self):
        self.assert_fires(
            {"src/ir/widget.h":
                 "#ifndef XONTORANK_IR_WIDGET_H_\n"
                 "#define XONTORANK_IR_WIDGET_H_\n"
                 "using std::priority_queue;\n"
                 "priority_queue<double> heap;\n"
                 "#endif  // XONTORANK_IR_WIDGET_H_\n"},
            "best-first-queue", count=2)

    def test_onto_score_is_exempt(self):
        self.assert_clean(
            {"src/core/onto_score.cc":
                 "std::priority_queue<QueueEntry> queue;\n"})

    def test_priority_queue_outside_src_does_not_fire(self):
        self.assert_clean(
            {"tests/widget_test.cc":
                 "std::priority_queue<int> heap;\n",
             "bench/bench_widget.cc":
                 "std::priority_queue<int> heap;\n",
             "src/core/widget.cc":
                 "// explain used to run its own std::priority_queue\n"})

    def test_best_first_queue_suppression_comment(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "// xo-lint: allow(best-first-queue) — a reason\n"
                 "std::priority_queue<int> heap;\n"})

    # --- legacy-search --------------------------------------------------

    def test_search_ranked_fires(self):
        self.assert_fires(
            {"src/core/widget.cc":
                 "void Run(Engine& e, const KeywordQuery& q) {\n"
                 "  auto results = e.SearchRanked(q, 10);\n"
                 "}\n"},
            "legacy-search")

    def test_search_with_integer_top_k_fires(self):
        self.assert_fires(
            {"tests/widget_test.cc":
                 "void Run(Engine& e, const KeywordQuery& q) {\n"
                 "  auto results = e.Search(q, 10);\n"
                 "}\n"},
            "legacy-search")

    def test_search_string_with_integer_top_k_fires(self):
        self.assert_fires(
            {"examples/widget_main.cc":
                 "void Run(Engine& e) {\n"
                 "  auto results = e.Search(\"theophylline\", 5);\n"
                 "}\n"},
            "legacy-search")

    def test_search_with_options_struct_does_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "void Run(Engine& e, const KeywordQuery& q) {\n"
                 "  SearchOptions options;\n"
                 "  options.top_k = 10;\n"
                 "  auto response = e.Search(q, options);\n"
                 "}\n"})

    def test_search_expanded_comparator_does_not_fire(self):
        # The query-expansion comparator keeps an integer top_k on a
        # DIFFERENT name precisely so this rule stays precise.
        self.assert_clean(
            {"bench/bench_widget.cc":
                 "void Run(QueryExpansionEngine& e, const KeywordQuery& q) {\n"
                 "  auto results = e.SearchExpanded(q, 5);\n"
                 "}\n"})

    def test_search_top_helper_does_not_fire(self):
        self.assert_clean(
            {"tests/widget_test.cc":
                 "void Run(Engine& e, const KeywordQuery& q) {\n"
                 "  auto results = SearchTop(e, q, 10);\n"
                 "}\n"})

    def test_search_in_comment_does_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "// the old API was Search(query, 10); see search_api.h\n"})

    # --- untrusted-decode -----------------------------------------------

    def test_reinterpret_cast_in_src_fires(self):
        self.assert_fires(
            {"src/core/widget.cc":
                 "uint32_t Peek(const char* bytes) {\n"
                 "  return *reinterpret_cast<const uint32_t*>(bytes);\n"
                 "}\n"},
            "untrusted-decode")

    def test_cstyle_scalar_pointer_cast_fires(self):
        self.assert_fires(
            {"src/emr/widget.cc":
                 "uint32_t Peek(const void* bytes) {\n"
                 "  return *(const uint32_t*)bytes;\n"
                 "}\n"},
            "untrusted-decode")

    def test_decode_layer_files_are_exempt(self):
        cast = ("uint32_t Peek(const char* bytes) {\n"
                "  return *reinterpret_cast<const uint32_t*>(bytes);\n"
                "}\n")
        self.assert_clean(
            {"src/storage/segment_file.cc": cast,
             "src/storage/coding.cc": cast,
             "src/core/flat_dil.cc": cast})

    def test_cast_outside_src_does_not_fire(self):
        self.assert_clean(
            {"tests/widget_test.cc":
                 "const char* Bytes(const uint8_t* p) {\n"
                 "  return reinterpret_cast<const char*>(p);\n"
                 "}\n"})

    def test_pointer_parameter_declaration_does_not_fire(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "void Fill(const uint32_t* values, uint32_t* out);\n"
                 "size_t Span(const char* begin, const char* end);\n"})

    def test_untrusted_decode_suppression_comment(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "uint32_t Load(const char* p) {\n"
                 "  return *reinterpret_cast<const uint32_t*>(p);"
                 "  // xo-lint: allow(untrusted-decode)\n"
                 "}\n"})

    # --- suppressions ---------------------------------------------------

    def test_same_line_suppression(self):
        self.assert_clean(
            {"src/core/widget.cc":
                 "int* p = new int;  // xo-lint: allow(new-delete)\n"})

    def test_suppression_covers_next_line_only(self):
        self.assert_fires(
            {"src/core/widget.cc":
                 "// xo-lint: allow(new-delete)\n"
                 "int* p = new int;\n"
                 "int* q = new int;\n"},
            "new-delete", count=1)

    def test_suppression_is_rule_specific(self):
        self.assert_fires(
            {"src/core/widget.cc":
                 "int* p = new int;  // xo-lint: allow(bare-assert)\n"},
            "new-delete")

    # --- the real tree --------------------------------------------------

    def test_repo_tree_is_clean(self):
        code, out = run_lint(REPO_ROOT)
        self.assertEqual(code, 0, f"repo tree has lint findings:\n{out}")


if __name__ == "__main__":
    unittest.main()
