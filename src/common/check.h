#ifndef XONTORANK_COMMON_CHECK_H_
#define XONTORANK_COMMON_CHECK_H_

#include <sstream>
#include <string>

namespace xontorank {
namespace internal_check {

/// Writes a failed contract to stderr as one line and aborts the process.
/// The message carries file:line, the macro kind, and the stringified
/// expression so a Release-build core dump is actionable without symbols.
[[noreturn]] void CheckFailed(const char* file, int line, const char* kind,
                              const char* expr, const std::string& detail);

/// Stringifies a comparison operand for the failure message. Types
/// without a stream inserter degrade to a placeholder instead of a
/// compile error, so XO_CHECK_EQ works on any equality-comparable type.
template <typename T>
std::string DescribeValue(const T& v) {
  if constexpr (requires(std::ostringstream& os) { os << v; }) {
    std::ostringstream os;
    os << v;
    return os.str();
  } else {
    return "<unprintable>";
  }
}

/// Extracts a printable status from anything status-shaped: `Status`
/// itself (has ToString), `Result<T>` (has status().ToString()), or any
/// future type exposing `ok()`. Kept duck-typed so this header need not
/// include status.h — status.h includes *us* for XO_CHECK.
template <typename T>
std::string DescribeStatusLike(const T& v) {
  if constexpr (requires { v.ToString(); }) {
    return v.ToString();
  } else if constexpr (requires { v.status().ToString(); }) {
    return v.status().ToString();
  } else {
    return "<not ok>";
  }
}

}  // namespace internal_check
}  // namespace xontorank

/// Always-on invariant check: logs `file:line XO_CHECK(expr) failed` and
/// aborts when `cond` is false. Unlike assert(), these survive NDEBUG —
/// Release builds keep critical invariants. Attach context by &&-ing a
/// string literal into the condition: `XO_CHECK(n > 0 && "empty batch")`.
#define XO_CHECK(cond)                                                \
  do {                                                                \
    if (!(cond)) [[unlikely]] {                                       \
      ::xontorank::internal_check::CheckFailed(                       \
          __FILE__, __LINE__, "XO_CHECK", #cond, ::std::string());    \
    }                                                                 \
  } while (0)

/// Checks that a `Status` or `Result<T>` expression is ok(); on failure
/// the aborted message includes the status text (code + message). The
/// expression is evaluated exactly once.
#define XO_CHECK_OK(expr)                                             \
  do {                                                                \
    auto&& xo_check_st_ = (expr);                                     \
    if (!xo_check_st_.ok()) [[unlikely]] {                            \
      ::xontorank::internal_check::CheckFailed(                       \
          __FILE__, __LINE__, "XO_CHECK_OK", #expr,                   \
          ::xontorank::internal_check::DescribeStatusLike(            \
              xo_check_st_));                                         \
    }                                                                 \
  } while (0)

/// Binary comparison checks; both operands are evaluated exactly once
/// and their values are included in the failure message.
#define XO_CHECK_OP_(kind, op, a, b)                                  \
  do {                                                                \
    auto&& xo_check_a_ = (a);                                         \
    auto&& xo_check_b_ = (b);                                         \
    if (!(xo_check_a_ op xo_check_b_)) [[unlikely]] {                 \
      ::xontorank::internal_check::CheckFailed(                       \
          __FILE__, __LINE__, kind, #a " " #op " " #b,                \
          ::xontorank::internal_check::DescribeValue(xo_check_a_) +   \
              " vs " +                                                \
              ::xontorank::internal_check::DescribeValue(             \
                  xo_check_b_));                                      \
    }                                                                 \
  } while (0)

#define XO_CHECK_EQ(a, b) XO_CHECK_OP_("XO_CHECK_EQ", ==, a, b)
#define XO_CHECK_NE(a, b) XO_CHECK_OP_("XO_CHECK_NE", !=, a, b)
#define XO_CHECK_LT(a, b) XO_CHECK_OP_("XO_CHECK_LT", <, a, b)
#define XO_CHECK_LE(a, b) XO_CHECK_OP_("XO_CHECK_LE", <=, a, b)
#define XO_CHECK_GT(a, b) XO_CHECK_OP_("XO_CHECK_GT", >, a, b)
#define XO_CHECK_GE(a, b) XO_CHECK_OP_("XO_CHECK_GE", >=, a, b)

/// Debug-only variants: identical to XO_CHECK* without NDEBUG, compiled
/// to nothing (operands unevaluated) in Release. Use for hot-path
/// invariants whose cost matters; anything guarding memory safety or
/// index/score integrity should use the always-on forms.
#ifndef NDEBUG
#define XO_DCHECK(cond) XO_CHECK(cond)
#define XO_DCHECK_OK(expr) XO_CHECK_OK(expr)
#define XO_DCHECK_EQ(a, b) XO_CHECK_EQ(a, b)
#define XO_DCHECK_NE(a, b) XO_CHECK_NE(a, b)
#define XO_DCHECK_LT(a, b) XO_CHECK_LT(a, b)
#define XO_DCHECK_LE(a, b) XO_CHECK_LE(a, b)
#define XO_DCHECK_GT(a, b) XO_CHECK_GT(a, b)
#define XO_DCHECK_GE(a, b) XO_CHECK_GE(a, b)
#else
// The dead `if (false)` keeps the operands type-checked and referenced
// (no unused-variable warnings for check-only locals) while the
// optimizer removes the branch and every side effect entirely.
#define XO_DCHECK(cond)        \
  do {                         \
    if (false) {               \
      XO_CHECK(cond);          \
    }                          \
  } while (0)
#define XO_DCHECK_OK(expr)                    \
  do {                                        \
    if (false) {                              \
      XO_CHECK_OK(expr);                      \
    }                                         \
  } while (0)
#define XO_DCHECK_EQ(a, b) XO_DCHECK((a) == (b))
#define XO_DCHECK_NE(a, b) XO_DCHECK((a) != (b))
#define XO_DCHECK_LT(a, b) XO_DCHECK((a) < (b))
#define XO_DCHECK_LE(a, b) XO_DCHECK((a) <= (b))
#define XO_DCHECK_GT(a, b) XO_DCHECK((a) > (b))
#define XO_DCHECK_GE(a, b) XO_DCHECK((a) >= (b))
#endif

#endif  // XONTORANK_COMMON_CHECK_H_
