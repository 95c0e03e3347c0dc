#ifndef XONTORANK_COMMON_STATUS_H_
#define XONTORANK_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace xontorank {

/// Error categories used across the library. Fallible operations never throw
/// across library boundaries; they report failure through `Status` /
/// `Result<T>` (RocksDB-style).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kParseError,
  kIoError,
  kCorruption,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
};

/// Human-readable name of a status code (e.g. "ParseError").
std::string_view StatusCodeName(StatusCode code);

/// Lightweight success-or-error value. An OK status carries no message and
/// no allocation; error statuses carry a code and a message describing what
/// went wrong (including position information for parse errors).
///
/// The class is [[nodiscard]]: any call that returns a Status by value and
/// ignores it is a compile error under `-Werror=unused-result` (set by the
/// top-level CMakeLists). A silently dropped parse/IO/commit error is
/// exactly how DIL scores rot without a failing test; callers must
/// check, propagate (XONTO_RETURN_IF_ERROR), or assert (XO_CHECK_OK).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value-or-error wrapper. Access to `value()` requires `ok()`.
///
/// Like Status, the template is [[nodiscard]]: discarding a returned
/// Result<T> is a build error, because it drops both the value and the
/// error that explains why there is no value.
///
/// Move safety: `std::move(result).value()` transfers the value out and
/// leaves the Result holding a moved-from T. After that point only
/// `ok()` / `status()` remain meaningful; calling `value()` again returns
/// the hollowed-out object. XONTO_ASSIGN_OR_RETURN does exactly one such
/// move and never touches the temporary again — follow the same
/// discipline in hand-written call sites.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit conversions from values and error statuses keep call sites
  /// terse: `return 42;` or `return Status::NotFound(...)`.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {      // NOLINT
    XO_CHECK(!status_.ok() && "Result(Status) requires an error status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// The contained value. Must only be called when `ok()`: misuse aborts
  /// with file:line in every build type (XO_CHECK, not assert) — reading
  /// a disengaged optional would otherwise be silent UB in Release, the
  /// worst possible failure mode for ranking code.
  const T& value() const& {
    XO_CHECK(ok());
    return *value_;
  }
  T& value() & {
    XO_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    XO_CHECK(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` on error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status to the caller.
#define XONTO_RETURN_IF_ERROR(expr)           \
  do {                                        \
    ::xontorank::Status _st = (expr);         \
    if (!_st.ok()) return _st;                \
  } while (0)

/// Evaluates a `Result<T>` expression and binds its value, propagating
/// errors. Usage: `XONTO_ASSIGN_OR_RETURN(auto doc, ParseXml(text));`
#define XONTO_ASSIGN_OR_RETURN(decl, expr)            \
  XONTO_ASSIGN_OR_RETURN_IMPL_(                       \
      XONTO_STATUS_CONCAT_(_result_tmp_, __LINE__), decl, expr)
#define XONTO_ASSIGN_OR_RETURN_IMPL_(tmp, decl, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  decl = std::move(tmp).value()
#define XONTO_STATUS_CONCAT_(a, b) XONTO_STATUS_CONCAT_IMPL_(a, b)
#define XONTO_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace xontorank

#endif  // XONTORANK_COMMON_STATUS_H_
