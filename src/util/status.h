// Status / Result error model for the ssjoin library.
//
// Public APIs that can fail return Status (or Result<T> when they also
// produce a value) instead of throwing exceptions, following the
// Arrow/RocksDB convention for database-systems C++.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "util/check.h"

namespace ssjoin {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kIOError,
  kNotImplemented,
  kInternal,
  // Guardrail trips (core/execution_guard.h): the run was aborted by an
  // execution budget rather than failing on bad input.
  kCancelled,
  kDeadlineExceeded,
  kResourceExhausted,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "Invalid argument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation that can fail.
///
/// A Status is cheap to copy in the OK case (no allocation). Failed
/// statuses carry a code and a message. Statuses must be checked; the
/// SSJOIN_RETURN_NOT_OK macro propagates failures up the call chain.
///
/// The class-level [[nodiscard]] makes *every* function returning a
/// Status warn (error under -Werror / the CI matrix) when the result is
/// dropped on the floor — a discarded guard trip or IO failure is a
/// swallowed error. Use SSJOIN_RETURN_NOT_OK / assign / branch; in the
/// rare case a failure is genuinely ignorable, write
/// `(void)Call();  // ssjoin-lint: allow(status-must-use)` with a
/// justification so both the compiler and the repo lint see intent.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// \brief A value or an error.
///
/// Result<T> either holds a T (status().ok()) or a non-OK Status.
/// Dereferencing a failed Result is a programming error (assert).
/// [[nodiscard]] for the same reason as Status: discarding one hides
/// the failure it may carry.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value: success.
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  /// Implicit from status: failure. `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    SSJOIN_CHECK(!status_.ok(),
                 "Result constructed from OK status without a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    SSJOIN_CHECK(ok(), "value() on failed Result: {}", status_.ToString());
    return *value_;
  }
  T& value() & {
    SSJOIN_CHECK(ok(), "value() on failed Result: {}", status_.ToString());
    return *value_;
  }
  T&& value() && {
    SSJOIN_CHECK(ok(), "value() on failed Result: {}", status_.ToString());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the held value, or `fallback` if this Result is an error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the current function.
#define SSJOIN_RETURN_NOT_OK(expr)            \
  do {                                        \
    ::ssjoin::Status _st = (expr);            \
    if (!_st.ok()) return _st;                \
  } while (0)

#define SSJOIN_CONCAT_IMPL(a, b) a##b
#define SSJOIN_CONCAT(a, b) SSJOIN_CONCAT_IMPL(a, b)

#define SSJOIN_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value();

/// Evaluates a Result expression; on failure returns its Status, on
/// success assigns the value to `lhs`.
#define SSJOIN_ASSIGN_OR_RETURN(lhs, rexpr) \
  SSJOIN_ASSIGN_OR_RETURN_IMPL(SSJOIN_CONCAT(_res_, __LINE__), lhs, rexpr)

}  // namespace ssjoin
