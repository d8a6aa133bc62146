#pragma once

#include <string>
#include <string_view>
#include <utility>

namespace pgpub {

/// Error categories used across the library. Mirrors the usual
/// database-engine taxonomy (RocksDB / Arrow style).
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kAlreadyExists = 4,
  kFailedPrecondition = 5,
  kIOError = 6,
  kInternal = 7,
  kUnimplemented = 8,
  kResourceExhausted = 9,
  kDeadlineExceeded = 10,
  kUnavailable = 11,
};

/// The last StatusCode: codes are dense in [kOk, kLastStatusCode], so code
/// that enumerates every code loops up to this one. Move it when a code is
/// appended.
inline constexpr StatusCode kLastStatusCode = StatusCode::kUnavailable;

/// Returns a human-readable name for a status code, e.g. "InvalidArgument".
std::string_view StatusCodeToString(StatusCode code);

/// \brief Operation outcome carried across every fallible public API.
///
/// The library does not throw exceptions across module boundaries; functions
/// that can fail return `Status` (or `Result<T>`, see result.h). A `Status`
/// is cheap to copy in the success case (no allocation).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// Returns a copy of this status with `context` prepended to the message.
  Status WithContext(std::string_view context) const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace pgpub

/// Propagates a non-OK `Status` to the caller.
#define RETURN_IF_ERROR(expr)                 \
  do {                                        \
    ::pgpub::Status _st = (expr);             \
    if (!_st.ok()) return _st;                \
  } while (false)

#define PGPUB_CONCAT_IMPL(x, y) x##y
#define PGPUB_CONCAT(x, y) PGPUB_CONCAT_IMPL(x, y)

/// Evaluates `rexpr` (a Result<T>), propagates its Status on failure,
/// otherwise assigns the value into `lhs`.
#define ASSIGN_OR_RETURN(lhs, rexpr)                                \
  ASSIGN_OR_RETURN_IMPL(PGPUB_CONCAT(_res_, __LINE__), lhs, rexpr)

#define ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                          \
  if (!tmp.ok()) return tmp.status();          \
  lhs = std::move(tmp).ValueOrDie()
