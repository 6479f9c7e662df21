// Status: lightweight, exception-free error signalling for EFES.
//
// Library entry points that can fail return `Status` (or `Result<T>`, see
// result.h). The convention follows the Arrow/RocksDB style: a default
// constructed Status is OK, errors carry a code plus a human-readable
// message, and callers are expected to check `ok()` before using results.

#ifndef EFES_COMMON_STATUS_H_
#define EFES_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace efes {

/// Error categories used across the EFES code base.
enum class StatusCode {
  kOk = 0,
  /// A caller-supplied argument violates the function contract.
  kInvalidArgument,
  /// A referenced entity (relation, attribute, node, ...) does not exist.
  kNotFound,
  /// An entity with the given identity already exists.
  kAlreadyExists,
  /// Input data could not be parsed (CSV, config, formulas).
  kParseError,
  /// An operation is not applicable to the operand types at hand.
  kTypeMismatch,
  /// An internal invariant was violated; indicates a bug in EFES itself.
  kInternal,
  /// The requested computation found no admissible answer, e.g. the repair
  /// planner detected contradicting cleaning tasks ("infinite cleaning
  /// loop", Section 4.2 of the paper).
  kUnsatisfiable,
  /// A transient failure (I/O hiccup, injected fault); retrying the same
  /// operation may succeed. Atomic file writes retry on this code.
  kUnavailable,
  /// An input exceeded a configured resource limit (max field size, max
  /// row count) and processing stopped instead of allocating unboundedly.
  kResourceExhausted,
  /// The caller cancelled the operation (deadline.h CancelToken). Work
  /// stops at the next cooperative checkpoint; partial results are
  /// discarded, never returned.
  kCancelled,
  /// The operation's deadline expired before it completed. Like
  /// kCancelled, surfaces only whole-operation failure — callers never
  /// see a torn result.
  kDeadlineExceeded,
};

/// True for the two cancellation codes (kCancelled, kDeadlineExceeded).
/// The engine treats these as run-aborting: a cancelled module is never
/// contained into a degraded/partial estimate.
inline bool IsCancellation(StatusCode code) {
  return code == StatusCode::kCancelled ||
         code == StatusCode::kDeadlineExceeded;
}

/// Returns the canonical lowercase name of a status code, e.g. "not found".
std::string_view StatusCodeToString(StatusCode code);

/// Result of an operation that may fail. Cheap to copy in the OK case.
/// Marked [[nodiscard]]: silently dropping a Status hides failures, so a
/// discarded return is a compile error (the build adds
/// -Werror=unused-result). Cast to `(void)`, with a comment saying why,
/// for the rare intentional drop.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers mirroring the StatusCode enumerators.
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
  static Status TypeMismatch(std::string msg) {
    return Status(StatusCode::kTypeMismatch, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unsatisfiable(std::string msg) {
    return Status(StatusCode::kUnsatisfiable, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Renders "OK" or "<code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace efes

/// Propagates a non-OK status to the caller. Usable in functions returning
/// Status or Result<T> (Result is implicitly constructible from Status).
#define EFES_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::efes::Status efes_status_macro_tmp = (expr);  \
    if (!efes_status_macro_tmp.ok()) {              \
      return efes_status_macro_tmp;                 \
    }                                               \
  } while (false)

#endif  // EFES_COMMON_STATUS_H_
