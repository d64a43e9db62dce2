// Status / Result error handling for the xic library.
//
// The library is exception-free (following the Google C++ style guide and
// the conventions of Arrow / RocksDB): every fallible operation returns a
// Status, or a Result<T> which is either a value or a Status. Callers must
// check ok() before using a Result's value.

#ifndef XIC_UTIL_STATUS_H_
#define XIC_UTIL_STATUS_H_

#include <cassert>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace xic {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // malformed input to an API (bad constraint, bad path)
  kParseError,         // syntax error in XML / DTD / constraint text
  kValidationError,    // document does not conform to a DTD^C
  kNotSupported,       // feature intentionally outside the implemented subset
  kResourceExhausted,  // a configured resource limit or search bound was hit
  kDeadlineExceeded,   // a deadline expired (or the call was cancelled)
  kUnavailable,        // transient failure; retrying may succeed
  kInternal,           // invariant violation inside the library
};

/// Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// A success-or-error outcome carrying a code and a message.
/// [[nodiscard]]: silently dropping a Status is the error-handling
/// equivalent of an empty catch block; callers that genuinely do not
/// care must say so with a (void) cast and a comment.
///
/// Representation: one owning pointer. OK is null, so success costs no
/// allocation and moving or destroying an OK status touches no string;
/// an error's code, message and limit share one heap block, allocated
/// when the error is made. Copies of an error are deep. A moved-from
/// Status is OK.
class [[nodiscard]] Status {
 public:
  Status() = default;
  /// An OK `code` makes an OK status; the message is dropped.
  Status(StatusCode code, std::string message);

  Status(const Status& other)
      : rep_(other.rep_ == nullptr ? nullptr : new Rep(*other.rep_)) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      rep_.reset(other.rep_ == nullptr ? nullptr : new Rep(*other.rep_));
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status ValidationError(std::string msg) {
    return Status(StatusCode::kValidationError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// A resource-limit violation naming the exceeded limit (e.g.
  /// "max_tree_depth"); the name is recoverable via limit().
  static Status LimitExceeded(std::string limit, std::string msg) {
    Status s(StatusCode::kResourceExhausted, limit + ": " + std::move(msg));
    s.rep_->limit = std::move(limit);
    return s;
  }
  static Status DeadlineExceeded(std::string msg) {
    Status s(StatusCode::kDeadlineExceeded, std::move(msg));
    s.rep_->limit = "deadline";
    return s;
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const {
    return rep_ == nullptr ? StatusCode::kOk : rep_->code;
  }
  const std::string& message() const {
    return rep_ == nullptr ? EmptyString() : rep_->message;
  }
  /// For kResourceExhausted / kDeadlineExceeded: the name of the limit
  /// that was exceeded ("max_tree_depth", "deadline", ...). Empty for
  /// other codes and for untagged kResourceExhausted statuses.
  const std::string& limit() const {
    return rep_ == nullptr ? EmptyString() : rep_->limit;
  }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
    std::string limit;
  };
  // Out of line, so destroying a Status inlines only the null test.
  struct RepDeleter {
    void operator()(Rep* rep) const;
  };

  static const std::string& EmptyString();

  std::unique_ptr<Rep, RepDeleter> rep_;
};
static_assert(sizeof(Status) == sizeof(void*),
              "an OK Status must stay one null pointer");

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Either a value of type T or an error Status. Check ok() before calling
/// value(); calling value() on an error aborts in debug builds.
/// [[nodiscard]] for the same reason as Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): ergonomic `return value;`.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor): ergonomic `return status;`.
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

// Propagates an error Status from an expression to the caller.
#define XIC_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::xic::Status _xic_status = (expr);          \
    if (!_xic_status.ok()) return _xic_status;   \
  } while (0)

// Evaluates a Result<T> expression; on error returns its Status, otherwise
// binds the value to `lhs`.
#define XIC_ASSIGN_OR_RETURN(lhs, expr)                   \
  auto XIC_CONCAT_(_xic_result_, __LINE__) = (expr);      \
  if (!XIC_CONCAT_(_xic_result_, __LINE__).ok())          \
    return XIC_CONCAT_(_xic_result_, __LINE__).status();  \
  lhs = std::move(XIC_CONCAT_(_xic_result_, __LINE__)).value()

#define XIC_CONCAT_(a, b) XIC_CONCAT_IMPL_(a, b)
#define XIC_CONCAT_IMPL_(a, b) a##b

}  // namespace xic

#endif  // XIC_UTIL_STATUS_H_
