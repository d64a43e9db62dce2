// Resource governance for the parse -> validate -> solve pipeline.
//
// The paper's decision procedures span the complexity spectrum (linear
// L_id/L_u implication, PSPACE regex inclusion, exponential countermodel
// search, an undecidable general-L problem attacked by bounded search),
// and the parsers face arbitrary user input. A service built on this
// library must bound every call and survive hostile documents rather
// than hang or OOM. This header is the shared vocabulary:
//
//   * ResourceLimits -- hard input and search bounds. Exceeding one
//     yields Status::LimitExceeded naming the limit (kResourceExhausted,
//     limit() == "max_tree_depth" etc.), never a crash or silent
//     truncation.
//   * Deadline -- a monotonic-clock budget, optionally coupled to a
//     CancellationToken. Threaded through parsers, validators and
//     solvers; expiry yields kDeadlineExceeded.
//
// Both are cheap value types: a Deadline is a time_point plus a pointer,
// and expiry checks are amortized by the callers (typically once per
// element / vertex / search step).

#ifndef XIC_UTIL_LIMITS_H_
#define XIC_UTIL_LIMITS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/status.h"

namespace xic {

/// Hard caps on input size and search effort. 0 always means "unlimited".
/// The defaults are generous for real schemas and corpora but small
/// enough that a hostile input fails in milliseconds, not hours.
struct ResourceLimits {
  /// Raw bytes of one XML document (or DTD subset) handed to a parser.
  size_t max_document_bytes = 64u << 20;  // 64 MiB
  /// Element nesting depth of a document (the parser recurses per level).
  size_t max_tree_depth = 512;
  /// Attributes on a single element.
  size_t max_attributes_per_element = 512;
  /// Total bytes produced by entity / character-reference expansion in
  /// one document (the billion-laughs budget).
  size_t max_expansion_bytes = 8u << 20;  // 8 MiB
  /// Nesting depth of a DTD content-model expression.
  size_t max_content_model_depth = 256;
  /// Glushkov positions per content model, and product states explored
  /// by language-inclusion queries (the PSPACE guard).
  size_t max_automaton_states = 1u << 16;
  /// Generic solver step budget (chase steps, enumeration instances,
  /// closure entries) for callers that do not set a finer-grained bound.
  size_t max_solver_steps = 1u << 22;

  /// Every limit disabled.
  static ResourceLimits Unlimited();
};

/// The kResourceExhausted status CheckLimit returns for an exceeded
/// limit: "<what> (<value> exceeds limit <limit>)", limit() `limit_name`.
Status LimitExceededStatus(size_t value, size_t limit, const char* limit_name,
                           std::string_view what);

/// Returns OK when `value` <= `limit` (or the limit is 0), otherwise a
/// kResourceExhausted status whose limit() is `limit_name`. Callers poll
/// limits per element, so the passing path allocates nothing: `what` is
/// either a view of fixed text or a callable returning the text, which
/// runs only when the limit is exceeded.
inline Status CheckLimit(size_t value, size_t limit, const char* limit_name,
                         std::string_view what) {
  if (limit == 0 || value <= limit) return Status::OK();
  return LimitExceededStatus(value, limit, limit_name, what);
}
template <typename WhatFn>
  requires std::is_invocable_r_v<std::string, WhatFn&>
Status CheckLimit(size_t value, size_t limit, const char* limit_name,
                  WhatFn&& what) {
  if (limit == 0 || value <= limit) return Status::OK();
  return LimitExceededStatus(value, limit, limit_name, what());
}

/// A cooperative cancellation flag, shareable across threads. The token
/// must outlive every Deadline observing it.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A monotonic wall-clock budget. Copyable; the default-constructed
/// deadline never expires, so existing call sites pay one branch.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires (unless the optional token is cancelled).
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  static Deadline After(Clock::duration budget) {
    Deadline d;
    d.expiry_ = Clock::now() + budget;
    d.infinite_ = false;
    return d;
  }
  /// A budget too large to represent as a time point from now means no
  /// deadline (converting it would overflow into one already expired).
  static Deadline AfterMillis(uint64_t ms) {
    using std::chrono::milliseconds;
    const auto headroom = std::chrono::duration_cast<milliseconds>(
        Clock::time_point::max() - Clock::now());
    if (ms >= static_cast<uint64_t>(headroom.count())) return Infinite();
    return After(milliseconds(ms));
  }
  /// An already-expired deadline (tests, "poll only" semantics).
  static Deadline Expired() { return After(Clock::duration::zero()); }

  /// Attaches a cancellation token; expired() then also reports true
  /// once the token is cancelled.
  Deadline WithToken(const CancellationToken* token) const {
    Deadline d = *this;
    d.token_ = token;
    return d;
  }

  bool infinite() const { return infinite_ && token_ == nullptr; }
  bool cancelled() const { return token_ != nullptr && token_->cancelled(); }
  bool expired() const {
    if (cancelled()) return true;
    return !infinite_ && Clock::now() >= expiry_;
  }

  /// OK, or kDeadlineExceeded mentioning `what` (the operation that ran
  /// out of time, e.g. "XML parse").
  Status Check(const char* what) const;

 private:
  Clock::time_point expiry_{};
  bool infinite_ = true;
  const CancellationToken* token_ = nullptr;
};

}  // namespace xic

#endif  // XIC_UTIL_LIMITS_H_
