// Hot-plan cache: compiled DtdStructure + constraint plans keyed by
// schema content hash, with an LRU byte budget, single-flight
// compilation, and negative caching of compile failures.
//
// Every CLI invocation re-parses the DTD, re-runs Glushkov construction
// and re-compiles the constraint checker's plan; a long-lived server
// amortizes that across requests. The cache's robustness properties are
// the point, not a bolt-on:
//
//   * Single-flight: at most one thread compiles a given key at a time.
//     Concurrent requests for the same key block until the flight lands
//     and then share the compiled plan (a shared_ptr -- eviction never
//     invalidates a plan a request is still using).
//   * Negative caching: a compile *failure* is cached too, with a TTL.
//     A poison DTD hammered by many clients costs one compile per TTL
//     window instead of one per request (no stampede), while a schema
//     fixed upstream is retried once the TTL expires.
//   * LRU byte budget: plans account an estimated footprint; inserting
//     past the budget evicts least-recently-used entries. In-flight
//     users keep their plan alive via the shared_ptr.
//
// All state is guarded by one mutex; compilation itself runs outside the
// lock (that is what the flight bookkeeping is for), so a slow compile
// never blocks unrelated keys.

#ifndef XIC_SERVE_PLAN_CACHE_H_
#define XIC_SERVE_PLAN_CACHE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "constraints/constraint.h"
#include "engine/batch_validator.h"
#include "model/dtd_structure.h"
#include "util/status.h"
#include "util/sync.h"

namespace xic::serve {

/// Everything compiled from one schema: the DTD, its constraint set, and
/// a BatchValidator holding the Glushkov automata and the streaming
/// extraction plan. It backs both validate and validate.stream.
/// Immutable after construction; shared read-only across requests.
struct CompiledPlan {
  std::string key;  // content hash (hex)
  DtdStructure dtd;
  ConstraintSet sigma;
  /// Compiled validator referencing `dtd` / `sigma` above. Constructed
  /// after the struct is heap-allocated so the references stay stable.
  std::unique_ptr<BatchValidator> validator;
  /// Estimated resident footprint, charged against the cache budget.
  size_t bytes = 0;
};

using PlanPtr = std::shared_ptr<const CompiledPlan>;

/// FNV-1a 64-bit content hash rendered as 16 hex digits -- the cache key
/// for a schema text (and the `schema=` wire header).
std::string ContentHash(std::string_view text);

class PlanCache {
 public:
  struct Config {
    /// Byte budget for ready plans. Crossing it evicts LRU entries; a
    /// single plan larger than the whole budget is still admitted (and
    /// evicted by the next insert).
    size_t max_bytes = 256u << 20;  // 256 MiB
    /// How long a compile failure is served from the negative cache
    /// before a fresh compile is attempted.
    uint64_t negative_ttl_ms = 2000;
    /// Cap on cached failures. Negative entries carry no plan bytes, so
    /// they are bounded by count instead of the byte budget; past the
    /// cap the oldest failure is dropped. Keeps a stream of distinct
    /// poison schemas from growing the table for the daemon's lifetime.
    size_t max_negative_entries = 1024;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t negative_hits = 0;
    uint64_t compile_failures = 0;
    /// Requests that blocked on another thread's in-flight compile.
    uint64_t single_flight_waits = 0;
  };

  PlanCache() = default;
  explicit PlanCache(Config config) : config_(config) {}

  /// The compiler invoked on a miss. Runs outside the cache lock; must
  /// be side-effect free w.r.t. the cache.
  using Compiler = std::function<Result<PlanPtr>(const std::string& key)>;

  /// Returns the plan for `key`, compiling it via `compile` on a miss.
  /// Exactly one concurrent caller per key runs the compiler; the rest
  /// wait and share its result. A failed compile is returned to every
  /// waiter and cached negatively for Config::negative_ttl_ms. A
  /// compiler that *throws* still lands the flight: a negative entry is
  /// recorded, waiters are woken, and the exception propagates to the
  /// compiling caller only -- the key never wedges in-flight. Sets
  /// *cache_hit (when non-null) to true iff the plan (or cached failure)
  /// was served without running the compiler in this call.
  Result<PlanPtr> GetOrCompile(const std::string& key,
                               const Compiler& compile,
                               bool* cache_hit = nullptr)
      XIC_EXCLUDES(mutex_);

  /// Looks up `key` without compiling; null on miss (negative entries
  /// and in-flight compiles report as a miss).
  PlanPtr Lookup(const std::string& key) XIC_EXCLUDES(mutex_);

  /// Drops every ready and negative entry (benches; in-flight compiles
  /// complete and then land in the cleared cache).
  void Clear() XIC_EXCLUDES(mutex_);

  Stats stats() const XIC_EXCLUDES(mutex_);
  size_t bytes() const XIC_EXCLUDES(mutex_);
  size_t entries() const XIC_EXCLUDES(mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    enum class State { kCompiling, kReady, kNegative };
    State state = State::kCompiling;
    PlanPtr plan;            // kReady
    Status failure;          // kNegative
    Clock::time_point negative_expiry{};  // kNegative
    size_t bytes = 0;
    /// Position in lru_ (kReady only).
    std::list<std::string>::iterator lru_pos;
    bool in_lru = false;
    /// Position in negative_fifo_ (kNegative only).
    std::list<std::string>::iterator neg_pos;
    bool in_negative = false;
  };

  /// Serves `key` from the cache, or installs a kCompiling flight entry
  /// and returns nullopt (the caller then runs the compiler unlocked).
  /// Blocks on another thread's in-flight compile for the same key.
  std::optional<Result<PlanPtr>> LookupOrStartFlightLocked(
      const std::string& key, bool* cache_hit) XIC_REQUIRES(mutex_);
  /// Lands a flight that aborted with an exception: records a negative
  /// entry for `key` and wakes every single-flight waiter.
  void AbandonFlight(const std::string& key) XIC_EXCLUDES(mutex_);
  /// Evicts LRU ready entries until bytes_ <= max_bytes.
  void EvictLocked() XIC_REQUIRES(mutex_);
  /// Marks `entry` negative with `failure`, enrolls it in the bounded
  /// negative FIFO, and sweeps expired/over-cap failures.
  void LandNegativeLocked(const std::string& key, Entry& entry,
                          Status failure) XIC_REQUIRES(mutex_);
  /// Erases `it` from entries_ and whichever index list holds it.
  void EraseLocked(std::unordered_map<std::string, Entry>::iterator it)
      XIC_REQUIRES(mutex_);

  Config config_{};
  mutable util::Mutex mutex_;
  util::CondVar flight_done_;
  std::unordered_map<std::string, Entry> entries_ XIC_GUARDED_BY(mutex_);
  /// Ready keys, front = most recent.
  std::list<std::string> lru_ XIC_GUARDED_BY(mutex_);
  /// Negative keys in landing order. All failures share one TTL, so the
  /// front is always the first to expire; sweeps pop from the front.
  std::list<std::string> negative_fifo_ XIC_GUARDED_BY(mutex_);
  size_t bytes_ XIC_GUARDED_BY(mutex_) = 0;
  Stats stats_ XIC_GUARDED_BY(mutex_);
};

}  // namespace xic::serve

#endif  // XIC_SERVE_PLAN_CACHE_H_
