// Process-wide metrics: named monotonic counters, high-water marks and
// fixed-bucket histograms.
//
// The registry is the system's flight recorder for *how much work*
// happened -- parse bytes, Glushkov states, closure insertions, chase
// steps, per-document latency -- independent of whether a trace session
// is running. Counters are relaxed atomics (a hit is one fetch_add);
// histograms are an array of relaxed atomic buckets. Both are safe to
// update from any thread at any time, and reads (ToJson/ToTable) give a
// consistent-enough snapshot for reporting.
//
// Naming convention: dot-separated, lower-case, subsystem first
// ("lid.solver.steps", "serve.sessions.high_water"). DESIGN.md's
// Observability section is the canonical table of names; the theorem ->
// metric mapping there (e.g. lid.solver.steps is linear in |Sigma| per
// Theorem 3.2) is what makes the registry a reproduction artifact and
// not just ops plumbing.
//
// Hot paths use the XIC_COUNTER_* / XIC_HISTOGRAM_* macros, which cache
// the registry lookup in a function-local static. With XIC_OBS=OFF the
// macros compile to nothing and their argument expressions are not
// evaluated.

#ifndef XIC_OBS_METRICS_H_
#define XIC_OBS_METRICS_H_

#include "obs/enabled.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"

namespace xic::obs {

/// Point-in-time copy of one histogram: ascending upper bounds plus
/// per-bucket (non-cumulative) counts, buckets.size() == bounds.size()+1
/// with the final bucket counting observations above every bound (+inf).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0;
};

/// Point-in-time copy of the registry, plain data with no atomics --
/// exporters (Prometheus text, dashboards) render from this instead of
/// holding registry references. Callers may layer additional metrics on
/// top before rendering (xicd's dispatcher adds cache/session gauges the
/// registry does not own); `gauges` exists for exactly that, the
/// registry itself never fills it. Defined unconditionally: snapshots
/// and their renderers stay available under XIC_OBS=OFF (the registry
/// one is just empty there).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

#if XIC_OBS_ENABLED

/// A monotonic counter (Add) that doubles as a high-water gauge
/// (RecordMax). One registry entry is one or the other by convention.
///
/// Cache-line aligned: hot counters ("engine.batch.documents", the
/// serve shed/hit counters) are bumped from every worker thread, and the
/// registry's heap allocations would otherwise pack several atomics into
/// one 64-byte line, turning independent counters into a false-sharing
/// ping-pong (ROADMAP item 1).
class alignas(64) Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

  /// Raises the stored value to `v` if it is larger (lock-free max).
  void RecordMax(uint64_t v) {
    uint64_t current = value_.load(std::memory_order_relaxed);
    while (current < v && !value_.compare_exchange_weak(
                              current, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A histogram with fixed ascending upper bounds; an observation lands in
/// the first bucket whose bound it does not exceed (le semantics), with
/// an implicit +inf bucket at the end. Bounds are set at first
/// registration and immutable afterwards.
///
/// Aligned like Counter: count_/sum_bits_ are bumped on every Observe,
/// and must not share a line with a neighboring metric's atomics.
class alignas(64) Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 (the +inf bucket).
  size_t num_buckets() const { return buckets_.size(); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // double, CAS-accumulated
};

/// The process-wide name -> metric table. Lookups take a mutex (cache
/// the returned reference); updates through the returned handles are
/// lock-free.
class Registry {
 public:
  static Registry& Global();

  /// Returns the counter registered under `name`, creating it on first
  /// use. The reference stays valid for the process lifetime.
  Counter& GetCounter(std::string_view name) XIC_EXCLUDES(mutex_);

  /// Returns the histogram under `name`, creating it with `bounds` on
  /// first use (later calls ignore `bounds`).
  Histogram& GetHistogram(std::string_view name,
                          const std::vector<double>& bounds)
      XIC_EXCLUDES(mutex_);

  /// Flat deterministic JSON: {"counters":{...},"histograms":{...}},
  /// names sorted, zero-valued counters included.
  std::string ToJson() const XIC_EXCLUDES(mutex_);

  /// Plain-data copy of every registered metric (names sorted by the
  /// map). The snapshot is consistent-enough, not atomic: counters keep
  /// counting while it is taken, same as ToJson.
  MetricsSnapshot Snapshot() const XIC_EXCLUDES(mutex_);

  /// Human-readable aligned table, names sorted.
  std::string ToTable() const XIC_EXCLUDES(mutex_);

  /// Zeroes every registered metric (tests and CLI runs that want
  /// per-invocation numbers).
  void ResetAll() XIC_EXCLUDES(mutex_);

 private:
  // A leaf lock guarding only the name -> metric tables; updates through
  // returned handles are lock-free.
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      XIC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      XIC_GUARDED_BY(mutex_);
};

#else  // !XIC_OBS_ENABLED

class Counter {
 public:
  void Add(uint64_t = 1) {}
  void RecordMax(uint64_t) {}
  uint64_t value() const { return 0; }
  void Reset() {}
};

class Histogram {
 public:
  explicit Histogram(std::vector<double>) {}
  void Observe(double) {}
  const std::vector<double>& bounds() const {
    static const std::vector<double> kEmpty;
    return kEmpty;
  }
  size_t num_buckets() const { return 0; }
  uint64_t bucket(size_t) const { return 0; }
  uint64_t count() const { return 0; }
  double sum() const { return 0; }
  void Reset() {}
};

class Registry {
 public:
  static Registry& Global() {
    static Registry registry;
    return registry;
  }
  Counter& GetCounter(std::string_view) {
    static Counter counter;
    return counter;
  }
  Histogram& GetHistogram(std::string_view, const std::vector<double>&) {
    static Histogram histogram{{}};
    return histogram;
  }
  std::string ToJson() const { return "{\"counters\":{},\"histograms\":{}}"; }
  MetricsSnapshot Snapshot() const { return {}; }
  std::string ToTable() const { return "(observability compiled out)\n"; }
  void ResetAll() {}
};

#endif  // XIC_OBS_ENABLED

#if XIC_OBS_ENABLED
/// Bumps counter `name` by `n`. Lookup is cached per call site.
#define XIC_COUNTER_ADD(name, n)                              \
  do {                                                        \
    static ::xic::obs::Counter& xic_obs_counter =             \
        ::xic::obs::Registry::Global().GetCounter(name);      \
    xic_obs_counter.Add(static_cast<uint64_t>(n));            \
  } while (0)

/// Raises high-water counter `name` to `v` if larger.
#define XIC_COUNTER_MAX(name, v)                              \
  do {                                                        \
    static ::xic::obs::Counter& xic_obs_counter =             \
        ::xic::obs::Registry::Global().GetCounter(name);      \
    xic_obs_counter.RecordMax(static_cast<uint64_t>(v));      \
  } while (0)

/// Observes `value` into histogram `name` with bucket bounds `...`
/// (a braced initializer list of doubles, fixed at first use).
#define XIC_HISTOGRAM_OBSERVE(name, value, ...)               \
  do {                                                        \
    static ::xic::obs::Histogram& xic_obs_histogram =         \
        ::xic::obs::Registry::Global().GetHistogram(          \
            name, std::vector<double> __VA_ARGS__);           \
    xic_obs_histogram.Observe(static_cast<double>(value));    \
  } while (0)
#else
// The argument expressions must not be evaluated in the no-op build:
// sizeof keeps them syntactically checked but unexecuted.
#define XIC_COUNTER_ADD(name, n) \
  do {                           \
    (void)sizeof(name);          \
    (void)sizeof(n);             \
  } while (0)
#define XIC_COUNTER_MAX(name, v) \
  do {                           \
    (void)sizeof(name);          \
    (void)sizeof(v);             \
  } while (0)
#define XIC_HISTOGRAM_OBSERVE(name, value, ...) \
  do {                                          \
    (void)sizeof(name);                         \
    (void)sizeof(value);                        \
  } while (0)
#endif  // XIC_OBS_ENABLED

}  // namespace xic::obs

#endif  // XIC_OBS_METRICS_H_
