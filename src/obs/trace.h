// Hierarchical spans: who called what, for how long, with which
// workload attributes (automaton states, solver steps, retry events).
//
// Recording model:
//   * The process has one global Tracer. Nothing is recorded until a
//     session is started (Tracer::Start, or the ScopedTraceSession
//     helper); outside a session a ScopedSpan costs one relaxed atomic
//     load and nothing else.
//   * During a session each thread appends to its own buffer; a span's
//     parent is whatever span the same thread currently has open, so
//     the per-thread records form properly nested trees (a pool worker's
//     long-lived "engine.worker" span becomes the parent of every
//     document span it executes).
//   * Collect() merges the per-thread buffers into one snapshot with
//     rebased parent indices and per-thread names. Exporters live in
//     obs/export.h: Chrome trace_event JSON (about:tracing / Perfetto)
//     and a deterministic tree rendering for tests.
//
// Determinism: wall-clock values and thread ids vary run to run, but a
// span's name, category, attribute keys, nesting, and its `seq` tag
// (set by instrumentation to a scheduling-independent ordinal, e.g. the
// batch document index) do not. DeterministicTreeString() in export.h
// keeps only those, which is how the tests pin span trees across 1/4/16
// worker threads.
//
// Thread-safety: each buffer has its own mutex, uncontended in steady
// state (only its owning thread and the merging Collect() take it), so
// the whole layer is TSan-clean without per-span allocation tricks.

#ifndef XIC_OBS_TRACE_H_
#define XIC_OBS_TRACE_H_

#include "obs/enabled.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"

namespace xic::obs {

/// One typed span attribute (rendered into Chrome-trace "args").
struct SpanAttr {
  enum class Kind { kInt, kDouble, kString };
  std::string key;
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  double double_value = 0;
  std::string string_value;
};

/// One closed (or still-open, end_ns == 0) span.
struct SpanRecord {
  std::string name;
  std::string cat;
  uint64_t start_ns = 0;  // relative to the session start
  uint64_t end_ns = 0;
  uint32_t tid = 0;       // index into TraceSnapshot::thread_names
  int32_t parent = -1;    // index into the snapshot's span vector
  int64_t seq = -1;       // deterministic ordinal, -1 when untagged
  std::vector<SpanAttr> attrs;
};

/// A merged copy of every thread's spans, self-contained for export.
struct TraceSnapshot {
  std::vector<SpanRecord> spans;
  std::vector<std::string> thread_names;  // indexed by SpanRecord::tid
};

#if XIC_OBS_ENABLED

/// The global span recorder. All methods are thread-safe.
class Tracer {
 public:
  static Tracer& Global();

  /// Begins a session: clears prior buffers and enables recording.
  void Start() XIC_EXCLUDES(mutex_);
  /// Ends the session; spans still open keep recording their end times
  /// into their (retained) buffers until destroyed.
  void Stop();
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Merges every thread buffer into one snapshot. Call after the
  /// instrumented work has finished (e.g. after the batch Run returned
  /// and its pool was destroyed).
  TraceSnapshot Collect() const XIC_EXCLUDES(mutex_);

  /// Names the calling thread in subsequent snapshots ("main",
  /// "pool-3"). Cheap; safe to call whether or not a session is active.
  static void SetCurrentThreadName(std::string name);

 private:
  friend class ScopedSpan;
  struct ThreadBuffer {
    /// A leaf lock, uncontended in steady state: only the owning thread
    /// and the merging Collect() take it, and never while the Tracer's
    /// registry mutex_ is held.
    util::Mutex mutex;
    std::string name XIC_GUARDED_BY(mutex);
    std::vector<SpanRecord> spans XIC_GUARDED_BY(mutex);
    /// Stack of open span indices.
    std::vector<int32_t> open XIC_GUARDED_BY(mutex);
  };

  /// The calling thread's buffer for the current session (registering
  /// it on first use), or nullptr when disabled.
  std::shared_ptr<ThreadBuffer> CurrentBuffer() XIC_EXCLUDES(mutex_);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> epoch_{0};
  mutable util::Mutex mutex_;  // guards the buffer registry
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ XIC_GUARDED_BY(mutex_);
};

/// RAII span: records [construction, destruction) on the calling
/// thread, nested under the thread's currently open span. Inactive (all
/// methods no-ops) when no session is running.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::string_view cat = "xic");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return buffer_ != nullptr; }

  /// Tags the span with a scheduling-independent ordinal (document
  /// index, rule index) used for deterministic ordering in exports.
  void SetSeq(int64_t seq);
  void AddInt(std::string_view key, int64_t value);
  void AddDouble(std::string_view key, double value);
  void AddString(std::string_view key, std::string_view value);

 private:
  std::shared_ptr<Tracer::ThreadBuffer> buffer_;  // null when inactive
  int32_t index_ = -1;
};

/// RAII trace session for CLI entry points and tests.
class ScopedTraceSession {
 public:
  ScopedTraceSession() { Tracer::Global().Start(); }
  ~ScopedTraceSession() { Tracer::Global().Stop(); }
  ScopedTraceSession(const ScopedTraceSession&) = delete;
  ScopedTraceSession& operator=(const ScopedTraceSession&) = delete;
};

/// Request-scoped trace id: installs `id` as the calling thread's
/// ambient trace id for this scope (saving and restoring any outer one,
/// so nested scopes behave). Every ScopedSpan opened on the thread while
/// an id is installed is tagged with a "trace_id" string attribute,
/// which is what makes one request's spans joinable across the serve
/// pipeline -- the dispatcher installs the id once at the top of
/// Handle() and the compile / run / session spans underneath pick it up
/// without any parameter threading. The id is thread-local: work fanned
/// out to other threads must install it there itself (the daemon's
/// engine runs inline, so it needs none).
class ScopedTraceId {
 public:
  explicit ScopedTraceId(std::string_view id);
  ~ScopedTraceId();
  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

  /// The calling thread's installed trace id, or empty.
  static const std::string& Current();

 private:
  std::string previous_;
};

#else  // !XIC_OBS_ENABLED

class Tracer {
 public:
  static Tracer& Global() {
    static Tracer tracer;
    return tracer;
  }
  void Start() {}
  void Stop() {}
  bool enabled() const { return false; }
  TraceSnapshot Collect() const { return {}; }
  static void SetCurrentThreadName(std::string) {}
};

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view, std::string_view = "xic") {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  bool active() const { return false; }
  void SetSeq(int64_t) {}
  void AddInt(std::string_view, int64_t) {}
  void AddDouble(std::string_view, double) {}
  void AddString(std::string_view, std::string_view) {}
};

class ScopedTraceSession {
 public:
  ScopedTraceSession() = default;
  ScopedTraceSession(const ScopedTraceSession&) = delete;
  ScopedTraceSession& operator=(const ScopedTraceSession&) = delete;
};

// Span tagging is a probe and compiles away; the trace-id protocol
// behavior itself (generation and response echo) lives in the serve
// layer and survives OFF builds.
class ScopedTraceId {
 public:
  explicit ScopedTraceId(std::string_view) {}
  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;
  static const std::string& Current() {
    static const std::string empty;
    return empty;
  }
};

#endif  // XIC_OBS_ENABLED

}  // namespace xic::obs

#endif  // XIC_OBS_TRACE_H_
