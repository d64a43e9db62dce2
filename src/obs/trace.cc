#include "obs/trace.h"

#if XIC_OBS_ENABLED

#include <utility>

namespace xic::obs {

namespace {

using Clock = std::chrono::steady_clock;

// The session base time as raw nanoseconds so span begin/end can read it
// without taking the registry mutex.
std::atomic<int64_t> g_base_ns{0};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t SinceBaseNs() {
  int64_t now = NowNs();
  int64_t base = g_base_ns.load(std::memory_order_relaxed);
  return now >= base ? static_cast<uint64_t>(now - base) : 0;
}

// Pending per-thread name, applied when the thread registers a buffer.
thread_local std::string tl_thread_name;
thread_local std::shared_ptr<void> tl_buffer;  // actually ThreadBuffer
thread_local uint64_t tl_epoch = 0;

// The ambient request-scoped trace id (ScopedTraceId); spans opened
// while it is non-empty are tagged with it.
thread_local std::string tl_trace_id;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: outlives worker threads
  return *tracer;
}

void Tracer::Start() {
  util::MutexLock lock(&mutex_);
  buffers_.clear();
  g_base_ns.store(NowNs(), std::memory_order_relaxed);
  // A new epoch invalidates every thread's cached buffer pointer; the
  // release store on enabled_ publishes both.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_release); }

std::shared_ptr<Tracer::ThreadBuffer> Tracer::CurrentBuffer() {
  uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (tl_buffer != nullptr && tl_epoch == epoch) {
    return std::static_pointer_cast<ThreadBuffer>(tl_buffer);
  }
  auto buffer = std::make_shared<ThreadBuffer>();
  buffer->name = tl_thread_name;
  {
    util::MutexLock lock(&mutex_);
    // The epoch may have advanced between the load above and taking the
    // lock (a concurrent Start()); re-read so the buffer lands in the
    // session it will record into.
    epoch = epoch_.load(std::memory_order_relaxed);
    buffers_.push_back(buffer);
  }
  tl_buffer = buffer;
  tl_epoch = epoch;
  return buffer;
}

void Tracer::SetCurrentThreadName(std::string name) {
  tl_thread_name = std::move(name);
  if (tl_buffer != nullptr) {
    auto buffer = std::static_pointer_cast<ThreadBuffer>(tl_buffer);
    util::MutexLock lock(&buffer->mutex);
    buffer->name = tl_thread_name;
  }
}

TraceSnapshot Tracer::Collect() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    util::MutexLock lock(&mutex_);
    buffers = buffers_;
  }
  TraceSnapshot snapshot;
  // First pass: sizes, to rebase parent indices across buffers.
  std::vector<size_t> base(buffers.size(), 0);
  size_t total = 0;
  std::vector<std::vector<SpanRecord>> copies(buffers.size());
  for (size_t b = 0; b < buffers.size(); ++b) {
    util::MutexLock lock(&buffers[b]->mutex);
    copies[b] = buffers[b]->spans;
    std::string name = buffers[b]->name;
    if (name.empty()) name = "thread-" + std::to_string(b);
    snapshot.thread_names.push_back(std::move(name));
    base[b] = total;
    total += copies[b].size();
  }
  snapshot.spans.reserve(total);
  for (size_t b = 0; b < buffers.size(); ++b) {
    for (SpanRecord& span : copies[b]) {
      span.tid = static_cast<uint32_t>(b);
      if (span.parent >= 0) {
        span.parent += static_cast<int32_t>(base[b]);
      }
      snapshot.spans.push_back(std::move(span));
    }
  }
  return snapshot;
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view cat) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  buffer_ = tracer.CurrentBuffer();
  if (buffer_ == nullptr) return;
  util::MutexLock lock(&buffer_->mutex);
  index_ = static_cast<int32_t>(buffer_->spans.size());
  SpanRecord record;
  record.name.assign(name);
  record.cat.assign(cat);
  record.start_ns = SinceBaseNs();
  record.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  if (!tl_trace_id.empty()) {
    // Tag with the thread's ambient request trace id (ScopedTraceId),
    // making the span joinable to its request across the pipeline.
    SpanAttr attr;
    attr.key = "trace_id";
    attr.kind = SpanAttr::Kind::kString;
    attr.string_value = tl_trace_id;
    record.attrs.push_back(std::move(attr));
  }
  buffer_->spans.push_back(std::move(record));
  buffer_->open.push_back(index_);
}

// `id` may view the thread's current id (re-installing Current()), so it
// is copied before that id is moved away.
ScopedTraceId::ScopedTraceId(std::string_view id)
    : previous_(std::exchange(tl_trace_id, std::string(id))) {}

ScopedTraceId::~ScopedTraceId() { tl_trace_id = std::move(previous_); }

const std::string& ScopedTraceId::Current() { return tl_trace_id; }

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  util::MutexLock lock(&buffer_->mutex);
  buffer_->spans[static_cast<size_t>(index_)].end_ns = SinceBaseNs();
  // Spans are strictly scoped, so the top of the open stack is this
  // span; a restart in between cleared nothing (the buffer is retained
  // by this shared_ptr).
  if (!buffer_->open.empty() && buffer_->open.back() == index_) {
    buffer_->open.pop_back();
  }
}

void ScopedSpan::SetSeq(int64_t seq) {
  if (buffer_ == nullptr) return;
  util::MutexLock lock(&buffer_->mutex);
  buffer_->spans[static_cast<size_t>(index_)].seq = seq;
}

void ScopedSpan::AddInt(std::string_view key, int64_t value) {
  if (buffer_ == nullptr) return;
  SpanAttr attr;
  attr.key.assign(key);
  attr.kind = SpanAttr::Kind::kInt;
  attr.int_value = value;
  util::MutexLock lock(&buffer_->mutex);
  buffer_->spans[static_cast<size_t>(index_)].attrs.push_back(
      std::move(attr));
}

void ScopedSpan::AddDouble(std::string_view key, double value) {
  if (buffer_ == nullptr) return;
  SpanAttr attr;
  attr.key.assign(key);
  attr.kind = SpanAttr::Kind::kDouble;
  attr.double_value = value;
  util::MutexLock lock(&buffer_->mutex);
  buffer_->spans[static_cast<size_t>(index_)].attrs.push_back(
      std::move(attr));
}

void ScopedSpan::AddString(std::string_view key, std::string_view value) {
  if (buffer_ == nullptr) return;
  SpanAttr attr;
  attr.key.assign(key);
  attr.kind = SpanAttr::Kind::kString;
  attr.string_value.assign(value);
  util::MutexLock lock(&buffer_->mutex);
  buffer_->spans[static_cast<size_t>(index_)].attrs.push_back(
      std::move(attr));
}

}  // namespace xic::obs

#endif  // XIC_OBS_ENABLED
