#include "engine/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace xic {

namespace {

// Worker index of the calling thread; -1 outside any ParallelFor worker.
thread_local int tl_worker_index = -1;

}  // namespace

int CurrentWorker() { return tl_worker_index; }

size_t ParallelFor(size_t threads, size_t n,
                   const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  // Written once, by the iteration that flips `failed`; read after the
  // joins.
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  // Claims indexes until the cursor passes n. Each iteration is caught
  // individually: one throwing iteration must not stop the others.
  auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        if (!failed.exchange(true)) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> workers;
  const size_t wanted = std::min(threads, n);
  if (wanted > 1) {
    workers.reserve(wanted);
    for (size_t w = 0; w < wanted; ++w) {
      try {
        workers.emplace_back([&drain, w] {
          tl_worker_index = static_cast<int>(w);
          obs::Tracer::SetCurrentThreadName("pool-" + std::to_string(w));
          // Parent of every span the worker's iterations open; recorded
          // only when a trace session is active.
          obs::ScopedSpan worker_span("engine.worker", "engine");
          worker_span.SetSeq(static_cast<int64_t>(w));
          worker_span.AddInt("worker", static_cast<int64_t>(w));
          drain();
        });
      } catch (const std::system_error&) {
        // Out of threads or address space: the workers already running
        // drain the cursor without this one.
        break;
      }
    }
  }
  if (workers.empty()) drain();
  for (std::thread& worker : workers) worker.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return workers.empty() ? 1 : workers.size();
}

}  // namespace xic
