// The batch engine's parallel loop.
//
// The paper decides G |= Sigma one document at a time (Definition 2.4),
// so a batch is a flat loop over independent documents: no subtasks, no
// task graph. ParallelFor starts its workers per call, hands out indexes
// from one atomic cursor and joins the workers before it returns.
//
// Exception safety: an exception escaping an iteration never reaches a
// worker's top level (which would std::terminate the process).
// ParallelFor catches each iteration separately, keeps the remaining
// iterations running, and rethrows the first exception in the calling
// thread once every worker joined.

#ifndef XIC_ENGINE_PARALLEL_FOR_H_
#define XIC_ENGINE_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace xic {

/// Runs fn(0) ... fn(n-1) on min(threads, n) worker threads and returns
/// when all are done. Worker w names its thread `pool-<w>` and opens an
/// `engine.worker` span (seq w) that parents the spans `fn` opens. With
/// one worker (threads <= 1 or n <= 1) the loop runs inline on the
/// caller. A thread that cannot be started is not an error: the workers
/// that did start run the whole loop, or the caller when none did.
/// Returns the number of workers that ran, 1 for the caller.
size_t ParallelFor(size_t threads, size_t n,
                   const std::function<void(size_t)>& fn);

/// Index of the ParallelFor worker running the calling thread, or -1
/// outside a worker (the inline path included). Used to tag per-document
/// spans with their worker.
int CurrentWorker();

}  // namespace xic

#endif  // XIC_ENGINE_PARALLEL_FOR_H_
