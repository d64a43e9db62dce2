// Open-loop load for the daemon workload.
//
// One thread drives a few keep-alive connections, pipelining requests on
// each. Request i is due at start + i / rate whatever the daemon is doing
// (independent users, not callers waiting for replies), and latency is
// timed from the due time, so a stall is charged to every request it
// delays. Session scripts stay on the connection of their session, which
// keeps each session's updates in stream order.

#ifndef XICBENCH_LOAD_H_
#define XICBENCH_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gen.h"
#include "serve/dispatcher.h"

namespace xicbench {

/// What one step measured.
struct StepResult {
  uint64_t sent = 0;
  uint64_t failed = 0;  // wrong code, verdict or body; or no answer
  std::vector<double> latency_ms;  // per answered request, from due time
  std::vector<double> late_ms;     // send time minus due time
};

class LoadClient {
 public:
  /// Connects `conns` keep-alive connections to 127.0.0.1:port. Aborts
  /// the program when a connection cannot be made.
  LoadClient(uint16_t port, int conns);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Sends the next rate * seconds requests of `mix` on a fixed schedule,
  /// then waits up to `drain_seconds` for the remaining answers. Each
  /// answer's normalized hash is stored in *hashes at its request index.
  StepResult RunStep(DaemonMix& mix, double rate, double seconds,
                     double drain_seconds, std::vector<uint64_t>* hashes);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// The open-loop latency figures: `ref` at the reference rate, then the
/// highest fixed rate whose p99 meets `limit_ms` without a growing
/// backlog, found by growing 1.5x per step and then bisecting.
struct OpenLoopResult {
  StepResult ref;
  std::vector<StepResult> ladder;
  double max_rps = 0;
};
OpenLoopResult OpenLoopSearch(LoadClient& client, DaemonMix& mix, double rate,
                              double seconds, double ladder_seconds,
                              double limit_ms, std::vector<uint64_t>* hashes);

/// A response reduced to what must be identical between the daemon and
/// an in-process dispatcher: code, headers without the scheduling-
/// dependent `cache` and `memo` markers, and body; hashed (FNV-1a).
uint64_t NormalizedHash(const std::string& header_line,
                        const std::string& body);

/// Replays the daemon's setup and the first hashes.size() requests of
/// `mix` through an in-process Dispatcher and counts responses whose
/// normalized hash differs from the recorded one. Every session script
/// and a quarter of the other requests are compared.
uint64_t ReplayMismatches(DaemonMix mix,
                          const xic::serve::DispatcherOptions& options,
                          const std::vector<uint64_t>& hashes);

/// Percentile by nearest rank (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

}  // namespace xicbench

#endif  // XICBENCH_LOAD_H_
