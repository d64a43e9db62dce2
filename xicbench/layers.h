// The traced run: per-layer costs of one workload's inputs.
//
// The library carries no benchmark probes. Instead this file wraps its
// own spans around calls into each layer's public functions -- the
// tokenizer's Next() loop, ParseXml, StructuralValidator::Validate,
// ConstraintChecker::Check, StreamValidator::Run, TupleLog, BatchValidator
// and the serve Dispatcher / Server -- and derives per-unit costs from
// them. The spans are written as a Chrome trace, and a self-time table
// (span time minus the time of its child spans) is written per layer.

#ifndef XICBENCH_LAYERS_H_
#define XICBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace xicbench {

struct LayerConfig {
  std::string workload;  // bigdoc | corpus | daemon
  uint64_t seed = 1;
  std::string dir;       // where `gen` wrote the workload's inputs
  size_t threads = 4;    // the pool width the workload runs at
  size_t spill_mb = 64;  // the workload's streaming spill budget
  // The daemon workload's settings, used for the serve layer.
  int conns = 3;                 // client connections = sessions
  size_t serve_threads = 3;      // xicd --threads
  size_t cache_bytes = 1 << 20;  // xicd --cache-bytes
  std::string trace_out;
  std::string table_out;
};

/// Measures every layer and prints one JSON object of metrics on stdout.
/// Returns the process exit code.
int RunLayers(const LayerConfig& config);

}  // namespace xicbench

#endif  // XICBENCH_LAYERS_H_
