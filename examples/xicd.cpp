// xicd -- the long-lived validation daemon.
//
// Serves validate / lint / imply / incremental-session requests over a
// blocking TCP socket (protocol: src/serve/protocol.h; one-line header,
// length-prefixed body -- speakable with netcat, see README). Compiled
// schemas are cached across requests (src/serve/plan_cache.h), overload
// is shed explicitly with kUnavailable + retry-after-ms, and shutdown
// is graceful:
//
//   SIGTERM / SIGINT   stop accepting, drain in-flight requests, exit 0
//   SIGUSR1            flush --trace-out / --metrics-out without
//                      stopping (snapshot of a live daemon)
//   SIGQUIT            dump the flight recorder (the last N requests
//                      with verb / trace-id / status / duration) to
//                      stderr without stopping -- same text the debugz
//                      verb returns
//
// Builds with -DXIC_FAULT_INJECTION=ON additionally accept --fault-rate
// / --fault-seed / --fault-throw to rehearse transient failures
// deterministically (tools/xicd_client.py --faults in CI does exactly
// that).
//
// Exit codes: 0 clean shutdown, 2 bad usage / bind failure.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "obs_cli.h"
#include "serve/server.h"
#include "util/strings.h"

using namespace xic;
using namespace xic::serve;

namespace {

// Signal handlers may only touch lock-free flags; the acceptor's poll
// loop and the main thread's Wait() notice them within ~100ms.
volatile std::sig_atomic_t g_shutdown = 0;
volatile std::sig_atomic_t g_flush = 0;
volatile std::sig_atomic_t g_debugz = 0;

void OnShutdownSignal(int) { g_shutdown = 1; }
void OnFlushSignal(int) { g_flush = 1; }
void OnDebugzSignal(int) { g_debugz = 1; }

int Usage() {
  std::printf(
      "usage: xicd [options]\n"
      "\n"
      "Long-lived xic validation daemon (protocol xic/1, see DESIGN.md).\n"
      "\n"
      "  --host H           bind address (default 127.0.0.1)\n"
      "  --port P           port; 0 picks an ephemeral port (default 0)\n"
      "  --threads N        worker threads (default: hardware)\n"
      "  --queue-depth N    accepted connections awaiting a worker before\n"
      "                     load-shedding (default 64)\n"
      "  --cache-bytes N    plan-cache byte budget (default 256 MiB)\n"
      "  --negative-ttl-ms N  compile-failure cache TTL (default 2000)\n"
      "  --max-sessions N   open incremental sessions (default 256)\n"
      "  --deadline-ms N    default per-request deadline (default 10000)\n"
      "  --read-timeout-ms N  per-connection socket read timeout\n"
      "  --backoff-ms N     initial retry backoff for transient failures\n"
      "                     (0 disables waiting; default 10)\n"
#ifdef XIC_FAULT_INJECTION
      "  --fault-rate P     inject faults on fraction P of (site, id)\n"
      "  --fault-seed S     seed for deterministic fault decisions\n"
      "  --fault-throw      faults throw instead of returning unavailable\n"
#endif
      "  --trace-out FILE   span trace (flushed on SIGUSR1 and exit)\n"
      "  --metrics-out FILE metrics JSON (flushed on SIGUSR1 and exit)\n"
      "  --stats            print the metrics table to stderr on exit\n"
      "  --prom-out FILE    Prometheus text metrics, rewritten every\n"
      "                     --prom-interval-ms and on SIGUSR1/exit\n"
      "  --prom-interval-ms N  --prom-out rewrite period (default 1000)\n"
      "  --flightrec-capacity N  flight-recorder records kept for debugz/\n"
      "                     SIGQUIT (0 disables; default 512)\n"
      "  --slow-us N        requests at/above N microseconds get a phase\n"
      "                     breakdown in the flight record (default\n"
      "                     100000)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options;
  ObsCliOptions obs_options;
  std::string prom_out;
  unsigned long prom_interval_ms = 1000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t count = 0;
    bool obs_error = false;
    if (ObsParseFlag(argc, argv, &i, &obs_options, &obs_error)) {
      if (obs_error) return Usage();
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count) || count > 65535) {
        std::cerr << "--port: not a port: " << argv[i] << "\n";
        return Usage();
      }
      options.port = static_cast<uint16_t>(count);
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.num_threads = count;
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count) || count == 0) return Usage();
      options.max_queue_depth = count;
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.dispatcher.cache.max_bytes = count;
    } else if (arg == "--negative-ttl-ms" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.dispatcher.cache.negative_ttl_ms = count;
    } else if (arg == "--max-sessions" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.dispatcher.sessions.max_sessions = count;
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.dispatcher.default_deadline_ms = count;
    } else if (arg == "--read-timeout-ms" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.read_timeout_ms = count;
    } else if (arg == "--backoff-ms" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.dispatcher.backoff.initial_delay_ms = count;
    } else if (arg == "--prom-out" && i + 1 < argc) {
      prom_out = argv[++i];
    } else if (arg == "--prom-interval-ms" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count) || count == 0) return Usage();
      prom_interval_ms = count;
    } else if (arg == "--flightrec-capacity" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.dispatcher.flight_recorder.capacity = count;
    } else if (arg == "--slow-us" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.dispatcher.flight_recorder.slow_threshold_us = count;
#ifdef XIC_FAULT_INJECTION
    } else if (arg == "--fault-rate" && i + 1 < argc) {
      char* end = nullptr;
      double rate = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || rate < 0 || rate > 1) {
        std::cerr << "--fault-rate: not a probability: " << argv[i] << "\n";
        return Usage();
      }
      options.dispatcher.faults.rate = rate;
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) return Usage();
      options.dispatcher.faults.seed = count;
    } else if (arg == "--fault-throw") {
      options.dispatcher.faults.throw_exceptions = true;
#else
    } else if (arg == "--fault-rate" || arg == "--fault-seed" ||
               arg == "--fault-throw") {
      std::cerr << arg << ": fault injection is disabled in this build "
                          "(configure with -DXIC_FAULT_INJECTION=ON)\n";
      return 2;
#endif
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return Usage();
    }
  }

  // The default per-request retry policy mirrors the engine: transient
  // faults get a second attempt with deterministic-jitter backoff.
  if (options.dispatcher.backoff.initial_delay_ms == 0 &&
      options.dispatcher.faults.enabled()) {
    options.dispatcher.backoff.initial_delay_ms = 10;
  }
  options.dispatcher.backoff.seed = options.dispatcher.faults.seed;

  ObsCliSession obs_session(obs_options);
  Server server(options);
  if (Status status = server.Start(); !status.ok()) {
    std::cerr << "xicd: " << status.ToString() << "\n";
    return 2;
  }

  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);
  std::signal(SIGUSR1, OnFlushSignal);
  std::signal(SIGQUIT, OnDebugzSignal);
  std::signal(SIGPIPE, SIG_IGN);  // a dead peer is the peer's problem

  // Rewrites --prom-out atomically (write-then-rename), so a scraper
  // tailing the file never reads a torn exposition.
  auto export_prom = [&]() {
    if (prom_out.empty()) return;
    const std::string tmp = prom_out + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "xicd: cannot write %s\n", tmp.c_str());
      return;
    }
    const std::string text = server.dispatcher().StatsProm();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::rename(tmp.c_str(), prom_out.c_str());
  };

  // The scripted client greps for this exact line to learn the port.
  std::printf("xicd listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  // Main thread: relay signal flags to the server until shutdown.
  uint64_t naps_since_export = 0;
  const uint64_t naps_per_export = (prom_interval_ms + 49) / 50;
  while (!g_shutdown) {
    if (g_flush) {
      g_flush = 0;
      obs_session.Flush();
      export_prom();
      std::fprintf(stderr, "xicd: observability flushed\n");
    }
    if (g_debugz) {
      g_debugz = 0;
      // Same text as the debugz verb; stderr keeps it out of the
      // port-announcement stream tools parse on stdout.
      std::string dump = server.dispatcher().flight_recorder().DebugString();
      std::fwrite(dump.data(), 1, dump.size(), stderr);
      std::fflush(stderr);
    }
    if (!prom_out.empty() && ++naps_since_export >= naps_per_export) {
      naps_since_export = 0;
      export_prom();
    }
    timespec nap{0, 50'000'000};  // 50ms
    nanosleep(&nap, nullptr);
  }
  std::fprintf(stderr, "xicd: draining\n");
  server.Shutdown(/*drain=*/true);
  Server::Stats stats = server.stats();
  std::fprintf(stderr,
               "xicd: served %llu requests (%llu accepted, %llu shed)\n",
               static_cast<unsigned long long>(stats.served_requests),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.shed_queue_full +
                                               stats.shed_inflight_bytes));
  export_prom();
  if (!obs_session.Finish()) return 2;
  return 0;
}
