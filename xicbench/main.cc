// xicbench_probe: the compiled half of the benchmark (run.py drives it).
//
//   xicbench_probe spawn [--stdout F] [--stderr E] -- CMD ARGS...
//       Runs CMD as a fresh child of this small process (stdout to F,
//       stderr to E, both /dev/null by default; SIGTERM is forwarded to
//       it) and prints its wall time, exit code and peak RSS (wait4
//       ru_maxrss). A child started straight from run.py would inherit
//       the Python process's RSS as its ru_maxrss floor: exec keeps the
//       larger of the old and new address spaces' peaks.
//   xicbench_probe gen --workload W --seed N --dir D [--mib M] [--docs N]
//       [--sessions S]
//       Writes the workload's inputs and manifest.json (expected verdicts).
//   xicbench_probe load --port P --seed N --conns C --rate R --seconds T
//       --ladder-seconds L --limit-ms X --cache-bytes B
//       Open-loop load of the DOM mix at R requests/s against the xicd on
//       P (setup frames already sent), then the search for the highest
//       rate meeting the p99 limit. Every answer is checked, then a
//       sampled in-process replay. Prints one JSON object.
//   xicbench_probe layers --workload W --seed N --dir D [--threads N]
//       [--spill-mb M] [--trace-out F] [--table-out F]
//       Per-layer costs on the workload's inputs, timed by the
//       benchmark's own spans around public library calls. Prints one
//       JSON object of per-layer metrics.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "gen.h"
#include "layers.h"
#include "load.h"
#include "util/json_writer.h"

namespace {

using namespace xicbench;
using xic::util::JsonWriter;

struct Args {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback = "") {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double Num(const std::string& key, double fallback) {
    auto it = values.find(key);
    return it == values.end() ? fallback
                              : std::strtod(it->second.c_str(), nullptr);
  }
};

std::string Fixed(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

xic::serve::DispatcherOptions ReplayOptions(Args& args) {
  xic::serve::DispatcherOptions options;
  options.cache.max_bytes = static_cast<size_t>(args.Num("cache-bytes", 0));
  return options;
}

// The open-loop latency view of the DOM mix against one running xicd:
// the reference step, the rate search, then the sampled replay.
int Load(Args& args) {
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed", 1));
  const int conns = static_cast<int>(args.Num("conns", 3));
  DaemonMix mix(seed, conns);
  std::vector<uint64_t> hashes;
  OpenLoopResult open;
  {
    LoadClient client(static_cast<uint16_t>(args.Num("port", 0)), conns);
    open = OpenLoopSearch(client, mix, args.Num("rate", 1000),
                          args.Num("seconds", 3), args.Num("ladder-seconds", 5),
                          args.Num("limit-ms", 20), &hashes);
  }
  uint64_t sent = open.ref.sent, failed = open.ref.failed;
  for (const StepResult& s : open.ladder) {
    sent += s.sent;
    failed += s.failed;
  }
  const uint64_t mismatches =
      ReplayMismatches(DaemonMix(seed, conns), ReplayOptions(args), hashes);
  JsonWriter w;
  w.BeginObject(JsonWriter::Layout::kIndented);
  w.Key("requests");
  w.Number(sent);
  w.Key("failed");
  w.Number(failed);
  w.Key("replay_mismatches");
  w.Number(mismatches);
  w.Key("p50_ms");
  w.Raw(Fixed(Percentile(open.ref.latency_ms, 0.50)));
  w.Key("p99_ms");
  w.Raw(Fixed(Percentile(open.ref.latency_ms, 0.99)));
  w.Key("late_p99_ms");
  w.Raw(Fixed(Percentile(open.ref.late_ms, 0.99)));
  w.Key("max_rps");
  w.Raw(Fixed(open.max_rps));
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  return 0;
}

int Gen(Args& args) {
  const std::string workload = args.Get("workload");
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed", 1));
  const std::string dir = args.Get("dir", ".");
  if (workload == "bigdoc") {
    GenerateBigdoc(seed, static_cast<size_t>(args.Num("mib", 16)), dir);
  } else if (workload == "corpus") {
    GenerateCorpus(seed, static_cast<size_t>(args.Num("docs", 4000)), dir);
  } else if (workload == "daemon") {
    const int sessions = static_cast<int>(args.Num("sessions", 3));
    const size_t count = static_cast<size_t>(args.Num("count", 10000));
    DaemonMix dom(seed, sessions, /*stream_variant=*/false);
    WriteFile(dir + "/setup.bin", dom.SetupFrames());
    dom.WriteManifest(dir + "/manifest-dom.json", count);
    DaemonMix(seed, sessions, /*stream_variant=*/true)
        .WriteManifest(dir + "/manifest-stream.json", count);
  } else {
    std::fprintf(stderr, "xicbench_probe gen: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  return 0;
}

volatile pid_t g_spawned = 0;

void ForwardSignal(int signo) {
  if (g_spawned > 0) ::kill(g_spawned, signo);
}

int Spawn(int argc, char** argv) {
  std::string out = "/dev/null", err = "/dev/null";
  int i = 2;
  while (i + 1 < argc && std::string(argv[i]) != "--") {
    const std::string flag = argv[i];
    if (flag == "--stdout") {
      out = argv[i + 1];
    } else if (flag == "--stderr") {
      err = argv[i + 1];
    } else {
      break;
    }
    i += 2;
  }
  if (i + 1 >= argc || std::string(argv[i]) != "--") {
    std::fprintf(stderr,
                 "usage: xicbench_probe spawn [--stdout F] [--stderr E] -- "
                 "CMD\n");
    return 2;
  }
  char** cmd = argv + i + 1;
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return 2;
  if (pid == 0) {
    const int fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int efd = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || efd < 0) ::_exit(127);
    ::dup2(fd, 1);
    ::dup2(efd, 2);
    ::execv(cmd[0], cmd);
    ::_exit(127);
  }
  g_spawned = pid;
  std::signal(SIGTERM, ForwardSignal);
  int status = 0;
  rusage usage{};
  pid_t reaped = -1;
  do {
    reaped = ::wait4(pid, &status, 0, &usage);
  } while (reaped < 0 && errno == EINTR);
  if (reaped != pid) return 2;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::printf("{\"wall_s\": %.9f, \"maxrss_kib\": %ld, \"exit_code\": %d}\n",
              wall, usage.ru_maxrss, code);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: xicbench_probe spawn|gen|load|layers "
                 "--flag value...\n");
    return 2;
  }
  if (std::string(argv[1]) == "spawn") return Spawn(argc, argv);
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "xicbench_probe: expected a flag, got '%s'\n",
                   key.c_str());
      return 2;
    }
    args.values[key.substr(2)] = argv[i + 1];
  }
  const std::string command = argv[1];
  if (command == "gen") return Gen(args);
  if (command == "load") return Load(args);
  if (command == "layers") {
    LayerConfig config;
    config.workload = args.Get("workload");
    config.seed = static_cast<uint64_t>(args.Num("seed", 1));
    config.dir = args.Get("dir", ".");
    config.threads = static_cast<size_t>(args.Num("threads", 4));
    config.spill_mb = static_cast<size_t>(args.Num("spill-mb", 64));
    config.conns = static_cast<int>(args.Num("conns", config.conns));
    config.serve_threads =
        static_cast<size_t>(args.Num("serve-threads", 3));
    config.cache_bytes =
        static_cast<size_t>(args.Num("cache-bytes", 1 << 20));
    config.trace_out = args.Get("trace-out");
    config.table_out = args.Get("table-out");
    return RunLayers(config);
  }
  std::fprintf(stderr, "xicbench_probe: unknown command '%s'\n",
               command.c_str());
  return 2;
}
