#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.h"

namespace xicbench {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t Fnv1a(const std::string& text, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// A step meets the limit when nothing failed, its p99 is within the limit
// and its last 5% of answers are too: a backlog that grows through the
// step shows there first.
bool Meets(const StepResult& step, double limit_ms) {
  if (step.failed > 0 || step.latency_ms.empty()) return false;
  if (Percentile(step.latency_ms, 0.99) > limit_ms) return false;
  const size_t tail = std::max<size_t>(1, step.latency_ms.size() / 20);
  for (size_t i = step.latency_ms.size() - tail; i < step.latency_ms.size();
       ++i) {
    if (step.latency_ms[i] > limit_ms) return false;
  }
  return true;
}

}  // namespace

uint64_t NormalizedHash(const std::string& header_line,
                        const std::string& body) {
  xic::Result<xic::serve::ResponseHead> head =
      xic::serve::ParseResponseLine(header_line);
  if (!head.ok()) return 0;
  std::string key(xic::serve::WireCode(head.value().code));
  for (const auto& [k, v] : head.value().headers) {
    if (k == "cache" || k == "memo") continue;
    key += " " + k + "=" + v;
  }
  return Fnv1a(body, Fnv1a(key + "\n"));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

struct LoadClient::Conn {
  struct Pending {
    uint64_t index = 0;
    double due = 0;
    std::string expect_code;
    std::string expect_verdict;
    std::string expect_body;
  };
  int fd = -1;
  std::string wbuf;
  size_t woff = 0;
  std::string rbuf;
  std::deque<Pending> fifo;
};

LoadClient::LoadClient(uint16_t port, int conns) {
  std::signal(SIGPIPE, SIG_IGN);
  for (int i = 0; i < conns; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      std::fprintf(stderr, "xicbench: cannot connect to port %u\n",
                   static_cast<unsigned>(port));
      std::exit(2);
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::make_unique<Conn>());
    conns_.back()->fd = fd;
  }
}

LoadClient::~LoadClient() {
  for (const std::unique_ptr<Conn>& conn : conns_) ::close(conn->fd);
}

StepResult LoadClient::RunStep(DaemonMix& mix, double rate, double seconds,
                               double drain_seconds,
                               std::vector<uint64_t>* hashes) {
  StepResult result;
  const uint64_t total = static_cast<uint64_t>(std::llround(rate * seconds));
  const Clock::time_point origin = Clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - origin).count();
  };
  uint64_t next = 0;
  uint64_t outstanding = 0;
  std::vector<pollfd> fds(conns_.size());
  size_t round_robin = 0;

  auto flush = [&](Conn* conn) {
    while (conn->woff < conn->wbuf.size()) {
      ssize_t n = ::write(conn->fd, conn->wbuf.data() + conn->woff,
                          conn->wbuf.size() - conn->woff);
      if (n <= 0) break;  // EAGAIN: poll for POLLOUT
      conn->woff += static_cast<size_t>(n);
    }
    if (conn->woff == conn->wbuf.size()) {
      conn->wbuf.clear();
      conn->woff = 0;
    }
  };

  // Queues request `next` of the mix on the least-loaded connection, or
  // on its session's connection.
  auto send = [&] {
    const double due = static_cast<double>(next) / rate;
    MixRequest m = mix.Next();
    Conn* conn = nullptr;
    if (m.session >= 0) {
      conn = conns_[static_cast<size_t>(m.session) % conns_.size()].get();
    } else {
      for (size_t k = 0; k < conns_.size(); ++k) {
        Conn* c = conns_[(round_robin + k) % conns_.size()].get();
        if (conn == nullptr || c->fifo.size() < conn->fifo.size()) conn = c;
      }
      ++round_robin;
    }
    Conn::Pending p;
    p.index = std::stoull(m.request.id().substr(1));
    p.due = due;
    p.expect_code = std::move(m.expect_code);
    p.expect_verdict = std::move(m.expect_verdict);
    p.expect_body = std::move(m.expect_body);
    conn->fifo.push_back(std::move(p));
    conn->wbuf += m.frame;
    flush(conn);
    result.late_ms.push_back((now_s() - due) * 1e3);
    ++outstanding;
    ++next;
    ++result.sent;
  };

  // Pops every complete response off `conn`; false when the peer closed.
  auto drain = [&](Conn* conn, double now) {
    char buf[65536];
    for (;;) {
      ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        conn->rbuf.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;
      break;  // EAGAIN
    }
    size_t pos = 0;
    while (!conn->fifo.empty()) {
      size_t eol = conn->rbuf.find('\n', pos);
      if (eol == std::string::npos) break;
      std::string line = conn->rbuf.substr(pos, eol - pos);
      xic::Result<xic::serve::ResponseHead> head =
          xic::serve::ParseResponseLine(line);
      if (!head.ok()) return false;
      const size_t len = head.value().body_length;
      if (conn->rbuf.size() - (eol + 1) < len) break;
      std::string body = conn->rbuf.substr(eol + 1, len);
      pos = eol + 1 + len;
      Conn::Pending p = std::move(conn->fifo.front());
      conn->fifo.pop_front();
      --outstanding;
      result.latency_ms.push_back((now - p.due) * 1e3);
      bool ok = xic::serve::WireCode(head.value().code) == p.expect_code;
      if (!p.expect_verdict.empty()) {
        auto it = head.value().headers.find("verdict");
        ok = ok && it != head.value().headers.end() &&
             it->second == p.expect_verdict;
      }
      if (!p.expect_body.empty()) ok = ok && body == p.expect_body;
      if (!ok && ++result.failed <= 3) {
        std::fprintf(stderr, "xicbench: request r%llu: unexpected %s\n%s\n",
                     static_cast<unsigned long long>(p.index), line.c_str(),
                     body.substr(0, 400).c_str());
      }
      if (hashes->size() <= p.index) hashes->resize(p.index + 1, 0);
      (*hashes)[p.index] = NormalizedHash(line, body);
    }
    conn->rbuf.erase(0, pos);
    return true;
  };

  for (;;) {
    double now = now_s();
    while (next < total && now >= static_cast<double>(next) / rate) send();
    if (next >= total && outstanding == 0) break;
    if (now > seconds + drain_seconds) break;
    const double wait =
        next < total
            ? std::clamp(static_cast<double>(next) / rate - now, 0.0, 0.05)
            : 0.05;
    for (size_t k = 0; k < conns_.size(); ++k) {
      fds[k].fd = conns_[k]->fd;
      fds[k].events = POLLIN | (conns_[k]->wbuf.empty() ? 0 : POLLOUT);
      fds[k].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - std::floor(wait)) * 1e9)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    now = now_s();
    for (size_t k = 0; k < conns_.size(); ++k) {
      if (fds[k].revents & POLLOUT) flush(conns_[k].get());
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) &&
          !drain(conns_[k].get(), now)) {
        std::fprintf(stderr, "xicbench: the daemon closed a connection\n");
        std::exit(2);
      }
    }
  }
  // Requests never answered within the drain window count as failed.
  if (outstanding > 0) {
    result.failed += outstanding;
    std::fprintf(stderr, "xicbench: %llu requests unanswered\n",
                 static_cast<unsigned long long>(outstanding));
  }
  return result;
}

OpenLoopResult OpenLoopSearch(LoadClient& client, DaemonMix& mix, double rate,
                              double seconds, double ladder_seconds,
                              double limit_ms, std::vector<uint64_t>* hashes) {
  OpenLoopResult out;
  out.ref = client.RunStep(mix, rate, seconds, 5.0, hashes);
  if (!Meets(out.ref, limit_ms)) return out;
  double lo = rate, hi = 0, spent = 0;
  const double step_seconds = 1.0;
  while (spent + step_seconds <= ladder_seconds) {
    const double r = hi == 0 ? lo * 1.5 : std::sqrt(lo * hi);
    out.ladder.push_back(client.RunStep(mix, r, step_seconds, 3.0, hashes));
    spent += step_seconds;
    const StepResult& step = out.ladder.back();
    (Meets(step, limit_ms) ? lo : hi) = r;
    // Past an unanswered request the connections' state is unknown.
    if (step.latency_ms.size() < step.sent) break;
    if (hi > 0 && hi / lo < 1.03) break;
  }
  out.max_rps = lo;
  return out;
}

uint64_t ReplayMismatches(DaemonMix mix,
                          const xic::serve::DispatcherOptions& options,
                          const std::vector<uint64_t>& hashes) {
  xic::serve::Dispatcher dispatcher(options);
  for (const xic::serve::Request& r : mix.SetupRequests()) {
    (void)dispatcher.Handle(r);
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < hashes.size(); ++i) {
    MixRequest m = mix.Next();
    // Session scripts all run (they carry state); every other verb is
    // sampled, one request in four.
    if (m.session < 0 && i % 4 != 0) continue;
    const std::string wire =
        xic::serve::FormatResponse(dispatcher.Handle(m.request));
    const size_t eol = wire.find('\n');
    if (NormalizedHash(wire.substr(0, eol), wire.substr(eol + 1)) !=
            hashes[i] &&
        ++mismatches <= 3) {
      std::fprintf(stderr, "xicbench: r%zu differs from in-process Handle\n",
                   i);
    }
  }
  return mismatches;
}

}  // namespace xicbench
