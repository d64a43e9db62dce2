#include "serve/session_registry.h"

#include <vector>

#include "obs/obs.h"
#include "util/strings.h"

namespace xic::serve {

namespace {

bool ParseVertex(const std::string& token, VertexId* out) {
  if (token == "root") {
    *out = kInvalidVertex;
    return true;
  }
  uint64_t value = 0;
  if (!ParseDecimal(token, &value) || value >= kInvalidVertex) return false;
  *out = static_cast<VertexId>(value);
  return true;
}

}  // namespace

Result<std::string> SessionRegistry::Open(const std::string& name,
                                          PlanPtr plan) {
  std::shared_ptr<Session> session = std::make_shared<Session>();
  session->plan = std::move(plan);
  session->checker = std::make_unique<IncrementalChecker>(
      session->plan->dtd, session->plan->sigma);
  if (!session->checker->status().ok()) {
    return session->checker->status();
  }
  util::MutexLock lock(&mutex_);
  if (sessions_.size() >= config_.max_sessions) {
    ++stats_.refused;
    XIC_COUNTER_ADD("serve.sessions.refused", 1);
    return Status::Unavailable(
        "session registry full (" + std::to_string(config_.max_sessions) +
        " open sessions)");
  }
  std::string id = name;
  if (id.empty()) id = "s" + std::to_string(next_id_++);
  if (!sessions_.emplace(id, std::move(session)).second) {
    return Status::InvalidArgument("session already open: " + id);
  }
  ++stats_.opened;
  XIC_COUNTER_ADD("serve.sessions.opened", 1);
  XIC_COUNTER_MAX("serve.sessions.high_water", sessions_.size());
  return id;
}

Result<std::string> SessionRegistry::Apply(const std::string& name,
                                           const std::string& script,
                                           const FaultInjector& injector,
                                           const std::string& fault_key) {
  std::shared_ptr<Session> session;
  {
    util::MutexLock lock(&mutex_);
    auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      return Status::InvalidArgument("no such session: " + name);
    }
    session = it->second;
  }
  bool poisoned = false;
  Result<std::string> result = Status::Internal("session apply aborted");
  {
    // Per-session lock: scripts for one session serialize; distinct
    // sessions run concurrently. Dropped before the reap below retakes
    // the registry lock, keeping both mutexes leaf locks.
    util::MutexLock session_lock(&session->mutex);
    result = ApplySessionLocked(*session, script, injector, fault_key,
                                &poisoned);
  }
  if (poisoned) {
    // Poisoned handle: reap this session only.
    {
      util::MutexLock lock(&mutex_);
      sessions_.erase(name);
      ++stats_.reaped;
    }
    XIC_COUNTER_ADD("serve.sessions.reaped", 1);
  }
  return result;
}

Result<std::string> SessionRegistry::ApplySessionLocked(
    Session& session, const std::string& script,
    const FaultInjector& injector, const std::string& fault_key,
    bool* poisoned) {
  std::string body;
  try {
    if (Status s = injector.MaybeFail("serve.session", fault_key); !s.ok()) {
      XIC_COUNTER_ADD("serve.faults", 1);
      return s;
    }
    IncrementalChecker& checker = *session.checker;
    std::vector<std::string> lines = Split(script, '\n');
    size_t line_no = 0;
    for (const std::string& raw : lines) {
      ++line_no;
      std::string_view line = StripWhitespace(raw);
      if (line.empty() || line[0] == '#') continue;
      std::vector<std::string> tokens = Split(line, ' ');
      const std::string& op = tokens[0];
      Status op_status;
      if (op == "add" && tokens.size() == 3) {
        VertexId parent;
        if (!ParseVertex(tokens[1], &parent)) {
          op_status = Status::InvalidArgument("bad vertex: " + tokens[1]);
        } else {
          Result<VertexId> added = checker.AddElement(parent, tokens[2]);
          if (added.ok()) {
            body += "vertex " + std::to_string(added.value()) + "\n";
          } else {
            op_status = added.status();
          }
        }
      } else if (op == "set" && tokens.size() >= 4) {
        VertexId vertex;
        if (!ParseVertex(tokens[1], &vertex)) {
          op_status = Status::InvalidArgument("bad vertex: " + tokens[1]);
        } else {
          // The value is everything after the attribute name (values may
          // contain spaces; a set-valued attribute splits on them).
          std::vector<std::string> value_parts(tokens.begin() + 3,
                                               tokens.end());
          op_status = checker.SetAttribute(vertex, tokens[2],
                                           Join(value_parts, " "));
          if (op_status.ok()) body += "ok\n";
        }
      } else {
        op_status = Status::InvalidArgument("bad statement: " +
                                            std::string(line));
      }
      if (!op_status.ok()) {
        // The checker's rejected-op invariance: prior statements stay
        // applied, the script stops here.
        body += "error line " + std::to_string(line_no) + " " +
                op_status.ToString() + "\n";
        break;
      }
    }
    body += std::string("consistent ") +
            (checker.consistent() ? "true" : "false") + " violations " +
            std::to_string(checker.violation_count()) + "\n";
    XIC_COUNTER_ADD("serve.sessions.updates", line_no);
    return body;
  } catch (const std::exception& e) {
    *poisoned = true;
    return Status::Internal(std::string("session reaped: ") + e.what());
  }
}

Status SessionRegistry::Close(const std::string& name) {
  util::MutexLock lock(&mutex_);
  if (sessions_.erase(name) == 0) {
    return Status::InvalidArgument("no such session: " + name);
  }
  ++stats_.closed;
  XIC_COUNTER_ADD("serve.sessions.closed", 1);
  return Status::OK();
}

size_t SessionRegistry::size() const {
  util::MutexLock lock(&mutex_);
  return sessions_.size();
}

SessionRegistry::Stats SessionRegistry::stats() const {
  util::MutexLock lock(&mutex_);
  return stats_;
}

}  // namespace xic::serve
