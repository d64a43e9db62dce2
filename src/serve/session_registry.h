// Per-client incremental-update sessions for xicd.
//
// A session wraps an IncrementalChecker built against a cached plan's
// (DTD, Sigma): the client streams `add` / `set` updates and queries
// consistency in O(1) instead of re-submitting the whole document per
// revision. Sessions are named (client-chosen or synthesized), bounded
// in number, and isolated: each applies its script under its own mutex,
// and a session whose update path throws (a poisoned handle) is reaped
// from the registry -- subsequent requests for it get invalid-argument,
// while every other session keeps working. The registry pins the plan's
// shared_ptr, so cache eviction never pulls the DTD out from under a
// live session.

#ifndef XIC_SERVE_SESSION_REGISTRY_H_
#define XIC_SERVE_SESSION_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "constraints/incremental.h"
#include "serve/plan_cache.h"
#include "util/fault_injector.h"
#include "util/status.h"
#include "util/sync.h"

namespace xic::serve {

class SessionRegistry {
 public:
  struct Config {
    /// Open sessions beyond this are refused with kUnavailable (the
    /// load-shedding response; clients retry or close older sessions).
    size_t max_sessions = 256;
  };

  struct Stats {
    uint64_t opened = 0;
    uint64_t closed = 0;
    uint64_t reaped = 0;  // sessions removed after a poisoned update
    uint64_t refused = 0;
  };

  SessionRegistry() = default;
  explicit SessionRegistry(Config config) : config_(config) {}

  /// Opens a session named `name` (synthesizes "s<N>" when empty)
  /// against `plan`. Fails with kInvalidArgument when the name is taken
  /// or the checker rejects Sigma, kUnavailable when the registry is
  /// full. Returns the session's name.
  Result<std::string> Open(const std::string& name, PlanPtr plan)
      XIC_EXCLUDES(mutex_);

  /// Applies an update script to the named session and returns the
  /// response body. Script grammar, one statement per line
  /// ('#' comments):
  ///
  ///   add <parent-vertex|root> <label>   -> line "vertex <id>"
  ///   set <vertex> <attr> <value...>     -> line "ok"
  ///
  /// followed by a final "consistent true|false violations <N>" line.
  /// A statement rejected by the checker aborts the script at that line
  /// (prior statements stay applied -- the checker's documented
  /// rejected-op state invariance) and reports the statement's status.
  /// A `set` value is the text after the attribute name, split the way
  /// the XML parser splits attribute values: into whitespace-separated
  /// members when the DTD declares the attribute set-valued (IDREFS,
  /// NMTOKENS), else kept whole, spaces included.
  /// An *exception* escaping the checker poisons the handle: the session
  /// is reaped and kInternal returned; other sessions are unaffected.
  /// `injector` + `fault_key` drive the deterministic "serve.session"
  /// fault site (exception mode exercises the reap path).
  Result<std::string> Apply(const std::string& name,
                            const std::string& script,
                            const FaultInjector& injector,
                            const std::string& fault_key)
      XIC_EXCLUDES(mutex_);

  /// Closes and frees the named session.
  Status Close(const std::string& name) XIC_EXCLUDES(mutex_);

  size_t size() const XIC_EXCLUDES(mutex_);
  Stats stats() const XIC_EXCLUDES(mutex_);

 private:
  struct Session {
    /// Serializes scripts for this session. A leaf lock: never held
    /// while the registry's mutex_ is taken (Apply looks the session up,
    /// drops mutex_, then runs the script under this one; the reap path
    /// retakes mutex_ only after the script scope ends).
    util::Mutex mutex;
    std::unique_ptr<IncrementalChecker> checker XIC_GUARDED_BY(mutex);
    PlanPtr plan;  // keeps dtd/sigma alive for the checker; immutable
  };

  /// Runs the update script against `session`'s checker. On an escaping
  /// checker exception sets *poisoned and returns the reap status; the
  /// caller erases the session from the registry after dropping the
  /// session lock.
  Result<std::string> ApplySessionLocked(Session& session,
                                         const std::string& script,
                                         const FaultInjector& injector,
                                         const std::string& fault_key,
                                         bool* poisoned)
      XIC_REQUIRES(session.mutex);

  Config config_{};
  mutable util::Mutex mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_
      XIC_GUARDED_BY(mutex_);
  uint64_t next_id_ XIC_GUARDED_BY(mutex_) = 1;
  Stats stats_ XIC_GUARDED_BY(mutex_);
};

}  // namespace xic::serve

#endif  // XIC_SERVE_SESSION_REGISTRY_H_
