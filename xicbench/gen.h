// Seeded input generators for the three benchmark workloads.
//
// Every generator is a pure function of its seed: the same seed gives the
// same bytes, the same planted violations and the same request mix, so a
// later run (or a different commit) validates exactly the same inputs.
// The programs under test only ever see the generated files and frames.
//
// All documents share one catalog schema (keys, a foreign key and a
// set-valued foreign key). Violations are planted so that each one
// produces exactly one reported violation on a known constraint:
//   * a duplicate book isbn reuses one earlier isbn once      (key)
//   * a dangling book pub names a publisher that never exists (fk)
//   * a dangling cites value names a book that never exists   (sfk)
//   * a structural plant drops a book's title                 (structure)

#ifndef XICBENCH_GEN_H_
#define XICBENCH_GEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace xicbench {

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// The rendered constraint names, exactly as reports print them.
inline constexpr const char* kKeyBook = "book.isbn -> book";
inline constexpr const char* kFkPub = "book.pub <= publisher.pid";
inline constexpr const char* kSfkCites = "cites.to <=S book.isbn";

/// The catalog DTD^C internal subset; `padding` adds that many unused
/// element declarations named after `tag`, which changes the schema's
/// content hash and scales its compile cost.
std::string CatalogSubset(int padding = 0, const std::string& tag = "");

/// A self-describing document: prolog, DOCTYPE with `subset`, then `body`.
std::string SelfDescribing(const std::string& subset, const std::string& body);

/// What a generated document must produce.
struct Expected {
  bool structure_valid = true;
  /// Planted violations per rendered constraint name.
  std::map<std::string, int> violations;
  int total() const;
  /// The batch report's verdict string.
  std::string verdict() const;
};

/// Options for one catalog body.
struct CatalogPlan {
  size_t target_bytes = 4096;
  int dup_isbns = 0;
  int dangling_pubs = 0;
  int dangling_cites = 0;
  bool drop_title = false;
  /// Suffix of every dangling value, so each seed dangles on its own
  /// names.
  std::string dangling_tag;
};

/// Appends a <catalog> element of about plan.target_bytes to *out.
Expected AppendCatalog(const CatalogPlan& plan, Rng& rng, std::string* out);

// -- Workloads --------------------------------------------------------------

/// bigdoc: one self-describing document of about `mib` MiB. Writes
/// bigdoc.xml, empty.xml (same schema, no content) and manifest.json.
void GenerateBigdoc(uint64_t seed, size_t mib, const std::string& dir);

/// corpus: schema.xml plus `docs` documents of 1-64 KiB with skewed
/// sizes, about 5% with planted violations. Writes files.txt (xicbatch's
/// argument list, schema first) and manifest.json.
void GenerateCorpus(uint64_t seed, size_t docs, const std::string& dir);

/// One request of the daemon mix and its expected answer.
struct MixRequest {
  xic::serve::Request request;
  std::string frame;  // wire bytes
  std::string verb;   // metric key: validate, validate_stream, ...
  std::string expect_code = "ok";
  std::string expect_verdict;  // validate verbs
  std::string expect_body;     // exact body (session.apply, imply)
  int session = -1;            // pinned connection for session scripts
};

/// The daemon mix: a warm schema, a pool of self-describing schemas
/// larger than the plan cache, `sessions` incremental sessions, and a
/// deterministic request stream. The stream variant sends validate.stream
/// where the DOM variant sends validate, and the reverse.
class DaemonMix {
 public:
  DaemonMix(uint64_t seed, int sessions, bool stream_variant = false);

  const std::string& warm_schema() const { return warm_schema_; }
  const std::vector<std::string>& pool_schemas() const { return pool_; }
  /// Frames the client sends before any load: every schema.put (pool
  /// first, the warm schema last so it is most recently used) and one
  /// session.open per session.
  std::vector<xic::serve::Request> SetupRequests() const;

  /// The next request of the stream (request ids are "r<index>").
  MixRequest Next();

  /// SetupRequests() as wire frames, concatenated.
  std::string SetupFrames() const;

  /// Writes the expected-response summary of the first `count` requests
  /// (computed on a copy of the stream) to `path`.
  void WriteManifest(const std::string& path, size_t count) const;

 private:
  struct SessionState {
    uint64_t next_vertex = 0;
    int publishers = 0;
    int books = 0;
  };
  MixRequest Make(const std::string& verb,
                  std::map<std::string, std::string> headers,
                  std::string body);

  Rng rng_;
  int sessions_;
  std::string main_verb_;   // the validate verb most requests use
  std::string other_verb_;  // the small share of the other one
  uint64_t index_ = 0;
  std::string warm_schema_;
  std::string warm_hash_;
  std::vector<std::string> pool_;        // self-describing schema docs
  std::vector<std::string> pool_docs_;   // self-describing bodies
  std::vector<Expected> pool_expected_;
  std::vector<std::string> small_docs_;  // bodies for schema=<warm>
  std::vector<Expected> small_expected_;
  std::vector<SessionState> state_;
};

/// Reads a whole file; aborts the program on failure.
std::string ReadFile(const std::string& path);
/// Writes a whole file; aborts the program on failure.
void WriteFile(const std::string& path, const std::string& data);

}  // namespace xicbench

#endif  // XICBENCH_GEN_H_
