// The differential oracles: cross-implementation agreement checks.
//
// Each oracle family pits independent implementations of the same
// paper semantics against each other (DESIGN.md "Differential testing"
// has the full trust hierarchy):
//
//   kChecker      NaiveCheck (nested loops) vs. ConstraintChecker (the
//                 streaming engine's tree feed): identical violation
//                 reports, also under max_violations truncation.
//   kIncremental  IncrementalChecker replaying an update sequence vs. a
//                 batch re-check of its tree after *every* operation;
//                 rejected operations must leave the verdict unchanged.
//   kImplication  LuSolver / LidSolver / the chase vs. bounded
//                 EnumerateCountermodel: an "implied" verdict with a
//                 verified countermodel is a soundness mismatch; found
//                 countermodels are re-verified and (for L / L_u)
//                 replayed through LiftToDocument + ConstraintChecker.
//   kRoundTrip    parse -> serialize -> parse fixpoint on self-
//                 describing documents: tree, DTD and constraint block
//                 must survive, and the second serialization must be
//                 byte-identical.
//   kLint         xiclint determinism (two runs byte-identical) and
//                 verdict invariance under a WriteDtdC / ParseDtdC
//                 round-trip.
//   kStream       the streaming pipeline (StreamValidateSelfDescribing
//                 reading through the tokenizer's window in 64-byte
//                 reads, spill budgets from never-spill to
//                 spill-everything) vs. the materialized DOM pipeline
//                 (ParseXml reading in place, then the engine's tree
//                 feed): parse status, structure report and constraint
//                 report must agree byte-for-byte, witnesses included,
//                 and the tree's constraint report must equal
//                 NaiveCheck's. A third of trials corrupt the serialized
//                 bytes so the two paths' error texts and positions are
//                 compared too.
//
// Every oracle has two entry points sharing one comparison core: a
// seed-driven trial (generate inputs, compare) and a corpus replay
// (re-run the comparison on a committed entry's concrete inputs).

#ifndef XIC_FUZZING_ORACLES_H_
#define XIC_FUZZING_ORACLES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzzing/corpus.h"
#include "fuzzing/generate.h"
#include "util/status.h"

namespace xic::fuzz {

enum class OracleId {
  kChecker,
  kIncremental,
  kImplication,
  kRoundTrip,
  kLint,
  kStream,
};

inline constexpr OracleId kAllOracles[] = {
    OracleId::kChecker, OracleId::kIncremental, OracleId::kImplication,
    OracleId::kRoundTrip, OracleId::kLint, OracleId::kStream};

const char* OracleName(OracleId id);
std::optional<OracleId> ParseOracleName(const std::string& name);

/// One trial / replay outcome. `skipped` marks trials whose generated
/// inputs the oracle cannot judge (e.g. enumeration bounds exhausted);
/// they count toward neither agreement nor mismatch.
struct OracleOutcome {
  bool mismatch = false;
  bool skipped = false;
  /// Human-readable diagnosis of the disagreement.
  std::string detail;
  /// Replayable reproduction of the trial (filled on mismatch).
  CorpusEntry entry;
};

/// Runs one seed-driven trial of `oracle`.
OracleOutcome RunTrial(OracleId oracle, uint64_t seed, const GenOptions& opt);

/// Re-runs an entry's oracle on its concrete inputs. Fails (Status) only
/// on malformed entries; a reproduced disagreement is a mismatch
/// outcome, not an error.
Result<OracleOutcome> ReplayEntry(const CorpusEntry& entry);

}  // namespace xic::fuzz

#endif  // XIC_FUZZING_ORACLES_H_
