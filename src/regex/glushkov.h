// Glushkov position automaton for content-model regular expressions.
//
// Used to (a) match a children label sequence against P(tau) during
// structural validation (Definition 2.4), and (b) decide 1-unambiguity
// (the XML "deterministic content model" requirement), which we expose as
// an extension check. Matching runs in O(|word| * |positions|) worst case
// and O(|word|) for deterministic models.

#ifndef XIC_REGEX_GLUSHKOV_H_
#define XIC_REGEX_GLUSHKOV_H_

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "regex/content_model.h"

namespace xic {

/// Why a content model fails the 1-unambiguity requirement: two distinct
/// positions (occurrences, numbered left to right from 0) that carry the
/// same symbol compete -- after the same prefix, the matcher cannot
/// decide which occurrence consumed the next label. `via == -1` means
/// both positions can begin a match (clash in First); otherwise both can
/// follow position `via` (clash in Follow(via)).
struct AmbiguityWitness {
  std::string symbol;
  int pos1 = 0;
  int pos2 = 0;
  int via = -1;
};

class GlushkovAutomaton {
 public:
  /// Builds the position automaton of `re`. `re` must be non-null.
  explicit GlushkovAutomaton(const RegexPtr& re);

  /// True iff the label sequence is in L(re).
  bool Matches(const std::vector<std::string>& word) const;

  // -- Alphabet-id interface (the hot path) ---------------------------------
  //
  // The expression's distinct symbols get dense ids 0..alphabet_size()-1.
  // Callers that match many words against one automaton (the streaming
  // engine steps every vertex of every document) translate their own
  // interned labels to alphabet ids once, then step over ids: no string
  // hashing or comparison per step. For expressions with at most 64
  // positions (every real-world content model), Step runs the NFA
  // simulation on uint64 position bitmasks -- a step is two AND/OR passes
  // over set bits instead of std::set insertions.

  /// Id of `symbol` in this automaton's alphabet, or -1 if the symbol
  /// does not occur in the expression (then no word containing it
  /// matches).
  int FindAlphabetId(std::string_view symbol) const {
    auto it = alphabet_index_.find(symbol);
    return it == alphabet_index_.end() ? -1 : it->second;
  }

  /// Distinct symbols, indexed by alphabet id.
  const std::vector<std::string>& alphabet() const { return alphabet_; }

  // -- Incremental runs (streaming validation) ------------------------------
  //
  // A RunState holds the live NFA state for one word fed label-by-label,
  // so a streaming caller can step a vertex's children as their start tags
  // arrive instead of buffering the whole child word. Matches(word) is
  // a fresh run stepped over FindAlphabetId of each label.

  struct RunState {
    bool started = false;  // false until the first Step (empty word so far)
    bool dead = false;     // no position set can match any continuation
    uint64_t mask = 0;     // current positions (mask path)
    std::set<int> states;  // current positions (set fallback, > 64 pos)
  };

  /// Starts `run` over with no labels consumed; a run that has not
  /// started ignores its position sets, so their storage is kept.
  static void Restart(RunState* run) { run->started = run->dead = false; }

  /// Consumes one label (alphabet id; -1 for foreign symbols). The mask
  /// path is inline: the streaming engine steps once per child.
  void Step(RunState* run, int alpha) const {
    if (run->dead || alpha < 0 || !use_masks_) return StepSlow(run, alpha);
    uint64_t reachable = first_mask_;
    if (run->started) {
      reachable = 0;
      for (uint64_t bits = run->mask; bits != 0; bits &= bits - 1) {
        reachable |= follow_masks_[std::countr_zero(bits)];
      }
    }
    run->mask = reachable & alpha_masks_[alpha];
    run->started = true;
    run->dead = run->mask == 0;
  }

  /// True iff the labels consumed so far form a word in L(re).
  bool Accepts(const RunState& run) const {
    if (!run.started) return nullable_;
    if (run.dead) return false;
    if (use_masks_) return (run.mask & last_mask_) != 0;
    return AcceptsSet(run);
  }

  /// True iff the content model is 1-unambiguous (deterministic per the
  /// XML spec): no two distinct positions with the same symbol are both in
  /// First, or both in Follow(p) for some position p.
  bool IsOneUnambiguous() const;

  /// The first clash violating 1-unambiguity (First before Follow sets,
  /// lowest positions first), or nullopt for deterministic models.
  std::optional<AmbiguityWitness> OneUnambiguityWitness() const;

  /// Number of positions (symbol occurrences) in the expression.
  size_t num_positions() const { return symbols_.size(); }

  // NFA internals, exposed for language-level algorithms (inclusion.h).
  const std::vector<std::string>& symbols() const { return symbols_; }
  const std::vector<std::set<int>>& follow() const { return follow_; }
  const std::set<int>& first() const { return first_; }
  const std::set<int>& last() const { return last_; }
  bool nullable() const { return nullable_; }

 private:
  struct BuildResult {
    bool nullable = false;
    std::set<int> first;
    std::set<int> last;
  };

  BuildResult Build(const Regex& re);
  void BuildAlphabet();

  std::vector<std::string> symbols_;   // position -> symbol
  std::vector<std::set<int>> follow_;  // position -> follow set
  std::set<int> first_;
  std::set<int> last_;
  bool nullable_ = false;

  // Alphabet-id tables (BuildAlphabet).
  std::map<std::string, int, std::less<>> alphabet_index_;
  std::vector<std::string> alphabet_;  // alphabet id -> symbol
  std::vector<int> pos_alpha_;         // position -> alphabet id

  // Step and Accepts off the mask path: dead runs, foreign symbols and
  // the set fallback.
  void StepSlow(RunState* run, int alpha) const;
  bool AcceptsSet(const RunState& run) const;

  // Bitmask tables, populated iff num_positions() <= 64 (use_masks_).
  bool use_masks_ = false;
  uint64_t first_mask_ = 0;
  uint64_t last_mask_ = 0;
  std::vector<uint64_t> follow_masks_;  // position -> follow bitmask
  std::vector<uint64_t> alpha_masks_;   // alphabet id -> positions bitmask
};

}  // namespace xic

#endif  // XIC_REGEX_GLUSHKOV_H_
