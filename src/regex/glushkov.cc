#include "regex/glushkov.h"

#include "obs/obs.h"

namespace xic {

GlushkovAutomaton::GlushkovAutomaton(const RegexPtr& re) {
  BuildResult root = Build(*re);
  nullable_ = root.nullable;
  first_ = std::move(root.first);
  last_ = std::move(root.last);
  BuildAlphabet();
  XIC_COUNTER_ADD("regex.glushkov.builds", 1);
  XIC_COUNTER_ADD("regex.glushkov.states", symbols_.size());
  XIC_COUNTER_MAX("regex.glushkov.max_states", symbols_.size());
  XIC_HISTOGRAM_OBSERVE("regex.glushkov.states_per_build", symbols_.size(),
                        {4.0, 16.0, 64.0, 256.0, 1024.0});
}

GlushkovAutomaton::BuildResult GlushkovAutomaton::Build(const Regex& re) {
  switch (re.kind()) {
    case RegexKind::kEpsilon: {
      BuildResult out;
      out.nullable = true;
      return out;
    }
    case RegexKind::kSymbol: {
      int pos = static_cast<int>(symbols_.size());
      symbols_.push_back(re.symbol());
      follow_.emplace_back();
      BuildResult out;
      out.nullable = false;
      out.first = {pos};
      out.last = {pos};
      return out;
    }
    case RegexKind::kUnion: {
      BuildResult l = Build(*re.left());
      BuildResult r = Build(*re.right());
      BuildResult out;
      out.nullable = l.nullable || r.nullable;
      out.first = std::move(l.first);
      out.first.insert(r.first.begin(), r.first.end());
      out.last = std::move(l.last);
      out.last.insert(r.last.begin(), r.last.end());
      return out;
    }
    case RegexKind::kConcat: {
      BuildResult l = Build(*re.left());
      BuildResult r = Build(*re.right());
      for (int p : l.last) {
        follow_[p].insert(r.first.begin(), r.first.end());
      }
      BuildResult out;
      out.nullable = l.nullable && r.nullable;
      out.first = l.first;
      if (l.nullable) out.first.insert(r.first.begin(), r.first.end());
      out.last = r.last;
      if (r.nullable) out.last.insert(l.last.begin(), l.last.end());
      return out;
    }
    case RegexKind::kStar: {
      BuildResult in = Build(*re.inner());
      for (int p : in.last) {
        follow_[p].insert(in.first.begin(), in.first.end());
      }
      BuildResult out;
      out.nullable = true;
      out.first = std::move(in.first);
      out.last = std::move(in.last);
      return out;
    }
  }
  return BuildResult{};
}

void GlushkovAutomaton::BuildAlphabet() {
  pos_alpha_.resize(symbols_.size());
  for (size_t p = 0; p < symbols_.size(); ++p) {
    auto [it, inserted] =
        alphabet_index_.emplace(symbols_[p], static_cast<int>(alphabet_.size()));
    if (inserted) alphabet_.push_back(symbols_[p]);
    pos_alpha_[p] = it->second;
  }
  use_masks_ = symbols_.size() <= 64;
  if (!use_masks_) return;
  alpha_masks_.assign(alphabet_.size(), 0);
  for (size_t p = 0; p < symbols_.size(); ++p) {
    alpha_masks_[pos_alpha_[p]] |= uint64_t{1} << p;
  }
  for (int p : first_) first_mask_ |= uint64_t{1} << p;
  for (int p : last_) last_mask_ |= uint64_t{1} << p;
  follow_masks_.assign(symbols_.size(), 0);
  for (size_t p = 0; p < symbols_.size(); ++p) {
    for (int q : follow_[p]) follow_masks_[p] |= uint64_t{1} << q;
  }
}

bool GlushkovAutomaton::Matches(const std::vector<std::string>& word) const {
  RunState run;
  for (const std::string& label : word) Step(&run, FindAlphabetId(label));
  return Accepts(run);
}

void GlushkovAutomaton::StepSlow(RunState* run, int alpha) const {
  if (run->dead) return;
  if (alpha < 0) {  // foreign symbol: no transition
    // started must flip too: a dead run that consumed input is not the
    // empty word, so Accepts may not fall back to nullable().
    run->started = true;
    run->dead = true;
    return;
  }
  // The mask path is inline in Step; this is the set fallback.
  std::set<int> next;
  if (!run->started) {
    for (int p : first_) {
      if (pos_alpha_[p] == alpha) next.insert(p);
    }
  } else {
    for (int p : run->states) {
      for (int q : follow_[p]) {
        if (pos_alpha_[q] == alpha) next.insert(q);
      }
    }
  }
  run->states = std::move(next);
  run->started = true;
  if (run->states.empty()) run->dead = true;
}

bool GlushkovAutomaton::AcceptsSet(const RunState& run) const {
  for (int p : run.states) {
    if (last_.count(p) > 0) return true;
  }
  return false;
}

namespace {

// The lowest-numbered pair of distinct positions in `set` carrying the
// same symbol, if any.
std::optional<std::pair<int, int>> FindSymbolClash(
    const std::set<int>& set, const std::vector<std::string>& symbols) {
  std::map<std::string, int> seen;
  for (int p : set) {
    auto [it, inserted] = seen.emplace(symbols[p], p);
    if (!inserted) return std::make_pair(it->second, p);
  }
  return std::nullopt;
}

}  // namespace

bool GlushkovAutomaton::IsOneUnambiguous() const {
  return !OneUnambiguityWitness().has_value();
}

std::optional<AmbiguityWitness> GlushkovAutomaton::OneUnambiguityWitness()
    const {
  auto witness = [this](const std::pair<int, int>& clash, int via) {
    AmbiguityWitness w;
    w.symbol = symbols_[clash.first];
    w.pos1 = clash.first;
    w.pos2 = clash.second;
    w.via = via;
    return w;
  };
  if (auto clash = FindSymbolClash(first_, symbols_); clash.has_value()) {
    return witness(*clash, -1);
  }
  for (size_t p = 0; p < follow_.size(); ++p) {
    if (auto clash = FindSymbolClash(follow_[p], symbols_);
        clash.has_value()) {
      return witness(*clash, static_cast<int>(p));
    }
  }
  return std::nullopt;
}

}  // namespace xic
