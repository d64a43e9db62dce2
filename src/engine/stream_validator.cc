#include "engine/stream_validator.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "constraints/well_formed.h"
#include "engine/extent_log.h"
#include "obs/obs.h"
#include "regex/content_model.h"
#include "util/strings.h"
#include "util/symbol_table.h"
#include "xml/dtd_parser.h"
#include "xml/dtdc_io.h"

namespace xic {

StreamValidator::StreamValidator(const DtdStructure& dtd,
                                 const ConstraintSet& sigma,
                                 StreamOptions options)
    : plan_(dtd, sigma),
      options_(std::move(options)),
      validator_(dtd, options_.validation) {}

// ---------------------------------------------------------------------------
// StreamRun: the per-document state machine. One instance per run; all
// mutable state lives here, so a StreamValidator or ConstraintChecker is
// share-safe. Two feeds drive it: tokenizer events (Run) and the vertices
// of an in-memory tree (RunTree). Both make the same start-tag and
// content-model checks and end in the same constraint post-pass.

namespace {

// The rank of a kBackPairs record: past any set position, so a pair log
// tells the side that confirms a pair from the side that claims it.
constexpr uint32_t kBackRank = ~uint32_t{0};

// Calls f(group) for each run of equal payloads in `log`'s scan, the
// group's records in (seq, rank) order.
template <typename F>
void ForEachGroup(const TupleLog& log, F&& f) {
  std::vector<TupleLog::Record> group;
  TupleLog::Cursor cur = log.Scan();
  TupleLog::Record r;
  bool more = cur.Next(&r);
  while (more) {
    group.clear();
    const std::string_view payload = r.payload;
    for (; more && r.payload == payload; more = cur.Next(&r)) {
      group.push_back(r);
    }
    f(group);
  }
}

// Calls f(e) for each record e of `ext` whose payload no record of
// `target` holds: the dangling side of an inclusion, as a merge-join of
// two payload-ordered scans. A violated key leaves duplicates in
// `target`, which the join skips over.
template <typename F>
void ForEachDangling(const TupleLog& ext, const TupleLog& target, F&& f) {
  TupleLog::Cursor tcur = target.Scan(), ecur = ext.Scan();
  TupleLog::Record t, e;
  bool thave = tcur.Next(&t);
  while (ecur.Next(&e)) {
    while (thave && t.payload < e.payload) thave = tcur.Next(&t);
    if (!thave || t.payload != e.payload) f(e);
  }
}

// Calls f(r, holder) for each claim r = (a, b) of `pairs` (a vertex with
// key b references a) and each holder of key a in `keys` that confirms
// no (a, b): the "references but not back" side of an inverse. `pairs`
// scans grouped by a, in `keys`'s order (FirstField), so one forward
// pass over each log suffices; every holder of a duplicated key counts.
template <typename F>
void ForEachUnconfirmed(const TupleLog& pairs, const TupleLog& keys, F&& f) {
  TupleLog::Cursor kcur = keys.Scan();
  TupleLog::Record k;
  bool khave = kcur.Next(&k);
  std::string_view key;  // whose holders are listed; no encoding is empty
  std::vector<uint32_t> holders, confirmed;
  ForEachGroup(pairs, [&](const std::vector<TupleLog::Record>& group) {
    confirmed.clear();  // ascending: a group is in seq order
    for (const TupleLog::Record& r : group) {
      if (r.rank == kBackRank) confirmed.push_back(r.seq);
    }
    const std::string_view a = FirstField(group[0].payload);
    if (a != key) {
      key = a;
      holders.clear();
      while (khave && k.payload < a) khave = kcur.Next(&k);
      for (; khave && k.payload == a; khave = kcur.Next(&k)) {
        holders.push_back(k.seq);
      }
    }
    for (const TupleLog::Record& claim : group) {
      if (claim.rank == kBackRank) continue;
      for (uint32_t h : holders) {
        if (!std::binary_search(confirmed.begin(), confirmed.end(), h)) {
          f(claim, h);
        }
      }
    }
  });
}

class StreamRun {
 public:
  /// A null `validator` makes no structural findings. `tok_dtd` is null
  /// for the tree feed, which reads attribute value sets as they stand.
  StreamRun(const ConstraintPlan& plan, const StreamOptions& options,
            const StructuralValidator* validator, const DtdStructure* tok_dtd,
            const Deadline& deadline)
      : plan_(plan),
        options_(options),
        validator_(validator),
        tok_dtd_(tok_dtd),
        deadline_(deadline),
        compile_ok_(validator != nullptr && validator->status().ok()),
        budget_(options.spill_budget_bytes) {
    logs_.resize(plan_.log_count);
    for (ExtentLog& xl : logs_) xl.log = std::make_unique<TupleLog>(&budget_);
    if (plan_.needs_global_ids) {
      global_ids_ = std::make_unique<TupleLog>(&budget_);
    }
  }

  StreamOutcome Run(StreamTokenizer& tok, const StreamEvent* pending);
  StreamOutcome RunTree(const DataTree& tree);

 private:
  using Role = ConstraintPlan::Role;
  using TypePlan = ConstraintPlan::TypePlan;

  // Per-element-type state resolved on first sight of the label.
  struct LabelInfo {
    bool prepared = false;
    std::optional<StructuralValidator::PlanView> plan;
    // Lazily-filled translation: document Symbol -> alphabet id of this
    // type's automaton (-2 = not yet resolved, -1 = foreign).
    std::vector<int> alpha;
    int text_alpha = -1;
    const TypePlan* tplan = nullptr;
    bool has_id_attr = false;  // dtd.IdAttribute(label), for kId tables
    std::string id_attr;
    // Attributes the tokenizing DTD declares set-valued on this label,
    // sorted. Their values split into whitespace-separated token sets;
    // every other value is one token (TokenizeAttrValue semantics).
    std::vector<std::string> set_valued;
  };

  // One field of one open vertex. The three states mirror the checker's
  // FieldValue contract: a present attribute is the attribute's value
  // set; a declared-but-absent attribute is missing; anything else falls
  // back to the unique matching sub-element's text.
  struct FieldState {
    enum Kind { kUnset, kAttr, kCapture } kind = kUnset;
    int captures = 0;  // kCapture: matching direct children seen
    // kAttr: the value's tokens (ascending, distinct), concatenated;
    // kCapture: text content of the first match.
    std::string text;
    std::vector<size_t> token_ends;  // kAttr: end of each token in text
  };

  // One open element. Frames are slots reused by depth: a slot keeps the
  // capacity of its word and field buffers for the next element opened
  // at that depth, so opening an element allocates nothing.
  struct Frame {
    uint32_t seq = 0;  // pre-order id == the DOM parser's vertex id
    Symbol label = kInvalidSymbol;
    LabelInfo* info = nullptr;
    bool track_word = false;  // automaton run + word buffer live
    GlushkovAutomaton::RunState run;
    // The children's labels as (label, count) runs, expanded only to
    // render a content-model violation; kInvalidSymbol marks text.
    std::vector<std::pair<Symbol, uint32_t>> word;
    // The first tplan->fields.size() entries are this element's fields;
    // any beyond are spare capacity left by earlier occupants.
    std::vector<FieldState> fields;
  };

  // An active sub-element text capture: while the open-element stack is
  // at least `depth` deep, qualified text runs append to the owner
  // frame's field.
  struct Capture {
    size_t owner_frame;
    size_t field;
    size_t depth;
  };

  // One attribute of the vertex being opened: views into the tokenizer's
  // event, valid until the next event is pulled, or into the tree.
  struct AttrRef {
    std::string_view name;
    std::string_view value;  // raw: not yet split into tokens
    bool set_valued = false;
    const AttrValue* values = nullptr;  // tree feed: the tokens as they stand
  };

  // A structural violation with its report rank. Reports list vertices
  // in id order and phases within a vertex (root check, undeclared type,
  // content model, present attributes in name order, missing attributes
  // in plan order), NaiveValidate's order; sorting by (seq, rank) gives
  // that order from walk-order collection.
  struct SViol {
    uint32_t seq;
    uint64_t rank;
    std::string msg;
  };
  static uint64_t Rank(uint64_t phase, uint64_t idx) {
    return (phase << 32) | idx;
  }

  // One extent log of the plan, shared by every constraint that reads
  // its extent.
  struct ExtentLog {
    std::unique_ptr<TupleLog> log;
    std::vector<uint32_t> missing;  // seqs with a missing field
  };

  void OnStart(const StreamEvent& ev);
  void OnTreeVertex(const DataTree& tree, VertexId v);
  void CheckStartTag(uint32_t seq, Symbol label, const LabelInfo& info);
  void StepParent(Symbol label);
  void StepText();
  static void PushChild(Frame* frame, Symbol s) {
    if (!frame->word.empty() && frame->word.back().first == s) {
      ++frame->word.back().second;
    } else {
      frame->word.emplace_back(s, 1);
    }
  }
  void OpenFrame(uint32_t seq, Symbol label, LabelInfo& info);
  void OnEnd();
  void OnText(const StreamEvent& ev);
  Frame& Top() { return frames_[depth_ - 1]; }
  void CloseRun() {
    run_open_ = false;
    run_qualified_ = false;
    run_prefix_.clear();
  }
  void AppendToCaptures(std::string_view text) {
    for (const Capture& c : captures_) {
      frames_[c.owner_frame].fields[c.field].text.append(text);
    }
  }

  LabelInfo& Prepare(Symbol label);
  int AlphaOf(LabelInfo& info, Symbol s);
  const AttrRef* FindAttr(std::string_view name) const;
  /// Splits `a`'s value into tokens_ (views, ascending, distinct).
  void Tokenize(const AttrRef& a);

  std::optional<std::string_view> SingleOf(const FieldState& fs);
  bool SetOf(const FieldState& fs, std::vector<std::string_view>* out);
  bool TupleOf(const Frame& frame, const std::vector<size_t>& fields,
               std::vector<std::string_view>* out);
  void EmitRoles(const Frame& frame);
  void Append(TupleLog& log, uint32_t seq, uint32_t rank,
              std::string_view payload);

  void AddSViol(uint32_t seq, uint64_t rank, std::string msg) {
    sviols_.push_back(SViol{seq, rank, std::move(msg)});
  }

  void Assemble(StreamOutcome* out);
  void AssembleConstraints(ConstraintReport* report);

  const ConstraintPlan& plan_;
  const StreamOptions& options_;
  const StructuralValidator* validator_;  // null: no structural findings
  const DtdStructure* tok_dtd_;  // governs attribute-value tokenization
  Deadline deadline_;
  bool compile_ok_;

  // budget_ must precede every TupleLog owner: logs deregister from the
  // budget on destruction.
  SpillBudget budget_;
  std::vector<ExtentLog> logs_;  // by plan log id
  std::unique_ptr<TupleLog> global_ids_;

  SymbolTable syms_;  // the text feed's interned names
  const SymbolTable* names_ = &syms_;  // label names: syms_ or the tree's
  std::deque<LabelInfo> labels_;  // by Symbol; deque: stable references
  std::vector<Frame> frames_;     // slots; [0, depth_) are open
  size_t depth_ = 0;
  std::vector<Capture> captures_;
  std::vector<SViol> sviols_;
  uint32_t next_seq_ = 0;

  bool run_open_ = false;       // a text run is in progress
  bool run_qualified_ = false;  // ...and has produced a text child
  std::string run_prefix_;      // all-space chunks pending qualification

  std::vector<AttrRef> attrs_;  // the current start tag's, by name
  std::vector<std::string_view> tokens_;
  std::vector<std::string_view> view_scratch_;
  std::vector<std::string_view> one_value_ = {{}};  // a 1-tuple to encode
  std::vector<std::string_view> pair_ = {{}, {}};    // a 2-tuple to encode
  std::string encode_buf_;

  bool spill_failed_ = false;
  Status spill_error_ = Status::OK();
  size_t field_steps_ = 0;
};

StreamRun::LabelInfo& StreamRun::Prepare(Symbol label) {
  while (labels_.size() <= label) labels_.emplace_back();
  LabelInfo& info = labels_[label];
  if (info.prepared) return info;
  info.prepared = true;
  const std::string& name = names_->name(label);
  if (validator_ != nullptr) info.plan = validator_->PlanFor(name);
  if (info.plan.has_value() && info.plan->automaton != nullptr) {
    info.text_alpha = info.plan->automaton->FindAlphabetId(kStringSymbol);
  }
  auto it = plan_.type_plans.find(name);
  if (it != plan_.type_plans.end()) info.tplan = &it->second;
  if (global_ids_ != nullptr) {
    std::optional<std::string> id = plan_.dtd.IdAttribute(name);
    if (id.has_value()) {
      info.has_id_attr = true;
      info.id_attr = std::move(*id);
    }
  }
  if (tok_dtd_ != nullptr) {
    for (std::string& attr : tok_dtd_->Attributes(name)) {
      if (tok_dtd_->IsSetValued(name, attr)) {
        info.set_valued.push_back(std::move(attr));
      }
    }
  }
  return info;
}

int StreamRun::AlphaOf(LabelInfo& info, Symbol s) {
  if (info.alpha.size() <= s) info.alpha.resize(names_->size(), -2);
  int& a = info.alpha[s];
  if (a == -2) a = info.plan->automaton->FindAlphabetId(names_->name(s));
  return a;
}

const StreamRun::AttrRef* StreamRun::FindAttr(std::string_view name) const {
  auto it = std::lower_bound(
      attrs_.begin(), attrs_.end(), name,
      [](const AttrRef& a, std::string_view n) { return a.name < n; });
  if (it == attrs_.end() || it->name != name) return nullptr;
  return &*it;
}

void StreamRun::Tokenize(const AttrRef& a) {
  tokens_.clear();
  if (a.values != nullptr) {
    tokens_.assign(a.values->begin(), a.values->end());
    return;
  }
  if (!a.set_valued) {
    tokens_.push_back(a.value);
    return;
  }
  ForEachXmlSpaceToken(a.value,
                       [&](std::string_view t) { tokens_.push_back(t); });
  std::sort(tokens_.begin(), tokens_.end());
  tokens_.erase(std::unique(tokens_.begin(), tokens_.end()), tokens_.end());
}

void StreamRun::OnText(const StreamEvent& ev) {
  if (depth_ == 0) return;
  if (!run_open_) {
    run_open_ = true;
    run_qualified_ = false;
    run_prefix_.clear();
  }
  if (!run_qualified_) {
    if (ev.text_all_space) {
      // A whitespace-only run is dropped, as the DOM parser drops it by
      // default. The run may still qualify on a later chunk; keep the
      // prefix only if someone would consume it.
      if (!captures_.empty()) run_prefix_.append(ev.text);
      return;
    }
    run_qualified_ = true;
    // The whole run is exactly one text child of the open element.
    StepText();
    if (!run_prefix_.empty()) {
      AppendToCaptures(run_prefix_);
      run_prefix_.clear();
    }
  }
  AppendToCaptures(ev.text);
}

void StreamRun::StepText() {
  Frame& top = Top();
  if (top.track_word) {
    PushChild(&top, kInvalidSymbol);
    top.info->plan->automaton->Step(&top.run, top.info->text_alpha);
  }
}

void StreamRun::StepParent(Symbol label) {
  if (depth_ == 0) return;
  Frame& parent = Top();
  if (parent.track_word) {
    PushChild(&parent, label);
    parent.info->plan->automaton->Step(&parent.run,
                                       AlphaOf(*parent.info, label));
  }
  if (parent.info->tplan != nullptr) {
    const std::string& name = names_->name(label);
    const std::vector<std::string>& names = parent.info->tplan->fields;
    for (size_t i = 0; i < names.size(); ++i) {
      FieldState& fs = parent.fields[i];
      if (fs.kind == FieldState::kCapture && names[i] == name) {
        if (++fs.captures == 1) {
          captures_.push_back(Capture{depth_ - 1, i, depth_ + 1});
        }
      }
    }
  }
}

void StreamRun::OnStart(const StreamEvent& ev) {
  CloseRun();
  const Symbol label = syms_.Intern(ev.name);
  // The child steps the parent's content-model run, and may be the
  // unique sub-element some parent field captures.
  StepParent(label);

  const uint32_t seq = next_seq_++;
  LabelInfo& info = Prepare(label);

  // Attributes sorted by name, the order the DOM tree stores and the
  // validator visits them in. Values stay raw views; they are split into
  // tokens (against the document's own DTD: set-valued attributes split
  // on XML whitespace) only where a check or a field reads them.
  attrs_.clear();
  for (const StreamEvent::Attr& a : ev.attrs) {
    attrs_.push_back(AttrRef{
        a.name, a.value,
        std::binary_search(info.set_valued.begin(), info.set_valued.end(),
                           a.name)});
  }
  std::sort(attrs_.begin(), attrs_.end(),
            [](const AttrRef& a, const AttrRef& b) { return a.name < b.name; });

  if (compile_ok_) CheckStartTag(seq, label, info);
  OpenFrame(seq, label, info);
}

void StreamRun::OnTreeVertex(const DataTree& tree, VertexId v) {
  const Symbol label = tree.label_symbol(v);
  StepParent(label);
  LabelInfo& info = Prepare(label);
  // Only the structural checks, fields and the ID table read attributes.
  // The tree keeps a vertex's attributes sorted by name already.
  attrs_.clear();
  if (compile_ok_ || info.tplan != nullptr || info.has_id_attr) {
    for (const DataTree::AttrEntry& e : tree.attributes(v).entries()) {
      attrs_.push_back(
          AttrRef{tree.symbols().name(e.name), {}, false, &e.value});
    }
  }
  if (compile_ok_) CheckStartTag(v, label, info);
  OpenFrame(v, label, info);
}

// Structural checks at the start tag, shared by both feeds once attrs_
// holds the vertex's attributes (the content model waits for the end
// tag; Rank() restores the report order).
void StreamRun::CheckStartTag(uint32_t seq, Symbol label,
                              const LabelInfo& info) {
  // The name is looked up only where a message or the root check reads it.
  auto name = [&]() -> const std::string& { return names_->name(label); };
  if (seq == 0 && name() != plan_.dtd.root()) {
    AddSViol(0, Rank(0, 0), "root labeled " + name() +
                                ", expected " + plan_.dtd.root());
  }
  if (!info.plan.has_value()) {
    AddSViol(seq, Rank(1, 0), "undeclared element type " + name());
    return;
  }
  const std::vector<std::string>& names = *info.plan->attr_names;
  const std::vector<bool>& single = *info.plan->attr_single;
  size_t declared_present = 0;
  for (size_t idx = 0; idx < attrs_.size(); ++idx) {
    const AttrRef& a = attrs_[idx];
    auto it = std::lower_bound(names.begin(), names.end(), a.name);
    if (it == names.end() || *it != a.name) {
      AddSViol(seq, Rank(3, idx), "undeclared attribute " + name() +
                                      "." + std::string(a.name));
      continue;
    }
    ++declared_present;
    const size_t slot = static_cast<size_t>(it - names.begin());
    if (!single[slot]) continue;
    // A tree counts its value set; a text-feed value that is not split is
    // one token, so only set-valued tokenization can break the declaration.
    size_t count = 1;
    if (a.values != nullptr) {
      count = a.values->size();
    } else if (a.set_valued) {
      Tokenize(a);
      count = tokens_.size();
    }
    if (count != 1) {
      AddSViol(seq, Rank(3, idx),
               "single-valued attribute " + name() + "." +
                   std::string(a.name) + " holds " + std::to_string(count) +
                   " values");
    }
  }
  if (!options_.validation.allow_missing_attributes &&
      declared_present != names.size()) {
    for (size_t j = 0; j < names.size(); ++j) {
      if (FindAttr(names[j]) == nullptr) {
        AddSViol(seq, Rank(4, j), "missing declared attribute " +
                                      name() + "." + names[j]);
      }
    }
  }
}

// Shared by both feeds once attrs_ holds the vertex's attributes.
void StreamRun::OpenFrame(uint32_t seq, Symbol label, LabelInfo& info) {
  // Global ID table entry.
  if (global_ids_ != nullptr && info.has_id_attr && !spill_failed_) {
    if (const AttrRef* a = FindAttr(info.id_attr)) {
      Tokenize(*a);
      if (tokens_.size() == 1) {
        ++field_steps_;
        Append(*global_ids_, seq, 0, tokens_[0]);
      }
    }
  }

  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& frame = frames_[depth_++];
  frame.seq = seq;
  frame.label = label;
  frame.info = &info;
  frame.track_word = compile_ok_ && info.plan.has_value() &&
                     info.plan->automaton != nullptr;
  frame.word.clear();
  if (frame.track_word) GlushkovAutomaton::Restart(&frame.run);
  if (info.tplan != nullptr) {
    const TypePlan& tp = *info.tplan;
    if (frame.fields.size() < tp.fields.size()) {
      frame.fields.resize(tp.fields.size());
    }
    for (size_t i = 0; i < tp.fields.size(); ++i) {
      FieldState& fs = frame.fields[i];
      fs.captures = 0;
      fs.text.clear();
      fs.token_ends.clear();
      if (const AttrRef* a = FindAttr(tp.fields[i])) {
        // The value is copied out of the event: it must outlive the
        // start tag, until the roles are emitted at the end tag.
        fs.kind = FieldState::kAttr;
        Tokenize(*a);
        for (std::string_view t : tokens_) {
          fs.text.append(t);
          fs.token_ends.push_back(fs.text.size());
        }
      } else if (tp.field_declared[i]) {
        fs.kind = FieldState::kUnset;
      } else {
        fs.kind = FieldState::kCapture;
      }
    }
  }
}

void StreamRun::OnEnd() {
  CloseRun();
  // The slot stays in frames_ (with its buffers) for the next element
  // opened at this depth; `frame` is valid until then.
  const Frame& frame = frames_[--depth_];
  if (frame.track_word && !frame.info->plan->automaton->Accepts(frame.run)) {
    std::vector<std::string> rendered;
    for (const auto& [s, count] : frame.word) {
      rendered.insert(rendered.end(), count,
                      s == kInvalidSymbol ? std::string(kStringSymbol)
                                          : names_->name(s));
    }
    AddSViol(frame.seq, Rank(2, 0),
             "children [" + Join(rendered, " ") +
                 "] do not match content model of " +
                 names_->name(frame.label));
  }
  if (frame.info->tplan != nullptr) EmitRoles(frame);
  while (!captures_.empty() && captures_.back().depth > depth_) {
    captures_.pop_back();
  }
}

std::optional<std::string_view> StreamRun::SingleOf(const FieldState& fs) {
  ++field_steps_;
  switch (fs.kind) {
    case FieldState::kAttr:
      if (fs.token_ends.size() != 1) return std::nullopt;
      return std::string_view(fs.text);
    case FieldState::kUnset:
      return std::nullopt;
    case FieldState::kCapture:
      if (fs.captures != 1) return std::nullopt;
      return std::string_view(fs.text);
  }
  return std::nullopt;
}

bool StreamRun::SetOf(const FieldState& fs,
                      std::vector<std::string_view>* out) {
  out->clear();
  switch (fs.kind) {
    case FieldState::kAttr: {
      size_t begin = 0;
      for (size_t end : fs.token_ends) {
        out->push_back(std::string_view(fs.text).substr(begin, end - begin));
        begin = end;
      }
      return true;
    }
    case FieldState::kUnset:
      return false;
    case FieldState::kCapture:
      if (fs.captures != 1) return false;
      out->push_back(fs.text);
      return true;
  }
  return false;
}

bool StreamRun::TupleOf(const Frame& frame, const std::vector<size_t>& fields,
                        std::vector<std::string_view>* out) {
  out->clear();
  for (size_t f : fields) {
    std::optional<std::string_view> v = SingleOf(frame.fields[f]);
    if (!v.has_value()) return false;
    out->push_back(*v);
  }
  return true;
}

void StreamRun::Append(TupleLog& log, uint32_t seq, uint32_t rank,
                       std::string_view payload) {
  if (spill_failed_) return;
  if (Status s = log.Append(seq, rank, payload); !s.ok()) {
    spill_failed_ = true;
    spill_error_ = std::move(s);
  }
}

void StreamRun::EmitRoles(const Frame& frame) {
  for (const Role& role : frame.info->tplan->roles) {
    switch (role.kind) {
      case Role::kTuple: {
        ExtentLog& xl = logs_[role.index];
        if (!TupleOf(frame, role.fields, &view_scratch_)) {
          xl.missing.push_back(frame.seq);
          break;
        }
        EncodeTupleInto(view_scratch_, &encode_buf_);
        Append(*xl.log, frame.seq, 0, encode_buf_);
        break;
      }
      case Role::kValues: {
        ExtentLog& xl = logs_[role.index];
        if (!SetOf(frame.fields[role.fields[0]], &view_scratch_)) {
          xl.missing.push_back(frame.seq);
          break;
        }
        uint32_t rank = 0;
        for (std::string_view v : view_scratch_) {
          one_value_[0] = v;
          EncodeTupleInto(one_value_, &encode_buf_);
          Append(*xl.log, frame.seq, rank++, encode_buf_);
        }
        break;
      }
      case Role::kRefPairs:
      case Role::kBackPairs: {
        std::optional<std::string_view> key =
            SingleOf(frame.fields[role.fields[0]]);
        if (!key.has_value() ||
            !SetOf(frame.fields[role.fields[1]], &view_scratch_)) {
          break;
        }
        const bool ref = role.kind == Role::kRefPairs;
        pair_[ref ? 1 : 0] = *key;
        uint32_t rank = 0;
        for (std::string_view v : view_scratch_) {
          pair_[ref ? 0 : 1] = v;
          EncodeTupleInto(pair_, &encode_buf_);
          Append(*logs_[role.index].log, frame.seq, ref ? rank++ : kBackRank,
                 encode_buf_);
        }
        break;
      }
    }
  }
}

StreamOutcome StreamRun::Run(StreamTokenizer& tok,
                             const StreamEvent* pending) {
  obs::ScopedSpan span("stream.validate", "engine");
  StreamOutcome out;
  StreamEvent ev;
  Status s = Status::OK();
  const StreamEvent* cur = pending;
  if (cur == nullptr) {
    s = tok.Next(&ev);
    cur = &ev;
  }
  bool done = false;
  while (s.ok() && !done) {
    switch (cur->kind) {
      case StreamEventKind::kStartElement:
        OnStart(*cur);
        break;
      case StreamEventKind::kEndElement:
        OnEnd();
        break;
      case StreamEventKind::kText:
        OnText(*cur);
        break;
      case StreamEventKind::kEndDocument:
        done = true;
        break;
      case StreamEventKind::kDoctype:
        break;  // consumed by the caller; cannot recur mid-content
    }
    if (done) break;
    s = tok.Next(&ev);
    cur = &ev;
  }
  out.stats.input_bytes = tok.consumed_bytes();
  out.stats.vertices = next_seq_;
  if (!s.ok()) {
    out.parse = std::move(s);
    return out;
  }
  const auto assemble_start = std::chrono::steady_clock::now();
  Assemble(&out);
  out.stats.assemble_seconds = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - assemble_start).count();
  span.AddInt("vertices", static_cast<int64_t>(out.stats.vertices));
  span.AddInt("spilled_bytes", static_cast<int64_t>(out.stats.spilled_bytes));
  XIC_COUNTER_ADD("stream.documents", 1);
  XIC_COUNTER_ADD("stream.vertices", out.stats.vertices);
  XIC_COUNTER_ADD("stream.spilled_bytes", out.stats.spilled_bytes);
  return out;
}

StreamOutcome StreamRun::RunTree(const DataTree& tree) {
  names_ = &tree.symbols();
  StreamOutcome out;
  if (compile_ok_ && tree.empty()) {
    AddSViol(kInvalidVertex, Rank(0, 0), "empty document");
  }
  // A DataTree is a forest: each parentless vertex (the root, then any
  // detached subtree) heads one subtree, and together they hold every
  // vertex once.
  const char* what =
      validator_ != nullptr ? "structural validation" : "constraint check";
  std::vector<std::pair<VertexId, size_t>> stack;  // vertex, next child
  auto open = [&](VertexId v) {
    if ((next_seq_ & 0x3FF) == 0) {
      if (Status s = deadline_.Check(what); !s.ok()) {
        out.structure.status = s;
        out.constraints.status = std::move(s);
        return false;
      }
    }
    ++next_seq_;
    OnTreeVertex(tree, v);
    stack.emplace_back(v, 0);
    return true;
  };
  for (VertexId top = 0; top < tree.size(); ++top) {
    if (tree.parent(top) != kInvalidVertex) continue;
    if (!open(top)) return out;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const std::vector<Child>& children = tree.children(v);
      if (next == children.size()) {
        OnEnd();
        stack.pop_back();
        continue;
      }
      const Child& child = children[next++];
      if (const std::string* text = std::get_if<std::string>(&child)) {
        StepText();  // every text child counts
        AppendToCaptures(*text);
      } else if (!open(std::get<VertexId>(child))) {
        return out;
      }
    }
  }
  out.stats.vertices = next_seq_;
  Assemble(&out);
  return out;
}

void StreamRun::Assemble(StreamOutcome* out) {
  // Structure: restore the report order.
  if (!compile_ok_) {
    if (validator_ != nullptr) out->structure.status = validator_->status();
  } else {
    std::stable_sort(sviols_.begin(), sviols_.end(),
                     [](const SViol& a, const SViol& b) {
                       if (a.seq != b.seq) return a.seq < b.seq;
                       return a.rank < b.rank;
                     });
    const size_t cap = options_.validation.max_violations;
    if (cap != 0 && sviols_.size() > cap) sviols_.resize(cap);
    out->structure.violations.reserve(sviols_.size());
    for (SViol& v : sviols_) {
      out->structure.violations.push_back({v.seq, std::move(v.msg)});
    }
    out->structure.steps = next_seq_;
  }
  AssembleConstraints(&out->constraints);
  out->constraints.steps = field_steps_;
  for (const ExtentLog& xl : logs_) {
    out->stats.extent_records += xl.log->record_count();
  }
  out->stats.spilled_bytes = budget_.spilled_bytes();
  out->stats.spill_runs = budget_.spill_runs();
}

void StreamRun::AssembleConstraints(ConstraintReport* report) {
  if (spill_failed_) {
    report->status = spill_error_;
    return;
  }
  const size_t cap = options_.check.max_violations;
  auto full = [&] { return cap != 0 && report->violations.size() >= cap; };
  auto add = [&](size_t index, std::string msg, std::vector<VertexId> wit,
                 std::vector<std::string> values = {}) {
    if (!full()) {
      report->violations.push_back(
          {index, std::move(msg), std::move(wit), std::move(values)});
    }
  };

  // Every extent log is sealed before any constraint reads it: one log
  // may serve constraints anywhere in Sigma.
  for (ExtentLog& xl : logs_) {
    if (Status s = xl.log->Finish(); !s.ok()) {
      report->status = std::move(s);
      return;
    }
  }

  // Document-wide ID table, reduced to the duplicated values (value ->
  // every holder, in vertex order).
  std::map<std::string, std::vector<VertexId>, std::less<>> dup_ids;
  if (global_ids_ != nullptr) {
    if (Status s = global_ids_->Finish(); !s.ok()) {
      report->status = std::move(s);
      return;
    }
    ForEachGroup(*global_ids_, [&](const std::vector<TupleLog::Record>& g) {
      if (g.size() < 2) return;
      std::vector<VertexId>& holders = dup_ids[std::string(g[0].payload)];
      for (const TupleLog::Record& r : g) holders.push_back(r.seq);
    });
  }

  // A violation pending its position among the constraint's others.
  struct PV {
    uint32_t seq;
    uint32_t rank;
    std::string msg;
    std::vector<VertexId> wit;
    std::vector<std::string> values;
  };
  std::vector<PV> pvs;
  // Reports constraint `index`'s pvs in (seq, rank) order, ties in
  // collection order.
  auto flush = [&](size_t index) {
    std::stable_sort(pvs.begin(), pvs.end(), [](const PV& a, const PV& b) {
      if (a.seq != b.seq) return a.seq < b.seq;
      return a.rank < b.rank;
    });
    for (PV& p : pvs) {
      if (full()) break;
      add(index, std::move(p.msg), std::move(p.wit), std::move(p.values));
    }
    pvs.clear();
  };
  auto log = [&](size_t id) -> const TupleLog& { return *logs_[id].log; };
  // The set values logged in `values` that are not in `key`, rendered
  // as prefix + value + suffix.
  auto dangling_values = [&](size_t values, size_t key,
                             const std::string& prefix,
                             const std::string& suffix) {
    ForEachDangling(log(values), log(key), [&](const TupleLog::Record& e) {
      const std::string value(DecodeSingle(e.payload));
      pvs.push_back(
          PV{e.seq, e.rank, prefix + value + suffix, {e.seq}, {value}});
    });
  };

  for (size_t i = 0; i < plan_.sigma.constraints.size() && !full(); ++i) {
    if (Status s = deadline_.Check("constraint check"); !s.ok()) {
      report->status = std::move(s);
      return;
    }
    const Constraint& c = plan_.sigma.constraints[i];
    const ConstraintPlan::ConstraintLogs& ids = plan_.logs[i];
    const ConstraintPlan::InverseKeys& ik = plan_.inverse_keys[i];
    if (c.kind == ConstraintKind::kInverse &&
        (ik.key.empty() || ik.ref_key.empty())) {
      add(i, "inverse constraint lacks key attributes", {});
      continue;
    }
    if (ids.ext == ConstraintPlan::kNoLog) continue;
    const char* missing = nullptr;  // the message for ext's missing seqs

    switch (c.kind) {
      case ConstraintKind::kKey:
        ForEachGroup(log(ids.ext), [&](const std::vector<TupleLog::Record>& g) {
          for (size_t j = 1; j < g.size(); ++j) {
            std::vector<std::string> vals = DecodeTuple(g[j].payload);
            pvs.push_back(PV{g[j].seq, 0,
                             "duplicate key [" + Join(vals, ",") + "]",
                             {g[0].seq, g[j].seq}, std::move(vals)});
          }
        });
        missing = "key field missing";
        break;

      case ConstraintKind::kId:
        ForEachGroup(log(ids.ext), [&](const std::vector<TupleLog::Record>& g) {
          const std::string_view value = DecodeSingle(g[0].payload);
          auto it = dup_ids.find(value);
          if (it != dup_ids.end()) {
            pvs.push_back(PV{g[0].seq, 0,
                             "ID value \"" + std::string(value) +
                                 "\" is not document-unique",
                             it->second, {std::string(value)}});
          }
        });
        missing = "ID attribute missing";
        break;

      case ConstraintKind::kForeignKey:
        ForEachDangling(
            log(ids.ext), log(ids.target), [&](const TupleLog::Record& e) {
              std::vector<std::string> vals = DecodeTuple(e.payload);
              pvs.push_back(
                  PV{e.seq, 0, "dangling reference [" + Join(vals, ",") + "]",
                     {e.seq}, std::move(vals)});
            });
        missing = "foreign-key field missing";
        break;

      case ConstraintKind::kSetForeignKey:
        dangling_values(ids.ext, ids.target, "dangling reference \"", "\"");
        missing = "set-valued field missing";
        break;

      case ConstraintKind::kInverse: {
        // NaiveCheck's four passes, each in its own order: set values
        // that are no partner key (tau's, then tau''s), then claims the
        // partner does not return (tau''s, then tau's). A self-inverse
        // runs only tau's passes.
        const bool self_inverse = plan_.SelfInverse(i);
        dangling_values(ids.ext, ids.target, "inverse reference \"",
                        "\" is not a " + c.ref_element + " key");
        flush(i);
        if (!self_inverse) {
          dangling_values(ids.ref_ext, ids.ref_target,
                          "inverse reference \"",
                          "\" is not a " + c.element + " key");
          flush(i);
        }
        auto not_back = [&](size_t pairs, size_t key,
                            const std::string& self) {
          ForEachUnconfirmed(
              log(pairs), log(key),
              [&](const TupleLog::Record& claim, uint32_t holder) {
                std::vector<std::string> ab = DecodeTuple(claim.payload);
                pvs.push_back(PV{claim.seq, claim.rank,
                                 "inverse missing: " + self + " \"" + ab[1] +
                                     "\" references \"" + ab[0] +
                                     "\" but not back",
                                 {holder, claim.seq},
                                 {ab[1]}});
              });
          flush(i);
        };
        if (!self_inverse) {
          not_back(ids.ref_pairs, ids.ref_target, c.ref_element);
        }
        not_back(ids.pairs, ids.target, c.element);
        break;
      }
    }

    if (missing != nullptr) {
      for (uint32_t seq : logs_[ids.ext].missing) {
        pvs.push_back(PV{seq, 0, missing, {seq}, {}});
      }
    }
    flush(i);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points

StreamOutcome StreamValidator::RunCore(StreamTokenizer& tok,
                                       const StreamEvent* pending,
                                       const DtdStructure& tok_dtd,
                                       const Deadline& deadline) const {
  StreamRun run(plan_, options_, &validator_, &tok_dtd, deadline);
  return run.Run(tok, pending);
}

StreamOutcome StreamValidator::Run(ByteSource& source,
                                   const Deadline& deadline,
                                   const ResourceLimits& limits) const {
  StreamTokenizerOptions topt;
  topt.limits = limits;
  topt.deadline = deadline;
  topt.chunk_bytes = options_.chunk_bytes;
  StreamTokenizer tok(source, topt);
  StreamEvent ev;
  StreamOutcome out;
  if (Status s = tok.Next(&ev); !s.ok()) {
    out.parse = std::move(s);
    return out;
  }
  // The document's own internal subset overrides the compiled DTD for
  // attribute tokenization only (as in ParseXml); the validation plan
  // stays precompiled.
  std::optional<DtdStructure> doc_dtd;
  const StreamEvent* pending = nullptr;
  if (ev.kind == StreamEventKind::kDoctype) {
    if (ev.has_internal_subset) {
      Result<DtdStructure> parsed =
          ParseInternalSubset(std::string(ev.internal_subset),
                              std::string(ev.name), limits, deadline);
      if (!parsed.ok()) {
        out.parse = parsed.status();
        return out;
      }
      doc_dtd = std::move(parsed).value();
    }
  } else {
    pending = &ev;
  }
  return RunCore(tok, pending, doc_dtd.has_value() ? *doc_dtd : plan_.dtd,
                 deadline);
}

SelfDescribingStreamResult StreamValidateSelfDescribing(
    ByteSource& source, const StreamOptions& options) {
  SelfDescribingStreamResult r;
  StreamTokenizerOptions topt;
  topt.limits = options.limits;
  topt.deadline = options.deadline;
  topt.chunk_bytes = options.chunk_bytes;
  StreamTokenizer tok(source, topt);
  StreamEvent ev;
  Status s = tok.Next(&ev);
  if (!s.ok()) {
    r.outcome.parse = std::move(s);
    return r;
  }
  // The DOM pipeline parses the whole document before recovering the
  // constraint block, so a tokenizer error anywhere outranks a malformed
  // block: stash the block error and surface it only on a clean stream.
  Status deferred = Status::OK();
  const StreamEvent* pending = nullptr;
  if (ev.kind == StreamEventKind::kDoctype) {
    r.doctype_name = std::string(ev.name);
    if (ev.has_internal_subset) {
      std::string subset(ev.internal_subset);
      Result<DtdStructure> dtd = ParseInternalSubset(
          subset, r.doctype_name, options.limits, options.deadline);
      if (!dtd.ok()) {
        // The DOM parser fails the whole parse here, before any content.
        r.outcome.parse = dtd.status();
        return r;
      }
      r.has_dtd = true;
      r.dtd = std::move(dtd).value();
      if (!subset.empty()) {
        Result<DtdC> dtdc = ParseDtdC(subset, r.doctype_name);
        if (!dtdc.ok()) {
          deferred = dtdc.status();
        } else {
          r.sigma = std::move(dtdc.value().sigma);
        }
      }
    }
  } else {
    pending = &ev;
  }

  if (r.has_dtd) {
    static const ConstraintSet kEmptySigma;
    const ConstraintSet* sigma = &kEmptySigma;
    if (r.sigma.has_value()) {
      r.well_formed = CheckWellFormed(*r.sigma, *r.dtd);
      if (r.well_formed.ok()) sigma = &*r.sigma;
    }
    StreamValidator sv(*r.dtd, *sigma, options);
    r.outcome = sv.RunCore(tok, pending, *r.dtd, options.deadline);
  } else {
    // No DTD to validate against; still drain the stream so parse errors
    // surface exactly as the DOM parser reports them.
    while (s.ok() && ev.kind != StreamEventKind::kEndDocument) {
      s = tok.Next(&ev);
    }
    if (!s.ok()) r.outcome.parse = std::move(s);
    r.outcome.stats.input_bytes = tok.consumed_bytes();
  }
  if (r.outcome.parse.ok() && !deferred.ok()) r.outcome.parse = deferred;
  return r;
}

StreamOutcome CheckTree(const ConstraintPlan& plan,
                        const StructuralValidator* validator,
                        const DataTree& tree, const StreamOptions& options,
                        const Deadline& deadline) {
  StreamOptions in_memory = options;
  in_memory.spill_budget_bytes = 0;  // the tree is in memory: never spill
  StreamRun run(plan, in_memory, validator, nullptr, deadline);
  return run.RunTree(tree);
}

}  // namespace xic
