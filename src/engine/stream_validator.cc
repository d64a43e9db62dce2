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
// share-safe. Two feeds drive it: tokenizer events (Run: structure and
// constraints) and the vertices of an in-memory tree (RunTree:
// constraints only). Both end in the same constraint post-pass.

class StreamRun {
 public:
  /// `validator` and `tok_dtd` are null for the tree feed, which makes no
  /// structural findings and reads attribute value sets as they stand.
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
    clogs_.resize(plan_.sigma.constraints.size());
    if (plan_.needs_global_ids) {
      global_ids_ = std::make_unique<TupleLog>(&budget_);
    }
  }

  StreamOutcome Run(StreamTokenizer& tok, const StreamEvent* pending);
  ConstraintReport RunTree(const DataTree& tree);

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
    std::vector<Symbol> word;  // kInvalidSymbol marks a text child
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

  // A structural violation with its DOM emission rank: the DOM validator
  // walks vertices in id order and phases within a vertex (root check,
  // undeclared type, content model, present attributes in name order,
  // missing attributes in plan order); sorting by (seq, rank) restores
  // that exact order from stream-order collection.
  struct SViol {
    uint32_t seq;
    uint64_t rank;
    std::string msg;
  };
  static uint64_t Rank(uint64_t phase, uint64_t idx) {
    return (phase << 32) | idx;
  }

  // Per-constraint extraction output.
  struct CLogs {
    std::unique_ptr<TupleLog> ext;     // ext(tau) tuples / values
    std::unique_ptr<TupleLog> target;  // ext(tau') key tuples / values
    std::vector<uint32_t> ext_missing;  // seqs with a missing field
    // Inverse constraints need random access to both extents; they are
    // held in memory (see DESIGN.md for the bound).
    struct InvEntry {
      uint32_t seq = 0;
      bool has_key = false;
      std::string key;
      bool has_set = false;
      std::vector<std::string> set;  // ascending (attribute-set order)
    };
    std::vector<InvEntry> inv_ext, inv_ref;
  };

  void OnStart(const StreamEvent& ev);
  void OnTreeVertex(const DataTree& tree, VertexId v);
  void StepParent(Symbol label, std::string_view name);
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

  LabelInfo& Prepare(Symbol label, std::string_view name);
  int AlphaOf(LabelInfo& info, Symbol s);
  const AttrRef* FindAttr(std::string_view name) const;
  /// Splits `a`'s value into tokens_ (views, ascending, distinct).
  void Tokenize(const AttrRef& a);

  std::optional<std::string_view> SingleOf(const FieldState& fs);
  bool SetOf(const FieldState& fs, std::vector<std::string_view>* out);
  bool TupleOf(const Frame& frame, const std::vector<size_t>& fields,
               std::vector<std::string_view>* out);
  void EmitRoles(const Frame& frame);
  void Append(std::unique_ptr<TupleLog>* log, uint32_t seq, uint32_t rank,
              std::string_view payload);

  void AddSViol(uint32_t seq, uint64_t rank, std::string msg) {
    sviols_.push_back(SViol{seq, rank, std::move(msg)});
  }

  void Assemble(StreamOutcome* out);
  void AssembleConstraints(ConstraintReport* report);

  const ConstraintPlan& plan_;
  const StreamOptions& options_;
  const StructuralValidator* validator_;  // null: tree feed
  const DtdStructure* tok_dtd_;  // governs attribute-value tokenization
  Deadline deadline_;
  bool compile_ok_;

  // budget_ must precede every TupleLog owner: logs deregister from the
  // budget on destruction.
  SpillBudget budget_;
  std::vector<CLogs> clogs_;
  std::unique_ptr<TupleLog> global_ids_;

  SymbolTable syms_;
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
  std::string encode_buf_;

  bool spill_failed_ = false;
  Status spill_error_ = Status::OK();
  size_t extent_records_ = 0;
  size_t field_steps_ = 0;
};

StreamRun::LabelInfo& StreamRun::Prepare(Symbol label, std::string_view name) {
  while (labels_.size() <= label) labels_.emplace_back();
  LabelInfo& info = labels_[label];
  if (info.prepared) return info;
  info.prepared = true;
  if (validator_ != nullptr) info.plan = validator_->PlanFor(name);
  if (info.plan.has_value() && info.plan->automaton != nullptr) {
    info.text_alpha = info.plan->automaton->FindAlphabetId(kStringSymbol);
  }
  auto it = plan_.type_plans.find(name);
  if (it != plan_.type_plans.end()) info.tplan = &it->second;
  if (global_ids_ != nullptr) {
    std::optional<std::string> id = plan_.dtd.IdAttribute(std::string(name));
    if (id.has_value()) {
      info.has_id_attr = true;
      info.id_attr = std::move(*id);
    }
  }
  if (tok_dtd_ != nullptr) {
    for (std::string& attr : tok_dtd_->Attributes(std::string(name))) {
      if (tok_dtd_->IsSetValued(name, attr)) {
        info.set_valued.push_back(std::move(attr));
      }
    }
  }
  return info;
}

int StreamRun::AlphaOf(LabelInfo& info, Symbol s) {
  if (info.alpha.size() <= s) info.alpha.resize(syms_.size(), -2);
  int& a = info.alpha[s];
  if (a == -2) a = info.plan->automaton->FindAlphabetId(syms_.name(s));
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
    if (options_.skip_ignorable_whitespace && ev.text_all_space) {
      // The run may still qualify on a later chunk; keep the prefix only
      // if someone would consume it.
      if (!captures_.empty()) run_prefix_.append(ev.text);
      return;
    }
    run_qualified_ = true;
    // The whole run is exactly one text child of the open element.
    Frame& top = Top();
    if (top.track_word) {
      top.word.push_back(kInvalidSymbol);
      top.info->plan->automaton->Step(&top.run, top.info->text_alpha);
    }
    if (!run_prefix_.empty()) {
      AppendToCaptures(run_prefix_);
      run_prefix_.clear();
    }
  }
  AppendToCaptures(ev.text);
}

void StreamRun::StepParent(Symbol label, std::string_view name) {
  if (depth_ == 0) return;
  Frame& parent = Top();
  if (parent.track_word) {
    parent.word.push_back(label);
    parent.info->plan->automaton->Step(&parent.run,
                                       AlphaOf(*parent.info, label));
  }
  if (parent.info->tplan != nullptr) {
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
  StepParent(label, ev.name);

  const uint32_t seq = next_seq_++;
  LabelInfo& info = Prepare(label, ev.name);

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

  // Structural checks at the start tag (the content model waits for the
  // end tag; Rank() restores the DOM emission order).
  if (compile_ok_) {
    if (seq == 0 && ev.name != plan_.dtd.root()) {
      AddSViol(0, Rank(0, 0), "root labeled " + std::string(ev.name) +
                                  ", expected " + plan_.dtd.root());
    }
    if (!info.plan.has_value()) {
      AddSViol(seq, Rank(1, 0),
               "undeclared element type " + std::string(ev.name));
    } else {
      const std::vector<std::string>& names = *info.plan->attr_names;
      const std::vector<bool>& single = *info.plan->attr_single;
      size_t declared_present = 0;
      for (size_t idx = 0; idx < attrs_.size(); ++idx) {
        const AttrRef& a = attrs_[idx];
        auto it = std::lower_bound(names.begin(), names.end(), a.name);
        if (it == names.end() || *it != a.name) {
          AddSViol(seq, Rank(3, idx), "undeclared attribute " +
                                          std::string(ev.name) + "." +
                                          std::string(a.name));
          continue;
        }
        ++declared_present;
        const size_t slot = static_cast<size_t>(it - names.begin());
        // A value that is not split is one token, so only set-valued
        // tokenization can break a single-valued declaration.
        if (!single[slot] || !a.set_valued) continue;
        Tokenize(a);
        if (tokens_.size() != 1) {
          AddSViol(seq, Rank(3, idx),
                   "single-valued attribute " + std::string(ev.name) + "." +
                       std::string(a.name) + " holds " +
                       std::to_string(tokens_.size()) + " values");
        }
      }
      if (!options_.validation.allow_missing_attributes &&
          declared_present != names.size()) {
        for (size_t j = 0; j < names.size(); ++j) {
          if (FindAttr(names[j]) == nullptr) {
            AddSViol(seq, Rank(4, j), "missing declared attribute " +
                                          std::string(ev.name) + "." +
                                          names[j]);
          }
        }
      }
    }
  }

  OpenFrame(seq, label, info);
}

void StreamRun::OnTreeVertex(const DataTree& tree, VertexId v) {
  const Symbol label = tree.label_symbol(v);
  const std::string& name = tree.label(v);
  StepParent(label, name);
  LabelInfo& info = Prepare(label, name);
  // Only fields and the ID table read attributes here. The tree keeps a
  // vertex's attributes sorted by name already.
  attrs_.clear();
  if (info.tplan != nullptr || info.has_id_attr) {
    for (const DataTree::AttrEntry& e : tree.attributes(v).entries()) {
      attrs_.push_back(
          AttrRef{tree.symbols().name(e.name), {}, false, &e.value});
    }
  }
  OpenFrame(v, label, info);
}

// Shared by both feeds once attrs_ holds the vertex's attributes.
void StreamRun::OpenFrame(uint32_t seq, Symbol label, LabelInfo& info) {
  // Global ID table entry.
  if (global_ids_ != nullptr && info.has_id_attr && !spill_failed_) {
    if (const AttrRef* a = FindAttr(info.id_attr)) {
      Tokenize(*a);
      if (tokens_.size() == 1) {
        ++field_steps_;
        Status s = global_ids_->Append(seq, 0, tokens_[0]);
        if (!s.ok()) {
          spill_failed_ = true;
          spill_error_ = std::move(s);
        }
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
  if (frame.track_word) frame.run = info.plan->automaton->StartRun();
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
    rendered.reserve(frame.word.size());
    for (Symbol s : frame.word) {
      rendered.push_back(s == kInvalidSymbol ? std::string(kStringSymbol)
                                             : syms_.name(s));
    }
    AddSViol(frame.seq, Rank(2, 0),
             "children [" + Join(rendered, " ") +
                 "] do not match content model of " + syms_.name(frame.label));
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

void StreamRun::Append(std::unique_ptr<TupleLog>* log, uint32_t seq,
                       uint32_t rank, std::string_view payload) {
  if (spill_failed_) return;
  if (*log == nullptr) *log = std::make_unique<TupleLog>(&budget_);
  Status s = (*log)->Append(seq, rank, payload);
  if (!s.ok()) {
    spill_failed_ = true;
    spill_error_ = std::move(s);
    return;
  }
  ++extent_records_;
}

void StreamRun::EmitRoles(const Frame& frame) {
  for (const Role& role : frame.info->tplan->roles) {
    CLogs& cl = clogs_[role.constraint];
    switch (role.kind) {
      case Role::kKeyTuple:
      case Role::kFkTuple:
        if (!TupleOf(frame, role.fields, &view_scratch_)) {
          cl.ext_missing.push_back(frame.seq);
          break;
        }
        EncodeTupleInto(view_scratch_, &encode_buf_);
        Append(&cl.ext, frame.seq, 0, encode_buf_);
        break;
      case Role::kFkTarget:
        if (TupleOf(frame, role.fields, &view_scratch_)) {
          EncodeTupleInto(view_scratch_, &encode_buf_);
          Append(&cl.target, frame.seq, 0, encode_buf_);
        }
        break;
      case Role::kSfkSource: {
        if (!SetOf(frame.fields[role.fields[0]], &view_scratch_)) {
          cl.ext_missing.push_back(frame.seq);
          break;
        }
        uint32_t rank = 0;
        for (std::string_view v : view_scratch_) {
          Append(&cl.ext, frame.seq, rank++, v);
        }
        break;
      }
      case Role::kSfkTarget:
        if (std::optional<std::string_view> v =
                SingleOf(frame.fields[role.fields[0]])) {
          Append(&cl.target, frame.seq, 0, *v);
        }
        break;
      case Role::kIdExt:
        if (std::optional<std::string_view> v =
                SingleOf(frame.fields[role.fields[0]])) {
          Append(&cl.ext, frame.seq, 0, *v);
        } else {
          cl.ext_missing.push_back(frame.seq);
        }
        break;
      case Role::kInvExt:
      case Role::kInvRef: {
        CLogs::InvEntry e;
        e.seq = frame.seq;
        if (std::optional<std::string_view> k =
                SingleOf(frame.fields[role.fields[0]])) {
          e.has_key = true;
          e.key = std::string(*k);
        }
        if (SetOf(frame.fields[role.fields[1]], &view_scratch_)) {
          e.has_set = true;
          e.set.assign(view_scratch_.begin(), view_scratch_.end());
        }
        (role.kind == Role::kInvExt ? cl.inv_ext : cl.inv_ref)
            .push_back(std::move(e));
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

ConstraintReport StreamRun::RunTree(const DataTree& tree) {
  ConstraintReport report;
  // Parentless vertices first (the root, then detached subtrees), then
  // whatever only a parent cycle reaches: ExtentIndex counts every
  // vertex, so the walk visits each one once.
  std::vector<bool> seen(tree.size());
  std::vector<std::pair<VertexId, size_t>> stack;  // vertex, next child
  size_t visited = 0;
  auto open = [&](VertexId v) {
    if ((visited++ & 0x3FF) == 0) {
      if (Status s = deadline_.Check("constraint check"); !s.ok()) {
        report.status = std::move(s);
        return false;
      }
    }
    seen[v] = true;
    OnTreeVertex(tree, v);
    stack.emplace_back(v, 0);
    return true;
  };
  for (bool cycles : {false, true}) {
    for (VertexId top = 0; top < tree.size(); ++top) {
      if (seen[top] || (!cycles && tree.parent(top) != kInvalidVertex)) {
        continue;
      }
      if (!open(top)) return report;
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
          AppendToCaptures(*text);  // every text child counts
        } else if (VertexId w = std::get<VertexId>(child); !seen[w]) {
          if (!open(w)) return report;
        }
      }
    }
  }
  AssembleConstraints(&report);
  report.steps = field_steps_;
  return report;
}

void StreamRun::Assemble(StreamOutcome* out) {
  // Structure: restore the DOM validator's emission order.
  if (!compile_ok_) {
    out->structure.status = validator_->status();
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
  out->stats.extent_records = extent_records_;
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

  // Document-wide ID table, reduced to the duplicated values (value ->
  // every holder, in vertex order).
  std::map<std::string, std::vector<VertexId>, std::less<>> dup_ids;
  if (global_ids_ != nullptr) {
    if (Status s = global_ids_->Finish(); !s.ok()) {
      report->status = std::move(s);
      return;
    }
    TupleLog::Cursor cur = global_ids_->Scan();
    TupleLog::Record r;
    std::string value;
    std::vector<VertexId> holders;
    bool have = false;
    auto flush = [&] {
      if (have && holders.size() > 1) dup_ids.emplace(value, holders);
    };
    while (cur.Next(&r)) {
      if (!have || r.payload != value) {
        flush();
        value = std::string(r.payload);
        holders.clear();
        have = true;
      }
      holders.push_back(r.seq);
    }
    flush();
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

  for (size_t i = 0; i < plan_.sigma.constraints.size() && !full(); ++i) {
    if (Status s = deadline_.Check("constraint check"); !s.ok()) {
      report->status = std::move(s);
      return;
    }
    const Constraint& c = plan_.sigma.constraints[i];
    CLogs& cl = clogs_[i];
    for (std::unique_ptr<TupleLog>* log : {&cl.ext, &cl.target}) {
      if (*log != nullptr) {
        if (Status s = (*log)->Finish(); !s.ok()) {
          report->status = std::move(s);
          return;
        }
      }
    }
    std::sort(cl.ext_missing.begin(), cl.ext_missing.end());
    pvs.clear();

    switch (c.kind) {
      case ConstraintKind::kKey: {
        if (cl.ext != nullptr) {
          TupleLog::Cursor cur = cl.ext->Scan();
          TupleLog::Record r;
          std::string group;
          uint32_t first = 0;
          bool have = false;
          while (cur.Next(&r)) {
            if (!have || r.payload != group) {
              group = std::string(r.payload);
              first = r.seq;
              have = true;
              continue;
            }
            std::vector<std::string> vals = DecodeTuple(r.payload);
            pvs.push_back(PV{r.seq, 0,
                             "duplicate key [" + Join(vals, ",") + "]",
                             {first, r.seq}, std::move(vals)});
          }
        }
        for (uint32_t seq : cl.ext_missing) {
          pvs.push_back(PV{seq, 0, "key field missing", {seq}, {}});
        }
        break;
      }

      case ConstraintKind::kId: {
        if (cl.ext != nullptr) {
          TupleLog::Cursor cur = cl.ext->Scan();
          TupleLog::Record r;
          std::string group;
          bool have = false;
          while (cur.Next(&r)) {
            if (have && r.payload == group) continue;
            group = std::string(r.payload);
            have = true;
            auto it = dup_ids.find(r.payload);
            if (it != dup_ids.end()) {
              pvs.push_back(PV{r.seq, 0,
                               "ID value \"" + group +
                                   "\" is not document-unique",
                               it->second, {group}});
            }
          }
        }
        for (uint32_t seq : cl.ext_missing) {
          pvs.push_back(PV{seq, 0, "ID attribute missing", {seq}, {}});
        }
        break;
      }

      case ConstraintKind::kForeignKey:
      case ConstraintKind::kSetForeignKey: {
        const bool set_valued = c.kind == ConstraintKind::kSetForeignKey;
        std::optional<TupleLog::Cursor> tcur;
        TupleLog::Record t;
        bool thave = false;
        if (cl.target != nullptr) {
          tcur = cl.target->Scan();
          thave = tcur->Next(&t);
        }
        if (cl.ext != nullptr) {
          TupleLog::Cursor ecur = cl.ext->Scan();
          TupleLog::Record e;
          while (ecur.Next(&e)) {
            while (thave && t.payload < e.payload) thave = tcur->Next(&t);
            if (thave && t.payload == e.payload) continue;
            if (set_valued) {
              pvs.push_back(PV{e.seq, e.rank,
                               "dangling reference \"" +
                                   std::string(e.payload) + "\"",
                               {e.seq},
                               {std::string(e.payload)}});
            } else {
              std::vector<std::string> vals = DecodeTuple(e.payload);
              pvs.push_back(PV{e.seq, 0,
                               "dangling reference [" + Join(vals, ",") + "]",
                               {e.seq}, std::move(vals)});
            }
          }
        }
        const char* missing_msg = set_valued ? "set-valued field missing"
                                             : "foreign-key field missing";
        for (uint32_t seq : cl.ext_missing) {
          pvs.push_back(PV{seq, 0, missing_msg, {seq}, {}});
        }
        break;
      }

      case ConstraintKind::kInverse: {
        const ConstraintPlan::InverseKeys& ik = plan_.inverse_keys[i];
        if (ik.key.empty() || ik.ref_key.empty()) {
          add(i, "inverse constraint lacks key attributes", {});
          break;
        }
        auto by_seq = [](const CLogs::InvEntry& a, const CLogs::InvEntry& b) {
          return a.seq < b.seq;
        };
        std::sort(cl.inv_ext.begin(), cl.inv_ext.end(), by_seq);
        std::sort(cl.inv_ref.begin(), cl.inv_ref.end(), by_seq);
        // key value -> entries, in extent (vertex) order. Views into the
        // entries' key strings: stable, the vectors no longer move.
        std::map<std::string_view, std::vector<size_t>> by_key, ref_by_key;
        for (size_t k = 0; k < cl.inv_ext.size(); ++k) {
          if (cl.inv_ext[k].has_key) {
            by_key[cl.inv_ext[k].key].push_back(k);
          }
        }
        for (size_t k = 0; k < cl.inv_ref.size(); ++k) {
          if (cl.inv_ref[k].has_key) {
            ref_by_key[cl.inv_ref[k].key].push_back(k);
          }
        }
        auto contains = [](const std::vector<std::string>& set,
                           const std::string& val) {
          return std::binary_search(set.begin(), set.end(), val);
        };
        // Four passes, in NaiveCheck's exact emission order.
        for (const CLogs::InvEntry& x : cl.inv_ext) {
          if (full()) break;
          if (!x.has_set) continue;
          for (const std::string& val : x.set) {
            if (ref_by_key.count(val) == 0) {
              add(i, "inverse reference \"" + val + "\" is not a " +
                         c.ref_element + " key",
                  {x.seq}, {val});
              if (full()) break;
            }
          }
        }
        for (const CLogs::InvEntry& y : cl.inv_ref) {
          if (full()) break;
          if (!y.has_set) continue;
          for (const std::string& val : y.set) {
            if (by_key.count(val) == 0) {
              add(i, "inverse reference \"" + val + "\" is not a " +
                         c.element + " key",
                  {y.seq}, {val});
              if (full()) break;
            }
          }
        }
        for (const CLogs::InvEntry& y : cl.inv_ref) {
          if (full()) break;
          if (!y.has_set || !y.has_key) continue;
          for (const std::string& val : y.set) {
            auto it = by_key.find(std::string_view(val));
            if (it == by_key.end()) continue;
            for (size_t xi : it->second) {
              const CLogs::InvEntry& x = cl.inv_ext[xi];
              if (!x.has_set || !contains(x.set, y.key)) {
                add(i, "inverse missing: " + c.ref_element + " \"" + y.key +
                           "\" references \"" + val + "\" but not back",
                    {x.seq, y.seq}, {y.key});
              }
              if (full()) break;
            }
            if (full()) break;
          }
        }
        for (const CLogs::InvEntry& x : cl.inv_ext) {
          if (full()) break;
          if (!x.has_set || !x.has_key) continue;
          for (const std::string& val : x.set) {
            auto it = ref_by_key.find(std::string_view(val));
            if (it == ref_by_key.end()) continue;
            for (size_t yi : it->second) {
              const CLogs::InvEntry& y = cl.inv_ref[yi];
              if (!y.has_set || !contains(y.set, x.key)) {
                add(i, "inverse missing: " + c.element + " \"" + x.key +
                           "\" references \"" + val + "\" but not back",
                    {y.seq, x.seq}, {x.key});
              }
              if (full()) break;
            }
            if (full()) break;
          }
        }
        break;
      }
    }

    std::stable_sort(pvs.begin(), pvs.end(), [](const PV& a, const PV& b) {
      if (a.seq != b.seq) return a.seq < b.seq;
      return a.rank < b.rank;
    });
    for (PV& p : pvs) {
      if (full()) break;
      add(i, std::move(p.msg), std::move(p.wit), std::move(p.values));
    }
  }
}

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

ConstraintReport CheckTreeConstraints(const ConstraintPlan& plan,
                                      const DataTree& tree,
                                      size_t max_violations,
                                      const Deadline& deadline) {
  StreamOptions options;
  options.check.max_violations = max_violations;
  options.spill_budget_bytes = 0;  // the tree is in memory: never spill
  StreamRun run(plan, options, nullptr, nullptr, deadline);
  return run.RunTree(tree);
}

}  // namespace xic
