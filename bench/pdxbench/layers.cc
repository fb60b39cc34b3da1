#include "layers.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "chase/chase.h"
#include "logic/parser.h"
#include "pde/certain_answers.h"
#include "pde/ctract_solver.h"
#include "pde/generic_solver.h"
#include "pde/setting_file.h"
#include "relational/instance_io.h"

namespace pdxbench {

using pdx::obs::Span;
using pdx::obs::SpanRecord;
using pdx::obs::Tracer;

namespace {

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Length of the union of [start, end) intervals, each clipped to
// [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

// Whether a request tagged `tag` is selected by `prefix` (see
// SpanLog::PerRequestMs).
bool Matches(const std::string& tag, const std::string& prefix) {
  return prefix.empty() ? !tag.starts_with('@') : tag.starts_with(prefix);
}

}  // namespace

void SpanLog::EndRequest(const std::string& tag) {
  std::vector<SpanRecord> records = Tracer::Global().Drain();
  spans_ += static_cast<int64_t>(records.size());
  std::unordered_map<uint64_t, size_t> by_id;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    by_id.emplace(r.id, i);
    if (r.parent != 0) {
      children[r.parent].emplace_back(r.start_ns, r.start_ns + r.dur_ns);
    }
  }
  const std::unordered_set<std::string> chase_group(kChaseGroup.begin(),
                                                    kChaseGroup.end());
  // True when an ancestor of `r` recorded in this batch satisfies `match`.
  auto has_ancestor = [&](const SpanRecord& r, auto&& match) {
    for (uint64_t p = r.parent; p != 0;) {
      auto it = by_id.find(p);
      if (it == by_id.end()) return false;
      const SpanRecord& up = records[it->second];
      if (match(up)) return true;
      p = up.parent;
    }
    return false;
  };

  Request request;
  request.tag = tag;
  for (const SpanRecord& r : records) {
    NameStats& stats = names_[r.name];
    ++stats.count;
    stats.total_ms += Ms(r.dur_ns);
    int64_t self = r.dur_ns;
    if (auto it = children.find(r.id); it != children.end()) {
      self -= CoveredNs(it->second, r.start_ns, r.start_ns + r.dur_ns);
    }
    stats.self_ms += Ms(self);
    if (!has_ancestor(r, [&](const SpanRecord& up) {
          return up.name == r.name;
        })) {
      request.ms[r.name] += Ms(r.dur_ns);
    }
    if (chase_group.count(r.name) > 0 &&
        !has_ancestor(r, [&](const SpanRecord& up) {
          return chase_group.count(up.name) > 0;
        })) {
      request.ms[kChaseGroupKey] += Ms(r.dur_ns);
    }
    if (kept_.size() < kExportCap) kept_.push_back(r);
  }
  requests_.push_back(std::move(request));
}

std::vector<double> SpanLog::PerRequestMs(const std::string& key,
                                          const std::string& prefix) const {
  std::vector<double> out;
  for (const Request& request : requests_) {
    if (!Matches(request.tag, prefix)) continue;
    if (auto it = request.ms.find(key); it != request.ms.end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

std::vector<double> SpanLog::Column(const std::string& key,
                                    const std::string& prefix) const {
  std::vector<double> out;
  for (const Request& request : requests_) {
    if (!Matches(request.tag, prefix)) continue;
    auto it = request.ms.find(key);
    out.push_back(it != request.ms.end() ? it->second : 0);
  }
  return out;
}

// --- LayerTenant -----------------------------------------------------------

pdx::StatusOr<std::unique_ptr<LayerTenant>> LayerTenant::Create(
    std::string_view setting_text) {
  std::unique_ptr<LayerTenant> t(new LayerTenant());
  {
    Span span(kSpanParseSetting);
    PDX_ASSIGN_OR_RETURN(pdx::PdeSetting setting,
                         pdx::ParseSettingFile(setting_text, &t->symbols_));
    t->setting_.emplace(std::move(setting));
  }
  std::vector<pdx::Tgd> tgds = t->setting_->st_tgds();
  tgds.insert(tgds.end(), t->setting_->target_tgds().begin(),
              t->setting_->target_tgds().end());
  // The options serve::Tenant chases with by default.
  pdx::ChaseOptions options;
  options.strategy = pdx::ChaseStrategy::kRestricted;
  options.num_threads = 1;
  t->stream_ = std::make_unique<pdx::StreamingChase>(
      &t->setting_->schema(), std::move(tgds), t->setting_->target_egds(),
      &t->symbols_, options);
  PDX_RETURN_IF_ERROR(t->stream_->Initialize(t->setting_->EmptyInstance()));
  t->gen_ = std::make_shared<pdx::serve::Generation>(
      0, pdx::Instance(t->stream_->base()), pdx::Instance(t->stream_->instance()),
      pdx::InstanceWatermark(t->stream_->mark()));
  return t;
}

pdx::Status LayerTenant::Write(std::string_view facts_text, bool retract) {
  std::vector<pdx::Fact> facts;
  {
    Span span(kSpanParseInstance);
    PDX_ASSIGN_OR_RETURN(
        pdx::Instance parsed,
        pdx::ParseInstance(facts_text, setting_->schema(), &symbols_));
    facts = parsed.AllFacts();
  }
  {
    Span span(kSpanResume);
    static const std::vector<pdx::Fact> kNone;
    PDX_ASSIGN_OR_RETURN(last_stream_,
                         stream_->ResumeWithDeltas(retract ? kNone : facts,
                                                   retract ? facts : kNone));
  }
  {
    Span span(kSpanPublish);
    gen_ = std::make_shared<pdx::serve::Generation>(
        gen_->seq() + 1, pdx::Instance(stream_->base()),
        pdx::Instance(stream_->instance()),
        pdx::InstanceWatermark(stream_->mark()));
  }
  Span span(kSpanFingerprint);
  (void)gen_->Fingerprint();
  return pdx::OkStatus();
}

pdx::StatusOr<bool> LayerTenant::Exists() {
  (void)gen_->Fingerprint();
  if (std::optional<bool> cached = gen_->CachedExists()) return *cached;
  const pdx::PdeSetting& setting = *setting_;
  bool use_ctract = !setting.HasTargetConstraints() &&
                    !setting.HasDisjunctiveTsTgds() &&
                    setting.ctract_report().theorem5_applicable();
  const pdx::Instance* source;
  const pdx::Instance* target;
  {
    Span span(kSpanViews);
    source = &gen_->SourceView(setting);
    target = &gen_->TargetView(setting);
  }
  bool exists;
  if (use_ctract) {
    Span span(kSpanCtract);
    pdx::ChaseOptions options;
    options.num_threads = 1;
    PDX_ASSIGN_OR_RETURN(
        pdx::CtractSolveResult result,
        pdx::CtractExistsSolution(setting, *source, *target, &symbols_,
                                  options));
    exists = result.has_solution;
    max_block_nulls_ = std::max(max_block_nulls_, result.max_block_nulls);
  } else {
    Span span(kSpanGeneric);
    PDX_ASSIGN_OR_RETURN(
        pdx::IncrementalSolveResult inc,
        pdx::GenericExistsSolutionIncremental(
            setting, *source, *target, witness_ ? &*witness_ : nullptr,
            &symbols_));
    if (inc.result.outcome == pdx::SolveOutcome::kBudgetExhausted) {
      return pdx::ResourceExhaustedError("solver budget exhausted");
    }
    exists = inc.result.outcome == pdx::SolveOutcome::kSolutionFound;
    if (exists && inc.result.solution.has_value()) {
      witness_.emplace(*inc.result.solution);
    } else if (!exists) {
      witness_.reset();
    }
  }
  gen_->CacheExists(exists);
  return exists;
}

pdx::StatusOr<int64_t> LayerTenant::CertainLowerBound(
    std::string_view query_text) {
  pdx::UnionQuery query;
  {
    Span span(kSpanParseQuery);
    PDX_ASSIGN_OR_RETURN(query, pdx::ParseUnionQuery(
                                    query_text, setting_->schema(), &symbols_));
  }
  (void)gen_->Fingerprint();
  const pdx::Instance* source;
  const pdx::Instance* target;
  {
    Span span(kSpanViews);
    source = &gen_->SourceView(*setting_);
    target = &gen_->TargetView(*setting_);
  }
  Span span(kSpanCertain);
  PDX_ASSIGN_OR_RETURN(pdx::CertainLowerBoundResult result,
                       pdx::ComputeCertainAnswersLowerBound(
                           *setting_, *source, *target, query, &symbols_));
  return static_cast<int64_t>(result.answers.size());
}

pdx::StatusOr<bool> LayerTenant::Contains(std::string_view facts_text) {
  std::vector<pdx::Fact> facts;
  {
    Span span(kSpanParseInstance);
    PDX_ASSIGN_OR_RETURN(
        pdx::Instance parsed,
        pdx::ParseInstance(facts_text, setting_->schema(), &symbols_));
    facts = parsed.AllFacts();
  }
  (void)gen_->Fingerprint();
  Span span(kSpanContains);
  for (const pdx::Fact& fact : facts) {
    if (!gen_->canonical().Contains(fact)) return false;
  }
  return true;
}

}  // namespace pdxbench
