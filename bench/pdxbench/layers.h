#ifndef PDXBENCH_LAYERS_H_
#define PDXBENCH_LAYERS_H_

// Per-layer measurement for traced runs. The bench opens its own spans
// (names starting "pdxbench.") around the public calls it makes into each
// module; the program's existing spans (chase.*, ctract.*, solve.*,
// stream.resume, compile_setting) nest under them. SpanLog drains the
// tracer after every request, so each request's spans are filed under
// that request, and computes self time: a span's duration minus the part
// of it its children cover.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "chase/stream.h"
#include "obs/trace.h"
#include "pde/setting.h"
#include "relational/value.h"
#include "serve/generation.h"

namespace pdxbench {

// Bench span names: one per public call the benchmark wraps.
inline constexpr char kSpanParseSetting[] = "pdxbench.parse_setting";
inline constexpr char kSpanParseInstance[] = "pdxbench.parse_instance";
inline constexpr char kSpanParseQuery[] = "pdxbench.parse_query";
inline constexpr char kSpanResume[] = "pdxbench.resume";
inline constexpr char kSpanPublish[] = "pdxbench.publish";
inline constexpr char kSpanFingerprint[] = "pdxbench.fingerprint";
inline constexpr char kSpanViews[] = "pdxbench.views";
inline constexpr char kSpanCtract[] = "pdxbench.ctract";
inline constexpr char kSpanGeneric[] = "pdxbench.generic";
inline constexpr char kSpanCertain[] = "pdxbench.certain_lower_bound";
inline constexpr char kSpanContains[] = "pdxbench.contains";
inline constexpr char kSpanChase[] = "pdxbench.chase";
inline constexpr char kSpanProtocol[] = "pdxbench.handle_line";
inline constexpr char kSpanTenant[] = "pdxbench.tenant";

// Time in the chase module per request: the outermost spans of this group.
// stream.resume and each ctract phase run a chase inside them; the generic
// solver runs an egd fixpoint per search node outside any chase.
inline constexpr char kChaseGroupKey[] = "chase*";
inline const std::vector<std::string> kChaseGroup = {
    "chase", "stream.resume", "chase.egd_fixpoint"};

// Enough per-thread ring slots for the largest single request (one
// np_search round emits about 3e5 spans); the log drains after each one.
inline constexpr size_t kRingCapacity = size_t{1} << 21;

// Spans kept for the Chrome trace: enough to see every layer of a run
// while keeping the file near 10 MB.
inline constexpr size_t kExportCap = 50'000;

class SpanLog {
 public:
  // Drains the global tracer and files everything under one request
  // carrying `tag` (a verb, or "request"). Tags starting with '@' mark
  // entries that are not requests, such as set-up.
  void EndRequest(const std::string& tag);

  // Per request whose tag starts with `prefix` (or, for an empty prefix,
  // per request not marked '@') in which `key` occurs: the summed duration
  // in ms of the outermost spans named `key`, or, for kChaseGroupKey, of
  // the outermost spans of kChaseGroup.
  std::vector<double> PerRequestMs(const std::string& key,
                                   const std::string& prefix = "") const;
  // The same, but one value per matching request, 0 where `key` does not
  // occur: requests replayed in the same order line up by index.
  std::vector<double> Column(const std::string& key,
                             const std::string& prefix) const;

  struct NameStats {
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  const std::map<std::string, NameStats>& names() const { return names_; }
  const std::vector<pdx::obs::SpanRecord>& kept() const { return kept_; }
  int64_t spans() const { return spans_; }

 private:
  struct Request {
    std::string tag;
    std::map<std::string, double> ms;  // key -> summed outermost duration
  };

  std::vector<Request> requests_;
  std::map<std::string, NameStats> names_;
  std::vector<pdx::obs::SpanRecord> kept_;
  int64_t spans_ = 0;
};

// The serving layers reached through public calls only. It does per
// request what serve::Tenant does — ParseInstance,
// StreamingChase::ResumeWithDeltas, a new Generation, its Fingerprint,
// SourceView/TargetView, then CtractExistsSolution, the generic solver,
// ComputeCertainAnswersLowerBound or canonical().Contains — with a bench
// span around each call. Single-threaded; owns its symbol table, so the
// nulls a request mints are observable.
class LayerTenant {
 public:
  static pdx::StatusOr<std::unique_ptr<LayerTenant>> Create(
      std::string_view setting_text);

  pdx::Status Write(std::string_view facts_text, bool retract);
  pdx::StatusOr<bool> Exists();
  pdx::StatusOr<int64_t> CertainLowerBound(std::string_view query_text);
  pdx::StatusOr<bool> Contains(std::string_view facts_text);

  uint32_t null_count() const { return symbols_.null_count(); }
  const pdx::StreamStats& last_stream() const { return last_stream_; }
  int64_t max_block_nulls() const { return max_block_nulls_; }

 private:
  LayerTenant() = default;

  pdx::SymbolTable symbols_;
  std::optional<pdx::PdeSetting> setting_;
  std::unique_ptr<pdx::StreamingChase> stream_;
  std::shared_ptr<const pdx::serve::Generation> gen_;
  std::optional<pdx::Instance> witness_;  // last generic-solver solution
  pdx::StreamStats last_stream_;
  int64_t max_block_nulls_ = 0;
};

}  // namespace pdxbench

#endif  // PDXBENCH_LAYERS_H_
