// Tests for the pdxd serving subsystem: JSON wire format, tenant
// registry, generation snapshot isolation, write-batch coalescing,
// deadline handling, the protocol handler, and a full socket round trip
// against a live Server (including the Prometheus /metrics endpoint).
//
// The coalescing and isolation tests use real threads, so this test also
// carries the `parallel` label and runs under TSan in tools/check.sh.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace pdx {
namespace serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Example 1 of the paper: full st-tgd, no target constraints.
constexpr char kExample1[] =
    "[source]\nE/2\n[target]\nH/2\n"
    "[st]\nE(x,z) & E(z,y) -> H(x,y).\n"
    "[ts]\nH(x,y) -> E(x,y).\n";

// The same setting spelled differently: comments, blank lines, spacing.
constexpr char kExample1Variant[] =
    "# same setting, other spelling\n"
    "[source]\n  E/2\n\n[target]\nH/2   # target peer\n"
    "[st]\n  E(x,z)&E(z,y)  ->  H(x,y).\n"
    "[ts]\nH(x,y)->E(x,y).\n";

// A setting whose target egd makes writes able to conflict: H is a
// function of its first column.
constexpr char kKeyed[] =
    "[source]\nE/2\n[target]\nH/2\n"
    "[st]\nE(x,y) -> H(x,y).\n"
    "[t]\nH(x,y) & H(x,z) -> y = z.\n";

std::chrono::steady_clock::time_point Soon() {
  return steady_clock::now() + std::chrono::seconds(30);
}

std::shared_ptr<Tenant> MustCreate(std::string_view setting_text) {
  auto tenant = Tenant::Create(setting_text, TenantOptions());
  EXPECT_TRUE(tenant.ok()) << tenant.status().ToString();
  return *tenant;
}

// --- JSON ---------------------------------------------------------------

TEST(ServeJsonTest, ParsesScalarsAndNesting) {
  auto v = ParseJson(
      R"({"a": 1, "b": -2.5, "c": "x\ny", "d": [true, false, null], "e": {}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->GetInt("a"), 1);
  EXPECT_DOUBLE_EQ(v->Find("b")->as_double(), -2.5);
  EXPECT_EQ(v->GetString("c"), "x\ny");
  EXPECT_EQ(v->Find("d")->items().size(), 3u);
  EXPECT_TRUE(v->Find("e")->is_object());
}

TEST(ServeJsonTest, DumpRoundTrips) {
  JsonValue obj = JsonValue::Object();
  obj.Set("id", JsonValue::Int(7));
  obj.Set("text", JsonValue::String("quote \" backslash \\ control \x01"));
  JsonValue arr = JsonValue::Array();
  arr.Add(JsonValue::Bool(true));
  arr.Add(JsonValue::Null());
  obj.Set("list", std::move(arr));
  auto reparsed = ParseJson(obj.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->Dump(), obj.Dump());
}

TEST(ServeJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  // Depth bomb: a clean error, not a stack overflow.
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// --- Tenant identity and registry ---------------------------------------

TEST(ServeRegistryTest, IdIsSpellingInvariant) {
  auto a = Tenant::IdForSetting(kExample1);
  auto b = Tenant::IdForSetting(kExample1Variant);
  auto c = Tenant::IdForSetting(kKeyed);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_NE(*a, *c);
  EXPECT_FALSE(Tenant::IdForSetting("[source]\n").ok());
}

TEST(ServeRegistryTest, LoadDedupesFindAndEvict) {
  TenantRegistry registry;
  auto first = registry.Load(kExample1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = registry.Load(kExample1Variant);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get()) << "variant spelling must dedupe";
  EXPECT_EQ(registry.size(), 1u);

  auto found = registry.Find((*first)->id());
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->get(), first->get());
  EXPECT_EQ(registry.Find("0000000000000000").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(registry.Evict((*first)->id()).ok());
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Find((*first)->id()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Evict((*first)->id()).code(), StatusCode::kNotFound);
}

TEST(ServeRegistryTest, RejectsMalformedSetting) {
  TenantRegistry registry;
  EXPECT_EQ(registry.Load("[source]\nE/2\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.size(), 0u);
}

// --- Generations and snapshot isolation ---------------------------------

TEST(ServeTenantTest, WriteAdvancesGenerationReaderKeepsPin) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);

  std::shared_ptr<const Generation> pinned = tenant->Snapshot();
  EXPECT_EQ(pinned->seq(), 0u);
  uint64_t fp0 = pinned->Fingerprint();

  auto written = tenant->Write("E(a,b). E(b,c).", Soon());
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->generation, 1u);

  // The reader's pinned generation is untouched by the publish: same
  // seq, same fingerprint, still empty.
  EXPECT_EQ(pinned->seq(), 0u);
  EXPECT_EQ(pinned->Fingerprint(), fp0);
  EXPECT_EQ(pinned->canonical().ResolvedFactCount(), 0u);

  std::shared_ptr<const Generation> current = tenant->Snapshot();
  EXPECT_EQ(current->seq(), 1u);
  EXPECT_NE(current->Fingerprint(), fp0);
  EXPECT_EQ(written->fingerprint, current->Fingerprint());
  // E(a,b), E(b,c) chased through Σst: H(a,c) appears in the canonical
  // instance.
  EXPECT_EQ(current->base().fact_count(), 2u);
  EXPECT_EQ(current->canonical().ResolvedFactCount(), 3u);
}

TEST(ServeTenantTest, ContainsProbesCanonicalInstance) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  ASSERT_TRUE(tenant->Write("E(a,b). E(b,c).", Soon()).ok());
  auto hit = tenant->Contains("H(a,c).");
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->contains);
  auto miss = tenant->Contains("H(c,a).");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->contains);
}

TEST(ServeTenantTest, ExistsAndCertainOnPinnedGeneration) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  // The closed triangle: H(a,c) is forced by Σst and justified back
  // through Σts by E(a,c), so a solution exists. (The open path
  // E(a,b),E(b,c) alone famously has none — see ExistsSeesNoSolution.)
  ASSERT_TRUE(tenant->Write("E(a,b). E(b,c). E(a,c).", Soon()).ok());

  auto exists = tenant->Exists("auto");
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_TRUE(exists->exists);
  EXPECT_EQ(exists->generation, 1u);
  // The auto verdict memoizes per generation.
  auto again = tenant->Exists("auto");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->solver, "cached");

  auto certain = tenant->Certain("q(x,y) :- H(x,y).", "exact");
  ASSERT_TRUE(certain.ok()) << certain.status().ToString();
  EXPECT_FALSE(certain->no_solution);
  ASSERT_EQ(certain->answers.size(), 1u);
  EXPECT_EQ(certain->answers[0], "(a,c)");
}

// The paper's no-solution example: the open path forces H(a,c), whose
// Σts justification E(a,c) is missing from the source.
TEST(ServeTenantTest, ExistsSeesNoSolution) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  ASSERT_TRUE(tenant->Write("E(a,b). E(b,c).", Soon()).ok());
  auto exists = tenant->Exists("auto");
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_FALSE(exists->exists);
  auto certain = tenant->Certain("q(x,y) :- H(x,y).", "exact");
  ASSERT_TRUE(certain.ok());
  EXPECT_TRUE(certain->no_solution);
}

TEST(ServeTenantTest, IncompatibleWriteRejectedGenerationUnchanged) {
  std::shared_ptr<Tenant> tenant = MustCreate(kKeyed);
  ASSERT_TRUE(tenant->Write("E(a,b).", Soon()).ok());
  uint64_t fp = tenant->Snapshot()->Fingerprint();

  // E(a,c) forces H(a,b) and H(a,c) with b = c: two distinct constants —
  // the chase fails, so no solution would exist. Rejected, not published.
  auto bad = tenant->Write("E(a,c).", Soon());
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tenant->Snapshot()->seq(), 1u);
  EXPECT_EQ(tenant->Snapshot()->Fingerprint(), fp);

  // The tenant still accepts compatible writes afterwards.
  EXPECT_TRUE(tenant->Write("E(b,d).", Soon()).ok());
}

TEST(ServeTenantTest, SourceFactsMustBeGround) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  auto bad = tenant->Write("E(a,_x).", Soon());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// --- Batch coalescing ----------------------------------------------------

// N compatible writes admitted while the writer is frozen drain as ONE
// chase round, and the coalesced result equals the one-chase-per-write
// reference. The two tenants intern n0..n8 in different orders, and
// generation fingerprints key constants by interned id, so the results
// are compared by content: both hold the whole expected closure, and
// nothing else.
TEST(ServeTenantTest, PausedWritesCoalesceIntoOneBatch) {
  constexpr int kWriters = 8;
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  ServeMetrics& metrics = GlobalServeMetrics();

  tenant->PauseWrites();
  int64_t batches_before = metrics.batches_total.Value();

  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&, i] {
      std::string facts = "E(n" + std::to_string(i) + ", n" +
                          std::to_string(i + 1) + ").";
      if (!tenant->Write(facts, Soon()).ok()) failures.fetch_add(1);
    });
  }
  // Wait until every write is admitted, then release the writer.
  auto give_up = steady_clock::now() + std::chrono::seconds(30);
  while (tenant->Stats().queue_depth < static_cast<size_t>(kWriters) &&
         steady_clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(tenant->Stats().queue_depth, static_cast<size_t>(kWriters));
  tenant->ResumeWrites();
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(metrics.batches_total.Value() - batches_before, 1)
      << "8 compatible writes must cost exactly one chase round";
  std::shared_ptr<const Generation> gen = tenant->Snapshot();
  EXPECT_EQ(gen->seq(), 1u) << "one batch publishes one generation";

  // Reference: the same writes applied one per chase round.
  std::shared_ptr<Tenant> reference = MustCreate(kExample1);
  for (int i = 0; i < kWriters; ++i) {
    std::string facts = "E(n" + std::to_string(i) + ", n" +
                        std::to_string(i + 1) + ").";
    ASSERT_TRUE(reference->Write(facts, Soon()).ok());
  }
  std::shared_ptr<const Generation> ref = reference->Snapshot();
  EXPECT_EQ(ref->seq(), static_cast<uint64_t>(kWriters));
  // The closure of the path n0 -> ... -> n8 under E(x,z) & E(z,y) -> H(x,y):
  // the kWriters edges and the kWriters - 1 two-step H facts. The setting
  // has no existentials, so the instances hold no nulls.
  std::string closure;
  for (int i = 0; i < kWriters; ++i) {
    closure +=
        "E(n" + std::to_string(i) + ",n" + std::to_string(i + 1) + ").";
    if (i + 2 <= kWriters) {
      closure +=
          "H(n" + std::to_string(i) + ",n" + std::to_string(i + 2) + ").";
    }
  }
  for (const std::shared_ptr<Tenant>& t : {tenant, reference}) {
    auto has = t->Contains(closure);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    EXPECT_TRUE(has->contains)
        << "coalesced chase must equal one-chase-per-write";
  }
  EXPECT_EQ(gen->base().fact_count(), ref->base().fact_count());
  EXPECT_EQ(gen->canonical().ResolvedFactCount(),
            static_cast<size_t>(2 * kWriters - 1));
  EXPECT_EQ(ref->canonical().ResolvedFactCount(),
            static_cast<size_t>(2 * kWriters - 1));
}

// A coalesced batch whose union fails is replayed ticket by ticket: only
// the writes that conflict with the published prefix are rejected.
TEST(ServeTenantTest, FailedBatchReplaysIndividually) {
  std::shared_ptr<Tenant> tenant = MustCreate(kKeyed);
  tenant->PauseWrites();

  // E(k,v1) and E(k,v2) are each fine alone but clash through the key
  // egd; E(other,w) is compatible with either.
  std::vector<std::string> writes = {"E(k,v1).", "E(k,v2).", "E(other,w)."};
  std::atomic<int> ok_count{0}, rejected{0};
  std::vector<std::thread> writers;
  for (const std::string& facts : writes) {
    writers.emplace_back([&, facts] {
      auto result = tenant->Write(facts, Soon());
      if (result.ok()) {
        ok_count.fetch_add(1);
      } else if (result.status().code() == StatusCode::kFailedPrecondition) {
        rejected.fetch_add(1);
      }
    });
  }
  auto give_up = steady_clock::now() + std::chrono::seconds(30);
  while (tenant->Stats().queue_depth < writes.size() &&
         steady_clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(tenant->Stats().queue_depth, writes.size());
  tenant->ResumeWrites();
  for (std::thread& t : writers) t.join();

  // Exactly one of the clashing pair survives, plus the innocent one.
  EXPECT_EQ(ok_count.load(), 2);
  EXPECT_EQ(rejected.load(), 1);
  auto contains = tenant->Contains("H(other,w).");
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(contains->contains) << "the compatible write must land";
}

// --- Retraction ----------------------------------------------------------

TEST(ServeTenantTest, RetractRemovesFactAndItsConsequences) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  ASSERT_TRUE(tenant->Write("E(a,b). E(b,c).", Soon()).ok());
  ASSERT_TRUE(tenant->Contains("H(a,c).")->contains);

  auto retracted = tenant->Retract("E(b,c).", Soon());
  ASSERT_TRUE(retracted.ok()) << retracted.status().ToString();
  EXPECT_EQ(retracted->generation, 2u);
  EXPECT_FALSE(tenant->Contains("E(b,c).")->contains);
  EXPECT_FALSE(tenant->Contains("H(a,c).")->contains)
      << "the derived consequence must go with its only justification";
  EXPECT_TRUE(tenant->Contains("E(a,b).")->contains);

  // Retracting a derived fact is a no-op: consequences are not inputs.
  ASSERT_TRUE(tenant->Write("E(b,c).", Soon()).ok());
  ASSERT_TRUE(tenant->Contains("H(a,c).")->contains);
  ASSERT_TRUE(tenant->Retract("H(a,c).", Soon()).ok());
  EXPECT_TRUE(tenant->Contains("H(a,c).")->contains);

  // So is retracting something never admitted.
  ASSERT_TRUE(tenant->Retract("E(z,z).", Soon()).ok());
  EXPECT_TRUE(tenant->Contains("E(a,b).")->contains);
}

// Retraction re-answers exists incrementally: breaking the triangle flips
// the verdict to false, restoring it flips it back (and the generic
// solver's cached witness revalidates instead of re-searching).
TEST(ServeTenantTest, RetractFlipsExistsVerdict) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  ASSERT_TRUE(tenant->Write("E(a,b). E(b,c). E(a,c).", Soon()).ok());
  auto exists = tenant->Exists("generic");
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_TRUE(exists->exists);

  ASSERT_TRUE(tenant->Retract("E(a,c).", Soon()).ok());
  exists = tenant->Exists("generic");
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_FALSE(exists->exists)
      << "the open path's forced H(a,c) has no Σts justification left";

  ASSERT_TRUE(tenant->Write("E(a,c).", Soon()).ok());
  exists = tenant->Exists("generic");
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_TRUE(exists->exists);
}

// A mixed paused burst — writes and retracts — coalesces into ONE ±Δ
// chase round, applying all deletes before all adds: a retract and a
// re-write of the same fact in one batch leave the fact present.
TEST(ServeTenantTest, MixedWriteRetractBurstCoalescesDeletesFirst) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  ServeMetrics& metrics = GlobalServeMetrics();
  ASSERT_TRUE(tenant->Write("E(a,b). E(b,c).", Soon()).ok());

  tenant->PauseWrites();
  int64_t batches_before = metrics.batches_total.Value();
  int64_t retracts_before = metrics.retract_requests_total.Value();

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  workers.emplace_back([&] {
    if (!tenant->Retract("E(b,c).", Soon()).ok()) failures.fetch_add(1);
  });
  workers.emplace_back([&] {
    if (!tenant->Retract("E(a,b).", Soon()).ok()) failures.fetch_add(1);
  });
  workers.emplace_back([&] {
    if (!tenant->Write("E(a,b). E(x,y).", Soon()).ok()) failures.fetch_add(1);
  });
  auto give_up = steady_clock::now() + std::chrono::seconds(30);
  while (tenant->Stats().queue_depth < 3 && steady_clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(tenant->Stats().queue_depth, 3u);
  tenant->ResumeWrites();
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(metrics.batches_total.Value() - batches_before, 1)
      << "the mixed burst must cost exactly one ±Δ round";
  EXPECT_EQ(metrics.retract_requests_total.Value() - retracts_before, 2);
  EXPECT_EQ(tenant->Snapshot()->seq(), 2u);
  // Deleted and not re-added: gone. Deleted and re-added in the same
  // batch: present (deletes-before-adds).
  EXPECT_FALSE(tenant->Contains("E(b,c).")->contains);
  EXPECT_TRUE(tenant->Contains("E(a,b).")->contains);
  EXPECT_TRUE(tenant->Contains("E(x,y).")->contains);
}

// Per-ticket replay when a retraction decides satisfiability: the union
// batch {retract E(k,v1), write E(k,v2), write E(k,v3)} clashes on the
// key egd, so the writer replays in admission order — the retract frees
// the key, the first write claims it, the second is rejected.
TEST(ServeTenantTest, RetractionDecidesEgdBatchReplay) {
  std::shared_ptr<Tenant> tenant = MustCreate(kKeyed);
  ServeMetrics& metrics = GlobalServeMetrics();
  ASSERT_TRUE(tenant->Write("E(k,v1).", Soon()).ok());

  tenant->PauseWrites();
  int64_t retries_before = metrics.batch_retries_total.Value();
  std::atomic<int> ok_count{0}, rejected{0};
  std::vector<std::thread> workers;
  auto submit = [&](const std::string& facts, bool retract) {
    workers.emplace_back([&, facts, retract] {
      auto result = retract ? tenant->Retract(facts, Soon())
                            : tenant->Write(facts, Soon());
      if (result.ok()) {
        ok_count.fetch_add(1);
      } else if (result.status().code() == StatusCode::kFailedPrecondition) {
        rejected.fetch_add(1);
      }
    });
    // Admission is FIFO: wait for this ticket before submitting the next
    // so the replay order is deterministic.
    auto give_up = steady_clock::now() + std::chrono::seconds(30);
    size_t want = workers.size();
    while (tenant->Stats().queue_depth < want &&
           steady_clock::now() < give_up) {
      std::this_thread::sleep_for(milliseconds(1));
    }
  };
  submit("E(k,v1).", /*retract=*/true);
  submit("E(k,v2).", /*retract=*/false);
  submit("E(k,v3).", /*retract=*/false);
  ASSERT_EQ(tenant->Stats().queue_depth, 3u);
  tenant->ResumeWrites();
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(ok_count.load(), 2) << "the retract and exactly one write land";
  EXPECT_EQ(rejected.load(), 1);
  EXPECT_EQ(metrics.batch_retries_total.Value() - retries_before, 3);
  EXPECT_FALSE(tenant->Contains("H(k,v1).")->contains);
  EXPECT_TRUE(tenant->Contains("H(k,v2).")->contains);
  EXPECT_FALSE(tenant->Contains("H(k,v3).")->contains);
}

// Snapshot isolation under retraction: a pinned generation keeps its
// facts and fingerprint while later generations retract them, and
// re-admitting the fact restores the exact pre-retraction fingerprint
// (this setting's chase invents no nulls).
TEST(ServeTenantTest, PinnedGenerationImmuneToRetraction) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  ASSERT_TRUE(tenant->Write("E(a,b). E(b,c). E(a,c).", Soon()).ok());
  std::shared_ptr<const Generation> pinned = tenant->Snapshot();
  const uint64_t fp1 = pinned->Fingerprint();

  ASSERT_TRUE(tenant->Retract("E(a,c).", Soon()).ok());
  std::shared_ptr<const Generation> after = tenant->Snapshot();
  EXPECT_NE(after->Fingerprint(), fp1);
  EXPECT_EQ(after->base().fact_count(), 2u);

  // The pinned reader still sees the pre-retraction state.
  EXPECT_EQ(pinned->seq(), 1u);
  EXPECT_EQ(pinned->Fingerprint(), fp1);
  EXPECT_EQ(pinned->base().fact_count(), 3u);

  // Re-admitting restores the fingerprint bit-for-bit.
  ASSERT_TRUE(tenant->Write("E(a,c).", Soon()).ok());
  EXPECT_EQ(tenant->Snapshot()->Fingerprint(), fp1);
}

TEST(ServeTenantTest, WriteDeadlineExceededWhileWriterFrozen) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  tenant->PauseWrites();
  auto result = tenant->Write("E(a,b).", steady_clock::now() + milliseconds(50));
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The write was admitted, so it still publishes after the thaw.
  tenant->ResumeWrites();
  auto give_up = steady_clock::now() + std::chrono::seconds(30);
  while (tenant->Snapshot()->seq() < 1 && steady_clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(tenant->Snapshot()->seq(), 1u);
}

TEST(ServeTenantTest, ShutdownRefusesNewWritesDrainsAdmitted) {
  std::shared_ptr<Tenant> tenant = MustCreate(kExample1);
  ASSERT_TRUE(tenant->Write("E(a,b).", Soon()).ok());
  tenant->Shutdown();
  auto late = tenant->Write("E(b,c).", Soon());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  // Reads still serve off the last published generation.
  EXPECT_EQ(tenant->Snapshot()->seq(), 1u);
}

// --- Protocol handler (no socket) ----------------------------------------

std::string ErrorCode(const JsonValue& response) {
  const JsonValue* error = response.Find("error");
  return error != nullptr ? error->GetString("code") : "";
}

JsonValue Handle(ProtocolHandler& handler, const std::string& line) {
  bool shutdown_requested = false;
  auto parsed = ParseJson(handler.HandleLine(line, &shutdown_requested));
  EXPECT_TRUE(parsed.ok()) << "responses must always be valid JSON";
  return parsed.ok() ? *std::move(parsed) : JsonValue::Null();
}

TEST(ServeProtocolTest, MalformedAndUnknownRequests) {
  TenantRegistry registry;
  ProtocolHandler handler(&registry, ProtocolOptions());

  JsonValue bad = Handle(handler, "{nonsense");
  EXPECT_FALSE(bad.GetBool("ok"));
  EXPECT_EQ(ErrorCode(bad), "INVALID_ARGUMENT");
  EXPECT_TRUE(bad.Find("id")->is_null());

  JsonValue not_object = Handle(handler, "[1,2,3]");
  EXPECT_FALSE(not_object.GetBool("ok"));

  JsonValue no_verb = Handle(handler, R"({"id": 42})");
  EXPECT_FALSE(no_verb.GetBool("ok"));
  EXPECT_EQ(no_verb.GetInt("id"), 42) << "id echoes even on errors";

  JsonValue unknown = Handle(handler, R"({"id": 1, "verb": "frobnicate"})");
  EXPECT_FALSE(unknown.GetBool("ok"));
  EXPECT_EQ(ErrorCode(unknown), "INVALID_ARGUMENT");

  JsonValue no_tenant = Handle(handler, R"({"id": 2, "verb": "exists"})");
  EXPECT_FALSE(no_tenant.GetBool("ok"));

  JsonValue missing = Handle(
      handler,
      R"({"id": 3, "verb": "exists", "tenant": "deadbeefdeadbeef"})");
  EXPECT_FALSE(missing.GetBool("ok"));
  EXPECT_EQ(ErrorCode(missing), "NOT_FOUND");
}

TEST(ServeProtocolTest, LoadWriteReadLifecycle) {
  TenantRegistry registry;
  ProtocolHandler handler(&registry, ProtocolOptions());

  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(1));
  request.Set("verb", JsonValue::String("load"));
  request.Set("setting", JsonValue::String(kExample1));
  // The closed triangle: the only instance here with a solution.
  request.Set("facts", JsonValue::String("E(a,b). E(b,c). E(a,c)."));
  JsonValue loaded = Handle(handler, request.Dump());
  ASSERT_TRUE(loaded.GetBool("ok")) << loaded.Dump();
  std::string tenant = loaded.GetString("tenant");
  ASSERT_FALSE(tenant.empty());
  EXPECT_EQ(loaded.GetInt("generation"), 1);
  std::string fingerprint = loaded.GetString("fingerprint");
  EXPECT_EQ(fingerprint.size(), 16u);

  JsonValue exists = Handle(
      handler, R"({"id": 2, "verb": "exists", "tenant": ")" + tenant + "\"}");
  ASSERT_TRUE(exists.GetBool("ok")) << exists.Dump();
  EXPECT_TRUE(exists.GetBool("exists"));
  EXPECT_EQ(exists.GetString("fingerprint"), fingerprint)
      << "read pinned the generation the load published";

  JsonValue certain = Handle(handler,
                             R"({"id": 3, "verb": "certain", "tenant": ")" +
                                 tenant +
                                 R"(", "query": "q(x,y) :- H(x,y)."})");
  ASSERT_TRUE(certain.GetBool("ok")) << certain.Dump();
  EXPECT_EQ(certain.Find("answers")->items().size(), 1u);

  JsonValue written = Handle(
      handler, R"({"id": 4, "verb": "write", "tenant": ")" + tenant +
                   R"(", "facts": "E(c,d)."})");
  ASSERT_TRUE(written.GetBool("ok")) << written.Dump();
  EXPECT_EQ(written.GetInt("generation"), 2);
  EXPECT_NE(written.GetString("fingerprint"), fingerprint);

  JsonValue stats = Handle(handler, R"({"id": 5, "verb": "stats"})");
  ASSERT_TRUE(stats.GetBool("ok"));
  ASSERT_EQ(stats.Find("tenants")->items().size(), 1u);
  EXPECT_EQ(stats.Find("tenants")->items()[0].GetString("tenant"), tenant);

  JsonValue evicted = Handle(
      handler, R"({"id": 6, "verb": "evict", "tenant": ")" + tenant + "\"}");
  ASSERT_TRUE(evicted.GetBool("ok"));
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ServeProtocolTest, RetractVerbRoundTrip) {
  TenantRegistry registry;
  ProtocolHandler handler(&registry, ProtocolOptions());

  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(1));
  request.Set("verb", JsonValue::String("load"));
  request.Set("setting", JsonValue::String(kExample1));
  request.Set("facts", JsonValue::String("E(a,b). E(b,c)."));
  JsonValue loaded = Handle(handler, request.Dump());
  ASSERT_TRUE(loaded.GetBool("ok")) << loaded.Dump();
  std::string tenant = loaded.GetString("tenant");
  std::string fingerprint = loaded.GetString("fingerprint");

  JsonValue retracted = Handle(
      handler, R"({"id": 2, "verb": "retract", "tenant": ")" + tenant +
                   R"(", "facts": "E(b,c)."})");
  ASSERT_TRUE(retracted.GetBool("ok")) << retracted.Dump();
  EXPECT_EQ(retracted.GetInt("generation"), 2);
  EXPECT_NE(retracted.GetString("fingerprint"), fingerprint);

  JsonValue contains = Handle(
      handler, R"({"id": 3, "verb": "contains", "tenant": ")" + tenant +
                   R"(", "facts": "H(a,c)."})");
  ASSERT_TRUE(contains.GetBool("ok")) << contains.Dump();
  EXPECT_FALSE(contains.GetBool("contains"))
      << "the retraction's consequences must be invisible to readers";

  JsonValue missing_facts = Handle(
      handler,
      R"({"id": 4, "verb": "retract", "tenant": ")" + tenant + "\"}");
  EXPECT_FALSE(missing_facts.GetBool("ok"));
  EXPECT_EQ(ErrorCode(missing_facts), "INVALID_ARGUMENT");
}

TEST(ServeProtocolTest, ExpiredDeadlineRejectedOnArrival) {
  TenantRegistry registry;
  auto tenant = registry.Load(kExample1);
  ASSERT_TRUE(tenant.ok());
  ProtocolHandler handler(&registry, ProtocolOptions());
  // A 1 ms deadline spent entirely in a paused writer's queue.
  (*tenant)->PauseWrites();
  JsonValue late = Handle(handler,
                          R"({"id": 1, "verb": "write", "tenant": ")" +
                              (*tenant)->id() +
                              R"(", "facts": "E(a,b).", "deadline_ms": 1})");
  EXPECT_FALSE(late.GetBool("ok"));
  EXPECT_EQ(ErrorCode(late), "DEADLINE_EXCEEDED");
  (*tenant)->ResumeWrites();
}

TEST(ServeProtocolTest, ShutdownVerbSetsFlagAfterResponse) {
  TenantRegistry registry;
  ProtocolHandler handler(&registry, ProtocolOptions());
  bool shutdown_requested = false;
  auto response =
      ParseJson(handler.HandleLine(R"({"verb": "shutdown"})",
                                   &shutdown_requested));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->GetBool("ok"));
  EXPECT_TRUE(response->GetBool("draining"));
  EXPECT_TRUE(shutdown_requested);
}

// --- Full socket round trip ----------------------------------------------

class ServeSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ =
        "/tmp/pdx_serve_test_" + std::to_string(::getpid()) + ".sock";
    metrics_path_ =
        "/tmp/pdx_serve_test_metrics_" + std::to_string(::getpid()) + ".sock";
    ServerOptions options;
    options.address = "unix:" + socket_path_;
    options.metrics_address = "unix:" + metrics_path_;
    options.worker_threads = 4;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  std::string socket_path_;
  std::string metrics_path_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeSocketTest, EndToEndRequestMixAndMetrics) {
  auto client = Client::Connect(server_->address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto pong = client->CallRaw(R"({"id": 1, "verb": "ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->GetBool("ok"));
  EXPECT_TRUE(pong->GetBool("pong"));
  EXPECT_EQ(pong->GetInt("id"), 1);

  JsonValue load = JsonValue::Object();
  load.Set("id", JsonValue::Int(2));
  load.Set("verb", JsonValue::String("load"));
  load.Set("setting", JsonValue::String(kExample1));
  load.Set("facts", JsonValue::String("E(a,b). E(b,c)."));
  auto loaded = client->Call(load);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->GetBool("ok")) << loaded->Dump();
  std::string tenant = loaded->GetString("tenant");

  auto contains = client->CallRaw(
      R"({"id": 3, "verb": "contains", "tenant": ")" + tenant +
      R"(", "facts": "H(a,c)."})");
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(contains->GetBool("contains"));

  // Malformed line over the wire: an error response, connection stays up.
  auto garbage = client->CallRaw("this is not json");
  ASSERT_TRUE(garbage.ok());
  EXPECT_FALSE(garbage->GetBool("ok"));
  auto after = client->CallRaw(R"({"id": 4, "verb": "ping"})");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->GetBool("ok")) << "connection must survive bad input";

  // Scrape /metrics: Prometheus 0.0.4 text with the serve families.
  auto body = HttpGet("unix:" + metrics_path_, "/metrics");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body->find("# TYPE pdx_serve_requests_total counter"),
            std::string::npos)
      << body->substr(0, 500);
  EXPECT_NE(body->find("pdx_serve_write_requests_total"), std::string::npos);
  EXPECT_NE(body->find("pdx_serve_batches_total"), std::string::npos);
  EXPECT_NE(body->find("pdx_serve_latency_micros_write_bucket"),
            std::string::npos);
  EXPECT_NE(body->find("le=\"+Inf\""), std::string::npos);
}

TEST_F(ServeSocketTest, ConcurrentClientsSeeConsistentGenerations) {
  auto setup = Client::Connect(server_->address());
  ASSERT_TRUE(setup.ok());
  JsonValue load = JsonValue::Object();
  load.Set("verb", JsonValue::String("load"));
  load.Set("setting", JsonValue::String(kExample1));
  auto loaded = setup->Call(load);
  ASSERT_TRUE(loaded.ok() && loaded->GetBool("ok"));
  std::string tenant = loaded->GetString("tenant");

  constexpr int kClients = 4;
  constexpr int kRounds = 16;
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = Client::Connect(server_->address());
      if (!conn.ok()) {
        errors.fetch_add(kRounds);
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        std::string suffix = std::to_string(c) + "_" + std::to_string(i);
        auto written = conn->CallRaw("{\"verb\":\"write\",\"tenant\":\"" +
                                     tenant + "\",\"facts\":\"E(u" + suffix +
                                     ", v" + suffix + ").\"}");
        if (!written.ok() || !written->GetBool("ok")) errors.fetch_add(1);
        auto exists = conn->CallRaw(
            R"({"verb": "exists", "tenant": ")" + tenant + "\"}");
        if (!exists.ok() || !exists->GetBool("ok")) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0);

  auto stats = setup->CallRaw(R"({"verb": "stats", "tenant": ")" + tenant +
                              "\"}");
  ASSERT_TRUE(stats.ok() && stats->GetBool("ok")) << stats->Dump();
  const JsonValue& entry = stats->Find("tenants")->items()[0];
  EXPECT_EQ(entry.GetInt("base_facts"), kClients * kRounds);
  EXPECT_EQ(entry.GetInt("queue_depth"), 0);
}

TEST_F(ServeSocketTest, ShutdownVerbDrainsGracefully) {
  auto client = Client::Connect(server_->address());
  ASSERT_TRUE(client.ok());
  auto response = client->CallRaw(R"({"id": 9, "verb": "shutdown"})");
  ASSERT_TRUE(response.ok()) << "the response must be sent before draining";
  EXPECT_TRUE(response->GetBool("draining"));
  EXPECT_TRUE(server_->WaitForShutdownRequest(milliseconds(5000)));
  server_->Shutdown();
  // The socket is gone: new connections are refused.
  EXPECT_FALSE(Client::Connect(server_->address()).ok());
  server_ = nullptr;
}

}  // namespace
}  // namespace serve
}  // namespace pdx
