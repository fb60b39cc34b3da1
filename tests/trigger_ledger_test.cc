// Concurrent admission stress for ConcurrentFingerprintSet, the set
// behind the oblivious chase's trigger ledger (pool workers filter against
// it during the collect): when every thread races to admit the same
// fingerprints, each fingerprint must be won by exactly one caller (no
// duplicate firings) and every fingerprint must end up admitted (no lost
// triggers), across generations of retire-and-readmit the egd fixpoint
// drives. Carries the `parallel`
// ctest label; tools/check.sh additionally runs it under TSan.

#include <atomic>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "base/concurrent_set.h"
#include "base/thread_pool.h"
#include "chase/journal.h"
#include "chase/trigger_ledger.h"
#include "relational/value.h"

namespace pdx {
namespace {

// Well-spread but deterministic fingerprints: consecutive ints hash to
// the same stripe pattern every run.
uint64_t Fp(uint64_t i) { return i * 0x9e3779b97f4a7c15ull + 1; }

TEST(ConcurrentFingerprintSetTest, SingleThreadBasics) {
  ConcurrentFingerprintSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.Insert(Fp(1)));
  EXPECT_FALSE(set.Insert(Fp(1)));  // duplicate: not admitted twice
  EXPECT_TRUE(set.Insert(Fp(2)));
  EXPECT_TRUE(set.Contains(Fp(1)));
  EXPECT_TRUE(set.Contains(Fp(2)));
  EXPECT_FALSE(set.Contains(Fp(3)));
  EXPECT_EQ(set.size(), 2u);
  set.Erase(Fp(1));
  EXPECT_FALSE(set.Contains(Fp(1)));
  EXPECT_TRUE(set.Insert(Fp(1)));  // re-admit after retirement
  EXPECT_EQ(set.size(), 2u);
  set.Erase(Fp(999));  // erasing an absent fingerprint is a no-op
  EXPECT_EQ(set.size(), 2u);
}

// All threads race to insert the full fingerprint range: every
// fingerprint is admitted exactly once in total (one winner), and all are
// present afterwards. This is the oblivious chase's invariant — a trigger
// seen by several partitions fires once, and no trigger is dropped.
TEST(ConcurrentFingerprintSetTest, ConcurrentAdmissionIsExactlyOnce) {
  constexpr size_t kFps = 20'000;
  constexpr size_t kThreads = 8;
  ConcurrentFingerprintSet set;
  std::atomic<uint64_t> wins{0};
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&](size_t) {
    uint64_t local_wins = 0;
    for (size_t f = 0; f < kFps; ++f) {
      if (set.Insert(Fp(f))) ++local_wins;
    }
    wins.fetch_add(local_wins, std::memory_order_relaxed);
  });
  EXPECT_EQ(wins.load(), kFps);
  EXPECT_EQ(set.size(), kFps);
  for (size_t f = 0; f < kFps; ++f) {
    ASSERT_TRUE(set.Contains(Fp(f))) << "fingerprint " << f << " lost";
  }
}

// Generations: admit everything, retire a subset sequentially (as the
// apply phase does after egd merges), then race to re-admit the retired
// subset. Only retired fingerprints are re-admitted, each exactly once.
TEST(ConcurrentFingerprintSetTest, RetireAndReadmitAcrossGenerations) {
  constexpr size_t kFps = 8'192;
  constexpr size_t kThreads = 8;
  ConcurrentFingerprintSet set;
  ThreadPool pool(kThreads);
  for (size_t f = 0; f < kFps; ++f) ASSERT_TRUE(set.Insert(Fp(f)));

  for (int generation = 0; generation < 4; ++generation) {
    // Retire every 3rd fingerprint, offset per generation (sequential:
    // retirement happens in the apply phase, between collect rounds).
    std::vector<uint64_t> retired;
    for (size_t f = generation; f < kFps; f += 3) {
      set.Erase(Fp(f));
      retired.push_back(Fp(f));
    }
    std::atomic<uint64_t> wins{0};
    pool.ParallelFor(kThreads, [&](size_t) {
      uint64_t local_wins = 0;
      for (size_t f = 0; f < kFps; ++f) {
        if (set.Insert(Fp(f))) ++local_wins;  // losers were never erased
      }
      wins.fetch_add(local_wins, std::memory_order_relaxed);
    });
    EXPECT_EQ(wins.load(), retired.size()) << "generation " << generation;
    EXPECT_EQ(set.size(), kFps) << "generation " << generation;
  }
}

// Mixed concurrent load on disjoint key ranges: writers insert their own
// range while readers probe another; per-range exactly-once still holds
// and probes of fully-inserted ranges always hit.
TEST(ConcurrentFingerprintSetTest, MixedInsertAndContains) {
  constexpr size_t kPerThread = 4'096;
  constexpr size_t kThreads = 8;
  ConcurrentFingerprintSet set;
  // Pre-populate thread 0's range so readers have a stable target.
  for (size_t f = 0; f < kPerThread; ++f) ASSERT_TRUE(set.Insert(Fp(f)));
  std::atomic<uint64_t> misses{0};
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&](size_t t) {
    if (t % 2 == 0) {
      // Readers: the pre-populated range must always be present.
      uint64_t local_misses = 0;
      for (size_t f = 0; f < kPerThread; ++f) {
        if (!set.Contains(Fp(f))) ++local_misses;
      }
      misses.fetch_add(local_misses, std::memory_order_relaxed);
    } else {
      // Writers: disjoint private ranges, every insert must win.
      for (size_t f = 0; f < kPerThread; ++f) {
        uint64_t fp = Fp((t + 1) * 1'000'000 + f);
        ASSERT_TRUE(set.Insert(fp));
      }
    }
  });
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(set.size(), kPerThread * (1 + kThreads / 2));
}

// Deletion propagation's ledger contract, at the TriggerLedger level:
// Retire(fp) makes a single fired trigger re-admittable, and a subsequent
// admission race is again won exactly once. This is the delete→re-insert
// cycle StreamingChase drives (kill the journal entry, retire its
// fingerprint, re-fire when the body match re-forms).
TEST(TriggerLedgerTest, RetireSingleFingerprintReadmitsExactlyOnce) {
  constexpr size_t kFps = 4'096;
  constexpr size_t kThreads = 8;
  TriggerLedger ledger;
  ThreadPool pool(kThreads);
  for (size_t f = 0; f < kFps; ++f) ASSERT_TRUE(ledger.Admit(Fp(f)));

  for (int cycle = 0; cycle < 3; ++cycle) {
    // Sequential retirement (the apply phase kills journal entries).
    size_t retired = 0;
    for (size_t f = cycle; f < kFps; f += 4) {
      ASSERT_TRUE(ledger.Retire(Fp(f)));
      EXPECT_FALSE(ledger.Retire(Fp(f)));  // double-retire is refused
      ++retired;
    }
    // Concurrent re-admission from several threads at once.
    std::atomic<uint64_t> wins{0};
    pool.ParallelFor(kThreads, [&](size_t) {
      uint64_t local_wins = 0;
      for (size_t f = 0; f < kFps; ++f) {
        if (ledger.Admit(Fp(f))) ++local_wins;
      }
      wins.fetch_add(local_wins, std::memory_order_relaxed);
    });
    EXPECT_EQ(wins.load(), retired) << "cycle " << cycle;
    EXPECT_EQ(ledger.size(), kFps) << "cycle " << cycle;
  }
}

// The journal embeds the ledger: killing an entry retires its fingerprint
// so the same universal binding records exactly once more — with fresh
// existential nulls, which must not perturb the fingerprint.
TEST(ChaseJournalTest, KillThenRerecordIsExactlyOnce) {
  SymbolTable symbols;
  Value a = symbols.InternConstant("a");
  Value b = symbols.InternConstant("b");
  const std::vector<bool> existential = {false, false, true};

  ChaseJournal journal;
  Value row[3] = {a, b, symbols.FreshNull()};
  ASSERT_TRUE(journal.RecordTgd(0, row, 3, existential));
  EXPECT_EQ(journal.live_count(), 1u);

  // Same universal binding, different invented null: still a duplicate
  // while the entry is alive.
  row[2] = symbols.FreshNull();
  EXPECT_FALSE(journal.RecordTgd(0, row, 3, existential));
  EXPECT_EQ(journal.size(), 1u);

  // Kill retires the fingerprint; the re-derived firing is admitted once.
  ASSERT_TRUE(journal.Kill(0));
  EXPECT_FALSE(journal.Kill(0));  // already dead
  EXPECT_EQ(journal.live_count(), 0u);
  row[2] = symbols.FreshNull();
  EXPECT_TRUE(journal.RecordTgd(0, row, 3, existential));
  EXPECT_FALSE(journal.RecordTgd(0, row, 3, existential));
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.live_count(), 1u);

  // A different dependency index is a different trigger; an egd under the
  // same index and row lives in its own fingerprint namespace.
  EXPECT_TRUE(journal.RecordTgd(1, row, 3, existential));
  EXPECT_TRUE(journal.RecordEgd(0, row, 3));
  EXPECT_EQ(journal.live_count(), 3u);
}

// Rollback primitives restore the exactly-once discipline byte-for-byte:
// Revive re-claims a killed fingerprint, TruncateTo retires dropped live
// ones.
TEST(ChaseJournalTest, ReviveAndTruncateRestoreLedgerState) {
  SymbolTable symbols;
  Value a = symbols.InternConstant("a");
  Value b = symbols.InternConstant("b");
  const std::vector<bool> no_existential = {false, false};

  ChaseJournal journal;
  Value row0[2] = {a, b};
  Value row1[2] = {b, a};
  ASSERT_TRUE(journal.RecordTgd(0, row0, 2, no_existential));
  ASSERT_TRUE(journal.RecordTgd(0, row1, 2, no_existential));

  // Kill + Revive (a failed batch undoing its cascade): the fingerprint
  // is claimed again, so re-recording is refused.
  ASSERT_TRUE(journal.Kill(0));
  journal.Revive(0);
  EXPECT_EQ(journal.live_count(), 2u);
  EXPECT_FALSE(journal.RecordTgd(0, row0, 2, no_existential));

  // TruncateTo (a failed batch dropping its own recordings): the dropped
  // live fingerprint is retired, so the trigger can record again.
  journal.TruncateTo(1);
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_TRUE(journal.RecordTgd(0, row1, 2, no_existential));

  // Swap moves the whole state (the fallback re-chase commit path).
  ChaseJournal scratch;
  journal.Swap(scratch);
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(scratch.size(), 2u);
  EXPECT_TRUE(journal.RecordTgd(0, row0, 2, no_existential));
  EXPECT_FALSE(scratch.RecordTgd(0, row1, 2, no_existential));
}

}  // namespace
}  // namespace pdx
