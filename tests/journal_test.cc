// The firing journal's exactly-once discipline (chase/journal.h): a live
// fingerprint refuses a second recording, and killing, reviving,
// truncating, swapping and clearing keep the fingerprint set in step with
// the live entries.

#include <vector>

#include "gtest/gtest.h"
#include "chase/journal.h"
#include "relational/value.h"

namespace pdx {
namespace {

// Killing a journal entry retires its fingerprint, so the same universal
// binding records exactly once more — with fresh existential nulls, which
// must not perturb the fingerprint.
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
// ones, Swap exchanges whole states and Clear starts afresh.
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

  // Clear drops every entry and fingerprint (StreamingChase re-initializing):
  // a previously live fingerprint records again.
  scratch.Clear();
  EXPECT_EQ(scratch.size(), 0u);
  EXPECT_EQ(scratch.live_count(), 0u);
  EXPECT_TRUE(scratch.RecordTgd(0, row1, 2, no_existential));
  EXPECT_EQ(scratch.live_count(), 1u);
}

}  // namespace
}  // namespace pdx
