#include "relational/value.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "workload/random.h"

namespace pdx {
namespace {

TEST(ValueTest, ConstantsAndNullsAreDistinctSpaces) {
  Value c = Value::Constant(5);
  Value n = Value::Null(5);
  EXPECT_TRUE(c.is_constant());
  EXPECT_FALSE(c.is_null());
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(c.id(), 5u);
  EXPECT_EQ(n.id(), 5u);
  EXPECT_NE(c, n);
  EXPECT_NE(c.packed(), n.packed());
}

TEST(ValueTest, PackedRoundTrips) {
  Value n = Value::Null(123456);
  EXPECT_EQ(Value::FromPacked(n.packed()), n);
  Value c = Value::Constant(987654);
  EXPECT_EQ(Value::FromPacked(c.packed()), c);
}

TEST(ValueTest, HashSeparatesKinds) {
  std::unordered_set<uint64_t> hashes;
  ValueHash hash;
  for (uint32_t i = 0; i < 100; ++i) {
    hashes.insert(hash(Value::Constant(i)));
    hashes.insert(hash(Value::Null(i)));
  }
  // All 200 values should hash distinctly (splitmix is injective on u64).
  EXPECT_EQ(hashes.size(), 200u);
}

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable symbols;
  Value a1 = symbols.InternConstant("alpha");
  Value a2 = symbols.InternConstant("alpha");
  Value b = symbols.InternConstant("beta");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(symbols.constant_count(), 2u);
}

TEST(SymbolTableTest, LookupDoesNotIntern) {
  SymbolTable symbols;
  bool found = true;
  symbols.LookupConstant("ghost", &found);
  EXPECT_FALSE(found);
  EXPECT_EQ(symbols.constant_count(), 0u);
  Value v = symbols.InternConstant("ghost");
  Value looked_up = symbols.LookupConstant("ghost", &found);
  EXPECT_TRUE(found);
  EXPECT_EQ(v, looked_up);
}

TEST(SymbolTableTest, LooksUpNonTerminatedSlices) {
  // Lookups take a string_view: a slice in the middle of a larger buffer
  // (not NUL-terminated at its end) must hit the interned id, and
  // re-interning it must not add a constant.
  SymbolTable symbols;
  Value alpha = symbols.InternConstant("alpha");
  Value beta = symbols.InternConstant("beta");
  const std::string_view buffer = "R(alpha,beta).";
  const std::string_view first = buffer.substr(2, 5);
  const std::string_view second = buffer.substr(8, 4);
  ASSERT_EQ(first, "alpha");
  ASSERT_EQ(second, "beta");
  bool found = false;
  EXPECT_EQ(symbols.LookupConstant(first, &found), alpha);
  EXPECT_TRUE(found);
  EXPECT_EQ(symbols.LookupConstant(second, &found), beta);
  EXPECT_TRUE(found);
  EXPECT_EQ(symbols.InternConstant(first), alpha);
  EXPECT_EQ(symbols.InternConstant(second), beta);
  EXPECT_EQ(symbols.constant_count(), 2u);
  // A prefix of an interned spelling is a different constant.
  symbols.LookupConstant(buffer.substr(2, 4), &found);
  EXPECT_FALSE(found);
}

TEST(SymbolTableTest, FreshNullsAreDistinct) {
  SymbolTable symbols;
  Value n1 = symbols.FreshNull();
  Value n2 = symbols.FreshNull();
  EXPECT_NE(n1, n2);
  EXPECT_TRUE(n1.is_null());
  EXPECT_EQ(symbols.null_count(), 2u);
}

TEST(SymbolTableTest, ValueToString) {
  SymbolTable symbols;
  Value a = symbols.InternConstant("swissprot");
  Value n = symbols.FreshNull();
  EXPECT_EQ(symbols.ValueToString(a), "swissprot");
  EXPECT_EQ(symbols.ValueToString(n), "_N0");
}

// A random spelling: short ones over a tiny alphabet (many collide), long
// ones (several hash words plus a tail), the empty string, and
// shared-prefix families ("p7", "p7x", "p7xx", ...) whose members are
// each other's prefixes.
std::string RandomSpelling(Rng& rng) {
  const uint32_t kind = rng.UniformInt(10);
  std::string s;
  if (kind < 4) {
    for (uint32_t n = 1 + rng.UniformInt(3); n > 0; --n) {
      s.push_back(static_cast<char>('a' + rng.UniformInt(4)));
    }
  } else if (kind < 6) {
    for (uint32_t n = 9 + rng.UniformInt(60); n > 0; --n) {
      s.push_back(static_cast<char>('a' + rng.UniformInt(26)));
    }
  } else if (kind < 7) {
    // Left empty.
  } else {
    s = "p" + std::to_string(rng.UniformInt(4000));
    s.append(rng.UniformInt(12), 'x');
  }
  return s;
}

// 10^5 random interns and lookups against an unordered_map model, across
// many growths of the slot array (over 4,000 constants: at least nine
// doublings from 16 slots), then again after a move-construct and after a
// move-assign.
TEST(SymbolTableTest, RandomOpsMatchUnorderedMapModel) {
  Rng rng(7);
  std::unordered_map<std::string, uint32_t> ids;
  std::vector<std::string> names;
  SymbolTable symbols;
  auto check_all = [&](const SymbolTable& table) {
    ASSERT_EQ(table.constant_count(), names.size());
    for (uint32_t id = 0; id < names.size(); ++id) {
      ASSERT_EQ(table.ValueToString(Value::Constant(id)), names[id]);
    }
  };
  auto run = [&](SymbolTable& table, int ops) {
    for (int op = 0; op < ops; ++op) {
      const std::string name = RandomSpelling(rng);
      SCOPED_TRACE(testing::Message() << "op " << op << " name '" << name
                                      << "'");
      auto it = ids.find(name);
      if (rng.UniformInt(3) == 0) {
        bool found = false;
        const Value v = table.LookupConstant(name, &found);
        ASSERT_EQ(found, it != ids.end());
        if (found) {
          ASSERT_EQ(v, Value::Constant(it->second));
        }
        // A lookup never interns.
        ASSERT_EQ(table.constant_count(), names.size());
        continue;
      }
      const Value v = table.InternConstant(name);
      ASSERT_TRUE(v.is_constant());
      if (it == ids.end()) {
        // Dense ids in first-seen order.
        ASSERT_EQ(v.id(), names.size());
        ids.emplace(name, v.id());
        names.push_back(name);
      } else {
        ASSERT_EQ(v.id(), it->second);
      }
      ASSERT_EQ(table.constant_count(), names.size());
      ASSERT_EQ(table.ValueToString(v), name);
    }
  };
  run(symbols, 60000);
  check_all(symbols);
  ASSERT_GT(names.size(), 4000u);

  SymbolTable moved(std::move(symbols));
  check_all(moved);
  run(moved, 20000);
  check_all(moved);

  SymbolTable assigned;
  assigned.InternConstant("overwritten");
  assigned = std::move(moved);
  check_all(assigned);
  run(assigned, 20000);
  check_all(assigned);
}

// Null ids are 32-bit: once a table has handed out 2^32 - 1 of them, the
// next reservation must abort rather than wrap to id 0 and alias a live
// null.
TEST(SymbolTableDeathTest, NullIdExhaustionAborts) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.ReserveNullRange(UINT32_MAX), 0u);
  EXPECT_EQ(symbols.null_count(), UINT32_MAX);
  EXPECT_DEATH(symbols.FreshNull(), "SymbolTable@.*null id space exhausted");
}

}  // namespace
}  // namespace pdx
