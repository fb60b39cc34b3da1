#include "pde/setting.h"

#include <string>
#include <vector>

#include "base/string_util.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace pdx {
namespace {

using testing_util::MakeExample1Setting;
using testing_util::ParseOrDie;

TEST(SettingTest, CreateBuildsCombinedSchema) {
  SymbolTable symbols;
  PdeSetting setting = MakeExample1Setting(&symbols);
  EXPECT_EQ(setting.schema().relation_count(), 2);
  EXPECT_EQ(setting.source_relation_count(), 1);
  EXPECT_EQ(setting.target_relation_count(), 1);
  RelationId e = setting.schema().FindRelation("E").value();
  RelationId h = setting.schema().FindRelation("H").value();
  EXPECT_TRUE(setting.is_source(e));
  EXPECT_TRUE(setting.is_target(h));
  EXPECT_EQ(setting.st_tgds().size(), 1u);
  EXPECT_EQ(setting.ts_tgds().size(), 1u);
  EXPECT_FALSE(setting.HasTargetConstraints());
  EXPECT_FALSE(setting.IsDataExchange());
}

TEST(SettingTest, RejectsWrongSidedDependencies) {
  SymbolTable symbols;
  // Σ_st head over the source schema.
  EXPECT_FALSE(PdeSetting::Create({{"E", 2}}, {{"H", 2}},
                                  "E(x,y) -> E(y,x).", "", "", &symbols)
                   .ok());
  // Σ_ts body over the source schema.
  EXPECT_FALSE(PdeSetting::Create({{"E", 2}}, {{"H", 2}}, "",
                                  "E(x,y) -> E(y,x).", "", &symbols)
                   .ok());
  // Σ_t mentioning a source relation.
  EXPECT_FALSE(PdeSetting::Create({{"E", 2}}, {{"H", 2}}, "", "",
                                  "H(x,y) -> E(x,y).", &symbols)
                   .ok());
  // Egds are not allowed in Σ_st or Σ_ts.
  EXPECT_FALSE(PdeSetting::Create({{"E", 2}}, {{"H", 2}},
                                  "E(x,y) & E(x,z) -> y = z.", "", "",
                                  &symbols)
                   .ok());
}

TEST(SettingTest, RejectsOverlappingSchemas) {
  SymbolTable symbols;
  EXPECT_FALSE(
      PdeSetting::Create({{"E", 2}}, {{"E", 2}}, "", "", "", &symbols).ok());
}

TEST(SettingTest, DataExchangeDetection) {
  SymbolTable symbols;
  auto setting = PdeSetting::Create({{"E", 2}}, {{"H", 2}},
                                    "E(x,y) -> H(x,y).", "", "", &symbols);
  ASSERT_TRUE(setting.ok());
  EXPECT_TRUE(setting->IsDataExchange());
}

TEST(SettingTest, TargetWeakAcyclicityIsTracked) {
  SymbolTable symbols;
  auto acyclic = PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}, {"F", 2}}, "E(x,y) -> H(x,y).", "",
      "H(x,y) -> exists z: F(y,z).", &symbols);
  ASSERT_TRUE(acyclic.ok());
  EXPECT_TRUE(acyclic->TargetTgdsWeaklyAcyclic());

  SymbolTable symbols2;
  auto cyclic = PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}}, "E(x,y) -> H(x,y).", "",
      "H(x,y) -> exists z: H(y,z).", &symbols2);
  ASSERT_TRUE(cyclic.ok());
  EXPECT_FALSE(cyclic->TargetTgdsWeaklyAcyclic());
}

TEST(SettingTest, InstanceValidation) {
  SymbolTable symbols;
  PdeSetting setting = MakeExample1Setting(&symbols);
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  Instance target = ParseOrDie(setting, "H(a,b).", &symbols);
  EXPECT_TRUE(setting.ValidateSourceInstance(source).ok());
  EXPECT_FALSE(setting.ValidateSourceInstance(target).ok());
  EXPECT_TRUE(setting.ValidateTargetInstance(target).ok());
  EXPECT_FALSE(setting.ValidateTargetInstance(source).ok());
  // Source instances must be ground.
  Instance with_null = ParseOrDie(setting, "E(a,_n).", &symbols);
  EXPECT_FALSE(setting.ValidateSourceInstance(with_null).ok());
  EXPECT_TRUE(setting.ValidateTargetInstance(
      ParseOrDie(setting, "H(a,_n).", &symbols)).ok());
}

TEST(SettingTest, CombineAndProject) {
  SymbolTable symbols;
  PdeSetting setting = MakeExample1Setting(&symbols);
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  Instance target = ParseOrDie(setting, "H(b,c).", &symbols);
  Instance combined = setting.CombineInstances(source, target);
  EXPECT_EQ(combined.fact_count(), 2u);
  EXPECT_TRUE(setting.SourcePart(combined).FactsEqual(source));
  EXPECT_TRUE(setting.TargetPart(combined).FactsEqual(target));
}

// The projections share the kept relations' copy-on-write stores: O(1)
// per relation, and a write to either side never shows through on the
// other.
TEST(SettingTest, ProjectionsShareStoresCopyOnWrite) {
  SymbolTable symbols;
  PdeSetting setting = MakeExample1Setting(&symbols);
  const RelationId e = setting.schema().FindRelation("E").value();
  const RelationId h = setting.schema().FindRelation("H").value();
  Instance combined =
      ParseOrDie(setting, "E(a,b). E(b,c). H(a,c). H(c,a).", &symbols);
  Instance source_part = setting.SourcePart(combined);
  Instance target_part = setting.TargetPart(combined);
  EXPECT_EQ(source_part.tuples(e).data(), combined.tuples(e).data());
  EXPECT_EQ(target_part.tuples(h).data(), combined.tuples(h).data());
  EXPECT_EQ(source_part.fact_count(), 2u);
  EXPECT_EQ(target_part.fact_count(), 2u);
  EXPECT_TRUE(source_part.tuples(h).empty());
  EXPECT_TRUE(target_part.tuples(e).empty());

  const Value a = symbols.InternConstant("a");
  const Value d = symbols.InternConstant("d");
  source_part.AddFact(e, {a, d});
  target_part.AddFact(h, {d, d});
  EXPECT_EQ(combined.ToString(symbols), "E(a,b).\nE(b,c).\nH(a,c).\nH(c,a).");
  EXPECT_EQ(combined.fact_count(), 4u);

  Instance before_source = setting.SourcePart(combined);
  Instance before_target = setting.TargetPart(combined);
  combined.AddFact(e, {d, a});
  combined.RemoveFact(h, {a, symbols.InternConstant("c")});
  EXPECT_EQ(before_source.ToString(symbols), "E(a,b).\nE(b,c).");
  EXPECT_EQ(before_target.fact_count(), 2u);
  EXPECT_TRUE(before_target.Contains(h, {a, symbols.InternConstant("c")}));
}

// The shared projections hold exactly what a per-fact copy holds, in the
// same tuple order.
TEST(SettingTest, ProjectionsMatchAPerFactCopy) {
  SymbolTable symbols;
  PdeSetting setting = MakeExample1Setting(&symbols);
  Instance combined = setting.EmptyInstance();
  for (int i = 0; i < 200; ++i) {
    const Value x = symbols.InternConstant(StrCat("c", i % 17));
    const Value y = symbols.InternConstant(StrCat("c", i % 23));
    combined.AddFact(i % 3 == 0 ? 1 : 0,
                     {x, i % 5 == 0 ? symbols.FreshNull() : y});
  }
  for (bool source_side : {true, false}) {
    Instance copy = setting.EmptyInstance();
    combined.ForEachFact([&](const Fact& f) {
      if (setting.is_source(f.relation) == source_side) copy.AddFact(f);
    });
    Instance part = source_side ? setting.SourcePart(combined)
                                : setting.TargetPart(combined);
    EXPECT_EQ(part.fact_count(), copy.fact_count());
    EXPECT_TRUE(part.FactsEqual(copy));
    EXPECT_EQ(part.CanonicalFingerprint(), copy.CanonicalFingerprint());
    for (RelationId r = 0; r < setting.schema().relation_count(); ++r) {
      ASSERT_EQ(part.tuples(r).size(), copy.tuples(r).size());
      for (size_t i = 0; i < part.tuples(r).size(); ++i) {
        EXPECT_TRUE(part.tuples(r)[i] == copy.tuples(r)[i]);
      }
    }
  }
}

// An instance carrying egd merges projects its resolved view: the result
// holds resolved tuples and no merge history.
TEST(SettingTest, MergedInstanceProjectsItsResolvedView) {
  SymbolTable symbols;
  PdeSetting setting = MakeExample1Setting(&symbols);
  const RelationId h = setting.schema().FindRelation("H").value();
  Instance combined =
      ParseOrDie(setting, "E(a,b). H(a,_n). H(a,_m). H(_m,b).", &symbols);
  const Value a = symbols.InternConstant("a");
  const Value b = symbols.InternConstant("b");
  const std::vector<Value> nulls = combined.Nulls();
  ASSERT_EQ(nulls.size(), 2u);
  ASSERT_TRUE(combined.MergeValues(nulls[0], nulls[1]).merged);
  ASSERT_TRUE(combined.MergeValues(nulls[0], b).merged);
  Instance target_part = setting.TargetPart(combined);
  EXPECT_FALSE(target_part.has_merges());
  EXPECT_EQ(target_part.fact_count(), 2u);  // H(a,b), H(b,b)
  EXPECT_TRUE(target_part.Contains(h, {a, b}));
  EXPECT_TRUE(target_part.Contains(h, {b, b}));
  EXPECT_FALSE(target_part.HasNulls());
  EXPECT_TRUE(setting.SourcePart(combined).FactsEqual(
      ParseOrDie(setting, "E(a,b).", &symbols)));
}

TEST(SettingTest, ToStringMentionsAllParts) {
  SymbolTable symbols;
  auto setting = PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}}, "E(x,y) -> H(x,y).", "H(x,y) -> E(x,y).",
      "H(x,y) & H(x,z) -> y = z.", &symbols);
  ASSERT_TRUE(setting.ok());
  std::string rendered = setting->ToString(symbols);
  EXPECT_NE(rendered.find("S = {E/2}"), std::string::npos);
  EXPECT_NE(rendered.find("T = {H/2}"), std::string::npos);
  EXPECT_NE(rendered.find("Σst"), std::string::npos);
  EXPECT_NE(rendered.find("Σts"), std::string::npos);
  EXPECT_NE(rendered.find("y = z"), std::string::npos);
}

}  // namespace
}  // namespace pdx
