#include "relational/schema.h"

#include <string_view>

#include "gtest/gtest.h"

namespace pdx {
namespace {

TEST(SchemaTest, AddAndFind) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("P", 4).ok());
  EXPECT_EQ(schema.relation_count(), 2);
  auto e = schema.FindRelation("E");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(schema.relation_name(*e), "E");
  EXPECT_EQ(schema.arity(*e), 2);
  EXPECT_EQ(schema.arity(schema.FindRelation("P").value()), 4);
}

TEST(SchemaTest, RejectsDuplicateNames) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  auto again = schema.AddRelation("E", 3);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, RejectsBadArityAndEmptyName) {
  Schema schema;
  EXPECT_EQ(schema.AddRelation("E", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.AddRelation("E", -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.AddRelation("", 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, FindUnknownIsNotFound) {
  Schema schema;
  EXPECT_EQ(schema.FindRelation("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, FindsNonTerminatedSlices) {
  // FindRelation takes a string_view: a slice in the middle of a larger
  // buffer (the fact parser's relation token) must find its relation, and
  // a prefix or extension of a name must not.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("Gene", 2).ok());
  ASSERT_TRUE(schema.AddRelation("Gen", 1).ok());
  const std::string_view buffer = "Gene(a,b). Gen(c).";
  EXPECT_EQ(schema.FindRelation(buffer.substr(0, 4)).value(), 0);
  EXPECT_EQ(schema.FindRelation(buffer.substr(11, 3)).value(), 1);
  EXPECT_EQ(schema.FindRelation(buffer.substr(0, 2)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(schema.FindRelation(buffer.substr(0, 5)).status().message(),
            "unknown relation Gene(");
  // A duplicate declared through a slice is still a duplicate.
  EXPECT_EQ(schema.AddRelation(buffer.substr(11, 3), 1).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, DisjointUnionPreservesLeftIds) {
  Schema left;
  ASSERT_TRUE(left.AddRelation("A", 1).ok());
  ASSERT_TRUE(left.AddRelation("B", 2).ok());
  Schema right;
  ASSERT_TRUE(right.AddRelation("C", 3).ok());
  auto merged = Schema::DisjointUnion(left, right);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->relation_count(), 3);
  EXPECT_EQ(merged->FindRelation("A").value(), 0);
  EXPECT_EQ(merged->FindRelation("B").value(), 1);
  EXPECT_EQ(merged->FindRelation("C").value(), 2);
}

TEST(SchemaTest, DisjointUnionRejectsNameClash) {
  Schema left;
  ASSERT_TRUE(left.AddRelation("A", 1).ok());
  Schema right;
  ASSERT_TRUE(right.AddRelation("A", 1).ok());
  EXPECT_FALSE(Schema::DisjointUnion(left, right).ok());
}

TEST(SchemaTest, ToStringListsRelations) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("H", 2).ok());
  EXPECT_EQ(schema.ToString(), "E/2, H/2");
}

}  // namespace
}  // namespace pdx
