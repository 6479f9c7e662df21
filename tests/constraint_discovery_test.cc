// Tests for constraint discovery by data profiling.

#include "efes/profiling/constraint_discovery.h"

#include <gtest/gtest.h>

namespace efes {
namespace {

/// A parent/child database without *declared* constraints whose data
/// exactly satisfies PK-like and FK-like properties.
Database MakeUndeclaredDatabase(size_t rows = 20) {
  Schema schema("raw");
  (void)schema.AddRelation(RelationDef(
      "parent", {{"id", DataType::kInteger}, {"name", DataType::kText}}));
  (void)schema.AddRelation(RelationDef(
      "child", {{"pid", DataType::kInteger}, {"note", DataType::kText}}));
  auto db = Database::Create(std::move(schema));
  EXPECT_TRUE(db.ok());
  Table* parent = *db->mutable_table("parent");
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(parent
                    ->AppendRow({Value::Integer(static_cast<int64_t>(i)),
                                 Value::Text(std::string("n").append(
                                     std::to_string(i % 7)))})
                    .ok());
  }
  Table* child = *db->mutable_table("child");
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        child
            ->AppendRow({Value::Integer(static_cast<int64_t>(i % 10)),
                         i % 4 == 0 ? Value::Null() : Value::Text("x")})
            .ok());
  }
  return std::move(*db);
}

bool Contains(const std::vector<DiscoveredConstraint>& discovered,
              ConstraintKind kind, const std::string& relation,
              const std::string& attribute) {
  for (const DiscoveredConstraint& d : discovered) {
    if (d.constraint.kind == kind && d.constraint.relation == relation &&
        d.constraint.attributes.size() == 1 &&
        d.constraint.attributes[0] == attribute) {
      return true;
    }
  }
  return false;
}

TEST(ConstraintDiscoveryTest, FindsNotNullColumns) {
  Database db = MakeUndeclaredDatabase();
  auto discovered = DiscoverConstraints(db);
  EXPECT_TRUE(
      Contains(discovered, ConstraintKind::kNotNull, "parent", "id"));
  EXPECT_TRUE(
      Contains(discovered, ConstraintKind::kNotNull, "parent", "name"));
  // child.note has nulls.
  EXPECT_FALSE(
      Contains(discovered, ConstraintKind::kNotNull, "child", "note"));
}

TEST(ConstraintDiscoveryTest, FindsUniqueColumns) {
  Database db = MakeUndeclaredDatabase();
  auto discovered = DiscoverConstraints(db);
  EXPECT_TRUE(Contains(discovered, ConstraintKind::kUnique, "parent", "id"));
  // parent.name repeats (i % 7).
  EXPECT_FALSE(
      Contains(discovered, ConstraintKind::kUnique, "parent", "name"));
  // child.pid repeats (i % 10).
  EXPECT_FALSE(
      Contains(discovered, ConstraintKind::kUnique, "child", "pid"));
}

TEST(ConstraintDiscoveryTest, FindsInclusionDependency) {
  Database db = MakeUndeclaredDatabase();
  auto discovered = DiscoverConstraints(db);
  bool found_fk = false;
  for (const DiscoveredConstraint& d : discovered) {
    if (d.constraint.kind == ConstraintKind::kForeignKey &&
        d.constraint.relation == "child" &&
        d.constraint.attributes[0] == "pid" &&
        d.constraint.referenced_relation == "parent" &&
        d.constraint.referenced_attributes[0] == "id") {
      found_fk = true;
    }
  }
  EXPECT_TRUE(found_fk);
}

TEST(ConstraintDiscoveryTest, SkipsTinyTables) {
  Database db = MakeUndeclaredDatabase(/*rows=*/3);
  DiscoveryOptions options;
  options.min_row_count = 10;
  EXPECT_TRUE(DiscoverConstraints(db, options).empty());
}

TEST(ConstraintDiscoveryTest, SkipsDeclaredConstraints) {
  Schema schema("declared");
  (void)schema.AddRelation(RelationDef("r", {{"id", DataType::kInteger}}));
  schema.AddConstraint(Constraint::PrimaryKey("r", {"id"}));
  auto db = Database::Create(std::move(schema));
  Table* table = *db->mutable_table("r");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table->AppendRow({Value::Integer(i)}).ok());
  }
  // NOT NULL and UNIQUE on r.id are subsumed by the declared PK.
  auto discovered = DiscoverConstraints(*db);
  EXPECT_TRUE(discovered.empty());
}

TEST(ConstraintDiscoveryTest, ReportsDeclaredWhenAsked) {
  Schema schema("declared");
  (void)schema.AddRelation(RelationDef("r", {{"id", DataType::kInteger}}));
  schema.AddConstraint(Constraint::PrimaryKey("r", {"id"}));
  auto db = Database::Create(std::move(schema));
  Table* table = *db->mutable_table("r");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table->AppendRow({Value::Integer(i)}).ok());
  }
  DiscoveryOptions options;
  options.skip_declared = false;
  EXPECT_FALSE(DiscoverConstraints(*db, options).empty());
}

TEST(ConstraintDiscoveryTest, IndRequiresUniqueReferencedByDefault) {
  Schema schema("s");
  (void)schema.AddRelation(RelationDef("a", {{"x", DataType::kInteger}}));
  (void)schema.AddRelation(RelationDef("b", {{"y", DataType::kInteger}}));
  auto db = Database::Create(std::move(schema));
  Table* a = *db->mutable_table("a");
  Table* b = *db->mutable_table("b");
  for (int i = 0; i < 20; ++i) {
    // a.x in {0..4} ⊆ b.y in {0..9}, but b.y has duplicates.
    ASSERT_TRUE(a->AppendRow({Value::Integer(i % 5)}).ok());
    ASSERT_TRUE(b->AppendRow({Value::Integer(i % 10)}).ok());
  }
  auto strict = DiscoverConstraints(*db);
  bool fk_found = false;
  for (const DiscoveredConstraint& d : strict) {
    if (d.constraint.kind == ConstraintKind::kForeignKey) fk_found = true;
  }
  EXPECT_FALSE(fk_found);

  DiscoveryOptions lax;
  lax.require_unique_referenced = false;
  auto relaxed = DiscoverConstraints(*db, lax);
  fk_found = false;
  for (const DiscoveredConstraint& d : relaxed) {
    if (d.constraint.kind == ConstraintKind::kForeignKey) fk_found = true;
  }
  EXPECT_TRUE(fk_found);
}

TEST(ConstraintDiscoveryTest, SchemaWithDiscoveredConstraints) {
  Database db = MakeUndeclaredDatabase();
  Schema completed = SchemaWithDiscoveredConstraints(db);
  EXPECT_GT(completed.constraints().size(), db.schema().constraints().size());
  EXPECT_TRUE(completed.IsNotNullable("parent", "id"));
  EXPECT_TRUE(completed.IsUniqueAttribute("parent", "id"));
}

TEST(ConstraintDiscoveryTest, SupportRecorded) {
  Database db = MakeUndeclaredDatabase(25);
  auto discovered = DiscoverConstraints(db);
  ASSERT_FALSE(discovered.empty());
  for (const DiscoveredConstraint& d : discovered) {
    EXPECT_EQ(d.support, 25u);
    EXPECT_NE(d.ToString().find("support 25"), std::string::npos);
  }
}

}  // namespace
}  // namespace efes
