// Tests for the column-oriented table and its analytics.

#include "efes/relational/table.h"

#include <gtest/gtest.h>

namespace efes {
namespace {

Table MakeSongsTable() {
  Table table(RelationDef("songs", {{"album", DataType::kInteger},
                                    {"name", DataType::kText},
                                    {"length", DataType::kInteger}}));
  EXPECT_TRUE(
      table.AppendRow({Value::Integer(1), Value::Text("a"),
                       Value::Integer(100)})
          .ok());
  EXPECT_TRUE(
      table.AppendRow({Value::Integer(1), Value::Text("b"), Value::Null()})
          .ok());
  EXPECT_TRUE(
      table.AppendRow({Value::Integer(2), Value::Text("a"),
                       Value::Integer(100)})
          .ok());
  EXPECT_TRUE(
      table.AppendRow({Value::Null(), Value::Text("c"),
                       Value::Integer(200)})
          .ok());
  return table;
}

TEST(TableTest, AppendAndAccess) {
  Table table = MakeSongsTable();
  EXPECT_EQ(table.row_count(), 4u);
  EXPECT_EQ(table.column_count(), 3u);
  EXPECT_EQ(table.at(0, 1).AsText(), "a");
  EXPECT_TRUE(table.at(3, 0).is_null());
}

TEST(TableTest, RejectsArityMismatch) {
  Table table(RelationDef("r", {{"a", DataType::kText}}));
  Status status = table.AppendRow({Value::Text("x"), Value::Text("y")});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.row_count(), 0u);
}

TEST(TableTest, CanonicalizesOnAppend) {
  Table table(RelationDef("r", {{"n", DataType::kInteger}}));
  ASSERT_TRUE(table.AppendRow({Value::Text("42")}).ok());
  EXPECT_EQ(table.at(0, 0).type(), DataType::kInteger);
  EXPECT_EQ(table.at(0, 0).AsInteger(), 42);
}

TEST(TableTest, RejectsUncastableValue) {
  Table table(RelationDef("r", {{"n", DataType::kInteger}}));
  Status status = table.AppendRow({Value::Text("not a number")});
  EXPECT_EQ(status.code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(table.row_count(), 0u);
}

TEST(TableTest, FailedAppendLeavesTableUnchanged) {
  Table table(RelationDef(
      "r", {{"a", DataType::kText}, {"n", DataType::kInteger}}));
  ASSERT_FALSE(
      table.AppendRow({Value::Text("ok"), Value::Text("bad")}).ok());
  EXPECT_EQ(table.row_count(), 0u);
  EXPECT_TRUE(table.column(0).empty());
  EXPECT_TRUE(table.column(1).empty());
}

TEST(TableTest, ColumnByName) {
  Table table = MakeSongsTable();
  auto column = table.ColumnByName("name");
  ASSERT_TRUE(column.ok());
  EXPECT_EQ((*column)->size(), 4u);
  EXPECT_FALSE(table.ColumnByName("ghost").ok());
}

TEST(TableTest, RowMaterialization) {
  Table table = MakeSongsTable();
  std::vector<Value> row = table.Row(2);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].AsInteger(), 2);
  EXPECT_EQ(row[1].AsText(), "a");
}

TEST(TableTest, NullCount) {
  Table table = MakeSongsTable();
  EXPECT_EQ(table.NullCount(0), 1u);
  EXPECT_EQ(table.NullCount(1), 0u);
  EXPECT_EQ(table.NullCount(2), 1u);
}

TEST(TableTest, DistinctValues) {
  Table table = MakeSongsTable();
  std::vector<Value> distinct = table.DistinctValues(1);
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(TableTest, DuplicateProjectionsSingleColumn) {
  Table table = MakeSongsTable();
  // Column 1 ("name"): "a" appears twice -> both rows count as violating.
  EXPECT_EQ(table.CountDuplicateProjections({1}), 2u);
  EXPECT_FALSE(table.IsUnique({1}));
}

TEST(TableTest, DuplicateProjectionsMultiColumnNullExempt) {
  Table table = MakeSongsTable();
  // (album, length): (1,100), (1,NULL exempt), (2,100), (NULL exempt).
  EXPECT_EQ(table.CountDuplicateProjections({0, 2}), 0u);
  EXPECT_TRUE(table.IsUnique({0, 2}));
}

TEST(TableTest, DuplicateProjectionsDetectsComposites) {
  Table table(RelationDef(
      "r", {{"a", DataType::kInteger}, {"b", DataType::kInteger}}));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        table.AppendRow({Value::Integer(1), Value::Integer(2)}).ok());
  }
  ASSERT_TRUE(
      table.AppendRow({Value::Integer(1), Value::Integer(3)}).ok());
  EXPECT_EQ(table.CountDuplicateProjections({0, 1}), 2u);
}

}  // namespace
}  // namespace efes
