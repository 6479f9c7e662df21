// Randomized round-trip property tests: random schemas survive
// DDL-render/parse, random databases survive scenario save/load, and
// random well-formed formulas evaluate consistently after re-parsing
// their own source text.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "efes/common/random.h"
#include "efes/core/formula.h"
#include "efes/relational/schema_text.h"
#include "efes/scenario/scenario_io.h"
#include "test_paths.h"

namespace efes {
namespace {

DataType RandomType(Random& rng) {
  const DataType kTypes[] = {DataType::kInteger, DataType::kReal,
                             DataType::kText, DataType::kBoolean};
  return kTypes[rng.UniformUint64(4)];
}

/// A random schema: 1-5 relations, 1-6 attributes, random constraints
/// (PK on the first attribute, NOT NULLs, single/composite UNIQUEs, FKs
/// to earlier relations).
Schema RandomSchema(Random& rng) {
  Schema schema("random");
  size_t relation_count = 1 + rng.UniformUint64(5);
  std::vector<std::string> relation_names;
  for (size_t r = 0; r < relation_count; ++r) {
    std::string relation = "rel_" + rng.Word(3, 6) + std::to_string(r);
    std::vector<AttributeDef> attributes;
    size_t attribute_count = 1 + rng.UniformUint64(6);
    for (size_t a = 0; a < attribute_count; ++a) {
      attributes.push_back(AttributeDef{
          "col_" + rng.Word(2, 5) + std::to_string(a), RandomType(rng)});
    }
    EXPECT_TRUE(
        schema.AddRelation(RelationDef(relation, attributes)).ok());
    if (rng.Bernoulli(0.7)) {
      schema.AddConstraint(
          Constraint::PrimaryKey(relation, {attributes[0].name}));
    }
    for (size_t a = 1; a < attribute_count; ++a) {
      if (rng.Bernoulli(0.3)) {
        schema.AddConstraint(
            Constraint::NotNull(relation, attributes[a].name));
      }
      if (rng.Bernoulli(0.15)) {
        schema.AddConstraint(
            Constraint::Unique(relation, {attributes[a].name}));
      }
    }
    if (attribute_count >= 2 && rng.Bernoulli(0.2)) {
      schema.AddConstraint(Constraint::Unique(
          relation, {attributes[0].name, attributes[1].name}));
    }
    // FK from this relation's last attribute to an earlier relation's
    // first attribute (types must match; force integer on both ends).
    if (!relation_names.empty() && rng.Bernoulli(0.4)) {
      const std::string& parent =
          relation_names[rng.UniformUint64(relation_names.size())];
      const RelationDef* parent_def = *schema.relation(parent);
      schema.AddConstraint(Constraint::ForeignKey(
          relation, {attributes.back().name}, parent,
          {parent_def->attributes()[0].name}));
    }
    relation_names.push_back(relation);
  }
  return schema;
}

class SchemaRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchemaRoundTripTest, DdlRoundTripPreservesSchema) {
  Random rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    Schema original = RandomSchema(rng);
    ASSERT_TRUE(original.Validate().ok());
    std::string ddl = WriteSchemaText(original);
    auto reparsed = ParseSchemaText(ddl, "random");
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                               << ddl;
    ASSERT_EQ(reparsed->relations().size(), original.relations().size());
    for (size_t r = 0; r < original.relations().size(); ++r) {
      const RelationDef& original_rel = original.relations()[r];
      const RelationDef& reparsed_rel = reparsed->relations()[r];
      EXPECT_EQ(reparsed_rel.name(), original_rel.name());
      ASSERT_EQ(reparsed_rel.attribute_count(),
                original_rel.attribute_count());
      for (size_t a = 0; a < original_rel.attribute_count(); ++a) {
        EXPECT_EQ(reparsed_rel.attributes()[a].name,
                  original_rel.attributes()[a].name);
        EXPECT_EQ(reparsed_rel.attributes()[a].type,
                  original_rel.attributes()[a].type);
      }
      // Constraint semantics preserved for every attribute.
      for (const AttributeDef& attribute : original_rel.attributes()) {
        EXPECT_EQ(reparsed->IsNotNullable(original_rel.name(),
                                          attribute.name),
                  original.IsNotNullable(original_rel.name(),
                                         attribute.name));
        EXPECT_EQ(reparsed->IsUniqueAttribute(original_rel.name(),
                                              attribute.name),
                  original.IsUniqueAttribute(original_rel.name(),
                                             attribute.name));
      }
      EXPECT_EQ(reparsed->PrimaryKeyOf(original_rel.name()),
                original.PrimaryKeyOf(original_rel.name()));
    }
    EXPECT_EQ(reparsed->constraints().size(),
              original.constraints().size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemaRoundTripTest,
                         ::testing::Values(3, 33, 333));

Value RandomValue(Random& rng, DataType type) {
  if (rng.Bernoulli(0.1)) return Value::Null();
  switch (type) {
    case DataType::kInteger:
      return Value::Integer(rng.UniformInt(-1000, 1000));
    case DataType::kReal:
      // Stick to halves so text rendering round-trips exactly.
      return Value::Real(static_cast<double>(rng.UniformInt(-100, 100)) /
                         2.0);
    case DataType::kBoolean:
      return Value::Boolean(rng.Bernoulli(0.5));
    default:
      return Value::Text(rng.Word(1, 12));
  }
}

class ScenarioRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScenarioRoundTripTest, RandomDatabaseSurvivesSaveLoad) {
  Random rng(GetParam());
  const ScopedScratchPath scratch("efes_roundtrip_" +
                                  std::to_string(GetParam()));
  const std::string& directory = scratch.path();
  std::filesystem::remove_all(directory);

  // Constraint-free schemas so arbitrary random data is a valid instance.
  Schema target_schema("target");
  (void)target_schema.AddRelation(
      RelationDef("sink", {{"x", DataType::kText}}));
  Schema source_schema("src");
  std::vector<AttributeDef> attributes;
  size_t attribute_count = 1 + rng.UniformUint64(5);
  for (size_t a = 0; a < attribute_count; ++a) {
    attributes.push_back(
        AttributeDef{std::string("c").append(std::to_string(a)),
                     RandomType(rng)});
  }
  (void)source_schema.AddRelation(RelationDef("facts", attributes));
  auto source = Database::Create(std::move(source_schema));
  Table* facts = *source->mutable_table("facts");
  size_t row_count = rng.UniformUint64(60);
  for (size_t r = 0; r < row_count; ++r) {
    std::vector<Value> row;
    for (size_t a = 0; a < attribute_count; ++a) {
      Value value = RandomValue(rng, attributes[a].type);
      // Empty text cells are indistinguishable from NULL in CSV; avoid.
      if (value.type() == DataType::kText && value.AsText().empty()) {
        value = Value::Null();
      }
      row.push_back(std::move(value));
    }
    ASSERT_TRUE(facts->AppendRow(std::move(row)).ok());
  }

  IntegrationScenario scenario(
      "roundtrip", std::move(*Database::Create(std::move(target_schema))));
  CorrespondenceSet correspondences;
  correspondences.AddRelation("facts", "sink");
  scenario.AddSource(std::move(*source), std::move(correspondences));

  ASSERT_TRUE(SaveScenario(scenario, directory).ok());
  auto loaded = LoadScenario(directory);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table* reloaded = *loaded->sources[0].database.table("facts");
  const Table* original = *scenario.sources[0].database.table("facts");
  ASSERT_EQ(reloaded->row_count(), original->row_count());
  for (size_t r = 0; r < original->row_count(); ++r) {
    for (size_t c = 0; c < original->column_count(); ++c) {
      EXPECT_EQ(reloaded->at(r, c), original->at(r, c))
          << "row " << r << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioRoundTripTest,
                         ::testing::Values(17, 171, 1717));

/// Random well-formed formulas: build an expression string bottom-up and
/// check (a) it parses, (b) re-parsing its own text() yields the same
/// value on random tasks.
class FormulaFuzzTest : public ::testing::TestWithParam<uint64_t> {};

std::string RandomExpression(Random& rng, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.35)) {
    if (rng.Bernoulli(0.5)) {
      return std::to_string(rng.UniformInt(0, 99));
    }
    const char* kParams[] = {"values", "dist_vals", "tables", "pks"};
    return kParams[rng.UniformUint64(4)];
  }
  const char* kOps[] = {" + ", " - ", " * ", " / "};
  std::string left = RandomExpression(rng, depth - 1);
  std::string right = RandomExpression(rng, depth - 1);
  std::string combined =
      left + kOps[rng.UniformUint64(4)] + right;
  return rng.Bernoulli(0.4) ? "(" + combined + ")" : combined;
}

TEST_P(FormulaFuzzTest, RandomFormulasParseAndReEvaluateStably) {
  Random rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    std::string text = RandomExpression(rng, 4);
    if (rng.Bernoulli(0.3)) {
      text = "if " + RandomExpression(rng, 2) + " < " +
             RandomExpression(rng, 2) + " then " + text + " else " +
             RandomExpression(rng, 3);
    }
    auto formula = Formula::Parse(text);
    ASSERT_TRUE(formula.ok()) << text << ": "
                              << formula.status().ToString();
    auto reparsed = Formula::Parse(formula->text());
    ASSERT_TRUE(reparsed.ok());
    Task task;
    task.parameters["values"] = static_cast<double>(rng.UniformInt(0, 50));
    task.parameters["dist_vals"] =
        static_cast<double>(rng.UniformInt(0, 50));
    task.parameters["tables"] = static_cast<double>(rng.UniformInt(0, 9));
    double a = formula->Evaluate(task);
    double b = reparsed->Evaluate(task);
    if (std::isfinite(a) && std::isfinite(b)) {
      EXPECT_DOUBLE_EQ(a, b) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormulaFuzzTest,
                         ::testing::Values(71, 72, 73));

}  // namespace
}  // namespace efes
