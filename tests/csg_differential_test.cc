// Differential test of the dense-id CsgInstance (efes/csg/graph.h)
// against the Value-keyed reference instance (csg_reference.h). On the
// paper example, both case studies, every fuzz-corpus seed, and seeded
// dirty databases, both instances must agree on every element, link
// count, out-degree, actual cardinality, violation count, defect side,
// and reachable value, relationship by relationship and path by path.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "csg_reference.h"
#include "efes/common/file_io.h"
#include "efes/common/random.h"
#include "efes/common/string_util.h"
#include "efes/csg/builder.h"
#include "efes/csg/path_search.h"
#include "efes/scenario/bibliographic.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/music.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

/// A value with its representation: Value equality says 3 == 3.0, but
/// the differential contract is on what a caller would print.
std::string Render(const Value& value) {
  return std::string(DataTypeToString(value.type())) + ":" + value.ToString();
}

std::vector<std::string> Render(const std::vector<Value>& values) {
  std::vector<std::string> rendered;
  for (const Value& value : values) rendered.push_back(Render(value));
  return rendered;
}

/// The κ every relationship and path is checked under, besides its own.
std::vector<Cardinality> Probes(const Cardinality& prescribed) {
  return {Cardinality::Exactly(1), Cardinality::Optional(),
          Cardinality::AtLeast(1), prescribed};
}

/// Elements and every directed relationship.
void CompareRelationships(const Csg& csg, const ReferenceCsgInstance& oracle,
                          const std::string& label) {
  const CsgGraph& graph = csg.graph;
  const CsgInstance& dense = csg.instance;
  for (const CsgNode& node : graph.nodes()) {
    SCOPED_TRACE(label + " node " + node.QualifiedName());
    ASSERT_EQ(dense.ElementCount(node.id), oracle.ElementCount(node.id));
    // Dense ids follow the oracle's first-occurrence order.
    const std::vector<Value>& elements = oracle.ElementsOf(node.id);
    for (ElementId e = 0; e < elements.size(); ++e) {
      ASSERT_EQ(Render(dense.ElementValue(node.id, e)), Render(elements[e]));
    }
  }
  for (const CsgRelationship& rel : graph.relationships()) {
    SCOPED_TRACE(label + " " + graph.DescribeRelationship(rel.id));
    EXPECT_EQ(dense.LinkCount(rel.id), oracle.LinkCount(rel.id));
    std::vector<size_t> degrees = dense.OutDegrees(graph, rel.id);
    auto oracle_degrees = oracle.OutDegrees(graph, rel.id);
    ASSERT_EQ(degrees.size(), oracle_degrees.size());
    for (ElementId e = 0; e < degrees.size(); ++e) {
      EXPECT_EQ(degrees[e],
                oracle_degrees.at(dense.ElementValue(rel.from, e)));
    }
    EXPECT_EQ(dense.ActualCardinality(graph, rel.id),
              oracle.ActualCardinality(graph, rel.id));
    for (const Cardinality& kappa : Probes(rel.prescribed)) {
      EXPECT_EQ(dense.CountViolations(graph, rel.id, kappa),
                oracle.CountViolations(graph, rel.id, kappa))
          << "under " << kappa.ToString();
    }
  }
}

/// Every path query on one path, checked against `prescribed`.
void ComparePath(const Csg& csg, const ReferenceCsgInstance& oracle,
                 const std::vector<RelationshipId>& path,
                 const Cardinality& prescribed, const std::string& label) {
  const CsgGraph& graph = csg.graph;
  const CsgInstance& dense = csg.instance;
  SCOPED_TRACE(label + " path " + DescribePath(graph, path));
  const NodeId start = graph.relationship(path.front()).from;
  std::vector<size_t> degrees = dense.PathOutDegrees(graph, path);
  auto oracle_degrees = oracle.PathOutDegrees(graph, path);
  ASSERT_EQ(degrees.size(), oracle_degrees.size());
  size_t too_few = 0;
  size_t too_many = 0;
  size_t oracle_too_few = 0;
  size_t oracle_too_many = 0;
  for (ElementId e = 0; e < degrees.size(); ++e) {
    const Value element = dense.ElementValue(start, e);
    const size_t oracle_degree = oracle_degrees.at(element);
    EXPECT_EQ(degrees[e], oracle_degree);
    if (!prescribed.Contains(degrees[e])) {
      ++(degrees[e] < prescribed.min() ? too_few : too_many);
    }
    if (!prescribed.Contains(oracle_degree)) {
      ++(oracle_degree < prescribed.min() ? oracle_too_few
                                          : oracle_too_many);
    }
    EXPECT_EQ(Render(dense.ReachableViaPath(graph, path, e)),
              Render(oracle.ReachableViaPath(graph, path, element)))
        << "from " << Render(element);
  }
  EXPECT_EQ(too_few, oracle_too_few);
  EXPECT_EQ(too_many, oracle_too_many);
  EXPECT_EQ(dense.ActualPathCardinality(graph, path),
            oracle.ActualPathCardinality(graph, path));
  for (const Cardinality& kappa : Probes(prescribed)) {
    EXPECT_EQ(dense.CountPathViolations(graph, path, kappa),
              oracle.CountPathViolations(graph, path, kappa))
        << "under " << kappa.ToString();
  }
}

/// The source node a target node maps to through the correspondences,
/// as the structure detector maps them.
std::optional<NodeId> MapNode(const CsgNode& target, const CsgGraph& source,
                              const CorrespondenceSet& correspondences) {
  if (target.kind == CsgNodeKind::kTable) {
    std::string relation;
    auto relation_corr = correspondences.RelationCorrespondenceFor(
        target.relation);
    if (relation_corr.ok()) {
      relation = relation_corr->source_relation;
    } else {
      std::vector<Correspondence> attrs =
          correspondences.AttributesInto(target.relation);
      if (!attrs.empty()) relation = attrs.front().source_relation;
    }
    auto node = source.FindTableNode(relation);
    if (relation.empty() || !node.ok()) return std::nullopt;
    return *node;
  }
  std::vector<Correspondence> attrs =
      correspondences.AttributesInto(target.relation, target.attribute);
  if (attrs.empty()) return std::nullopt;
  auto node = source.FindAttributeNode(attrs.front().source_relation,
                                       attrs.front().source_attribute);
  if (!node.ok()) return std::nullopt;
  return *node;
}

/// Which paths CompareDatabase checks besides the relationships.
enum class Paths { kNone, kMappedFromTarget, kAllNodePairs };

/// Builds both instances of `database` and compares every relationship.
/// kMappedFromTarget also compares the best source path of every
/// relationship of `target` whose ends map into the source through
/// `correspondences`; kAllNodePairs the best path between every ordered
/// pair of nodes.
void CompareDatabase(const Database& database, const std::string& label,
                     Paths paths, const CsgGraph* target = nullptr,
                     const CorrespondenceSet* correspondences = nullptr) {
  Csg csg = BuildCsg(database);
  ReferenceCsgInstance oracle = BuildReferenceInstance(csg.graph, database);
  CompareRelationships(csg, oracle, label);
  if (paths == Paths::kMappedFromTarget) {
    for (const CsgRelationship& rel : target->relationships()) {
      auto from = MapNode(target->node(rel.from), csg.graph, *correspondences);
      auto to = MapNode(target->node(rel.to), csg.graph, *correspondences);
      if (!from.has_value() || !to.has_value()) continue;
      auto best = FindBestPath(csg.graph, *from, *to);
      if (!best.has_value()) continue;
      ComparePath(csg, oracle, best->path, rel.prescribed, label);
    }
  }
  if (paths == Paths::kAllNodePairs) {
    for (const CsgNode& from : csg.graph.nodes()) {
      for (const CsgNode& to : csg.graph.nodes()) {
        auto best = FindBestPath(csg.graph, from.id, to.id);
        if (!best.has_value()) continue;
        ComparePath(csg, oracle, best->path, best->inferred, label);
      }
    }
  }
}

/// The target database, then every source along the paths its
/// correspondences map the target relationships to.
void CompareScenario(const IntegrationScenario& scenario,
                     const std::string& label) {
  CompareDatabase(scenario.target, label + " target", Paths::kNone);
  const CsgGraph target = BuildCsgGraph(scenario.target);
  for (const SourceBinding& source : scenario.sources) {
    CompareDatabase(source.database, label + " " + source.database.name(),
                    Paths::kMappedFromTarget, &target,
                    &source.correspondences);
  }
}

TEST(CsgDifferentialTest, PaperExampleAtThreeSizes) {
  auto standard = MakePaperExample();
  ASSERT_TRUE(standard.ok());
  CompareScenario(*standard, "paper example");
  for (size_t albums : {size_t{500}, size_t{2000}}) {
    PaperExampleOptions options;
    options.album_count = albums;
    options.multi_artist_albums = albums / 4;
    options.orphan_artists = albums / 20;
    options.song_count = albums * 3 / 2;
    auto scaled = MakePaperExample(options);
    ASSERT_TRUE(scaled.ok());
    CompareScenario(*scaled, "paper example " + std::to_string(albums));
  }
}

TEST(CsgDifferentialTest, BibliographicCaseStudy) {
  auto scenarios = MakeAllBiblioScenarios();
  ASSERT_TRUE(scenarios.ok());
  for (const IntegrationScenario& scenario : *scenarios) {
    CompareScenario(scenario, scenario.name);
  }
}

TEST(CsgDifferentialTest, MusicCaseStudy) {
  auto scenarios = MakeAllMusicScenarios();
  ASSERT_TRUE(scenarios.ok());
  for (const IntegrationScenario& scenario : *scenarios) {
    CompareScenario(scenario, scenario.name);
  }
}

TEST(CsgDifferentialTest, FuzzCorpus) {
  auto text = ReadFileToString(std::string(EFES_SOURCE_DIR) +
                               "/data/fuzz_corpus.txt");
  ASSERT_TRUE(text.ok());
  size_t seeds = 0;
  for (const std::string& raw_line : Split(*text, '\n')) {
    // '#' starts a comment, as in the smoke test's reader.
    const std::string line(Trim(raw_line.substr(0, raw_line.find('#'))));
    if (line.empty()) continue;
    std::optional<int64_t> seed = ParseInt64(line);
    ASSERT_TRUE(seed.has_value()) << "bad corpus line: " << line;
    auto fuzzed = FuzzScenario(static_cast<uint64_t>(*seed));
    ASSERT_TRUE(fuzzed.ok()) << "seed " << line;
    CompareScenario(fuzzed->scenario, "fuzz seed " + line);
    ++seeds;
  }
  EXPECT_GE(seeds, 50u);
}

/// A database breaking its own constraints in every way the builder has
/// to cope with:
///   parent(id REAL PK, name TEXT NOT NULL UNIQUE) — duplicate ids and
///     names, NULL names;
///   child(pid INTEGER NOT NULL FK -> parent.id, note TEXT) — INTEGER
///     values referencing REAL ids, dangling and NULL references;
///   coded(code TEXT FK -> numbers.n) and numbers(n INTEGER PK) — TEXT
///     digits against INTEGER keys, which must not link;
///   empty(x INTEGER, y TEXT FK -> parent.name) — no rows at all.
Database DirtyDatabase(uint64_t seed) {
  Random rng(seed);
  Schema schema("dirty");
  (void)schema.AddRelation(RelationDef(
      "parent", {{"id", DataType::kReal}, {"name", DataType::kText}}));
  (void)schema.AddRelation(RelationDef(
      "child", {{"pid", DataType::kInteger}, {"note", DataType::kText}}));
  (void)schema.AddRelation(
      RelationDef("numbers", {{"n", DataType::kInteger}}));
  (void)schema.AddRelation(
      RelationDef("coded", {{"code", DataType::kText}}));
  (void)schema.AddRelation(RelationDef(
      "empty", {{"x", DataType::kInteger}, {"y", DataType::kText}}));
  schema.AddConstraint(Constraint::PrimaryKey("parent", {"id"}));
  schema.AddConstraint(Constraint::NotNull("parent", "name"));
  schema.AddConstraint(Constraint::Unique("parent", {"name"}));
  schema.AddConstraint(Constraint::NotNull("child", "pid"));
  schema.AddConstraint(
      Constraint::ForeignKey("child", {"pid"}, "parent", {"id"}));
  schema.AddConstraint(Constraint::PrimaryKey("numbers", {"n"}));
  schema.AddConstraint(
      Constraint::ForeignKey("coded", {"code"}, "numbers", {"n"}));
  schema.AddConstraint(
      Constraint::ForeignKey("empty", {"y"}, "parent", {"name"}));
  auto db = Database::Create(std::move(schema));
  EXPECT_TRUE(db.ok());

  Table* parent = *db->mutable_table("parent");
  const size_t parents = 4 + rng.UniformUint64(12);
  for (size_t i = 0; i < parents; ++i) {
    const double id = static_cast<double>(rng.UniformUint64(parents));
    Value name = rng.Bernoulli(0.2)
                     ? Value::Null()
                     : Value::Text("p" + std::to_string(rng.UniformUint64(6)));
    EXPECT_TRUE(parent->AppendRow({Value::Real(id), std::move(name)}).ok());
  }
  Table* child = *db->mutable_table("child");
  const size_t children = rng.UniformUint64(30);
  for (size_t i = 0; i < children; ++i) {
    Value pid = rng.Bernoulli(0.15)
                    ? Value::Null()
                    : Value::Integer(static_cast<int64_t>(
                          rng.UniformUint64(parents + 4)));
    Value note = rng.Bernoulli(0.3) ? Value::Null()
                                    : Value::Text(rng.Word(1, 2));
    EXPECT_TRUE(child->AppendRow({std::move(pid), std::move(note)}).ok());
  }
  Table* numbers = *db->mutable_table("numbers");
  Table* coded = *db->mutable_table("coded");
  for (int64_t n = 0; n < 5; ++n) {
    EXPECT_TRUE(numbers->AppendRow({Value::Integer(n)}).ok());
    EXPECT_TRUE(coded->AppendRow({Value::Text(std::to_string(n))}).ok());
  }
  return std::move(*db);
}

TEST(CsgDifferentialTest, SeededDirtyDatabases) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    CompareDatabase(DirtyDatabase(seed), "dirty seed " + std::to_string(seed),
                    Paths::kAllNodePairs);
  }
}

/// The equality relationship leaving attribute node `from`.
RelationshipId EqualityFrom(const CsgGraph& graph, NodeId from) {
  for (RelationshipId id : graph.OutgoingOf(from)) {
    if (graph.relationship(id).kind == CsgEdgeKind::kEquality) return id;
  }
  ADD_FAILURE() << "no equality relationship";
  return 0;
}

TEST(CsgDifferentialTest, EqualityMatchesByValueNotByRepresentation) {
  Database db = DirtyDatabase(7);
  Csg csg = BuildCsg(db);
  const CsgGraph& graph = csg.graph;
  // TEXT "3" never equals INTEGER 3: no coded value has its number.
  NodeId code = *graph.FindAttributeNode("coded", "code");
  EXPECT_EQ(csg.instance.LinkCount(EqualityFrom(graph, code)), 0u);

  // INTEGER pids link to the equal REAL ids, and a path ending on that
  // equality hop reports the child's INTEGER representation.
  NodeId pid = *graph.FindAttributeNode("child", "pid");
  const RelationshipId equality = EqualityFrom(graph, pid);
  EXPECT_GT(csg.instance.LinkCount(equality), 0u);
  NodeId child = *graph.FindTableNode("child");
  auto best = FindBestPath(graph, child, *graph.FindAttributeNode("parent",
                                                                  "id"));
  ASSERT_TRUE(best.has_value());
  ASSERT_EQ(best->path.back(), equality);
  size_t linked_rows = 0;
  for (ElementId row = 0; row < csg.instance.ElementCount(child); ++row) {
    for (const Value& value :
         csg.instance.ReachableViaPath(graph, best->path, row)) {
      EXPECT_EQ(value.type(), DataType::kInteger);
      ++linked_rows;
    }
  }
  EXPECT_GT(linked_rows, 0u);
}

}  // namespace
}  // namespace efes
