// Tests for the telemetry subsystem: metrics registry semantics
// (including concurrent updates), FakeClock-driven span nesting and
// durations, Chrome trace-event JSON export (golden + parse check),
// leveled logging, and the report renderers.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "efes/common/json_writer.h"
#include "efes/core/engine.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/statistics.h"
#include "efes/relational/value.h"
#include "efes/scenario/paper_example.h"
#include "efes/common/clock.h"
#include "efes/telemetry/log.h"
#include "efes/common/metrics.h"
#include "efes/telemetry/report.h"
#include "efes/telemetry/trace.h"

namespace efes {
namespace {

// --- A minimal JSON validity checker ---------------------------------------
// Enough of RFC 8259 to assert that exported documents are loadable:
// parses one value and reports whether the whole input was consumed.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!ParseValue()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool ParseString() {
    if (!Consume('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // skip the escaped character
      ++pos_;
    }
    return Consume('"');
  }

  bool ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool ParseObject() {
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      SkipSpace();
      if (!ParseString()) return false;
      SkipSpace();
      if (!Consume(':')) return false;
      SkipSpace();
      if (!ParseValue()) return false;
      SkipSpace();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseArray() {
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      SkipSpace();
      if (!ParseValue()) return false;
      SkipSpace();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseValue() {
    if (Consume('{')) return ParseObject();
    if (Consume('[')) return ParseArray();
    if (pos_ < text_.size() && text_[pos_] == '"') return ParseString();
    if (ParseLiteral("true") || ParseLiteral("false") ||
        ParseLiteral("null")) {
      return true;
    }
    return ParseNumber();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// --- Metrics ---------------------------------------------------------------

TEST(MetricsTest, CounterIncrementsAndResets) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test.phase.count");
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
  registry.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(MetricsTest, SameNameYieldsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x.y.z");
  Counter& b = registry.GetCounter("x.y.z");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
  // Distinct metric kinds live in distinct namespaces.
  registry.GetGauge("x.y.z").Set(7.0);
  EXPECT_EQ(a.Value(), 1u);
}

TEST(MetricsTest, GaugeHoldsLastValue) {
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("test.gauge");
  gauge.Set(3.5);
  gauge.Set(-2.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), -2.0);
}

TEST(MetricsTest, HistogramBucketsAndMoments) {
  MetricsRegistry registry;
  Histogram& histogram =
      registry.GetHistogram("test.latency.ms", {1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket 0 (<= 1)
  histogram.Observe(1.0);    // bucket 0 (inclusive upper bound)
  histogram.Observe(5.0);    // bucket 1
  histogram.Observe(1000.0); // overflow bucket
  EXPECT_EQ(histogram.TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 1006.5);
  std::vector<uint64_t> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("b.second");
  registry.GetCounter("a.first");
  registry.GetGauge("z.gauge").Set(1.0);
  registry.GetHistogram("m.hist").Observe(2.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.first");
  EXPECT_EQ(snapshot.counters[1].name, "b.second");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
  EXPECT_EQ(snapshot.CounterValue("b.second"), 0u);
  EXPECT_EQ(snapshot.CounterValue("missing"), 0u);
}

TEST(MetricsTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("concurrent.counter");
  Histogram& histogram = registry.GetHistogram("concurrent.hist", {0.5});
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
        histogram.Observe(1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(histogram.TotalCount(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 1.0 * kThreads * kIncrements);
}

TEST(MetricsTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        registry.GetCounter("shared." + std::to_string(i)).Increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 100u);
  for (const auto& sample : snapshot.counters) {
    EXPECT_EQ(sample.value, 8u);
  }
}

// --- Spans and tracing -----------------------------------------------------

TEST(TraceTest, FakeClockDrivesSpanDurations) {
  FakeClock clock;
  TraceRecorder recorder;
  recorder.set_clock(&clock);
  recorder.set_enabled(true);
  {
    TraceSpan outer("test.outer", &recorder);
    clock.AdvanceMicros(10);
    {
      TraceSpan inner("test.inner", &recorder);
      clock.AdvanceMicros(5);
    }
    clock.AdvanceMicros(1);
  }
  std::vector<TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 2u);  // recorded at span end: inner first
  EXPECT_EQ(events[0].name, "test.inner");
  EXPECT_EQ(events[0].start_nanos, 10000);
  EXPECT_EQ(events[0].duration_nanos, 5000);
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].start_nanos, 0);
  EXPECT_EQ(events[1].duration_nanos, 16000);
  EXPECT_EQ(events[1].depth, 0);
  // Parent/child linkage.
  EXPECT_EQ(events[0].parent_id, events[1].id);
  EXPECT_EQ(events[1].parent_id, 0);
}

TEST(TraceTest, SiblingsShareTheParent) {
  FakeClock clock;
  TraceRecorder recorder;
  recorder.set_clock(&clock);
  recorder.set_enabled(true);
  {
    TraceSpan root("test.root", &recorder);
    { TraceSpan a("test.a", &recorder); clock.AdvanceMicros(1); }
    { TraceSpan b("test.b", &recorder); clock.AdvanceMicros(2); }
  }
  std::vector<TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "test.a");
  EXPECT_EQ(events[1].name, "test.b");
  EXPECT_EQ(events[2].name, "test.root");
  EXPECT_EQ(events[0].parent_id, events[2].id);
  EXPECT_EQ(events[1].parent_id, events[2].id);
  EXPECT_NE(events[0].id, events[1].id);
}

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  { TraceSpan span("test.ignored", &recorder); }
  EXPECT_TRUE(recorder.events().empty());
}

TEST(TraceTest, SpanFeedsLatencyHistogramEvenWhenDisabled) {
  FakeClock clock;
  TraceRecorder recorder;
  recorder.set_clock(&clock);  // disabled
  MetricsRegistry registry;
  Histogram& latency = registry.GetHistogram("span.ms");
  {
    TraceSpan span("test.timed", &recorder, &latency);
    clock.AdvanceMillis(3);
  }
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_EQ(latency.TotalCount(), 1u);
  EXPECT_DOUBLE_EQ(latency.Sum(), 3.0);
}

TEST(TraceTest, ClearDiscardsEvents) {
  FakeClock clock;
  TraceRecorder recorder;
  recorder.set_clock(&clock);
  recorder.set_enabled(true);
  { TraceSpan span("test.x", &recorder); }
  ASSERT_EQ(recorder.events().size(), 1u);
  recorder.Clear();
  EXPECT_TRUE(recorder.events().empty());
}

TEST(TraceTest, ChromeTraceJsonGolden) {
  FakeClock clock;
  TraceRecorder recorder;
  recorder.set_clock(&clock);
  recorder.set_enabled(true);
  {
    TraceSpan outer("test.outer", &recorder);
    clock.AdvanceMicros(10);
    {
      TraceSpan inner("test.inner", &recorder);
      clock.AdvanceMicros(5);
    }
    clock.AdvanceMicros(1);
  }
  // The golden rendering: complete ("X") events with microsecond ts/dur,
  // children recorded before their parents (spans record at end).
  EXPECT_EQ(
      recorder.ToChromeTraceJson(),
      "{\"traceEvents\":["
      "{\"name\":\"test.inner\",\"cat\":\"efes\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":5,\"pid\":1,\"tid\":0,"
      "\"args\":{\"depth\":1,\"id\":2,\"parent\":1}},"
      "{\"name\":\"test.outer\",\"cat\":\"efes\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":16,\"pid\":1,\"tid\":0,"
      "\"args\":{\"depth\":0,\"id\":1,\"parent\":0}}"
      "],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceTest, ChromeTraceJsonIsLoadable) {
  FakeClock clock;
  TraceRecorder recorder;
  recorder.set_clock(&clock);
  recorder.set_enabled(true);
  {
    // EFES_LINT_ALLOW(metric-name): exercises escape rendering, not naming
    TraceSpan a("outer \"quoted\" name", &recorder);
    clock.AdvanceMicros(3);
    // EFES_LINT_ALLOW(metric-name): exercises escape rendering, not naming
    TraceSpan b("inner\nline", &recorder);
    clock.AdvanceMicros(2);
  }
  std::string json = recorder.ToChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// --- Logging ---------------------------------------------------------------

TEST(LogTest, LevelsFilterAndSinkCaptures) {
  Logger logger;
  CaptureSink sink;
  logger.set_sink(&sink);
  logger.set_level(LogLevel::kWarn);
  EXPECT_FALSE(logger.ShouldLog(LogLevel::kInfo));
  EXPECT_TRUE(logger.ShouldLog(LogLevel::kError));
  logger.Log(LogLevel::kInfo, "dropped");
  logger.Log(LogLevel::kWarn, "kept");
  logger.Log(LogLevel::kError, "also kept");
  std::vector<CaptureSink::Entry> entries = sink.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].message, "kept");
  EXPECT_EQ(entries[1].level, LogLevel::kError);
}

TEST(LogTest, DisabledMacroDoesNotEvaluateMessage) {
  // The global logger defaults to kOff, so the message expression (which
  // would flip `evaluated`) must not run.
  ASSERT_EQ(Logger::Global().level(), LogLevel::kOff);
  bool evaluated = false;
  auto expensive = [&evaluated] {
    evaluated = true;
    return std::string("never built");
  };
  EFES_LOG(LogLevel::kError, expensive());
  EXPECT_FALSE(evaluated);
}

TEST(LogTest, ParseLogLevelRoundTrips) {
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(LogLevelToString(LogLevel::kWarn), "warn");
}

// --- Reports ---------------------------------------------------------------

TEST(ReportTest, RendersMetricsTable) {
  MetricsRegistry registry;
  registry.GetCounter("engine.run.count").Increment(2);
  registry.GetGauge("csg.build.nodes").Set(17.0);
  registry.GetHistogram("engine.run.ms").Observe(4.0);
  std::string report = RenderMetricsReport(registry.Snapshot());
  EXPECT_NE(report.find("engine.run.count"), std::string::npos);
  EXPECT_NE(report.find("counter"), std::string::npos);
  EXPECT_NE(report.find("17"), std::string::npos);
  EXPECT_NE(report.find("histogram"), std::string::npos);
  EXPECT_EQ(RenderMetricsReport(MetricsSnapshot{}), "");
}

TEST(ReportTest, OnlyTimingHistogramsCarryMilliseconds) {
  MetricsRegistry registry;
  registry.GetHistogram("engine.run.ms").Observe(4.0);
  registry.GetHistogram("parallel.pool.worker_busy_ms").Observe(2.0);
  registry.GetHistogram("parallel.pool.worker_items").Observe(3.0);
  const std::string report = RenderMetricsReport(registry.Snapshot());
  auto row = [&report](const std::string& name) {
    const size_t begin = report.find(name);
    EXPECT_NE(begin, std::string::npos) << name;
    return report.substr(begin, report.find('\n', begin) - begin);
  };
  EXPECT_NE(row("engine.run.ms").find("mean 4 ms"), std::string::npos);
  EXPECT_NE(row("engine.run.ms").find("total 4 ms"), std::string::npos);
  EXPECT_NE(row("worker_busy_ms").find("max 2 ms"), std::string::npos);
  const std::string items = row("parallel.pool.worker_items");
  EXPECT_NE(items.find("mean 3, "), std::string::npos) << items;
  EXPECT_NE(items.find("total 3"), std::string::npos) << items;
  EXPECT_EQ(items.find(" ms"), std::string::npos) << items;
}

TEST(ReportTest, WriteMetricsJsonIsLoadable) {
  MetricsRegistry registry;
  registry.GetCounter("a.b.c").Increment(3);
  // EFES_LINT_ALLOW(metric-name): exercises escape rendering, not naming
  registry.GetGauge("g\"quoted\"").Set(0.5);
  registry.GetHistogram("h.ms").Observe(1.5);
  JsonWriter json;
  WriteMetricsJson(registry.Snapshot(), json);
  std::string text = json.ToString();
  EXPECT_TRUE(JsonChecker(text).Valid()) << text;
  EXPECT_NE(text.find("\"a.b.c\":3"), std::string::npos);
}

// --- Instrumented library code --------------------------------------------

TEST(InstrumentationTest, ProfilingBumpsStatisticsCounters) {
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  std::vector<Value> column = {Value::Integer(1), Value::Integer(2),
                               Value::Null()};
  ASSERT_TRUE(ProfileColumn(column, DataType::kInteger).ok());
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterValue("profiling.statistics.columns"),
            before.CounterValue("profiling.statistics.columns") + 1);
  EXPECT_EQ(after.CounterValue("profiling.statistics.cells"),
            before.CounterValue("profiling.statistics.cells") + 3);
}

TEST(InstrumentationTest, AssessPassesAreNotTimedAsRuns) {
  // engine.run.ms is the wall time of end-to-end runs. A phase-1-only
  // AssessComplexity pass is counted in engine.assess.runs instead.
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const EfesEngine engine = MakeDefaultEngine();
  MetricsRegistry& registry = MetricsRegistry::Global();
  const Histogram& run_ms = registry.GetHistogram("engine.run.ms");
  const uint64_t timed_runs = run_ms.TotalCount();
  const uint64_t assess_runs =
      registry.Snapshot().CounterValue("engine.assess.runs");
  ASSERT_TRUE(engine.AssessComplexity(*scenario).ok());
  EXPECT_EQ(run_ms.TotalCount(), timed_runs);
  EXPECT_EQ(registry.Snapshot().CounterValue("engine.assess.runs"),
            assess_runs + 1);
  ASSERT_TRUE(engine.Run(*scenario).ok());
  EXPECT_EQ(run_ms.TotalCount(), timed_runs + 1);
}

}  // namespace
}  // namespace efes
