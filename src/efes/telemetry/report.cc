#include "efes/telemetry/report.h"

#include <string>
#include <string_view>

#include "efes/common/json_writer.h"
#include "efes/common/string_util.h"
#include "efes/common/text_table.h"

namespace efes {

std::string RenderMetricsReport(const MetricsSnapshot& snapshot) {
  if (snapshot.empty()) return "";
  TextTable table;
  table.SetHeader({"Metric", "Type", "Value", "Detail"});
  for (const auto& counter : snapshot.counters) {
    table.AddRow({counter.name, "counter", std::to_string(counter.value)});
  }
  for (const auto& gauge : snapshot.gauges) {
    table.AddRow({gauge.name, "gauge", FormatDouble(gauge.value, 6)});
  }
  for (const auto& histogram : snapshot.histograms) {
    // Timings end in a ".ms" or "_ms" name component; other histograms
    // (item counts such as parallel.pool.worker_items) are unitless.
    const std::string_view name = histogram.name;
    const bool timing =
        name.size() > 3 && name.substr(name.size() - 2) == "ms" &&
        (name[name.size() - 3] == '.' || name[name.size() - 3] == '_');
    const std::string unit = timing ? " ms" : "";
    table.AddRow({histogram.name, "histogram",
                  std::to_string(histogram.count),
                  "mean " + FormatDouble(histogram.Mean(), 4) + unit +
                      ", p50 " + FormatDouble(histogram.Quantile(0.5), 4) +
                      unit + ", p95 " +
                      FormatDouble(histogram.Quantile(0.95), 4) + unit +
                      ", min " + FormatDouble(histogram.min, 4) + unit +
                      ", max " + FormatDouble(histogram.max, 4) + unit +
                      ", total " + FormatDouble(histogram.sum, 4) + unit});
  }
  return table.ToString();
}

void WriteMetricsJson(const MetricsSnapshot& snapshot, JsonWriter& json) {
  json.BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& counter : snapshot.counters) {
    json.Key(counter.name).Number(static_cast<int64_t>(counter.value));
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& gauge : snapshot.gauges) {
    json.Key(gauge.name).Number(gauge.value);
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& histogram : snapshot.histograms) {
    json.Key(histogram.name)
        .BeginObject()
        .Key("count")
        .Number(static_cast<int64_t>(histogram.count))
        .Key("sum")
        .Number(histogram.sum)
        .Key("mean")
        .Number(histogram.Mean())
        .Key("p50")
        .Number(histogram.Quantile(0.5))
        .Key("p95")
        .Number(histogram.Quantile(0.95))
        .Key("min")
        .Number(histogram.min)
        .Key("max")
        .Number(histogram.max)
        .EndObject();
  }
  json.EndObject();
  json.EndObject();
}

std::string BenchJsonLine(std::string_view bench_name, double wall_ms,
                          size_t threads, const MetricsSnapshot& snapshot) {
  return BenchJsonLine(bench_name, wall_ms, threads, {}, snapshot);
}

BenchJsonField BenchJsonField::Text(std::string key, std::string value) {
  BenchJsonField field;
  field.key = std::move(key);
  field.text = std::move(value);
  return field;
}

BenchJsonField BenchJsonField::Number(std::string key, double value) {
  BenchJsonField field;
  field.key = std::move(key);
  field.number = value;
  field.numeric = true;
  return field;
}

std::string BenchJsonLine(std::string_view bench_name, double wall_ms,
                          size_t threads,
                          const std::vector<BenchJsonField>& extras,
                          const MetricsSnapshot& snapshot) {
  JsonWriter json;
  json.BeginObject()
      .Key("bench")
      .String(bench_name)
      .Key("wall_ms")
      .Number(wall_ms)
      .Key("threads")
      .Number(static_cast<int64_t>(threads));
  for (const BenchJsonField& field : extras) {
    json.Key(field.key);
    if (field.numeric) {
      json.Number(field.number);
    } else {
      json.String(field.text);
    }
  }
  json.Key("counters").BeginObject();
  for (const auto& counter : snapshot.counters) {
    json.Key(counter.name).Number(static_cast<int64_t>(counter.value));
  }
  for (const auto& gauge : snapshot.gauges) {
    json.Key(gauge.name).Number(gauge.value);
  }
  for (const auto& histogram : snapshot.histograms) {
    json.Key(histogram.name + ".count")
        .Number(static_cast<int64_t>(histogram.count));
    json.Key(histogram.name + ".sum_ms").Number(histogram.sum);
    json.Key(histogram.name + ".p50_ms").Number(histogram.Quantile(0.5));
    json.Key(histogram.name + ".p95_ms").Number(histogram.Quantile(0.95));
    json.Key(histogram.name + ".min_ms").Number(histogram.min);
    json.Key(histogram.name + ".max_ms").Number(histogram.max);
  }
  json.EndObject().EndObject();
  return json.ToString();
}

}  // namespace efes
