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

}  // namespace efes
