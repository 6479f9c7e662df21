#include "efes/lint/sarif.h"

#include <set>
#include <string>

#include "efes/common/json_writer.h"

namespace efes::lint {

std::string RenderSarif(const std::vector<Finding>& findings) {
  std::set<std::string> rule_ids;
  for (const Finding& f : findings) rule_ids.insert(f.check);

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("$schema").String(
      "https://json.schemastore.org/sarif-2.1.0.json");
  writer.Key("version").String("2.1.0");
  writer.Key("runs").BeginArray();
  writer.BeginObject();

  writer.Key("tool").BeginObject();
  writer.Key("driver").BeginObject();
  writer.Key("name").String("efes_lint");
  writer.Key("rules").BeginArray();
  for (const std::string& id : rule_ids) {
    writer.BeginObject();
    writer.Key("id").String(id);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();  // driver
  writer.EndObject();  // tool

  writer.Key("results").BeginArray();
  for (const Finding& f : findings) {
    writer.BeginObject();
    writer.Key("ruleId").String(f.check);
    writer.Key("level").String(f.suppressed ? "note" : "error");
    writer.Key("message").BeginObject();
    writer.Key("text").String(f.message);
    writer.EndObject();
    writer.Key("locations").BeginArray();
    writer.BeginObject();
    writer.Key("physicalLocation").BeginObject();
    writer.Key("artifactLocation").BeginObject();
    writer.Key("uri").String(f.file);
    writer.EndObject();
    writer.Key("region").BeginObject();
    writer.Key("startLine").Number(static_cast<int64_t>(f.line));
    writer.EndObject();
    writer.EndObject();  // physicalLocation
    writer.EndObject();  // location
    writer.EndArray();
    if (f.suppressed) {
      writer.Key("suppressions").BeginArray();
      writer.BeginObject();
      writer.Key("kind").String("inSource");
      writer.EndObject();
      writer.EndArray();
    }
    writer.EndObject();  // result
  }
  writer.EndArray();

  writer.EndObject();  // run
  writer.EndArray();
  writer.EndObject();
  return writer.ToString();
}

}  // namespace efes::lint
