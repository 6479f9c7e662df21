#include "efes/provenance/render.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/fault.h"
#include "efes/common/string_util.h"

namespace efes {

namespace {

std::string NodeLine(const ProvenanceNode& node) {
  std::string line = "#";
  line += std::to_string(node.id) + " " + node.label;
  if (!node.subject.empty()) line += " (" + node.subject + ")";
  if (node.has_value) line += " = " + FormatDouble(node.value);
  return line;
}

void RenderSubtree(const std::map<uint64_t, const ProvenanceNode*>& by_id,
                   const ProvenanceNode& node, const std::string& prefix,
                   std::set<uint64_t>* expanded, std::ostringstream* out) {
  for (size_t i = 0; i < node.inputs.size(); ++i) {
    auto it = by_id.find(node.inputs[i]);
    if (it == by_id.end()) continue;
    const ProvenanceNode& child = *it->second;
    const bool last = i + 1 == node.inputs.size();
    *out << prefix << (last ? "`- " : "+- ") << NodeLine(child);
    if (!child.inputs.empty() && !expanded->insert(child.id).second) {
      // The DAG shares evidence (thresholds, settings) across consumers;
      // expand each shared subtree once and point back afterwards.
      *out << " (shown above)\n";
      continue;
    }
    *out << "\n";
    RenderSubtree(by_id, child, prefix + (last ? "   " : "|  "), expanded,
                  out);
  }
}

}  // namespace

Result<std::string> RenderProvenanceTree(const ProvenanceSnapshot& snapshot,
                                         std::string_view task_filter) {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("provenance.export"));
  if (snapshot.degraded) {
    return Status::Unavailable(
        "provenance recording degraded; explain tree unavailable");
  }

  std::map<uint64_t, const ProvenanceNode*> by_id;
  std::set<uint64_t> consumed;
  for (const ProvenanceNode& node : snapshot.nodes) {
    by_id[node.id] = &node;
    consumed.insert(node.inputs.begin(), node.inputs.end());
  }

  std::vector<const ProvenanceNode*> roots;
  if (task_filter.empty()) {
    // Root at the total-effort node when the snapshot has one: evidence
    // that never fed a finding (stats below every threshold, unused
    // thresholds) stays in the JSON export but out of the tree. Without
    // a total (e.g. free-standing matcher scores), show every root.
    const ProvenanceNode* total = nullptr;
    for (const ProvenanceNode& node : snapshot.nodes) {
      if (node.kind == ProvenanceKind::kTotalEffort) total = &node;
    }
    if (total != nullptr) {
      roots.push_back(total);
    } else {
      for (const ProvenanceNode& node : snapshot.nodes) {
        if (!consumed.contains(node.id)) roots.push_back(&node);
      }
    }
  } else {
    const ProvenanceNode* task = nullptr;
    for (const ProvenanceNode& node : snapshot.nodes) {
      // `3` and `t3` name the same task.
      const std::string_view ref = node.ref;
      if (!ref.empty() &&
          (ref == task_filter ||
           (ref.starts_with('t') && ref.substr(1) == task_filter))) {
        task = &node;
        break;
      }
    }
    if (task == nullptr) {
      return Status::NotFound("no task with id '" + std::string(task_filter) +
                              "' in the provenance record");
    }
    // Explain the priced number, not just the task: root at the effort
    // node derived from this task when there is one.
    const ProvenanceNode* root = task;
    for (const ProvenanceNode& node : snapshot.nodes) {
      if (node.kind == ProvenanceKind::kTaskEffort &&
          std::find(node.inputs.begin(), node.inputs.end(), task->id) !=
              node.inputs.end()) {
        root = &node;
        break;
      }
    }
    roots.push_back(root);
  }

  std::ostringstream out;
  std::set<uint64_t> expanded;
  for (const ProvenanceNode* root : roots) {
    out << NodeLine(*root) << "\n";
    expanded.insert(root->id);
    RenderSubtree(by_id, *root, "", &expanded, &out);
  }
  return out.str();
}

void WriteProvenanceJson(const ProvenanceSnapshot& snapshot,
                         JsonWriter& json) {
  const bool degraded =
      snapshot.degraded || !CheckFaultPoint("provenance.export").ok();
  json.BeginObject();
  if (degraded) {
    json.Key("degraded").Bool(true).EndObject();
    return;
  }
  json.Key("nodes").BeginArray();
  for (const ProvenanceNode& node : snapshot.nodes) {
    json.BeginObject()
        .Key("id")
        .Number(node.id)
        .Key("kind")
        .String(ProvenanceKindToString(node.kind))
        .Key("label")
        .String(node.label);
    if (!node.subject.empty()) json.Key("subject").String(node.subject);
    if (!node.ref.empty()) json.Key("ref").String(node.ref);
    if (node.has_value) json.Key("value").Number(node.value);
    json.Key("inputs").BeginArray();
    for (uint64_t input : node.inputs) json.Number(input);
    json.EndArray().EndObject();
  }
  json.EndArray().EndObject();
}

}  // namespace efes
