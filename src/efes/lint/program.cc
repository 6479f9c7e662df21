#include "efes/lint/program.h"

#include <algorithm>
#include <climits>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace efes::lint {

bool PathMatchesAny(std::string_view path,
                    const std::vector<std::string>& patterns) {
  for (const std::string& p : patterns) {
    if (path.find(p) != std::string_view::npos) return true;
  }
  return false;
}

namespace {

constexpr int kTopRank = INT_MAX;
constexpr int kUnknownRank = -1;

/// The layer rank of a path: top for tools/tests/bench, the matching
/// LayerRule's rank for efes/ directories, kUnknownRank otherwise.
int RankOf(std::string_view path, const LintConfig& config) {
  if (PathMatchesAny(path, config.top_paths)) return kTopRank;
  for (const LayerRule& rule : config.layers) {
    if (path.find(rule.dir) != std::string_view::npos) return rule.rank;
  }
  return kUnknownRank;
}

/// The "efes/..." include key of an analyzed file path, or "" when the
/// path is not under an efes/ directory (tools, tests — never included).
std::string IncludeKeyOf(std::string_view path) {
  size_t pos = path.find("efes/");
  if (pos == std::string_view::npos) return std::string();
  return std::string(path.substr(pos));
}

/// The efes/<dir>/ prefix of an include key, for messages.
std::string DirOf(std::string_view key) {
  size_t slash = key.rfind('/');
  if (slash == std::string_view::npos) return std::string(key);
  return std::string(key.substr(0, slash + 1));
}

void CheckLockDiscipline(const std::vector<FileSummary>& summaries,
                         std::vector<Finding>* findings) {
  // (class, member) -> required mutex.
  std::map<std::pair<std::string, std::string>, std::string> guarded;
  for (const FileSummary& summary : summaries) {
    for (const GuardedMember& g : summary.guarded) {
      guarded.emplace(std::make_pair(g.class_name, g.member),
                      g.mutex_name);
    }
  }
  // Unannotated members whose every access happens under the same
  // mutex: (class, member) -> common held mutexes so far, plus the
  // first access site for the finding anchor.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      inferred;
  std::map<std::pair<std::string, std::string>,
           std::pair<std::string, int>>
      first_site;
  for (const FileSummary& summary : summaries) {
    for (const MemberAccess& access : summary.accesses) {
      auto key = std::make_pair(access.class_name, access.member);
      auto it = guarded.find(key);
      if (it != guarded.end()) {
        const std::string& mutex = it->second;
        if (std::find(access.held_mutexes.begin(),
                      access.held_mutexes.end(),
                      mutex) != access.held_mutexes.end()) {
          continue;
        }
        findings->push_back(
            {summary.path, access.line, std::string(kLockDiscipline),
             access.class_name + "::" + access.member +
                 " is EFES_GUARDED_BY(" + mutex +
                 ") but accessed outside a lock region of it",
             false});
        continue;
      }
      // Inference direction: intersect the held-mutex sets across every
      // access; a non-empty result at the end means the member is
      // consistently locked but not annotated — deleting an annotation
      // must fail the check, not silently relax it.
      auto [entry, inserted] =
          inferred.emplace(key, access.held_mutexes);
      if (inserted) {
        first_site.emplace(key,
                           std::make_pair(summary.path, access.line));
      } else {
        std::vector<std::string> common;
        for (const std::string& m : entry->second) {
          if (std::find(access.held_mutexes.begin(),
                        access.held_mutexes.end(),
                        m) != access.held_mutexes.end()) {
            common.push_back(m);
          }
        }
        entry->second = std::move(common);
      }
    }
  }
  for (const auto& [key, mutexes] : inferred) {
    if (mutexes.empty()) continue;
    const auto& [path, line] = first_site.at(key);
    findings->push_back(
        {path, line, std::string(kLockDiscipline),
         key.first + "::" + key.second +
             " is always accessed under " + mutexes.front() +
             " but is not annotated EFES_GUARDED_BY(" + mutexes.front() +
             ")",
         false});
  }
}

void CheckCancellationCoverage(const std::vector<FileSummary>& summaries,
                               const LintConfig& config,
                               std::vector<Finding>* findings) {
  // Name-based call graph: callees merged across every definition
  // sharing a name (conservative: reachability only gets easier).
  std::map<std::string, std::set<std::string>> graph;
  for (const FileSummary& summary : summaries) {
    for (const FunctionInfo& fn : summary.functions) {
      graph[fn.name].insert(fn.calls.begin(), fn.calls.end());
    }
  }

  auto reaches_checkpoint = [&](const std::vector<std::string>& seeds) {
    std::set<std::string> visited;
    std::vector<std::string> stack(seeds.begin(), seeds.end());
    while (!stack.empty()) {
      std::string name = std::move(stack.back());
      stack.pop_back();
      if (name == config.checkpoint_function) return true;
      if (!visited.insert(name).second) continue;
      auto it = graph.find(name);
      if (it == graph.end()) continue;
      for (const std::string& callee : it->second) {
        if (visited.count(callee) == 0) stack.push_back(callee);
      }
    }
    return false;
  };

  for (const FileSummary& summary : summaries) {
    if (!PathMatchesAny(summary.path, config.checkpoint_dirs)) continue;
    for (const FunctionInfo& fn : summary.functions) {
      bool root_name = std::ranges::find(config.checkpoint_roots, fn.name) !=
                       config.checkpoint_roots.end();
      bool fans_out = false;
      for (const std::string& call : fn.calls) {
        if (std::ranges::find(config.parallel_primitives, call) !=
            config.parallel_primitives.end()) {
          fans_out = true;
          break;
        }
      }
      if (!root_name && !fans_out) continue;
      if (reaches_checkpoint(fn.calls)) continue;
      std::string label = fn.class_name.empty()
                              ? fn.name
                              : fn.class_name + "::" + fn.name;
      findings->push_back(
          {summary.path, fn.line, std::string(kCancellation),
           label + (root_name ? " is an estimation root"
                              : " fans out over the parallel pool") +
               " but never reaches " + config.checkpoint_function +
               " — long work here cannot be cancelled",
           false});
    }
  }
}

void CheckLayering(const std::vector<FileSummary>& summaries,
                   const LintConfig& config,
                   std::vector<Finding>* findings) {
  for (const FileSummary& summary : summaries) {
    int file_rank = RankOf(summary.path, config);
    if (file_rank == kUnknownRank &&
        summary.path.find("efes/") != std::string::npos) {
      findings->push_back(
          {summary.path, 1, std::string(kLayering),
           "directory of " + summary.path +
               " is not in the declared layer order "
               "(LintConfig::layers) — add it at the right rank",
           false});
      continue;
    }
    for (const IncludeEdge& include : summary.includes) {
      int target_rank = kUnknownRank;
      for (const LayerRule& rule : config.layers) {
        if (include.target.find(rule.dir) != std::string::npos) {
          target_rank = rule.rank;
          break;
        }
      }
      if (target_rank == kUnknownRank) {
        findings->push_back(
            {summary.path, include.line, std::string(kLayering),
             "included header \"" + include.target +
                 "\" is in no declared layer "
                 "(LintConfig::layers)",
             false});
        continue;
      }
      if (file_rank != kTopRank && file_rank != kUnknownRank &&
          target_rank > file_rank) {
        findings->push_back(
            {summary.path, include.line, std::string(kLayering),
             "layering back-edge: " + DirOf(IncludeKeyOf(summary.path)) +
                 " (layer " + std::to_string(file_rank) +
                 ") includes \"" + include.target + "\" (layer " +
                 std::to_string(target_rank) + ")",
             false});
      }
    }
  }

  // Include cycles among the analyzed headers (file-level DFS).
  std::map<std::string, const FileSummary*> by_key;
  for (const FileSummary& summary : summaries) {
    std::string key = IncludeKeyOf(summary.path);
    if (!key.empty()) by_key.emplace(std::move(key), &summary);
  }
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> path_stack;
  std::set<std::string> reported;

  // Iterative DFS with an explicit stack of (node, next-edge-index).
  for (const auto& [start, summary_ptr] : by_key) {
    (void)summary_ptr;
    if (color[start] != 0) continue;
    std::vector<std::pair<std::string, size_t>> stack{{start, 0}};
    color[start] = 1;
    path_stack.push_back(start);
    while (!stack.empty()) {
      auto& [node, edge_index] = stack.back();
      const FileSummary* node_summary = by_key.at(node);
      if (edge_index >= node_summary->includes.size()) {
        color[node] = 2;
        path_stack.pop_back();
        stack.pop_back();
        continue;
      }
      const IncludeEdge& edge = node_summary->includes[edge_index++];
      auto target_it = by_key.find(edge.target);
      if (target_it == by_key.end()) continue;
      const std::string& target = target_it->first;
      if (color[target] == 1) {
        // Back edge: the cycle is path_stack from `target` to `node`.
        auto cycle_begin = std::find(path_stack.begin(), path_stack.end(),
                                     target);
        std::vector<std::string> cycle(cycle_begin, path_stack.end());
        // Canonical rotation (smallest key first) for deduplication.
        auto smallest = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), smallest, cycle.end());
        std::string joined;
        for (const std::string& n : cycle) {
          joined += n;
          joined += " -> ";
        }
        joined += cycle.front();
        if (reported.insert(joined).second) {
          findings->push_back({node_summary->path, edge.line,
                               std::string(kLayering),
                               "include cycle: " + joined, false});
        }
        continue;
      }
      if (color[target] == 0) {
        color[target] = 1;
        path_stack.push_back(target);
        stack.push_back({target, 0});
      }
    }
  }
}

void CheckRegistry(const std::vector<FileSummary>& summaries,
                   const RegistryManifests& registry,
                   std::vector<Finding>* findings) {
  struct Direction {
    LiteralSite::Kind kind;
    const std::vector<ManifestEntry>* manifest;
    const std::string* manifest_path;
    std::string_view noun;
  };
  const Direction directions[] = {
      {LiteralSite::Kind::kMetric, &registry.metrics,
       &registry.metrics_path, "metric/span name"},
      {LiteralSite::Kind::kFault, &registry.faults, &registry.faults_path,
       "fault point"},
      {LiteralSite::Kind::kFlag, &registry.flags, &registry.flags_path,
       "flag"},
  };
  for (const Direction& dir : directions) {
    std::set<std::string> listed;
    for (const ManifestEntry& entry : *dir.manifest) {
      listed.insert(entry.name);
    }
    std::set<std::string> used;
    for (const FileSummary& summary : summaries) {
      for (const LiteralSite& site : summary.literals) {
        if (site.kind != dir.kind) continue;
        used.insert(site.name);
        if (listed.count(site.name) == 0) {
          findings->push_back(
              {summary.path, site.line, std::string(kRegistry),
               std::string(dir.noun) + " '" + site.name +
                   "' is not listed in " + *dir.manifest_path,
               false});
        }
      }
    }
    for (const ManifestEntry& entry : *dir.manifest) {
      if (used.count(entry.name) == 0) {
        findings->push_back(
            {*dir.manifest_path, entry.line, std::string(kRegistry),
             "stale registry entry '" + entry.name +
                 "': no call site in the analyzed tree — remove it or "
                 "mark it (dynamic)",
             false});
      }
    }
  }
}

}  // namespace

void CheckProgram(const std::vector<FileSummary>& summaries,
                  const LintConfig& config,
                  const RegistryManifests* registry,
                  std::vector<Finding>* findings) {
  CheckLockDiscipline(summaries, findings);
  CheckCancellationCoverage(summaries, config, findings);
  CheckLayering(summaries, config, findings);
  if (registry != nullptr) CheckRegistry(summaries, *registry, findings);
}

}  // namespace efes::lint
