#include "efes/lint/registry.h"

#include <utility>

#include "efes/common/file_io.h"

namespace efes::lint {

std::vector<ManifestEntry> ParseManifest(std::string_view content) {
  std::vector<ManifestEntry> entries;
  int line_number = 0;
  size_t pos = 0;
  while (pos <= content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string_view::npos) eol = content.size();
    std::string_view line = content.substr(pos, eol - pos);
    ++line_number;
    pos = eol + 1;

    size_t start = line.find_first_not_of(" \t");
    if (start == std::string_view::npos) continue;
    std::string_view trimmed = line.substr(start);
    if (trimmed.rfind("- `", 0) != 0) continue;
    if (line.find("(dynamic)") != std::string_view::npos) continue;
    size_t name_begin = 3;
    size_t name_end = trimmed.find('`', name_begin);
    if (name_end == std::string_view::npos || name_end == name_begin) {
      continue;
    }
    entries.push_back(
        {std::string(trimmed.substr(name_begin, name_end - name_begin)),
         line_number});
    if (eol == content.size()) break;
  }
  return entries;
}

Result<RegistryManifests> LoadRegistryDir(const std::string& dir) {
  RegistryManifests manifests;
  manifests.metrics_path = dir + "/metrics.md";
  manifests.faults_path = dir + "/faults.md";
  manifests.flags_path = dir + "/flags.md";

  EFES_ASSIGN_OR_RETURN(std::string metrics,
                        ReadFileToString(manifests.metrics_path));
  EFES_ASSIGN_OR_RETURN(std::string faults,
                        ReadFileToString(manifests.faults_path));
  EFES_ASSIGN_OR_RETURN(std::string flags,
                        ReadFileToString(manifests.flags_path));

  manifests.metrics = ParseManifest(metrics);
  manifests.faults = ParseManifest(faults);
  manifests.flags = ParseManifest(flags);
  return manifests;
}

}  // namespace efes::lint
