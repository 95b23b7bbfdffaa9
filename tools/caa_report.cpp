// caa-report: render virtual-time telemetry timelines and gate regressions.
//
//   caa-report RUN.json                 sparkline timeline (+ legend)
//   caa-report RUN.json --table         aligned per-window table
//   caa-report RUN.json --json          normalized JSON re-emit
//   caa-report --compare A.json B.json [--threshold 0.15]
//       Diffs every numeric leaf of two reports (telemetry exports or
//       BENCH_*.json files). Wall-clock figures (*_ms, wall_ms*, *_per_sec,
//       speedup, overhead, threads, nproc, repetitions) are
//       machine-dependent and excluded.
//       Leaves drifting beyond the threshold — or present in A but gone in
//       B — fail the gate.
//
// Exit codes: 0 ok, 1 regression or unreadable input, 2 usage error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/timeseries.h"
#include "util/json_parse.h"

namespace {

using caa::obs::TimeSeriesTable;
using caa::util::JsonValue;

void usage() {
  std::fprintf(stderr,
               "usage: caa-report RUN.json [--table] [--json]\n"
               "       caa-report --compare A.json B.json [--threshold F]\n");
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Machine-dependent figures never gate: they vary run to run on the same
/// commit. Everything else in the repo's reports is deterministic.
bool excluded_key(const std::string& key) {
  auto ends_with = [&key](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return key.size() >= n && key.compare(key.size() - n, n, suffix) == 0;
  };
  // Format revisions are metadata, not metrics: a schema bump must not
  // read as a perf regression.
  return key == "speedup" || key == "overhead" || key == "threads" ||
         key == "nproc" || key == "repetitions" || key == "schema_version" ||
         key == "version" || key.starts_with("wall_ms") ||
         ends_with("_ms") || ends_with("_per_sec");
}

/// Flattens every numeric leaf into path -> value. Array elements are
/// labelled by their "config" / "name" / "index" member when present, so
/// paths stay stable under row reordering.
void flatten(const JsonValue& value, const std::string& path,
             std::map<std::string, double>& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNumber:
      out[path] = value.number;
      return;
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.members) {
        if (excluded_key(key)) continue;
        flatten(member, path.empty() ? key : path + "." + key, out);
      }
      return;
    case JsonValue::Kind::kArray: {
      for (std::size_t i = 0; i < value.elements.size(); ++i) {
        const JsonValue& element = value.elements[i];
        std::string label = std::to_string(i);
        if (element.is_object()) {
          for (const char* key : {"config", "name", "index"}) {
            if (const JsonValue* id = element.find(key);
                id != nullptr && (id->is_string() || id->is_number())) {
              label = id->is_string() ? id->string
                                      : std::to_string(id->as_int());
              break;
            }
          }
        }
        flatten(element, path + "[" + label + "]", out);
      }
      return;
    }
    default:
      return;  // strings/bools/nulls never gate
  }
}

int compare(const std::string& path_a, const std::string& path_b,
            double threshold) {
  std::string text_a;
  std::string text_b;
  if (!read_file(path_a, text_a)) {
    std::fprintf(stderr, "caa-report: cannot read %s\n", path_a.c_str());
    return 1;
  }
  if (!read_file(path_b, text_b)) {
    std::fprintf(stderr, "caa-report: cannot read %s\n", path_b.c_str());
    return 1;
  }
  const auto doc_a = caa::util::parse_json(text_a);
  const auto doc_b = caa::util::parse_json(text_b);
  if (!doc_a.is_ok() || !doc_b.is_ok()) {
    std::fprintf(stderr, "caa-report: malformed JSON: %s\n",
                 (!doc_a.is_ok() ? doc_a.status() : doc_b.status())
                     .message()
                     .c_str());
    return 1;
  }
  std::map<std::string, double> a;
  std::map<std::string, double> b;
  flatten(doc_a.value(), "", a);
  flatten(doc_b.value(), "", b);

  std::size_t checked = 0;
  std::size_t flagged = 0;
  for (const auto& [key, va] : a) {
    const auto it = b.find(key);
    if (it == b.end()) {
      std::printf("MISSING  %s (%.6g -> absent)\n", key.c_str(), va);
      ++flagged;
      continue;
    }
    ++checked;
    const double vb = it->second;
    const double scale = std::max(std::fabs(va), 1.0);
    const double drift = std::fabs(vb - va) / scale;
    if (drift > threshold) {
      std::printf("DRIFT    %s: %.6g -> %.6g (%+.1f%%)\n", key.c_str(), va,
                  vb, (vb - va) / scale * 100.0);
      ++flagged;
    }
  }
  std::size_t added = 0;
  for (const auto& [key, vb] : b) {
    if (!a.contains(key)) ++added;
  }
  std::printf(
      "compare: %zu leaves checked, %zu flagged, %zu added (threshold "
      "%.0f%%)\n",
      checked, flagged, added, threshold * 100.0);
  return flagged == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string compare_a;
  std::string compare_b;
  bool want_compare = false;
  bool want_table = false;
  bool want_json = false;
  double threshold = 0.15;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--compare") {
      if (i + 2 >= argc) {
        usage();
        return 2;
      }
      want_compare = true;
      compare_a = argv[++i];
      compare_b = argv[++i];
    } else if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
    } else if (arg == "--table") {
      want_table = true;
    } else if (arg == "--json") {
      want_json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return 2;
    } else if (input.empty()) {
      input = arg;
    } else {
      usage();
      return 2;
    }
  }

  if (want_compare) {
    if (!input.empty() || want_table || want_json) {
      usage();
      return 2;
    }
    return compare(compare_a, compare_b, threshold);
  }
  if (input.empty()) {
    usage();
    return 2;
  }

  std::string text;
  if (!read_file(input, text)) {
    std::fprintf(stderr, "caa-report: cannot read %s\n", input.c_str());
    return 1;
  }
  const auto table = TimeSeriesTable::from_json(text);
  if (!table.is_ok()) {
    std::fprintf(stderr, "caa-report: %s\n",
                 table.status().message().c_str());
    return 1;
  }
  if (want_json) {
    std::fputs(table.value().to_json().c_str(), stdout);
    return 0;
  }
  if (want_table) {
    std::fputs(table.value().to_string().c_str(), stdout);
    return 0;
  }
  std::fputs(table.value().timeline().c_str(), stdout);
  return 0;
}
