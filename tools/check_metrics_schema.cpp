// Validates a MetricsSnapshot JSON export against tools/metrics_schema.json.
//
//   check_metrics_schema <metrics.json> <schema.json>
//
// The schema pins the export layout that tests/metrics_schema_complete.cmake
// and the CI smoke step depend on: the three top-level sections, the
// per-histogram field set, and the metric names a Client-produced snapshot
// must always contain. The check is BIDIRECTIONAL:
// every required_* name must be present in the export, and every exported
// name must be declared in the schema (required_* or optional_* — the
// optional lists hold runtime-dependent entries like the threaded
// transport's net.handler_errors). Registering a new instrument in code
// without adding it to the schema is a lint failure, so the schema stays a
// complete inventory instead of drifting into a lower bound. Exit 0 =
// valid; any violation prints a diagnostic and exits 1.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/obs/json.h"

namespace {

using mendel::obs::Json;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw mendel::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> string_list(const Json& schema, const char* key) {
  const Json* node = schema.find(key);
  if (node == nullptr || !node->is_array()) {
    throw mendel::ParseError(std::string("schema: missing string list '") +
                             key + "'");
  }
  std::vector<std::string> out;
  for (const auto& item : node->array()) out.push_back(item.str());
  return out;
}

int fail(const std::string& message) {
  std::cerr << "check_metrics_schema: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: check_metrics_schema <metrics.json> <schema.json>\n";
    return 2;
  }
  try {
    const Json metrics = Json::parse(read_file(argv[1]));
    const Json schema = Json::parse(read_file(argv[2]));

    if (!metrics.is_object()) return fail("top level is not an object");
    for (const auto& section : string_list(schema, "top_level")) {
      const Json* node = metrics.find(section);
      if (node == nullptr) return fail("missing section '" + section + "'");
      if (!node->is_object()) {
        return fail("section '" + section + "' is not an object");
      }
    }

    const Json& counters = *metrics.find("counters");
    for (const auto& [name, value] : counters.object()) {
      if (!value.is_number() || value.number() < 0) {
        return fail("counter '" + name + "' is not a non-negative number");
      }
    }
    const Json& gauges = *metrics.find("gauges");
    for (const auto& [name, value] : gauges.object()) {
      if (!value.is_number()) {
        return fail("gauge '" + name + "' is not a number");
      }
    }

    const auto histogram_fields = string_list(schema, "histogram_fields");
    const Json& histograms = *metrics.find("histograms");
    for (const auto& [name, value] : histograms.object()) {
      if (!value.is_object()) {
        return fail("histogram '" + name + "' is not an object");
      }
      for (const auto& field : histogram_fields) {
        const Json* node = value.find(field);
        if (node == nullptr) {
          return fail("histogram '" + name + "' lacks field '" + field + "'");
        }
        if (field == "bins") {
          if (!node->is_array()) {
            return fail("histogram '" + name + "' bins is not an array");
          }
          for (const auto& bin : node->array()) {
            if (!bin.is_array() || bin.array().size() != 2 ||
                !bin.array()[0].is_number() || !bin.array()[1].is_number()) {
              return fail("histogram '" + name +
                          "' has a malformed [index, count] bin");
            }
          }
        } else if (!node->is_number()) {
          return fail("histogram '" + name + "' field '" + field +
                      "' is not a number");
        }
      }
    }

    for (const auto& name : string_list(schema, "required_counters")) {
      if (counters.find(name) == nullptr) {
        return fail("required counter '" + name + "' absent");
      }
    }
    for (const auto& name : string_list(schema, "required_gauges")) {
      if (gauges.find(name) == nullptr) {
        return fail("required gauge '" + name + "' absent");
      }
    }
    for (const auto& name : string_list(schema, "required_histograms")) {
      if (histograms.find(name) == nullptr) {
        return fail("required histogram '" + name + "' absent");
      }
    }

    // Reverse direction: every exported name must be inventoried. An
    // unknown name means someone registered a new instrument without
    // declaring it — add it to required_* (always exported) or optional_*
    // (runtime-dependent) in tools/metrics_schema.json.
    const auto check_inventory = [&schema](const Json& section,
                                           const char* kind,
                                           const char* required_key,
                                           const char* optional_key) {
      const auto required = string_list(schema, required_key);
      const auto optional = string_list(schema, optional_key);
      for (const auto& [name, value] : section.object()) {
        const bool known =
            std::find(required.begin(), required.end(), name) !=
                required.end() ||
            std::find(optional.begin(), optional.end(), name) !=
                optional.end();
        if (!known) {
          return std::string(kind) + " '" + name +
                 "' is not declared in the schema; add it to " +
                 required_key + " or " + optional_key;
        }
      }
      return std::string();
    };
    for (const auto& problem :
         {check_inventory(counters, "counter", "required_counters",
                          "optional_counters"),
          check_inventory(gauges, "gauge", "required_gauges",
                          "optional_gauges"),
          check_inventory(histograms, "histogram", "required_histograms",
                          "optional_histograms")}) {
      if (!problem.empty()) return fail(problem);
    }
  } catch (const mendel::Error& e) {
    return fail(e.what());
  }
  std::cout << "metrics schema OK: " << argv[1] << "\n";
  return 0;
}
