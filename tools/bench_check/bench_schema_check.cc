/// \file bench_schema_check.cc
/// Validates BENCH_*.json artifacts against the schema that
/// bench/bench_report.h writes (schema_version 1). CI runs this over every
/// artifact the bench-smoke job produces; a malformed artifact fails the
/// build instead of being uploaded and silently breaking downstream
/// consumers of the perf trajectory.
///
/// Usage: bench_schema_check FILE...
/// Exit: 0 when every file validates; 1 otherwise (with one diagnostic
/// line per problem).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace pgpub {
namespace {

using obs::JsonValue;

/// Appends "<file>: <problem>" to errors; returns true when clean.
bool CheckMember(const JsonValue& doc, const char* key,
                 bool (JsonValue::*predicate)() const, const char* want,
                 const std::string& file, std::string* errors) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) {
    *errors += file + ": missing member '" + key + "'\n";
    return false;
  }
  if (!(v->*predicate)()) {
    *errors += file + ": member '" + key + "' is not " + want + "\n";
    return false;
  }
  return true;
}

bool CheckMetricsSection(const JsonValue& metrics, const std::string& file,
                         std::string* errors) {
  bool ok = true;
  ok &= CheckMember(metrics, "counters", &JsonValue::is_object, "an object",
                    file, errors);
  ok &= CheckMember(metrics, "gauges", &JsonValue::is_object, "an object",
                    file, errors);
  ok &= CheckMember(metrics, "histograms", &JsonValue::is_object, "an object",
                    file, errors);
  if (!ok) return false;
  for (const auto& [name, counter] : metrics.Find("counters")->members()) {
    if (!counter.is_integer()) {
      *errors += file + ": counter '" + name + "' is not an integer\n";
      ok = false;
    }
  }
  for (const auto& [name, h] : metrics.Find("histograms")->members()) {
    for (const char* key : {"count", "sum", "min", "max"}) {
      const JsonValue* v = h.Find(key);
      if (v == nullptr || !v->is_integer()) {
        *errors += file + ": histogram '" + name + "' lacks integer '" +
                   key + "'\n";
        ok = false;
      }
    }
    const JsonValue* buckets = h.Find("buckets");
    if (buckets == nullptr || !buckets->is_object()) {
      *errors += file + ": histogram '" + name + "' lacks buckets object\n";
      ok = false;
    }
  }
  return ok;
}

/// Serving-latency fields (written by load_server and any future
/// serving bench): latency percentiles must be non-negative numbers and
/// the rejection rate a number in [0, 1]. Rows without them are fine.
bool CheckServingFields(const JsonValue& row, const std::string& file,
                        std::string* errors) {
  bool ok = true;
  for (const char* key : {"p50_ms", "p99_ms"}) {
    const JsonValue* v = row.Find(key);
    if (v == nullptr) continue;
    if (!v->is_number()) {
      *errors += file + ": results member '" + key + "' is not a number\n";
      ok = false;
    } else if (const double ms = v->AsDouble().ok() ? *v->AsDouble() : -1.0;
               !(ms >= 0.0)) {
      *errors += file + ": results member '" + key + "' " +
                 std::to_string(ms) + " is negative\n";
      ok = false;
    }
  }
  if (const JsonValue* rate = row.Find("rejection_rate"); rate != nullptr) {
    if (!rate->is_number()) {
      *errors += file + ": results member 'rejection_rate' is not a number\n";
      ok = false;
    } else {
      const double v = rate->AsDouble().ok() ? *rate->AsDouble() : -1.0;
      if (!(v >= 0.0 && v <= 1.0)) {
        *errors += file + ": results member 'rejection_rate' " +
                   std::to_string(v) + " is outside [0, 1]\n";
        ok = false;
      }
    }
  }
  return ok;
}

bool CheckFile(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", file.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", file.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  const JsonValue& doc = *parsed;
  std::string errors;
  if (!doc.is_object()) {
    errors = file + ": top level is not a JSON object\n";
  } else {
    bool ok = true;
    ok &= CheckMember(doc, "schema_version", &JsonValue::is_integer,
                      "an integer", file, &errors);
    ok &= CheckMember(doc, "name", &JsonValue::is_string, "a string", file,
                      &errors);
    ok &= CheckMember(doc, "params", &JsonValue::is_object, "an object",
                      file, &errors);
    ok &= CheckMember(doc, "wall_ns", &JsonValue::is_integer, "an integer",
                      file, &errors);
    ok &= CheckMember(doc, "iterations", &JsonValue::is_integer,
                      "an integer", file, &errors);
    ok &= CheckMember(doc, "results", &JsonValue::is_array, "an array",
                      file, &errors);
    ok &= CheckMember(doc, "metrics", &JsonValue::is_object, "an object",
                      file, &errors);
    if (ok) {
      const JsonValue* version = doc.Find("schema_version");
      int64_t v = version->AsInt64().ok() ? *version->AsInt64() : -1;
      if (v != 1) {
        errors += file + ": unsupported schema_version " +
                  std::to_string(v) + "\n";
      }
      // Every artifact says what machine it ran on (BenchReport records
      // it), so numbers from different hosts are never compared blind.
      const JsonValue* hardware =
          doc.Find("params")->Find("hardware_threads");
      if (hardware == nullptr || !hardware->is_integer()) {
        errors += file + ": params lack an integer 'hardware_threads'\n";
      }
      for (const JsonValue& row : doc.Find("results")->items()) {
        if (!row.is_object()) {
          errors += file + ": results row is not an object\n";
          break;
        }
        CheckServingFields(row, file, &errors);
      }
      CheckMetricsSection(*doc.Find("metrics"), file, &errors);
    }
  }
  if (!errors.empty()) {
    std::fputs(errors.c_str(), stderr);
    return false;
  }
  std::printf("%s: OK\n", file.c_str());
  return true;
}

}  // namespace
}  // namespace pgpub

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s BENCH_file.json...\n", argv[0]);
    return 2;
  }
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) {
    all_ok &= pgpub::CheckFile(argv[i]);
  }
  return all_ok ? 0 : 1;
}
