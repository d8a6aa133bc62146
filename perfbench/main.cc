/// \file
/// perfbench: the repository benchmark's entry point.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one workload, checks every output it produces, and prints as the
/// last line of stdout one JSON object {correct, attempted, failed,
/// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
/// with --trace 1. The lines before it record what the run was (context)
/// and, when traced, the per-span self-time table. Exit code 0 only when
/// every check passed. See perfbench/README.md for the workloads.

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.h"
#include "obs/json.h"

extern char** environ;

namespace perfbench {

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

using pgpub::obs::JsonValue;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Must list exactly BENCHMARK.json's `end_to_end` names (run.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_p50_ms", "ms"},
    {"ops_per_s", "1/s"},
};

/// Must list exactly BENCHMARK.json's `per_layer` names (run.py checks). A
/// layer the workload bypasses reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"tds.run_s", "s"},
    {"tds.specializations", "count"},
    {"parallel.queue_wait_s", "s"},
    {"parallel.tasks", "count"},
    {"incognito.search_s", "s"},
    {"incognito.nodes_examined", "count"},
    {"incognito.children_pruned", "count"},
    {"incognito.minimal_nodes", "count"},
    {"generalize.global_ncp_s", "s"},
    {"columnar.qi_index_build_s", "s"},
    {"columnar.distinct_tuples", "count"},
    {"perturb.perturb_s", "s"},
    {"sample.sample_s", "s"},
    {"core.verify_s", "s"},
    {"core.solve_p_s", "s"},
    {"engine.recoding_hit_rate", "frac"},
    {"engine.recoding_hits", "count"},
    {"engine.recoding_lookups", "count"},
    {"engine.publish_ms_p50", "ms"},
    {"server.queue_ms_p50", "ms"},
    {"server.queue_ms_p99", "ms"},
    {"server.publish_ms_p99", "ms"},
    {"server.busy_frac", "frac"},
    {"harness.gen_lag_ms_p99", "ms"},
    {"serve.latency_p99_ms", "ms"},
    {"attack.trial_us.corruption-linking", "us"},
    {"attack.trial_us.worst-background", "us"},
    {"attack.trial_us.transparent", "us"},
    {"attack.corruption_draws", "count"},
    {"datagen.generate_s", "s"},
    {"harness.warmup_s", "s"},
    {"core.publish_residual_s", "s"},
    {"obs.trace_overhead_frac", "frac"},
};

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, RunResult*);
};

constexpr Workload kWorkloads[] = {
    {"sal_tds_cold", RunSalTdsCold},
    {"incognito_cold", RunIncognitoCold},
    {"serve_mix", RunServeMix},
    {"breach_audit", RunBreachAudit},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

/// The library reads PGPUB_* variables (thread count, Phase-2 engine,
/// failpoints, logging); any of them would silently change the program
/// under test, so a run refuses to start with one set.
std::vector<std::string> PgpubEnvironment() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PGPUB_", 6) == 0) set.emplace_back(*e);
  }
  return set;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The host's speed when a run starts and ends, as the seconds two fixed
/// single-threaded loops take: a chain of dependent multiplies (core speed)
/// and a pointer chase over 8 MB, larger than a core's L2 (the shared cache
/// and memory that neighbours on a shared host contend for). Such a host's
/// speed can swing by a factor of two within minutes; the probe lets a
/// reader tell a slow host from a slow build.
JsonValue ProbeHost() {
  uint64_t t0 = NowNs();
  uint64_t x = 1;
  for (uint32_t i = 0; i < (1u << 26); ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));  // keeps every step of the chain
  }
  const double compute_s = SecondsSince(t0);

  // One random cycle through every slot (Sattolo's shuffle), so each step
  // depends on the last load and the chase visits the whole buffer. The
  // buffer is mapped directly: freeing an 8 MB malloc block would raise
  // malloc's mmap threshold and change how the workload allocates.
  constexpr uint32_t kSlots = uint32_t{1} << 21;
  void* mapped = mmap(nullptr, kSlots * sizeof(uint32_t),
                      PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  double memory_s = -1;
  if (mapped != MAP_FAILED) {
    uint32_t* next = static_cast<uint32_t*>(mapped);
    for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next[i], next[(x >> 33) % i]);
    }
    t0 = NowNs();
    uint32_t at = 0;
    for (uint32_t i = 0; i < (1u << 20); ++i) at = next[at];
    asm volatile("" : "+r"(at));
    memory_s = SecondsSince(t0);
    munmap(mapped, kSlots * sizeof(uint32_t));
  }

  JsonValue probe = JsonValue::Object();
  probe.Set("compute_s", compute_s);
  probe.Set("memory_s", memory_s);
  return probe;
}

JsonValue MetricsJson(const RunResult& result, bool traced) {
  JsonValue metrics = JsonValue::Object();
  auto emit = [&](const MetricSpec& spec) {
    const auto it = result.metrics.find(spec.name);
    JsonValue m = JsonValue::Object();
    m.Set("value", it == result.metrics.end() ? 0.0 : it->second);
    m.Set("unit", spec.unit);
    metrics.Set(spec.name, std::move(m));
  };
  if (traced) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  return metrics;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') return Usage("--seed takes an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !(config.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value[0] == '1';
      have_trace = true;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown workload");
  if (const std::vector<std::string> env = PgpubEnvironment(); !env.empty()) {
    for (const std::string& e : env) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   e.c_str());
    }
    return 2;
  }

  RunResult result;
  JsonValue probe = JsonValue::Array();
  probe.Append(ProbeHost());
  const uint64_t t0 = NowNs();
  workload->run(config, &result);
  const double wall_s = SecondsSince(t0);
  result.metrics["peak_rss_mb"] = PeakRssMb();

  JsonValue context = std::move(result.context);
  context.Set("workload", config.workload);
  context.Set("seed", config.seed);
  context.Set("seconds", config.seconds);
  context.Set("trace", config.trace);
  context.Set("threads", kWorkerThreads);
  context.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  context.Set("build_type", PERFBENCH_BUILD_TYPE);
  context.Set("compiler", PERFBENCH_COMPILER);
  context.Set("wall_s", wall_s);
  probe.Append(ProbeHost());
  context.Set("host_probe", std::move(probe));
  JsonValue context_line = JsonValue::Object();
  context_line.Set("context", std::move(context));
  std::printf("%s\n", context_line.Dump().c_str());

  if (config.trace) {
    JsonValue layers_line = JsonValue::Object();
    layers_line.Set("self_time", std::move(result.layers));
    std::printf("%s\n", layers_line.Dump().c_str());
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error.c_str());
  }

  JsonValue out = JsonValue::Object();
  out.Set("correct", result.correct());
  out.Set("attempted", result.attempted);
  out.Set("failed", result.failed);
  out.Set("metrics", MetricsJson(result, config.trace));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
