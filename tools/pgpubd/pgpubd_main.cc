/// \file pgpubd_main.cc
/// pgpubd — the anti-corruption publication daemon (DESIGN.md §12).
///
/// Hosts one or more synthetic census datasets behind tenant keys and
/// serves them through the overload-safe ServerCore, with the text
/// control endpoint on 127.0.0.1. SIGTERM/SIGINT trigger a graceful
/// drain: admission stops, every queued request is answered, then the
/// process exits 0.
///
/// Usage:
///   pgpubd [--port=N] [--port-file=PATH] [--queue-capacity=N]
///          [--tenants=census:2000,clinic:1500,hospital:1000]
///          [--batch-seed=N] [--drain=finish|reject]
///          [--trace=PATH] [--slow-ms=N]
///
/// --port=0 (the default) binds an ephemeral port; --port-file writes
/// the bound port once listening, which is how scripts rendezvous.
/// --trace arms the in-process span collector and writes every span
/// collected over the daemon's lifetime to PATH as Chrome Trace Event
/// JSON (chrome://tracing / Perfetto) after the drain completes.
/// --slow-ms sets ServerOptions::slow_request_budget_ms: served requests
/// over the budget log their span tree and cache delta at WARN.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "datagen/sal.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "server/health_endpoint.h"
#include "server/server_core.h"
#include "server/tenant_registry.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct TenantSpec {
  std::string name;
  size_t rows = 0;
};

struct Flags {
  int port = 0;
  std::string port_file;
  size_t queue_capacity = 1024;
  uint64_t batch_seed = 0x5eed;
  std::string drain = "finish";
  std::string trace_path;
  double slow_ms = 0.0;
  std::vector<TenantSpec> tenants = {
      {"census", 2000}, {"clinic", 1500}, {"hospital", 1000}};
};

constexpr int64_t kMaxInt = std::numeric_limits<int64_t>::max();

/// Parses a whole-string integer in [lo, hi] ("8080x", "abc" and
/// out-of-range values are rejected, never truncated or wrapped).
bool ParseIntIn(const std::string& text, int64_t lo, int64_t hi,
                int64_t* out) {
  const pgpub::Result<int64_t> parsed = pgpub::ParseInt64(text);
  if (!parsed.ok() || *parsed < lo || *parsed > hi) return false;
  *out = *parsed;
  return true;
}

bool ParseTenants(const std::string& value, std::vector<TenantSpec>* out) {
  out->clear();
  size_t start = 0;
  while (start < value.size()) {
    size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    const std::string item = value.substr(start, comma - start);
    const size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0) return false;
    TenantSpec spec;
    spec.name = item.substr(0, colon);
    int64_t rows = 0;
    if (!ParseIntIn(item.substr(colon + 1), 1, kMaxInt, &rows)) return false;
    spec.rows = static_cast<size_t>(rows);
    out->push_back(std::move(spec));
    start = comma + 1;
  }
  return !out->empty();
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (arg.compare(0, len, name) == 0 && arg.size() > len &&
          arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    auto bad_value = [&] {
      std::fprintf(stderr, "pgpubd: bad value in '%s'\n", arg.c_str());
      return false;
    };
    int64_t n = 0;
    if (const char* v = value_of("--port")) {
      if (!ParseIntIn(v, 0, 65535, &n)) return bad_value();
      flags->port = static_cast<int>(n);
    } else if (const char* v = value_of("--port-file")) {
      flags->port_file = v;
    } else if (const char* v = value_of("--queue-capacity")) {
      if (!ParseIntIn(v, 0, kMaxInt, &n)) return bad_value();
      flags->queue_capacity = static_cast<size_t>(n);
    } else if (const char* v = value_of("--batch-seed")) {
      if (!ParseIntIn(v, 0, kMaxInt, &n)) return bad_value();
      flags->batch_seed = static_cast<uint64_t>(n);
    } else if (const char* v = value_of("--drain")) {
      flags->drain = v;
    } else if (const char* v = value_of("--trace")) {
      flags->trace_path = v;
    } else if (const char* v = value_of("--slow-ms")) {
      const pgpub::Result<double> ms = pgpub::ParseDouble(v);
      if (!ms.ok()) return bad_value();
      flags->slow_ms = *ms;
    } else if (const char* v = value_of("--tenants")) {
      if (!ParseTenants(v, &flags->tenants)) {
        std::fprintf(stderr, "pgpubd: bad --tenants spec '%s'\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "pgpubd: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  if (flags->drain != "finish" && flags->drain != "reject") {
    std::fprintf(stderr, "pgpubd: --drain must be finish|reject\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pgpub;           // NOLINT
  using namespace pgpub::server;   // NOLINT

  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  if (!flags.trace_path.empty()) {
    obs::Tracer::Global().Enable();
  }

  TenantRegistry registry(nullptr);
  for (size_t i = 0; i < flags.tenants.size(); ++i) {
    const TenantSpec& spec = flags.tenants[i];
    SalOptions sal_options;
    sal_options.num_rows = spec.rows;
    sal_options.seed = 1000 + static_cast<uint64_t>(i);
    Result<CensusDataset> dataset = GenerateSal(sal_options);
    if (!dataset.ok()) {
      std::fprintf(stderr, "pgpubd: tenant '%s': %s\n", spec.name.c_str(),
                   dataset.status().ToString().c_str());
      return 1;
    }
    Status added =
        registry.AddTenant(spec.name, std::move(dataset->table),
                           std::move(dataset->taxonomies), TenantOptions{});
    if (!added.ok()) {
      std::fprintf(stderr, "pgpubd: tenant '%s': %s\n", spec.name.c_str(),
                   added.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "pgpubd: tenant '%s' (%zu rows)\n",
                 spec.name.c_str(), spec.rows);
  }

  ServerOptions server_options;
  server_options.queue_capacity = flags.queue_capacity;
  server_options.batch_seed = flags.batch_seed;
  server_options.slow_request_budget_ms = flags.slow_ms;
  server_options.drain_policy = flags.drain == "reject"
                                    ? ServerOptions::DrainPolicy::kReject
                                    : ServerOptions::DrainPolicy::kFinish;
  ServerCore core(&registry, server_options);
  if (Status st = core.Start(); !st.ok()) {
    std::fprintf(stderr, "pgpubd: %s\n", st.ToString().c_str());
    return 1;
  }

  HealthEndpoint endpoint(&core);
  if (Status st = endpoint.Start(flags.port); !st.ok()) {
    std::fprintf(stderr, "pgpubd: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "pgpubd: serving on 127.0.0.1:%d\n",
               endpoint.bound_port());
  if (!flags.port_file.empty()) {
    std::ofstream out(flags.port_file, std::ios::trunc);
    out << endpoint.bound_port() << "\n";
    if (!out) {
      std::fprintf(stderr, "pgpubd: cannot write %s\n",
                   flags.port_file.c_str());
      return 1;
    }
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "pgpubd: draining...\n");
  endpoint.Stop();
  core.Shutdown();
  if (!flags.trace_path.empty()) {
    // After the drain every admitted request's spans are final.
    const std::vector<obs::SpanRecord> spans =
        obs::Tracer::Global().TakeSnapshot();
    if (Status st = obs::WriteChromeTrace(spans, flags.trace_path);
        !st.ok()) {
      std::fprintf(stderr, "pgpubd: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "pgpubd: wrote %zu spans to %s\n", spans.size(),
                 flags.trace_path.c_str());
  }
  const auto stats = core.stats();
  std::fprintf(stderr,
               "pgpubd: drained; admitted=%llu completed=%llu "
               "rejected_full=%llu drained=%llu\n",
               static_cast<unsigned long long>(stats.admitted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.rejected_full),
               static_cast<unsigned long long>(stats.drained));
  return 0;
}
