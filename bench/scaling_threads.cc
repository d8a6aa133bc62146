/// \file scaling_threads.cc
/// Thread-scaling sweep for the parallel execution engine (DESIGN.md §9).
/// For each workload the same seed runs at 1, 2, 4, and 8 threads; every
/// row records wall time and speedup vs. the serial leg, and a built-in
/// equality guard re-checks that the parallel output is byte-identical to
/// serial before any timing is reported (a fast wrong answer is not a
/// speedup).
///
/// Workloads:
///   perturb          — stream-keyed randomized response on the census
///                      income column (PGPUB_SCALE_N rows, default 100k).
///   breach           — BreachScenario trial fan-out (corruption-linking
///                      adversary, PGPUB_SCALE_VICTIMS trials, default 200).
///   publish          — full PG publication end to end (TDS Phase 2).
///
/// Pool leases are created OUTSIDE the timed regions: spinning up a
/// thread pool per repetition used to be timed with the work, which
/// flattened the measured scaling for the sub-millisecond workloads.
///
/// Emits BENCH_scaling_threads.json (schema_version 1) with one result
/// row per (workload, threads).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/adversaries.h"
#include "attack/external_db.h"
#include "attack/publishers.h"
#include "attack/scenario.h"
#include "bench/bench_report.h"
#include "common/parallel/thread_pool.h"
#include "core/pg_publisher.h"
#include "datagen/census.h"
#include "perturb/randomized_response.h"

namespace pgpub {
namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8};

size_t EnvSize(const char* name, size_t fallback) {
  if (const char* env = std::getenv(name); env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Best-of-`reps` wall time of `fn` in nanoseconds.
template <typename Fn>
uint64_t TimeBest(int reps, const Fn& fn) {
  uint64_t best = ~0ull;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = NowNs();
    fn();
    const uint64_t elapsed = NowNs() - t0;
    if (elapsed < best) best = elapsed;
  }
  return best;
}

struct SweepRow {
  std::string workload;
  int threads = 0;
  uint64_t wall_ns = 0;
  double speedup_vs_serial = 0.0;
};

/// Times `run(threads)` across the sweep. `run` must return a value that
/// compares equal to the serial leg's — the equality guard fails the
/// whole binary otherwise.
template <typename Run>
bool SweepWorkload(const std::string& name, int reps, const Run& run,
                   std::vector<SweepRow>* rows) {
  const auto serial_out = run(1);
  uint64_t serial_ns = 0;
  for (int threads : kThreadSweep) {
    const auto out = run(threads);
    if (!(out == serial_out)) {
      std::fprintf(stderr,
                   "scaling_threads: %s output at %d threads diverged from "
                   "serial — refusing to report timings for a wrong "
                   "answer\n",
                   name.c_str(), threads);
      return false;
    }
    const uint64_t wall = TimeBest(reps, [&] {
      const auto timed = run(threads);
      if (!(timed == serial_out)) std::abort();
    });
    if (threads == 1) serial_ns = wall;
    SweepRow row;
    row.workload = name;
    row.threads = threads;
    row.wall_ns = wall;
    row.speedup_vs_serial =
        wall > 0 ? static_cast<double>(serial_ns) / static_cast<double>(wall)
                 : 0.0;
    rows->push_back(row);
    std::fprintf(stderr, "scaling_threads: %-8s threads=%d  %10.3f ms  %.2fx\n",
                 name.c_str(), threads, wall / 1e6, row.speedup_vs_serial);
  }
  return true;
}

int Main() {
  const size_t n = EnvSize("PGPUB_SCALE_N", 100000);
  const size_t victims = EnvSize("PGPUB_SCALE_VICTIMS", 200);
  const int reps = static_cast<int>(EnvSize("PGPUB_SCALE_REPS", 3));

  bench::BenchReport report("scaling_threads");
  report.SetParam("rows", static_cast<uint64_t>(n));
  report.SetParam("victims", static_cast<uint64_t>(victims));
  report.SetParam("reps", static_cast<uint64_t>(reps));

  CensusDataset census = GenerateCensus(n, 1).ValueOrDie();
  std::vector<SweepRow> rows;

  // One long-lived lease per sweep point, shared by every workload whose
  // timed body takes a pool (the hoist described in the header comment).
  std::map<int, std::unique_ptr<PoolLease>> leases;
  for (int threads : kThreadSweep) {
    leases[threads] = std::make_unique<PoolLease>(threads);
  }

  // ---- Workload 1: per-tuple perturbation.
  {
    const UniformPerturbation channel(0.3, 50);
    const std::vector<int32_t>& column =
        census.table.column(CensusColumns::kIncome);
    auto run = [&](int threads) {
      return channel
          .PerturbColumnStreams(column, 42, leases.at(threads)->get())
          .ValueOrDie();
    };
    if (!SweepWorkload("perturb", reps, run, &rows)) return 1;
  }

  // ---- Shared release for the breach workload.
  PgOptions options;
  options.k = 6;
  options.p = 0.3;
  options.seed = 42;
  PgPublisher publisher(options);
  const PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  Rng edb_rng(7);
  const ExternalDatabase edb =
      ExternalDatabase::FromMicrodata(census.table, 1000, edb_rng);

  // ---- Workload 2: breach-scenario trial fan-out.
  {
    ScenarioDataset dataset;
    dataset.name = "census";
    dataset.microdata = &census.table;
    dataset.sensitive_attr = published.sensitive_attr();
    dataset.edb = &edb;
    FixedPgRelease release(&published);
    CorruptionLinkingAdversary adversary;
    auto run = [&](int threads) {
      ScenarioOptions scenario;
      scenario.harness.num_victims = victims;
      scenario.harness.corruption_rate = 0.8;
      scenario.harness.seed = 42;
      scenario.harness.pool = leases.at(threads)->get();
      const BreachStats stats =
          BreachScenario::Run(release, adversary, dataset, scenario)
              .ValueOrDie();
      // Equality via the exactly-folded aggregates (SweepWorkload compares
      // with ==, so pack them into a comparable tuple).
      return std::vector<double>{static_cast<double>(stats.attacks),
                                 stats.max_growth,
                                 stats.mean_growth,
                                 stats.max_posterior_rho1,
                                 stats.max_h,
                                 static_cast<double>(stats.delta_breaches),
                                 static_cast<double>(stats.rho_breaches)};
    };
    if (!SweepWorkload("breach", reps, run, &rows)) return 1;
  }

  // ---- Workload 3: end-to-end publication.
  {
    auto publish_flat = [&](int threads) {
      PgOptions opt = options;
      opt.num_threads = threads;
      PgPublisher pub(opt);
      const PublishedTable table =
          pub.Publish(census.table, census.TaxonomyPointers()).ValueOrDie();
      // Flatten the release into a comparable vector.
      std::vector<int32_t> flat;
      flat.reserve(table.num_rows() * (table.num_qi_attrs() + 2));
      for (size_t r = 0; r < table.num_rows(); ++r) {
        for (int i = 0; i < table.num_qi_attrs(); ++i) {
          flat.push_back(table.qi_gen(r, i));
        }
        flat.push_back(table.sensitive(r));
        flat.push_back(static_cast<int32_t>(table.group_size(r)));
      }
      return flat;
    };
    if (!SweepWorkload("publish", reps, publish_flat, &rows)) return 1;
  }

  for (const SweepRow& row : rows) {
    obs::JsonValue json_row = obs::JsonValue::Object();
    json_row.Set("workload", row.workload);
    json_row.Set("threads", row.threads);
    json_row.Set("wall_ns", row.wall_ns);
    json_row.Set("speedup_vs_serial", row.speedup_vs_serial);
    report.AddResult(std::move(json_row));
  }
  return report.WriteAndLog() ? 0 : 1;
}

}  // namespace
}  // namespace pgpub

int main(int argc, char** argv) {
  const std::string trace = pgpub::bench::TraceFromArgs(argc, argv);
  const int rc = pgpub::Main();
  return pgpub::bench::FinishTrace(trace) ? rc : 1;
}
