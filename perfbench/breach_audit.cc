/// \file
/// `breach_audit`: one PG release of the first 100k rows of the seed-42
/// SAL table (k = 10, p = 0.3, with provenance) is published during
/// set-up; the timed operation is one audit round —
/// BreachScenario::RunOnRelease under the corruption-linking, worst-case
/// background and transparent adversaries, trials fanned out over a
/// 2-thread pool. Each (adversary, trial seed) folds its BreachStats into a
/// digest that must equal the one recorded with the benchmark.

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "attack/adversaries.h"
#include "attack/external_db.h"
#include "attack/publishers.h"
#include "attack/scenario.h"
#include "common/parallel/thread_pool.h"
#include "datagen/sal.h"
#include "harness.h"
#include "obs/trace.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {

using namespace pgpub;

namespace {

constexpr size_t kRows = 100000;
constexpr size_t kVictims = 200;

/// Trial seeds of the timed rounds: run `--seed n` uses
/// kTrialSeeds[(n + i) % size] for its i-th round, in whole passes.
constexpr uint64_t kTrialSeeds[] = {7, 8, 9, 10};
constexpr size_t kPoolSize = std::size(kTrialSeeds);
constexpr int kAdversaries = 3;

/// Recorded BreachStats digests, [trial seed slot][adversary].
constexpr uint64_t kPinnedDigests[kPoolSize][kAdversaries] = {
    {0x8aeb3c9ece55ddbdull, 0xa2e14aefa1601510ull, 0x37e8754e6d267f45ull},
    {0x690c78b9557a9e05ull, 0xc6837b7abcbdbc7dull, 0x1e38d8fecacd0e8eull},
    {0xf103954162444af1ull, 0x5f1a1008b4eb787cull, 0x3c600685dbf7dac9ull},
    {0x0cf9c19269d22d54ull, 0x8784344e3dc45602ull, 0x5687c722548df607ull}};

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

uint64_t StatsDigest(const BreachStats& s) {
  Fnv fnv;
  for (uint64_t v :
       {uint64_t{s.attacks}, Bits(s.max_growth), Bits(s.mean_growth),
        Bits(s.max_posterior_rho1), Bits(s.max_h), uint64_t{s.delta_breaches},
        uint64_t{s.rho_breaches}, uint64_t{s.breached_attacks},
        uint64_t{s.point_mass_disclosures}}) {
    fnv.Mix(static_cast<int64_t>(v));
  }
  return fnv.h;
}

}  // namespace

void RunBreachAudit(const RunConfig& config, RunResult* result) {
  PgScenarioPublisher::Config release_config;
  release_config.k = 10;
  release_config.p = 0.3;
  release_config.robust = true;
  const PgScenarioPublisher publisher(release_config);
  // ---- Set-up (repeated, see KeepSettingUp): generate the slice, publish
  // the release, build the adversaries' external database.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::optional<CensusDataset> sal;
  std::optional<Release> release;
  std::optional<ExternalDatabase> edb;
  while (KeepSettingUp(setup_s)) {
    release.reset();
    edb.reset();
    sal.reset();
    const uint64_t t0 = NowNs();
    SalOptions sal_options;
    sal_options.num_rows = kRows;
    sal_options.seed = 42;
    sal_options.num_threads = 1;  // Generation is set-up, not under test.
    Result<CensusDataset> generated = GenerateSal(sal_options);
    if (!generated.ok()) {
      result->Fail("GenerateSal: " + generated.status().ToString());
      return;
    }
    sal.emplace(std::move(generated).ValueOrDie());
    generate_s.push_back(SecondsSince(t0));
    ScenarioDataset dataset;
    dataset.name = "sal";
    dataset.microdata = &sal->table;
    dataset.taxonomies = sal->TaxonomyPointers();
    dataset.sensitive_attr = CensusColumns::kIncome;
    ScenarioOptions publish_options;
    publish_options.publish_seed = 42;
    publish_options.publish_threads = kWorkerThreads;
    Result<Release> published =
        publisher.Publish(dataset, publish_options, nullptr);
    if (!published.ok()) {
      result->Fail("release publish: " + published.status().ToString());
      return;
    }
    release.emplace(std::move(published).ValueOrDie());
    Rng edb_rng(103);
    edb.emplace(ExternalDatabase::FromMicrodata(sal->table, kRows / 20,
                                                edb_rng));
    setup_s.push_back(SecondsSince(t0));
  }

  ScenarioDataset dataset;
  dataset.name = "sal";
  dataset.microdata = &sal->table;
  dataset.taxonomies = sal->TaxonomyPointers();
  dataset.sensitive_attr = CensusColumns::kIncome;
  dataset.edb = &*edb;

  const CorruptionLinkingAdversary linking;
  const WorstCaseBackgroundAdversary worst;
  const TransparentReplayAdversary transparent;
  const AdversaryModel* adversaries[kAdversaries] = {&linking, &worst,
                                                     &transparent};
  PoolLease lease(kWorkerThreads);

  std::vector<double> trial_us[kAdversaries];
  auto audit_round = [&](size_t slot, bool traced) {
    obs::ScopedSpan span("bench.audit_round");
    ScenarioOptions options;
    options.harness.num_victims = kVictims;
    options.harness.seed = kTrialSeeds[slot];
    options.harness.pool = lease.get();
    for (int a = 0; a < kAdversaries; ++a) {
      // Span names must be literals: one per adversary.
      static constexpr const char* kSpans[kAdversaries] = {
          "bench.attack.corruption_linking", "bench.attack.worst_background",
          "bench.attack.transparent"};
      obs::ScopedSpan attack_span(kSpans[a]);
      const uint64_t t0 = NowNs();
      Result<BreachStats> stats =
          BreachScenario::RunOnRelease(*release, *adversaries[a], dataset,
                                       options);
      const double us = static_cast<double>(NowNs() - t0) * 1e-3;
      ++result->attempted;
      if (!stats.ok()) {
        ++result->failed;
        result->Fail(std::string(adversaries[a]->name()) + ": " +
                     stats.status().ToString());
        continue;
      }
      const uint64_t digest = StatsDigest(*stats);
      if (digest != kPinnedDigests[slot][a]) {
        ++result->failed;
        result->Fail(std::string(adversaries[a]->name()) + " trial seed " +
                     std::to_string(kTrialSeeds[slot]) + " digest " +
                     Hex(digest) + " != pinned " +
                     Hex(kPinnedDigests[slot][a]));
      }
      if (traced) trial_us[a].push_back(us / static_cast<double>(kVictims));
    }
  };

  // ---- Warm-up round, then timed rounds. A traced run alternates an
  // untraced and a traced round on the same trial seed.
  const uint64_t warm_t0 = NowNs();
  audit_round(config.seed % kPoolSize, false);
  const double warmup_s = SecondsSince(warm_t0);

  TraceCollector collector;
  const CounterDelta draws("attack.corruption_draws");
  const CounterDelta tasks("parallel.tasks");
  const HistogramSumDelta wait("parallel.steal_or_queue_wait");
  std::vector<double> round_s;
  std::vector<double> traced_round_s;
  const uint64_t loop_t0 = NowNs();
  for (size_t i = 0; KeepTiming(i, kPoolSize, loop_t0, config.seconds);
       ++i) {
    const size_t slot = (config.seed + i) % kPoolSize;
    uint64_t t0 = NowNs();
    audit_round(slot, false);
    round_s.push_back(SecondsSince(t0));
    if (!config.trace) continue;
    collector.Start();
    t0 = NowNs();
    audit_round(slot, true);
    traced_round_s.push_back(SecondsSince(t0));
    collector.Stop();
  }
  const double loop_s = SecondsSince(loop_t0);

  auto& m = result->metrics;
  m["setup_s"] = Median(setup_s);
  m["op_p50_ms"] = Median(round_s) * 1e3;
  // Breach trials per second at the median round time.
  m["ops_per_s"] =
      static_cast<double>(kAdversaries * kVictims) / Median(round_s);
  m["datagen.generate_s"] = Median(generate_s);
  m["harness.warmup_s"] = warmup_s;

  obs::JsonValue& ctx = result->context;
  ctx.Set("rows", static_cast<uint64_t>(kRows));
  ctx.Set("victims_per_adversary", static_cast<uint64_t>(kVictims));
  ctx.Set("adversaries", kAdversaries);
  ctx.Set("trial_threads", kWorkerThreads);
  ctx.Set("timed_rounds", static_cast<uint64_t>(round_s.size()));
  ctx.Set("timed_loop_s", loop_s);
  ctx.Set("setup_s", JsonArray(setup_s));
  ctx.Set("ops_unit", "breach trials");
  ctx.Set("release_rows", static_cast<uint64_t>(release->pg->num_rows()));

  if (!config.trace) return;
  m["attack.trial_us.corruption-linking"] = Median(trial_us[0]);
  m["attack.trial_us.worst-background"] = Median(trial_us[1]);
  m["attack.trial_us.transparent"] = Median(trial_us[2]);
  // Per round, over every round the run made (untraced ones included).
  const double rounds =
      static_cast<double>(round_s.size() + traced_round_s.size());
  m["attack.corruption_draws"] =
      static_cast<double>(draws.value()) / rounds;
  m["parallel.tasks"] = static_cast<double>(tasks.value()) / rounds;
  m["parallel.queue_wait_s"] = static_cast<double>(wait.value()) * 1e-9 / rounds;
  m["obs.trace_overhead_frac"] = Median(traced_round_s) / Median(round_s) - 1.0;
  result->layers = collector.SelfTimeTable();
}

}  // namespace perfbench
