/// \file
/// The two cold one-shot workloads: `sal_tds_cold` (RobustPublisher with
/// TDS on the paper's 700k-row seed-42 SAL table) and `incognito_cold`
/// (the same publish with Incognito on its first 100k rows). Every timed
/// publish uses a fresh publication seed from a pinned pool and must
/// reproduce that seed's recorded release digest.

#include <optional>
#include <string>
#include <vector>

#include "common/parallel/thread_pool.h"
#include "core/robust_publisher.h"
#include "datagen/sal.h"
#include "harness.h"
#include "layers.h"
#include "mining/category.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {

using namespace pgpub;

namespace {

/// The warm-up publish uses the paper's seed 42.
constexpr uint64_t kWarmupSeed = 42;

/// A timed publish: its publication seed and the digest its release must
/// have (a pure function of rows, options and seed).
struct PinnedPublish {
  uint64_t seed;
  uint64_t digest;
};

struct ColdSpec {
  size_t rows;
  PgOptions::Generalizer generalizer;
  uint64_t warmup_digest;
  /// Run `--seed n` publishes pool[(n + i) % size] as its i-th timed
  /// operation, in whole passes over the pool.
  std::vector<PinnedPublish> pool;
};

/// The warm-up pin is tests/sal_golden_test.cc's 700k publication digest;
/// the pool digests were recorded with this benchmark. TDS cost depends on
/// the perturbed class labels, so the pool's seeds take unequal times.
const ColdSpec kSalTdsCold = {700000,
                              PgOptions::Generalizer::kTds,
                              0x393258b8d0101795ull,
                              {{1001, 0xb36f3d5f098f46f9ull},
                               {1002, 0xecffe57881896987ull},
                               {1003, 0x8c637d88dbd5fe68ull},
                               {1004, 0xd7169d43cba6437bull}}};

/// Incognito never reads the class labels: every seed searches the same
/// lattice, so a small pool suffices.
const ColdSpec kIncognitoCold = {100000,
                                 PgOptions::Generalizer::kIncognito,
                                 0x4957879de0aaac1bull,
                                 {{1001, 0x0869ab307e26669eull},
                                  {1002, 0xe121ef8df6f086dcull},
                                  {1003, 0x4c23dac391d9432eull}}};

/// The paper's pinned operating point (Section VII): k = 10, p = 0.3,
/// information gain over the m = 2 income classes.
PgOptions PublishOptions(const ColdSpec& spec, uint64_t seed) {
  PgOptions options;
  options.k = 10;
  options.p = 0.3;
  options.seed = seed;
  options.generalizer = spec.generalizer;
  options.class_category_starts = CategoryMap::PaperIncome(2).starts();
  options.num_threads = kWorkerThreads;
  return options;
}

/// One timed RobustPublisher::Publish; checks the release and its digest
/// and counts the attempt (and any failure) in `result`.
struct PublishOutcome {
  double seconds = 0.0;
  uint64_t digest = 0;
};

PublishOutcome TimedPublish(const ColdSpec& spec, const CensusDataset& sal,
                            uint64_t seed, uint64_t expected_digest,
                            RunResult* result) {
  PublishOutcome out;
  ++result->attempted;
  auto fail = [&](const std::string& why) {
    ++result->failed;
    result->Fail("publish seed " + std::to_string(seed) + ": " + why);
    return out;
  };
  const RobustPublisher publisher(PublishOptions(spec, seed));
  PublishReport report;
  const uint64_t t0 = NowNs();
  Result<PublishedTable> published =
      publisher.Publish(sal.table, sal.TaxonomyPointers(), &report);
  out.seconds = SecondsSince(t0);
  if (!published.ok()) return fail(published.status().ToString());
  out.digest = ReleaseDigest(*published);
  if (!report.audit_clean || report.attempts.size() != 1) {
    return fail("needed a retry or an unaudited release");
  }
  if (out.digest != expected_digest) {
    return fail("digest " + Hex(out.digest) + " != pinned " +
                Hex(expected_digest));
  }
  return out;
}

void RunCold(const ColdSpec& spec, const RunConfig& config,
             RunResult* result) {
  // ---- Set-up: generate the table (repeated, see KeepSettingUp). The
  // previous copy is released first so peak RSS holds one.
  std::vector<double> setup_s;
  std::optional<CensusDataset> sal;
  while (KeepSettingUp(setup_s)) {
    sal.reset();
    const uint64_t t0 = NowNs();
    SalOptions sal_options;
    sal_options.num_rows = spec.rows;
    sal_options.seed = 42;
    sal_options.num_threads = 1;  // Generation is set-up, not under test.
    Result<CensusDataset> generated = GenerateSal(sal_options);
    if (!generated.ok()) {
      result->Fail("GenerateSal: " + generated.status().ToString());
      return;
    }
    sal.emplace(std::move(generated).ValueOrDie());
    setup_s.push_back(SecondsSince(t0));
  }

  // ---- Warm-up: one untimed publish at the paper's seed, pinned.
  const PublishOutcome warmup =
      TimedPublish(spec, *sal, kWarmupSeed, spec.warmup_digest, result);

  // ---- Timed publishes. A traced run interleaves, per seed, an untraced
  // publish, a traced publish and a traced layer pass.
  std::vector<double> publish_s;
  std::vector<double> traced_s;
  std::vector<LayerTimes> layers;
  std::vector<double> residual;
  std::vector<double> queue_wait_s;
  std::vector<double> parallel_tasks;
  std::optional<PoolLease> lease;
  if (config.trace) lease.emplace(kWorkerThreads);
  TraceCollector collector;
  const uint64_t loop_t0 = NowNs();
  for (size_t i = 0;
       KeepTiming(i, spec.pool.size(), loop_t0, config.seconds); ++i) {
    const PinnedPublish& pinned = spec.pool[(config.seed + i) % spec.pool.size()];
    const uint64_t seed = pinned.seed;
    const uint64_t expected = pinned.digest;
    const PublishOutcome timed =
        TimedPublish(spec, *sal, seed, expected, result);
    publish_s.push_back(timed.seconds);
    if (!config.trace) continue;

    const HistogramSumDelta wait("parallel.steal_or_queue_wait");
    const CounterDelta tasks("parallel.tasks");
    collector.Start();
    const PublishOutcome traced =
        TimedPublish(spec, *sal, seed, expected, result);
    collector.Stop();
    traced_s.push_back(traced.seconds);
    queue_wait_s.push_back(static_cast<double>(wait.value()) * 1e-9);
    parallel_tasks.push_back(static_cast<double>(tasks.value()));

    LayerInputs inputs;
    inputs.table = &sal->table;
    inputs.taxonomies = sal->TaxonomyPointers();
    inputs.options = PublishOptions(spec, seed);
    inputs.pool = lease->get();
    collector.Start();
    Result<LayerTimes> pass = RunLayers(inputs);
    collector.Stop();
    ++result->attempted;
    if (!pass.ok()) {
      ++result->failed;
      result->Fail("layer pass seed " + std::to_string(seed) + ": " +
                   pass.status().ToString());
    } else if (pass->digest != expected) {
      ++result->failed;
      result->Fail("layer pass seed " + std::to_string(seed) + " digest " +
                   Hex(pass->digest) + " != pinned " + Hex(expected));
    } else {
      layers.push_back(*pass);
      residual.push_back(traced.seconds - pass->PipelineSeconds());
    }
  }
  const double loop_s = SecondsSince(loop_t0);

  auto& m = result->metrics;
  m["setup_s"] = Median(setup_s);
  m["op_p50_ms"] = Median(publish_s) * 1e3;
  // Publications per second at the median publish time: the rate one
  // caller publishing back to back sustains, robust to a slow outlier.
  m["ops_per_s"] = 1.0 / Median(publish_s);
  m["datagen.generate_s"] = Median(setup_s);
  m["harness.warmup_s"] = warmup.seconds;

  obs::JsonValue& ctx = result->context;
  ctx.Set("rows", static_cast<uint64_t>(spec.rows));
  ctx.Set("generalizer",
          spec.generalizer == PgOptions::Generalizer::kTds ? "tds"
                                                           : "incognito");
  ctx.Set("k", 10);
  ctx.Set("p", 0.3);
  ctx.Set("publish_threads", kWorkerThreads);
  ctx.Set("timed_publishes", static_cast<uint64_t>(publish_s.size()));
  ctx.Set("timed_loop_s", loop_s);
  ctx.Set("publish_s", JsonArray(publish_s));
  ctx.Set("setup_s", JsonArray(setup_s));
  ctx.Set("warmup_seed", kWarmupSeed);
  ctx.Set("warmup_digest", Hex(warmup.digest));

  if (!config.trace || layers.empty()) return;
  ReportLayerMedians(layers, &m);
  m["parallel.queue_wait_s"] = Median(queue_wait_s);
  m["parallel.tasks"] = Median(parallel_tasks);
  m["core.publish_residual_s"] = Median(residual);
  m["obs.trace_overhead_frac"] = Median(traced_s) / Median(publish_s) - 1.0;
  result->layers = collector.SelfTimeTable();
}

}  // namespace

void RunSalTdsCold(const RunConfig& config, RunResult* result) {
  RunCold(kSalTdsCold, config, result);
}

void RunIncognitoCold(const RunConfig& config, RunResult* result) {
  RunCold(kIncognitoCold, config, result);
}

}  // namespace perfbench
