/// \file
/// `serve_mix`: ServerCore over three SAL tenants (10k, 7.5k and 5k rows,
/// one engine thread each) under an open loop — seeded Poisson arrivals at
/// a fixed rate from one generator thread, each request timed from its due
/// time and carrying a deadline. Two thirds of the requests are TDS, whose
/// recoding-cache key includes the seed-dependent class labels, so they
/// always miss; a third are Incognito, which hit the cache filled at
/// set-up.
/// After the load, a witness set of stream ids is replayed serially and
/// must reproduce the loaded run's response digests bit for bit.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/sync/mutex.h"
#include "core/columnar/qi_index.h"
#include "datagen/sal.h"
#include "engine/fingerprint.h"
#include "generalize/incognito.h"
#include "harness.h"
#include "layers.h"
#include "mining/category.h"
#include "server/server_core.h"
#include "server/tenant_registry.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {

using namespace pgpub;

namespace {

struct TenantSpec {
  const char* key;
  size_t rows;
  uint64_t data_seed;
};
constexpr TenantSpec kTenants[] = {
    {"sal10k", 10000, 11}, {"sal7k", 7500, 22}, {"sal5k", 5000, 33}};
constexpr int kNumTenants = 3;
constexpr int kKs[] = {5, 10};
/// Generalizer slots per (tenant, k): two TDS (cache miss) and one
/// Incognito (cache hit). With an even split the median latency sits on
/// the gap between the fast hits and the slow misses and jumped by 50%
/// between runs; with two thirds misses it lies inside the miss mode, where
/// the dispatcher's millisecond wake-up jitter is a small share.
constexpr int kSlots = 3;
/// Request kinds: every (tenant, k, slot) combination.
constexpr int kRequestKinds = kNumTenants * 2 * kSlots;

/// Offered load, fixed so a slower build cannot lower its own load: about
/// 20% of the dispatcher's capacity (reported as server.busy_frac). Latency
/// is timed from the due time, so it includes queue wait, which grows with
/// utilisation as well as with service time: near 40% busy a slower host
/// also queues more, and the median moves by more than the service time.
/// At 20% busy four in five requests find the dispatcher idle, so the
/// median tracks the service time (context: dispatch_wait_ms_p50).
constexpr double kRatePerSec = 40.0;
/// Enough requests that p99 has at least ten samples beyond it; runs
/// serve whole blocks of kRequestKinds requests.
constexpr size_t kMinRequests = 1008;
/// Per-request deadline after its due time, and the goodput latency limit.
constexpr uint64_t kDeadlineNs = 250'000'000;
constexpr double kLatencyLimitMs = 100.0;
constexpr uint64_t kBatchSeed = 0xbe7c4;
/// Served requests replayed serially (and, when tracing, re-served and
/// re-executed layer by layer): about three of each request kind.
constexpr size_t kWitnesses = 54;

/// Request `stream` of run seed `seed`, a pure function of both. Streams
/// come in blocks covering each (tenant, k, slot) combination once,
/// in an order shuffled per block, so every run serves exactly the same mix.
server::ServerRequest MakeRequest(uint64_t seed, uint64_t stream) {
  int order[kRequestKinds];
  for (int c = 0; c < kRequestKinds; ++c) order[c] = c;
  Rng rng = Rng::ForStream(seed, stream / kRequestKinds);
  for (int c = kRequestKinds - 1; c > 0; --c) {
    std::swap(order[c], order[rng.Next64() % static_cast<uint64_t>(c + 1)]);
  }
  const int combo = order[stream % kRequestKinds];
  server::ServerRequest request;
  request.tenant = kTenants[combo % kNumTenants].key;
  request.stream_id = stream;
  PgOptions& options = request.publish.options;
  options.generalizer = (combo / kNumTenants) % kSlots < 2
                            ? PgOptions::Generalizer::kTds
                            : PgOptions::Generalizer::kIncognito;
  options.k = kKs[combo / (kNumTenants * kSlots)];
  options.p = 0.3;
  options.class_category_starts = CategoryMap::PaperIncome(2).starts();
  return request;
}

/// Generates the tenants, registers them, and fills each engine's recoding
/// cache with the Incognito searches the mix will ask for.
Result<std::unique_ptr<server::TenantRegistry>> BuildRegistry(
    double* generate_s) {
  auto registry = std::make_unique<server::TenantRegistry>(nullptr);
  *generate_s = 0;
  for (const TenantSpec& spec : kTenants) {
    const uint64_t t0 = NowNs();
    SalOptions sal_options;
    sal_options.num_rows = spec.rows;
    sal_options.seed = spec.data_seed;
    sal_options.num_threads = 1;
    ASSIGN_OR_RETURN(CensusDataset dataset, GenerateSal(sal_options));
    *generate_s += SecondsSince(t0);
    server::TenantOptions options;
    options.engine.num_threads = 1;
    RETURN_IF_ERROR(registry->AddTenant(spec.key, std::move(dataset.table),
                                        std::move(dataset.taxonomies),
                                        options));
    ASSIGN_OR_RETURN(server::Tenant * tenant, registry->Lookup(spec.key));
    for (int k : kKs) {
      engine::PublishRequest fill;
      fill.options.generalizer = PgOptions::Generalizer::kIncognito;
      fill.options.k = k;
      fill.options.p = 0.3;
      RETURN_IF_ERROR(tenant->engine->Publish(fill).status());
    }
  }
  return registry;
}

struct Response {
  bool answered = false;
  bool ok = false;
  uint64_t digest = 0;
  uint64_t due_ns = 0;
  uint64_t done_ns = 0;
  double queue_ms = 0;
  double publish_ms = 0;
};

/// Submits `request` and blocks until its callback ran.
Response SubmitAndWait(server::ServerCore* core,
                       server::ServerRequest request) {
  Mutex mu("perfbench.serial_submit");
  CondVar cv;
  Response out;
  out.due_ns = NowNs();
  const Status st = core->Submit(std::move(request), [&](server::ServerResponse r) {
    MutexLock lock(&mu);
    out.ok = r.status.ok();
    out.digest = r.digest;
    out.queue_ms = r.queue_ms;
    out.publish_ms = r.publish_ms;
    out.done_ns = NowNs();
    out.answered = true;
    cv.NotifyAll();
  });
  if (!st.ok()) return out;
  MutexLock lock(&mu);
  while (!out.answered) cv.Wait(&mu);
  return out;
}

}  // namespace

void RunServeMix(const RunConfig& config, RunResult* result) {
  // ---- Set-up (repeated, see KeepSettingUp): data, registry, cache fill.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<server::TenantRegistry> registry;
  while (KeepSettingUp(setup_s)) {
    registry.reset();
    const uint64_t t0 = NowNs();
    double gen = 0;
    Result<std::unique_ptr<server::TenantRegistry>> built = BuildRegistry(&gen);
    if (!built.ok()) {
      result->Fail("set-up: " + built.status().ToString());
      return;
    }
    registry = std::move(built).ValueOrDie();
    setup_s.push_back(SecondsSince(t0));
    generate_s.push_back(gen);
  }
  server::ServerOptions server_options;
  server_options.batch_seed = kBatchSeed;
  server::ServerCore core(registry.get(), server_options);
  if (Status st = core.Start(); !st.ok()) {
    result->Fail("ServerCore::Start: " + st.ToString());
    return;
  }

  // ---- Warm-up: one untimed TDS request per tenant, outside the stream
  // ids of the timed phase.
  const uint64_t warm_t0 = NowNs();
  for (int t = 0; t < kNumTenants; ++t) {
    server::ServerRequest warm = MakeRequest(config.seed, 0);
    warm.tenant = kTenants[t].key;
    warm.publish.options.generalizer = PgOptions::Generalizer::kTds;
    warm.stream_id = ~uint64_t{0} - static_cast<uint64_t>(t);
    if (!SubmitAndWait(&core, std::move(warm)).ok) {
      result->Fail(std::string("warm-up request failed on ") + kTenants[t].key);
    }
  }
  const double warmup_s = SecondsSince(warm_t0);
  std::vector<engine::CacheStats> cache0;
  for (const TenantSpec& spec : kTenants) {
    cache0.push_back(
        registry->Lookup(spec.key).ValueOrDie()->engine->recoding_cache_stats());
  }

  // ---- Open loop: a Poisson process conditioned on n arrivals in
  // [0, n / rate) — n sorted uniform offsets drawn from the run seed — so
  // every run offers exactly the same rate. The generator sleeps until each
  // due time, then submits.
  const size_t n = std::max(
      kMinRequests,
      static_cast<size_t>(std::ceil(kRatePerSec * config.seconds /
                                    kRequestKinds)) *
          kRequestKinds);
  std::vector<uint64_t> offset_ns(n);
  {
    Rng arrivals = Rng::ForStream(config.seed, ~uint64_t{0});
    const double window_ns = static_cast<double>(n) / kRatePerSec * 1e9;
    for (uint64_t& offset : offset_ns) {
      offset = static_cast<uint64_t>(arrivals.UniformDouble() * window_ns);
    }
    std::sort(offset_ns.begin(), offset_ns.end());
  }
  std::vector<Response> responses(n);
  std::vector<double> gen_lag_ms(n, 0.0);
  Mutex mu("perfbench.responses");
  CondVar all_done;
  size_t pending = 0;
  uint64_t rejected = 0;
  TraceCollector collector;
  const CounterDelta examined("incognito.nodes_examined");
  const CounterDelta tasks("parallel.tasks");
  const HistogramSumDelta wait("parallel.steal_or_queue_wait");
  if (config.trace) collector.Start();
  const uint64_t start_ns = NowNs() + 5'000'000;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t due = start_ns + offset_ns[i];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const uint64_t sent = NowNs();
    gen_lag_ms[i] = static_cast<double>(sent - due) * 1e-6;
    server::ServerRequest request = MakeRequest(config.seed, i);
    request.deadline_nanos = due + kDeadlineNs;
    {
      MutexLock lock(&mu);
      responses[i].due_ns = due;
      ++pending;
    }
    const Status st = core.Submit(std::move(request), [&, i](server::ServerResponse r) {
      const uint64_t done = NowNs();
      MutexLock lock(&mu);
      Response& out = responses[i];
      out.answered = true;
      out.ok = r.status.ok();
      out.digest = r.digest;
      out.done_ns = done;
      out.queue_ms = r.queue_ms;
      out.publish_ms = r.publish_ms;
      if (--pending == 0) all_done.NotifyAll();
    });
    if (!st.ok()) {
      MutexLock lock(&mu);
      --pending;
      ++rejected;
    }
  }
  {
    MutexLock lock(&mu);
    while (pending > 0) all_done.Wait(&mu);
  }
  const uint64_t end_ns = NowNs();
  const double load_examined = static_cast<double>(examined.value());
  const double load_tasks = static_cast<double>(tasks.value());
  const double load_wait_s = static_cast<double>(wait.value()) * 1e-9;
  if (config.trace) {
    collector.Stop();
    for (size_t i = 0; i < n; ++i) {
      const Response& r = responses[i];
      if (r.answered) collector.AddRequest(i, r.due_ns, r.done_ns);
    }
  }

  // ---- Outcomes. A request fails when rejected, answered non-OK, or
  // answered after its deadline.
  std::vector<double> latency_ms, queue_ms, publish_ms;
  uint64_t good = 0;
  double busy_ms = 0;
  std::vector<size_t> witnesses;
  for (size_t i = 0; i < n; ++i) {
    const Response& r = responses[i];
    ++result->attempted;
    if (!r.answered || !r.ok || r.done_ns > r.due_ns + kDeadlineNs) {
      ++result->failed;
      continue;
    }
    const double ms = static_cast<double>(r.done_ns - r.due_ns) * 1e-6;
    latency_ms.push_back(ms);
    queue_ms.push_back(r.queue_ms);
    publish_ms.push_back(r.publish_ms);
    busy_ms += r.publish_ms;
    if (ms <= kLatencyLimitMs) ++good;
    if (witnesses.size() < kWitnesses) witnesses.push_back(i);
  }
  if (result->failed > 0) {
    result->Fail(std::to_string(result->failed) + " of " +
                 std::to_string(n) + " requests rejected, failed or late (" +
                 std::to_string(rejected) + " rejected at admission)");
  }
  const double phase_s = static_cast<double>(end_ns - start_ns) * 1e-9;

  // ---- Cache activity of the load phase.
  uint64_t hits = 0, lookups = 0;
  for (int t = 0; t < kNumTenants; ++t) {
    const engine::CacheStats now = registry->Lookup(kTenants[t].key)
                                       .ValueOrDie()
                                       ->engine->recoding_cache_stats();
    hits += now.hits - cache0[t].hits;
    lookups += now.lookups() - cache0[t].lookups();
  }

  // ---- Witness replay: serial, same stream ids, identical digests.
  for (size_t i : witnesses) {
    const Response replay = SubmitAndWait(&core, MakeRequest(config.seed, i));
    ++result->attempted;
    if (!replay.ok || replay.digest != responses[i].digest) {
      ++result->failed;
      result->Fail("stream " + std::to_string(i) +
                   " digest diverged on serial replay");
    }
  }

  auto& m = result->metrics;
  m["setup_s"] = Median(setup_s);
  m["op_p50_ms"] = Median(latency_ms);
  m["ops_per_s"] = static_cast<double>(good) / phase_s;
  m["datagen.generate_s"] = Median(generate_s);
  m["harness.warmup_s"] = warmup_s;
  m["serve.latency_p99_ms"] = Percentile(latency_ms, 0.99);
  m["engine.recoding_hits"] = static_cast<double>(hits);
  m["engine.recoding_lookups"] = static_cast<double>(lookups);
  m["engine.recoding_hit_rate"] =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  m["engine.publish_ms_p50"] = Median(publish_ms);
  m["server.queue_ms_p50"] = Median(queue_ms);
  m["server.queue_ms_p99"] = Percentile(queue_ms, 0.99);
  m["server.publish_ms_p99"] = Percentile(publish_ms, 0.99);
  m["server.busy_frac"] = busy_ms * 1e-3 / phase_s;
  m["harness.gen_lag_ms_p99"] = Percentile(gen_lag_ms, 0.99);
  // Per request of the load phase.
  m["incognito.nodes_examined"] = load_examined / static_cast<double>(n);
  m["parallel.tasks"] = load_tasks / static_cast<double>(n);
  m["parallel.queue_wait_s"] = load_wait_s / static_cast<double>(n);

  obs::JsonValue& ctx = result->context;
  ctx.Set("setup_s", JsonArray(setup_s));
  ctx.Set("tenant_rows", "10000,7500,5000");
  ctx.Set("engine_threads", 1);
  ctx.Set("requests", static_cast<uint64_t>(n));
  ctx.Set("offered_rate_per_s", kRatePerSec);
  ctx.Set("achieved_rate_per_s", static_cast<double>(n) / phase_s);
  ctx.Set("gen_lag_ms_p50", Median(gen_lag_ms));
  ctx.Set("gen_lag_ms_p99", Percentile(gen_lag_ms, 0.99));
  ctx.Set("gen_lag_ms_max", Percentile(gen_lag_ms, 1.0));
  ctx.Set("latency_limit_ms", kLatencyLimitMs);
  ctx.Set("deadline_ms", static_cast<double>(kDeadlineNs) * 1e-6);
  ctx.Set("latency_ms_p25_p50_p75_p90_p99",
          JsonArray({Percentile(latency_ms, 0.25), Percentile(latency_ms, 0.5),
                     Percentile(latency_ms, 0.75), Percentile(latency_ms, 0.9),
                     Percentile(latency_ms, 0.99)}));
  ctx.Set("latency_samples", static_cast<uint64_t>(latency_ms.size()));
  ctx.Set("busy_frac", busy_ms * 1e-3 / phase_s);
  // Where the median latency went: the engine's publish, and the wait from
  // admission to dispatch (the server's queue_ms runs to the response).
  std::vector<double> wait_ms(queue_ms.size());
  for (size_t i = 0; i < wait_ms.size(); ++i) wait_ms[i] = queue_ms[i] - publish_ms[i];
  ctx.Set("publish_ms_p50", Median(publish_ms));
  ctx.Set("dispatch_wait_ms_p50", Median(wait_ms));
  ctx.Set("witnesses", static_cast<uint64_t>(witnesses.size()));
  ctx.Set("ops_unit", "requests answered OK within the latency limit");

  if (!config.trace) return;

  // ---- Per witness request: the same request under two fresh stream ids
  // (so TDS misses the cache both times), served once untraced and once
  // traced, and the untraced one re-executed by the layer pass — the steps
  // a request runs inside its engine (inputs screened and QI index built at
  // registration; Incognito recodings from the cache), from the public
  // per-layer calls, which must reproduce the served release.
  std::vector<LayerTimes> layers;
  std::vector<double> untraced_ms, traced_ms, residual, index_build_s,
      distinct_tuples;
  std::map<std::pair<int, int>, GlobalRecoding> incognito_recodings;
  std::vector<std::optional<columnar::QiIndex>> indexes(kNumTenants);
  for (size_t j = 0; j < witnesses.size(); ++j) {
    server::ServerRequest request = MakeRequest(config.seed, witnesses[j]);
    const uint64_t fresh = n + 2 * j;
    request.stream_id = fresh;
    const Response untraced = SubmitAndWait(&core, request);
    request.stream_id = fresh + 1;
    collector.Start();
    const Response traced = SubmitAndWait(&core, request);
    collector.Stop();
    result->attempted += 2;
    if (!untraced.ok || !traced.ok) {
      result->failed += untraced.ok + traced.ok == 1 ? 1 : 2;
      result->Fail("fresh-stream request failed");
      continue;
    }
    untraced_ms.push_back(untraced.publish_ms);
    traced_ms.push_back(traced.publish_ms);

    int t = 0;
    while (request.tenant != kTenants[t].key) ++t;
    const engine::PublicationEngine& engine =
        *registry->Lookup(request.tenant).ValueOrDie()->engine;
    const Table& table = engine.microdata();
    const std::vector<int> qi = table.schema().QiIndices();
    if (!indexes[t].has_value()) {
      const uint64_t t0 = NowNs();
      indexes[t].emplace(columnar::QiIndex::Build(table, qi));
      index_build_s.push_back(SecondsSince(t0));
      distinct_tuples.push_back(static_cast<double>(indexes[t]->num_tuples()));
    }
    LayerInputs inputs;
    inputs.table = &table;
    inputs.taxonomies = engine.TaxonomyPointers();
    inputs.options = request.publish.options;
    inputs.options.seed = Rng::ForStream(kBatchSeed, fresh).Next64();
    inputs.inputs_prevalidated = true;
    inputs.prebuilt_index = &*indexes[t];
    if (request.publish.options.generalizer ==
        PgOptions::Generalizer::kIncognito) {
      const auto key = std::make_pair(t, request.publish.options.k);
      if (!incognito_recodings.count(key)) {
        IncognitoOptions inc;
        inc.k = request.publish.options.k;
        inc.qi_index = &*indexes[t];
        Result<GlobalRecoding> rec =
            IncognitoSearch(table, qi, inputs.taxonomies, inc);
        if (!rec.ok()) {
          result->Fail("Incognito for the layer pass: " + rec.status().ToString());
          continue;
        }
        incognito_recodings.emplace(key, std::move(rec).ValueOrDie());
      }
      inputs.cached_recoding = &incognito_recodings.at(key);
    }
    collector.Start();
    PublishedTable release;
    Result<LayerTimes> pass = RunLayers(inputs, &release);
    collector.Stop();
    ++result->attempted;
    if (!pass.ok() ||
        engine::FingerprintPublishedTable(release) != untraced.digest) {
      ++result->failed;
      result->Fail("layer pass of stream " + std::to_string(fresh) +
                   " does not reproduce the served release");
      continue;
    }
    layers.push_back(*pass);
    residual.push_back(untraced.publish_ms * 1e-3 - pass->PipelineSeconds());
  }
  core.Shutdown();

  // The engine builds its QI index once, at registration; Incognito
  // requests take their recoding from the cache (no search on this path).
  const double load_incognito_nodes = m["incognito.nodes_examined"];
  ReportLayerMedians(layers, &m);
  m["incognito.nodes_examined"] = load_incognito_nodes;
  m["columnar.qi_index_build_s"] = Median(index_build_s);
  m["columnar.distinct_tuples"] = Median(distinct_tuples);
  m["core.publish_residual_s"] = Median(residual);
  m["obs.trace_overhead_frac"] = Median(traced_ms) / Median(untraced_ms) - 1.0;
  result->layers = collector.SelfTimeTable();
}

}  // namespace perfbench
