/// \file obs_trace_test.cc
/// Request-scoped tracing (DESIGN.md §14): context propagation, span
/// linkage, the bounded collector, the logical clock, thread-count
/// invariance of the emitted span set, Chrome Trace export shape, and
/// the Prometheus rendering of labeled metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attack/adversaries.h"
#include "attack/publishers.h"
#include "attack/scenario.h"
#include "common/parallel/thread_pool.h"
#include "common/result.h"
#include "core/robust_publisher.h"
#include "datagen/census.h"
#include "datagen/hospital.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace pgpub {
namespace {

using obs::JsonValue;
using obs::ScopedSpan;
using obs::SpanRecord;
using obs::TraceContext;
using obs::Tracer;

// --------------------------------------------------------- TraceContext

TEST(TraceContextTest, DefaultIsEmptyAndScopeRestores) {
  EXPECT_EQ(TraceContext::Current().trace_id, 0u);
  EXPECT_EQ(TraceContext::Current().span_id, 0u);
  {
    TraceContext::Scope scope({7, 9});
    EXPECT_EQ(TraceContext::Current().trace_id, 7u);
    EXPECT_EQ(TraceContext::Current().span_id, 9u);
    {
      TraceContext::Scope inner({11, 13});
      EXPECT_EQ(TraceContext::Current().trace_id, 11u);
      EXPECT_EQ(TraceContext::Current().span_id, 13u);
    }
    EXPECT_EQ(TraceContext::Current().trace_id, 7u);
    EXPECT_EQ(TraceContext::Current().span_id, 9u);
  }
  EXPECT_EQ(TraceContext::Current().trace_id, 0u);
}

// ---------------------------------------------- global-tracer scaffolding

/// Arms the global Tracer (logical clock for determinism) and leaves it
/// clean and disabled afterwards, so this suite cannot leak state into
/// other tests in the binary.
class GlobalTracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().Enable(1 << 12);
    tracer().SetLogicalClock(true);
    tracer().Clear();
  }
  void TearDown() override {
    tracer().Clear();
    tracer().SetLogicalClock(false);
    tracer().Disable();
  }
  static Tracer& tracer() { return Tracer::Global(); }
};

TEST_F(GlobalTracerTest, ScopedSpanRootsFreshTraceAndLinksChildren) {
  uint64_t trace = 0;
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    ScopedSpan outer("obs_trace_test.outer");
    trace = outer.trace_id();
    outer_id = outer.span_id();
    EXPECT_NE(trace, 0u);
    EXPECT_EQ(TraceContext::Current().trace_id, trace);
    EXPECT_EQ(TraceContext::Current().span_id, outer_id);
    {
      ScopedSpan inner("obs_trace_test.inner");
      inner_id = inner.span_id();
      EXPECT_EQ(inner.trace_id(), trace);
      EXPECT_EQ(TraceContext::Current().span_id, inner_id);
    }
    EXPECT_EQ(TraceContext::Current().span_id, outer_id);
  }
  EXPECT_EQ(TraceContext::Current().trace_id, 0u);

  const std::vector<SpanRecord> spans = tracer().SpansForTrace(trace);
  ASSERT_EQ(spans.size(), 2u);  // completion order: inner first
  EXPECT_STREQ(spans[0].name, "obs_trace_test.inner");
  EXPECT_EQ(spans[0].span_id, inner_id);
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_STREQ(spans[1].name, "obs_trace_test.outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
  // Logical clock: the parent's interval covers the child's exactly.
  EXPECT_LT(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LT(spans[0].end_ns, spans[1].end_ns);
}

TEST_F(GlobalTracerTest, AttributesRideOnTheRecord) {
  {
    ScopedSpan span("obs_trace_test.attrs");
    span.Attr("tenant", std::string_view("census"))
        .Attr("ok", true)
        .Attr("rows", uint64_t{42});
  }
  const std::vector<SpanRecord> spans = tracer().TakeSnapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attributes.size(), 3u);
  EXPECT_STREQ(spans[0].attributes[0].first, "tenant");
  EXPECT_EQ(spans[0].attributes[0].second, JsonValue::Str("census"));
  EXPECT_EQ(spans[0].attributes[1].second, JsonValue::Bool(true));
  EXPECT_EQ(spans[0].attributes[2].second, JsonValue::Uint(42));
}

TEST_F(GlobalTracerTest, RecordIntervalLinksUnderExplicitParent) {
  const uint64_t trace = tracer().NewTraceId();
  const uint64_t root = tracer().NewSpanId();
  const uint64_t start = tracer().NowNs();
  const uint64_t end = tracer().NowNs();
  const uint64_t id = tracer().RecordInterval(
      "obs_trace_test.interval", {trace, root}, start, end,
      {{"outcome", JsonValue::Str("admitted")}});
  EXPECT_NE(id, 0u);

  const std::vector<SpanRecord> spans = tracer().SpansForTrace(trace);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, id);
  EXPECT_EQ(spans[0].parent_id, root);
  EXPECT_EQ(spans[0].start_ns, start);
  EXPECT_EQ(spans[0].end_ns, end);
  ASSERT_EQ(spans[0].attributes.size(), 1u);
  EXPECT_EQ(spans[0].attributes[0].second, JsonValue::Str("admitted"));
}

// ------------------------------------------------------ bounded collector

SpanRecord MakeSpan(uint64_t trace, uint64_t id) {
  SpanRecord span;
  span.trace_id = trace;
  span.span_id = id;
  span.name = "obs_trace_test.filler";
  return span;
}

TEST(TracerCollectorTest, BoundsRetentionAndCountsDrops) {
  Tracer tracer;
  tracer.Enable(4);
  for (uint64_t i = 1; i <= 6; ++i) tracer.Record(MakeSpan(1, i));
  EXPECT_EQ(tracer.collected(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);

  tracer.Clear();
  EXPECT_EQ(tracer.collected(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.Record(MakeSpan(2, 7));
  EXPECT_EQ(tracer.collected(), 1u);
}

TEST(TracerCollectorTest, DisabledRetainsNothing) {
  Tracer tracer;
  tracer.Record(MakeSpan(1, 1));
  EXPECT_EQ(tracer.collected(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  // Ids still flow so parent linkage stays coherent if tracing is armed
  // mid-request.
  EXPECT_NE(tracer.RecordInterval("obs_trace_test.off", {1, 0}, 0, 1), 0u);
  EXPECT_EQ(tracer.collected(), 0u);
}

TEST(TracerCollectorTest, LogicalClockIsDeterministicAcrossClear) {
  Tracer tracer;
  tracer.SetLogicalClock(true);
  std::vector<uint64_t> first = {tracer.NowNs(), tracer.NowNs(),
                                 tracer.NowNs()};
  EXPECT_LT(first[0], first[1]);
  EXPECT_LT(first[1], first[2]);
  tracer.Clear();
  std::vector<uint64_t> second = {tracer.NowNs(), tracer.NowNs(),
                                  tracer.NowNs()};
  EXPECT_EQ(first, second);
}

TEST(TracerCollectorTest, HistogramInternedByLiteralPointer) {
  static constexpr const char* kName = "obs_trace_test.interned";
  Tracer tracer;
  EXPECT_EQ(tracer.HistogramFor(kName), tracer.HistogramFor(kName));
}

// ----------------------------------------------- ParallelFor propagation

TEST_F(GlobalTracerTest, ParallelForPropagatesContextIntoChunks) {
  ThreadPool pool(4);
  uint64_t trace = 0;
  uint64_t root_id = 0;
  {
    ScopedSpan root("obs_trace_test.parallel_root");
    trace = root.trace_id();
    root_id = root.span_id();
    const Status st =
        ParallelFor(&pool, IndexRange(0, 32), 4, [](size_t, size_t) {
          PGPUB_TRACE_SPAN("obs_trace_test.chunk");
          return Status::OK();
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  const std::vector<SpanRecord> spans = tracer().SpansForTrace(trace);
  size_t chunks = 0;
  for (const SpanRecord& span : spans) {
    if (std::string(span.name) != "obs_trace_test.chunk") continue;
    ++chunks;
    EXPECT_EQ(span.trace_id, trace);
    EXPECT_EQ(span.parent_id, root_id);
  }
  EXPECT_EQ(chunks, 8u);  // 32 indices / grain 4, thread-count independent
}

TEST_F(GlobalTracerTest, ConcurrentEmissionIsSafeAndFullyCounted) {
  ThreadPool pool(8);
  const Status st =
      ParallelFor(&pool, IndexRange(0, 256), 1, [](size_t, size_t) {
        ScopedSpan span("obs_trace_test.concurrent");
        span.Attr("ok", true);
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(tracer().collected() + tracer().dropped(), 256u);
  EXPECT_EQ(tracer().dropped(), 0u);  // capacity 4096 >> 256
}

// ----------------------------------- span-set thread-count invariance

/// The multiset of (name, parent-name) pairs — the determinism contract's
/// unit of comparison. Ids and timings are explicitly excluded.
std::multiset<std::pair<std::string, std::string>> SpanSet(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::string> names;
  for (const SpanRecord& span : spans) names[span.span_id] = span.name;
  std::multiset<std::pair<std::string, std::string>> set;
  for (const SpanRecord& span : spans) {
    const auto parent = names.find(span.parent_id);
    set.emplace(span.name,
                parent == names.end() ? "<root>" : parent->second);
  }
  return set;
}

/// The attributes of every span named `name`, in completion order, as
/// unsigned integers.
std::vector<std::map<std::string, uint64_t>> SpanAttrs(
    const std::vector<SpanRecord>& spans, const std::string& name) {
  std::vector<std::map<std::string, uint64_t>> out;
  for (const SpanRecord& span : spans) {
    if (span.name != name) continue;
    std::map<std::string, uint64_t>& attrs = out.emplace_back();
    for (const auto& [key, value] : span.attributes) {
      attrs[key] = value.AsUint64().ValueOrDie();
    }
  }
  return out;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

TEST_F(GlobalTracerTest, PublishSpanSetIsThreadCountInvariant) {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  for (PgOptions::Generalizer generalizer :
       {PgOptions::Generalizer::kTds, PgOptions::Generalizer::kIncognito}) {
    const bool incognito = generalizer == PgOptions::Generalizer::kIncognito;
    SCOPED_TRACE(incognito ? "incognito" : "tds");
    uint64_t rows_scanned = 0;  // tds.rows_scanned added by the last run
    auto run = [&](int threads) {
      tracer().Clear();
      PgOptions options;
      options.s = 0.5;
      options.p = 0.25;
      options.seed = 2008;
      options.num_threads = threads;
      options.generalizer = generalizer;
      RobustPublisher publisher(options);
      PublishReport report;
      const uint64_t before = CounterValue("tds.rows_scanned");
      auto published = publisher.Publish(hospital.table,
                                         hospital.TaxonomyPointers(), &report);
      EXPECT_TRUE(published.ok()) << published.status().ToString();
      rows_scanned = CounterValue("tds.rows_scanned") - before;
      return tracer().TakeSnapshot();
    };

    const std::vector<SpanRecord> serial_spans = run(1);
    const auto serial = SpanSet(serial_spans);
    const std::vector<SpanRecord> eight_spans = run(8);
    const auto two = SpanSet(run(2));
    const auto eight = SpanSet(eight_spans);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, two);
    EXPECT_EQ(serial, eight);
    // The phase spans hang off the attempt span, which hangs off the
    // robust.publish root.
    for (const char* phase :
         {"publish.perturb", "publish.generalize", "publish.sample"}) {
      EXPECT_GT(serial.count({phase, "robust.attempt"}), 0u)
          << "phase span " << phase << " not linked under robust.attempt";
    }
    EXPECT_GT(serial.count({"robust.attempt", "robust.publish"}), 0u);
    EXPECT_GT(serial.count({"robust.publish", "<root>"}), 0u);
    // Each generalizer emits one span per search round under the
    // generalize phase: Incognito per lattice level, TDS per
    // specialization round. Their attributes count search work, so they
    // too must not depend on the thread count.
    EXPECT_EQ(serial.count({"incognito.level", "publish.generalize"}) > 0,
              incognito);
    EXPECT_EQ(serial.count({"tds.round", "publish.generalize"}) > 0,
              !incognito);
    const char* round_span = incognito ? "incognito.level" : "tds.round";
    EXPECT_EQ(SpanAttrs(serial_spans, round_span),
              SpanAttrs(eight_spans, round_span));
    for (const auto& attrs : SpanAttrs(serial_spans, "incognito.level")) {
      for (const char* key :
           {"level", "candidates", "checked", "parents", "implied",
            "minimal"}) {
        ASSERT_EQ(attrs.count(key), 1u) << key;
      }
      EXPECT_EQ(attrs.at("checked") + attrs.at("implied"),
                attrs.at("candidates"));
      // Each parent fold decides at least one checked child.
      EXPECT_LE(attrs.at("parents"), attrs.at("checked"));
    }
    // TDS scores a (group, attribute) pair from its rows once, the first
    // round a dirty candidate visits it, and folds the cached term in
    // every later round: the first round can reuse nothing, a round that
    // scores no group reads no rows, and the rounds' row counts add up to
    // the tds.rows_scanned counter.
    const auto rounds = SpanAttrs(serial_spans, "tds.round");
    uint64_t round_rows = 0;
    for (size_t i = 0; i < rounds.size(); ++i) {
      const auto& attrs = rounds[i];
      for (const char* key :
           {"dirty", "groups_scored", "groups_reused", "rows_scanned"}) {
        ASSERT_EQ(attrs.count(key), 1u) << key;
      }
      if (i == 0) {
        EXPECT_EQ(attrs.at("groups_reused"), 0u);
      }
      EXPECT_GE(attrs.at("rows_scanned"), attrs.at("groups_scored"));
      if (attrs.at("groups_scored") == 0) {
        EXPECT_EQ(attrs.at("rows_scanned"), 0u);
      }
      round_rows += attrs.at("rows_scanned");
    }
    EXPECT_EQ(round_rows, incognito ? 0u : rows_scanned);
  }
}

TEST_F(GlobalTracerTest, BreachRoundSpansAreThreadCountInvariant) {
  // An audit round under a PG release names its two layers: the ℰ index
  // build and the trial fan-out, each once, with attributes that describe
  // the work and not the schedule.
  CensusDataset census = GenerateCensus(2000, 42).ValueOrDie();
  ScenarioDataset dataset;
  dataset.name = "census";
  dataset.microdata = &census.table;
  dataset.taxonomies = census.TaxonomyPointers();
  dataset.sensitive_attr = CensusColumns::kIncome;
  ScenarioOptions options;
  options.harness.num_victims = 40;
  const PgScenarioPublisher publisher;
  const Release release =
      publisher.Publish(dataset, options, nullptr).ValueOrDie();
  const CorruptionLinkingAdversary adversary;
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    ScenarioOptions round = options;
    round.harness.pool = threads > 1 ? &pool : nullptr;
    tracer().Clear();
    const Status status =
        BreachScenario::RunOnRelease(release, adversary, dataset, round)
            .status();
    EXPECT_TRUE(status.ok()) << status.ToString();
    return tracer().TakeSnapshot();
  };
  const std::vector<SpanRecord> serial_spans = run(1);
  const std::vector<SpanRecord> eight_spans = run(8);
  const auto serial = SpanSet(serial_spans);
  EXPECT_EQ(serial.count({"attack.linking_index", "<root>"}), 1u);
  EXPECT_EQ(serial.count({"attack.trials", "<root>"}), 1u);
  EXPECT_EQ(serial, SpanSet(eight_spans));
  for (const char* name : {"attack.linking_index", "attack.trials"}) {
    EXPECT_EQ(SpanAttrs(serial_spans, name), SpanAttrs(eight_spans, name))
        << name;
  }
  const auto index = SpanAttrs(serial_spans, "attack.linking_index");
  ASSERT_EQ(index.size(), 1u);
  // The runner-built ℰ: every microdata row plus rows/20 extraneous.
  EXPECT_EQ(index[0].at("individuals"), 2000u + 2000u / 20);
  EXPECT_EQ(index[0].at("rows"), release.pg->num_rows());
  const auto trials = SpanAttrs(serial_spans, "attack.trials");
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_EQ(trials[0].at("trials"), 40u);
}

// ------------------------------------------------------- Chrome export

TEST(ChromeExportTest, EventShapeAndRebasedTimestamps) {
  std::vector<SpanRecord> spans(2);
  spans[0].trace_id = 1;
  spans[0].span_id = 2;
  spans[0].parent_id = 0;
  spans[0].name = "a";
  spans[0].start_ns = 5000;
  spans[0].end_ns = 9000;
  spans[0].thread_index = 0;
  spans[1].trace_id = 1;
  spans[1].span_id = 3;
  spans[1].parent_id = 2;
  spans[1].name = "b";
  spans[1].start_ns = 6000;
  spans[1].end_ns = 7000;
  spans[1].thread_index = 1;
  spans[1].attributes.emplace_back("tenant", JsonValue::Str("census"));

  const JsonValue doc = obs::ChromeTraceJson(spans);
  EXPECT_EQ(*doc.Find("displayTimeUnit")->AsString(), "ms");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);

  const JsonValue& first = events->items()[0];
  EXPECT_EQ(*first.Find("ph")->AsString(), "X");
  EXPECT_EQ(*first.Find("cat")->AsString(), "pgpub");
  // Timestamps are rebased to the earliest span and converted to us.
  EXPECT_DOUBLE_EQ(*first.Find("ts")->AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(*first.Find("dur")->AsDouble(), 4.0);
  EXPECT_EQ(*first.Find("tid")->AsUint64(), 0u);
  EXPECT_EQ(*first.Find("args")->Find("span_id")->AsUint64(), 2u);

  const JsonValue& second = events->items()[1];
  EXPECT_DOUBLE_EQ(*second.Find("ts")->AsDouble(), 1.0);
  EXPECT_EQ(*second.Find("args")->Find("parent_id")->AsUint64(), 2u);
  EXPECT_EQ(*second.Find("args")->Find("tenant")->AsString(), "census");
}

TEST(ChromeExportTest, WriteRoundTripsThroughDisk) {
  std::vector<SpanRecord> spans(1);
  spans[0].trace_id = 9;
  spans[0].span_id = 4;
  spans[0].name = "roundtrip";
  spans[0].start_ns = 100;
  spans[0].end_ns = 300;

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::WriteChromeTrace(spans, path).ok());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->Find("traceEvents")->items().size(), 1u);
  EXPECT_EQ(
      *parsed->Find("traceEvents")->items()[0].Find("name")->AsString(),
      "roundtrip");
}

TEST(ChromeExportTest, UnwritablePathFailsClosed) {
  EXPECT_FALSE(
      obs::WriteChromeTrace({}, "/nonexistent-dir/trace.json").ok());
}

// --------------------------------------------------- Prometheus render

TEST(PrometheusRenderTest, LabeledMetricNameIsCanonical) {
  EXPECT_EQ(obs::MetricsRegistry::LabeledMetricName(
                "m", {{"b", "2"}, {"a", "1"}}),
            "m{a=\"1\",b=\"2\"}");  // labels sort for a stable identity
  EXPECT_EQ(obs::MetricsRegistry::LabeledMetricName("m", {}), "m");
  EXPECT_EQ(
      obs::MetricsRegistry::LabeledMetricName("m", {{"k", "a\"b"}}),
      "m{k=\"a\\\"b\"}");
}

TEST(PrometheusRenderTest, RendersLabeledCountersAndHistograms) {
  obs::MetricsRegistry registry;
  registry
      .GetCounter(obs::MetricsRegistry::LabeledMetricName(
          "server.requests", {{"tenant", "census"}}))
      ->Add();
  obs::Histogram* h =
      registry.GetHistogram(obs::MetricsRegistry::LabeledMetricName(
          "server.latency_us", {{"tenant", "census"}}));
  h->Observe(0);
  h->Observe(3);

  const std::string text = obs::RenderPrometheus(registry.TakeSnapshot());
  EXPECT_NE(text.find("# TYPE server_requests counter"), std::string::npos);
  EXPECT_NE(text.find("server_requests{tenant=\"census\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE server_latency_us histogram"),
            std::string::npos);
  // Cumulative buckets: value 0 lands in the le="0" bucket, value 3 in
  // le="3" ([2,4) has inclusive upper bound 3); +Inf and _count agree.
  EXPECT_NE(text.find("server_latency_us_bucket{tenant=\"census\",le=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("server_latency_us_bucket{tenant=\"census\",le=\"+Inf\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("server_latency_us_count{tenant=\"census\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("server_latency_us_sum{tenant=\"census\"} 3"),
            std::string::npos);
}

TEST(PrometheusRenderTest, SanitizesIllegalNameCharacters) {
  obs::MetricsRegistry registry;
  registry.GetCounter("engine.cache-hits.total")->Add(5);
  const std::string text = obs::RenderPrometheus(registry.TakeSnapshot());
  EXPECT_NE(text.find("engine_cache_hits_total 5"), std::string::npos);
}

}  // namespace
}  // namespace pgpub
