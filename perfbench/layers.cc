#include "layers.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/random.h"
#include "core/validate.h"
#include "core/verify.h"
#include "generalize/incognito.h"
#include "generalize/metrics.h"
#include "generalize/qi_groups.h"
#include "generalize/tds.h"
#include "harness.h"
#include "obs/trace.h"
#include "perturb/randomized_response.h"
#include "sample/stratified.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {

using namespace pgpub;

uint64_t ReleaseDigest(const PublishedTable& table) {
  Fnv fnv;
  fnv.Mix(static_cast<int64_t>(table.num_rows()));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (int i = 0; i < table.num_qi_attrs(); ++i) fnv.Mix(table.qi_gen(r, i));
    fnv.Mix(table.sensitive(r));
    fnv.Mix(static_cast<int64_t>(table.group_size(r)));
  }
  return fnv.h;
}

void ReportLayerMedians(const std::vector<LayerTimes>& passes,
                        std::map<std::string, double>* metrics) {
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const LayerTimes& t : passes) {
      if (const double x = static_cast<double>(field(t)); x != 0) v.push_back(x);
    }
    return Median(v);
  };
  auto& m = *metrics;
  m["tds.run_s"] = median_of([](const LayerTimes& t) { return t.tds_run_s; });
  m["tds.specializations"] =
      median_of([](const LayerTimes& t) { return t.tds_specializations; });
  m["incognito.search_s"] =
      median_of([](const LayerTimes& t) { return t.incognito_search_s; });
  m["incognito.nodes_examined"] =
      median_of([](const LayerTimes& t) { return t.incognito_nodes_examined; });
  m["incognito.children_pruned"] =
      median_of([](const LayerTimes& t) { return t.incognito_children_pruned; });
  m["incognito.minimal_nodes"] =
      median_of([](const LayerTimes& t) { return t.incognito_minimal_nodes; });
  m["generalize.global_ncp_s"] = median_of([](const LayerTimes& t) {
    return t.global_ncp_s * static_cast<double>(t.incognito_minimal_nodes);
  });
  m["columnar.qi_index_build_s"] =
      median_of([](const LayerTimes& t) { return t.qi_index_build_s; });
  m["columnar.distinct_tuples"] =
      median_of([](const LayerTimes& t) { return t.distinct_tuples; });
  m["perturb.perturb_s"] =
      median_of([](const LayerTimes& t) { return t.perturb_s; });
  m["sample.sample_s"] = median_of([](const LayerTimes& t) { return t.sample_s; });
  m["core.verify_s"] = median_of([](const LayerTimes& t) { return t.verify_s; });
  m["core.solve_p_s"] = median_of([](const LayerTimes& t) { return t.solve_p_s; });
}

namespace {

/// Times one call into a layer: wall seconds into `*seconds`, and a span
/// of the given literal name around it (recorded when tracing is on).
template <typename Fn>
auto Timed(const char* span_name, double* seconds, Fn&& fn) {
  obs::ScopedSpan span(span_name);
  const uint64_t t0 = NowNs();
  auto out = fn();
  *seconds = SecondsSince(t0);
  return out;
}

}  // namespace

Result<LayerTimes> RunLayers(const LayerInputs& in, PublishedTable* release) {
  obs::ScopedSpan root("bench.layers");
  LayerTimes t;
  const Table& table = *in.table;
  const PgOptions& options = in.options;

  if (!in.inputs_prevalidated) {
    RETURN_IF_ERROR(Timed("bench.validate", &t.validate_s, [&] {
      return ValidatePublishInputs(table, in.taxonomies, options);
    }));
  }
  const std::vector<int> qi = table.schema().QiIndices();
  ASSIGN_OR_RETURN(const int sens, table.schema().SensitiveIndex());
  const int32_t us = table.domain(sens).size();
  ASSIGN_OR_RETURN(const int k, PgPublisher::EffectiveK(options));
  Result<double> p_or = Timed("bench.solve_p", &t.solve_p_s, [&] {
    return PgPublisher::EffectiveRetention(options, k, us);
  });
  ASSIGN_OR_RETURN(const double p, std::move(p_or));

  // Seed wire format of PgPublisher: perturbation fork, then sampling fork.
  Rng master(options.seed);
  const uint64_t perturb_seed = master.Fork();
  Rng sample_rng(master.Fork());

  Result<std::vector<int32_t>> perturbed_or =
      Timed("bench.perturb", &t.perturb_s, [&] {
        return UniformPerturbation(p, us).PerturbColumnStreams(
            table.column(sens), perturb_seed, in.pool);
      });
  ASSIGN_OR_RETURN(std::vector<int32_t> perturbed, std::move(perturbed_or));

  std::vector<int32_t> class_labels = perturbed;
  int num_classes = us;
  if (!options.class_category_starts.empty()) {
    const auto& starts = options.class_category_starts;
    num_classes = static_cast<int>(starts.size());
    for (int32_t& label : class_labels) {
      label = static_cast<int32_t>(
          std::upper_bound(starts.begin(), starts.end(), label) -
          starts.begin() - 1);
    }
  }

  GlobalRecoding recoding;
  if (in.cached_recoding != nullptr) {
    recoding = *in.cached_recoding;
  } else if (options.generalizer == PgOptions::Generalizer::kTds) {
    // TDS builds whatever Phase-2 state it needs inside Run(), as the
    // one-shot publish does; only a serving engine hands it the shared
    // index it built at registration.
    TdsOptions tds_options;
    tds_options.k = k;
    tds_options.pool = in.pool;
    tds_options.qi_index = in.prebuilt_index;
    TopDownSpecializer tds(table, qi, in.taxonomies, std::move(class_labels),
                           num_classes, tds_options);
    Result<GlobalRecoding> rec =
        Timed("bench.tds_run", &t.tds_run_s, [&] { return tds.Run(); });
    ASSIGN_OR_RETURN(recoding, std::move(rec));
    t.tds_specializations = static_cast<uint64_t>(tds.num_specializations());
  } else {
    const columnar::QiIndex* index = in.prebuilt_index;
    std::optional<columnar::QiIndex> built;
    if (index == nullptr) {
      built = Timed("bench.qi_index_build", &t.qi_index_build_s,
                    [&] { return columnar::QiIndex::Build(table, qi); });
      index = &*built;
    }
    t.distinct_tuples = index->num_tuples();
    IncognitoOptions inc_options;
    inc_options.k = k;
    inc_options.pool = in.pool;
    inc_options.qi_index = index;
    const CounterDelta examined("incognito.nodes_examined");
    const CounterDelta pruned("incognito.children_pruned");
    const CounterDelta minimal("incognito.minimal_nodes");
    Result<GlobalRecoding> rec =
        Timed("bench.incognito_search", &t.incognito_search_s, [&] {
          return IncognitoSearch(table, qi, in.taxonomies, inc_options);
        });
    ASSIGN_OR_RETURN(recoding, std::move(rec));
    t.incognito_nodes_examined = examined.value();
    t.incognito_children_pruned = pruned.value();
    t.incognito_minimal_nodes = minimal.value();
  }

  struct Grouped {
    QiGroups groups;
    std::vector<StratumSample> samples;
  };
  const Grouped grouped = Timed("bench.groups_sample", &t.sample_s, [&] {
    Grouped g;
    g.groups = ComputeQiGroups(table, recoding);
    g.samples = StratifiedSample(g.groups, sample_rng);
    return g;
  });
  if (!IsKAnonymous(grouped.groups, k)) {
    return Status::Internal("layer pass produced a non-k-anonymous recoding");
  }

  PublishedTable published =
      Timed("bench.assemble", &t.assemble_s, [&] {
        std::vector<std::vector<int32_t>> qi_gen;
        std::vector<int32_t> sensitive;
        std::vector<uint32_t> group_sizes;
        qi_gen.reserve(grouped.samples.size());
        sensitive.reserve(grouped.samples.size());
        group_sizes.reserve(grouped.samples.size());
        for (const StratumSample& s : grouped.samples) {
          qi_gen.push_back(recoding.GenVectorOfRow(table, s.row));
          sensitive.push_back(perturbed[s.row]);
          group_sizes.push_back(s.group_size);
        }
        return PublishedTable(table.schema(), table.domains(), recoding, sens,
                              p, k, std::move(qi_gen), std::move(sensitive),
                              std::move(group_sizes));
      });

  RETURN_IF_ERROR(Timed("bench.verify", &t.verify_s, [&] {
    return VerifyPublication(table, published);
  }));
  const double ncp = Timed("bench.global_ncp", &t.global_ncp_s,
                           [&] { return GlobalNcp(table, recoding); });
  (void)ncp;
  t.digest = ReleaseDigest(published);
  if (release != nullptr) *release = std::move(published);
  return t;
}

}  // namespace perfbench
