#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/parallel/thread_pool.h"
#include "common/result.h"
#include "core/columnar/qi_index.h"
#include "core/pg_publisher.h"
#include "core/published_table.h"
#include "hierarchy/recoding.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

/// \file
/// The layer pass: one publication re-executed from the library's public
/// per-layer entry points, each call timed (and wrapped in a benchmark
/// span), so a publish's end-to-end time can be attributed to layers from
/// outside the program. The pass mirrors PgPublisher::Publish's first
/// attempt step by step, and the release it assembles must be
/// byte-identical to the one RobustPublisher returned for the same
/// options — the check that the decomposition measured the real pipeline.
namespace perfbench {

struct LayerInputs {
  const pgpub::Table* table = nullptr;
  std::vector<const pgpub::Taxonomy*> taxonomies;
  pgpub::PgOptions options;
  pgpub::ThreadPool* pool = nullptr;
  /// A serving engine screens its inputs and builds its QI index once, at
  /// registration; pass them to skip both per request.
  bool inputs_prevalidated = false;
  const pgpub::columnar::QiIndex* prebuilt_index = nullptr;
  /// A serving cache hit: use this recoding instead of searching.
  const pgpub::GlobalRecoding* cached_recoding = nullptr;
};

/// Seconds spent in each public call, plus the counts the calls expose.
struct LayerTimes {
  double validate_s = 0;         ///< ValidatePublishInputs
  double solve_p_s = 0;          ///< PgPublisher::EffectiveRetention
  double perturb_s = 0;          ///< UniformPerturbation::PerturbColumnStreams
  /// columnar::QiIndex::Build on the Incognito leg; TDS builds its own
  /// Phase-2 state inside tds_run_s.
  double qi_index_build_s = 0;
  double tds_run_s = 0;          ///< TopDownSpecializer::Run
  double incognito_search_s = 0; ///< IncognitoSearch
  double sample_s = 0;           ///< ComputeQiGroups + StratifiedSample
  double assemble_s = 0;         ///< GenVectorOfRow + PublishedTable
  double verify_s = 0;           ///< VerifyPublication
  double global_ncp_s = 0;       ///< One GlobalNcp call on the result.

  uint64_t distinct_tuples = 0;
  uint64_t tds_specializations = 0;
  uint64_t incognito_nodes_examined = 0;
  uint64_t incognito_children_pruned = 0;
  uint64_t incognito_minimal_nodes = 0;

  uint64_t digest = 0;  ///< ReleaseDigest of the assembled release.

  /// Total time in the calls a publish makes (global_ncp_s is a probe,
  /// not a pipeline step, and is excluded).
  double PipelineSeconds() const {
    return validate_s + solve_p_s + perturb_s + qi_index_build_s +
           tds_run_s + incognito_search_s + sample_s + assemble_s + verify_s;
  }
};

/// Runs the pass; `release`, when non-null, receives the assembled table.
[[nodiscard]] pgpub::Result<LayerTimes> RunLayers(
    const LayerInputs& inputs, pgpub::PublishedTable* release = nullptr);

/// Sets the per-layer metrics the layer pass measures to their medians
/// over the passes that ran the layer (a serving mix runs TDS on some
/// requests only); 0 when none did. generalize.global_ncp_s is computed:
/// one GlobalNcp call times the minimal nodes Incognito scores with it.
void ReportLayerMedians(const std::vector<LayerTimes>& passes,
                        std::map<std::string, double>* metrics);

/// Digest of everything a release publishes (generalized QI, sensitive,
/// group sizes), identical to the repository's pinned publication digest.
uint64_t ReleaseDigest(const pgpub::PublishedTable& table);

}  // namespace perfbench
