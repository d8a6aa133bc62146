#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync/lock_ranks.h"
#include "common/sync/mutex.h"

namespace pgpub {

/// Canonical failpoint names. Every instrumentation site in the library
/// uses one of these constants; tests sweep `kAll` to exercise every
/// failure path deterministically. Names are hierarchical
/// (`<subsystem>.<operation>`) so env specs stay readable.
namespace failpoints {

inline constexpr const char* kCsvReadFile = "csv.read_file";
inline constexpr const char* kTableLoadCsv = "table.load_csv";
inline constexpr const char* kTaxonomyLoad = "taxonomy.load";
inline constexpr const char* kRecodingLoad = "recoding.load";
inline constexpr const char* kPublishValidate = "publish.validate";
inline constexpr const char* kPublishPerturb = "publish.perturb";
/// Fires inside ParallelFor perturbation chunks — i.e. on pool worker
/// threads when the publisher runs parallel — so chaos tests can prove
/// that a failure raised *on a worker* still fails the release closed.
inline constexpr const char* kPerturbWorker = "perturb.worker_fail";
inline constexpr const char* kPublishGeneralizeTds = "publish.generalize.tds";
inline constexpr const char* kPublishGeneralizeIncognito =
    "publish.generalize.incognito";
inline constexpr const char* kPublishSample = "publish.sample";
inline constexpr const char* kPublishAssemble = "publish.assemble";
inline constexpr const char* kPublishAudit = "publish.audit";
/// Fires on the serving daemon's admission path (ServerCore::Submit):
/// the request is rejected with a typed Status before it ever enters the
/// queue — chaos tests prove an admission fault cannot lose a request
/// silently or publish anything.
inline constexpr const char* kServerAdmit = "server.admit_fail";
/// Fires when the dispatcher picks a queued request up: the request is
/// answered with a typed Status instead of being published, modelling a
/// corrupted queue slot that must fail closed.
inline constexpr const char* kServerQueueCorrupt = "server.queue_corrupt";
/// Fires on the engine's cache-hit re-check path (the k-anonymity
/// re-verification of a cached Phase-2 recoding): a failing re-check must
/// surface as Status::Internal, never as a published-but-unverified table.
inline constexpr const char* kEngineCacheRecheck =
    "engine.cache_recheck_fail";

inline constexpr const char* kAll[] = {
    kCsvReadFile,      kTableLoadCsv,
    kTaxonomyLoad,     kRecodingLoad,
    kPublishValidate,  kPublishPerturb,
    kPerturbWorker,
    kPublishGeneralizeTds, kPublishGeneralizeIncognito,
    kPublishSample,    kPublishAssemble,
    kPublishAudit,
    kServerAdmit,      kServerQueueCorrupt,
    kEngineCacheRecheck,
};

}  // namespace failpoints

/// Installs a callback invoked (outside any registry lock) each time a
/// failpoint actually fires, receiving the canonical point name. One
/// observer at a time; nullptr uninstalls. The observability layer uses
/// this to surface `failpoint_hit` events without common/ depending on
/// obs/ — common code never logs on its own.
void SetFailpointObserver(void (*observer)(const char* name));

/// \brief Process-wide registry of named fault-injection points.
///
/// A failpoint is a named site on a fallible path (see PGPUB_FAILPOINT
/// below). When enabled, the site returns `Status::Internal` instead of
/// proceeding, letting tests drive every failure path deterministically
/// without touching production logic. When nothing is enabled the site
/// costs one relaxed atomic load.
///
/// Trigger specs (used by Enable / the PGPUB_FAILPOINTS env var):
///
///   off          never trigger (default)
///   always       trigger on every hit
///   every(N)     trigger on every Nth hit (N >= 1)
///   times(N)     trigger on the first N hits, then never again
///   prob(P)      trigger each hit with probability P (deterministic
///                stream seeded from the failpoint name)
///   prob(P,SEED) same, explicit stream seed
///
/// Env syntax: `PGPUB_FAILPOINTS="name=spec;name=spec"` — parsed once at
/// first registry access; a malformed value aborts the process (a chaos
/// run with a typo'd spec must not silently test nothing).
///
/// Thread safety: all methods are safe to call concurrently.
class FailpointRegistry {
 public:
  /// The process-wide registry, env-initialized on first use.
  static FailpointRegistry& Global();

  /// Arms `name` with a trigger spec (see class comment). Unknown names
  /// are rejected with InvalidArgument so typos cannot silently disable a
  /// chaos sweep; use Register() first for ad-hoc test-only points.
  [[nodiscard]] Status Enable(const std::string& name, const std::string& spec)
      PGPUB_EXCLUDES(mu_);

  /// Parses a `name=spec;name=spec` list (the env syntax).
  [[nodiscard]] Status EnableFromSpec(const std::string& spec_list)
      PGPUB_EXCLUDES(mu_);

  /// Adds a non-canonical name to the registry (idempotent, starts off).
  void Register(const std::string& name) PGPUB_EXCLUDES(mu_);

  /// Disarms one failpoint (hit counters are kept).
  void Disable(const std::string& name) PGPUB_EXCLUDES(mu_);

  /// Disarms every failpoint and resets all counters.
  void DisableAll() PGPUB_EXCLUDES(mu_);

  /// True when at least one failpoint is armed — the macro fast path.
  bool AnyEnabled() const {
    return enabled_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Records a hit at `name` and returns whether the site must fail.
  /// Unknown names are registered on the fly (disarmed).
  bool ShouldFail(const char* name) PGPUB_EXCLUDES(mu_);

  /// Times the site was reached since the last DisableAll.
  uint64_t HitCount(const std::string& name) const PGPUB_EXCLUDES(mu_);
  /// Times the site actually fired since the last DisableAll.
  uint64_t TriggerCount(const std::string& name) const PGPUB_EXCLUDES(mu_);

  /// All names the registry knows (canonical + registered), sorted.
  std::vector<std::string> KnownNames() const PGPUB_EXCLUDES(mu_);

 private:
  struct Point {
    enum class Mode { kOff, kAlways, kEveryNth, kFirstN, kProb };
    Mode mode = Mode::kOff;
    uint64_t n = 1;          ///< every(N) / times(N) parameter.
    double prob = 0.0;       ///< prob(P) parameter.
    uint64_t rng_state = 0;  ///< SplitMix64 state for prob mode.
    uint64_t hits = 0;
    uint64_t triggers = 0;
  };

  FailpointRegistry();

  [[nodiscard]] Status EnableLocked(const std::string& name,
                                    const std::string& spec)
      PGPUB_REQUIRES(mu_);

  mutable Mutex mu_{"common.failpoint", lock_rank::kFailpoint};
  std::atomic<int> enabled_count_{0};
  std::map<std::string, Point> points_ PGPUB_GUARDED_BY(mu_);
};

}  // namespace pgpub

/// Fault-injection site for functions returning Status or Result<T>:
/// returns Status::Internal naming the failpoint when it is armed and its
/// trigger spec fires. Compiles to a single relaxed atomic load when no
/// failpoint is enabled.
#define PGPUB_FAILPOINT(name)                                              \
  do {                                                                     \
    if (::pgpub::FailpointRegistry::Global().AnyEnabled() &&               \
        ::pgpub::FailpointRegistry::Global().ShouldFail(name)) {           \
      return ::pgpub::Status::Internal(std::string("failpoint '") +        \
                                       (name) + "' triggered");            \
    }                                                                      \
  } while (false)

/// Expression form for call sites that handle the failure themselves.
#define PGPUB_FAILPOINT_TRIGGERED(name)                \
  (::pgpub::FailpointRegistry::Global().AnyEnabled() && \
   ::pgpub::FailpointRegistry::Global().ShouldFail(name))
