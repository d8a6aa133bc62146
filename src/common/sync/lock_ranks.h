#pragma once

/// \file
/// The process-wide lock-rank table (DESIGN.md §13).
///
/// A thread may only acquire a ranked lock whose rank is strictly greater
/// than every ranked lock it already holds; the lock-order detector
/// (mutex.cc) enforces this at runtime in instrumented builds. Ranks grow
/// downward through the call tree: coarse orchestration locks rank low,
/// leaf observability locks rank high, so e.g. ServerCore may log and
/// bump metrics while holding its own lock but the logger can never call
/// back up into the server. Gaps are deliberate — insert new subsystems
/// without renumbering. Rank 0 (the Mutex default) means unranked: the
/// detector still applies graph-cycle checking, just no static order.
namespace pgpub::lock_rank {

inline constexpr int kServerCore = 10;   ///< server::ServerCore::mu_
inline constexpr int kThreadPool = 20;   ///< ThreadPool::mu_
inline constexpr int kEngineCache = 30;  ///< engine::LruCache::mu_
inline constexpr int kFailpoint = 80;    ///< FailpointRegistry::mu_
inline constexpr int kLogger = 85;       ///< obs::Logger::mu_
inline constexpr int kTracer = 87;       ///< obs::Tracer::mu_
inline constexpr int kMetrics = 90;      ///< obs::MetricsRegistry::mu_

}  // namespace pgpub::lock_rank
