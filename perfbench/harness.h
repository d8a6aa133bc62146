#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

/// \file
/// Shared vocabulary of the benchmark's workloads: the run configuration
/// parsed from the command line and the result each workload fills in.
namespace perfbench {

/// One benchmark run, as given on the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Worker threads of the cold publishes and the breach trial pool: at most
/// two, so a run leaves half of a 4-core host to everything else.
inline constexpr int kWorkerThreads = 2;

/// What a workload reports. `metrics` holds the end-to-end values (always)
/// and, in a traced run, the per-layer values; main.cc prints the subset
/// BENCHMARK.json names for the run's mode.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< Each failed check, human-readable.
  std::map<std::string, double> metrics;
  /// What the run was: sizes, threads, operation count, rates.
  pgpub::obs::JsonValue context = pgpub::obs::JsonValue::Object();
  /// Traced runs: per-span self-time rows (see stats.h FoldSelfTime).
  pgpub::obs::JsonValue layers = pgpub::obs::JsonValue::Array();

  /// Records a failed correctness check; the run then reports
  /// correct=false and exits non-zero.
  void Fail(std::string why) { errors.push_back(std::move(why)); }
  bool correct() const { return errors.empty(); }
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

inline pgpub::obs::JsonValue JsonArray(const std::vector<double>& values) {
  pgpub::obs::JsonValue out = pgpub::obs::JsonValue::Array();
  for (double v : values) out.Append(pgpub::obs::JsonValue::Double(v));
  return out;
}

/// Whether to repeat the set-up once more, given the durations so far:
/// at least 3 times and until 3 s of set-up have run (at most 100 times).
/// setup_s is the median, so a cheap set-up is sampled across more of the
/// host's speed swings than one repetition would see.
inline bool KeepSettingUp(const std::vector<double>& setup_s) {
  double total = 0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 3.0 && setup_s.size() < 100);
}

/// Fewest timed operations a run reports a median over, even when
/// `--seconds` has already elapsed.
inline constexpr size_t kMinTimedOps = 3;

/// Whether a timed loop that has run `ops` operations over a pool of
/// `pool_size` inputs, started at `loop_t0`, should run another. Loops run
/// whole passes over the pool (so every run's median covers the same
/// operations; `--seed` only rotates their order) until `seconds` have
/// elapsed, and at least kMinTimedOps operations.
inline bool KeepTiming(size_t ops, size_t pool_size, uint64_t loop_t0,
                       double seconds) {
  return ops < kMinTimedOps || ops % pool_size != 0 ||
         SecondsSince(loop_t0) < seconds;
}

/// FNV-1a over 64-bit words, mixed byte by byte — the digest vocabulary of
/// the repository's golden pins (a release digest computed here equals the
/// one tests/sal_golden_test.cc pins).
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Mix(int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<uint64_t>(v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::string Hex(uint64_t v);

void RunSalTdsCold(const RunConfig& config, RunResult* result);
void RunIncognitoCold(const RunConfig& config, RunResult* result);
void RunServeMix(const RunConfig& config, RunResult* result);
void RunBreachAudit(const RunConfig& config, RunResult* result);

}  // namespace perfbench
