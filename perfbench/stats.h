#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// Order statistics and the span self-time fold used by the benchmark.
/// Header-only and free of pgpub dependencies so stats_test.cc can pin
/// them without building the library.
namespace perfbench {

/// Percentile `q` in [0, 1] by linear interpolation between closest ranks
/// (the default of numpy.percentile). 0 for an empty input.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// One finished span: `parent` is 0 for a root or the id of its parent.
struct SpanNode {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct SelfTimeRow {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;  ///< Summed span durations.
  uint64_t self_ns = 0;   ///< Summed durations minus child coverage.
};

/// Length of the union of [start, end) intervals clipped to [lo, hi).
inline uint64_t CoveredLength(std::vector<std::pair<uint64_t, uint64_t>> spans,
                              uint64_t lo, uint64_t hi) {
  std::sort(spans.begin(), spans.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (auto [start, end] : spans) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

/// Folds spans into per-name totals. A span's self time is its duration
/// minus the part of its interval covered by its children (overlapping
/// children, e.g. parallel chunks, are counted once). Rows are sorted by
/// descending self time, then name.
inline std::vector<SelfTimeRow> FoldSelfTime(const std::vector<SpanNode>& spans) {
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const SpanNode& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTimeRow> rows;
  for (const SpanNode& s : spans) {
    const uint64_t duration = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    uint64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      covered = CoveredLength(it->second, s.start_ns, s.end_ns);
    }
    SelfTimeRow& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    row.total_ns += duration;
    row.self_ns += duration - covered;
  }
  std::vector<SelfTimeRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(), [](const SelfTimeRow& a, const SelfTimeRow& b) {
    return a.self_ns != b.self_ns ? a.self_ns > b.self_ns : a.name < b.name;
  });
  return out;
}

}  // namespace perfbench
