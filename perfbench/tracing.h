#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"

/// \file
/// Collection side of a traced run: the program's tracer is switched on
/// only around the operations being traced, and what it recorded (the
/// program's own phase spans plus the benchmark's spans around each
/// layer call) is folded into a per-span self-time table, next to the
/// totals of the `span.*` histograms the program exports.
namespace perfbench {

/// Growth of one exported counter since construction.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : counter_(pgpub::obs::MetricsRegistry::Global().GetCounter(name)),
        start_(counter_->value()) {}
  uint64_t value() const { return counter_->value() - start_; }

 private:
  const pgpub::obs::Counter* counter_;
  uint64_t start_;
};

/// Growth of one exported histogram's sum since construction.
class HistogramSumDelta {
 public:
  explicit HistogramSumDelta(const char* name)
      : histogram_(pgpub::obs::MetricsRegistry::Global().GetHistogram(name)),
        start_(histogram_->sum()) {}
  uint64_t value() const { return histogram_->sum() - start_; }

 private:
  const pgpub::obs::Histogram* histogram_;
  uint64_t start_;
};

class TraceCollector {
 public:
  /// Clears and enables the program tracer, and notes the `span.*`
  /// histogram totals so Stop() can attribute their growth to this window.
  void Start() {
    pgpub::obs::Tracer& tracer = pgpub::obs::Tracer::Global();
    tracer.Clear();
    tracer.Enable();
    hist0_ = SpanHistograms();
  }

  /// Disables the tracer and keeps what it collected since Start().
  void Stop() {
    pgpub::obs::Tracer& tracer = pgpub::obs::Tracer::Global();
    tracer.Disable();
    for (const pgpub::obs::SpanRecord& r : tracer.TakeSnapshot()) {
      if (std::string_view(r.name) == "server.request") {
        for (const auto& [key, value] : r.attributes) {
          if (std::string_view(key) != "stream") continue;
          if (pgpub::Result<uint64_t> stream = value.AsUint64(); stream.ok()) {
            request_span_[*stream] = spans_.size();
          }
        }
      }
      spans_.push_back({r.span_id, r.parent_id, r.name, r.start_ns, r.end_ns});
    }
    tracer.Clear();
    for (const auto& [name, now] : SpanHistograms()) {
      const auto before = hist0_.find(name);
      const Totals base = before == hist0_.end() ? Totals{} : before->second;
      hist_[name].count += now.count - base.count;
      hist_[name].sum_ns += now.sum_ns - base.sum_ns;
    }
  }

  /// Records a served request as the benchmark sees it — from its due time
  /// to its callback, which runs on the dispatcher thread — and adopts the
  /// server's own `server.request` span for that stream id as its child.
  void AddRequest(uint64_t stream, uint64_t due_ns, uint64_t done_ns) {
    const uint64_t id = next_local_id_--;
    if (auto it = request_span_.find(stream); it != request_span_.end()) {
      spans_[it->second].parent = id;
    }
    spans_.push_back({id, 0, "bench.request", due_ns, done_ns});
  }

  /// One row per span name: count, total and self seconds from the folded
  /// spans, and the matching `span.<name>` histogram count and total.
  pgpub::obs::JsonValue SelfTimeTable() const {
    pgpub::obs::JsonValue rows = pgpub::obs::JsonValue::Array();
    for (const SelfTimeRow& row : FoldSelfTime(spans_)) {
      pgpub::obs::JsonValue r = pgpub::obs::JsonValue::Object();
      r.Set("span", row.name);
      r.Set("count", row.count);
      r.Set("total_s", static_cast<double>(row.total_ns) * 1e-9);
      r.Set("self_s", static_cast<double>(row.self_ns) * 1e-9);
      if (auto it = hist_.find("span." + row.name); it != hist_.end()) {
        r.Set("hist_count", it->second.count);
        r.Set("hist_total_s", static_cast<double>(it->second.sum_ns) * 1e-9);
      }
      rows.Append(std::move(r));
    }
    return rows;
  }

 private:
  struct Totals {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
  };

  static std::map<std::string, Totals> SpanHistograms() {
    std::map<std::string, Totals> out;
    for (const auto& [name, h] :
         pgpub::obs::MetricsRegistry::Global().TakeSnapshot().histograms) {
      if (name.rfind("span.", 0) == 0) out[name] = {h.count, h.sum};
    }
    return out;
  }

  std::vector<SpanNode> spans_;
  std::map<std::string, Totals> hist0_;
  std::map<std::string, Totals> hist_;
  /// Index into spans_ of each collected `server.request`, by stream id.
  std::map<uint64_t, size_t> request_span_;
  /// Ids for AddRequest spans, counted down from the top so they never
  /// collide with the tracer's ascending ids.
  uint64_t next_local_id_ = ~uint64_t{0};
};

}  // namespace perfbench
