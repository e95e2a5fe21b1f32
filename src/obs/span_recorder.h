// Span ring buffer — the one event ring: timestamped records of the rare,
// slow table events.
//
// The sampled op timer (TableMetrics) sees tail latency as a distribution;
// this recorder captures the *causes* as discrete, timestamped spans:
// growth decisions, rehashes, seed rotations, BFS searches that
// dead-ended, and inserts that spilled to the stash (every table and write
// mode records the last two). Kick chains themselves are only counted, in
// the metrics histograms. Each span carries a start tick and duration on
// the shared clock (src/obs/timing.h), so a scrape of the ring lines up a
// p999 blip with "rehash, 41 ms, at t=...". The chrome://tracing exporter
// (ExportChromeTrace in src/obs/export.h) renders the ring as a timeline.
//
// Threading: spans are recorded only from table write paths, each under
// the one exclusion that covers the ring: a bare table's single writer,
// or a multi-writer shard's aux stripe (the stash tail takes it, and
// growth's drain includes it) — the ring is intentionally unsynchronized
// so recording stays a couple of plain stores. Scrapes of Events() and the
// totals take the same aux stripe (ShardedMcCuckoo::shard_spans and
// metrics_snapshot), so they never wait for writers on other stripes.
// Per-kind totals survive ring wrap-around and are folded into
// MetricsSnapshot::span_counts by the owning table.
//
// With -DMCCUCKOO_NO_METRICS the ring is not allocated and every method
// is a no-op returning zeros.

#ifndef MCCUCKOO_OBS_SPAN_RECORDER_H_
#define MCCUCKOO_OBS_SPAN_RECORDER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/timing.h"

namespace mccuckoo {

/// One recorded span. Instant events (dead-ends, spills) have dur_ns 0.
struct Span {
  uint64_t seq = 0;       ///< Monotone span number (recorder-assigned).
  uint64_t start_ns = 0;  ///< Start tick on the shared clock.
  uint64_t dur_ns = 0;    ///< Duration; 0 for instant events.
  uint64_t detail = 0;    ///< Kind-specific payload (item count, stash size).
  SpanKind kind = SpanKind::kGrowth;
};

/// Fixed-capacity ring of the most recent spans.
class SpanRecorder {
 public:
  /// Spans are orders of magnitude rarer than operations; 512 retains
  /// hours of steady-state history for a few tens of KB per table.
  static constexpr size_t kDefaultCapacity = 512;

  explicit SpanRecorder(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
#ifndef MCCUCKOO_NO_METRICS
    ring_.resize(capacity_);
#endif
  }

  /// Appends a closed span; overwrites the oldest when the ring is full.
  void Record(SpanKind kind, uint64_t start_ns, uint64_t end_ns,
              uint64_t detail = 0) {
#ifndef MCCUCKOO_NO_METRICS
    Span s;
    s.seq = next_seq_++;
    s.start_ns = start_ns;
    s.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
    s.detail = detail;
    s.kind = kind;
    ring_[s.seq % capacity_] = s;
    ++totals_[static_cast<size_t>(kind)];
#else
    (void)kind; (void)start_ns; (void)end_ns; (void)detail;
#endif
  }

  /// Appends a zero-duration event stamped "now".
  void RecordInstant(SpanKind kind, uint64_t detail = 0) {
#ifndef MCCUCKOO_NO_METRICS
    const uint64_t t = NowNs();
    Record(kind, t, t, detail);
#else
    (void)kind; (void)detail;
#endif
  }

  /// Spans currently retained, oldest first.
  std::vector<Span> Events() const {
    std::vector<Span> out;
#ifndef MCCUCKOO_NO_METRICS
    const uint64_t retained =
        next_seq_ < capacity_ ? next_seq_ : static_cast<uint64_t>(capacity_);
    out.reserve(retained);
    for (uint64_t i = next_seq_ - retained; i < next_seq_; ++i) {
      out.push_back(ring_[i % capacity_]);
    }
#endif
    return out;
  }

  /// Spans ever recorded of one kind (survives ring wrap).
  uint64_t total(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }

  /// All per-kind totals, SpanKind enumerator order.
  const std::array<uint64_t, kSpanKinds>& Totals() const { return totals_; }

  /// Spans ever recorded (>= Events().size()).
  uint64_t total_events() const { return next_seq_; }

  size_t capacity() const { return capacity_; }

  void Clear() {
#ifndef MCCUCKOO_NO_METRICS
    for (auto& s : ring_) s = Span{};
#endif
    next_seq_ = 0;
    totals_ = {};
  }

 private:
  size_t capacity_;
  std::vector<Span> ring_;
  uint64_t next_seq_ = 0;
  std::array<uint64_t, kSpanKinds> totals_{};
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_SPAN_RECORDER_H_
