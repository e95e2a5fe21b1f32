// Kick-chain trace ring buffer — the post-mortem side of the observability
// layer.
//
// Aggregate histograms (src/obs/metrics.h) tell you kick chains got long;
// they cannot tell you *which* buckets a failing insert bounced between or
// what the counters looked like when it gave up. The TraceRecorder keeps
// the last N kick-chain events in a fixed ring: each event captures, per
// eviction step, the victim's global bucket index and its copy count at
// eviction time, plus whether the chain ended in the stash. Dumping the
// ring after a spill reconstructs the failure neighbourhood exactly —
// which buckets are saturated with sole copies, and whether the walk was
// cycling.
//
// Threading: events are recorded only from the single-writer table paths,
// which ShardedMcCuckoo serializes under the shard's exclusive lock (the
// multi-writer paths record no trace). Events() snapshots are meant for
// post-mortem inspection under the same exclusion (WithExclusiveShard);
// the recorder itself is intentionally unsynchronized so the hot path
// stays a couple of plain stores.
//
// With -DMCCUCKOO_NO_METRICS the ring is not allocated and Record() is a
// no-op, so the whole facility (including its ~50 KB of ring memory per
// table) disappears.

#ifndef MCCUCKOO_OBS_TRACE_RECORDER_H_
#define MCCUCKOO_OBS_TRACE_RECORDER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"

namespace mccuckoo {

/// One eviction step inside a kick chain.
struct KickStep {
  uint64_t bucket = 0;   ///< Global bucket index the victim was evicted from.
  uint32_t counter = 0;  ///< Victim's copy count at eviction time.
};

/// Steps captured per event. Chains longer than this (rare: the paper's
/// point is that counters keep chains short) keep their true chain_len but
/// only the first kMaxTraceSteps steps.
inline constexpr size_t kMaxTraceSteps = 16;

/// One full kick-chain event.
struct KickChainEvent {
  uint64_t seq = 0;        ///< Monotone event number (recorder-assigned).
  uint32_t chain_len = 0;  ///< Total kick-outs in the chain.
  uint32_t n_steps = 0;    ///< Steps captured (min(chain_len, kMaxTraceSteps)).
  bool stashed = false;    ///< Chain overran maxloop; the item was stashed.
  std::array<KickStep, kMaxTraceSteps> step{};
};

/// Fixed-capacity ring of the most recent kick-chain events.
class TraceRecorder {
 public:
  /// Default capacity: enough recent chains to reconstruct any failure
  /// neighbourhood while keeping the ring's memory trivial.
  static constexpr size_t kDefaultCapacity = 256;

  explicit TraceRecorder(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
#ifndef MCCUCKOO_NO_METRICS
    ring_.resize(capacity_);
#endif
  }

  /// Appends `ev`, assigning its sequence number; overwrites the oldest
  /// event when the ring is full.
  void Record(KickChainEvent ev) {
#ifndef MCCUCKOO_NO_METRICS
    ev.seq = next_seq_++;
    ring_[ev.seq % capacity_] = ev;
#else
    (void)ev;
#endif
  }

  /// Events currently retained, oldest first.
  std::vector<KickChainEvent> Events() const {
    std::vector<KickChainEvent> out;
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

  /// Total events ever recorded (>= Events().size()).
  uint64_t total_events() const { return next_seq_; }

  /// Events recorded with stashed == true, ever.
  uint64_t total_stashed() const { return stashed_; }

  size_t capacity() const { return capacity_; }

  void Clear() {
#ifndef MCCUCKOO_NO_METRICS
    for (auto& e : ring_) e = KickChainEvent{};
#endif
    next_seq_ = 0;
    stashed_ = 0;
  }

  /// Bumps the stashed-event tally (called by the table alongside Record
  /// for failed chains; kept separate so the count survives ring wrap).
  void NoteStashed() { ++stashed_; }

 private:
  size_t capacity_;
  std::vector<KickChainEvent> ring_;
  uint64_t next_seq_ = 0;
  uint64_t stashed_ = 0;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_TRACE_RECORDER_H_
