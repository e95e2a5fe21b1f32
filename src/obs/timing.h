// Shared wall-clock utility — the ONE place the codebase reads a clock.
//
// Every latency number this repository reports (the sampled op-latency
// histograms of TableMetrics (src/obs/metrics.h), the span durations in
// src/obs/span_recorder.h, the insert/rehash nanosecond histograms, and
// the hand-timed bench loops in bench/) goes through NowNs() below, so
// all of them share one clock source and one set of caveats:
//
//  - std::chrono::steady_clock: monotone, immune to NTP steps. On Linux
//    this is clock_gettime(CLOCK_MONOTONIC), a ~20 ns vDSO call — cheap
//    enough to bracket sampled operations, too expensive to bracket every
//    operation (which is why the op timer samples 1-in-N).
//  - Ticks are nanoseconds since an arbitrary epoch; only differences are
//    meaningful. A tick of 0 cannot occur in practice (the epoch is boot),
//    which the op timer exploits as its "not sampled" sentinel.
//
// Deliberately NOT gated on MCCUCKOO_NO_METRICS: benches and tools need
// wall-clock time whether or not the tables record it. The metrics-facing
// wrapper MetricsNowNs() (src/obs/metrics.h) compiles to 0 in no-metrics
// builds so table hot paths skip the clock read entirely.

#ifndef MCCUCKOO_OBS_TIMING_H_
#define MCCUCKOO_OBS_TIMING_H_

#include <chrono>
#include <cstdint>

namespace mccuckoo {

/// Monotone nanosecond tick; never returns 0.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Elapsed-time helper for bench loops: starts running at construction,
/// Restart() re-arms it, Elapsed*() reads without stopping.
class Stopwatch {
 public:
  Stopwatch() : start_(NowNs()) {}

  void Restart() { start_ = NowNs(); }

  uint64_t ElapsedNs() const { return NowNs() - start_; }

  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNs()) * 1e-9;
  }

 private:
  uint64_t start_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_TIMING_H_
