#include "benchmark/workload.h"

#include <algorithm>
#include <cmath>

namespace mcbench {

namespace {

// Sizes are in requests and keys. Why each workload exists, and what its
// sizes buy, is in benchmark/README.md.
constexpr Workload kWorkloads[] = {
    // Cache-resident Zipf GETs: framing, syscalls and protocol dominate.
    {"get_hot", 1u << 16, 0.99, 0, 0.0, 1u << 16, true, 10, 1u << 22},
    // A store 2.7x the L3, grown from the default 64Ki slots; uniform
    // GETs, every fourth for a key never set.
    {"get_dram", 1u << 22, 0.0, 4, 0.0, 1u << 16, true, 2, 1u << 21},
    // Pre-sized table with growth off, overfilled by the warm-up: the
    // write path at full load (kicks, stash, pressure eviction).
    {"set_capped", 1u << 20, 0.9, 0, 0.5, 1u << 18, false, 3, 6u << 20},
};

}  // namespace

std::optional<Workload> FindWorkload(std::string_view name, bool smoke) {
  for (Workload w : kWorkloads) {
    if (name != w.name) continue;
    if (smoke) {
      w.keys = std::max<uint32_t>(w.keys >> 6, 1024);
      w.initial_slots = std::max<uint64_t>(w.initial_slots >> 6, 1024);
      w.setups = 1;
      w.hit_window >>= 6;
    }
    return w;
  }
  return std::nullopt;
}

ZipfSampler::ZipfSampler(uint64_t n, double theta)
    : n_(static_cast<double>(n)), theta_(theta) {
  h_first_ = H(1.5) - 1;
  h_last_ = H(n_ + 0.5);
  squeeze_ = 2 - HInverse(H(2.5) - std::pow(2.0, -theta_));
}

double ZipfSampler::H(double x) const {
  // (x^(1-theta) - 1) / (1-theta), written to stay exact as theta -> 1.
  const double log_x = std::log(x);
  const double t = (1 - theta_) * log_x;
  return (std::fabs(t) > 1e-8 ? std::expm1(t) / t : 1 + t / 2) * log_x;
}

double ZipfSampler::HInverse(double y) const {
  const double t = std::max(y * (1 - theta_), -1.0);
  return std::exp((std::fabs(t) > 1e-8 ? std::log1p(t) / t : 1 - t / 2) * y);
}

uint64_t ZipfSampler::Sample(mccuckoo::Xoshiro256& rng) const {
  for (;;) {
    // Invert H at a uniform point between H(1.5) - 1 and H(n + 0.5); the
    // rank nearest the result is accepted when it lies under the density.
    const double y = h_last_ + rng.NextDouble() * (h_first_ - h_last_);
    const double x = HInverse(y);
    const double k = std::clamp(std::floor(x + 0.5), 1.0, n_);
    if (k - x <= squeeze_ || y >= H(k + 0.5) - std::pow(k, -theta_)) {
      return static_cast<uint64_t>(k) - 1;
    }
  }
}

RequestStream::RequestStream(const Workload& w, uint64_t seed)
    : w_(w), rng_(mccuckoo::SplitMix64(seed ^ 0x73747265616D0000ull)) {
  if (w.theta > 0) zipf_.emplace(w.keys, w.theta);
}

uint32_t RequestStream::Next() {
  // Absent GETs come at a fixed stride, not by chance, so get_dram's
  // hit_ratio is exactly 1 - 1/absent_every less the counted evictions.
  if (w_.absent_every != 0 && ++drawn_ % w_.absent_every == 0) {
    return w_.keys + static_cast<uint32_t>(rng_.Below(w_.keys));
  }
  const uint32_t id = zipf_ ? static_cast<uint32_t>(zipf_->Sample(rng_))
                            : static_cast<uint32_t>(rng_.Below(w_.keys));
  const bool set = w_.set_share > 0 && rng_.NextDouble() < w_.set_share;
  return set ? (id | kSetBit) : id;
}

Checker::Checker(const Keyspace& keys, const Workload& w)
    : keys_(keys),
      present_(static_cast<size_t>(w.keys) * (w.absent_every != 0 ? 2 : 1),
               0) {
  std::fill(present_.begin(), present_.begin() + w.keys, 1);
}

void Checker::Observe(uint32_t op, mccuckoo::server::RespStatus status,
                      std::string_view body) {
  using mccuckoo::server::RespStatus;
  ++observed;
  const bool in_window = window_left_ != 0;
  if (in_window) --window_left_;
  const uint32_t id = op & ~kSetBit;
  if ((op & kSetBit) != 0) {
    if (status == RespStatus::kOk) {
      present_[id] = 1;
    } else {
      ++failed;
    }
    return;
  }
  window_gets += in_window;
  if (status == RespStatus::kOk) {
    window_hits += in_window;
    char want[kValueLen];
    keys_.Value(id, want);
    if (present_[id] == 0 || body != std::string_view(want, kValueLen)) {
      ++failed;
    }
  } else if (status == RespStatus::kNotFound) {
    if (present_[id] != 0) {
      present_[id] = 0;
      ++lost;
    }
  } else {
    ++failed;
  }
}

}  // namespace mcbench
