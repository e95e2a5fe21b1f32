// Workloads of the cache-server benchmark and the inputs they derive from
// a seed: key bytes, key-derived values, request streams, and the client-
// side checker that every response is held against.

#ifndef MCBENCH_WORKLOAD_H_
#define MCBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/server/protocol.h"

namespace mcbench {

/// Requests per CacheClient::FlushPipeline (closed loop, one connection).
inline constexpr size_t kDepth = 64;
/// Keys are 'k' + 16 hex digits; values are 64 key-derived bytes.
inline constexpr size_t kKeyLen = 17;
inline constexpr size_t kValueLen = 64;
/// A request is one uint32 op word: the key id, plus this bit for a SET.
inline constexpr uint32_t kSetBit = 1u << 31;

struct Workload {
  const char* name;
  uint32_t keys;           ///< Ids [0, keys) are preloaded.
  double theta;            ///< Zipf skew of the request ids; 0 = uniform.
  uint32_t absent_every;   ///< Every this-many-th request is a GET for a
                           ///< never-set id in [keys, 2*keys); 0 = none.
  double set_share;        ///< SETs in the request mix.
  uint64_t initial_slots;  ///< ItemStoreOptions::initial_slots.
  bool growth;             ///< ItemStoreOptions::growth_enabled.
  int setups;              ///< Set-ups per run; setup_s is their minimum.
  uint32_t hit_window;     ///< hit_ratio counts the first this-many
                           ///< requests after the warm-up.
};

/// The workloads by name; `smoke` shrinks every size so a run takes seconds.
/// Returns nullopt for an unknown name.
std::optional<Workload> FindWorkload(std::string_view name, bool smoke);

/// Key and value bytes of an id under one seed.
class Keyspace {
 public:
  explicit Keyspace(uint64_t seed)
      : salt_(mccuckoo::SplitMix64(seed ^ 0x6B65797370616365ull)) {}

  /// Writes the kKeyLen key bytes of `id`. The scramble is a bijection, so
  /// distinct ids give distinct keys and id popularity is independent of
  /// where the table places a key.
  void Key(uint32_t id, char* out) const {
    static constexpr char kHex[] = "0123456789abcdef";
    uint64_t x = Scramble(id);
    out[0] = 'k';
    for (size_t i = kKeyLen - 1; i >= 1; --i) {
      out[i] = kHex[x & 15];
      x >>= 4;
    }
  }

  /// Writes the kValueLen value bytes of `id`; a GET that returns another
  /// item's value therefore fails the byte comparison.
  void Value(uint32_t id, char* out) const {
    uint64_t x = Scramble(id);
    for (size_t i = 0; i < kValueLen; i += 8) {
      x = mccuckoo::SplitMix64(x);
      std::memcpy(out + i, &x, 8);
    }
  }

 private:
  uint64_t Scramble(uint32_t id) const {
    return mccuckoo::SplitMix64(id ^ salt_);
  }

  uint64_t salt_;
};

/// The id preloaded `i`-th: coldest first (ids are Zipf ranks), the order
/// a FIFO cache would have taken them in, so eviction under pressure takes
/// cold keys, not hot ones.
inline uint32_t PreloadId(const Workload& w, uint32_t i) {
  return w.keys - 1 - i;
}

/// Zipf ranks 0..n-1 with P(rank k) proportional to 1 / (k+1)^theta, drawn
/// in constant time and memory by rejection-inversion (Hoermann and
/// Derflinger, 1996). The table sampler in src/workload/zipf.h draws the
/// same distribution but costs a binary search over an n-entry table per
/// draw, too slow to run beside the server for every request.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double theta);
  uint64_t Sample(mccuckoo::Xoshiro256& rng) const;

 private:
  /// Integral of x^-theta, and its inverse.
  double H(double x) const;
  double HInverse(double y) const;

  double n_;
  double theta_;
  double h_first_;  // H(1.5) - 1
  double h_last_;   // H(n + 0.5)
  double squeeze_;  // Accept without the test when k - x <= this.
};

/// The workload's requests, drawn one at a time under `seed`, so a run of
/// any length never sends the same stream twice. A SET stream that repeats
/// would stop placing keys once every key it sets is present.
class RequestStream {
 public:
  RequestStream(const Workload& w, uint64_t seed);

  /// The next op word.
  uint32_t Next();

 private:
  const Workload& w_;
  mccuckoo::Xoshiro256 rng_;
  std::optional<ZipfSampler> zipf_;
  uint64_t drawn_ = 0;
};

/// Holds every response against what the client knows: a GET hit must
/// carry its key's value bytes and target a key that was set, a SET must
/// answer OK, and each GET miss on a key the client believes present is
/// recorded as a lost key, which only a counted eviction may explain.
class Checker {
 public:
  Checker(const Keyspace& keys, const Workload& w);

  void Observe(uint32_t op, mccuckoo::server::RespStatus status,
               std::string_view body);

  /// Counts GETs and hits over the next `n` responses only, into
  /// window_gets and window_hits.
  void OpenWindow(uint64_t n) {
    window_left_ = n;
    window_gets = 0;
    window_hits = 0;
  }
  bool WindowOpen() const { return window_left_ != 0; }

  uint64_t observed = 0;  ///< Responses checked.
  uint64_t failed = 0;    ///< Wrong bytes, wrong status, or a phantom hit.
  uint64_t lost = 0;      ///< Distinct present-believed keys found missing.
  uint64_t window_gets = 0;
  uint64_t window_hits = 0;

 private:
  const Keyspace& keys_;
  std::vector<uint8_t> present_;  ///< By id: the client believes it is set.
  uint64_t window_left_ = 0;
};

}  // namespace mcbench

#endif  // MCBENCH_WORKLOAD_H_
