#include "src/sim/schemes.h"

#include <cstdio>
#include <cstdlib>

#include "src/baseline/cuckoo_table.h"
#include "src/common/bits.h"
#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"

namespace mccuckoo {

namespace {

// Adapts any of the three concrete tables to the SchemeTable interface.
template <typename Table>
class SchemeAdapter final : public SchemeTable {
 public:
  explicit SchemeAdapter(const TableOptions& options) : table_(options) {}

  InsertResult Insert(uint64_t key, uint64_t value) override {
    return table_.Insert(key, value);
  }
  InsertResult InsertOrAssign(uint64_t key, uint64_t value) override {
    return table_.InsertOrAssign(key, value);
  }
  bool Find(uint64_t key, uint64_t* out) const override {
    return table_.Find(key, out);
  }
  bool Erase(uint64_t key) override { return table_.Erase(key); }

  size_t FindBatch(std::span<const uint64_t> keys, uint64_t* out,
                   bool* found) const override {
    return table_.FindBatch(keys, out, found);
  }
  void InsertBatch(std::span<const uint64_t> keys,
                   std::span<const uint64_t> values,
                   InsertResult* results) override {
    table_.InsertBatch(keys, values, results);
  }

  size_t size() const override { return table_.size(); }
  size_t stash_size() const override { return table_.stash_size(); }
  size_t TotalItems() const override { return table_.TotalItems(); }
  uint64_t capacity() const override { return table_.capacity(); }
  double load_factor() const override { return table_.load_factor(); }

  const AccessStats& stats() const override { return table_.stats(); }
  void ResetStats() override { table_.ResetStats(); }
  MetricsSnapshot SnapshotMetrics() const override {
    return table_.SnapshotMetrics();
  }
  void ResetMetrics() override { table_.ResetMetrics(); }
  uint64_t first_collision_items() const override {
    return table_.first_collision_items();
  }
  uint64_t first_failure_items() const override {
    return table_.first_failure_items();
  }
  uint64_t forced_rehash_events() const override {
    return table_.forced_rehash_events();
  }
  size_t onchip_memory_bytes() const override {
    return table_.onchip_memory_bytes();
  }
  Status ValidateInvariants() const override {
    return table_.ValidateInvariants();
  }
  const char* probe_variant() const override {
    if constexpr (requires { table_.probe_variant(); }) {
      return table_.probe_variant();
    } else {
      return "none";  // baselines carry no tag probes
    }
  }

 private:
  Table table_;
};

TableOptions ToTableOptions(const SchemeConfig& c, bool blocked,
                            bool multi_copy) {
  TableOptions o;
  o.num_hashes = c.num_hashes;
  o.slots_per_bucket = blocked ? c.slots_per_bucket : 1;
  // Round to the blocked granularity (a multiple of the single-slot one) so
  // every scheme gets exactly the same slot capacity: single-slot gets
  // slots / d buckets per sub-table, blocked gets slots / (d * l) buckets
  // of l slots.
  const uint64_t granularity =
      static_cast<uint64_t>(c.num_hashes) * c.slots_per_bucket;
  const uint64_t slots = RoundUp(c.total_slots, granularity);
  o.buckets_per_table = slots / c.num_hashes / o.slots_per_bucket;
  o.maxloop = c.maxloop;
  o.seed = c.seed;
  o.deletion_mode = c.deletion_mode;
  o.eviction_policy = c.eviction_policy;
  o.stash_kind = (!multi_copy && c.baseline_onchip_stash)
                     ? StashKind::kOnchipChs
                     : StashKind::kOffchip;
  o.stash_screen_enabled = c.stash_screen_enabled;
  o.lookup_pruning_enabled = c.lookup_pruning_enabled;
  o.probe = c.probe;
  o.latency_sample_period = c.latency_sample_period;
  return o;
}

}  // namespace

const char* SchemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kCuckoo:    return "Cuckoo";
    case SchemeKind::kMcCuckoo:  return "McCuckoo";
    case SchemeKind::kBcht:      return "BCHT";
    case SchemeKind::kBMcCuckoo: return "B-McCuckoo";
  }
  return "?";
}

std::unique_ptr<SchemeTable> MakeScheme(SchemeKind kind,
                                        const SchemeConfig& config) {
  const TableOptions opts =
      ToTableOptions(config, IsBlocked(kind), IsMultiCopy(kind));
  const Status s = opts.Validate();
  if (!s.ok()) {
    std::fprintf(stderr, "MakeScheme: %s\n", s.ToString().c_str());
    std::abort();
  }
  using K = uint64_t;
  using V = uint64_t;
  switch (kind) {
    case SchemeKind::kCuckoo:
    case SchemeKind::kBcht:  // the blocked layout: opts.slots_per_bucket > 1
      return std::make_unique<SchemeAdapter<CuckooTable<K, V>>>(opts);
    case SchemeKind::kMcCuckoo:
      return std::make_unique<SchemeAdapter<McCuckooTable<K, V>>>(opts);
    case SchemeKind::kBMcCuckoo:
      return std::make_unique<SchemeAdapter<BlockedMcCuckooTable<K, V>>>(opts);
  }
  std::abort();
}

}  // namespace mccuckoo
