// Scalar vs batched (prefetch-pipelined) lookup throughput.
//
// The batched paths hash a whole tile of keys and issue prefetches for
// every candidate bucket before resolving any of them, hiding DRAM latency
// behind useful work. That only pays off when the table is bigger than the
// last-level cache, so the default table is sized well past typical LLCs
// (~650 MB at 27M slots); shrink it with --slots for smoke runs on small
// machines / CI.
//
// Sweeps the two multi-copy schemes over load 0.5–0.95 (0.95 only for the
// blocked scheme — 3-slot buckets support it, single-slot tables do not)
// and batch sizes {8, 16, 32, 64} against the scalar loop. The rows of one
// (scheme, load) form one group of interleaved reps (bench/bench_driver.h).
// Results merge into BENCH_throughput.json under the "batch." prefix;
// items/sec counts looked-up keys.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_driver.h"
#include "src/sim/schemes.h"
#include "src/sim/sweep.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

constexpr uint64_t kLookupsPerRep = 1 << 20;

/// One lazily-filled table per scheme, shared by every row of that scheme.
/// Groups run in ascending load, so the fill only ever moves forward.
struct SchemeState {
  std::unique_ptr<SchemeTable> table;
  std::vector<uint64_t> keys;  // insertion stream; [0, cursor) are live
  size_t cursor = 0;
};

void FillTo(SchemeState& s, SchemeKind kind, uint64_t slots, double load) {
  if (s.table == nullptr) {
    SchemeConfig c;
    c.total_slots = slots;
    c.maxloop = 500;
    c.seed = 7;
    s.table = MakeScheme(kind, c);
    s.keys = MakeUniqueKeys(s.table->capacity(), 7, 0);
  }
  if (s.table->load_factor() < load) {
    FillToLoad(*s.table, s.keys, load, &s.cursor);
  }
}

// One row: kLookupsPerRep hit lookups as scalar Finds (batch 0) or as
// FindBatch calls of `batch` keys. The row keeps its key cursor across
// reps, so a rep probes keys the previous rep did not warm.
BenchRow LookupRow(const std::string& key, std::shared_ptr<SchemeState> s,
                   size_t batch) {
  const size_t step = std::max<size_t>(batch, 1);
  return {key, [s, batch, step, cursor = size_t{0},
                out = std::vector<uint64_t>(step),
                found = std::vector<uint8_t>(step)]() mutable {
            SchemeTable& t = *s->table;
            const uint64_t* keys = s->keys.data();
            const size_t live = s->cursor - (s->cursor % step);
            size_t i = cursor % live;
            for (uint64_t n = 0; n < kLookupsPerRep; n += step) {
              if (batch == 0) {
                DoNotOptimize(t.Find(keys[i], out.data()));
              } else {
                DoNotOptimize(t.FindBatch(
                    std::span<const uint64_t>(keys + i, batch), out.data(),
                    reinterpret_cast<bool*>(found.data())));
              }
              i = (i + step) % live;
            }
            cursor = i;
            return kLookupsPerRep;
          }};
}

std::vector<BenchGroup> Groups(uint64_t slots) {
  std::vector<BenchGroup> groups;
  for (const SchemeKind kind :
       {SchemeKind::kMcCuckoo, SchemeKind::kBMcCuckoo}) {
    auto state = std::make_shared<SchemeState>();
    std::vector<int> loads = {50, 75, 90};
    // 0.95 exceeds the d=3 single-slot cuckoo load threshold (~0.917);
    // only the blocked scheme can reach it.
    if (IsBlocked(kind)) loads.push_back(95);
    for (const int load : loads) {
      const std::string base = std::string("batch.lookup_hit.") +
                               SchemeName(kind) + ".load" +
                               std::to_string(load);
      BenchGroup group = {LookupRow(base + ".scalar", state, 0)};
      for (const size_t batch : {8, 16, 32, 64}) {
        group.push_back(
            LookupRow(base + ".batch" + std::to_string(batch), state, batch));
      }
      const auto fill = [state, kind, slots, load] {
        FillTo(*state, kind, slots, load / 100.0);
      };
      for (BenchRow& row : group) row.setup = fill;
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) {
  using namespace mccuckoo;
  const BenchOptions opt = ParseBenchOptions(argc, argv, 9ull * 3'000'000);
  return RunBenchToJson(opt, Groups(opt.slots), {"batch."});
}
