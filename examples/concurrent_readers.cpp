// A read-mostly service (the paper's §III.H deployment): reader threads
// serve lookups continuously while one writer streams updates in.
// Demonstrates ShardedMcCuckoo at one shard — its readers take no lock
// (seqlock-validated probes, with a fallback that waits only on the key's
// own bucket stripes), and its writers take only striped bucket locks —
// and measures aggregate reader throughput alongside writer progress.
//
//   ./build/examples/concurrent_readers

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/workload/keyset.h"

using namespace mccuckoo;

int main() {
  constexpr int kReaders = 2;
  constexpr uint64_t kWrites = 30'000;

  TableOptions options;
  options.buckets_per_table = 80'000;
  options.deletion_mode = DeletionMode::kResetCounters;
  ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>> table(options, 1);

  const auto keys = MakeUniqueKeys(kWrites, 11, 0);
  const auto missing = MakeUniqueKeys(kWrites, 11, 7);

  // Pre-load half so readers have something to chew on from the start.
  for (uint64_t i = 0; i < kWrites / 2; ++i) {
    table.Insert(keys[i], keys[i] + 1);
  }

  std::atomic<uint64_t> committed{kWrites / 2};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = static_cast<uint64_t>(r) * 12345;
      uint64_t local_reads = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t limit = committed.load(std::memory_order_acquire);
        uint64_t v = 0;
        // A committed key must be found with the right value...
        if (!table.Find(keys[i % limit], &v) || v != keys[i % limit] + 1) {
          errors.fetch_add(1);
        }
        // ...and a never-inserted key must stay absent.
        if (table.Contains(missing[i % missing.size()])) {
          errors.fetch_add(1);
        }
        local_reads += 2;
        ++i;
        // Courtesy yield so the writer makes progress on few-core hosts.
        if ((i & 0xFF) == 0) std::this_thread::yield();
      }
      reads.fetch_add(local_reads);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = kWrites / 2; i < kWrites; ++i) {
    table.Insert(keys[i], keys[i] + 1);
    committed.store(i + 1, std::memory_order_release);
  }
  const auto writer_done = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  const auto end = std::chrono::steady_clock::now();

  const double writer_s =
      std::chrono::duration<double>(writer_done - start).count();
  const double total_s = std::chrono::duration<double>(end - start).count();
  std::printf("writer: %" PRIu64 " inserts in %.3f s (%.2f Mops)\n",
              kWrites / 2, writer_s, kWrites / 2 / writer_s / 1e6);
  std::printf("readers: %" PRIu64 " lookups across %d threads (%.2f Mops "
              "aggregate)\n",
              reads.load(), kReaders, reads.load() / total_s / 1e6);
  std::printf("consistency errors observed by readers: %" PRIu64 "\n",
              errors.load());
  std::printf("final: %zu keys at %.1f%% load\n", table.size(),
              table.load_factor() * 100);
  return errors.load() == 0 ? 0 : 1;
}
