// Layer-by-layer replay of a workload's requests, for the per-layer
// ledger of a traced run.
//
// The requests are replayed in pipelines of kDepth, the way the server
// receives them, but one layer at a time: every pipeline through the
// client's request encoder, then every pipeline through the protocol
// parser, then the table (core), the key hash, the item store, the
// response encoder, and finally the client's response parse and check.
// This code times each layer's public calls (table placements excepted,
// see below). Passing all pipelines through one layer before the next means
// a layer does not find its data in the cache just because the layer
// before it touched the same keys a moment earlier.
//
// The core pass mirrors the table calls ItemStore makes: Find or FindBatch
// for a GET (FindBatch for a run of >= 2 GETs, as StoreHandler coalesces
// them), and for a SET the presence Find plus, for a present key, the
// in-place InsertOrAssign of its current value. The pass must leave the
// table as it found it, so it cannot place an absent key; placements are
// priced instead by the table's own per-insert timer (the insert_ns
// histogram sum) while the item store pass performs them.

#ifndef MCBENCH_REPLAY_H_
#define MCBENCH_REPLAY_H_

#include <cstdint>
#include <span>

#include "benchmark/trace.h"
#include "benchmark/workload.h"
#include "src/common/status.h"
#include "src/server/item_store.h"

namespace mcbench {

/// Nanoseconds each layer spent on the replayed requests.
struct LayerTotals {
  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t client_ns = 0;     ///< Key/value derivation, request encode,
                              ///< response parse and check.
  uint64_t parse_ns = 0;      ///< ParseRequest.
  uint64_t encode_ns = 0;     ///< AppendResponse.
  uint64_t hash_ns = 0;       ///< XxHash64 of each key.
  uint64_t core_get_ns = 0;   ///< Table Find / FindBatch for GETs.
  uint64_t core_set_ns = 0;   ///< Table Find + update or placement, SETs.
  uint64_t store_get_ns = 0;  ///< ItemStore Get / GetBatch.
  uint64_t store_set_ns = 0;  ///< ItemStore Set.
};

/// The seed ItemStore hashes key bytes with (XxHash64). It mirrors the
/// store's private derivation from ItemStoreOptions::seed; the benchmark
/// checks it against the live table before replaying.
uint64_t StoreKeySeed();

/// Replays `ops` (a multiple of kDepth) against `store` while no client
/// sends it requests. Responses go through `checker`. Spans
/// for every pass, and per pipeline for a sample of pipelines, go to
/// `tracer` under `parent`. Adds the layer times to `*totals`.
mccuckoo::Status Replay(mccuckoo::server::ItemStore& store,
                        const Keyspace& keys, std::span<const uint32_t> ops,
                        Checker* checker, Tracer* tracer, uint32_t parent,
                        LayerTotals* totals);

}  // namespace mcbench

#endif  // MCBENCH_REPLAY_H_
