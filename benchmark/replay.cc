#include "benchmark/replay.h"

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/hash/xxhash.h"
#include "src/obs/timing.h"
#include "src/server/protocol.h"

namespace mcbench {

namespace {

using mccuckoo::NowNs;
using mccuckoo::Status;
using mccuckoo::server::ItemStore;
using mccuckoo::server::ItemStoreOptions;
using mccuckoo::server::ParseStatus;
using mccuckoo::server::RespStatus;

// Per-pipeline spans are kept for about this many pipelines per pass.
constexpr size_t kSampledPipelines = 128;

bool IsSet(uint32_t op) { return (op & kSetBit) != 0; }

// End (exclusive) of the run of consecutive GETs starting at `j` within
// one pipeline, the unit StoreHandler coalesces into one batched lookup.
size_t GetRunEnd(std::span<const uint32_t> pipe, size_t j) {
  while (j < pipe.size() && !IsSet(pipe[j])) ++j;
  return j;
}

}  // namespace

uint64_t StoreKeySeed() {
  return mccuckoo::SplitMix64(ItemStoreOptions{}.seed ^ 0xD6E8FEB86659FD93ull);
}

Status Replay(ItemStore& store, const Keyspace& keys,
              std::span<const uint32_t> ops, Checker* checker, Tracer* tracer,
              uint32_t parent, LayerTotals* totals) {
  const size_t n = ops.size();
  const size_t pipes = n / kDepth;
  if (pipes * kDepth != n) {
    return Status::InvalidArgument("replay length is not whole pipelines");
  }
  const size_t stride = pipes > kSampledPipelines ? pipes / kSampledPipelines
                                                  : 1;
  std::vector<char> key_bytes(n * kKeyLen);
  std::vector<char> value_bytes(n * kValueLen);
  std::vector<uint64_t> hashes(n);
  std::vector<std::string> requests(pipes);
  std::vector<std::string> responses(pipes);
  std::vector<uint8_t> status(n);
  std::vector<std::string> values(n);

  auto key = [&](size_t i) {
    return std::string_view(&key_bytes[i * kKeyLen], kKeyLen);
  };
  auto value = [&](size_t i) {
    return std::string_view(&value_bytes[i * kValueLen], kValueLen);
  };
  auto pipe_ops = [&](size_t p) { return ops.subspan(p * kDepth, kDepth); };

  // One pass = one layer over every pipeline. `body(p)` runs pipeline p and
  // adds the time of the layer's calls to `totals`; the pass adds a span
  // for every stride-th pipeline.
  auto pass = [&](const char* name, auto&& body) -> Status {
    const uint32_t id = tracer != nullptr ? tracer->Begin(name, parent) : 0;
    for (size_t p = 0; p < pipes; ++p) {
      const uint64_t t0 = NowNs();
      Status s = body(p);
      if (!s.ok()) return s;
      if (tracer != nullptr && p % stride == 0) {
        tracer->Add(name, t0, NowNs(), id, static_cast<int64_t>(p));
      }
    }
    if (tracer != nullptr) tracer->End(id);
    return Status::OK();
  };

  // Client: derive key (and value) bytes and encode the requests, into a
  // buffer reused across pipelines as CacheClient reuses its send buffer.
  std::string wire;
  Status s = pass("client.encode", [&](size_t p) {
    const uint64_t t0 = NowNs();
    wire.clear();
    for (size_t j = 0; j < kDepth; ++j) {
      const size_t i = p * kDepth + j;
      const uint32_t op = ops[i];
      keys.Key(op & ~kSetBit, &key_bytes[i * kKeyLen]);
      if (IsSet(op)) {
        keys.Value(op & ~kSetBit, &value_bytes[i * kValueLen]);
        mccuckoo::server::AppendSetRequest(&wire, key(i), value(i), 0,
                                           static_cast<uint32_t>(i));
      } else {
        mccuckoo::server::AppendGetRequest(&wire, key(i),
                                           static_cast<uint32_t>(i));
      }
    }
    totals->client_ns += NowNs() - t0;
    requests[p] = wire;
    return Status::OK();
  });
  if (!s.ok()) return s;

  s = pass("protocol.parse", [&](size_t p) {
    mccuckoo::server::Request r;
    std::string_view buf = requests[p];
    const uint64_t t0 = NowNs();
    for (size_t j = 0; j < kDepth; ++j) {
      const mccuckoo::server::ParseOutcome o =
          mccuckoo::server::ParseRequest(buf, &r);
      if (o.status != ParseStatus::kOk || r.opaque != p * kDepth + j) {
        return Status::Internal("replayed request did not parse back");
      }
      buf.remove_prefix(o.consumed);
    }
    totals->parse_ns += NowNs() - t0;
    return Status::OK();
  });
  if (!s.ok()) return s;

  // Untimed: the hashes the core pass looks up.
  const uint64_t seed = StoreKeySeed();
  uint64_t hash_xor = 0;
  for (size_t i = 0; i < n; ++i) {
    hashes[i] = mccuckoo::XxHash64(key(i).data(), kKeyLen, seed);
    hash_xor ^= hashes[i];
  }

  ItemStore::Sharded& table = store.table();
  std::array<uint64_t, kDepth> found_values;
  std::array<bool, kDepth> found;
  s = pass("core", [&](size_t p) {
    const std::span<const uint32_t> pipe = pipe_ops(p);
    const uint64_t* h = &hashes[p * kDepth];
    for (size_t j = 0; j < kDepth;) {
      if (IsSet(pipe[j])) {
        const uint64_t t0 = NowNs();
        uint64_t current = 0;
        if (table.Find(h[j], &current)) table.InsertOrAssign(h[j], current);
        totals->core_set_ns += NowNs() - t0;
        ++j;
        continue;
      }
      const size_t end = GetRunEnd(pipe, j);
      const uint64_t t0 = NowNs();
      if (end - j >= 2) {
        table.FindBatch(std::span<const uint64_t>(h + j, end - j),
                        found_values.data(), found.data());
      } else {
        table.Find(h[j], found_values.data());
      }
      totals->core_get_ns += NowNs() - t0;
      j = end;
    }
    return Status::OK();
  });
  if (!s.ok()) return s;

  uint64_t hashed_xor = 0;
  s = pass("hash", [&](size_t p) {
    const uint64_t t0 = NowNs();
    for (size_t i = p * kDepth; i < (p + 1) * kDepth; ++i) {
      hashed_xor ^= mccuckoo::XxHash64(key(i).data(), kKeyLen, seed);
    }
    totals->hash_ns += NowNs() - t0;
    return Status::OK();
  });
  if (!s.ok()) return s;
  if (hashed_xor != hash_xor) return Status::Internal("hash pass diverged");

  // Item store: the calls StoreHandler makes, with its reused buffers.
  std::vector<std::string_view> run_keys;
  std::vector<std::string> run_values;
  std::vector<uint8_t> run_found;
  std::string scratch;
  const uint64_t placed_ns0 = table.metrics_snapshot().insert_ns.sum;
  s = pass("item_store", [&](size_t p) {
    const std::span<const uint32_t> pipe = pipe_ops(p);
    const size_t base = p * kDepth;
    for (size_t j = 0; j < kDepth;) {
      const size_t i = base + j;
      if (IsSet(pipe[j])) {
        const uint64_t t0 = NowNs();
        const Status st = store.Set(key(i), value(i), 0);
        totals->store_set_ns += NowNs() - t0;
        status[i] = static_cast<uint8_t>(st.ok() ? RespStatus::kOk
                                                 : RespStatus::kServerError);
        ++totals->sets;
        ++j;
        continue;
      }
      const size_t end = GetRunEnd(pipe, j);
      if (end - j >= 2) {
        run_keys.clear();
        for (size_t k = j; k < end; ++k) run_keys.push_back(key(base + k));
        const uint64_t t0 = NowNs();
        store.GetBatch(run_keys, &run_values, &run_found);
        totals->store_get_ns += NowNs() - t0;
        // Copied, not moved out: GetBatch then frees and reallocates its
        // value strings on the next call, as it does under StoreHandler.
        for (size_t k = j; k < end; ++k) {
          status[base + k] = static_cast<uint8_t>(
              run_found[k - j] != 0 ? RespStatus::kOk : RespStatus::kNotFound);
          values[base + k] = run_values[k - j];
        }
      } else {
        scratch.clear();
        const uint64_t t0 = NowNs();
        const bool hit = store.Get(key(i), &scratch);
        totals->store_get_ns += NowNs() - t0;
        status[i] = static_cast<uint8_t>(hit ? RespStatus::kOk
                                             : RespStatus::kNotFound);
        values[i] = scratch;
      }
      totals->gets += end - j;
      j = end;
    }
    return Status::OK();
  });
  if (!s.ok()) return s;
  totals->core_set_ns += table.metrics_snapshot().insert_ns.sum - placed_ns0;

  s = pass("protocol.encode", [&](size_t p) {
    const uint64_t t0 = NowNs();
    wire.clear();
    for (size_t i = p * kDepth; i < (p + 1) * kDepth; ++i) {
      mccuckoo::server::AppendResponse(&wire, static_cast<RespStatus>(status[i]),
                                       static_cast<uint32_t>(i), values[i]);
    }
    totals->encode_ns += NowNs() - t0;
    responses[p] = wire;
    return Status::OK();
  });
  if (!s.ok()) return s;

  s = pass("client.decode", [&](size_t p) {
    mccuckoo::server::Response r;
    std::string body;
    std::string_view buf = responses[p];
    const uint64_t t0 = NowNs();
    for (size_t i = p * kDepth; i < (p + 1) * kDepth; ++i) {
      const mccuckoo::server::ParseOutcome o =
          mccuckoo::server::ParseResponse(buf, &r);
      if (o.status != ParseStatus::kOk || r.opaque != i) {
        return Status::Internal("replayed response did not parse back");
      }
      body.assign(r.body);
      checker->Observe(ops[i], r.status, body);
      buf.remove_prefix(o.consumed);
    }
    totals->client_ns += NowNs() - t0;
    return Status::OK();
  });
  if (!s.ok()) return s;

  totals->ops += n;
  return Status::OK();
}

}  // namespace mcbench
